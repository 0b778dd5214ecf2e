//! Typed compute kernels: dense f64 arrays of ≥1M elements through the
//! typed kernels (`zip_with` / `scalar_op`) against the retained
//! per-element `Num` reference path (`zip_with_ref` / `scalar_op_ref`),
//! every result checked bit-identical. Claim: **≥4×** on the best op.
//!
//! `--workers` sizes the kernel pool to the sweep's largest count
//! (arrays at or above the parallel threshold split across it); the
//! streamed-aggregate worker sweep is `repro_parallel`'s.
//!
//! ```text
//! repro_kernels [--quick] [--workers N[,N]...] [--out PATH]
//! ```

use std::process::ExitCode;

use ssdm_array::{BinOp, Num, NumArray};
use ssdm_bench::{best_of, Args, Bar, Fmt, Report};

const ELEMS: usize = 1 << 20; // 1M f64 — the acceptance floor's size

fn dense(n: usize, salt: f64) -> NumArray {
    NumArray::from_f64(
        (0..n)
            .map(|i| (i as f64 * 0.618 + salt).sin() * 100.0 + salt)
            .collect(),
    )
}

fn bits(a: &NumArray) -> Vec<u64> {
    a.elements().iter().map(|n| n.as_f64().to_bits()).collect()
}

fn main() -> ExitCode {
    let args = Args::parse(
        "repro_kernels",
        &["--quick", "--workers N[,N]...", "--out PATH"],
    );
    let mut report = Report::new(&args);
    let repeats = if args.quick() { 3 } else { 7 };
    let workers = *args.workers().last().expect("non-empty");
    report.config(&[("elements", ELEMS.into()), ("workers", workers.into())]);
    println!("Typed compute kernels");
    println!("elementwise: {ELEMS} f64 elements, best of {repeats}, {workers} kernel workers");

    ssdm_array::pool::set_compute_workers(workers);
    let a = dense(ELEMS, 1.25);
    let b = dense(ELEMS, -0.75);
    let scalar = Num::Real(1.0625);
    type Run<'a> = Box<dyn Fn() -> NumArray + 'a>;
    let runs: Vec<(&str, Run, Run)> = vec![
        (
            "add(a,b)",
            Box::new(|| a.zip_with(&b, BinOp::Add).expect("add")),
            Box::new(|| a.zip_with_ref(&b, BinOp::Add).expect("add ref")),
        ),
        (
            "mul(a,b)",
            Box::new(|| a.zip_with(&b, BinOp::Mul).expect("mul")),
            Box::new(|| a.zip_with_ref(&b, BinOp::Mul).expect("mul ref")),
        ),
        (
            "a+s",
            Box::new(|| a.scalar_op(scalar, BinOp::Add).expect("sadd")),
            Box::new(|| a.scalar_op_ref(scalar, BinOp::Add).expect("sadd ref")),
        ),
    ];
    let mut rows = Vec::new();
    let mut best = 0.0f64;
    for (label, kernel_run, ref_run) in &runs {
        let (kernel_ms, kernel_out) = best_of(repeats, kernel_run);
        let (ref_ms, ref_out) = best_of(repeats, ref_run);
        assert_eq!(
            bits(&kernel_out),
            bits(&ref_out),
            "{label}: kernel must be bit-identical to the reference"
        );
        let speedup = ref_ms / kernel_ms;
        best = best.max(speedup);
        rows.push(vec![
            (*label).into(),
            ref_ms.into(),
            kernel_ms.into(),
            speedup.into(),
        ]);
    }
    report.table(
        "elementwise",
        &format!("elementwise kernels, {ELEMS} f64 (bit-identical ✓)"),
        &[
            ("op", "op", Fmt::Plain),
            ("ref ms", "ref_ms", Fmt::Fixed(2)),
            ("kernel ms", "kernel_ms", Fmt::Fixed(2)),
            ("speedup", "speedup", Fmt::Unit(1, "x")),
        ],
        rows,
    );
    report.check(
        format!("best elementwise kernel speedup at {ELEMS} f64"),
        best,
        Bar::AtLeast(4.0),
    );
    report.finish()
}
