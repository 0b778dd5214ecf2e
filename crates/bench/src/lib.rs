//! Benchmark harness for the SciSPARQL evaluation (thesis ch. 6).
//!
//! [`workload`] implements the array mini-benchmark's query generator
//! (§6.3.1): parameterized access patterns over stored 2-D arrays.
//! [`runner`] executes a pattern against an [`ssdm_storage::ArrayStore`]
//! under a chosen retrieval strategy and collects the measurements the
//! thesis reports: wall time, back-end statements, chunks and bytes
//! fetched. The `repro_*` binaries print one table or figure each; the
//! Criterion benches track the same code paths over time.

pub mod runner;
pub mod workload;

/// Format a f64 duration in milliseconds with sensible precision.
pub fn fmt_ms(seconds: f64) -> String {
    let ms = seconds * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// What a committed `BENCH_*.json` is stamped with: the short hash of
/// the checked-out commit, `+dirty` when the working tree differs from
/// it (a measurement taken before its own commit exists names the
/// parent), `unknown` outside a git checkout.
pub fn measured_at() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if !head.is_empty() => match git(&["status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}+dirty"),
        },
        _ => "unknown".to_string(),
    }
}
