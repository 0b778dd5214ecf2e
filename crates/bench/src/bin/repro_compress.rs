//! Chunk compression + zone-map skipping scenario.
//!
//! Four sweeps, each with its checked claims:
//!
//! 1. **codec matrix** — every `SCC1` policy over three chunk shapes:
//!    BISTAB-like integer series (slowly varying, delta-friendly),
//!    constant plateaus (RLE-friendly) and incompressible f64 noise
//!    (raw-fallback territory). Per cell: compression ratio and
//!    encode/decode throughput, every decode checked bit-identical.
//!    Claims: **≥2×** ratio on the integer series under `delta-bp`
//!    and `auto`, and no frame ever larger than raw + header.
//! 2. **predicate skipping** — a filtered aggregate over a clustered
//!    array behind the latency-simulated relational back-end
//!    (`networked_dbms`: 500 µs per statement). The zone map prunes
//!    non-qualifying chunks before any statement is issued. Claims:
//!    **≥2×** end-to-end speedup with skipping on vs off, and chunks
//!    skipped; results identical. An unfiltered `Max` over the same
//!    array is decided from the chunk summaries: claim, **0** chunks
//!    fetched, with the answer of the zone map off.
//! 3. **frame checksum** — `frame::crc32`, which every fetched chunk
//!    and every replayed WAL record passes through (the carry-less-
//!    multiply kernel where the CPU has PCLMULQDQ), beside its portable
//!    slicing-by-16 loop and the byte-at-a-time table loop that loop
//!    replaced. Claims, equal sums throughout: the portable loop at
//!    **≥3×** the byte loop, and the kernel at **≥4×** the portable loop
//!    where PCLMULQDQ is detected (not applicable elsewhere) — ratios
//!    between loops on the same machine, not speeds, so they hold on a
//!    slow runner.
//! 4. **decode kernels** — `codec::decode_words`, the block decoder
//!    every delta-bp chunk goes through, on the two chunk shapes the
//!    end-to-end benchmark stores (a raster row, deltas 7 bits wide, and
//!    a trajectory, 51 bits wide), beside the value-at-a-time loop it
//!    replaced: ns per word produced for a full 2 048-word chunk and for
//!    a 256-word window in the middle of one. Claim: a **≥2×** ratio on
//!    both, equal words — again a ratio and not a speed.
//!
//! ```text
//! repro_compress [--quick] [--out PATH]
//! ```

use std::ops::Range;
use std::process::ExitCode;

use relstore::LatencyModel;
use ssdm_array::{AggregateOp, Num, NumArray, NumericType};
use ssdm_bench::runner::rel_store;
use ssdm_bench::{best_of, Args, Bar, Fmt, Json, Report};
use ssdm_storage::codec::{decode_chunk, decode_words, encode_chunk};
use ssdm_storage::frame::{crc32, crc32_has_kernel, crc32_portable};
use ssdm_storage::{
    ArrayStore, CodecPolicy, Request, RetrievalStrategy, ValuePredicate, SCC_HEADER,
};

const CHUNK_BYTES: usize = 64 * 1024;

/// BISTAB-shaped integers: a drifting baseline with small per-sample
/// jitter, the shape of the thesis' stability-matrix time series.
fn bistab_ints(n: usize) -> Vec<u8> {
    (0..n as i64)
        .flat_map(|i| (1_000_000 + i / 8 + (i * 7) % 5).to_le_bytes())
        .collect()
}

/// Constant plateaus: long runs of one value (sensor dead bands).
fn plateau_ints(n: usize) -> Vec<u8> {
    (0..n as i64)
        .flat_map(|i| ((i / 512) * 40).to_le_bytes())
        .collect()
}

/// Pseudo-random f64 noise: incompressible, forces the raw fallback.
fn noise_reals(n: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .flat_map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            f64::from_bits((state >> 12) | 0x3FF0_0000_0000_0000).to_le_bytes()
        })
        .collect()
}

/// CRC32 (IEEE, reflected) one byte per step: what `frame::crc32` was
/// before it was sliced, kept here as the yardstick of sweep 3.
fn crc32_bytewise(table: &[u32; 256], data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn crc32_byte_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (0..8).fold(i as u32, |crc, _| {
            if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            }
        });
    }
    table
}

/// The delta-bp decoder as it was before the block kernels: one value
/// at a time out of a `u128` accumulator refilled eight bytes at a go,
/// each word a dependent add on the one before, the words before the
/// window produced and dropped. Kept here as the yardstick of sweep 4
/// (well-formed bodies only; the library's decoder does the checking).
fn delta_bp_words_valuewise(body: &[u8], n_words: usize, window: Range<usize>, out: &mut Vec<u64>) {
    out.clear();
    let mut prev = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    if window.contains(&0) {
        out.push(prev);
    }
    let (mut pos, mut next) = (8usize, 1usize);
    while next < window.end {
        let k = (n_words - next).min(128);
        let width = body[pos] as usize;
        let packed = &body[pos + 1..pos + 1 + (k * width).div_ceil(8)];
        pos += 1 + packed.len();
        let (mut at, mut acc, mut bits) = (0usize, 0u128, 0usize);
        for i in next..next + k.min(window.end - next) {
            if bits < width {
                if let Some(word) = packed.get(at..at + 8) {
                    acc |= (u64::from_le_bytes(word.try_into().expect("8 bytes")) as u128) << bits;
                    at += 8;
                    bits += 64;
                } else {
                    while bits < width {
                        acc |= (packed[at] as u128) << bits;
                        at += 1;
                        bits += 8;
                    }
                }
            }
            let z = if width == 0 {
                0
            } else {
                acc as u64 & (u64::MAX >> (64 - width))
            };
            acc >>= width;
            bits -= width;
            prev = prev.wrapping_add(((z >> 1) as i64 ^ -((z & 1) as i64)) as u64);
            if i >= window.start {
                out.push(prev);
            }
        }
        next += k;
    }
}

/// One raster row of the end-to-end benchmark: values in a 64-wide band,
/// so the zigzagged deltas are 7 bits wide.
fn raster_row(n: usize) -> Vec<u8> {
    (0..n as i64)
        .flat_map(|c| (6_400 + (3_100 + c * 17) % 64).to_le_bytes())
        .collect()
}

/// A BISTAB-shaped `f64` trajectory: a noisy walk settling on a level;
/// the deltas of the bit patterns are 51 bits wide.
fn trajectory(n: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let (target, mut level) = (120.0f64, 60.0f64);
    (0..n)
        .flat_map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            level += (target - level) * 0.1 + (unit - 0.5) * target * 0.1;
            level.to_le_bytes()
        })
        .collect()
}

fn main() -> ExitCode {
    let args = Args::parse("repro_compress", &["--quick", "--out PATH"]);
    let mut report = Report::new(&args);
    let quick = args.quick();
    let elems: usize = if quick { 1 << 17 } else { 1 << 20 };
    let repeats = if quick { 3 } else { 7 };
    let agg_repeats = if quick { 2 } else { 5 };
    report.config(&[
        ("elements", elems.into()),
        ("chunk_bytes", CHUNK_BYTES.into()),
        ("latency", "networked_dbms".into()),
    ]);
    println!("SCC1 chunk compression + zone-map predicate skipping");
    println!(
        "codec matrix: {elems} elements per dataset, {CHUNK_BYTES} B chunks, \
         best of {repeats}; skipping: networked-DBMS latency (500 us/statement), \
         best of {agg_repeats}"
    );

    // --- Sweep 1: codec matrix ------------------------------------------
    let datasets: Vec<(&'static str, NumericType, Vec<u8>)> = vec![
        ("bistab-int", NumericType::Int, bistab_ints(elems)),
        ("plateau-int", NumericType::Int, plateau_ints(elems)),
        ("noise-real", NumericType::Real, noise_reals(elems)),
    ];
    let policies = [
        CodecPolicy::Raw,
        CodecPolicy::DeltaBp,
        CodecPolicy::Rle,
        CodecPolicy::Auto,
    ];
    let mut rows = Vec::new();
    let mut oversized = 0;
    let mut bistab_ratios = Vec::new();
    for (dataset, ty, raw) in &datasets {
        let chunks: Vec<&[u8]> = raw.chunks(CHUNK_BYTES).collect();
        for policy in policies {
            let (encode_ms, frames) = best_of(repeats, || {
                let each = chunks.iter().map(|c| encode_chunk(c, *ty, policy).0);
                each.collect::<Vec<_>>()
            });
            let (decode_ms, decoded) = best_of(repeats, || {
                let each = frames
                    .iter()
                    .map(|f| decode_chunk(f).expect("well-formed frame"));
                each.collect::<Vec<_>>()
            });
            for (got, want) in decoded.iter().zip(&chunks) {
                assert_eq!(&got.as_slice(), want, "decode must be bit-identical");
            }
            let too_big = frames.iter().zip(&chunks);
            oversized += too_big
                .filter(|(f, c)| f.len() > c.len() + SCC_HEADER)
                .count();
            let ratio = raw.len() as f64 / frames.iter().map(Vec::len).sum::<usize>() as f64;
            if *dataset == "bistab-int"
                && matches!(policy, CodecPolicy::DeltaBp | CodecPolicy::Auto)
            {
                bistab_ratios.push((policy.name(), ratio));
            }
            let mb = raw.len() as f64 / 1e6;
            rows.push(vec![
                (*dataset).into(),
                policy.name().into(),
                ratio.into(),
                (mb / (encode_ms / 1e3)).into(),
                (mb / (decode_ms / 1e3)).into(),
            ]);
        }
    }
    report.table(
        "codecs",
        "SCC1 codec matrix (bit-identical ✓)",
        &[
            ("dataset", "dataset", Fmt::Plain),
            ("codec", "codec", Fmt::Plain),
            ("ratio", "ratio", Fmt::Unit(2, "x")),
            ("enc MB/s", "encode_mbps", Fmt::Fixed(0)),
            ("dec MB/s", "decode_mbps", Fmt::Fixed(0)),
        ],
        rows,
    );

    // --- Sweep 2: predicate-driven chunk skipping ------------------------
    // 128 chunks of 1024 clustered ints; the predicate's matches live in
    // exactly one chunk, so the zone map prunes 127 round trips.
    let mut store = ArrayStore::new(rel_store(LatencyModel::networked_dbms(), 1024));
    let clustered = NumArray::from_i64(
        (0..128 * 1024)
            .map(|i| (i / 1024) * 100_000 + i % 1024)
            .collect(),
    );
    let proxy = store.store_array(&clustered, 1024 * 8).expect("store");
    let pred = ValuePredicate::Range {
        lo: Num::Int(64 * 100_000),
        hi: Num::Int(64 * 100_000 + 1023),
    };
    let mut aggregate = |enabled: bool, req: Request| {
        store.set_skip_enabled(enabled);
        let (ms, total) = best_of(agg_repeats, || {
            let read = store
                .read(&[req], RetrievalStrategy::Single)
                .and_then(|mut r| r.remove(0).total());
            read.expect("aggregate")
        });
        (ms, total, store.last_stats())
    };
    let sum = Request::new(&proxy).filter(&pred).fold(AggregateOp::Sum);
    let max = Request::new(&proxy).fold(AggregateOp::Max);
    let (off_ms, off_sum, off_stats) = aggregate(false, sum);
    let (on_ms, on_sum, on_stats) = aggregate(true, sum);
    let (_, off_max, _) = aggregate(false, max);
    let (max_ms, on_max, max_stats) = aggregate(true, max);
    assert_eq!(on_sum, off_sum, "skipping changed an aggregate result");
    assert_eq!(on_max, off_max, "deciding changed an aggregate result");
    assert_eq!(off_stats.chunks_skipped, 0);
    let skip_speedup = off_ms / on_ms;
    let row = |label: &str, ms: f64, stats: ssdm_storage::AprStats| {
        let (fetched, skipped) = (stats.chunks_fetched, stats.chunks_skipped);
        let decided = stats.chunks_decided;
        vec![
            label.into(),
            ms.into(),
            fetched.into(),
            skipped.into(),
            decided.into(),
        ]
    };
    report.table(
        "skipping",
        &format!("filtered aggregate, networked DBMS ({skip_speedup:.1}x with skipping)"),
        &[
            ("skipping", "skipping", Fmt::Plain),
            ("ms/aggregate", "ms", Fmt::Fixed(2)),
            ("chunks fetched", "chunks_fetched", Fmt::Plain),
            ("skipped", "chunks_skipped", Fmt::Plain),
            ("decided", "chunks_decided", Fmt::Plain),
        ],
        vec![
            row("off", off_ms, off_stats),
            row("on", on_ms, on_stats),
            row("on, unfiltered max", max_ms, max_stats),
        ],
    );

    // --- Sweep 3: frame checksum ------------------------------------------
    // Chunk-sized pieces of the incompressible dataset, as the stores
    // checksum them: one call per stored chunk.
    let noise = &datasets[2].2;
    let table = crc32_byte_table();
    let checksum_all = |f: &dyn Fn(&[u8]) -> u32| {
        noise.chunks(CHUNK_BYTES).fold(0u32, |acc, c| {
            acc.rotate_left(1) ^ f(std::hint::black_box(c))
        })
    };
    let (crc_ms, crc_sum) = best_of(repeats, || checksum_all(&crc32));
    let (portable_ms, portable_sum) = best_of(repeats, || checksum_all(&crc32_portable));
    let (bytewise_ms, bytewise_sum) =
        best_of(repeats, || checksum_all(&|c| crc32_bytewise(&table, c)));
    assert_eq!(
        crc_sum, bytewise_sum,
        "frame::crc32 and the byte loop disagree"
    );
    assert_eq!(
        portable_sum, bytewise_sum,
        "the portable and byte loops disagree"
    );
    let crc_mb = noise.len() as f64 / 1e6;
    let portable_ratio = bytewise_ms / portable_ms;
    let kernel_ratio = portable_ms / crc_ms;
    let has_kernel = crc32_has_kernel();
    report.config(&[("pclmulqdq", has_kernel.into())]);
    let mb_per_s = |ms: f64| Json::from(crc_mb / (ms / 1e3));
    report.table(
        "checksum",
        &format!(
            "frame checksum, {CHUNK_BYTES} B chunks (kernel {}, {kernel_ratio:.1}x the portable loop, \
             which is {portable_ratio:.1}x the byte loop)",
            if has_kernel { "detected" } else { "not detected" }
        ),
        &[
            ("crc32", "loop", Fmt::Plain),
            ("MB/s", "mb_per_s", Fmt::Fixed(0)),
        ],
        vec![
            vec!["frame::crc32".into(), mb_per_s(crc_ms)],
            vec!["portable slicing-by-16".into(), mb_per_s(portable_ms)],
            vec!["byte-at-a-time reference".into(), mb_per_s(bytewise_ms)],
        ],
    );

    // --- Sweep 4: decode kernels -------------------------------------------
    // One 16 KiB chunk of each shape, decoded in full and at the window
    // a `tile_avg` reads: 256 words that start 700 words in.
    const KERNEL_WORDS: usize = 2048;
    let kernel_window = 700..956usize;
    let kernel_loops = if quick { 500 } else { 4000 };
    let mut rows = Vec::new();
    let mut kernel_ratios = Vec::new();
    for (shape, ty, raw) in [
        ("raster-row", NumericType::Int, raster_row(KERNEL_WORDS)),
        ("trajectory", NumericType::Real, trajectory(KERNEL_WORDS)),
    ] {
        let (frame, _) = encode_chunk(&raw, ty, CodecPolicy::DeltaBp);
        let body = &frame[SCC_HEADER..];
        let ns_per_word = |window: &Range<usize>| {
            let (mut kernel, mut reference) = (Vec::<u64>::new(), Vec::<u64>::new());
            let (kernel_ms, ()) = best_of(repeats, || {
                for _ in 0..kernel_loops {
                    decode_words(std::hint::black_box(&frame), window.clone(), &mut kernel)
                        .expect("well-formed frame");
                }
            });
            let (reference_ms, ()) = best_of(repeats, || {
                for _ in 0..kernel_loops {
                    let body = std::hint::black_box(body);
                    delta_bp_words_valuewise(body, KERNEL_WORDS, window.clone(), &mut reference);
                }
            });
            assert_eq!(kernel.len(), window.len());
            assert_eq!(kernel, reference, "the two decoders disagree on {shape}");
            let per_word = 1e6 / (kernel_loops * window.len()) as f64;
            (kernel_ms * per_word, reference_ms * per_word)
        };
        let mut row = vec![shape.into(), body[8].into()];
        for (what, window) in [
            ("full chunk", 0..KERNEL_WORDS),
            ("window", kernel_window.clone()),
        ] {
            let (kernel, reference) = ns_per_word(&window);
            row.extend([kernel.into(), reference.into(), (reference / kernel).into()]);
            kernel_ratios.push((format!("{shape} ({what})"), reference / kernel));
        }
        rows.push(row);
    }
    report.table(
        "decode_kernel",
        &format!(
            "delta-bp decode kernel, {KERNEL_WORDS}-word chunk, window {}..{} (equal words ✓)",
            kernel_window.start, kernel_window.end
        ),
        &[
            ("chunk shape", "shape", Fmt::Plain),
            ("width", "width", Fmt::Plain),
            ("full ns/word", "full_ns_per_word", Fmt::Fixed(2)),
            ("reference", "full_reference_ns_per_word", Fmt::Fixed(2)),
            ("ratio", "full_ratio", Fmt::Unit(1, "x")),
            ("window ns/word", "window_ns_per_word", Fmt::Fixed(2)),
            ("reference", "window_reference_ns_per_word", Fmt::Fixed(2)),
            ("ratio", "window_ratio", Fmt::Unit(1, "x")),
        ],
        rows,
    );

    // --- Claims -------------------------------------------------------------
    for (policy, ratio) in bistab_ratios {
        let claim = format!("compression ratio on bistab-int under {policy}");
        report.check(claim, ratio, Bar::AtLeast(2.0));
    }
    let claim = "frames larger than raw + header";
    report.check(claim, oversized as f64, Bar::Equals(0.0));
    report.check(
        "end-to-end speedup from chunk skipping",
        skip_speedup,
        Bar::AtLeast(2.0),
    );
    let claim = "chunks the zone map skipped";
    report.check(claim, on_stats.chunks_skipped as f64, Bar::AtLeast(1.0));
    let claim = "chunks an unfiltered max fetches with the zone map on";
    report.check(claim, max_stats.chunks_fetched as f64, Bar::Equals(0.0));
    let claim = "portable sliced crc32 vs the byte-at-a-time loop";
    report.check(claim, portable_ratio, Bar::AtLeast(3.0));
    let claim = "crc32 kernel vs the portable loop";
    if has_kernel {
        report.check(claim, kernel_ratio, Bar::AtLeast(4.0));
    } else {
        println!("- {claim}: not applicable, this CPU has no PCLMULQDQ");
    }
    for (what, ratio) in kernel_ratios {
        let claim = format!("block decoder vs the value-at-a-time loop, {what}");
        report.check(claim, ratio, Bar::AtLeast(2.0));
    }
    report.finish()
}
