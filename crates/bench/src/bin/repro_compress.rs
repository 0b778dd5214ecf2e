//! Chunk compression + zone-map skipping scenario.
//!
//! Four sweeps, each asserting its acceptance criteria:
//!
//! 1. **codec matrix** — every `SCC1` policy over three chunk shapes:
//!    BISTAB-like integer series (slowly varying, delta-friendly),
//!    constant plateaus (RLE-friendly) and incompressible f64 noise
//!    (raw-fallback territory). Per cell: compression ratio and
//!    encode/decode throughput, every decode checked bit-identical.
//!    Required: **≥2×** ratio on the integer series under `delta-bp`
//!    and `auto`, and no frame ever larger than raw + header.
//! 2. **predicate skipping** — a filtered aggregate over a clustered
//!    array behind the latency-simulated relational back-end
//!    (`networked_dbms`: 500 µs per statement). The zone map prunes
//!    non-qualifying chunks before any statement is issued. Required:
//!    **≥2×** end-to-end speedup with skipping on vs off, identical
//!    results, and a positive skipped-chunk count.
//! 3. **frame checksum** — `frame::crc32` (slicing-by-16), which every
//!    fetched chunk and every replayed WAL record passes through, beside
//!    the byte-at-a-time table loop it replaced. Required: equal sums
//!    and a **≥3×** ratio — a ratio between two loops on the same
//!    machine, not a speed, so it holds on a slow runner.
//! 4. **decode kernels** — `codec::decode_words`, the block decoder
//!    every delta-bp chunk goes through, on the two chunk shapes the
//!    end-to-end benchmark stores (a raster row, deltas 7 bits wide, and
//!    a trajectory, 51 bits wide), beside the value-at-a-time loop it
//!    replaced: ns per word produced for a full 2 048-word chunk and for
//!    a 256-word window in the middle of one. Required: equal words and
//!    a **≥2×** ratio on both, again a ratio and not a speed.
//!
//! Measurements land as JSON (default `BENCH_compress.json`, `--out`).
//!
//! ```text
//! repro_compress [--quick] [--out PATH]
//! ```

use std::ops::Range;
use std::time::Instant;

use relstore::{Db, DbOptions, LatencyModel};
use ssdm_array::{AggregateOp, Num, NumArray, NumericType};
use ssdm_bench::runner::print_table;
use ssdm_storage::codec::{decode_chunk, decode_words, encode_chunk};
use ssdm_storage::frame::crc32;
use ssdm_storage::{
    ArrayStore, CodecPolicy, RelChunkStore, RetrievalStrategy, ValuePredicate, SCC_HEADER,
};

const CHUNK_BYTES: usize = 64 * 1024;

fn usage() -> ! {
    eprintln!("usage: repro_compress [--quick] [--out PATH]");
    std::process::exit(2)
}

/// Best-of-N timing: the minimum is the least-noise estimate for a
/// deterministic computation.
fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("repeats >= 1"))
}

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

struct CodecCell {
    dataset: &'static str,
    policy: CodecPolicy,
    ratio: f64,
    encode_mbps: f64,
    decode_mbps: f64,
}

/// One chunk shape of sweep 4: ns per word produced, kernel and
/// reference, for the full chunk and for the window.
struct KernelCell {
    shape: &'static str,
    width: u8,
    full: (f64, f64),
    window: (f64, f64),
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_compress.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    let elems: usize = if quick { 1 << 17 } else { 1 << 20 };
    let repeats = if quick { 3 } else { 7 };
    let agg_repeats = if quick { 2 } else { 5 };

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

    let mut cells: Vec<CodecCell> = Vec::new();
    for (dataset, ty, raw) in &datasets {
        let chunks: Vec<&[u8]> = raw.chunks(CHUNK_BYTES).collect();
        for policy in policies {
            let (encode_ms, frames) = best_of(repeats, || {
                chunks
                    .iter()
                    .map(|c| encode_chunk(c, *ty, policy).0)
                    .collect::<Vec<_>>()
            });
            let (decode_ms, decoded) = best_of(repeats, || {
                frames
                    .iter()
                    .map(|f| decode_chunk(f).expect("well-formed frame"))
                    .collect::<Vec<_>>()
            });
            for (got, want) in decoded.iter().zip(&chunks) {
                assert_eq!(&got.as_slice(), want, "decode must be bit-identical");
            }
            for (frame, chunk) in frames.iter().zip(&chunks) {
                assert!(
                    frame.len() <= chunk.len() + SCC_HEADER,
                    "frame exceeds raw + header under {}",
                    policy.name()
                );
            }
            let frame_bytes: usize = frames.iter().map(Vec::len).sum();
            let mb = raw.len() as f64 / 1e6;
            cells.push(CodecCell {
                dataset,
                policy,
                ratio: raw.len() as f64 / frame_bytes as f64,
                encode_mbps: mb / (encode_ms / 1e3),
                decode_mbps: mb / (decode_ms / 1e3),
            });
        }
    }

    // --- Sweep 2: predicate-driven chunk skipping ------------------------
    // 128 chunks of 1024 clustered ints; the predicate's matches live in
    // exactly one chunk, so the zone map prunes 127 round trips.
    let mut store = {
        let db = Db::open_memory(DbOptions {
            latency: LatencyModel::networked_dbms(),
            ..DbOptions::default()
        })
        .expect("in-memory relational store");
        ArrayStore::new(RelChunkStore::new(db))
    };
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
    let strategy = RetrievalStrategy::Single;

    store.set_skip_enabled(false);
    let (off_ms, off_sum) = best_of(agg_repeats, || {
        store
            .resolve_aggregate_filtered(&proxy, &pred, AggregateOp::Sum, strategy)
            .expect("filtered aggregate")
    });
    let off_stats = store.last_stats();
    store.set_skip_enabled(true);
    let (on_ms, on_sum) = best_of(agg_repeats, || {
        store
            .resolve_aggregate_filtered(&proxy, &pred, AggregateOp::Sum, strategy)
            .expect("filtered aggregate")
    });
    let on_stats = store.last_stats();
    assert_eq!(on_sum, off_sum, "skipping changed an aggregate result");
    assert_eq!(off_stats.chunks_skipped, 0);
    assert!(on_stats.chunks_skipped > 0, "zone map skipped nothing");
    let skip_speedup = off_ms / on_ms;

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
    let (sliced_ms, sliced_sum) = best_of(repeats, || checksum_all(&crc32));
    let (bytewise_ms, bytewise_sum) =
        best_of(repeats, || checksum_all(&|c| crc32_bytewise(&table, c)));
    assert_eq!(sliced_sum, bytewise_sum, "the two CRC32 loops disagree");
    let crc_mb = noise.len() as f64 / 1e6;
    let crc32_mb_per_s = crc_mb / (sliced_ms / 1e3);
    let crc32_bytewise_mb_per_s = crc_mb / (bytewise_ms / 1e3);
    let crc_ratio = bytewise_ms / sliced_ms;

    // --- Sweep 4: decode kernels -------------------------------------------
    // One 16 KiB chunk of each shape, decoded in full and at the window
    // a `tile_avg` reads: 256 words that start 700 words in.
    const KERNEL_WORDS: usize = 2048;
    let kernel_window = 700..956usize;
    let kernel_loops = if quick { 500 } else { 4000 };
    let mut kernel_cells: Vec<KernelCell> = Vec::new();
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
        kernel_cells.push(KernelCell {
            shape,
            width: body[8],
            full: ns_per_word(&(0..KERNEL_WORDS)),
            window: ns_per_word(&kernel_window),
        });
    }

    // --- Report ----------------------------------------------------------
    let header: Vec<String> = ["dataset", "codec", "ratio", "enc MB/s", "dec MB/s"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.dataset.to_string(),
                c.policy.name().to_string(),
                format!("{:.2}x", c.ratio),
                format!("{:.0}", c.encode_mbps),
                format!("{:.0}", c.decode_mbps),
            ]
        })
        .collect();
    print_table("SCC1 codec matrix (bit-identical ✓)", &header, &rows);

    let header: Vec<String> = ["skipping", "ms/aggregate", "chunks fetched", "skipped"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows = vec![
        vec![
            "off".to_string(),
            format!("{off_ms:.2}"),
            format!("{}", off_stats.chunks_fetched),
            format!("{}", off_stats.chunks_skipped),
        ],
        vec![
            "on".to_string(),
            format!("{on_ms:.2}"),
            format!("{}", on_stats.chunks_fetched),
            format!("{}", on_stats.chunks_skipped),
        ],
    ];
    print_table(
        &format!("filtered aggregate, networked DBMS ({skip_speedup:.1}x with skipping)"),
        &header,
        &rows,
    );

    let header: Vec<String> = ["crc32", "MB/s"].into_iter().map(String::from).collect();
    let rows = vec![
        vec!["crc32_mb_per_s".to_string(), format!("{crc32_mb_per_s:.0}")],
        vec![
            "byte-at-a-time reference".to_string(),
            format!("{crc32_bytewise_mb_per_s:.0}"),
        ],
    ];
    print_table(
        &format!("frame checksum, {CHUNK_BYTES} B chunks ({crc_ratio:.1}x the reference)"),
        &header,
        &rows,
    );

    let header: Vec<String> = [
        "chunk shape",
        "width",
        "full ns/word",
        "reference",
        "ratio",
        "window ns/word",
        "reference",
        "ratio",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let rows: Vec<Vec<String>> = kernel_cells
        .iter()
        .map(|c| {
            vec![
                c.shape.to_string(),
                c.width.to_string(),
                format!("{:.2}", c.full.0),
                format!("{:.2}", c.full.1),
                format!("{:.1}x", c.full.1 / c.full.0),
                format!("{:.2}", c.window.0),
                format!("{:.2}", c.window.1),
                format!("{:.1}x", c.window.1 / c.window.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "delta-bp decode kernel, {KERNEL_WORDS}-word chunk, window {}..{} (equal words ✓)",
            kernel_window.start, kernel_window.end
        ),
        &header,
        &rows,
    );

    // --- Acceptance assertions -------------------------------------------
    for policy in [CodecPolicy::DeltaBp, CodecPolicy::Auto] {
        let cell = cells
            .iter()
            .find(|c| c.dataset == "bistab-int" && c.policy == policy)
            .expect("bistab cell");
        assert!(
            cell.ratio >= 2.0,
            "expected >=2x compression on bistab-int under {}, got {:.2}x",
            policy.name(),
            cell.ratio
        );
    }
    println!(
        "\ncompression acceptance ✓: >=2x on bistab-int under delta-bp and auto \
         (best {:.1}x)",
        cells
            .iter()
            .filter(|c| c.dataset == "bistab-int")
            .map(|c| c.ratio)
            .fold(0.0f64, f64::max)
    );
    assert!(
        skip_speedup >= 2.0,
        "expected >=2x end-to-end speedup from chunk skipping, got {skip_speedup:.2}x"
    );
    println!("skipping acceptance ✓: {skip_speedup:.1}x end-to-end (>=2x required)");
    assert!(
        crc_ratio >= 3.0,
        "expected the sliced crc32 at >=3x the byte-at-a-time loop, got {crc_ratio:.2}x"
    );
    println!("checksum acceptance ✓: {crc_ratio:.1}x the byte-at-a-time loop (>=3x required)");
    for c in &kernel_cells {
        for (what, (kernel, reference)) in [("full chunk", c.full), ("window", c.window)] {
            assert!(
                reference / kernel >= 2.0,
                "expected the block decoder at >=2x the value-at-a-time loop on {} ({what}), \
                 got {:.2}x",
                c.shape,
                reference / kernel
            );
        }
    }
    println!(
        "decode kernel acceptance ✓: {} the value-at-a-time loop (>=2x required)",
        kernel_cells
            .iter()
            .map(|c| format!(
                "{:.1}x full / {:.1}x windowed at width {}",
                c.full.1 / c.full.0,
                c.window.1 / c.window.0,
                c.width
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- JSON -------------------------------------------------------------
    let mut json = format!(
        "{{\n  \"measured_at\": \"{}\",\n",
        ssdm_bench::measured_at()
    );
    json.push_str(&format!(
        "  \"config\": {{\"elements\": {elems}, \"chunk_bytes\": {CHUNK_BYTES}, \
         \"latency\": \"networked_dbms\", \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"codecs\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"codec\": \"{}\", \"ratio\": {:.4}, \
             \"encode_mbps\": {:.1}, \"decode_mbps\": {:.1}, \"bit_identical\": true}}{}\n",
            c.dataset,
            c.policy.name(),
            c.ratio,
            c.encode_mbps,
            c.decode_mbps,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"skipping\": {{\"off_ms\": {off_ms:.4}, \"on_ms\": {on_ms:.4}, \
         \"speedup\": {skip_speedup:.3}, \"chunks_skipped\": {}, \
         \"chunks_fetched_on\": {}, \"chunks_fetched_off\": {}, \
         \"identical_result\": true}},\n",
        on_stats.chunks_skipped, on_stats.chunks_fetched, off_stats.chunks_fetched
    ));
    json.push_str(&format!(
        "  \"checksum\": {{\"crc32_mb_per_s\": {crc32_mb_per_s:.1}, \
         \"bytewise_mb_per_s\": {crc32_bytewise_mb_per_s:.1}, \"ratio\": {crc_ratio:.3}, \
         \"identical_result\": true}},\n"
    ));
    json.push_str("  \"decode_kernel\": [\n");
    for (i, c) in kernel_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"width\": {}, \"words\": {KERNEL_WORDS}, \
             \"window\": [{}, {}], \"full_ns_per_word\": {:.3}, \
             \"full_reference_ns_per_word\": {:.3}, \"full_ratio\": {:.3}, \
             \"window_ns_per_word\": {:.3}, \"window_reference_ns_per_word\": {:.3}, \
             \"window_ratio\": {:.3}, \"identical_result\": true}}{}\n",
            c.shape,
            c.width,
            kernel_window.start,
            kernel_window.end,
            c.full.0,
            c.full.1,
            c.full.1 / c.full.0,
            c.window.0,
            c.window.1,
            c.window.1 / c.window.0,
            if i + 1 < kernel_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}
