//! Compressed, self-describing chunk frames (`SCC1`) and the per-chunk
//! summary zone maps built from them.
//!
//! The ASEI back-ends move opaque chunk payloads; until now those were
//! raw little-endian 8-byte words, so every chunk paid full price on
//! disk, on the wire, in the WAL and in the cache. This module wraps
//! each chunk in a second, *inner* frame that travels **inside** the
//! CRC32 [`crate::frame`] the back-ends already apply (integrity stays
//! a lower-layer concern):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SCC1"
//! 4       1     codec id (0 raw, 1 delta-bp, 2 rle)
//! 5       1     element type (0 i64, 1 f64)
//! 6       2     reserved (zero)
//! 8       8     uncompressed payload length in bytes, u64 LE
//! 16      8     summary: min value bits, u64 LE
//! 24      8     summary: max value bits, u64 LE
//! 32      8     summary: null (NaN) count, u64 LE
//! 40      ..    encoded body
//! ```
//!
//! Three from-scratch codecs, chosen **per chunk** by size:
//!
//! * **raw** — the body is the payload verbatim. Always correct, and
//!   the fallback whenever an encoded candidate would not be smaller
//!   than the raw bytes (so a frame never exceeds `raw + header`, which
//!   keeps fixed-slot file layouts bounded).
//! * **delta-bp** — zigzagged wrapping deltas of the 8-byte words,
//!   bit-packed in 128-value mini-blocks with a per-block bit width.
//!   Near-optimal for the monotone / slowly-varying integer series the
//!   BISTAB workload produces.
//! * **rle** — `(count, value)` runs over 8-byte words. Wins on
//!   constant regions and zero padding; works for both element types
//!   because runs compare *bit patterns* (`-0.0` and NaN payloads
//!   round-trip exactly).
//!
//! Every codec is bit-exact: decode(encode(x)) == x for any byte
//! payload, including `-0.0`, NaN bit patterns and `i64::MIN`.
//!
//! There is one decoder, [`decode_words`], which produces a window of a
//! chunk's words ([`decode_chunk`] is its full window), and one packer,
//! [`encode_chunk`], which sizes the candidates before it encodes the
//! winner. Both move delta-bp mini-blocks through the same kernel,
//! monomorphized per bit width: eight values per `width` packed bytes,
//! each a `u64` load or store at a compile-time offset, with no state
//! carried from one value to the next.
//!
//! The summary (min/max over present values, NaN count for `f64`) is
//! the unit of the **zone map** ([`ZoneMap`]): a coarse per-array index
//! the APR consults to skip chunks that provably cannot satisfy a
//! [`ValuePredicate`] — before any fetch happens. Skipping is strictly
//! conservative: a chunk is dropped only when *no* element in it can
//! match, so filtered results are bit-identical with skipping on or
//! off. The same summary also *decides* a chunk whose `Min`, `Max` or
//! `Count` fold partial it holds exactly ([`ChunkSummary::decide`]), so
//! that chunk is not fetched either.

use std::ops::Range;

use ssdm_array::{AggregateOp, Num, NumericType};

/// Inner-frame magic: "Ssdm Compressed Chunk v1".
pub const SCC_MAGIC: [u8; 4] = *b"SCC1";

/// Inner-frame header length in bytes (8-byte aligned).
pub const SCC_HEADER: usize = 40;

/// Ceiling on the uncompressed length a header may claim. Frames are
/// CRC-protected below this layer, but a defensive cap keeps a crafted
/// or miscomposed header from turning into an allocation bomb.
const MAX_UNCOMPRESSED: u64 = 1 << 30;

/// Values per delta-bp mini-block.
const BP_BLOCK: usize = 128;

/// The per-chunk codec identifiers stored in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CodecId {
    Raw = 0,
    DeltaBp = 1,
    Rle = 2,
}

impl CodecId {
    fn from_byte(b: u8) -> Option<CodecId> {
        match b {
            0 => Some(CodecId::Raw),
            1 => Some(CodecId::DeltaBp),
            2 => Some(CodecId::Rle),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CodecId::Raw => "raw",
            CodecId::DeltaBp => "delta-bp",
            CodecId::Rle => "rle",
        }
    }
}

/// Which codec `encode_chunk` should *prefer*. `Auto` (the default)
/// encodes the candidates and keeps the smallest; a forced codec still
/// falls back to raw passthrough for chunks it cannot shrink, so the
/// frame size stays bounded by `raw + SCC_HEADER` under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecPolicy {
    /// Passthrough frames: no compression, but still self-describing
    /// with a summary — zone-map skipping works at zero decode cost.
    Raw,
    DeltaBp,
    Rle,
    #[default]
    Auto,
}

impl CodecPolicy {
    pub fn name(self) -> &'static str {
        match self {
            CodecPolicy::Raw => "raw",
            CodecPolicy::DeltaBp => "delta-bp",
            CodecPolicy::Rle => "rle",
            CodecPolicy::Auto => "auto",
        }
    }

    pub fn parse(s: &str) -> Option<CodecPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "raw" | "none" => Some(CodecPolicy::Raw),
            "delta-bp" | "delta_bp" | "deltabp" | "delta" => Some(CodecPolicy::DeltaBp),
            "rle" => Some(CodecPolicy::Rle),
            "auto" => Some(CodecPolicy::Auto),
            _ => None,
        }
    }

    /// The policy selected by the `SSDM_CODEC` environment variable
    /// (`raw`, `delta-bp`, `rle`, `auto`), defaulting to `Auto`. This
    /// is how CI runs the whole storage suite under each codec.
    pub fn from_env() -> CodecPolicy {
        std::env::var("SSDM_CODEC")
            .ok()
            .and_then(|v| CodecPolicy::parse(&v))
            .unwrap_or_default()
    }
}

/// Why an `SCC1` frame failed to decode. Callers in the storage layer
/// map these to [`StorageError::Corrupt`](crate::StorageError::Corrupt)
/// with the chunk's identity attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes do not start with an `SCC1` header.
    BadMagic,
    /// Unknown codec id, bad element type, nonzero reserved bytes or an
    /// implausible uncompressed length.
    BadHeader,
    /// The encoded body is malformed (truncated block, run overflow,
    /// packed width out of range...).
    BadBody(&'static str),
    /// The body decoded to a different length than the header promised.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad SCC1 magic"),
            CodecError::BadHeader => write!(f, "damaged SCC1 header"),
            CodecError::BadBody(why) => write!(f, "malformed SCC1 body: {why}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "SCC1 length mismatch: decoded {got}, header says {expected}"
                )
            }
        }
    }
}

/// Per-chunk summary: element count, NaN count (always zero for `i64`
/// chunks) and min/max bit patterns over the *present* (non-NaN)
/// values. The unit of the zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Elements in the chunk.
    pub count: u64,
    /// NaN elements (`f64` chunks; "null" in the paper's sense).
    pub nulls: u64,
    /// Bit pattern of the minimum present value.
    pub min_bits: u64,
    /// Bit pattern of the maximum present value.
    pub max_bits: u64,
}

impl ChunkSummary {
    fn empty() -> ChunkSummary {
        ChunkSummary {
            count: 0,
            nulls: 0,
            min_bits: 0,
            max_bits: 0,
        }
    }

    /// The minimum present value as a typed number.
    pub fn min(&self, ty: NumericType) -> Num {
        match ty {
            NumericType::Int => Num::Int(self.min_bits as i64),
            NumericType::Real => Num::Real(f64::from_bits(self.min_bits)),
        }
    }

    /// The maximum present value as a typed number.
    pub fn max(&self, ty: NumericType) -> Num {
        match ty {
            NumericType::Int => Num::Int(self.max_bits as i64),
            NumericType::Real => Num::Real(f64::from_bits(self.max_bits)),
        }
    }

    /// Whether any element of a chunk with this summary *could* satisfy
    /// `pred`. Strictly conservative: `false` only when the summary
    /// proves no element matches (empty chunk, all-NaN chunk, or the
    /// predicate's range lies entirely outside `[min, max]`). Undecided
    /// comparisons (NaN bounds in the predicate) answer `true`.
    pub fn may_match(&self, ty: NumericType, pred: &ValuePredicate) -> bool {
        if self.count == 0 || self.nulls >= self.count {
            // No present values: neither ranges nor membership can
            // match anything (NaN fails every predicate).
            return false;
        }
        let mn = self.min(ty);
        let mx = self.max(ty);
        let below = |a: Num, b: Num| matches!(a.partial_cmp(&b), Some(std::cmp::Ordering::Less));
        match pred {
            ValuePredicate::Range { lo, hi } => !(below(mx, *lo) || below(*hi, mn)),
            ValuePredicate::In(values) => values.iter().any(|v| !(below(*v, mn) || below(mx, *v))),
        }
    }

    /// The fold partial of `op` over the `elements` view elements a
    /// chunk with this summary contributes, when the summary alone gives
    /// the kernel's exact bits (`ssdm_array::kernel`); `None` sends the
    /// chunk to the decoder. `whole` says the view reads every element
    /// of the chunk exactly once.
    ///
    /// Exact, not conservative. The chunk must hold no NaN and every
    /// element must satisfy `pred`, if there is one: `lo <= min` and
    /// `max <= hi` for a range, `min == max` in the set for membership.
    /// Then a `Count` partial is `elements`. A `Min` or `Max` partial is
    /// the summary's bound, but only when the view is `whole` and the
    /// summary covers exactly its `elements`, and never at a real zero:
    /// the left fold keeps whichever of `0.0` and `-0.0` comes first in
    /// the view's order, which the summary does not record. `Sum`, `Avg` and `Prod` are
    /// never decided.
    pub fn decide(
        &self,
        ty: NumericType,
        op: AggregateOp,
        pred: Option<&ValuePredicate>,
        elements: usize,
        whole: bool,
    ) -> Option<Num> {
        if self.count == 0 || self.nulls != 0 || elements == 0 {
            return None;
        }
        let (mn, mx) = (self.min(ty), self.max(ty));
        let every_element_matches = match pred {
            None => true,
            Some(p @ ValuePredicate::Range { .. }) => p.matches(mn) && p.matches(mx),
            Some(p @ ValuePredicate::In(_)) => mn == mx && p.matches(mn),
        };
        if !every_element_matches {
            return None;
        }
        let bound = match op {
            AggregateOp::Count => return Some(Num::Int(elements as i64)),
            AggregateOp::Min => mn,
            AggregateOp::Max => mx,
            AggregateOp::Sum | AggregateOp::Avg | AggregateOp::Prod => return None,
        };
        let zero = matches!(bound, Num::Real(v) if v == 0.0);
        (whole && elements as u64 == self.count && !zero).then_some(bound)
    }
}

/// A `FILTER`-style element predicate the APR can evaluate against
/// chunk summaries (to skip) and against decoded elements (to select).
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePredicate {
    /// `lo <= x <= hi`, inclusive. NaN elements never match.
    Range { lo: Num, hi: Num },
    /// Membership: `x` equals any of the listed values.
    In(Vec<Num>),
}

impl ValuePredicate {
    /// Whether a single element satisfies the predicate.
    pub fn matches(&self, v: Num) -> bool {
        match self {
            ValuePredicate::Range { lo, hi } => {
                use std::cmp::Ordering::*;
                matches!(lo.partial_cmp(&v), Some(Less | Equal))
                    && matches!(v.partial_cmp(hi), Some(Less | Equal))
            }
            ValuePredicate::In(values) => values
                .iter()
                .any(|c| matches!(c.partial_cmp(&v), Some(std::cmp::Ordering::Equal))),
        }
    }
}

/// The per-array zone map: one [`ChunkSummary`] per chunk, in chunk-id
/// order, kept in the array catalog alongside [`crate::ArrayMeta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    /// Element type of the summarized array (needed to interpret the
    /// stored bit patterns).
    pub ty: NumericType,
    /// Summaries indexed by chunk id.
    pub summaries: Vec<ChunkSummary>,
}

impl ZoneMap {
    /// Whether `chunk_id` could hold a match for `pred`. Chunks without
    /// a summary (out of range) conservatively answer `true`.
    pub fn may_match(&self, chunk_id: u64, pred: &ValuePredicate) -> bool {
        match self.summaries.get(chunk_id as usize) {
            Some(s) => s.may_match(self.ty, pred),
            None => true,
        }
    }

    /// Check that this zone map can be trusted to describe `meta`'s
    /// chunks: summaries of its element type, one per chunk, each
    /// counting exactly the chunk's elements, with no more NaNs than
    /// elements and none in an integer array. A summary decides answers ([`ChunkSummary::decide`]), so
    /// one restored from outside the store is checked before it is
    /// installed; the error names the array and the first fault.
    pub fn check(&self, meta: &crate::ArrayMeta) -> Result<(), crate::StorageError> {
        let chunks = meta.chunking.chunk_count();
        let fault = if self.ty != meta.numeric_type {
            Some(format!("summaries of {:?} elements", self.ty))
        } else if self.summaries.len() as u64 != chunks {
            let n = self.summaries.len();
            Some(format!("{n} chunk summaries for {chunks} chunks"))
        } else {
            (0..chunks).zip(&self.summaries).find_map(|(c, s)| {
                let len = meta.chunking.chunk_len(c) as u64;
                if s.count != len {
                    Some(format!(
                        "chunk {c} summarizes {} of {len} elements",
                        s.count
                    ))
                } else if s.nulls > s.count {
                    Some(format!("chunk {c} has {} NaNs in {len} elements", s.nulls))
                } else if s.nulls != 0 && self.ty == NumericType::Int {
                    Some(format!("integer chunk {c} has {} NaNs", s.nulls))
                } else {
                    None
                }
            })
        };
        match fault {
            None => Ok(()),
            Some(detail) => Err(crate::StorageError::UntrustedZoneMap {
                array_id: meta.array_id,
                detail,
            }),
        }
    }
}

/// Compute the summary of a raw little-endian chunk payload.
pub fn summarize(raw: &[u8], ty: NumericType) -> ChunkSummary {
    let words = raw.chunks_exact(8);
    match ty {
        NumericType::Int => {
            let mut s = ChunkSummary::empty();
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            for w in words {
                let v = i64::from_le_bytes(w.try_into().expect("8 bytes"));
                min = min.min(v);
                max = max.max(v);
                s.count += 1;
            }
            if s.count > 0 {
                s.min_bits = min as u64;
                s.max_bits = max as u64;
            }
            s
        }
        NumericType::Real => {
            let mut s = ChunkSummary::empty();
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut seen = false;
            for w in words {
                let v = f64::from_bits(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                s.count += 1;
                if v.is_nan() {
                    s.nulls += 1;
                } else {
                    min = if seen { min.min(v) } else { v };
                    max = if seen { max.max(v) } else { v };
                    seen = true;
                }
            }
            if seen {
                s.min_bits = min.to_bits();
                s.max_bits = max.to_bits();
            } else {
                s.min_bits = f64::NAN.to_bits();
                s.max_bits = f64::NAN.to_bits();
            }
            s
        }
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// The mini-block kernels are monomorphized per bit width; this expands
/// to the `match` that picks `$kernel::<width>` (`1 <= width <= 64`,
/// checked by the caller).
macro_rules! for_width {
    ($width:expr, $kernel:ident $args:tt) => {
        for_width!(@arms $width, $kernel $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
            49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64)
    };
    (@arms $width:expr, $kernel:ident $args:tt; $($w:literal)*) => {
        match $width {
            $($w => $kernel::<$w> $args,)*
            _ => unreachable!("packed width is 1..=64"),
        }
    };
}

/// Unpack eight `W`-bit values from the `W` packed bytes at `src[0]` (a
/// little-endian bit stream: low bits of earlier values first). Each is
/// one `u64` load at a compile-time offset, a shift and a mask — no
/// state carried from value to value — so `src` holds `W + 8` bytes.
#[inline(always)]
fn unpack_group<const W: usize>(src: &[u8], vals: &mut [u64; 8]) {
    for (i, v) in vals.iter_mut().enumerate() {
        let (byte, shift) = (i * W / 8, i * W % 8);
        let mut z = u64::from_le_bytes(src[byte..byte + 8].try_into().expect("8 bytes")) >> shift;
        if shift + W > 64 {
            // Past 57 bits a shifted value can spill into a ninth byte.
            z |= (src[byte + 8] as u64) << (64 - shift);
        }
        *v = z & (u64::MAX >> (64 - W));
    }
}

/// [`unpack_group`] backwards: eight values below `2^W` into `W` bytes,
/// whole words stored at compile-time offsets.
#[inline(always)]
fn pack_group<const W: usize>(vals: &[u64; 8], dst: &mut [u8]) {
    let (mut acc, mut at) = (0u64, 0usize);
    for (i, &z) in vals.iter().enumerate() {
        let bit = i * W % 64;
        acc |= z << bit;
        if bit + W >= 64 {
            dst[at..at + 8].copy_from_slice(&acc.to_le_bytes());
            at += 8;
            acc = if bit + W > 64 { z >> (64 - bit) } else { 0 };
        }
    }
    dst[at..W].copy_from_slice(&acc.to_le_bytes()[..W % 8]);
}

/// Unpack `vals.len() / 8` groups; `src` must stay readable for 8 bytes
/// past the last group's `W`.
fn unpack<const W: usize>(src: &[u8], vals: &mut [u64]) {
    for (g, vals) in vals.chunks_exact_mut(8).enumerate() {
        let vals = vals.try_into().expect("a group of 8");
        unpack_group::<W>(&src[g * W..g * W + W + 8], vals);
    }
}

/// Pack `vals.len() / 8` groups into `W` bytes each.
fn pack<const W: usize>(vals: &[u64], dst: &mut [u8]) {
    for (g, vals) in vals.chunks_exact(8).enumerate() {
        let vals = vals.try_into().expect("a group of 8");
        pack_group::<W>(vals, &mut dst[g * W..g * W + W]);
    }
}

/// Unpack the first `vals.len()` (a multiple of 8) values of a packed
/// block of `width` bits that starts at `tail[0]`; the caller has
/// checked that the block's own bytes are there. The kernel reads whole
/// words, so a block too close to the end of the body — every frame's
/// last — is unpacked from a zero-padded copy.
fn unpack_block(width: usize, tail: &[u8], vals: &mut [u64]) {
    let need = vals.len() / 8 * width + 8;
    if tail.len() >= need {
        return for_width!(width, unpack(tail, vals));
    }
    let mut padded = [0u8; BP_BLOCK * 8 + 8];
    padded[..tail.len()].copy_from_slice(tail);
    for_width!(width, unpack(&padded, vals))
}

/// Append one mini-block of zigzagged deltas: `[width byte]
/// [ceil(k*width/8) packed bytes]`.
fn pack_block(width: usize, block: &[u64], out: &mut Vec<u8>) {
    out.push(width as u8);
    if width == 0 {
        return;
    }
    // Whole groups of eight; the zero padding packs to the zero bits
    // the last partial byte ends in.
    let mut vals = [0u64; BP_BLOCK];
    vals[..block.len()].copy_from_slice(block);
    let mut bytes = [0u8; BP_BLOCK * 8];
    for_width!(
        width,
        pack(&vals[..block.len().next_multiple_of(8)], &mut bytes)
    );
    out.extend_from_slice(&bytes[..(block.len() * width).div_ceil(8)]);
}

/// Append run-length pairs over 8-byte words: repeated `[count u32 LE]
/// [value 8 bytes LE]`. Runs compare bit patterns, so `f64` NaN
/// payloads and `-0.0` survive exactly. The caller offers no chunk of
/// more than `u32::MAX` words, so a count always fits.
fn rle_pack(raw: &[u8], out: &mut Vec<u8>) {
    let mut words = raw.chunks_exact(8);
    let Some(mut value) = words.next() else {
        return;
    };
    let mut count = 1u32;
    for w in words {
        if w == value {
            count += 1;
            continue;
        }
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(value);
        (value, count) = (w, 1);
    }
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(value);
}

/// Wrap a raw little-endian chunk payload in an `SCC1` frame, choosing
/// the codec per `policy` (with raw fallback whenever the encoded body
/// would not be smaller), and return the frame plus the summary that
/// went into its header.
///
/// Candidates are *sized*, not encoded: one pass over the zigzagged
/// wrapping deltas of the words gives each mini-block's width — hence
/// the exact delta-bp length — and the number of nonzero deltas, hence
/// the number of runs and the exact RLE length. Only the winner is
/// encoded, straight into the frame.
pub fn encode_chunk(raw: &[u8], ty: NumericType, policy: CodecPolicy) -> (Vec<u8>, ChunkSummary) {
    let summary = summarize(raw, ty);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    // Raw passthrough is always correct: it is what an empty chunk and a
    // payload we did not produce (a ragged tail) get under any policy.
    let sized = policy != CodecPolicy::Raw && !raw.is_empty() && raw.len().is_multiple_of(8);
    let deltas: Vec<u64> = if sized {
        raw[8..]
            .chunks_exact(8)
            .zip(raw.chunks_exact(8))
            .map(|(w, prev)| zigzag(word(w).wrapping_sub(word(prev)) as i64))
            .collect()
    } else {
        Vec::new()
    };
    let mut widths = Vec::with_capacity(deltas.len().div_ceil(BP_BLOCK));
    let (mut bp_len, mut runs) = (8usize, 1usize);
    for block in deltas.chunks(BP_BLOCK) {
        let width = 64 - block.iter().fold(0, |any, z| any | z).leading_zeros() as usize;
        bp_len += 1 + (block.len() * width).div_ceil(8);
        runs += block.iter().filter(|&&z| z != 0).count();
        widths.push(width);
    }
    // A run's count is a `u32`; a chunk that could overflow one (32 GiB,
    // far past what a header may claim) is simply not offered to RLE.
    let rle_len = if deltas.len() < u32::MAX as usize {
        12 * runs
    } else {
        usize::MAX
    };
    let (codec, body_len) = match policy {
        _ if !sized => (CodecId::Raw, raw.len()),
        CodecPolicy::DeltaBp => (CodecId::DeltaBp, bp_len),
        CodecPolicy::Rle => (CodecId::Rle, rle_len),
        _ if bp_len <= rle_len => (CodecId::DeltaBp, bp_len),
        _ => (CodecId::Rle, rle_len),
    };
    let (codec, body_len) = if body_len < raw.len() {
        (codec, body_len)
    } else {
        (CodecId::Raw, raw.len())
    };
    let mut frame = Vec::with_capacity(SCC_HEADER + body_len);
    frame.extend_from_slice(&SCC_MAGIC);
    frame.push(codec as u8);
    frame.push(match ty {
        NumericType::Int => 0,
        NumericType::Real => 1,
    });
    frame.extend_from_slice(&[0u8; 2]);
    frame.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    frame.extend_from_slice(&summary.min_bits.to_le_bytes());
    frame.extend_from_slice(&summary.max_bits.to_le_bytes());
    frame.extend_from_slice(&summary.nulls.to_le_bytes());
    match codec {
        CodecId::Raw => frame.extend_from_slice(raw),
        CodecId::DeltaBp => {
            frame.extend_from_slice(&raw[..8]);
            for (block, &width) in deltas.chunks(BP_BLOCK).zip(&widths) {
                pack_block(width, block, &mut frame);
            }
        }
        CodecId::Rle => rle_pack(raw, &mut frame),
    }
    debug_assert_eq!(frame.len(), SCC_HEADER + body_len);
    (frame, summary)
}

struct Header {
    codec: CodecId,
    ty: NumericType,
    uncompressed: usize,
    summary: ChunkSummary,
}

fn parse_header(frame: &[u8]) -> Result<Header, CodecError> {
    if frame.len() < SCC_HEADER {
        return Err(if frame.get(..4) == Some(&SCC_MAGIC) {
            CodecError::BadHeader
        } else {
            CodecError::BadMagic
        });
    }
    if frame[..4] != SCC_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let codec = CodecId::from_byte(frame[4]).ok_or(CodecError::BadHeader)?;
    let ty = match frame[5] {
        0 => NumericType::Int,
        1 => NumericType::Real,
        _ => return Err(CodecError::BadHeader),
    };
    if frame[6..8] != [0u8; 2] {
        return Err(CodecError::BadHeader);
    }
    let uncompressed = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    if uncompressed > MAX_UNCOMPRESSED {
        return Err(CodecError::BadHeader);
    }
    let min_bits = u64::from_le_bytes(frame[16..24].try_into().expect("8 bytes"));
    let max_bits = u64::from_le_bytes(frame[24..32].try_into().expect("8 bytes"));
    let nulls = u64::from_le_bytes(frame[32..40].try_into().expect("8 bytes"));
    Ok(Header {
        codec,
        ty,
        uncompressed: uncompressed as usize,
        summary: ChunkSummary {
            count: uncompressed / 8,
            nulls,
            min_bits,
            max_bits,
        },
    })
}

/// Verify and decode an `SCC1` frame back to the raw little-endian
/// payload. Bit-exact for every codec: the full window of
/// [`decode_words`], each word as its eight bytes.
pub fn decode_chunk(frame: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut words: Vec<[u8; 8]> = Vec::new();
    decode_words(frame, 0..usize::MAX, &mut words)?;
    let mut raw = words.into_flattened();
    if codec_of(frame) == Some(CodecId::Raw) {
        // A payload we did not produce may end in a ragged tail that no
        // word covers; the length check above saw it.
        raw.extend_from_slice(&frame[SCC_HEADER + raw.len()..]);
    }
    Ok(raw)
}

/// An element type the 8-byte stored words decode to directly: the bit
/// pattern itself, or the `i64` / `f64` it encodes.
pub trait Word: Copy {
    fn from_bits(bits: u64) -> Self;
}

impl Word for u64 {
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl Word for i64 {
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
}

impl Word for f64 {
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// The word as it is stored: eight little-endian bytes.
impl Word for [u8; 8] {
    fn from_bits(bits: u64) -> Self {
        bits.to_le_bytes()
    }
}

/// Append words `window` of the little-endian 8-byte words in `raw` to
/// `out`, typed (a ragged tail shorter than a word is ignored).
pub fn raw_words<W: Word>(raw: &[u8], window: Range<usize>, out: &mut Vec<W>) {
    let end = window.end.min(raw.len() / 8);
    let start = window.start.min(end);
    out.extend(
        raw[start * 8..end * 8]
            .chunks_exact(8)
            .map(|w| W::from_bits(u64::from_le_bytes(w.try_into().expect("8 bytes")))),
    );
}

/// Decode words `window` of an `SCC1` frame into `out` (cleared first),
/// typed, stopping as soon as they are produced: the one decoder, of
/// which [`decode_chunk`] is the full window. `out` ends up holding the
/// chunk's words at `window`, clipped to the chunk's length. Raw bodies
/// are read straight from the frame bytes and RLE runs before the
/// window are stepped over; delta-bp deltas are cumulative, so the
/// deltas before the window are still unpacked, but only summed to
/// carry the running value, never turned into words. Delta-bp and RLE
/// bodies unpack into `out`, which callers reuse across chunks as the
/// decode scratch.
///
/// The header is verified in full, and a body that is malformed or ends
/// *before* the stop point is an error. On an early stop the checks
/// that need the whole body — no trailing bytes after the last
/// delta-bp block, RLE runs adding up to the header's length — are
/// skipped: the bytes past the stop point are never looked at, and the
/// frame as a whole is already covered by the `SCK1` CRC32 the
/// back-ends verify below this layer. With the window's end at or past
/// the chunk's length every check [`decode_chunk`] makes is made.
pub fn decode_words<W: Word>(
    frame: &[u8],
    window: Range<usize>,
    out: &mut Vec<W>,
) -> Result<(), CodecError> {
    out.clear();
    let header = parse_header(frame)?;
    let body = &frame[SCC_HEADER..];
    let n_words = header.uncompressed / 8;
    let end = window.end.min(n_words);
    let window = window.start.min(end)..end;
    out.reserve(window.len());
    match header.codec {
        CodecId::Raw => {
            if body.len() != header.uncompressed {
                return Err(CodecError::LengthMismatch {
                    expected: header.uncompressed,
                    got: body.len(),
                });
            }
            raw_words(body, window, out);
            Ok(())
        }
        _ if !header.uncompressed.is_multiple_of(8) => Err(CodecError::BadHeader),
        CodecId::DeltaBp => delta_bp_words(body, n_words, window, out),
        CodecId::Rle => rle_words(body, n_words, window, out),
    }
}

/// The delta-bp body — `[first word, 8 bytes LE]`, then mini-blocks of
/// up to [`BP_BLOCK`] zigzagged wrapping deltas, each `[width byte]
/// [ceil(k*width/8) packed bytes]` — decoded to the typed words of
/// `window` (already clipped to `n_words`), one block at a time: unpack
/// into a stack block, prefix-sum the part inside the window in place
/// and append it. The deltas *before* the window only have to carry the
/// running value, and `wrapping_add` is associative, so they are summed
/// as a reduction instead of a chain of dependent adds. The groups of a
/// block past the window's end, and the blocks after it, are not
/// touched.
fn delta_bp_words<W: Word>(
    body: &[u8],
    n_words: usize,
    window: Range<usize>,
    out: &mut Vec<W>,
) -> Result<(), CodecError> {
    if n_words == 0 {
        if !body.is_empty() {
            return Err(CodecError::BadBody("trailing bytes after empty chunk"));
        }
        return Ok(());
    }
    if body.len() < 8 {
        return Err(CodecError::BadBody("missing first word"));
    }
    let mut prev = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    if window.contains(&0) {
        out.push(W::from_bits(prev));
    }
    let mut pos = 8usize;
    // Index of the next word to unpack.
    let mut next = 1usize;
    let mut block = [0u64; BP_BLOCK];
    while next < window.end {
        let k = (n_words - next).min(BP_BLOCK);
        let width = *body
            .get(pos)
            .ok_or(CodecError::BadBody("missing block width"))? as usize;
        if width > 64 {
            return Err(CodecError::BadBody("packed width over 64 bits"));
        }
        pos += 1;
        let packed_len = (k * width).div_ceil(8);
        if body.len() - pos < packed_len {
            return Err(CodecError::BadBody("truncated packed block"));
        }
        // Of this block's `k` words, `carried` lie before the window and
        // `wanted` inside it.
        let carried = window.start.saturating_sub(next).min(k);
        let wanted = (window.end - next).min(k) - carried;
        next += k;
        if width == 0 {
            out.resize(out.len() + wanted, W::from_bits(prev));
            continue;
        }
        let vals = &mut block[..(carried + wanted).next_multiple_of(8)];
        unpack_block(width, &body[pos..], vals);
        pos += packed_len;
        let (before, inside) = vals[..carried + wanted].split_at_mut(carried);
        prev = before
            .iter()
            .fold(prev, |sum, &z| sum.wrapping_add(unzigzag(z) as u64));
        out.extend(inside.iter().map(|&z| {
            prev = prev.wrapping_add(unzigzag(z) as u64);
            W::from_bits(prev)
        }));
    }
    if window.end == n_words && pos != body.len() {
        return Err(CodecError::BadBody("trailing bytes after last block"));
    }
    Ok(())
}

/// The RLE body — repeated `[count u32 LE][value 8 bytes LE]` runs —
/// decoded to the typed words of `window` (already clipped to
/// `n_words`), stepping over the runs before it and stopping inside the
/// run that reaches its end.
fn rle_words<W: Word>(
    body: &[u8],
    n_words: usize,
    window: Range<usize>,
    out: &mut Vec<W>,
) -> Result<(), CodecError> {
    let full = window.end == n_words;
    let mut produced = 0usize;
    let mut pos = 0usize;
    while pos < body.len() && (full || produced < window.end) {
        let run = body
            .get(pos..pos + 12)
            .ok_or(CodecError::BadBody("truncated run"))?;
        let count = u32::from_le_bytes(run[..4].try_into().expect("4 bytes")) as usize;
        if count == 0 || produced + count > n_words {
            return Err(CodecError::BadBody("run overflows chunk"));
        }
        let value = u64::from_le_bytes(run[4..12].try_into().expect("8 bytes"));
        let lo = window.start.max(produced);
        let hi = window.end.min(produced + count);
        if lo < hi {
            out.resize(out.len() + (hi - lo), W::from_bits(value));
        }
        produced += count;
        pos += 12;
    }
    if produced < window.end || (full && produced != n_words) {
        return Err(CodecError::LengthMismatch {
            expected: n_words * 8,
            got: produced * 8,
        });
    }
    Ok(())
}

/// The summary and element type an `SCC1` frame carries, if `frame`
/// starts with a well-formed header.
pub fn summary_of(frame: &[u8]) -> Option<(ChunkSummary, NumericType)> {
    parse_header(frame).ok().map(|h| (h.summary, h.ty))
}

/// The codec an `SCC1` frame was encoded with, if well-formed.
pub fn codec_of(frame: &[u8]) -> Option<CodecId> {
    parse_header(frame).ok().map(|h| h.codec)
}

/// The byte size a cached copy of `payload` should be charged at: the
/// *decoded* (uncompressed) size for `SCC1` frames, the payload length
/// for anything else. Deterministic and header-only, so cache insert
/// and eviction agree without storing extra state.
pub fn charged_size(payload: &[u8]) -> usize {
    match parse_header(payload) {
        Ok(h) => h.uncompressed.max(payload.len()),
        Err(_) => payload.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_i64(values: &[i64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn raw_f64(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn round_trip_every_policy() {
        let payloads = [
            raw_i64(&[]),
            raw_i64(&[42]),
            raw_i64(&(0..1000).collect::<Vec<i64>>()),
            raw_i64(&[7; 512]),
            raw_i64(&[i64::MIN, i64::MAX, 0, -1, 1]),
            raw_f64(&[-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            raw_f64(&(0..257).map(|i| (i as f64).sin()).collect::<Vec<f64>>()),
        ];
        for raw in &payloads {
            for policy in [
                CodecPolicy::Raw,
                CodecPolicy::DeltaBp,
                CodecPolicy::Rle,
                CodecPolicy::Auto,
            ] {
                for ty in [NumericType::Int, NumericType::Real] {
                    let (frame, _) = encode_chunk(raw, ty, policy);
                    assert_eq!(
                        &decode_chunk(&frame).unwrap(),
                        raw,
                        "policy {} ty {ty:?}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn monotone_integers_compress_well() {
        let raw = raw_i64(&(0..8192).collect::<Vec<i64>>());
        let (frame, _) = encode_chunk(&raw, NumericType::Int, CodecPolicy::Auto);
        assert_eq!(codec_of(&frame), Some(CodecId::DeltaBp));
        assert!(
            frame.len() * 4 < raw.len(),
            "{} vs {} raw",
            frame.len(),
            raw.len()
        );
    }

    #[test]
    fn constant_runs_pick_rle() {
        let raw = raw_f64(&[1.5; 4096]);
        let (frame, _) = encode_chunk(&raw, NumericType::Real, CodecPolicy::Auto);
        assert_eq!(codec_of(&frame), Some(CodecId::Rle));
        assert!(frame.len() < 64);
    }

    #[test]
    fn incompressible_data_falls_back_to_raw() {
        // High-entropy words defeat both codecs; even a forced policy
        // must not grow the body past the raw payload.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let words: Vec<i64> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        let raw = raw_i64(&words);
        for policy in [CodecPolicy::Rle, CodecPolicy::Auto] {
            let (frame, _) = encode_chunk(&raw, NumericType::Int, policy);
            assert_eq!(codec_of(&frame), Some(CodecId::Raw), "{}", policy.name());
            assert_eq!(frame.len(), SCC_HEADER + raw.len());
        }
    }

    #[test]
    fn summary_bounds_are_exact() {
        let raw = raw_i64(&[5, -3, 17, 0]);
        let s = summarize(&raw, NumericType::Int);
        assert_eq!(s.min(NumericType::Int), Num::Int(-3));
        assert_eq!(s.max(NumericType::Int), Num::Int(17));
        assert_eq!((s.count, s.nulls), (4, 0));

        let raw = raw_f64(&[2.5, f64::NAN, -0.5]);
        let s = summarize(&raw, NumericType::Real);
        assert_eq!(s.min(NumericType::Real), Num::Real(-0.5));
        assert_eq!(s.max(NumericType::Real), Num::Real(2.5));
        assert_eq!((s.count, s.nulls), (3, 1));
    }

    #[test]
    fn all_nan_chunk_never_matches() {
        let raw = raw_f64(&[f64::NAN; 8]);
        let s = summarize(&raw, NumericType::Real);
        assert_eq!(s.nulls, 8);
        let pred = ValuePredicate::Range {
            lo: Num::Real(f64::NEG_INFINITY),
            hi: Num::Real(f64::INFINITY),
        };
        assert!(!s.may_match(NumericType::Real, &pred));
    }

    #[test]
    fn may_match_is_conservative_not_exact() {
        let s = summarize(&raw_i64(&[0, 100]), NumericType::Int);
        // 50 is inside [0, 100] though absent: must answer true.
        let inside = ValuePredicate::In(vec![Num::Int(50)]);
        assert!(s.may_match(NumericType::Int, &inside));
        let outside = ValuePredicate::In(vec![Num::Int(101), Num::Int(-1)]);
        assert!(!s.may_match(NumericType::Int, &outside));
        let range_out = ValuePredicate::Range {
            lo: Num::Int(101),
            hi: Num::Int(200),
        };
        assert!(!s.may_match(NumericType::Int, &range_out));
        // NaN bounds cannot prove exclusion: stay conservative.
        let nan_range = ValuePredicate::Range {
            lo: Num::Real(f64::NAN),
            hi: Num::Real(f64::NAN),
        };
        assert!(s.may_match(NumericType::Int, &nan_range));
    }

    #[test]
    fn predicate_matches_semantics() {
        let range = ValuePredicate::Range {
            lo: Num::Int(0),
            hi: Num::Int(10),
        };
        assert!(range.matches(Num::Int(0)));
        assert!(range.matches(Num::Int(10)));
        assert!(range.matches(Num::Real(9.5)));
        assert!(!range.matches(Num::Real(10.5)));
        assert!(!range.matches(Num::Real(f64::NAN)));
        let member = ValuePredicate::In(vec![Num::Int(3), Num::Real(7.5)]);
        assert!(member.matches(Num::Int(3)));
        assert!(member.matches(Num::Real(7.5)));
        assert!(!member.matches(Num::Int(8)));
        assert!(!member.matches(Num::Real(f64::NAN)));
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let raw = raw_i64(&(0..64).collect::<Vec<i64>>());
        let (frame, _) = encode_chunk(&raw, NumericType::Int, CodecPolicy::DeltaBp);
        assert!(matches!(
            decode_chunk(b"not a frame"),
            Err(CodecError::BadMagic)
        ));
        let mut bad = frame.clone();
        bad[4] = 9; // unknown codec id
        assert!(matches!(decode_chunk(&bad), Err(CodecError::BadHeader)));
        let mut bad = frame.clone();
        bad[6] = 1; // reserved bytes damaged
        assert!(matches!(decode_chunk(&bad), Err(CodecError::BadHeader)));
        let truncated = &frame[..frame.len() - 5];
        assert!(matches!(
            decode_chunk(truncated),
            Err(CodecError::BadBody(_)) | Err(CodecError::LengthMismatch { .. })
        ));
        // A huge claimed length must be rejected, not allocated.
        let mut bomb = frame.clone();
        bomb[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_chunk(&bomb), Err(CodecError::BadHeader)));
    }

    #[test]
    fn charged_size_reports_decoded_bytes() {
        let raw = raw_i64(&[3; 1024]); // constant: tiny RLE body
        let (frame, _) = encode_chunk(&raw, NumericType::Int, CodecPolicy::Auto);
        assert!(frame.len() < raw.len() / 8);
        assert_eq!(charged_size(&frame), raw.len());
        // Non-frame payloads charge their stored size.
        assert_eq!(charged_size(b"plain bytes"), 11);
    }

    #[test]
    fn rle_run_overflowing_the_chunk_is_rejected() {
        let raw = raw_i64(&[9; 100]);
        let (frame, _) = encode_chunk(&raw, NumericType::Int, CodecPolicy::Rle);
        assert_eq!(decode_chunk(&frame).unwrap(), raw);
        // A run claiming more words than the chunk holds is rejected.
        let mut bad = frame.clone();
        let body = SCC_HEADER;
        bad[body..body + 4].copy_from_slice(&200u32.to_le_bytes());
        assert!(matches!(decode_chunk(&bad), Err(CodecError::BadBody(_))));
    }
}
