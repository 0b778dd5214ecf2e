//! The checksummed chunk frame shared by every back-end.
//!
//! Each stored chunk is wrapped in a 16-byte header so corruption of
//! the bytes at rest — in a binary file, in the relational substrate's
//! pages, in an external system — is *detected at read time* instead of
//! silently flowing into query results:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SCK1"
//! 4       4     payload length, u32 LE
//! 8       4     CRC32 (IEEE) of the payload, u32 LE
//! 12      4     reserved (zero)
//! 16      len   payload
//! ```
//!
//! The header is 16 bytes so fixed-slot layouts (the binary-file store)
//! keep 8-byte element alignment. Decoding distinguishes *corruption*
//! (bad magic, bad checksum) from *truncation* (fewer bytes than the
//! header promises) — the latter is what a torn write or a file
//! truncated mid-chunk produces, and callers map it to
//! [`StorageError::ShortRead`](crate::StorageError::ShortRead).

/// Frame header length in bytes.
pub const FRAME_HEADER: usize = 16;

/// Frame magic: "Ssdm ChunK v1".
pub const FRAME_MAGIC: [u8; 4] = *b"SCK1";

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes do not start with a frame header at all.
    BadMagic,
    /// The header's reserved bytes are not zero — the header itself was
    /// damaged.
    BadHeader,
    /// Fewer bytes than the header's payload length promises.
    Truncated { expected: usize, got: usize },
    /// The payload does not match its recorded checksum.
    BadChecksum { stored: u32, computed: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad chunk-frame magic"),
            FrameError::BadHeader => write!(f, "damaged chunk-frame header"),
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "chunk frame truncated: {got} of {expected} payload bytes"
                )
            }
            FrameError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "chunk checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

/// Bytes one step of [`crc32`] consumes.
const CRC_SLICES: usize = 16;

/// CRC32 lookup tables (IEEE 802.3 polynomial, reflected), computed at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes, which is what lets sixteen input bytes be folded with
/// sixteen independent lookups instead of a sixteen-deep dependency
/// chain.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 of `data`: the carry-less-multiply kernel where the CPU has
/// one and `data` holds at least one 64-byte block, the portable
/// slicing-by-16 loop for the rest (other CPUs, short inputs, the
/// `len % 16` tail the kernel leaves).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::detected() {
        let (crc, tail) = clmul::fold(!0, data);
        return !sliced(crc, tail);
    }
    crc32_portable(data)
}

/// [`crc32`] through the portable loop alone, whatever the CPU: the
/// path other CPUs take, kept callable for tests and benchmarks.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !sliced(!0, data)
}

/// Whether [`crc32`] runs the carry-less-multiply kernel on this CPU
/// (for inputs of 64 bytes or more).
pub fn crc32_has_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    return clmul::detected();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Slicing-by-16 on the running CRC register `crc` (before the final
/// inversion): sixteen
/// bytes per step, one table per byte position, the trailing
/// `len % 16` bytes one at a time.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let fold = |w: u32, hi: usize| {
        t[hi][(w & 0xFF) as usize]
            ^ t[hi - 1][((w >> 8) & 0xFF) as usize]
            ^ t[hi - 2][((w >> 16) & 0xFF) as usize]
            ^ t[hi - 3][(w >> 24) as usize]
    };
    let mut blocks = data.chunks_exact(CRC_SLICES);
    for b in &mut blocks {
        crc = fold(word(&b[0..4]) ^ crc, 15)
            ^ fold(word(&b[4..8]), 11)
            ^ fold(word(&b[8..12]), 7)
            ^ fold(word(&b[12..16]), 3);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The CRC32 folding kernel for x86_64 CPUs with PCLMULQDQ (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009): four 128-bit accumulators each fold one
/// 16-byte block per step, 64 bytes in all, by carry-less multiplies
/// with `x^(512±32) mod P`; they are folded into one, which takes any
/// remaining 16-byte blocks, and the 128 bits are reduced to 64 and
/// then, by Barrett reduction, to the 32-bit CRC.
/// The constants are those of the paper for the reflected IEEE
/// polynomial, so the result is bit for bit the portable loop's.
///
/// The one module of this crate that holds `unsafe`: the call into a
/// `target_feature` function after run-time detection, and the
/// unaligned 16-byte loads.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input [`fold`] takes: one step of four blocks.
    pub(super) const MIN_LEN: usize = 64;

    /// Whether this CPU has PCLMULQDQ. The standard library caches the
    /// answer after the first query, so this is one atomic load.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("pclmulqdq")
    }

    /// Fold the whole 16-byte blocks of `data` into the running CRC
    /// register `crc`; returns the register and the `len % 16`
    /// bytes left over. Panics unless [`detected`] and `data` holds at
    /// least [`MIN_LEN`] bytes.
    pub(super) fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        assert!(detected(), "the CRC kernel needs PCLMULQDQ");
        assert!(
            data.len() >= MIN_LEN,
            "the CRC kernel takes 64 bytes or more"
        );
        // SAFETY: `fold_blocks` needs PCLMULQDQ (just detected) and
        // SSE2 (baseline on x86_64); it reads only through `load`,
        // within `data`.
        unsafe { fold_blocks(crc, data) }
    }

    /// A 16-byte block as a vector; any alignment.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, exactly what the
        // unaligned load reads.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x·k_lo ⊕ x·k_hi ⊕ next`: the 128-bit accumulator `x` moved
    /// forward by the distance the constants `k` stand for, plus the
    /// block found there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn step(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[target_feature(enable = "pclmulqdq")]
    fn fold_blocks(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return (crc, data);
        };
        // x^(4·128+32) and x^(4·128-32) mod P, bit-reflected: a move
        // of four blocks.
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        // x^(128+32) and x^(128-32) mod P: a move of one block.
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        // x^64 mod P.
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        // P and μ = x^64 / P for the Barrett reduction.
        let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);

        let mut x = first.map(|b| load(&b));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        for quad in quads {
            for (acc, block) in x.iter_mut().zip(quad) {
                *acc = step(*acc, k1k2, load(block));
            }
        }
        let mut acc = step(x[0], k3k4, x[1]);
        acc = step(acc, k3k4, x[2]);
        acc = step(acc, k3k4, x[3]);
        for block in singles {
            acc = step(acc, k3k4, load(block));
        }

        // 128 bits to 64, then Barrett reduction to 32.
        let t = _mm_clmulepi64_si128::<0x10>(acc, k3k4);
        acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), t);
        let t = _mm_srli_si128::<4>(acc);
        acc = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k5);
        acc = _mm_xor_si128(acc, t);
        let mut t = _mm_and_si128(acc, low32);
        t = _mm_clmulepi64_si128::<0x10>(t, poly);
        t = _mm_and_si128(t, low32);
        t = _mm_clmulepi64_si128::<0x00>(t, poly);
        acc = _mm_xor_si128(acc, t);
        (_mm_cvtsi128_si32(_mm_srli_si128::<4>(acc)) as u32, tail)
    }
}

/// Wrap a chunk payload in a checksummed frame.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(payload);
    out
}

/// Payload length a frame starting with `header` promises, if the
/// header is well-formed.
pub fn payload_len(header: &[u8]) -> Option<usize> {
    if header.len() < FRAME_HEADER || header[..4] != FRAME_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize)
}

/// Verify the frame at the start of `bytes` in place and return its
/// payload, borrowed. `bytes` may carry trailing slack (fixed-slot
/// layouts) — only the framed prefix is examined.
pub fn decode(bytes: &[u8]) -> Result<&[u8], FrameError> {
    if bytes.len() < FRAME_HEADER {
        return Err(FrameError::Truncated {
            expected: FRAME_HEADER,
            got: bytes.len(),
        });
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if bytes[12..16] != [0u8; 4] {
        return Err(FrameError::BadHeader);
    }
    let body = &bytes[FRAME_HEADER..];
    if body.len() < len {
        return Err(FrameError::Truncated {
            expected: len,
            got: body.len(),
        });
    }
    let payload = &body[..len];
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::BadChecksum { stored, computed });
    }
    Ok(payload)
}

/// [`decode`] for a caller that owns the framed bytes: verify in place,
/// then cut the header and any slack off the same buffer, which becomes
/// the payload — no second allocation.
pub fn into_payload(mut frame: Vec<u8>) -> Result<Vec<u8>, FrameError> {
    let len = decode(&frame)?.len();
    frame.truncate(FRAME_HEADER + len);
    frame.drain(..FRAME_HEADER);
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for payload in [&b""[..], b"x", b"hello world", &[0u8; 1000]] {
            let frame = encode(payload);
            assert_eq!(frame.len(), FRAME_HEADER + payload.len());
            assert_eq!(decode(&frame).unwrap(), payload);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table loop [`crc32`] replaced, kept as the
    /// reference the sliced version is checked against.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `n` pseudo-random bytes from a fixed seed.
    fn noise(n: usize) -> Vec<u8> {
        let mut state = 0x5EED_C0DE_u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// [`crc32`] (the kernel from 64 bytes on, where the CPU has one)
    /// and the portable loop each against the byte loop.
    fn check_both(data: &[u8], what: &str) {
        let want = crc32_reference(data);
        assert_eq!(crc32(data), want, "crc32, {what}");
        assert_eq!(crc32_portable(data), want, "portable loop, {what}");
    }

    #[test]
    fn sliced_crc32_matches_the_byte_loop_at_every_length_and_offset() {
        let buf = noise(4_200 + 16);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        for start in 0..16 {
            for len in 0..=4_200 {
                check_both(
                    &buf[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
    }

    #[test]
    fn both_crc32_paths_match_the_byte_loop_at_random_lengths_up_to_a_mib() {
        let buf = noise((1 << 20) + 16);
        let mut state = 0x00DD_BA11_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..40 {
            let (start, len) = (next(16), next((1 << 20) + 1));
            check_both(
                &buf[start..start + len],
                &format!("start {start} len {len}"),
            );
        }
        check_both(&buf[..1 << 20], "a whole MiB");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernel_leaves_the_tail_past_the_last_whole_block() {
        if !clmul::detected() {
            return;
        }
        let buf = noise(200);
        for len in clmul::MIN_LEN..200 {
            let (crc, tail) = clmul::fold(!0, &buf[..len]);
            assert_eq!(tail.len(), len % 16, "len {len}");
            let whole = &buf[..len - len % 16];
            assert_eq!(!crc, crc32_reference(whole), "len {len}");
        }
    }

    #[test]
    fn any_single_bit_flip_in_a_16_kib_frame_is_corrupt() {
        let frame = encode(&noise(16 * 1024));
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = decode(&bad).expect_err("a flipped bit is caught");
            // A flip in the length field makes the frame promise more
            // (truncated) or less (checksum of a shorter payload).
            let in_length = (4..8).contains(&(bit / 8));
            assert!(
                in_length || !matches!(err, FrameError::Truncated { .. }),
                "bit {bit}: {err:?}"
            );
        }
    }

    /// A frame written by the encoder of the commit before the sliced
    /// CRC: bytes at rest must keep verifying.
    const GOLDEN_FRAME: [u8; 56] = [
        0x53, 0x43, 0x4b, 0x31, 0x28, 0x00, 0x00, 0x00, 0x78, 0x7e, 0x7e, 0x83, 0x00, 0x00, 0x00,
        0x00, 0x0b, 0x30, 0x55, 0x7a, 0x9f, 0xc4, 0xe9, 0x0e, 0x33, 0x58, 0x7d, 0xa2, 0xc7, 0xec,
        0x11, 0x36, 0x5b, 0x80, 0xa5, 0xca, 0xef, 0x14, 0x39, 0x5e, 0x83, 0xa8, 0xcd, 0xf2, 0x17,
        0x3c, 0x61, 0x86, 0xab, 0xd0, 0xf5, 0x1a, 0x3f, 0x64, 0x89, 0xae,
    ];

    #[test]
    fn golden_frame_still_decodes_and_reencodes_identically() {
        let payload: Vec<u8> = (0u32..40).map(|i| (i * 37 + 11) as u8).collect();
        assert_eq!(decode(&GOLDEN_FRAME).unwrap(), payload);
        assert_eq!(into_payload(GOLDEN_FRAME.to_vec()).unwrap(), payload);
        assert_eq!(encode(&payload), GOLDEN_FRAME);
    }

    #[test]
    fn into_payload_strips_header_and_slack_and_fails_like_decode() {
        let mut frame = encode(b"abc");
        frame.extend_from_slice(&[0xAA; 13]);
        assert_eq!(into_payload(frame.clone()).unwrap(), b"abc");
        frame[FRAME_HEADER] ^= 1;
        assert_eq!(
            into_payload(frame.clone()),
            decode(&frame).map(<[u8]>::to_vec)
        );
        assert!(matches!(
            into_payload(frame),
            Err(FrameError::BadChecksum { .. })
        ));
        assert!(matches!(
            into_payload(encode(b"0123456789")[..20].to_vec()),
            Err(FrameError::Truncated {
                expected: 10,
                got: 4
            })
        ));
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let payload = b"the quick brown fox jumps over the lazy dog";
        let frame = encode(payload);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_distinguished_from_corruption() {
        let frame = encode(b"0123456789abcdef");
        let torn = &frame[..frame.len() - 3];
        assert!(matches!(
            decode(torn),
            Err(FrameError::Truncated {
                expected: 16,
                got: 13
            })
        ));
        let stub = &frame[..7];
        assert!(matches!(decode(stub), Err(FrameError::Truncated { .. })));
        assert!(matches!(
            decode(b"not a frame at all"),
            Err(FrameError::BadMagic)
        ));
    }

    #[test]
    fn slack_after_payload_is_ignored() {
        let mut frame = encode(b"abc");
        frame.extend_from_slice(&[0xAA; 13]); // slot padding
        assert_eq!(decode(&frame).unwrap(), b"abc");
    }
}
