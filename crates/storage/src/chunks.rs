//! One-dimensional chunking of linearized arrays.
//!
//! SSDM partitions every externally stored array into equal-size 1-D
//! chunks of its row-major element stream; the chunk size (in bytes) is
//! the single tuning parameter (thesis §2.5, §6.3.4). Elements are 8
//! bytes, so a chunk holds `chunk_size_bytes / 8` elements.

/// The chunking layout of one stored array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunking {
    /// Chunk payload size in bytes (a multiple of 8).
    pub chunk_bytes: usize,
    /// Total number of elements in the array.
    pub total_elements: usize,
}

impl Chunking {
    pub fn new(chunk_bytes: usize, total_elements: usize) -> Self {
        assert!(chunk_bytes >= 8, "chunk must hold at least one element");
        assert_eq!(chunk_bytes % 8, 0, "chunk size must be element-aligned");
        Chunking {
            chunk_bytes,
            total_elements,
        }
    }

    /// Elements per full chunk.
    pub fn elements_per_chunk(&self) -> usize {
        self.chunk_bytes / 8
    }

    /// Number of chunks (the last may be partial).
    pub fn chunk_count(&self) -> u64 {
        if self.total_elements == 0 {
            0
        } else {
            self.total_elements.div_ceil(self.elements_per_chunk()) as u64
        }
    }

    /// Element range `[start, end)` stored in chunk `id`.
    pub fn chunk_span(&self, id: u64) -> (usize, usize) {
        let epc = self.elements_per_chunk();
        let start = id as usize * epc;
        (start, (start + epc).min(self.total_elements))
    }

    /// Number of elements actually stored in chunk `id`.
    pub fn chunk_len(&self, id: u64) -> usize {
        let (s, e) = self.chunk_span(id);
        e.saturating_sub(s)
    }
}

/// The auto-tuning heuristic for the chunk size (thesis §2.5: "the
/// chunk size is the only parameter and its auto-tuning heuristics are
/// simple"). Targets roughly 1024 chunks per array — enough that
/// selective access skips most of the data, few enough that whole-array
/// scans don't drown in per-chunk overhead — clamped to [1 KiB, 256 KiB]
/// and rounded to a power of two. A chunk is never larger than the
/// array itself: tiny (and empty) arrays get one chunk of their own
/// size rounded up to a power of two, with an 8-byte (one-element)
/// floor, instead of the 1 KiB clamp.
pub fn auto_chunk_bytes(total_elements: usize) -> usize {
    const MIN: usize = 1024;
    const MAX: usize = 256 * 1024;
    let total_bytes = total_elements.saturating_mul(8).max(8);
    let target = (total_bytes / 1024).max(8);
    let cap = total_bytes.next_power_of_two().clamp(8, MAX);
    target.next_power_of_two().clamp(MIN, MAX).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::ViewRuns;
    use ssdm_array::ArrayView;

    #[test]
    fn basic_layout() {
        let c = Chunking::new(64, 100); // 8 elements per chunk
        assert_eq!(c.elements_per_chunk(), 8);
        assert_eq!(c.chunk_count(), 13);
        assert_eq!(c.chunk_span(0), (0, 8));
        assert_eq!(c.chunk_span(1), (8, 16));
        assert_eq!(c.chunk_span(12), (96, 100), "last chunk is partial");
        assert_eq!(c.chunk_len(12), 4);
    }

    #[test]
    fn empty_array() {
        let c = Chunking::new(64, 0);
        assert_eq!(c.chunk_count(), 0);
    }

    /// The chunks an arithmetic run of `len` addresses from `start`,
    /// `step` apart, touches — as the runner derives them, from the
    /// view's runs.
    fn chunks_for_run(c: &Chunking, start: usize, step: usize, len: usize) -> Vec<u64> {
        let whole = ArrayView::contiguous(&[c.total_elements]);
        let view = whole
            .slice(0, start, step, start + step * (len - 1))
            .unwrap();
        ViewRuns::of(&view, c).chunk_ids()
    }

    #[test]
    fn chunks_for_dense_run() {
        let c = Chunking::new(64, 100);
        // addresses 4..14 -> chunks 0,1
        assert_eq!(chunks_for_run(&c, 4, 1, 10), vec![0, 1]);
    }

    #[test]
    fn chunks_for_strided_run() {
        let c = Chunking::new(64, 200);
        // 0,16,32,48,64 -> chunks 0,2,4,6,8
        assert_eq!(chunks_for_run(&c, 0, 16, 5), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn chunks_for_small_stride_covers_range() {
        let c = Chunking::new(64, 200);
        // up to address 27 -> chunks 0..=3
        assert_eq!(chunks_for_run(&c, 0, 3, 10), vec![0, 1, 2, 3]);
    }

    #[test]
    fn auto_tuning_heuristic() {
        // A 1M-element (8 MB) array lands near 8 KiB (≈ 1024 chunks).
        let c = auto_chunk_bytes(1_000_000);
        assert!((4096..=16384).contains(&c), "{c}");
        assert!(c.is_power_of_two());
        // Huge arrays are clamped.
        assert_eq!(auto_chunk_bytes(1 << 32), 256 * 1024);
        // Monotone non-decreasing in array size.
        let mut last = 0;
        for e in [1usize, 100, 10_000, 1_000_000, 100_000_000] {
            let c = auto_chunk_bytes(e);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn auto_tuning_never_exceeds_array_size() {
        // Empty and one-element arrays: one minimal (8-byte) chunk, not
        // the 1 KiB clamp.
        assert_eq!(auto_chunk_bytes(0), 8);
        assert_eq!(auto_chunk_bytes(1), 8);
        // A 10-element (80-byte) array: one 128-byte chunk covers it.
        assert_eq!(auto_chunk_bytes(10), 128);
        // The proposed chunk never exceeds the array's own size rounded
        // up to a power of two, and is always usable with `Chunking`.
        for e in [0usize, 1, 2, 7, 10, 100, 127, 128, 129, 5000] {
            let c = auto_chunk_bytes(e);
            assert!(
                c >= 8 && c.is_multiple_of(8),
                "chunk {c} not element-aligned"
            );
            assert!(
                c <= (e * 8).max(8).next_power_of_two(),
                "chunk {c} larger than {e}-element array"
            );
            let _ = Chunking::new(c, e); // must not panic
        }
        // Mid-size arrays still hit the 1 KiB floor once they can fill it.
        assert_eq!(auto_chunk_bytes(128), 1024);
        assert_eq!(auto_chunk_bytes(10_000), 1024);
    }

    #[test]
    fn single_element_run() {
        let c = Chunking::new(64, 100);
        assert_eq!(chunks_for_run(&c, 42, 1, 1), vec![5]);
    }
}
