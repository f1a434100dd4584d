//! 512-bit page masks: one bit per 4 KB page of a 2 MB VABlock.
//!
//! Both the GPU page tables and the UVM driver's per-VABlock bookkeeping
//! (residency, dirtiness, faulted-in-batch, prefetch candidates) are bit
//! masks over the 512 pages of a VABlock. The density-prefetch tree is
//! computed from popcounts over aligned sub-ranges of these masks.

use serde::{Deserialize, Serialize};
use sim_engine::units::PAGES_PER_VABLOCK;

const WORDS: usize = PAGES_PER_VABLOCK / 64; // 8

/// A fixed 512-bit mask, one bit per page in a VABlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageMask {
    words: [u64; WORDS],
}

impl Default for PageMask {
    fn default() -> Self {
        PageMask::EMPTY
    }
}

impl PageMask {
    /// The empty mask.
    pub const EMPTY: PageMask = PageMask { words: [0; WORDS] };

    /// The full mask (all 512 pages set).
    pub const FULL: PageMask = PageMask {
        words: [u64::MAX; WORDS],
    };

    /// Set the bit for page `idx` (0..512). Returns true if it was newly set.
    #[inline]
    pub fn set(&mut self, idx: usize) -> bool {
        debug_assert!(idx < PAGES_PER_VABLOCK);
        let w = idx / 64;
        let b = 1u64 << (idx % 64);
        let was = self.words[w] & b != 0;
        self.words[w] |= b;
        !was
    }

    /// Clear the bit for page `idx`. Returns true if it was set.
    #[inline]
    pub fn clear(&mut self, idx: usize) -> bool {
        debug_assert!(idx < PAGES_PER_VABLOCK);
        let w = idx / 64;
        let b = 1u64 << (idx % 64);
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        was
    }

    /// Test the bit for page `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < PAGES_PER_VABLOCK);
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits in the aligned range `[start, start + len)`.
    ///
    /// `start` must be a multiple of `len` and `len` a power of two — the
    /// shape of density-tree subtrees.
    pub fn count_range(&self, start: usize, len: usize) -> usize {
        debug_assert!(len.is_power_of_two());
        debug_assert_eq!(start % len, 0);
        debug_assert!(start + len <= PAGES_PER_VABLOCK);
        if len >= 64 {
            let w0 = start / 64;
            let nw = len / 64;
            self.words[w0..w0 + nw]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum()
        } else {
            let w = self.words[start / 64];
            let shift = start % 64;
            let field = (w >> shift) & ((1u64 << len) - 1);
            field.count_ones() as usize
        }
    }

    /// Set every bit in the aligned range `[start, start + len)`.
    pub fn set_range(&mut self, start: usize, len: usize) {
        debug_assert!(len.is_power_of_two());
        debug_assert_eq!(start % len, 0);
        debug_assert!(start + len <= PAGES_PER_VABLOCK);
        if len >= 64 {
            let w0 = start / 64;
            for w in &mut self.words[w0..w0 + len / 64] {
                *w = u64::MAX;
            }
        } else {
            let shift = start % 64;
            self.words[start / 64] |= ((1u64 << len) - 1) << shift;
        }
    }

    /// Bitwise OR.
    #[inline]
    pub fn union(&self, other: &PageMask) -> PageMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        out
    }

    /// Bitwise AND.
    #[inline]
    pub fn intersect(&self, other: &PageMask) -> PageMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        out
    }

    /// Bits set in `self` but not in `other`.
    #[inline]
    pub fn difference(&self, other: &PageMask) -> PageMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        out
    }

    /// In-place OR.
    #[inline]
    pub fn or_with(&mut self, other: &PageMask) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Set every bit in the arbitrary (unaligned) span
    /// `[start, start + len)`, word at a time.
    ///
    /// Unlike [`set_range`](Self::set_range) this accepts any span, so the
    /// sequential prefetcher can mark a run of pages without a per-bit
    /// loop.
    pub fn set_span(&mut self, start: usize, len: usize) {
        debug_assert!(start + len <= PAGES_PER_VABLOCK);
        if len == 0 {
            return;
        }
        let end = start + len; // exclusive
        let (w0, w1) = (start / 64, (end - 1) / 64);
        // Bits of the first word at and above `start % 64`.
        let first = u64::MAX << (start % 64);
        // Bits of the last word strictly below `end`, i.e. up to and
        // including bit (end - 1) % 64.
        let last = u64::MAX >> (63 - (end - 1) % 64);
        if w0 == w1 {
            self.words[w0] |= first & last;
        } else {
            self.words[w0] |= first;
            for w in &mut self.words[w0 + 1..w1] {
                *w = u64::MAX;
            }
            self.words[w1] |= last;
        }
    }

    /// The mask's backing words, least-significant page first (8 × 64
    /// bits): word `w` holds pages `64 * w .. 64 * w + 64`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place AND-NOT: clear every bit of `self` that is set in
    /// `other` (absorption). `a.andnot_with(&b)` leaves `a == a \ b`
    /// without materialising a temporary mask.
    #[inline]
    pub fn andnot_with(&mut self, other: &PageMask) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// `self ∩ other` popcount without materialising the intersection.
    #[inline]
    pub fn intersect_count(&self, other: &PageMask) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterate over indices of set bits, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut m = PageMask::EMPTY;
        assert!(m.is_empty());
        assert!(m.set(0));
        assert!(!m.set(0), "second set reports already-set");
        assert!(m.set(511));
        assert!(m.get(0) && m.get(511) && !m.get(1));
        assert_eq!(m.count(), 2);
        assert!(m.clear(0));
        assert!(!m.clear(0));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn full_mask() {
        assert_eq!(PageMask::FULL.count(), 512);
        assert_eq!(PageMask::FULL.count_range(448, 64), 64);
        assert!(!PageMask::FULL.is_empty());
    }

    #[test]
    fn count_range_small_and_large() {
        let mut m = PageMask::EMPTY;
        for i in 0..10 {
            m.set(i * 3); // 0,3,6,...,27
        }
        assert_eq!(m.count_range(0, 16), 6); // 0,3,6,9,12,15
        assert_eq!(m.count_range(16, 16), 4); // 18,21,24,27
        assert_eq!(m.count_range(0, 64), 10);
        assert_eq!(m.count_range(0, 512), 10);
        assert_eq!(m.count_range(64, 64), 0);
    }

    #[test]
    fn set_range_subword_and_multiword() {
        let mut m = PageMask::EMPTY;
        m.set_range(16, 16);
        assert_eq!(m.count(), 16);
        assert!(m.get(16) && m.get(31) && !m.get(15) && !m.get(32));
        let mut m2 = PageMask::EMPTY;
        m2.set_range(128, 128);
        assert_eq!(m2.count(), 128);
        assert!(m2.get(128) && m2.get(255) && !m2.get(127) && !m2.get(256));
    }

    #[test]
    fn set_ops() {
        let mut a = PageMask::EMPTY;
        let mut b = PageMask::EMPTY;
        a.set_range(0, 32);
        b.set_range(16, 16);
        b.set(100);
        assert_eq!(a.union(&b).count(), 33);
        assert_eq!(a.intersect(&b).count(), 16);
        assert_eq!(a.difference(&b).count(), 16);
        let mut c = a;
        c.or_with(&b);
        assert_eq!(c, a.union(&b));
    }

    #[test]
    fn set_span_matches_naive_per_bit_loop() {
        // Every (start, len) shape that matters: empty, within one word,
        // word-crossing, word-aligned, full-mask, and ending on bit 511.
        let cases = [
            (0, 0),
            (7, 0),
            (0, 1),
            (3, 5),
            (0, 64),
            (60, 8),
            (63, 2),
            (1, 511),
            (100, 300),
            (448, 64),
            (511, 1),
            (0, 512),
        ];
        for &(start, len) in &cases {
            let mut fast = PageMask::EMPTY;
            fast.set_span(start, len);
            let mut naive = PageMask::EMPTY;
            for i in start..start + len {
                naive.set(i);
            }
            assert_eq!(fast, naive, "set_span({start}, {len})");
        }
        // Spans OR into existing bits rather than overwriting.
        let mut m = PageMask::EMPTY;
        m.set(0);
        m.set_span(100, 10);
        assert!(m.get(0) && m.get(100) && m.get(109) && !m.get(110));
    }

    #[test]
    fn iter_set_ascending() {
        let mut m = PageMask::EMPTY;
        let idxs = [0usize, 5, 63, 64, 200, 511];
        for &i in &idxs {
            m.set(i);
        }
        let collected: Vec<usize> = m.iter_set().collect();
        assert_eq!(collected, idxs);
    }

    #[test]
    fn word_kernels_on_final_partial_word_of_odd_block() {
        // An odd-sized allocation's last VABlock is only partially valid:
        // 67 pages leaves word 1 with just 3 valid bits (64..67). Build
        // the valid mask the allocator builds and a residency mask
        // hugging the word boundary, and check every kernel at the edge.
        let mut valid = PageMask::EMPTY;
        valid.set_span(0, 67);
        assert_eq!(valid.count(), 67);
        assert_eq!(valid.count_range(64, 64), 3, "popcount of the partial word");
        assert_eq!(valid.words()[1], 0b111, "nothing beyond the valid region");
        assert_eq!(valid.iter_set().last(), Some(66), "last valid page");
        let mut resident = PageMask::EMPTY;
        resident.set(63); // last bit of the full word
        resident.set(66); // last valid page of the block
        let r = resident.intersect(&valid);
        assert_eq!(r.count(), 2);
        let walked: Vec<usize> = r.iter_set().collect();
        assert_eq!(walked, [63, 66], "the walk crosses into the partial word");
        // An overrun bit just past the boundary is invisible through the
        // valid mask but visible as a difference — the shape the driver's
        // word loops rely on to never touch invalid pages.
        resident.set(67);
        assert_eq!(resident.intersect_count(&valid), 2);
        assert_eq!(resident.difference(&valid).count(), 1);
    }

    #[test]
    fn andnot_and_fused_counts_match_materialised_ops() {
        let mut a = PageMask::EMPTY;
        let mut b = PageMask::EMPTY;
        a.set_range(0, 64);
        a.set(300);
        b.set_range(32, 32);
        b.set(301);
        assert_eq!(a.intersect_count(&b), a.intersect(&b).count());
        let mut c = a;
        c.andnot_with(&b);
        assert_eq!(c, a.difference(&b));
    }

    mod kernel_equivalence {
        //! Proptest equivalence of the word-parallel kernels against the
        //! materialised set operations (absorption, fused counts).
        use super::*;
        use proptest::prelude::*;

        fn arb_mask() -> impl Strategy<Value = PageMask> {
            proptest::collection::vec(any::<u64>(), WORDS).prop_map(|v| {
                let mut m = PageMask::EMPTY;
                for (wi, w) in v.into_iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        m.set(wi * 64 + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
                m
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn andnot_equals_difference(a in arb_mask(), b in arb_mask()) {
                let mut fused = a;
                fused.andnot_with(&b);
                prop_assert_eq!(fused, a.difference(&b));
                // Absorption: (a \ b) ∩ b = ∅ and (a \ b) ∪ (a ∩ b) = a.
                prop_assert!(fused.intersect(&b).is_empty());
                prop_assert_eq!(fused.union(&a.intersect(&b)), a);
            }

            #[test]
            fn fused_counts_equal_materialised(a in arb_mask(), b in arb_mask()) {
                prop_assert_eq!(a.intersect_count(&b), a.intersect(&b).count());
                prop_assert_eq!(
                    a.intersect_count(&b) + a.difference(&b).count(),
                    a.count()
                );
            }
        }
    }
}
