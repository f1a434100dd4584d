//! The 9-level density tree (paper §IV-A, Fig. 6).
//!
//! Each VABlock is conceptually a binary tree over its 512 pages:
//! level 0 holds the 512 leaves, level 9 the root; a node at level *L*
//! covers `2^L` consecutive pages. A node's value is the number of covered
//! pages that are resident on the GPU, present in the current fault batch,
//! or already flagged for prefetching. For a faulted leaf, the *prefetch
//! region* is the largest ancestor subtree whose density exceeds the
//! threshold; the whole region is then fetched and its nodes saturated to
//! their maximum value so later faults in the batch see the update.

use gpu_model::PageMask;
use sim_engine::units::{PAGES_PER_VABLOCK, PREFETCH_TREE_LEVELS};
use std::ops::Range;

/// Per-VABlock density tree, stored as its occupancy mask.
///
/// A node's count is the popcount of the mask over the node's aligned
/// leaf range, so the 512-bit mask (64 bytes, inline) is the whole tree:
/// counts are read word-at-a-time and saturation sets bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DensityTree(PageMask);

impl DensityTree {
    /// Build the tree from an occupancy mask (resident ∪ faulted ∪
    /// prefetch-flagged pages).
    pub fn from_mask(mask: &PageMask) -> Self {
        DensityTree(*mask)
    }

    /// Occupied-leaf count of node (`level`, `idx`).
    #[inline]
    pub fn count(&self, level: usize, idx: usize) -> u16 {
        debug_assert!(level <= PREFETCH_TREE_LEVELS);
        self.0.count_range(idx << level, 1 << level) as u16
    }

    /// Leaf range covered by node (`level`, `idx`).
    #[inline]
    pub fn leaves_of(level: usize, idx: usize) -> Range<usize> {
        let size = 1usize << level;
        idx * size..(idx + 1) * size
    }

    /// For a faulted `leaf`, find the largest ancestor subtree whose
    /// density strictly exceeds `threshold` percent. Returns `(level,
    /// idx)`; `(0, leaf)` when no larger region qualifies (the leaf itself
    /// always does — it faulted).
    pub fn region_for(&self, leaf: usize, threshold: u8) -> (usize, usize) {
        debug_assert!(leaf < PAGES_PER_VABLOCK);
        debug_assert!((1..=100).contains(&threshold));
        let mut best = (0usize, leaf);
        let mut idx = leaf;
        for level in 0..=PREFETCH_TREE_LEVELS {
            let size = 1u32 << level;
            let count = self.count(level, idx) as u32;
            // density > threshold%  <=>  count * 100 > threshold * size
            if count * 100 > threshold as u32 * size {
                best = (level, idx);
            }
            idx >>= 1;
        }
        best
    }

    /// Saturate the subtree at (`level`, `idx`): every leaf in the region
    /// becomes occupied, so the region and all its ancestors count the
    /// pending prefetch and later faults in the same batch observe it.
    pub fn saturate(&mut self, level: usize, idx: usize) {
        self.0.set_range(idx << level, 1 << level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(leaves: &[usize]) -> PageMask {
        let mut m = PageMask::EMPTY;
        for &l in leaves {
            m.set(l);
        }
        m
    }

    #[test]
    fn build_aggregates_counts() {
        let t = DensityTree::from_mask(&mask_of(&[0, 1, 2, 3, 100, 511]));
        assert_eq!(t.count(0, 0), 1);
        assert_eq!(t.count(1, 0), 2); // leaves 0,1
        assert_eq!(t.count(2, 0), 4); // leaves 0..4
        assert_eq!(t.count(9, 0), 6);
    }

    #[test]
    fn empty_and_full_masks() {
        let empty = DensityTree::from_mask(&PageMask::EMPTY);
        assert_eq!(empty.count(9, 0), 0);
        let full = DensityTree::from_mask(&PageMask::FULL);
        assert_eq!(full.count(9, 0), 512);
        assert_eq!(full.count(4, 7), 16);
    }

    #[test]
    fn region_for_grows_with_density() {
        // Fully occupy the first 16-leaf subtree plus the faulted leaf 16:
        // level-4 node 1 has 1/16 ≤ 51%, but level-5 node 0 has 17/32 =
        // 53.1% > 51% -> region is (5, 0).
        let mut leaves: Vec<usize> = (0..16).collect();
        leaves.push(16);
        let t = DensityTree::from_mask(&mask_of(&leaves));
        assert_eq!(t.region_for(16, 51), (5, 0));
    }

    #[test]
    fn region_for_lone_fault_is_the_leaf() {
        let t = DensityTree::from_mask(&mask_of(&[42]));
        assert_eq!(t.region_for(42, 51), (0, 42));
    }

    #[test]
    fn threshold_is_strict() {
        // Exactly 50% of a 2-leaf subtree at threshold 50 must NOT qualify
        // (density must strictly exceed), matching "more than 51%" prose
        // with the default 51.
        let t = DensityTree::from_mask(&mask_of(&[0]));
        // level-1 node 0 has 1/2 = 50%.
        assert_eq!(t.region_for(0, 50), (0, 0));
        // At threshold 49, 50% > 49% qualifies.
        assert_eq!(t.region_for(0, 49).0, 1);
    }

    #[test]
    fn aggressive_threshold_fetches_whole_block_from_one_fault() {
        // threshold 1: a single fault gives 1/512 ≈ 0.2% which is NOT
        // > 1%, so the root does not qualify — but 1/64 = 1.56% > 1% does:
        // level 6. This mirrors how threshold=1 cascades aggressively.
        let t = DensityTree::from_mask(&mask_of(&[0]));
        let (level, idx) = t.region_for(0, 1);
        assert_eq!((level, idx), (6, 0)); // 1/64 = 1.56% > 1%
    }

    #[test]
    fn paper_figure6_scenario() {
        // Fig. 6 (scaled): with threshold 51%, occupying 9 of the first 16
        // leaves (56%) makes the level-4 subtree the prefetch region for a
        // fault within it.
        let leaves: Vec<usize> = (0..9).collect();
        let t = DensityTree::from_mask(&mask_of(&leaves));
        let (level, idx) = t.region_for(3, 51);
        assert_eq!((level, idx), (4, 0), "9/16 = 56% > 51%");
    }

    #[test]
    fn saturate_updates_region_and_ancestors() {
        let mut t = DensityTree::from_mask(&mask_of(&[0, 1, 2]));
        assert_eq!(t.count(4, 0), 3);
        t.saturate(4, 0);
        assert_eq!(t.count(4, 0), 16);
        assert_eq!(t.count(0, 5), 1, "descendant leaves filled");
        assert_eq!(t.count(9, 0), 16, "root sees the increase");
        assert_eq!(t.count(5, 0), 16);
        // Saturating an already-full region is a no-op.
        let before = t;
        t.saturate(4, 0);
        assert_eq!(t, before);
    }

    #[test]
    fn cascade_five_faults_fetch_whole_block() {
        // The paper notes (§IV-A) that with big-page upgrades, five faults
        // in different level-5 subtrees can cascade to fetch the entire
        // VABlock. Emulate: occupy five 64-page level-6 subtrees... more
        // directly, saturate enough of the tree that one more fault makes
        // the root exceed 51%.
        let mut m = PageMask::EMPTY;
        m.set_range(0, 256); // half the block resident: 50%
        let t = DensityTree::from_mask(&m);
        // The root at 50% does not qualify; the fully-occupied level-8
        // half does, so a fault inside it stays within that half.
        assert_eq!(t.region_for(0, 51), (8, 0));
        // Push occupancy just past 51% of the block (262/512 = 51.2%):
        // a fault now cascades to fetch the entire VABlock.
        for leaf in 256..262 {
            m.set(leaf);
        }
        let t = DensityTree::from_mask(&m);
        assert_eq!(t.region_for(261, 51), (9, 0), "262/512 > 51%");
    }

    #[test]
    fn leaves_of_ranges() {
        assert_eq!(DensityTree::leaves_of(0, 7), 7..8);
        assert_eq!(DensityTree::leaves_of(4, 2), 32..48);
        assert_eq!(DensityTree::leaves_of(9, 0), 0..512);
    }
}
