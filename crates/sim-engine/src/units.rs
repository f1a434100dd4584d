//! Byte-size and page-geometry constants shared across the workspace.
//!
//! The geometry mirrors NVIDIA UVM on an x86 host as analysed in the paper:
//! 4 KB OS pages, 64 KB "big pages" (the Power9-emulation prefetch upgrade
//! granularity), and 2 MB virtual address blocks (VABlocks) — the unit of
//! GPU physical allocation and eviction.

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Size of an OS page (x86): 4 KB.
pub const PAGE_SIZE: u64 = 4 * KIB;

/// Size of a UVM "big page" (prefetch stage-1 upgrade granularity): 64 KB.
pub const BIG_PAGE_SIZE: u64 = 64 * KIB;

/// Size of a UVM virtual address block (VABlock): 2 MB.
pub const VABLOCK_SIZE: u64 = 2 * MIB;

/// Number of 4 KB pages per VABlock: 512.
pub const PAGES_PER_VABLOCK: usize = (VABLOCK_SIZE / PAGE_SIZE) as usize;

/// Number of 4 KB pages per big page: 16.
pub const PAGES_PER_BIG_PAGE: usize = (BIG_PAGE_SIZE / PAGE_SIZE) as usize;

/// Number of big pages per VABlock: 32.
pub const BIG_PAGES_PER_VABLOCK: usize = PAGES_PER_VABLOCK / PAGES_PER_BIG_PAGE;

/// Depth of the density-prefetch binary tree: log2(2MB / 4KB) = 9 levels of
/// edges, i.e. the tree has levels 0 (leaves, 512 nodes) through 9 (root).
pub const PREFETCH_TREE_LEVELS: usize = 9;

/// Number of pages needed to hold `bytes`, rounding up.
#[inline]
pub const fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// Number of VABlocks needed to hold `bytes`, rounding up.
#[inline]
pub const fn vablocks_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(VABLOCK_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_the_paper() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(BIG_PAGE_SIZE, 65536);
        assert_eq!(VABLOCK_SIZE, 2 * 1024 * 1024);
        assert_eq!(PAGES_PER_VABLOCK, 512);
        assert_eq!(PAGES_PER_BIG_PAGE, 16);
        assert_eq!(BIG_PAGES_PER_VABLOCK, 32);
        // log2(512) = 9 — the paper's "9-level binary tree".
        assert_eq!(1usize << PREFETCH_TREE_LEVELS, PAGES_PER_VABLOCK);
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
        assert_eq!(vablocks_for_bytes(VABLOCK_SIZE + 1), 2);
        assert_eq!(vablocks_for_bytes(VABLOCK_SIZE), 1);
    }
}
