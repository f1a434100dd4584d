//! Page-granularity addressing for the unified managed address space.
//!
//! The simulator models one managed virtual address space per run. The
//! space is a contiguous sequence of 4 KB pages numbered by [`GlobalPage`];
//! individual `cudaMallocManaged` allocations ("VA ranges" in driver
//! parlance) are carved out of it by the driver crate. Pages group into
//! 2 MB VABlocks indexed by [`VaBlockIdx`].

use serde::{Deserialize, Serialize};
use sim_engine::units::PAGES_PER_VABLOCK;
use std::fmt;

/// Index of a 4 KB page within the managed address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalPage(pub u64);

/// Index of a 2 MB VABlock within the managed address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VaBlockIdx(pub u64);

/// Whether a memory access reads or writes the page. Writes mark pages
/// dirty, which matters for eviction write-back cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessType {
    /// Read access.
    Read,
    /// Write access (dirties the page).
    Write,
}

impl GlobalPage {
    /// VABlock containing this page.
    #[inline]
    pub fn vablock(self) -> VaBlockIdx {
        VaBlockIdx(self.0 / PAGES_PER_VABLOCK as u64)
    }

    /// Index of this page within its VABlock (0..512).
    #[inline]
    pub fn offset_in_vablock(self) -> usize {
        (self.0 % PAGES_PER_VABLOCK as u64) as usize
    }

    /// Raw page number.
    #[inline]
    pub fn index(self) -> u64 {
        self.0
    }
}

impl VaBlockIdx {
    /// First page of this VABlock.
    #[inline]
    pub fn first_page(self) -> GlobalPage {
        GlobalPage(self.0 * PAGES_PER_VABLOCK as u64)
    }

    /// Raw VABlock number.
    #[inline]
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for GlobalPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

impl fmt::Display for VaBlockIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vablock#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_to_vablock_mapping() {
        assert_eq!(GlobalPage(0).vablock(), VaBlockIdx(0));
        assert_eq!(GlobalPage(511).vablock(), VaBlockIdx(0));
        assert_eq!(GlobalPage(512).vablock(), VaBlockIdx(1));
        assert_eq!(GlobalPage(512 * 7 + 13).vablock(), VaBlockIdx(7));
        assert_eq!(GlobalPage(512 * 7 + 13).offset_in_vablock(), 13);
    }

    #[test]
    fn vablock_page_roundtrip() {
        let vb = VaBlockIdx(42);
        for off in [0usize, 1, 255, 511] {
            let p = GlobalPage(vb.first_page().0 + off as u64);
            assert_eq!(p.vablock(), vb);
            assert_eq!(p.offset_in_vablock(), off);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(GlobalPage(3).to_string(), "page#3");
        assert_eq!(VaBlockIdx(3).to_string(), "vablock#3");
    }
}
