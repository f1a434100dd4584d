//! The paper's "regular access" synthetic kernel (§III-C): each thread
//! touches exactly one page, the page matching its global thread ID, so
//! page access is sequential within warps and blocks.

use crate::common::{blocks_of_pages, cost_of_bytes, warp_interleave, WARP_SIZE};
use gpu_model::{GlobalPage, WorkloadTrace};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use uvm_driver::ManagedSpace;

/// Parameters of the regular page-touch kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegularParams {
    /// Total buffer size in bytes.
    pub bytes: u64,
    /// Warps per thread block (stock CUDA kernels: 8 → 256 threads).
    pub warps_per_block: usize,
}

impl Default for RegularParams {
    fn default() -> Self {
        RegularParams {
            bytes: 256 * 1024 * 1024,
            warps_per_block: 8,
        }
    }
}

/// Generate the regular-access trace, allocating its buffer in `space`.
pub fn generate(params: &RegularParams, space: &mut ManagedSpace) -> WorkloadTrace {
    let range = space.alloc(params.bytes, "data");
    let mut pages: Vec<GlobalPage> = (0..range.num_pages).map(|i| range.page(i)).collect();
    // Within each thread block the warps issue concurrently: transpose
    // each block's page run into warp-interleaved order.
    let per_block = params.warps_per_block * WARP_SIZE;
    for chunk in pages.chunks_mut(per_block) {
        warp_interleave(chunk);
    }
    let step_cost = cost_of_bytes((WARP_SIZE as u64 * PAGE_SIZE) as f64);
    let mut trace = WorkloadTrace::new("regular", range.num_pages);
    blocks_of_pages(&mut trace, &pages, params.warps_per_block, step_cost, false);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::MIB;

    #[test]
    fn covers_every_page_once_in_order() {
        let mut space = ManagedSpace::new();
        let t = generate(
            &RegularParams {
                bytes: 4 * MIB,
                warps_per_block: 8,
            },
            &mut space,
        );
        assert_eq!(t.footprint_pages, 1024);
        assert_eq!(t.total_accesses(), 1024);
        assert_eq!(t.num_blocks(), 4); // 1024 pages / 256 per block
                                       // Warp-interleaved issue order: cycle 0 of all 8 warps first.
        let first: Vec<_> = t.block(0).step(0).map(|(p, _)| p.0).collect();
        assert_eq!(&first[..8], &[0, 32, 64, 96, 128, 160, 192, 224]);
    }

    #[test]
    fn reads_only() {
        let mut space = ManagedSpace::new();
        let t = generate(
            &RegularParams {
                bytes: MIB,
                warps_per_block: 8,
            },
            &mut space,
        );
        assert!(t.block(0).step(0).all(|(_, w)| !w));
    }
}
