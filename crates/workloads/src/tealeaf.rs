//! TeaLeaf-style 2-D heat-conduction solver (UK-MAC TeaLeaf CUDA port).
//!
//! A CG-based 5-point stencil solver over several co-allocated field
//! arrays (u, p, r, w, …). Thread blocks own 2-D tiles, so each block's
//! page accesses stride by the row length across every field array — the
//! multi-allocation, strided pattern that gives TeaLeaf the lowest
//! prefetch fault-coverage in the paper's Table I.

use crate::common::{cost_of_bytes, reserve_like_first_block, tile_pages, WARP_SIZE};
use gpu_model::{GlobalPage, WorkloadTrace};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use uvm_driver::ManagedSpace;

/// Parameters of the TeaLeaf workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TealeafParams {
    /// Grid edge (cells); arrays are n×n f64.
    pub n: usize,
    /// Number of field arrays (TeaLeaf's CG solver keeps ~5 live).
    pub arrays: usize,
    /// Solver iterations (data is reused across iterations; only the
    /// first faults when undersubscribed).
    pub iterations: usize,
    /// Tile edge in cells for the 2-D block decomposition.
    pub tile: usize,
}

impl Default for TealeafParams {
    fn default() -> Self {
        TealeafParams {
            n: 2048,
            arrays: 5,
            iterations: 2,
            tile: 256,
        }
    }
}

impl TealeafParams {
    /// Total managed footprint.
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays as u64 * 8 * (self.n as u64) * (self.n as u64)
    }
}

/// Generate the TeaLeaf trace, allocating its field arrays in `space`.
pub fn generate(params: &TealeafParams, space: &mut ManagedSpace) -> WorkloadTrace {
    let (n, t) = (params.n, params.tile);
    assert!(t > 0 && n % t == 0, "n must be a multiple of tile");
    assert!(params.arrays >= 1 && params.iterations >= 1);
    let arr_bytes = 8 * (n as u64) * (n as u64);
    let arrays: Vec<_> = (0..params.arrays)
        .map(|i| space.alloc(arr_bytes, format!("field{i}")))
        .collect();

    let nt = n / t;
    let mut trace = WorkloadTrace::new("tealeaf", params.arrays as u64 * arr_bytes / PAGE_SIZE);
    for _iter in 0..params.iterations {
        for bi in 0..nt {
            for bj in 0..nt {
                // Pages of this block's t×t tile in one array: rows stride
                // by 8n bytes.
                let tile_pages = tile_pages(n, 8, bi * t, bj * t, t);
                let step_cost =
                    cost_of_bytes((tile_pages.len() * params.arrays) as f64 * PAGE_SIZE as f64)
                        / tile_pages.len().div_ceil(WARP_SIZE) as u64;
                trace.begin_block(step_cost);
                // The stencil update reads/writes all field arrays in
                // lockstep: interleave one warp-chunk per array.
                for chunk in tile_pages.chunks(WARP_SIZE) {
                    for (ai, arr) in arrays.iter().enumerate() {
                        let write = ai == 0; // u is updated, others read
                        trace.push_step(
                            chunk.iter().map(|&p| GlobalPage(arr.start_page + p)),
                            write,
                        );
                    }
                }
                if trace.num_blocks() == 1 {
                    // Every tile covers the same number of pages.
                    reserve_like_first_block(&mut trace, params.iterations * nt * nt - 1);
                }
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::BlockView;

    fn small() -> TealeafParams {
        TealeafParams {
            n: 1024,
            arrays: 3,
            iterations: 2,
            tile: 256,
        }
    }

    #[test]
    fn grid_and_footprint() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        // 4x4 tiles x 2 iterations.
        assert_eq!(t.num_blocks(), 32);
        assert_eq!(space.ranges().len(), 3);
        assert_eq!(t.footprint_pages, 3 * 8 * 1024 * 1024 / 4096);
    }

    #[test]
    fn tiles_stride_across_rows() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        // Block (0,1) of array 0: row r segment at (r*1024 + 256)*8 —
        // pages stride by 2 (8KB rows), tile cols cover a sub-page range
        // crossing one page boundary.
        let bt = t.block(1);
        let first_warp: Vec<u64> = bt.step(0).map(|(p, _)| p.0).collect();
        assert!(first_warp.windows(2).all(|w| w[1] > w[0]));
        assert!(first_warp[1] - first_warp[0] <= 2);
    }

    #[test]
    fn arrays_interleave_in_lockstep() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let bt = t.block(0);
        let arr_pages = 8 * 1024 * 1024 / 4096_u64;
        // Steps cycle through the arrays: consecutive steps land in
        // consecutive allocations.
        let s0: Vec<u64> = bt.step(0).map(|(p, _)| p.0).collect();
        let s1: Vec<u64> = bt.step(1).map(|(p, _)| p.0).collect();
        let s2: Vec<u64> = bt.step(2).map(|(p, _)| p.0).collect();
        assert!(s0[0] < arr_pages);
        assert!((arr_pages..2 * arr_pages).contains(&s1[0]));
        assert!((2 * arr_pages..3 * arr_pages).contains(&s2[0]));
    }

    #[test]
    fn first_array_is_written() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let bt = t.block(0);
        let writes: Vec<bool> = (0..3).map(|s| bt.step(s).next().unwrap().1).collect();
        assert_eq!(writes, vec![true, false, false]);
    }

    #[test]
    fn iterations_revisit_the_same_pages() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let half = t.num_blocks() / 2;
        let pages = |b: BlockView| -> Vec<u64> {
            (0..b.num_steps())
                .flat_map(|s| b.step(s).map(|(p, _)| p.0).collect::<Vec<_>>())
                .collect()
        };
        assert_eq!(pages(t.block(0)), pages(t.block(half)));
    }
}
