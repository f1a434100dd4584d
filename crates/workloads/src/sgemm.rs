//! cuBLAS-style tiled SGEMM (`C = A × B`, all n×n f32, row-major).
//!
//! Each thread block computes one `tile × tile` output tile, marching over
//! the k-dimension: per k-step it cooperatively loads an A tile (row
//! segments) and a B tile (column-strided pages — the access that looks
//! random-like to the driver), and finally writes its C tile. The
//! page-level pattern matches what the paper's Fig. 7 shows cuBLAS SGEMM
//! presenting to the UVM driver, including the heavy cross-block reuse of
//! A and B pages that generates duplicate faults from distinct µTLBs.

use crate::common::{tile_pages, warp_interleave, GPU_FLOPS, WARP_SIZE};
use gpu_model::{BlockTrace, GlobalPage, WorkloadTrace};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use uvm_driver::{ManagedSpace, VaRange};

/// Parameters of the SGEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgemmParams {
    /// Matrix dimension; must be a multiple of `tile`.
    pub n: usize,
    /// Tile edge in elements (page-trace granularity of one block).
    pub tile: usize,
    /// Aggregate FP32 rate of the platform (FLOP/s). Scaled platforms
    /// scale this alongside memory so the compute/transfer balance of the
    /// full-size Titan V is preserved.
    pub gpu_flops: f64,
}

impl Default for SgemmParams {
    fn default() -> Self {
        SgemmParams {
            n: 4096,
            tile: 1024,
            gpu_flops: GPU_FLOPS,
        }
    }
}

impl SgemmParams {
    /// Total managed footprint: three n×n f32 matrices.
    pub fn footprint_bytes(&self) -> u64 {
        3 * 4 * (self.n as u64) * (self.n as u64)
    }

    /// Total arithmetic work (2n³ FLOPs).
    pub fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }
}

/// Pages of the `t × t` tile at (`r0`, `c0`) of an n×n f32 matrix living
/// in `range`, sorted.
fn tile(range: &VaRange, n: usize, r0: usize, c0: usize, t: usize) -> Vec<GlobalPage> {
    tile_pages(n, 4, r0, c0, t)
        .into_iter()
        .map(|p| range.page(p))
        .collect()
}

fn push_warp_steps(bt: &mut BlockTrace, pages: &mut [GlobalPage], write: bool) {
    // Warps load the tile cooperatively and concurrently: transpose into
    // warp-interleaved issue order so faults scatter across the tile span.
    warp_interleave(pages);
    for warp in pages.chunks(WARP_SIZE) {
        bt.push_step(warp.iter().copied(), write);
    }
}

/// Generate the SGEMM trace, allocating A, B, C in `space`.
pub fn generate(params: &SgemmParams, space: &mut ManagedSpace) -> WorkloadTrace {
    let (n, t) = (params.n, params.tile);
    assert!(t > 0 && n % t == 0, "n must be a multiple of tile");
    let mat_bytes = 4 * (n as u64) * (n as u64);
    let a = space.alloc(mat_bytes, "A");
    let b = space.alloc(mat_bytes, "B");
    let c = space.alloc(mat_bytes, "C");

    let nt = n / t;
    let mut blocks = Vec::with_capacity(nt * nt);
    for bi in 0..nt {
        for bj in 0..nt {
            let mut bt = BlockTrace::new(sim_engine::SimDuration::ZERO);
            for k in 0..nt {
                let mut a_pages = tile(&a, n, bi * t, k * t, t);
                let mut b_pages = tile(&b, n, k * t, bj * t, t);
                push_warp_steps(&mut bt, &mut a_pages, false);
                push_warp_steps(&mut bt, &mut b_pages, false);
            }
            let mut c_pages = tile(&c, n, bi * t, bj * t, t);
            push_warp_steps(&mut bt, &mut c_pages, true);
            // Smear the block's arithmetic evenly over its steps.
            let block_flops = 2.0 * (t as f64) * (t as f64) * (n as f64);
            bt.step_cost = sim_engine::SimDuration::from_nanos(
                (block_flops / bt.num_steps() as f64 / params.gpu_flops * 1e9).round() as u64,
            );
            blocks.push(bt);
        }
    }

    WorkloadTrace {
        name: "sgemm".into(),
        footprint_pages: 3 * mat_bytes / PAGE_SIZE,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SgemmParams {
        SgemmParams {
            n: 2048,
            tile: 1024,
            ..SgemmParams::default()
        }
    }

    #[test]
    fn grid_shape() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        assert_eq!(t.blocks.len(), 4, "(n/tile)^2 blocks");
        assert_eq!(t.footprint_pages, 3 * 4 * 2048 * 2048 / 4096);
        assert_eq!(space.ranges().len(), 3);
    }

    #[test]
    fn c_written_a_b_read() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let bt = &t.blocks[0];
        let c_start = space.ranges()[2].start_page;
        let mut saw_c_write = false;
        for s in 0..bt.num_steps() {
            for (p, w) in bt.step(s) {
                if p.0 >= c_start {
                    assert!(w, "C pages are written");
                    saw_c_write = true;
                } else {
                    assert!(!w, "A/B pages are read");
                }
            }
        }
        assert!(saw_c_write);
    }

    #[test]
    fn cross_block_reuse_exists() {
        // Blocks in the same block-row share A pages.
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let pages_of = |b: &BlockTrace| {
            let mut v: Vec<u64> = (0..b.num_steps())
                .flat_map(|s| b.step(s).map(|(p, _)| p.0).collect::<Vec<_>>())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let p0 = pages_of(&t.blocks[0]); // (0,0)
        let p1 = pages_of(&t.blocks[1]); // (0,1)
        let shared = p0.iter().filter(|p| p1.binary_search(p).is_ok()).count();
        assert!(shared > 0, "same block-row shares A tiles");
    }

    #[test]
    fn step_cost_accounts_total_flops() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let total: f64 = t
            .blocks
            .iter()
            .map(|b| b.step_cost.as_micros_f64() * b.num_steps() as f64)
            .sum();
        let expect = crate::common::cost_of_flops(small().flops()).as_micros_f64();
        let err = (total - expect).abs() / expect;
        assert!(err < 0.01, "smeared cost within 1% of 2n^3/rate");
    }

    #[test]
    #[should_panic(expected = "multiple of tile")]
    fn bad_tile_rejected() {
        let mut space = ManagedSpace::new();
        generate(
            &SgemmParams {
                n: 1000,
                tile: 512,
                ..SgemmParams::default()
            },
            &mut space,
        );
    }
}
