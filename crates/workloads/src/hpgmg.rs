//! HPGMG-style geometric multigrid V-cycles.
//!
//! A hierarchy of 2-D grids, each ¼ the size of the previous. Each
//! V-cycle smooths on the fine level (tiled sweeps), restricts downwards
//! (read fine / write coarse), smooths on progressively smaller levels,
//! then prolongates back up. The paper's Fig. 7 shows the resulting
//! pattern: long sequential bands over the fine grids punctuated by
//! random-looking bursts on the small coarse levels, and Table I shows the
//! lowest fault coverage of the suite (64 %).

use crate::common::{chunked_steps, cost_of_bytes, push_run, run_len, WARP_SIZE};
use gpu_model::WorkloadTrace;
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use sim_engine::SimRng;
use std::ops::Range;
use uvm_driver::{ManagedSpace, VaRange};

/// Parameters of the multigrid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HpgmgParams {
    /// Fine-grid edge (cells); grids are n×n f64, halving per level.
    pub n: usize,
    /// Number of multigrid levels.
    pub levels: usize,
    /// Number of V-cycles.
    pub vcycles: usize,
    /// Pages per thread block in the sweeps.
    pub pages_per_block: usize,
}

impl Default for HpgmgParams {
    fn default() -> Self {
        HpgmgParams {
            n: 4096,
            levels: 4,
            vcycles: 2,
            pages_per_block: 64,
        }
    }
}

impl HpgmgParams {
    /// Grid edge at `level`.
    fn edge(&self, level: usize) -> usize {
        (self.n >> level).max(32)
    }

    /// Bytes of the grid at `level`.
    fn level_bytes(&self, level: usize) -> u64 {
        let e = self.edge(level) as u64;
        8 * e * e
    }

    /// Total managed footprint across levels.
    pub fn footprint_bytes(&self) -> u64 {
        (0..self.levels).map(|l| self.level_bytes(l)).sum()
    }
}

/// Sequential sweep over a level's pages (a smoother pass).
fn sweep(range: &VaRange, pages_per_block: usize, write: bool, trace: &mut WorkloadTrace) {
    let step_cost = cost_of_bytes((WARP_SIZE as u64 * PAGE_SIZE) as f64);
    for chunk_start in (0..range.num_pages).step_by(pages_per_block) {
        let end = (chunk_start + pages_per_block as u64).min(range.num_pages);
        trace.begin_block(step_cost);
        push_run(trace, chunk_start..end, |p| range.page(p), write);
    }
}

/// The coarse pages (indices into the shuffled `dst` order) a transfer
/// block over `src` pages `chunk_start..end` writes: ~1 per `src/dst`
/// page ratio, at least one.
fn coarse_run(src: &VaRange, dst: &VaRange, chunk_start: u64, end: u64) -> Range<u64> {
    let ratio = (src.num_pages as f64 / dst.num_pages as f64).max(1.0);
    let d0 = (chunk_start as f64 / ratio) as u64;
    let d1 = ((end as f64 / ratio) as u64).max(d0 + 1).min(dst.num_pages);
    d0..d1
}

/// Inter-level transfer: read `src` sequentially, write a random-looking
/// scatter of `dst` pages (boundary/aggregation indirection on the small
/// coarse grids).
fn transfer(
    src: &VaRange,
    dst: &VaRange,
    pages_per_block: usize,
    rng: &mut SimRng,
    trace: &mut WorkloadTrace,
) {
    let step_cost = cost_of_bytes((WARP_SIZE as u64 * PAGE_SIZE) as f64);
    let mut dst_pages: Vec<u64> = (0..dst.num_pages).collect();
    rng.shuffle(&mut dst_pages);
    for chunk_start in (0..src.num_pages).step_by(pages_per_block) {
        let end = (chunk_start + pages_per_block as u64).min(src.num_pages);
        trace.begin_block(step_cost);
        push_run(trace, chunk_start..end, |p| src.page(p), false);
        // The corresponding coarse pages (scattered).
        let coarse = coarse_run(src, dst, chunk_start, end);
        push_run(trace, coarse, |i| dst.page(dst_pages[i as usize]), true);
    }
}

/// Generate the multigrid trace, allocating one grid per level in `space`.
pub fn generate(params: &HpgmgParams, space: &mut ManagedSpace, rng: &mut SimRng) -> WorkloadTrace {
    assert!(params.levels >= 1 && params.vcycles >= 1);
    let grids: Vec<VaRange> = (0..params.levels)
        .map(|l| space.alloc(params.level_bytes(l), format!("level{l}")))
        .collect();

    // The kernels of all V-cycles in launch order: `(level, None)` is a
    // smoother sweep, `(src, Some(dst))` an inter-level transfer.
    let top = params.levels - 1;
    let mut kernels: Vec<(usize, Option<usize>)> = Vec::new();
    for _cycle in 0..params.vcycles {
        // Down-stroke: smooth, then restrict to the next-coarser level.
        for l in 0..top {
            kernels.extend([(l, None), (l, Some(l + 1))]);
        }
        // Coarsest solve.
        kernels.push((top, None));
        // Up-stroke: prolongate, then smooth.
        for l in (0..top).rev() {
            kernels.extend([(l + 1, Some(l)), (l, None)]);
        }
    }

    let ppb = params.pages_per_block as u64;
    let (mut blocks, mut steps, mut accesses) = (0u64, 0u64, 0u64);
    for &(src, dst) in &kernels {
        let src = &grids[src];
        blocks += src.num_pages.div_ceil(ppb);
        steps += chunked_steps(src.num_pages, ppb);
        accesses += src.num_pages;
        if let Some(dst) = dst {
            for chunk_start in (0..src.num_pages).step_by(params.pages_per_block) {
                let end = (chunk_start + ppb).min(src.num_pages);
                let len = run_len(coarse_run(src, &grids[dst], chunk_start, end));
                steps += len.div_ceil(WARP_SIZE as u64);
                accesses += len;
            }
        }
    }
    let footprint = grids.iter().map(|g| g.num_pages).sum();
    let mut trace = WorkloadTrace::new("hpgmg", footprint);
    trace.reserve(blocks as usize, steps as usize, accesses as usize);
    for &(src, dst) in &kernels {
        match dst {
            None => sweep(&grids[src], params.pages_per_block, true, &mut trace),
            Some(dst) => transfer(
                &grids[src],
                &grids[dst],
                params.pages_per_block,
                rng,
                &mut trace,
            ),
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HpgmgParams {
        HpgmgParams {
            n: 512,
            levels: 3,
            vcycles: 1,
            pages_per_block: 32,
        }
    }

    #[test]
    fn allocates_halving_levels() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let t = generate(&small(), &mut space, &mut rng);
        assert_eq!(space.ranges().len(), 3);
        let p: Vec<u64> = space.ranges().iter().map(|r| r.num_pages).collect();
        assert_eq!(p, vec![512, 128, 32]); // 512² , 256², 128² f64
        assert_eq!(t.footprint_pages, 512 + 128 + 32);
    }

    #[test]
    fn touches_every_level() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let t = generate(&small(), &mut space, &mut rng);
        let mut seen = vec![false; space.num_blocks() * 512];
        for b in t.blocks() {
            for s in 0..b.num_steps() {
                for (p, _) in b.step(s) {
                    seen[p.0 as usize] = true;
                }
            }
        }
        // Every valid page of every level is touched at least once.
        for r in space.ranges() {
            for p in r.start_page..r.end_page() {
                assert!(seen[p as usize], "page {p} untouched");
            }
        }
    }

    #[test]
    fn vcycles_scale_block_count() {
        let mk = |vcycles| {
            let mut space = ManagedSpace::new();
            let mut rng = SimRng::from_seed(1);
            generate(&HpgmgParams { vcycles, ..small() }, &mut space, &mut rng).num_blocks()
        };
        assert_eq!(mk(2), 2 * mk(1));
    }

    #[test]
    fn coarse_writes_are_scattered() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let t = generate(&small(), &mut space, &mut rng);
        // Collect the write targets in level 1 from restrict blocks.
        let l1 = &space.ranges()[1];
        let mut writes: Vec<u64> = Vec::new();
        for b in t.blocks() {
            for s in 0..b.num_steps() {
                for (p, w) in b.step(s) {
                    if w && (l1.start_page..l1.end_page()).contains(&p.0) {
                        writes.push(p.0);
                    }
                }
            }
        }
        let mut sorted = writes.clone();
        sorted.sort_unstable();
        assert!(!writes.is_empty());
        assert_ne!(writes, sorted, "restriction writes are scattered");
    }
}
