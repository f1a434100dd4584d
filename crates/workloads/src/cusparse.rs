//! cuSPARSE-style kernel: dense→CSR conversion followed by a sparse
//! matrix–dense vector/matrix product (after Cheng et al.'s *Professional
//! CUDA C Programming* example the paper uses).
//!
//! Phase 1 streams the dense matrix sequentially while compacting into the
//! CSR arrays; phase 2 walks CSR rows and gathers from a dense operand at
//! the (random-looking) column positions of the nonzeros — the
//! random-like segments visible in Fig. 7's cusparse panel.

use crate::common::{
    chunked_steps, cost_of_bytes, push_run, push_warps, run_len, warp_interleave, WARP_SIZE,
};
use gpu_model::{GlobalPage, WorkloadTrace};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use sim_engine::SimRng;
use std::ops::Range;
use uvm_driver::ManagedSpace;

/// Parameters of the cuSPARSE workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CusparseParams {
    /// Dense matrix dimension (n×n f32).
    pub n: usize,
    /// Nonzero density in parts-per-thousand (e.g. 100 = 10 %).
    pub density_ppt: u32,
    /// Pages per thread block in the dense scan.
    pub pages_per_block: usize,
}

impl Default for CusparseParams {
    fn default() -> Self {
        CusparseParams {
            n: 4096,
            density_ppt: 100,
            pages_per_block: 64,
        }
    }
}

impl CusparseParams {
    /// Nonzeros in the sparse representation.
    pub fn nnz(&self) -> u64 {
        (self.n as u64 * self.n as u64 * self.density_ppt as u64) / 1000
    }

    /// Total managed footprint: dense A, CSR (vals + cols + row ptrs),
    /// dense operand B, output C.
    pub fn footprint_bytes(&self) -> u64 {
        let n = self.n as u64;
        let dense = 4 * n * n;
        let csr = 4 * self.nnz() + 4 * self.nnz() + 4 * (n + 1);
        dense + csr + dense + dense
    }
}

/// The `csr_vals` pages a phase-1 block over dense pages
/// `chunk_start..end` compacts into: the proportional run, at least one.
fn csr_run(chunk_start: u64, end: u64, ratio: f64, vals_pages: u64) -> Range<u64> {
    let v0 = (chunk_start as f64 / ratio) as u64;
    let v1 = ((end as f64 / ratio).ceil() as u64)
        .min(vals_pages)
        .max(v0 + 1);
    v0..v1.min(vals_pages)
}

/// The `C` pages a phase-2 block over CSR pages `chunk_start..end`
/// writes: the proportional run, at least one.
fn c_run(chunk_start: u64, end: u64, c_pages: u64, vals_pages: u64) -> Range<u64> {
    let c0 = chunk_start * c_pages / vals_pages;
    let c1 = (end * c_pages / vals_pages).max(c0 + 1).min(c_pages);
    c0..c1
}

/// Random gathers into `B` per phase-2 block (column-index driven).
const GATHERS_PER_BLOCK: usize = 16;

/// Generate the cuSPARSE trace, allocating all buffers in `space`.
pub fn generate(
    params: &CusparseParams,
    space: &mut ManagedSpace,
    rng: &mut SimRng,
) -> WorkloadTrace {
    let n = params.n as u64;
    let dense_bytes = 4 * n * n;
    let nnz = params.nnz().max(1);
    let a = space.alloc(dense_bytes, "A_dense");
    let vals = space.alloc(4 * nnz, "csr_vals");
    let cols = space.alloc(4 * nnz, "csr_cols");
    let rows = space.alloc(4 * (n + 1), "csr_rows");
    let b = space.alloc(dense_bytes, "B");
    let c = space.alloc(dense_bytes, "C");

    let ppb = params.pages_per_block as u64;
    let ratio = a.num_pages as f64 / vals.num_pages as f64;
    let warps = |len: u64| len.div_ceil(WARP_SIZE as u64);
    let chunks = |pages: u64| {
        (0..pages)
            .step_by(params.pages_per_block)
            .map(move |s| (s, (s + ppb).min(pages)))
    };

    // Size the trace: phase 1 writes two CSR pages per compacted page
    // plus one row-pointer page; phase 2 reads two CSR pages per page.
    let mut steps = chunked_steps(a.num_pages, ppb);
    let mut accesses = a.num_pages;
    for (s, e) in chunks(a.num_pages) {
        let out = 2 * run_len(csr_run(s, e, ratio, vals.num_pages)) + 1;
        steps += warps(out);
        accesses += out;
    }
    for (s, e) in chunks(vals.num_pages) {
        let out = run_len(c_run(s, e, c.num_pages, vals.num_pages));
        steps += warps(2 * (e - s)) + warps(GATHERS_PER_BLOCK as u64) + warps(out);
        accesses += 2 * (e - s) + GATHERS_PER_BLOCK as u64 + out;
    }
    let blocks = a.num_pages.div_ceil(ppb) + vals.num_pages.div_ceil(ppb);
    let footprint_pages = space.ranges().iter().map(|r| r.num_pages).sum();
    let mut trace = WorkloadTrace::new("cusparse", footprint_pages);
    trace.reserve(blocks as usize, steps as usize, accesses as usize);

    let step_cost = cost_of_bytes((WARP_SIZE as u64 * PAGE_SIZE) as f64);
    let mut pages: Vec<GlobalPage> = Vec::new();

    // Phase 1: dense scan + CSR compaction. Each block scans a chunk of A
    // and writes the proportional chunk of vals/cols (and touches rows).
    for (chunk_start, end) in chunks(a.num_pages) {
        trace.begin_block(step_cost);
        pages.clear();
        pages.extend((chunk_start..end).map(|p| a.page(p)));
        warp_interleave(&mut pages);
        push_warps(&mut trace, &pages, false);
        pages.clear();
        for v in csr_run(chunk_start, end, ratio, vals.num_pages) {
            pages.extend([vals.page(v), cols.page(v.min(cols.num_pages - 1))]);
        }
        pages.push(rows.page((chunk_start * rows.num_pages / a.num_pages).min(rows.num_pages - 1)));
        push_warps(&mut trace, &pages, true);
    }

    // Phase 2: SpMM — walk CSR sequentially, gather random rows of B,
    // write C sequentially.
    for (chunk_start, end) in chunks(vals.num_pages) {
        trace.begin_block(step_cost);
        pages.clear();
        pages.extend(
            (chunk_start..end).flat_map(|p| [vals.page(p), cols.page(p.min(cols.num_pages - 1))]),
        );
        push_warps(&mut trace, &pages, false);
        // Random gathers into B driven by the column indices.
        pages.clear();
        pages
            .extend((0..GATHERS_PER_BLOCK).map(|_| b.page(rng.index(b.num_pages as usize) as u64)));
        push_warps(&mut trace, &pages, false);
        // Proportional C output.
        let out = c_run(chunk_start, end, c.num_pages, vals.num_pages);
        push_run(&mut trace, out, |p| c.page(p), true);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CusparseParams {
        CusparseParams {
            n: 1024,
            density_ppt: 100,
            pages_per_block: 32,
        }
    }

    #[test]
    fn allocates_all_buffers() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let _ = generate(&small(), &mut space, &mut rng);
        let names: Vec<&str> = space.ranges().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["A_dense", "csr_vals", "csr_cols", "csr_rows", "B", "C"]
        );
    }

    #[test]
    fn nnz_tracks_density() {
        assert_eq!(small().nnz(), 1024 * 1024 / 10);
        let dense = CusparseParams {
            density_ppt: 1000,
            ..small()
        };
        assert_eq!(dense.nnz(), 1024 * 1024);
    }

    #[test]
    fn dense_matrix_scanned_sequentially() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let t = generate(&small(), &mut space, &mut rng);
        let a = space.ranges()[0].clone();
        let mut first: Vec<u64> = t.block(0).step(0).map(|(p, _)| p.0).collect();
        first.sort_unstable();
        assert!(first
            .iter()
            .all(|p| (a.start_page..a.end_page()).contains(p)));
    }

    #[test]
    fn phase2_gathers_into_b() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let t = generate(&small(), &mut space, &mut rng);
        let b = space.ranges()[4].clone();
        let mut b_reads = 0;
        for blk in t.blocks() {
            for s in 0..blk.num_steps() {
                for (p, w) in blk.step(s) {
                    if (b.start_page..b.end_page()).contains(&p.0) {
                        assert!(!w);
                        b_reads += 1;
                    }
                }
            }
        }
        assert!(b_reads > 0, "phase 2 gathers from B");
    }

    #[test]
    fn c_written() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let t = generate(&small(), &mut space, &mut rng);
        let c = space.ranges()[5].clone();
        let mut c_writes = vec![false; c.num_pages as usize];
        for blk in t.blocks() {
            for s in 0..blk.num_steps() {
                for (p, w) in blk.step(s) {
                    if (c.start_page..c.end_page()).contains(&p.0) {
                        assert!(w);
                        c_writes[(p.0 - c.start_page) as usize] = true;
                    }
                }
            }
        }
        assert!(c_writes.iter().all(|&x| x), "every C page written");
    }
}
