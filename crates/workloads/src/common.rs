//! Shared helpers for workload trace generation: device rate constants,
//! step-cost computation, tile page lists, and block/warp chunking.

use gpu_model::{BlockTrace, GlobalPage};
use sim_engine::units::PAGE_SIZE;
use sim_engine::SimDuration;

/// Aggregate FP32 rate of the modelled GPU (Titan V ≈ 14 TFLOP/s).
pub const GPU_FLOPS: f64 = 14.0e12;

/// Effective device-memory bandwidth (Titan V HBM2 ≈ 650 GB/s).
pub const GPU_MEM_BW: f64 = 650.0e9;

/// Threads per warp; a warp's concurrent accesses form one trace step.
pub const WARP_SIZE: usize = 32;

/// Wall-time of `flops` of arithmetic at ideal whole-GPU utilisation.
pub fn cost_of_flops(flops: f64) -> SimDuration {
    debug_assert!(flops >= 0.0);
    SimDuration::from_nanos((flops / GPU_FLOPS * 1e9).round() as u64)
}

/// Wall-time to stream `bytes` through device memory (bandwidth-bound
/// kernels).
pub fn cost_of_bytes(bytes: f64) -> SimDuration {
    debug_assert!(bytes >= 0.0);
    SimDuration::from_nanos((bytes / GPU_MEM_BW * 1e9).round() as u64)
}

/// Distinct pages, sorted, covered by the `t × t` tile at (`r0`, `c0`) of
/// a row-major n×n matrix of `elem_bytes`-byte elements, as page offsets
/// into the matrix's allocation.
///
/// Each row segment starts and ends at a page no lower than the previous
/// row's, so skipping the pages already emitted keeps the list sorted and
/// unique without a set — rows narrower than a page share theirs.
pub fn tile_pages(n: usize, elem_bytes: usize, r0: usize, c0: usize, t: usize) -> Vec<u64> {
    let mut pages: Vec<u64> = Vec::new();
    for r in r0..r0 + t {
        let b0 = ((r * n + c0) * elem_bytes) as u64;
        let b1 = b0 + (t * elem_bytes) as u64 - 1;
        let first = match pages.last() {
            Some(&last) => (b0 / PAGE_SIZE).max(last + 1),
            None => b0 / PAGE_SIZE,
        };
        pages.extend(first..=b1 / PAGE_SIZE);
    }
    pages
}

/// Chunk a flat page list into thread blocks of warp-granularity steps:
/// every [`WARP_SIZE`] consecutive pages form one step (a warp's
/// concurrent accesses), and `warps_per_block` steps form one block.
pub fn blocks_of_pages(
    pages: &[GlobalPage],
    warps_per_block: usize,
    step_cost: SimDuration,
    write: bool,
) -> Vec<BlockTrace> {
    assert!(warps_per_block > 0);
    let pages_per_block = warps_per_block * WARP_SIZE;
    let mut out = Vec::with_capacity(pages.len().div_ceil(pages_per_block));
    for chunk in pages.chunks(pages_per_block) {
        let mut bt = BlockTrace::new(step_cost);
        for warp in chunk.chunks(WARP_SIZE) {
            bt.push_step(warp.iter().copied(), write);
        }
        out.push(bt);
    }
    out
}

/// Reorder a block's pages into warp-concurrent issue order.
///
/// A thread block's warps all issue their loads concurrently, so the
/// fault stream the driver sees from one block is *transposed*: first
/// each warp's page 0, then each warp's page 1, … . For kernels whose
/// warps cover consecutive page runs this scatters faults across the
/// block's whole span (one per 32-page run per cycle) — which is what
/// makes the density prefetcher effective on them (paper §IV-C).
pub fn warp_interleave(pages: &mut [GlobalPage]) {
    let n = pages.len();
    if n <= WARP_SIZE {
        return;
    }
    let warps = n.div_ceil(WARP_SIZE);
    let mut out = Vec::with_capacity(n);
    for j in 0..WARP_SIZE {
        for w in 0..warps {
            let idx = w * WARP_SIZE + j;
            if idx < n {
                out.push(pages[idx]);
            }
        }
    }
    pages.copy_from_slice(&out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_cost_scales() {
        assert_eq!(cost_of_flops(GPU_FLOPS), SimDuration::from_secs(1));
        assert_eq!(cost_of_flops(0.0), SimDuration::ZERO);
    }

    #[test]
    fn byte_cost_scales() {
        assert_eq!(cost_of_bytes(GPU_MEM_BW), SimDuration::from_secs(1));
    }

    #[test]
    fn tile_pages_are_strided_rows() {
        // Tile (0,0) of a 2048-wide f32 matrix: row r starts at r*8192
        // bytes = page 2r, and its 1024 elements fill exactly that page,
        // so the row stride is 2 pages.
        let pages = tile_pages(2048, 4, 0, 0, 1024);
        assert_eq!(pages.len(), 1024);
        assert_eq!(pages[0], 0);
        assert_eq!(pages[1], 2, "column tiling strides over pages");
        // The second column-tile covers the odd pages.
        let pages = tile_pages(2048, 4, 0, 1024, 1024);
        assert_eq!(pages[0], 1);
        assert_eq!(pages[1], 3);
    }

    #[test]
    fn tile_pages_match_sorted_deduplicated_row_pages() {
        // Every page of every row, then sorted and deduplicated: the set
        // the routine must produce.
        let reference = |n: usize, e: usize, r0: usize, c0: usize, t: usize| {
            let mut all: Vec<u64> = Vec::new();
            for r in r0..r0 + t {
                let b0 = ((r * n + c0) * e) as u64;
                let b1 = b0 + (t * e) as u64 - 1;
                all.extend(b0 / PAGE_SIZE..=b1 / PAGE_SIZE);
            }
            all.sort_unstable();
            all.dedup();
            all
        };
        // (n, elem_bytes, t): rows wider than, equal to, and narrower than
        // a page (n=64 f32 rows are 256 bytes: 16 rows share each page),
        // plus unaligned f64 tiles that straddle page edges.
        for (n, e, t) in [
            (2048, 4, 1024),
            (1024, 4, 256),
            (64, 4, 16),
            (64, 8, 16),
            (96, 8, 32),
            (1000, 8, 100),
            (24, 4, 8),
        ] {
            for r0 in (0..n).step_by(t) {
                for c0 in (0..n).step_by(t) {
                    assert_eq!(
                        tile_pages(n, e, r0, c0, t),
                        reference(n, e, r0, c0, t),
                        "n={n} e={e} t={t} at ({r0},{c0})"
                    );
                }
            }
        }
        // Narrow rows really do share pages: a 16×16 f32 tile of a
        // 64-wide matrix spans 16 rows × 256 bytes = one page.
        assert_eq!(tile_pages(64, 4, 0, 0, 16), vec![0]);
    }

    #[test]
    fn chunking_produces_warp_steps() {
        let pages: Vec<GlobalPage> = (0..100).map(GlobalPage).collect();
        let blocks = blocks_of_pages(&pages, 2, SimDuration::ZERO, false);
        // 100 pages, 64 per block -> 2 blocks (64 + 36).
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].num_steps(), 2);
        assert_eq!(blocks[0].num_accesses(), 64);
        assert_eq!(blocks[1].num_steps(), 2); // 32 + 4
        assert_eq!(blocks[1].num_accesses(), 36);
        let total: usize = blocks.iter().map(|b| b.num_accesses()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn warp_interleave_transposes() {
        let mut pages: Vec<GlobalPage> = (0..64).map(GlobalPage).collect();
        warp_interleave(&mut pages);
        // Two warps: cycle j yields page j of warp 0 then page j of warp 1.
        assert_eq!(pages[0], GlobalPage(0));
        assert_eq!(pages[1], GlobalPage(32));
        assert_eq!(pages[2], GlobalPage(1));
        assert_eq!(pages[3], GlobalPage(33));
        let mut sorted: Vec<u64> = pages.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "permutation");
    }

    #[test]
    fn warp_interleave_small_input_unchanged() {
        let mut pages: Vec<GlobalPage> = (0..20).map(GlobalPage).collect();
        warp_interleave(&mut pages);
        assert_eq!(pages, (0..20).map(GlobalPage).collect::<Vec<_>>());
    }

    #[test]
    fn warp_interleave_ragged_tail() {
        let mut pages: Vec<GlobalPage> = (0..70).map(GlobalPage).collect();
        warp_interleave(&mut pages);
        let mut sorted: Vec<u64> = pages.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_preserves_order() {
        let pages: Vec<GlobalPage> = (0..64).map(GlobalPage).collect();
        let blocks = blocks_of_pages(&pages, 1, SimDuration::ZERO, true);
        let first_step: Vec<_> = blocks[0].step(0).collect();
        assert_eq!(first_step[0], (GlobalPage(0), true));
        assert_eq!(first_step[31], (GlobalPage(31), true));
    }
}
