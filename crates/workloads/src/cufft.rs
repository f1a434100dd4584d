//! cuFFT-style forward + inverse transform (out-of-place, complex f32).
//!
//! The driver-visible pattern of a large 1-D FFT: each pass streams the
//! input sequentially while writing the output in a bit-reversal-style
//! scattered order; the inverse transform then reads that output
//! sequentially and scatters back into the input buffer. This produces
//! the two-allocation, sequential-plus-scattered pattern of Fig. 7's
//! cuFFT panels.

use crate::common::{chunked_steps, cost_of_flops, push_run, push_warps, warp_interleave};
use gpu_model::{GlobalPage, WorkloadTrace};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use uvm_driver::ManagedSpace;

/// Parameters of the FFT workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CufftParams {
    /// Signal buffer size in bytes (complex f32 elements = bytes / 8).
    /// Rounded up to a power-of-two page count internally.
    pub bytes: u64,
    /// Also run the inverse transform (paper evaluates both directions).
    pub inverse: bool,
    /// Pages per thread block per pass.
    pub pages_per_block: usize,
}

impl Default for CufftParams {
    fn default() -> Self {
        CufftParams {
            bytes: 128 * 1024 * 1024,
            inverse: true,
            pages_per_block: 64,
        }
    }
}

/// Bit-reverse the low `bits` bits of `i`.
fn bit_reverse(i: u64, bits: u32) -> u64 {
    i.reverse_bits() >> (64 - bits)
}

/// Generate the FFT trace, allocating `in` and `out` buffers in `space`.
pub fn generate(params: &CufftParams, space: &mut ManagedSpace) -> WorkloadTrace {
    let pages = (params.bytes.div_ceil(PAGE_SIZE)).next_power_of_two();
    let bits = pages.trailing_zeros();
    let input = space.alloc(pages * PAGE_SIZE, "in");
    let output = space.alloc(pages * PAGE_SIZE, "out");

    let n_elems = (pages * PAGE_SIZE / 8) as f64;
    let pass_flops =
        5.0 * n_elems * n_elems.log2() / (pages as f64 / params.pages_per_block as f64);

    let per_block = params.pages_per_block as u64;
    let passes = if params.inverse { 2 } else { 1 };
    let mut trace = WorkloadTrace::new("cufft", 2 * pages);
    trace.reserve(
        passes * pages.div_ceil(per_block) as usize,
        passes * 2 * chunked_steps(pages, per_block) as usize,
        passes * 2 * pages as usize,
    );
    let mut src_pages: Vec<GlobalPage> = Vec::with_capacity(params.pages_per_block);
    let mut pass = |src: &uvm_driver::VaRange, dst: &uvm_driver::VaRange| {
        for chunk_start in (0..pages).step_by(params.pages_per_block) {
            trace.begin_block(cost_of_flops(pass_flops));
            let end = (chunk_start + per_block).min(pages);
            // Sequential read of the source chunk in warp-concurrent
            // (transposed) issue order…
            src_pages.clear();
            src_pages.extend((chunk_start..end).map(|p| src.page(p)));
            warp_interleave(&mut src_pages);
            push_warps(&mut trace, &src_pages, false);
            // …then bit-reversed scattered writes of the destination.
            push_run(
                &mut trace,
                chunk_start..end,
                |p| dst.page(bit_reverse(p, bits)),
                true,
            );
        }
    };
    pass(&input, &output);
    if params.inverse {
        pass(&output, &input);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::MIB;

    fn small() -> CufftParams {
        CufftParams {
            bytes: 4 * MIB,
            inverse: true,
            pages_per_block: 64,
        }
    }

    #[test]
    fn bit_reverse_is_a_permutation() {
        let n = 1024u64;
        let mut seen: Vec<u64> = (0..n).map(|i| bit_reverse(i, 10)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(bit_reverse(1, 10), 512);
    }

    #[test]
    fn forward_and_inverse_passes() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        // 1024 pages, 64 per block, 2 passes -> 32 blocks.
        assert_eq!(t.num_blocks(), 32);
        assert_eq!(t.footprint_pages, 2048);
        // Forward-only halves the block count.
        let mut space = ManagedSpace::new();
        let fwd = generate(
            &CufftParams {
                inverse: false,
                ..small()
            },
            &mut space,
        );
        assert_eq!(fwd.num_blocks(), 16);
    }

    #[test]
    fn reads_sequential_writes_scattered() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let bt = t.block(0);
        let reads: Vec<u64> = (0..bt.num_steps())
            .flat_map(|s| {
                bt.step(s)
                    .filter(|(_, w)| !w)
                    .map(|(p, _)| p.0)
                    .collect::<Vec<_>>()
            })
            .collect();
        let writes: Vec<u64> = (0..bt.num_steps())
            .flat_map(|s| {
                bt.step(s)
                    .filter(|(_, w)| *w)
                    .map(|(p, _)| p.0)
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut sorted_reads = reads.clone();
        sorted_reads.sort_unstable();
        assert_eq!(sorted_reads, (0..64).collect::<Vec<_>>(), "input streamed");
        assert_eq!(writes.len(), 64);
        let out_base = 1024;
        assert!(writes.iter().all(|&p| p >= out_base), "writes hit `out`");
        let mut sorted = writes.clone();
        sorted.sort_unstable();
        assert_ne!(writes, sorted, "scattered order");
    }

    #[test]
    fn every_page_of_both_buffers_touched() {
        let mut space = ManagedSpace::new();
        let t = generate(&small(), &mut space);
        let mut seen = vec![false; 2048];
        for b in t.blocks() {
            for s in 0..b.num_steps() {
                for (p, _) in b.step(s) {
                    seen[p.0 as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
