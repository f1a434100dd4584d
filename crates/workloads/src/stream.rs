//! GPU-STREAM triad (`a[i] = b[i] + s * c[i]`) — the paper evaluates the
//! triad-only configuration of Deakin et al.'s GPU-STREAM.
//!
//! The three-vector lockstep enforces a page-access *dependency*: each
//! thread block touches the same offset of `a`, `b`, and `c` together,
//! which the paper notes imposes a much stricter fault ordering than the
//! regular kernel (§IV-B).

use crate::common::cost_of_bytes;
use gpu_model::WorkloadTrace;
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use uvm_driver::ManagedSpace;

/// Parameters of the STREAM triad kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamParams {
    /// Size of each of the three vectors in bytes.
    pub bytes_per_vector: u64,
}

impl Default for StreamParams {
    fn default() -> Self {
        StreamParams {
            bytes_per_vector: 85 * 1024 * 1024,
        }
    }
}

/// Thread blocks sharing each page-triple. A 256-thread f32 triad block
/// covers 1 KB per vector, so four consecutive blocks touch the same
/// 4 KB page — from four different SMs/µTLBs, which is what generates
/// stream's duplicate faults in the paper's Table I.
pub const BLOCKS_PER_PAGE: u64 = 4;

/// Generate the triad trace, allocating vectors `a`, `b`, `c` in `space`.
pub fn generate(params: &StreamParams, space: &mut ManagedSpace) -> WorkloadTrace {
    let a = space.alloc(params.bytes_per_vector, "a");
    let b = space.alloc(params.bytes_per_vector, "b");
    let c = space.alloc(params.bytes_per_vector, "c");
    let pages = a.num_pages;
    // BLOCKS_PER_PAGE consecutive blocks share page i: each reads page i
    // of `b` and `c` concurrently and writes page i of `a`.
    let step_cost = cost_of_bytes((3 * PAGE_SIZE) as f64) / BLOCKS_PER_PAGE;
    let blocks = pages * BLOCKS_PER_PAGE;
    let mut trace = WorkloadTrace::new("stream", 3 * pages);
    trace.reserve(blocks as usize, blocks as usize, 3 * blocks as usize);
    for blk in 0..blocks {
        let i = blk / BLOCKS_PER_PAGE;
        trace.begin_block(step_cost);
        trace.push_step_mixed([(b.page(i), false), (c.page(i), false), (a.page(i), true)]);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::MIB;

    #[test]
    fn lockstep_triples() {
        let mut space = ManagedSpace::new();
        let t = generate(
            &StreamParams {
                bytes_per_vector: 2 * MIB,
            },
            &mut space,
        );
        assert_eq!(t.footprint_pages, 3 * 512);
        assert_eq!(t.num_blocks(), 512 * BLOCKS_PER_PAGE as usize);
        // Blocks 4i..4i+4 touch page i of each vector; `a` written.
        let step: Vec<_> = t.block(7 * BLOCKS_PER_PAGE as usize).step(0).collect();
        assert_eq!(step.len(), 3);
        let (pages, writes): (Vec<u64>, Vec<bool>) = step.iter().map(|(p, w)| (p.0, *w)).unzip();
        assert_eq!(pages, vec![512 + 7, 1024 + 7, 7]);
        assert_eq!(writes, vec![false, false, true]);
    }

    #[test]
    fn three_ranges_allocated() {
        let mut space = ManagedSpace::new();
        generate(&StreamParams::default(), &mut space);
        let names: Vec<&str> = space.ranges().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
