//! The paper's "random access" synthetic kernel (§III-C): each thread
//! touches a single, random, **unique** page of the buffer — a random
//! permutation of the page space.

use crate::common::{blocks_of_pages, cost_of_bytes, WARP_SIZE};
use gpu_model::{GlobalPage, WorkloadTrace};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use sim_engine::SimRng;
use uvm_driver::ManagedSpace;

/// Parameters of the random page-touch kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomParams {
    /// Total buffer size in bytes.
    pub bytes: u64,
    /// Warps per thread block.
    pub warps_per_block: usize,
}

impl Default for RandomParams {
    fn default() -> Self {
        RandomParams {
            bytes: 256 * 1024 * 1024,
            warps_per_block: 8,
        }
    }
}

/// Generate the random-access trace, allocating its buffer in `space`.
pub fn generate(
    params: &RandomParams,
    space: &mut ManagedSpace,
    rng: &mut SimRng,
) -> WorkloadTrace {
    let range = space.alloc(params.bytes, "data");
    let mut pages: Vec<GlobalPage> = (0..range.num_pages).map(|i| range.page(i)).collect();
    rng.shuffle(&mut pages);
    let step_cost = cost_of_bytes((WARP_SIZE as u64 * PAGE_SIZE) as f64);
    let mut trace = WorkloadTrace::new("random", range.num_pages);
    blocks_of_pages(&mut trace, &pages, params.warps_per_block, step_cost, false);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::MIB;

    #[test]
    fn permutation_covers_every_page_once() {
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(3);
        let t = generate(
            &RandomParams {
                bytes: 4 * MIB,
                warps_per_block: 8,
            },
            &mut space,
            &mut rng,
        );
        let mut seen: Vec<u64> = t
            .blocks()
            .flat_map(|b| (0..b.num_steps()).flat_map(move |s| b.step(s).map(|(p, _)| p.0)))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1024).collect::<Vec<u64>>());
    }

    #[test]
    fn order_is_shuffled_but_deterministic() {
        let gen = |seed| {
            let mut space = ManagedSpace::new();
            let mut rng = SimRng::from_seed(seed);
            let t = generate(&RandomParams::default(), &mut space, &mut rng);
            t.block(0).step(0).map(|(p, _)| p.0).collect::<Vec<_>>()
        };
        assert_eq!(gen(1), gen(1));
        assert_ne!(gen(1), gen(2));
        assert_ne!(gen(1), (0..32).collect::<Vec<u64>>(), "not sequential");
    }
}
