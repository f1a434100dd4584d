//! Property-based tests across all eight workload generators: every
//! access stays inside a live allocation, footprints account correctly,
//! the random kernel is a true permutation, and generation is
//! deterministic.

use gpu_model::WorkloadTrace;
use proptest::prelude::*;
use sim_engine::units::MIB;
use sim_engine::SimRng;
use uvm_driver::ManagedSpace;
use workloads::{Workload, WorkloadKind};

fn kind_strategy() -> impl Strategy<Value = WorkloadKind> {
    proptest::sample::select(WorkloadKind::ALL.to_vec())
}

fn every_access(trace: &WorkloadTrace) -> impl Iterator<Item = (u64, bool)> + '_ {
    trace.blocks().flat_map(|b| {
        (0..b.num_steps()).flat_map(move |s| b.step(s).map(|(p, w)| (p.0, w)).collect::<Vec<_>>())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accesses_stay_inside_allocations(
        kind in kind_strategy(),
        mib in 16u64..96,
        seed in any::<u64>(),
    ) {
        let w = Workload::with_footprint(kind, mib * MIB);
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(seed);
        let trace = w.generate(&mut space, &mut rng);
        for (page, _) in every_access(&trace) {
            prop_assert!(
                space.is_valid(gpu_model::GlobalPage(page)),
                "{}: page {} outside any allocation", w.name(), page
            );
        }
    }

    #[test]
    fn footprint_pages_matches_allocations(
        kind in kind_strategy(),
        mib in 16u64..96,
    ) {
        let w = Workload::with_footprint(kind, mib * MIB);
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(1);
        let trace = w.generate(&mut space, &mut rng);
        let allocated: u64 = space.ranges().iter().map(|r| r.num_pages).sum();
        prop_assert_eq!(trace.footprint_pages, allocated);
        prop_assert!(trace.total_accesses() > 0);
        prop_assert!(trace.total_steps() > 0);
    }

    #[test]
    fn generation_is_deterministic(
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let w = Workload::with_footprint(kind, 32 * MIB);
        let gen = || {
            let mut space = ManagedSpace::new();
            let mut rng = SimRng::from_seed(seed);
            let t = w.generate(&mut space, &mut rng);
            every_access(&t).collect::<Vec<_>>()
        };
        prop_assert_eq!(gen(), gen());
    }

    #[test]
    fn random_kernel_is_a_permutation(mib in 4u64..64, seed in any::<u64>()) {
        let w = Workload::with_footprint(WorkloadKind::Random, mib * MIB);
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(seed);
        let trace = w.generate(&mut space, &mut rng);
        let mut pages: Vec<u64> = every_access(&trace).map(|(p, _)| p).collect();
        pages.sort_unstable();
        let expect: Vec<u64> = (0..trace.footprint_pages).collect();
        prop_assert_eq!(pages, expect);
    }

    #[test]
    fn regular_kernel_touches_each_page_once(mib in 4u64..64) {
        let w = Workload::with_footprint(WorkloadKind::Regular, mib * MIB);
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(0);
        let trace = w.generate(&mut space, &mut rng);
        let mut pages: Vec<u64> = every_access(&trace).map(|(p, _)| p).collect();
        prop_assert_eq!(pages.len() as u64, trace.footprint_pages);
        pages.sort_unstable();
        pages.dedup();
        prop_assert_eq!(pages.len() as u64, trace.footprint_pages);
    }

    #[test]
    fn stream_writes_only_vector_a(mib in 6u64..48) {
        let w = Workload::with_footprint(WorkloadKind::Stream, mib * MIB);
        let mut space = ManagedSpace::new();
        let mut rng = SimRng::from_seed(0);
        let trace = w.generate(&mut space, &mut rng);
        let a = space.ranges()[0].clone();
        for (page, write) in every_access(&trace) {
            let in_a = (a.start_page..a.end_page()).contains(&page);
            prop_assert_eq!(write, in_a, "writes iff in vector a");
        }
    }

    #[test]
    fn footprint_request_is_roughly_honoured(kind in kind_strategy(), mib in 32u64..128) {
        let w = Workload::with_footprint(kind, mib * MIB);
        let ratio = w.footprint_bytes() as f64 / (mib * MIB) as f64;
        prop_assert!(
            (0.3..1.7).contains(&ratio),
            "{}: footprint ratio {:.2}", w.name(), ratio
        );
    }
}
