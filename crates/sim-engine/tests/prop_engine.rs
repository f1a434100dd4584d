//! Property-based tests for the simulation substrate: time arithmetic,
//! RNG laws, and cost-model monotonicity.

use proptest::prelude::*;
use sim_engine::{CostModel, CostModelConfig, SimDuration, SimRng, SimTime};

proptest! {
    #[test]
    fn duration_addition_is_associative_and_commutative(
        a in 0u64..u64::MAX / 4,
        b in 0u64..u64::MAX / 4,
        c in 0u64..u64::MAX / 4,
    ) {
        let (da, db, dc) = (
            SimDuration::from_nanos(a),
            SimDuration::from_nanos(b),
            SimDuration::from_nanos(c),
        );
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db) + dc, da + (db + dc));
    }

    #[test]
    fn time_plus_duration_roundtrips(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let start = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        let end = start + dur;
        prop_assert_eq!(end - start, dur);
        prop_assert_eq!(end.saturating_since(start), dur);
        prop_assert_eq!(start.saturating_since(end), SimDuration::ZERO);
    }

    #[test]
    fn rng_shuffle_is_permutation(seed in any::<u64>(), n in 1usize..500) {
        let mut rng = SimRng::from_seed(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let parent = SimRng::from_seed(seed);
        let mut a = parent.derive(stream);
        let mut b = parent.derive(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn transfer_cost_is_monotone_in_bytes(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let m = CostModel::default();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(m.h2d_transfer(lo) <= m.h2d_transfer(hi));
        prop_assert!(m.d2h_transfer(lo) <= m.d2h_transfer(hi));
        prop_assert!(m.explicit_transfer(lo) <= m.explicit_transfer(hi));
    }

    #[test]
    fn per_page_costs_are_linear(pages in 0u64..100_000) {
        let m = CostModel::default();
        let map_one = m.map_pages(1) - m.map_pages(0);
        prop_assert_eq!(m.map_pages(pages), m.map_pages(0) + map_one * pages);
        prop_assert_eq!(m.staging(pages), m.staging(1) * pages);
        prop_assert_eq!(m.page_zero(pages), m.page_zero(1) * pages);
        prop_assert_eq!(m.unmap_pages(pages), m.unmap_pages(1) * pages);
    }

    #[test]
    fn bandwidth_config_scales_wire_time(gbps in 1.0f64..100.0) {
        let cfg = CostModelConfig {
            h2d_bandwidth_gbps: gbps,
            ..CostModelConfig::default()
        };
        let m = CostModel::new(cfg);
        let t = m.h2d_wire(1_000_000_000);
        let expect_ns = 1_000_000_000.0 / gbps;
        let err = (t.as_nanos() as f64 - expect_ns).abs() / expect_ns;
        prop_assert!(err < 1e-6, "wire time {} vs expected {}", t.as_nanos(), expect_ns);
    }
}
