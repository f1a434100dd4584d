//! Whole-stack property tests: conservation laws and determinism of
//! complete simulations across random configurations.

use proptest::prelude::*;
use sim_engine::units::MIB;
use uvm_sim::{
    run, EvictionPolicy, PrefetchPolicy, ReplayPolicy, SimConfig, Workload, WorkloadKind,
};
use workloads::RegularParams;

fn small_config(mem_mib: u64) -> SimConfig {
    let mut c = SimConfig::default();
    c.driver.gpu_memory_bytes = mem_mib * MIB;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn undersubscribed_migration_is_exact(
        mib in 4u64..32,
        prefetch_on in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // GPU memory is always larger than the footprint: no evictions,
        // and every touched page migrates exactly once.
        let mut cfg = small_config(64).with_seed(seed);
        if !prefetch_on {
            cfg.driver.prefetch = PrefetchPolicy::Disabled;
        }
        let w = Workload::Regular(RegularParams {
            bytes: mib * MIB,
            warps_per_block: 8,
        });
        let r = run(&cfg, &w);
        prop_assert_eq!(r.counters.evictions, 0);
        prop_assert_eq!(r.counters.pages_migrated_h2d(), mib * MIB / 4096);
        prop_assert_eq!(r.transfers.h2d_bytes, mib * MIB);
        prop_assert_eq!(r.transfers.d2h_bytes, 0, "read-only: nothing written back");
        prop_assert!(r.driver_time > sim_engine::SimDuration::ZERO);
    }

    #[test]
    fn replay_policy_never_changes_migration_totals(
        mib in 4u64..24,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            ReplayPolicy::Block,
            ReplayPolicy::Batch,
            ReplayPolicy::BatchFlush,
            ReplayPolicy::Once,
        ][policy_idx];
        let mut cfg = small_config(64);
        cfg.driver.replay_policy = policy;
        cfg.driver.prefetch = PrefetchPolicy::Disabled;
        let w = Workload::Regular(RegularParams {
            bytes: mib * MIB,
            warps_per_block: 8,
        });
        let r = run(&cfg, &w);
        // Whatever the policy costs, correctness is invariant.
        prop_assert_eq!(r.counters.pages_migrated_h2d(), mib * MIB / 4096);
        prop_assert_eq!(r.counters.evictions, 0);
    }

    #[test]
    fn oversubscribed_runs_conserve_pages(
        kind_idx in 0usize..2,
        ratio_pct in 110u64..160,
        seed in any::<u64>(),
    ) {
        let kind = [WorkloadKind::Regular, WorkloadKind::Random][kind_idx];
        let gpu_mib = 24u64;
        let cfg = small_config(gpu_mib).with_seed(seed);
        let w = Workload::with_footprint(kind, gpu_mib * MIB * ratio_pct / 100);
        let footprint_pages = w.footprint_bytes() / 4096;
        let r = run(&cfg, &w);
        prop_assert!(r.counters.evictions > 0, "oversubscription must evict");
        // Migrations at least cover the footprint; thrash only adds.
        prop_assert!(r.counters.pages_migrated_h2d() >= footprint_pages);
        // Pages evicted can never exceed pages migrated in.
        prop_assert!(r.counters.pages_evicted_total() <= r.counters.pages_migrated_h2d());
        // Resident data never exceeds GPU memory.
        prop_assert!(r.transfers.h2d_bytes >= w.footprint_bytes());
    }

    #[test]
    fn whole_stack_is_deterministic(
        kind_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        let kind = WorkloadKind::ALL[kind_idx];
        let cfg = small_config(48).with_seed(seed);
        let w = Workload::with_footprint(kind, 24 * MIB);
        let a = run(&cfg, &w);
        let b = run(&cfg, &w);
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.engine, b.engine);
        prop_assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn attribution_partitions_conserve(
        kind_idx in 0usize..8,
        ratio_pct in 60u64..160,
        prefetch_on in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The provenance ledger is a *partition*: per-cause fault counts
        // must sum to the driver's fault total, and per-cause byte counts
        // to the transfer log — under every workload shape, subscription
        // ratio, and prefetch setting.
        let kind = WorkloadKind::ALL[kind_idx];
        let gpu_mib = 24u64;
        let mut cfg = small_config(gpu_mib).with_seed(seed);
        if !prefetch_on {
            cfg.driver.prefetch = PrefetchPolicy::Disabled;
        }
        let w = Workload::with_footprint(kind, gpu_mib * MIB * ratio_pct / 100);
        let r = run(&cfg, &w);
        if let Err((eq, lhs, rhs)) =
            r.attribution
                .reconcile(&r.counters, r.transfers.h2d_bytes, r.transfers.d2h_bytes)
        {
            prop_assert!(false, "attribution violates `{}`: {} != {}", eq, lhs, rhs);
        }
        // Offender badness must be backed by the ledger's refault and
        // prefetch-evicted totals.
        let badness: u64 = r.top_offenders.iter().map(|o| o.stats.badness()).sum();
        let refaults = r.attribution.refault_used_faults + r.attribution.refault_unused_faults;
        prop_assert!(badness <= refaults + r.attribution.prefetch_evicted_pages);
    }

    #[test]
    fn every_eviction_policy_conserves_pages(
        kind_idx in 0usize..8,
        policy_idx in 0usize..4,
        ratio_pct in 110u64..180,
        seed in any::<u64>(),
    ) {
        // Eviction conservation under every policy: whatever victims the
        // policy picks, pages out are bounded by pages in, residency
        // never exceeds capacity, the freed total covers the footprint's
        // shortfall, and the provenance ledger still partitions exactly.
        let kind = WorkloadKind::ALL[kind_idx];
        let policy = EvictionPolicy::ALL[policy_idx];
        let gpu_mib = 24u64;
        let cfg = small_config(gpu_mib).with_seed(seed).with_eviction(policy);
        let w = Workload::with_footprint(kind, gpu_mib * MIB * ratio_pct / 100);
        let r = run(&cfg, &w);
        let capacity_pages = gpu_mib * MIB / 4096;
        let footprint_pages = r.footprint_bytes / 4096;
        prop_assert!(r.counters.pages_evicted_total() <= r.counters.pages_migrated_h2d());
        // Residency = in − out can never exceed GPU memory.
        prop_assert!(
            r.counters.pages_migrated_h2d() - r.counters.pages_evicted_total()
                <= capacity_pages
        );
        // Footprints snap to tile/power-of-two constraints, so gate the
        // oversubscription laws on the *realised* footprint.
        if footprint_pages > capacity_pages {
            prop_assert!(
                r.counters.evictions > 0,
                "{} must evict when oversubscribed", policy.label()
            );
            // Every page beyond capacity must have displaced another:
            // pages freed cover at least the footprint's shortfall.
            prop_assert!(
                r.counters.pages_evicted_total() >= footprint_pages - capacity_pages,
                "{}: freed {} pages < shortfall {}",
                policy.label(),
                r.counters.pages_evicted_total(),
                footprint_pages - capacity_pages
            );
        }
        if let Err((eq, lhs, rhs)) =
            r.attribution
                .reconcile(&r.counters, r.transfers.h2d_bytes, r.transfers.d2h_bytes)
        {
            prop_assert!(
                false,
                "{} violates attribution `{}`: {} != {}", policy.label(), eq, lhs, rhs
            );
        }
    }

    #[test]
    fn faults_bounded_by_accesses(
        kind_idx in 0usize..8,
        mib in 12u64..48,
    ) {
        let kind = WorkloadKind::ALL[kind_idx];
        let cfg = small_config(64);
        let w = Workload::with_footprint(kind, mib * MIB);
        let r = run(&cfg, &w);
        // The driver can never see more faults than the GPU raised.
        prop_assert!(r.total_faults() <= r.engine.faults_raised);
        prop_assert!(r.engine.faults_raised <= r.engine.faults_raised + r.engine.faults_coalesced);
        // Duplicates are a subset of fetched faults.
        prop_assert!(r.counters.duplicate_faults <= r.counters.faults_fetched);
    }
}
