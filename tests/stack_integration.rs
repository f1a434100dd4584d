//! Cross-crate integration tests exercising the public API end to end:
//! manual driver/engine wiring, policy extensions, serde round-trips, and
//! failure-injection scenarios that span module boundaries.

use gpu_model::{
    FaultBuffer, FaultBufferConfig, GlobalPage, GpuConfig, GpuEngine, PageMask, Residency,
    VaBlockIdx, WorkloadTrace,
};
use sim_engine::units::{MIB, VABLOCK_SIZE};
use sim_engine::{CostModel, SimDuration, SimRng, SimTime};
use uvm_driver::{
    DriverConfig, EvictionPolicy, ManagedSpace, PrefetchPolicy, ReplayPolicy, UvmDriver,
};
use uvm_sim::{run, SimConfig, Workload, WorkloadKind};
use workloads::{RandomParams, RegularParams};

/// Drive a custom trace through engine + driver by hand (the same loop
/// `uvm_sim::run` uses) and return the driver afterwards.
fn drive_to_completion(
    mut space_setup: impl FnMut(&mut ManagedSpace) -> WorkloadTrace,
    driver_cfg: DriverConfig,
    gpu_cfg: GpuConfig,
) -> (UvmDriver, GpuEngine) {
    let mut space = ManagedSpace::new();
    let trace = space_setup(&mut space);
    let mut driver = UvmDriver::new(
        driver_cfg,
        CostModel::default(),
        space,
        SimRng::from_seed(3),
    );
    let mut engine = GpuEngine::launch(gpu_cfg, trace, SimRng::from_seed(4));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut clock = SimTime::ZERO;
    for _ in 0..100_000 {
        engine.run(driver.space(), &mut buffer, clock);
        if engine.is_done() {
            return (driver, engine);
        }
        loop {
            let pass = driver.process_pass(&mut buffer, clock);
            clock += pass.time;
            if pass.replays > 0 {
                break;
            }
        }
        engine.replay();
    }
    panic!("trace did not complete");
}

#[test]
fn manual_wiring_matches_residency_expectations() {
    let (driver, engine) = drive_to_completion(
        |space| {
            let range = space.alloc(4 * VABLOCK_SIZE, "buf");
            let mut trace = WorkloadTrace::new("manual", range.num_pages);
            trace.begin_block(SimDuration::ZERO);
            for p in [0u64, 700, 1500, 2047] {
                trace.push_step([range.page(p)], true);
            }
            trace
        },
        DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        },
        GpuConfig::default(),
    );
    assert!(engine.is_done());
    // Exactly the touched pages are resident, and all are dirty (writes).
    assert_eq!(driver.space().resident_pages(), 4);
    for p in [0u64, 700, 1500, 2047] {
        assert!(driver.space().is_resident(GlobalPage(p)));
        let vb = GlobalPage(p).vablock();
        assert!(driver
            .space()
            .dirty(vb)
            .get(GlobalPage(p).offset_in_vablock()));
    }
    assert_eq!(driver.counters().pages_faulted_in, 4);
}

#[test]
fn fault_buffer_overflow_recovers_via_replay() {
    // A tiny fault buffer forces drops; the replay path must still drain
    // the whole workload.
    let mut cfg = SimConfig::default();
    cfg.driver.gpu_memory_bytes = 64 * MIB;
    cfg.fault_buffer.capacity = 64; // far below the fault storm size
    let w = Workload::Regular(RegularParams {
        bytes: 16 * MIB,
        warps_per_block: 8,
    });
    let r = run(&cfg, &w);
    assert!(
        r.engine.faults_dropped > 0,
        "the storm must overflow the buffer"
    );
    assert_eq!(
        r.counters.pages_migrated_h2d(),
        4096,
        "yet every page arrives"
    );
}

#[test]
fn utlb_throttling_bounds_outstanding_faults() {
    let mut cfg = SimConfig::default();
    cfg.driver.gpu_memory_bytes = 64 * MIB;
    cfg.gpu.max_outstanding_per_utlb = 2;
    cfg.gpu.num_utlbs = 4;
    let w = Workload::Random(RandomParams {
        bytes: 8 * MIB,
        warps_per_block: 8,
    });
    let r = run(&cfg, &w);
    assert!(r.engine.faults_throttled > 0, "tight uTLBs must throttle");
    assert_eq!(
        r.counters.pages_migrated_h2d(),
        2048,
        "completion unaffected"
    );
}

#[test]
fn access_counter_eviction_protects_hot_blocks_end_to_end() {
    // A workload with one hot VABlock (re-read every step) plus a cold
    // stream: stock fault-LRU evicts the hot block (the paper's
    // pathology); access-counter aging keeps it resident longer, so the
    // hot block refaults fewer times.
    let build = |space: &mut ManagedSpace| {
        let hot = space.alloc(VABLOCK_SIZE, "hot");
        let cold = space.alloc(8 * VABLOCK_SIZE, "cold");
        let mut trace = WorkloadTrace::new("hot-cold", hot.num_pages + cold.num_pages);
        for i in 0..cold.num_pages {
            trace.begin_block(SimDuration::ZERO);
            trace.push_step_mixed([(hot.page(i % 512), false), (cold.page(i), false)]);
        }
        trace
    };
    let run_with = |eviction: EvictionPolicy| {
        let mut space = ManagedSpace::new();
        let trace = build(&mut space);
        let driver_cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            eviction,
            gpu_memory_bytes: 3 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let gpu_cfg = GpuConfig {
            access_counters: gpu_model::AccessCounterConfig {
                enabled: matches!(eviction, EvictionPolicy::AccessCounterLru),
                threshold: 1, // notify on every access for a crisp signal
                ..gpu_model::AccessCounterConfig::default()
            },
            max_blocks_resident: 16,
            ..GpuConfig::default()
        };
        let mut driver = UvmDriver::new(
            driver_cfg,
            CostModel::default(),
            space,
            SimRng::from_seed(3),
        );
        let mut engine = GpuEngine::launch(gpu_cfg, trace, SimRng::from_seed(4));
        let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = SimTime::ZERO;
        while !engine.is_done() {
            engine.run(driver.space(), &mut buffer, clock);
            if engine.is_done() {
                break;
            }
            let notifs = engine.drain_access_notifications();
            driver.note_access_notifications(&notifs, 512, clock);
            loop {
                let pass = driver.process_pass(&mut buffer, clock);
                clock += pass.time;
                if pass.replays > 0 {
                    break;
                }
            }
            engine.replay();
        }
        driver.space().eviction_count(VaBlockIdx(0))
    };
    let stock = run_with(EvictionPolicy::FaultLru);
    let counter = run_with(EvictionPolicy::AccessCounterLru);
    assert!(
        counter < stock,
        "access counters must reduce hot-block evictions: {counter} vs {stock}"
    );
}

#[test]
fn thrash_pinning_protects_faultless_hot_data() {
    // The hot/cold scenario where refault pinning binds: a hot VABlock is
    // read constantly but faults only after being evicted (fault-blind
    // hotness). Stock LRU evicts it over and over; the thrashing detector
    // pins it after its first refault, so later evictions fall on the
    // cold stream.
    let build = |space: &mut ManagedSpace| {
        let hot = space.alloc(VABLOCK_SIZE, "hot");
        let cold = space.alloc(16 * VABLOCK_SIZE, "cold");
        let mut trace = WorkloadTrace::new("hot-cold", hot.num_pages + cold.num_pages);
        for i in 0..cold.num_pages {
            trace.begin_block(SimDuration::ZERO);
            trace.push_step_mixed([(hot.page(i % 512), false), (cold.page(i), false)]);
        }
        trace
    };
    let run_with = |thrash: uvm_driver::ThrashConfig| {
        let mut space = ManagedSpace::new();
        let trace = build(&mut space);
        let driver_cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 3 * VABLOCK_SIZE,
            thrash,
            ..DriverConfig::default()
        };
        let gpu_cfg = GpuConfig {
            max_blocks_resident: 16,
            ..GpuConfig::default()
        };
        let mut driver = UvmDriver::new(
            driver_cfg,
            CostModel::default(),
            space,
            SimRng::from_seed(3),
        );
        let mut engine = GpuEngine::launch(gpu_cfg, trace, SimRng::from_seed(4));
        let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = SimTime::ZERO;
        while !engine.is_done() {
            engine.run(driver.space(), &mut buffer, clock);
            if engine.is_done() {
                break;
            }
            loop {
                let pass = driver.process_pass(&mut buffer, clock);
                clock += pass.time;
                if pass.replays > 0 {
                    break;
                }
            }
            engine.replay();
        }
        (
            driver.space().eviction_count(VaBlockIdx(0)),
            driver.counters().thrash_pins,
        )
    };
    let (stock_evictions, stock_pins) = run_with(uvm_driver::ThrashConfig::default());
    assert_eq!(stock_pins, 0);
    let (pinned_evictions, pins) = run_with(uvm_driver::ThrashConfig {
        enabled: true,
        refault_threshold: 1,
        pin_duration_batches: 100_000,
    });
    assert!(pins > 0);
    assert!(
        pinned_evictions < stock_evictions,
        "pinning must reduce hot-block evictions: {pinned_evictions} vs {stock_evictions}"
    );
}

#[test]
fn adaptive_prefetch_switches_modes_end_to_end() {
    let mk = |footprint_mib: u64| {
        let mut cfg = SimConfig::default();
        cfg.driver.gpu_memory_bytes = 32 * MIB;
        cfg.driver.prefetch = PrefetchPolicy::Adaptive {
            undersubscribed_threshold: 1,
        };
        let w = Workload::Regular(RegularParams {
            bytes: footprint_mib * MIB,
            warps_per_block: 8,
        });
        run(&cfg, &w)
    };
    let under = mk(16);
    let over = mk(48);
    assert!(
        under.counters.pages_prefetched > 0,
        "aggressive prefetching when the footprint fits"
    );
    assert_eq!(
        over.counters.pages_prefetched, 0,
        "prefetching disabled once oversubscribed"
    );
}

#[test]
fn report_serde_roundtrip() {
    let mut cfg = SimConfig::default();
    cfg.driver.gpu_memory_bytes = 32 * MIB;
    cfg.driver.trace_capacity = Some(metrics::DEFAULT_TRACE_CAPACITY);
    let w = Workload::with_footprint(WorkloadKind::Stream, 8 * MIB);
    let r = run(&cfg, &w);
    let json = serde_json::to_string(&r).unwrap();
    let back: uvm_sim::SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.total_time, r.total_time);
    assert_eq!(back.counters, r.counters);
    assert_eq!(back.trace.len(), r.trace.len());
    // Configs round-trip too.
    let cfg_json = serde_json::to_string(&cfg).unwrap();
    let cfg_back: SimConfig = serde_json::from_str(&cfg_json).unwrap();
    assert_eq!(cfg_back, cfg);
}

#[test]
fn replay_policies_agree_on_final_state() {
    let policies = [
        ReplayPolicy::Block,
        ReplayPolicy::Batch,
        ReplayPolicy::BatchFlush,
        ReplayPolicy::Once,
    ];
    let mut residents = Vec::new();
    for p in policies {
        let mut cfg = SimConfig::default();
        cfg.driver.gpu_memory_bytes = 64 * MIB;
        cfg.driver.replay_policy = p;
        let w = Workload::with_footprint(WorkloadKind::Cufft, 16 * MIB);
        let r = run(&cfg, &w);
        residents.push(r.counters.pages_migrated_h2d());
    }
    assert!(
        residents.windows(2).all(|w| w[0] == w[1]),
        "all policies migrate the same pages: {residents:?}"
    );
}

#[test]
fn managed_space_is_the_single_residency_oracle() {
    // The engine's Residency view and the driver's bookkeeping are the
    // same object: what the driver marks resident, the engine hits.
    let mut space = ManagedSpace::new();
    let range = space.alloc(VABLOCK_SIZE, "x");
    let mut mask = PageMask::EMPTY;
    mask.set(range.page(17).offset_in_vablock());
    space.set_resident(VaBlockIdx(0), mask);
    assert!(space.is_resident(range.page(17)));
    assert!(!space.is_resident(range.page(18)));
}
