//! Proof that steady-state batch pre-processing is allocation-free: after
//! one warm-up pass sizes the arena, `gather_into` must not touch the
//! heap again. A counting global allocator makes the claim checkable
//! instead of aspirational — if someone reintroduces a per-batch map or
//! a `collect()`, this test fails with the allocation count.
//!
//! The count is per thread: sibling tests running in parallel cannot
//! pollute a window. That is sound because the driver, the batch
//! pre-processing and the engine do all their work on the calling
//! thread.

use gpu_model::{AccessType, FaultBuffer, FaultBufferConfig, FaultEntry, GlobalPage};
use sim_engine::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uvm_driver::batch::{gather_into, BatchArena};
use uvm_driver::ManagedSpace;

/// Passes allocations through to the system allocator, counting them
/// per thread.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: touching it never
    // allocates, so the allocator can count through it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A full batch of faults shaped like the thrash steady state: many
/// VABlocks, unsorted arrival order, duplicates across µTLBs.
fn fill_buffer(buffer: &mut FaultBuffer, batch: u64) {
    for i in 0..256u64 {
        let page = (i * 193 + batch * 7) % 4096;
        buffer.push(FaultEntry {
            page: GlobalPage(page),
            access: if i % 3 == 0 {
                AccessType::Write
            } else {
                AccessType::Read
            },
            timestamp: SimTime::ZERO + SimDuration::from_nanos(batch * 1000 + i),
            utlb: (i % 80) as u32,
        });
    }
}

#[test]
fn steady_state_batch_preprocessing_does_not_allocate() {
    let mut space = ManagedSpace::new();
    space.alloc(4096 * 4096, "alloc-free");
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut arena = BatchArena::default();

    // Warm-up: the first gathers size the arena's entry and group vectors.
    for batch in 0..4 {
        fill_buffer(&mut buffer, batch);
        gather_into(
            &mut buffer,
            256,
            SimTime::ZERO + SimDuration::from_millis(batch + 1),
            &mut space,
            &mut arena,
        );
        assert!(!arena.batch.groups.is_empty(), "warm-up produced no groups");
    }

    // Steady state: zero heap allocations over many batches. One-time
    // lazy-init allocations on this thread can still land in a window;
    // retry a few windows and accept the cleanest. A *per-batch*
    // allocation in `gather_into` repeats in every window and still
    // fails.
    let mut cleanest = u64::MAX;
    for attempt in 0..10u64 {
        let before = allocs();
        for batch in 0..60 {
            fill_buffer(&mut buffer, 4 + attempt * 60 + batch);
            gather_into(
                &mut buffer,
                256,
                SimTime::ZERO + SimDuration::from_millis(batch + 1),
                &mut space,
                &mut arena,
            );
            assert!(!arena.batch.groups.is_empty());
        }
        let after = allocs();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state gather_into allocated {cleanest} times in every window"
    );
}

/// The same claim for the whole service path: once the arena is sized, a
/// full pass — gather, then the ordered service walk with evictions —
/// must not touch the heap.
#[test]
fn steady_state_service_does_not_allocate() {
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, UvmDriver};

    let cfg = DriverConfig {
        gpu_memory_bytes: 4 * VABLOCK_SIZE,
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(16 * VABLOCK_SIZE, "svc");
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let clock = SimTime::ZERO + SimDuration::from_millis(1);

    // 12 faulting blocks per pass, 3× the GPU's capacity, so evictions
    // churn every pass — the thrash steady state.
    let fill = |buffer: &mut FaultBuffer, round: u64| {
        for b in 0..12u64 {
            buffer.push(FaultEntry {
                page: GlobalPage(b * 512 + (round * 13) % 512),
                access: if b % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                timestamp: SimTime::ZERO,
                utlb: (b % 4) as u32,
            });
        }
    };

    for round in 0..16u64 {
        fill(&mut buffer, round);
        driver.process_pass(&mut buffer, clock);
    }

    let mut cleanest = u64::MAX;
    for attempt in 0..10u64 {
        let before = allocs();
        for round in 0..40u64 {
            fill(&mut buffer, 16 + attempt * 40 + round);
            let fetched = driver.counters().faults_fetched;
            driver.process_pass(&mut buffer, clock);
            assert!(driver.counters().faults_fetched > fetched);
        }
        let after = allocs();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state service allocated {cleanest} times in every window"
    );
    assert!(driver.counters().evictions > 0, "the scenario must thrash");
    // The provenance ledger rode along through every one of those passes
    // (fixed-size counters + preallocated per-block stats), so a thrashing
    // steady state proves the attribution path is allocation-free too —
    // and the ledger it built must be a real one: refaults observed and
    // every partition equation intact.
    let a = driver.attribution();
    assert!(
        a.refault_used_faults + a.refault_unused_faults > 0,
        "thrash must produce refaults"
    );
    a.reconcile(
        driver.counters(),
        driver.transfer_log().h2d_bytes,
        driver.transfer_log().d2h_bytes,
    )
    .expect("attribution reconciles after the allocation-free window");
}

/// The hint path shares the fault path's backing, migration and mapping,
/// so it is allocation-free too: two 8-block regions ping-pong through an
/// 8-block GPU, and every `prefetch_range` evicts the other region's
/// blocks to back its own.
#[test]
fn steady_state_prefetch_hints_do_not_allocate() {
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, PrefetchPolicy, UvmDriver, VaRange};

    let cfg = DriverConfig {
        prefetch: PrefetchPolicy::Disabled,
        gpu_memory_bytes: 8 * VABLOCK_SIZE,
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    let range = space.alloc(16 * VABLOCK_SIZE, "hints");
    let half = range.num_pages / 2;
    let a = VaRange {
        name: "a".into(),
        start_page: range.start_page,
        num_pages: half,
    };
    let b = VaRange {
        name: "b".into(),
        start_page: range.start_page + half,
        num_pages: half,
    };
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut clock = SimTime::ZERO + SimDuration::from_millis(1);

    for _ in 0..4 {
        clock += driver.prefetch_range(&a, clock);
        clock += driver.prefetch_range(&b, clock);
    }

    let mut cleanest = u64::MAX;
    for _ in 0..10u64 {
        let before = allocs();
        for _ in 0..40 {
            clock += driver.prefetch_range(&a, clock);
            clock += driver.prefetch_range(&b, clock);
        }
        let after = allocs();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state prefetch hints allocated {cleanest} times in every window"
    );
    let c = driver.counters();
    assert!(c.evictions > 0, "the ping-pong must evict");
    assert!(c.pages_hint_prefetched > 2 * range.num_pages);
}

/// Steady-state telemetry sampling is allocation-free: the sample buffer
/// is preallocated at its capacity and compaction is in place, so a
/// driver with the timeseries armed — sampling on (almost) every pass,
/// including through multiple buffer compactions — allocates exactly as
/// much as one with it off: nothing.
#[test]
fn steady_state_sampling_does_not_allocate() {
    use metrics::TimeseriesConfig;
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, UvmDriver};

    let cfg = DriverConfig {
        gpu_memory_bytes: 4 * VABLOCK_SIZE,
        timeseries: Some(TimeseriesConfig {
            // A 1 ns grid makes every pass due; capacity 32 forces a
            // compaction every 32 samples — both paths in the window.
            interval_ns: 1,
            capacity: 32,
        }),
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(16 * VABLOCK_SIZE, "sampled");
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut clock = SimTime::ZERO + SimDuration::from_millis(1);

    let fill = |buffer: &mut FaultBuffer, round: u64| {
        for b in 0..12u64 {
            buffer.push(FaultEntry {
                page: GlobalPage(b * 512 + (round * 13) % 512),
                access: if b % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                timestamp: SimTime::ZERO,
                utlb: (b % 4) as u32,
            });
        }
    };

    // Warm-up sizes the arena and fills the sample buffer once.
    for round in 0..40u64 {
        fill(&mut buffer, round);
        let r = driver.process_pass(&mut buffer, clock);
        clock += r.time;
    }

    let mut cleanest = u64::MAX;
    for attempt in 0..10u64 {
        let before = allocs();
        for round in 0..40u64 {
            fill(&mut buffer, 40 + attempt * 40 + round);
            let fetched = driver.counters().faults_fetched;
            clock += driver.process_pass(&mut buffer, clock).time;
            assert!(driver.counters().faults_fetched > fetched);
        }
        let after = allocs();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state sampling allocated {cleanest} times in every window"
    );
    driver.finalize_timeseries(clock);
    let ts = driver.take_timeseries();
    assert!(
        ts.compactions > 0,
        "the window must have exercised in-place compaction"
    );
    assert!(ts.samples.len() <= 32);
}

/// Steady-state lineage recording is allocation-free: the event log, the
/// flight-recorder ring, and the dump storage are all preallocated at
/// construction, so a driver emitting lifecycle events on every pass —
/// first-touches, refaults, migrations, evictions, writebacks — costs
/// zero heap traffic once warm. Lineage is armed with sampling, whose
/// buffer is preallocated too.
#[test]
fn steady_state_lineage_recording_does_not_allocate() {
    use metrics::TimeseriesConfig;
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, UvmDriver};

    let cfg = DriverConfig {
        gpu_memory_bytes: 4 * VABLOCK_SIZE,
        timeseries: Some(TimeseriesConfig::default()),
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(16 * VABLOCK_SIZE, "lineage");
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut clock = SimTime::ZERO + SimDuration::from_millis(1);

    let fill = |buffer: &mut FaultBuffer, round: u64| {
        for b in 0..12u64 {
            buffer.push(FaultEntry {
                page: GlobalPage(b * 512 + (round * 13) % 512),
                access: if b % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                timestamp: SimTime::ZERO,
                utlb: (b % 4) as u32,
            });
        }
    };

    // Warm-up: the arena sizes itself; the lineage buffers were already
    // reserved in full at construction.
    for round in 0..16u64 {
        fill(&mut buffer, round);
        let r = driver.process_pass(&mut buffer, clock);
        clock += r.time;
    }

    let mut cleanest = u64::MAX;
    for attempt in 0..10u64 {
        let before = allocs();
        for round in 0..40u64 {
            fill(&mut buffer, 16 + attempt * 40 + round);
            let fetched = driver.counters().faults_fetched;
            clock += driver.process_pass(&mut buffer, clock).time;
            assert!(driver.counters().faults_fetched > fetched);
        }
        let after = allocs();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state lineage recording allocated {cleanest} times in every window"
    );
    // The window emitted real events (thrash => refaults and evictions),
    // and the log it produced reconciles against the final sample.
    driver.finalize_timeseries(clock);
    let last = *driver
        .take_timeseries()
        .last()
        .expect("finalized stream has a tail");
    let lineage = driver.take_lineage();
    assert!(!lineage.is_empty(), "the window must have recorded events");
    assert!(
        lineage.total(metrics::LineageEventKind::Refault).pages > 0,
        "thrash must produce refault events"
    );
    lineage
        .reconcile(&last)
        .expect("lineage reconciles after the allocation-free window");
}

/// Steady-state event-driven replay is allocation-free AND capacity-
/// bounded: two stalled blocks share one full µTLB against a real
/// `ManagedSpace`, so every replay round resolves one block by the
/// raise-only closed form and the other arithmetically. Once warm, the
/// retry hot path must touch neither the heap (no waiter or scratch
/// growth) nor exceed the engine's steady-state scratch cap.
#[test]
fn steady_state_event_replay_does_not_allocate() {
    use gpu_model::{GpuConfig, GpuEngine, WorkloadTrace};
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::SimRng;

    let mut space = ManagedSpace::new();
    space.alloc(VABLOCK_SIZE, "retry-steady");

    // Two blocks, fingerprint-disjoint pending sets sized exactly to the
    // µTLB capacity: each round one refills the set, the other skips.
    let mut trace = WorkloadTrace::new("retry-steady", 8);
    for pages in [0..4, 68..72] {
        trace.begin_block(SimDuration::from_nanos(100));
        trace.push_step(pages.map(GlobalPage), false);
    }
    let cfg = GpuConfig {
        num_utlbs: 1,
        max_outstanding_per_utlb: 4,
        ..GpuConfig::default()
    };
    let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(7));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());

    // Warm-up: first run subscribes both blocks and sizes the buffer.
    eng.run(&space, &mut buffer, SimTime::ZERO);
    for _ in 0..8 {
        buffer.flush();
        eng.replay();
        eng.run(&space, &mut buffer, SimTime::ZERO);
    }

    let mut cleanest = u64::MAX;
    for _ in 0..10u64 {
        let before = allocs();
        for _ in 0..40 {
            buffer.flush();
            eng.replay();
            eng.run(&space, &mut buffer, SimTime::ZERO);
        }
        let after = allocs();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state event-driven replay allocated {cleanest} times in every window"
    );
    let c = eng.counters();
    assert!(
        c.retries_skipped > 0,
        "the window must have taken the arithmetic skip path"
    );
    assert!(c.retry_pages_skipped > 0);
    assert!(
        eng.retry_scratch_capacity() <= 4096,
        "miss scratch exceeded the steady-state cap: {}",
        eng.retry_scratch_capacity()
    );
    assert!(
        eng.max_pending_capacity() <= 4096,
        "a pending list exceeded the steady-state cap: {}",
        eng.max_pending_capacity()
    );
}
