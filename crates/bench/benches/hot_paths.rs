//! Micro-benches of the fault-pipeline hot paths, isolated from the
//! experiment harness: batch pre-processing (sort-then-group into a
//! reusable arena), the engine's post-replay retry scan (reference Scan
//! mode, on a 256-block grid and on fig. 1's full-µTLB 1280-block
//! shape), the event-driven retry skip and waiter-wakeup paths that
//! replace it, waiter-list upkeep when a crowd of blocks re-subscribes
//! to one hot residency word on every replay, word-at-a-time
//! `PageMask` operations (`set_span`, `andnot_with`/`intersect_count`),
//! the batched LRU eviction scan, and one end-to-end oversubscribed point
//! at `Scale::QUICK`.
//!
//! These are the loops the `repro` wall time is made of; `cargo bench
//! -p bench hot_paths` gives a stable regression guard around each one
//! without re-running whole experiments.

use bench::experiments::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use gpu_model::{
    AccessType, FaultBuffer, FaultBufferConfig, FaultEntry, GlobalPage, GpuConfig, GpuEngine,
    PageMask, RetryMode, VaBlockIdx, WorkloadTrace,
};
use sim_engine::units::VABLOCK_SIZE;
use sim_engine::{CostModel, SimDuration, SimRng, SimTime};
use std::hint::black_box;
use uvm_driver::{DriverConfig, PrefetchPolicy, UvmDriver, VaRange};
use uvm_sim::{BatchArena, ManagedSpace, WorkloadKind};

/// 256 faults spread over a handful of VABlocks, timestamps in order —
/// the shape `process_pass` sees every batch in the thrash steady state.
fn batch_entries() -> Vec<FaultEntry> {
    (0..256u64)
        .map(|i| FaultEntry {
            // Stride pages so the sort actually reorders runs.
            page: GlobalPage((i * 37) % 2048),
            access: if i % 4 == 0 {
                AccessType::Write
            } else {
                AccessType::Read
            },
            timestamp: SimTime::ZERO + SimDuration::from_nanos(i),
            utlb: (i % 80) as u32,
        })
        .collect()
}

fn bench_batch_preprocess(c: &mut Criterion) {
    let entries = batch_entries();
    let mut space = ManagedSpace::new();
    space.alloc(2048 * 4096, "bench");
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut arena = BatchArena::default();
    c.benchmark_group("hot_paths")
        .bench_function("batch_preprocess_256", |b| {
            b.iter(|| {
                for e in &entries {
                    buffer.push(*e);
                }
                uvm_driver::batch::gather_into(
                    &mut buffer,
                    256,
                    SimTime::ZERO + SimDuration::from_micros(1),
                    &mut space,
                    &mut arena,
                );
                black_box(arena.batch.groups.len())
            })
        });
}

/// A `blocks`-block stall grid over 256 Ki pages, 32 random pages per
/// block, none resident — the replay-retry shape that dominates
/// oversubscribed runs. `lo` keeps the random pages out of residency
/// word 0 so the waiter bench can use that word as its private change
/// target. `first`, when given, replaces block 0's pages.
fn retry_grid(
    lo: u64,
    blocks: usize,
    first: Option<std::ops::Range<u64>>,
) -> (ManagedSpace, WorkloadTrace) {
    let mut space = ManagedSpace::new();
    space.alloc(1 << 30, "bench"); // 256 Ki pages, none resident
    let mut rng = SimRng::from_seed(7);
    let mut trace = WorkloadTrace::new("retry", 1 << 18);
    for b in 0..blocks {
        let random: Vec<GlobalPage> = (0..32)
            .map(|_| GlobalPage(lo + rng.index((1 << 18) - lo as usize) as u64))
            .collect();
        trace.begin_block(SimDuration::from_nanos(10));
        match &first {
            Some(pages) if b == 0 => trace.push_step(pages.clone().map(GlobalPage), false),
            _ => trace.push_step(random, false),
        }
    }
    (space, trace)
}

/// The reference retry scan (RetryMode::Scan pins the pre-event-driven
/// path so this series stays comparable across PRs — and is the honest
/// baseline the `retry_skip` series is measured against).
fn bench_replay_retry(c: &mut Criterion) {
    let (space, trace) = retry_grid(0, 256, None);
    let cfg = GpuConfig {
        retry: RetryMode::Scan,
        ..GpuConfig::default()
    };
    let mut engine = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    engine.run(&space, &mut buffer, SimTime::ZERO); // initial stall
    c.benchmark_group("hot_paths")
        .bench_function("replay_retry_256_blocks", |b| {
            b.iter(|| {
                buffer.flush();
                engine.replay();
                black_box(engine.run(&space, &mut buffer, SimTime::ZERO))
            })
        });
}

/// Fig. 1's stall shape under the reference rescan: 1280 blocks on the
/// default 80 µTLBs × 16 outstanding entries. Each replay the first
/// block retried on a µTLB fills its set; every later block's retry
/// can only throttle, so this series is dominated by full-set
/// retries that only probe the filter and count.
fn bench_retry_full_set(c: &mut Criterion) {
    let (space, trace) = retry_grid(0, 1280, None);
    let cfg = GpuConfig {
        retry: RetryMode::Scan,
        ..GpuConfig::default()
    };
    let mut engine = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    engine.run(&space, &mut buffer, SimTime::ZERO); // initial stall
    c.benchmark_group("hot_paths")
        .bench_function("retry_full_set_1280_blocks", |b| {
            b.iter(|| {
                buffer.flush();
                engine.replay();
                black_box(engine.run(&space, &mut buffer, SimTime::ZERO))
            })
        });
}

/// A 256-block stall grid shaped for the closed-form skip: one µTLB of
/// capacity 16, block `i` waiting on 16 pages confined to residency word
/// `i` with in-word offsets `(i % 4) * 16..`. Whichever block refills the
/// drained set on a replay, every block of a different offset class stays
/// fingerprint-disjoint against the full set and must resolve
/// arithmetically (~3/4 of the grid per replay).
fn skip_grid() -> (GpuConfig, ManagedSpace, WorkloadTrace) {
    let cfg = GpuConfig {
        num_utlbs: 1,
        max_outstanding_per_utlb: 16,
        ..GpuConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(1 << 30, "bench");
    let mut trace = WorkloadTrace::new("skip", 256 * 16);
    for i in 0..256u64 {
        trace.begin_block(SimDuration::from_nanos(10));
        let class = (i % 4) * 16;
        trace.push_step((0..16).map(|o| GlobalPage(i * 64 + class + o)), false);
    }
    (cfg, space, trace)
}

/// The skip grid under the event-driven path: residency never changes, so
/// every retry is clean and most resolve by the O(1) closed form — the
/// skip claim, measured against `retry_skip_scan_twin` (identical grid,
/// reference rescan).
fn bench_retry_skip(c: &mut Criterion) {
    let (cfg, space, trace) = skip_grid();
    let mut engine = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    engine.run(&space, &mut buffer, SimTime::ZERO); // initial stall + subscribe
    c.benchmark_group("hot_paths")
        .bench_function("retry_skip_256_blocks", |b| {
            b.iter(|| {
                buffer.flush();
                engine.replay();
                black_box(engine.run(&space, &mut buffer, SimTime::ZERO))
            })
        });
    // Guard on `replays`: under a criterion name filter the body may not
    // run at all, and an unexercised engine has nothing to assert about.
    assert!(
        engine.counters().replays == 0 || engine.counters().retries_skipped > 0,
        "bench must exercise the arithmetic skip path"
    );
}

/// The identical grid forced through the reference rescan: the honest
/// baseline for `retry_skip_256_blocks`.
fn bench_retry_skip_scan_twin(c: &mut Criterion) {
    let (cfg, space, trace) = skip_grid();
    let cfg = GpuConfig {
        retry: RetryMode::Scan,
        ..cfg
    };
    let mut engine = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    engine.run(&space, &mut buffer, SimTime::ZERO); // initial stall
    c.benchmark_group("hot_paths")
        .bench_function("retry_skip_scan_twin", |b| {
            b.iter(|| {
                buffer.flush();
                engine.replay();
                black_box(engine.run(&space, &mut buffer, SimTime::ZERO))
            })
        });
    assert_eq!(
        engine.counters().retries_skipped,
        0,
        "scan mode must never skip"
    );
}

/// Event-driven path with one residency word changing per replay: block 0
/// waits on pages 0..16 (word 0) and an unrelated page of word 0 toggles
/// residency each iteration, so every replay pays one wakeup dispatch and
/// one real 16-page rescan while the other 255 blocks skip.
fn bench_waiter_wakeup(c: &mut Criterion) {
    let (mut space, trace) = retry_grid(64, 256, Some(0..16));
    let mut engine = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    engine.run(&space, &mut buffer, SimTime::ZERO); // initial stall + subscribe
    let mut page_63 = PageMask::EMPTY;
    page_63.set(63);
    c.benchmark_group("hot_paths")
        .bench_function("waiter_wakeup_1_of_256", |b| {
            b.iter(|| {
                // Page 63 shares word 0 with block 0's pending list but is
                // not waited on: its toggle wakes the block for a rescan
                // that finds nothing and leaves the stall in place.
                space.set_resident(VaBlockIdx(0), page_63);
                space.set_resident(VaBlockIdx(0), PageMask::EMPTY);
                buffer.flush();
                engine.replay();
                black_box(engine.run(&space, &mut buffer, SimTime::ZERO))
            })
        });
    assert!(
        engine.counters().replays == 0 || engine.counters().wakeups > 0,
        "bench must exercise the wakeup path"
    );
}

/// Sgemm's shared-page shape: 256 blocks stall on one step over page 1
/// (residency word 0) and one page in each of words 1..=7. Every replay
/// one of those seven pages turns resident, so each block wakes, finds a
/// hit and re-subscribes to word 0 and the words still missing: 256
/// pushes per replay onto lists that each hold all 256 live blocks.
/// Page 1 turns resident last and the grid completes; one iteration is a
/// whole launch, so every iteration starts from the same state.
fn bench_waiter_subscribe_shared_word(c: &mut Criterion) {
    let mut trace = WorkloadTrace::new("shared-word", 512);
    for _ in 0..256 {
        trace.begin_block(SimDuration::from_nanos(10));
        trace.push_step((0..8).map(|w| GlobalPage(64 * w + 1)), false);
    }
    let trace = std::sync::Arc::new(trace);
    let mut space = ManagedSpace::new();
    space.alloc(VABLOCK_SIZE, "bench");
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    c.benchmark_group("hot_paths")
        .bench_function("waiter_subscribe_shared_word", |b| {
            b.iter(|| {
                space.set_resident(VaBlockIdx(0), PageMask::EMPTY);
                let mut engine = GpuEngine::launch(
                    GpuConfig::default(),
                    std::sync::Arc::clone(&trace),
                    SimRng::from_seed(1),
                );
                let mut resident = PageMask::EMPTY;
                for w in (1..8).chain([0]) {
                    engine.run(&space, &mut buffer, SimTime::ZERO);
                    resident.set(64 * w + 1);
                    space.set_resident(VaBlockIdx(0), resident);
                    buffer.flush();
                    engine.replay();
                }
                engine.run(&space, &mut buffer, SimTime::ZERO);
                assert!(engine.is_done());
                black_box(engine.waiter_work())
            })
        });
}

fn bench_mask_word_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_paths");
    group.bench_function("mask_set_span", |b| {
        b.iter(|| {
            let mut m = PageMask::default();
            for start in (0..448).step_by(64) {
                m.set_span(black_box(start + 3), black_box(61));
            }
            black_box(m.count())
        })
    });
    // A realistic half-populated residency mask with ragged word edges,
    // AND-NOT against a span the way eviction bookkeeping absorbs masks.
    let mut m = PageMask::default();
    for start in (0..512).step_by(32) {
        m.set_span(start + 5, 17);
    }
    let mut other = PageMask::default();
    other.set_span(100, 300);
    group.bench_function("mask_andnot_intersect", |b| {
        b.iter(|| {
            let mut scratch = m;
            scratch.andnot_with(black_box(&other));
            black_box(scratch.intersect_count(&m))
        })
    });
}

/// The batched LRU eviction scan in steady-state thrash: two 8-block
/// regions ping-pong through an 8-block GPU, so every `prefetch_range`
/// runs one `evict_batch` that selects and migrates out 8 victims.
fn bench_eviction_scan(c: &mut Criterion) {
    let cfg = DriverConfig {
        prefetch: PrefetchPolicy::Disabled,
        gpu_memory_bytes: 8 * VABLOCK_SIZE,
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    let range = space.alloc(64 * VABLOCK_SIZE, "bench");
    let pages_per_block = VABLOCK_SIZE / 4096;
    let region = |blocks: std::ops::Range<u64>| VaRange {
        name: "sub".into(),
        start_page: range.start_page + blocks.start * pages_per_block,
        num_pages: (blocks.end - blocks.start) * pages_per_block,
    };
    let (a, b_region) = (region(0..8), region(8..16));
    let mut d = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(7));
    let mut t = SimTime::ZERO + SimDuration::from_millis(1);
    // Prime the GPU full so every later prefetch must evict.
    t += d.prefetch_range(&a, t);
    c.benchmark_group("hot_paths")
        .bench_function("eviction_scan_8_blocks", |b| {
            b.iter(|| {
                t += d.prefetch_range(black_box(&b_region), t);
                t += d.prefetch_range(black_box(&a), t);
                black_box(d.counters().evictions)
            })
        });
}

/// End-to-end oversubscribed random point at 1/128 scale: every layer of
/// the pipeline (engine, buffer, batching, prefetch, eviction) in one
/// number.
fn bench_quick_point(c: &mut Criterion) {
    let scale = Scale::QUICK;
    let cfg = scale.config();
    let w = scale.workload(WorkloadKind::Random, 1.3);
    let prepared = uvm_sim::prepare(&cfg, &w);
    c.benchmark_group("hot_paths")
        .sample_size(10)
        .bench_function("quick_random_oversub_1_3", |b| {
            b.iter(|| black_box(uvm_sim::run_prepared(&cfg, &prepared)))
        });
}

criterion_group!(
    hot_paths,
    bench_batch_preprocess,
    bench_replay_retry,
    bench_retry_full_set,
    bench_retry_skip,
    bench_retry_skip_scan_twin,
    bench_waiter_wakeup,
    bench_waiter_subscribe_shared_word,
    bench_mask_word_ops,
    bench_eviction_scan,
    bench_quick_point,
);
criterion_main!(hot_paths);
