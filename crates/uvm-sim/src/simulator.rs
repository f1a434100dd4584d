//! The co-simulation loop coupling the GPU engine and the UVM driver on a
//! shared virtual clock.
//!
//! The loop alternates two phases, mirroring the real system's dynamics
//! when kernels demand-page (the driver is the serial bottleneck, the
//! paper's central observation):
//!
//! 1. **GPU phase** — the engine issues accesses until every resident
//!    block is stalled on faults (or the grid finishes). Faults land in
//!    the hardware buffer.
//! 2. **Driver phase** — the driver processes batches until it issues a
//!    replay; its per-category costs advance the virtual clock. The
//!    replay (after its propagation latency) resumes stalled warps.
//!
//! Reported kernel time is `driver critical path + ideal compute time`:
//! while warps are stalled on faults the GPU makes no progress on their
//! work, so fault handling serialises with compute — the loosely-timed
//! approximation that matches the paper's observation that the driver is
//! the bottleneck for demand-paged kernels.

use crate::config::SimConfig;
use gpu_model::dma::TransferLog;
use gpu_model::engine::EngineCounters;
use gpu_model::{FaultBuffer, GpuEngine};
use metrics::{
    Attribution, Counters, Histogram, Offender, SpanKind, SpanTrace, Timers, Timeseries,
    TraceEvent,
};
use serde::{Deserialize, Serialize};
use gpu_model::WorkloadTrace;
use sim_engine::units::PAGE_SIZE;
use sim_engine::{CostModel, SimDuration, SimRng, SimTime};
use std::sync::Arc;
use uvm_driver::{ManagedSpace, UvmDriver};
use workloads::Workload;

/// Everything a run produced: times, breakdowns, counters, traces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Workload label.
    pub workload: String,
    /// Managed footprint in bytes.
    pub footprint_bytes: u64,
    /// footprint ÷ GPU memory (oversubscription past 1.0).
    pub subscription_ratio: f64,
    /// End-to-end kernel time under UVM demand paging.
    pub total_time: SimDuration,
    /// Driver critical-path time (incl. kernel launch).
    pub driver_time: SimDuration,
    /// Ideal GPU compute time of the kernel.
    pub compute_time: SimDuration,
    /// What the same data movement costs with one explicit
    /// `cudaMemcpy`-style bulk transfer (Fig. 1's baseline).
    pub explicit_time: SimDuration,
    /// Per-category driver timers.
    pub timers: Timers,
    /// Driver counters.
    pub counters: Counters,
    /// Device-side engine counters.
    pub engine: EngineCounters,
    /// Interconnect traffic.
    pub transfers: TransferLog,
    /// Captured fault/prefetch/eviction events (empty unless enabled).
    pub trace: Vec<TraceEvent>,
    /// Fault-trace events dropped at the recorder's capacity.
    pub trace_dropped: u64,
    /// Captured batch-lifecycle spans (empty unless
    /// `driver.span_capacity` is set). Sim-time fields are deterministic;
    /// the `wall_ns` stamps are not.
    pub span_trace: SpanTrace,
    /// Per-batch fault-count distribution (paper §III-D).
    pub faults_per_batch: Histogram,
    /// Per-batch VABlock-count distribution (paper §III-D).
    pub vablocks_per_batch: Histogram,
    /// Simulated-time telemetry samples (empty unless
    /// `driver.timeseries` is set). Sampled on the virtual clock, so the
    /// stream is bit-identical at any thread count; the final
    /// sample is forced at the end of the driver's critical path (its
    /// `t_ns` equals `driver_time`) and carries the exact end-of-run
    /// totals (it reconciles with `counters`/`transfers`).
    pub timeseries: Timeseries,
    /// Pages the prefetcher brought in that the kernel never used —
    /// prefetch waste (paper §VI-A). `None` unless
    /// `gpu.track_page_use` was enabled.
    pub prefetched_unused_pages: Option<u64>,
    /// Fault-provenance ledger: every serviced fault and migrated byte
    /// attributed to its root cause. Always collected (word-wide mask
    /// ops on paths already walking the masks); reconciles exactly with
    /// `counters` and `transfers`.
    pub attribution: Attribution,
    /// The worst-thrashing VABlocks by attribution badness (refaults +
    /// prefetched-evicted pages), descending; block index breaks ties.
    pub top_offenders: Vec<Offender>,
    /// Fault-lineage event log, exact per-kind totals, and any flight
    /// dumps (empty unless `driver.timeseries` is set).
    #[serde(default)]
    pub lineage: metrics::LineageLog,
}

impl SimReport {
    /// Total faults the driver observed — the paper's "total faults".
    pub fn total_faults(&self) -> u64 {
        self.counters.faults_fetched
    }

    /// Total bytes moved over the interconnect in either direction.
    pub fn bytes_moved(&self) -> u64 {
        self.transfers.total_bytes()
    }

    /// Achieved compute rate in FLOP/s given total work `flops`.
    pub fn compute_rate(&self, flops: f64) -> f64 {
        flops / self.total_time.as_secs_f64()
    }
}

/// A workload's generated trace and address space, reusable across runs.
///
/// Trace generation is deterministic in `(workload, seed)` and costs
/// milliseconds at full scale; sweeps that run the same workload under
/// several driver configs [`prepare`] once and [`run_prepared`] many
/// times. The trace is behind an [`Arc`], so a prepared workload is cheap
/// to clone and thread-safe to share.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    space: ManagedSpace,
    trace: Arc<WorkloadTrace>,
    seed: u64,
}

/// Generate `workload`'s trace for `config`'s seed, once.
pub fn prepare(config: &SimConfig, workload: &Workload) -> PreparedWorkload {
    let root = SimRng::from_seed(config.seed);
    let mut space = ManagedSpace::new();
    let trace = workload.generate(&mut space, &mut root.derive(1));
    PreparedWorkload {
        space,
        trace: Arc::new(trace),
        seed: config.seed,
    }
}

/// Run `workload` under `config` and report.
pub fn run(config: &SimConfig, workload: &Workload) -> SimReport {
    run_prepared(config, &prepare(config, workload))
}

/// Run a [`prepare`]d workload under `config` and report. Equivalent to
/// [`run`] — bit-identical results — minus the trace generation.
pub fn run_prepared(config: &SimConfig, prepared: &PreparedWorkload) -> SimReport {
    assert_eq!(
        prepared.seed, config.seed,
        "prepared workload was generated for a different seed"
    );
    let cost = CostModel::new(config.cost.clone());
    let root = SimRng::from_seed(config.seed);

    let space = prepared.space.clone();
    let footprint_bytes = space.ranges().iter().map(|r| r.num_pages).sum::<u64>() * PAGE_SIZE;
    let subscription_ratio = footprint_bytes as f64 / config.driver.gpu_memory_bytes as f64;

    let mut driver = UvmDriver::new(config.driver.clone(), cost.clone(), space, root.derive(2));
    let mut engine = GpuEngine::launch(config.gpu.clone(), Arc::clone(&prepared.trace), root.derive(3));
    let mut buffer = FaultBuffer::new(config.fault_buffer.clone());

    let clock = run_kernel(
        config,
        &cost,
        &mut engine,
        &mut driver,
        &mut buffer,
        SimTime::ZERO + cost.kernel_launch(),
        (0, 0, 0),
    );

    let driver_time = clock - SimTime::ZERO;
    let compute_time = cost.kernel_launch() + engine.compute_time();
    let total_time = driver_time + engine.compute_time();

    // Close out the telemetry stream at the end of the driver's critical
    // path, so the last sample equals the end-of-run totals exactly.
    driver.finalize_timeseries(clock);

    let mut xfer_explicit = TransferLog::default();
    let explicit_time = cost.kernel_launch()
        + gpu_model::dma::explicit_transfer(&cost, footprint_bytes, &mut xfer_explicit)
        + engine.compute_time();

    let prefetched_unused_pages = config.gpu.track_page_use.then(|| {
        driver
            .prefetched_pages()
            .filter(|&p| !engine.page_was_used(p))
            .count() as u64
    });

    SimReport {
        workload: engine.trace().name.clone(),
        footprint_bytes,
        subscription_ratio,
        total_time,
        driver_time,
        compute_time,
        explicit_time,
        timers: *driver.timers(),
        counters: *driver.counters(),
        engine: *engine.counters(),
        transfers: *driver.transfer_log(),
        trace: driver.trace().events().to_vec(),
        trace_dropped: driver.trace().dropped(),
        span_trace: driver.spans().to_trace(),
        faults_per_batch: driver.faults_per_batch().clone(),
        vablocks_per_batch: driver.vablocks_per_batch().clone(),
        timeseries: driver.take_timeseries(),
        prefetched_unused_pages,
        attribution: *driver.attribution(),
        top_offenders: driver.top_offenders(TOP_OFFENDERS_K),
        lineage: driver.take_lineage(),
    }
}

/// Drive one kernel launch from `clock` until the engine finishes,
/// returning the clock at completion: GPU phases alternate with driver
/// passes, each phase ending in a replay. [`run_prepared`] and
/// [`run_repeated`] share this one loop. `retry_base` offsets the
/// engine's retry telemetry (which counts from zero per launch) so the
/// driver-side mirror stays cumulative across launches.
fn run_kernel(
    config: &SimConfig,
    cost: &CostModel,
    engine: &mut GpuEngine,
    driver: &mut UvmDriver,
    buffer: &mut FaultBuffer,
    mut clock: SimTime,
    retry_base: (u64, u64, u64),
) -> SimTime {
    let mut passes: u64 = 0;
    let mut stuck_passes: u64 = 0;
    let mut last_steps: u64 = 0;
    let mut last_buffer_drops: u64 = 0;

    loop {
        engine.run(driver.space(), buffer, clock);
        // Mirror the engine's event-driven retry telemetry so samples
        // taken during the following driver passes carry it.
        let ec = *engine.counters();
        driver.note_engine_retry_stats(
            retry_base.0 + ec.retries_skipped,
            retry_base.1 + ec.retry_pages_skipped,
            retry_base.2 + ec.wakeups,
        );
        if engine.is_done() {
            break;
        }
        // Hardware fault-buffer overflows happen on the GPU side; surface
        // them as instants on the driver's span timeline.
        let buffer_drops = engine.counters().faults_dropped;
        if buffer_drops > last_buffer_drops {
            driver.spans_mut().instant(
                SpanKind::BufferOverflow,
                clock,
                buffer_drops - last_buffer_drops,
                0,
            );
            last_buffer_drops = buffer_drops;
        }
        if config.gpu.access_counters.enabled {
            let notifs = engine.drain_access_notifications();
            clock += driver.note_access_notifications(
                &notifs,
                config.gpu.access_counters.granularity_pages,
                clock,
            );
        }
        // Driver works until it releases the GPU with a replay.
        loop {
            let pass = driver.process_pass(buffer, clock);
            clock += pass.time;
            passes += 1;
            assert!(
                passes <= config.max_passes,
                "exceeded max_passes = {} — livelock?",
                config.max_passes
            );
            if pass.replays > 0 {
                break;
            }
        }
        clock += cost.replay_latency();
        engine.replay();

        // Livelock detection: replays that never complete a step mean the
        // working set of stalled warps cannot become co-resident.
        let steps = engine.counters().steps_completed;
        if steps == last_steps {
            stuck_passes += 1;
            assert!(
                stuck_passes < 10_000,
                "no GPU progress over {stuck_passes} replays: working set of \
                 stalled warps cannot fit in {} bytes of GPU memory",
                config.driver.gpu_memory_bytes
            );
        } else {
            stuck_passes = 0;
            last_steps = steps;
        }
    }
    clock
}

/// How many offending VABlocks a report carries. Enough to render the
/// `repro explain` table; small enough to be negligible in JSON output.
const TOP_OFFENDERS_K: usize = 8;

/// One [`SweepCache`] entry: seed, workload, prepared form.
type CacheEntry = (u64, Workload, Arc<PreparedWorkload>);

/// Hit/miss/occupancy snapshot of a [`SweepCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to [`prepare`] fresh.
    pub misses: u64,
    /// Prepared workloads currently cached.
    pub entries: u64,
}

/// A cross-sweep cache of [`prepare`]d workloads, keyed by
/// `(seed, workload)` — the same dedup key [`run_sweep`] uses within
/// one sweep, extended across sweeps so a long-lived service (`repro
/// serve`) regenerates each trace once, not once per request.
///
/// Correctness is free: [`prepare`] is deterministic in the key, so a
/// cached entry is indistinguishable from a fresh one and results stay
/// bit-identical. Entries hold the trace behind an [`Arc`] plus the
/// pristine pre-run [`ManagedSpace`]; [`run_prepared`] clones the space
/// per run, never mutating the cached copy. Eviction is LRU with a fixed
/// capacity so a daemon serving many distinct workloads stays bounded.
#[derive(Debug)]
pub struct SweepCache {
    entries: std::sync::Mutex<Vec<CacheEntry>>,
    capacity: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl SweepCache {
    /// A cache holding at most `capacity` prepared workloads (min 1).
    pub fn new(capacity: usize) -> Self {
        SweepCache {
            entries: std::sync::Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Fetch the prepared form of `workload` under `config`'s seed,
    /// preparing and caching it on miss.
    ///
    /// The entry lock is not held while preparing, so [`stats`](Self::stats)
    /// (the serve daemon's `/metrics` scrape) never waits on trace
    /// generation. Two callers missing on one key both prepare it; the
    /// first to insert wins and the other returns the winner's entry.
    pub fn get_or_prepare(&self, config: &SimConfig, workload: &Workload) -> Arc<PreparedWorkload> {
        use std::sync::atomic::Ordering;
        let hit = touch(&mut self.entries(), config.seed, workload);
        if let Some(prepared) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return prepared;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prepared = Arc::new(prepare(config, workload));
        let mut entries = self.entries();
        if let Some(winner) = touch(&mut entries, config.seed, workload) {
            return winner;
        }
        if entries.len() >= self.capacity {
            entries.remove(0); // front = least recently used
        }
        entries.push((config.seed, workload.clone(), Arc::clone(&prepared)));
        prepared
    }

    /// Hit/miss/occupancy totals since construction.
    pub fn stats(&self) -> SweepCacheStats {
        use std::sync::atomic::Ordering;
        SweepCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries().len() as u64,
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<CacheEntry>> {
        self.entries
            .lock()
            .expect("no code panics while holding the sweep cache lock")
    }
}

/// The cached entry for `(seed, workload)`, moved to the back of
/// `entries` (back = most recently used).
fn touch(
    entries: &mut Vec<CacheEntry>,
    seed: u64,
    workload: &Workload,
) -> Option<Arc<PreparedWorkload>> {
    let pos = entries
        .iter()
        .position(|(s, w, _)| *s == seed && w == workload)?;
    let entry = entries.remove(pos);
    let prepared = Arc::clone(&entry.2);
    entries.push(entry);
    Some(prepared)
}

/// Run every `(config, workload)` point of a sweep, in parallel when a
/// rayon thread pool offers more than one thread, returning reports in
/// input order.
///
/// Trace generation is hoisted and deduplicated: points sharing a
/// `(workload, seed)` pair — e.g. the same workload measured with
/// prefetching on and off — are [`prepare`]d once. Results are
/// bit-identical to calling [`run`] on each point.
pub fn run_sweep(points: Vec<(SimConfig, Workload)>) -> Vec<SimReport> {
    run_sweep_cached_with(None, points, |_, _| {})
}

/// [`run_sweep`] consulting an optional cross-sweep [`SweepCache`] for
/// prepared workloads, with a completion callback. With a cache,
/// `(seed, workload)` pairs already prepared by an earlier sweep skip
/// trace generation entirely; the per-sweep dedup holds either way, so
/// each distinct trace is prepared at most once per sweep whatever the
/// cache's capacity. Results are bit-identical with or without a cache
/// ([`prepare`] is deterministic in the key).
///
/// `on_point(index, report)` fires as each point finishes, from whichever
/// worker ran it and so out of input order. The `repro` binary uses it
/// for live progress/ETA telemetry.
///
/// Points run as one rayon parallel map, longest expected first (a
/// point's wall tracks its trace's access count; ties keep input order),
/// so the heaviest points start first and the short ones fill in behind
/// them. Every point's simulation is independent and deterministic, so
/// the schedule changes wall time only. Point count, worker count and
/// the longest single point's wall land in [`metrics::sched`].
pub fn run_sweep_cached_with<F>(
    cache: Option<&SweepCache>,
    points: Vec<(SimConfig, Workload)>,
    on_point: F,
) -> Vec<SimReport>
where
    F: Fn(usize, &SimReport) + Sync,
{
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    let mut prepared: Vec<CacheEntry> = Vec::new();
    let mut jobs: Vec<(usize, SimConfig, Arc<PreparedWorkload>)> = points
        .into_iter()
        .enumerate()
        .map(|(i, (config, workload))| {
            let p = touch(&mut prepared, config.seed, &workload).unwrap_or_else(|| {
                let p = match cache {
                    Some(c) => c.get_or_prepare(&config, &workload),
                    None => Arc::new(prepare(&config, &workload)),
                };
                prepared.push((config.seed, workload, Arc::clone(&p)));
                p
            });
            (i, config, p)
        })
        .collect();
    // Each trace is freed as soon as the last point using it finishes.
    drop(prepared);
    if jobs.is_empty() {
        return Vec::new();
    }
    jobs.sort_by_key(|(i, _, p)| (std::cmp::Reverse(p.trace.total_accesses()), *i));

    let points = jobs.len() as u64;
    let threads = rayon::current_num_threads().clamp(1, jobs.len()) as u64;
    let max_wall = AtomicU64::new(0);
    let mut done: Vec<(usize, SimReport)> = jobs
        .into_par_iter()
        .map(|(i, config, prepared)| {
            let t0 = Instant::now();
            let report = run_prepared(&config, &prepared);
            max_wall.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            on_point(i, &report);
            (i, report)
        })
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    metrics::sched::record(&metrics::SweepSchedStats {
        points,
        stolen: 0,
        max_point_wall_ns: max_wall.into_inner(),
        threads,
    });
    done.into_iter().map(|(_, report)| report).collect()
}

/// Per-launch summary from [`run_repeated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchStats {
    /// Launch index (0-based).
    pub launch: u32,
    /// Virtual time this launch took end to end.
    pub time: SimDuration,
    /// Faults the driver observed during this launch.
    pub faults: u64,
    /// Pages migrated host→device during this launch.
    pub pages_migrated: u64,
    /// Evictions during this launch.
    pub evictions: u64,
}

/// Launch the same kernel `launches` times against one persistent driver
/// — the iterative-application scenario. The first launch pays the full
/// demand-paging cost; later launches run warm (zero faults when the
/// footprint fits in GPU memory, steady-state thrash when it does not).
pub fn run_repeated(config: &SimConfig, workload: &Workload, launches: u32) -> Vec<LaunchStats> {
    assert!(launches > 0);
    let cost = CostModel::new(config.cost.clone());
    let root = SimRng::from_seed(config.seed);

    let PreparedWorkload { space, trace, .. } = prepare(config, workload);
    let mut driver = UvmDriver::new(config.driver.clone(), cost.clone(), space, root.derive(2));
    let mut buffer = FaultBuffer::new(config.fault_buffer.clone());

    let mut out = Vec::with_capacity(launches as usize);
    let mut clock = SimTime::ZERO;
    // Cumulative engine retry telemetry across launches (each launch's
    // engine counts from zero).
    let mut retry_base = (0u64, 0u64, 0u64);
    for launch in 0..launches {
        let start = clock;
        let faults0 = driver.counters().faults_fetched;
        let migrated0 = driver.counters().pages_migrated_h2d();
        let evictions0 = driver.counters().evictions;
        clock += cost.kernel_launch();
        let mut engine = GpuEngine::launch(
            config.gpu.clone(),
            Arc::clone(&trace),
            root.derive(10 + launch as u64),
        );
        clock = run_kernel(
            config,
            &cost,
            &mut engine,
            &mut driver,
            &mut buffer,
            clock,
            retry_base,
        );
        // Kernel boundary: drain any stale entries a non-flushing replay
        // policy left behind, so they don't surface as phantom faults in
        // the next launch's counters.
        buffer.flush();
        let ec = *engine.counters();
        retry_base.0 += ec.retries_skipped;
        retry_base.1 += ec.retry_pages_skipped;
        retry_base.2 += ec.wakeups;
        clock += engine.compute_time();
        out.push(LaunchStats {
            launch,
            time: clock - start,
            faults: driver.counters().faults_fetched - faults0,
            pages_migrated: driver.counters().pages_migrated_h2d() - migrated0,
            evictions: driver.counters().evictions - evictions0,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::MIB;
    use uvm_driver::PrefetchPolicy;
    use workloads::{RegularParams, Workload};

    fn small_config(mem_mib: u64) -> SimConfig {
        let mut c = SimConfig::default();
        c.driver.gpu_memory_bytes = mem_mib * MIB;
        c
    }

    fn regular(bytes: u64) -> Workload {
        Workload::Regular(RegularParams {
            bytes,
            warps_per_block: 8,
        })
    }

    #[test]
    fn undersubscribed_regular_completes() {
        let cfg = small_config(64);
        let r = run(&cfg, &regular(16 * MIB));
        assert_eq!(r.workload, "regular");
        assert_eq!(r.footprint_bytes, 16 * MIB);
        assert!(r.subscription_ratio < 1.0);
        // Every page faults or is prefetched exactly once.
        assert_eq!(r.counters.pages_migrated_h2d(), 4096);
        assert_eq!(r.counters.evictions, 0);
        assert!(r.total_time > SimDuration::ZERO);
        assert!(r.total_faults() > 0);
    }

    #[test]
    fn prefetch_reduces_faults() {
        let cfg_on = small_config(64);
        let mut cfg_off = small_config(64);
        cfg_off.driver.prefetch = PrefetchPolicy::Disabled;
        let on = run(&cfg_on, &regular(16 * MIB));
        let off = run(&cfg_off, &regular(16 * MIB));
        assert!(
            on.total_faults() < off.total_faults() / 2,
            "prefetch on: {} faults, off: {}",
            on.total_faults(),
            off.total_faults()
        );
        // Same pages end up migrated either way (undersubscribed).
        assert_eq!(
            on.counters.pages_migrated_h2d(),
            off.counters.pages_migrated_h2d()
        );
    }

    #[test]
    fn oversubscription_triggers_evictions() {
        let cfg = small_config(16); // 16 MiB GPU, 24 MiB footprint
        let r = run(&cfg, &regular(24 * MIB));
        assert!(r.subscription_ratio > 1.0);
        assert!(r.counters.evictions > 0);
        assert!(r.counters.pages_evicted_total() > 0);
    }

    #[test]
    fn explicit_baseline_is_faster_undersubscribed() {
        let cfg = small_config(64);
        let r = run(&cfg, &regular(32 * MIB));
        assert!(
            r.explicit_time < r.total_time,
            "explicit {} vs UVM {}",
            r.explicit_time,
            r.total_time
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_config(32);
        let a = run(&cfg, &regular(20 * MIB));
        let b = run(&cfg, &regular(20 * MIB));
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.engine, b.engine);
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_counts_hits() {
        let cfg = small_config(32);
        let w = regular(20 * MIB);
        let baseline = run(&cfg, &w);

        let cache = SweepCache::new(4);
        let first = run_sweep_cached_with(
            Some(&cache),
            vec![(cfg.clone(), w.clone())],
            |_, _| {},
        );
        let second = run_sweep_cached_with(
            Some(&cache),
            vec![(cfg.clone(), w.clone())],
            |_, _| {},
        );
        // A cached prepare is indistinguishable from a fresh one.
        for r in [&first[0], &second[0]] {
            assert_eq!(r.total_time, baseline.total_time);
            assert_eq!(r.counters, baseline.counters);
            assert_eq!(r.engine, baseline.engine);
            assert_eq!(r.transfers, baseline.transfers);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "second sweep must reuse the trace");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn sweep_cache_evicts_least_recently_used() {
        let cache = SweepCache::new(2);
        let cfg = small_config(64);
        let a = regular(4 * MIB);
        let b = regular(8 * MIB);
        let c = regular(12 * MIB);
        cache.get_or_prepare(&cfg, &a);
        cache.get_or_prepare(&cfg, &b);
        cache.get_or_prepare(&cfg, &a); // refresh a: b is now LRU
        cache.get_or_prepare(&cfg, &c); // evicts b
        assert_eq!(cache.stats().entries, 2);
        cache.get_or_prepare(&cfg, &a);
        assert_eq!(cache.stats().hits, 2, "a must have survived the eviction");
        cache.get_or_prepare(&cfg, &b);
        assert_eq!(cache.stats().misses, 4, "b must have been evicted");
        // Different seed, same workload: a distinct key.
        cache.get_or_prepare(&cfg.clone().with_seed(99), &a);
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn seed_changes_fault_interleaving_not_coverage() {
        let a = run(&small_config(64).with_seed(1), &regular(16 * MIB));
        let b = run(&small_config(64).with_seed(2), &regular(16 * MIB));
        assert_eq!(
            a.counters.pages_migrated_h2d(),
            b.counters.pages_migrated_h2d()
        );
    }
}
