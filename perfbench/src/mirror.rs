//! The traced pass: the co-simulation loop of `uvm_sim::run_prepared`,
//! driven again through each layer's public functions with a host timer
//! around every call.
//!
//! The loop below is a copy of `run_prepared`'s, call for call, so that
//! time can be charged to the crate that spends it: `workloads`
//! (`Workload::generate`), `gpu_model` (`GpuEngine::run` /
//! `GpuEngine::replay`) and `uvm_driver` (`UvmDriver::process_pass`).
//! A copy can drift from the original. Every mirrored point is therefore
//! compared with what `run_prepared` returned for the same config, and a
//! mismatch withholds the layer numbers instead of misattributing time.

use gpu_model::dma::TransferLog;
use gpu_model::{FaultBuffer, GpuEngine, WorkloadTrace};
use metrics::SpanKind;
use sim_engine::units::PAGE_SIZE;
use sim_engine::{CostModel, SimRng, SimTime};
use std::sync::Arc;
use std::time::Instant;
use uvm_driver::{ManagedSpace, UvmDriver};
use uvm_sim::{SimConfig, SimReport, Workload};

/// How many offending VABlocks `run_prepared` puts in a report.
const TOP_OFFENDERS_K: usize = 8;

/// Host nanoseconds spent in each layer's calls, and how many calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// `Workload::generate` wall.
    pub generate_ns: u64,
    /// Accesses in the generated traces.
    pub accesses: u64,
    /// `GpuEngine::run` wall.
    pub run_ns: u64,
    /// `GpuEngine::run` calls.
    pub run_calls: u64,
    /// `GpuEngine::replay` wall.
    pub replay_ns: u64,
    /// `UvmDriver::process_pass` wall.
    pub pass_ns: u64,
    /// `UvmDriver::process_pass` calls.
    pub passes: u64,
    /// Access-counter notification hand-off (engine drain plus driver
    /// intake); non-zero only under the access-counter eviction policy.
    pub notify_ns: u64,
    /// Whole-point wall: the timed calls plus the untimed glue (engine
    /// launch, driver construction, report assembly).
    pub point_ns: u64,
}

impl LayerTimes {
    /// Add another accumulator into this one.
    pub fn merge(&mut self, o: &LayerTimes) {
        self.generate_ns += o.generate_ns;
        self.accesses += o.accesses;
        self.run_ns += o.run_ns;
        self.run_calls += o.run_calls;
        self.replay_ns += o.replay_ns;
        self.pass_ns += o.pass_ns;
        self.passes += o.passes;
        self.notify_ns += o.notify_ns;
        self.point_ns += o.point_ns;
    }
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Generate `workload`'s trace for `config`'s seed exactly as
/// `uvm_sim::prepare` does, timing the `workloads` layer.
pub fn generate(
    config: &SimConfig,
    workload: &Workload,
    t: &mut LayerTimes,
) -> (ManagedSpace, Arc<WorkloadTrace>) {
    let root = SimRng::from_seed(config.seed);
    let mut space = ManagedSpace::new();
    let t0 = Instant::now();
    let trace = workload.generate(&mut space, &mut root.derive(1));
    t.generate_ns += since(t0);
    t.accesses += trace.total_accesses();
    (space, Arc::new(trace))
}

/// Run one point on a generated trace: `uvm_sim::run_prepared`'s loop
/// with a host timer around every layer call.
pub fn run_point(
    config: &SimConfig,
    space: &ManagedSpace,
    trace: &Arc<WorkloadTrace>,
    t: &mut LayerTimes,
) -> SimReport {
    let point0 = Instant::now();
    let cost = CostModel::new(config.cost.clone());
    let root = SimRng::from_seed(config.seed);

    let space = space.clone();
    let footprint_bytes = space.ranges().iter().map(|r| r.num_pages).sum::<u64>() * PAGE_SIZE;
    let subscription_ratio = footprint_bytes as f64 / config.driver.gpu_memory_bytes as f64;

    let mut driver_cfg = config.driver.clone();
    if driver_cfg.service_workers == 0 {
        driver_cfg.service_workers = 1;
    }
    let mut driver = UvmDriver::new(driver_cfg, cost.clone(), space, root.derive(2));
    let mut engine = GpuEngine::launch(config.gpu.clone(), Arc::clone(trace), root.derive(3));
    let mut buffer = FaultBuffer::new(config.fault_buffer.clone());

    let mut clock = SimTime::ZERO + cost.kernel_launch();
    let mut passes: u64 = 0;
    let mut stuck_passes: u64 = 0;
    let mut last_steps: u64 = 0;
    let mut last_buffer_drops: u64 = 0;

    loop {
        let t0 = Instant::now();
        engine.run(driver.space(), &mut buffer, clock);
        t.run_ns += since(t0);
        t.run_calls += 1;
        let ec = *engine.counters();
        driver.note_engine_retry_stats(ec.retries_skipped, ec.retry_pages_skipped, ec.wakeups);
        if engine.is_done() {
            break;
        }
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
            let t0 = Instant::now();
            let notifs = engine.drain_access_notifications();
            clock += driver.note_access_notifications(
                &notifs,
                config.gpu.access_counters.granularity_pages,
                clock,
            );
            t.notify_ns += since(t0);
        }
        loop {
            let t0 = Instant::now();
            let pass = driver.process_pass(&mut buffer, clock);
            t.pass_ns += since(t0);
            t.passes += 1;
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
        let t0 = Instant::now();
        engine.replay();
        t.replay_ns += since(t0);

        let steps = engine.counters().steps_completed;
        if steps == last_steps {
            stuck_passes += 1;
            assert!(
                stuck_passes < 10_000,
                "no GPU progress over {stuck_passes} replays"
            );
        } else {
            stuck_passes = 0;
            last_steps = steps;
        }
    }

    let driver_time = clock - SimTime::ZERO;
    let compute_time = cost.kernel_launch() + engine.compute_time();
    let total_time = driver_time + engine.compute_time();
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

    let report = SimReport {
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
    };
    // The driver flushes its planning wall to `metrics::phase` on drop,
    // which belongs to this point as well.
    drop(driver);
    t.point_ns += since(point0);
    report
}
