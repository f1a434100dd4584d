//! # uvm-perfbench
//!
//! The repository's benchmark. It builds three seeded point sets, runs
//! each through the public sweep API with tracing off for the end-to-end
//! metrics, then makes one traced pass through each layer's public
//! functions for the per-layer metrics. `README.md` beside this crate
//! maps every layer metric to the end-to-end metric and workload it
//! should move.
//!
//! Simulated output is exact per seed, so it is checked, not measured:
//! every point's [`Fingerprint`] must agree across repetitions, with the
//! traced mirror, and with the digest pinned for the default seed.

pub mod mirror;

use bench::experiments::obs;
use bench::Scale;
use gpu_model::dma::TransferLog;
use gpu_model::{EngineCounters, WorkloadTrace};
use metrics::{Attribution, Counters, SweepSchedStats};
use mirror::LayerTimes;
use sim_engine::SimDuration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uvm_driver::{EvictionPolicy, ManagedSpace, PrefetchPolicy};
use uvm_sim::{SimConfig, SimReport, SweepCache, Workload, WorkloadKind};

/// `SimConfig`'s default master seed: the seed the digests are pinned for.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The paper's Table I prefetch fault reductions, percent, in
/// [`WorkloadKind::ALL`] order.
pub const TABLE1_PAPER_PCT: [f64; 8] = [82.3, 98.0, 96.6, 84.4, 90.1, 67.0, 64.1, 73.9];

/// Host seconds of set-up to repeat before each untraced repetition
/// (at least one set-up each time). Set-up samples are spread over the
/// whole run, so that their median sees the same host as `wall_s`.
pub const SETUP_SLICE_S: f64 = 0.1;

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("faults_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("table1_err_pp", "pp"),
];

/// Per-layer metrics (`--trace 1`), name and unit, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ns", "ns"),
    ("workloads.accesses", "count"),
    ("workloads.share_pct", "%"),
    ("gpu_model.run_ns", "ns"),
    ("gpu_model.run_calls", "count"),
    ("gpu_model.steps_completed", "count"),
    ("gpu_model.faults_raised", "count"),
    ("gpu_model.faults_throttled", "count"),
    ("gpu_model.retries_skipped", "count"),
    ("gpu_model.wakeups", "count"),
    ("gpu_model.ns_per_step", "ns"),
    ("gpu_model.run_share_pct", "%"),
    ("gpu_model.replay_ns", "ns"),
    ("gpu_model.replays", "count"),
    ("gpu_model.replay_share_pct", "%"),
    ("uvm_driver.pass_ns", "ns"),
    ("uvm_driver.passes", "count"),
    ("uvm_driver.faults_fetched", "count"),
    ("uvm_driver.ns_per_fault", "ns"),
    ("uvm_driver.evictions", "count"),
    ("uvm_driver.pages_evicted", "count"),
    ("uvm_driver.pages_prefetched", "count"),
    ("uvm_driver.duplicate_ratio", "ratio"),
    ("uvm_driver.plan_ns", "ns"),
    ("uvm_driver.notify_ns", "ns"),
    ("uvm_driver.pass_share_pct", "%"),
    ("metrics.recorder_ns", "ns"),
    ("metrics.pass_ns_recorders_off", "ns"),
    ("metrics.events_recorded", "count"),
    ("metrics.events_dropped", "count"),
    ("uvm_sim.sweep_ns", "ns"),
    ("uvm_sim.points_stolen", "count"),
    ("uvm_sim.max_straggler_ms", "ms"),
    ("bench.write_ns", "ns"),
    ("bench.bytes_written", "bytes"),
    ("bench.write_share_pct", "%"),
    ("traced.wall_ns", "ns"),
    ("traced.timed_pct", "%"),
    ("traced.overhead_ns", "ns"),
    ("traced.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// Fig 1: regular and random × 7 ratios × prefetch off/on, serial.
    Fig1,
    /// Table I: the 8 paper workloads at 0.6× × prefetch off/on, up to
    /// two sweep threads.
    Apps,
    /// Random at 1.5× and 2.0× × the 4 eviction policies, prefetch on,
    /// every recorder armed, artefacts written; serial.
    ThrashRec,
}

impl BenchWorkload {
    /// Every workload, in report order.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::Fig1,
        BenchWorkload::Apps,
        BenchWorkload::ThrashRec,
    ];

    /// CLI and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::Fig1 => "fig1_s16",
            BenchWorkload::Apps => "apps_s16",
            BenchWorkload::ThrashRec => "thrash_rec_s16",
        }
    }

    /// Look a workload up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sweep threads: `apps_s16` uses up to two, the others one.
    pub fn threads(self) -> usize {
        match self {
            BenchWorkload::Apps => {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
            }
            _ => 1,
        }
    }

    /// The set digest of [`Fingerprint`]s pinned for [`DEFAULT_SEED`] at
    /// [`Scale::DEFAULT`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            BenchWorkload::Fig1 => 0x2678_8c46_5f8d_cd9b,
            BenchWorkload::Apps => 0x12be_656c_beed_88e1,
            BenchWorkload::ThrashRec => 0xed69_cf31_7847_0529,
        }
    }
}

/// One workload's point set, as the untraced sweep runs it.
#[derive(Debug, Clone)]
pub struct PointSet {
    /// Which workload.
    pub workload: BenchWorkload,
    /// Sweep threads.
    pub threads: usize,
    /// The points; on `thrash_rec_s16` with every recorder armed.
    pub points: Vec<(SimConfig, Workload)>,
    /// The same points with every recorder off.
    pub disarmed: Vec<(SimConfig, Workload)>,
    /// Per-point eviction-policy labels for the metrics artefacts
    /// (recording sets only).
    pub labels: Vec<&'static str>,
}

impl PointSet {
    /// Build `workload`'s points at `scale` for `seed`.
    pub fn new(workload: BenchWorkload, scale: Scale, seed: u64) -> PointSet {
        let threads = workload.threads();
        let config = |prefetch: bool| {
            let mut c = scale.config().with_seed(seed);
            if !prefetch {
                c.driver.prefetch = PrefetchPolicy::Disabled;
            }
            c
        };
        let mut points = Vec::new();
        let mut labels = Vec::new();
        match workload {
            BenchWorkload::Fig1 => {
                for kind in [WorkloadKind::Regular, WorkloadKind::Random] {
                    for ratio in [0.01, 0.05, 0.25, 0.5, 0.75, 1.2, 1.5] {
                        for prefetch in [false, true] {
                            points.push((config(prefetch), scale.workload(kind, ratio)));
                        }
                    }
                }
            }
            BenchWorkload::Apps => {
                for kind in WorkloadKind::ALL {
                    for prefetch in [false, true] {
                        points.push((config(prefetch), scale.workload(kind, 0.6)));
                    }
                }
            }
            BenchWorkload::ThrashRec => {
                for ratio in [1.5, 2.0] {
                    for policy in EvictionPolicy::ALL {
                        points.push((
                            config(true).with_eviction(policy),
                            scale.workload(WorkloadKind::Random, ratio),
                        ));
                        labels.push(policy.label());
                    }
                }
            }
        }
        // `repro` resolves `--service-workers` auto to the sweep thread
        // count before any point runs; so does the benchmark.
        for (c, _) in &mut points {
            c.driver.service_workers = threads;
        }
        let disarmed = points.clone();
        if workload == BenchWorkload::ThrashRec {
            // Armed exactly as `repro --trace-out --metrics-out` arms them.
            obs::enable_tracing(metrics::DEFAULT_SPAN_CAPACITY);
            obs::enable_metrics(
                metrics::DEFAULT_SAMPLE_INTERVAL_NS,
                metrics::DEFAULT_SAMPLE_CAPACITY,
            );
            obs::instrument_points(&mut points);
        }
        PointSet {
            workload,
            threads,
            points,
            disarmed,
            labels,
        }
    }

    /// Whether this set runs with recorders armed and writes artefacts.
    pub fn records(&self) -> bool {
        self.workload == BenchWorkload::ThrashRec
    }
}

/// Point the sweep scheduler at `threads` worker threads.
pub fn set_sweep_threads(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the sweep thread count is always configurable");
}

/// Generate every distinct trace of `points` into a fresh cache: the
/// benchmark's set-up, timed.
pub fn prepare_cache(points: &[(SimConfig, Workload)]) -> (SweepCache, Duration) {
    let cache = SweepCache::new(points.len());
    let t0 = Instant::now();
    for (config, workload) in points {
        cache.get_or_prepare(config, workload);
    }
    (cache, t0.elapsed())
}

/// The part of a point's simulated output that the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// End-to-end simulated kernel time.
    pub total_time: SimDuration,
    /// Driver counters.
    pub counters: Counters,
    /// Engine counters, retry-path telemetry zeroed.
    pub engine: EngineCounters,
    /// Interconnect traffic.
    pub transfers: TransferLog,
    /// Fault-provenance ledger.
    pub attribution: Attribution,
}

impl Fingerprint {
    /// Fingerprint a report, after checking that its fault-provenance
    /// ledger reconciles with its counters and transfer log.
    pub fn of(r: &SimReport) -> Result<Fingerprint, String> {
        r.attribution
            .reconcile(&r.counters, r.transfers.h2d_bytes, r.transfers.d2h_bytes)
            .map_err(|(what, lhs, rhs)| format!("{}: {what}: {lhs} != {rhs}", r.workload))?;
        Ok(Fingerprint {
            total_time: r.total_time,
            counters: r.counters,
            engine: r.engine.semantic(),
            transfers: r.transfers,
            attribution: r.attribution,
        })
    }

    /// A 64-bit FNV-1a digest of every field.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes(), FNV_OFFSET)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The digest of a whole point set, in point order.
pub fn set_digest(fingerprints: &[Fingerprint]) -> u64 {
    fingerprints
        .iter()
        .fold(FNV_OFFSET, |h, f| fnv1a(&f.digest().to_le_bytes(), h))
}

/// A point's checked output, or why it has none.
pub type Outcome = Result<Fingerprint, String>;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// What the recorders captured and the artefact writers wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recorded {
    /// Events kept by the fault-trace, span, lineage and timeseries
    /// recorders.
    pub events_recorded: u64,
    /// Events those recorders dropped at capacity.
    pub events_dropped: u64,
    /// Bytes of artefacts written.
    pub bytes_written: u64,
}

/// Write a recorded sweep's artefacts under `dir` with the public
/// `bench` writers: the metrics artefacts of `repro --metrics-out` and
/// the Chrome trace of `repro --trace-out`.
pub fn write_artefacts(
    labels: &[&'static str],
    reports: &[SimReport],
    sched: &SweepSchedStats,
    dir: &Path,
) -> std::io::Result<Recorded> {
    obs::collect_reports(reports);
    obs::collect_metrics(labels, reports);
    let written = bench::metricsio::write_experiment(
        dir,
        "thrash_rec",
        &obs::take_metrics_points(),
        Some(sched),
    )?;
    let trace = metrics::chrome::render(&obs::take_points());
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, &trace)?;
    let mut rec = Recorded {
        bytes_written: trace.len() as u64,
        ..Recorded::default()
    };
    for path in &written {
        rec.bytes_written += std::fs::metadata(path)?.len();
    }
    for r in reports {
        rec.events_recorded += (r.trace.len()
            + r.span_trace.events.len()
            + r.lineage.events.len()
            + r.timeseries.samples.len()) as u64;
        rec.events_dropped += r.trace_dropped + r.span_trace.dropped + r.lineage.dropped;
    }
    Ok(rec)
}

/// One untraced repetition of a point set.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host wall of the sweep, plus the artefact writes on a recording set.
    pub wall: Duration,
    /// Host wall of the sweep call alone.
    pub sweep: Duration,
    /// The sweep scheduler's statistics.
    pub sched: SweepSchedStats,
    /// Planning wall the drivers published through `metrics::phase`.
    pub plan_ns: u64,
    /// Every point's checked output, in point order.
    pub outcomes: Vec<Outcome>,
}

/// Run `set` once through `uvm_sim`'s sweep on the prefilled `cache`; on
/// a recording set, also write its artefacts under `dir`.
pub fn run_rep(set: &PointSet, cache: &SweepCache, dir: &Path) -> Rep {
    set_sweep_threads(set.threads);
    let _ = std::fs::remove_dir_all(dir);
    let points = set.points.clone();
    metrics::sched::take();
    metrics::phase::take();
    let t0 = Instant::now();
    let swept = catch_unwind(AssertUnwindSafe(|| {
        uvm_sim::run_sweep_cached_with(Some(cache), points, |_, _| {})
    }));
    let sweep = t0.elapsed();
    let sched = metrics::sched::take();
    let plan_ns = metrics::phase::take().parallel_service_ns;
    let mut outcomes: Vec<Outcome> = match &swept {
        Ok(reports) => reports.iter().map(Fingerprint::of).collect(),
        // Some point panicked: rerun each alone to find which.
        Err(_) => set
            .points
            .iter()
            .map(|(c, w)| {
                catch_unwind(AssertUnwindSafe(|| {
                    uvm_sim::run_prepared(c, &cache.get_or_prepare(c, w))
                }))
                .map_err(panic_message)
                .and_then(|r| Fingerprint::of(&r))
            })
            .collect(),
    };
    if let (true, Ok(reports)) = (set.records(), &swept) {
        if let Err(e) = write_artefacts(&set.labels, reports, &sched, dir) {
            let msg = format!("writing artefacts under {}: {e}", dir.display());
            outcomes.iter_mut().for_each(|o| *o = Err(msg.clone()));
        }
    }
    Rep {
        wall: t0.elapsed(),
        sweep,
        sched,
        plan_ns,
        outcomes,
    }
}

/// Failed operations out of those attempted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Points simulated.
    pub attempted: u64,
    /// Points that panicked, failed a check, or disagreed.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one point, failed when `err` is set.
    pub fn point(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(e);
            }
        }
    }
}

/// Compare `outcomes` point by point with the `reference` fingerprints.
pub fn check_against(
    tally: &mut Tally,
    what: &str,
    outcomes: &[Outcome],
    reference: &[Option<Fingerprint>],
) {
    for (i, (o, r)) in outcomes.iter().zip(reference).enumerate() {
        let err = match (o, r) {
            (Err(e), _) => Some(format!("{what} point {i}: {e}")),
            (Ok(_), None) => Some(format!("{what} point {i}: the reference run failed")),
            (Ok(f), Some(r)) if f != r => Some(format!("{what} point {i}: output differs")),
            _ => None,
        };
        tally.point(err);
    }
}

/// Everything the untraced runs of one workload measured.
#[derive(Debug)]
pub struct Measurement {
    /// Per-repetition trace-generation wall.
    pub setup: Vec<Duration>,
    /// The untraced repetitions.
    pub reps: Vec<Rep>,
    /// The first repetition's fingerprints: the reference every other
    /// run of this process must reproduce.
    pub reference: Vec<Option<Fingerprint>>,
    /// The prefilled cache of the last set-up.
    pub cache: SweepCache,
    /// Correctness of every point run so far.
    pub tally: Tally,
}

/// Repeat `set`'s untraced sweep until `seconds` have passed and at
/// least `min_reps` ran, each on a cache freshly set up [`SETUP_SLICE_S`]
/// worth of times. Checks every repetition against the first and, when
/// `pinned` is given, the first against the pinned digest.
pub fn measure(
    set: &PointSet,
    seconds: f64,
    min_reps: usize,
    pinned: Option<u64>,
    dir: &Path,
) -> Measurement {
    let t0 = Instant::now();
    let mut setup: Vec<Duration> = Vec::new();
    let mut cache: Option<SweepCache> = None;
    let mut reps = Vec::new();
    while reps.len() < min_reps.max(1) || t0.elapsed().as_secs_f64() < seconds {
        let per_rep = setup.first().map_or(1, |first| {
            (SETUP_SLICE_S / first.as_secs_f64().max(1e-6)).ceil() as usize
        });
        for _ in 0..per_rep.clamp(1, 100) {
            // Free the previous traces first, so that peak memory holds
            // one set of them.
            drop(cache.take());
            let (c, dt) = prepare_cache(&set.points);
            setup.push(dt);
            cache = Some(c);
        }
        reps.push(run_rep(set, cache.as_ref().expect("set up above"), dir));
    }
    let cache = cache.expect("at least one repetition ran");
    let reference: Vec<Option<Fingerprint>> = reps[0]
        .outcomes
        .iter()
        .map(|o| o.as_ref().ok().cloned())
        .collect();
    let mut tally = Tally::default();
    for rep in &reps {
        check_against(&mut tally, set.workload.name(), &rep.outcomes, &reference);
    }
    if let Some(want) = pinned {
        let fps: Option<Vec<Fingerprint>> = reference.iter().cloned().collect();
        let got = fps.map(|f| set_digest(&f));
        if got != Some(want) {
            // Every repetition reproduced the wrong output.
            tally.failed = tally.attempted;
            tally.reasons.push(format!(
                "{}: set digest {:#018x} != pinned {want:#018x}",
                set.workload.name(),
                got.unwrap_or(0)
            ));
        }
    }
    Measurement {
        setup,
        reps,
        reference,
        cache,
        tally,
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prefetch fault reduction per workload, percent, from a Table I point
/// set's driver counters (prefetch off then on, per workload); 0 for a
/// workload that never faulted, as `repro table1` reports it.
pub fn table1_reductions(counters: &[Counters]) -> Vec<f64> {
    counters
        .chunks(2)
        .map(|pair| {
            let (off, on) = (pair[0].faults_fetched as f64, pair[1].faults_fetched as f64);
            if off == 0.0 {
                0.0
            } else {
                100.0 * (1.0 - on / off)
            }
        })
        .collect()
}

/// Mean absolute gap, in percentage points, between simulated Table I
/// reductions and the paper's.
pub fn table1_err_pp(reductions_pct: &[f64]) -> f64 {
    assert_eq!(reductions_pct.len(), TABLE1_PAPER_PCT.len());
    reductions_pct
        .iter()
        .zip(TABLE1_PAPER_PCT)
        .map(|(got, paper)| (got - paper).abs())
        .sum::<f64>()
        / TABLE1_PAPER_PCT.len() as f64
}

/// Seeds the Table I fidelity is averaged over.
pub const TABLE1_SEEDS: u64 = 4;

/// The `k`-th seed of `seed`'s Table I panel; the 0th is `seed` itself.
pub fn table1_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Table I fidelity for `seed`: [`table1_err_pp`] averaged over the
/// [`TABLE1_SEEDS`] seeds of its panel, because one seed's error swings
/// by about a tenth from seed to seed. `apps_s16` reads the first seed
/// off its own reference run. Every other Table I set is simulated once,
/// untimed, so that every workload reports every end-to-end metric.
pub fn table1_err_for(set: &PointSet, m: &mut Measurement, scale: Scale, seed: u64) -> f64 {
    let mut sum = 0.0;
    for k in 0..TABLE1_SEEDS {
        let counters: Vec<Counters> = if k == 0 && set.workload == BenchWorkload::Apps {
            m.reference
                .iter()
                .map(|f| f.as_ref().map(|f| f.counters).unwrap_or_default())
                .collect()
        } else {
            let apps = PointSet::new(BenchWorkload::Apps, scale, table1_seed(seed, k));
            set_sweep_threads(apps.threads);
            let swept = catch_unwind(AssertUnwindSafe(|| uvm_sim::run_sweep(apps.points.clone())));
            let outcomes: Vec<Outcome> = match swept {
                Ok(reports) => reports.iter().map(Fingerprint::of).collect(),
                Err(p) => vec![Err(panic_message(p)); apps.points.len()],
            };
            let mut counters = Vec::new();
            for (i, o) in outcomes.iter().enumerate() {
                m.tally
                    .point(o.as_ref().err().map(|e| format!("table1 point {i}: {e}")));
                counters.push(o.as_ref().map(|f| f.counters).unwrap_or_default());
            }
            counters
        };
        sum += table1_err_pp(&table1_reductions(&counters));
    }
    sum / TABLE1_SEEDS as f64
}

/// Peak resident memory of this process, MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric. `value` is `None` when the traced mirror
/// diverged from `run_prepared` and the layer numbers are withheld.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, or `None` when withheld.
    pub value: Option<f64>,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Pair values with the declared `table`'s units, in table order.
/// Panics on a value the table does not declare, or a declared metric
/// without a value: the output and `BENCHMARK.json` must stay in step.
pub fn metrics_in(
    table: &[(&'static str, &'static str)],
    values: &[(&str, Option<f64>)],
) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "undeclared metric {name}"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} has no value"))
                .1;
            Metric { name, value, unit }
        })
        .collect()
}

/// The end-to-end metrics of a measured workload.
///
/// `wall_s` is the fastest repetition (min-of-N, the ROADMAP's protocol):
/// interference from other tenants of the host only ever slows a
/// repetition, and lasts for seconds at a time. Over ten seeds of
/// `fig1_s16` on a shared 2-vCPU host, the spread of the minimum was
/// 5.4% against 13.7% for the median.
pub fn end_to_end(m: &Measurement, peak_rss_mb: f64, table1_err_pp: f64) -> Vec<Metric> {
    let wall = m
        .reps
        .iter()
        .map(|r| r.wall.as_secs_f64())
        .reduce(f64::min)
        .unwrap_or(0.0);
    let setup = median(&m.setup.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>());
    let faults: u64 = m
        .reference
        .iter()
        .flatten()
        .map(|f| f.counters.faults_fetched)
        .sum();
    metrics_in(
        END_TO_END,
        &[
            ("wall_s", Some(wall)),
            ("setup_s", Some(setup)),
            ("faults_per_s", Some(ratio(faults as f64, wall))),
            ("peak_rss_mb", Some(peak_rss_mb)),
            ("table1_err_pp", Some(table1_err_pp)),
        ],
    )
}

/// The traced run of one point set.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Host time per layer of the mirrored points, summed over points
    /// (and threads).
    pub layers: LayerTimes,
    /// The same with every recorder off (recording sets only).
    pub layers_off: Option<LayerTimes>,
    /// Wall of the same points through `uvm_sim::run_prepared`, each run
    /// next to its mirror so that host drift hits both alike.
    pub untraced_ns: u64,
    /// Artefact-writer wall (recording sets only).
    pub write_ns: u64,
    /// Summed simulated engine counters of every point.
    pub engine: EngineCounters,
    /// Summed driver counters of every point.
    pub counters: Counters,
    /// What the recorders kept and the writers wrote.
    pub recorded: Recorded,
    /// Every mirrored point's checked output, in point order.
    pub outcomes: Vec<Outcome>,
    /// The same with every recorder off (recording sets only).
    pub outcomes_off: Vec<Outcome>,
    /// Whether any mirrored point disagreed with `run_prepared`.
    pub diverged: bool,
}

impl TracedPass {
    /// Every timed call plus the untimed per-point glue: the traced wall
    /// the layer shares divide. Summed over threads, so that it stays
    /// comparable to the layer times on a parallel set.
    pub fn busy_ns(&self) -> u64 {
        self.layers.generate_ns + self.layers.point_ns + self.write_ns
    }
}

type Slots = Vec<Mutex<Option<Result<SimReport, String>>>>;

/// Drive `set` through the mirrored co-simulation loop on its sweep's
/// thread count, longest trace first. Each point also runs through
/// `run_prepared` on the prefilled `cache` and, on a recording set, once
/// more with recorders off; the order of the runs rotates from point to
/// point. A recording set's artefacts are written under `dir`.
pub fn traced_pass(set: &PointSet, cache: &SweepCache, dir: &Path) -> TracedPass {
    let points = &set.points;
    let mut pass = TracedPass::default();
    // Generate each distinct (seed, workload) trace once, as the sweep does.
    let mut traces: Vec<(u64, &Workload, ManagedSpace, Arc<WorkloadTrace>)> = Vec::new();
    let mut trace_of = Vec::with_capacity(points.len());
    for (config, workload) in points {
        let idx = traces
            .iter()
            .position(|(seed, w, _, _)| *seed == config.seed && *w == workload)
            .unwrap_or_else(|| {
                let (space, trace) = mirror::generate(config, workload, &mut pass.layers);
                traces.push((config.seed, workload, space, trace));
                traces.len() - 1
            });
        trace_of.push(idx);
    }
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(traces[trace_of[i]].3.total_accesses()), i));

    let runs_per_point = if set.records() { 3 } else { 2 };
    let new_slots = || -> Slots { points.iter().map(|_| Mutex::new(None)).collect() };
    let (slots, slots_off) = (new_slots(), new_slots());
    let totals = Mutex::new((LayerTimes::default(), LayerTimes::default(), 0u64));
    let next = AtomicUsize::new(0);
    let worker = || {
        let (mut on, mut off, mut untraced) = (LayerTimes::default(), LayerTimes::default(), 0);
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (_, _, space, trace) = &traces[trace_of[i]];
            for step in 0..runs_per_point {
                match (i + step) % runs_per_point {
                    0 => {
                        let (config, workload) = &points[i];
                        let prepared = cache.get_or_prepare(config, workload);
                        let t0 = Instant::now();
                        // Already checked in the untraced repetitions.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            uvm_sim::run_prepared(config, &prepared)
                        }));
                        untraced += t0.elapsed().as_nanos() as u64;
                    }
                    1 => {
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            mirror::run_point(&points[i].0, space, trace, &mut on)
                        }));
                        *slots[i].lock().expect("a point slot is never poisoned") =
                            Some(run.map_err(panic_message));
                    }
                    _ => {
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            mirror::run_point(&set.disarmed[i].0, space, trace, &mut off)
                        }));
                        *slots_off[i].lock().expect("a point slot is never poisoned") =
                            Some(run.map_err(panic_message));
                    }
                }
            }
        }
        let mut t = totals.lock().expect("the layer totals are never poisoned");
        t.0.merge(&on);
        t.1.merge(&off);
        t.2 += untraced;
    };
    if set.threads <= 1 {
        // On the calling thread, like the serial sweep: a spawned thread
        // gets another allocator arena, which alone moves wall by a few %.
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..set.threads {
                s.spawn(worker);
            }
        });
    }
    let (on, off, untraced) = totals
        .into_inner()
        .expect("no worker panicked outside a point");
    pass.layers.merge(&on);
    pass.layers_off = set.records().then_some(off);
    pass.untraced_ns = untraced;

    let drain = |slots: Slots| -> Vec<Result<SimReport, String>> {
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .ok()
                    .flatten()
                    .unwrap_or_else(|| Err("point never ran".into()))
            })
            .collect()
    };
    let fingerprint = |r: &Result<SimReport, String>| -> Outcome {
        r.as_ref().map_err(Clone::clone).and_then(Fingerprint::of)
    };
    if set.records() {
        pass.outcomes_off = drain(slots_off).iter().map(fingerprint).collect();
    }
    let reports = drain(slots);
    for r in reports.iter().flatten() {
        pass.engine = add_engine(&pass.engine, &r.engine);
        pass.counters.merge(&r.counters);
    }
    pass.outcomes = reports.iter().map(fingerprint).collect();
    if set.records() {
        if let Ok(ok) = reports.into_iter().collect::<Result<Vec<_>, _>>() {
            let _ = std::fs::remove_dir_all(dir);
            let w0 = Instant::now();
            match write_artefacts(&set.labels, &ok, &SweepSchedStats::default(), dir) {
                Ok(rec) => pass.recorded = rec,
                Err(e) => {
                    let msg = format!("writing artefacts under {}: {e}", dir.display());
                    pass.outcomes.iter_mut().for_each(|o| *o = Err(msg.clone()));
                }
            }
            pass.write_ns = w0.elapsed().as_nanos() as u64;
        }
    }
    pass
}

fn add_engine(a: &EngineCounters, b: &EngineCounters) -> EngineCounters {
    EngineCounters {
        resident_accesses: a.resident_accesses + b.resident_accesses,
        faults_raised: a.faults_raised + b.faults_raised,
        faults_coalesced: a.faults_coalesced + b.faults_coalesced,
        faults_throttled: a.faults_throttled + b.faults_throttled,
        faults_dropped: a.faults_dropped + b.faults_dropped,
        replays: a.replays + b.replays,
        steps_completed: a.steps_completed + b.steps_completed,
        retries_skipped: a.retries_skipped + b.retries_skipped,
        retry_pages_skipped: a.retry_pages_skipped + b.retry_pages_skipped,
        wakeups: a.wakeups + b.wakeups,
    }
}

/// Run the traced pass for a measured `set`, checking every mirrored
/// point against the measurement's reference and counting it in its
/// tally.
pub fn trace_workload(set: &PointSet, m: &mut Measurement, dir: &Path) -> TracedPass {
    let name = set.workload.name();
    let mut pass = traced_pass(set, &m.cache, dir);
    let failed_before = m.tally.failed;
    check_against(
        &mut m.tally,
        &format!("{name} mirror"),
        &pass.outcomes,
        &m.reference,
    );
    if set.records() {
        let what = format!("{name} mirror, recorders off");
        check_against(&mut m.tally, &what, &pass.outcomes_off, &m.reference);
    }
    pass.diverged = m.tally.failed > failed_before;
    pass
}

/// The per-layer metrics of a traced workload; every value is withheld
/// when the mirror diverged.
pub fn per_layer(m: &Measurement, p: &TracedPass) -> Vec<Metric> {
    let l = &p.layers;
    let busy = p.busy_ns() as f64;
    let share = |ns: u64| 100.0 * ratio(ns as f64, busy);
    let pass_off = p.layers_off.map_or(l.pass_ns, |o| o.pass_ns);
    let sweep_ns = 1e9
        * median(
            &m.reps
                .iter()
                .map(|r| r.sweep.as_secs_f64())
                .collect::<Vec<_>>(),
        );
    let stolen = median(
        &m.reps
            .iter()
            .map(|r| r.sched.stolen as f64)
            .collect::<Vec<_>>(),
    );
    let plan_ns = median(&m.reps.iter().map(|r| r.plan_ns as f64).collect::<Vec<_>>());
    let straggler_ms = median(
        &m.reps
            .iter()
            .map(|r| r.sched.max_point_wall_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let timed = l.generate_ns + l.run_ns + l.replay_ns + l.pass_ns + l.notify_ns + p.write_ns;
    let overhead_ns = l.point_ns as f64 - p.untraced_ns as f64;
    let values: Vec<(&str, f64)> = vec![
        ("workloads.generate_ns", l.generate_ns as f64),
        ("workloads.accesses", l.accesses as f64),
        ("workloads.share_pct", share(l.generate_ns)),
        ("gpu_model.run_ns", l.run_ns as f64),
        ("gpu_model.run_calls", l.run_calls as f64),
        ("gpu_model.steps_completed", p.engine.steps_completed as f64),
        ("gpu_model.faults_raised", p.engine.faults_raised as f64),
        (
            "gpu_model.faults_throttled",
            p.engine.faults_throttled as f64,
        ),
        ("gpu_model.retries_skipped", p.engine.retries_skipped as f64),
        ("gpu_model.wakeups", p.engine.wakeups as f64),
        (
            "gpu_model.ns_per_step",
            ratio(l.run_ns as f64, p.engine.steps_completed as f64),
        ),
        ("gpu_model.run_share_pct", share(l.run_ns)),
        ("gpu_model.replay_ns", l.replay_ns as f64),
        ("gpu_model.replays", p.engine.replays as f64),
        ("gpu_model.replay_share_pct", share(l.replay_ns)),
        ("uvm_driver.pass_ns", l.pass_ns as f64),
        ("uvm_driver.passes", l.passes as f64),
        (
            "uvm_driver.faults_fetched",
            p.counters.faults_fetched as f64,
        ),
        (
            "uvm_driver.ns_per_fault",
            ratio(l.pass_ns as f64, p.counters.faults_fetched as f64),
        ),
        ("uvm_driver.evictions", p.counters.evictions as f64),
        (
            "uvm_driver.pages_evicted",
            p.counters.pages_evicted_total() as f64,
        ),
        (
            "uvm_driver.pages_prefetched",
            p.counters.pages_prefetched as f64,
        ),
        (
            "uvm_driver.duplicate_ratio",
            ratio(
                p.counters.duplicate_faults as f64,
                p.counters.faults_fetched as f64,
            ),
        ),
        ("uvm_driver.plan_ns", plan_ns),
        ("uvm_driver.notify_ns", l.notify_ns as f64),
        ("uvm_driver.pass_share_pct", share(l.pass_ns + l.notify_ns)),
        ("metrics.recorder_ns", l.pass_ns as f64 - pass_off as f64),
        ("metrics.pass_ns_recorders_off", pass_off as f64),
        ("metrics.events_recorded", p.recorded.events_recorded as f64),
        ("metrics.events_dropped", p.recorded.events_dropped as f64),
        ("uvm_sim.sweep_ns", sweep_ns),
        ("uvm_sim.points_stolen", stolen),
        ("uvm_sim.max_straggler_ms", straggler_ms),
        ("bench.write_ns", p.write_ns as f64),
        ("bench.bytes_written", p.recorded.bytes_written as f64),
        ("bench.write_share_pct", share(p.write_ns)),
        ("traced.wall_ns", busy),
        ("traced.timed_pct", share(timed)),
        ("traced.overhead_ns", overhead_ns),
        (
            "traced.overhead_pct",
            100.0 * ratio(overhead_ns, p.untraced_ns as f64),
        ),
    ];
    let withheld = p.diverged;
    let values: Vec<(&str, Option<f64>)> = values
        .into_iter()
        .map(|(n, v)| (n, (!withheld).then_some(v)))
        .collect();
    metrics_in(PER_LAYER, &values)
}

/// Render the result line: `correct`, `attempted`, `failed`, `metrics`.
/// A withheld value prints as the string `"diverged"`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = match m.value {
                Some(v) if v.is_finite() => format!("{v}"),
                Some(_) => "null".to_string(),
                None => "\"diverged\"".to_string(),
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
