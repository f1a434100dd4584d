//! Run observability for the `repro` harness: trace collection across
//! sweeps and live progress telemetry on stderr.
//!
//! The experiment functions call [`run_sweep`](super::run_sweep) and know
//! nothing about tracing; this module carries the `--trace-out` /
//! `--progress` CLI state as process-global configuration. When tracing
//! is armed, every sweep point's driver config gets span recording (and
//! the per-fault trace) switched on, and each finished report is folded
//! into a [`ChromePoint`] — in report order, so the collected trace is
//! independent of the rayon thread count. When progress is armed, point
//! completions print a throttled stderr line with faults/sec and an ETA,
//! which is what makes the nightly full-scale (12 GB) run operable. The
//! line `\r`-overwrites itself only when stderr is a terminal; redirected
//! to a file (CI logs), each update is a plain newline-terminated line so
//! the log stays readable.

use crate::metricsio::MetricsPoint;
use metrics::{ChromePoint, TimeseriesConfig};
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uvm_sim::{SimConfig, SimReport, SweepCache, Workload};

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static SPAN_CAPACITY: AtomicUsize = AtomicUsize::new(metrics::DEFAULT_SPAN_CAPACITY);
static PROGRESS: AtomicBool = AtomicBool::new(false);
static RETRY_CROSSCHECK: AtomicBool = AtomicBool::new(false);

/// `--metrics-out` arming: when non-zero, every sweep point's driver gets
/// simulated-time telemetry sampling at this interval.
static METRICS_INTERVAL_NS: AtomicU64 = AtomicU64::new(0);
static METRICS_CAPACITY: AtomicUsize = AtomicUsize::new(metrics::DEFAULT_SAMPLE_CAPACITY);

static POINTS: Mutex<Vec<ChromePoint>> = Mutex::new(Vec::new());
static METRICS_POINTS: Mutex<Vec<MetricsPoint>> = Mutex::new(Vec::new());

/// Cross-sweep prepared-workload cache (`repro serve`): when armed, every
/// sweep consults it instead of preparing traces fresh. `None` (the batch
/// default) keeps the old per-sweep dedup only.
static SWEEP_CACHE: Mutex<Option<Arc<SweepCache>>> = Mutex::new(None);

/// Streaming progress sink (`repro serve`): when set, every finished
/// sweep point — un-throttled, unlike the stderr line — is reported to
/// the sink from whichever worker thread completed it.
static PROGRESS_SINK: Mutex<Option<ProgressSink>> = Mutex::new(None);

/// One un-throttled progress observation from a finished sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressUpdate {
    /// Points finished in the current sweep (including this one).
    pub done: u64,
    /// Points the current sweep contains.
    pub total: u64,
    /// Simulated faults accumulated by the sweep so far.
    pub faults: u64,
    /// Host seconds since the sweep began.
    pub elapsed_secs: f64,
    /// Simulated faults per host second.
    pub faults_per_sec: f64,
    /// Naive remaining-time estimate in seconds.
    pub eta_seconds: f64,
}

/// Boxed progress callback; called from sweep worker threads.
pub type ProgressSink = Box<dyn Fn(&ProgressUpdate) + Send + Sync>;

/// Install (or clear, with `None`) the streaming progress sink.
pub fn set_progress_sink(sink: Option<ProgressSink>) {
    *PROGRESS_SINK.lock().unwrap() = sink;
}

/// Arm (or disarm, with `None`) the cross-sweep prepared-workload cache.
pub fn set_sweep_cache(cache: Option<Arc<SweepCache>>) {
    *SWEEP_CACHE.lock().unwrap() = cache;
}

/// The armed cross-sweep cache, if any.
pub fn sweep_cache() -> Option<Arc<SweepCache>> {
    SWEEP_CACHE.lock().unwrap().clone()
}

/// Per-sweep progress counters (reset by [`sweep_begin`]).
static DONE: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static FAULTS: AtomicU64 = AtomicU64::new(0);
/// Milliseconds-since-sweep-start of the last emitted progress line
/// (throttle state; u64::MAX = nothing emitted yet).
static LAST_EMIT_MS: AtomicU64 = AtomicU64::new(u64::MAX);
static SWEEP_START: Mutex<Option<Instant>> = Mutex::new(None);

/// Minimum milliseconds between progress lines.
const EMIT_EVERY_MS: u64 = 500;

/// Per-point cap on captured fault instants in traced runs. The
/// per-fault recorder defaults to millions of events (sized for CSV
/// scatter export); a viewer-bound trace only needs the leading sample —
/// drops are counted and reported in the `uvmSim` metadata. At ~130
/// bytes/instant this keeps a 28-point fig1 trace in the low hundreds
/// of MB instead of ~1 GB.
const FAULT_EVENT_CAPACITY: usize = 1 << 14;

/// Arm span/fault-trace capture for every subsequent sweep, with the
/// given per-run span buffer capacity.
pub fn enable_tracing(span_capacity: usize) {
    SPAN_CAPACITY.store(span_capacity.max(1), Ordering::Relaxed);
    TRACE_ENABLED.store(true, Ordering::Relaxed);
}

/// True if sweeps are currently collecting traces.
pub fn tracing_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm the live stderr progress line. The `repro` default is
/// on when stderr is a terminal, off when redirected.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Default progress choice absent an explicit flag.
pub fn progress_default() -> bool {
    stderr_is_tty()
}

/// Whether stderr is a live terminal — the single TTY probe behind the
/// progress default, the `\r`-overwrite choice, and the renderers'
/// stderr status gating.
pub fn stderr_is_tty() -> bool {
    std::io::stderr().is_terminal()
}

/// Drain every [`ChromePoint`] collected since the last call, in the
/// order the sweeps' reports were returned (deterministic).
pub fn take_points() -> Vec<ChromePoint> {
    std::mem::take(&mut *POINTS.lock().unwrap())
}

/// Arm simulated-time telemetry sampling for every subsequent sweep
/// (`repro --metrics-out`): each point's driver samples its counters on
/// a `interval_ns` grid of the virtual clock into a buffer of at most
/// `capacity` samples (compacting in place past that).
pub fn enable_metrics(interval_ns: u64, capacity: usize) {
    METRICS_CAPACITY.store(capacity.max(2), Ordering::Relaxed);
    METRICS_INTERVAL_NS.store(interval_ns.max(1), Ordering::Relaxed);
}

/// True if sweeps are currently collecting telemetry samples.
pub fn metrics_enabled() -> bool {
    METRICS_INTERVAL_NS.load(Ordering::Relaxed) > 0
}

/// Drain every [`MetricsPoint`] collected since the last call, in report
/// order (deterministic).
pub fn take_metrics_points() -> Vec<MetricsPoint> {
    std::mem::take(&mut *METRICS_POINTS.lock().unwrap())
}

/// Run every subsequent sweep point in engine retry cross-check mode
/// (`repro --retry-crosscheck`): the event-driven replay bookkeeping and
/// the reference rescan both execute, with hard asserts that the closed
/// form reproduces the scan's exact effects. Slow; CI equivalence gate.
pub fn set_retry_crosscheck(on: bool) {
    RETRY_CROSSCHECK.store(on, Ordering::Relaxed);
}

/// Rewrite the sweep's driver configs: switch on retry cross-checking
/// when it is armed, telemetry sampling when metrics are armed, and
/// span/fault-trace recording when tracing is armed.
pub fn instrument_points(points: &mut [(SimConfig, Workload)]) {
    if RETRY_CROSSCHECK.load(Ordering::Relaxed) {
        for (config, _) in points.iter_mut() {
            config.gpu.retry = uvm_sim::gpu_model::RetryMode::CrossCheck;
        }
    }
    let interval_ns = METRICS_INTERVAL_NS.load(Ordering::Relaxed);
    if interval_ns > 0 {
        let capacity = METRICS_CAPACITY.load(Ordering::Relaxed);
        for (config, _) in points.iter_mut() {
            // Sampling also arms the driver's fault lineage: the
            // `.lineage` artefact is what `repro lineage` and the
            // reconciliation gate consume.
            config.driver.timeseries = Some(TimeseriesConfig {
                interval_ns,
                capacity,
            });
        }
    }
    if !tracing_enabled() {
        return;
    }
    let cap = SPAN_CAPACITY.load(Ordering::Relaxed);
    for (config, _) in points.iter_mut() {
        config.driver.span_capacity = Some(cap);
        config.driver.trace_capacity = Some(FAULT_EVENT_CAPACITY);
    }
}

/// Reset the progress counters for a sweep of `n` points.
pub fn sweep_begin(n: usize) {
    DONE.store(0, Ordering::Relaxed);
    TOTAL.store(n as u64, Ordering::Relaxed);
    FAULTS.store(0, Ordering::Relaxed);
    LAST_EMIT_MS.store(u64::MAX, Ordering::Relaxed);
    *SWEEP_START.lock().unwrap() = Some(Instant::now());
}

/// Note one finished point (called from sweep worker threads; thread-safe
/// and ordering-independent). Emits a throttled progress line when armed.
pub fn on_point_done(report: &SimReport) {
    let done = DONE.fetch_add(1, Ordering::Relaxed) + 1;
    let faults = FAULTS.fetch_add(report.total_faults(), Ordering::Relaxed)
        + report.total_faults();
    let sinking = PROGRESS_SINK.lock().unwrap().is_some();
    if !PROGRESS.load(Ordering::Relaxed) && !sinking {
        return;
    }
    let total = TOTAL.load(Ordering::Relaxed);
    let elapsed = match *SWEEP_START.lock().unwrap() {
        Some(t0) => t0.elapsed(),
        None => return,
    };
    if sinking {
        let secs = elapsed.as_secs_f64().max(1e-9);
        let update = ProgressUpdate {
            done,
            total,
            faults,
            elapsed_secs: secs,
            faults_per_sec: faults as f64 / secs,
            eta_seconds: secs / done as f64 * (total.saturating_sub(done)) as f64,
        };
        // The sink gets every point, un-throttled: a streamed NDJSON
        // frame per point is cheap; skipping some would hide stragglers.
        if let Some(sink) = &*PROGRESS_SINK.lock().unwrap() {
            sink(&update);
        }
    }
    if !PROGRESS.load(Ordering::Relaxed) {
        return;
    }
    let now_ms = elapsed.as_millis() as u64;
    let last = LAST_EMIT_MS.load(Ordering::Relaxed);
    let due = last == u64::MAX || now_ms.saturating_sub(last) >= EMIT_EVERY_MS;
    if !(due || done == total)
        || LAST_EMIT_MS
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
    {
        return; // not due yet, or another thread just emitted
    }
    let secs = elapsed.as_secs_f64().max(1e-9);
    let rate = faults as f64 / secs;
    let eta = if done > 0 {
        secs / done as f64 * (total.saturating_sub(done)) as f64
    } else {
        0.0
    };
    let stderr = std::io::stderr();
    // `\r` overwrite only makes sense on a live terminal; in a redirected
    // log every update gets its own line.
    let tty = stderr_is_tty();
    let mut err = stderr.lock();
    let line = format!(
        "  {done}/{total} points  {:.2}M sim faults  {:.0}k faults/s  ETA {:.0}s",
        faults as f64 / 1e6,
        rate / 1e3,
        eta
    );
    let _ = if tty {
        write!(err, "\r{line}   ")
    } else {
        writeln!(err, "{line}")
    };
    let _ = err.flush();
}

/// Finish a sweep's progress line (newline-terminate the `\r` overwrite;
/// a non-terminal stderr already got newline-terminated lines).
pub fn sweep_end() {
    if PROGRESS.load(Ordering::Relaxed)
        && LAST_EMIT_MS.load(Ordering::Relaxed) != u64::MAX
        && stderr_is_tty()
    {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err);
        let _ = err.flush();
    }
}

/// When tracing is armed, fold the sweep's finished reports (in report
/// order) into the collected Chrome-trace points.
pub fn collect_reports(reports: &[SimReport]) {
    if !tracing_enabled() {
        return;
    }
    let mut points = POINTS.lock().unwrap();
    for r in reports {
        let n = points.len();
        points.push(ChromePoint {
            label: format!("[{n}] {} r={:.2}", r.workload, r.subscription_ratio),
            spans: r.span_trace.clone(),
            faults: r.trace.clone(),
            fault_drops: r.trace_dropped,
            timers: r.timers,
        });
    }
}

/// When metrics are armed, fold the sweep's finished reports (in report
/// order) into the collected metrics points. `policies` carries the
/// per-point prefetch-policy labels, captured from the configs before
/// the sweep consumed them.
pub fn collect_metrics(policies: &[&'static str], reports: &[SimReport]) {
    if !metrics_enabled() {
        return;
    }
    let mut points = METRICS_POINTS.lock().unwrap();
    for (i, r) in reports.iter().enumerate() {
        points.push(MetricsPoint {
            workload: r.workload.clone(),
            ratio: r.subscription_ratio,
            policy: policies.get(i).copied().unwrap_or("unknown"),
            counters: r.counters,
            h2d_bytes: r.transfers.h2d_bytes,
            d2h_bytes: r.transfers.d2h_bytes,
            trace_dropped: r.trace_dropped,
            span_dropped: r.span_trace.dropped,
            total_time_ns: r.total_time.as_nanos(),
            timeseries: r.timeseries.clone(),
            attribution: r.attribution,
            top_offenders: r.top_offenders.clone(),
            lineage: r.lineage.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;
    use uvm_sim::WorkloadKind;

    /// Tracing state is process-global, so exercise the whole arm →
    /// instrument → collect → drain path in one test.
    #[test]
    fn armed_tracing_instruments_and_collects() {
        let s = Scale::QUICK;
        let mut points = vec![(s.config(), s.workload(WorkloadKind::Regular, 0.05))];
        assert_eq!(points[0].0.driver.span_capacity, None);
        enable_tracing(1 << 14);
        instrument_points(&mut points);
        assert_eq!(points[0].0.driver.span_capacity, Some(1 << 14));
        assert_eq!(points[0].0.driver.trace_capacity, Some(FAULT_EVENT_CAPACITY));

        let reports = uvm_sim::run_sweep(points);
        collect_reports(&reports);
        TRACE_ENABLED.store(false, Ordering::Relaxed);
        // Other tests' sweeps may have been collected while tracing was
        // armed (the state is process-global); every point must reconcile.
        let collected = take_points();
        assert!(!collected.is_empty());
        for p in &collected {
            assert_eq!(
                p.spans.reconciled_totals(),
                p.timers,
                "collected spans reconcile with the report timers ({})",
                p.label
            );
        }
        assert!(collected.iter().any(|p| !p.spans.events.is_empty()));
    }

    /// Metrics arming is process-global too: arm → instrument → run →
    /// collect → drain, then verify the collected point reconciles with
    /// its report.
    #[test]
    fn armed_metrics_instrument_and_collect() {
        let s = Scale::QUICK;
        let mut points = vec![(s.config(), s.workload(WorkloadKind::Regular, 0.05))];
        assert_eq!(points[0].0.driver.timeseries, None);
        enable_metrics(100_000, 512);
        instrument_points(&mut points);
        assert_eq!(
            points[0].0.driver.timeseries,
            Some(TimeseriesConfig {
                interval_ns: 100_000,
                capacity: 512,
            })
        );

        let policies = vec![points[0].0.driver.prefetch.label()];
        let reports = uvm_sim::run_sweep(points);
        collect_metrics(&policies, &reports);
        METRICS_INTERVAL_NS.store(0, Ordering::Relaxed);
        // Other tests' sweeps may have been collected while metrics were
        // armed (the state is process-global); every point must carry a
        // non-empty stream whose forced final sample reconciles.
        let collected = take_metrics_points();
        assert!(!collected.is_empty());
        for p in &collected {
            let last = p.timeseries.last().expect("armed run produced samples");
            assert_eq!(last.faults_fetched, p.counters.faults_fetched, "{}", p.workload);
            assert_eq!(last.migrated_bytes_h2d, p.h2d_bytes, "{}", p.workload);
            assert!(!p.lineage.is_empty(), "metrics arming also arms lineage ({})", p.workload);
            assert_eq!(last.lineage_events, p.lineage.events_total(), "{}", p.workload);
            p.lineage
                .reconcile(last)
                .unwrap_or_else(|e| panic!("{}: {e}", p.workload));
        }
        let rendered = crate::metricsio::render_exposition(&collected, None);
        metrics::exposition::validate(&rendered).expect("collected points render validly");
    }

    #[test]
    fn progress_counters_track_points() {
        sweep_begin(3);
        assert_eq!(TOTAL.load(Ordering::Relaxed), 3);
        assert_eq!(DONE.load(Ordering::Relaxed), 0);
        sweep_end();
    }

    /// The serve path: a progress sink sees every finished point
    /// un-throttled, and an armed sweep cache carries prepared workloads
    /// across sweeps without changing simulated output.
    #[test]
    fn progress_sink_and_sweep_cache_feed_serve() {
        let s = Scale::QUICK;
        // A seed no other (concurrently running) test uses, so this
        // test's cache keys are its own.
        let point = |ratio| {
            (
                s.config().with_seed(4242),
                s.workload(WorkloadKind::Regular, ratio),
            )
        };
        let updates: Arc<Mutex<Vec<ProgressUpdate>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_updates = Arc::clone(&updates);
        set_progress_sink(Some(Box::new(move |u| {
            sink_updates.lock().unwrap().push(*u)
        })));
        let cache = Arc::new(SweepCache::new(8));
        set_sweep_cache(Some(Arc::clone(&cache)));

        let first = crate::experiments::run_sweep(vec![point(0.05), point(0.05)]);
        let second = crate::experiments::run_sweep(vec![point(0.05)]);
        set_sweep_cache(None);
        set_progress_sink(None);

        // Cache reuse is invisible in the simulated output.
        assert_eq!(first[0].counters, second[0].counters);
        assert_eq!(first[0].total_time, second[0].total_time);
        assert!(
            cache.stats().hits >= 1,
            "second sweep must reuse the first sweep's prepared trace"
        );
        // Every point produced an un-throttled update; the final one of
        // the two-point sweep reports done == total == 2.
        let got = updates.lock().unwrap();
        assert!(got.len() >= 3, "sink saw {} updates", got.len());
        assert!(got.iter().any(|u| u.total == 2 && u.done == 2));
        for u in got.iter() {
            assert!(u.done <= u.total);
            assert!(u.elapsed_secs > 0.0);
        }
    }
}
