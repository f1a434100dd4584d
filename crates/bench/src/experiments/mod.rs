//! Shared experiment plumbing: the scale knob, config presets, parallel
//! sweep execution, and the artifact type every experiment returns.

pub mod ablations;
pub mod extras;
pub mod figures;
pub mod obs;
pub mod oversub;
pub mod tables;

use metrics::report::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use uvm_sim::{SimConfig, SimReport, Workload, WorkloadKind};

/// Geometric scale of the simulated platform relative to the paper's
/// Titan V (12 GB). Footprints are specified as subscription *ratios*, so
/// crossover positions are scale-invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// GPU memory = 12 GB × `fraction`.
    pub fraction: f64,
}

impl Scale {
    /// Default experiment scale: 12 GB / 16 = 768 MiB of GPU memory.
    pub const DEFAULT: Scale = Scale {
        fraction: 1.0 / 16.0,
    };

    /// Quick scale for Criterion benches and smoke tests: 12 GB / 128.
    pub const QUICK: Scale = Scale {
        fraction: 1.0 / 128.0,
    };

    /// GPU memory in bytes at this scale: the device size of
    /// [`Scale::config`], floor included, so workloads are sized against
    /// the memory they actually run on.
    pub fn gpu_bytes(&self) -> u64 {
        self.config().driver.gpu_memory_bytes
    }

    /// Base simulation config at this scale.
    pub fn config(&self) -> SimConfig {
        SimConfig::scaled(self.fraction)
    }

    /// A workload of `kind` sized to `ratio` × GPU memory. Compute-rate
    /// parameters are scaled alongside memory so the compute/transfer
    /// balance of the full-size platform is preserved.
    pub fn workload(&self, kind: WorkloadKind, ratio: f64) -> Workload {
        let mut w = Workload::with_footprint(kind, (self.gpu_bytes() as f64 * ratio) as u64);
        if let Workload::Sgemm(p) = &mut w {
            p.gpu_flops *= self.fraction;
        }
        w
    }
}

/// What an experiment produces: a rendered table plus any CSV artifacts
/// (scatter data for the figure plots).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The table/series the paper reports.
    pub table: Table,
    /// Named CSV blobs (e.g. fault scatter data per workload).
    pub csvs: Vec<(String, String)>,
}

impl Artifact {
    /// An artifact with just a table.
    pub fn table(table: Table) -> Self {
        Artifact {
            table,
            csvs: Vec::new(),
        }
    }
}

/// An experiment entry point: scale in, rendered artifact out.
pub type ExperimentFn = fn(Scale) -> Artifact;

/// Every experiment the harness can run, by CLI name. The single source
/// of truth for both the batch `repro <experiment>` path and the serve
/// daemon's request validation, so the two can never drift.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig1", figures::fig1),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("ablation_replay", ablations::ablation_replay),
    ("ablation_threshold", ablations::ablation_threshold),
    ("ablation_granularity", ablations::ablation_granularity),
    ("ablation_eviction", ablations::ablation_eviction),
    ("ablation_batch_size", ablations::ablation_batch_size),
    ("ablation_prefetcher", ablations::ablation_prefetcher),
    ("ablation_thrash", extras::ablation_thrash),
    ("extra_warm_start", extras::extra_warm_start),
    ("extra_batch_composition", extras::extra_batch_composition),
    ("extra_prefetch_waste", extras::extra_prefetch_waste),
    ("extra_interconnect", extras::extra_interconnect),
];

/// Look up an experiment by CLI name.
pub fn find_experiment(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

/// Simulated faults observed by every sweep since the last
/// [`take_sim_totals`] call (feeds the `repro --json` throughput report).
static SWEEP_FAULTS: AtomicU64 = AtomicU64::new(0);
/// Completed warp-steps across the same sweeps.
static SWEEP_STEPS: AtomicU64 = AtomicU64::new(0);
/// Pages evicted across the same sweeps (trend headline metric).
static SWEEP_EVICTED: AtomicU64 = AtomicU64::new(0);
/// Pages prefetched across the same sweeps.
static SWEEP_PREFETCHED: AtomicU64 = AtomicU64::new(0);
/// Pages migrated H2D across the same sweeps (coverage denominator).
static SWEEP_H2D_PAGES: AtomicU64 = AtomicU64::new(0);
/// Engine retries resolved arithmetically (event-driven replay skip).
static SWEEP_RETRIES_SKIPPED: AtomicU64 = AtomicU64::new(0);
/// Pending pages covered by the arithmetic retries.
static SWEEP_RETRY_PAGES_SKIPPED: AtomicU64 = AtomicU64::new(0);
/// Stalled blocks woken by residency change events.
static SWEEP_WAKEUPS: AtomicU64 = AtomicU64::new(0);

/// Simulated-work totals accumulated across [`run_sweep`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTotals {
    /// Driver-observed faults.
    pub faults: u64,
    /// Completed warp-steps.
    pub warp_steps: u64,
    /// Pages evicted from GPU memory.
    pub pages_evicted: u64,
    /// Pages brought in by the prefetcher.
    pub pages_prefetched: u64,
    /// Pages migrated host→device (faulted + prefetched).
    pub pages_h2d: u64,
    /// Engine retries resolved arithmetically by the event-driven replay
    /// path (no residency loads).
    pub retries_skipped: u64,
    /// Pending pages covered by `retries_skipped`.
    pub retry_pages_skipped: u64,
    /// Stalled blocks woken for rescan by residency change events.
    pub wakeups: u64,
}

impl SweepTotals {
    /// Pages evicted per fault (0 when no faults).
    pub fn evictions_per_fault(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.pages_evicted as f64 / self.faults as f64
        }
    }

    /// Prefetched share of all H2D page migrations, percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.pages_h2d == 0 {
            0.0
        } else {
            self.pages_prefetched as f64 * 100.0 / self.pages_h2d as f64
        }
    }
}

/// Drain the accumulated simulated-work totals. Counts everything that
/// flowed through [`run_sweep`] since the last call — the harness divides
/// by wall time for faults/sec and warp-steps/sec throughput, and feeds
/// the ratio metrics into the `ci_trend` perf record.
pub fn take_sim_totals() -> SweepTotals {
    SweepTotals {
        faults: SWEEP_FAULTS.swap(0, Ordering::Relaxed),
        warp_steps: SWEEP_STEPS.swap(0, Ordering::Relaxed),
        pages_evicted: SWEEP_EVICTED.swap(0, Ordering::Relaxed),
        pages_prefetched: SWEEP_PREFETCHED.swap(0, Ordering::Relaxed),
        pages_h2d: SWEEP_H2D_PAGES.swap(0, Ordering::Relaxed),
        retries_skipped: SWEEP_RETRIES_SKIPPED.swap(0, Ordering::Relaxed),
        retry_pages_skipped: SWEEP_RETRY_PAGES_SKIPPED.swap(0, Ordering::Relaxed),
        wakeups: SWEEP_WAKEUPS.swap(0, Ordering::Relaxed),
    }
}

/// Run a set of (config, workload) points in parallel, preserving order.
/// Wraps [`uvm_sim::run_sweep_cached_with`] (which dedupes trace generation
/// across points sharing a `(workload, seed)` pair) with the harness's
/// observability: when `repro` armed tracing, span/fault capture is
/// switched on per point and the finished reports are folded into the
/// Chrome-trace collection; when progress is armed, point completions
/// drive the live stderr telemetry line.
pub fn run_sweep(points: Vec<(SimConfig, Workload)>) -> Vec<SimReport> {
    // The sweep consumes the configs; keep the per-point prefetch-policy
    // labels for the metrics exposition.
    let policies: Vec<&'static str> = points
        .iter()
        .map(|(config, _)| config.driver.prefetch.label())
        .collect();
    run_sweep_labelled(points, policies)
}

/// [`run_sweep`] with caller-chosen per-point policy labels for the
/// metrics exposition (the oversub sweep labels points by *eviction*
/// policy, everything else by prefetch policy).
pub fn run_sweep_labelled(
    mut points: Vec<(SimConfig, Workload)>,
    policies: Vec<&'static str>,
) -> Vec<SimReport> {
    assert_eq!(points.len(), policies.len());
    obs::instrument_points(&mut points);
    obs::sweep_begin(points.len());
    // When `repro serve` armed the cross-sweep cache, prepared workloads
    // persist across requests; batch runs pass `None` and keep the plain
    // per-sweep dedup. Bit-identical either way.
    let cache = obs::sweep_cache();
    let reports =
        uvm_sim::run_sweep_cached_with(cache.as_deref(), points, |_, r| obs::on_point_done(r));
    obs::sweep_end();
    obs::collect_reports(&reports);
    obs::collect_metrics(&policies, &reports);
    let faults: u64 = reports.iter().map(|r| r.total_faults()).sum();
    let steps: u64 = reports.iter().map(|r| r.engine.steps_completed).sum();
    let evicted: u64 = reports.iter().map(|r| r.counters.pages_evicted_total()).sum();
    let prefetched: u64 = reports.iter().map(|r| r.counters.pages_prefetched).sum();
    let h2d: u64 = reports.iter().map(|r| r.counters.pages_migrated_h2d()).sum();
    let skipped: u64 = reports.iter().map(|r| r.engine.retries_skipped).sum();
    let pages_skipped: u64 = reports.iter().map(|r| r.engine.retry_pages_skipped).sum();
    let wakeups: u64 = reports.iter().map(|r| r.engine.wakeups).sum();
    SWEEP_FAULTS.fetch_add(faults, Ordering::Relaxed);
    SWEEP_STEPS.fetch_add(steps, Ordering::Relaxed);
    SWEEP_EVICTED.fetch_add(evicted, Ordering::Relaxed);
    SWEEP_PREFETCHED.fetch_add(prefetched, Ordering::Relaxed);
    SWEEP_H2D_PAGES.fetch_add(h2d, Ordering::Relaxed);
    SWEEP_RETRIES_SKIPPED.fetch_add(skipped, Ordering::Relaxed);
    SWEEP_RETRY_PAGES_SKIPPED.fetch_add(pages_skipped, Ordering::Relaxed);
    SWEEP_WAKEUPS.fetch_add(wakeups, Ordering::Relaxed);
    reports
}

/// Milliseconds with 3 decimals for table cells.
pub fn ms(d: sim_engine::SimDuration) -> String {
    format!("{:.3}", d.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::GIB;

    #[test]
    fn scale_arithmetic() {
        assert_eq!(Scale::DEFAULT.gpu_bytes(), 12 * GIB / 16);
        let cfg = Scale::DEFAULT.config();
        assert_eq!(cfg.driver.gpu_memory_bytes, 12 * GIB / 16);
        // Past 12 GiB / 1536 the device floor holds, and workloads are
        // sized against it.
        let tiny = Scale { fraction: 1.0 / 4096.0 };
        assert_eq!(tiny.gpu_bytes(), tiny.config().driver.gpu_memory_bytes);
        assert_eq!(tiny.gpu_bytes(), 8 << 20);
    }

    #[test]
    fn workload_ratio_sizing() {
        let w = Scale::DEFAULT.workload(WorkloadKind::Regular, 0.5);
        let ratio = w.footprint_bytes() as f64 / Scale::DEFAULT.gpu_bytes() as f64;
        assert!((ratio - 0.5).abs() < 0.01);
    }

    #[test]
    fn sweep_runs_in_order() {
        let s = Scale::QUICK;
        let points = vec![
            (s.config(), s.workload(WorkloadKind::Regular, 0.05)),
            (s.config(), s.workload(WorkloadKind::Regular, 0.1)),
        ];
        let reports = run_sweep(points);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].footprint_bytes < reports[1].footprint_bytes);
    }
}
