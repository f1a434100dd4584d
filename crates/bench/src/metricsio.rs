//! Metrics export, the on-disk artefact layout, reporting, and the
//! perf-regression gate for the `repro` harness.
//!
//! * [`write_experiment`] — `repro --metrics-out <dir>`: one sample CSV
//!   per sweep point plus a Prometheus text-exposition snapshot per
//!   experiment, each point labelled by `workload`/`ratio`/`policy`.
//! * [`load_artefacts`] — the one reader of that layout (and of traces
//!   and `oversub.tsv` heatmaps): walks the given paths once and returns
//!   the typed [`Artefacts`] set that `repro report`, `explain`,
//!   `lineage` and `check` consume. [`check_artefacts`] runs every
//!   reconciliation that applies to a loaded set (`repro check`).
//! * [`render_report`] — `repro report <dir>`: renders per-run cost
//!   decompositions in the shape of the paper's Figs. 8–10 (a
//!   fault-vs-eviction timeline per point, and a summary of data moved /
//!   evictions / coverage per point).
//! * [`evaluate_trend`] / [`render_findings`] — `repro regress`: compare
//!   the newest `ci_trend` entry of each benchmark series against the
//!   median of its history, flagging wall-time, throughput, eviction-rate
//!   and coverage regressions beyond a configurable threshold.

use metrics::exposition::{MetricDef, MetricKind};
use metrics::lineage::analyze;
use metrics::oversub::{parse_table, ratio_label, Cliff, OversubCell};
use metrics::report::Table;
use metrics::sched::{SWEEP_MAX_STRAGGLER_MS, SWEEP_POINTS, SWEEP_THREADS};
use metrics::timeseries::{parse_csv, Sample};
use metrics::{
    Attribution, Counters, Exposition, Histogram, LineageEventKind, LineageLog, Offender,
    SweepSchedStats, Timeseries, ATTRIBUTION_REGISTRY, COUNTER_REGISTRY,
};
use serde::Value;
use sim_engine::units::PAGE_SIZE;
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// One finished sweep point with everything the metrics artefacts need.
#[derive(Debug, Clone)]
pub struct MetricsPoint {
    /// Workload label (`regular`, `random`, `sgemm`, …).
    pub workload: String,
    /// Subscription ratio (footprint ÷ GPU memory).
    pub ratio: f64,
    /// Prefetch-policy label (`density`, `disabled`, …).
    pub policy: &'static str,
    /// End-of-run driver counters.
    pub counters: Counters,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Fault-trace events dropped at the recorder's capacity.
    pub trace_dropped: u64,
    /// Span events dropped at the recorder's capacity.
    pub span_dropped: u64,
    /// End-to-end kernel time, simulated ns.
    pub total_time_ns: u64,
    /// The sampled telemetry stream.
    pub timeseries: Timeseries,
    /// The fault-provenance ledger (always collected).
    pub attribution: Attribution,
    /// Worst-thrashing VABlocks by attribution badness, descending.
    pub top_offenders: Vec<Offender>,
    /// Fault-lineage event log, per-kind totals, and flight dumps.
    pub lineage: LineageLog,
}

impl MetricsPoint {
    /// Filesystem-safe per-point stem, e.g. `03_regular_r1.25_density`.
    pub fn file_stem(&self, index: usize) -> String {
        let workload: String = self
            .workload
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{index:02}_{workload}_r{:.2}_{}", self.ratio, self.policy)
    }
}

const MIGRATED_BYTES: MetricDef = MetricDef {
    name: "uvm_migrated_bytes_total",
    kind: MetricKind::Counter,
    help: "Bytes moved over the interconnect, by direction.",
};
const REFAULTS: MetricDef = MetricDef {
    name: "uvm_refaults_total",
    kind: MetricKind::Counter,
    help: "Faults on previously-evicted VABlocks (evict-before-reuse thrash).",
};
const TRACE_DROPPED: MetricDef = MetricDef {
    name: "uvm_trace_dropped_total",
    kind: MetricKind::Counter,
    help: "Per-fault trace events dropped at the recorder's capacity.",
};
const SPAN_DROPPED: MetricDef = MetricDef {
    name: "uvm_span_dropped_total",
    kind: MetricKind::Counter,
    help: "Span events dropped at the recorder's capacity.",
};
const TS_COMPACTIONS: MetricDef = MetricDef {
    name: "uvm_timeseries_compactions_total",
    kind: MetricKind::Counter,
    help: "In-place sample-buffer compactions (each doubles the interval).",
};
const SIM_TIME: MetricDef = MetricDef {
    name: "uvm_sim_time_ns",
    kind: MetricKind::Gauge,
    help: "End-to-end simulated kernel time.",
};
const RESIDENT: MetricDef = MetricDef {
    name: "uvm_resident_pages",
    kind: MetricKind::Gauge,
    help: "Pages backed by GPU physical memory at end of run.",
};
const LRU_BLOCKS: MetricDef = MetricDef {
    name: "uvm_lru_tracked_blocks",
    kind: MetricKind::Gauge,
    help: "VABlocks tracked by the eviction LRU at end of run.",
};
const COVERAGE: MetricDef = MetricDef {
    name: "uvm_prefetch_coverage_percent",
    kind: MetricKind::Gauge,
    help: "Prefetched share of all H2D page migrations, percent.",
};
const EVICT_PER_FAULT: MetricDef = MetricDef {
    name: "uvm_evictions_per_fault",
    kind: MetricKind::Gauge,
    help: "Pages evicted per driver-observed fault (Table II tail metric).",
};
const BATCH_LATENCY: MetricDef = MetricDef {
    name: "uvm_batch_latency_ns",
    kind: MetricKind::Gauge,
    help: "Per-pass driver critical-path latency percentile, simulated ns.",
};
const TS_SAMPLES: MetricDef = MetricDef {
    name: "uvm_timeseries_samples",
    kind: MetricKind::Gauge,
    help: "Telemetry samples recorded for the run.",
};
const EVICT_BEFORE_USE: MetricDef = MetricDef {
    name: "uvm_evict_before_use_percent",
    kind: MetricKind::Gauge,
    help: "Share of evicted pages that were never touched during their \
           residency (prefetch-eviction antagonism), percent.",
};
const OFFENDER_BADNESS: MetricDef = MetricDef {
    name: "uvm_offender_badness",
    kind: MetricKind::Gauge,
    help: "Attribution badness (refaults + prefetched-evicted pages) of \
           the run's worst-thrashing VABlocks, labelled by block index.",
};
const LINEAGE_EVENTS: MetricDef = MetricDef {
    name: "uvm_lineage_events",
    kind: MetricKind::Gauge,
    help: "Fault-lineage events recorded for the run (exact per-kind totals).",
};
const LINEAGE_DROPPED: MetricDef = MetricDef {
    name: "uvm_lineage_dropped",
    kind: MetricKind::Gauge,
    help: "Lineage events dropped at the log's capacity (totals stay exact).",
};
const FLIGHT_DUMPS: MetricDef = MetricDef {
    name: "uvm_flight_dumps",
    kind: MetricKind::Gauge,
    help: "Anomaly-triggered flight-recorder dumps captured during the run.",
};

/// Workspace version of the binary, from Cargo at compile time.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Short git commit the binary was built from (`build.rs`), or
/// `"unknown"` outside a git checkout.
pub fn build_git() -> &'static str {
    match option_env!("REPRO_GIT_SHA") {
        Some(sha) if !sha.is_empty() => sha,
        _ => "unknown",
    }
}

/// Human-readable build identity, e.g. `0.1.0+g1a2b3c4d5e6f` — the same
/// string `uvm_build_info` exposes via labels and `repro --json` records.
pub fn build_info() -> String {
    format!("{}+g{}", build_version(), build_git())
}

/// Push the `uvm_build_info{version,git} 1` identity gauge.
pub fn push_build_info(exp: &mut Exposition) {
    exp.push(
        &metrics::serve::BUILD_INFO,
        &[("version", build_version()), ("git", build_git())],
        1.0,
    );
}

/// Push a set of finished points' families into an exposition under
/// assembly. Every sample carries `workload`/`ratio`/`policy` labels,
/// prefixed by `extra` (the serve daemon passes `request`/`experiment`
/// here; the batch path passes `&[]`); the counter families come from
/// [`metrics::COUNTER_REGISTRY`], so the exposition cannot drift from
/// the `Counters` struct. `sched` (when present) adds the
/// experiment-wide sweep-scheduler gauges — host wall-time stats, so
/// they are labelled per experiment (plus `extra`), never per point.
pub fn push_points(
    exp: &mut Exposition,
    points: &[MetricsPoint],
    sched: Option<&SweepSchedStats>,
    extra: &[(&str, &str)],
) {
    for p in points {
        let ratio = format!("{:.2}", p.ratio);
        let mut base: Vec<(&str, &str)> = Vec::with_capacity(extra.len() + 4);
        base.extend_from_slice(extra);
        base.push(("workload", p.workload.as_str()));
        base.push(("ratio", ratio.as_str()));
        base.push(("policy", p.policy));
        fn with<'a>(
            base: &[(&'a str, &'a str)],
            l: (&'a str, &'a str),
        ) -> Vec<(&'a str, &'a str)> {
            let mut labels = base.to_vec();
            labels.push(l);
            labels
        }
        for m in COUNTER_REGISTRY {
            exp.push(&m.def, &base, (m.read)(&p.counters) as f64);
        }
        for m in ATTRIBUTION_REGISTRY {
            exp.push(&m.def, &base, (m.read)(&p.attribution) as f64);
        }
        exp.push(
            &EVICT_BEFORE_USE,
            &base,
            p.attribution.evict_before_use_bp() as f64 / 100.0,
        );
        for o in &p.top_offenders {
            let block = o.block.to_string();
            exp.push(
                &OFFENDER_BADNESS,
                &with(&base, ("block", block.as_str())),
                o.stats.badness() as f64,
            );
        }
        for (dir, bytes) in [("h2d", p.h2d_bytes), ("d2h", p.d2h_bytes)] {
            exp.push(&MIGRATED_BYTES, &with(&base, ("direction", dir)), bytes as f64);
        }
        let last = p.timeseries.last().copied().unwrap_or_default();
        exp.push(&REFAULTS, &base, last.refaults as f64);
        exp.push(&TRACE_DROPPED, &base, p.trace_dropped as f64);
        exp.push(&SPAN_DROPPED, &base, p.span_dropped as f64);
        exp.push(&TS_COMPACTIONS, &base, p.timeseries.compactions as f64);
        exp.push(&SIM_TIME, &base, p.total_time_ns as f64);
        exp.push(&RESIDENT, &base, last.resident_pages as f64);
        exp.push(&LRU_BLOCKS, &base, last.lru_blocks as f64);
        exp.push(&COVERAGE, &base, last.prefetch_coverage_bp as f64 / 100.0);
        exp.push(&EVICT_PER_FAULT, &base, p.counters.evictions_per_fault());
        for (q, v) in [
            ("p50", last.batch_ns_p50),
            ("p95", last.batch_ns_p95),
            ("p99", last.batch_ns_p99),
        ] {
            exp.push(&BATCH_LATENCY, &with(&base, ("quantile", q)), v as f64);
        }
        exp.push(&TS_SAMPLES, &base, p.timeseries.samples.len() as f64);
        exp.push(&LINEAGE_EVENTS, &base, p.lineage.events_total() as f64);
        exp.push(&LINEAGE_DROPPED, &base, p.lineage.dropped as f64);
        exp.push(&FLIGHT_DUMPS, &base, p.lineage.dumps.len() as f64);
    }
    if let Some(s) = sched {
        exp.push(&SWEEP_POINTS, extra, s.points as f64);
        exp.push(&SWEEP_MAX_STRAGGLER_MS, extra, s.max_point_wall_ns as f64 / 1e6);
        exp.push(&SWEEP_THREADS, extra, s.threads as f64);
    }
}

/// Render the Prometheus text exposition for a set of finished points:
/// the build-identity gauge plus [`push_points`] with no extra labels.
/// This is what `write_experiment` snapshots to `metrics.prom`; the
/// serve daemon instead assembles one exposition across requests via
/// [`push_points`] directly.
pub fn render_exposition(points: &[MetricsPoint], sched: Option<&SweepSchedStats>) -> String {
    let mut exp = Exposition::new();
    push_build_info(&mut exp);
    push_points(&mut exp, points, sched, &[]);
    exp.render()
}

/// Write one experiment's metrics artefacts under `dir/<experiment>/`:
/// a sample CSV and a `.lineage` event log per point, a `.flight.json`
/// per point that captured flight dumps, the exposition snapshot
/// ([`EXPERIMENT_MARKER`]) and `offenders.tsv`. Returns the written
/// paths. [`load_artefacts`] reads this layout back.
pub fn write_experiment(
    dir: &std::path::Path,
    experiment: &str,
    points: &[MetricsPoint],
    sched: Option<&SweepSchedStats>,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let exp_dir = dir.join(experiment);
    std::fs::create_dir_all(&exp_dir)?;
    let mut written = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let path = exp_dir.join(format!("{}.csv", p.file_stem(i)));
        std::fs::write(&path, p.timeseries.to_csv())?;
        written.push(path);
        let lineage = exp_dir.join(format!("{}.lineage", p.file_stem(i)));
        std::fs::write(&lineage, p.lineage.to_artefact())?;
        written.push(lineage);
        if !p.lineage.dumps.is_empty() {
            let flight = exp_dir.join(format!("{}.flight.json", p.file_stem(i)));
            let body = serde_json::to_string_pretty(&p.lineage.dumps)
                .expect("flight dumps serialize");
            std::fs::write(&flight, body)?;
            written.push(flight);
        }
    }
    let prom = exp_dir.join(EXPERIMENT_MARKER);
    std::fs::write(&prom, render_exposition(points, sched))?;
    written.push(prom);
    let tsv = exp_dir.join(OFFENDERS_FILE);
    std::fs::write(&tsv, render_offenders_tsv(points))?;
    written.push(tsv);
    Ok(written)
}

/// Header of the per-experiment offender table artefact.
const OFFENDERS_HEADER: &str = "point\tblock\trefault_faults\tprefetch_evicted_pages\tevictions\tbadness";

/// Render the per-experiment offender table (`offenders.tsv`): one row
/// per (point, offending VABlock), points in sweep order, blocks in
/// descending badness.
pub fn render_offenders_tsv(points: &[MetricsPoint]) -> String {
    let rows: usize = points.iter().map(|p| p.top_offenders.len()).sum();
    let mut out = String::with_capacity(OFFENDERS_HEADER.len() + 1 + 96 * rows);
    out.push_str(OFFENDERS_HEADER);
    out.push('\n');
    for (i, p) in points.iter().enumerate() {
        let stem = p.file_stem(i);
        for o in &p.top_offenders {
            let _ = writeln!(
                out,
                "{stem}\t{}\t{}\t{}\t{}\t{}",
                o.block,
                o.stats.refault_faults,
                o.stats.prefetch_evicted_pages,
                o.stats.evictions,
                o.stats.badness()
            );
        }
    }
    out
}

/// Marker of an experiment directory: [`write_experiment`] always
/// writes it, so only the `*.csv` files beside it are sample CSVs.
pub const EXPERIMENT_MARKER: &str = "metrics.prom";
const OFFENDERS_FILE: &str = "offenders.tsv";
const OVERSUB_FILE: &str = "oversub.tsv";
const OVERSUB_PROM: &str = "oversub.prom";

/// One artefact file as read from disk.
#[derive(Debug, Clone, Default)]
pub struct Artefact {
    /// Where it was read from.
    pub path: PathBuf,
    /// The path below the root it was found under, extension stripped
    /// (`fig1/03_regular_r0.05_density`): the label reports print.
    pub name: String,
    /// The file's contents.
    pub text: String,
    /// The optional sibling, if present: `<stem>.flight.json` beside a
    /// lineage stream, `oversub.prom` beside an oversub heatmap.
    pub sibling: Option<String>,
}

/// Every artefact [`load_artefacts`] found, by kind, in path order.
#[derive(Debug, Clone, Default)]
pub struct Artefacts {
    /// Sample CSVs.
    pub samples: Vec<Artefact>,
    /// `<stem>.lineage` event streams.
    pub lineages: Vec<Artefact>,
    /// Prometheus expositions (every `*.prom`).
    pub expositions: Vec<Artefact>,
    /// `oversub.tsv` heatmaps.
    pub oversubs: Vec<Artefact>,
    /// Per-experiment `offenders.tsv` tables.
    pub offenders: Vec<Artefact>,
    /// Chrome traces.
    pub traces: Vec<Artefact>,
    /// I/O errors met on the way, as `<path>: <error>`. An absent
    /// optional sibling is not one.
    pub errors: Vec<String>,
}

impl Artefacts {
    /// Every offender table merged into one (first header kept).
    pub fn merged_offenders(&self) -> Option<String> {
        let (first, rest) = self.offenders.split_first()?;
        let mut merged = first.text.clone();
        for o in rest {
            merged.extend(o.text.lines().skip(1).map(|l| format!("{l}\n")));
        }
        Some(merged)
    }

    fn read(&mut self, path: &Path, optional: bool) -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) if optional && e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                self.errors.push(format!("{}: {e}", path.display()));
                None
            }
        }
    }

    /// File one path by the layout rules (see [`load_artefacts`]).
    fn classify(&mut self, root: &Path, path: &Path, explicit: bool) {
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        let wanted = match ext {
            "csv" => path.with_file_name(EXPERIMENT_MARKER).is_file(),
            "lineage" | "prom" => true,
            "tsv" => file == OVERSUB_FILE || file == OFFENDERS_FILE,
            "json" => explicit || !file.ends_with(".flight.json"),
            _ => false,
        };
        let Some(text) = wanted.then(|| self.read(path, false)).flatten() else {
            return;
        };
        let sibling = match ext {
            "lineage" => self.read(&path.with_extension("flight.json"), true),
            _ if file == OVERSUB_FILE => self.read(&path.with_file_name(OVERSUB_PROM), true),
            _ => None,
        };
        let rel = path.strip_prefix(root).ok().filter(|r| !r.as_os_str().is_empty());
        let a = Artefact {
            path: path.to_path_buf(),
            name: rel.unwrap_or(path).with_extension("").display().to_string(),
            text,
            sibling,
        };
        match ext {
            "csv" => self.samples.push(a),
            "lineage" => self.lineages.push(a),
            "prom" => self.expositions.push(a),
            "tsv" if file == OVERSUB_FILE => self.oversubs.push(a),
            "tsv" => self.offenders.push(a),
            _ if explicit || a.text.starts_with(metrics::chrome::TRACE_PREFIX) => {
                self.traces.push(a)
            }
            _ => {}
        }
    }
}

/// Walk `paths` (directories recursively, files as named) once and
/// return every artefact found. The layout: every `*.csv` beside an
/// [`EXPERIMENT_MARKER`] is a sample CSV; `<stem>.lineage` pairs with
/// `<stem>.csv` and, if present, `<stem>.flight.json`; `oversub.tsv`
/// pairs with `oversub.prom`; every `*.prom` is an exposition. A `.json`
/// named explicitly is a Chrome trace; one found by the walk is a trace
/// only if it begins with [`metrics::chrome::TRACE_PREFIX`].
pub fn load_artefacts<P: AsRef<Path>>(paths: &[P]) -> Artefacts {
    let mut set = Artefacts::default();
    for root in paths.iter().map(AsRef::as_ref) {
        if !root.is_dir() {
            match std::fs::metadata(root) {
                Ok(_) => set.classify(root, root, true),
                Err(e) => set.errors.push(format!("{}: {e}", root.display())),
            }
            continue;
        }
        let (mut files, mut dirs) = (Vec::new(), vec![root.to_path_buf()]);
        while let Some(dir) = dirs.pop() {
            match std::fs::read_dir(&dir).and_then(|d| d.collect::<std::io::Result<Vec<_>>>()) {
                Ok(entries) => {
                    for path in entries.into_iter().map(|e| e.path()) {
                        if path.is_dir() { dirs.push(path) } else { files.push(path) }
                    }
                }
                Err(e) => set.errors.push(format!("{}: {e}", dir.display())),
            }
        }
        files.sort();
        for path in &files {
            set.classify(root, path, false);
        }
    }
    set
}

/// Run every reconciliation that applies to `set` (`repro check`):
/// sample CSVs against the column schema and the attribution ledger,
/// lineage streams against their sibling sample CSVs, expositions
/// against the text format, oversub heatmaps against the knee detector
/// and their `oversub.prom`, traces against the trace-event invariants.
/// Returns the stdout lines (an OK line per trace and oversub file, a
/// count line per other kind) and the failures as `<path>: <reason>`,
/// I/O errors first.
pub fn check_artefacts(set: &Artefacts) -> (Vec<String>, Vec<String>) {
    let mut lines = Vec::new();
    let mut failures = set.errors.clone();
    let mut fail = |path: &Path, e: String| failures.push(format!("{}: {e}", path.display()));
    for t in &set.traces {
        match metrics::chrome::validate(&t.text) {
            Ok(s) => lines.push(format!(
                "{}: OK — {} process(es), {} events ({} leaf spans, {} containers, \
                 {} instants), {} dropped",
                t.path.display(),
                s.processes,
                s.events,
                s.leaf_spans,
                s.container_spans,
                s.instants,
                s.dropped,
            )),
            Err(e) => fail(&t.path, e),
        }
    }
    let mut rows = 0;
    let mut finals = Vec::new();
    for a in &set.samples {
        let last = parse_csv(&a.text).and_then(|samples| {
            let last = *samples.last().ok_or("no samples")?;
            rows += samples.len();
            Ok(last)
        });
        if let Err(e) = last.clone().and_then(|s| s.reconciled_attribution()) {
            fail(&a.path, e);
        }
        finals.push((&a.path, last));
    }
    for l in &set.lineages {
        let csv = l.path.with_extension("csv");
        let checked = match finals.iter().find(|(path, _)| **path == csv) {
            Some((_, Ok(last))) => check_lineage(&l.text, l.sibling.as_deref(), last),
            Some((_, Err(e))) => Err(e.clone()),
            None => Err(format!("no sample CSV {} to reconcile against", csv.display())),
        };
        if let Err(e) = checked {
            fail(&l.path, e);
        }
    }
    let mut series = 0;
    for a in &set.expositions {
        match metrics::exposition::validate(&a.text) {
            Ok(s) => series += s.samples,
            Err(e) => fail(&a.path, e),
        }
    }
    for (n, what) in [
        (set.samples.len(), format!("sample CSV(s) ({rows} samples) match the schema and ledger")),
        (set.lineages.len(), "lineage artefact(s) reconciled against sample CSVs".into()),
        (set.expositions.len(), format!("exposition(s) ({series} series) well-formed")),
    ] {
        if n > 0 {
            lines.push(format!("{n} {what}"));
        }
    }
    for o in &set.oversubs {
        let (cells, cliffs) = match metrics::oversub::check_table(&o.text)
            .and_then(|s| parse_table(&o.text).map(|t| (s, t)))
        {
            Ok((s, table)) => {
                lines.push(format!(
                    "{}: OK — {} cells, {} curves, {} cliff(s) reproduced",
                    o.path.display(),
                    s.cells,
                    s.curves,
                    s.cliffs_found,
                ));
                table
            }
            Err(e) => {
                fail(&o.path, e);
                continue;
            }
        };
        let Some(prom) = &o.sibling else { continue };
        fn keep(t: &str) -> Vec<&str> {
            t.lines().filter(|l| l.contains("uvm_oversub")).collect()
        }
        let prom_path = o.path.with_file_name(OVERSUB_PROM);
        if keep(prom) == keep(&render_oversub_exposition(&cells, &cliffs)) {
            let n = keep(prom).len();
            lines.push(format!("{}: OK — {n} uvm_oversub series match the tsv", prom_path.display()));
        } else {
            fail(&prom_path, "uvm_oversub_* exposition drifts from oversub.tsv".into());
        }
    }
    (lines, failures)
}

/// The attribution ledger in one sample CSV's final row, reconciled by
/// [`Sample::reconciled_attribution`]; errors are prefixed with the
/// artefact's name.
fn final_ledger(a: &Artefact) -> Result<Attribution, String> {
    parse_csv(&a.text)
        .and_then(|samples| samples.last().ok_or("no samples")?.reconciled_attribution())
        .map_err(|e| format!("{}: {e}", a.name))
}

/// Evicted-before-use share in percent, 0 when nothing was evicted.
fn evict_before_use_pct(l: &Attribution) -> f64 {
    l.prefetch_evicted_pages as f64 * 100.0 / l.evicted_total().max(1) as f64
}

/// Percentage cell, `total == 0` rendering as a dash.
fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "-".into()
    } else {
        format!("{:.1}", part as f64 * 100.0 / total as f64)
    }
}

/// Render the `repro explain` decomposition from `(name, csv)` blobs —
/// the paper-style per-fault root-cause breakdown (§VI shape), entirely
/// from run artefacts. Errs if any point's attribution columns fail to
/// reconcile with its counter columns.
pub fn render_explain(files: &[Artefact], offenders_tsv: Option<&str>) -> Result<String, String> {
    let mut out = String::new();
    let mut faults = Table::new(
        "fault decomposition by root cause (% of driver-observed faults)",
        &[
            "point", "faults", "cold_%", "refault_used_%", "refault_unused_%",
            "prefetch_hit_%", "replay_dup_%",
        ],
    );
    let mut pages = Table::new(
        "migration and eviction provenance",
        &[
            "point", "h2d_MiB", "faulted_MiB", "prefetch_MiB", "hint_MiB", "d2h_MiB",
            "evicted_pages", "evict_before_use_%",
        ],
    );
    let mib = |b: u64| format!("{:.1}", b as f64 / (1 << 20) as f64);
    for a in files {
        let l = final_ledger(a)?;
        let total = l.fault_total();
        faults.row(vec![
            a.name.clone(),
            total.to_string(),
            pct(l.cold_faults, total),
            pct(l.refault_used_faults, total),
            pct(l.refault_unused_faults, total),
            pct(l.prefetch_hit_faults, total),
            pct(l.replay_dup_faults, total),
        ]);
        pages.row(vec![
            a.name.clone(),
            mib(l.h2d_bytes()),
            mib(l.pages_faulted() * PAGE_SIZE),
            mib(l.prefetch_pages * PAGE_SIZE),
            mib(l.hint_pages * PAGE_SIZE),
            mib(l.d2h_bytes()),
            l.evicted_total().to_string(),
            format!("{:.1}", evict_before_use_pct(&l)),
        ]);
    }
    out.push_str(&faults.render());
    out.push('\n');
    out.push_str(&pages.render());
    out.push('\n');
    if let Some(tsv) = offenders_tsv {
        out.push_str(&render_offender_table(tsv)?);
        out.push('\n');
    }
    Ok(out)
}

/// Re-render the `offenders.tsv` artefact as a report table.
fn render_offender_table(tsv: &str) -> Result<String, String> {
    let mut lines = tsv.lines();
    if lines.next() != Some(OFFENDERS_HEADER) {
        return Err("offenders.tsv: unexpected header".into());
    }
    let mut t = Table::new(
        "top offending VABlocks (badness = refaults + prefetched-evicted pages)",
        &["point", "block", "refault_faults", "prefetch_evicted", "evictions", "badness"],
    );
    let mut rows = 0usize;
    for line in lines.filter(|l| !l.is_empty()) {
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != 6 {
            return Err(format!("offenders.tsv: malformed row `{line}`"));
        }
        t.row(cells.into_iter().map(String::from).collect());
        rows += 1;
    }
    if rows == 0 {
        return Ok("no offending VABlocks (no refaults or wasted prefetches)\n".into());
    }
    Ok(t.render())
}

/// Sum a dir's ledgers into one (each point reconciled on read).
fn merged_ledger(files: &[Artefact]) -> Result<Attribution, String> {
    let mut l = Attribution::default();
    for a in files {
        l.merge(&final_ledger(a)?)?;
    }
    Ok(l)
}

/// The named (A, B) value pairs of an attribution diff — the single
/// source of the per-cause delta rows, shared by the text table, the
/// `--json` form, and the oversub cliff report's bracket diffs.
fn explain_delta_rows(a: &Attribution, b: &Attribution) -> [(&'static str, u64, u64); 10] {
    let row = |name, f: fn(&Attribution) -> u64| (name, f(a), f(b));
    [
        row("faults_total", Attribution::fault_total),
        row("cold_faults", |l| l.cold_faults),
        row("refault_used_faults", |l| l.refault_used_faults),
        row("refault_unused_faults", |l| l.refault_unused_faults),
        row("prefetch_hit_faults", |l| l.prefetch_hit_faults),
        row("replay_dup_faults", |l| l.replay_dup_faults),
        row("pages_evicted", Attribution::evicted_total),
        row("prefetch_evicted_pages", |l| l.prefetch_evicted_pages),
        row("h2d_bytes", Attribution::h2d_bytes),
        row("d2h_bytes", Attribution::d2h_bytes),
    ]
}

/// Render `repro explain --diff A B`: aggregate each side's ledgers and
/// show the per-cause deltas — the cross-run attribution diff that makes
/// e.g. the prefetch-eviction antagonism directly visible when A and B
/// are the same sweep with prefetch on and off.
pub fn render_explain_diff(
    a_label: &str,
    a_files: &[Artefact],
    b_label: &str,
    b_files: &[Artefact],
) -> Result<String, String> {
    let a = merged_ledger(a_files)?;
    let b = merged_ledger(b_files)?;
    let mut t = Table::new(
        format!(
            "attribution diff: A = {a_label} ({} points), B = {b_label} ({} points)",
            a_files.len(),
            b_files.len()
        ),
        &["metric", "A", "B", "delta"],
    );
    let delta = |x: u64, y: u64| format!("{:+}", y as i128 - x as i128);
    for (name, x, y) in explain_delta_rows(&a, &b) {
        t.row(vec![name.to_string(), x.to_string(), y.to_string(), delta(x, y)]);
    }
    let (pa, pb) = (evict_before_use_pct(&a), evict_before_use_pct(&b));
    t.row(vec![
        "evict_before_use_%".to_string(),
        format!("{pa:.1}"),
        format!("{pb:.1}"),
        format!("{:+.1}", pb - pa),
    ]);
    let mut out = t.render();
    // The headline reading, so the antagonism doesn't have to be dug out
    // of the table: how much of each side's eviction volume was wasted
    // prefetch, and how much refaulting that churn caused.
    out.push_str(&format!(
        "\nA: {} refaults, {} pages evicted before use; \
         B: {} refaults, {} pages evicted before use\n",
        a.refault_used_faults + a.refault_unused_faults,
        a.prefetch_evicted_pages,
        b.refault_used_faults + b.refault_unused_faults,
        b.prefetch_evicted_pages,
    ));
    Ok(out)
}

/// `repro explain --diff A B --json`: the same per-cause delta table as
/// [`render_explain_diff`], emitted as machine-readable JSON (the
/// oversub report and other tooling consume it; humans keep the text
/// form). All values are integers; deltas are signed `B − A`.
pub fn render_explain_diff_json(
    a_label: &str,
    a_files: &[Artefact],
    b_label: &str,
    b_files: &[Artefact],
) -> Result<String, String> {
    let a = merged_ledger(a_files)?;
    let b = merged_ledger(b_files)?;
    let side = |label: &str, points: usize| {
        Value::Map(vec![
            ("label".to_string(), Value::Str(label.to_string())),
            ("points".to_string(), Value::U64(points as u64)),
        ])
    };
    let bp = ("evict_before_use_bp", a.evict_before_use_bp(), b.evict_before_use_bp());
    let rows: Vec<Value> = explain_delta_rows(&a, &b)
        .into_iter()
        .chain([bp])
        .map(|(name, x, y)| {
            Value::Map(vec![
                ("metric".to_string(), Value::Str(name.to_string())),
                ("a".to_string(), Value::U64(x)),
                ("b".to_string(), Value::U64(y)),
                ("delta".to_string(), Value::I64(y.wrapping_sub(x) as i64)),
            ])
        })
        .collect();
    let root = Value::Map(vec![
        ("a".to_string(), side(a_label, a_files.len())),
        ("b".to_string(), side(b_label, b_files.len())),
        ("rows".to_string(), Value::Seq(rows)),
    ]);
    serde_json::to_string_pretty(&root).map_err(|e| format!("serialize diff: {e:?}"))
}

/// Histogram percentile cell in pass units, `-` when the histogram is
/// empty (log2 buckets, so values are upper-bound estimates).
fn dist_pct(h: &Histogram, q: f64) -> String {
    if h.total() == 0 {
        "-".into()
    } else {
        h.percentile(q).to_string()
    }
}

/// Parse one point's lineage pair: the `.lineage` artefact plus, when
/// present, the sibling `.flight.json` holding its flight-recorder dumps
/// (the artefact itself carries only the event stream and totals).
fn read_lineage_point(lineage_text: &str, flight_text: Option<&str>) -> Result<LineageLog, String> {
    let mut log = LineageLog::from_artefact(lineage_text)?;
    if let Some(fj) = flight_text {
        log.dumps = serde_json::from_str(fj).map_err(|e| format!("flight dumps: {e:?}"))?;
    }
    Ok(log)
}

/// Render the `repro lineage` analytics from loaded lineage streams —
/// per-kind lifecycle totals,
/// refault/reuse-distance histograms, and the prefetch→eviction
/// antagonism chains, entirely from `.lineage` run artefacts. `block`
/// narrows the output to one VABlock's lifecycle timeline per point.
pub fn render_lineage(
    files: &[Artefact],
    block: Option<u64>,
) -> Result<String, String> {
    use LineageEventKind as K;
    let mut out = String::new();
    let mut totals = Table::new(
        "lineage event totals (pages per kind)",
        &[
            "point", "first_touch", "refault", "prefetch_in", "hint", "evicted", "writeback",
            "host_wb", "replays", "events", "dropped", "dumps",
        ],
    );
    let mut analytics = Table::new(
        "refault / reuse distance analytics (pass-distance percentiles from the stored stream)",
        &[
            "point", "blocks", "refault_p50", "refault_p95", "reuse_p50", "reuse_p95",
            "antagonism_chains", "chain_refaults",
        ],
    );
    let mut parsed = Vec::new();
    for l in files {
        let name = &l.name;
        let log = read_lineage_point(&l.text, l.sibling.as_deref())
            .map_err(|e| format!("{name}: {e}"))?;
        totals.row(vec![
            name.clone(),
            log.total(K::FirstTouch).pages.to_string(),
            log.total(K::Refault).pages.to_string(),
            log.total(K::PrefetchIn).pages.to_string(),
            log.total(K::HintPrefetch).pages.to_string(),
            log.total(K::Eviction).pages.to_string(),
            log.total(K::Writeback).pages.to_string(),
            log.total(K::HostWriteback).pages.to_string(),
            log.total(K::Replay).pages.to_string(),
            log.events_total().to_string(),
            log.dropped.to_string(),
            log.dumps.len().to_string(),
        ]);
        let a = analyze(&log.events);
        analytics.row(vec![
            name.clone(),
            a.blocks_seen.to_string(),
            dist_pct(&a.refault_distance_passes, 0.50),
            dist_pct(&a.refault_distance_passes, 0.95),
            dist_pct(&a.reuse_distance_passes, 0.50),
            dist_pct(&a.reuse_distance_passes, 0.95),
            a.prefetch_evict_chains.to_string(),
            a.prefetch_evict_refaults.to_string(),
        ]);
        parsed.push((name, log));
    }
    out.push_str(&totals.render());
    out.push('\n');
    out.push_str(&analytics.render());
    out.push('\n');
    for (name, log) in &parsed {
        if log.dropped > 0 {
            out.push_str(&format!(
                "{name}: {} events dropped at capacity — totals stay exact, \
                 distance analytics cover the stored prefix\n",
                log.dropped
            ));
        }
        for (i, d) in log.dumps.iter().enumerate() {
            out.push_str(&format!(
                "{name}: flight dump {i}: {} at t={:.3} ms pass {} block {} \
                 (value {} vs threshold {}; {} events, {} samples)\n",
                d.trigger.name(),
                d.t_ns as f64 / 1e6,
                d.pass,
                d.block,
                d.value,
                d.threshold,
                d.events.len(),
                d.window.len(),
            ));
        }
    }
    if let Some(b) = block {
        const MAX_TIMELINE_EVENTS: usize = 64;
        for (name, log) in &parsed {
            let events: Vec<_> = log.events.iter().filter(|e| e.block == b).collect();
            let mut t = Table::new(
                format!("{name}: block {b} lifecycle ({} events)", events.len()),
                &["t_ms", "pass", "event", "pages", "aux"],
            );
            // Keep the tail when a timeline overflows: the newest churn is
            // what a thrash investigation reads first.
            let skipped = events.len().saturating_sub(MAX_TIMELINE_EVENTS);
            for e in events.iter().skip(skipped) {
                t.row(vec![
                    format!("{:.3}", e.t_ns as f64 / 1e6),
                    e.pass.to_string(),
                    e.kind.name().to_string(),
                    e.pages.to_string(),
                    e.aux.to_string(),
                ]);
            }
            out.push_str(&t.render());
            if skipped > 0 {
                out.push_str(&format!("  ({skipped} earlier events elided)\n"));
            }
            out.push('\n');
        }
    }
    Ok(out)
}

/// Reconcile one point's `.lineage` artefact (plus its `.flight.json`
/// dumps, when any were captured) against `last`, the parsed final row
/// of its sample CSV (`repro check`), through [`LineageLog::reconcile`]
/// — the same equations the live run is held to. A mismatch means a
/// corrupted or internally-inconsistent artefact set — reported as
/// `Err`.
pub fn check_lineage(
    lineage_text: &str,
    flight_text: Option<&str>,
    last: &Sample,
) -> Result<(), String> {
    read_lineage_point(lineage_text, flight_text)?.reconcile(last)
}

/// Render the `repro report` decompositions from `(name, csv)` blobs:
/// a per-point summary (Fig. 9/10 shape: time, faults, evictions, data
/// moved, coverage) and a per-point fault-vs-eviction timeline (Fig. 8
/// shape), down-sampled to at most `max_timeline_rows` rows.
pub fn render_report(files: &[Artefact], max_timeline_rows: usize) -> Result<String, String> {
    let mut out = String::new();
    let mut summary = Table::new(
        "per-run cost decomposition (final totals)",
        &[
            "point", "sim_ms", "faults", "evict_pages", "refaults", "h2d_MiB", "d2h_MiB",
            "coverage_%", "batch_p95_us",
        ],
    );
    let mut parsed = Vec::new();
    for Artefact { name, text, .. } in files {
        let samples = parse_csv(text).map_err(|e| format!("{name}: {e}"))?;
        let last = samples.last().ok_or_else(|| format!("{name}: no samples"))?;
        summary.row(vec![
            name.clone(),
            format!("{:.3}", last.t_ns as f64 / 1e6),
            last.faults_fetched.to_string(),
            last.pages_evicted.to_string(),
            last.refaults.to_string(),
            format!("{:.1}", last.migrated_bytes_h2d as f64 / (1 << 20) as f64),
            format!("{:.1}", last.migrated_bytes_d2h as f64 / (1 << 20) as f64),
            format!("{:.2}", last.prefetch_coverage_bp as f64 / 100.0),
            format!("{:.1}", last.batch_ns_p95 as f64 / 1e3),
        ]);
        parsed.push((name, samples));
    }
    out.push_str(&summary.render());
    out.push('\n');

    for (name, rows) in parsed {
        let mut timeline = Table::new(
            format!("{name}: fault/eviction timeline"),
            &[
                "t_ms", "d_faults", "d_evictions", "d_h2d_MiB", "d_d2h_MiB", "resident_pages",
            ],
        );
        // Down-sample by stride so long runs still print compactly; the
        // deltas are taken between the *selected* rows, so the column
        // sums are preserved whatever the stride.
        let stride = rows.len().div_ceil(max_timeline_rows.max(1)).max(1);
        let mut prev: Option<&Sample> = None;
        for (i, s) in rows.iter().enumerate() {
            if i % stride != 0 && i != rows.len() - 1 {
                continue;
            }
            // Cumulative columns never decrease (parse_csv checked).
            let d = |f: fn(&Sample) -> u64| f(s) - prev.map_or(0, f);
            timeline.row(vec![
                format!("{:.3}", s.t_ns as f64 / 1e6),
                d(|s| s.faults_fetched).to_string(),
                d(|s| s.evictions).to_string(),
                format!("{:.2}", d(|s| s.migrated_bytes_h2d) as f64 / (1 << 20) as f64),
                format!("{:.2}", d(|s| s.migrated_bytes_d2h) as f64 / (1 << 20) as f64),
                s.resident_pages.to_string(),
            ]);
            prev = Some(s);
        }
        out.push_str(&timeline.render());
        out.push('\n');
    }
    Ok(out)
}

/// How each trend metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Regression when the value grows (wall time, evictions/fault).
    UpIsBad,
    /// Regression when the value shrinks (throughput, coverage).
    DownIsBad,
}

/// The headline series `repro regress` gates on, as `ci_trend` entry keys.
const TREND_METRICS: &[(&str, Direction)] = &[
    ("wall_seconds", Direction::UpIsBad),
    ("faults_per_sec", Direction::DownIsBad),
    ("evictions_per_fault", Direction::UpIsBad),
    ("coverage_pct", Direction::DownIsBad),
    // Longest single sweep point (the sweep scheduler's load-balance
    // bound): a growing straggler means the point layout regressed even
    // if total wall hides it behind better overlap.
    ("max_straggler_ms", Direction::UpIsBad),
    // Oversubscription thrash-cliff positions (as ratios, e.g. 1.25): a
    // cliff moving toward 1.0× means the runtime starts thrashing with
    // less oversubscription — an eviction-path regression even when the
    // subscribed-regime wall time is flat. Only the oversub series
    // carries these keys; other series skip them (missing-metric skip).
    ("cliff_min_ratio", Direction::DownIsBad),
    ("cliff_mean_ratio", Direction::DownIsBad),
];

/// The exact keys a `ci_trend` entry may carry: the series name plus the
/// `TREND_METRICS` the regress gate reads. `repro trend-import` filters
/// every perf record through this list, so new telemetry families — the
/// serve daemon's `uvm_serve_*` signals, build identity, cache stats —
/// can never leak into existing `ci_trend.json` baselines and perturb
/// the gate (a lockstep test pins the two lists to each other).
pub const TREND_KEEP: &[&str] = &[
    "name",
    "wall_seconds",
    "faults_per_sec",
    "evictions_per_fault",
    "coverage_pct",
    "max_straggler_ms",
    "cliff_min_ratio",
    "cliff_mean_ratio",
];

/// Filter one experiment's perf record down to the trend schema,
/// renaming the series to `as_name` when given. Input is the record's
/// key/value pairs; output is the `ci_trend` entry to append.
pub fn trend_entry(record: &[(String, Value)], as_name: Option<&str>) -> Value {
    Value::Map(
        record
            .iter()
            .filter(|(k, _)| TREND_KEEP.contains(&k.as_str()))
            .map(|(k, v)| match (k.as_str(), as_name) {
                ("name", Some(alias)) => (k.clone(), Value::Str(alias.to_string())),
                _ => (k.clone(), v.clone()),
            })
            .collect(),
    )
}

/// One metric comparison from [`evaluate_trend`].
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Benchmark series name (the `ci_trend` entry `name`).
    pub name: String,
    /// Metric key compared.
    pub metric: &'static str,
    /// Baseline (median of the prior runs of this series).
    pub baseline: f64,
    /// The newest run's value.
    pub current: f64,
    /// Signed relative change, where positive means "worse".
    pub delta_frac: f64,
    /// True when the change exceeds the threshold in the bad direction.
    pub regressed: bool,
    /// Prior runs the baseline was computed from.
    pub history: usize,
    /// Lowest value the gate allows (set for down-is-bad metrics).
    pub allowed_min: Option<f64>,
    /// Highest value the gate allows (set for up-is-bad metrics).
    pub allowed_max: Option<f64>,
}

impl Finding {
    /// The allowed band as one readable token, e.g. `<= 1.2340`.
    pub fn allowed_band(&self) -> String {
        match (self.allowed_min, self.allowed_max) {
            (Some(lo), None) => format!(">= {lo:.4}"),
            (None, Some(hi)) => format!("<= {hi:.4}"),
            (Some(lo), Some(hi)) => format!("{lo:.4}..{hi:.4}"),
            (None, None) => "unbounded".into(),
        }
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

fn entry_field(entry: &Value, key: &str) -> Option<f64> {
    match entry {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).and_then(|(_, v)| as_f64(v)),
        _ => None,
    }
}

fn entry_name(entry: &Value) -> Option<String> {
    match entry {
        Value::Map(m) => m.iter().find(|(k, _)| k == "name").and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }),
        _ => None,
    }
}

/// Median of a non-empty slice (mean of the middle pair for even counts).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Evaluate the `ci_trend` array of a BENCH_hotpaths-style JSON document:
/// for every series (grouped by entry `name`) with at least `min_runs`
/// entries, compare the newest entry's headline metrics against the
/// median of the earlier ones. A change beyond `threshold` (relative, in
/// the metric's bad direction) is flagged as a regression. Series or
/// metrics without enough history are skipped, not failed.
pub fn evaluate_trend(
    root: &Value,
    threshold: f64,
    min_runs: usize,
) -> Result<Vec<Finding>, String> {
    let Value::Map(keys) = root else {
        return Err("top level is not a JSON object".into());
    };
    let trend = match keys.iter().find(|(k, _)| k == "ci_trend") {
        Some((_, Value::Seq(entries))) => entries,
        Some(_) => return Err("ci_trend is not an array".into()),
        None => return Err("no ci_trend key — nothing to gate on".into()),
    };
    let mut names: Vec<String> = Vec::new();
    for e in trend {
        let name = entry_name(e).ok_or("ci_trend entry without a name")?;
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut findings = Vec::new();
    for name in names {
        let series: Vec<&Value> = trend
            .iter()
            .filter(|e| entry_name(e).as_deref() == Some(name.as_str()))
            .collect();
        if series.len() < min_runs.max(2) {
            continue; // no baseline yet
        }
        let (latest, history) = series.split_last().expect("len >= 2");
        for (metric, direction) in TREND_METRICS {
            let Some(current) = entry_field(latest, metric) else {
                continue;
            };
            let mut prior: Vec<f64> = history
                .iter()
                .filter_map(|e| entry_field(e, metric))
                .collect();
            if prior.is_empty() {
                continue;
            }
            let n = prior.len();
            let baseline = median(&mut prior);
            if baseline == 0.0 {
                continue;
            }
            let (delta_frac, allowed_min, allowed_max) = match direction {
                Direction::UpIsBad => (
                    (current - baseline) / baseline,
                    None,
                    Some(baseline * (1.0 + threshold)),
                ),
                Direction::DownIsBad => (
                    (baseline - current) / baseline,
                    Some(baseline * (1.0 - threshold)),
                    None,
                ),
            };
            findings.push(Finding {
                name: name.clone(),
                metric,
                baseline,
                current,
                delta_frac,
                regressed: delta_frac > threshold,
                history: n,
                allowed_min,
                allowed_max,
            });
        }
    }
    Ok(findings)
}

/// Render regress findings as a readable diff table; regressions first.
pub fn render_findings(findings: &[Finding], threshold: f64) -> String {
    if findings.is_empty() {
        return "no series with enough history to compare — gate passes vacuously\n".into();
    }
    let mut t = Table::new(
        format!("perf trend vs median baseline (threshold {:.0}%)", threshold * 100.0),
        &["series", "metric", "baseline", "current", "delta", "runs", "verdict"],
    );
    let mut ordered: Vec<&Finding> = findings.iter().collect();
    ordered.sort_by(|a, b| {
        b.regressed
            .cmp(&a.regressed)
            .then(b.delta_frac.partial_cmp(&a.delta_frac).unwrap())
    });
    for f in ordered {
        t.row(vec![
            f.name.clone(),
            f.metric.to_string(),
            format!("{:.4}", f.baseline),
            format!("{:.4}", f.current),
            format!("{:+.1}%", f.delta_frac * 100.0),
            f.history.to_string(),
            if f.regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    t.render()
}

/// Render the thrash-cliff map: workloads down, eviction policies
/// across, each cell the first ratio whose footprint-normalised cost
/// jumps by [`metrics::oversub::CLIFF_THRESHOLD_BP`] or more (with the
/// jump size), `-` when the curve never bends that hard in-span.
pub fn render_cliff_map(cells: &[OversubCell], cliffs: &[Cliff]) -> String {
    let mut workloads: Vec<&str> = Vec::new();
    let mut policies: Vec<&str> = Vec::new();
    for c in cliffs {
        if !workloads.contains(&c.workload.as_str()) {
            workloads.push(&c.workload);
        }
        if !policies.contains(&c.policy.as_str()) {
            policies.push(&c.policy);
        }
    }
    let lo = cells.iter().map(|c| c.ratio_centi).min().unwrap_or(0);
    let hi = cells.iter().map(|c| c.ratio_centi).max().unwrap_or(0);
    let mut headers: Vec<&str> = vec!["workload"];
    headers.extend(&policies);
    let mut t = Table::new(
        format!(
            "thrash-cliff map: first ratio with a >= {}% normalised-cost jump \
             (swept {}x..{}x; '-' = no cliff in span)",
            metrics::oversub::CLIFF_THRESHOLD_BP / 100,
            ratio_label(lo),
            ratio_label(hi),
        ),
        &headers,
    );
    for w in &workloads {
        let mut row = vec![w.to_string()];
        for p in &policies {
            let cell = cliffs
                .iter()
                .find(|c| c.workload == *w && c.policy == *p)
                .filter(|c| c.ratio_centi != 0)
                .map(|c| format!("{}x (+{}%)", ratio_label(c.ratio_centi), c.jump_bp / 100))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        t.row(row);
    }
    t.render()
}

/// Render the oversub sweep's Prometheus exposition: the build-identity
/// gauge plus every cell's `uvm_oversub_*` families and the per-curve
/// cliff gauges, all labelled `experiment="oversub"`. Both `repro
/// oversub` (writing `oversub.prom`) and `repro check` (re-deriving it
/// from `oversub.tsv` alone) call this, so any drift between the two
/// artefacts is a byte diff.
pub fn render_oversub_exposition(cells: &[OversubCell], cliffs: &[Cliff]) -> String {
    let mut exp = Exposition::new();
    push_build_info(&mut exp);
    metrics::oversub::push_cells(&mut exp, cells, cliffs, &[("experiment", "oversub")]);
    exp.render()
}

/// Write the oversub heatmap and its exposition into `dir` as
/// `oversub.tsv` and `oversub.prom`, returning both paths.
pub fn write_oversub(dir: &Path, cells: &[OversubCell], cliffs: &[Cliff]) -> std::io::Result<[PathBuf; 2]> {
    std::fs::create_dir_all(dir)?;
    let (tsv, prom) = (dir.join(OVERSUB_FILE), dir.join(OVERSUB_PROM));
    std::fs::write(&tsv, metrics::oversub::render_table(cells, cliffs))?;
    std::fs::write(&prom, render_oversub_exposition(cells, cliffs))?;
    Ok([tsv, prom])
}

/// Render the oversubscription section of `repro report` from the
/// artefacts alone: the cliff map from `oversub.tsv`, then — for every
/// curve with a cliff whose bracketing per-point sample CSVs are on
/// hand — a root-cause delta table across the cliff (the cell just
/// below the cliff ratio vs the cell at it). The cell CSVs are the
/// `samples` beside the heatmap, matched by their sweep-index prefix
/// (`{index:02}_…`), which is immune to workload/ratio label drift;
/// missing CSVs skip the diff, never fail.
pub fn render_oversub(heatmap: &Artefact, samples: &[Artefact]) -> Result<String, String> {
    let (cells, cliffs) = parse_table(&heatmap.text)?;
    let mut out = render_cliff_map(&cells, &cliffs);
    for cliff in cliffs.iter().filter(|c| c.ratio_centi != 0) {
        // Cell indices of this curve, in sweep order (= ratio-ascending:
        // the ratio axis is the sweep's innermost loop).
        let curve: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.workload == cliff.workload && c.policy == cliff.policy)
            .map(|(i, _)| i)
            .collect();
        let Some(pos) = curve.iter().position(|&i| cells[i].ratio_centi == cliff.ratio_centi)
        else {
            continue;
        };
        if pos == 0 {
            continue; // a cliff needs a predecessor point by construction
        }
        let find = |idx: usize| {
            let prefix = format!("{idx:02}_");
            samples.iter().find(|a| {
                a.path.parent() == heatmap.path.parent()
                    && a.path.file_name().is_some_and(|n| n.to_string_lossy().starts_with(&prefix))
            })
        };
        let (Some(fa), Some(fb)) = (find(curve[pos - 1]), find(curve[pos])) else {
            continue; // no per-point CSVs alongside the tsv — map only
        };
        let below = &cells[curve[pos - 1]];
        let label = |c: &OversubCell| format!("{}/{} @ {}x", c.workload, c.policy, c.ratio_label());
        out.push('\n');
        out.push_str(&format!(
            "cliff: {}/{} jumps +{}% at {}x — root-cause delta across the cliff\n",
            cliff.workload,
            cliff.policy,
            cliff.jump_bp / 100,
            ratio_label(cliff.ratio_centi),
        ));
        out.push_str(&render_explain_diff(
            &label(below),
            std::slice::from_ref(fa),
            &label(&cells[curve[pos]]),
            std::slice::from_ref(fb),
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::exposition;
    use metrics::timeseries::Sample;
    use metrics::LineageRecorder;

    /// An in-memory artefact named `name`.
    fn blob(name: &str, text: String) -> Artefact {
        Artefact {
            path: PathBuf::from(name),
            name: name.to_string(),
            text,
            sibling: None,
        }
    }

    /// A lineage log consistent with the `point` fixture's final sample:
    /// all faults cold, 3 prefetched pages per fault, no evictions.
    fn lineage_for(faults: u64) -> LineageLog {
        let mut rec = LineageRecorder::new(true);
        rec.record(LineageEventKind::FirstTouch, 1_500, 1, 3, faults, 0);
        rec.record(LineageEventKind::PrefetchIn, 1_500, 1, 3, faults * 3, 0);
        rec.record(LineageEventKind::Migration, 1_500, 1, 3, faults * 4, 0);
        rec.take()
    }

    fn point(workload: &str, ratio: f64, faults: u64) -> MetricsPoint {
        let mut c = Counters::default();
        c.faults_fetched = faults;
        c.pages_faulted_in = faults;
        c.pages_prefetched = faults * 3;
        let samples = vec![
            Sample {
                t_ns: 1_000,
                faults_fetched: faults / 2,
                ..Sample::default()
            },
            Sample {
                t_ns: 2_000,
                faults_fetched: faults,
                pages_faulted_in: faults,
                pages_prefetched: faults * 3,
                migrated_bytes_h2d: faults * 4 * 4096,
                resident_pages: 512,
                prefetch_coverage_bp: 7_500,
                attr_cold_faults: faults,
                attr_prefetch_pages: faults * 3,
                lineage_events: 3,
                ..Sample::default()
            },
        ];
        let attribution = Attribution {
            cold_faults: faults,
            prefetch_pages: faults * 3,
            ..Attribution::default()
        };
        MetricsPoint {
            workload: workload.into(),
            ratio,
            policy: "density",
            counters: c,
            h2d_bytes: faults * 4096,
            d2h_bytes: 0,
            trace_dropped: 5,
            span_dropped: 2,
            total_time_ns: 2_000,
            timeseries: Timeseries {
                base_interval_ns: 1_000,
                interval_ns: 1_000,
                compactions: 0,
                samples,
            },
            attribution,
            top_offenders: vec![metrics::Offender {
                block: 7,
                stats: metrics::BlockStats {
                    refault_faults: 12,
                    prefetch_evicted_pages: 30,
                    evictions: 2,
                },
            }],
            lineage: lineage_for(faults),
        }
    }

    #[test]
    fn exposition_validates_and_reconciles() {
        let points = [point("regular", 0.5, 100), point("random", 1.25, 250)];
        let text = render_exposition(&points, None);
        let stats = exposition::validate(&text).expect("rendered exposition validates");
        assert!(stats.families > 20);
        // Aggregate totals reconcile with the counters exactly.
        assert!(text.contains(
            "uvm_faults_fetched_total{workload=\"regular\",ratio=\"0.50\",policy=\"density\"} 100"
        ));
        assert!(text.contains(
            "uvm_migrated_bytes_total{workload=\"random\",ratio=\"1.25\",policy=\"density\",direction=\"h2d\"} 1024000"
        ));
        // Satellite: recorder drops are visible without opening the trace.
        assert!(text.contains("uvm_trace_dropped_total{workload=\"regular\"") );
        assert!(text.contains("uvm_span_dropped_total"));
        // Quantile-labelled latency family declared once, sampled 6 times.
        assert_eq!(text.matches("# TYPE uvm_batch_latency_ns gauge").count(), 1);
        assert_eq!(text.matches("uvm_batch_latency_ns{").count(), 6);
    }

    #[test]
    fn exposition_carries_attribution_and_offenders() {
        let points = [point("regular", 1.5, 100)];
        let text = render_exposition(&points, None);
        exposition::validate(&text).expect("rendered exposition validates");
        assert!(text.contains(
            "uvm_attr_cold_faults_total{workload=\"regular\",ratio=\"1.50\",policy=\"density\"} 100"
        ));
        assert!(text.contains("uvm_attr_prefetch_pages_total"));
        assert!(text.contains(
            "uvm_offender_badness{workload=\"regular\",ratio=\"1.50\",policy=\"density\",block=\"7\"} 42"
        ));
        assert!(text.contains("uvm_evict_before_use_percent"));
    }

    #[test]
    fn exposition_exports_lineage_and_sched_gauges() {
        let points = [point("regular", 0.5, 100)];
        let sched = SweepSchedStats {
            points: 8,
            stolen: 0,
            max_point_wall_ns: 250_000_000,
            threads: 4,
        };
        let text = render_exposition(&points, Some(&sched));
        exposition::validate(&text).expect("rendered exposition validates");
        assert!(text.contains(
            "uvm_lineage_events{workload=\"regular\",ratio=\"0.50\",policy=\"density\"} 3"
        ));
        assert!(text.contains("uvm_lineage_dropped{"));
        assert!(text.contains("uvm_flight_dumps{"));
        assert!(text.contains("uvm_sweep_points 8"));
        assert!(text.contains("uvm_sweep_max_straggler_ms 250"));
        assert!(text.contains("uvm_sweep_threads 4"));
        // Without sched stats the experiment-wide gauges are absent.
        let solo = render_exposition(&points, None);
        assert!(!solo.contains("uvm_sweep_points"));
    }

    #[test]
    fn lineage_renders_totals_analytics_and_drilldown() {
        use LineageEventKind as K;
        let mut rec = LineageRecorder::new(true);
        // Block 3: touched in pass 1, evicted in pass 2, refaulted in
        // pass 4 => refault distance of 2 passes.
        rec.record(K::FirstTouch, 1_000, 1, 3, 16, 0);
        rec.record(K::Migration, 1_000, 1, 3, 16, 0);
        rec.record(K::Eviction, 2_000, 2, 3, 16, 0);
        rec.record(K::Refault, 4_000, 4, 3, 16, 0);
        rec.record(K::Migration, 4_000, 4, 3, 16, 0);
        rec.note_thrash_pin(4_500, 4, 3, 2, 2, &[]);
        let log = rec.take();
        let flight = serde_json::to_string_pretty(&log.dumps).expect("dumps serialize");
        let files = vec![Artefact {
            sibling: Some(flight),
            ..blob("p0", log.to_artefact())
        }];
        let out = render_lineage(&files, None).expect("lineage renders");
        assert!(out.contains("lineage event totals"));
        assert!(out.contains("refault / reuse distance analytics"));
        // The flight dumps ride in via the sibling .flight.json blob.
        assert!(out.contains("flight dump 0: thrash_pin"), "{out}");
        let drill = render_lineage(&files, Some(3)).expect("drilldown renders");
        assert!(drill.contains("block 3 lifecycle (5 events)"));
        assert!(drill.contains("refault"));
        let empty = render_lineage(&files, Some(9)).expect("missing block renders");
        assert!(empty.contains("block 9 lifecycle (0 events)"));
    }

    #[test]
    fn lineage_check_reconciles_and_fails_on_tamper() {
        let p = point("regular", 0.5, 100);
        let art = p.lineage.to_artefact();
        let last = p.timeseries.samples[1];
        check_lineage(&art, None, &last).expect("consistent pair reconciles");
        // Tamper: the CSV claims one more event than the artefact holds.
        let bad = Sample { lineage_events: 4, ..last };
        let err = check_lineage(&art, None, &bad).expect_err("tampered pair must fail");
        assert!(err.contains("lineage does not reconcile"), "{err}");
        assert!(err.contains("lineage_events column"), "{err}");
        // Tamper the partition itself: cold faults disagree.
        let worse = Sample { attr_cold_faults: 99, ..last };
        let err = check_lineage(&art, None, &worse).expect_err("partition mismatch must fail");
        assert!(err.contains("attr_cold_faults"), "{err}");
        // A missing .flight.json while the CSV counted dumps is drift too.
        let dumped = Sample { flight_dumps: 2, ..last };
        let err = check_lineage(&art, None, &dumped)
            .expect_err("missing flight dumps must fail");
        assert!(err.contains("flight dumps"), "{err}");
    }

    #[test]
    fn explain_renders_decomposition_and_offenders() {
        let p = point("regular", 1.5, 100);
        let files = vec![blob("regular_r1.50", p.timeseries.to_csv())];
        let tsv = render_offenders_tsv(std::slice::from_ref(&p));
        let out = render_explain(&files, Some(&tsv)).expect("explain renders");
        assert!(out.contains("fault decomposition by root cause"));
        assert!(out.contains("100.0"), "all faults are cold in the fixture");
        assert!(out.contains("migration and eviction provenance"));
        assert!(out.contains("top offending VABlocks"));
        assert!(out.contains("42"), "offender badness 12 + 30");
    }

    #[test]
    fn explain_fails_on_reconciliation_mismatch() {
        let mut p = point("regular", 1.5, 100);
        // Corrupt the artefact: claim one fault was a refault without
        // taking it from the cold count — the partition no longer sums.
        p.timeseries.samples[1].attr_refault_used_faults = 1;
        let files = vec![blob("bad", p.timeseries.to_csv())];
        let err = render_explain(&files, None).expect_err("mismatch must fail");
        assert!(err.contains("does not reconcile"), "{err}");
        assert!(err.contains("fault causes vs faults_fetched"), "{err}");
        // Relabelling a fault-path page as a hint page keeps the byte
        // total but not the hint-page equation.
        let mut p = point("regular", 1.5, 100);
        p.timeseries.samples[1].attr_prefetch_pages -= 1;
        p.timeseries.samples[1].attr_hint_pages += 1;
        let files = vec![blob("relabelled", p.timeseries.to_csv())];
        let err = render_explain(&files, None).expect_err("relabel must fail");
        assert!(err.contains("prefetch pages vs pages_prefetched"), "{err}");
    }

    #[test]
    fn loader_follows_the_layout_and_check_runs_every_kind() {
        let dir = std::env::temp_dir().join(format!("metricsio-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_experiment(&dir, "fig1", &[point("regular", 0.5, 100)], None).expect("write");
        // Beside the experiment dir: a figure CSV and two JSON files,
        // only one of which starts the way a rendered trace does.
        std::fs::write(dir.join("fig7.csv"), "x,y\n1,2\n").unwrap();
        std::fs::write(dir.join("fig1.json"), "{}").unwrap();
        let trace = format!("{}[]}}", metrics::chrome::TRACE_PREFIX);
        std::fs::write(dir.join("trace.json"), trace).unwrap();
        let set = load_artefacts(&[&dir]);
        let kinds = [&set.samples, &set.lineages, &set.expositions, &set.offenders, &set.traces];
        assert_eq!(kinds.map(Vec::len), [1, 1, 1, 1, 1], "{set:?}");
        assert_eq!(set.samples[0].name, "fig1/00_regular_r0.50_density");
        let (lines, failures) = check_artefacts(&set);
        assert!(failures.is_empty() && lines.len() == 4, "{lines:?} {failures:?}");
        // Named explicitly, any JSON is a trace; a missing path is an
        // error, not an empty set.
        let set = load_artefacts(&[dir.join("fig1.json"), dir.join("absent")]);
        let (_, failures) = check_artefacts(&set);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[1].contains("missing traceEvents array"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_diff_shows_per_cause_deltas() {
        let a = point("regular", 1.5, 100);
        let mut b = point("regular", 1.5, 100);
        // B: 40 of the faults are refaults on evicted-unused pages.
        let s = &mut b.timeseries.samples[1];
        s.attr_cold_faults = 60;
        s.attr_refault_unused_faults = 40;
        s.attr_prefetch_evicted_pages = 40;
        s.pages_evicted = 40;
        let fa = vec![blob("a", a.timeseries.to_csv())];
        let fb = vec![blob("b", b.timeseries.to_csv())];
        let out = render_explain_diff("off", &fa, "on", &fb).expect("diff renders");
        assert!(out.contains("attribution diff"));
        assert!(out.contains("refault_unused_faults"));
        assert!(out.contains("+40"));
        assert!(out.contains("pages evicted before use"));
    }

    #[test]
    fn explain_diff_refuses_fault_totals_past_u64() {
        // Each CSV reconciles on its own, and even the merged per-cause
        // fields fit a u64; only the merged fault total does not.
        let mut p = point("regular", 1.5, 100);
        let s = &mut p.timeseries.samples[1];
        let dup = u64::MAX / 2;
        s.faults_fetched += dup;
        s.duplicate_faults = dup;
        s.attr_replay_dup_faults = dup;
        let files = vec![blob("a", p.timeseries.to_csv()), blob("b", p.timeseries.to_csv())];
        render_explain(&files, None).expect("each point reconciles");
        let err = render_explain_diff("x", &files, "y", &files[..1]).expect_err("overflow");
        assert!(err.contains("overflow u64"), "{err}");
        let err = render_explain_diff_json("x", &files, "y", &files[..1]).expect_err("overflow");
        assert!(err.contains("overflow u64"), "{err}");
    }

    #[test]
    fn file_stems_are_filesystem_safe() {
        let p = point("sgemm 2/1", 1.25, 10);
        assert_eq!(p.file_stem(3), "03_sgemm-2-1_r1.25_density");
    }

    #[test]
    fn report_renders_summary_and_timeline() {
        let p = point("regular", 0.5, 100);
        let files = vec![blob("regular_r0.50", p.timeseries.to_csv())];
        let out = render_report(&files, 16).expect("report renders");
        assert!(out.contains("per-run cost decomposition"));
        assert!(out.contains("regular_r0.50: fault/eviction timeline"));
        // Timeline deltas: 50 faults in the first bucket, 50 in the second.
        assert!(out.contains("50"));
    }

    #[test]
    fn report_rejects_malformed_csv() {
        let files = vec![blob("bad", "nope\n1,2\n".to_string())];
        assert!(render_report(&files, 16).is_err());
    }

    fn trend_doc(entries: &[(&str, f64, Option<f64>)]) -> Value {
        let seq = entries
            .iter()
            .map(|(name, wall, rate)| {
                let mut m = vec![
                    ("name".to_string(), Value::Str(name.to_string())),
                    ("wall_seconds".to_string(), Value::F64(*wall)),
                ];
                if let Some(r) = rate {
                    m.push(("faults_per_sec".to_string(), Value::F64(*r)));
                }
                Value::Map(m)
            })
            .collect();
        Value::Map(vec![("ci_trend".to_string(), Value::Seq(seq))])
    }

    #[test]
    fn regress_flags_wall_time_growth() {
        let doc = trend_doc(&[
            ("fig1", 10.0, Some(1000.0)),
            ("fig1", 10.4, Some(1010.0)),
            ("fig1", 14.0, Some(990.0)),
        ]);
        let findings = evaluate_trend(&doc, 0.25, 2).expect("trend evaluates");
        let wall = findings
            .iter()
            .find(|f| f.metric == "wall_seconds")
            .expect("wall compared");
        assert!(wall.regressed, "14s vs 10.2s median is > 25%");
        assert!((wall.baseline - 10.2).abs() < 1e-9);
        let rate = findings
            .iter()
            .find(|f| f.metric == "faults_per_sec")
            .expect("rate compared");
        assert!(!rate.regressed, "1% throughput dip is within threshold");
        let text = render_findings(&findings, 0.25);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("fig1"));
    }

    #[test]
    fn regress_flags_straggler_growth() {
        // A straggler-point blowup is a regression even when total wall
        // holds steady (the scheduler hid it behind overlap).
        let entry = |wall: f64, straggler: f64| {
            Value::Map(vec![
                ("name".to_string(), Value::Str("fig1".to_string())),
                ("wall_seconds".to_string(), Value::F64(wall)),
                ("max_straggler_ms".to_string(), Value::F64(straggler)),
            ])
        };
        let doc = Value::Map(vec![(
            "ci_trend".to_string(),
            Value::Seq(vec![entry(10.0, 400.0), entry(10.0, 410.0), entry(10.1, 900.0)]),
        )]);
        let findings = evaluate_trend(&doc, 0.25, 2).expect("trend evaluates");
        let straggler = findings
            .iter()
            .find(|f| f.metric == "max_straggler_ms")
            .expect("straggler compared");
        assert!(straggler.regressed, "900ms vs 405ms median is > 25%");
        assert!(findings
            .iter()
            .any(|f| f.metric == "wall_seconds" && !f.regressed));
    }

    #[test]
    fn regress_flags_throughput_drop() {
        let doc = trend_doc(&[
            ("fig1", 10.0, Some(1000.0)),
            ("fig1", 10.0, Some(600.0)),
        ]);
        let findings = evaluate_trend(&doc, 0.25, 2).expect("trend evaluates");
        assert!(findings.iter().any(|f| f.metric == "faults_per_sec" && f.regressed));
    }

    #[test]
    fn regress_needs_history() {
        let doc = trend_doc(&[("fig1", 10.0, None)]);
        let findings = evaluate_trend(&doc, 0.25, 2).expect("trend evaluates");
        assert!(findings.is_empty(), "one run is not a baseline");
        let text = render_findings(&findings, 0.25);
        assert!(text.contains("vacuously"));
    }

    #[test]
    fn trend_keep_is_in_lockstep_with_trend_metrics() {
        // Every gated metric must survive import; nothing else (plus the
        // series name) may.
        for (metric, _) in TREND_METRICS {
            assert!(TREND_KEEP.contains(metric), "{metric} would be stripped at import");
        }
        assert_eq!(TREND_KEEP.len(), TREND_METRICS.len() + 1, "only name + gated metrics");
        assert!(TREND_KEEP.contains(&"name"));
    }

    #[test]
    fn trend_entry_strips_serve_only_keys() {
        let record = vec![
            ("name".to_string(), Value::Str("fig1".to_string())),
            ("wall_seconds".to_string(), Value::F64(10.0)),
            ("faults_per_sec".to_string(), Value::F64(1000.0)),
            // Serve-only telemetry that must never reach the baseline:
            ("build".to_string(), Value::Str("0.1.0+gdeadbeef".to_string())),
            ("uvm_serve_requests_accepted_total".to_string(), Value::U64(3)),
            ("serve_queue_depth".to_string(), Value::U64(2)),
            ("cache_hits".to_string(), Value::U64(7)),
        ];
        let entry = trend_entry(&record, None);
        let Value::Map(m) = &entry else { panic!("entry is a map") };
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "wall_seconds", "faults_per_sec"]);
        // Renaming only touches the series name.
        let aliased = trend_entry(&record, Some("fig1_scale1_traced"));
        let Value::Map(m) = &aliased else { panic!("aliased entry is a map") };
        assert_eq!(m[0], ("name".to_string(), Value::Str("fig1_scale1_traced".to_string())));
        assert_eq!(m[1].0, "wall_seconds");
    }

    #[test]
    fn serve_only_keys_never_perturb_regress_findings() {
        // Two identical trend docs, except one's entries carry extra
        // serve-only keys (as if an unguarded import had leaked them):
        // the gate must produce identical findings, because it only ever
        // reads TREND_METRICS keys.
        let clean = trend_doc(&[
            ("fig1", 10.0, Some(1000.0)),
            ("fig1", 10.4, Some(1010.0)),
            ("fig1", 14.0, Some(990.0)),
        ]);
        let mut dirty = clean.clone();
        if let Value::Map(keys) = &mut dirty {
            if let Some((_, Value::Seq(entries))) = keys.iter_mut().find(|(k, _)| k == "ci_trend") {
                for e in entries.iter_mut() {
                    if let Value::Map(m) = e {
                        m.push(("uvm_serve_scrapes_total".to_string(), Value::U64(41)));
                        m.push(("build".to_string(), Value::Str("x".to_string())));
                    }
                }
            }
        }
        let a = evaluate_trend(&clean, 0.25, 2).expect("clean evaluates");
        let b = evaluate_trend(&dirty, 0.25, 2).expect("dirty evaluates");
        assert_eq!(a, b, "serve-only keys changed the gate's findings");
        assert!(a.iter().any(|f| f.regressed), "the wall regression is still caught");
    }

    #[test]
    fn build_info_is_pushed_and_wellformed() {
        let text = render_exposition(&[point("regular", 0.5, 100)], None);
        exposition::validate(&text).expect("exposition with build info validates");
        assert!(
            text.contains(&format!(
                "uvm_build_info{{version=\"{}\",git=\"{}\"}} 1",
                build_version(),
                build_git()
            )),
            "{text}"
        );
        assert!(build_info().starts_with(build_version()));
        assert!(build_info().contains("+g"));
    }

    #[test]
    fn push_points_prefixes_extra_labels() {
        let mut exp = Exposition::new();
        push_points(
            &mut exp,
            &[point("regular", 0.5, 100)],
            Some(&SweepSchedStats {
                points: 2,
                stolen: 0,
                max_point_wall_ns: 1_000_000,
                threads: 1,
            }),
            &[("request", "7"), ("experiment", "fig1")],
        );
        let text = exp.render();
        exposition::validate(&text).expect("prefixed exposition validates");
        assert!(text.contains(
            "uvm_faults_fetched_total{request=\"7\",experiment=\"fig1\",workload=\"regular\",ratio=\"0.50\",policy=\"density\"} 100"
        ));
        // Sched gauges carry the extra labels too (they are per request
        // in the serve exposition).
        assert!(text.contains("uvm_sweep_points{request=\"7\",experiment=\"fig1\"} 2"));
        // Appended labels compose with the prefix.
        assert!(text.contains(
            "uvm_offender_badness{request=\"7\",experiment=\"fig1\",workload=\"regular\",ratio=\"0.50\",policy=\"density\",block=\"7\"} 42"
        ));
    }

    #[test]
    fn regress_series_are_independent() {
        let doc = trend_doc(&[
            ("fig1", 10.0, None),
            ("all", 100.0, None),
            ("fig1", 10.1, None),
            ("all", 220.0, None),
        ]);
        let findings = evaluate_trend(&doc, 0.25, 2).expect("trend evaluates");
        assert!(findings
            .iter()
            .any(|f| f.name == "all" && f.metric == "wall_seconds" && f.regressed));
        assert!(findings
            .iter()
            .any(|f| f.name == "fig1" && f.metric == "wall_seconds" && !f.regressed));
    }

    #[test]
    fn regress_rejects_documents_without_trend() {
        let doc = Value::Map(vec![("other".to_string(), Value::U64(1))]);
        assert!(evaluate_trend(&doc, 0.25, 2).is_err());
    }
}
