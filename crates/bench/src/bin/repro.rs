//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale <denominator>] [--out <dir>] [--json] [--threads <n>]
//!                    [--trace-out <file>] [--trace-cap <events>]
//!                    [--metrics-out <dir>] [--metrics-interval <sim-ns>]
//!                    [--retry-crosscheck] [--progress|--no-progress]
//! repro all
//! repro list
//! repro oversub [--grid small|full] [--scale <den>] [--out <dir>] [--json]
//!               [--threads <n>] [--metrics-out <dir>]
//!               [--metrics-interval <sim-ns>] [--progress|--no-progress]
//! repro check <path>...
//! repro bench-append <file> <name> <wall_seconds>
//! repro report <metrics-dir>
//! repro explain <metrics-dir>
//! repro explain --diff <metrics-dir-a> <metrics-dir-b> [--json]
//! repro lineage <metrics-dir> [--block <n>]
//! repro regress <trend-file> [--threshold <frac>] [--min-runs <n>]
//! repro trend-import <trend-file> <bench-json> <experiment> [as-name]
//! repro serve --socket <path> [--http <addr>] [--out <dir>] [--scale <den>]
//!             [--threads <n>] [--cache <entries>]
//! repro serve --check <socket>
//! repro submit <socket> <experiment> [--scale <den>] [--ndjson]
//! repro submit <socket> --shutdown
//! ```
//!
//! `repro serve` runs the experiment harness as a daemon: requests
//! arrive over a Unix socket (line-delimited JSON), execute on the same
//! sweep machinery as the batch path (with a cross-request
//! prepared-workload cache), and stream NDJSON progress frames back.
//! An HTTP sidecar exposes the live Prometheus registry at `/metrics`
//! plus `/healthz` and `/readyz`; `repro serve --check` self-scrapes a
//! running daemon and exits 1 if the exposition drifts from the
//! daemon's request ledger or the on-disk artefact counters. `repro
//! submit` is the script/CI client; its stdout table is byte-identical
//! to the batch run of the same experiment. See README §Serving.
//!
//! `--json` additionally writes each experiment's table as
//! `<out>/<experiment>.json` for downstream tooling, plus a
//! `<out>/BENCH_hotpaths.json` wall-time/throughput report (simulated
//! faults/sec and warp-steps/sec per experiment, and the process's peak
//! resident memory as `peak_rss_mb`). The report is rewritten after
//! *every* experiment, so a partial `repro all` run still leaves the
//! completed experiments' telemetry on disk.
//!
//! `--metrics-out <dir>` samples every run's driver counters on a
//! simulated-time grid (`--metrics-interval`, default 500 µs of sim time;
//! the bounded sample buffer compacts in place, doubling the interval,
//! rather than dropping the tail). Per experiment it writes one sample CSV
//! per sweep point plus `metrics.prom`, a Prometheus text exposition of
//! the end-of-run totals labelled by workload/ratio/policy. Sampling is
//! driven by the virtual clock, so the streams are bit-identical for any
//! `--threads` value. `repro report <dir>` re-renders
//! the CSVs as per-run cost decompositions (Figs. 8–10 shapes). `repro
//! regress <trend-file>` compares the newest `ci_trend` entry of each
//! series against the median of its history and exits nonzero on a
//! regression beyond `--threshold` (default 20%); `repro trend-import`
//! appends one experiment's perf record from a `BENCH_hotpaths.json` to
//! the trend file, which is how the nightly job grows the baseline.
//!
//! `repro explain <metrics-dir>` renders the fault-provenance
//! decomposition from the same artefacts: every driver-observed fault
//! attributed to its root cause (cold first touch, refault of an evicted
//! page split by whether it had been used, prefetch hit, replay
//! duplicate), migrated bytes by origin, the evict-before-use rate, and
//! the top offending VABlocks (`offenders.tsv`). Each sample CSV's final
//! row (schema v3, 39 columns) carries the whole `metrics::Attribution`
//! ledger in its eleven `attr_*` columns, and the ledger must reconcile
//! with the row's counter and byte columns by `Attribution::reconcile`,
//! the equations the live run is held to; a ledger that does not cannot
//! be rendered and exits 1. `repro explain --diff A B` merges each dir's
//! ledgers (checked: a total past u64 exits 1) and prints per-cause
//! deltas (e.g. the same sweep with prefetch on vs off, making the
//! prefetch-eviction antagonism directly visible); `--json` emits the
//! same per-cause delta table as machine-readable JSON for downstream
//! tooling.
//!
//! `repro oversub` is the oversubscription observatory: it sweeps every
//! workload under every eviction policy (`fault_lru`,
//! `access_counter_lru`, `random`, `access_frequency`) across a
//! device-memory ratio grid spanning 0.25×–2.0×, writes the
//! `oversub.tsv` heatmap (raw counters plus derived
//! evictions-per-fault, refault-rate, evict-before-use columns and the
//! per-curve cliff rows) and the `oversub.prom` exposition
//! (`uvm_oversub_*` gauges labelled workload/policy/ratio, plus
//! `uvm_oversub_cliff_ratio`), and prints the thrash-cliff map: per
//! (workload, policy) curve, the first ratio whose footprint-normalised
//! cost jumps ≥ 20% over the previous grid point, located by an
//! integer-only knee detector. With `--metrics-out` the per-point
//! sample CSVs land beside the tsv and `repro report` renders the map
//! plus a root-cause delta diff across each cliff's bracketing cells.
//! `--grid small` is the push-gate subset (2 workloads × 4 ratios; the
//! full grid is nightly). Like every sweep, the artefacts are
//! bit-identical for any `--threads` value.
//!
//! `repro lineage <metrics-dir>` re-renders the fault-lineage event
//! streams (`*.lineage`, written whenever `--metrics-out` is armed) as
//! per-kind lifecycle totals, refault/reuse-distance percentiles, and
//! the prefetch→eviction antagonism chains — plus any anomaly-triggered
//! flight-recorder dumps the runs captured. `--block <n>` appends one
//! VABlock's event timeline per point.
//!
//! `repro check <path>...` is the one artefact gate: it loads the paths
//! once and runs every reconciliation that applies to what it found
//! ([`bench::metricsio::check_artefacts`]). Each failure prints
//! `FAIL <path>: <reason>`; the output ends with `N failure(s)`, and any
//! failure, I/O error or empty find exits 1.
//!
//! `--trace-out trace.json` records batch-lifecycle spans and per-page
//! fault events during every sweep and writes a combined
//! Chrome-trace/Perfetto JSON file — load it at <https://ui.perfetto.dev>
//! or `chrome://tracing`. A flamegraph-style per-phase summary is printed
//! after the runs. `--trace-cap` bounds the per-run span buffer (default
//! 65536 events; dropped events are counted, and dropped leaf *time*
//! stays accounted per category). `repro bench-append` appends one
//! `{name, wall_seconds}` entry to the `ci_trend` array of a
//! BENCH_hotpaths-style JSON file (the CI perf trend).
//!
//! A live progress line (points done, faults/sec, ETA) is written to
//! stderr while sweeps run — on by default when stderr is a terminal;
//! force with `--progress` / `--no-progress`.
//!
//! Experiments: fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1
//! table2, the §VI ablations (ablation_replay ablation_threshold
//! ablation_granularity ablation_eviction ablation_batch_size
//! ablation_thrash), and the extension analyses (extra_warm_start
//! extra_batch_composition extra_prefetch_waste).
//!
//! `--scale N` sets GPU memory to 12 GB / N (default 16). CSV artifacts
//! (the scatter data behind Figures 7 and 8) are written to `--out`
//! (default `./repro-out`). `--threads N` sizes the rayon pool running
//! the sweeps; results are deterministic and identical for every N.
//! The driver's batch-service wall plus the sweep scheduler's point
//! count, thread count and longest-point wall land in
//! `BENCH_hotpaths.json`.
//! `--retry-crosscheck` runs every point with the engine's event-driven
//! replay bookkeeping *and* the reference rescan side by side, asserting
//! at each skip opportunity that the closed form reproduces the scan's
//! exact counter deltas and buffer writes (the ci.sh scan-vs-event
//! equivalence gate; slow, for validation only).

use bench::experiments::{obs, ExperimentFn, Scale, EXPERIMENTS};
use bench::metricsio::{load_artefacts, Artefacts};
use bench::serve::{client, ServeOptions};
use metrics::chrome;
use serde::{Serialize, Value};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Print to stdout, exiting quietly on a closed pipe (`repro list | head`).
fn out(text: &str) {
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

/// Transient stderr status note, gated on the same TTY detection as the
/// sweep progress line so piped/CI output stays clean.
fn status(msg: &str) {
    if obs::stderr_is_tty() {
        eprintln!("{msg}");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all|list> [--scale <denominator>] [--out <dir>] \
         [--json] [--threads <n>] [--trace-out <file>] \
         [--trace-cap <events>] [--metrics-out <dir>] [--metrics-interval <sim-ns>] \
         [--retry-crosscheck] [--progress|--no-progress]\n\
         \x20      repro oversub [--grid small|full] [--scale <den>] [--out <dir>] [--json] \
         [--threads <n>] [--metrics-out <dir>]\n\
         \x20      repro check <path>...\n\
         \x20      repro bench-append <file> <name> <wall_seconds>\n\
         \x20      repro report <metrics-dir>\n\
         \x20      repro explain <metrics-dir>\n\
         \x20      repro explain --diff <metrics-dir-a> <metrics-dir-b> [--json]\n\
         \x20      repro lineage <metrics-dir> [--block <n>]\n\
         \x20      repro regress <trend-file> [--threshold <frac>] [--min-runs <n>]\n\
         \x20      repro trend-import <trend-file> <bench-json> <experiment> [as-name]\n\
         \x20      repro serve --socket <path> [--http <addr>] [--out <dir>] [--scale <den>] \
         [--threads <n>] [--cache <entries>]\n\
         \x20      repro serve --check <socket>\n\
         \x20      repro submit <socket> <experiment> [--scale <den>] [--ndjson]\n\
         \x20      repro submit <socket> --shutdown"
    );
    eprintln!("experiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}

/// Parse a `--scale` denominator: a finite value >= 1, or `error:` and
/// exit 2.
fn parse_scale(arg: Option<&String>) -> f64 {
    match arg.and_then(|s| s.parse::<f64>().ok()) {
        Some(den) if den.is_finite() && den >= 1.0 => den,
        _ => {
            let got = arg.map_or("nothing", String::as_str);
            eprintln!("error: --scale must be a finite denominator >= 1 (got {got})");
            std::process::exit(2);
        }
    }
}

/// Parse a flag's value, or print the usage and exit 2.
fn parse_or_usage<T: std::str::FromStr>(arg: Option<&String>) -> T {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

/// Parse a count flag's value, which must be an integer >= 1, or
/// `error:` and exit 2.
fn parse_positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    arg: Option<&String>,
    flag: &str,
) -> T {
    match arg.and_then(|s| s.parse::<T>().ok()) {
        Some(n) if n >= T::from(1) => n,
        _ => {
            eprintln!("error: {flag} must be an integer >= 1");
            std::process::exit(2);
        }
    }
}

/// Parse a value that must be a finite number > 0 (a wall time, a
/// threshold fraction), or `error:` and exit 2.
fn parse_positive_f64(arg: Option<&String>, what: &str) -> f64 {
    match arg.and_then(|s| s.parse::<f64>().ok()) {
        Some(v) if v.is_finite() && v > 0.0 => v,
        _ => {
            let got = arg.map_or("nothing", String::as_str);
            eprintln!("error: {what} must be a finite number > 0 (got {got})");
            std::process::exit(2);
        }
    }
}

/// Size the global rayon pool the sweeps run on.
fn build_pool(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("configure global thread pool");
}

/// Flags shared by experiment runs and `repro oversub`.
struct RunFlags {
    scale_den: f64,
    out_dir: PathBuf,
    json: bool,
    metrics_out: Option<PathBuf>,
}

/// Parse the flags shared by experiment runs and `repro oversub`,
/// handing any other argument to `other` (with its index, so it can
/// consume a value), which returns false for one it does not know.
/// Then size the thread pool, arm metrics sampling and set the progress
/// line.
fn parse_run_flags(
    args: &[String],
    mut other: impl FnMut(&[String], &mut usize) -> bool,
) -> RunFlags {
    let mut flags = RunFlags {
        scale_den: 16.0,
        out_dir: PathBuf::from("repro-out"),
        json: false,
        metrics_out: None,
    };
    let mut threads: Option<usize> = None;
    let mut metrics_interval = metrics::DEFAULT_SAMPLE_INTERVAL_NS;
    let mut progress: Option<bool> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => flags.json = true,
            "--scale" => {
                i += 1;
                flags.scale_den = parse_scale(args.get(i));
            }
            "--out" => {
                i += 1;
                flags.out_dir = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                i += 1;
                flags.metrics_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--metrics-interval" => {
                i += 1;
                metrics_interval = parse_positive(args.get(i), "--metrics-interval");
            }
            "--threads" => {
                i += 1;
                threads = Some(parse_positive(args.get(i), "--threads"));
            }
            "--progress" => progress = Some(true),
            "--no-progress" => progress = Some(false),
            _ if other(args, &mut i) => {}
            _ => usage(),
        }
        i += 1;
    }
    if let Some(n) = threads {
        build_pool(n);
    }
    if flags.metrics_out.is_some() {
        obs::enable_metrics(metrics_interval, metrics::DEFAULT_SAMPLE_CAPACITY);
    }
    obs::set_progress(progress.unwrap_or_else(obs::progress_default));
    flags
}

/// `repro bench-append <file> <name> <wall_seconds>`: append one
/// `{name, wall_seconds}` entry to the file's `ci_trend` array (created
/// if absent), preserving every other key. CI uses this to keep a
/// wall-time trend in `BENCH_hotpaths.json`. `main` has already
/// rejected a wall time that is not a finite number > 0.
fn cmd_bench_append(path: &str, name: &str, wall_seconds: f64) -> ! {
    let entry = Value::Map(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("wall_seconds".to_string(), Value::F64(wall_seconds)),
    ]);
    append_trend_or_exit(path, read_json_or_exit(path, 1), entry);
    out(&format!(
        "{path}: ci_trend += {{{name}, {wall_seconds:.3}s}}"
    ));
    std::process::exit(0);
}

/// Read and parse the JSON file at `path`, or report why not and exit
/// with `code`.
fn read_json_or_exit(path: &str, code: i32) -> Value {
    std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))
        .and_then(|body| serde_json::from_str(&body).map_err(|e| format!("parse {path}: {e}")))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(code)
        })
}

/// Append `entry` to the `ci_trend` array (created if absent) of
/// `root`, the parsed JSON object of `path`, and write it back,
/// preserving every other key; exit 1 on error.
fn append_trend_or_exit(path: &str, mut root: Value, entry: Value) {
    let Value::Map(keys) = &mut root else {
        eprintln!("error: {path}: top level is not a JSON object");
        std::process::exit(1);
    };
    match keys.iter_mut().find(|(k, _)| k == "ci_trend") {
        Some((_, Value::Seq(trend))) => trend.push(entry),
        Some((_, other)) => *other = Value::Seq(vec![entry]),
        None => keys.push(("ci_trend".to_string(), Value::Seq(vec![entry]))),
    }
    let rendered = serde_json::to_string_pretty(&root).expect("re-serialize trend file");
    if let Err(e) = std::fs::write(path, rendered) {
        eprintln!("error: write {path}: {e}");
        std::process::exit(1);
    }
}

/// Load the artefacts under `dir`, or exit 1 on any I/O error and when
/// `found` says the set holds none of `what` there is to render.
fn load_or_exit(dir: &str, what: &str, found: fn(&Artefacts) -> bool) -> Artefacts {
    let set = load_artefacts(&[dir]);
    if set.errors.is_empty() && found(&set) {
        return set;
    }
    for e in &set.errors {
        eprintln!("error: read {e}");
    }
    if set.errors.is_empty() {
        eprintln!("error: no {what} under {dir} — run with --metrics-out first");
    }
    std::process::exit(1);
}

/// [`load_or_exit`] for a directory that must hold sample CSVs.
fn samples_or_exit(dir: &str) -> Artefacts {
    load_or_exit(dir, "sample CSVs", |s| !s.samples.is_empty())
}

/// Print a renderer's text and exit 0, or its error and exit 1.
fn out_or_exit(result: Result<String, String>) -> ! {
    match result {
        Ok(text) => {
            out(&text);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro check <path>...`: load every artefact under the paths and run
/// every reconciliation that applies (see
/// [`bench::metricsio::check_artefacts`]). Prints `FAIL <path>: <reason>`
/// per failure and ends with `N failure(s)`; exits 1 on any failure or
/// when nothing was found.
fn cmd_check(paths: &[String]) -> ! {
    if paths.is_empty() || paths.iter().any(|p| p.starts_with('-')) {
        usage();
    }
    let (lines, failures) = bench::metricsio::check_artefacts(&load_artefacts(paths));
    if lines.is_empty() && failures.is_empty() {
        eprintln!("error: no artefacts to check under {}", paths.join(" "));
        std::process::exit(1);
    }
    for line in &lines {
        out(line);
    }
    for f in &failures {
        eprintln!("FAIL {f}");
    }
    out(&format!("{} failure(s)", failures.len()));
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

/// `repro report <metrics-dir>`: re-read every sample CSV a
/// `--metrics-out` run wrote and render the per-run cost decompositions.
/// When an `oversub.tsv` heatmap lives under the dir, the thrash-cliff
/// map is appended — with a root-cause delta diff across each cliff's
/// bracketing cells when their sample CSVs are on hand.
fn cmd_report(dir: &str) -> ! {
    let set = load_or_exit(dir, "sample CSVs", |s| {
        !s.samples.is_empty() || !s.oversubs.is_empty()
    });
    let mut sections = Vec::new();
    if !set.samples.is_empty() {
        sections.push(bench::metricsio::render_report(&set.samples, 20));
    }
    for o in &set.oversubs {
        sections.push(
            bench::metricsio::render_oversub(o, &set.samples)
                .map_err(|e| format!("{}: {e}", o.path.display())),
        );
    }
    out_or_exit(
        sections
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map(|s| s.join("\n")),
    );
}

/// `repro explain <metrics-dir>`: render the per-fault root-cause
/// decomposition (faults by cause, migrated bytes by origin, top
/// offending VABlocks) from a `--metrics-out` dir's artefacts alone.
/// `repro explain --diff <dir-a> <dir-b>` renders the cross-run
/// attribution diff instead. Either form exits 1 when a point's
/// attribution columns fail to reconcile with its counter columns,
/// because such a ledger cannot be rendered.
fn cmd_explain(args: &[String]) -> ! {
    if args.first().map(String::as_str) == Some("--diff") {
        let json = args.iter().any(|a| a == "--json");
        let dirs: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with('-')).collect();
        let (a, b) = match (dirs.first(), dirs.get(1)) {
            (Some(a), Some(b)) if dirs.len() == 2 => (*a, *b),
            _ => usage(),
        };
        let (fa, fb) = (samples_or_exit(a).samples, samples_or_exit(b).samples);
        status(&format!(
            "explain: diffing {} vs {} sample CSV(s)",
            fa.len(),
            fb.len()
        ));
        out_or_exit(if json {
            bench::metricsio::render_explain_diff_json(a, &fa, b, &fb)
        } else {
            bench::metricsio::render_explain_diff(a, &fa, b, &fb)
        })
    }
    let dir = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let set = samples_or_exit(dir);
    status(&format!(
        "explain: reading {} sample CSV(s) under {dir}",
        set.samples.len()
    ));
    out_or_exit(bench::metricsio::render_explain(
        &set.samples,
        set.merged_offenders().as_deref(),
    ))
}

/// `repro lineage <metrics-dir>`: re-render the fault-lineage event
/// streams written by a `--metrics-out` run — per-kind lifecycle totals,
/// refault/reuse-distance analytics, antagonism chains, and any flight
/// dumps. `--block <n>` appends one VABlock's timeline per point.
fn cmd_lineage(args: &[String]) -> ! {
    let mut dir: Option<&str> = None;
    let mut block: Option<u64> = None;
    let mut j = 0;
    while j < args.len() {
        match args[j].as_str() {
            "--block" => {
                j += 1;
                block = Some(parse_or_usage(args.get(j)));
            }
            a if dir.is_none() && !a.starts_with('-') => dir = Some(a),
            _ => usage(),
        }
        j += 1;
    }
    let dir = dir.unwrap_or_else(|| usage());
    let lineages = load_or_exit(dir, ".lineage artefacts", |s| !s.lineages.is_empty()).lineages;
    status(&format!(
        "lineage: reading {} artefact(s) under {dir}",
        lineages.len()
    ));
    out_or_exit(bench::metricsio::render_lineage(&lineages, block))
}

/// `repro regress <trend-file>`: gate on the `ci_trend` perf history.
/// Exits 1 when any headline metric of any series regressed beyond the
/// threshold, 2 on unusable input, 0 otherwise.
fn cmd_regress(path: &str, threshold: f64, min_runs: usize) -> ! {
    let root = read_json_or_exit(path, 2);
    let findings = match bench::metricsio::evaluate_trend(&root, threshold, min_runs) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    };
    out(&bench::metricsio::render_findings(&findings, threshold));
    let regressed: Vec<_> = findings.iter().filter(|f| f.regressed).collect();
    if regressed.is_empty() {
        out("regress: OK");
        std::process::exit(0);
    }
    // One self-contained line per violation: the deviating key, the
    // baseline it is judged against, the observed value, and the band
    // the gate allows — everything needed to triage from the CI log.
    for f in &regressed {
        eprintln!(
            "regress: {}.{} = {:.4} is outside allowed {} \
             (baseline {:.4}, median of {} runs; {:+.1}% in the bad direction)",
            f.name,
            f.metric,
            f.current,
            f.allowed_band(),
            f.baseline,
            f.history,
            f.delta_frac * 100.0
        );
    }
    std::process::exit(1);
}

/// `repro trend-import <trend-file> <bench-json> <experiment> [as-name]`:
/// copy one named perf record out of a `BENCH_hotpaths.json` report — an
/// `experiments` entry from `repro --json`, or a `bench-append`ed
/// wall-time series — into the trend file's `ci_trend` array (the file
/// is created when absent). This is how the nightly job appends a
/// baseline entry without jq. The optional `as-name` renames the entry
/// in the trend, so one experiment can feed several series (e.g. the
/// traced fig1 run importing its full perf record — wall *and*
/// faults_per_sec — under the `fig1_scale1_traced` series name).
fn cmd_trend_import(
    trend_path: &str,
    bench_path: &str,
    experiment: &str,
    as_name: Option<&str>,
) -> ! {
    let bench_root = read_json_or_exit(bench_path, 1);
    let Value::Map(bench_keys) = &bench_root else {
        eprintln!("error: {bench_path}: top level is not a JSON object");
        std::process::exit(1);
    };
    // Experiments written by `repro --json` carry the full perf record;
    // `bench-append` series (traced wall times) live in the report's own
    // `ci_trend` array with just name + wall_seconds. Accept either, so
    // the nightly can gate every series it records. `rev()` takes the
    // newest entry when a bench-append series repeats within one run.
    let name = Value::Str(experiment.to_string());
    let newest_named = |key: &str| match bench_keys.iter().find(|(k, _)| k == key) {
        Some((_, Value::Seq(entries))) => entries.iter().rev().find_map(|e| match e {
            Value::Map(m) if m.iter().any(|(k, v)| k == "name" && *v == name) => Some(m.clone()),
            _ => None,
        }),
        _ => None,
    };
    let Some(record) = newest_named("experiments").or_else(|| newest_named("ci_trend")) else {
        eprintln!("error: {bench_path}: no experiment or ci_trend entry named `{experiment}`");
        std::process::exit(1);
    };
    // Filter through the shared TREND_KEEP guard: only the gated series
    // (plus the name) survive import, so serve-only metric families or
    // other new perf-record keys can never perturb an existing
    // ci_trend.json baseline.
    let entry = bench::metricsio::trend_entry(&record, as_name);
    let trend_root = if std::path::Path::new(trend_path).exists() {
        read_json_or_exit(trend_path, 1)
    } else {
        Value::Map(Vec::new())
    };
    append_trend_or_exit(trend_path, trend_root, entry);
    let shown = as_name.unwrap_or(experiment);
    out(&format!("{trend_path}: ci_trend += {shown} perf record"));
    std::process::exit(0);
}

/// `repro serve ...`: run the daemon (or, with `--check`, self-scrape a
/// running one and reconcile its exposition). Never returns.
fn cmd_serve(args: &[String]) -> ! {
    if args.first().map(String::as_str) == Some("--check") {
        let socket = args.get(1).unwrap_or_else(|| usage());
        std::process::exit(client::check(std::path::Path::new(socket)));
    }
    let mut opts = ServeOptions::default();
    let mut socket: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--http" => {
                i += 1;
                opts.http = args.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--out" => {
                i += 1;
                opts.out = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            "--scale" => {
                i += 1;
                opts.default_scale = parse_scale(args.get(i));
            }
            "--cache" => {
                i += 1;
                opts.cache_capacity = parse_positive(args.get(i), "--cache");
            }
            "--threads" => {
                i += 1;
                threads = Some(parse_positive(args.get(i), "--threads"));
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(socket) = socket else {
        eprintln!("error: repro serve requires --socket <path>\n");
        usage()
    };
    opts.socket = socket;
    if let Some(n) = threads {
        build_pool(n);
    }
    std::process::exit(bench::serve::run_serve(opts));
}

/// `repro submit <socket> <experiment> [--scale N] [--ndjson]` or
/// `repro submit <socket> --shutdown`: drive a running daemon.
fn cmd_submit(args: &[String]) -> ! {
    let socket = args.first().unwrap_or_else(|| usage());
    let socket = std::path::Path::new(socket);
    if args.get(1).map(String::as_str) == Some("--shutdown") {
        std::process::exit(client::shutdown(socket));
    }
    let experiment = args
        .get(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| usage());
    let mut scale: Option<f64> = None;
    let mut ndjson = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Some(parse_scale(args.get(i)));
            }
            "--ndjson" => ndjson = true,
            _ => usage(),
        }
        i += 1;
    }
    std::process::exit(client::submit(socket, experiment, scale, ndjson));
}

/// `repro oversub`: run the oversubscription observatory — every
/// workload × every eviction policy × the device-memory ratio grid —
/// then write `oversub.tsv` + `oversub.prom` and print the
/// thrash-cliff map. See the crate docs for the artefact schemas.
fn cmd_oversub(args: &[String]) -> ! {
    let mut grid = bench::experiments::oversub::Grid::full();
    let RunFlags {
        scale_den,
        out_dir,
        json,
        metrics_out,
    } = parse_run_flags(args, |args, i| {
        if args[*i] != "--grid" {
            return false;
        }
        *i += 1;
        grid = match args.get(*i).map(String::as_str) {
            Some("small") => bench::experiments::oversub::Grid::small(),
            Some("full") => bench::experiments::oversub::Grid::full(),
            _ => usage(),
        };
        true
    });
    let scale = Scale {
        fraction: 1.0 / scale_den,
    };
    out(&format!(
        "# platform: GPU memory = 12GiB/{scale_den} = {} MiB (scaled Titan V), \
         sweep threads = {}\n\
         # oversub grid: {} workload(s) x {} policies x {} ratio(s) = {} points\n",
        scale.gpu_bytes() >> 20,
        rayon::current_num_threads(),
        grid.workloads.len(),
        uvm_driver::EvictionPolicy::ALL.len(),
        grid.ratios_centi.len(),
        grid.points(),
    ));

    let total0 = Instant::now();
    bench::experiments::take_sim_totals();
    metrics::phase::take();
    metrics::sched::take();
    let outcome = bench::experiments::oversub::run(scale, &grid);
    let total_wall = total0.elapsed();
    let wall = total_wall.as_secs_f64();
    let totals = bench::experiments::take_sim_totals();
    let phase = metrics::phase::take();
    let sched = metrics::sched::take();

    let write_oversub = |dir: &std::path::Path| {
        bench::metricsio::write_oversub(dir, &outcome.cells, &outcome.cliffs).unwrap_or_else(|e| {
            eprintln!(
                "error: write oversub artefacts under {}: {e}",
                dir.display()
            );
            std::process::exit(1)
        })
    };
    let written = write_oversub(&out_dir);
    out(&bench::metricsio::render_cliff_map(
        &outcome.cells,
        &outcome.cliffs,
    ));
    for path in &written {
        out(&format!("  wrote {}", path.display()));
    }

    if let Some(dir) = &metrics_out {
        write_metrics_or_exit(dir, "oversub", &sched);
        // The heatmap lives beside the per-point CSVs too, so `repro
        // report <metrics-dir>` renders the cliff map plus the bracket
        // diffs from one tree.
        write_oversub(&dir.join("oversub"));
    }

    if json {
        // Thrash-cliff positions as gated perf metrics: the lowest and
        // mean cliff ratio across every curve that has one (0.0 = none
        // found, which the regress gate skips as no-baseline). A cliff
        // sliding toward 1.0× regresses the eviction path.
        let found: Vec<u32> = outcome
            .cliffs
            .iter()
            .map(|c| c.ratio_centi)
            .filter(|&r| r != 0)
            .collect();
        let cliff_min = found.iter().min().copied().unwrap_or(0) as f64 / 100.0;
        let cliff_mean = if found.is_empty() {
            0.0
        } else {
            found.iter().map(|&r| r as f64).sum::<f64>() / found.len() as f64 / 100.0
        };
        let perf = [ExperimentPerf::new(
            "oversub", wall, &totals, &phase, &sched,
        )];
        let cliffs = [
            ("cliff_min_ratio", cliff_min),
            ("cliff_mean_ratio", cliff_mean),
        ];
        let path = write_perf_report(&out_dir, scale_den, &perf, total_wall, &cliffs);
        out(&format!("  wrote {}", path.display()));
    }
    out(&format!(
        "  [oversub ({} points, {} cliff(s)) regenerated in {wall:.1}s]",
        outcome.cells.len(),
        outcome.cliffs.iter().filter(|c| c.ratio_centi != 0).count(),
    ));
    std::process::exit(0);
}

/// One experiment's row in the `BENCH_hotpaths.json` throughput report.
#[derive(Serialize, Clone)]
struct ExperimentPerf {
    name: String,
    wall_seconds: f64,
    /// Simulated faults the driver fetched across the experiment's sweeps.
    sim_faults: u64,
    /// Completed GPU warp-steps across the same sweeps.
    sim_warp_steps: u64,
    faults_per_sec: f64,
    warp_steps_per_sec: f64,
    /// Pages evicted per driver-observed fault across the sweeps — the
    /// paper's thrash headline, gated by `repro regress`.
    evictions_per_fault: f64,
    /// Prefetched share of all H2D page migrations, percent — also gated.
    coverage_pct: f64,
    /// Host wall time the drivers spent in batch service
    /// (`process_pass`: fetch/sort, the ordered plan-and-commit walk,
    /// replay policy).
    serial_front_ms: f64,
    /// Sweep points executed across the experiment's sweeps.
    sweep_points: u64,
    /// Wall milliseconds of the single longest sweep point — the
    /// straggler that lower-bounds sweep wall time at any thread count.
    max_straggler_ms: f64,
    /// Engine replay retries resolved arithmetically by the event-driven
    /// path (zero residency loads; zero under `RetryMode::Scan`).
    retries_skipped: u64,
    /// Pending pages covered by `retries_skipped`.
    retry_pages_skipped: u64,
    /// Stalled blocks woken for rescan by residency change events.
    wakeups: u64,
}

impl ExperimentPerf {
    /// One experiment's row from its drained accumulators.
    fn new(
        name: &str,
        wall: f64,
        totals: &bench::experiments::SweepTotals,
        phase: &metrics::ServicePhaseWall,
        sched: &metrics::SweepSchedStats,
    ) -> Self {
        ExperimentPerf {
            name: name.to_string(),
            wall_seconds: wall,
            sim_faults: totals.counters.faults_fetched,
            sim_warp_steps: totals.warp_steps,
            faults_per_sec: totals.counters.faults_fetched as f64 / wall,
            warp_steps_per_sec: totals.warp_steps as f64 / wall,
            evictions_per_fault: totals.counters.evictions_per_fault(),
            coverage_pct: totals.coverage_pct(),
            serial_front_ms: phase.serial_front_ns as f64 / 1e6,
            sweep_points: sched.points,
            max_straggler_ms: sched.max_point_wall_ns as f64 / 1e6,
            retries_skipped: totals.counters.retries_skipped,
            retry_pages_skipped: totals.counters.retry_pages_skipped,
            wakeups: totals.counters.wakeups,
        }
    }
}

/// The `BENCH_hotpaths.json` report `--json` writes alongside the tables.
#[derive(Serialize)]
struct PerfReport {
    /// Build identity (`<version>+g<git-sha>`), the same string the
    /// `uvm_build_info` exposition gauge carries — ties every perf
    /// record to the code that produced it.
    build: String,
    scale_denominator: f64,
    threads: usize,
    experiments: Vec<ExperimentPerf>,
    total_wall_seconds: f64,
    /// Peak resident memory of the process so far, MiB (`VmHWM`); 0
    /// where `/proc` does not report it.
    peak_rss_mb: f64,
}

/// Peak resident memory of this process, MiB (`VmHWM` in
/// `/proc/self/status`); 0 where the kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "check" => cmd_check(&args[1..]),
        "bench-append" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let name = args.get(2).unwrap_or_else(|| usage());
            cmd_bench_append(file, name, parse_positive_f64(args.get(3), "wall_seconds"));
        }
        "report" => cmd_report(args.get(1).map(String::as_str).unwrap_or_else(|| usage())),
        "explain" => cmd_explain(&args[1..]),
        "lineage" => cmd_lineage(&args[1..]),
        "regress" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let mut threshold = 0.20f64;
            let mut min_runs = 2usize;
            let mut j = 2;
            while j < args.len() {
                match args[j].as_str() {
                    "--threshold" => {
                        j += 1;
                        threshold = parse_positive_f64(args.get(j), "--threshold");
                    }
                    "--min-runs" => {
                        j += 1;
                        min_runs = parse_or_usage(args.get(j));
                    }
                    _ => usage(),
                }
                j += 1;
            }
            cmd_regress(file, threshold, min_runs);
        }
        "trend-import" => {
            let trend = args.get(1).unwrap_or_else(|| usage());
            let bench_json = args.get(2).unwrap_or_else(|| usage());
            let experiment = args.get(3).unwrap_or_else(|| usage());
            let as_name = args.get(4).map(String::as_str);
            cmd_trend_import(trend, bench_json, experiment, as_name);
        }
        "serve" => cmd_serve(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "oversub" => cmd_oversub(&args[1..]),
        _ => {}
    }
    let mut which = String::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_cap = metrics::DEFAULT_SPAN_CAPACITY;
    let RunFlags {
        scale_den,
        out_dir,
        json,
        metrics_out,
    } = parse_run_flags(&args, |args, i| {
        match args[*i].as_str() {
            "--trace-out" => {
                *i += 1;
                trace_out = Some(PathBuf::from(args.get(*i).unwrap_or_else(|| usage())));
            }
            "--trace-cap" => {
                *i += 1;
                trace_cap = parse_or_usage(args.get(*i));
            }
            "--retry-crosscheck" => obs::set_retry_crosscheck(true),
            name if which.is_empty() && !name.starts_with('-') => which = name.to_string(),
            _ => return false,
        }
        true
    });
    if trace_out.is_some() {
        obs::enable_tracing(trace_cap);
    }
    if which == "list" {
        for (name, _) in EXPERIMENTS {
            out(name);
        }
        return;
    }
    let selected: Vec<&(&str, ExperimentFn)> = if which == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        match EXPERIMENTS.iter().find(|(n, _)| *n == which) {
            Some(e) => vec![e],
            None => {
                eprintln!("error: unknown experiment `{which}`\n");
                usage()
            }
        }
    };
    let scale = Scale {
        fraction: 1.0 / scale_den,
    };
    out(&format!(
        "# platform: GPU memory = 12GiB/{scale_den} = {} MiB (scaled Titan V), \
         sweep threads = {}\n",
        scale.gpu_bytes() >> 20,
        rayon::current_num_threads(),
    ));

    let total0 = Instant::now();
    let mut perf = Vec::with_capacity(selected.len());
    bench::experiments::take_sim_totals(); // reset the work accumulator
    metrics::phase::take(); // reset the service-phase accumulator
    metrics::sched::take(); // reset the sweep-scheduler accumulator
    for (name, f) in selected {
        let t0 = Instant::now();
        let artifact = f(scale);
        let wall = t0.elapsed().as_secs_f64();
        let totals = bench::experiments::take_sim_totals();
        let phase = metrics::phase::take();
        let sched = metrics::sched::take();
        perf.push(ExperimentPerf::new(name, wall, &totals, &phase, &sched));
        out(&artifact.table.render());
        for (file, contents) in &artifact.csvs {
            create_dir_or_exit(&out_dir);
            let path = out_dir.join(file);
            write_or_exit("artifact", &path, contents);
            out(&format!("  wrote {}", path.display()));
        }
        if json {
            create_dir_or_exit(&out_dir);
            let path = out_dir.join(format!("{name}.json"));
            let body = serde_json::to_string_pretty(&artifact.table).expect("serialize table");
            write_or_exit("json", &path, body);
            out(&format!("  wrote {}", path.display()));
            // Flush the perf report incrementally: a partial `repro all`
            // (interrupted, or killed by the nightly timeout) still
            // leaves every completed experiment's host-phase telemetry
            // on disk instead of reporting it only at process exit.
            let path = write_perf_report(&out_dir, scale_den, &perf, total0.elapsed(), &[]);
            out(&format!("  wrote {}", path.display()));
        }
        if let Some(dir) = &metrics_out {
            write_metrics_or_exit(dir, name, &sched);
        }
        out(&format!("  [{name} regenerated in {wall:.1}s]\n"));
    }
    if let Some(trace_path) = &trace_out {
        let points = obs::take_points();
        // Flamegraph-style rollup across every traced run: merge the
        // per-point span traces, then rank phases by total sim-time.
        let mut agg = metrics::SpanTrace::default();
        let mut fault_events = 0u64;
        let mut fault_drops = 0u64;
        for p in &points {
            agg.events.extend_from_slice(&p.spans.events);
            agg.dropped += p.spans.dropped;
            agg.dropped_time += p.spans.dropped_time;
            fault_events += p.faults.len() as u64;
            fault_drops += p.fault_drops;
        }
        out(&format!(
            "# trace: {} run(s), {} span events, {} fault events{}",
            points.len(),
            agg.events.len(),
            fault_events,
            if fault_drops > 0 {
                format!(" ({fault_drops} fault events dropped at capacity)")
            } else {
                String::new()
            }
        ));
        out(&chrome::flame_text(&agg));
        let body = chrome::render(&points);
        let written = match trace_path.parent().filter(|d| !d.as_os_str().is_empty()) {
            Some(dir) => std::fs::create_dir_all(dir),
            None => Ok(()),
        }
        .and_then(|()| std::fs::write(trace_path, &body));
        if let Err(e) = written {
            eprintln!("error: write trace {}: {e}", trace_path.display());
            std::process::exit(1);
        }
        out(&format!(
            "  wrote {} ({} KiB) — open in https://ui.perfetto.dev or chrome://tracing",
            trace_path.display(),
            body.len() / 1024,
        ));
    }
    if json {
        // Final rewrite with the end-to-end wall time (the incremental
        // flushes above carried a still-growing total).
        let path = write_perf_report(&out_dir, scale_den, &perf, total0.elapsed(), &[]);
        out(&format!("  wrote {}", path.display()));
    }
}

/// Serialize the perf report collected so far to
/// `<out>/BENCH_hotpaths.json`, returning the written path. Called after
/// every experiment (and once more at exit), so the file always reflects
/// the completed experiments.
fn write_perf_report(
    out_dir: &std::path::Path,
    scale_den: f64,
    perf: &[ExperimentPerf],
    total_wall: std::time::Duration,
    extra: &[(&str, f64)],
) -> PathBuf {
    let mut root = PerfReport {
        build: bench::metricsio::build_info(),
        scale_denominator: scale_den,
        threads: rayon::current_num_threads(),
        experiments: perf.to_vec(),
        total_wall_seconds: total_wall.as_secs_f64(),
        peak_rss_mb: peak_rss_mb(),
    }
    .serialize();
    // Graft command-specific keys onto the newest experiment record (the
    // derive can't carry oversub-only keys without every other
    // experiment serializing zeros for them).
    if let Value::Map(keys) = &mut root {
        if let Some((_, Value::Seq(exps))) = keys.iter_mut().find(|(k, _)| k == "experiments") {
            if let Some(Value::Map(e)) = exps.last_mut() {
                e.extend(extra.iter().map(|&(k, v)| (k.to_string(), Value::F64(v))));
            }
        }
    }
    create_dir_or_exit(out_dir);
    let path = out_dir.join("BENCH_hotpaths.json");
    let body = serde_json::to_string_pretty(&root).expect("serialize perf report");
    write_or_exit("perf report", &path, body);
    path
}

/// Write one experiment's metrics artefacts under `dir` (see
/// [`bench::metricsio::write_experiment`]), or report the error and
/// exit 1.
fn write_metrics_or_exit(
    dir: &std::path::Path,
    experiment: &str,
    sched: &metrics::SweepSchedStats,
) {
    let points = obs::take_metrics_points();
    match bench::metricsio::write_experiment(dir, experiment, &points, Some(sched)) {
        Ok(written) => out(&format!(
            "  wrote {} metrics file(s) under {}",
            written.len(),
            dir.join(experiment).display()
        )),
        Err(e) => {
            eprintln!("error: write metrics under {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// Create `dir` and its parents, or report the I/O error and exit 1.
fn create_dir_or_exit(dir: &std::path::Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: create output dir {}: {e}", dir.display());
        std::process::exit(1);
    }
}

/// Write `contents` to `path`, or report the I/O error (naming `what`
/// was being written) and exit 1.
fn write_or_exit(what: &str, path: &std::path::Path, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: write {what} {}: {e}", path.display());
        std::process::exit(1);
    }
}
