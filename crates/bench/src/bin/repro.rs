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
//! repro oversub --check <dir>
//! repro check-trace <file>
//! repro bench-append <file> <name> <wall_seconds>
//! repro report <metrics-dir>
//! repro explain <metrics-dir>
//! repro explain --diff <metrics-dir-a> <metrics-dir-b> [--json]
//! repro lineage <metrics-dir> [--block <n>] [--check]
//! repro regress <trend-file> [--threshold <frac>] [--min-runs <n>]
//! repro check-metrics <metrics-dir>
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
//! faults/sec and warp-steps/sec per experiment). The report is rewritten
//! after *every* experiment, so a partial `repro all` run still leaves the
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
//! the CSVs as per-run cost decompositions (Figs. 8–10 shapes);
//! `repro check-metrics <dir>` re-validates every artefact. `repro
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
//! the top offending VABlocks (`offenders.tsv`). The attribution columns
//! must partition the counter columns exactly — a mismatch exits 1, which
//! is what lets CI gate on it. `repro explain --diff A B` aggregates two
//! dirs and prints per-cause deltas (e.g. the same sweep with prefetch on
//! vs off, making the prefetch-eviction antagonism directly visible);
//! `--json` emits the same per-cause delta table as machine-readable
//! JSON for downstream tooling.
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
//! full grid is nightly). `repro oversub --check <dir>` re-derives
//! everything from the artefacts alone — tsv parse → re-render must be
//! byte-identical, recomputed cliffs must match the recorded rows, and
//! the re-derived exposition must match `oversub.prom` — exiting 1 on
//! any drift. Like every sweep, the artefacts are bit-identical for
//! any `--threads` value.
//!
//! `repro lineage <metrics-dir>` re-renders the fault-lineage event
//! streams (`*.lineage`, written whenever `--metrics-out` is armed) as
//! per-kind lifecycle totals, refault/reuse-distance percentiles, and
//! the prefetch→eviction antagonism chains — plus any anomaly-triggered
//! flight-recorder dumps the runs captured. `--block <n>` appends one
//! VABlock's event timeline per point. `--check` instead reconciles
//! every `.lineage` artefact against its sibling sample CSV (per-kind
//! page totals must partition the counter/attribution columns exactly)
//! and exits 1 on any mismatch, which is how CI gates the stream.
//!
//! `--trace-out trace.json` records batch-lifecycle spans and per-page
//! fault events during every sweep and writes a combined
//! Chrome-trace/Perfetto JSON file — load it at <https://ui.perfetto.dev>
//! or `chrome://tracing`. A flamegraph-style per-phase summary is printed
//! after the runs. `--trace-cap` bounds the per-run span buffer (default
//! 65536 events; dropped events are counted, and dropped leaf *time*
//! stays accounted per category). `repro check-trace <file>` re-validates
//! an exported file against the trace-event-format invariants and the
//! span-vs-timers reconciliation; `repro bench-append` appends one
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
//! The driver's batch-service wall plus the sweep scheduler's
//! queue/steal stats land in `BENCH_hotpaths.json`.
//! `--retry-crosscheck` runs every point with the engine's event-driven
//! replay bookkeeping *and* the reference rescan side by side, asserting
//! at each skip opportunity that the closed form reproduces the scan's
//! exact counter deltas and buffer writes (the ci.sh scan-vs-event
//! equivalence gate; slow, for validation only).

use bench::experiments::{obs, ExperimentFn, Scale, EXPERIMENTS};
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
         \x20      repro oversub --check <dir>\n\
         \x20      repro check-trace <file>\n\
         \x20      repro bench-append <file> <name> <wall_seconds>\n\
         \x20      repro report <metrics-dir>\n\
         \x20      repro explain <metrics-dir>\n\
         \x20      repro explain --diff <metrics-dir-a> <metrics-dir-b> [--json]\n\
         \x20      repro lineage <metrics-dir> [--block <n>] [--check]\n\
         \x20      repro regress <trend-file> [--threshold <frac>] [--min-runs <n>]\n\
         \x20      repro check-metrics <metrics-dir>\n\
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

/// `repro check-trace <file>`: parse an exported Chrome-trace file and
/// re-check every invariant the exporter promises (see
/// [`metrics::chrome::validate`]). Exits nonzero on any violation.
fn cmd_check_trace(path: &str) -> ! {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            std::process::exit(1);
        }
    };
    match chrome::validate(&body) {
        Ok(stats) => {
            out(&format!(
                "{path}: OK — {} process(es), {} events ({} leaf spans, {} containers, \
                 {} instants), {} dropped",
                stats.processes,
                stats.events,
                stats.leaf_spans,
                stats.container_spans,
                stats.instants,
                stats.dropped,
            ));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro bench-append <file> <name> <wall_seconds>`: append one
/// `{name, wall_seconds}` entry to the file's `ci_trend` array (created
/// if absent), preserving every other key. CI uses this to keep a
/// wall-time trend in `BENCH_hotpaths.json`.
fn cmd_bench_append(path: &str, name: &str, wall_seconds: f64) -> ! {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut root: Value = match serde_json::from_str(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: parse {path}: {e}");
            std::process::exit(1);
        }
    };
    let entry = Value::Map(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("wall_seconds".to_string(), Value::F64(wall_seconds)),
    ]);
    let Value::Map(keys) = &mut root else {
        eprintln!("error: {path}: top level is not a JSON object");
        std::process::exit(1);
    };
    match keys.iter_mut().find(|(k, _)| k == "ci_trend") {
        Some((_, Value::Seq(trend))) => trend.push(entry),
        Some((_, other)) => {
            *other = Value::Seq(vec![entry]);
        }
        None => keys.push(("ci_trend".to_string(), Value::Seq(vec![entry]))),
    }
    let rendered = serde_json::to_string_pretty(&root).expect("re-serialize trend file");
    if let Err(e) = std::fs::write(path, rendered) {
        eprintln!("error: write {path}: {e}");
        std::process::exit(1);
    }
    out(&format!("{path}: ci_trend += {{{name}, {wall_seconds:.3}s}}"));
    std::process::exit(0);
}

/// Recursively collect files under `dir` with the given extension,
/// sorted by path for deterministic output.
fn walk_files(dir: &std::path::Path, ext: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == ext) {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// `repro report <metrics-dir>`: re-read every sample CSV a
/// `--metrics-out` run wrote and render the per-run cost decompositions.
/// When an `oversub.tsv` heatmap lives under the dir, the thrash-cliff
/// map is appended — with a root-cause delta diff across each cliff's
/// bracketing cells when their sample CSVs are on hand.
fn cmd_report(dir: &str) -> ! {
    let root = PathBuf::from(dir);
    let csvs = walk_files(&root, "csv");
    let oversubs: Vec<PathBuf> = walk_files(&root, "tsv")
        .into_iter()
        .filter(|p| p.file_name().is_some_and(|n| n == "oversub.tsv"))
        .collect();
    if csvs.is_empty() && oversubs.is_empty() {
        eprintln!("error: no sample CSVs under {dir} — run with --metrics-out first");
        std::process::exit(1);
    }
    let read = |path: &PathBuf| -> String {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: read {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    };
    let rel = |path: &PathBuf| -> String {
        path.strip_prefix(&root)
            .unwrap_or(path)
            .with_extension("")
            .display()
            .to_string()
    };
    let files: Vec<(String, String)> = csvs.iter().map(|p| (rel(p), read(p))).collect();
    let mut sections = Vec::new();
    if !files.is_empty() {
        match bench::metricsio::render_report(&files, 20) {
            Ok(text) => sections.push(text),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    for tsv_path in &oversubs {
        // Bracket diffs read the sweep's own per-point CSVs: the ones
        // sharing the tsv's directory, matched by sweep-index prefix.
        let cell_csvs: Vec<(String, String)> = csvs
            .iter()
            .zip(&files)
            .filter(|(p, _)| p.parent() == tsv_path.parent())
            .map(|(_, f)| f.clone())
            .collect();
        match bench::metricsio::render_oversub(&read(tsv_path), &cell_csvs) {
            Ok(text) => sections.push(text),
            Err(e) => {
                eprintln!("error: {}: {e}", tsv_path.display());
                std::process::exit(1);
            }
        }
    }
    out(&sections.join("\n"));
    std::process::exit(0);
}

/// `repro check-metrics <metrics-dir>`: re-validate every metrics
/// artefact a `--metrics-out` run wrote — sample CSVs against the column
/// schema/monotonicity invariants, expositions against the Prometheus
/// text format. Exits nonzero on any violation.
fn cmd_check_metrics(dir: &str) -> ! {
    let root = PathBuf::from(dir);
    let csvs = walk_files(&root, "csv");
    let proms = walk_files(&root, "prom");
    if csvs.is_empty() && proms.is_empty() {
        eprintln!("error: no metrics artefacts under {dir}");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    let mut samples = 0usize;
    for path in &csvs {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| metrics::timeseries::validate_csv(&t))
        {
            Ok(stats) => samples += stats.rows,
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    let mut series = 0usize;
    for path in &proms {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| metrics::exposition::validate(&t))
        {
            Ok(stats) => series += stats.samples,
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    out(&format!(
        "{dir}: {} sample CSV(s) ({samples} samples), {} exposition(s) ({series} series), \
         {failures} failure(s)",
        csvs.len(),
        proms.len(),
    ));
    std::process::exit(if failures == 0 { 0 } else { 1 });
}

/// Read a metrics dir's sample CSVs as `(point-name, text)` blobs plus
/// the merged offender tables, exiting on I/O errors. Shared by
/// `repro explain` and `repro explain --diff`.
fn read_metrics_dir(dir: &str) -> (Vec<(String, String)>, Option<String>) {
    let root = PathBuf::from(dir);
    let csvs = walk_files(&root, "csv");
    if csvs.is_empty() {
        eprintln!("error: no sample CSVs under {dir} — run with --metrics-out first");
        std::process::exit(1);
    }
    let mut files = Vec::with_capacity(csvs.len());
    for path in &csvs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let name = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .with_extension("")
            .display()
            .to_string();
        files.push((name, text));
    }
    // Merge every experiment's offenders.tsv into one table (first header
    // kept, later headers dropped). Older artefact dirs have none — the
    // fault decomposition still renders. Filter by file name: the
    // oversub sweep writes its own `oversub.tsv` heatmap beside the
    // CSVs, which must not bleed into the offender table.
    let mut offenders: Option<String> = None;
    for path in walk_files(&root, "tsv") {
        if !path.file_name().is_some_and(|n| n == "offenders.tsv") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        match &mut offenders {
            None => offenders = Some(text),
            Some(merged) => merged.extend(text.lines().skip(1).map(|l| format!("{l}\n"))),
        }
    }
    (files, offenders)
}

/// `repro explain <metrics-dir>`: render the per-fault root-cause
/// decomposition (faults by cause, migrated bytes by origin, top
/// offending VABlocks) from a `--metrics-out` dir's artefacts alone.
/// `repro explain --diff <dir-a> <dir-b>` renders the cross-run
/// attribution diff instead. Either form exits 1 when a point's
/// attribution columns fail to reconcile with its counter columns.
fn cmd_explain(args: &[String]) -> ! {
    let result = if args.first().map(String::as_str) == Some("--diff") {
        let json = args.iter().any(|a| a == "--json");
        let dirs: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with('-')).collect();
        let (a, b) = match (dirs.first(), dirs.get(1)) {
            (Some(a), Some(b)) if dirs.len() == 2 => (*a, *b),
            _ => usage(),
        };
        let (fa, _) = read_metrics_dir(a);
        let (fb, _) = read_metrics_dir(b);
        status(&format!(
            "explain: diffing {} vs {} sample CSV(s)",
            fa.len(),
            fb.len()
        ));
        if json {
            bench::metricsio::render_explain_diff_json(a, &fa, b, &fb)
        } else {
            bench::metricsio::render_explain_diff(a, &fa, b, &fb)
        }
    } else {
        let dir = args.first().map(String::as_str).unwrap_or_else(|| usage());
        let (files, offenders) = read_metrics_dir(dir);
        status(&format!(
            "explain: reading {} sample CSV(s) under {dir}",
            files.len()
        ));
        bench::metricsio::render_explain(&files, offenders.as_deref())
    };
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

/// `repro lineage <metrics-dir>`: re-render the fault-lineage event
/// streams written by a `--metrics-out` run — per-kind lifecycle totals,
/// refault/reuse-distance analytics, antagonism chains, and any flight
/// dumps. `--block <n>` appends one VABlock's timeline per point.
/// `--check` reconciles every artefact against its sibling sample CSV
/// and exits 1 on mismatch (the CI gate for the lineage stream).
fn cmd_lineage(args: &[String]) -> ! {
    let mut dir: Option<&str> = None;
    let mut block: Option<u64> = None;
    let mut check = false;
    let mut j = 0;
    while j < args.len() {
        match args[j].as_str() {
            "--check" => check = true,
            "--block" => {
                j += 1;
                block = Some(
                    args.get(j)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            a if dir.is_none() && !a.starts_with('-') => dir = Some(a),
            _ => usage(),
        }
        j += 1;
    }
    let dir = dir.unwrap_or_else(|| usage());
    let root = PathBuf::from(dir);
    let paths = walk_files(&root, "lineage");
    if paths.is_empty() {
        eprintln!("error: no .lineage artefacts under {dir} — run with --metrics-out first");
        std::process::exit(1);
    }
    status(&format!(
        "lineage: reading {} artefact(s) under {dir}",
        paths.len()
    ));
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        // Flight dumps live beside the event stream (only written when a
        // trigger fired); absence simply means no anomaly was captured.
        let flight = std::fs::read_to_string(path.with_extension("flight.json")).ok();
        let name = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .with_extension("")
            .display()
            .to_string();
        files.push((name, text, flight, path.clone()));
    }
    if check {
        let mut failures = 0usize;
        for (name, text, flight, path) in &files {
            let csv_path = path.with_extension("csv");
            let csv = match std::fs::read_to_string(&csv_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("FAIL {name}: read {}: {e}", csv_path.display());
                    failures += 1;
                    continue;
                }
            };
            if let Err(e) = bench::metricsio::check_lineage(name, text, flight.as_deref(), &csv) {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
        out(&format!(
            "{dir}: {} lineage artefact(s) reconciled against sample CSVs, {failures} failure(s)",
            files.len(),
        ));
        std::process::exit(if failures == 0 { 0 } else { 1 });
    }
    let blobs: Vec<(String, String, Option<String>)> = files
        .into_iter()
        .map(|(name, text, flight, _)| (name, text, flight))
        .collect();
    match bench::metricsio::render_lineage(&blobs, block) {
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

/// `repro regress <trend-file>`: gate on the `ci_trend` perf history.
/// Exits 1 when any headline metric of any series regressed beyond the
/// threshold, 2 on unusable input, 0 otherwise.
fn cmd_regress(path: &str, threshold: f64, min_runs: usize) -> ! {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            std::process::exit(2);
        }
    };
    let root: Value = match serde_json::from_str(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: parse {path}: {e}");
            std::process::exit(2);
        }
    };
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
    let bench_body = match std::fs::read_to_string(bench_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: read {bench_path}: {e}");
            std::process::exit(1);
        }
    };
    let bench_root: Value = match serde_json::from_str(&bench_body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: parse {bench_path}: {e}");
            std::process::exit(1);
        }
    };
    let Value::Map(bench_keys) = &bench_root else {
        eprintln!("error: {bench_path}: top level is not a JSON object");
        std::process::exit(1);
    };
    let find_named = |entries: &[Value]| -> Option<Vec<(String, Value)>> {
        entries.iter().rev().find_map(|e| match e {
            Value::Map(m)
                if m.iter()
                    .any(|(k, v)| k == "name" && *v == Value::Str(experiment.to_string())) =>
            {
                Some(m.clone())
            }
            _ => None,
        })
    };
    // Experiments written by `repro --json` carry the full perf record;
    // `bench-append` series (traced wall times) live in the report's own
    // `ci_trend` array with just name + wall_seconds. Accept either, so
    // the nightly can gate every series it records. `rev()` takes the
    // newest entry when a bench-append series repeats within one run.
    let record = bench_keys
        .iter()
        .find(|(k, _)| k == "experiments")
        .and_then(|(_, v)| match v {
            Value::Seq(entries) => find_named(entries),
            _ => None,
        })
        .or_else(|| {
            bench_keys
                .iter()
                .find(|(k, _)| k == "ci_trend")
                .and_then(|(_, v)| match v {
                    Value::Seq(entries) => find_named(entries),
                    _ => None,
                })
        });
    let Some(record) = record else {
        eprintln!("error: {bench_path}: no experiment or ci_trend entry named `{experiment}`");
        std::process::exit(1);
    };
    // Filter through the shared TREND_KEEP guard: only the gated series
    // (plus the name) survive import, so serve-only metric families or
    // other new perf-record keys can never perturb an existing
    // ci_trend.json baseline.
    let entry = bench::metricsio::trend_entry(&record, as_name);
    let trend_body = std::fs::read_to_string(trend_path).unwrap_or_else(|_| "{}".to_string());
    let mut trend_root: Value = match serde_json::from_str(&trend_body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: parse {trend_path}: {e}");
            std::process::exit(1);
        }
    };
    let Value::Map(trend_keys) = &mut trend_root else {
        eprintln!("error: {trend_path}: top level is not a JSON object");
        std::process::exit(1);
    };
    match trend_keys.iter_mut().find(|(k, _)| k == "ci_trend") {
        Some((_, Value::Seq(trend))) => trend.push(entry),
        Some((_, other)) => *other = Value::Seq(vec![entry]),
        None => trend_keys.push(("ci_trend".to_string(), Value::Seq(vec![entry]))),
    }
    let rendered = serde_json::to_string_pretty(&trend_root).expect("re-serialize trend file");
    if let Err(e) = std::fs::write(trend_path, rendered) {
        eprintln!("error: write {trend_path}: {e}");
        std::process::exit(1);
    }
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
                let den: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|d: &f64| d.is_finite() && *d >= 1.0)
                    .unwrap_or_else(|| usage());
                opts.default_scale = den;
            }
            "--cache" => {
                i += 1;
                opts.cache_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|c: &usize| *c >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|n: &usize| *n >= 1)
                        .unwrap_or_else(|| usage()),
                );
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
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
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
    let experiment = args.get(1).filter(|a| !a.starts_with('-')).unwrap_or_else(|| usage());
    let mut scale: Option<f64> = None;
    let mut ndjson = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|d: &f64| d.is_finite() && *d >= 1.0)
                    .map(Some)
                    .unwrap_or_else(|| usage());
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
    if args.first().map(String::as_str) == Some("--check") {
        cmd_oversub_check(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
    }
    let mut scale_den = 16.0f64;
    let mut out_dir = PathBuf::from("repro-out");
    let mut grid = bench::experiments::oversub::Grid::full();
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_interval = metrics::DEFAULT_SAMPLE_INTERVAL_NS;
    let mut progress: Option<bool> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--grid" => {
                i += 1;
                grid = match args.get(i).map(String::as_str) {
                    Some("small") => bench::experiments::oversub::Grid::small(),
                    Some("full") => bench::experiments::oversub::Grid::full(),
                    _ => usage(),
                };
            }
            "--scale" => {
                i += 1;
                scale_den = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|d: &f64| d.is_finite() && *d >= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|n: &usize| *n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--metrics-interval" => {
                i += 1;
                metrics_interval = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|ns: &u64| *ns >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            "--progress" => progress = Some(true),
            "--no-progress" => progress = Some(false),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    if metrics_out.is_some() {
        obs::enable_metrics(metrics_interval, metrics::DEFAULT_SAMPLE_CAPACITY);
    }
    obs::set_progress(progress.unwrap_or_else(obs::progress_default));
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
    let wall = total0.elapsed().as_secs_f64();
    let totals = bench::experiments::take_sim_totals();
    let phase = metrics::phase::take();
    let sched = metrics::sched::take();

    let tsv = metrics::oversub::render_table(&outcome.cells, &outcome.cliffs);
    let prom = bench::metricsio::render_oversub_exposition(&outcome.cells, &outcome.cliffs);
    create_dir_or_exit(&out_dir);
    let tsv_path = out_dir.join("oversub.tsv");
    write_or_exit("oversub.tsv", &tsv_path, &tsv);
    let prom_path = out_dir.join("oversub.prom");
    write_or_exit("oversub.prom", &prom_path, &prom);

    out(&bench::metricsio::render_cliff_map(&outcome.cells, &outcome.cliffs));
    out(&format!("  wrote {}", tsv_path.display()));
    out(&format!("  wrote {}", prom_path.display()));

    if let Some(dir) = &metrics_out {
        let points = obs::take_metrics_points();
        match bench::metricsio::write_experiment(dir, "oversub", &points, Some(&sched)) {
            Ok(written) => out(&format!(
                "  wrote {} metrics file(s) under {}",
                written.len(),
                dir.join("oversub").display()
            )),
            Err(e) => {
                eprintln!("error: write metrics under {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        // The heatmap lives beside the per-point CSVs too, so `repro
        // report <metrics-dir>` renders the cliff map plus the bracket
        // diffs from one tree.
        let exp_dir = dir.join("oversub");
        write_or_exit("oversub.tsv", &exp_dir.join("oversub.tsv"), &tsv);
        write_or_exit("oversub.prom", &exp_dir.join("oversub.prom"), &prom);
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
        let perf = ExperimentPerf::new("oversub", wall, &totals, &phase, &sched);
        let report = PerfReport {
            build: bench::metricsio::build_info(),
            scale_denominator: scale_den,
            threads: rayon::current_num_threads(),
            experiments: vec![perf],
            total_wall_seconds: wall,
        };
        // Round-trip through Value to graft the cliff keys onto the
        // experiment record (the derive can't carry oversub-only keys
        // without every other experiment serializing zeros for them).
        let body = serde_json::to_string_pretty(&report).expect("serialize perf report");
        let mut root: Value = serde_json::from_str(&body).expect("reparse perf report");
        if let Value::Map(keys) = &mut root {
            if let Some((_, Value::Seq(exps))) = keys.iter_mut().find(|(k, _)| k == "experiments")
            {
                if let Some(Value::Map(e)) = exps.first_mut() {
                    e.push(("cliff_min_ratio".to_string(), Value::F64(cliff_min)));
                    e.push(("cliff_mean_ratio".to_string(), Value::F64(cliff_mean)));
                }
            }
        }
        let path = out_dir.join("BENCH_hotpaths.json");
        let body = serde_json::to_string_pretty(&root).expect("serialize perf report");
        write_or_exit("perf report", &path, body);
        out(&format!("  wrote {}", path.display()));
    }
    out(&format!(
        "  [oversub ({} points, {} cliff(s)) regenerated in {wall:.1}s]",
        outcome.cells.len(),
        outcome.cliffs.iter().filter(|c| c.ratio_centi != 0).count(),
    ));
    std::process::exit(0);
}

/// `repro oversub --check <dir>`: re-derive the observatory's results
/// from the on-disk artefacts alone — the tsv must parse → re-render
/// byte-identically with the knee detector reproducing every recorded
/// cliff row, and the sibling `oversub.prom` must match the exposition
/// re-derived from the tsv on every `uvm_oversub_*` series (build
/// identity is allowed to differ). Exits 1 on any drift; CI gates on it.
fn cmd_oversub_check(dir: &str) -> ! {
    let root = PathBuf::from(dir);
    let tsvs: Vec<PathBuf> = walk_files(&root, "tsv")
        .into_iter()
        .filter(|p| p.file_name().is_some_and(|n| n == "oversub.tsv"))
        .collect();
    if tsvs.is_empty() {
        eprintln!("error: no oversub.tsv under {dir} — run `repro oversub` first");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    for path in &tsvs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        match metrics::oversub::check_table(&text) {
            Ok(stats) => out(&format!(
                "{}: OK — {} cells, {} curves, {} cliff(s) reproduced",
                path.display(),
                stats.cells,
                stats.curves,
                stats.cliffs_found,
            )),
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failures += 1;
                continue;
            }
        }
        let prom_path = path.with_file_name("oversub.prom");
        let Ok(prom) = std::fs::read_to_string(&prom_path) else {
            continue; // tsv-only artefact dir: nothing more to reconcile
        };
        if let Err(e) = metrics::exposition::validate(&prom) {
            eprintln!("FAIL {}: {e}", prom_path.display());
            failures += 1;
            continue;
        }
        let (cells, cliffs) = metrics::oversub::parse_table(&text).expect("checked above");
        let expect = bench::metricsio::render_oversub_exposition(&cells, &cliffs);
        fn keep(t: &str) -> Vec<&str> {
            t.lines().filter(|l| l.contains("uvm_oversub")).collect()
        }
        if keep(&prom) == keep(&expect) {
            out(&format!(
                "{}: OK — {} uvm_oversub series match the tsv",
                prom_path.display(),
                keep(&prom).len(),
            ));
        } else {
            eprintln!(
                "FAIL {}: uvm_oversub_* exposition drifts from oversub.tsv",
                prom_path.display()
            );
            failures += 1;
        }
    }
    std::process::exit(if failures == 0 { 0 } else { 1 });
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
    /// Points executed by a worker they were not dealt to — the
    /// work-stealing scheduler's rebalancing volume (0 at one thread).
    points_stolen: u64,
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
            sim_faults: totals.faults,
            sim_warp_steps: totals.warp_steps,
            faults_per_sec: totals.faults as f64 / wall,
            warp_steps_per_sec: totals.warp_steps as f64 / wall,
            evictions_per_fault: totals.evictions_per_fault(),
            coverage_pct: totals.coverage_pct(),
            serial_front_ms: phase.serial_front_ns as f64 / 1e6,
            sweep_points: sched.points,
            points_stolen: sched.stolen,
            max_straggler_ms: sched.max_point_wall_ns as f64 / 1e6,
            retries_skipped: totals.retries_skipped,
            retry_pages_skipped: totals.retry_pages_skipped,
            wakeups: totals.wakeups,
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "check-trace" => cmd_check_trace(args.get(1).map(String::as_str).unwrap_or_else(|| usage())),
        "bench-append" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let name = args.get(2).unwrap_or_else(|| usage());
            let wall: f64 = args
                .get(3)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            cmd_bench_append(file, name, wall);
        }
        "report" => cmd_report(args.get(1).map(String::as_str).unwrap_or_else(|| usage())),
        "explain" => cmd_explain(&args[1..]),
        "lineage" => cmd_lineage(&args[1..]),
        "check-metrics" => {
            cmd_check_metrics(args.get(1).map(String::as_str).unwrap_or_else(|| usage()))
        }
        "regress" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let mut threshold = 0.20f64;
            let mut min_runs = 2usize;
            let mut j = 2;
            while j < args.len() {
                match args[j].as_str() {
                    "--threshold" => {
                        j += 1;
                        threshold = args
                            .get(j)
                            .and_then(|s| s.parse().ok())
                            .filter(|t: &f64| t.is_finite() && *t > 0.0)
                            .unwrap_or_else(|| usage());
                    }
                    "--min-runs" => {
                        j += 1;
                        min_runs = args
                            .get(j)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
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
    let mut scale_den = 16.0f64;
    let mut out_dir = PathBuf::from("repro-out");
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_cap = metrics::DEFAULT_SPAN_CAPACITY;
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_interval = metrics::DEFAULT_SAMPLE_INTERVAL_NS;
    let mut progress: Option<bool> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--trace-out" => {
                i += 1;
                trace_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--trace-cap" => {
                i += 1;
                trace_cap = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--metrics-interval" => {
                i += 1;
                let ns: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if ns == 0 {
                    eprintln!("error: --metrics-interval must be >= 1 sim-ns");
                    std::process::exit(2);
                }
                metrics_interval = ns;
            }
            "--retry-crosscheck" => obs::set_retry_crosscheck(true),
            "--progress" => progress = Some(true),
            "--no-progress" => progress = Some(false),
            "--scale" => {
                i += 1;
                scale_den = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if n == 0 {
                    eprintln!("error: --threads must be >= 1");
                    std::process::exit(2);
                }
                threads = Some(n);
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            name if which.is_empty() && !name.starts_with('-') => which = name.to_string(),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    if trace_out.is_some() {
        obs::enable_tracing(trace_cap);
    }
    if metrics_out.is_some() {
        obs::enable_metrics(metrics_interval, metrics::DEFAULT_SAMPLE_CAPACITY);
    }
    obs::set_progress(progress.unwrap_or_else(obs::progress_default));
    if which == "list" {
        for (name, _) in EXPERIMENTS {
            out(name);
        }
        return;
    }
    if scale_den.is_nan() || scale_den < 1.0 {
        eprintln!("error: --scale must be a denominator >= 1 (got {scale_den})");
        std::process::exit(2);
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
            let path = write_perf_report(&out_dir, scale_den, &perf, total0);
            out(&format!("  wrote {}", path.display()));
        }
        if let Some(dir) = &metrics_out {
            let points = obs::take_metrics_points();
            match bench::metricsio::write_experiment(dir, name, &points, Some(&sched)) {
                Ok(written) => {
                    out(&format!(
                        "  wrote {} metrics file(s) under {}",
                        written.len(),
                        dir.join(name).display()
                    ));
                }
                Err(e) => {
                    eprintln!("error: write metrics under {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
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
            agg.dropped_time = agg.dropped_time + p.spans.dropped_time;
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
        let path = write_perf_report(&out_dir, scale_den, &perf, total0);
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
    total0: Instant,
) -> PathBuf {
    let report = PerfReport {
        build: bench::metricsio::build_info(),
        scale_denominator: scale_den,
        threads: rayon::current_num_threads(),
        experiments: perf.to_vec(),
        total_wall_seconds: total0.elapsed().as_secs_f64(),
    };
    create_dir_or_exit(out_dir);
    let path = out_dir.join("BENCH_hotpaths.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize perf report");
    write_or_exit("perf report", &path, body);
    path
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
