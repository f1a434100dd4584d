//! End-to-end checks of the `repro` metrics surface through the real
//! binary: `--metrics-out` artefact emission + reconciliation against the
//! perf report, `check`/`report` consumption (including the non-zero
//! exit on each kind of doctored artefact), and the
//! `regress`/`trend-import` CI gate (including the non-zero exit on a
//! doctored baseline).

mod common;

use common::{repro, scratch, stderr, stdout};
use std::path::Path;

/// Every value of a `name{...} value` family in an exposition, in order.
fn prom_values(text: &str, family: &str) -> Vec<u64> {
    text.lines()
        .filter(|l| l.starts_with(&format!("{family}{{")))
        .map(|l| {
            let v = l.rsplit(' ').next().unwrap();
            v.parse::<f64>().unwrap() as u64
        })
        .collect()
}

#[test]
fn metrics_out_reconciles_with_perf_report() {
    let dir = scratch("metrics_out");
    let metrics_dir = dir.join("metrics");
    let out_dir = dir.join("out");
    let run = repro(&[
        "fig1",
        "--scale",
        "16",
        "--no-progress",
        "--json",
        "--metrics-out",
        metrics_dir.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "repro failed: {}", stderr(&run));

    // The emitted artefacts re-validate through the CLI.
    let check = repro(&["check", metrics_dir.to_str().unwrap()]);
    assert!(check.status.success(), "check: {}", stderr(&check));
    assert!(stdout(&check).contains("0 failure(s)"));

    // Exposition totals reconcile exactly with the perf report's
    // simulated-work counters: both sides are sums of the same driver
    // counters, so equality is bitwise, not approximate.
    let prom = std::fs::read_to_string(metrics_dir.join("fig1/metrics.prom")).unwrap();
    let prom_faults: u64 = prom_values(&prom, "uvm_faults_fetched_total").iter().sum();
    let bench = std::fs::read_to_string(out_dir.join("BENCH_hotpaths.json")).unwrap();
    let root: serde::Value = serde_json::from_str(&bench).unwrap();
    let serde::Value::Map(keys) = &root else {
        panic!("perf report is not an object")
    };
    let Some((_, serde::Value::Seq(experiments))) = keys.iter().find(|(k, _)| k == "experiments")
    else {
        panic!("no experiments array")
    };
    let serde::Value::Map(fig1) = &experiments[0] else {
        panic!("experiment is not an object")
    };
    let sim_faults = fig1
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            ("sim_faults", serde::Value::U64(n)) => Some(*n),
            _ => None,
        })
        .expect("sim_faults in perf report");
    assert_eq!(prom_faults, sim_faults, "exposition vs perf report faults");

    // And with the sample CSVs: summed final-row faults match the perf
    // report, and the per-point fault totals match the exposition's
    // labelled series one-for-one.
    // (`repro check` above already validated every CSV's schema.)
    let samples = bench::metricsio::load_artefacts(&[&metrics_dir]).samples;
    assert!(samples.len() > 10, "fig1 sweeps many points");
    let mut csv_point_faults: Vec<u64> = samples
        .iter()
        .map(|a| {
            a.text
                .lines()
                .last()
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    let csv_faults: u64 = csv_point_faults.iter().sum();
    assert_eq!(csv_faults, sim_faults, "sample CSVs vs perf report faults");
    let mut prom_point_faults = prom_values(&prom, "uvm_faults_fetched_total");
    prom_point_faults.sort_unstable();
    csv_point_faults.sort_unstable();
    assert_eq!(
        prom_point_faults, csv_point_faults,
        "per-point fault totals, CSV vs exposition"
    );

    // The report renderer consumes the same directory.
    let report = repro(&["report", metrics_dir.to_str().unwrap()]);
    assert!(report.status.success(), "report: {}", stderr(&report));
    let text = stdout(&report);
    assert!(text.contains("per-run cost decomposition"));
    assert!(text.contains("fault/eviction timeline"));
}

/// Copy a file, or a directory tree recursively.
fn copy_tree(src: &Path, dst: &Path) {
    if src.is_file() {
        std::fs::copy(src, dst).expect("copy file");
        return;
    }
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read copy source") {
        let path = entry.expect("dir entry").path();
        copy_tree(&path, &dst.join(path.file_name().unwrap()));
    }
}

#[test]
fn check_passes_clean_tree_and_fails_each_doctored_kind() {
    let dir = scratch("check_gate");
    let clean = dir.join("clean");
    let arg = |p: &str| clean.join(p).to_str().unwrap().to_string();
    let (out, metrics, trace) = (arg("out"), arg("metrics"), arg("trace.json"));
    let run = repro(
        &["fig1", "--scale", "128", "--no-progress", "--out", &out]
            .into_iter()
            .chain(["--metrics-out", &metrics, "--trace-out", &trace])
            .collect::<Vec<_>>(),
    );
    assert!(run.status.success(), "repro failed: {}", stderr(&run));
    let ok = repro(&["check", &arg("")]);
    let text = stdout(&ok);
    assert_eq!(ok.status.code(), Some(0), "clean tree: {}", stderr(&ok));
    assert!(
        text.contains("trace.json: OK") && text.ends_with("\n0 failure(s)\n"),
        "{text}"
    );

    // The first point is undersubscribed: no refaults, no evictions. One
    // more cold fault plus a u64::MAX refault count wraps a u64 fault
    // sum back to the true total, which a wrapping ledger would miss.
    let point = "metrics/fig1/00_regular_r0.01_disabled";
    let csv = std::fs::read_to_string(arg(&format!("{point}.csv"))).unwrap();
    let col = |name: &str| {
        csv.lines()
            .next()
            .unwrap()
            .split(',')
            .position(|c| c == name)
            .unwrap()
    };
    let (cold, used) = (col("attr_cold_faults"), col("attr_refault_used_faults"));
    let last = csv.lines().last().unwrap();
    let row: Vec<u64> = last.split(',').map(|c| c.parse().unwrap()).collect();
    let render = |row: &[u64]| row.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    assert_eq!(row[used], 0, "fixture point must have no refaults");
    let mut wrapped = row.clone();
    wrapped[cold] += 1;
    wrapped[used] = u64::MAX;
    // One page more each way in the byte totals than the ledger's causes
    // account for. With the `.lineage` gone, only the ledger's H2D and
    // D2H equations can catch it.
    let mut moved = row.clone();
    moved[col("migrated_bytes_h2d")] += 4096;
    moved[col("migrated_bytes_d2h")] += 4096;
    let lineage = format!("{point}.lineage");
    let prom = std::fs::read_to_string(arg("metrics/fig1/metrics.prom")).unwrap();
    let faults = prom
        .lines()
        .find(|l| l.starts_with("uvm_faults_fetched_total{"))
        .unwrap();
    let negative = format!("{} -5", faults.rsplit_once(' ').unwrap().0);
    // (kind, copied artefact, doctored file, text, replacement, file
    // removed, message); an empty text stands for the whole file, an
    // empty removal for none.
    let cases = [
        (
            "csv",
            "metrics",
            format!("{point}.csv"),
            last,
            render(&wrapped),
            "",
            "does not reconcile",
        ),
        (
            "bytes",
            "metrics",
            format!("{point}.csv"),
            last,
            render(&moved),
            &lineage,
            "does not reconcile",
        ),
        (
            "lineage",
            "metrics",
            lineage.clone(),
            "total,eviction,0,0,0",
            "total,eviction,0,1,0".into(),
            "",
            "lineage",
        ),
        (
            "trace",
            "trace.json",
            "trace.json".into(),
            "",
            r#"{"traceEvents":5}"#.into(),
            "",
            "missing traceEvents array",
        ),
        (
            "prom",
            "metrics",
            "metrics/fig1/metrics.prom".into(),
            faults,
            negative,
            "",
            "negative counter",
        ),
    ];
    for (kind, src, file, from, to, removed, message) in cases {
        // Each case copies only what it doctors, so the large trace is
        // validated once, on the clean tree.
        let (copy, path) = (dir.join(kind), dir.join(kind).join(&file));
        std::fs::create_dir_all(&copy).unwrap();
        copy_tree(&clean.join(src), &copy.join(src));
        let text = std::fs::read_to_string(&path).unwrap();
        let doctored = if from.is_empty() {
            to
        } else {
            text.replacen(from, &to, 1)
        };
        assert_ne!(doctored, text, "{kind}: fixture must actually tamper");
        std::fs::write(&path, doctored).unwrap();
        if !removed.is_empty() {
            std::fs::remove_file(copy.join(removed)).unwrap();
        }
        let bad = repro(&["check", copy.to_str().unwrap()]);
        let err = stderr(&bad);
        assert_eq!(bad.status.code(), Some(1), "{kind}: {err}");
        let fail = format!("FAIL {}: ", path.display());
        assert!(
            err.contains(&fail) && err.contains(message),
            "{kind}: {err}"
        );
        assert!(!err.contains("panicked"), "{kind}: {err}");
    }

    // A path that does not exist is a failure, not a clean run.
    let missing = repro(&["check", &arg("absent")]);
    assert_eq!(missing.status.code(), Some(1), "{}", stderr(&missing));
    // The per-kind check commands are gone: each is a usage error. The
    // retired names are spelled in parts so they appear nowhere else.
    let retired = [["check", "metrics"].join("-"), ["check", "trace"].join("-")];
    for args in [
        vec![&*retired[0], &metrics],
        vec![&*retired[1], &trace],
        vec!["lineage", "--check", &metrics],
        vec!["oversub", "--check", &metrics],
    ] {
        let gone = repro(&args);
        assert_eq!(gone.status.code(), Some(2), "{args:?}: {}", stderr(&gone));
    }
}

#[test]
fn regress_gate_passes_then_fails_on_doctored_baseline() {
    let dir = scratch("regress_gate");
    let bench_json = dir.join("BENCH_hotpaths.json");
    let trend = dir.join("trend.json");

    // A perf report shaped like `repro --json` output, with two steady
    // runs' worth of history imported into the trend file.
    let mk_bench = |wall: f64, rate: f64, epf: f64, cov: f64| {
        format!(
            r#"{{"experiments": [{{"name": "fig1", "wall_seconds": {wall},
                 "sim_faults": 1000, "faults_per_sec": {rate},
                 "evictions_per_fault": {epf}, "coverage_pct": {cov}}}]}}"#
        )
    };
    for (wall, rate) in [(10.0, 1000.0), (10.3, 990.0)] {
        std::fs::write(&bench_json, mk_bench(wall, rate, 0.5, 88.0)).unwrap();
        let import = repro(&[
            "trend-import",
            trend.to_str().unwrap(),
            bench_json.to_str().unwrap(),
            "fig1",
        ]);
        assert!(import.status.success(), "trend-import: {}", stderr(&import));
    }

    // A third run consistent with history: the gate passes.
    std::fs::write(&bench_json, mk_bench(10.1, 1005.0, 0.5, 88.0)).unwrap();
    let import = repro(&[
        "trend-import",
        trend.to_str().unwrap(),
        bench_json.to_str().unwrap(),
        "fig1",
    ]);
    assert!(import.status.success());
    let ok = repro(&["regress", trend.to_str().unwrap()]);
    assert!(
        ok.status.success(),
        "steady trend must pass: {}",
        stderr(&ok)
    );
    assert!(stdout(&ok).contains("regress: OK"));

    // Doctor the baseline: the newest run's wall time +60%, throughput
    // −40%. The gate must exit non-zero with a readable diff naming the
    // series and metrics.
    std::fs::write(&bench_json, mk_bench(16.0, 600.0, 0.5, 88.0)).unwrap();
    let import = repro(&[
        "trend-import",
        trend.to_str().unwrap(),
        bench_json.to_str().unwrap(),
        "fig1",
    ]);
    assert!(import.status.success());
    let bad = repro(&["regress", trend.to_str().unwrap()]);
    assert!(!bad.status.success(), "doctored trend must fail the gate");
    assert_eq!(bad.status.code(), Some(1));
    let diff = stdout(&bad);
    assert!(
        diff.contains("REGRESSED"),
        "diff table flags the regression"
    );
    let err = stderr(&bad);
    assert!(
        err.contains("fig1.wall_seconds"),
        "stderr names the series: {err}"
    );
    assert!(err.contains("fig1.faults_per_sec"));

    // A tolerant threshold lets the same history pass.
    let loose = repro(&["regress", trend.to_str().unwrap(), "--threshold", "0.9"]);
    assert!(loose.status.success(), "90% threshold tolerates the jump");
}

#[test]
fn regress_rejects_unusable_input() {
    let dir = scratch("regress_bad_input");
    let path = dir.join("not-a-trend.json");
    std::fs::write(&path, r#"{"experiments": []}"#).unwrap();
    let run = repro(&["regress", path.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2), "no ci_trend key is exit 2");
    assert!(stderr(&run).contains("ci_trend"));
}

#[test]
fn check_fails_cleanly_on_deeply_nested_json() {
    // 200,000 nested arrays: past the JSON parser's depth cap, so a FAIL
    // line and exit 1, not a stack overflow.
    let dir = scratch("check_deep_json");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).unwrap();
    let run = repro(&["check", path.to_str().unwrap()]);
    let err = stderr(&run);
    assert_eq!(run.status.code(), Some(1), "{err}");
    assert!(err.contains(&format!("FAIL {}: ", path.display())), "{err}");
}

#[test]
fn bench_append_rejects_unusable_wall_times() {
    let dir = scratch("bench_append_bad_wall");
    let path = dir.join("BENCH_hotpaths.json");
    std::fs::write(&path, "{}").unwrap();
    let file = path.to_str().unwrap();
    for bad in ["NaN", "inf", "-inf", "-5", "0", "fast"] {
        let run = repro(&["bench-append", file, "fig1", bad]);
        assert_eq!(run.status.code(), Some(2), "{bad} must be rejected");
        let err = stderr(&run);
        assert!(err.contains("wall_seconds"), "{bad}: {err}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{}", "{bad} left the file alone");
    }
    for wall in ["1.5", "1.6"] {
        let run = repro(&["bench-append", file, "fig1", wall]);
        assert!(run.status.success(), "{wall}: {}", stderr(&run));
    }
    let ok = repro(&["regress", file]);
    assert!(ok.status.success(), "appended trend gates: {}", stderr(&ok));

    // A trend doctored past bench-append (a negative baseline) is
    // unusable input for the gate, not a "-130% ok" row.
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, body.replacen("1.5", "-5", 1)).unwrap();
    let bad = repro(&["regress", file]);
    assert_eq!(bad.status.code(), Some(2), "{}", stdout(&bad));
    assert!(stderr(&bad).contains("wall_seconds"), "{}", stderr(&bad));
}

#[test]
fn check_reads_back_offender_tables_and_serve_event_logs() {
    let dir = scratch("check_tables");
    let metrics = dir.join("metrics");
    let run = repro(&[
        "fig1",
        "--scale",
        "128",
        "--no-progress",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "repro failed: {}", stderr(&run));
    let mut log = metrics::ServeEventLog::with_capacity(8);
    log.record(3, 1, metrics::ServeEventKind::Accepted, 128, 0);
    log.record(9, 1, metrics::ServeEventKind::Completed, 28, 4096);
    let events = dir.join("serve/serve-events.tsv");
    std::fs::create_dir_all(events.parent().unwrap()).unwrap();
    std::fs::write(&events, log.to_tsv()).unwrap();
    let check = || repro(&["check", dir.to_str().unwrap()]);
    let ok = check();
    assert_eq!(ok.status.code(), Some(0), "clean: {}", stderr(&ok));
    assert!(
        stdout(&ok).contains(&format!("{}: OK", events.display())),
        "{}",
        stdout(&ok)
    );

    // A badness that is not refaults + prefetched-evicted pages.
    let offenders = metrics.join("fig1/offenders.tsv");
    let clean = std::fs::read_to_string(&offenders).unwrap();
    let row = clean
        .lines()
        .nth(1)
        .expect("an oversubscribed fig1 has offenders");
    let (head, badness) = row.rsplit_once('\t').unwrap();
    let doctored = format!("{head}\t{}", badness.parse::<u64>().unwrap() + 1);
    std::fs::write(&offenders, clean.replacen(row, &doctored, 1)).unwrap();
    let bad = check();
    assert_eq!(bad.status.code(), Some(1), "{}", stderr(&bad));
    let err = stderr(&bad);
    assert!(
        err.contains(&format!("FAIL {}: ", offenders.display()))
            && err.contains("derived column badness"),
        "{err}"
    );
    std::fs::write(&offenders, clean).unwrap();

    // A footer total that no longer counts the stored rows.
    let tsv = log.to_tsv();
    std::fs::write(
        &events,
        tsv.replace("# total\taccepted\t1", "# total\taccepted\t2"),
    )
    .unwrap();
    let bad = check();
    assert_eq!(bad.status.code(), Some(1), "{}", stderr(&bad));
    let err = stderr(&bad);
    assert!(
        err.contains(&format!("FAIL {}: ", events.display())) && err.contains("accepted rows"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn check_reconciles_flight_dumps_with_their_lineage_log() {
    let dir = scratch("check_flight");
    let metrics = dir.join("metrics");
    let run = repro(&[
        "ablation_thrash",
        "--scale",
        "128",
        "--no-progress",
        "--out",
        dir.join("out").to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "repro failed: {}", stderr(&run));
    let check = || repro(&["check", metrics.to_str().unwrap()]);
    let ok = check();
    assert_eq!(ok.status.code(), Some(0), "clean: {}", stderr(&ok));
    let flight = std::fs::read_dir(metrics.join("ablation_thrash"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_str().unwrap().ends_with(".flight.json"))
        .expect("forced thrash writes a flight dump");
    assert!(
        stdout(&ok).contains(&format!("{}: OK", flight.display())),
        "{}",
        stdout(&ok)
    );

    // One dump event's page count set to 2^64 - 1: the dump is still
    // well-formed JSON, but the event is no row of the lineage log.
    let clean = std::fs::read_to_string(&flight).unwrap();
    let at = clean.find("\"pages\": ").expect("dump events carry pages") + 9;
    let digits = clean[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let doctored = format!("{}{}{}", &clean[..at], u64::MAX, &clean[at + digits..]);
    std::fs::write(&flight, doctored).unwrap();
    let bad = check();
    assert_eq!(bad.status.code(), Some(1), "{}", stderr(&bad));
    let err = stderr(&bad);
    assert!(
        err.contains(&format!("FAIL {}: ", flight.display()))
            && err.contains("is not a row of the event table"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}
