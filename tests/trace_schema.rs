//! Schema and round-trip tests for the Chrome-trace exporter: a traced
//! run's exported JSON must parse, satisfy every trace-event-format
//! invariant [`metrics::chrome::validate`] checks, and reconcile exactly
//! — the span leaf durations per category must sum to the driver's
//! `Timers`, with dropped leaf time still accounted when the span buffer
//! is bounded below the run's event count.

use bench::experiments::Scale;
use metrics::{
    chrome, Category, ChromePoint, EventKind, SpanCat, SpanKind, SpanRecorder, SpanTrace, Timers,
    TraceEvent,
};
use sim_engine::{SimDuration, SimTime};
use uvm_sim::{SimReport, WorkloadKind};

mod common;

use common::{repro, scratch, stderr};

/// One oversubscribed QUICK-scale run (faults, migrations, evictions and
/// replays all exercised) with span recording at `span_capacity`.
fn traced_report(span_capacity: usize) -> SimReport {
    let scale = Scale::QUICK;
    let mut cfg = scale.config();
    cfg.driver.span_capacity = Some(span_capacity);
    cfg.driver.trace_capacity = Some(metrics::DEFAULT_TRACE_CAPACITY);
    uvm_sim::run(&cfg, &scale.workload(WorkloadKind::Random, 1.3))
}

fn point(r: &SimReport) -> ChromePoint {
    ChromePoint {
        label: format!("{} r={:.2}", r.workload, r.subscription_ratio),
        spans: r.span_trace.clone(),
        faults: r.trace.clone(),
        fault_drops: r.trace_dropped,
        timers: r.timers,
    }
}

#[test]
fn exported_trace_parses_and_validates() {
    let r = traced_report(1 << 20);
    assert_eq!(r.span_trace.dropped, 0, "capacity ample for QUICK scale");
    let json = chrome::render(&[point(&r)]);

    // Round-trip through the JSON parser: the export is a plain JSON
    // object, not a viewer-only dialect.
    let parsed: serde::Value = serde_json::from_str(&json).expect("export parses as JSON");
    assert!(matches!(parsed, serde::Value::Map(_)));

    let stats = chrome::validate(&json).expect("export satisfies trace-event invariants");
    assert_eq!(stats.processes, 1);
    assert_eq!(stats.dropped, 0);
    assert!(stats.leaf_spans > 0, "driver work recorded as leaf spans");
    assert!(stats.container_spans > 0, "pass containers recorded");
    assert!(stats.instants > 0, "fault instants recorded");
    // `events` counts the raw traceEvents array: each container is a B+E
    // pair, plus the metadata records naming processes/threads.
    assert!(
        stats.events >= stats.leaf_spans + 2 * stats.container_spans + stats.instants,
        "event count covers spans, pairs and metadata"
    );
}

#[test]
fn span_categories_sum_to_driver_timers() {
    let r = traced_report(1 << 20);
    assert_eq!(r.span_trace.dropped, 0);
    assert_eq!(
        r.span_trace.leaf_totals(),
        r.timers,
        "per-category leaf durations sum exactly to the driver timers"
    );
}

#[test]
fn bounded_capture_drops_events_but_never_time() {
    let r = traced_report(256);
    assert!(r.span_trace.dropped > 0, "tiny buffer must overflow");
    assert!(
        r.span_trace.events.len() <= 256 + 64,
        "capacity bounds capture"
    );
    // Dropped leaves carry their sim-time into `dropped_time`, so the
    // reconciliation invariant survives the bound…
    assert_eq!(r.span_trace.reconciled_totals(), r.timers);
    // …and the export still validates (the validator checks
    // captured + dropped_ns == timers_ns per category).
    let json = chrome::render(&[point(&r)]);
    let stats = chrome::validate(&json).expect("bounded export still validates");
    assert_eq!(stats.dropped, r.span_trace.dropped);
}

#[test]
fn span_trace_serde_round_trips() {
    let r = traced_report(1 << 20);
    let body = serde_json::to_string(&r.span_trace).expect("serialize span trace");
    let back: SpanTrace = serde_json::from_str(&body).expect("deserialize span trace");
    assert_eq!(back.events, r.span_trace.events);
    assert_eq!(back.dropped, r.span_trace.dropped);
    assert_eq!(back.dropped_time, r.span_trace.dropped_time);
}

#[test]
fn multi_point_export_keeps_processes_separate() {
    let a = traced_report(1 << 20);
    let scale = Scale::QUICK;
    let mut cfg = scale.config();
    cfg.driver.span_capacity = Some(1 << 20);
    let b = uvm_sim::run(&cfg, &scale.workload(WorkloadKind::Regular, 0.5));
    let json = chrome::render(&[point(&a), point(&b)]);
    let stats = chrome::validate(&json).expect("two-point export validates");
    assert_eq!(stats.processes, 2);
}

fn t(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// A hand-built point: one pass of nanosecond-scale leaves (1 ns renders
/// as `0.001` µs), a replay instant, and optionally the three page
/// instant kinds.
fn synthetic_point(label: &str, base_ns: u64, with_faults: bool) -> ChromePoint {
    let mut r = SpanRecorder::bounded(64);
    let mut timers = Timers::default();
    let mut charge = |r: &mut SpanRecorder, kind, cat, ts: u64, ns: u64| {
        let d = SimDuration::from_nanos(ns);
        timers.charge(cat, d);
        r.leaf(kind, cat, t(base_ns + ts), d);
    };
    r.begin(SpanKind::Pass, SpanCat::Batch, t(base_ns), 7, 3);
    charge(&mut r, SpanKind::FetchSort, Category::Preprocess, 0, 1);
    r.begin(
        SpanKind::VablockService,
        SpanCat::Vablock,
        t(base_ns + 1),
        2,
        0,
    );
    charge(&mut r, SpanKind::MigrateH2d, Category::ServiceMigrate, 1, 1);
    charge(
        &mut r,
        SpanKind::MapPages,
        Category::ServiceMap,
        2,
        1_234_000,
    );
    r.end(
        SpanKind::VablockService,
        SpanCat::Vablock,
        t(base_ns + 1_234_002),
        2,
        0,
    );
    r.instant(SpanKind::Replay, t(base_ns + 1_234_002), 1, 0);
    r.end(SpanKind::Pass, SpanCat::Batch, t(base_ns + 1_234_002), 7, 3);
    let faults = if with_faults {
        [EventKind::Fault, EventKind::Prefetch, EventKind::Eviction]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                order: i as u64,
                page: 40 + i as u64,
                time: t(base_ns + i as u64),
                kind,
            })
            .collect()
    } else {
        Vec::new()
    };
    ChromePoint {
        label: label.into(),
        spans: r.to_trace(),
        faults,
        fault_drops: 0,
        timers,
    }
}

/// The direct writer must emit exactly the bytes the vendored serializer
/// prints for the same document: re-serializing the parsed tree gives
/// the input back, escapes and float forms included.
#[test]
fn render_is_the_serializers_canonical_form() {
    let points = [
        synthetic_point("quote \" backslash \\ bell \u{7} tab \t", 0, true),
        synthetic_point("no faults", 5_000, false),
    ];
    let json = chrome::render(&points);
    assert!(json.contains(r#""ts":0.001,"#), "1 ns renders as 0.001 µs");
    assert!(json.contains(r#""dur":0.001,"#), "1 ns renders as 0.001 µs");
    // Whole microseconds keep the float form; the round trip below
    // cannot see this, since the parser reads `5` back as an integer.
    assert!(json.contains(r#""ts":5.0,"#), "5000 ns renders as 5.0 µs");
    assert!(
        json.contains(r#""dur":1234.0,"#),
        "1234000 ns renders as 1234.0 µs"
    );
    assert!(json.contains(r#"quote \" backslash \\ bell \u0007 tab \t"#));
    let tree: serde::Value = serde_json::from_str(&json).expect("export parses as JSON");
    assert_eq!(serde_json::to_string(&tree).expect("re-serialize"), json);

    let stats = chrome::validate(&json).expect("synthetic export validates");
    assert_eq!(stats.processes, 2);
    assert_eq!(stats.leaf_spans, 6);
    assert_eq!(stats.container_spans, 4);
    assert_eq!(stats.instants, 2 + 3, "replay markers plus page instants");
}

/// An unwritable `--trace-out` path is an I/O error, not a panic; so is
/// an out-of-range `--scale`.
#[test]
fn trace_out_under_a_regular_file_exits_cleanly() {
    let dir = scratch("trace_out_unwritable");
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "").expect("create regular file");
    let (out_dir, sub, trace) = (
        dir.join("out"),
        blocker.join("sub"),
        blocker.join("sub/t.json"),
    );
    let (out_dir, sub, trace) = (
        out_dir.to_str().unwrap(),
        sub.to_str().unwrap(),
        trace.to_str().unwrap(),
    );
    let cases = [
        // An unwritable `--trace-out`, then an unwritable `--out` itself.
        (
            vec![
                "table1",
                "--scale",
                "128",
                "--out",
                out_dir,
                "--trace-out",
                trace,
            ],
            1,
            "error: write trace",
        ),
        (
            vec!["table1", "--scale", "128", "--json", "--out", sub],
            1,
            "error:",
        ),
        // A non-finite `--scale` is a usage error; a huge finite one runs
        // on the 8 MiB device floor instead of sizing workloads to zero.
        (
            vec!["fig1", "--scale", "inf", "--out", out_dir],
            2,
            "error: --scale",
        ),
        (vec!["fig1", "--scale", "1e9", "--out", out_dir], 0, ""),
    ];
    for (mut args, code, message) in cases {
        args.push("--no-progress");
        let out = repro(&args);
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
