//! Chrome-trace / Perfetto JSON export of span traces, plus a validator
//! for the trace-event-format invariants.
//!
//! The export uses the JSON *object* flavour of the [trace event
//! format]: `{"traceEvents": [...], "displayTimeUnit": "ms", "uvmSim":
//! {...}}`. Each simulated run becomes one *process* (`pid`) with a
//! `process_name` metadata record; the driver timeline is `tid` 1 and
//! per-page fault/prefetch/eviction instants (when the fault trace was
//! captured) land on `tid` 2. Container spans are `B`/`E` pairs, leaf
//! phases are complete `X` events, markers are instants (`i`).
//!
//! `ts`/`dur` are in microseconds (the format's unit); every timed event
//! additionally carries exact integer nanoseconds in `args.ns` (and
//! `args.dns` for durations) so [`validate`] can reconcile span time
//! against the run's [`Timers`] totals bit-exactly: for every process,
//! `sum(leaf X durations by category) + dropped remainder == totals`
//! recorded in the file's `uvmSim.points` section, and within every
//! `pass` span the leaf durations sum to the pass's `B`→`E` extent.
//!
//! Load exported files in [Perfetto UI](https://ui.perfetto.dev) or
//! `chrome://tracing` (see README).
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::span::{SpanPhase, SpanTrace};
use crate::timers::{Category, Timers};
use crate::trace::{EventKind, TraceEvent};
use serde::Value;
use sim_engine::SimDuration;
use std::fmt::Write;

/// One run's contribution to a combined Chrome trace.
#[derive(Debug, Clone)]
pub struct ChromePoint {
    /// Human-readable run label (becomes the process name).
    pub label: String,
    /// The run's span capture.
    pub spans: SpanTrace,
    /// Per-fault/prefetch/eviction instants (empty unless captured).
    pub faults: Vec<TraceEvent>,
    /// Fault-trace events dropped at the fault recorder's capacity.
    pub fault_drops: u64,
    /// The run's per-category timer totals (ground truth for the
    /// reconciliation invariant).
    pub timers: Timers,
}

/// Thread id of the driver span timeline within each process.
pub const TID_DRIVER: u64 = 1;
/// Thread id of the per-page fault/prefetch/eviction instants.
pub const TID_PAGES: u64 = 2;

/// Drop the `,` after an array's last element (if any) and close it.
fn close(out: &mut String, tail: &str) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str(tail);
}

/// Append `"key":{"<category>":ns,…},` over every timer category.
fn push_timers(out: &mut String, key: &str, t: &Timers) {
    let _ = write!(out, r#""{key}":{{"#);
    for c in Category::ALL {
        let _ = write!(out, r#""{}":{},"#, c.label(), t.get(c).as_nanos());
    }
    close(out, "},");
}

/// How every document [`render`] writes begins: what tells a trace
/// apart from other JSON in an artefact tree.
pub const TRACE_PREFIX: &str = r#"{"traceEvents":"#;

/// Render `points` as a Chrome-trace JSON document (compact, one event
/// per `traceEvents` element). Deterministic: identical inputs produce
/// byte-identical output (wall-clock stamps are carried under
/// `args.wall_ns` and vary run to run, but the sim-time timeline and
/// structure do not).
///
/// The text goes event by event into one pre-sized `String`, byte for
/// byte what `serde_json::to_string` prints for the same `Value` tree:
/// same key order, `{:?}` floats, and the run label escaped by
/// `serde_json` (every other string is a plain identifier).
pub fn render(points: &[ChromePoint]) -> String {
    let events: usize = points
        .iter()
        .map(|p| p.spans.events.len() + p.faults.len())
        .sum();
    // Events average ~150 bytes; over-reserving only maps untouched pages.
    let mut out = String::with_capacity(1024 * points.len() + 176 * events);
    out.push_str(TRACE_PREFIX);
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        let pid = i + 1;
        let label = serde_json::to_string(&p.label).expect("serialize chrome trace label");
        let meta = [
            (TID_DRIVER, "process_name", label.as_str()),
            (TID_DRIVER, "thread_name", r#""uvm-driver""#),
            (TID_PAGES, "thread_name", r#""page-events""#),
        ];
        let threads = if p.faults.is_empty() { 2 } else { 3 };
        for (tid, name, value) in &meta[..threads] {
            let _ = write!(
                out,
                r#"{{"name":"{name}","ph":"M","pid":{pid},"tid":{tid},"#
            );
            let _ = write!(out, r#""args":{{"name":{value}}}}},"#);
        }

        // Span events are recorded in emission order; leaves are recorded
        // when they *end*, so re-sort stably by sim timestamp (stable
        // keeps B-before-X-before-E at equal ts from emission order…
        // almost: a leaf starting exactly at its parent's B shares its
        // ts but was emitted later, which is the order viewers expect).
        let mut order: Vec<usize> = (0..p.spans.events.len()).collect();
        order.sort_by_key(|&k| p.spans.events[k].ts);
        for &k in &order {
            let e = &p.spans.events[k];
            let ph = match e.phase {
                SpanPhase::Begin => "B",
                SpanPhase::End => "E",
                SpanPhase::Leaf => "X",
                SpanPhase::Instant => "i",
            };
            let (name, cat, ts) = (e.kind.label(), e.cat.label(), e.ts.as_micros_f64());
            let _ = write!(
                out,
                r#"{{"name":"{name}","cat":"{cat}","ph":"{ph}","ts":{ts:?},"#
            );
            let _ = write!(out, r#""pid":{pid},"tid":{TID_DRIVER},"#);
            match e.phase {
                SpanPhase::Leaf => {
                    let _ = write!(out, r#""dur":{:?},"#, e.dur.as_micros_f64());
                }
                SpanPhase::Instant => out.push_str(r#""s":"t","#),
                _ => {}
            }
            let (ns, wall_ns, a, b) = (e.ts.as_nanos(), e.wall_ns, e.a, e.b);
            let _ = write!(
                out,
                r#""args":{{"ns":{ns},"wall_ns":{wall_ns},"a":{a},"b":{b}"#
            );
            if e.phase == SpanPhase::Leaf {
                let _ = write!(out, r#","dns":{}"#, e.dur.as_nanos());
            }
            out.push_str("}},");
        }

        for f in &p.faults {
            let name = match f.kind {
                EventKind::Fault => "fault",
                EventKind::Prefetch => "prefetch",
                EventKind::Eviction => "eviction",
            };
            let ts = f.time.as_micros_f64();
            let _ = write!(
                out,
                r#"{{"name":"{name}","cat":"page","ph":"i","ts":{ts:?},"#
            );
            let _ = write!(out, r#""pid":{pid},"tid":{TID_PAGES},"s":"t","#);
            let (ns, page, order) = (f.time.as_nanos(), f.page, f.order);
            let _ = write!(
                out,
                r#""args":{{"ns":{ns},"page":{page},"order":{order}}}}},"#
            );
        }
    }
    close(&mut out, r#"],"displayTimeUnit":"ms","uvmSim":{"points":["#);
    for (i, p) in points.iter().enumerate() {
        let label = serde_json::to_string(&p.label).expect("serialize chrome trace label");
        let _ = write!(out, r#"{{"pid":{},"label":{label},"#, i + 1);
        push_timers(&mut out, "timers_ns", &p.timers);
        let (captured, dropped) = (p.spans.events.len(), p.spans.dropped);
        let _ = write!(
            out,
            r#""spans_captured":{captured},"spans_dropped":{dropped},"#
        );
        push_timers(&mut out, "dropped_ns", &p.spans.dropped_time);
        let (faults, fault_drops) = (p.faults.len(), p.fault_drops);
        let _ = write!(
            out,
            r#""fault_events":{faults},"fault_events_dropped":{fault_drops}}},"#
        );
    }
    close(&mut out, "]}}");
    out
}

/// Summary statistics [`validate`] returns for a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Processes (simulated runs) in the file.
    pub processes: u64,
    /// Total events in `traceEvents` (including metadata records).
    pub events: u64,
    /// Complete (`X`) leaf spans.
    pub leaf_spans: u64,
    /// `B`/`E` container span pairs.
    pub container_spans: u64,
    /// Instant events.
    pub instants: u64,
    /// Events dropped at recorder capacity, summed over processes.
    pub dropped: u64,
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn get<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    match obj {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Validate a Chrome-trace JSON document against the trace-event-format
/// invariants plus this crate's reconciliation guarantees:
///
/// 1. the document parses and has a `traceEvents` array;
/// 2. every event has a string `name`, a known `ph`, and integer
///    `pid`/`tid`; non-metadata events have a numeric `ts` (and `X` has a
///    non-negative `dur`);
/// 3. per `(pid, tid)` track, `ts` (exact `args.ns`) is monotonically
///    non-decreasing in file order;
/// 4. per track, `B`/`E` events balance with stack discipline (every `B`
///    has a matching `E`, names matching);
/// 5. within every complete `pass` container, leaf `X` durations sum
///    exactly to the pass's `B`→`E` extent (the per-batch breakdown is
///    complete);
/// 6. per process, leaf `X` durations by category plus the recorded
///    dropped remainder equal the `uvmSim.points` timer totals.
///
/// Sums saturate, so a doctored file errs instead of overflowing.
/// Returns summary stats, or a description of the first violation.
pub fn validate(json: &str) -> Result<TraceStats, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = match get(&doc, "traceEvents") {
        Some(Value::Seq(events)) => events,
        _ => return Err("missing traceEvents array".into()),
    };

    let mut stats = TraceStats {
        events: events.len() as u64,
        ..TraceStats::default()
    };
    // Per-(pid,tid) last-seen ns timestamp, and per-track B/E name stack.
    let mut last_ts: Vec<((u64, u64), u64)> = Vec::new();
    type NameStack = Vec<(String, u64)>;
    let mut stacks: Vec<((u64, u64), NameStack)> = Vec::new();
    // Per-pid leaf ns by category label, and per-pass accounting:
    // (pid, pass_start_ns, leaf_ns_inside) while a pass is open.
    let mut leaf_ns: Vec<(u64, Vec<(String, u64)>)> = Vec::new();
    let mut open_pass: Vec<(u64, u64, u64)> = Vec::new();
    let mut pids: Vec<u64> = Vec::new();
    // Processes whose recorder dropped events at capacity: their leaves
    // can no longer tile every pass exactly (only the per-category totals
    // stay reconciled via dropped_ns), so the pass-extent check relaxes
    // to `<=` for them.
    let mut lossy_pids: Vec<u64> = Vec::new();
    if let Some(Value::Seq(points)) = get(&doc, "uvmSim").and_then(|u| get(u, "points")) {
        for p in points {
            let dropped = get(p, "spans_dropped").and_then(as_u64).unwrap_or(0);
            if dropped > 0 {
                if let Some(pid) = get(p, "pid").and_then(as_u64) {
                    lossy_pids.push(pid);
                }
            }
        }
    }

    for (i, ev) in events.iter().enumerate() {
        let err = |msg: String| format!("event {i}: {msg}");
        let name = match get(ev, "name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(err("missing string `name`".into())),
        };
        let ph = match get(ev, "ph") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(err("missing string `ph`".into())),
        };
        let pid = get(ev, "pid")
            .and_then(as_u64)
            .ok_or_else(|| err("missing integer `pid`".into()))?;
        let tid = get(ev, "tid")
            .and_then(as_u64)
            .ok_or_else(|| err("missing integer `tid`".into()))?;
        if pid == 0 {
            return Err(err("pid must be nonzero".into()));
        }
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        match ph.as_str() {
            "M" => continue,
            "B" | "E" | "X" | "i" => {}
            other => return Err(err(format!("unknown ph `{other}`"))),
        }
        get(ev, "ts")
            .and_then(as_f64)
            .ok_or_else(|| err("missing numeric `ts`".into()))?;
        let ns = get(ev, "args")
            .and_then(|a| get(a, "ns"))
            .and_then(as_u64)
            .ok_or_else(|| err("missing exact args.ns timestamp".into()))?;

        let track = (pid, tid);
        match last_ts.iter_mut().find(|(k, _)| *k == track) {
            Some((_, last)) => {
                if ns < *last {
                    return Err(err(format!(
                        "ts not monotonic on track {track:?}: {ns} after {last}"
                    )));
                }
                *last = ns;
            }
            None => last_ts.push((track, ns)),
        }

        let stack = match stacks.iter_mut().find(|(k, _)| *k == track) {
            Some((_, s)) => s,
            None => {
                stacks.push((track, Vec::new()));
                &mut stacks.last_mut().unwrap().1
            }
        };
        match ph.as_str() {
            "B" => {
                stack.push((name.clone(), ns));
                if name == "pass" {
                    open_pass.push((pid, ns, 0));
                }
            }
            "E" => {
                let (open_name, _) = stack
                    .pop()
                    .ok_or_else(|| err(format!("`E` for `{name}` with no open `B`")))?;
                if open_name != name {
                    return Err(err(format!(
                        "`E` for `{name}` closes open `B` for `{open_name}`"
                    )));
                }
                stats.container_spans += 1;
                if name == "pass" {
                    let (ppid, start, leaves) = open_pass
                        .pop()
                        .ok_or_else(|| err("`E` for pass with no open pass".into()))?;
                    debug_assert_eq!(ppid, pid);
                    let extent = ns - start;
                    let exact = !lossy_pids.contains(&pid);
                    if (exact && leaves != extent) || leaves > extent {
                        return Err(err(format!(
                            "pass at {start}ns: leaf spans sum to {leaves}ns, \
                             pass extent is {extent}ns"
                        )));
                    }
                }
            }
            "X" => {
                stats.leaf_spans += 1;
                let dur = get(ev, "dur")
                    .and_then(as_f64)
                    .ok_or_else(|| err("`X` missing `dur`".into()))?;
                if dur < 0.0 {
                    return Err(err("negative `dur`".into()));
                }
                let dns = get(ev, "args")
                    .and_then(|a| get(a, "dns"))
                    .and_then(as_u64)
                    .ok_or_else(|| err("`X` missing exact args.dns duration".into()))?;
                let cat = match get(ev, "cat") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err(err("`X` missing `cat`".into())),
                };
                if let Some((_, pass_start, leaves)) =
                    open_pass.iter_mut().rev().find(|(p, _, _)| *p == pid)
                {
                    if ns >= *pass_start {
                        *leaves = leaves.saturating_add(dns);
                    }
                }
                let per_cat = match leaf_ns.iter_mut().find(|(k, _)| *k == pid) {
                    Some((_, m)) => m,
                    None => {
                        leaf_ns.push((pid, Vec::new()));
                        &mut leaf_ns.last_mut().unwrap().1
                    }
                };
                match per_cat.iter_mut().find(|(k, _)| *k == cat) {
                    Some((_, total)) => *total = total.saturating_add(dns),
                    None => per_cat.push((cat, dns)),
                }
            }
            "i" => stats.instants += 1,
            _ => unreachable!(),
        }
    }

    for (track, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("track {track:?}: `B` for `{name}` never closed"));
        }
    }
    stats.processes = pids.len() as u64;

    // Reconciliation against the uvmSim totals, when present.
    if let Some(points) = get(&doc, "uvmSim").and_then(|u| get(u, "points")) {
        let Value::Seq(points) = points else {
            return Err("uvmSim.points is not an array".into());
        };
        for p in points {
            let pid = get(p, "pid")
                .and_then(as_u64)
                .ok_or("uvmSim point missing pid")?;
            let spans_dropped = get(p, "spans_dropped").and_then(as_u64).unwrap_or(0);
            stats.dropped = stats.dropped.saturating_add(spans_dropped);
            let empty = Vec::new();
            let captured = leaf_ns
                .iter()
                .find(|(k, _)| *k == pid)
                .map_or(&empty, |(_, m)| m);
            for cat in Category::ALL {
                let label = cat.label();
                let want = get(p, "timers_ns")
                    .and_then(|t| get(t, label))
                    .and_then(as_u64)
                    .ok_or_else(|| format!("pid {pid}: missing timers_ns.{label}"))?;
                let dropped = get(p, "dropped_ns")
                    .and_then(|t| get(t, label))
                    .and_then(as_u64)
                    .unwrap_or(0);
                let got = captured
                    .iter()
                    .find(|(k, _)| k == label)
                    .map_or(0, |(_, v)| *v)
                    .saturating_add(dropped);
                if got != want {
                    return Err(format!(
                        "pid {pid}: category `{label}` spans sum to {got}ns \
                         (incl. {dropped}ns dropped) but timers report {want}ns"
                    ));
                }
            }
        }
    }
    Ok(stats)
}

/// Render the flamegraph-style text summary of one run's spans, with the
/// dropped-event count the bounded recorder reports.
pub fn flame_text(trace: &SpanTrace) -> String {
    let rows = crate::span::flame_summary(&trace.events);
    let total: SimDuration = rows.iter().map(|r| r.total).sum();
    let mut out = String::new();
    for r in &rows {
        let pct = if total.as_nanos() == 0 {
            0.0
        } else {
            100.0 * r.total.as_nanos() as f64 / total.as_nanos() as f64
        };
        out.push_str(&format!(
            "  {:<20} {:>10}x {:>14} {:>5.1}%\n",
            r.label,
            r.count,
            r.total.to_string(),
            pct
        ));
    }
    if trace.dropped > 0 {
        out.push_str(&format!(
            "  ({} events dropped at capacity; dropped leaf time remains \
             accounted per category)\n",
            trace.dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCat, SpanKind, SpanRecorder};
    use sim_engine::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    /// A tiny two-pass capture whose leaves reconcile with its timers.
    fn sample_point() -> ChromePoint {
        let mut r = SpanRecorder::bounded(64);
        let mut timers = Timers::default();
        let mut charge = |r: &mut SpanRecorder, kind, cat, ts: u64, ns: u64| {
            let d = SimDuration::from_nanos(ns);
            timers.charge(cat, d);
            r.leaf(kind, cat, t(ts), d);
        };
        r.begin(SpanKind::Pass, SpanCat::Batch, t(0), 0, 4);
        charge(&mut r, SpanKind::FetchSort, Category::Preprocess, 0, 10);
        r.begin(SpanKind::VablockService, SpanCat::Vablock, t(10), 3, 0);
        charge(&mut r, SpanKind::PmaAlloc, Category::ServicePma, 10, 5);
        charge(
            &mut r,
            SpanKind::MigrateH2d,
            Category::ServiceMigrate,
            15,
            20,
        );
        charge(&mut r, SpanKind::MapPages, Category::ServiceMap, 35, 5);
        r.end(SpanKind::VablockService, SpanCat::Vablock, t(40), 3, 0);
        charge(&mut r, SpanKind::ReplayIssue, Category::ReplayPolicy, 40, 2);
        r.instant(SpanKind::Replay, t(42), 1, 0);
        r.end(SpanKind::Pass, SpanCat::Batch, t(42), 0, 4);
        ChromePoint {
            label: "test: regular r=0.5".into(),
            spans: r.to_trace(),
            faults: vec![TraceEvent {
                order: 0,
                page: 123,
                time: t(5),
                kind: EventKind::Fault,
            }],
            fault_drops: 0,
            timers,
        }
    }

    #[test]
    fn render_validates_round_trip() {
        let json = render(&[sample_point()]);
        let stats = validate(&json).expect("valid trace");
        assert_eq!(stats.processes, 1);
        assert_eq!(stats.leaf_spans, 5);
        assert_eq!(stats.container_spans, 2);
        assert!(stats.instants >= 2); // replay marker + fault instant
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn render_is_deterministic_modulo_wall_time() {
        let a = render(&[sample_point()]);
        let b = render(&[sample_point()]);
        let strip = |s: &str| {
            // wall_ns values differ between captures; compare the rest.
            let mut out = String::new();
            for part in s.split("\"wall_ns\":") {
                out.push_str(part.split_once(',').map_or(part, |(_, rest)| rest));
            }
            out
        };
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn validate_rejects_unbalanced_begin() {
        let json = r#"{"traceEvents":[
            {"name":"pass","cat":"batch","ph":"B","ts":0.0,"pid":1,"tid":1,"args":{"ns":0}}
        ]}"#;
        let err = validate(json).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validate_rejects_nonmonotonic_ts() {
        let json = r#"{"traceEvents":[
            {"name":"a","cat":"marker","ph":"i","ts":5.0,"pid":1,"tid":1,"args":{"ns":5000}},
            {"name":"b","cat":"marker","ph":"i","ts":1.0,"pid":1,"tid":1,"args":{"ns":1000}}
        ]}"#;
        let err = validate(json).unwrap_err();
        assert!(err.contains("monotonic"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_pass_sum() {
        let json = r#"{"traceEvents":[
            {"name":"pass","cat":"batch","ph":"B","ts":0.0,"pid":1,"tid":1,"args":{"ns":0}},
            {"name":"fetch_sort","cat":"preprocess","ph":"X","ts":0.0,"dur":0.005,"pid":1,"tid":1,"args":{"ns":0,"dns":5}},
            {"name":"pass","cat":"batch","ph":"E","ts":0.1,"pid":1,"tid":1,"args":{"ns":100}}
        ]}"#;
        let err = validate(json).unwrap_err();
        assert!(err.contains("pass"), "{err}");
        // Leaves whose durations would overflow a u64 sum saturate and
        // fail the same check instead of panicking.
        let max = u64::MAX;
        let leaf = format!(
            r#"{{"name":"a","cat":"preprocess","ph":"X","ts":0.0,"dur":0.005,"pid":1,"tid":1,"args":{{"ns":0,"dns":{max}}}}},"#
        );
        let json = json.replacen(
            r#"{"name":"fetch_sort""#,
            &format!("{leaf}{leaf}{{\"name\":\"fetch_sort\""),
            1,
        );
        let err = validate(&json).unwrap_err();
        assert!(err.contains(&format!("sum to {max}ns")), "{err}");
    }

    #[test]
    fn validate_catches_timer_mismatch() {
        let mut p = sample_point();
        p.timers
            .charge(Category::Eviction, SimDuration::from_nanos(999));
        let json = render(&[p]);
        let err = validate(&json).unwrap_err();
        assert!(err.contains("eviction"), "{err}");
    }

    #[test]
    fn dropped_leaf_time_still_reconciles() {
        // Capacity 3: the pass B + first leaf fit, later leaves drop, E
        // overshoots — the validator must still reconcile via dropped_ns.
        let mut r = SpanRecorder::bounded(3);
        let mut timers = Timers::default();
        r.begin(SpanKind::Pass, SpanCat::Batch, t(0), 0, 0);
        for i in 0..4u64 {
            let d = SimDuration::from_nanos(10);
            timers.charge(Category::ServiceMigrate, d);
            r.leaf(SpanKind::MigrateH2d, Category::ServiceMigrate, t(i * 10), d);
        }
        r.end(SpanKind::Pass, SpanCat::Batch, t(40), 0, 0);
        let point = ChromePoint {
            label: "dropped".into(),
            spans: r.to_trace(),
            faults: vec![],
            fault_drops: 0,
            timers,
        };
        // The captured pass no longer sums (leaves were dropped), so the
        // per-pass invariant is checked only when nothing dropped inside;
        // here we check the per-category reconciliation path: remove the
        // pass container to isolate it.
        let mut spans = point.spans.clone();
        spans.events.retain(|e| e.phase == SpanPhase::Leaf);
        let point = ChromePoint { spans, ..point };
        let stats = validate(&render(&[point])).expect("reconciles with drops");
        assert!(stats.dropped >= 2);
    }

    #[test]
    fn flame_text_mentions_drops() {
        let mut r = SpanRecorder::bounded(1);
        r.leaf(
            SpanKind::MapPages,
            Category::ServiceMap,
            t(0),
            SimDuration::from_nanos(5),
        );
        r.leaf(
            SpanKind::MapPages,
            Category::ServiceMap,
            t(5),
            SimDuration::from_nanos(5),
        );
        let text = flame_text(&r.to_trace());
        assert!(text.contains("map_pages"));
        assert!(text.contains("dropped"));
    }
}
