//! Service-level observability for the `repro serve` daemon.
//!
//! Three pieces, all consumed by the bench crate's serve module:
//!
//! * [`ServeStats`] + [`SERVE_REGISTRY`] — the service-level counter and
//!   gauge families (`uvm_serve_*`) scraped live from `/metrics`,
//!   declared from one list like [`crate::counters::COUNTER_REGISTRY`].
//! * The per-request summary gauge definitions
//!   ([`REQUEST_POINTS`] … [`REQUEST_STATE`]) pushed with
//!   `{request,experiment}` labels, so a scrape during an active request
//!   shows its progress and a scrape after completion shows totals that
//!   reconcile with the request's artefact counters (`repro serve
//!   --check` enforces this).
//! * [`ServeEventLog`] — the request-scoped structured event log
//!   (accept → plan → points done → artefacts written → completed),
//!   using the same bounded-recorder discipline as [`crate::lineage`]: a
//!   preallocated buffer, exact per-kind totals even for dropped events,
//!   and zero allocations in steady state.
//!
//! [`BUILD_INFO`] is the `uvm_build_info{version,git}` identity gauge;
//! the bench crate supplies the label values from its Cargo env vars and
//! pushes it into both batch artefacts and live scrapes.

use crate::exposition::{metric_struct, MetricDef, MetricKind};
use crate::rows::Rows;
use std::fmt::Write;

/// `uvm_build_info{version,git} 1` — identifies the binary that produced
/// a scrape or an artefact. Always has value 1; the information lives in
/// the labels.
pub const BUILD_INFO: MetricDef = MetricDef {
    name: "uvm_build_info",
    kind: MetricKind::Gauge,
    help: "Build identity of the producing binary; value is always 1, see the version/git labels.",
};

/// Sweep points planned for a request (labelled `{request,experiment}`).
pub const REQUEST_POINTS: MetricDef = MetricDef {
    name: "uvm_serve_request_points",
    kind: MetricKind::Gauge,
    help: "Sweep points planned for the request.",
};

/// Sweep points finished so far for a request.
pub const REQUEST_POINTS_DONE: MetricDef = MetricDef {
    name: "uvm_serve_request_points_done",
    kind: MetricKind::Gauge,
    help: "Sweep points finished so far for the request.",
};

/// Simulated faults observed by a request's sweeps so far.
pub const REQUEST_FAULTS: MetricDef = MetricDef {
    name: "uvm_serve_request_faults",
    kind: MetricKind::Gauge,
    help: "Simulated faults fetched by the request's sweeps so far; equals the summed \
           uvm_faults_fetched_total of the request's artefacts once it completes.",
};

/// Host wall seconds a request has consumed (final once done).
pub const REQUEST_WALL_SECONDS: MetricDef = MetricDef {
    name: "uvm_serve_request_wall_seconds",
    kind: MetricKind::Gauge,
    help: "Host wall-clock seconds the request's execution took (0 until it runs).",
};

/// Request lifecycle state as a one-hot gauge with a `state` label.
pub const REQUEST_STATE: MetricDef = MetricDef {
    name: "uvm_serve_request_state",
    kind: MetricKind::Gauge,
    help: "Request lifecycle state (queued/running/done/failed) as a one-hot series.",
};

metric_struct! {
    /// A snapshot of the daemon's service-level signals. Plain counters
    /// and gauges; the daemon reads them off its event log's per-kind
    /// totals, its request ledger, its queue and its cache, and the
    /// scrape path renders a snapshot through [`SERVE_REGISTRY`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ServeStats {
        /// Run requests accepted onto the queue.
        requests_accepted: Counter "uvm_serve_requests_accepted_total"
            "Run requests accepted onto the daemon's queue.",
        /// Requests that finished and flushed artefacts.
        requests_completed: Counter "uvm_serve_requests_completed_total"
            "Requests that finished and flushed their artefacts.",
        /// Requests that failed (panic, artefact write error, shutdown drain).
        requests_failed: Counter "uvm_serve_requests_failed_total"
            "Requests that failed or were drained at shutdown.",
        /// Malformed or invalid protocol lines answered with an error frame.
        protocol_errors: Counter "uvm_serve_protocol_errors_total"
            "Malformed or invalid request lines answered with an error frame.",
        /// `/metrics` scrapes served.
        scrapes: Counter "uvm_serve_scrapes_total"
            "HTTP /metrics scrapes served.",
        /// Streamed NDJSON progress frames emitted.
        progress_frames: Counter "uvm_serve_progress_frames_total"
            "Streamed NDJSON progress frames emitted to clients.",
        /// Prepared-workload cache hits across requests.
        cache_hits: Counter "uvm_serve_cache_hits_total"
            "Prepared-workload cache hits across requests.",
        /// Prepared-workload cache misses (fresh prepares).
        cache_misses: Counter "uvm_serve_cache_misses_total"
            "Prepared-workload cache misses (fresh trace prepares).",
        /// Requests executing right now (0 or 1: the executor is serial).
        requests_active: Gauge "uvm_serve_requests_active"
            "Requests executing right now (the executor runs one at a time).",
        /// Requests queued behind the executor.
        queue_depth: Gauge "uvm_serve_queue_depth"
            "Requests queued behind the executor.",
        /// Whole seconds since the daemon started.
        uptime_seconds: Gauge "uvm_serve_uptime_seconds"
            "Whole seconds since the daemon started.",
    }
    /// Every [`ServeStats`] field as an exposition family. Monotone
    /// fields are counters (and end in `_total`); instantaneous ones are
    /// gauges.
    pub const SERVE_REGISTRY;
}

/// Number of [`ServeEventKind`] variants (sizes the totals array).
pub const SERVE_EVENT_KINDS: usize = 8;

/// What happened, per structured serve event.
///
/// Payloads (`a`, `b`; an unused payload is 0). The scale is the
/// request's scale denominator rounded down to an integer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServeEventKind {
    /// A run request was accepted and queued. `a` = scale.
    #[default]
    Accepted,
    /// The executor picked the request up and planned it. `a` = scale.
    Planned,
    /// A sweep point finished. `a` = points done, `b` = faults so far.
    PointDone,
    /// Artefacts were written. `a` = artefact file count.
    ArtefactsWritten,
    /// The request completed. `a` = total points, `b` = total faults.
    Completed,
    /// The request failed. `a`/`b` unused.
    Failed,
    /// A client sent a malformed or invalid line. `a`/`b` unused
    /// (`request` is 0).
    ClientError,
    /// The daemon shut down. `a` = requests completed, `b` = requests
    /// failed, over its lifetime (`request` is 0).
    Shutdown,
}

impl ServeEventKind {
    /// All kinds, in index order.
    pub const ALL: [ServeEventKind; SERVE_EVENT_KINDS] = [
        ServeEventKind::Accepted,
        ServeEventKind::Planned,
        ServeEventKind::PointDone,
        ServeEventKind::ArtefactsWritten,
        ServeEventKind::Completed,
        ServeEventKind::Failed,
        ServeEventKind::ClientError,
        ServeEventKind::Shutdown,
    ];

    /// Dense index into per-kind totals (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the TSV artefact.
    pub fn name(self) -> &'static str {
        match self {
            ServeEventKind::Accepted => "accepted",
            ServeEventKind::Planned => "planned",
            ServeEventKind::PointDone => "point_done",
            ServeEventKind::ArtefactsWritten => "artefacts_written",
            ServeEventKind::Completed => "completed",
            ServeEventKind::Failed => "failed",
            ServeEventKind::ClientError => "client_error",
            ServeEventKind::Shutdown => "shutdown",
        }
    }

    /// Parse an artefact kind name back into the enum.
    pub fn from_name(name: &str) -> Option<ServeEventKind> {
        ServeEventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One structured serve event. Fixed-size POD so the log buffer is a
/// flat preallocated array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeEvent {
    /// Milliseconds since daemon start.
    pub t_ms: u64,
    /// Request id (0 = service-level event).
    pub request: u64,
    /// What happened.
    pub kind: ServeEventKind,
    /// Kind-specific payload (see [`ServeEventKind`] docs).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

/// Bounded request-scoped event log. Same discipline as
/// [`crate::lineage::LineageRecorder`]: the buffer is preallocated once,
/// [`record`](ServeEventLog::record) never allocates, events past
/// capacity are counted (globally and per kind) but not stored, so a
/// long-lived daemon's steady state is allocation-free and its totals
/// stay exact regardless of drops.
#[derive(Debug)]
pub struct ServeEventLog {
    events: Vec<ServeEvent>,
    totals: [u64; SERVE_EVENT_KINDS],
    /// Events that arrived after the buffer filled (counted, not stored).
    pub dropped: u64,
}

impl ServeEventLog {
    /// A log with room for `capacity` stored events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ServeEventLog {
            events: Vec::with_capacity(capacity.max(1)),
            totals: [0; SERVE_EVENT_KINDS],
            dropped: 0,
        }
    }

    /// Record one event. Never allocates: past capacity the event is
    /// dropped from the buffer but still counted in the per-kind totals.
    pub fn record(&mut self, t_ms: u64, request: u64, kind: ServeEventKind, a: u64, b: u64) {
        self.totals[kind.index()] += 1;
        if self.events.len() < self.events.capacity() {
            self.events.push(ServeEvent {
                t_ms,
                request,
                kind,
                a,
                b,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    /// Exact total of `kind` events recorded, including dropped ones.
    pub fn total(&self, kind: ServeEventKind) -> u64 {
        self.totals[kind.index()]
    }

    /// Exact total of all events recorded, including dropped ones.
    pub fn events_total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Render the log as TSV: header, one row per stored event, then
    /// `#`-comment footer rows carrying the exact per-kind totals and the
    /// dropped count (so the artefact is self-reconciling even when the
    /// buffer overflowed).
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(32 * (self.events.len() + SERVE_EVENT_KINDS + 2));
        EVENT_ROWS.write_header(&mut out);
        for e in &self.events {
            EVENT_ROWS.write_row(e, &mut out);
        }
        for kind in ServeEventKind::ALL {
            let count = self.total(kind);
            TOTAL_ROWS.write_row(&KindCount { kind, count }, &mut out);
        }
        let _ = writeln!(out, "{DROPPED_HEAD}{}", self.dropped);
        out
    }

    /// Parse and *validate* a `serve-events.tsv` artefact: the header,
    /// known kinds, `t_ms` never decreasing, the eight `# total` rows in
    /// kind order and the `# dropped` row; each kind's stored rows equal
    /// its total when nothing was dropped and never exceed it otherwise,
    /// and the totals sum to the stored rows plus the dropped count.
    pub fn from_tsv(text: &str) -> Result<ServeEventLog, String> {
        // The event table, then the `#` footer.
        let split = text.find("\n#").map_or(text.len(), |i| i + 1);
        let (table, footer) = text.split_at(split);
        let events = EVENT_ROWS.read_table(table, 1)?;
        if let Some(i) = events.windows(2).position(|w| w[1].t_ms < w[0].t_ms) {
            return Err(format!(
                "row {}: t_ms {} regresses",
                i + 3,
                events[i + 1].t_ms
            ));
        }
        let mut footer = footer.lines().zip(table.lines().count() + 1..);
        let mut totals = [0u64; SERVE_EVENT_KINDS];
        for kind in ServeEventKind::ALL {
            let (line, n) = footer.next().ok_or("missing `# total` rows")?;
            let t = TOTAL_ROWS.read_row(n, line)?;
            if t.kind != kind {
                let want = kind.name();
                return Err(format!("row {n}: expected the {want} total, got `{line}`"));
            }
            totals[kind.index()] = t.count;
        }
        let dropped = footer
            .next()
            .and_then(|(l, _)| l.strip_prefix(DROPPED_HEAD)?.parse().ok());
        let dropped: u64 = dropped.ok_or("bad `# dropped` row")?;
        if let Some((line, n)) = footer.find(|(l, _)| !l.is_empty()) {
            return Err(format!("row {n}: `{line}` after the `# dropped` row"));
        }
        for kind in ServeEventKind::ALL {
            let stored = events.iter().filter(|e| e.kind == kind).count() as u64;
            let total = totals[kind.index()];
            if stored > total || (dropped == 0 && stored != total) {
                let name = kind.name();
                return Err(format!(
                    "{name} rows: {stored} stored, footer total {total}, {dropped} dropped"
                ));
            }
        }
        let totalled: u128 = totals.iter().map(|&t| u128::from(t)).sum();
        if totalled != events.len() as u128 + u128::from(dropped) {
            return Err(format!(
                "footer totals sum to {totalled}, not stored + dropped"
            ));
        }
        Ok(ServeEventLog {
            events,
            totals,
            dropped,
        })
    }
}

/// The stored event rows of `serve-events.tsv`, under their header.
const EVENT_ROWS: Rows<ServeEvent> = Rows {
    sep: '\t',
    columns: &[
        crate::field_column!(t_ms),
        crate::field_column!(request),
        crate::kind_column!(ServeEventKind),
        crate::field_column!(a),
        crate::field_column!(b),
    ],
};

/// One footer total: how many events of a kind were recorded.
#[derive(Debug, Clone, Copy, Default)]
struct KindCount {
    kind: ServeEventKind,
    count: u64,
}

/// The `# total\t<kind>\t<count>` footer rows, in kind order. Their
/// column names head no line of the artefact.
const TOTAL_ROWS: Rows<KindCount> = Rows {
    sep: '\t',
    columns: &[
        crate::tag_column!("total", "# total"),
        crate::kind_column!(ServeEventKind),
        crate::field_column!(count),
    ],
};

/// The last footer row: `# dropped\t<count>`.
const DROPPED_HEAD: &str = "# dropped\t";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_registry_is_in_lockstep_with_stats() {
        // One family per ServeStats field, and no derived families.
        let field_count = 11;
        assert_eq!(SERVE_REGISTRY.len(), field_count);
        let mut seen = Vec::new();
        for m in SERVE_REGISTRY {
            assert!(
                crate::exposition::valid_metric_name(m.def.name),
                "illegal name {}",
                m.def.name
            );
            assert!(
                m.def.name.starts_with("uvm_serve_"),
                "unprefixed {}",
                m.def.name
            );
            match m.def.kind {
                MetricKind::Counter => assert!(
                    m.def.name.ends_with("_total"),
                    "counter without _total: {}",
                    m.def.name
                ),
                MetricKind::Gauge => assert!(
                    !m.def.name.ends_with("_total"),
                    "gauge with _total: {}",
                    m.def.name
                ),
            }
            assert!(!m.def.help.is_empty());
            assert!(!seen.contains(&m.def.name), "duplicate {}", m.def.name);
            seen.push(m.def.name);
        }
    }

    #[test]
    fn registry_extractors_read_the_right_fields() {
        // Distinct primes per field so a swapped extractor is caught.
        let s = ServeStats {
            requests_accepted: 2,
            requests_completed: 3,
            requests_failed: 5,
            protocol_errors: 7,
            scrapes: 11,
            progress_frames: 13,
            cache_hits: 17,
            cache_misses: 19,
            requests_active: 23,
            queue_depth: 29,
            uptime_seconds: 31,
        };
        let read = |name: &str| {
            (SERVE_REGISTRY
                .iter()
                .find(|m| m.def.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .read)(&s)
        };
        assert_eq!(read("uvm_serve_requests_accepted_total"), 2);
        assert_eq!(read("uvm_serve_requests_completed_total"), 3);
        assert_eq!(read("uvm_serve_requests_failed_total"), 5);
        assert_eq!(read("uvm_serve_protocol_errors_total"), 7);
        assert_eq!(read("uvm_serve_scrapes_total"), 11);
        assert_eq!(read("uvm_serve_progress_frames_total"), 13);
        assert_eq!(read("uvm_serve_cache_hits_total"), 17);
        assert_eq!(read("uvm_serve_cache_misses_total"), 19);
        assert_eq!(read("uvm_serve_requests_active"), 23);
        assert_eq!(read("uvm_serve_queue_depth"), 29);
        assert_eq!(read("uvm_serve_uptime_seconds"), 31);
    }

    #[test]
    fn event_kind_indices_are_dense_and_names_unique() {
        let mut names = Vec::new();
        for (i, kind) in ServeEventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(!names.contains(&kind.name()));
            names.push(kind.name());
        }
    }

    #[test]
    fn event_log_is_bounded_and_totals_stay_exact() {
        let cap = 8;
        let mut log = ServeEventLog::with_capacity(cap);
        let before = log.events.capacity();
        for i in 0..(cap as u64 + 5) {
            log.record(i, 1, ServeEventKind::PointDone, i, i * 10);
        }
        log.record(99, 1, ServeEventKind::Completed, 13, 130);
        // Buffer bounded, no realloc past the preallocation.
        assert_eq!(log.events().len(), cap);
        assert_eq!(log.events.capacity(), before);
        assert_eq!(log.dropped, 6);
        // Totals count the dropped events exactly.
        assert_eq!(log.total(ServeEventKind::PointDone), cap as u64 + 5);
        assert_eq!(log.total(ServeEventKind::Completed), 1);
        assert_eq!(log.events_total(), cap as u64 + 6);
        // The TSV footer carries the exact totals.
        let tsv = log.to_tsv();
        assert!(tsv.starts_with("t_ms\trequest\tkind\ta\tb\n"));
        assert!(tsv.contains(&format!("# total\tpoint_done\t{}", cap as u64 + 5)));
        assert!(tsv.contains("# dropped\t6"));
    }

    #[test]
    fn event_tsv_bytes_are_pinned() {
        // Room for two events: the third is dropped but still totalled.
        let mut log = ServeEventLog::with_capacity(2);
        log.record(5, 1, ServeEventKind::Accepted, 128, 0);
        log.record(9, 1, ServeEventKind::PointDone, 1, 4096);
        log.record(12, 0, ServeEventKind::ClientError, 0, 0);
        let golden = "t_ms\trequest\tkind\ta\tb\n\
            5\t1\taccepted\t128\t0\n\
            9\t1\tpoint_done\t1\t4096\n\
            # total\taccepted\t1\n\
            # total\tplanned\t0\n\
            # total\tpoint_done\t1\n\
            # total\tartefacts_written\t0\n\
            # total\tcompleted\t0\n\
            # total\tfailed\t0\n\
            # total\tclient_error\t1\n\
            # total\tshutdown\t0\n\
            # dropped\t1\n";
        assert_eq!(log.to_tsv(), golden);
    }
}
