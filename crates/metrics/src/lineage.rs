//! Event-sourced fault lineage: the per-VABlock lifecycle log behind
//! `repro lineage`, plus the anomaly-triggered flight recorder.
//!
//! The attribution ledger ([`crate::attribution`]) classifies every
//! fault into a cause but throws away the *when* and *what came
//! between*: it cannot answer "how long after eviction did the refault
//! arrive?" or "which eviction killed this prefetch?". This module keeps
//! that temporal structure as a compact event log:
//!
//! * [`LineageRecorder`] — the driver-side recorder. Bounded event log
//!   (allocation-free once constructed), exact per-kind running totals
//!   (kept even for events dropped at capacity, so reconciliation never
//!   degrades), a circular last-N-events ring, and preallocated flight
//!   dump storage.
//! * [`LineageLog`] — the drained result carried on `SimReport`:
//!   events, per-kind totals, and any flight dumps.
//! * [`analyze`] — refault-distance and inter-reuse-distance histograms
//!   (in passes and simulated ns), prefetch→eviction antagonism chains,
//!   and per-block last-seen state, all recomputable from the events
//!   alone.
//! * [`LineageLog::reconcile`] — the one list of hard equality checks of
//!   the lineage totals against a run's final telemetry [`Sample`], used
//!   live and by `repro check` on the artefacts.
//! * `to_artefact` / `from_artefact` — the `.lineage` text artefact
//!   written per sweep point, validated the way sample CSVs are.
//!
//! Determinism rule: events are recorded only from the driver's serial
//! paths (gather, ordered commit, eviction, hint/host processing) with
//! simulated timestamps, so the stream is bit-identical at any
//! `--threads` setting.

use crate::histogram::Histogram;
use crate::timeseries::Sample;
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use std::fmt::Write;

/// Number of lineage event kinds (array size for per-kind totals).
pub const LINEAGE_KINDS: usize = 9;

/// `block` value for events not tied to a single VABlock (replay rounds).
pub const NO_BLOCK: u64 = u64::MAX;

/// What happened to a VABlock (or to the fault pipeline) at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineageEventKind {
    /// Pages faulted for the first time ever (cold faults).
    FirstTouch = 0,
    /// Pages faulted again after an eviction (`aux` = how many of them
    /// had been evicted *unused* — the prefetch→evict→refault chain).
    Refault = 1,
    /// Pages pulled in by the fault-path prefetcher alongside a fault.
    PrefetchIn = 2,
    /// Pages pulled in by an explicit `prefetch_range` hint.
    HintPrefetch = 3,
    /// Pages migrated host→device to service one fault group.
    Migration = 4,
    /// Pages evicted from the block (`aux` = pages never touched during
    /// their residency — wasted prefetch volume).
    Eviction = 5,
    /// Dirty pages written back device→host during an eviction.
    Writeback = 6,
    /// Resident pages migrated back by CPU access (`host_access_range`).
    HostWriteback = 7,
    /// Replay rounds issued for one fault-servicing pass (`pages` =
    /// replays this pass, `aux` = the fault buffer's cumulative replay
    /// rounds, `block` = [`NO_BLOCK`]).
    Replay = 8,
}

impl LineageEventKind {
    /// All kinds, in discriminant order (the artefact's `total` order).
    pub const ALL: [LineageEventKind; LINEAGE_KINDS] = [
        LineageEventKind::FirstTouch,
        LineageEventKind::Refault,
        LineageEventKind::PrefetchIn,
        LineageEventKind::HintPrefetch,
        LineageEventKind::Migration,
        LineageEventKind::Eviction,
        LineageEventKind::Writeback,
        LineageEventKind::HostWriteback,
        LineageEventKind::Replay,
    ];

    /// Stable snake_case name used in the `.lineage` artefact.
    pub fn name(self) -> &'static str {
        match self {
            LineageEventKind::FirstTouch => "first_touch",
            LineageEventKind::Refault => "refault",
            LineageEventKind::PrefetchIn => "prefetch_in",
            LineageEventKind::HintPrefetch => "hint_prefetch",
            LineageEventKind::Migration => "migration",
            LineageEventKind::Eviction => "eviction",
            LineageEventKind::Writeback => "writeback",
            LineageEventKind::HostWriteback => "host_writeback",
            LineageEventKind::Replay => "replay",
        }
    }

    /// Parse an artefact kind name back into the enum.
    pub fn from_name(name: &str) -> Option<LineageEventKind> {
        LineageEventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Index into per-kind total arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One lifecycle event: plain integers only, so the stream serializes
/// bit-identically and comparisons are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineageEvent {
    /// Simulated nanoseconds at emission (non-decreasing in log order).
    pub t_ns: u64,
    /// Driver fault-servicing pass index (the `batches` counter) at
    /// emission; hint/host events carry the pass count reached so far.
    pub pass: u64,
    /// VABlock index, or [`NO_BLOCK`] for pipeline-wide events.
    pub block: u64,
    /// What happened.
    pub kind: LineageEventKind,
    /// Pages involved (replay rounds for [`LineageEventKind::Replay`]).
    pub pages: u64,
    /// Kind-specific secondary payload (see the kind docs).
    pub aux: u64,
}

/// Event-log capacity; events beyond it are counted (`dropped` and the
/// per-kind totals) but not stored.
const LOG_CAPACITY: usize = 65_536;
/// Flight-recorder ring size (last N events kept for dumps).
const RING_CAPACITY: usize = 256;
/// Maximum flight dumps kept per run; later triggers are ignored.
const MAX_DUMPS: usize = 4;
/// Timeseries samples captured alongside each dump (tail window).
const WINDOW_SAMPLES: usize = 32;

/// What fired a flight dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightTrigger {
    /// The ThrashDetector pinned a block (`value` = refault count seen).
    ThrashPin,
}

impl FlightTrigger {
    /// Stable name for artefacts and rendering.
    pub fn name(self) -> &'static str {
        match self {
            FlightTrigger::ThrashPin => "thrash_pin",
        }
    }
}

/// Bookkeeping for one dump inside the recorder's flat storage.
#[derive(Debug, Clone, Copy)]
struct DumpMeta {
    t_ns: u64,
    pass: u64,
    block: u64,
    value: u64,
    threshold: u64,
    n_events: usize,
    n_samples: usize,
}

/// One black-box recording: the ring contents and the active timeseries
/// window at the moment an anomaly trigger fired.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Which anomaly fired.
    pub trigger: FlightTrigger,
    /// Simulated ns at trigger time.
    pub t_ns: u64,
    /// Pass index at trigger time.
    pub pass: u64,
    /// Block that triggered.
    pub block: u64,
    /// Refault count observed at the trigger.
    pub value: u64,
    /// The threshold the value crossed.
    pub threshold: u64,
    /// The last-N-events ring, oldest first.
    pub events: Vec<LineageEvent>,
    /// Tail of the sampled telemetry stream at trigger time.
    pub window: Vec<Sample>,
}

/// Exact running totals for one event kind (dropped events included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindTotal {
    /// The kind these totals cover.
    pub kind: LineageEventKind,
    /// Events recorded (stored or dropped).
    pub events: u64,
    /// Sum of `pages` across those events.
    pub pages: u64,
    /// Sum of `aux` across those events.
    pub aux: u64,
}

impl Default for LineageEventKind {
    fn default() -> Self {
        LineageEventKind::FirstTouch
    }
}

/// The drained lineage stream of one run, carried on `SimReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LineageLog {
    /// Stored events in emission order (bounded by the configured
    /// capacity; `dropped` counts the overflow).
    pub events: Vec<LineageEvent>,
    /// Events dropped at capacity (their totals are still exact).
    pub dropped: u64,
    /// Exact per-kind totals, in [`LineageEventKind::ALL`] order.
    pub totals: Vec<KindTotal>,
    /// Flight dumps captured by the thrash-pin trigger.
    pub dumps: Vec<FlightDump>,
}

/// Header line prefix of the `.lineage` artefact.
const ARTEFACT_HEAD: &str = "lineage,v1,dropped,";
/// Column header of the event rows.
const ARTEFACT_COLUMNS: &str = "events,t_ns,pass,block,kind,pages,aux";

impl LineageLog {
    /// Exact totals for one kind (zeroed if the log carries no totals,
    /// e.g. a default-constructed log from a lineage-off run).
    pub fn total(&self, kind: LineageEventKind) -> KindTotal {
        self.totals
            .iter()
            .find(|t| t.kind == kind)
            .copied()
            .unwrap_or(KindTotal {
                kind,
                ..KindTotal::default()
            })
    }

    /// Total events recorded (stored or dropped) across all kinds.
    pub fn events_total(&self) -> u64 {
        self.totals.iter().map(|t| t.events).sum()
    }

    /// True when nothing was ever recorded (lineage was off or idle).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0 && self.events_total() == 0
    }

    /// Reconcile the lineage totals against `last`, the run's final
    /// telemetry sample (live, or parsed back from a sample CSV by
    /// `repro check`): the event stream must carry *exactly* the page
    /// volumes the counters and the attribution ledger recorded, close
    /// the transfer byte totals, and match the recorder's own columns,
    /// or the artefact set is corrupt. Sums are taken in u128, so
    /// doctored totals cannot wrap into balance. Names the first violated
    /// equation and both sides on failure.
    pub fn reconcile(&self, last: &Sample) -> Result<(), String> {
        use LineageEventKind as K;
        let pages = |k: K| self.total(k).pages as u128;
        let aux = |k: K| self.total(k).aux as u128;
        let v = |x: u64| x as u128;
        let page = PAGE_SIZE as u128;
        let checks: [(&str, u128, u128); 16] = [
            (
                "first_touch pages == attr_cold_faults",
                pages(K::FirstTouch),
                v(last.attr_cold_faults),
            ),
            (
                "refault pages == attr refault faults",
                pages(K::Refault),
                v(last.attr_refault_used_faults) + v(last.attr_refault_unused_faults),
            ),
            (
                "refault aux == attr_refault_unused_faults",
                aux(K::Refault),
                v(last.attr_refault_unused_faults),
            ),
            (
                "prefetch_in pages == pages_prefetched",
                pages(K::PrefetchIn),
                v(last.pages_prefetched),
            ),
            (
                "hint_prefetch pages == pages_hint_prefetched",
                pages(K::HintPrefetch),
                v(last.pages_hint_prefetched),
            ),
            (
                "migration pages == pages_faulted_in + pages_prefetched",
                pages(K::Migration),
                v(last.pages_faulted_in) + v(last.pages_prefetched),
            ),
            ("eviction pages == pages_evicted", pages(K::Eviction), v(last.pages_evicted)),
            (
                "eviction aux == attr_prefetch_evicted_pages",
                aux(K::Eviction),
                v(last.attr_prefetch_evicted_pages),
            ),
            (
                "writeback pages == pages_evicted_migrated",
                pages(K::Writeback),
                v(last.pages_evicted_migrated),
            ),
            (
                "host_writeback pages == pages_migrated_to_host",
                pages(K::HostWriteback),
                v(last.pages_migrated_to_host),
            ),
            ("replay rounds == replays", pages(K::Replay), v(last.replays)),
            (
                "(migration + hint_prefetch) bytes == migrated_bytes_h2d",
                (pages(K::Migration) + pages(K::HintPrefetch)) * page,
                v(last.migrated_bytes_h2d),
            ),
            (
                "(writeback + host_writeback) bytes == migrated_bytes_d2h",
                (pages(K::Writeback) + pages(K::HostWriteback)) * page,
                v(last.migrated_bytes_d2h),
            ),
            (
                "lineage events == lineage_events column",
                self.totals.iter().map(|t| t.events as u128).sum(),
                v(last.lineage_events),
            ),
            ("dropped events == lineage_dropped column", v(self.dropped), v(last.lineage_dropped)),
            ("flight dumps == flight_dumps column", self.dumps.len() as u128, v(last.flight_dumps)),
        ];
        for (eq, lhs, rhs) in checks {
            if lhs != rhs {
                return Err(format!("lineage does not reconcile: {eq} violated ({lhs} != {rhs})"));
            }
        }
        Ok(())
    }

    /// Render the `.lineage` text artefact: one header line carrying the
    /// drop count, the nine exact per-kind `total` lines, then the
    /// stored events. Flight dumps are *not* part of this artefact —
    /// they go to the JSON sidecar.
    pub fn to_artefact(&self) -> String {
        let rows = 1 + LINEAGE_KINDS + 1 + self.events.len();
        let mut out = String::with_capacity(48 * rows);
        let _ = writeln!(out, "{ARTEFACT_HEAD}{}", self.dropped);
        for kind in LineageEventKind::ALL {
            let t = self.total(kind);
            let _ = writeln!(out, "total,{},{},{},{}", kind.name(), t.events, t.pages, t.aux);
        }
        out.push_str(ARTEFACT_COLUMNS);
        out.push('\n');
        for e in &self.events {
            let _ = writeln!(
                out,
                "event,{},{},{},{},{},{}",
                e.t_ns,
                e.pass,
                e.block,
                e.kind.name(),
                e.pages,
                e.aux
            );
        }
        out
    }

    /// Parse and *validate* a `.lineage` artefact: version line, the
    /// nine totals in order, known kinds, non-decreasing timestamps, and
    /// stored-event sums that match the exact totals (equality when
    /// nothing was dropped, never exceeding them otherwise), every sum
    /// overflow-checked. Dumps are not carried by the text artefact and
    /// come back empty.
    pub fn from_artefact(text: &str) -> Result<LineageLog, String> {
        let mut lines = text.lines();
        let head = lines.next().ok_or("lineage artefact is empty")?;
        let dropped: u64 = head
            .strip_prefix(ARTEFACT_HEAD)
            .ok_or_else(|| format!("bad lineage header `{head}`"))?
            .parse()
            .map_err(|_| format!("bad lineage drop count in `{head}`"))?;
        let mut totals = Vec::with_capacity(LINEAGE_KINDS);
        for kind in LineageEventKind::ALL {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing total line for {}", kind.name()))?;
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != 5 || cells[0] != "total" || cells[1] != kind.name() {
                return Err(format!(
                    "expected `total,{},…`, got `{line}`",
                    kind.name()
                ));
            }
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad number `{s}` in `{line}`"))
            };
            totals.push(KindTotal {
                kind,
                events: num(cells[2])?,
                pages: num(cells[3])?,
                aux: num(cells[4])?,
            });
        }
        if totals.iter().try_fold(0u64, |n, t| n.checked_add(t.events)).is_none() {
            return Err("lineage event totals overflow u64".into());
        }
        let columns = lines.next().ok_or("missing lineage column header")?;
        if columns != ARTEFACT_COLUMNS {
            return Err(format!("bad lineage column header `{columns}`"));
        }
        let mut events = Vec::new();
        let mut seen = [KindTotal::default(); LINEAGE_KINDS];
        let mut last_t = 0u64;
        for line in lines.filter(|l| !l.is_empty()) {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != 7 || cells[0] != "event" {
                return Err(format!("malformed lineage event row `{line}`"));
            }
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad number `{s}` in `{line}`"))
            };
            let kind = LineageEventKind::from_name(cells[4])
                .ok_or_else(|| format!("unknown lineage kind `{}`", cells[4]))?;
            let e = LineageEvent {
                t_ns: num(cells[1])?,
                pass: num(cells[2])?,
                block: num(cells[3])?,
                kind,
                pages: num(cells[5])?,
                aux: num(cells[6])?,
            };
            if e.t_ns < last_t {
                return Err(format!(
                    "lineage timestamps regress: {} after {last_t}",
                    e.t_ns
                ));
            }
            last_t = e.t_ns;
            let s = &mut seen[kind.index()];
            let overflow = || format!("lineage {} row sums overflow u64", kind.name());
            s.events += 1;
            s.pages = s.pages.checked_add(e.pages).ok_or_else(overflow)?;
            s.aux = s.aux.checked_add(e.aux).ok_or_else(overflow)?;
            events.push(e);
        }
        for kind in LineageEventKind::ALL {
            let s = seen[kind.index()];
            let t = totals[kind.index()];
            let bad = if dropped == 0 {
                (s.events, s.pages, s.aux) != (t.events, t.pages, t.aux)
            } else {
                s.events > t.events || s.pages > t.pages || s.aux > t.aux
            };
            if bad {
                return Err(format!(
                    "lineage {} rows ({} events, {} pages, {} aux) disagree with \
                     exact totals ({}, {}, {}) with {dropped} dropped",
                    kind.name(),
                    s.events,
                    s.pages,
                    s.aux,
                    t.events,
                    t.pages,
                    t.aux
                ));
            }
        }
        Ok(LineageLog {
            events,
            dropped,
            totals,
            dumps: Vec::new(),
        })
    }
}

/// The driver-side recorder: bounded log + exact totals + flight ring.
/// All storage is allocated at construction; `record` and the triggers
/// never allocate, so the driver's steady state stays allocation-free.
#[derive(Debug)]
pub struct LineageRecorder {
    on: bool,
    capacity: usize,
    events: Vec<LineageEvent>,
    dropped: u64,
    totals: [KindTotal; LINEAGE_KINDS],
    ring_capacity: usize,
    ring: Vec<LineageEvent>,
    ring_next: usize,
    max_dumps: usize,
    window_samples: usize,
    dump_meta: Vec<DumpMeta>,
    dump_events: Vec<LineageEvent>,
    dump_samples: Vec<Sample>,
}

impl LineageRecorder {
    /// A recorder at the fixed log, ring and dump sizes when `armed`
    /// (the driver arms it exactly when telemetry sampling is on); an
    /// unarmed recorder allocates and records nothing.
    pub fn new(armed: bool) -> LineageRecorder {
        if armed {
            LineageRecorder::sized(LOG_CAPACITY, RING_CAPACITY, MAX_DUMPS, WINDOW_SAMPLES)
        } else {
            LineageRecorder {
                on: false,
                ..LineageRecorder::sized(0, 0, 0, 0)
            }
        }
    }

    /// An armed recorder with the given sizes (unit tests use small ones).
    pub(crate) fn sized(
        capacity: usize,
        ring_capacity: usize,
        max_dumps: usize,
        window_samples: usize,
    ) -> LineageRecorder {
        let mut totals = [KindTotal::default(); LINEAGE_KINDS];
        for kind in LineageEventKind::ALL {
            totals[kind.index()].kind = kind;
        }
        LineageRecorder {
            on: true,
            capacity,
            events: Vec::with_capacity(capacity),
            dropped: 0,
            totals,
            ring_capacity,
            ring: Vec::with_capacity(ring_capacity),
            ring_next: 0,
            max_dumps,
            window_samples,
            dump_meta: Vec::with_capacity(max_dumps),
            dump_events: Vec::with_capacity(max_dumps * ring_capacity),
            dump_samples: Vec::with_capacity(max_dumps * window_samples),
        }
    }

    /// Whether recording is on (mirrors `TimeseriesSampler::is_enabled`).
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Record one event. Totals update always; the stored log and the
    /// flight ring absorb it without allocating.
    pub fn record(
        &mut self,
        kind: LineageEventKind,
        t_ns: u64,
        pass: u64,
        block: u64,
        pages: u64,
        aux: u64,
    ) {
        if !self.on {
            return;
        }
        let t = &mut self.totals[kind.index()];
        t.events += 1;
        t.pages += pages;
        t.aux += aux;
        let e = LineageEvent {
            t_ns,
            pass,
            block,
            kind,
            pages,
            aux,
        };
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
        if self.ring_capacity > 0 {
            if self.ring.len() < self.ring_capacity {
                self.ring.push(e);
            } else {
                self.ring[self.ring_next] = e;
                self.ring_next = (self.ring_next + 1) % self.ring_capacity;
            }
        }
    }

    /// Events recorded so far (stored or dropped), for telemetry columns.
    pub fn events_recorded(&self) -> u64 {
        self.totals.iter().map(|t| t.events).sum()
    }

    /// Events dropped at the log's capacity so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flight dumps captured so far.
    pub fn dumps_captured(&self) -> u64 {
        self.dump_meta.len() as u64
    }

    /// ThrashDetector trigger: a block just crossed the pin threshold.
    /// `value` is the refault count observed, `threshold` the detector's
    /// configured pin threshold, `window` the live sample buffer. Captures
    /// the ring and the telemetry tail into the preallocated flat dump
    /// storage; `extend_from_slice` stays within the reserved capacity,
    /// so no allocation happens here either.
    pub fn note_thrash_pin(
        &mut self,
        t_ns: u64,
        pass: u64,
        block: u64,
        value: u64,
        threshold: u64,
        window: &[Sample],
    ) {
        if !self.on || self.dump_meta.len() >= self.max_dumps {
            return;
        }
        let n_events = self.ring.len();
        if self.ring.len() == self.ring_capacity && self.ring_next > 0 {
            self.dump_events.extend_from_slice(&self.ring[self.ring_next..]);
            self.dump_events.extend_from_slice(&self.ring[..self.ring_next]);
        } else {
            self.dump_events.extend_from_slice(&self.ring);
        }
        let n_samples = window.len().min(self.window_samples);
        self.dump_samples
            .extend_from_slice(&window[window.len() - n_samples..]);
        self.dump_meta.push(DumpMeta {
            t_ns,
            pass,
            block,
            value,
            threshold,
            n_events,
            n_samples,
        });
    }

    /// Drain the recorder into a [`LineageLog`] (end of run; allocation
    /// is fine here). The recorder is left empty but still enabled.
    pub fn take(&mut self) -> LineageLog {
        let events = std::mem::take(&mut self.events);
        let totals = self.totals.to_vec();
        let mut dumps = Vec::with_capacity(self.dump_meta.len());
        let mut ev_off = 0usize;
        let mut sa_off = 0usize;
        for m in &self.dump_meta {
            dumps.push(FlightDump {
                trigger: FlightTrigger::ThrashPin,
                t_ns: m.t_ns,
                pass: m.pass,
                block: m.block,
                value: m.value,
                threshold: m.threshold,
                events: self.dump_events[ev_off..ev_off + m.n_events].to_vec(),
                window: self.dump_samples[sa_off..sa_off + m.n_samples].to_vec(),
            });
            ev_off += m.n_events;
            sa_off += m.n_samples;
        }
        let dropped = self.dropped;
        self.dropped = 0;
        for kind in LineageEventKind::ALL {
            self.totals[kind.index()] = KindTotal {
                kind,
                ..KindTotal::default()
            };
        }
        self.ring.clear();
        self.ring_next = 0;
        self.dump_meta.clear();
        self.dump_events.clear();
        self.dump_samples.clear();
        LineageLog {
            events,
            dropped,
            totals,
            dumps,
        }
    }
}

/// Distance analytics recomputed from an event stream alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineageAnalysis {
    /// Passes between a block's eviction and its next refault.
    pub refault_distance_passes: Histogram,
    /// Simulated ns between a block's eviction and its next refault.
    pub refault_distance_ns: Histogram,
    /// Passes between successive fault arrivals on the same block.
    pub reuse_distance_passes: Histogram,
    /// Simulated ns between successive fault arrivals on the same block.
    pub reuse_distance_ns: Histogram,
    /// Evictions that threw away never-touched (prefetched) pages — each
    /// is the head of a prefetch→eviction antagonism chain.
    pub prefetch_evict_chains: u64,
    /// Refaulted pages that had been evicted *unused*: the chain closed
    /// (prefetch → evicted before use → faulted right back in).
    pub prefetch_evict_refaults: u64,
    /// Distinct VABlocks seen in the stream.
    pub blocks_seen: u64,
}

/// Per-block cursor state while scanning the stream.
#[derive(Debug, Clone, Copy, Default)]
struct BlockCursor {
    seen: bool,
    last_fault: Option<(u64, u64)>,
    last_evict: Option<(u64, u64)>,
}

/// Scan an event stream (artefact or in-memory) into distance
/// histograms and antagonism counts. Events must be in log order.
pub fn analyze(events: &[LineageEvent]) -> LineageAnalysis {
    let mut a = LineageAnalysis::default();
    let mut blocks: Vec<BlockCursor> = Vec::new();
    for e in events {
        if e.block == NO_BLOCK {
            continue;
        }
        let i = e.block as usize;
        if i >= blocks.len() {
            blocks.resize(i + 1, BlockCursor::default());
        }
        let b = &mut blocks[i];
        if !b.seen {
            b.seen = true;
            a.blocks_seen += 1;
        }
        match e.kind {
            LineageEventKind::FirstTouch | LineageEventKind::Refault => {
                if let Some((t0, p0)) = b.last_fault {
                    a.reuse_distance_ns.record(e.t_ns - t0);
                    a.reuse_distance_passes.record(e.pass - p0);
                }
                if e.kind == LineageEventKind::Refault {
                    if let Some((t0, p0)) = b.last_evict {
                        a.refault_distance_ns.record(e.t_ns - t0);
                        a.refault_distance_passes.record(e.pass - p0);
                    }
                    a.prefetch_evict_refaults += e.aux;
                }
                b.last_fault = Some((e.t_ns, e.pass));
            }
            LineageEventKind::Eviction => {
                b.last_evict = Some((e.t_ns, e.pass));
                if e.aux > 0 {
                    a.prefetch_evict_chains += 1;
                }
            }
            LineageEventKind::HostWriteback => {
                // CPU took the block back: later device faults are a new
                // lifetime, not a reuse of the device-resident one.
                b.last_fault = None;
                b.last_evict = None;
            }
            _ => {}
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rec: &mut LineageRecorder, kind: LineageEventKind, t: u64, pass: u64, block: u64, pages: u64, aux: u64) {
        rec.record(kind, t, pass, block, pages, aux);
    }

    #[test]
    fn disabled_recorder_allocates_and_records_nothing() {
        let mut r = LineageRecorder::new(false);
        assert!(!r.is_enabled());
        assert_eq!(r.events.capacity(), 0);
        r.record(LineageEventKind::FirstTouch, 1, 1, 0, 4, 0);
        assert_eq!(r.events_recorded(), 0);
        assert!(r.take().is_empty());
    }

    #[test]
    fn totals_stay_exact_past_capacity() {
        let mut r = LineageRecorder::sized(2, RING_CAPACITY, MAX_DUMPS, WINDOW_SAMPLES);
        for i in 0..5u64 {
            ev(&mut r, LineageEventKind::FirstTouch, i, i, 0, 3, 0);
        }
        let log = r.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 3);
        let t = log.total(LineageEventKind::FirstTouch);
        assert_eq!(t.events, 5);
        assert_eq!(t.pages, 15);
    }

    #[test]
    fn ring_keeps_last_events_oldest_first() {
        let mut r = LineageRecorder::sized(LOG_CAPACITY, 3, MAX_DUMPS, WINDOW_SAMPLES);
        for i in 0..5u64 {
            ev(&mut r, LineageEventKind::Migration, 10 + i, i, 1, 1, 0);
        }
        r.note_thrash_pin(99, 5, 1, 7, 3, &[]);
        let log = r.take();
        assert_eq!(log.dumps.len(), 1);
        let d = &log.dumps[0];
        assert_eq!(d.trigger, FlightTrigger::ThrashPin);
        assert_eq!(d.block, 1);
        assert_eq!(d.value, 7);
        assert_eq!(d.threshold, 3);
        let ts: Vec<u64> = d.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![12, 13, 14], "last 3 events, oldest first");
    }

    #[test]
    fn dump_captures_sample_window_tail_and_caps_dump_count() {
        let mut r = LineageRecorder::sized(LOG_CAPACITY, RING_CAPACITY, 1, 2);
        let samples: Vec<Sample> = (1..=4u64)
            .map(|t| Sample {
                t_ns: t * 100,
                ..Sample::default()
            })
            .collect();
        r.note_thrash_pin(500, 1, 0, 4, 3, &samples);
        r.note_thrash_pin(600, 2, 1, 5, 3, &samples);
        let log = r.take();
        assert_eq!(log.dumps.len(), 1, "second trigger past max_dumps ignored");
        let w: Vec<u64> = log.dumps[0].window.iter().map(|s| s.t_ns).collect();
        assert_eq!(w, vec![300, 400], "tail window");
    }

    #[test]
    fn artefact_roundtrips_and_validates() {
        let mut r = LineageRecorder::new(true);
        ev(&mut r, LineageEventKind::FirstTouch, 10, 1, 0, 8, 0);
        ev(&mut r, LineageEventKind::Migration, 10, 1, 0, 8, 0);
        ev(&mut r, LineageEventKind::Eviction, 20, 2, 0, 8, 3);
        ev(&mut r, LineageEventKind::Refault, 30, 3, 0, 4, 2);
        ev(&mut r, LineageEventKind::Replay, 30, 3, NO_BLOCK, 1, 3);
        let log = r.take();
        let text = log.to_artefact();
        let back = LineageLog::from_artefact(&text).expect("roundtrip parses");
        assert_eq!(back.events, log.events);
        assert_eq!(back.totals, log.totals);
        assert_eq!(back.dropped, 0);
    }

    #[test]
    fn artefact_rejects_tampering() {
        let mut r = LineageRecorder::new(true);
        ev(&mut r, LineageEventKind::FirstTouch, 10, 1, 0, 8, 0);
        let good = r.take().to_artefact();
        // Row/total mismatch: inflate the event's page count.
        let bad = good.replace("event,10,1,0,first_touch,8,0", "event,10,1,0,first_touch,9,0");
        assert!(LineageLog::from_artefact(&bad)
            .expect_err("tampered rows must fail")
            .contains("disagree"));
        // Unknown kind.
        let bad = good.replace("first_touch,8,0\n", "warp_jump,8,0\n");
        assert!(LineageLog::from_artefact(&bad).is_err());
        // Version line.
        assert!(LineageLog::from_artefact("lineage,v2,dropped,0\n").is_err());
    }

    #[test]
    fn artefact_rejects_time_regression() {
        let mut log = LineageLog::default();
        for kind in LineageEventKind::ALL {
            log.totals.push(KindTotal { kind, ..KindTotal::default() });
        }
        log.totals[LineageEventKind::FirstTouch.index()] =
            KindTotal { kind: LineageEventKind::FirstTouch, events: 2, pages: 2, aux: 0 };
        log.events = vec![
            LineageEvent { t_ns: 20, pass: 1, block: 0, kind: LineageEventKind::FirstTouch, pages: 1, aux: 0 },
            LineageEvent { t_ns: 10, pass: 2, block: 0, kind: LineageEventKind::FirstTouch, pages: 1, aux: 0 },
        ];
        let err = LineageLog::from_artefact(&log.to_artefact()).expect_err("regressing t");
        assert!(err.contains("regress"), "{err}");
    }

    #[test]
    fn artefact_sums_are_overflow_checked() {
        let ft = LineageEventKind::FirstTouch;
        let mut r = LineageRecorder::new(true);
        ev(&mut r, ft, 10, 1, 0, 1, 0);
        let good = r.take().to_artefact();
        // Rows whose pages wrap a u64 sum back to the recorded total.
        let rows = format!("first_touch,{},0\nevent,10,1,0,first_touch,2,0", u64::MAX);
        let bad = good
            .replace("total,first_touch,1,1,", "total,first_touch,2,1,")
            .replace("first_touch,1,0", &rows);
        let err = LineageLog::from_artefact(&bad).expect_err("wrapping rows");
        assert!(err.contains("overflow"), "{err}");
        // Per-kind event totals that cannot be summed are refused too.
        let bad = good
            .replace("total,first_touch,1,", &format!("total,first_touch,{},", u64::MAX))
            .replace("total,refault,0,", "total,refault,1,");
        let err = LineageLog::from_artefact(&bad).expect_err("unsummable totals");
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn reconcile_checks_pages_against_both_books() {
        let mut r = LineageRecorder::new(true);
        ev(&mut r, LineageEventKind::FirstTouch, 10, 1, 0, 6, 0);
        ev(&mut r, LineageEventKind::Refault, 20, 2, 0, 4, 1);
        ev(&mut r, LineageEventKind::PrefetchIn, 20, 2, 0, 5, 0);
        ev(&mut r, LineageEventKind::Migration, 20, 2, 0, 15, 0);
        ev(&mut r, LineageEventKind::Eviction, 30, 3, 0, 9, 2);
        ev(&mut r, LineageEventKind::Writeback, 30, 3, 0, 3, 0);
        ev(&mut r, LineageEventKind::HintPrefetch, 40, 3, 1, 7, 0);
        ev(&mut r, LineageEventKind::HostWriteback, 50, 3, 1, 2, 0);
        ev(&mut r, LineageEventKind::Replay, 50, 3, NO_BLOCK, 5, 5);
        let log = r.take();
        let last = Sample {
            pages_faulted_in: 10,
            pages_prefetched: 5,
            pages_hint_prefetched: 7,
            pages_evicted: 9,
            pages_evicted_migrated: 3,
            pages_migrated_to_host: 2,
            migrated_bytes_h2d: (15 + 7) * PAGE_SIZE,
            migrated_bytes_d2h: (3 + 2) * PAGE_SIZE,
            replays: 5,
            attr_cold_faults: 6,
            attr_refault_used_faults: 3,
            attr_refault_unused_faults: 1,
            attr_prefetch_evicted_pages: 2,
            lineage_events: 9,
            ..Sample::default()
        };
        log.reconcile(&last).expect("books agree");
        let bad = Sample {
            pages_prefetched: 4,
            ..last
        };
        let err = log.reconcile(&bad).expect_err("mismatch");
        assert!(err.contains("prefetch_in") && err.contains("(5 != 4)"), "{err}");
        // Device-to-host pages relabelled between eviction write-back and
        // host migration keep the byte closure but not the page split.
        let relabelled = Sample {
            pages_evicted_migrated: 2,
            pages_migrated_to_host: 3,
            ..last
        };
        let err = log.reconcile(&relabelled).expect_err("relabel");
        assert!(err.contains("writeback pages == pages_evicted_migrated"), "{err}");
    }

    #[test]
    fn analyze_computes_distances_and_chains() {
        let mk = |t, pass, block, kind, pages, aux| LineageEvent {
            t_ns: t, pass, block, kind, pages, aux,
        };
        use LineageEventKind as K;
        let events = vec![
            mk(100, 1, 0, K::FirstTouch, 4, 0),
            mk(100, 1, 0, K::Migration, 4, 0),
            mk(300, 3, 0, K::Eviction, 4, 2),
            mk(700, 7, 0, K::Refault, 2, 1),
            mk(900, 9, 1, K::FirstTouch, 8, 0),
            mk(950, 9, 1, K::HostWriteback, 8, 0),
            mk(980, 10, 1, K::FirstTouch, 8, 0),
            mk(999, 10, NO_BLOCK, K::Replay, 1, 1),
        ];
        let a = analyze(&events);
        assert_eq!(a.blocks_seen, 2);
        assert_eq!(a.refault_distance_passes.total(), 1);
        assert_eq!(a.refault_distance_passes.max(), 4, "pass 7 - pass 3");
        assert_eq!(a.refault_distance_ns.max(), 400);
        // Reuse: block 0 faults at pass 1 then 7 (distance 6). Block 1's
        // host writeback resets its state, so pass 9→10 records nothing.
        assert_eq!(a.reuse_distance_passes.total(), 1);
        assert_eq!(a.reuse_distance_passes.max(), 6);
        assert_eq!(a.prefetch_evict_chains, 1);
        assert_eq!(a.prefetch_evict_refaults, 1);
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in LineageEventKind::ALL {
            assert_eq!(LineageEventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(LineageEventKind::from_name("nope"), None);
    }
}
