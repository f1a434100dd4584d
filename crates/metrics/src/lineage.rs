//! Event-sourced fault lineage: the per-VABlock lifecycle log behind
//! `repro lineage`, plus the anomaly-triggered flight recorder.
//!
//! The attribution ledger ([`crate::attribution`]) classifies every
//! fault into a cause but throws away the *when* and *what came
//! between*: it cannot answer "how long after eviction did the refault
//! arrive?" or "which eviction killed this prefetch?". This module keeps
//! that temporal structure as a compact event log:
//!
//! * [`LineageRecorder`] — the driver's one provenance recorder. Every
//!   event folds into the attribution ledger and per-block offender
//!   stats through [`apply`]; armed, it also keeps a bounded event log
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
//! * [`LineageLog::reconcile`] — the lineage totals, folded through the
//!   same [`apply`], against a run's final telemetry [`Sample`], used
//!   live and by `repro check` on the artefacts; [`LineageLog::check_dumps`]
//!   holds each flight dump to the log it was cut from.
//! * `to_artefact` / `from_artefact` — the `.lineage` text artefact
//!   written per sweep point, validated the way sample CSVs are.
//!
//! Determinism rule: events are recorded only from the driver's serial
//! paths (gather, ordered commit, eviction, hint/host processing) with
//! simulated timestamps, so the stream is bit-identical at any
//! `--threads` setting.

use crate::attribution::{Attribution, BlockStats, ATTRIBUTION_REGISTRY};
use crate::histogram::Histogram;
use crate::rows::Rows;
use crate::timeseries::Sample;
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use std::fmt::Write;

/// Number of lineage event kinds (array size for per-kind totals).
pub const LINEAGE_KINDS: usize = 9;

/// `block` value for events not tied to a single VABlock (replay rounds).
pub const NO_BLOCK: u64 = u64::MAX;

/// What happened to a VABlock (or to the fault pipeline) at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineageEventKind {
    /// Pages faulted for the first time ever (cold faults).
    #[default]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Fold `t` (one event, or one kind's totals over many) into the
/// attribution ledger and, when given, the block's offender stats. This
/// is the one place a lineage kind becomes ledger causes: the recorder
/// runs it on every event, armed or not, and [`LineageLog::reconcile`]
/// runs it over an artefact's per-kind totals. `Migration` and `Replay`
/// carry no cause and change nothing. Errs when `aux` exceeds the
/// `pages` it is a share of, or a sum overflows u64 — only doctored
/// totals do either, and they leave `ledger` part-updated.
pub fn apply(
    t: &KindTotal,
    ledger: &mut Attribution,
    block: Option<&mut BlockStats>,
) -> Result<(), &'static str> {
    use LineageEventKind as K;
    const OVERFLOW: &str = "folding overflows u64";
    fn add(sum: &mut u64, x: u64) -> Result<(), &'static str> {
        *sum = sum.checked_add(x).ok_or(OVERFLOW)?;
        Ok(())
    }
    let share = || t.pages.checked_sub(t.aux).ok_or("aux exceeds pages");
    let bytes = || t.pages.checked_mul(PAGE_SIZE).ok_or(OVERFLOW);
    let mut unused = BlockStats::default();
    let block = block.unwrap_or(&mut unused);
    match t.kind {
        K::FirstTouch => add(&mut ledger.cold_faults, t.pages)?,
        K::Refault => {
            add(&mut ledger.refault_used_faults, share()?)?;
            add(&mut ledger.refault_unused_faults, t.aux)?;
            add(&mut block.refault_faults, t.pages)?;
        }
        K::PrefetchIn => add(&mut ledger.prefetch_pages, t.pages)?,
        K::HintPrefetch => add(&mut ledger.hint_pages, t.pages)?,
        K::Eviction => {
            add(&mut ledger.evicted_used_pages, share()?)?;
            add(&mut ledger.prefetch_evicted_pages, t.aux)?;
            add(&mut block.prefetch_evicted_pages, t.aux)?;
            add(&mut block.evictions, t.events)?;
        }
        K::Writeback => add(&mut ledger.writeback_bytes, bytes()?)?,
        K::HostWriteback => add(&mut ledger.host_migrated_bytes, bytes()?)?,
        K::Migration | K::Replay => {}
    }
    Ok(())
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

/// The nine `total,<kind>,<events>,<pages>,<aux>` rows, in kind order.
/// Their column names head no line of the artefact.
const TOTAL_ROWS: Rows<KindTotal> = Rows {
    sep: ',',
    columns: &[
        crate::tag_column!("total", "total"),
        crate::kind_column!(LineageEventKind),
        crate::field_column!(events),
        crate::field_column!(pages),
        crate::field_column!(aux),
    ],
};

/// The stored event rows, under their header line.
const EVENT_ROWS: Rows<LineageEvent> = Rows {
    sep: ',',
    columns: &[
        crate::tag_column!("events", "event"),
        crate::field_column!(t_ns),
        crate::field_column!(pass),
        crate::field_column!(block),
        crate::kind_column!(LineageEventKind),
        crate::field_column!(pages),
        crate::field_column!(aux),
    ],
};

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
    /// `repro check`). The row's ledger must pass
    /// [`Sample::reconciled_attribution`]; folding the per-kind totals
    /// through [`apply`], the fold the live ledger is, must give that
    /// ledger back (the duplicate causes, which have no kind, are taken
    /// from it). That covers every kind with a cause; the rest are
    /// equations of their own: migration pages and replay rounds against
    /// the counters, and the recorder's three columns. Sums are taken in
    /// u128 and the fold is overflow-checked, so doctored totals cannot
    /// wrap into balance. Names the first violated equation and both
    /// sides on failure.
    pub fn reconcile(&self, last: &Sample) -> Result<(), String> {
        use LineageEventKind as K;
        let fail = |what: String| format!("lineage does not reconcile: {what}");
        let ledger = last.reconciled_attribution()?;
        let mut folded = Attribution {
            prefetch_hit_faults: ledger.prefetch_hit_faults,
            replay_dup_faults: ledger.replay_dup_faults,
            ..Attribution::default()
        };
        for t in &self.totals {
            apply(t, &mut folded, None)
                .map_err(|e| fail(format!("{} totals: {e}", t.kind.name())))?;
        }
        for m in ATTRIBUTION_REGISTRY {
            let (lhs, rhs) = ((m.read)(&folded), (m.read)(&ledger));
            if lhs != rhs {
                let eq = format!("{} folded from the totals == ledger", m.def.name);
                return Err(fail(format!("{eq} violated ({lhs} != {rhs})")));
            }
        }
        let pages = |k: K| self.total(k).pages as u128;
        let v = |x: u64| x as u128;
        let checks = [
            (
                "migration pages == pages_faulted_in + pages_prefetched",
                pages(K::Migration),
                v(last.pages_faulted_in) + v(last.pages_prefetched),
            ),
            (
                "replay rounds == replays",
                pages(K::Replay),
                v(last.replays),
            ),
            (
                "lineage events == lineage_events column",
                self.totals.iter().map(|t| t.events as u128).sum(),
                v(last.lineage_events),
            ),
            (
                "dropped events == lineage_dropped column",
                v(self.dropped),
                v(last.lineage_dropped),
            ),
            (
                "flight dumps == flight_dumps column",
                self.dumps.len() as u128,
                v(last.flight_dumps),
            ),
        ];
        for (eq, lhs, rhs) in checks {
            if lhs != rhs {
                return Err(fail(format!("{eq} violated ({lhs} != {rhs})")));
            }
        }
        Ok(())
    }

    /// Check each flight dump against the log it was cut from: its
    /// events are in `t_ns` order and the last is at or before the
    /// trigger, no window sample is later than the trigger, and every
    /// dump event the event table must hold is one of its rows. Events
    /// are stored in emission (so `t_ns`) order until the log is full,
    /// so the table must hold every event earlier than its last row, and
    /// every event at all when the log dropped nothing. Names the first
    /// dump and rule violated.
    pub fn check_dumps(&self) -> Result<(), String> {
        let last_row = self.events.last().map_or(0, |e| e.t_ns);
        let held = |e: &LineageEvent| self.dropped == 0 || e.t_ns < last_row;
        let stored = |e: &LineageEvent| {
            let from = self.events.partition_point(|r| r.t_ns < e.t_ns);
            let mut same_t = self.events[from..].iter().take_while(|r| r.t_ns == e.t_ns);
            same_t.any(|r| r == e)
        };
        for (i, d) in self.dumps.iter().enumerate() {
            let fail = |what: String| Err(format!("flight dump {i}: {what}"));
            if let Some(w) = d.events.windows(2).find(|w| w[1].t_ns < w[0].t_ns) {
                let (last, t) = (w[0].t_ns, w[1].t_ns);
                return fail(format!("event times regress: {t} after {last}"));
            }
            let trigger = d.t_ns;
            if let Some(e) = d.events.last().filter(|e| e.t_ns > trigger) {
                let t = e.t_ns;
                return fail(format!(
                    "last event at t={t} is after the trigger at t={trigger}"
                ));
            }
            if let Some(s) = d.window.iter().find(|s| s.t_ns > trigger) {
                let t = s.t_ns;
                return fail(format!(
                    "window sample at t={t} is after the trigger at t={trigger}"
                ));
            }
            if let Some(e) = d.events.iter().find(|e| held(e) && !stored(e)) {
                return fail(format!("event {e:?} is not a row of the event table"));
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
            TOTAL_ROWS.write_row(&self.total(kind), &mut out);
        }
        EVENT_ROWS.write_header(&mut out);
        for e in &self.events {
            EVENT_ROWS.write_row(e, &mut out);
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
        // The head line, the nine total rows, then the event table.
        let mut parts = text.splitn(2 + LINEAGE_KINDS, '\n');
        let head = parts.next().filter(|h| !h.is_empty());
        let head = head.ok_or("lineage artefact is empty")?;
        let dropped: u64 = head
            .strip_prefix(ARTEFACT_HEAD)
            .ok_or_else(|| format!("bad lineage header `{head}`"))?
            .parse()
            .map_err(|_| format!("bad lineage drop count in `{head}`"))?;
        let mut totals = Vec::with_capacity(LINEAGE_KINDS);
        for (kind, n) in LineageEventKind::ALL.into_iter().zip(2..) {
            let line = parts
                .next()
                .ok_or_else(|| format!("missing total line for {}", kind.name()))?;
            let t = TOTAL_ROWS.read_row(n, line)?;
            if t.kind != kind {
                return Err(format!(
                    "row {n}: expected `total,{},…`, got `{line}`",
                    kind.name()
                ));
            }
            totals.push(t);
        }
        if totals
            .iter()
            .try_fold(0u64, |n, t| n.checked_add(t.events))
            .is_none()
        {
            return Err("lineage event totals overflow u64".into());
        }
        let events = EVENT_ROWS.read_table(parts.next().unwrap_or(""), 2 + LINEAGE_KINDS)?;
        let mut seen = [KindTotal::default(); LINEAGE_KINDS];
        if let Some(w) = events.windows(2).find(|w| w[1].t_ns < w[0].t_ns) {
            let (last, t) = (w[0].t_ns, w[1].t_ns);
            return Err(format!("lineage timestamps regress: {t} after {last}"));
        }
        for e in &events {
            let s = &mut seen[e.kind.index()];
            let overflow = || format!("lineage {} row sums overflow u64", e.kind.name());
            s.events += 1;
            s.pages = s.pages.checked_add(e.pages).ok_or_else(overflow)?;
            s.aux = s.aux.checked_add(e.aux).ok_or_else(overflow)?;
        }
        for (s, t) in seen.iter().zip(&totals) {
            let (rows, exact) = ([s.events, s.pages, s.aux], [t.events, t.pages, t.aux]);
            let fits = rows.iter().zip(&exact).all(|(r, t)| r <= t);
            if !(fits && (dropped > 0 || rows == exact)) {
                return Err(format!(
                    "lineage {} rows (events, pages, aux) {rows:?} disagree with \
                     exact totals {exact:?} with {dropped} dropped",
                    t.kind.name(),
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

/// The driver's one provenance recorder. Every event folds into the
/// attribution ledger and the per-block offender stats through
/// [`apply`]; an armed recorder also keeps the bounded log, the exact
/// per-kind totals and the flight ring. All storage is allocated at
/// construction; `record` and the triggers never allocate, so the
/// driver's steady state stays allocation-free.
#[derive(Debug)]
pub struct LineageRecorder {
    ledger: Attribution,
    blocks: Vec<BlockStats>,
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
    /// A recorder folding into offender stats for `blocks` VABlocks,
    /// storing events at the fixed log, ring and dump sizes when `armed`
    /// (the driver arms it exactly when telemetry sampling is on); an
    /// unarmed recorder folds but stores nothing.
    pub fn new(armed: bool, blocks: usize) -> LineageRecorder {
        let r = if armed {
            LineageRecorder::sized(LOG_CAPACITY, RING_CAPACITY, MAX_DUMPS, WINDOW_SAMPLES)
        } else {
            LineageRecorder {
                on: false,
                ..LineageRecorder::sized(0, 0, 0, 0)
            }
        };
        LineageRecorder {
            blocks: vec![BlockStats::default(); blocks],
            ..r
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
            ledger: Attribution::default(),
            blocks: Vec::new(),
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

    /// The attribution ledger folded from every event so far.
    pub fn ledger(&self) -> &Attribution {
        &self.ledger
    }

    /// Add gather's discarded fault entries to the ledger's two duplicate
    /// causes, the only causes no event kind carries.
    pub fn note_duplicates(&mut self, prefetch_hits: u64, replay_dups: u64) {
        self.ledger.prefetch_hit_faults += prefetch_hits;
        self.ledger.replay_dup_faults += replay_dups;
    }

    /// Per-VABlock offender stats folded from every event so far.
    pub fn block_stats(&self) -> &[BlockStats] {
        &self.blocks
    }

    /// Record one event: fold it into the ledger and its block's stats
    /// (`block` out of range, as [`NO_BLOCK`] is, folds into no block's),
    /// then, when armed, into the totals, the stored log and the flight
    /// ring, without allocating. Panics when the event cannot fold
    /// ([`apply`] errs): `aux` above `pages` on a kind where it is their
    /// share, or a ledger sum past u64.
    pub fn record(
        &mut self,
        kind: LineageEventKind,
        t_ns: u64,
        pass: u64,
        block: u64,
        pages: u64,
        aux: u64,
    ) {
        let one = KindTotal {
            kind,
            events: 1,
            pages,
            aux,
        };
        let stats = self.blocks.get_mut(block as usize);
        apply(&one, &mut self.ledger, stats)
            .expect("event aux within its pages, ledger within u64");
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
            self.dump_events
                .extend_from_slice(&self.ring[self.ring_next..]);
            self.dump_events
                .extend_from_slice(&self.ring[..self.ring_next]);
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

    /// Drain the stored events, totals and dumps into a [`LineageLog`]
    /// (end of run; allocation is fine here). The recorder is left empty
    /// but still enabled; the ledger and block stats are kept.
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

    fn ev(
        rec: &mut LineageRecorder,
        kind: LineageEventKind,
        t: u64,
        pass: u64,
        block: u64,
        pages: u64,
        aux: u64,
    ) {
        rec.record(kind, t, pass, block, pages, aux);
    }

    #[test]
    fn disabled_recorder_allocates_and_records_nothing() {
        let mut r = LineageRecorder::new(false, 1);
        assert!(!r.on);
        assert_eq!(r.events.capacity(), 0);
        r.record(LineageEventKind::Refault, 1, 1, 0, 4, 1);
        assert_eq!(r.events_recorded(), 0);
        assert!(r.take().is_empty());
        // The event still folds into the ledger and its block.
        assert_eq!(r.ledger().refault_used_faults, 3);
        assert_eq!(r.block_stats()[0].refault_faults, 4);
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
        let mut r = LineageRecorder::new(true, 1);
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
        let mut r = LineageRecorder::new(true, 1);
        ev(&mut r, LineageEventKind::FirstTouch, 10, 1, 0, 8, 0);
        let good = r.take().to_artefact();
        // Row/total mismatch: inflate the event's page count.
        let bad = good.replace(
            "event,10,1,0,first_touch,8,0",
            "event,10,1,0,first_touch,9,0",
        );
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
            log.totals.push(KindTotal {
                kind,
                ..KindTotal::default()
            });
        }
        log.totals[LineageEventKind::FirstTouch.index()] = KindTotal {
            kind: LineageEventKind::FirstTouch,
            events: 2,
            pages: 2,
            aux: 0,
        };
        log.events = vec![
            LineageEvent {
                t_ns: 20,
                pass: 1,
                block: 0,
                kind: LineageEventKind::FirstTouch,
                pages: 1,
                aux: 0,
            },
            LineageEvent {
                t_ns: 10,
                pass: 2,
                block: 0,
                kind: LineageEventKind::FirstTouch,
                pages: 1,
                aux: 0,
            },
        ];
        let err = LineageLog::from_artefact(&log.to_artefact()).expect_err("regressing t");
        assert!(err.contains("regress"), "{err}");
    }

    #[test]
    fn artefact_sums_are_overflow_checked() {
        let ft = LineageEventKind::FirstTouch;
        let mut r = LineageRecorder::new(true, 1);
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
            .replace(
                "total,first_touch,1,",
                &format!("total,first_touch,{},", u64::MAX),
            )
            .replace("total,refault,0,", "total,refault,1,");
        let err = LineageLog::from_artefact(&bad).expect_err("unsummable totals");
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn reconcile_checks_pages_against_both_books() {
        let mut r = LineageRecorder::new(true, 2);
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
        let (text, last) = consistent_artefact_and_row();
        assert_eq!(log.to_artefact(), text);
        // The live fold is the ledger the row carries, and it survives
        // the drain.
        assert_eq!(*r.ledger(), last.attribution());
        let block0 = BlockStats {
            refault_faults: 4,
            prefetch_evicted_pages: 2,
            evictions: 1,
        };
        assert_eq!(r.block_stats(), [block0, BlockStats::default()]);
        log.reconcile(&last).expect("books agree");
        // A counter that disagrees with the row's own ledger.
        let bad = Sample {
            pages_prefetched: 4,
            ..last
        };
        let err = log.reconcile(&bad).expect_err("mismatch");
        assert!(
            err.contains("attribution does not reconcile: prefetch pages")
                && err.contains("(5 != 4)"),
            "{err}"
        );
        // Device-to-host pages relabelled between eviction write-back and
        // host migration, in the ledger and the counters alike: the row
        // is consistent, the fold of the lineage totals is not.
        let relabelled = Sample {
            pages_evicted_migrated: 2,
            pages_migrated_to_host: 3,
            attr_writeback_bytes: 2 * PAGE_SIZE,
            attr_host_migrated_bytes: 3 * PAGE_SIZE,
            ..last
        };
        let err = log.reconcile(&relabelled).expect_err("relabel");
        assert!(
            err.contains("uvm_attr_writeback_bytes_total folded from the totals == ledger"),
            "{err}"
        );
        // The same relabel in the counters only keeps the byte total but
        // not the ledger's page split.
        let counters_only = Sample {
            pages_evicted_migrated: 2,
            pages_migrated_to_host: 3,
            ..last
        };
        let err = log.reconcile(&counters_only).expect_err("counter relabel");
        assert!(
            err.contains("writeback bytes vs pages_evicted_migrated violated (12288 != 8192)"),
            "{err}"
        );
        // A host-migration count off on its own.
        let host_only = Sample {
            pages_migrated_to_host: 3,
            ..last
        };
        let err = log.reconcile(&host_only).expect_err("host relabel");
        assert!(
            err.contains("host-migrated bytes vs pages_migrated_to_host violated (8192 != 12288)"),
            "{err}"
        );
    }

    #[test]
    fn apply_refuses_doctored_totals() {
        let mut ledger = Attribution::default();
        let mut t = KindTotal {
            kind: LineageEventKind::Eviction,
            events: 1,
            pages: 2,
            aux: 3,
        };
        assert_eq!(apply(&t, &mut ledger, None), Err("aux exceeds pages"));
        t.kind = LineageEventKind::Writeback;
        t.pages = u64::MAX;
        assert_eq!(apply(&t, &mut ledger, None), Err("folding overflows u64"));
    }

    /// One stored event of every kind, with nothing dropped, and the final
    /// sample row whose counters and ledger both agree with it.
    fn consistent_artefact_and_row() -> (String, Sample) {
        let text = "lineage,v1,dropped,0\n\
            total,first_touch,1,6,0\n\
            total,refault,1,4,1\n\
            total,prefetch_in,1,5,0\n\
            total,hint_prefetch,1,7,0\n\
            total,migration,1,15,0\n\
            total,eviction,1,9,2\n\
            total,writeback,1,3,0\n\
            total,host_writeback,1,2,0\n\
            total,replay,1,5,5\n\
            events,t_ns,pass,block,kind,pages,aux\n\
            event,10,1,0,first_touch,6,0\n\
            event,20,2,0,refault,4,1\n\
            event,20,2,0,prefetch_in,5,0\n\
            event,20,2,0,migration,15,0\n\
            event,30,3,0,eviction,9,2\n\
            event,30,3,0,writeback,3,0\n\
            event,40,3,1,hint_prefetch,7,0\n\
            event,50,3,1,host_writeback,2,0\n\
            event,50,3,18446744073709551615,replay,5,5\n";
        let last = Sample {
            faults_fetched: 10,
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
            attr_prefetch_pages: 5,
            attr_hint_pages: 7,
            attr_evicted_used_pages: 7,
            attr_prefetch_evicted_pages: 2,
            attr_writeback_bytes: 3 * PAGE_SIZE,
            attr_host_migrated_bytes: 2 * PAGE_SIZE,
            lineage_events: 9,
            ..Sample::default()
        };
        (text.to_string(), last)
    }

    #[test]
    fn reconcile_catches_one_more_page_or_aux_on_every_checked_kind() {
        use LineageEventKind as K;
        let (text, last) = consistent_artefact_and_row();
        let good = LineageLog::from_artefact(&text).expect("fixture parses");
        good.reconcile(&last).expect("fixture reconciles");
        // (kind, raise `aux` rather than `pages`)
        let pairs = [
            (K::FirstTouch, false),
            (K::Refault, false),
            (K::Refault, true),
            (K::PrefetchIn, false),
            (K::HintPrefetch, false),
            (K::Migration, false),
            (K::Eviction, false),
            (K::Eviction, true),
            (K::Writeback, false),
            (K::HostWriteback, false),
            (K::Replay, false),
        ];
        for (kind, aux) in pairs {
            let mut log = good.clone();
            let event = log.events.iter_mut().find(|e| e.kind == kind).unwrap();
            let total = log.totals.iter_mut().find(|t| t.kind == kind).unwrap();
            if aux {
                (event.aux, total.aux) = (event.aux + 1, total.aux + 1);
            } else {
                (event.pages, total.pages) = (event.pages + 1, total.pages + 1);
            }
            let case = format!("{} {}", kind.name(), if aux { "aux" } else { "pages" });
            let doctored = LineageLog::from_artefact(&log.to_artefact())
                .unwrap_or_else(|e| panic!("{case}: rows still match totals: {e}"));
            let err = doctored.reconcile(&last).expect_err(&case);
            assert!(err.contains("lineage does not reconcile"), "{case}: {err}");
        }
    }

    #[test]
    fn check_dumps_enforces_each_rule() {
        let mut r = LineageRecorder::new(true, 1);
        ev(&mut r, LineageEventKind::FirstTouch, 10, 1, 0, 4, 0);
        ev(&mut r, LineageEventKind::Migration, 10, 1, 0, 4, 0);
        ev(&mut r, LineageEventKind::Eviction, 20, 2, 0, 4, 0);
        let window = [Sample {
            t_ns: 30,
            ..Sample::default()
        }];
        r.note_thrash_pin(30, 3, 0, 2, 2, &window);
        let good = r.take();
        good.check_dumps().expect("a recorded dump checks");
        let doctor = |f: fn(&mut FlightDump)| {
            let mut log = good.clone();
            f(&mut log.dumps[0]);
            log.check_dumps().expect_err("doctored dump")
        };
        let err = doctor(|d| d.events.swap(0, 2));
        assert!(err.contains("event times regress"), "{err}");
        let err = doctor(|d| d.t_ns = 15);
        assert!(
            err.contains("last event at t=20 is after the trigger"),
            "{err}"
        );
        let err = doctor(|d| d.window[0].t_ns = 31);
        assert!(err.contains("window sample at t=31"), "{err}");
        let err = doctor(|d| d.events[1].pages = u64::MAX);
        assert!(err.contains("not a row of the event table"), "{err}");
        // With events dropped the table is a prefix: an event earlier
        // than its last row must still be a row, one at or after it need
        // not be.
        let mut dropped = good.clone();
        dropped.dropped = 1;
        dropped.dumps[0].events[1].pages = u64::MAX;
        let err = dropped
            .check_dumps()
            .expect_err("doctored before the last row");
        assert!(err.contains("not a row of the event table"), "{err}");
        let mut dropped = good.clone();
        dropped.dropped = 1;
        dropped.dumps[0].events[2].pages = u64::MAX;
        dropped
            .check_dumps()
            .expect("at the last row's time, maybe dropped");
    }

    #[test]
    fn analyze_computes_distances_and_chains() {
        let mk = |t, pass, block, kind, pages, aux| LineageEvent {
            t_ns: t,
            pass,
            block,
            kind,
            pages,
            aux,
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

    #[test]
    fn artefact_bytes_are_pinned() {
        use LineageEventKind::*;
        // Room for nine events: the tenth is dropped but still totalled.
        let mut r = LineageRecorder::sized(9, RING_CAPACITY, MAX_DUMPS, WINDOW_SAMPLES);
        ev(&mut r, FirstTouch, 10, 1, 0, 8, 0);
        ev(&mut r, Refault, 20, 2, 0, 4, 2);
        ev(&mut r, PrefetchIn, 20, 2, 0, 5, 0);
        ev(&mut r, HintPrefetch, 25, 2, 1, 7, 0);
        ev(&mut r, Migration, 30, 3, 0, 12, 0);
        ev(&mut r, Eviction, 40, 4, 0, 9, 3);
        ev(&mut r, Writeback, 40, 4, 0, 2, 0);
        ev(&mut r, HostWriteback, 50, 4, 1, 1, 0);
        ev(&mut r, Replay, 50, 4, NO_BLOCK, 1, 3);
        ev(&mut r, Replay, 60, 5, NO_BLOCK, 2, 5);
        let golden = "lineage,v1,dropped,1\n\
            total,first_touch,1,8,0\n\
            total,refault,1,4,2\n\
            total,prefetch_in,1,5,0\n\
            total,hint_prefetch,1,7,0\n\
            total,migration,1,12,0\n\
            total,eviction,1,9,3\n\
            total,writeback,1,2,0\n\
            total,host_writeback,1,1,0\n\
            total,replay,2,3,8\n\
            events,t_ns,pass,block,kind,pages,aux\n\
            event,10,1,0,first_touch,8,0\n\
            event,20,2,0,refault,4,2\n\
            event,20,2,0,prefetch_in,5,0\n\
            event,25,2,1,hint_prefetch,7,0\n\
            event,30,3,0,migration,12,0\n\
            event,40,4,0,eviction,9,3\n\
            event,40,4,0,writeback,2,0\n\
            event,50,4,1,host_writeback,1,0\n\
            event,50,4,18446744073709551615,replay,1,3\n";
        let log = r.take();
        assert_eq!(log.to_artefact(), golden);
        let back = LineageLog::from_artefact(golden).expect("golden parses");
        assert_eq!(
            (back.events, back.totals, back.dropped),
            (log.events, log.totals, 1)
        );
    }
}
