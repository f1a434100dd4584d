//! Span-level batch-lifecycle tracing.
//!
//! The paper's contribution is *visibility*: a per-batch breakdown of
//! where UVM time goes (pre/post-processing, the three fault-service
//! sub-phases, replay policy, eviction — Fig. 4–6). Run-level
//! [`Timers`] totals show the shares; this module records
//! the *timeline*: one [`SpanEvent`] per lifecycle phase, stamped in both
//! sim-time and wall-time, organised as
//!
//! ```text
//! Pass (one fault batch)                         ph=B … ph=E
//! ├─ first_touch / interrupt_wake / fetch_sort   leaf, cat=preprocess
//! ├─ VABlock service                             ph=B … ph=E
//! │  ├─ vablock_setup / map_pages                leaf, cat=map
//! │  ├─ pma_alloc                                leaf, cat=pma_alloc
//! │  ├─ page_zero / migrate_h2d                  leaf, cat=migrate
//! │  └─ evict                                    leaf, cat=eviction
//! ├─ buffer_flush / replay_issue                 leaf, cat=replay_policy
//! └─ instants: duplicates filtered, thrash pins, replay, buffer drops
//! ```
//!
//! Every leaf span is recorded by the same call that charges the
//! [`Timers`], so captured leaf durations (plus the
//! dropped-span remainder the recorder keeps per category) sum *exactly*
//! to the run's per-category totals — the invariant
//! [`chrome::validate`](crate::chrome::validate) checks on exported
//! traces.
//!
//! The recorder is a **bounded buffer**: enabling tracing on a full-scale
//! (12 GB) run degrades gracefully by dropping events past the capacity
//! (counted, and with dropped *time* still accounted per category)
//! instead of growing without limit. When disabled it is a single enum
//! branch per call with no captured state — the PR-1 hot paths are
//! untouched, which the `hot_paths` criterion suite guards.

use crate::timers::{Category, Timers};
use serde::{Deserialize, Serialize};
use sim_engine::{SimDuration, SimTime};
use std::time::Instant;

/// What lifecycle phase a span (or instant) describes. The names are the
/// labels shown in Perfetto/`chrome://tracing`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One driver pass: fetch + service + replay for one fault batch.
    Pass,
    /// One VABlock's service (children: map/migrate/pma leaves).
    VablockService,
    /// One explicit prefetch hint (`cudaMemPrefetchAsync` style).
    PrefetchHint,
    /// One CPU access episode migrating pages back to the host.
    HostAccess,
    /// One-time driver initialisation on the first touched fault.
    FirstTouch,
    /// Interrupt delivery + driver wakeup.
    InterruptWake,
    /// Fault fetch, ready-bit polling, and sort into VABlock bins.
    FetchSort,
    /// Access-counter notification processing.
    AccessNotify,
    /// Per-VABlock service bookkeeping (charged to the map category).
    VablockSetup,
    /// A call into the physical memory allocator.
    PmaAlloc,
    /// Zeroing newly allocated backing pages.
    PageZero,
    /// Host→device migration (staging + DMA).
    MigrateH2d,
    /// Page-table mapping + membar (+ LRU update on the fault path).
    MapPages,
    /// One VABlock eviction: write-back, unmap, restart cost.
    Evict,
    /// Device→host migration of a CPU-faulted block.
    MigrateD2h,
    /// Fault-buffer flush performed by the replay policy.
    BufferFlush,
    /// Replay notification issue.
    ReplayIssue,
    /// Instant: duplicate faults filtered during pre-processing.
    DuplicatesFiltered,
    /// Instant: the thrashing detector pinned a VABlock.
    ThrashPin,
    /// Instant: the eviction path skipped a pinned victim.
    ThrashSkip,
    /// Instant: a replay resumed the GPU's stalled warps.
    Replay,
    /// Instant: the hardware fault buffer overflowed (entries lost).
    BufferOverflow,
}

impl SpanKind {
    /// Label shown in trace viewers and the flame summary.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Pass => "pass",
            SpanKind::VablockService => "vablock_service",
            SpanKind::PrefetchHint => "prefetch_hint",
            SpanKind::HostAccess => "host_access",
            SpanKind::FirstTouch => "first_touch",
            SpanKind::InterruptWake => "interrupt_wake",
            SpanKind::FetchSort => "fetch_sort",
            SpanKind::AccessNotify => "access_notify",
            SpanKind::VablockSetup => "vablock_setup",
            SpanKind::PmaAlloc => "pma_alloc",
            SpanKind::PageZero => "page_zero",
            SpanKind::MigrateH2d => "migrate_h2d",
            SpanKind::MapPages => "map_pages",
            SpanKind::Evict => "evict",
            SpanKind::MigrateD2h => "migrate_d2h",
            SpanKind::BufferFlush => "buffer_flush",
            SpanKind::ReplayIssue => "replay_issue",
            SpanKind::DuplicatesFiltered => "duplicates_filtered",
            SpanKind::ThrashPin => "thrash_pin",
            SpanKind::ThrashSkip => "thrash_skip",
            SpanKind::Replay => "replay",
            SpanKind::BufferOverflow => "buffer_overflow",
        }
    }
}

/// Chrome-trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanPhase {
    /// Begin of a nesting container span (`ph: "B"`).
    Begin,
    /// End of the innermost open container span (`ph: "E"`).
    End,
    /// A complete leaf span with a duration (`ph: "X"`).
    Leaf,
    /// A zero-duration instant event (`ph: "i"`).
    Instant,
}

/// Category a span's time is charged to. Leaf spans carry a
/// [`Timers`] category so their durations reconcile against the
/// run totals; container spans and instants carry structural categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanCat {
    /// A whole driver pass (container; duration = sum of its leaves).
    Batch,
    /// A VABlock service window (container).
    Vablock,
    /// Leaf charged to [`Category::Preprocess`].
    Preprocess,
    /// Leaf charged to [`Category::ServicePma`].
    Pma,
    /// Leaf charged to [`Category::ServiceMigrate`].
    Migrate,
    /// Leaf charged to [`Category::ServiceMap`].
    Map,
    /// Leaf charged to [`Category::ReplayPolicy`].
    ReplayPolicy,
    /// Leaf charged to [`Category::Eviction`].
    Eviction,
    /// Instant marker (no time charged).
    Marker,
}

impl SpanCat {
    /// The timer category a leaf span reconciles against, if any.
    pub fn timer_category(self) -> Option<Category> {
        match self {
            SpanCat::Preprocess => Some(Category::Preprocess),
            SpanCat::Pma => Some(Category::ServicePma),
            SpanCat::Migrate => Some(Category::ServiceMigrate),
            SpanCat::Map => Some(Category::ServiceMap),
            SpanCat::ReplayPolicy => Some(Category::ReplayPolicy),
            SpanCat::Eviction => Some(Category::Eviction),
            SpanCat::Batch | SpanCat::Vablock | SpanCat::Marker => None,
        }
    }

    /// Label used for the Chrome-trace `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            SpanCat::Batch => "batch",
            SpanCat::Vablock => "vablock",
            SpanCat::Preprocess => Category::Preprocess.label(),
            SpanCat::Pma => Category::ServicePma.label(),
            SpanCat::Migrate => Category::ServiceMigrate.label(),
            SpanCat::Map => Category::ServiceMap.label(),
            SpanCat::ReplayPolicy => Category::ReplayPolicy.label(),
            SpanCat::Eviction => Category::Eviction.label(),
            SpanCat::Marker => "marker",
        }
    }
}

/// From a timer category to the span category leaf spans use.
impl From<Category> for SpanCat {
    fn from(c: Category) -> SpanCat {
        match c {
            Category::Preprocess => SpanCat::Preprocess,
            Category::ServicePma => SpanCat::Pma,
            Category::ServiceMigrate => SpanCat::Migrate,
            Category::ServiceMap => SpanCat::Map,
            Category::ReplayPolicy => SpanCat::ReplayPolicy,
            Category::Eviction => SpanCat::Eviction,
        }
    }
}

/// One recorded span / instant event.
///
/// Sim-time fields (`ts`, `dur`) are deterministic — bit-identical across
/// runs and thread counts. `wall_ns` is the wall-clock stamp (nanoseconds
/// since the recorder was created) and is explicitly excluded from
/// determinism comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Lifecycle phase this event describes.
    pub kind: SpanKind,
    /// Chrome-trace phase (begin/end/leaf/instant).
    pub phase: SpanPhase,
    /// Category the time is charged to.
    pub cat: SpanCat,
    /// Sim-time stamp (span start for `Leaf`, event time otherwise).
    pub ts: SimTime,
    /// Sim-time duration (zero for `Begin`/`End`/`Instant`).
    pub dur: SimDuration,
    /// Wall-clock nanoseconds since recorder creation (non-deterministic).
    pub wall_ns: u64,
    /// First event-specific argument (e.g. batch number, VABlock index).
    pub a: u64,
    /// Second event-specific argument (e.g. faults fetched, page count).
    pub b: u64,
}

/// Everything a run's span capture produced: the (bounded) event list,
/// the drop counter, and the per-category time of dropped leaf spans so
/// `captured + dropped_time == Timers` stays exact under pressure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpanTrace {
    /// Captured events in emission order.
    pub events: Vec<SpanEvent>,
    /// Events dropped because the buffer was at capacity.
    pub dropped: u64,
    /// Per-category sim-time carried by dropped *leaf* spans.
    pub dropped_time: Timers,
}

impl SpanTrace {
    /// Sum of captured leaf-span time per category.
    pub fn leaf_totals(&self) -> Timers {
        let mut t = Timers::default();
        for e in &self.events {
            if e.phase == SpanPhase::Leaf {
                if let Some(cat) = e.cat.timer_category() {
                    t.charge(cat, e.dur);
                }
            }
        }
        t
    }

    /// Captured leaf time plus the dropped remainder — must equal the
    /// driver's [`Timers`] totals for the same run.
    pub fn reconciled_totals(&self) -> Timers {
        self.leaf_totals() + self.dropped_time
    }
}

/// Interior state of an enabled recorder.
#[derive(Debug, Clone)]
struct SpanBuf {
    events: Vec<SpanEvent>,
    cap: usize,
    dropped: u64,
    dropped_time: Timers,
    /// Container `Begin` events actually emitted whose `End` is pending;
    /// their `End`s are emitted even at capacity so B/E stay balanced.
    open_emitted: u32,
    /// Container `Begin` events dropped whose `End` is pending; their
    /// `End`s are dropped to match.
    open_dropped: u32,
    epoch: Instant,
}

/// Default bounded capacity: 64 Ki events (~3 MiB). Full-scale runs
/// overflow this by design; dropped events are counted and dropped leaf
/// *time* stays accounted per category.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// Bounded recorder for batch-lifecycle spans.
///
/// Constructed [`SpanRecorder::disabled`] (the default), every method is
/// one enum-variant branch and records nothing. [`SpanRecorder::bounded`]
/// captures up to `capacity` events.
#[derive(Debug, Clone, Default)]
pub enum SpanRecorder {
    /// Record nothing (zero-cost beyond one branch per call).
    #[default]
    Off,
    /// Record into a bounded buffer.
    On(Box<SpanBufOpaque>),
}

/// Opaque wrapper keeping `SpanBuf` private while the enum is public.
#[derive(Debug, Clone)]
pub struct SpanBufOpaque(SpanBuf);

impl SpanRecorder {
    /// A recorder that discards everything.
    pub fn disabled() -> Self {
        SpanRecorder::Off
    }

    /// A recorder capturing up to `capacity` events, then counting drops.
    pub fn bounded(capacity: usize) -> Self {
        SpanRecorder::On(Box::new(SpanBufOpaque(SpanBuf {
            events: Vec::new(),
            cap: capacity.max(1),
            dropped: 0,
            dropped_time: Timers::default(),
            open_emitted: 0,
            open_dropped: 0,
            epoch: Instant::now(),
        })))
    }

    /// True if events are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, SpanRecorder::On(_))
    }

    /// Record a complete leaf span `[ts, ts + dur]` charged to `cat`.
    #[inline]
    pub fn leaf(&mut self, kind: SpanKind, cat: Category, ts: SimTime, dur: SimDuration) {
        if let SpanRecorder::On(buf) = self {
            buf.0.push_leaf(kind, cat, ts, dur, 0, 0);
        }
    }

    /// Record a leaf span with event-specific arguments.
    #[inline]
    pub fn leaf_args(
        &mut self,
        kind: SpanKind,
        cat: Category,
        ts: SimTime,
        dur: SimDuration,
        a: u64,
        b: u64,
    ) {
        if let SpanRecorder::On(buf) = self {
            buf.0.push_leaf(kind, cat, ts, dur, a, b);
        }
    }

    /// Open a container span (`Pass`, `VablockService`, …) at `ts`.
    #[inline]
    pub fn begin(&mut self, kind: SpanKind, cat: SpanCat, ts: SimTime, a: u64, b: u64) {
        if let SpanRecorder::On(buf) = self {
            buf.0.push_begin(kind, cat, ts, a, b);
        }
    }

    /// Close the innermost open container span at `ts`.
    #[inline]
    pub fn end(&mut self, kind: SpanKind, cat: SpanCat, ts: SimTime, a: u64, b: u64) {
        if let SpanRecorder::On(buf) = self {
            buf.0.push_end(kind, cat, ts, a, b);
        }
    }

    /// Record an instant marker at `ts`.
    #[inline]
    pub fn instant(&mut self, kind: SpanKind, ts: SimTime, a: u64, b: u64) {
        if let SpanRecorder::On(buf) = self {
            buf.0.push_instant(kind, ts, a, b);
        }
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        match self {
            SpanRecorder::Off => 0,
            SpanRecorder::On(buf) => buf.0.events.len(),
        }
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped at capacity.
    pub fn dropped(&self) -> u64 {
        match self {
            SpanRecorder::Off => 0,
            SpanRecorder::On(buf) => buf.0.dropped,
        }
    }

    /// Captured events in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        match self {
            SpanRecorder::Off => &[],
            SpanRecorder::On(buf) => &buf.0.events,
        }
    }

    /// Snapshot the capture into an owned [`SpanTrace`].
    pub fn to_trace(&self) -> SpanTrace {
        match self {
            SpanRecorder::Off => SpanTrace::default(),
            SpanRecorder::On(buf) => SpanTrace {
                events: buf.0.events.clone(),
                dropped: buf.0.dropped,
                dropped_time: buf.0.dropped_time,
            },
        }
    }
}

impl SpanBuf {
    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_leaf(&mut self, kind: SpanKind, cat: Category, ts: SimTime, dur: SimDuration, a: u64, b: u64) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            self.dropped_time.charge(cat, dur);
            return;
        }
        let wall_ns = self.wall_ns();
        self.events.push(SpanEvent {
            kind,
            phase: SpanPhase::Leaf,
            cat: cat.into(),
            ts,
            dur,
            wall_ns,
            a,
            b,
        });
    }

    fn push_begin(&mut self, kind: SpanKind, cat: SpanCat, ts: SimTime, a: u64, b: u64) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            self.open_dropped += 1;
            return;
        }
        let wall_ns = self.wall_ns();
        self.open_emitted += 1;
        self.events.push(SpanEvent {
            kind,
            phase: SpanPhase::Begin,
            cat,
            ts,
            dur: SimDuration::ZERO,
            wall_ns,
            a,
            b,
        });
    }

    fn push_end(&mut self, kind: SpanKind, cat: SpanCat, ts: SimTime, a: u64, b: u64) {
        // Container spans nest strictly (pass > vablock), so ends pair
        // LIFO: drop the end if its begin was dropped, emit it (even past
        // capacity, overshooting by at most the nesting depth) if its
        // begin was emitted — B/E stay balanced either way.
        if self.open_dropped > 0 {
            self.open_dropped -= 1;
            self.dropped += 1;
            return;
        }
        if self.open_emitted == 0 {
            return; // unmatched end; nothing sensible to record
        }
        let wall_ns = self.wall_ns();
        self.open_emitted -= 1;
        self.events.push(SpanEvent {
            kind,
            phase: SpanPhase::End,
            cat,
            ts,
            dur: SimDuration::ZERO,
            wall_ns,
            a,
            b,
        });
    }

    fn push_instant(&mut self, kind: SpanKind, ts: SimTime, a: u64, b: u64) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let wall_ns = self.wall_ns();
        self.events.push(SpanEvent {
            kind,
            phase: SpanPhase::Instant,
            cat: SpanCat::Marker,
            ts,
            dur: SimDuration::ZERO,
            wall_ns,
            a,
            b,
        });
    }
}

/// One row of the flamegraph-style per-phase summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameRow {
    /// Phase label.
    pub label: &'static str,
    /// Occurrences captured.
    pub count: u64,
    /// Total sim-time across occurrences (zero for instants).
    pub total: SimDuration,
}

/// Aggregate captured events into a per-phase (kind) summary, ordered by
/// total sim-time descending (instants last, by count descending) — the
/// text flamegraph `repro --trace-out` prints.
pub fn flame_summary(events: &[SpanEvent]) -> Vec<FlameRow> {
    let mut rows: Vec<FlameRow> = Vec::new();
    for e in events {
        // Container time is counted at the Begin event via its matching
        // End; cheapest is to aggregate Leaf durations and count the rest.
        let (count, total) = match e.phase {
            SpanPhase::Leaf => (1, e.dur),
            SpanPhase::Begin | SpanPhase::Instant => (1, SimDuration::ZERO),
            SpanPhase::End => (0, SimDuration::ZERO),
        };
        if count == 0 {
            continue;
        }
        match rows.iter_mut().find(|r| r.label == e.kind.label()) {
            Some(r) => {
                r.count += count;
                r.total += total;
            }
            None => rows.push(FlameRow {
                label: e.kind.label(),
                count,
                total,
            }),
        }
    }
    rows.sort_by(|x, y| y.total.cmp(&x.total).then(y.count.cmp(&x.count)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn disabled_recorder_is_empty() {
        let mut r = SpanRecorder::disabled();
        r.leaf(SpanKind::MapPages, Category::ServiceMap, t(0), SimDuration::from_nanos(5));
        r.begin(SpanKind::Pass, SpanCat::Batch, t(0), 0, 0);
        r.instant(SpanKind::Replay, t(1), 1, 0);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.to_trace().events.len(), 0);
    }

    #[test]
    fn leaf_times_reconcile_with_timers() {
        let mut r = SpanRecorder::bounded(16);
        let mut timers = Timers::default();
        for (i, cat) in Category::ALL.iter().enumerate() {
            let d = SimDuration::from_nanos((i as u64 + 1) * 10);
            timers.charge(*cat, d);
            r.leaf(SpanKind::MapPages, *cat, t(i as u64), d);
        }
        let trace = r.to_trace();
        assert_eq!(trace.leaf_totals(), timers);
        assert_eq!(trace.reconciled_totals(), timers);
    }

    #[test]
    fn capacity_drops_count_and_keep_time_accounted() {
        let mut r = SpanRecorder::bounded(2);
        let mut timers = Timers::default();
        for i in 0..5u64 {
            let d = SimDuration::from_nanos(7);
            timers.charge(Category::ServiceMigrate, d);
            r.leaf(SpanKind::MigrateH2d, Category::ServiceMigrate, t(i), d);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let trace = r.to_trace();
        assert_eq!(
            trace.dropped_time.get(Category::ServiceMigrate),
            SimDuration::from_nanos(21)
        );
        assert_eq!(trace.reconciled_totals(), timers);
    }

    #[test]
    fn begin_end_stay_balanced_at_capacity() {
        let mut r = SpanRecorder::bounded(3);
        // First pass fits; second pass's begin is dropped.
        r.begin(SpanKind::Pass, SpanCat::Batch, t(0), 0, 0);
        r.leaf(SpanKind::FetchSort, Category::Preprocess, t(1), SimDuration::from_nanos(1));
        r.end(SpanKind::Pass, SpanCat::Batch, t(2), 0, 0);
        r.begin(SpanKind::Pass, SpanCat::Batch, t(3), 1, 0);
        r.end(SpanKind::Pass, SpanCat::Batch, t(4), 1, 0);
        let begins = r.events().iter().filter(|e| e.phase == SpanPhase::Begin).count();
        let ends = r.events().iter().filter(|e| e.phase == SpanPhase::End).count();
        assert_eq!(begins, ends, "B/E must stay balanced under drops");
        assert_eq!(r.dropped(), 2, "dropped begin and its end");
    }

    #[test]
    fn end_past_capacity_closes_emitted_begin() {
        let mut r = SpanRecorder::bounded(2);
        r.begin(SpanKind::Pass, SpanCat::Batch, t(0), 0, 0);
        r.leaf(SpanKind::FetchSort, Category::Preprocess, t(1), SimDuration::from_nanos(1));
        // Buffer is now full, but the pass's end must still be emitted.
        r.end(SpanKind::Pass, SpanCat::Batch, t(2), 0, 0);
        assert_eq!(r.len(), 3, "end overshoots capacity to stay balanced");
        let begins = r.events().iter().filter(|e| e.phase == SpanPhase::Begin).count();
        let ends = r.events().iter().filter(|e| e.phase == SpanPhase::End).count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn flame_summary_orders_by_total_time() {
        let mut r = SpanRecorder::bounded(16);
        r.leaf(SpanKind::MigrateH2d, Category::ServiceMigrate, t(0), SimDuration::from_nanos(100));
        r.leaf(SpanKind::MapPages, Category::ServiceMap, t(1), SimDuration::from_nanos(10));
        r.leaf(SpanKind::MapPages, Category::ServiceMap, t(2), SimDuration::from_nanos(10));
        r.instant(SpanKind::Replay, t(3), 1, 0);
        let rows = flame_summary(r.events());
        assert_eq!(rows[0].label, "migrate_h2d");
        assert_eq!(rows[1].label, "map_pages");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total, SimDuration::from_nanos(20));
        assert_eq!(rows.last().unwrap().label, "replay");
    }
}
