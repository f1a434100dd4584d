//! Simulated-time telemetry timeseries.
//!
//! End-of-run aggregates (Timers, Counters, Histograms) answer *how much*
//! but not *when* — yet the paper's central artefacts are time-resolved:
//! the fault timeline of Fig. 8, the oversubscribed cost decomposition of
//! Fig. 9, the compute-rate curves of Fig. 10. This module snapshots the
//! driver's cumulative signals on a fixed **simulated-time** grid so a
//! run's internal dynamics (fault storms, eviction onset, thrash windows)
//! can be plotted and diffed.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Samples fire on the virtual clock (the first pass
//!   whose end time reaches the next grid point), and every sampled value
//!   is simulated state. The host thread count of the rayon sweep pool
//!   cannot influence a single bit of the stream (`tests/timeseries_golden.rs` enforces this), which is
//!   what makes sampled runs diffable across machines and CI shards.
//! * **Bounded, allocation-free steady state.** The sample buffer is
//!   preallocated at its capacity. When it fills, it is *compacted in
//!   place* — every other sample is dropped and the effective interval
//!   doubles — so an arbitrarily long run keeps full start-to-end
//!   coverage at a coarser grain instead of truncating its tail, without
//!   ever reallocating (`uvm-driver/tests/alloc_free.rs` enforces this).

use crate::rows::{Column, Rows};
use crate::{Attribution, Counters, Histogram};
use serde::{Deserialize, Serialize};
use sim_engine::{SimDuration, SimTime};

/// Default sampling interval: 500 µs of simulated time.
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 500_000;
/// Default sample-buffer capacity.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 4096;

/// Driver-load-time configuration of the timeseries sampler; the driver
/// samples exactly when it is given one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeseriesConfig {
    /// Base sampling interval in simulated nanoseconds.
    pub interval_ns: u64,
    /// Sample-buffer capacity; at capacity the buffer compacts in place
    /// and the effective interval doubles.
    pub capacity: usize,
}

impl Default for TimeseriesConfig {
    fn default() -> Self {
        TimeseriesConfig {
            interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
            capacity: DEFAULT_SAMPLE_CAPACITY,
        }
    }
}

/// One snapshot of the driver's cumulative signals at a simulated instant.
///
/// Every field is an integer (ratios are carried in basis points), so the
/// struct is `Eq` and sample streams can be compared bit-for-bit in the
/// determinism goldens. Fields marked *gauge* describe the instant; all
/// others are cumulative since driver load and never decrease.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Simulated time of the snapshot, nanoseconds since launch.
    pub t_ns: u64,
    /// Fault entries fetched from the hardware buffer.
    pub faults_fetched: u64,
    /// Fetched entries discarded as duplicates.
    pub duplicate_faults: u64,
    /// Distinct pages migrated because they faulted.
    pub pages_faulted_in: u64,
    /// Pages migrated because the prefetcher asked.
    pub pages_prefetched: u64,
    /// Bytes moved host→device over the interconnect.
    pub migrated_bytes_h2d: u64,
    /// Bytes moved device→host (eviction write-back, CPU faults).
    pub migrated_bytes_d2h: u64,
    /// VABlock evictions performed.
    pub evictions: u64,
    /// Pages released by evictions (dirty write-backs + clean drops).
    pub pages_evicted: u64,
    /// Blocks pinned by the thrashing mitigation.
    pub thrash_pins: u64,
    /// Faults on previously-evicted blocks (evict-before-reuse thrash).
    pub refaults: u64,
    /// Replay notifications issued.
    pub replays: u64,
    /// Fault batches processed.
    pub batches: u64,
    /// *Gauge*: pages currently backed by GPU physical memory.
    pub resident_pages: u64,
    /// *Gauge*: VABlocks currently tracked by the eviction LRU.
    pub lru_blocks: u64,
    /// *Gauge*: p50 of per-pass driver critical-path time, ns.
    pub batch_ns_p50: u64,
    /// *Gauge*: p95 of per-pass driver critical-path time, ns.
    pub batch_ns_p95: u64,
    /// *Gauge*: p99 of per-pass driver critical-path time, ns.
    pub batch_ns_p99: u64,
    /// *Gauge*: prefetched ÷ total H2D pages, in basis points (0–10000).
    pub prefetch_coverage_bp: u64,
    /// Provenance: faults on never-evicted pages (`ColdFirstTouch`).
    pub attr_cold_faults: u64,
    /// Provenance: refaults of pages touched before their last eviction.
    pub attr_refault_used_faults: u64,
    /// Provenance: refaults of pages evicted before any use.
    pub attr_refault_unused_faults: u64,
    /// Provenance: fault entries absorbed by an untouched prefetched page.
    pub attr_prefetch_hit_faults: u64,
    /// Provenance: remaining discarded fault entries (`ReplayDuplicate`).
    pub attr_replay_dup_faults: u64,
    /// Provenance: pages evicted without ever being touched
    /// (`PrefetchEvicted` — the prefetch–eviction antagonism).
    pub attr_prefetch_evicted_pages: u64,
    /// Provenance: pages evicted after being touched.
    pub attr_evicted_used_pages: u64,
    /// Lineage events recorded (stored or dropped at capacity).
    pub lineage_events: u64,
    /// Lineage events dropped at the event-log capacity.
    pub lineage_dropped: u64,
    /// Flight-recorder dumps captured by the thrash-pin trigger.
    pub flight_dumps: u64,
    /// Engine retries resolved arithmetically (event-driven replay).
    pub retries_skipped: u64,
    /// Pending pages covered by the arithmetic retries.
    pub retry_pages_skipped: u64,
    /// Stalled blocks woken for rescan by residency change events.
    pub wakeups: u64,
    /// Pages migrated by explicit `prefetch_range` hints.
    pub pages_hint_prefetched: u64,
    /// Dirty pages written back device→host by evictions.
    pub pages_evicted_migrated: u64,
    /// Resident pages migrated back to the host by CPU access.
    pub pages_migrated_to_host: u64,
    /// Provenance: pages migrated H2D by the density prefetcher.
    pub attr_prefetch_pages: u64,
    /// Provenance: pages migrated H2D by explicit prefetch hints.
    pub attr_hint_pages: u64,
    /// Provenance: D2H bytes written back by evictions.
    pub attr_writeback_bytes: u64,
    /// Provenance: D2H bytes migrated on CPU faults.
    pub attr_host_migrated_bytes: u64,
}

impl Sample {
    /// Prefetch coverage in basis points from cumulative page counts.
    pub fn coverage_bp(prefetched: u64, migrated_h2d: u64) -> u64 {
        (prefetched * 10_000).checked_div(migrated_h2d).unwrap_or(0)
    }

    /// Record per-pass latency percentiles from the pass histogram.
    pub fn set_batch_latency(&mut self, pass_ns: &Histogram) {
        self.batch_ns_p50 = pass_ns.p50();
        self.batch_ns_p95 = pass_ns.p95();
        self.batch_ns_p99 = pass_ns.p99();
    }

    /// The fault-provenance ledger carried in the eleven `attr_*` fields.
    pub fn attribution(&self) -> Attribution {
        Attribution {
            cold_faults: self.attr_cold_faults,
            refault_used_faults: self.attr_refault_used_faults,
            refault_unused_faults: self.attr_refault_unused_faults,
            prefetch_hit_faults: self.attr_prefetch_hit_faults,
            replay_dup_faults: self.attr_replay_dup_faults,
            prefetch_pages: self.attr_prefetch_pages,
            hint_pages: self.attr_hint_pages,
            evicted_used_pages: self.attr_evicted_used_pages,
            prefetch_evicted_pages: self.attr_prefetch_evicted_pages,
            writeback_bytes: self.attr_writeback_bytes,
            host_migrated_bytes: self.attr_host_migrated_bytes,
        }
    }

    /// [`attribution`](Sample::attribution), checked by
    /// [`Attribution::reconcile`] against this sample's own counter and
    /// byte fields: the equations the live run is held to. A cumulative
    /// sample (a sample CSV's final row above all) must pass.
    pub fn reconciled_attribution(&self) -> Result<Attribution, String> {
        let fail = |what: &str| format!("attribution does not reconcile: {what}");
        let clean = (self.pages_evicted.checked_sub(self.pages_evicted_migrated))
            .ok_or_else(|| fail("pages_evicted_migrated exceeds pages_evicted"))?;
        let c = Counters {
            faults_fetched: self.faults_fetched,
            duplicate_faults: self.duplicate_faults,
            pages_faulted_in: self.pages_faulted_in,
            pages_prefetched: self.pages_prefetched,
            pages_hint_prefetched: self.pages_hint_prefetched,
            pages_evicted_migrated: self.pages_evicted_migrated,
            pages_evicted_clean: clean,
            pages_migrated_to_host: self.pages_migrated_to_host,
            ..Counters::default()
        };
        let a = self.attribution();
        a.reconcile(&c, self.migrated_bytes_h2d, self.migrated_bytes_d2h)
            .map_err(|(what, attributed, observed)| {
                fail(&format!("{what} violated ({attributed} != {observed})"))
            })?;
        Ok(a)
    }
}

/// The sample CSV columns, in order, in runs of cumulative (`true`:
/// never decreases from row to row) and gauge (`false`) columns.
/// Declares [`SAMPLE_COLUMNS`], the row layout [`Timeseries::to_csv`]
/// writes and [`parse_csv`] reads, and the cumulative columns
/// `parse_csv` checks, from the one list.
macro_rules! sample_columns {
    ($($cumulative:literal => [$($field:ident),* $(,)?]),* $(,)?) => {
        /// The sample CSV's row layout. Schema v2 appended
        /// `pages_hint_prefetched`..`pages_migrated_to_host`, so every
        /// lineage equation can be re-checked against a CSV's final row;
        /// v3 appended the last four `attr_*` columns, so the final row
        /// carries the whole [`Attribution`] ledger.
        pub const SAMPLE_COLUMNS: &[Column<Sample>] = &[$($(crate::field_column!($field)),*),*];

        /// `(column, value)` of every cumulative column of `s`.
        fn cumulative(s: &Sample) -> impl Iterator<Item = (&'static str, u64)> {
            [$($((stringify!($field), $cumulative, s.$field)),*),*]
                .into_iter()
                .filter_map(|(name, cumulative, v)| cumulative.then_some((name, v)))
        }
    };
}

sample_columns! {
    true => [
        t_ns, faults_fetched, duplicate_faults, pages_faulted_in, pages_prefetched,
        migrated_bytes_h2d, migrated_bytes_d2h, evictions, pages_evicted, thrash_pins,
        refaults, replays, batches,
    ],
    false => [
        resident_pages, lru_blocks, batch_ns_p50, batch_ns_p95, batch_ns_p99,
        prefetch_coverage_bp,
    ],
    true => [
        attr_cold_faults, attr_refault_used_faults, attr_refault_unused_faults,
        attr_prefetch_hit_faults, attr_replay_dup_faults, attr_prefetch_evicted_pages,
        attr_evicted_used_pages, lineage_events, lineage_dropped, flight_dumps,
        retries_skipped, retry_pages_skipped, wakeups, pages_hint_prefetched,
        pages_evicted_migrated, pages_migrated_to_host, attr_prefetch_pages, attr_hint_pages,
        attr_writeback_bytes, attr_host_migrated_bytes,
    ],
}

/// The sample CSV: comma-separated [`SAMPLE_COLUMNS`].
const SAMPLE_ROWS: Rows<Sample> = Rows {
    sep: ',',
    columns: SAMPLE_COLUMNS,
};

/// A finished sample stream, as carried in a `SimReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeseries {
    /// Configured base interval (ns of simulated time).
    pub base_interval_ns: u64,
    /// Effective interval at end of run (doubles per compaction).
    pub interval_ns: u64,
    /// In-place compactions performed (each halves the sample count).
    pub compactions: u64,
    /// The samples, in simulated-time order.
    pub samples: Vec<Sample>,
}

impl Timeseries {
    /// Render the stream as CSV (header + one row per sample).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(8 * SAMPLE_COLUMNS.len() * (1 + self.samples.len()));
        SAMPLE_ROWS.write_header(&mut out);
        for s in &self.samples {
            SAMPLE_ROWS.write_row(s, &mut out);
        }
        out
    }

    /// The last (forced-final) sample, whose cumulative fields equal the
    /// run's end-of-run counters.
    pub fn last(&self) -> Option<&Sample> {
        self.samples.last()
    }
}

/// Parse a sample CSV back into its [`Sample`]s, checking the schema on
/// the way: exact header, all-u64 cells, strictly increasing `t_ns`, and
/// non-decreasing cumulative columns.
pub fn parse_csv(text: &str) -> Result<Vec<Sample>, String> {
    let samples = SAMPLE_ROWS.read_table(text, 1)?;
    for (i, w) in samples.windows(2).enumerate() {
        let (p, s, row) = (&w[0], &w[1], i + 3);
        if s.t_ns <= p.t_ns {
            return Err(format!(
                "row {row}: t_ns {} not strictly increasing (prev {})",
                s.t_ns, p.t_ns
            ));
        }
        for ((name, was), (_, now)) in cumulative(p).zip(cumulative(s)) {
            if now < was {
                return Err(format!(
                    "row {row}: counter column {name} decreased ({was} -> {now})"
                ));
            }
        }
    }
    Ok(samples)
}

/// The sampler the driver owns: a preallocated buffer filled on a
/// simulated-time grid, compacted in place when full.
#[derive(Debug, Clone)]
pub struct TimeseriesSampler {
    on: bool,
    base_interval: SimDuration,
    interval: SimDuration,
    capacity: usize,
    next_due: SimTime,
    compactions: u64,
    samples: Vec<Sample>,
}

impl TimeseriesSampler {
    /// An armed sampler per `cfg`.
    pub fn new(cfg: &TimeseriesConfig) -> Self {
        assert!(cfg.interval_ns > 0, "sample interval must be nonzero");
        let capacity = cfg.capacity.max(2);
        let interval = SimDuration::from_nanos(cfg.interval_ns);
        TimeseriesSampler {
            on: true,
            base_interval: interval,
            interval,
            capacity,
            next_due: SimTime::ZERO + interval,
            compactions: 0,
            samples: Vec::with_capacity(capacity),
        }
    }

    /// The no-op sampler (allocates nothing).
    pub fn disabled() -> Self {
        TimeseriesSampler {
            on: false,
            base_interval: SimDuration::ZERO,
            interval: SimDuration::ZERO,
            capacity: 0,
            next_due: SimTime::ZERO,
            compactions: 0,
            samples: Vec::new(),
        }
    }

    /// True when sampling is armed.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// True when the grid calls for a sample at simulated time `now`.
    /// Callers gate snapshot construction on this so a disabled (or
    /// not-yet-due) sampler costs one branch per pass.
    #[inline]
    pub fn is_due(&self, now: SimTime) -> bool {
        self.on && now >= self.next_due
    }

    /// Record `sample` if the grid is due at `now`, advancing the grid.
    pub fn record(&mut self, now: SimTime, sample: Sample) {
        if !self.is_due(now) {
            return;
        }
        self.push(sample);
        // Advance past `now`: passes longer than the interval yield one
        // sample, not a burst of stale duplicates.
        while self.next_due <= now {
            self.next_due += self.interval;
        }
    }

    /// Force a final snapshot (end of run), regardless of the grid. If
    /// the last sample already sits at the same instant it is replaced,
    /// so the stream's tail always equals the end-of-run totals.
    pub fn force(&mut self, sample: Sample) {
        if !self.on {
            return;
        }
        if let Some(last) = self.samples.last_mut() {
            if last.t_ns >= sample.t_ns {
                *last = sample;
                return;
            }
        }
        self.push(sample);
    }

    fn push(&mut self, sample: Sample) {
        if self.samples.len() == self.capacity {
            self.compact();
        }
        self.samples.push(sample);
    }

    /// Drop every other sample in place (keeping the odd indices, which
    /// land on the doubled grid) and double the effective interval.
    fn compact(&mut self) {
        let n = self.samples.len();
        let mut w = 0;
        let mut r = 1;
        while r < n {
            self.samples[w] = self.samples[r];
            w += 1;
            r += 2;
        }
        self.samples.truncate(w);
        self.interval = self.interval * 2;
        self.compactions += 1;
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// In-place compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Move the finished stream out (the sampler is left disabled-empty).
    pub fn take(&mut self) -> Timeseries {
        Timeseries {
            base_interval_ns: self.base_interval.as_nanos(),
            interval_ns: self.interval.as_nanos(),
            compactions: self.compactions,
            samples: std::mem::take(&mut self.samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::PAGE_SIZE;

    fn cfg(interval_ns: u64, capacity: usize) -> TimeseriesConfig {
        TimeseriesConfig {
            interval_ns,
            capacity,
        }
    }

    fn at(t_ns: u64, faults: u64) -> Sample {
        Sample {
            t_ns,
            faults_fetched: faults,
            ..Sample::default()
        }
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let mut s = TimeseriesSampler::disabled();
        assert!(!s.is_enabled());
        assert!(!s.is_due(SimTime::ZERO + SimDuration::from_secs(1)));
        s.record(SimTime::ZERO + SimDuration::from_secs(1), at(1, 1));
        s.force(at(2, 2));
        assert!(s.samples().is_empty());
        assert_eq!(s.take().samples.len(), 0);
    }

    #[test]
    fn samples_fire_on_the_grid() {
        let mut s = TimeseriesSampler::new(&cfg(100, 1024));
        // Passes end at 40, 80, 120, ... — the grid point at 100 fires on
        // the first pass ending at/after it.
        for t in (40..=400).step_by(40) {
            let now = SimTime::ZERO + SimDuration::from_nanos(t);
            if s.is_due(now) {
                s.record(now, at(t, t));
            }
        }
        let t: Vec<u64> = s.samples().iter().map(|x| x.t_ns).collect();
        assert_eq!(t, vec![120, 200, 320, 400]);
    }

    #[test]
    fn long_pass_yields_one_sample_not_a_burst() {
        let mut s = TimeseriesSampler::new(&cfg(10, 1024));
        let now = SimTime::ZERO + SimDuration::from_nanos(1000);
        s.record(now, at(1000, 1));
        assert_eq!(s.samples().len(), 1);
        assert!(!s.is_due(now), "grid advanced past the long pass");
        assert!(s.is_due(now + SimDuration::from_nanos(10)));
    }

    #[test]
    fn compaction_halves_and_doubles() {
        let mut s = TimeseriesSampler::new(&cfg(10, 8));
        for i in 1..=8u64 {
            s.record(
                SimTime::ZERO + SimDuration::from_nanos(i * 10),
                at(i * 10, i),
            );
        }
        assert_eq!(s.samples().len(), 8);
        assert_eq!(s.compactions(), 0);
        // The 9th sample triggers compaction: odd indices survive.
        s.record(SimTime::ZERO + SimDuration::from_nanos(90), at(90, 9));
        assert_eq!(s.compactions(), 1);
        let t: Vec<u64> = s.samples().iter().map(|x| x.t_ns).collect();
        assert_eq!(t, vec![20, 40, 60, 80, 90]);
        let ts = s.take();
        assert_eq!(ts.base_interval_ns, 10);
        assert_eq!(ts.interval_ns, 20);
        assert_eq!(ts.compactions, 1);
    }

    #[test]
    fn compaction_never_reallocates() {
        let mut s = TimeseriesSampler::new(&cfg(1, 16));
        let cap0 = s.samples.capacity();
        for i in 1..=1000u64 {
            s.record(SimTime::ZERO + SimDuration::from_nanos(i), at(i, i));
        }
        assert!(s.compactions() > 0);
        assert!(s.samples().len() <= 16);
        assert_eq!(s.samples.capacity(), cap0, "buffer never regrew");
    }

    #[test]
    fn force_replaces_or_appends_tail() {
        let mut s = TimeseriesSampler::new(&cfg(10, 8));
        s.record(SimTime::ZERO + SimDuration::from_nanos(10), at(10, 1));
        s.force(at(15, 2));
        assert_eq!(s.samples().len(), 2);
        // Forcing at the same instant replaces instead of duplicating.
        s.force(at(15, 3));
        assert_eq!(s.samples().len(), 2);
        assert_eq!(s.samples()[1].faults_fetched, 3);
    }

    #[test]
    fn csv_round_trip_validates() {
        let ts = Timeseries {
            base_interval_ns: 10,
            interval_ns: 10,
            compactions: 0,
            samples: vec![at(10, 1), at(20, 5)],
        };
        let csv = ts.to_csv();
        assert!(csv.starts_with("t_ns,faults_fetched,"));
        assert_eq!(parse_csv(&csv), Ok(ts.samples));
        let header_only = format!("{}\n", SAMPLE_ROWS.header());
        assert_eq!(parse_csv(&header_only), Ok(vec![]));
    }

    #[test]
    fn parse_csv_rejects_bad_streams() {
        let header = SAMPLE_ROWS.header();
        let row = |t: u64, f: u64| {
            let mut cells = vec![t.to_string(), f.to_string()];
            cells.extend(std::iter::repeat_n(
                "0".to_string(),
                SAMPLE_COLUMNS.len() - 2,
            ));
            cells.join(",")
        };
        // Wrong header.
        assert!(parse_csv("a,b\n1,2\n").is_err());
        // Non-monotonic time.
        let bad_t = format!("{header}\n{}\n{}\n", row(20, 1), row(10, 2));
        assert!(parse_csv(&bad_t).unwrap_err().contains("t_ns"));
        // Decreasing counter.
        let bad_c = format!("{header}\n{}\n{}\n", row(10, 5), row(20, 4));
        assert!(parse_csv(&bad_c).unwrap_err().contains("faults_fetched"));
        // Non-numeric cell.
        let bad_cell = format!("{header}\n{}\n", row(10, 1).replace("10", "x"));
        assert!(parse_csv(&bad_cell).is_err());
        // A schema v2 header (35 columns) is refused, not misread.
        let v2: Vec<&str> = header.split(',').take(35).collect();
        let err = parse_csv(&format!("{}\n", v2.join(","))).unwrap_err();
        assert!(err.contains("header mismatch"), "{err}");
    }

    #[test]
    fn reconciled_attribution_checks_the_sample_against_itself() {
        let s = Sample {
            faults_fetched: 3,
            duplicate_faults: 1,
            pages_faulted_in: 2,
            pages_evicted: 2,
            pages_evicted_migrated: 1,
            migrated_bytes_h2d: 2 * PAGE_SIZE,
            migrated_bytes_d2h: PAGE_SIZE,
            attr_cold_faults: 2,
            attr_replay_dup_faults: 1,
            attr_evicted_used_pages: 2,
            attr_writeback_bytes: PAGE_SIZE,
            ..Sample::default()
        };
        assert_eq!(s.reconciled_attribution(), Ok(s.attribution()));
        // One extra page each way: the H2D closure breaks.
        let moved = Sample {
            migrated_bytes_h2d: 3 * PAGE_SIZE,
            migrated_bytes_d2h: 2 * PAGE_SIZE,
            ..s
        };
        let err = moved.reconciled_attribution().unwrap_err();
        assert!(
            err.contains("does not reconcile: H2D bytes by cause"),
            "{err}"
        );
        let inverted = Sample {
            pages_evicted_migrated: 3,
            ..s
        };
        let err = inverted.reconciled_attribution().unwrap_err();
        assert!(
            err.contains("pages_evicted_migrated exceeds pages_evicted"),
            "{err}"
        );
    }

    #[test]
    fn coverage_basis_points() {
        assert_eq!(Sample::coverage_bp(0, 0), 0);
        assert_eq!(Sample::coverage_bp(50, 100), 5000);
        assert_eq!(Sample::coverage_bp(100, 100), 10_000);
    }

    #[test]
    fn columns_cover_every_sample_field() {
        // 39 public fields in Sample; keep the registry in lockstep.
        let s = Sample {
            t_ns: 1,
            faults_fetched: 2,
            duplicate_faults: 3,
            pages_faulted_in: 4,
            pages_prefetched: 5,
            migrated_bytes_h2d: 6,
            migrated_bytes_d2h: 7,
            evictions: 8,
            pages_evicted: 9,
            thrash_pins: 10,
            refaults: 11,
            replays: 12,
            batches: 13,
            resident_pages: 14,
            lru_blocks: 15,
            batch_ns_p50: 16,
            batch_ns_p95: 17,
            batch_ns_p99: 18,
            prefetch_coverage_bp: 19,
            attr_cold_faults: 20,
            attr_refault_used_faults: 21,
            attr_refault_unused_faults: 22,
            attr_prefetch_hit_faults: 23,
            attr_replay_dup_faults: 24,
            attr_prefetch_evicted_pages: 25,
            attr_evicted_used_pages: 26,
            lineage_events: 27,
            lineage_dropped: 28,
            flight_dumps: 29,
            retries_skipped: 30,
            retry_pages_skipped: 31,
            wakeups: 32,
            pages_hint_prefetched: 33,
            pages_evicted_migrated: 34,
            pages_migrated_to_host: 35,
            attr_prefetch_pages: 36,
            attr_hint_pages: 37,
            attr_writeback_bytes: 38,
            attr_host_migrated_bytes: 39,
        };
        let mut row = String::new();
        SAMPLE_ROWS.write_row(&s, &mut row);
        let want: Vec<String> = (1..=39u64).map(|v| v.to_string()).collect();
        assert_eq!(
            row,
            format!("{}\n", want.join(",")),
            "every field written exactly once, in order"
        );
        let back = SAMPLE_ROWS.read_row(2, row.trim_end()).unwrap();
        assert_eq!(back, s, "every field read exactly once");
    }

    /// Every column a distinct value: `base + 1` in the first column,
    /// `base + 39` in the last.
    fn numbered(base: u64) -> Sample {
        Sample {
            t_ns: base + 1,
            faults_fetched: base + 2,
            duplicate_faults: base + 3,
            pages_faulted_in: base + 4,
            pages_prefetched: base + 5,
            migrated_bytes_h2d: base + 6,
            migrated_bytes_d2h: base + 7,
            evictions: base + 8,
            pages_evicted: base + 9,
            thrash_pins: base + 10,
            refaults: base + 11,
            replays: base + 12,
            batches: base + 13,
            resident_pages: base + 14,
            lru_blocks: base + 15,
            batch_ns_p50: base + 16,
            batch_ns_p95: base + 17,
            batch_ns_p99: base + 18,
            prefetch_coverage_bp: base + 19,
            attr_cold_faults: base + 20,
            attr_refault_used_faults: base + 21,
            attr_refault_unused_faults: base + 22,
            attr_prefetch_hit_faults: base + 23,
            attr_replay_dup_faults: base + 24,
            attr_prefetch_evicted_pages: base + 25,
            attr_evicted_used_pages: base + 26,
            lineage_events: base + 27,
            lineage_dropped: base + 28,
            flight_dumps: base + 29,
            retries_skipped: base + 30,
            retry_pages_skipped: base + 31,
            wakeups: base + 32,
            pages_hint_prefetched: base + 33,
            pages_evicted_migrated: base + 34,
            pages_migrated_to_host: base + 35,
            attr_prefetch_pages: base + 36,
            attr_hint_pages: base + 37,
            attr_writeback_bytes: base + 38,
            attr_host_migrated_bytes: base + 39,
        }
    }

    #[test]
    fn sample_csv_bytes_are_pinned() {
        let ts = Timeseries {
            base_interval_ns: 10,
            interval_ns: 10,
            compactions: 0,
            samples: vec![numbered(0), numbered(100)],
        };
        let golden = "t_ns,faults_fetched,duplicate_faults,pages_faulted_in,pages_prefetched,\
            migrated_bytes_h2d,migrated_bytes_d2h,evictions,pages_evicted,thrash_pins,\
            refaults,replays,batches,resident_pages,lru_blocks,batch_ns_p50,batch_ns_p95,\
            batch_ns_p99,prefetch_coverage_bp,attr_cold_faults,attr_refault_used_faults,\
            attr_refault_unused_faults,attr_prefetch_hit_faults,attr_replay_dup_faults,\
            attr_prefetch_evicted_pages,attr_evicted_used_pages,lineage_events,\
            lineage_dropped,flight_dumps,retries_skipped,retry_pages_skipped,wakeups,\
            pages_hint_prefetched,pages_evicted_migrated,pages_migrated_to_host,\
            attr_prefetch_pages,attr_hint_pages,attr_writeback_bytes,\
            attr_host_migrated_bytes\n\
            1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,\
            29,30,31,32,33,34,35,36,37,38,39\n\
            101,102,103,104,105,106,107,108,109,110,111,112,113,114,115,116,117,118,119,\
            120,121,122,123,124,125,126,127,128,129,130,131,132,133,134,135,136,137,138,\
            139\n";
        assert_eq!(ts.to_csv(), golden);
    }
}
