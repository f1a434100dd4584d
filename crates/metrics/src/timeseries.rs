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

use crate::Histogram;
use serde::{Deserialize, Serialize};
use sim_engine::{SimDuration, SimTime};
use std::fmt::Write;

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
}

impl Sample {
    /// Prefetch coverage in basis points from cumulative page counts.
    pub fn coverage_bp(prefetched: u64, migrated_h2d: u64) -> u64 {
        if migrated_h2d == 0 {
            0
        } else {
            prefetched * 10_000 / migrated_h2d
        }
    }

    /// Record per-pass latency percentiles from the pass histogram.
    pub fn set_batch_latency(&mut self, pass_ns: &Histogram) {
        self.batch_ns_p50 = pass_ns.p50();
        self.batch_ns_p95 = pass_ns.p95();
        self.batch_ns_p99 = pass_ns.p99();
    }
}

/// One column of the sample CSV schema: name, monotonicity (cumulative
/// counters never decrease between rows; gauges may), and field
/// accessors. The registry is the single source of truth for the CSV
/// header, row rendering, [`validate_csv`] and [`last_sample`].
pub struct SampleColumn {
    /// Column name (also the CSV header token and the [`Sample`] field).
    pub name: &'static str,
    /// Whether the column is cumulative (non-decreasing row to row).
    pub monotonic: bool,
    /// Field extractor.
    pub get: fn(&Sample) -> u64,
    /// Field setter, for parsing rows back into a [`Sample`].
    pub set: fn(&mut Sample, u64),
}

/// One [`SampleColumn`] whose name, getter and setter all name the same
/// [`Sample`] field.
macro_rules! column {
    ($field:ident, $monotonic:expr) => {
        SampleColumn {
            name: stringify!($field),
            monotonic: $monotonic,
            get: |s| s.$field,
            set: |s, v| s.$field = v,
        }
    };
}

/// The CSV schema, in column order. Schema v2 appended the last three
/// columns, so every lineage equation can be re-checked against a CSV's
/// final row.
pub const SAMPLE_COLUMNS: &[SampleColumn] = &[
    column!(t_ns, true),
    column!(faults_fetched, true),
    column!(duplicate_faults, true),
    column!(pages_faulted_in, true),
    column!(pages_prefetched, true),
    column!(migrated_bytes_h2d, true),
    column!(migrated_bytes_d2h, true),
    column!(evictions, true),
    column!(pages_evicted, true),
    column!(thrash_pins, true),
    column!(refaults, true),
    column!(replays, true),
    column!(batches, true),
    column!(resident_pages, false),
    column!(lru_blocks, false),
    column!(batch_ns_p50, false),
    column!(batch_ns_p95, false),
    column!(batch_ns_p99, false),
    column!(prefetch_coverage_bp, false),
    column!(attr_cold_faults, true),
    column!(attr_refault_used_faults, true),
    column!(attr_refault_unused_faults, true),
    column!(attr_prefetch_hit_faults, true),
    column!(attr_replay_dup_faults, true),
    column!(attr_prefetch_evicted_pages, true),
    column!(attr_evicted_used_pages, true),
    column!(lineage_events, true),
    column!(lineage_dropped, true),
    column!(flight_dumps, true),
    column!(retries_skipped, true),
    column!(retry_pages_skipped, true),
    column!(wakeups, true),
    column!(pages_hint_prefetched, true),
    column!(pages_evicted_migrated, true),
    column!(pages_migrated_to_host, true),
];

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
    /// The CSV header line for [`to_csv`](Timeseries::to_csv).
    pub fn csv_header() -> String {
        SAMPLE_COLUMNS
            .iter()
            .map(|c| c.name)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Render the stream as CSV (header + one row per sample).
    pub fn to_csv(&self) -> String {
        let mut out = Self::csv_header();
        out.reserve(1 + 8 * SAMPLE_COLUMNS.len() * self.samples.len());
        out.push('\n');
        for s in &self.samples {
            for (i, col) in SAMPLE_COLUMNS.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", (col.get)(s));
            }
            out.push('\n');
        }
        out
    }

    /// The last (forced-final) sample, whose cumulative fields equal the
    /// run's end-of-run counters.
    pub fn last(&self) -> Option<&Sample> {
        self.samples.last()
    }
}

/// Statistics from a successful [`validate_csv`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvStats {
    /// Data rows (excluding the header).
    pub rows: usize,
}

/// Validate a sample-CSV blob against the schema: exact header, all-u64
/// cells, strictly increasing `t_ns`, and non-decreasing cumulative
/// columns. Powering `repro check` and the format unit tests.
pub fn validate_csv(text: &str) -> Result<CsvStats, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let expected = Timeseries::csv_header();
    if header != expected {
        return Err(format!(
            "header mismatch: got `{header}`, expected `{expected}`"
        ));
    }
    let mut prev: Option<Vec<u64>> = None;
    let mut rows = 0usize;
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != SAMPLE_COLUMNS.len() {
            return Err(format!(
                "row {}: {} cells, expected {}",
                lineno + 2,
                cells.len(),
                SAMPLE_COLUMNS.len()
            ));
        }
        let mut vals = Vec::with_capacity(cells.len());
        for (cell, col) in cells.iter().zip(SAMPLE_COLUMNS) {
            let v: u64 = cell.parse().map_err(|_| {
                format!("row {}: column {} = `{cell}` is not a u64", lineno + 2, col.name)
            })?;
            vals.push(v);
        }
        if let Some(p) = &prev {
            if vals[0] <= p[0] {
                return Err(format!(
                    "row {}: t_ns {} not strictly increasing (prev {})",
                    lineno + 2,
                    vals[0],
                    p[0]
                ));
            }
            for (i, col) in SAMPLE_COLUMNS.iter().enumerate() {
                if col.monotonic && vals[i] < p[i] {
                    return Err(format!(
                        "row {}: counter column {} decreased ({} -> {})",
                        lineno + 2,
                        col.name,
                        p[i],
                        vals[i]
                    ));
                }
            }
        }
        prev = Some(vals);
        rows += 1;
    }
    Ok(CsvStats { rows })
}

/// Validate a sample CSV (as [`validate_csv`] does) and parse its final
/// row back into a [`Sample`]: the end-of-run totals `repro check`
/// reconciles a lineage stream against.
pub fn last_sample(text: &str) -> Result<Sample, String> {
    validate_csv(text)?;
    let row = text
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .last()
        .ok_or("no samples")?;
    let mut s = Sample::default();
    for (cell, col) in row.split(',').zip(SAMPLE_COLUMNS) {
        (col.set)(&mut s, cell.parse().expect("validate_csv checked every cell"));
    }
    Ok(s)
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
            self.next_due = self.next_due + self.interval;
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
            s.record(SimTime::ZERO + SimDuration::from_nanos(i * 10), at(i * 10, i));
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
        let stats = validate_csv(&csv).expect("valid CSV");
        assert_eq!(stats.rows, 2);
        assert_eq!(last_sample(&csv), Ok(at(20, 5)));
        let header_only = format!("{}\n", Timeseries::csv_header());
        assert_eq!(last_sample(&header_only), Err("no samples".to_string()));
    }

    #[test]
    fn validate_csv_rejects_bad_streams() {
        let header = Timeseries::csv_header();
        let row = |t: u64, f: u64| {
            let mut cells = vec![t.to_string(), f.to_string()];
            cells.extend(std::iter::repeat("0".to_string()).take(SAMPLE_COLUMNS.len() - 2));
            cells.join(",")
        };
        // Wrong header.
        assert!(validate_csv("a,b\n1,2\n").is_err());
        // Non-monotonic time.
        let bad_t = format!("{header}\n{}\n{}\n", row(20, 1), row(10, 2));
        assert!(validate_csv(&bad_t).unwrap_err().contains("t_ns"));
        // Decreasing counter.
        let bad_c = format!("{header}\n{}\n{}\n", row(10, 5), row(20, 4));
        assert!(validate_csv(&bad_c).unwrap_err().contains("faults_fetched"));
        // Non-numeric cell.
        let bad_cell = format!("{header}\n{}\n", row(10, 1).replace("10", "x"));
        assert!(validate_csv(&bad_cell).is_err());
    }

    #[test]
    fn coverage_basis_points() {
        assert_eq!(Sample::coverage_bp(0, 0), 0);
        assert_eq!(Sample::coverage_bp(50, 100), 5000);
        assert_eq!(Sample::coverage_bp(100, 100), 10_000);
    }

    #[test]
    fn columns_cover_every_sample_field() {
        // 35 public fields in Sample; keep the registry in lockstep.
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
        };
        let vals: Vec<u64> = SAMPLE_COLUMNS.iter().map(|c| (c.get)(&s)).collect();
        let want: Vec<u64> = (1..=35).collect();
        assert_eq!(vals, want, "every field extracted exactly once, in order");
        let mut back = Sample::default();
        for (col, v) in SAMPLE_COLUMNS.iter().zip(want) {
            (col.set)(&mut back, v);
        }
        assert_eq!(back, s, "every field set exactly once");
    }
}
