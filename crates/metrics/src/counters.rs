//! Event counters the simulated driver maintains — the numbers behind
//! Table I (fault reduction) and Table II (SGEMM fault/eviction scaling).
//!
//! [`COUNTER_REGISTRY`] binds every counter (and the derived totals) to a
//! Prometheus-legal metric name and HELP text, so the exposition output
//! and the CSV/JSON artefacts can never drift from the struct.

use crate::exposition::{MetricDef, MetricKind};
use serde::{Deserialize, Serialize};

/// Driver-side event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Fault entries fetched from the hardware buffer (the paper's
    /// "total faults" — what instrumented drivers observe).
    pub faults_fetched: u64,
    /// Fetched entries discarded as duplicates/already-resident during
    /// pre-processing.
    pub duplicate_faults: u64,
    /// Distinct pages serviced because they faulted.
    pub pages_faulted_in: u64,
    /// Pages migrated because the prefetcher asked for them.
    pub pages_prefetched: u64,
    /// Pages zeroed on first-touch allocation (no host copy needed).
    pub pages_zeroed: u64,
    /// Fault batches processed.
    pub batches: u64,
    /// Replay notifications issued.
    pub replays: u64,
    /// Fault-buffer flushes performed by the replay policy.
    pub buffer_flushes: u64,
    /// Polling iterations on not-yet-ready fault entries.
    pub polls: u64,
    /// VABlock evictions performed.
    pub evictions: u64,
    /// Pages written back to the host during evictions (the paper's
    /// "pages evicted" in Table II counts pages requiring migration).
    pub pages_evicted_migrated: u64,
    /// Pages released during eviction without write-back (clean).
    pub pages_evicted_clean: u64,
    /// PMA allocation calls into the proprietary driver.
    pub pma_calls: u64,
    /// VABlocks visited across all batches (service bookkeeping).
    pub vablocks_serviced: u64,
    /// Pages migrated by explicit prefetch hints (`cudaMemPrefetchAsync`
    /// style), outside the fault path.
    pub pages_hint_prefetched: u64,
    /// Explicit prefetch-hint calls serviced.
    pub hint_prefetch_calls: u64,
    /// VABlocks pinned by the thrashing-mitigation extension.
    pub thrash_pins: u64,
    /// Pages migrated device→host because the CPU faulted on them.
    pub pages_migrated_to_host: u64,
    /// CPU-side fault episodes serviced (one per host access call).
    pub host_fault_calls: u64,
    /// Bytes the allocator came up short by when a backing allocation
    /// failed and `evict_batch` had to free memory — the eviction
    /// pressure the fault path itself generated.
    pub evict_shortfall_bytes: u64,
    /// Engine replay retries resolved arithmetically by the event-driven
    /// path (no residency loads; mirrored from the engine's counters).
    pub retries_skipped: u64,
    /// Pending pages covered by `retries_skipped` (retried misses whose
    /// throttle accounting was applied in closed form).
    pub retry_pages_skipped: u64,
    /// Stalled engine blocks woken (marked for rescan) by a residency
    /// change event on a word they were subscribed to.
    pub wakeups: u64,
}

impl Counters {
    /// Total pages migrated host→device (faulted + prefetched).
    pub fn pages_migrated_h2d(&self) -> u64 {
        self.pages_faulted_in + self.pages_prefetched
    }

    /// Total pages released by evictions (dirty write-backs plus clean
    /// drops) — Table II's "# Pages Evicted".
    pub fn pages_evicted_total(&self) -> u64 {
        self.pages_evicted_migrated + self.pages_evicted_clean
    }

    /// Pages evicted per driver-observed fault — Table II's tail metric
    /// (its column satisfies `pages_evicted / faults`). Returns 0.0 when
    /// no faults were observed.
    pub fn evictions_per_fault(&self) -> f64 {
        if self.faults_fetched == 0 {
            0.0
        } else {
            self.pages_evicted_total() as f64 / self.faults_fetched as f64
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, o: &Counters) {
        self.faults_fetched += o.faults_fetched;
        self.duplicate_faults += o.duplicate_faults;
        self.pages_faulted_in += o.pages_faulted_in;
        self.pages_prefetched += o.pages_prefetched;
        self.pages_zeroed += o.pages_zeroed;
        self.batches += o.batches;
        self.replays += o.replays;
        self.buffer_flushes += o.buffer_flushes;
        self.polls += o.polls;
        self.evictions += o.evictions;
        self.pages_evicted_migrated += o.pages_evicted_migrated;
        self.pages_evicted_clean += o.pages_evicted_clean;
        self.pma_calls += o.pma_calls;
        self.vablocks_serviced += o.vablocks_serviced;
        self.pages_hint_prefetched += o.pages_hint_prefetched;
        self.hint_prefetch_calls += o.hint_prefetch_calls;
        self.thrash_pins += o.thrash_pins;
        self.pages_migrated_to_host += o.pages_migrated_to_host;
        self.host_fault_calls += o.host_fault_calls;
        self.evict_shortfall_bytes += o.evict_shortfall_bytes;
        self.retries_skipped += o.retries_skipped;
        self.retry_pages_skipped += o.retry_pages_skipped;
        self.wakeups += o.wakeups;
    }
}

/// One exposition registry entry: metric identity plus the extractor
/// reading it off a [`Counters`] snapshot.
pub struct CounterMetric {
    /// Metric name/kind/help for the exposition output.
    pub def: MetricDef,
    /// Field (or derived-total) extractor.
    pub read: fn(&Counters) -> u64,
}

macro_rules! counter_metric {
    ($name:literal, $help:literal, $read:expr) => {
        CounterMetric {
            def: MetricDef {
                name: $name,
                kind: MetricKind::Counter,
                help: $help,
            },
            read: $read,
        }
    };
}

/// Every [`Counters`] field (plus the derived H2D/eviction totals) as an
/// exposition metric family. All entries are cumulative counters.
pub const COUNTER_REGISTRY: &[CounterMetric] = &[
    counter_metric!(
        "uvm_faults_fetched_total",
        "Fault entries fetched from the hardware buffer.",
        |c| c.faults_fetched
    ),
    counter_metric!(
        "uvm_duplicate_faults_total",
        "Fetched entries discarded as duplicates during pre-processing.",
        |c| c.duplicate_faults
    ),
    counter_metric!(
        "uvm_pages_faulted_in_total",
        "Distinct pages serviced because they faulted.",
        |c| c.pages_faulted_in
    ),
    counter_metric!(
        "uvm_pages_prefetched_total",
        "Pages migrated because the prefetcher asked for them.",
        |c| c.pages_prefetched
    ),
    counter_metric!(
        "uvm_pages_zeroed_total",
        "Pages zeroed on first-touch allocation.",
        |c| c.pages_zeroed
    ),
    counter_metric!("uvm_batches_total", "Fault batches processed.", |c| c
        .batches),
    counter_metric!("uvm_replays_total", "Replay notifications issued.", |c| c
        .replays),
    counter_metric!(
        "uvm_buffer_flushes_total",
        "Fault-buffer flushes performed by the replay policy.",
        |c| c.buffer_flushes
    ),
    counter_metric!(
        "uvm_polls_total",
        "Polling iterations on not-yet-ready fault entries.",
        |c| c.polls
    ),
    counter_metric!("uvm_evictions_total", "VABlock evictions performed.", |c| c
        .evictions),
    counter_metric!(
        "uvm_pages_evicted_migrated_total",
        "Pages written back to the host during evictions.",
        |c| c.pages_evicted_migrated
    ),
    counter_metric!(
        "uvm_pages_evicted_clean_total",
        "Pages released during eviction without write-back.",
        |c| c.pages_evicted_clean
    ),
    counter_metric!(
        "uvm_pma_calls_total",
        "PMA allocation calls into the proprietary driver.",
        |c| c.pma_calls
    ),
    counter_metric!(
        "uvm_vablocks_serviced_total",
        "VABlocks visited across all batches.",
        |c| c.vablocks_serviced
    ),
    counter_metric!(
        "uvm_pages_hint_prefetched_total",
        "Pages migrated by explicit prefetch hints outside the fault path.",
        |c| c.pages_hint_prefetched
    ),
    counter_metric!(
        "uvm_hint_prefetch_calls_total",
        "Explicit prefetch-hint calls serviced.",
        |c| c.hint_prefetch_calls
    ),
    counter_metric!(
        "uvm_thrash_pins_total",
        "VABlocks pinned by the thrashing-mitigation extension.",
        |c| c.thrash_pins
    ),
    counter_metric!(
        "uvm_pages_migrated_to_host_total",
        "Pages migrated device to host because the CPU faulted on them.",
        |c| c.pages_migrated_to_host
    ),
    counter_metric!(
        "uvm_host_fault_calls_total",
        "CPU-side fault episodes serviced.",
        |c| c.host_fault_calls
    ),
    counter_metric!(
        "uvm_evict_shortfall_bytes_total",
        "Bytes of eviction pressure generated by failed backing allocations.",
        |c| c.evict_shortfall_bytes
    ),
    counter_metric!(
        "uvm_retries_skipped_total",
        "Engine replay retries resolved arithmetically by the event-driven path.",
        |c| c.retries_skipped
    ),
    counter_metric!(
        "uvm_retry_pages_skipped_total",
        "Pending pages whose retry effects were applied without a residency load.",
        |c| c.retry_pages_skipped
    ),
    counter_metric!(
        "uvm_wakeups_total",
        "Stalled blocks woken for rescan by a subscribed residency change event.",
        |c| c.wakeups
    ),
    counter_metric!(
        "uvm_pages_migrated_h2d_total",
        "Total pages migrated host to device (faulted plus prefetched).",
        |c| c.pages_migrated_h2d()
    ),
    counter_metric!(
        "uvm_pages_evicted_pages_total",
        "Total pages released by evictions (dirty plus clean).",
        |c| c.pages_evicted_total()
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_migrated_sums_fault_and_prefetch() {
        let c = Counters {
            pages_faulted_in: 10,
            pages_prefetched: 32,
            ..Counters::default()
        };
        assert_eq!(c.pages_migrated_h2d(), 42);
    }

    #[test]
    fn evictions_per_fault_handles_zero() {
        let c = Counters::default();
        assert_eq!(c.evictions_per_fault(), 0.0);
        let c = Counters {
            faults_fetched: 100,
            pages_evicted_migrated: 150,
            pages_evicted_clean: 100,
            ..Counters::default()
        };
        assert_eq!(c.pages_evicted_total(), 250);
        assert!((c.evictions_per_fault() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = Counters {
            faults_fetched: 1,
            batches: 2,
            ..Counters::default()
        };
        let b = Counters {
            faults_fetched: 10,
            evictions: 5,
            pma_calls: 3,
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.faults_fetched, 11);
        assert_eq!(a.batches, 2);
        assert_eq!(a.evictions, 5);
        assert_eq!(a.pma_calls, 3);
    }

    #[test]
    fn registry_names_are_legal_unique_counters() {
        let mut seen = Vec::new();
        for m in COUNTER_REGISTRY {
            assert!(
                crate::exposition::valid_metric_name(m.def.name),
                "illegal name {}",
                m.def.name
            );
            assert!(m.def.name.starts_with("uvm_"), "unprefixed {}", m.def.name);
            assert!(
                m.def.name.ends_with("_total"),
                "counter without _total: {}",
                m.def.name
            );
            assert_eq!(m.def.kind, MetricKind::Counter);
            assert!(!m.def.help.is_empty());
            assert!(!seen.contains(&m.def.name), "duplicate {}", m.def.name);
            seen.push(m.def.name);
        }
    }

    #[test]
    fn registry_extractors_read_the_right_fields() {
        let c = Counters {
            faults_fetched: 7,
            pages_faulted_in: 3,
            pages_prefetched: 9,
            pages_evicted_migrated: 4,
            pages_evicted_clean: 2,
            ..Counters::default()
        };
        let read = |name: &str| {
            (COUNTER_REGISTRY
                .iter()
                .find(|m| m.def.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .read)(&c)
        };
        assert_eq!(read("uvm_faults_fetched_total"), 7);
        assert_eq!(read("uvm_pages_migrated_h2d_total"), 12);
        assert_eq!(read("uvm_pages_evicted_pages_total"), 6);
    }
}
