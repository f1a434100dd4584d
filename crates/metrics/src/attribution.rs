//! Fault-provenance ledger — per-cause root-cause attribution of every
//! serviced fault and every migrated byte.
//!
//! The paper's §VI decomposition does not count faults, it *explains*
//! them: baseline cold service, prefetcher coverage, evict-before-use
//! thrash, and the prefetch–eviction antagonism. [`Attribution`] is the
//! compact ledger the driver maintains to answer "why did this fault /
//! this byte happen", partitioned so the causes reconcile *exactly*
//! against [`Counters`] and the transfer log:
//!
//! * **Fault entries** (`faults_fetched`) partition into five causes —
//!   `ColdFirstTouch`, `EvictionRefault` split by evict-before-use
//!   (`refault_used` / `refault_unused`), `PrefetchHit` (a stale entry
//!   absorbed by a prefetched, not-yet-touched resident page) and
//!   `ReplayDuplicate` (every other discarded entry).
//! * **H2D bytes** partition by arrival path: the three fault causes
//!   plus density-prefetch and hint-prefetch pages, times the page size.
//! * **D2H bytes** partition into eviction write-back and CPU-fault
//!   host migration.
//! * **Evicted pages** partition by the touched-bit at eviction time:
//!   `evicted_used` vs `prefetch_evicted` (arrived via prefetch, evicted
//!   before any access — the paper's antagonism signal).
//!
//! Everything here is plain-old-data, preallocated by the driver, and
//! allocation-free in steady state like [`timeseries`](crate::timeseries).
//! Classification happens only in the driver's serial paths (gather,
//! ordered commit, eviction) using simulated state, so the streams are
//! bit-identical at any `--threads` value.

use crate::counters::Counters;
use crate::exposition::{MetricDef, MetricKind};
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;

/// Per-cause cumulative totals. Field order mirrors the partition
/// groups documented at module level; every field is a monotonic
/// counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// `ColdFirstTouch`: pages faulted in that had never been evicted
    /// since allocation (or since a host migration reset their history).
    pub cold_faults: u64,
    /// `EvictionRefault` (used): refaults of pages that had been touched
    /// before their most recent eviction — genuine working-set churn.
    pub refault_used_faults: u64,
    /// `EvictionRefault` (evict-before-use): refaults of pages evicted
    /// *untouched* — the closed prefetch→evict→refault antagonism loop.
    pub refault_unused_faults: u64,
    /// `PrefetchHit`: fault entries absorbed because the prefetcher had
    /// already migrated the page (page resident, not yet touched).
    pub prefetch_hit_faults: u64,
    /// `ReplayDuplicate`: remaining discarded entries — same-page
    /// duplicates within a batch, entries on already-touched resident
    /// pages (replay races), entries on invalid pages.
    pub replay_dup_faults: u64,
    /// Pages migrated H2D because the density prefetcher asked.
    pub prefetch_pages: u64,
    /// Pages migrated H2D by explicit prefetch hints.
    pub hint_pages: u64,
    /// Pages evicted after being touched (faulted on, or absorbing a
    /// stale fault entry while resident).
    pub evicted_used_pages: u64,
    /// `PrefetchEvicted`: pages evicted having *never* been touched —
    /// they arrived via prefetch and were thrown away unused.
    pub prefetch_evicted_pages: u64,
    /// D2H bytes written back by evictions (dirty pages only).
    pub writeback_bytes: u64,
    /// D2H bytes migrated because the CPU faulted on resident pages.
    pub host_migrated_bytes: u64,
}

impl Attribution {
    /// Sum of the five fault causes — must equal
    /// [`Counters::faults_fetched`].
    pub fn fault_total(&self) -> u64 {
        self.cold_faults
            + self.refault_used_faults
            + self.refault_unused_faults
            + self.prefetch_hit_faults
            + self.replay_dup_faults
    }

    /// Fault entries that migrated a page (the non-duplicate causes) —
    /// must equal [`Counters::pages_faulted_in`].
    pub fn pages_faulted(&self) -> u64 {
        self.cold_faults + self.refault_used_faults + self.refault_unused_faults
    }

    /// H2D bytes by cause — must equal the transfer log's H2D total.
    pub fn h2d_bytes(&self) -> u64 {
        (self.pages_faulted() + self.prefetch_pages + self.hint_pages) * PAGE_SIZE
    }

    /// D2H bytes by cause — must equal the transfer log's D2H total.
    pub fn d2h_bytes(&self) -> u64 {
        self.writeback_bytes + self.host_migrated_bytes
    }

    /// Evicted pages by touched-bit — must equal
    /// [`Counters::pages_evicted_total`].
    pub fn evicted_total(&self) -> u64 {
        self.evicted_used_pages + self.prefetch_evicted_pages
    }

    /// Share of evicted pages thrown away before any access, in basis
    /// points (0 when nothing was evicted) — the paper's
    /// evict-before-use rate.
    pub fn evict_before_use_bp(&self) -> u64 {
        let total = self.evicted_total();
        if total == 0 {
            0
        } else {
            self.prefetch_evicted_pages * 10_000 / total
        }
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, o: &Attribution) {
        self.cold_faults += o.cold_faults;
        self.refault_used_faults += o.refault_used_faults;
        self.refault_unused_faults += o.refault_unused_faults;
        self.prefetch_hit_faults += o.prefetch_hit_faults;
        self.replay_dup_faults += o.replay_dup_faults;
        self.prefetch_pages += o.prefetch_pages;
        self.hint_pages += o.hint_pages;
        self.evicted_used_pages += o.evicted_used_pages;
        self.prefetch_evicted_pages += o.prefetch_evicted_pages;
        self.writeback_bytes += o.writeback_bytes;
        self.host_migrated_bytes += o.host_migrated_bytes;
    }

    /// Check every partition equation against a [`Counters`] snapshot
    /// and the transfer-log byte totals. Returns the first violated
    /// equation as `(what, attributed, observed)`.
    pub fn reconcile(
        &self,
        c: &Counters,
        h2d_bytes: u64,
        d2h_bytes: u64,
    ) -> Result<(), (&'static str, u64, u64)> {
        let checks = [
            ("fault causes vs faults_fetched", self.fault_total(), c.faults_fetched),
            ("migrating causes vs pages_faulted_in", self.pages_faulted(), c.pages_faulted_in),
            (
                "duplicate causes vs duplicate_faults",
                self.prefetch_hit_faults + self.replay_dup_faults,
                c.duplicate_faults,
            ),
            ("prefetch pages vs pages_prefetched", self.prefetch_pages, c.pages_prefetched),
            ("hint pages vs pages_hint_prefetched", self.hint_pages, c.pages_hint_prefetched),
            ("evicted causes vs pages_evicted", self.evicted_total(), c.pages_evicted_total()),
            ("H2D bytes by cause vs transfer log", self.h2d_bytes(), h2d_bytes),
            ("D2H bytes by cause vs transfer log", self.d2h_bytes(), d2h_bytes),
        ];
        for (what, attributed, observed) in checks {
            if attributed != observed {
                return Err((what, attributed, observed));
            }
        }
        Ok(())
    }
}

/// One exposition registry entry: metric identity plus the extractor
/// reading it off an [`Attribution`] snapshot.
pub struct AttributionMetric {
    /// Metric name/kind/help for the exposition output.
    pub def: MetricDef,
    /// Field extractor.
    pub read: fn(&Attribution) -> u64,
}

macro_rules! attr_metric {
    ($name:literal, $help:literal, $read:expr) => {
        AttributionMetric {
            def: MetricDef {
                name: $name,
                kind: MetricKind::Counter,
                help: $help,
            },
            read: $read,
        }
    };
}

/// Every [`Attribution`] field as an exposition metric family, kept in
/// lockstep with the struct by test (like `COUNTER_REGISTRY`).
pub const ATTRIBUTION_REGISTRY: &[AttributionMetric] = &[
    attr_metric!(
        "uvm_attr_cold_faults_total",
        "Faults on pages never evicted since allocation (ColdFirstTouch).",
        |a| a.cold_faults
    ),
    attr_metric!(
        "uvm_attr_refault_used_faults_total",
        "Refaults of pages touched before their last eviction (EvictionRefault).",
        |a| a.refault_used_faults
    ),
    attr_metric!(
        "uvm_attr_refault_unused_faults_total",
        "Refaults of pages evicted before any use (EvictionRefault, evict-before-use).",
        |a| a.refault_unused_faults
    ),
    attr_metric!(
        "uvm_attr_prefetch_hit_faults_total",
        "Fault entries absorbed by a prefetched not-yet-touched resident page (PrefetchHit).",
        |a| a.prefetch_hit_faults
    ),
    attr_metric!(
        "uvm_attr_replay_duplicate_faults_total",
        "Remaining discarded fault entries (ReplayDuplicate).",
        |a| a.replay_dup_faults
    ),
    attr_metric!(
        "uvm_attr_prefetch_pages_total",
        "Pages migrated H2D by the density prefetcher.",
        |a| a.prefetch_pages
    ),
    attr_metric!(
        "uvm_attr_hint_prefetch_pages_total",
        "Pages migrated H2D by explicit prefetch hints.",
        |a| a.hint_pages
    ),
    attr_metric!(
        "uvm_attr_evicted_used_pages_total",
        "Pages evicted after being touched.",
        |a| a.evicted_used_pages
    ),
    attr_metric!(
        "uvm_attr_prefetch_evicted_pages_total",
        "Pages evicted without ever being touched (PrefetchEvicted).",
        |a| a.prefetch_evicted_pages
    ),
    attr_metric!(
        "uvm_attr_writeback_bytes_total",
        "D2H bytes written back by evictions.",
        |a| a.writeback_bytes
    ),
    attr_metric!(
        "uvm_attr_host_migrated_bytes_total",
        "D2H bytes migrated on CPU faults.",
        |a| a.host_migrated_bytes
    ),
];

/// Per-VABlock offender totals the driver accumulates in a preallocated
/// table (one slot per block — no growth in steady state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockStats {
    /// Refault entries charged to this block (used + evict-before-use).
    pub refault_faults: u64,
    /// Pages this block had evicted untouched (PrefetchEvicted).
    pub prefetch_evicted_pages: u64,
    /// Evictions of this block (its generation stamp at end of run).
    pub evictions: u64,
}

impl BlockStats {
    /// Ranking key for the offender table: blocks that refault a lot
    /// and throw prefetched pages away dominate the avoidable cost.
    pub fn badness(&self) -> u64 {
        self.refault_faults + self.prefetch_evicted_pages
    }
}

/// One row of the top-K offender table, labelled by VABlock index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Offender {
    /// VABlock index within the managed space.
    pub block: u64,
    /// The block's accumulated stats.
    pub stats: BlockStats,
}

/// Select the top-`k` offender blocks from a per-block stats table,
/// ranked by [`BlockStats::badness`] descending with block index as the
/// deterministic tie-break. Blocks with zero badness are omitted.
pub fn top_offenders(stats: &[BlockStats], k: usize) -> Vec<Offender> {
    let mut rows: Vec<Offender> = stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.badness() > 0)
        .map(|(i, s)| Offender {
            block: i as u64,
            stats: *s,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.stats
            .badness()
            .cmp(&a.stats.badness())
            .then(a.block.cmp(&b.block))
    });
    rows.truncate(k);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_reconcile_when_consistent() {
        let a = Attribution {
            cold_faults: 10,
            refault_used_faults: 4,
            refault_unused_faults: 2,
            prefetch_hit_faults: 3,
            replay_dup_faults: 1,
            prefetch_pages: 8,
            hint_pages: 5,
            evicted_used_pages: 6,
            prefetch_evicted_pages: 2,
            writeback_bytes: 3 * PAGE_SIZE,
            host_migrated_bytes: PAGE_SIZE,
        };
        let c = Counters {
            faults_fetched: 20,
            duplicate_faults: 4,
            pages_faulted_in: 16,
            pages_prefetched: 8,
            pages_hint_prefetched: 5,
            pages_evicted_migrated: 3,
            pages_evicted_clean: 5,
            ..Counters::default()
        };
        assert_eq!(a.fault_total(), 20);
        assert_eq!(a.h2d_bytes(), 29 * PAGE_SIZE);
        assert_eq!(a.d2h_bytes(), 4 * PAGE_SIZE);
        assert_eq!(a.evict_before_use_bp(), 2_500);
        a.reconcile(&c, 29 * PAGE_SIZE, 4 * PAGE_SIZE).expect("consistent");
    }

    #[test]
    fn reconcile_reports_the_violated_equation() {
        let a = Attribution {
            cold_faults: 1,
            ..Attribution::default()
        };
        let c = Counters::default();
        let err = a.reconcile(&c, PAGE_SIZE, 0).expect_err("fault total off");
        assert_eq!(err, ("fault causes vs faults_fetched", 1, 0));
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = Attribution {
            cold_faults: 1,
            writeback_bytes: 2,
            ..Attribution::default()
        };
        let b = Attribution {
            cold_faults: 10,
            prefetch_evicted_pages: 7,
            host_migrated_bytes: 3,
            ..Attribution::default()
        };
        a.merge(&b);
        assert_eq!(a.cold_faults, 11);
        assert_eq!(a.prefetch_evicted_pages, 7);
        assert_eq!(a.writeback_bytes, 2);
        assert_eq!(a.host_migrated_bytes, 3);
    }

    #[test]
    fn registry_names_are_legal_unique_counters() {
        let mut seen = Vec::new();
        for m in ATTRIBUTION_REGISTRY {
            assert!(
                crate::exposition::valid_metric_name(m.def.name),
                "illegal name {}",
                m.def.name
            );
            assert!(m.def.name.starts_with("uvm_attr_"), "unprefixed {}", m.def.name);
            assert!(m.def.name.ends_with("_total"), "counter without _total: {}", m.def.name);
            assert_eq!(m.def.kind, MetricKind::Counter);
            assert!(!m.def.help.is_empty());
            assert!(!seen.contains(&m.def.name), "duplicate {}", m.def.name);
            seen.push(m.def.name);
        }
    }

    #[test]
    fn registry_covers_every_field_exactly_once() {
        // Lockstep guard: a ledger with a unique value per field must be
        // read back as exactly that multiset — adding an Attribution
        // field without a registry entry (or vice versa) fails here.
        let a = Attribution {
            cold_faults: 1,
            refault_used_faults: 2,
            refault_unused_faults: 3,
            prefetch_hit_faults: 4,
            replay_dup_faults: 5,
            prefetch_pages: 6,
            hint_pages: 7,
            evicted_used_pages: 8,
            prefetch_evicted_pages: 9,
            writeback_bytes: 10,
            host_migrated_bytes: 11,
        };
        let mut read: Vec<u64> = ATTRIBUTION_REGISTRY.iter().map(|m| (m.read)(&a)).collect();
        read.sort_unstable();
        assert_eq!(read, (1..=11).collect::<Vec<u64>>());
    }

    #[test]
    fn top_offenders_rank_and_tiebreak_deterministically() {
        let stats = vec![
            BlockStats::default(), // omitted: zero badness
            BlockStats {
                refault_faults: 5,
                prefetch_evicted_pages: 0,
                evictions: 1,
            },
            BlockStats {
                refault_faults: 0,
                prefetch_evicted_pages: 5,
                evictions: 2,
            },
            BlockStats {
                refault_faults: 9,
                prefetch_evicted_pages: 0,
                evictions: 3,
            },
        ];
        let top = top_offenders(&stats, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].block, 3);
        // Equal badness (blocks 1 and 2): lower index wins.
        assert_eq!(top[1].block, 1);
        let all = top_offenders(&stats, 10);
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].block, 2);
    }
}
