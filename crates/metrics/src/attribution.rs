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
//!   host migration, each of them a whole number of the pages its
//!   counter records.
//! * **Evicted pages** partition by the touched-bit at eviction time:
//!   `evicted_used` vs `prefetch_evicted` (arrived via prefetch, evicted
//!   before any access — the paper's antagonism signal).
//!
//! The ledger and the per-block [`BlockStats`] are folds of the driver's
//! lineage events: the [`LineageRecorder`](crate::LineageRecorder) runs
//! [`lineage::apply`](crate::lineage::apply) on every event, armed or
//! not. Only the two duplicate causes, which have no lineage kind, are
//! written directly, at gather. Everything here is plain-old-data,
//! preallocated, and allocation-free in steady state like
//! [`timeseries`](crate::timeseries). Events come only from the
//! driver's serial paths (gather, ordered commit, eviction) using
//! simulated state, so the ledger is bit-identical at any `--threads`
//! value.

use crate::counters::Counters;
use crate::exposition::metric_struct;
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;

metric_struct! {
    /// Per-cause cumulative totals. Field order mirrors the partition
    /// groups documented at module level; every field is a monotonic
    /// counter.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct Attribution {
        /// `ColdFirstTouch`: pages faulted in that had never been evicted
        /// since allocation (or since a host migration reset their history).
        cold_faults: Counter "uvm_attr_cold_faults_total"
            "Faults on pages never evicted since allocation (ColdFirstTouch).",
        /// `EvictionRefault` (used): refaults of pages that had been touched
        /// before their most recent eviction — genuine working-set churn.
        refault_used_faults: Counter "uvm_attr_refault_used_faults_total"
            "Refaults of pages touched before their last eviction (EvictionRefault).",
        /// `EvictionRefault` (evict-before-use): refaults of pages evicted
        /// *untouched* — the closed prefetch→evict→refault antagonism loop.
        refault_unused_faults: Counter "uvm_attr_refault_unused_faults_total"
            "Refaults of pages evicted before any use (EvictionRefault, evict-before-use).",
        /// `PrefetchHit`: fault entries absorbed because the prefetcher had
        /// already migrated the page (page resident, not yet touched).
        prefetch_hit_faults: Counter "uvm_attr_prefetch_hit_faults_total"
            "Fault entries absorbed by a prefetched not-yet-touched resident page (PrefetchHit).",
        /// `ReplayDuplicate`: remaining discarded entries — same-page
        /// duplicates within a batch, entries on already-touched resident
        /// pages (replay races), entries on invalid pages.
        replay_dup_faults: Counter "uvm_attr_replay_duplicate_faults_total"
            "Remaining discarded fault entries (ReplayDuplicate).",
        /// Pages migrated H2D because the density prefetcher asked.
        prefetch_pages: Counter "uvm_attr_prefetch_pages_total"
            "Pages migrated H2D by the density prefetcher.",
        /// Pages migrated H2D by explicit prefetch hints.
        hint_pages: Counter "uvm_attr_hint_prefetch_pages_total"
            "Pages migrated H2D by explicit prefetch hints.",
        /// Pages evicted after being touched (faulted on, or absorbing a
        /// stale fault entry while resident).
        evicted_used_pages: Counter "uvm_attr_evicted_used_pages_total"
            "Pages evicted after being touched.",
        /// `PrefetchEvicted`: pages evicted having *never* been touched —
        /// they arrived via prefetch and were thrown away unused.
        prefetch_evicted_pages: Counter "uvm_attr_prefetch_evicted_pages_total"
            "Pages evicted without ever being touched (PrefetchEvicted).",
        /// D2H bytes written back by evictions (dirty pages only).
        writeback_bytes: Counter "uvm_attr_writeback_bytes_total"
            "D2H bytes written back by evictions.",
        /// D2H bytes migrated because the CPU faulted on resident pages.
        host_migrated_bytes: Counter "uvm_attr_host_migrated_bytes_total"
            "D2H bytes migrated on CPU faults.",
    }
    /// Every [`Attribution`] field as an exposition family.
    pub const ATTRIBUTION_REGISTRY;
}

impl Attribution {
    /// The partition sums, in u128 so that no field values can wrap them.
    fn sums(&self) -> Sums {
        let w = |x: u64| x as u128;
        let migrating =
            w(self.cold_faults) + w(self.refault_used_faults) + w(self.refault_unused_faults);
        let duplicates = w(self.prefetch_hit_faults) + w(self.replay_dup_faults);
        Sums {
            faults: migrating + duplicates,
            migrating,
            duplicates,
            h2d_bytes: (migrating + w(self.prefetch_pages) + w(self.hint_pages)) * w(PAGE_SIZE),
            d2h_bytes: w(self.writeback_bytes) + w(self.host_migrated_bytes),
            evicted: w(self.evicted_used_pages) + w(self.prefetch_evicted_pages),
        }
    }

    /// Sum of the five fault causes — must equal
    /// [`Counters::faults_fetched`].
    pub fn fault_total(&self) -> u64 {
        saturate(self.sums().faults)
    }

    /// Fault entries that migrated a page (the non-duplicate causes) —
    /// must equal [`Counters::pages_faulted_in`].
    pub fn pages_faulted(&self) -> u64 {
        saturate(self.sums().migrating)
    }

    /// H2D bytes by cause — must equal the transfer log's H2D total.
    pub fn h2d_bytes(&self) -> u64 {
        saturate(self.sums().h2d_bytes)
    }

    /// D2H bytes by cause — must equal the transfer log's D2H total.
    pub fn d2h_bytes(&self) -> u64 {
        saturate(self.sums().d2h_bytes)
    }

    /// Evicted pages by touched-bit — must equal
    /// [`Counters::pages_evicted_total`].
    pub fn evicted_total(&self) -> u64 {
        saturate(self.sums().evicted)
    }

    /// Share of evicted pages thrown away before any access, in basis
    /// points (0 when nothing was evicted) — the paper's
    /// evict-before-use rate.
    pub fn evict_before_use_bp(&self) -> u64 {
        saturate(self.prefetch_evicted_pages as u128 * 10_000 / self.sums().evicted.max(1))
    }

    /// Merge another ledger into this one. Errs, leaving `self` as it
    /// was, when a field or a partition sum of the merged ledger would
    /// overflow u64.
    pub fn merge(&mut self, o: &Attribution) -> Result<(), &'static str> {
        const OVERFLOW: &str = "merged attribution totals overflow u64";
        let (mut m, mut overflow) = (*self, false);
        m.add_fields(o, |a, b| match a.checked_add(b) {
            Some(sum) => *a = sum,
            None => overflow = true,
        });
        let s = m.sums();
        if overflow
            || [s.faults, s.h2d_bytes, s.d2h_bytes, s.evicted]
                .iter()
                .any(|&x| x > u64::MAX as u128)
        {
            return Err(OVERFLOW);
        }
        *self = m;
        Ok(())
    }

    /// Check every partition equation against a [`Counters`] snapshot
    /// and the transfer-log byte totals, summing in u128. Returns the
    /// first violated equation as `(what, attributed, observed)`.
    pub fn reconcile(
        &self,
        c: &Counters,
        h2d_bytes: u64,
        d2h_bytes: u64,
    ) -> Result<(), (&'static str, u128, u128)> {
        let w = |x: u64| x as u128;
        let s = self.sums();
        let checks = [
            (
                "fault causes vs faults_fetched",
                s.faults,
                w(c.faults_fetched),
            ),
            (
                "migrating causes vs pages_faulted_in",
                s.migrating,
                w(c.pages_faulted_in),
            ),
            (
                "duplicate causes vs duplicate_faults",
                s.duplicates,
                w(c.duplicate_faults),
            ),
            (
                "prefetch pages vs pages_prefetched",
                w(self.prefetch_pages),
                w(c.pages_prefetched),
            ),
            (
                "hint pages vs pages_hint_prefetched",
                w(self.hint_pages),
                w(c.pages_hint_prefetched),
            ),
            (
                "evicted causes vs pages_evicted",
                s.evicted,
                w(c.pages_evicted_migrated) + w(c.pages_evicted_clean),
            ),
            (
                "H2D bytes by cause vs transfer log",
                s.h2d_bytes,
                w(h2d_bytes),
            ),
            (
                "D2H bytes by cause vs transfer log",
                s.d2h_bytes,
                w(d2h_bytes),
            ),
            (
                "writeback bytes vs pages_evicted_migrated",
                w(self.writeback_bytes),
                w(c.pages_evicted_migrated) * w(PAGE_SIZE),
            ),
            (
                "host-migrated bytes vs pages_migrated_to_host",
                w(self.host_migrated_bytes),
                w(c.pages_migrated_to_host) * w(PAGE_SIZE),
            ),
        ];
        for (what, attributed, observed) in checks {
            if attributed != observed {
                return Err((what, attributed, observed));
            }
        }
        Ok(())
    }
}

/// The partition sums of one [`Attribution`].
struct Sums {
    faults: u128,
    migrating: u128,
    duplicates: u128,
    h2d_bytes: u128,
    d2h_bytes: u128,
    evicted: u128,
}

/// `x` as u64, saturating at `u64::MAX`.
fn saturate(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Per-VABlock offender totals, folded from the block's lineage events
/// into a preallocated table (one slot per block — no growth in steady
/// state).
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
        self.refault_faults
            .saturating_add(self.prefetch_evicted_pages)
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
    fn registry_names_are_legal_unique_counters() {
        let mut seen = Vec::new();
        for m in ATTRIBUTION_REGISTRY {
            assert!(
                crate::exposition::valid_metric_name(m.def.name),
                "illegal name {}",
                m.def.name
            );
            assert!(
                m.def.name.starts_with("uvm_attr_"),
                "unprefixed {}",
                m.def.name
            );
            assert!(
                m.def.name.ends_with("_total"),
                "counter without _total: {}",
                m.def.name
            );
            assert_eq!(m.def.kind, crate::exposition::MetricKind::Counter);
            assert!(!m.def.help.is_empty());
            assert!(!seen.contains(&m.def.name), "duplicate {}", m.def.name);
            seen.push(m.def.name);
        }
    }

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
            pages_migrated_to_host: 1,
            ..Counters::default()
        };
        assert_eq!(a.fault_total(), 20);
        assert_eq!(a.h2d_bytes(), 29 * PAGE_SIZE);
        assert_eq!(a.d2h_bytes(), 4 * PAGE_SIZE);
        assert_eq!(a.evict_before_use_bp(), 2_500);
        a.reconcile(&c, 29 * PAGE_SIZE, 4 * PAGE_SIZE)
            .expect("consistent");
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
        // Device-to-host pages split between write-back and host
        // migration: the byte total and the eviction count close, the
        // page split does not.
        let page = PAGE_SIZE as u128;
        let a = Attribution {
            evicted_used_pages: 2,
            writeback_bytes: 2 * PAGE_SIZE,
            host_migrated_bytes: PAGE_SIZE,
            ..Attribution::default()
        };
        let c = Counters {
            pages_evicted_migrated: 1,
            pages_evicted_clean: 1,
            pages_migrated_to_host: 1,
            ..Counters::default()
        };
        let err = a
            .reconcile(&c, 0, 3 * PAGE_SIZE)
            .expect_err("write-back off");
        let want = ("writeback bytes vs pages_evicted_migrated", 2 * page, page);
        assert_eq!(err, want);
        let c = Counters {
            pages_evicted_migrated: 2,
            pages_evicted_clean: 0,
            pages_migrated_to_host: 2,
            ..c
        };
        let err = a.reconcile(&c, 0, 3 * PAGE_SIZE).expect_err("host off");
        let want = (
            "host-migrated bytes vs pages_migrated_to_host",
            page,
            2 * page,
        );
        assert_eq!(err, want);
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
        a.merge(&b).expect("no overflow");
        assert_eq!(a.cold_faults, 11);
        assert_eq!(a.prefetch_evicted_pages, 7);
        assert_eq!(a.writeback_bytes, 2);
        assert_eq!(a.host_migrated_bytes, 3);
    }

    #[test]
    fn merge_refuses_to_overflow_a_field_or_a_sum() {
        let half = Attribution {
            replay_dup_faults: u64::MAX / 2 + 1,
            ..Attribution::default()
        };
        let mut a = half;
        assert!(a.merge(&half).is_err(), "field overflow");
        assert_eq!(a, half, "a failed merge leaves the ledger as it was");
        // Every field fits, but the fault total does not.
        let other = Attribution {
            prefetch_hit_faults: u64::MAX / 2 + 1,
            ..Attribution::default()
        };
        assert!(a.merge(&other).is_err(), "sum overflow");
        assert_eq!(a, half);
    }

    #[test]
    fn sums_neither_wrap_nor_panic() {
        let big = u64::MAX / 2;
        let a = Attribution {
            prefetch_evicted_pages: big,
            evicted_used_pages: big,
            cold_faults: u64::MAX,
            replay_dup_faults: 1,
            ..Attribution::default()
        };
        assert_eq!(a.evict_before_use_bp(), 5_000);
        assert_eq!(a.fault_total(), u64::MAX, "saturates");
        assert_eq!(a.h2d_bytes(), u64::MAX, "saturates");
        // A wrapping u64 sum would see 0 faults here and pass.
        let err = a
            .reconcile(&Counters::default(), 0, 0)
            .expect_err("2^64 faults");
        assert_eq!(err, ("fault causes vs faults_fetched", 1 << 64, 0));
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
