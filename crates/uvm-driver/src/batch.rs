//! Fault-batch pre-processing (paper §III-C).
//!
//! Per pass, the driver fetches up to a batch (default 256) of fault
//! entries from the hardware buffer, performs bookkeeping and logical
//! checks (dropping duplicates and faults for pages that are already
//! resident — stale entries left by non-flushing replay policies), and
//! sorts the survivors into their VABlock bins so servicing can coalesce
//! per-block work.
//!
//! Binning is sort-then-group over a [`BatchArena`] the driver owns:
//! entries are sorted by page id (equivalently `(vablock, offset)`), so
//! each block's faults form one contiguous run and the groups come out in
//! ascending block order with no per-batch map allocation. Once the
//! arena's buffers have grown to the workload's high-water mark, a batch
//! performs zero heap allocations.

use crate::address_space::ManagedSpace;
use gpu_model::{AccessType, FaultBuffer, FaultEntry, PageMask, VaBlockIdx};
use sim_engine::SimTime;

/// The de-duplicated faults of one VABlock within a batch.
#[derive(Debug, Clone)]
pub struct FaultGroup {
    /// The VABlock.
    pub block: VaBlockIdx,
    /// New (non-duplicate, non-resident) faulted pages.
    pub fault_mask: PageMask,
    /// Subset of `fault_mask` faulted with write access.
    pub write_mask: PageMask,
    /// Raw entries that contributed (before deduplication).
    pub num_entries: u64,
}

/// One pre-processed batch.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Per-VABlock fault groups in ascending block order (the sort).
    pub groups: Vec<FaultGroup>,
    /// Entries fetched from the buffer.
    pub fetched: u64,
    /// Entries dropped as duplicates or already-resident.
    pub duplicates: u64,
    /// Subset of `duplicates` absorbed by a resident page the prefetcher
    /// had migrated but the GPU had not yet touched — the fault-side
    /// `PrefetchHit` signal (the prefetch arrived in time). The rest of
    /// `duplicates` are `ReplayDuplicate`s.
    pub prefetch_hits: u64,
    /// Polling iterations on not-yet-ready entries.
    pub polls: u64,
}

impl Batch {
    /// Total new faulted pages across all groups.
    pub fn new_fault_pages(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.fault_mask.count() as u64)
            .sum()
    }
}

/// Reusable batch pre-processing buffers, held by the driver across
/// passes. `entries` is the fetch staging area; `batch` keeps its group
/// vector's capacity between batches.
#[derive(Debug, Clone, Default)]
pub struct BatchArena {
    entries: Vec<FaultEntry>,
    /// The most recently gathered batch.
    pub batch: Batch,
}

/// Fetch and pre-process one batch of faults into `arena.batch`,
/// reusing the arena's buffers (allocation-free at steady state).
///
/// Takes the space mutably because stale entries on resident pages mark
/// the page *touched* — a fault entry absorbed by a prefetched,
/// not-yet-accessed page is the provenance ledger's `PrefetchHit`, and
/// the first such absorption proves the GPU has now used the page.
pub fn gather_into(
    buffer: &mut FaultBuffer,
    batch_size: usize,
    now: SimTime,
    space: &mut ManagedSpace,
    arena: &mut BatchArena,
) {
    arena.entries.clear();
    let polls = buffer.fetch_into(&mut arena.entries, batch_size, now);
    let batch = &mut arena.batch;
    batch.groups.clear();
    batch.fetched = arena.entries.len() as u64;
    batch.duplicates = 0;
    batch.prefetch_hits = 0;
    batch.polls = polls;

    // Sort by raw page id — identical to (vablock, offset) order — so each
    // block's faults form one contiguous run. Masks and entry counts are
    // order-insensitive, so an unstable sort changes nothing observable.
    arena.entries.sort_unstable_by_key(|e| e.page.0);

    for e in &arena.entries {
        let vb = e.page.vablock();
        let off = e.page.offset_in_vablock();
        debug_assert!(space.valid(vb).get(off), "fault outside any allocation");
        if !space.valid(vb).get(off) {
            // Release-mode hardening: a malformed trace faulting outside
            // any allocation is dropped as spurious rather than allowed
            // to corrupt residency bookkeeping.
            batch.duplicates += 1;
            continue;
        }
        if space.resident(vb).get(off) {
            // Stale entry: the page was serviced by an earlier batch (the
            // Batch/Block policies leave such entries behind) — or, if the
            // page arrived via prefetch and was never accessed, the
            // prefetcher beat the fault: a PrefetchHit. `touched` is not
            // residency, so marking it publishes no change event.
            batch.duplicates += 1;
            if !space.touched(vb).get(off) {
                batch.prefetch_hits += 1;
                space.touched_mut(vb).set(off);
            }
            continue;
        }
        if batch.groups.last().map(|g| g.block) != Some(vb) {
            batch.groups.push(FaultGroup {
                block: vb,
                fault_mask: PageMask::EMPTY,
                write_mask: PageMask::EMPTY,
                num_entries: 0,
            });
        }
        let group = batch.groups.last_mut().expect("group pushed above");
        group.num_entries += 1;
        if !group.fault_mask.set(off) {
            // Same page faulted from two µTLBs within this batch.
            batch.duplicates += 1;
        }
        if matches!(e.access, AccessType::Write) {
            group.write_mask.set(off);
        }
    }
}

/// Fetch and pre-process one batch of faults (convenience wrapper over
/// [`gather_into`] with a throwaway arena).
pub fn gather(
    buffer: &mut FaultBuffer,
    batch_size: usize,
    now: SimTime,
    space: &mut ManagedSpace,
) -> Batch {
    let mut arena = BatchArena::default();
    gather_into(buffer, batch_size, now, space, &mut arena);
    arena.batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{FaultBufferConfig, FaultEntry, GlobalPage};
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::SimDuration;

    fn setup(pages: &[(u64, AccessType)]) -> (FaultBuffer, ManagedSpace) {
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for (i, &(p, a)) in pages.iter().enumerate() {
            buf.push(FaultEntry {
                page: GlobalPage(p),
                access: a,
                timestamp: SimTime::ZERO,
                utlb: (i % 4) as u32,
            });
        }
        let mut space = ManagedSpace::new();
        space.alloc(8 * VABLOCK_SIZE, "data");
        (buf, space)
    }

    fn late() -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(1)
    }

    fn page_7() -> PageMask {
        let mut m = PageMask::EMPTY;
        m.set(7);
        m
    }

    #[test]
    fn groups_sorted_by_vablock() {
        let (mut buf, mut space) = setup(&[
            (1024, AccessType::Read), // block 2
            (3, AccessType::Read),    // block 0
            (600, AccessType::Read),  // block 1
        ]);
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.fetched, 3);
        let blocks: Vec<u64> = b.groups.iter().map(|g| g.block.0).collect();
        assert_eq!(blocks, vec![0, 1, 2]);
        assert_eq!(b.new_fault_pages(), 3);
    }

    #[test]
    fn same_page_two_utlbs_dedups() {
        let (mut buf, mut space) = setup(&[(7, AccessType::Read), (7, AccessType::Read)]);
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.fetched, 2);
        assert_eq!(b.duplicates, 1);
        assert_eq!(b.new_fault_pages(), 1);
        assert_eq!(b.groups[0].num_entries, 2);
    }

    #[test]
    fn resident_pages_are_stale_duplicates() {
        let (mut buf, mut space) = setup(&[(7, AccessType::Read), (9, AccessType::Read)]);
        space.set_resident(VaBlockIdx(0), page_7());
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.duplicates, 1);
        assert_eq!(b.new_fault_pages(), 1);
        assert!(b.groups[0].fault_mask.get(9));
        assert!(!b.groups[0].fault_mask.get(7));
    }

    #[test]
    fn stale_entry_on_untouched_page_is_a_prefetch_hit_and_marks_touched() {
        // Page 7 resident but untouched: the prefetcher brought it in and
        // the GPU's fault raced the migration — a PrefetchHit, after which
        // the page counts as touched.
        let (mut buf, mut space) = setup(&[(7, AccessType::Read)]);
        space.set_resident(VaBlockIdx(0), page_7());
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.duplicates, 1);
        assert_eq!(b.prefetch_hits, 1);
        assert!(space.touched(VaBlockIdx(0)).get(7));
    }

    #[test]
    fn stale_entry_on_touched_page_is_a_replay_duplicate() {
        let (mut buf, mut space) = setup(&[(7, AccessType::Read)]);
        space.set_resident(VaBlockIdx(0), page_7());
        space.touched_mut(VaBlockIdx(0)).set(7);
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.duplicates, 1);
        assert_eq!(b.prefetch_hits, 0, "already-touched page is a replay duplicate");
    }

    #[test]
    fn in_batch_same_page_duplicate_is_not_a_prefetch_hit() {
        let (mut buf, mut space) = setup(&[(7, AccessType::Read), (7, AccessType::Read)]);
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.duplicates, 1);
        assert_eq!(b.prefetch_hits, 0);
    }

    #[test]
    fn write_faults_populate_write_mask() {
        let (mut buf, mut space) = setup(&[(3, AccessType::Write), (4, AccessType::Read)]);
        let b = gather(&mut buf, 256, late(), &mut space);
        let g = &b.groups[0];
        assert!(g.write_mask.get(3));
        assert!(!g.write_mask.get(4));
    }

    #[test]
    fn batch_size_bounds_fetch() {
        let pages: Vec<(u64, AccessType)> = (0..300).map(|i| (i, AccessType::Read)).collect();
        let (mut buf, mut space) = setup(&pages);
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.fetched, 256);
        assert_eq!(buf.len(), 44);
    }

    #[test]
    fn empty_buffer_empty_batch() {
        let (mut buf, mut space) = setup(&[]);
        let b = gather(&mut buf, 256, late(), &mut space);
        assert_eq!(b.fetched, 0);
        assert!(b.groups.is_empty());
        assert_eq!(b.new_fault_pages(), 0);
    }
}
