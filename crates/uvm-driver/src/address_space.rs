//! The UVM four-level memory hierarchy (paper §III-A): an address space is
//! composed of VA *ranges* (one per `cudaMallocManaged` allocation), each
//! broken into 2 MB *VABlocks*, each composed of 4 KB pages.
//!
//! [`ManagedSpace`] is the single source of truth for page residency: the
//! GPU engine queries it through the [`Residency`] trait on every access,
//! and the driver mutates it while servicing faults and evicting blocks.
//! Every residency write goes through [`ManagedSpace::set_resident`],
//! which publishes the changed 64-page words to the engine.
//!
//! ## Layout: structure-of-arrays
//!
//! Per-VABlock state is stored as parallel arrays keyed by block index,
//! not as one ~300-byte struct per block. The hot paths each read a small,
//! disjoint subset of the fields — gather probes `valid`/`resident`/
//! `touched`, service planning reads `valid`/`resident`/`backed`, the
//! eviction scan walks `resident`/`dirty`/`touched`/`backed` — so splitting
//! the fields keeps each pass striding contiguous 64-byte masks of just
//! the arrays it needs instead of dragging the cold provenance masks
//! (`prefetched_ever`, `evicted_*`) through the cache on every fault.

use gpu_model::{GlobalPage, PageMask, Residency, VaBlockIdx};
use serde::{Deserialize, Serialize};
use sim_engine::units::{pages_for_bytes, PAGES_PER_VABLOCK};

/// One managed allocation (`cudaMallocManaged`), VABlock-aligned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VaRange {
    /// Human-readable label (e.g. "A", "B", "C" for SGEMM's matrices).
    pub name: String,
    /// First page of the range (always VABlock-aligned).
    pub start_page: u64,
    /// Number of valid pages (the actual allocation size).
    pub num_pages: u64,
}

impl VaRange {
    /// Page at `offset` within the range.
    #[inline]
    pub fn page(&self, offset: u64) -> GlobalPage {
        debug_assert!(offset < self.num_pages, "offset beyond allocation");
        GlobalPage(self.start_page + offset)
    }

    /// One past the last valid page.
    #[inline]
    pub fn end_page(&self) -> u64 {
        self.start_page + self.num_pages
    }
}

/// 64-page residency words per VABlock (512 pages).
const WORDS_PER_BLOCK: usize = PAGES_PER_VABLOCK / 64;

/// The managed virtual address space: ranges and per-VABlock state in SoA
/// form.
#[derive(Debug, Clone, Default)]
pub struct ManagedSpace {
    ranges: Vec<VaRange>,
    // Hot arrays — touched on every fault batch.
    /// Pages of each block that belong to a live allocation (a range's
    /// final block may be partial).
    valid: Vec<PageMask>,
    /// Pages currently resident (mapped) on the GPU. The masks are
    /// contiguous, so word `w` of block `b` is global residency word
    /// `b * 8 + w` (`page / 64`) — the word the engine's retry scan reads.
    /// Written only through [`set_resident`](Self::set_resident).
    resident: Vec<PageMask>,
    /// Pages dirtied by write faults (must be written back on eviction).
    dirty: Vec<PageMask>,
    /// Pages with physical backing allocated on the GPU.
    backed: Vec<PageMask>,
    /// Pages the GPU actually accessed during their *current* residency:
    /// set when a page's own fault establishes residency, or when a
    /// resident page absorbs a stale fault entry at gather. Cleared on
    /// eviction and on migration back to the host. `resident ∖ touched`
    /// is exactly "arrived via prefetch, never used yet", which is what
    /// classifies `PrefetchEvicted` at eviction time — no separate
    /// prefetch mask is needed.
    touched: Vec<PageMask>,
    // Cold arrays — provenance bookkeeping read only at eviction/commit
    // attribution and end-of-run analysis.
    /// Pages that were ever brought in by the prefetcher (fault-path
    /// density prefetch or explicit hints) rather than by their own
    /// fault. Never cleared by eviction — feeds the prefetch-waste
    /// analysis (paper §VI-A: prefetched data may be evicted unused).
    prefetched_ever: Vec<PageMask>,
    /// Pages evicted at least once since allocation (or since a host
    /// migration reset their history). A faulting page in this mask is
    /// an `EvictionRefault`, not a `ColdFirstTouch`.
    evicted_ever: Vec<PageMask>,
    /// Per-page verdict of the *most recent* eviction: set if the page
    /// was evicted untouched (evict-before-use), cleared if it had been
    /// used. Refaults landing in this mask close the paper's
    /// prefetch→evict-unused→refault antagonism loop.
    evicted_unused: Vec<PageMask>,
    /// Times each block has been evicted — the eviction *generation
    /// stamp*: the provenance masks above describe history as of
    /// generation `eviction_count`, and a fault on a block with a
    /// non-zero count is a refault.
    eviction_count: Vec<u32>,
    /// Monotone residency change stamp: bumped once per 64-page
    /// residency word whose *value* changed in a
    /// [`set_resident`](Self::set_resident) write (commit, eviction, hint
    /// prefetch, host migration). Published to the engine via
    /// [`Residency::change_seq`] so replays can skip rescanning pending
    /// lists whose covering words are provably unchanged.
    change_seq: u64,
    /// Ring log of the global word indices behind `change_seq`: the entry
    /// for stamp `s` lives at `(s - 1) % CHANGE_LOG_CAP`. Covers the most
    /// recent `CHANGE_LOG_CAP` changes; consumers that fall further
    /// behind are told the log was truncated and must assume every word
    /// changed.
    change_log: Vec<u32>,
}

/// Capacity of the residency change-event ring. One driver pass touches
/// at most (pages migrated + evicted)/64 words plus mask-boundary slack,
/// and the engine drains after every pass, so 32 Ki entries is orders of
/// magnitude beyond any real backlog while costing 128 KB.
const CHANGE_LOG_CAP: usize = 1 << 15;

impl ManagedSpace {
    /// An empty space with no allocations.
    pub fn new() -> Self {
        ManagedSpace::default()
    }

    /// Allocate a managed range of `bytes`, VABlock-aligned, returning its
    /// descriptor. Mirrors `cudaMallocManaged`.
    pub fn alloc(&mut self, bytes: u64, name: impl Into<String>) -> VaRange {
        assert!(bytes > 0, "zero-byte allocation");
        let num_pages = pages_for_bytes(bytes);
        let start_page = (self.num_blocks() * PAGES_PER_VABLOCK) as u64;
        let num_blocks = num_pages.div_ceil(PAGES_PER_VABLOCK as u64);
        for b in 0..num_blocks {
            let first = b * PAGES_PER_VABLOCK as u64;
            let valid_in_block = (num_pages - first).min(PAGES_PER_VABLOCK as u64) as usize;
            let valid = if valid_in_block == PAGES_PER_VABLOCK {
                PageMask::FULL
            } else {
                let mut m = PageMask::EMPTY;
                m.set_span(0, valid_in_block);
                m
            };
            self.valid.push(valid);
            self.resident.push(PageMask::EMPTY);
            self.dirty.push(PageMask::EMPTY);
            self.backed.push(PageMask::EMPTY);
            self.touched.push(PageMask::EMPTY);
            self.prefetched_ever.push(PageMask::EMPTY);
            self.evicted_ever.push(PageMask::EMPTY);
            self.evicted_unused.push(PageMask::EMPTY);
            self.eviction_count.push(0);
        }
        let range = VaRange {
            name: name.into(),
            start_page,
            num_pages,
        };
        self.ranges.push(range.clone());
        range
    }

    /// All allocated ranges.
    pub fn ranges(&self) -> &[VaRange] {
        &self.ranges
    }

    /// Number of VABlocks in the space.
    pub fn num_blocks(&self) -> usize {
        self.valid.len()
    }

    /// Total valid pages across all ranges.
    pub fn total_pages(&self) -> u64 {
        self.ranges.iter().map(|r| r.num_pages).sum()
    }

    /// A block's valid-page mask (immutable for the block's lifetime).
    #[inline]
    pub fn valid(&self, idx: VaBlockIdx) -> &PageMask {
        &self.valid[idx.0 as usize]
    }

    /// A block's resident-page mask.
    #[inline]
    pub fn resident(&self, idx: VaBlockIdx) -> &PageMask {
        &self.resident[idx.0 as usize]
    }

    /// Replace the block's resident mask, logging each 64-page word whose
    /// value changes as a residency change event, in ascending word order
    /// (value-diffed, so e.g. evicting an already-empty word publishes
    /// nothing and subscribed blocks stay clean). The only residency
    /// write: fault service, eviction, hint prefetch and host access all
    /// go through here.
    #[inline]
    pub fn set_resident(&mut self, idx: VaBlockIdx, mask: PageMask) {
        let i = idx.0 as usize;
        let w0 = i * WORDS_PER_BLOCK;
        let old = self.resident[i].words().iter();
        for (w, (o, n)) in old.zip(mask.words()).enumerate() {
            if o != n {
                if self.change_log.len() < CHANGE_LOG_CAP {
                    self.change_log.push((w0 + w) as u32);
                } else {
                    self.change_log[self.change_seq as usize % CHANGE_LOG_CAP] = (w0 + w) as u32;
                }
                self.change_seq += 1;
            }
        }
        self.resident[i] = mask;
    }

    /// A block's dirty-page mask.
    #[inline]
    pub fn dirty(&self, idx: VaBlockIdx) -> &PageMask {
        &self.dirty[idx.0 as usize]
    }

    /// Mutable dirty mask.
    #[inline]
    pub fn dirty_mut(&mut self, idx: VaBlockIdx) -> &mut PageMask {
        &mut self.dirty[idx.0 as usize]
    }

    /// A block's physically-backed mask.
    #[inline]
    pub fn backed(&self, idx: VaBlockIdx) -> &PageMask {
        &self.backed[idx.0 as usize]
    }

    /// Mutable backed mask.
    #[inline]
    pub fn backed_mut(&mut self, idx: VaBlockIdx) -> &mut PageMask {
        &mut self.backed[idx.0 as usize]
    }

    /// A block's touched-during-residency mask.
    #[inline]
    pub fn touched(&self, idx: VaBlockIdx) -> &PageMask {
        &self.touched[idx.0 as usize]
    }

    /// Mutable touched mask.
    #[inline]
    pub fn touched_mut(&mut self, idx: VaBlockIdx) -> &mut PageMask {
        &mut self.touched[idx.0 as usize]
    }

    /// A block's ever-prefetched mask.
    #[inline]
    pub fn prefetched_ever(&self, idx: VaBlockIdx) -> &PageMask {
        &self.prefetched_ever[idx.0 as usize]
    }

    /// Mutable ever-prefetched mask.
    #[inline]
    pub fn prefetched_ever_mut(&mut self, idx: VaBlockIdx) -> &mut PageMask {
        &mut self.prefetched_ever[idx.0 as usize]
    }

    /// A block's ever-evicted mask.
    #[inline]
    pub fn evicted_ever(&self, idx: VaBlockIdx) -> &PageMask {
        &self.evicted_ever[idx.0 as usize]
    }

    /// Mutable ever-evicted mask.
    #[inline]
    pub fn evicted_ever_mut(&mut self, idx: VaBlockIdx) -> &mut PageMask {
        &mut self.evicted_ever[idx.0 as usize]
    }

    /// A block's evicted-unused mask (most recent eviction's verdict).
    #[inline]
    pub fn evicted_unused(&self, idx: VaBlockIdx) -> &PageMask {
        &self.evicted_unused[idx.0 as usize]
    }

    /// Mutable evicted-unused mask.
    #[inline]
    pub fn evicted_unused_mut(&mut self, idx: VaBlockIdx) -> &mut PageMask {
        &mut self.evicted_unused[idx.0 as usize]
    }

    /// The block's eviction generation stamp.
    #[inline]
    pub fn eviction_count(&self, idx: VaBlockIdx) -> u32 {
        self.eviction_count[idx.0 as usize]
    }

    /// Advance the block's eviction generation stamp by one.
    #[inline]
    pub fn bump_eviction_count(&mut self, idx: VaBlockIdx) {
        self.eviction_count[idx.0 as usize] += 1;
    }

    /// Pages of GPU physical memory this block currently holds.
    #[inline]
    pub fn backed_pages(&self, idx: VaBlockIdx) -> usize {
        self.backed[idx.0 as usize].count()
    }

    /// True if the block holds no GPU physical memory.
    #[inline]
    pub fn is_unbacked(&self, idx: VaBlockIdx) -> bool {
        self.backed[idx.0 as usize].is_empty()
    }

    /// Clear the block's hot residency state (`resident`, `dirty`,
    /// `touched`, `backed`) in one stride — the eviction/unmap reset.
    #[inline]
    pub fn clear_block_hot(&mut self, idx: VaBlockIdx) {
        self.set_resident(idx, PageMask::EMPTY);
        let i = idx.0 as usize;
        self.dirty[i] = PageMask::EMPTY;
        self.touched[i] = PageMask::EMPTY;
        self.backed[i] = PageMask::EMPTY;
    }

    /// Count of currently resident pages across the space (diagnostic).
    pub fn resident_pages(&self) -> u64 {
        self.resident.iter().map(|m| m.count() as u64).sum()
    }

    /// True if `page` belongs to some allocation.
    pub fn is_valid(&self, page: GlobalPage) -> bool {
        let vb = page.vablock().0 as usize;
        vb < self.valid.len() && self.valid[vb].get(page.offset_in_vablock())
    }
}

impl Residency for ManagedSpace {
    #[inline]
    fn is_resident(&self, page: GlobalPage) -> bool {
        self.resident[page.vablock().0 as usize].get(page.offset_in_vablock())
    }

    #[inline]
    fn resident_word(&self, page: GlobalPage) -> u64 {
        self.resident[page.vablock().0 as usize].words()[page.offset_in_vablock() / 64]
    }

    #[inline]
    fn change_seq(&self) -> Option<u64> {
        Some(self.change_seq)
    }

    fn changed_words_since(&self, since: u64, visit: &mut dyn FnMut(u64)) -> bool {
        debug_assert!(since <= self.change_seq);
        let backlog = self.change_seq - since;
        if backlog > self.change_log.len() as u64 {
            return false; // ring overwrote part of (since, change_seq]
        }
        for s in since..self.change_seq {
            visit(self.change_log[s as usize % CHANGE_LOG_CAP] as u64);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::{MIB, PAGE_SIZE, VABLOCK_SIZE};

    #[test]
    fn alloc_is_vablock_aligned_and_sized() {
        let mut s = ManagedSpace::new();
        let a = s.alloc(3 * MIB, "a"); // 1.5 VABlocks -> 2 blocks
        assert_eq!(a.start_page, 0);
        assert_eq!(a.num_pages, 768);
        assert_eq!(s.num_blocks(), 2);
        let b = s.alloc(VABLOCK_SIZE, "b");
        assert_eq!(
            b.start_page,
            2 * 512,
            "next range starts on a fresh VABlock"
        );
        assert_eq!(s.num_blocks(), 3);
        assert_eq!(s.total_pages(), 768 + 512);
    }

    #[test]
    fn partial_final_block_valid_mask() {
        let mut s = ManagedSpace::new();
        s.alloc(VABLOCK_SIZE + PAGE_SIZE, "a"); // 513 pages
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(*s.valid(VaBlockIdx(0)), PageMask::FULL);
        assert_eq!(s.valid(VaBlockIdx(1)).count(), 1);
        assert!(s.is_valid(GlobalPage(512)));
        assert!(!s.is_valid(GlobalPage(513)));
    }

    #[test]
    fn resident_word_on_final_partial_word_of_odd_block() {
        let mut s = ManagedSpace::new();
        // 2 full blocks + 67 pages: the final block's valid region ends
        // 3 bits into its second word (global word index 2*8 + 1).
        s.alloc(2 * VABLOCK_SIZE + 67 * PAGE_SIZE, "odd");
        assert_eq!(s.num_blocks(), 3);
        let vb = VaBlockIdx(2);
        assert_eq!(s.valid(vb).count(), 67);
        let base = 2 * 512u64;
        // Mark the last two valid pages resident.
        let mut m = PageMask::EMPTY;
        m.set(65);
        m.set(66);
        s.set_resident(vb, m);
        // The residency word holds exactly those bits: offsets 1 and 2 of
        // the block's partial word, and nothing at or past the valid end.
        let word = s.resident_word(GlobalPage(base + 64));
        assert_eq!(word, (1 << 1) | (1 << 2));
        assert!(!s.is_resident(GlobalPage(base + 64)));
        assert!(s.is_resident(GlobalPage(base + 65)));
        assert!(s.is_resident(GlobalPage(base + 66)));
        assert!(!s.is_valid(GlobalPage(base + 67)));
        assert_eq!(word >> 3, 0, "no phantom residency beyond the valid region");
        // Every page of the word shares the same residency word (the word
        // fetch the per-µTLB dedup loop amortises across 64 pages).
        assert_eq!(s.resident_word(GlobalPage(base + 127)), word);
        // Clearing the block's hot state zeroes the partial word too.
        s.clear_block_hot(vb);
        assert_eq!(s.resident_word(GlobalPage(base + 64)), 0);
    }

    /// The global word indices published since `since`, oldest first.
    fn published_since(s: &ManagedSpace, since: u64) -> Vec<u64> {
        let mut words = Vec::new();
        assert!(s.changed_words_since(since, &mut |w| words.push(w)));
        words
    }

    #[test]
    fn set_resident_publishes_exactly_the_changed_words() {
        let mut s = ManagedSpace::new();
        // 2 full blocks + 67 pages, as in the partial-word test above.
        s.alloc(2 * VABLOCK_SIZE + 67 * PAGE_SIZE, "odd");
        let vb = VaBlockIdx(1);
        let mut m = PageMask::EMPTY;
        m.set(70); // word 1
        m.set(400); // word 6
        let seq = s.change_seq().unwrap();
        s.set_resident(vb, m);
        assert_eq!(published_since(&s, seq), [8 + 1, 8 + 6], "ascending words");
        // Rewriting the identical mask publishes nothing.
        let seq = s.change_seq().unwrap();
        s.set_resident(vb, m);
        assert_eq!(s.change_seq(), Some(seq));
        // Flipping one bit back in each of words 1 and 6 publishes both.
        let mut flipped = m;
        flipped.clear(70);
        flipped.set(401);
        s.set_resident(vb, flipped);
        assert_eq!(published_since(&s, seq), [8 + 1, 8 + 6]);
        // Clearing the partial final block publishes only its non-zero
        // words 0 and 1 (pages 64..67), never the six empty ones.
        let last = VaBlockIdx(2);
        let mut m = PageMask::EMPTY;
        m.set(3);
        m.set(66);
        s.set_resident(last, m);
        let seq = s.change_seq().unwrap();
        s.clear_block_hot(last);
        assert_eq!(published_since(&s, seq), [2 * 8, 2 * 8 + 1]);
    }

    #[test]
    fn residency_tracks_block_masks() {
        let mut s = ManagedSpace::new();
        s.alloc(VABLOCK_SIZE, "a");
        let p = GlobalPage(37);
        assert!(!s.is_resident(p));
        let mut m = PageMask::EMPTY;
        m.set(37);
        s.set_resident(VaBlockIdx(0), m);
        assert!(s.is_resident(p));
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn soa_accessors_cover_all_fields() {
        let mut s = ManagedSpace::new();
        s.alloc(VABLOCK_SIZE, "a");
        let vb = VaBlockIdx(0);
        let mut m = PageMask::EMPTY;
        m.set(1);
        s.set_resident(vb, m);
        s.dirty_mut(vb).set(1);
        s.touched_mut(vb).set(1);
        s.backed_mut(vb).set_range(0, 16);
        s.prefetched_ever_mut(vb).set(2);
        s.evicted_ever_mut(vb).set(3);
        s.evicted_unused_mut(vb).set(3);
        s.bump_eviction_count(vb);
        assert!(s.resident(vb).get(1) && s.dirty(vb).get(1) && s.touched(vb).get(1));
        assert_eq!(s.backed_pages(vb), 16);
        assert!(!s.is_unbacked(vb));
        assert!(s.prefetched_ever(vb).get(2));
        assert!(s.evicted_ever(vb).get(3) && s.evicted_unused(vb).get(3));
        assert_eq!(s.eviction_count(vb), 1);
        s.clear_block_hot(vb);
        assert!(s.resident(vb).is_empty() && s.dirty(vb).is_empty());
        assert!(s.touched(vb).is_empty() && s.is_unbacked(vb));
        // Cold provenance arrays survive the hot-state reset.
        assert!(s.prefetched_ever(vb).get(2) && s.evicted_ever(vb).get(3));
        assert_eq!(s.eviction_count(vb), 1);
    }

    #[test]
    fn range_page_helper() {
        let mut s = ManagedSpace::new();
        let _ = s.alloc(VABLOCK_SIZE, "a");
        let b = s.alloc(VABLOCK_SIZE, "b");
        assert_eq!(b.page(0), GlobalPage(512));
        assert_eq!(b.page(5), GlobalPage(517));
        assert_eq!(b.end_page(), 1024);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_alloc_panics() {
        ManagedSpace::new().alloc(0, "zero");
    }
}
