//! The workload trace: every block's page accesses in one flat, packed
//! array.
//!
//! A block's accesses are organised into *steps*: all pages of a step
//! are issued concurrently, and the block advances past a step only once
//! every page of it is resident.
//!
//! A grid's trace is four arrays, however many blocks it has:
//!
//! * `accesses` — one `u32` per access, all blocks and steps
//!   concatenated: the page number in the low 31 bits and the write flag
//!   in bit 31 (`WRITE_BIT`). The engine's pending lists use the same
//!   encoding, so a miss is pushed exactly as the trace stores it.
//! * `step_ends` — the exclusive end offset of each step in `accesses`
//!   (`u64`: a paper-scale SGEMM has ~7.8·10⁹ accesses).
//! * `block_first` — the index of each block's first step in `step_ends`.
//!   A block owns the steps up to the next block's first, so blocks with
//!   zero steps are legal.
//! * `step_costs` — each block's per-step compute cost.
//!
//! That is 4 bytes per access, 8 per step and 16 per block. Generators
//! append straight into the arrays ([`WorkloadTrace::begin_block`],
//! [`push_step`](WorkloadTrace::push_step), …) after one
//! [`reserve`](WorkloadTrace::reserve) from the sizes they know, and
//! readers borrow a block at a time through [`WorkloadTrace::block`].

use crate::addr::GlobalPage;
use sim_engine::SimDuration;

/// Write flag of a packed access (trace entries and the engine's pending
/// lists alike). The page number occupies the low 31 bits.
pub(crate) const WRITE_BIT: u32 = 1 << 31;

/// Pages at or above this number do not fit a packed access: 2³¹ pages
/// of 4 KB is 8 TiB of managed space.
pub const PAGE_LIMIT: u64 = 1 << 31;

/// Pack `page` and its write flag into one trace entry.
#[inline(always)]
fn pack(page: GlobalPage, write: bool) -> u32 {
    assert!(
        page.0 < PAGE_LIMIT,
        "page {} is beyond the trace's 2^31-page limit (8 TiB of managed space)",
        page.0
    );
    page.0 as u32 | if write { WRITE_BIT } else { 0 }
}

/// The page of a packed access.
#[inline(always)]
pub(crate) fn page_of(packed: u32) -> GlobalPage {
    GlobalPage((packed & !WRITE_BIT) as u64)
}

/// A full grid: the blocks of one kernel launch, plus metadata.
#[derive(Debug, Clone, Default)]
pub struct WorkloadTrace {
    /// Human-readable workload name (e.g. "sgemm").
    pub name: String,
    /// Total distinct pages the workload touches (its memory footprint).
    pub footprint_pages: u64,
    accesses: Vec<u32>,
    step_ends: Vec<u64>,
    block_first: Vec<u64>,
    step_costs: Vec<SimDuration>,
}

impl WorkloadTrace {
    /// An empty trace named `name` with a footprint of `footprint_pages`.
    pub fn new(name: impl Into<String>, footprint_pages: u64) -> Self {
        WorkloadTrace {
            name: name.into(),
            footprint_pages,
            ..WorkloadTrace::default()
        }
    }

    /// Reserve room for exactly `blocks` more blocks, `steps` more steps
    /// and `accesses` more accesses, so a generator that knows its size
    /// fills the arrays without regrowing them.
    pub fn reserve(&mut self, blocks: usize, steps: usize, accesses: usize) {
        self.block_first.reserve_exact(blocks);
        self.step_costs.reserve_exact(blocks);
        self.step_ends.reserve_exact(steps);
        self.accesses.reserve_exact(accesses);
    }

    /// Start a new block whose steps each cost `step_cost` of GPU time
    /// at ideal whole-GPU utilisation (step FLOPs ÷ aggregate FLOP rate,
    /// or bytes ÷ device bandwidth for bandwidth-bound kernels).
    pub fn begin_block(&mut self, step_cost: SimDuration) {
        self.block_first.push(self.step_ends.len() as u64);
        self.step_costs.push(step_cost);
    }

    /// Set the newest block's step cost (for kernels whose cost depends
    /// on the block's step count).
    pub fn set_step_cost(&mut self, step_cost: SimDuration) {
        *self
            .step_costs
            .last_mut()
            .expect("set_step_cost before begin_block") = step_cost;
    }

    /// Append a step touching `pages` to the newest block; `write` marks
    /// every page of the step as dirtying. All pages of a step are issued
    /// concurrently.
    pub fn push_step(&mut self, pages: impl IntoIterator<Item = GlobalPage>, write: bool) {
        let before = self.accesses.len();
        self.accesses
            .extend(pages.into_iter().map(|p| pack(p, write)));
        self.end_step(before);
    }

    /// Append a step with per-page write flags to the newest block.
    pub fn push_step_mixed(&mut self, accesses: impl IntoIterator<Item = (GlobalPage, bool)>) {
        let before = self.accesses.len();
        self.accesses
            .extend(accesses.into_iter().map(|(p, w)| pack(p, w)));
        self.end_step(before);
    }

    fn end_step(&mut self, before: usize) {
        assert!(
            !self.block_first.is_empty(),
            "a step needs a block: call begin_block first"
        );
        assert!(
            self.accesses.len() > before,
            "a step must touch at least one page"
        );
        self.step_ends.push(self.accesses.len() as u64);
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_first.len()
    }

    /// Block `i`, borrowed.
    #[inline]
    pub fn block(&self, i: usize) -> BlockView<'_> {
        let first = self.block_first[i] as usize;
        let last = self
            .block_first
            .get(i + 1)
            .map_or(self.step_ends.len(), |&f| f as usize);
        BlockView {
            accesses: &self.accesses,
            ends: &self.step_ends[first..last],
            start: first.checked_sub(1).map_or(0, |s| self.step_ends[s]),
            step_cost: self.step_costs[i],
        }
    }

    /// Every block, in block-ID order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockView<'_>> {
        (0..self.num_blocks()).map(|i| self.block(i))
    }

    /// Total accesses across all blocks.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.len() as u64
    }

    /// Total steps across all blocks.
    pub fn total_steps(&self) -> u64 {
        self.step_ends.len() as u64
    }

    /// Highest page any access touches.
    pub fn max_page(&self) -> Option<GlobalPage> {
        self.accesses
            .iter()
            .map(|&a| a & !WRITE_BIT)
            .max()
            .map(|p| GlobalPage(p as u64))
    }

    /// Heap bytes the trace holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.name.capacity()
            + self.accesses.capacity() * size_of::<u32>()
            + self.step_ends.capacity() * size_of::<u64>()
            + self.block_first.capacity() * size_of::<u64>()
            + self.step_costs.capacity() * size_of::<SimDuration>()
    }
}

/// One block of a [`WorkloadTrace`], borrowed.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// The whole trace's packed accesses.
    accesses: &'a [u32],
    /// This block's step end offsets into `accesses`.
    ends: &'a [u64],
    /// Offset of this block's first access.
    start: u64,
    step_cost: SimDuration,
}

impl<'a> BlockView<'a> {
    /// Number of steps.
    pub fn num_steps(&self) -> usize {
        self.ends.len()
    }

    /// Total page accesses of the block.
    pub fn num_accesses(&self) -> u64 {
        self.ends.last().map_or(0, |&end| end - self.start)
    }

    /// GPU time of one completed step at ideal whole-GPU utilisation.
    pub fn step_cost(&self) -> SimDuration {
        self.step_cost
    }

    /// The accesses of step `s` as `(page, is_write)` pairs.
    pub fn step(&self, s: usize) -> impl Iterator<Item = (GlobalPage, bool)> + 'a {
        self.packed_step(s)
            .iter()
            .map(|&a| (page_of(a), a & WRITE_BIT != 0))
    }

    /// The packed accesses of step `s`.
    #[inline(always)]
    pub(crate) fn packed_step(&self, s: usize) -> &'a [u32] {
        let lo = if s == 0 { self.start } else { self.ends[s - 1] };
        &self.accesses[lo as usize..self.ends[s] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_step_iteration() {
        let mut t = WorkloadTrace::new("t", 3);
        t.begin_block(SimDuration::ZERO);
        t.push_step([GlobalPage(1), GlobalPage(2)], true);
        t.push_step([GlobalPage(3)], false);
        let b = t.block(0);
        assert_eq!(b.num_steps(), 2);
        assert_eq!(b.num_accesses(), 3);
        let s0: Vec<_> = b.step(0).collect();
        assert_eq!(s0, vec![(GlobalPage(1), true), (GlobalPage(2), true)]);
        let s1: Vec<_> = b.step(1).collect();
        assert_eq!(s1, vec![(GlobalPage(3), false)]);
    }

    #[test]
    fn reserve_is_exact() {
        let mut t = WorkloadTrace::new("", 0);
        t.reserve(2, 3, 5);
        t.begin_block(SimDuration::ZERO);
        t.push_step((0..2).map(GlobalPage), false);
        t.push_step([GlobalPage(2)], false);
        t.begin_block(SimDuration::ZERO);
        t.push_step((3..5).map(GlobalPage), true);
        assert_eq!(t.heap_bytes(), 5 * 4 + 3 * 8 + 2 * 16);
    }

    #[test]
    #[should_panic(expected = "begin_block")]
    fn step_before_block_rejected() {
        WorkloadTrace::new("", 0).push_step([GlobalPage(0)], false);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_step_rejected() {
        let mut t = WorkloadTrace::new("", 0);
        t.begin_block(SimDuration::ZERO);
        t.push_step([], false);
    }
}
