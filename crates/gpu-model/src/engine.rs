//! Loosely-timed GPU execution model.
//!
//! A workload is a grid of thread blocks; each block carries a
//! page-granularity access trace organised into *steps* (the set of pages
//! the block's warps touch concurrently). The engine keeps up to
//! `max_blocks_resident` blocks active (SM occupancy), issues steps
//! round-robin across active blocks (modelling the interleaved,
//! nondeterministic fault order the paper observes in Fig. 7), raises
//! far-faults for non-resident pages into the [`FaultBuffer`] with per-µTLB
//! deduplication, and stalls blocks until the driver issues a *replay*.
//!
//! Replay semantics follow the hardware (paper §III-E): a replay resumes
//! **all** stalled warps; accesses whose pages are now resident proceed,
//! the rest fault again — generating duplicate faults if their old entries
//! are still in the buffer (which is exactly why the default policy
//! flushes).

use crate::access_counters::{AccessCounterConfig, AccessCounters, AccessNotification};
use crate::addr::{AccessType, GlobalPage};
use crate::fault::{FaultBuffer, FaultEntry};
use crate::trace::{page_of, WorkloadTrace, WRITE_BIT};
use serde::{Deserialize, Serialize};
use sim_engine::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// Read-only residency oracle: "is this page currently mapped on the GPU?"
///
/// Implemented by the UVM driver's address-space bookkeeping; the GPU
/// engine is oblivious to how residency is managed.
pub trait Residency {
    /// True if `page` is resident (mapped) in GPU memory.
    fn is_resident(&self, page: GlobalPage) -> bool;

    /// The 64-page residency word covering `page`: bit `p % 64` holds
    /// the residency of page `(page & !63) + p % 64`. The retry scan
    /// caches this word across consecutive accesses, so streaming
    /// workloads pay one load per 64 pages instead of one per page;
    /// oracles that store residency per page inherit this per-bit
    /// assembly.
    fn resident_word(&self, page: GlobalPage) -> u64 {
        let base = page.0 & !63;
        let mut w = 0u64;
        for b in 0..64 {
            if self.is_resident(GlobalPage(base + b)) {
                w |= 1 << b;
            }
        }
        w
    }

    /// Monotone change stamp over the whole residency map: bumped once
    /// for every 64-page residency word whose *value* changed (commit,
    /// eviction, host migration). `None` (the default) means the oracle
    /// does not publish change events, and the engine must rescan every
    /// pending list on every replay — always correct, never fast.
    fn change_seq(&self) -> Option<u64> {
        None
    }

    /// Enumerate the global word indices (`page / 64`) whose residency
    /// word changed in `(since, change_seq()]`, oldest first, repeats
    /// allowed. Returns `false` when the oracle's change log no longer
    /// reaches back to `since` (the caller must then treat *every* word
    /// as changed). Only meaningful when [`change_seq`](Self::change_seq)
    /// returns `Some`.
    fn changed_words_since(&self, since: u64, visit: &mut dyn FnMut(u64)) -> bool {
        let _ = (since, visit);
        false
    }
}

/// How the engine re-checks a stalled block's pending list after a
/// replay (paper §III-E retry semantics — all three produce bit-identical
/// simulated output; they differ only in host work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RetryMode {
    /// Event-driven: skip the residency walk for blocks whose covering
    /// residency words provably did not change since they stalled, and
    /// apply the retry's counter/buffer effects in closed form.
    #[default]
    Event,
    /// Always rescan every pending entry against the residency oracle
    /// (the pre-event-driven behaviour; reference semantics).
    Scan,
    /// Run the event-driven bookkeeping *and* the full scan, asserting
    /// at every skip opportunity that the closed form reproduces the
    /// scan's exact counter deltas and buffer writes. CI gate mode.
    CrossCheck,
}

/// GPU hardware configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Maximum thread blocks concurrently resident across all SMs.
    pub max_blocks_resident: usize,
    /// Number of µTLBs (fault-dedup domains). Faults for the same page
    /// from the same µTLB coalesce into one buffer entry; from different
    /// µTLBs they duplicate.
    pub num_utlbs: usize,
    /// Maximum outstanding (unserviced) faults a single µTLB tracks;
    /// beyond this the µTLB stalls accesses without recording new faults.
    pub max_outstanding_per_utlb: usize,
    /// Volta-style access counters (paper §VI-B3): when enabled the
    /// hardware counts non-faulting accesses per region and raises
    /// notifications an access-counter-aware eviction policy can use.
    pub access_counters: AccessCounterConfig,
    /// Omniscient per-page use tracking (simulator-level analysis, not a
    /// hardware feature): records every page the kernel actually reads or
    /// writes, enabling prefetch-waste accounting (pages prefetched but
    /// never used — paper §VI-A).
    pub track_page_use: bool,
    /// Replay-retry strategy (see [`RetryMode`]); simulated output is
    /// identical for every mode.
    #[serde(default)]
    pub retry: RetryMode,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            max_blocks_resident: 1280,
            num_utlbs: 80,
            max_outstanding_per_utlb: 16,
            access_counters: AccessCounterConfig::default(),
            track_page_use: false,
            retry: RetryMode::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockStatus {
    /// Waiting for an SM slot.
    Pending,
    /// On an SM, able to issue.
    Runnable,
    /// On an SM, waiting for a replay.
    Stalled,
    /// Finished its trace.
    Done,
}

/// Result of letting the GPU run until it can make no further progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// Every block has completed its trace.
    Done,
    /// All resident blocks are stalled on faults; the driver must act.
    Stalled,
}

/// Counters the engine accumulates (device-side view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Page accesses that hit resident pages.
    pub resident_accesses: u64,
    /// Faults written into the buffer.
    pub faults_raised: u64,
    /// Faults coalesced away by per-µTLB dedup.
    pub faults_coalesced: u64,
    /// Faults suppressed by µTLB outstanding-limit flow control.
    pub faults_throttled: u64,
    /// Faults lost to a full fault buffer.
    pub faults_dropped: u64,
    /// Replays received.
    pub replays: u64,
    /// Completed block steps.
    pub steps_completed: u64,
    /// Retries resolved arithmetically (no residency loads): the block's
    /// covering residency words were unchanged and its µTLB was full with
    /// a disjoint fingerprint, so the whole pending list throttled in
    /// closed form. Zero under [`RetryMode::Scan`].
    #[serde(default)]
    pub retries_skipped: u64,
    /// Pending entries covered by `retries_skipped` (the pages whose
    /// retry effects were applied without touching them).
    #[serde(default)]
    pub retry_pages_skipped: u64,
    /// Stalled blocks marked dirty by a residency change event landing on
    /// a word they were subscribed to (each wakeup forces one real
    /// rescan). Zero under [`RetryMode::Scan`].
    #[serde(default)]
    pub wakeups: u64,
}

impl EngineCounters {
    /// This counter set with the host-side retry-path telemetry
    /// (`retries_skipped` / `retry_pages_skipped` / `wakeups`) zeroed:
    /// the simulated-semantics view, which is equal across every
    /// [`RetryMode`] for the same `(config, workload)`.
    pub fn semantic(&self) -> EngineCounters {
        EngineCounters {
            retries_skipped: 0,
            retry_pages_skipped: 0,
            wakeups: 0,
            ..*self
        }
    }
}

/// The GPU execution engine.
#[derive(Debug)]
pub struct GpuEngine {
    cfg: GpuConfig,
    /// Shared so repeated launches of one kernel (and sweep harnesses that
    /// run the same trace under several configs) skip the deep copy.
    trace: Arc<WorkloadTrace>,
    status: Vec<BlockStatus>,
    cursor: Vec<u32>,
    /// Remaining missing accesses of each stalled block's current step —
    /// retries after a replay only re-check what was missing, not the
    /// whole step. Non-empty exactly while the block is stalled mid-step;
    /// the vectors trade places with `miss_scratch` so their capacity is
    /// reused across the whole launch (no steady-state allocation).
    /// Entries are packed exactly as the trace stores them (page in the
    /// low 31 bits, write flag in [`WRITE_BIT`]) — the retry scan is
    /// bandwidth-bound, and all live pending lists together must stay
    /// L2-resident.
    pending: Vec<Vec<u32>>,
    active: Vec<u32>,
    next_pending: u32,
    /// Outstanding faulted pages per µTLB (dedup + flow-control domain).
    outstanding: Vec<Outstanding>,
    counters: EngineCounters,
    compute_work: SimDuration,
    access_counters: AccessCounters,
    /// One bit per page: set when the kernel actually used the page
    /// (only populated when `track_page_use` is enabled).
    accessed: Vec<u64>,
    rng: SimRng,
    /// Reusable buffer for the current step's missing accesses (same
    /// packed encoding as `pending`).
    miss_scratch: Vec<u32>,
    /// 64-bit fingerprint of each block's pending list (bit `page % 64`),
    /// computed when the block subscribes. Disjointness against the
    /// µTLB's [`Outstanding::filter`] proves no pending page can coalesce.
    pending_fp: Vec<u64>,
    /// Subscription generation per block. Waiter-index entries carry the
    /// generation they were created under; bumping it invalidates every
    /// outstanding entry at once (lazy deletion — dead entries are
    /// dropped when their word's list is next walked or compacted).
    sub_gen: Vec<u32>,
    /// True when a residency word covering the block's pending list
    /// changed since the list was built: the retry must rescan. Cleared
    /// after the rescan (the subscription itself stays live).
    stall_dirty: Vec<bool>,
    /// True while the block's current pending list is registered in the
    /// waiter index. A block may only be treated as clean while
    /// subscribed — otherwise no change event could ever dirty it.
    subscribed: Vec<bool>,
    /// µTLB drain epoch observed when the block last stalled. A retry
    /// only ever happens after at least one drain (`replay()` clears all
    /// outstanding sets), which is what makes "apply the whole pending
    /// list's effects once" the complete retry outcome.
    stall_drain: Vec<u64>,
    /// Waiter index: global residency-word index (`page / 64`) → list of
    /// `(block, generation)` subscriptions. Change events walk only the
    /// lists of words that actually changed.
    waiters: Vec<Vec<(u32, u32)>>,
    /// Oracle change stamp up to which events have been consumed.
    seen_seq: u64,
    /// Set once a change-publishing oracle has been observed; until then
    /// (and always under [`RetryMode::Scan`]) every retry rescans.
    events_live: bool,
    /// Drain epoch shared by every µTLB: bumped each [`replay`](Self::replay)
    /// when the outstanding sets are consumed/cleared. All µTLBs drain
    /// together, so one counter serves them all — it advances exactly
    /// with `counters.replays`, and is kept separate only because it is
    /// hardware-ordering state, not telemetry.
    drain_epoch: u64,
}

/// Capacity cap applied to the retry scratch and per-block pending
/// vectors at replay boundaries: one pathological step (a huge miss
/// list) must not pin its peak allocation for the rest of the launch.
/// 4096 packed entries = 16 KB, comfortably L2-resident.
const RETRY_SCRATCH_CAP: usize = 4096;

/// Waiter lists longer than this are compacted (dead generations dropped)
/// before the next push, bounding lazy-deletion garbage per word.
const WAITER_COMPACT_LEN: usize = 64;

/// Word and bit of `page` in [`Outstanding::bits`]. The bit is
/// `page & 63`, so a 64-page run shares one word. The word folds bits
/// 12..18 of the page into `(page >> 6) & 63`: a plain `page % 4096`
/// slot aliases pages 4096·k apart, which is exactly how blocks 80 apart
/// (one µTLB) of a 256-page-per-block grid line up. Pages `1 << 18`
/// apart share a slot.
#[inline(always)]
fn filter_slot(page: GlobalPage) -> (usize, u64) {
    let word = ((page.0 >> 6) ^ (page.0 >> 12)) & 63;
    (word as usize, 1u64 << (page.0 & 63))
}

/// One µTLB's outstanding (unserviced) faults: its dedup and
/// flow-control domain.
#[derive(Debug)]
struct Outstanding {
    /// Sorted faulted pages, at most `max_outstanding_per_utlb` — small
    /// enough that binary-search + ordered insert beats hashing.
    set: Vec<GlobalPage>,
    /// 64-bit fingerprint of `set` (bit `page % 64`). Only the event
    /// path's closed form reads it, against a pending list's fingerprint.
    filter: u64,
    /// 4096-bit membership filter of `set` (see [`filter_slot`]). A clear
    /// bit proves the page is not outstanding, so with at most 16 of 4096
    /// bits set almost every probe skips the binary search.
    bits: [u64; 64],
}

impl Outstanding {
    fn new(capacity: usize) -> Self {
        Outstanding {
            set: Vec::with_capacity(capacity),
            filter: 0,
            bits: [0; 64],
        }
    }

    #[inline(always)]
    fn contains(&self, page: GlobalPage) -> bool {
        let (w, bit) = filter_slot(page);
        self.bits[w] & bit != 0 && self.set.binary_search(&page).is_ok()
    }

    /// Raise a far-fault for `page`: coalesce against the set, throttle
    /// when the set is full, else write a buffer entry.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn raise(
        &mut self,
        counters: &mut EngineCounters,
        buffer: &mut FaultBuffer,
        max_out: usize,
        page: GlobalPage,
        write: bool,
        utlb: u32,
        now: SimTime,
    ) {
        if self.contains(page) {
            counters.faults_coalesced += 1;
            return;
        }
        if self.set.len() >= max_out {
            counters.faults_throttled += 1;
            return;
        }
        let entry = FaultEntry {
            page,
            access: if write {
                AccessType::Write
            } else {
                AccessType::Read
            },
            timestamp: now,
            utlb,
        };
        if buffer.push(entry) {
            let pos = self.set.partition_point(|&p| p < page);
            self.set.insert(pos, page);
            self.filter |= 1u64 << (page.0 % 64);
            let (w, bit) = filter_slot(page);
            self.bits[w] |= bit;
            counters.faults_raised += 1;
        } else {
            counters.faults_dropped += 1;
        }
    }

    /// Empty the set (a replay drains every µTLB), clearing only the
    /// filter words its entries occupy.
    fn drain(&mut self) {
        for &page in &self.set {
            self.bits[filter_slot(page).0] = 0;
        }
        self.set.clear(); // capacity retained
        self.filter = 0;
    }
}

/// Retry a stalled block's packed pending list through its µTLB.
/// `resident` says whether a page became resident (the clean raise-only
/// path passes `|_| false`); each such hit is counted and handed to
/// `hit`, in list order. Every miss is re-raised; once the set is full
/// that only counts (outstanding pages coalesce, the others throttle)
/// behind the 4096-bit filter. The misses are copied into `misses` only
/// from the first hit on; returns whether there was one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn retry_pending(
    pending: &[u32],
    out: &mut Outstanding,
    counters: &mut EngineCounters,
    buffer: &mut FaultBuffer,
    max_out: usize,
    utlb: u32,
    now: SimTime,
    misses: &mut Vec<u32>,
    mut resident: impl FnMut(GlobalPage) -> bool,
    mut hit: impl FnMut(GlobalPage),
) -> bool {
    let mut had_hit = false;
    for (i, &packed) in pending.iter().enumerate() {
        let page = page_of(packed);
        if resident(page) {
            counters.resident_accesses += 1;
            hit(page);
            if !had_hit {
                had_hit = true;
                misses.extend_from_slice(&pending[..i]);
            }
            continue;
        }
        if had_hit {
            misses.push(packed);
        }
        let write = packed & WRITE_BIT != 0;
        out.raise(counters, buffer, max_out, page, write, utlb, now);
    }
    had_hit
}

impl GpuEngine {
    /// Launch `trace` on a GPU with configuration `cfg`. Accepts an owned
    /// trace or an `Arc` (repeated launches share one without copying).
    pub fn launch(cfg: GpuConfig, trace: impl Into<Arc<WorkloadTrace>>, rng: SimRng) -> Self {
        let trace = trace.into();
        assert!(cfg.max_blocks_resident > 0 && cfg.num_utlbs > 0);
        let n = trace.num_blocks();
        let accessed = if cfg.track_page_use {
            let max_page = trace.max_page().map_or(0, |p| p.0);
            vec![0u64; (max_page as usize + 64) / 64]
        } else {
            Vec::new()
        };
        let access_counters = AccessCounters::new(cfg.access_counters.clone());
        let mut eng = GpuEngine {
            outstanding: (0..cfg.num_utlbs)
                .map(|_| Outstanding::new(cfg.max_outstanding_per_utlb))
                .collect(),
            cfg,
            status: vec![BlockStatus::Pending; n],
            cursor: vec![0; n],
            pending: vec![Vec::new(); n],
            active: Vec::new(),
            next_pending: 0,
            trace,
            counters: EngineCounters::default(),
            compute_work: SimDuration::ZERO,
            access_counters,
            accessed,
            rng,
            miss_scratch: Vec::new(),
            pending_fp: vec![0; n],
            sub_gen: vec![0; n],
            stall_dirty: vec![false; n],
            subscribed: vec![false; n],
            stall_drain: vec![0; n],
            waiters: Vec::new(),
            seen_seq: 0,
            events_live: false,
            drain_epoch: 0,
        };
        eng.refill_active();
        eng
    }

    fn refill_active(&mut self) {
        // The block scheduler prefers lower-numbered blocks (paper §IV-B)
        // but fills slots as they free, so late blocks interleave with
        // stragglers.
        while self.active.len() < self.cfg.max_blocks_resident
            && (self.next_pending as usize) < self.status.len()
        {
            let b = self.next_pending;
            self.next_pending += 1;
            if self.trace.block(b as usize).num_steps() == 0 {
                self.status[b as usize] = BlockStatus::Done;
                continue;
            }
            self.status[b as usize] = BlockStatus::Runnable;
            self.active.push(b);
        }
    }

    #[inline]
    fn utlb_of(&self, block: u32) -> usize {
        (block as usize) % self.cfg.num_utlbs
    }

    /// Attempt the current step of `block`; returns true if it advanced.
    fn attempt_step<R: Residency>(
        &mut self,
        block: u32,
        residency: &R,
        buffer: &mut FaultBuffer,
        now: SimTime,
    ) -> bool {
        let utlb = self.utlb_of(block) as u32;
        let idx = block as usize;
        let track = self.access_counters.is_enabled();
        let use_tracking = !self.accessed.is_empty();

        // Take the block's pending list (non-empty exactly when this is a
        // post-replay retry) and the shared miss buffer; both come back at
        // the end, so their capacity is reused across steps and blocks.
        let mut pending = std::mem::take(&mut self.pending[idx]);
        let mut misses = std::mem::take(&mut self.miss_scratch);
        misses.clear();

        // Event-driven fast path: a retry is *clean* when the oracle
        // publishes change events and no residency word covering
        // `pending` changed since the list was built — the scan would
        // provably see zero hits, so its exact effects can be replayed
        // without loading a single residency word. (`events_live` is
        // never set under `RetryMode::Scan`, so `clean` is false there.)
        let is_retry = !pending.is_empty();
        let clean = is_retry && self.events_live && self.subscribed[idx] && !self.stall_dirty[idx];
        let skip = clean && matches!(self.cfg.retry, RetryMode::Event);
        let check = clean && matches!(self.cfg.retry, RetryMode::CrossCheck);
        let fp = self.pending_fp[idx];

        {
            // Split borrows so one pass over the accesses can check
            // residency and raise faults together: all of a block's misses
            // go through the same µTLB, so interleaving the fault-raising
            // with the scan leaves buffer/counter order unchanged.
            let max_out = self.cfg.max_outstanding_per_utlb;
            let out = &mut self.outstanding[utlb as usize];
            let counters = &mut self.counters;
            let access_counters = &mut self.access_counters;
            let accessed = &mut self.accessed;
            let mut hit = |page: GlobalPage| {
                if track {
                    access_counters.record(page.0);
                }
                if use_tracking {
                    accessed[page.0 as usize / 64] |= 1 << (page.0 % 64);
                }
            };

            // Residency is immutable for the whole engine run, so one
            // residency word can answer 64 consecutive pages. Streaming
            // workloads walk pages in ascending runs; caching the current
            // word turns their scans word-parallel (one load per 64
            // pages) while costing random scans a single compare.
            let mut cur_word_of: u64 = u64::MAX;
            let mut cur_word: u64 = 0;
            let mut resident = |page: GlobalPage| {
                let w = page.0 / 64;
                if w != cur_word_of {
                    cur_word_of = w;
                    cur_word = residency.resident_word(page);
                }
                cur_word & (1u64 << (page.0 % 64)) != 0
            };

            if pending.is_empty() {
                // Fresh attempt: walk the trace step.
                let step = self.cursor[idx] as usize;
                for &packed in self.trace.block(idx).packed_step(step) {
                    let page = page_of(packed);
                    if resident(page) {
                        counters.resident_accesses += 1;
                        hit(page);
                    } else {
                        misses.push(packed);
                        let write = packed & WRITE_BIT != 0;
                        out.raise(counters, buffer, max_out, page, write, utlb, now);
                    }
                }
            } else if skip {
                // Clean retry, no rescan. If the µTLB is already full and
                // the pending fingerprint is disjoint from the outstanding
                // filter, no entry can coalesce or insert: every single one
                // takes the throttle branch, and the whole retry collapses
                // to one add — zero loads, zero stores beyond the counter.
                // Otherwise re-issue the pending list with no hits (same
                // counter deltas, same buffer writes as the scan, still no
                // residency loads). Either way the pending list is
                // unchanged, so the waiter subscription and fingerprint
                // stay valid.
                debug_assert!(
                    self.stall_drain[idx] < self.drain_epoch,
                    "retry without an intervening µTLB drain"
                );
                if out.set.len() >= max_out && fp & out.filter == 0 {
                    let pages = pending.len() as u64;
                    counters.faults_throttled += pages;
                    counters.retries_skipped += 1;
                    counters.retry_pages_skipped += pages;
                } else {
                    retry_pending(
                        &pending,
                        out,
                        counters,
                        buffer,
                        max_out,
                        utlb,
                        now,
                        &mut misses,
                        |_| false,
                        |_| {},
                    );
                }
                self.pending[idx] = pending;
                self.miss_scratch = misses;
                self.status[idx] = BlockStatus::Stalled;
                self.stall_drain[idx] = self.drain_epoch;
                return false;
            } else {
                // Retry: only re-check what was missing last time. The miss
                // list is copied out lazily: in the thrash steady state no
                // pending page became resident, and then `pending` already
                // IS the miss list — the retry writes nothing at all.
                //
                // CrossCheck: snapshot the would-be closed form so the real
                // scan can certify it below. Real asserts (not debug_)
                // so the ci.sh gate bites in release builds too.
                let chk = if check {
                    Some((
                        out.set.len() >= max_out && fp & out.filter == 0,
                        counters.faults_throttled,
                        counters.faults_raised
                            + counters.faults_coalesced
                            + counters.faults_dropped,
                        buffer.len(),
                    ))
                } else {
                    None
                };
                let had_hit = retry_pending(
                    &pending,
                    out,
                    counters,
                    buffer,
                    max_out,
                    utlb,
                    now,
                    &mut misses,
                    resident,
                    hit,
                );
                if !had_hit {
                    if let Some((arith, throttled0, other0, buflen0)) = chk {
                        if arith {
                            assert_eq!(
                                counters.faults_throttled - throttled0,
                                pending.len() as u64,
                                "retry cross-check: arithmetic skip would miscount throttles"
                            );
                            assert_eq!(
                                counters.faults_raised
                                    + counters.faults_coalesced
                                    + counters.faults_dropped,
                                other0,
                                "retry cross-check: arithmetic skip would hide raise/coalesce/drop"
                            );
                            assert_eq!(
                                buffer.len(),
                                buflen0,
                                "retry cross-check: arithmetic skip would hide buffer writes"
                            );
                        }
                    }
                    // Nothing became resident: keep `pending` as-is. The
                    // pending list (and so the subscription fingerprint)
                    // is unchanged — just clear the dirty flag, or build
                    // the missing subscription for a block that stalled
                    // before change events went live.
                    debug_assert!(!pending.is_empty());
                    self.pending[idx] = pending;
                    self.miss_scratch = misses;
                    self.status[idx] = BlockStatus::Stalled;
                    self.stall_drain[idx] = self.drain_epoch;
                    if self.events_live && !self.subscribed[idx] {
                        self.subscribe(idx);
                    } else {
                        self.stall_dirty[idx] = false;
                    }
                    return false;
                }
                assert!(
                    chk.is_none(),
                    "retry cross-check: clean block found a newly-resident page — \
                     a residency mutation was not published as a change event"
                );
                pending.clear();
            }
        }

        if misses.is_empty() {
            self.pending[idx] = pending;
            // Pass the scratch-capacity cap point: a pathological step's
            // huge miss list parks its capacity in the (now empty) pending
            // slot when the step finally completes — release it here so one
            // outlier can't pin its peak allocation for the whole launch.
            if self.pending[idx].capacity() > RETRY_SCRATCH_CAP {
                self.pending[idx].shrink_to(RETRY_SCRATCH_CAP);
            }
            self.miss_scratch = misses;
            if is_retry {
                // The pending list is consumed: invalidate its waiter
                // subscriptions (lazily — entries die on the next walk).
                self.sub_gen[idx] = self.sub_gen[idx].wrapping_add(1);
                self.subscribed[idx] = false;
                self.stall_dirty[idx] = false;
            }
            let block = self.trace.block(idx);
            self.counters.steps_completed += 1;
            self.compute_work += block.step_cost();
            self.cursor[idx] += 1;
            if self.cursor[idx] as usize == block.num_steps() {
                self.status[idx] = BlockStatus::Done;
            }
            return true;
        }

        // The miss list becomes the block's pending list; the emptied old
        // pending vector becomes the next step's scratch. No copies.
        self.pending[idx] = misses;
        self.miss_scratch = pending;
        self.status[idx] = BlockStatus::Stalled;
        self.stall_dirty[idx] = false;
        self.stall_drain[idx] = self.drain_epoch;
        if self.events_live {
            self.subscribe(idx);
        }
        false
    }

    /// Run until every resident block is stalled or the grid completes.
    ///
    /// Visits active blocks starting from a random rotation (modelling the
    /// GPU scheduler's nondeterminism, seeded) and lets each runnable
    /// block issue steps until it stalls on a fault or finishes; freed SM
    /// slots are refilled and newly activated blocks get their turn. `now`
    /// is the virtual time stamped onto raised faults.
    pub fn run<R: Residency>(
        &mut self,
        residency: &R,
        buffer: &mut FaultBuffer,
        now: SimTime,
    ) -> EngineStatus {
        // Residency is immutable for the duration of one run, so the
        // change events the driver produced since the last run are
        // consumed once, up front: they wake (mark dirty) exactly the
        // stalled blocks subscribed to words that changed. Scan mode
        // never drains, keeping `events_live` false and every retry on
        // the reference path.
        if !matches!(self.cfg.retry, RetryMode::Scan) {
            self.drain_residency_events(residency);
        }
        let mut any_done = true;
        loop {
            // Done blocks only appear via attempt_step, so the sweep can be
            // skipped on iterations where no block finished.
            if any_done {
                self.active
                    .retain(|&b| !matches!(self.status[b as usize], BlockStatus::Done));
            }
            let before_refill = self.active.len();
            self.refill_active();
            let refilled = self.active.len() > before_refill;
            if self.active.is_empty() {
                return EngineStatus::Done;
            }

            let mut progressed = false;
            any_done = false;
            let n = self.active.len();
            let rot = if n > 1 { self.rng.index(n) } else { 0 };
            for i in (rot..n).chain(0..rot) {
                let b = self.active[i];
                // Run this block to its next stall (or completion).
                while matches!(self.status[b as usize], BlockStatus::Runnable) {
                    if self.attempt_step(b, residency, buffer, now) {
                        progressed = true;
                    }
                }
                if matches!(self.status[b as usize], BlockStatus::Done) {
                    any_done = true;
                }
            }
            if !progressed && !refilled {
                // Every active block was visited and left Stalled (a Done
                // block would have progressed; no refill means no fresh
                // Runnable block) — the driver must act.
                debug_assert!(self
                    .active
                    .iter()
                    .all(|&b| matches!(self.status[b as usize], BlockStatus::Stalled)));
                return EngineStatus::Stalled;
            }
        }
    }

    /// Deliver a replay: all stalled warps resume and will retry their
    /// accesses on the next [`run`](Self::run). Outstanding µTLB fault
    /// tracking is cleared — retried misses raise fresh faults.
    pub fn replay(&mut self) {
        self.counters.replays += 1;
        // Every µTLB's outstanding set is consumed by this drain: bump
        // the shared drain epoch before clearing, so a subsequent retry
        // can prove it runs against a drained set.
        self.drain_epoch += 1;
        for out in &mut self.outstanding {
            out.drain();
        }
        // Pass boundary: cap the shared retry scratch (its pending-slot
        // twin is capped on step completion) so a pathological step's
        // allocation cannot outlive the pass that needed it.
        self.miss_scratch.shrink_to(RETRY_SCRATCH_CAP);
        // Only blocks on an SM can be stalled.
        for &b in &self.active {
            let s = &mut self.status[b as usize];
            if matches!(s, BlockStatus::Stalled) {
                *s = BlockStatus::Runnable;
            }
        }
    }

    /// Consume the oracle's residency change events: mark every stalled
    /// block subscribed to a changed word dirty (it must rescan its
    /// pending list on retry). Blocks whose words did not change stay
    /// clean and are eligible for the event-driven skip.
    fn drain_residency_events<R: Residency + ?Sized>(&mut self, residency: &R) {
        let Some(seq) = residency.change_seq() else {
            // Oracle without change events: `events_live` stays false and
            // every retry takes the (always-correct) rescan path.
            return;
        };
        if !self.events_live {
            // First contact with a publishing oracle: adopt its stamp and
            // conservatively dirty anything already stalled (nothing can
            // be, on the normal launch path — belt and braces).
            self.events_live = true;
            self.seen_seq = seq;
            self.mark_all_stalled_dirty();
            return;
        }
        if seq == self.seen_seq {
            return;
        }
        if seq < self.seen_seq {
            // A different (or reset) oracle instance: its history is
            // unknowable, so treat every word as changed.
            self.seen_seq = seq;
            self.mark_all_stalled_dirty();
            return;
        }
        let since = self.seen_seq;
        self.seen_seq = seq;
        let waiters = &mut self.waiters;
        let sub_gen = &self.sub_gen;
        let stall_dirty = &mut self.stall_dirty;
        let mut wakeups = 0u64;
        let complete = residency.changed_words_since(since, &mut |word| {
            let Some(list) = waiters.get_mut(word as usize) else {
                return;
            };
            if list.is_empty() {
                return;
            }
            // Walking a changed word's list drops dead generations and
            // wakes (dirties) the live subscribers; the subscriptions
            // stay registered — a block rescans once per wakeup but
            // keeps waiting on the same words until its pending changes.
            list.retain(|&(block, gen)| {
                if sub_gen[block as usize] != gen {
                    return false;
                }
                let dirty = &mut stall_dirty[block as usize];
                if !*dirty {
                    *dirty = true;
                    wakeups += 1;
                }
                true
            });
        });
        self.counters.wakeups += wakeups;
        if !complete {
            // The oracle's change log was truncated: every word may have
            // changed. Correctness first — dirty everything.
            self.mark_all_stalled_dirty();
        }
    }

    /// Conservative fallback: force a rescan of every stalled block.
    fn mark_all_stalled_dirty(&mut self) {
        let mut wakeups = 0u64;
        for (i, s) in self.status.iter().enumerate() {
            if matches!(s, BlockStatus::Stalled) && !self.stall_dirty[i] {
                self.stall_dirty[i] = true;
                wakeups += 1;
            }
        }
        self.counters.wakeups += wakeups;
    }

    /// (Re-)register `block`'s pending list in the waiter index: one
    /// `(block, generation)` entry per covering residency word, and the
    /// list's 64-bit fingerprint for the arithmetic-throttle proof.
    /// Bumping the generation first invalidates any entries from the
    /// block's previous pending list (lazy deletion).
    fn subscribe(&mut self, block: usize) {
        let gen = self.sub_gen[block].wrapping_add(1);
        self.sub_gen[block] = gen;
        let pending = std::mem::take(&mut self.pending[block]);
        let mut fp = 0u64;
        let mut last_word = u64::MAX;
        for &packed in &pending {
            let page = page_of(packed).0;
            fp |= 1u64 << (page % 64);
            let word = page / 64;
            if word == last_word {
                continue;
            }
            last_word = word;
            let wi = word as usize;
            if self.waiters.len() <= wi {
                self.waiters.resize_with(wi + 1, Vec::new);
            }
            let sub_gen = &self.sub_gen;
            let list = &mut self.waiters[wi];
            // All of this call's pushes carry the same (block, gen), so a
            // tail check dedups repeated non-adjacent words too.
            if list.last() == Some(&(block as u32, gen)) {
                continue;
            }
            if list.len() >= WAITER_COMPACT_LEN {
                list.retain(|&(b, g)| sub_gen[b as usize] == g);
            }
            list.push((block as u32, gen));
        }
        self.pending[block] = pending;
        self.pending_fp[block] = fp;
        self.subscribed[block] = true;
        self.stall_dirty[block] = false;
    }

    /// Capacity of the shared retry scratch buffer (test/bench hook for
    /// the pass-boundary shrink cap).
    #[doc(hidden)]
    pub fn retry_scratch_capacity(&self) -> usize {
        self.miss_scratch.capacity()
    }

    /// Largest per-block pending-list capacity (test/bench hook for the
    /// pass-boundary shrink cap).
    #[doc(hidden)]
    pub fn max_pending_capacity(&self) -> usize {
        self.pending.iter().map(Vec::capacity).max().unwrap_or(0)
    }

    /// True once every block has completed.
    pub fn is_done(&self) -> bool {
        self.status.iter().all(|s| matches!(s, BlockStatus::Done))
    }

    /// Accumulated GPU compute time (sum of completed step costs; step
    /// costs are already normalised to ideal whole-GPU utilisation).
    pub fn compute_time(&self) -> SimDuration {
        self.compute_work
    }

    /// Device-side counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The launched workload trace.
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// True if the kernel actually used `page` (requires
    /// `track_page_use`; always false otherwise).
    pub fn page_was_used(&self, page: GlobalPage) -> bool {
        let w = page.0 as usize / 64;
        w < self.accessed.len() && self.accessed[w] & (1 << (page.0 % 64)) != 0
    }

    /// Drain pending access-counter notifications (empty unless the
    /// counters are enabled). Models the driver reading the
    /// notification buffer.
    pub fn drain_access_notifications(&mut self) -> Vec<AccessNotification> {
        self.access_counters.drain()
    }

    /// The access-counter unit (for drop/notify statistics).
    pub fn access_counters(&self) -> &AccessCounters {
        &self.access_counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultBufferConfig;

    /// Residency stub: pages below a threshold are resident.
    struct Below(u64);
    impl Residency for Below {
        fn is_resident(&self, page: GlobalPage) -> bool {
            page.0 < self.0
        }
    }

    fn single_page_trace(pages: &[u64]) -> WorkloadTrace {
        let mut t = WorkloadTrace::new("test", pages.len() as u64);
        t.begin_block(SimDuration::from_nanos(100));
        for &p in pages {
            t.push_step([GlobalPage(p)], false);
        }
        t
    }

    fn engine(trace: WorkloadTrace) -> (GpuEngine, FaultBuffer) {
        (
            GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1)),
            FaultBuffer::new(FaultBufferConfig::default()),
        )
    }

    #[test]
    fn all_resident_runs_to_completion() {
        let (mut eng, mut buf) = engine(single_page_trace(&[0, 1, 2, 3]));
        let st = eng.run(&Below(100), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Done);
        assert!(eng.is_done());
        assert_eq!(eng.counters().resident_accesses, 4);
        assert_eq!(eng.counters().faults_raised, 0);
        assert_eq!(eng.counters().steps_completed, 4);
        assert_eq!(eng.compute_time(), SimDuration::from_nanos(400));
    }

    #[test]
    fn miss_raises_fault_and_stalls() {
        let (mut eng, mut buf) = engine(single_page_trace(&[0, 50]));
        let st = eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Stalled);
        assert_eq!(buf.len(), 1);
        assert_eq!(eng.counters().faults_raised, 1);
        // Replay without fixing residency: refaults (duplicate).
        eng.replay();
        let st = eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Stalled);
        assert_eq!(buf.len(), 2, "refault after replay duplicates the entry");
        // Now make it resident: completes.
        eng.replay();
        let st = eng.run(&Below(100), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Done);
        assert_eq!(eng.counters().replays, 2);
    }

    #[test]
    fn utlb_dedup_coalesces_same_page() {
        // Two steps in one block both missing the same page: second access
        // does not write a second entry while the first is outstanding.
        let mut trace = WorkloadTrace::new("t", 1);
        trace.begin_block(SimDuration::ZERO);
        trace.push_step([GlobalPage(50), GlobalPage(50)], false);
        let (mut eng, mut buf) = engine(trace);
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 1);
        assert_eq!(eng.counters().faults_coalesced, 1);
    }

    #[test]
    fn different_utlbs_duplicate_same_page() {
        // Two blocks (different µTLBs since num_utlbs > 1) fault the same
        // page: two entries appear — the cross-SM duplication the paper
        // describes.
        let mut trace = WorkloadTrace::new("t", 1);
        for _ in 0..2 {
            trace.begin_block(SimDuration::ZERO);
            trace.push_step([GlobalPage(50)], false);
        }
        let (mut eng, mut buf) = engine(trace);
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn occupancy_limits_active_blocks() {
        let cfg = GpuConfig {
            max_blocks_resident: 2,
            ..GpuConfig::default()
        };
        // 4 blocks each stalling on a distinct non-resident page: only the
        // first 2 get SM slots, so only 2 faults are raised.
        let mut trace = WorkloadTrace::new("t", 4);
        for i in 0..4 {
            trace.begin_block(SimDuration::ZERO);
            trace.push_step([GlobalPage(100 + i)], false);
        }
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn throttle_limits_outstanding_per_utlb() {
        let cfg = GpuConfig {
            num_utlbs: 1,
            max_outstanding_per_utlb: 4,
            max_blocks_resident: 8,
            ..GpuConfig::default()
        };
        // One block whose single step misses 10 pages through one µTLB.
        let mut trace = WorkloadTrace::new("t", 10);
        trace.begin_block(SimDuration::ZERO);
        trace.push_step((100..110).map(GlobalPage), false);
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 4);
        assert_eq!(eng.counters().faults_throttled, 6);
    }

    #[test]
    fn step_gates_on_all_pages() {
        // A step touching pages 5 (resident) and 50 (not): block stalls,
        // then completes once 50 is resident; page 5 is not re-counted.
        let mut trace = WorkloadTrace::new("t", 2);
        trace.begin_block(SimDuration::ZERO);
        trace.push_step([GlobalPage(5), GlobalPage(50)], false);
        let (mut eng, mut buf) = engine(trace);
        assert_eq!(
            eng.run(&Below(10), &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        eng.replay();
        assert_eq!(
            eng.run(&Below(100), &mut buf, SimTime::ZERO),
            EngineStatus::Done
        );
    }

    #[test]
    fn empty_grid_is_done_immediately() {
        let trace = WorkloadTrace::new("empty", 0);
        let mut eng = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        assert_eq!(
            eng.run(&Below(0), &mut buf, SimTime::ZERO),
            EngineStatus::Done
        );
        assert!(eng.is_done());
    }

    #[test]
    fn zero_step_blocks_complete_without_running() {
        let mut trace = WorkloadTrace::new("noop", 0);
        trace.begin_block(SimDuration::ZERO);
        let mut eng = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        assert_eq!(
            eng.run(&Below(0), &mut buf, SimTime::ZERO),
            EngineStatus::Done
        );
    }

    #[test]
    fn access_counters_notify_on_hot_regions() {
        let cfg = GpuConfig {
            access_counters: crate::access_counters::AccessCounterConfig {
                enabled: true,
                threshold: 4,
                ..Default::default()
            },
            ..GpuConfig::default()
        };
        // One block re-reading the same resident page 8 times.
        let mut trace = WorkloadTrace::new("hot", 1);
        trace.begin_block(SimDuration::ZERO);
        for _ in 0..8 {
            trace.push_step([GlobalPage(3)], false);
        }
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(100), &mut buf, SimTime::ZERO);
        let notifs = eng.drain_access_notifications();
        assert_eq!(notifs.len(), 2, "8 accesses at threshold 4");
        assert!(notifs.iter().all(|n| n.region == 0));
    }

    #[test]
    fn page_use_tracking_records_only_used_pages() {
        let cfg = GpuConfig {
            track_page_use: true,
            ..GpuConfig::default()
        };
        let mut trace = WorkloadTrace::new("one", 1);
        trace.begin_block(SimDuration::ZERO);
        trace.push_step([GlobalPage(7)], false);
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(100), &mut buf, SimTime::ZERO);
        assert!(eng.page_was_used(GlobalPage(7)));
        assert!(!eng.page_was_used(GlobalPage(6)));
        assert!(
            !eng.page_was_used(GlobalPage(10_000)),
            "out of range is false"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut trace = WorkloadTrace::new("t", 100);
            for i in 0..20 {
                trace.begin_block(SimDuration::ZERO);
                for s in 0..5 {
                    trace.push_step([GlobalPage(100 + i * 5 + s)], false);
                }
            }
            trace
        };
        let run = |seed| {
            let mut eng = GpuEngine::launch(GpuConfig::default(), mk(), SimRng::from_seed(seed));
            let mut buf = FaultBuffer::new(FaultBufferConfig::default());
            eng.run(&Below(0), &mut buf, SimTime::ZERO);
            let (entries, _) = buf.fetch(usize::MAX, SimTime::ZERO + SimDuration::from_secs(1));
            entries.iter().map(|e| e.page.0).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault order");
    }

    /// Event-publishing residency stub mirroring `ManagedSpace`'s
    /// contract: word-granular *value* diffs behind a monotone stamp.
    struct EventSpace {
        words: Vec<u64>,
        seq: u64,
        log: Vec<u32>,
    }
    impl EventSpace {
        fn new(num_pages: u64) -> Self {
            EventSpace {
                words: vec![0; num_pages.div_ceil(64) as usize],
                seq: 0,
                log: Vec::new(),
            }
        }
        fn set_page(&mut self, page: u64, resident: bool) {
            let w = (page / 64) as usize;
            let old = self.words[w];
            if resident {
                self.words[w] |= 1 << (page % 64);
            } else {
                self.words[w] &= !(1 << (page % 64));
            }
            if self.words[w] != old {
                self.log.push(w as u32);
                self.seq += 1;
            }
        }
        fn fill_resident(&mut self, pages: std::ops::Range<u64>) {
            for p in pages {
                self.set_page(p, true);
            }
        }
    }
    impl Residency for EventSpace {
        fn is_resident(&self, page: GlobalPage) -> bool {
            let w = (page.0 / 64) as usize;
            w < self.words.len() && self.words[w] >> (page.0 % 64) & 1 == 1
        }
        fn resident_word(&self, page: GlobalPage) -> u64 {
            self.words.get((page.0 / 64) as usize).copied().unwrap_or(0)
        }
        fn change_seq(&self) -> Option<u64> {
            Some(self.seq)
        }
        fn changed_words_since(&self, since: u64, visit: &mut dyn FnMut(u64)) -> bool {
            for s in since..self.seq {
                visit(self.log[s as usize] as u64);
            }
            true
        }
    }

    fn multi_block_trace(blocks_pages: &[&[u64]]) -> WorkloadTrace {
        let footprint = blocks_pages.iter().map(|p| p.len() as u64).sum();
        let mut trace = WorkloadTrace::new("test", footprint);
        for pages in blocks_pages {
            trace.begin_block(SimDuration::from_nanos(100));
            trace.push_step(pages.iter().map(|&p| GlobalPage(p)), false);
        }
        trace
    }

    fn retry_cfg(retry: RetryMode) -> GpuConfig {
        GpuConfig {
            num_utlbs: 1,
            max_outstanding_per_utlb: 4,
            retry,
            ..GpuConfig::default()
        }
    }

    /// Two stalled blocks share one full µTLB; on replay, one refills
    /// the set by re-raising (raise-only path) and the other — whose
    /// fingerprint is disjoint from the refilled filter — resolves
    /// arithmetically without touching the residency oracle.
    fn run_skip_scenario(retry: RetryMode) -> (GpuEngine, FaultBuffer) {
        let trace = multi_block_trace(&[&[0, 1, 2, 3], &[68, 69, 70, 71]]);
        let mut eng = GpuEngine::launch(retry_cfg(retry), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let space = EventSpace::new(128);
        // Pass 1: first-visited block raises 4 faults (set full), the
        // other throttles all 4 of its pages.
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        assert_eq!(buf.len(), 4);
        assert_eq!(eng.counters().faults_raised, 4);
        assert_eq!(eng.counters().faults_throttled, 4);
        // Replay without any residency change: both pending lists are
        // clean, so pass 2 must reproduce pass 1 exactly.
        eng.replay();
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        (eng, buf)
    }

    #[test]
    fn clean_retry_resolves_arithmetically() {
        let (eng, buf) = run_skip_scenario(RetryMode::Event);
        let c = eng.counters();
        assert_eq!(buf.len(), 8, "raise-only path re-raised the same 4 entries");
        assert_eq!(c.faults_raised, 8);
        assert_eq!(c.faults_throttled, 8);
        assert_eq!(
            c.retries_skipped, 1,
            "exactly one block took the closed form"
        );
        assert_eq!(c.retry_pages_skipped, 4);
        assert_eq!(c.wakeups, 0, "no residency word changed");
    }

    #[test]
    fn skip_counters_match_scan_semantics() {
        let (ev, mut ev_buf) = run_skip_scenario(RetryMode::Event);
        let (sc, mut sc_buf) = run_skip_scenario(RetryMode::Scan);
        let (ck, mut ck_buf) = run_skip_scenario(RetryMode::CrossCheck);
        assert_eq!(sc.counters().retries_skipped, 0, "scan mode never skips");
        assert_eq!(ev.counters().semantic(), sc.counters().semantic());
        assert_eq!(ck.counters().semantic(), sc.counters().semantic());
        let pages = |b: &mut FaultBuffer| {
            let (entries, _) = b.fetch(usize::MAX, SimTime::ZERO + SimDuration::from_secs(1));
            entries
                .iter()
                .map(|e| (e.page.0, e.utlb))
                .collect::<Vec<_>>()
        };
        let want = pages(&mut sc_buf);
        assert_eq!(pages(&mut ev_buf), want, "bit-identical fault stream");
        assert_eq!(pages(&mut ck_buf), want);
    }

    #[test]
    fn residency_change_wakes_subscriber_and_rescans() {
        let trace = multi_block_trace(&[&[0, 1, 2, 3]]);
        let mut eng = GpuEngine::launch(retry_cfg(RetryMode::Event), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut space = EventSpace::new(128);
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        // Eviction-style invalidation on the subscribed word: flipping
        // any bit of word 0 changes its value, so the stalled block must
        // be woken and rescanned even though its own pages are untouched.
        space.set_page(63, true);
        space.set_page(63, false);
        eng.replay();
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        let c = eng.counters();
        assert!(
            c.wakeups >= 1,
            "word-value change must dirty the subscriber"
        );
        assert_eq!(c.retries_skipped, 0, "dirty block must rescan, not skip");
        assert_eq!(buf.len(), 8, "rescan re-raised the real refaults");
        // Service the faults: the wake leads to forward progress.
        space.fill_resident(0..4);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Done);
    }

    #[test]
    fn unrelated_word_change_does_not_wake() {
        let trace = multi_block_trace(&[&[0, 1, 2, 3]]);
        let mut eng = GpuEngine::launch(retry_cfg(RetryMode::Event), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut space = EventSpace::new(512);
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        // Change a word the block is not subscribed to (page 400 lives in
        // word 6; the block's pending pages all live in word 0).
        space.set_page(400, true);
        eng.replay();
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        let c = eng.counters();
        assert_eq!(
            c.wakeups, 0,
            "change to an unsubscribed word is not a wakeup"
        );
        // The set drained at replay and the filter cleared, so the clean
        // block re-raises (raise-only closed form), identical to a scan.
        assert_eq!(buf.len(), 8);
        assert_eq!(c.faults_raised, 8);
    }

    /// An alias of an outstanding page (same filter slot, another page)
    /// must throttle, never coalesce — on the fresh attempt and on a
    /// full-set retry alike.
    #[test]
    fn aliasing_page_throttles_not_coalesces() {
        let alias = 7 + (1 << 18);
        assert_eq!(filter_slot(GlobalPage(7)), filter_slot(GlobalPage(alias)));
        // The fold keeps a 256-page-per-block grid's µTLB siblings
        // (80 blocks = 5 · 4096 pages apart) out of each other's slots.
        assert_ne!(
            filter_slot(GlobalPage(7)),
            filter_slot(GlobalPage(7 + 80 * 256))
        );
        for retry in [RetryMode::Event, RetryMode::Scan] {
            let cfg = GpuConfig {
                max_outstanding_per_utlb: 1,
                ..retry_cfg(retry)
            };
            let trace = multi_block_trace(&[&[7, alias, 7]]);
            let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(3));
            let mut buf = FaultBuffer::new(FaultBufferConfig::default());
            let space = EventSpace::new(1 << 19);
            for pass in 1..=2u64 {
                assert_eq!(
                    eng.run(&space, &mut buf, SimTime::ZERO),
                    EngineStatus::Stalled
                );
                let c = eng.counters();
                assert_eq!(c.faults_raised, pass, "{retry:?}");
                assert_eq!(c.faults_throttled, pass, "{retry:?}: the alias throttles");
                assert_eq!(
                    c.faults_coalesced, pass,
                    "{retry:?}: only the true repeat coalesces"
                );
                eng.replay();
            }
        }
    }

    #[test]
    fn outstanding_page_raises_again_after_replay() {
        for retry in [RetryMode::Event, RetryMode::Scan] {
            let trace = multi_block_trace(&[&[9, 9]]);
            let mut eng = GpuEngine::launch(retry_cfg(retry), trace, SimRng::from_seed(3));
            let mut buf = FaultBuffer::new(FaultBufferConfig::default());
            let space = EventSpace::new(128);
            assert_eq!(
                eng.run(&space, &mut buf, SimTime::ZERO),
                EngineStatus::Stalled
            );
            assert_eq!(eng.counters().faults_raised, 1);
            assert_eq!(eng.counters().faults_coalesced, 1);
            eng.replay();
            let out = &eng.outstanding[0];
            assert!(
                out.set.is_empty() && out.filter == 0,
                "{retry:?}: replay drains the set"
            );
            assert_eq!(
                out.bits, [0; 64],
                "{retry:?}: replay clears the drained words"
            );
            assert_eq!(
                eng.run(&space, &mut buf, SimTime::ZERO),
                EngineStatus::Stalled
            );
            assert_eq!(
                eng.counters().faults_raised,
                2,
                "{retry:?}: page 9 raises again"
            );
            assert_eq!(eng.counters().faults_coalesced, 2);
            assert_eq!(buf.len(), 2);
        }
    }

    /// Reference semantics of one µTLB fault, on a plain sorted set with
    /// no filters: coalesce if outstanding, else throttle when full, else
    /// write a buffer entry.
    fn raise_model(
        set: &mut Vec<GlobalPage>,
        counters: &mut EngineCounters,
        buffer: &mut FaultBuffer,
        max_out: usize,
        page: GlobalPage,
        write: bool,
    ) {
        match set.binary_search(&page) {
            Ok(_) => counters.faults_coalesced += 1,
            Err(_) if set.len() >= max_out => counters.faults_throttled += 1,
            Err(pos) => {
                let access = if write {
                    AccessType::Write
                } else {
                    AccessType::Read
                };
                let entry = FaultEntry {
                    page,
                    access,
                    timestamp: SimTime::ZERO,
                    utlb: 0,
                };
                if buffer.push(entry) {
                    set.insert(pos, page);
                    counters.faults_raised += 1;
                } else {
                    counters.faults_dropped += 1;
                }
            }
        }
    }

    /// Six distinct pages plus two aliases of each (same filter slot);
    /// few enough that lists repeat pages.
    fn aliased_page(k: u64) -> u64 {
        100 + k % 6 + (k / 6 % 3) * (1 << 18)
    }

    proptest::proptest! {
        #[test]
        fn retry_pending_matches_per_page_raise(
            prefill in proptest::collection::vec(0u64..18, 0..24),
            pending in proptest::collection::vec(0u64..36, 1..40),
            resident in proptest::collection::vec(0u64..18, 0..6),
            max_out in 1usize..=20,
            capacity in 1usize..12,
        ) {
            proptest::prop_assert_eq!(
                filter_slot(GlobalPage(aliased_page(0))),
                filter_slot(GlobalPage(aliased_page(6)))
            );
            let resident: Vec<u64> = resident.into_iter().map(aliased_page).collect();
            let pending: Vec<u32> = pending
                .into_iter()
                .map(|k| aliased_page(k / 2) as u32 | if k % 2 == 1 { WRITE_BIT } else { 0 })
                .collect();
            let buffer_cfg = FaultBufferConfig {
                capacity,
                ..FaultBufferConfig::default()
            };
            for scan in [true, false] {
                // `scan` checks residency (dirty rescan); otherwise no page
                // can hit (clean raise-only re-issue).
                let is_resident = |p: GlobalPage| scan && resident.contains(&p.0);
                let mut want_set = Vec::new();
                let mut want = EngineCounters::default();
                let mut want_buf = FaultBuffer::new(buffer_cfg.clone());
                let mut got_set = Outstanding::new(max_out);
                let mut got = EngineCounters::default();
                let mut got_buf = FaultBuffer::new(buffer_cfg.clone());
                // Start full or part-full, possibly with a full buffer.
                for &k in &prefill {
                    let page = GlobalPage(aliased_page(k));
                    raise_model(&mut want_set, &mut want, &mut want_buf, max_out, page, false);
                    got_set.raise(&mut got, &mut got_buf, max_out, page, false, 0, SimTime::ZERO);
                }

                let mut want_misses = Vec::new();
                let mut want_hits = Vec::new();
                let mut want_had_hit = false;
                for (i, &packed) in pending.iter().enumerate() {
                    let page = page_of(packed);
                    if is_resident(page) {
                        want.resident_accesses += 1;
                        want_hits.push(page);
                        if !want_had_hit {
                            want_had_hit = true;
                            want_misses.extend_from_slice(&pending[..i]);
                        }
                    } else {
                        if want_had_hit {
                            want_misses.push(packed);
                        }
                        let write = packed & WRITE_BIT != 0;
                        raise_model(&mut want_set, &mut want, &mut want_buf, max_out, page, write);
                    }
                }

                let mut got_misses = Vec::new();
                let mut got_hits = Vec::new();
                let got_had_hit = retry_pending(
                    &pending, &mut got_set, &mut got, &mut got_buf, max_out, 0, SimTime::ZERO,
                    &mut got_misses, is_resident, |p| got_hits.push(p),
                );

                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(got_had_hit, want_had_hit);
                proptest::prop_assert_eq!(&got_misses, &want_misses);
                proptest::prop_assert_eq!(&got_hits, &want_hits);
                proptest::prop_assert_eq!(&got_set.set, &want_set);
                let far = SimTime::ZERO + SimDuration::from_secs(1);
                proptest::prop_assert_eq!(
                    got_buf.fetch(usize::MAX, far).0,
                    want_buf.fetch(usize::MAX, far).0
                );
                // Both filters describe exactly the set.
                let mut bits = [0u64; 64];
                let mut filter = 0u64;
                for &p in &want_set {
                    let (w, bit) = filter_slot(p);
                    bits[w] |= bit;
                    filter |= 1 << (p.0 % 64);
                }
                proptest::prop_assert_eq!(got_set.bits, bits);
                proptest::prop_assert_eq!(got_set.filter, filter);
            }
        }
    }

    #[test]
    fn retry_scratch_capacity_stays_capped() {
        // One pathological step touching 100k distinct non-resident
        // pages balloons the pending list; once the step completes the
        // parked capacity must be released back to the steady-state cap.
        let pages: Vec<u64> = (0..100_000).collect();
        let trace = multi_block_trace(&[&pages]);
        let mut eng = GpuEngine::launch(
            GpuConfig {
                num_utlbs: 1,
                max_outstanding_per_utlb: 200_000,
                ..GpuConfig::default()
            },
            trace,
            SimRng::from_seed(3),
        );
        let mut buf = FaultBuffer::new(FaultBufferConfig {
            capacity: 200_000,
            ..FaultBufferConfig::default()
        });
        let mut space = EventSpace::new(100_000);
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        assert!(
            eng.max_pending_capacity() > RETRY_SCRATCH_CAP,
            "pathological step must first balloon the pending list"
        );
        space.fill_resident(0..100_000);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Done);
        assert!(
            eng.max_pending_capacity() <= RETRY_SCRATCH_CAP,
            "completed step must release parked pending capacity, got {}",
            eng.max_pending_capacity()
        );
        assert!(
            eng.retry_scratch_capacity() <= RETRY_SCRATCH_CAP,
            "miss scratch must shrink at replay, got {}",
            eng.retry_scratch_capacity()
        );
    }
}
