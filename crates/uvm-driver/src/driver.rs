//! The top-level UVM driver loop: batch pre-processing, fault service,
//! prefetching, eviction, and the replay policy — the object of study of
//! the paper, instrumented with the same category taxonomy its authors
//! added to the real kernel module.

use crate::address_space::ManagedSpace;
use crate::address_space::VaRange;
use crate::batch::{self, BatchArena, FaultGroup};
use crate::lru::LruList;
use crate::pma::Pma;
use crate::policy::{EvictionPolicy, ReplayPolicy};
use crate::prefetch::{compute_prefetch, PrefetchPolicy, ResolvedPrefetch};
use crate::thrash::{ThrashConfig, ThrashDetector};
use gpu_model::dma::TransferLog;
use gpu_model::{AccessNotification, FaultBuffer, GlobalPage, PageMask, VaBlockIdx};
use metrics::{
    Attribution, Category, Counters, EventKind, Histogram, LineageEventKind, LineageLog,
    LineageRecorder, Offender, Sample, ServicePhaseWall, SpanCat, SpanKind, SpanRecorder, Timers,
    Timeseries, TimeseriesConfig, TimeseriesSampler, TraceRecorder, NO_BLOCK,
};
use serde::{Deserialize, Serialize};
use sim_engine::units::{GIB, PAGES_PER_VABLOCK, PAGE_SIZE};
use sim_engine::{CostModel, SimDuration, SimRng, SimTime};
use std::time::Instant;

/// Driver configuration (module-load parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriverConfig {
    /// Faults fetched per batch (stock default 256).
    pub batch_size: usize,
    /// Replay policy (stock default BatchFlush).
    pub replay_policy: ReplayPolicy,
    /// Prefetch policy (stock default: density, threshold 51, big pages).
    pub prefetch: PrefetchPolicy,
    /// Eviction aging policy (stock default: fault-driven LRU).
    pub eviction: EvictionPolicy,
    /// GPU physical memory size (Titan V: 12 GB).
    pub gpu_memory_bytes: u64,
    /// Physical allocation granularity in pages (stock: a full VABlock,
    /// 512). Paper §VI-B2 suggests flexible granularity; smaller
    /// power-of-two values allocate backing lazily per sub-region.
    pub alloc_granularity_pages: usize,
    /// Per-fault trace capture (Fig. 7 / Fig. 8 data), armed with this
    /// buffer capacity (events beyond it are counted and dropped).
    pub trace_capacity: Option<usize>,
    /// Batch-lifecycle span recording (Chrome-trace export), armed with
    /// this buffer capacity (events beyond it are counted and dropped,
    /// with dropped leaf *time* still accounted per category). Unarmed
    /// by default: the recorder is then a no-op enum branch on hot paths.
    pub span_capacity: Option<usize>,
    /// Thrashing detection + pinning (off = stock behaviour).
    pub thrash: ThrashConfig,
    /// Inert: the driver ignores it and always services a batch on the
    /// calling thread. Kept only because the benchmark crate under
    /// `perfbench/` still writes and reads this field; drop it together
    /// with those uses.
    #[serde(default)]
    pub service_workers: usize,
    /// Simulated-time telemetry sampling, and with it the fault-lineage
    /// event log and anomaly-triggered flight recorder (off by default;
    /// when on, the driver snapshots its cumulative signals on a
    /// virtual-time grid and emits per-VABlock lifecycle events from the
    /// serial commit path only — deterministic at any thread count).
    #[serde(default)]
    pub timeseries: Option<TimeseriesConfig>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            batch_size: 256,
            replay_policy: ReplayPolicy::default(),
            prefetch: PrefetchPolicy::default(),
            eviction: EvictionPolicy::default(),
            gpu_memory_bytes: 12 * GIB,
            alloc_granularity_pages: PAGES_PER_VABLOCK,
            trace_capacity: None,
            span_capacity: None,
            thrash: ThrashConfig::default(),
            service_workers: 0,
            timeseries: None,
        }
    }
}

/// Outcome of one driver pass (one batch worth of work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassResult {
    /// Virtual time the pass consumed on the driver's critical path.
    pub time: SimDuration,
    /// Replay notifications issued (0 means the GPU must keep waiting —
    /// only the Once policy does this while the buffer still has entries).
    pub replays: u64,
}

/// The simulated UVM driver.
#[derive(Debug)]
pub struct UvmDriver {
    cfg: DriverConfig,
    resolved_prefetch: ResolvedPrefetch,
    cost: CostModel,
    space: ManagedSpace,
    pma: Pma,
    lru: LruList,
    rng: SimRng,
    timers: Timers,
    counters: Counters,
    trace: TraceRecorder,
    spans: SpanRecorder,
    xfer: TransferLog,
    first_touch_done: bool,
    thrash: ThrashDetector,
    faults_per_batch: Histogram,
    vablocks_per_batch: Histogram,
    /// Batch pre-processing buffers, reused across passes (taken out and
    /// put back around the service loop so groups can be read while the
    /// driver mutates itself).
    arena: BatchArena,
    /// Eviction scratch: pinned blocks popped from the LRU while hunting
    /// for a victim, re-inserted afterwards. Reused across evictions.
    evict_skipped: Vec<VaBlockIdx>,
    /// Victim-candidate scratch for ranking eviction policies
    /// ([`EvictionPolicy::Random`]/[`EvictionPolicy::AccessFrequency`]),
    /// reused across evictions.
    evict_candidates: Vec<VaBlockIdx>,
    /// Dedicated PRNG stream for [`EvictionPolicy::Random`] victim
    /// draws, derived from the master seed so the allocation stream
    /// (and with it every other policy's behaviour) is untouched.
    evict_rng: SimRng,
    /// Per-VABlock serviced-fault totals feeding the
    /// [`EvictionPolicy::AccessFrequency`] ranking; preallocated one
    /// slot per block and bumped only on the serial commit path.
    block_faults: Vec<u64>,
    /// Host wall time spent in `process_pass`, flushed to the
    /// process-global [`metrics::phase`] totals when the driver drops.
    phase_wall: ServicePhaseWall,
    /// Simulated-time telemetry sampler (disabled-inert by default).
    sampler: TimeseriesSampler,
    /// Per-pass critical-path sim-time distribution, feeding the sampled
    /// batch-latency percentiles. Only maintained while sampling is on.
    pass_ns: Histogram,
    /// The one provenance record: every lifecycle event, emitted only
    /// from serial commit paths, folds into the fault-provenance ledger
    /// (per-cause totals that partition [`Counters`] and the transfer log
    /// exactly) and the per-VABlock offender stats, always; armed, the
    /// recorder also stores the events and runs the flight recorder.
    lineage: LineageRecorder,
}

impl UvmDriver {
    /// Load the driver for `space` with the given configuration.
    ///
    /// The prefetch policy is resolved against the subscription ratio
    /// (footprint ÷ GPU memory) at load time, mirroring how the adaptive
    /// mode would decide.
    pub fn new(cfg: DriverConfig, cost: CostModel, space: ManagedSpace, rng: SimRng) -> Self {
        assert!(cfg.batch_size > 0, "batch size must be nonzero");
        assert!(
            cfg.alloc_granularity_pages.is_power_of_two()
                && (1..=PAGES_PER_VABLOCK).contains(&cfg.alloc_granularity_pages),
            "allocation granularity must be a power of two in 1..=512"
        );
        assert!(
            cfg.gpu_memory_bytes >= cfg.alloc_granularity_pages as u64 * PAGE_SIZE,
            "GPU memory smaller than one allocation unit"
        );
        let subscription = (space.total_pages() * PAGE_SIZE) as f64 / cfg.gpu_memory_bytes as f64;
        let resolved_prefetch = cfg.prefetch.resolve(subscription);
        let trace = cfg
            .trace_capacity
            .map_or_else(TraceRecorder::disabled, TraceRecorder::with_capacity);
        let spans = cfg
            .span_capacity
            .map_or_else(SpanRecorder::disabled, SpanRecorder::bounded);
        let sampler = cfg
            .timeseries
            .as_ref()
            .map_or_else(TimeseriesSampler::disabled, TimeseriesSampler::new);
        let evict_rng = rng.derive(0xE71C);
        UvmDriver {
            resolved_prefetch,
            cost,
            pma: Pma::new(cfg.gpu_memory_bytes),
            lru: LruList::new(space.num_blocks()),
            thrash: ThrashDetector::new(cfg.thrash.clone(), space.num_blocks()),
            block_faults: vec![0; space.num_blocks()],
            lineage: LineageRecorder::new(cfg.timeseries.is_some(), space.num_blocks()),
            phase_wall: ServicePhaseWall::default(),
            space,
            rng,
            timers: Timers::default(),
            counters: Counters::default(),
            trace,
            spans,
            xfer: TransferLog::default(),
            first_touch_done: false,
            faults_per_batch: Histogram::default(),
            vablocks_per_batch: Histogram::default(),
            arena: BatchArena::default(),
            evict_skipped: Vec::new(),
            evict_candidates: Vec::new(),
            evict_rng,
            sampler,
            pass_ns: Histogram::default(),
            cfg,
        }
    }

    /// The managed address space (the GPU engine's residency oracle).
    pub fn space(&self) -> &ManagedSpace {
        &self.space
    }

    /// Charge `d` to `cat` and, when span recording is on, record the
    /// matching leaf span starting at `start`. Every driver time charge
    /// goes through here (or an inline equivalent), which is what makes
    /// captured span durations reconcile exactly with [`Timers`].
    #[inline]
    fn charge_span(
        &mut self,
        cat: Category,
        kind: SpanKind,
        start: SimTime,
        d: SimDuration,
        a: u64,
        b: u64,
    ) -> SimDuration {
        self.timers.charge(cat, d);
        if !d.is_zero() {
            self.spans.leaf_args(kind, cat, start, d, a, b);
        }
        d
    }

    /// Process one batch of faults: fetch, pre-process, service every
    /// VABlock group (allocating, prefetching, migrating, mapping, and
    /// evicting as needed), then apply the replay policy.
    pub fn process_pass(&mut self, buffer: &mut FaultBuffer, now: SimTime) -> PassResult {
        let pass_start = Instant::now();
        let mut t = SimDuration::ZERO;
        self.spans.begin(
            SpanKind::Pass,
            SpanCat::Batch,
            now,
            self.counters.batches,
            0,
        );

        if !self.first_touch_done {
            self.first_touch_done = true;
            t += self.charge_span(
                Category::Preprocess,
                SpanKind::FirstTouch,
                now + t,
                self.cost.uvm_first_touch(),
                0,
                0,
            );
        }
        t += self.charge_span(
            Category::Preprocess,
            SpanKind::InterruptWake,
            now + t,
            self.cost.interrupt_wake(),
            0,
            0,
        );

        // Entries are read after the wakeup (and any first-touch) work, so
        // faults raised just before the interrupt have had their payloads
        // land; only a genuine race costs polls.
        self.thrash.on_batch();
        // Take the arena out of the driver for the duration of the pass so
        // the groups can be iterated while `service_group(&mut self)` runs;
        // put it back below to keep its buffers for the next pass.
        let mut arena = std::mem::take(&mut self.arena);
        batch::gather_into(
            buffer,
            self.cfg.batch_size,
            now + t,
            &mut self.space,
            &mut arena,
        );
        let batch = &arena.batch;
        let mut pre = self.cost.fault_fetch(batch.fetched) + self.cost.fault_poll(batch.polls);
        if batch.fetched > 0 {
            pre += self.cost.batch_sort();
            self.counters.batches += 1;
        }
        t += self.charge_span(
            Category::Preprocess,
            SpanKind::FetchSort,
            now + t,
            pre,
            batch.fetched,
            batch.groups.len() as u64,
        );
        self.counters.faults_fetched += batch.fetched;
        self.counters.duplicate_faults += batch.duplicates;
        self.counters.polls += batch.polls;
        // Provenance: gather already split the discarded entries into
        // prefetch hits (absorbed by an untouched prefetched page) and
        // replay duplicates. Neither has a lineage kind, so they are the
        // ledger's only direct writes; the non-duplicate entries are
        // classified at commit against each block's eviction history.
        self.lineage
            .note_duplicates(batch.prefetch_hits, batch.duplicates - batch.prefetch_hits);
        if batch.duplicates > 0 {
            self.spans
                .instant(SpanKind::DuplicatesFiltered, now + t, batch.duplicates, 0);
        }
        if batch.fetched > 0 {
            self.faults_per_batch.record(batch.fetched);
            self.vablocks_per_batch.record(batch.groups.len() as u64);
        }

        let ngroups = batch.groups.len();

        // Service walk: each group is serviced against the block's current
        // state, strictly in sorted VABlock order. The walk owns the PMA,
        // RNG, LRU, eviction and every timer/span/trace charge.
        for group in arena.batch.groups.iter() {
            t += self.commit_group(group, now + t);
        }

        // Replay policy (paper §III-E). Under Block the driver issues
        // one replay per serviced VABlock; the loosely-timed co-simulation
        // delivers them to the GPU as one resume per pass, so Block
        // differs from Batch in replay *cost and count*, not in which
        // warps wake when. A pass that fetched nothing while warps may be
        // stalled models the overflow path: the driver replays to force
        // re-raising of unrecorded faults.
        let replays: u64 = match self.cfg.replay_policy {
            ReplayPolicy::Block => ngroups.max(1) as u64,
            ReplayPolicy::Batch | ReplayPolicy::BatchFlush => 1,
            ReplayPolicy::Once => u64::from(buffer.is_empty()),
        };
        if self.cfg.replay_policy.flushes() && replays > 0 {
            let discarded = buffer.flush();
            if discarded > 0 || matches!(self.cfg.replay_policy, ReplayPolicy::BatchFlush) {
                t += self.charge_span(
                    Category::ReplayPolicy,
                    SpanKind::BufferFlush,
                    now + t,
                    self.cost.buffer_flush(),
                    discarded as u64,
                    0,
                );
                self.counters.buffer_flushes += 1;
            }
        }
        t += self.charge_span(
            Category::ReplayPolicy,
            SpanKind::ReplayIssue,
            now + t,
            self.cost.replay_issue() * replays,
            replays,
            0,
        );
        self.counters.replays += replays;
        if replays > 0 {
            self.spans.instant(SpanKind::Replay, now + t, replays, 0);
            // Replay provenance: the buffer keeps its own round count so
            // lineage events tie back to the hardware queue they drained.
            buffer.note_replays(replays);
            self.lineage.record(
                LineageEventKind::Replay,
                (now + t).as_nanos(),
                self.counters.batches,
                NO_BLOCK,
                replays,
                buffer.replay_rounds(),
            );
        }

        let fetched = arena.batch.fetched;
        self.spans
            .end(SpanKind::Pass, SpanCat::Batch, now + t, fetched, replays);
        self.arena = arena;
        // Telemetry sampling on the virtual clock: one branch per pass
        // when disabled; when armed, snapshot at pass end if the grid is
        // due. Everything sampled is simulated state, so streams are
        // bit-identical at any `--threads` value.
        if self.sampler.is_enabled() {
            self.pass_ns.record(t.as_nanos());
            let end = now + t;
            if self.sampler.is_due(end) {
                let sample = self.snapshot(end);
                self.sampler.record(end, sample);
            }
        }
        self.phase_wall.serial_front_ns += pass_start.elapsed().as_nanos() as u64;
        PassResult { time: t, replays }
    }

    /// Service one VABlock's fault group against the block's current
    /// state: resolve its new faulted pages and the prefetcher's additions,
    /// migrate both in (with the LRU update the fault triggers charged on
    /// the mapping), then commit provenance. Returns the time consumed.
    fn commit_group(&mut self, group: &FaultGroup, now: SimTime) -> SimDuration {
        let mut t = SimDuration::ZERO;
        let vb = group.block;
        self.spans.begin(
            SpanKind::VablockService,
            SpanCat::Vablock,
            now,
            vb.0,
            group.fault_mask.count() as u64,
        );

        // Per-VABlock bookkeeping (part of the service path).
        t += self.charge_span(
            Category::ServiceMap,
            SpanKind::VablockSetup,
            now + t,
            self.cost.vablock_setup(),
            vb.0,
            0,
        );

        let valid = self.space.valid(vb);
        let resident = self.space.resident(vb);
        let faulted = group.fault_mask.intersect(valid).difference(resident);
        // Every faulted page was invalid or already resident: nothing to
        // service.
        if faulted.is_empty() {
            self.spans
                .end(SpanKind::VablockService, SpanCat::Vablock, now + t, vb.0, 0);
            return t;
        }
        let prefetch = compute_prefetch(self.resolved_prefetch, resident, &faulted, valid);
        // A fault on a block that has been evicted before is a refault:
        // feed the thrashing detector, which may pin the block.
        if self.space.eviction_count(vb) > 0 && self.thrash.note_refault(vb) {
            self.counters.thrash_pins += 1;
            self.spans.instant(SpanKind::ThrashPin, now + t, vb.0, 0);
            // Flight-recorder anomaly trigger: the detector just pinned
            // this block, so snapshot the recent event ring plus the live
            // telemetry window around the thrash episode.
            self.lineage.note_thrash_pin(
                (now + t).as_nanos(),
                self.counters.batches,
                vb.0,
                self.thrash.refaults(),
                self.cfg.thrash.refault_threshold as u64,
                self.sampler.samples(),
            );
        }

        let to_migrate = faulted.union(&prefetch);
        t += self.migrate_in(vb, &to_migrate, &prefetch, self.cost.lru_update(), now + t);

        // Provenance: classify the faulted pages against the block's
        // eviction history (a fault on a page in `evicted_ever` is a
        // refault — split by the recorded verdict of its last eviction),
        // then mark them touched; prefetched pages arrive *untouched*,
        // which is what lets a later eviction call them out as
        // `PrefetchEvicted`.
        let n_faulted = faulted.count() as u64;
        let n_prefetch = prefetch.count() as u64;
        let refault = faulted.intersect(self.space.evicted_ever(vb));
        let n_refault = refault.count() as u64;
        // Fused popcount: |refault ∩ evicted_unused| without the
        // intermediate mask.
        let n_unused = refault.intersect_count(self.space.evicted_unused(vb)) as u64;
        self.block_faults[vb.0 as usize] += n_faulted;
        self.space.touched_mut(vb).or_with(&faulted);
        let dirty_new = group.write_mask.intersect(&faulted);
        self.space.dirty_mut(vb).or_with(&dirty_new);
        // The classification, emitted once as lifecycle events (pages in
        // `pages`, sub-verdicts in `aux`) that the recorder folds into the
        // ledger and the block's offender stats.
        let (t_ns, pass) = ((now + t).as_nanos(), self.counters.batches);
        if n_faulted > n_refault {
            let cold = n_faulted - n_refault;
            self.lineage
                .record(LineageEventKind::FirstTouch, t_ns, pass, vb.0, cold, 0);
        }
        if n_refault > 0 {
            self.lineage.record(
                LineageEventKind::Refault,
                t_ns,
                pass,
                vb.0,
                n_refault,
                n_unused,
            );
        }
        if n_prefetch > 0 {
            self.lineage.record(
                LineageEventKind::PrefetchIn,
                t_ns,
                pass,
                vb.0,
                n_prefetch,
                0,
            );
        }
        let n_migrated = to_migrate.count() as u64;
        self.lineage
            .record(LineageEventKind::Migration, t_ns, pass, vb.0, n_migrated, 0);

        self.counters.pages_faulted_in += n_faulted;
        self.counters.pages_prefetched += n_prefetch;
        self.counters.vablocks_serviced += 1;

        let base = vb.first_page().0;
        self.trace.record_pages(
            EventKind::Fault,
            n_faulted,
            faulted.iter_set().map(|off| base + off as u64),
            now + t,
        );
        self.trace.record_pages(
            EventKind::Prefetch,
            n_prefetch,
            prefetch.iter_set().map(|off| base + off as u64),
            now + t,
        );

        self.spans.end(
            SpanKind::VablockService,
            SpanCat::Vablock,
            now + t,
            vb.0,
            n_faulted,
        );
        t
    }

    /// Migrate `to_migrate` into `vb` — the three service steps the fault
    /// path and prefetch hints share (paper §III, Fig. 4): physical
    /// backing, migration, mapping. Backing is allocated at the configured
    /// granularity for every unit `to_migrate` touches that has none yet,
    /// evicting other blocks when memory is exhausted, and zeroed. The
    /// mapping charge carries `map_extra` on top. Then residency is
    /// published, `prefetched` joins the block's `prefetched_ever`, and the
    /// block becomes most recently used. Returns the time consumed.
    fn migrate_in(
        &mut self,
        vb: VaBlockIdx,
        to_migrate: &PageMask,
        prefetched: &PageMask,
        map_extra: SimDuration,
        now: SimTime,
    ) -> SimDuration {
        let mut t = SimDuration::ZERO;
        // Scanning units while evicting is sound: the eviction scan never
        // touches the block being serviced, so `backed(vb)` changes only
        // under this loop. On exhaustion the allocator reports the exact
        // shortfall, and one batched scan frees that much in a single LRU
        // pass instead of re-probing the allocator after every victim.
        let g = self.cfg.alloc_granularity_pages;
        for unit_start in (0..PAGES_PER_VABLOCK).step_by(g) {
            if to_migrate.count_range(unit_start, g) == 0
                || self.space.backed(vb).count_range(unit_start, g) > 0
            {
                continue;
            }
            loop {
                match self
                    .pma
                    .alloc(g as u64 * PAGE_SIZE, &self.cost, &mut self.rng)
                {
                    Ok(grant) => {
                        t += self.charge_span(
                            Category::ServicePma,
                            SpanKind::PmaAlloc,
                            now + t,
                            grant.cost,
                            vb.0,
                            grant.calls,
                        );
                        self.counters.pma_calls += grant.calls;
                        break;
                    }
                    Err(e) => t += self.evict_batch(vb, e.shortfall(), now + t),
                }
            }
            self.space.backed_mut(vb).set_range(unit_start, g);
            // Newly allocated memory is zeroed before use.
            t += self.charge_span(
                Category::ServiceMigrate,
                SpanKind::PageZero,
                now + t,
                self.cost.page_zero(g as u64),
                vb.0,
                g as u64,
            );
            self.counters.pages_zeroed += g as u64;
        }

        // Migration: host staging + one coalesced DMA per VABlock.
        let n = to_migrate.count() as u64;
        t += self.charge_span(
            Category::ServiceMigrate,
            SpanKind::MigrateH2d,
            now + t,
            self.cost.migrate_h2d(n),
            vb.0,
            n,
        );
        self.xfer.record_h2d(n * PAGE_SIZE);
        // Mapping + membar.
        t += self.charge_span(
            Category::ServiceMap,
            SpanKind::MapPages,
            now + t,
            self.cost.map_pages(n) + map_extra,
            vb.0,
            n,
        );

        let resident = self.space.resident(vb).union(to_migrate);
        self.space.set_resident(vb, resident);
        self.space.prefetched_ever_mut(vb).or_with(prefetched);
        self.lru.touch(vb);
        t
    }

    /// Evict enough least-recently-used VABlocks (never `exclude`, the
    /// block currently being serviced) to free at least `shortfall` bytes
    /// of backing in one batched scan. The per-fault path used to re-run
    /// the allocator after every single victim; a service batch knows its
    /// deficit up front (`PmaExhausted::shortfall`), so the scan keeps
    /// selecting victims until the deficit is covered and the retry is
    /// guaranteed to succeed. Each selection preserves the single-victim
    /// semantics exactly (pin skips re-enter as MRU per selection, same
    /// panic on exhaustion), so the eviction order — and therefore every
    /// simulated output — is bit-identical to the per-fault path.
    fn evict_batch(&mut self, exclude: VaBlockIdx, shortfall: u64, now: SimTime) -> SimDuration {
        self.counters.evict_shortfall_bytes += shortfall;
        let mut t = SimDuration::ZERO;
        let mut freed = 0u64;
        while freed < shortfall {
            let (cost, bytes) = self.evict_next(exclude, now + t);
            t += cost;
            freed += bytes;
        }
        t
    }

    /// Select and evict one VABlock (never `exclude`). The LRU policies
    /// pop the list tail; the ranking policies ([`EvictionPolicy::Random`]
    /// and [`EvictionPolicy::AccessFrequency`]) scan the resident set and
    /// pick by their own criterion. Dirty pages are written back; backing
    /// returns to the PMA cache; the faulting path restart cost is charged
    /// (paper §V-A2 "direct costs"). Returns the cost and the backing
    /// bytes freed.
    fn evict_next(&mut self, exclude: VaBlockIdx, now: SimTime) -> (SimDuration, u64) {
        if matches!(
            self.cfg.eviction,
            EvictionPolicy::Random | EvictionPolicy::AccessFrequency
        ) {
            return self.evict_next_ranked(exclude, now);
        }
        let mut victim = None;
        let mut skipped_exclude = false;
        let mut skipped_pinned = std::mem::take(&mut self.evict_skipped);
        skipped_pinned.clear();
        while let Some(v) = self.lru.pop_lru() {
            if v == exclude {
                skipped_exclude = true;
                continue;
            }
            if self.thrash.is_pinned(v) {
                self.spans.instant(SpanKind::ThrashSkip, now, v.0, 0);
                skipped_pinned.push(v);
                continue;
            }
            victim = Some(v);
            break;
        }
        // Pinned blocks fall back to eviction if nothing else exists;
        // otherwise they rejoin as MRU (the point of the pin).
        if victim.is_none() {
            victim = skipped_pinned.pop();
        }
        self.lru.reinsert_skipped(&mut skipped_pinned);
        self.evict_skipped = skipped_pinned;
        if skipped_exclude {
            // The faulting block goes back as MRU; it is being serviced.
            self.lru.touch(exclude);
        }
        let victim = victim.unwrap_or_else(|| {
            panic!(
                "GPU memory exhausted with no evictable VABlock \
                 (capacity {} bytes is too small for one batch's working set)",
                self.pma.capacity()
            )
        });
        self.evict_victim(victim, now)
    }

    /// Victim selection for the ranking policies. Candidates are the
    /// tracked blocks in LRU→MRU order minus `exclude` and thrash-pinned
    /// blocks (pins fall back to candidacy only when nothing else is
    /// evictable, mirroring the pop-scan path). `Random` draws uniformly
    /// from its dedicated PRNG stream; `AccessFrequency` takes the block
    /// with the fewest serviced faults, ties broken toward the LRU end
    /// (strict `<` keeps the first minimum in scan order). Selection is
    /// a pure function of serial driver state plus the derived eviction
    /// stream, so it is bit-identical at any thread count.
    fn evict_next_ranked(&mut self, exclude: VaBlockIdx, now: SimTime) -> (SimDuration, u64) {
        let mut candidates = std::mem::take(&mut self.evict_candidates);
        candidates.clear();
        for v in self.lru.iter_lru() {
            if v != exclude && !self.thrash.is_pinned(v) {
                candidates.push(v);
            }
        }
        if candidates.is_empty() {
            // Pinned blocks fall back to candidacy if nothing else
            // exists; otherwise they are never considered (the point of
            // the pin).
            candidates.extend(self.lru.iter_lru().filter(|&v| v != exclude));
        }
        let victim = match self.cfg.eviction {
            EvictionPolicy::Random if !candidates.is_empty() => {
                Some(candidates[self.evict_rng.index(candidates.len())])
            }
            EvictionPolicy::AccessFrequency => candidates.iter().copied().reduce(|best, v| {
                if self.block_faults[v.0 as usize] < self.block_faults[best.0 as usize] {
                    v
                } else {
                    best
                }
            }),
            _ => None,
        };
        candidates.clear();
        self.evict_candidates = candidates;
        let victim = victim.unwrap_or_else(|| {
            panic!(
                "GPU memory exhausted with no evictable VABlock \
                 (capacity {} bytes is too small for one batch's working set)",
                self.pma.capacity()
            )
        });
        self.lru.remove(victim);
        self.evict_victim(victim, now)
    }

    /// Tear down `victim`: provenance verdicts, mask clears, writeback,
    /// PMA free, counters, trace. Returns the cost and bytes freed.
    fn evict_victim(&mut self, victim: VaBlockIdx, now: SimTime) -> (SimDuration, u64) {
        let resident = *self.space.resident(victim);
        let dirty_pages = self.space.dirty(victim).intersect_count(&resident) as u64;
        let resident_pages = resident.count() as u64;
        let backed_pages = self.space.backed_pages(victim) as u64;
        // Provenance: split the evicted pages by the touched-bit.
        // `resident ∖ touched` is exactly "arrived via prefetch,
        // never accessed" — the paper's prefetch–eviction antagonism
        // (`PrefetchEvicted`). Record each page's verdict in
        // `evicted_unused` (most recent eviction wins) so a refault
        // can tell evict-before-use churn from working-set churn,
        // and bump the generation stamp the masks are relative to.
        let used = resident.intersect(self.space.touched(victim));
        let unused = resident.difference(self.space.touched(victim));
        let unused_pages = unused.count() as u64;
        self.space.evicted_ever_mut(victim).or_with(&resident);
        let eu = self.space.evicted_unused_mut(victim);
        eu.or_with(&unused);
        eu.andnot_with(&used);
        self.space.clear_block_hot(victim);
        self.space.bump_eviction_count(victim);

        let mut cost = self.cost.evict_fixed() + self.cost.unmap_pages(resident_pages);
        if dirty_pages > 0 {
            cost += self.cost.writeback_d2h(dirty_pages);
            self.xfer.record_d2h(dirty_pages * PAGE_SIZE);
        }
        self.charge_span(
            Category::Eviction,
            SpanKind::Evict,
            now,
            cost,
            victim.0,
            dirty_pages,
        );

        self.pma.free(backed_pages * PAGE_SIZE);
        self.counters.evictions += 1;
        self.counters.pages_evicted_migrated += dirty_pages;
        self.counters.pages_evicted_clean += resident_pages - dirty_pages;
        self.trace
            .record(EventKind::Eviction, victim.first_page().0, now);
        // `aux` carries the prefetched-never-touched share — the raw
        // material of the prefetch→eviction antagonism chains.
        let (t_ns, pass, vb) = (now.as_nanos(), self.counters.batches, victim.0);
        self.lineage.record(
            LineageEventKind::Eviction,
            t_ns,
            pass,
            vb,
            resident_pages,
            unused_pages,
        );
        if dirty_pages > 0 {
            self.lineage
                .record(LineageEventKind::Writeback, t_ns, pass, vb, dirty_pages, 0);
        }
        (cost, backed_pages * PAGE_SIZE)
    }

    /// Service an explicit prefetch hint (`cudaMemPrefetchAsync` style,
    /// paper §II's "performance hints"): migrate every non-resident valid
    /// page of `range` to the GPU outside the fault path, allocating
    /// backing (and evicting) as needed. Backing, migration and mapping
    /// are the fault path's own steps (`migrate_in`), minus the LRU-update
    /// charge a fault adds. Returns the virtual time consumed; charge it
    /// to the calling stream.
    pub fn prefetch_range(&mut self, range: &VaRange, now: SimTime) -> SimDuration {
        let mut t = SimDuration::ZERO;
        let first_block = range.start_page / PAGES_PER_VABLOCK as u64;
        let last_block = (range.end_page() - 1) / PAGES_PER_VABLOCK as u64;
        self.spans.begin(
            SpanKind::PrefetchHint,
            SpanCat::Batch,
            now,
            range.start_page,
            range.num_pages,
        );
        for vb in (first_block..=last_block).map(VaBlockIdx) {
            let wanted = self.space.valid(vb).difference(self.space.resident(vb));
            if wanted.is_empty() {
                continue;
            }
            t += self.charge_span(
                Category::ServiceMap,
                SpanKind::VablockSetup,
                now + t,
                self.cost.vablock_setup(),
                vb.0,
                0,
            );
            t += self.migrate_in(vb, &wanted, &wanted, SimDuration::ZERO, now + t);
            let n = wanted.count() as u64;
            self.counters.pages_hint_prefetched += n;
            // Provenance: hint-prefetched pages arrive untouched (the
            // `touched` mask is deliberately not set), so an eviction
            // before any GPU access classifies them `PrefetchEvicted`.
            self.lineage.record(
                LineageEventKind::HintPrefetch,
                (now + t).as_nanos(),
                self.counters.batches,
                vb.0,
                n,
                0,
            );
            let base = vb.first_page().0;
            self.trace.record_pages(
                EventKind::Prefetch,
                n,
                wanted.iter_set().map(|off| base + off as u64),
                now + t,
            );
        }
        self.counters.hint_prefetch_calls += 1;
        self.spans.end(
            SpanKind::PrefetchHint,
            SpanCat::Batch,
            now + t,
            range.start_page,
            0,
        );
        t
    }

    /// Service CPU-side access to `range` (paper §III-A: paged migration
    /// is bidirectional — a CPU touch of GPU-resident data far-faults on
    /// the host and migrates the pages back). Resident pages move
    /// device→host, are unmapped from the GPU, and their backing returns
    /// to the PMA cache block by block. A `write` access dirties nothing
    /// on the GPU side (the data now lives on the host). Returns the
    /// virtual time consumed.
    pub fn host_access_range(&mut self, range: &VaRange, now: SimTime) -> SimDuration {
        let mut t = SimDuration::ZERO;
        let first_block = range.start_page / PAGES_PER_VABLOCK as u64;
        let last_block = (range.end_page() - 1) / PAGES_PER_VABLOCK as u64;
        self.spans.begin(
            SpanKind::HostAccess,
            SpanCat::Batch,
            now,
            range.start_page,
            range.num_pages,
        );
        for vb in (first_block..=last_block).map(VaBlockIdx) {
            let resident = *self.space.resident(vb);
            if resident.is_empty() {
                continue;
            }
            let n = resident.count() as u64;
            // Host fault handling + migration back + GPU unmap/membar.
            let cost = self.cost.vablock_setup()
                + self.cost.writeback_d2h(n)
                + self.cost.unmap_pages(n)
                + self.cost.map_pages(0); // membar/TLB shootdown on the GPU
            t += self.charge_span(
                Category::ServiceMigrate,
                SpanKind::MigrateD2h,
                now + t,
                cost,
                vb.0,
                n,
            );
            self.xfer.record_d2h(n * PAGE_SIZE);
            self.space.set_resident(vb, PageMask::EMPTY);
            *self.space.dirty_mut(vb) = PageMask::EMPTY;
            // Provenance: migrating back to the host is paged
            // bidirectional migration, not eviction thrash — reset
            // the migrated pages' touched-bit and eviction history
            // so their next GPU fault counts as ColdFirstTouch. Only
            // the migrated pages are cleared (word-wise AND-NOT), so
            // `clear_block_hot` — which wipes `touched` wholesale —
            // would be wrong here.
            self.space.touched_mut(vb).andnot_with(&resident);
            self.space.evicted_ever_mut(vb).andnot_with(&resident);
            self.space.evicted_unused_mut(vb).andnot_with(&resident);
            let backed_pages = self.space.backed_pages(vb) as u64;
            *self.space.backed_mut(vb) = PageMask::EMPTY;
            self.pma.free(backed_pages * PAGE_SIZE);
            self.lru.remove(vb);
            self.counters.pages_migrated_to_host += n;
            // Lineage: a host writeback resets the block's lifecycle —
            // the analyzer drops its fault/evict history so the next GPU
            // fault opens a fresh timeline (matching the provenance reset
            // above).
            self.lineage.record(
                LineageEventKind::HostWriteback,
                (now + t).as_nanos(),
                self.counters.batches,
                vb.0,
                n,
                0,
            );
            if self.trace.is_enabled() {
                self.trace
                    .record(EventKind::Eviction, vb.first_page().0, now + t);
            }
        }
        self.counters.host_fault_calls += 1;
        self.spans.end(
            SpanKind::HostAccess,
            SpanCat::Batch,
            now + t,
            range.start_page,
            0,
        );
        t
    }

    /// Pages ever brought in by prefetching (fault-path or hints) that
    /// were never satisfied by their own fault — intersect with the GPU's
    /// actual page-use record to quantify prefetch waste (paper §VI-A).
    pub fn prefetched_pages(&self) -> impl Iterator<Item = gpu_model::GlobalPage> + '_ {
        (0..self.space.num_blocks()).flat_map(move |b| {
            let vb = VaBlockIdx(b as u64);
            let base = vb.first_page().0;
            self.space
                .prefetched_ever(vb)
                .iter_set()
                .map(move |off| gpu_model::GlobalPage(base + off as u64))
        })
    }

    /// Per-batch fault-count distribution (paper §III-D analysis).
    pub fn faults_per_batch(&self) -> &Histogram {
        &self.faults_per_batch
    }

    /// Per-batch VABlock-count distribution: low means well-coalesced
    /// service, high (≈ batch size) is the random worst case.
    pub fn vablocks_per_batch(&self) -> &Histogram {
        &self.vablocks_per_batch
    }

    /// Consume GPU access-counter notifications (paper §VI-B3). Under the
    /// stock `FaultLru` policy they are read and discarded (the stock
    /// driver leaves the feature unused); under `AccessCounterLru` each
    /// hot, backed VABlock is refreshed in the LRU. Returns the
    /// processing time to charge.
    pub fn note_access_notifications(
        &mut self,
        notifs: &[AccessNotification],
        granularity_pages: u64,
        now: SimTime,
    ) -> SimDuration {
        let t = self.cost.access_notifications(notifs.len() as u64);
        self.charge_span(
            Category::Preprocess,
            SpanKind::AccessNotify,
            now,
            t,
            notifs.len() as u64,
            0,
        );
        if !matches!(self.cfg.eviction, EvictionPolicy::AccessCounterLru) {
            return t;
        }
        for n in notifs {
            let vb = GlobalPage(n.first_page(granularity_pages)).vablock();
            if (vb.0 as usize) < self.space.num_blocks() && !self.space.is_unbacked(vb) {
                self.lru.touch(vb);
            }
        }
        t
    }

    /// Per-category driver timers.
    pub fn timers(&self) -> &Timers {
        &self.timers
    }

    /// Driver event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Interconnect traffic log.
    pub fn transfer_log(&self) -> &TransferLog {
        &self.xfer
    }

    /// Fault-provenance ledger (per-cause totals partitioning
    /// [`Counters`] and the transfer log exactly).
    pub fn attribution(&self) -> &Attribution {
        self.lineage.ledger()
    }

    /// Top-`k` offender VABlocks by avoidable cost (refaults plus
    /// prefetch-evicted pages), deterministically ordered.
    pub fn top_offenders(&self, k: usize) -> Vec<Offender> {
        metrics::top_offenders(self.lineage.block_stats(), k)
    }

    /// Captured trace events (empty unless `trace_capacity` is set).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Captured batch-lifecycle spans (empty unless `span_capacity` is
    /// set).
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Mutable span recorder, for the simulation loop to add
    /// engine-level instants (replays, fault-buffer overflows) to the
    /// driver's timeline.
    pub fn spans_mut(&mut self) -> &mut SpanRecorder {
        &mut self.spans
    }

    /// The resolved prefetch policy in effect.
    pub fn resolved_prefetch(&self) -> ResolvedPrefetch {
        self.resolved_prefetch
    }

    /// The driver configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.cfg
    }

    /// GPU memory currently backing VABlocks (bytes).
    pub fn gpu_memory_in_use(&self) -> u64 {
        self.pma.in_use()
    }

    /// Snapshot every sampled signal at simulated time `t`. All inputs
    /// are simulated state (counters, transfer log, PMA occupancy, LRU
    /// length, thrash scores, per-pass sim-time percentiles), which is
    /// the determinism argument for the whole timeseries: no host-side
    /// value can leak into a sample.
    fn snapshot(&self, t: SimTime) -> Sample {
        let h2d = self.counters.pages_migrated_h2d();
        let a = self.lineage.ledger();
        let mut s = Sample {
            t_ns: t.as_nanos(),
            faults_fetched: self.counters.faults_fetched,
            duplicate_faults: self.counters.duplicate_faults,
            pages_faulted_in: self.counters.pages_faulted_in,
            pages_prefetched: self.counters.pages_prefetched,
            migrated_bytes_h2d: self.xfer.h2d_bytes,
            migrated_bytes_d2h: self.xfer.d2h_bytes,
            evictions: self.counters.evictions,
            pages_evicted: self.counters.pages_evicted_total(),
            thrash_pins: self.counters.thrash_pins,
            refaults: self.thrash.refaults(),
            replays: self.counters.replays,
            batches: self.counters.batches,
            resident_pages: self.pma.in_use() / PAGE_SIZE,
            lru_blocks: self.lru.tracked_blocks(),
            prefetch_coverage_bp: Sample::coverage_bp(self.counters.pages_prefetched, h2d),
            attr_cold_faults: a.cold_faults,
            attr_refault_used_faults: a.refault_used_faults,
            attr_refault_unused_faults: a.refault_unused_faults,
            attr_prefetch_hit_faults: a.prefetch_hit_faults,
            attr_replay_dup_faults: a.replay_dup_faults,
            attr_prefetch_evicted_pages: a.prefetch_evicted_pages,
            attr_evicted_used_pages: a.evicted_used_pages,
            lineage_events: self.lineage.events_recorded(),
            lineage_dropped: self.lineage.dropped(),
            flight_dumps: self.lineage.dumps_captured(),
            retries_skipped: self.counters.retries_skipped,
            retry_pages_skipped: self.counters.retry_pages_skipped,
            wakeups: self.counters.wakeups,
            pages_hint_prefetched: self.counters.pages_hint_prefetched,
            pages_evicted_migrated: self.counters.pages_evicted_migrated,
            pages_migrated_to_host: self.counters.pages_migrated_to_host,
            attr_prefetch_pages: a.prefetch_pages,
            attr_hint_pages: a.hint_pages,
            attr_writeback_bytes: a.writeback_bytes,
            attr_host_migrated_bytes: a.host_migrated_bytes,
            ..Sample::default()
        };
        s.set_batch_latency(&self.pass_ns);
        s
    }

    /// Mirror the engine's event-driven replay counters into the
    /// driver-side [`Counters`] so the telemetry stream, exposition and
    /// CSV artefacts carry them. The simulation loop calls this with the
    /// engine's cumulative totals after every `engine.run`, so samples
    /// taken during the following passes are at most one engine run
    /// behind and stay monotone; a final call precedes
    /// [`finalize_timeseries`](Self::finalize_timeseries).
    pub fn note_engine_retry_stats(
        &mut self,
        retries_skipped: u64,
        retry_pages_skipped: u64,
        wakeups: u64,
    ) {
        self.counters.retries_skipped = retries_skipped;
        self.counters.retry_pages_skipped = retry_pages_skipped;
        self.counters.wakeups = wakeups;
    }

    /// Force a final sample at `now` so the stream's tail carries the
    /// exact end-of-run totals (the simulation loop calls this before it
    /// builds its report; reconciliation against [`Counters`] and the
    /// transfer log is asserted in the harness tests).
    pub fn finalize_timeseries(&mut self, now: SimTime) {
        if self.sampler.is_enabled() {
            let sample = self.snapshot(now);
            self.sampler.force(sample);
        }
    }

    /// Move the finished telemetry stream out of the driver.
    pub fn take_timeseries(&mut self) -> Timeseries {
        self.sampler.take()
    }

    /// Move the finished fault-lineage log (events, exact per-kind
    /// totals, flight dumps) out of the driver.
    pub fn take_lineage(&mut self) -> LineageLog {
        self.lineage.take()
    }
}

impl Drop for UvmDriver {
    fn drop(&mut self) {
        metrics::phase::record(&self.phase_wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AccessType, FaultBufferConfig, FaultEntry, GlobalPage};
    use sim_engine::units::{MIB, VABLOCK_SIZE};

    fn push_fault(buf: &mut FaultBuffer, page: u64, write: bool, utlb: u32) {
        buf.push(FaultEntry {
            page: GlobalPage(page),
            access: if write {
                AccessType::Write
            } else {
                AccessType::Read
            },
            timestamp: SimTime::ZERO,
            utlb,
        });
    }

    fn driver_with(cfg: DriverConfig, alloc_bytes: u64) -> UvmDriver {
        let mut space = ManagedSpace::new();
        space.alloc(alloc_bytes, "data");
        UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(7))
    }

    fn now() -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(1)
    }

    #[test]
    fn single_fault_without_prefetch_migrates_one_page() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 100, false, 0);
        let r = d.process_pass(&mut buf, now());
        assert_eq!(d.counters().faults_fetched, 1);
        assert_eq!(d.counters().pages_migrated_h2d(), 1);
        assert_eq!(r.replays, 1);
        assert!(d.space().resident(VaBlockIdx(0)).get(100));
        assert_eq!(d.counters().pages_faulted_in, 1);
        assert_eq!(d.counters().pages_prefetched, 0);
        assert!(r.time > SimDuration::ZERO);
    }

    #[test]
    fn stock_prefetch_pulls_big_page() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 100, false, 0); // big page 6: pages 96..112
        d.process_pass(&mut buf, now());
        assert_eq!(d.counters().pages_migrated_h2d(), 16);
        assert_eq!(d.counters().pages_prefetched, 15);
        let resident = d.space().resident(VaBlockIdx(0));
        assert!(resident.get(96) && resident.get(111));
    }

    #[test]
    fn write_fault_marks_dirty() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 3, true, 0);
        push_fault(&mut buf, 4, false, 0);
        d.process_pass(&mut buf, now());
        let dirty = d.space().dirty(VaBlockIdx(0));
        assert!(dirty.get(3));
        assert!(!dirty.get(4));
    }

    #[test]
    fn batch_flush_discards_unfetched_entries() {
        let cfg = DriverConfig {
            batch_size: 4,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for p in 0..10 {
            push_fault(&mut buf, p * 600, false, (p % 4) as u32);
        }
        d.process_pass(&mut buf, now());
        assert_eq!(d.counters().faults_fetched, 4);
        assert!(buf.is_empty(), "BatchFlush empties the buffer");
        assert_eq!(d.counters().buffer_flushes, 1);
    }

    #[test]
    fn batch_policy_leaves_entries() {
        let cfg = DriverConfig {
            batch_size: 4,
            replay_policy: ReplayPolicy::Batch,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for p in 0..10 {
            push_fault(&mut buf, p * 600, false, (p % 4) as u32);
        }
        let r = d.process_pass(&mut buf, now());
        assert_eq!(d.counters().faults_fetched, 4);
        assert_eq!(buf.len(), 6, "Batch policy does not flush");
        assert_eq!(r.replays, 1);
        assert_eq!(d.counters().buffer_flushes, 0);
    }

    #[test]
    fn once_policy_replays_only_when_drained() {
        let cfg = DriverConfig {
            batch_size: 4,
            replay_policy: ReplayPolicy::Once,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for p in 0..6 {
            push_fault(&mut buf, p * 600, false, 0);
        }
        let r1 = d.process_pass(&mut buf, now());
        assert_eq!(r1.replays, 0, "buffer still has entries");
        let r2 = d.process_pass(&mut buf, now());
        assert_eq!(r2.replays, 1, "buffer drained");
    }

    #[test]
    fn block_policy_replays_per_group() {
        let cfg = DriverConfig {
            replay_policy: ReplayPolicy::Block,
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0); // block 0
        push_fault(&mut buf, 600, false, 1); // block 1
        push_fault(&mut buf, 1100, false, 2); // block 2
        let r = d.process_pass(&mut buf, now());
        assert_eq!(r.replays, 3);
    }

    #[test]
    fn eviction_frees_lru_block() {
        // GPU memory of exactly 2 VABlocks; fault 3 blocks in turn.
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 4 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, true, 0);
        d.process_pass(&mut buf, now());
        push_fault(&mut buf, 512, false, 0);
        d.process_pass(&mut buf, now());
        assert_eq!(d.counters().evictions, 0);
        push_fault(&mut buf, 1024, false, 0);
        d.process_pass(&mut buf, now());
        assert_eq!(d.counters().evictions, 1);
        assert!(
            d.space().resident(VaBlockIdx(0)).is_empty(),
            "block 0 was LRU and evicted"
        );
        assert_eq!(d.space().eviction_count(VaBlockIdx(0)), 1);
        // The write-faulted page was written back.
        assert_eq!(d.counters().pages_evicted_migrated, 1);
        assert!(d.transfer_log().d2h_bytes > 0);
    }

    #[test]
    fn eviction_never_picks_the_faulting_block() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 4 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        // Re-fault the same block alongside a new one; servicing block 0's
        // new page must not evict block 0 itself mid-service... fault a
        // page in block 1, which must evict block 0 (the only other).
        push_fault(&mut buf, 513, false, 0);
        d.process_pass(&mut buf, now());
        assert!(d.space().resident(VaBlockIdx(1)).get(1));
        assert!(d.space().resident(VaBlockIdx(0)).is_empty());
    }

    #[test]
    fn lazy_granularity_backs_only_touched_units() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            alloc_granularity_pages: 16,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        assert_eq!(d.space().backed_pages(VaBlockIdx(0)), 16);
        assert_eq!(d.gpu_memory_in_use(), 16 * PAGE_SIZE);
        // Stock granularity backs the whole block.
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        assert_eq!(d.space().backed_pages(VaBlockIdx(0)), 512);
    }

    /// A driver over one `pages`-page allocation, allocating backing in
    /// 16-page units from a PMA that reserves exactly one unit per call,
    /// so `pma_calls` counts the units backed.
    fn unit_driver(pages: u64) -> (UvmDriver, VaRange) {
        let cfg = DriverConfig {
            batch_size: 512,
            prefetch: PrefetchPolicy::Disabled,
            alloc_granularity_pages: 16,
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let cost = CostModel::new(sim_engine::CostModelConfig {
            pma_chunk_bytes: 16 * PAGE_SIZE,
            ..Default::default()
        });
        let mut space = ManagedSpace::new();
        let range = space.alloc(pages * PAGE_SIZE, "data");
        (
            UvmDriver::new(cfg, cost, space, SimRng::from_seed(7)),
            range,
        )
    }

    #[test]
    fn fault_and_hint_back_only_unbacked_units() {
        let vb = VaBlockIdx(0);
        // Three 16-page units; page 5's fault backs unit 0 first.
        for hint in [false, true] {
            let (mut d, range) = unit_driver(48);
            let mut buf = FaultBuffer::new(FaultBufferConfig::default());
            push_fault(&mut buf, 5, false, 0);
            d.process_pass(&mut buf, now());
            assert_eq!(d.counters().pma_calls, 1);
            assert_eq!(d.counters().pages_zeroed, 16);
            let mut expected = PageMask::EMPTY;
            expected.set_range(0, 16);
            let fresh_units = if hint {
                // The hint wants pages 0..48 but page 5: units 1 and 2.
                d.prefetch_range(&range, now());
                expected.set_span(16, 32);
                2
            } else {
                // Page 6 shares unit 0 with page 5; page 40 is in unit 2.
                push_fault(&mut buf, 6, false, 0);
                push_fault(&mut buf, 40, false, 0);
                d.process_pass(&mut buf, now());
                expected.set_range(32, 16);
                1
            };
            assert_eq!(d.counters().pma_calls, 1 + fresh_units, "hint={hint}");
            assert_eq!(d.counters().pages_zeroed, 16 * (1 + fresh_units));
            assert_eq!(*d.space().backed(vb), expected, "hint={hint}");
            assert_eq!(d.gpu_memory_in_use(), (1 + fresh_units) * 16 * PAGE_SIZE);
        }
    }

    #[test]
    fn hint_and_fault_batch_over_the_same_pages_agree() {
        // 300 valid pages: 19 units, the last one partly valid.
        let (mut hinted, range) = unit_driver(300);
        hinted.prefetch_range(&range, now());
        let (mut faulted, _) = unit_driver(300);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for p in 0..300 {
            push_fault(&mut buf, p, false, (p % 8) as u32);
        }
        faulted.process_pass(&mut buf, now());
        assert_eq!(faulted.counters().pages_faulted_in, 300);

        let vb = VaBlockIdx(0);
        assert_eq!(hinted.space().resident(vb), faulted.space().resident(vb));
        assert_eq!(hinted.space().resident(vb).count(), 300);
        assert_eq!(hinted.space().backed(vb), faulted.space().backed(vb));
        assert_eq!(hinted.gpu_memory_in_use(), 19 * 16 * PAGE_SIZE);
        assert_eq!(hinted.gpu_memory_in_use(), faulted.gpu_memory_in_use());
        assert_eq!(hinted.counters().pma_calls, faulted.counters().pma_calls);
        assert_eq!(
            hinted.counters().pages_zeroed,
            faulted.counters().pages_zeroed
        );
        // The same backing, zeroing and migration; the fault's mapping
        // carries the LRU update a hint does not charge.
        let (h, f) = (hinted.timers(), faulted.timers());
        assert_eq!(
            h.get(Category::ServiceMigrate),
            f.get(Category::ServiceMigrate)
        );
        assert_eq!(
            f.get(Category::ServiceMap),
            h.get(Category::ServiceMap) + CostModel::default().lru_update()
        );
    }

    #[test]
    fn access_counter_policy_refreshes_lru() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            eviction: EvictionPolicy::AccessCounterLru,
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 4 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        push_fault(&mut buf, 512, false, 0);
        d.process_pass(&mut buf, now());
        // GPU keeps touching block 0 without faulting: the access
        // counters notify the driver about region 0.
        let t = d.note_access_notifications(
            &[gpu_model::AccessNotification {
                region: 0,
                count: 256,
            }],
            512,
            now(),
        );
        assert!(t > SimDuration::ZERO);
        // A third block faults: block 1 (not 0) must be evicted.
        push_fault(&mut buf, 1024, false, 0);
        d.process_pass(&mut buf, now());
        assert!(!d.space().resident(VaBlockIdx(0)).is_empty());
        assert!(d.space().resident(VaBlockIdx(1)).is_empty());
    }

    #[test]
    fn adaptive_prefetch_disables_when_oversubscribed() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Adaptive {
                undersubscribed_threshold: 1,
            },
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let d = driver_with(cfg, 4 * VABLOCK_SIZE);
        assert_eq!(d.resolved_prefetch(), ResolvedPrefetch::Disabled);
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Adaptive {
                undersubscribed_threshold: 1,
            },
            gpu_memory_bytes: 8 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let d = driver_with(cfg, 4 * VABLOCK_SIZE);
        assert!(matches!(
            d.resolved_prefetch(),
            ResolvedPrefetch::Density { threshold: 1, .. }
        ));
    }

    #[test]
    fn sequential_policy_prefetches_following_pages() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Sequential { degree: 8 },
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 100, false, 0);
        d.process_pass(&mut buf, now());
        assert_eq!(d.counters().pages_migrated_h2d(), 9, "fault + next 8");
        let resident = d.space().resident(VaBlockIdx(0));
        assert!(resident.get(100) && resident.get(108));
        assert!(!resident.get(99) && !resident.get(109));
        assert_eq!(d.counters().pages_prefetched, 8);
    }

    #[test]
    fn first_pass_charges_first_touch_overhead() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        let r1 = d.process_pass(&mut buf, now());
        push_fault(&mut buf, 200, false, 0);
        let r2 = d.process_pass(&mut buf, now());
        assert!(
            r1.time > r2.time,
            "first pass pays one-time init: {} vs {}",
            r1.time,
            r2.time
        );
    }

    #[test]
    fn trace_captures_faults_prefetches_evictions() {
        let cfg = DriverConfig {
            trace_capacity: Some(metrics::DEFAULT_TRACE_CAPACITY),
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 4 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for b in 0..3 {
            push_fault(&mut buf, b * 512, false, 0);
            d.process_pass(&mut buf, now());
        }
        let kinds: Vec<EventKind> = d.trace().events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Fault));
        assert!(kinds.contains(&EventKind::Prefetch));
        assert!(kinds.contains(&EventKind::Eviction));
    }

    #[test]
    fn spans_reconcile_with_timers_and_balance() {
        use metrics::SpanPhase;
        // Small memory forces evictions; prefetch + thrash stress every
        // span site on the fault path.
        let cfg = DriverConfig {
            span_capacity: Some(metrics::DEFAULT_SPAN_CAPACITY),
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            thrash: ThrashConfig {
                enabled: true,
                ..ThrashConfig::default()
            },
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = now();
        for round in 0..6u64 {
            push_fault(&mut buf, (round % 4) * 512, round % 2 == 0, 0);
            let r = d.process_pass(&mut buf, clock);
            clock += r.time;
        }
        clock += d.prefetch_range(
            &VaRange {
                name: "hint".into(),
                start_page: 4 * 512,
                num_pages: 512,
            },
            clock,
        );
        d.host_access_range(
            &VaRange {
                name: "host".into(),
                start_page: 0,
                num_pages: 512,
            },
            clock,
        );
        let trace = d.spans().to_trace();
        assert!(trace.dropped == 0, "default capacity fits this run");
        assert_eq!(
            trace.reconciled_totals(),
            *d.timers(),
            "leaf spans must sum to the driver timers per category"
        );
        let begins = trace
            .events
            .iter()
            .filter(|e| e.phase == SpanPhase::Begin)
            .count();
        let ends = trace
            .events
            .iter()
            .filter(|e| e.phase == SpanPhase::End)
            .count();
        assert_eq!(begins, ends);
        assert!(trace.events.iter().any(|e| e.kind == SpanKind::Evict));
    }

    #[test]
    fn spans_off_by_default_records_nothing() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        assert!(!d.spans().is_enabled());
        assert!(d.spans().is_empty());
    }

    #[test]
    fn empty_pass_still_replays() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let r = d.process_pass(&mut buf, now());
        assert_eq!(d.counters().faults_fetched, 0);
        assert_eq!(r.replays, 1, "overflow path: replay to re-raise faults");
    }

    #[test]
    fn sampling_off_by_default_yields_empty_stream() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        d.finalize_timeseries(now());
        let ts = d.take_timeseries();
        assert!(ts.samples.is_empty());
        assert_eq!(ts.compactions, 0);
    }

    /// Drive several passes of eviction-pressured faults with sampling on.
    fn sampled_run() -> (UvmDriver, SimTime) {
        let cfg = DriverConfig {
            gpu_memory_bytes: 4 * VABLOCK_SIZE,
            timeseries: Some(TimeseriesConfig {
                interval_ns: 1_000,
                capacity: 16,
            }),
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 16 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = now();
        for round in 0..8u64 {
            for b in 0..12u64 {
                push_fault(&mut buf, b * 512 + (round * 7) % 512, b % 3 == 0, 0);
            }
            let r = d.process_pass(&mut buf, clock);
            clock += r.time;
        }
        (d, clock)
    }

    #[test]
    fn forced_final_sample_reconciles_with_totals() {
        let (mut d, clock) = sampled_run();
        d.finalize_timeseries(clock);
        let c = *d.counters();
        let xfer = *d.transfer_log();
        let attribution = *d.attribution();
        let resident = d.gpu_memory_in_use() / PAGE_SIZE;
        let ts = d.take_timeseries();
        assert!(!ts.samples.is_empty());
        let last = *ts.last().expect("finalized stream has a tail");
        assert_eq!(last.t_ns, clock.as_nanos());
        assert_eq!(last.faults_fetched, c.faults_fetched);
        assert_eq!(last.pages_faulted_in, c.pages_faulted_in);
        assert_eq!(last.pages_prefetched, c.pages_prefetched);
        assert_eq!(last.migrated_bytes_h2d, xfer.h2d_bytes);
        assert_eq!(last.migrated_bytes_d2h, xfer.d2h_bytes);
        assert_eq!(last.evictions, c.evictions);
        assert_eq!(last.pages_evicted, c.pages_evicted_total());
        assert_eq!(last.replays, c.replays);
        assert_eq!(last.batches, c.batches);
        assert_eq!(last.resident_pages, resident);
        assert_eq!(
            last.prefetch_coverage_bp,
            Sample::coverage_bp(c.pages_prefetched, c.pages_migrated_h2d())
        );
        let a = attribution;
        assert_eq!(last.attr_cold_faults, a.cold_faults);
        assert_eq!(last.attr_refault_used_faults, a.refault_used_faults);
        assert_eq!(last.attr_refault_unused_faults, a.refault_unused_faults);
        assert_eq!(last.attr_prefetch_hit_faults, a.prefetch_hit_faults);
        assert_eq!(last.attr_replay_dup_faults, a.replay_dup_faults);
        assert_eq!(last.attr_prefetch_evicted_pages, a.prefetch_evicted_pages);
        assert_eq!(last.attr_evicted_used_pages, a.evicted_used_pages);
        assert_eq!(last.pages_hint_prefetched, c.pages_hint_prefetched);
        assert_eq!(last.pages_evicted_migrated, c.pages_evicted_migrated);
        assert_eq!(last.pages_migrated_to_host, c.pages_migrated_to_host);
        assert_eq!(
            last.attribution(),
            a,
            "the final row carries the whole ledger"
        );
        assert_eq!(last.reconciled_attribution(), Ok(a));
    }

    #[test]
    fn sampling_compacts_instead_of_truncating() {
        // Capacity 16 with a 1 µs grid across 8 eviction-heavy passes
        // overflows the buffer; compaction must keep first-to-last
        // coverage rather than dropping the tail.
        let (mut d, clock) = sampled_run();
        d.finalize_timeseries(clock);
        let ts = d.take_timeseries();
        if ts.compactions > 0 {
            assert_eq!(ts.interval_ns, ts.base_interval_ns << ts.compactions);
        }
        assert!(ts.samples.len() <= 16);
        assert_eq!(ts.last().unwrap().t_ns, clock.as_nanos());
    }

    #[test]
    fn refault_after_intra_batch_eviction_lands_fresh_page() {
        // Memory for two blocks. Blocks 8 and 9 become resident first, so
        // they head the LRU. The next batch faults blocks 0..=7 and a
        // fresh page of 9: backing blocks 0 and 1 evicts 8 then 9, so
        // block 9 — committed last — is serviced after its own eviction
        // within the same batch.
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 10 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 8 * 512, false, 0);
        push_fault(&mut buf, 9 * 512, false, 0);
        d.process_pass(&mut buf, now());
        for b in 0..=7u64 {
            push_fault(&mut buf, b * 512 + 1, false, 0);
        }
        push_fault(&mut buf, 9 * 512 + 1, false, 0);
        d.process_pass(&mut buf, now());
        assert!(
            d.space().eviction_count(VaBlockIdx(9)) >= 1,
            "block 9 was evicted"
        );
        // The service landed the freshly faulted page, and did not
        // resurrect the evicted batch-start residency.
        assert!(d.space().resident(VaBlockIdx(9)).get(1));
        assert!(!d.space().resident(VaBlockIdx(9)).get(0));
    }

    #[test]
    fn drop_flushes_phase_wall_to_global_totals() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for b in 0..8u64 {
            push_fault(&mut buf, b * 512, false, 0);
        }
        d.process_pass(&mut buf, now());
        let front = d.phase_wall.serial_front_ns;
        assert!(front > 0, "the pass accumulated its wall");
        drop(d);
        let g = metrics::phase::take();
        assert!(g.serial_front_ns >= front, "drop published the accumulator");
        assert_eq!(g.parallel_service_ns, 0);
    }

    #[test]
    fn attribution_reconciles_across_every_migration_path() {
        // Exercise all five fault causes and all byte paths: density
        // prefetch + tight memory (evictions, refaults, prefetch-evicted
        // pages), a hint prefetch, a host access, and write faults for
        // dirty write-backs.
        let cfg = DriverConfig {
            gpu_memory_bytes: 4 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 16 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = now();
        clock += d.prefetch_range(
            &VaRange {
                name: "hint".into(),
                start_page: 14 * 512,
                num_pages: 512,
            },
            clock,
        );
        for round in 0..10u64 {
            for b in 0..12u64 {
                push_fault(&mut buf, b * 512 + (round * 11) % 512, b % 2 == 0, 0);
            }
            let r = d.process_pass(&mut buf, clock);
            clock += r.time;
        }
        clock += d.host_access_range(
            &VaRange {
                name: "host".into(),
                start_page: 0,
                num_pages: 2 * 512,
            },
            clock,
        );
        // One more faulting round so post-host-migration pages refault
        // as cold (history was reset).
        for b in 0..4u64 {
            push_fault(&mut buf, b * 512 + 7, false, 0);
        }
        let r = d.process_pass(&mut buf, clock);
        clock += r.time;

        let a = *d.attribution();
        let c = *d.counters();
        let xfer = *d.transfer_log();
        assert!(c.evictions > 0, "run must hit eviction pressure");
        assert!(
            a.refault_used_faults + a.refault_unused_faults > 0,
            "run must refault"
        );
        assert!(
            a.prefetch_evicted_pages > 0,
            "run must evict prefetched-unused pages"
        );
        a.reconcile(&c, xfer.h2d_bytes, xfer.d2h_bytes)
            .unwrap_or_else(|(what, attr, obs)| {
                panic!("partition violated: {what}: {attr} != {obs}")
            });
        // Offenders: every listed block must have nonzero badness, in
        // descending order.
        let top = d.top_offenders(4);
        assert!(!top.is_empty());
        for w in top.windows(2) {
            assert!(w[0].stats.badness() >= w[1].stats.badness());
        }
    }

    #[test]
    fn refault_split_tracks_evict_before_use() {
        // Two blocks of memory, no prefetcher: fault one page of block 0
        // (touched), force its eviction, then refault it — a *used*
        // refault. Then hint-prefetch block 3 (untouched), force its
        // eviction, and fault one of its pages — an *evict-before-use*
        // refault.
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 6 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = now();
        push_fault(&mut buf, 0, false, 0); // block 0, touched
        clock += d.process_pass(&mut buf, clock).time;
        clock += d.prefetch_range(
            // block 3 arrives untouched
            &VaRange {
                name: "hint".into(),
                start_page: 3 * 512,
                num_pages: 512,
            },
            clock,
        );
        // Memory is now full (blocks 0 and 3). Fault two fresh blocks:
        // the first pushes out block 0 (LRU, touched), the second pushes
        // out block 3 (untouched).
        push_fault(&mut buf, 4 * 512, false, 0);
        clock += d.process_pass(&mut buf, clock).time;
        assert_eq!(d.counters().evictions, 1);
        assert_eq!(d.attribution().evicted_used_pages, 1);
        push_fault(&mut buf, 5 * 512, false, 0);
        clock += d.process_pass(&mut buf, clock).time;
        assert_eq!(d.attribution().prefetch_evicted_pages, 512);
        // Refault block 0's page: it was touched before eviction.
        push_fault(&mut buf, 0, false, 0);
        clock += d.process_pass(&mut buf, clock).time;
        assert_eq!(d.attribution().refault_used_faults, 1);
        // Refault a block-3 page: evicted before any use.
        push_fault(&mut buf, 3 * 512 + 5, false, 0);
        clock += d.process_pass(&mut buf, clock).time;
        assert_eq!(d.attribution().refault_unused_faults, 1);
        let a = d.attribution();
        let c = d.counters();
        let x = d.transfer_log();
        a.reconcile(c, x.h2d_bytes, x.d2h_bytes)
            .expect("partitions hold");
    }

    /// Drive eviction-pressured faults (plus a hint and a host access)
    /// with sampling, and so the lineage recorder, armed.
    fn lineage_run() -> (UvmDriver, SimTime) {
        let cfg = DriverConfig {
            gpu_memory_bytes: 4 * VABLOCK_SIZE,
            timeseries: Some(TimeseriesConfig::default()),
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 16 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = now();
        clock += d.prefetch_range(
            &VaRange {
                name: "hint".into(),
                start_page: 14 * 512,
                num_pages: 512,
            },
            clock,
        );
        for round in 0..8u64 {
            for b in 0..12u64 {
                push_fault(&mut buf, b * 512 + (round * 7) % 512, b % 3 == 0, 0);
            }
            let r = d.process_pass(&mut buf, clock);
            clock += r.time;
        }
        clock += d.host_access_range(
            &VaRange {
                name: "host".into(),
                start_page: 0,
                num_pages: 512,
            },
            clock,
        );
        (d, clock)
    }

    #[test]
    fn lineage_off_by_default_records_nothing() {
        let cfg = DriverConfig {
            gpu_memory_bytes: 64 * MIB,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        assert_eq!(d.lineage.events_recorded(), 0);
        let log = d.take_lineage();
        assert!(log.is_empty());
        // The unarmed recorder still folds the fault into the ledger.
        assert_eq!(d.attribution().cold_faults, 1);
    }

    #[test]
    fn lineage_reconciles_and_round_trips() {
        let (mut d, clock) = lineage_run();
        d.finalize_timeseries(clock);
        let last = *d
            .take_timeseries()
            .last()
            .expect("finalized stream has a tail");
        let log = d.take_lineage();
        assert!(!log.is_empty());
        assert_eq!(log.dropped, 0, "default capacity fits this run");
        assert!(log.total(metrics::LineageEventKind::HintPrefetch).pages > 0);
        log.reconcile(&last).unwrap_or_else(|e| panic!("{e}"));
        // The artefact codec round-trips the real stream.
        let text = log.to_artefact();
        let back = metrics::LineageLog::from_artefact(&text).expect("artefact parses");
        assert_eq!(back, log);
        // And the analyzer sees the run's refault churn.
        let analysis = metrics::lineage::analyze(&log.events);
        assert!(analysis.blocks_seen > 0);
        assert!(
            analysis.refault_distance_passes.total() > 0,
            "run must refault"
        );
    }

    #[test]
    fn forced_thrash_run_captures_flight_dump() {
        // Two blocks of memory, four hot blocks, thrash detection armed
        // with a low threshold: the detector must pin, and the pin must
        // dump the event ring plus the live telemetry window.
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            thrash: ThrashConfig {
                enabled: true,
                refault_threshold: 2,
                pin_duration_batches: 4,
            },
            timeseries: Some(TimeseriesConfig {
                interval_ns: 1_000,
                capacity: 16,
            }),
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 8 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut clock = now();
        for round in 0..12u64 {
            for b in 0..4u64 {
                push_fault(&mut buf, b * 512 + round, false, 0);
            }
            let r = d.process_pass(&mut buf, clock);
            clock += r.time;
        }
        assert!(d.counters().thrash_pins > 0, "run must pin");
        let log = d.take_lineage();
        assert!(!log.dumps.is_empty(), "pin must capture a flight dump");
        let dump = &log.dumps[0];
        assert_eq!(dump.trigger, metrics::FlightTrigger::ThrashPin);
        assert!(!dump.events.is_empty(), "dump carries the event ring");
        assert!(!dump.window.is_empty(), "dump carries the telemetry window");
        assert!(dump.value >= dump.threshold);
        // The dumped window is the tail of the sampled stream at trigger
        // time, and the ring a run of the stored log before it.
        log.check_dumps().unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn evict_shortfall_counter_tracks_eviction_pressure() {
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            gpu_memory_bytes: 2 * VABLOCK_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, 4 * VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        for b in 0..3u64 {
            push_fault(&mut buf, b * 512, false, 0);
            d.process_pass(&mut buf, now());
        }
        assert!(d.counters().evictions > 0);
        assert!(
            d.counters().evict_shortfall_bytes >= VABLOCK_SIZE,
            "the third block's backing failed by at least one block"
        );
    }

    #[test]
    #[should_panic(expected = "no evictable VABlock")]
    fn exhaustion_with_no_victim_panics() {
        // GPU memory of one 16-page unit; the only backed block is the one
        // being serviced, so there is no eviction victim.
        let cfg = DriverConfig {
            prefetch: PrefetchPolicy::Disabled,
            alloc_granularity_pages: 16,
            gpu_memory_bytes: 16 * PAGE_SIZE,
            ..DriverConfig::default()
        };
        let mut d = driver_with(cfg, VABLOCK_SIZE);
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        push_fault(&mut buf, 0, false, 0);
        d.process_pass(&mut buf, now());
        // A second unit of the same block cannot be backed.
        push_fault(&mut buf, 100, false, 0);
        d.process_pass(&mut buf, now());
    }
}
