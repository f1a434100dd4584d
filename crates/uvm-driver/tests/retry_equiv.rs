//! Property: the replay-retry strategy is simulation-invisible. For
//! arbitrary small engine workloads driven against a real `ManagedSpace`
//! — with partial fault service and periodic evictions supplying a
//! steady stream of residency change events — a run under
//! `RetryMode::Scan` (reference rescan), `RetryMode::Event`
//! (change-epoch skip) and `RetryMode::CrossCheck` (both side by side,
//! hard-asserting agreement) must produce identical fault streams,
//! identical semantic counters and identical final residency. Only the
//! skip/wakeup telemetry may differ.

use gpu_model::{
    EngineCounters, FaultBuffer, FaultBufferConfig, GlobalPage, GpuConfig, GpuEngine, PageMask,
    RetryMode, VaBlockIdx, WorkloadTrace,
};
use proptest::prelude::*;
use sim_engine::units::VABLOCK_SIZE;
use sim_engine::{SimDuration, SimRng, SimTime};
use uvm_driver::ManagedSpace;

const BLOCKS: u64 = 6;
const PAGES: u64 = BLOCKS * 512;

/// Decode a raw seed into a page inside the managed range (the vendored
/// proptest has no tuple strategies, so traces are vectors of u64 seeds).
fn decode(seed: u64) -> u64 {
    seed % PAGES
}

fn arb_blocks() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..16), 1..8)
}

fn build_trace(block_steps: &[Vec<u64>]) -> WorkloadTrace {
    let mut trace = WorkloadTrace::new("retry-equiv", PAGES);
    for seeds in block_steps {
        trace.begin_block(SimDuration::from_nanos(100));
        // Up to 4 pages per step, several steps per block.
        for chunk in seeds.chunks(4) {
            trace.push_step(chunk.iter().map(|&s| GlobalPage(decode(s))), false);
        }
    }
    trace
}

type EngineOutput = (Vec<Vec<(u64, u32)>>, EngineCounters, Vec<Vec<u64>>);

/// Drive the engine to completion with a deterministic mini-driver:
/// each round fetches the buffered faults, services the first few (one
/// `set_resident` each), and every third round evicts one block wholesale —
/// so pending lists are repeatedly invalidated both by commits and by
/// evictions while other blocks' lists stay clean and skippable.
fn run_engine(block_steps: &[Vec<u64>], retry: RetryMode) -> EngineOutput {
    let cfg = GpuConfig {
        num_utlbs: 2,
        max_outstanding_per_utlb: 6,
        retry,
        ..GpuConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(BLOCKS * VABLOCK_SIZE, "retry-equiv");
    let mut eng = GpuEngine::launch(cfg, build_trace(block_steps), SimRng::from_seed(9));
    let mut buf = FaultBuffer::new(FaultBufferConfig::default());
    let far = SimTime::ZERO + SimDuration::from_secs(1);
    let mut streams = Vec::new();
    let mut round = 0u64;
    while !eng.is_done() {
        eng.run(&space, &mut buf, SimTime::ZERO);
        if eng.is_done() {
            break;
        }
        let (entries, _) = buf.fetch(usize::MAX, far);
        streams.push(entries.iter().map(|e| (e.page.0, e.utlb)).collect());
        // Service only a prefix: the tail refaults on later replays,
        // keeping the dedup sets and fingerprint filters busy.
        for e in entries.iter().take(5) {
            let page = e.page.0;
            let idx = VaBlockIdx(page / 512);
            let mut resident = *space.resident(idx);
            resident.set((page % 512) as usize);
            space.set_resident(idx, resident);
        }
        if round % 3 == 2 {
            space.set_resident(VaBlockIdx((round / 3) % BLOCKS), PageMask::EMPTY);
        }
        eng.replay();
        round += 1;
        assert!(round < 10_000, "mini-driver failed to make progress");
    }
    let residency: Vec<Vec<u64>> = (0..BLOCKS)
        .map(|b| space.resident(VaBlockIdx(b)).words().to_vec())
        .collect();
    (streams, *eng.counters(), residency)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_retry_equiv(block_steps in arb_blocks()) {
        let scan = run_engine(&block_steps, RetryMode::Scan);
        let event = run_engine(&block_steps, RetryMode::Event);
        let check = run_engine(&block_steps, RetryMode::CrossCheck);
        prop_assert_eq!(scan.1.retries_skipped, 0, "scan mode must never skip");
        prop_assert_eq!(&event.0, &scan.0, "fault streams diverged (event vs scan)");
        prop_assert_eq!(&check.0, &scan.0, "fault streams diverged (cross-check vs scan)");
        prop_assert_eq!(event.1.semantic(), scan.1.semantic(), "semantic counters diverged");
        prop_assert_eq!(check.1.semantic(), scan.1.semantic(), "semantic counters diverged");
        prop_assert_eq!(&event.2, &scan.2, "final residency diverged");
        prop_assert_eq!(&check.2, &scan.2, "final residency diverged");
    }
}

/// Eviction invalidates a word a stalled block subscribed to: the block
/// must be woken and rescanned, and the whole interaction must stay
/// bit-identical to the reference rescan (verified by running the exact
/// scenario under `CrossCheck`, whose hard asserts fire on any
/// divergence).
#[test]
fn eviction_invalidates_subscribed_word() {
    for retry in [RetryMode::Event, RetryMode::CrossCheck] {
        let mut space = ManagedSpace::new();
        space.alloc(VABLOCK_SIZE, "evict-wake");
        let mut pages_0_to_3 = PageMask::EMPTY;
        pages_0_to_3.set_span(0, 4);
        space.set_resident(VaBlockIdx(0), pages_0_to_3);

        // Step 1 hits resident pages 0..4; step 2 stalls on page 10,
        // subscribing the block to residency word 0.
        let mut trace = WorkloadTrace::new("evict-wake", 5);
        trace.begin_block(SimDuration::from_nanos(100));
        trace.push_step((0..4).map(GlobalPage), false);
        trace.push_step([GlobalPage(10)], false);
        let cfg = GpuConfig {
            retry,
            ..GpuConfig::default()
        };
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(5));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            gpu_model::EngineStatus::Stalled
        );
        assert_eq!(buf.len(), 1);

        // Evict the resident pages: word 0's value changes, so the
        // subscriber must be dirtied and forced through a real rescan
        // (page 10 is still missing, so it re-raises — no closed form).
        space.set_resident(VaBlockIdx(0), PageMask::EMPTY);
        eng.replay();
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            gpu_model::EngineStatus::Stalled
        );
        assert!(
            eng.counters().wakeups >= 1,
            "eviction of a subscribed word must wake the stalled block"
        );
        assert_eq!(buf.len(), 2, "rescan re-raised the outstanding refault");

        // Service the miss: the commit changes word 0 again, waking the
        // block; the rescan sees the page resident and completes.
        let mut page_10 = PageMask::EMPTY;
        page_10.set(10);
        space.set_resident(VaBlockIdx(0), page_10);
        eng.replay();
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            gpu_model::EngineStatus::Done
        );
        assert!(eng.counters().wakeups >= 2);
    }
}
