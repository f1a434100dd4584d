//! Property-based tests for the GPU-side substrate: page masks checked
//! against a naive bit-vector model, fault-buffer FIFO/capacity laws, and
//! engine completion invariants.

use gpu_model::{
    AccessType, FaultBuffer, FaultBufferConfig, FaultEntry, GlobalPage, GpuConfig, GpuEngine,
    PageMask, Residency, WorkloadTrace,
};
use proptest::prelude::*;
use sim_engine::{SimDuration, SimRng, SimTime};

// ---------- PageMask vs a naive [bool; 512] model ----------

fn naive_from(indices: &[usize]) -> [bool; 512] {
    let mut a = [false; 512];
    for &i in indices {
        a[i] = true;
    }
    a
}

fn mask_from(indices: &[usize]) -> PageMask {
    let mut m = PageMask::EMPTY;
    for &i in indices {
        m.set(i);
    }
    m
}

proptest! {
    #[test]
    fn mask_count_matches_model(idx in proptest::collection::vec(0usize..512, 0..256)) {
        let m = mask_from(&idx);
        let model = naive_from(&idx);
        prop_assert_eq!(m.count(), model.iter().filter(|&&b| b).count());
        for (i, &want) in model.iter().enumerate() {
            prop_assert_eq!(m.get(i), want);
        }
    }

    #[test]
    fn mask_iter_set_matches_model(idx in proptest::collection::vec(0usize..512, 0..256)) {
        let m = mask_from(&idx);
        let model = naive_from(&idx);
        let got: Vec<usize> = m.iter_set().collect();
        let want: Vec<usize> = (0..512).filter(|&i| model[i]).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn mask_count_range_matches_model(
        idx in proptest::collection::vec(0usize..512, 0..256),
        level in 0usize..=9,
    ) {
        let m = mask_from(&idx);
        let model = naive_from(&idx);
        let len = 1usize << level;
        for start in (0..512).step_by(len) {
            let want = model[start..start + len].iter().filter(|&&b| b).count();
            prop_assert_eq!(m.count_range(start, len), want);
        }
    }

    #[test]
    fn mask_set_ops_match_model(
        a in proptest::collection::vec(0usize..512, 0..128),
        b in proptest::collection::vec(0usize..512, 0..128),
    ) {
        let (ma, mb) = (mask_from(&a), mask_from(&b));
        let (na, nb) = (naive_from(&a), naive_from(&b));
        for i in 0..512 {
            prop_assert_eq!(ma.union(&mb).get(i), na[i] || nb[i]);
            prop_assert_eq!(ma.intersect(&mb).get(i), na[i] && nb[i]);
            prop_assert_eq!(ma.difference(&mb).get(i), na[i] && !nb[i]);
        }
    }

    #[test]
    fn mask_set_range_fills_exactly(level in 0usize..=9, slot_seed in any::<u64>()) {
        let len = 1usize << level;
        let slot = (slot_seed as usize) % (512 / len);
        let mut m = PageMask::EMPTY;
        m.set_range(slot * len, len);
        prop_assert_eq!(m.count(), len);
        for i in 0..512 {
            prop_assert_eq!(m.get(i), (slot * len..(slot + 1) * len).contains(&i));
        }
    }
}

// ---------- FaultBuffer laws ----------

proptest! {
    #[test]
    fn buffer_is_fifo_and_bounded(
        pages in proptest::collection::vec(0u64..10_000, 1..200),
        capacity in 1usize..64,
    ) {
        let mut buf = FaultBuffer::new(FaultBufferConfig {
            capacity,
            ready_delay: SimDuration::ZERO,
        });
        let mut accepted = Vec::new();
        for &p in &pages {
            let e = FaultEntry {
                page: GlobalPage(p),
                access: AccessType::Read,
                timestamp: SimTime::ZERO,
                utlb: 0,
            };
            if buf.push(e) {
                accepted.push(p);
            }
        }
        prop_assert!(buf.len() <= capacity);
        prop_assert_eq!(buf.dropped() + buf.written(), pages.len() as u64);
        let (got, _) = buf.fetch(usize::MAX, SimTime::ZERO);
        let got: Vec<u64> = got.iter().map(|e| e.page.0).collect();
        prop_assert_eq!(got, accepted, "FIFO order of accepted entries");
    }

    #[test]
    fn buffer_flush_then_empty(
        n in 0usize..100,
        capacity in 1usize..128,
    ) {
        let mut buf = FaultBuffer::new(FaultBufferConfig {
            capacity,
            ready_delay: SimDuration::ZERO,
        });
        for i in 0..n {
            buf.push(FaultEntry {
                page: GlobalPage(i as u64),
                access: AccessType::Write,
                timestamp: SimTime::ZERO,
                utlb: 0,
            });
        }
        let discarded = buf.flush();
        prop_assert_eq!(discarded, n.min(capacity));
        prop_assert!(buf.is_empty());
        prop_assert_eq!(buf.flushed(), n.min(capacity) as u64);
    }
}

// ---------- Engine completion invariants ----------

struct AllResident;
impl Residency for AllResident {
    fn is_resident(&self, _page: GlobalPage) -> bool {
        true
    }
}

struct NothingThenAll {
    ready: std::cell::Cell<bool>,
}
impl Residency for NothingThenAll {
    fn is_resident(&self, _page: GlobalPage) -> bool {
        self.ready.get()
    }
}

fn arb_trace() -> impl Strategy<Value = WorkloadTrace> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u64..2048, 1..8), 1..6),
        1..20,
    )
    .prop_map(|blocks| {
        let mut trace = WorkloadTrace::new("prop", 2048);
        for steps in blocks {
            trace.begin_block(SimDuration::from_nanos(10));
            for step in steps {
                trace.push_step(step.into_iter().map(GlobalPage), false);
            }
        }
        trace
    })
}

// ---------- packed WorkloadTrace vs nested Vecs ----------

/// Decode a raw sample into one access: mostly small pages, with the
/// highest packable page (2³¹ − 1) mixed in; bit 1 is the write flag.
fn access_of(raw: u64) -> (u64, bool) {
    let page = if raw.is_multiple_of(5) {
        gpu_model::PAGE_LIMIT - 1
    } else {
        (raw >> 2) % 4096
    };
    (page, raw & 2 != 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_trace_matches_nested_reference(
        raw in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..9), 0..5),
            0..12,
        ),
        costs in proptest::collection::vec(0u64..1000, 12),
    ) {
        // Steps whose first sample is even push one write flag for the
        // whole step; the others push per-access flags.
        let reference: Vec<Vec<Vec<(u64, bool)>>> = raw
            .iter()
            .map(|steps| {
                steps
                    .iter()
                    .map(|step| {
                        let uniform = step[0] % 2 == 0;
                        let flag = access_of(step[0]).1;
                        step.iter()
                            .map(|&r| {
                                let (page, write) = access_of(r);
                                (page, if uniform { flag } else { write })
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut trace = WorkloadTrace::new("prop", 0);
        for (b, steps) in reference.iter().enumerate() {
            trace.begin_block(SimDuration::from_nanos(costs[b]));
            for (raw_step, step) in raw[b].iter().zip(steps) {
                if raw_step[0] % 2 == 0 {
                    trace.push_step(step.iter().map(|&(p, _)| GlobalPage(p)), step[0].1);
                } else {
                    trace.push_step_mixed(step.iter().map(|&(p, w)| (GlobalPage(p), w)));
                }
            }
        }

        prop_assert_eq!(trace.num_blocks(), reference.len());
        let steps: usize = reference.iter().map(Vec::len).sum();
        let accesses: usize = reference.iter().flatten().map(Vec::len).sum();
        prop_assert_eq!(trace.total_steps(), steps as u64);
        prop_assert_eq!(trace.total_accesses(), accesses as u64);
        for (b, want) in reference.iter().enumerate() {
            let block = trace.block(b);
            prop_assert_eq!(block.num_steps(), want.len());
            prop_assert_eq!(block.step_cost(), SimDuration::from_nanos(costs[b]));
            let n: usize = want.iter().map(Vec::len).sum();
            prop_assert_eq!(block.num_accesses(), n as u64);
            for (s, want_step) in want.iter().enumerate() {
                let got: Vec<(u64, bool)> = block.step(s).map(|(p, w)| (p.0, w)).collect();
                prop_assert_eq!(&got, want_step);
            }
        }
        let max = reference.iter().flatten().flatten().map(|&(p, _)| p).max();
        prop_assert_eq!(trace.max_page().map(|p| p.0), max);
    }
}

#[test]
#[should_panic(expected = "2^31-page limit")]
fn page_beyond_packed_limit_is_refused() {
    let mut trace = WorkloadTrace::new("big", 0);
    trace.begin_block(SimDuration::ZERO);
    trace.push_step([GlobalPage(gpu_model::PAGE_LIMIT)], false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fully_resident_trace_completes_without_faults(trace in arb_trace()) {
        let total_steps = trace.total_steps();
        let mut eng = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&AllResident, &mut buf, SimTime::ZERO);
        prop_assert!(eng.is_done());
        prop_assert_eq!(eng.counters().steps_completed, total_steps);
        prop_assert_eq!(eng.counters().faults_raised, 0);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn stalled_trace_completes_after_residency_arrives(trace in arb_trace()) {
        let total_steps = trace.total_steps();
        let oracle = NothingThenAll {
            ready: std::cell::Cell::new(false),
        };
        let mut eng = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(2));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&oracle, &mut buf, SimTime::ZERO);
        prop_assert!(!eng.is_done(), "must stall with nothing resident");
        prop_assert!(eng.counters().faults_raised > 0 || buf.dropped() == 0);
        // Residency arrives; one replay resumes everything.
        oracle.ready.set(true);
        eng.replay();
        eng.run(&oracle, &mut buf, SimTime::ZERO);
        prop_assert!(eng.is_done());
        prop_assert_eq!(eng.counters().steps_completed, total_steps);
    }

    #[test]
    fn engine_is_deterministic(trace in arb_trace(), seed in any::<u64>()) {
        let run = |t: WorkloadTrace| {
            let mut eng = GpuEngine::launch(GpuConfig::default(), t, SimRng::from_seed(seed));
            let mut buf = FaultBuffer::new(FaultBufferConfig::default());
            eng.run(&NothingThenAll { ready: std::cell::Cell::new(false) }, &mut buf, SimTime::ZERO);
            let (entries, _) = buf.fetch(usize::MAX, SimTime::ZERO);
            entries.iter().map(|e| e.page.0).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(trace.clone()), run(trace));
    }
}
