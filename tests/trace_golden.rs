//! Golden determinism for the span tracer: the recorded span stream is a
//! pure function of `(config, workload)` in its *sim-time* fields — only
//! `wall_ns` (host wall-clock) may differ between runs. In particular the
//! rayon thread count driving a sweep must not change a single event,
//! because each point's driver runs single-threaded and the sweep returns
//! reports in input order.

use bench::experiments::Scale;
use metrics::{SpanEvent, SpanTrace, DEFAULT_SPAN_CAPACITY};
use uvm_sim::{PrefetchPolicy, SimConfig, Workload, WorkloadKind};

/// Figure-1-style points at the `repro --scale 16` platform
/// (`Scale::DEFAULT` = 12 GB / 16): streaming and random kernels, under-
/// and over-subscribed, with and without the prefetcher.
fn traced_points() -> Vec<(SimConfig, Workload)> {
    let scale = Scale::DEFAULT;
    let mut points = Vec::new();
    for (kind, ratio, prefetch) in [
        (WorkloadKind::Regular, 0.25, true),
        (WorkloadKind::Regular, 1.2, true),
        (WorkloadKind::Random, 0.25, false),
        (WorkloadKind::Random, 1.2, false),
    ] {
        let mut cfg = scale.config();
        if !prefetch {
            cfg.driver.prefetch = PrefetchPolicy::Disabled;
        }
        cfg.driver.span_capacity = Some(DEFAULT_SPAN_CAPACITY);
        points.push((cfg, scale.workload(kind, ratio)));
    }
    points
}

/// The span stream with the one legitimately nondeterministic field
/// (`wall_ns`) masked out; everything else must be bit-identical.
fn sim_time_view(trace: &SpanTrace) -> Vec<SpanEvent> {
    trace
        .events
        .iter()
        .map(|e| {
            let mut e = *e;
            e.wall_ns = 0;
            e
        })
        .collect()
}

#[test]
fn span_streams_identical_across_thread_counts() {
    let mut golden: Option<Vec<Vec<SpanEvent>>> = None;
    let mut golden_drops: Option<Vec<u64>> = None;
    for threads in [1usize, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure thread pool");
        let reports = uvm_sim::run_sweep(traced_points());
        assert!(
            reports.iter().all(|r| !r.span_trace.events.is_empty()),
            "every traced point recorded spans"
        );
        let streams: Vec<Vec<SpanEvent>> =
            reports.iter().map(|r| sim_time_view(&r.span_trace)).collect();
        let drops: Vec<u64> = reports.iter().map(|r| r.span_trace.dropped).collect();
        match (&golden, &golden_drops) {
            (None, _) => {
                golden = Some(streams);
                golden_drops = Some(drops);
            }
            (Some(g), Some(d)) => {
                assert_eq!(
                    *g, streams,
                    "span sim-time stream diverged at {threads} threads"
                );
                assert_eq!(*d, drops, "drop counts diverged at {threads} threads");
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn spans_reconcile_at_default_scale() {
    // The per-category reconciliation invariant holds at the full
    // `--scale 16` experiment size, not just the QUICK smoke scale.
    let (cfg, w) = traced_points().swap_remove(3);
    let r = uvm_sim::run(&cfg, &w);
    assert_eq!(r.span_trace.reconciled_totals(), r.timers);
}
