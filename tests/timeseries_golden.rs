//! Golden determinism for the telemetry timeseries: the sample stream is
//! a pure function of `(config, workload)`. Samples are taken on the
//! *simulated* clock from simulated state only, so the rayon thread
//! count driving a sweep may not change a single bit — the whole
//! [`Timeseries`] (grid, compaction count, every integer field of every
//! sample) must compare equal.

use bench::experiments::Scale;
use metrics::{LineageLog, Timeseries, TimeseriesConfig};
use uvm_sim::{PrefetchPolicy, SimConfig, Workload, WorkloadKind};

/// Figure-1-style points at the `repro --scale 16` platform: streaming
/// and random kernels, under- and over-subscribed (the over-subscribed
/// ones evict and thrash, exercising every sampled signal), with and
/// without the prefetcher. The small capacity forces in-place compaction
/// so the interval-doubling path is part of the golden surface too.
fn sampled_points() -> Vec<(SimConfig, Workload)> {
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
        // Sampling also arms the lineage event stream, emitted from the
        // same serial commit paths, so it shares the golden surface:
        // bit-identical at any thread count.
        cfg.driver.timeseries = Some(TimeseriesConfig {
            interval_ns: 50_000,
            capacity: 256,
        });
        points.push((cfg, scale.workload(kind, ratio)));
    }
    points
}

#[test]
fn sample_streams_identical_across_thread_counts() {
    let mut golden: Option<Vec<(Timeseries, LineageLog)>> = None;
    for threads in [1usize, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure thread pool");
        let reports = uvm_sim::run_sweep(sampled_points());
        assert!(
            reports.iter().all(|r| !r.timeseries.samples.is_empty()),
            "every sampled point produced samples"
        );
        assert!(
            reports.iter().all(|r| !r.lineage.is_empty()),
            "every sampled point produced lineage events"
        );
        for r in &reports {
            let last = r.timeseries.last().expect("sampled point has a final sample");
            r.lineage
                .reconcile(last)
                .unwrap_or_else(|e| panic!("{}: {e}", r.workload));
        }
        let streams: Vec<(Timeseries, LineageLog)> = reports
            .into_iter()
            .map(|r| (r.timeseries, r.lineage))
            .collect();
        match &golden {
            None => golden = Some(streams),
            Some(g) => assert_eq!(*g, streams, "sample stream diverged at {threads} threads"),
        }
    }
}

#[test]
fn sample_streams_identical_across_retry_modes() {
    use uvm_sim::gpu_model::RetryMode;
    // The event-driven replay may only change *how fast* retries resolve,
    // never what they simulate: with the skip/wakeup telemetry columns
    // masked, every sampled signal and every lineage event must be
    // bit-identical across Scan (reference rescan), Event (change-epoch
    // skip) and CrossCheck (both side by side, hard-asserting agreement).
    let mask = |mut ts: Timeseries| {
        for s in ts.samples.iter_mut() {
            s.retries_skipped = 0;
            s.retry_pages_skipped = 0;
            s.wakeups = 0;
        }
        ts
    };
    let mut golden: Option<Vec<(Timeseries, LineageLog)>> = None;
    for retry in [RetryMode::Scan, RetryMode::Event, RetryMode::CrossCheck] {
        let mut points = sampled_points();
        for (cfg, _) in points.iter_mut() {
            cfg.gpu.retry = retry;
        }
        let reports = uvm_sim::run_sweep(points);
        if retry == RetryMode::Event {
            let woken: u64 = reports.iter().map(|r| r.engine.wakeups).sum();
            assert!(
                woken > 0,
                "the event-driven path must actually engage at this scale"
            );
        } else if retry == RetryMode::Scan {
            assert!(
                reports.iter().all(|r| r.engine.retries_skipped == 0),
                "scan mode must never skip"
            );
        }
        let streams: Vec<(Timeseries, LineageLog)> = reports
            .into_iter()
            .map(|r| (mask(r.timeseries), r.lineage))
            .collect();
        match &golden {
            None => golden = Some(streams),
            Some(g) => assert_eq!(*g, streams, "sample stream diverged under {retry:?}"),
        }
    }
}

#[test]
fn final_sample_and_csv_reconcile_at_default_scale() {
    // The forced end-of-run sample must carry exactly the report's
    // counters/transfers, stamped at the end of the driver's critical
    // path (`driver_time`; `total_time` additionally includes the
    // engine's compute time, which the driver clock never sees). The
    // exported CSV must both validate against the schema and round-trip
    // those totals in its last row.
    for (cfg, w) in sampled_points() {
        let r = uvm_sim::run(&cfg, &w);
        let last = *r.timeseries.last().expect("run produced samples");
        assert_eq!(last.t_ns, r.driver_time.as_nanos(), "{}", r.workload);
        assert_eq!(last.faults_fetched, r.counters.faults_fetched);
        assert_eq!(last.pages_faulted_in, r.counters.pages_faulted_in);
        assert_eq!(last.pages_prefetched, r.counters.pages_prefetched);
        assert_eq!(last.evictions, r.counters.evictions);
        assert_eq!(last.pages_evicted, r.counters.pages_evicted_total());
        assert_eq!(last.thrash_pins, r.counters.thrash_pins);
        assert_eq!(last.migrated_bytes_h2d, r.transfers.h2d_bytes);
        assert_eq!(last.migrated_bytes_d2h, r.transfers.d2h_bytes);

        let csv = r.timeseries.to_csv();
        let stats = metrics::timeseries::validate_csv(&csv).expect("CSV validates");
        assert_eq!(stats.rows, r.timeseries.samples.len());
        let last_row = csv.lines().last().expect("CSV has rows");
        let cells: Vec<u64> = last_row.split(',').map(|c| c.parse().unwrap()).collect();
        assert_eq!(cells[0], r.driver_time.as_nanos());
        assert_eq!(cells[1], r.counters.faults_fetched);
    }
}

#[test]
fn compaction_engages_at_default_scale() {
    // The thrashing point produces far more grid hits than the 256-slot
    // buffer holds; the stream must compact (doubling its interval)
    // rather than truncate, and still cover the whole run.
    let (cfg, w) = sampled_points().swap_remove(3);
    let r = uvm_sim::run(&cfg, &w);
    let ts = &r.timeseries;
    assert!(ts.compactions > 0, "expected compaction at 256 samples");
    assert_eq!(ts.interval_ns, ts.base_interval_ns << ts.compactions);
    assert!(ts.samples.len() <= 256);
    assert_eq!(ts.last().unwrap().t_ns, r.driver_time.as_nanos());
}
