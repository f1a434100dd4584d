//! Contracts of the sweep scheduler and the cross-sweep `SweepCache`:
//! input-order results under any schedule, one completion callback per
//! point, and a cache whose stats never wait on trace generation.
//!
//! These tests set the process-global rayon thread count, so they live
//! in their own test binary.

use sim_engine::units::MIB;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;
use uvm_sim::{run, run_sweep_cached_with, SimConfig, SweepCache, Workload};
use workloads::{RandomParams, RegularParams};

fn config(mem_mib: u64) -> SimConfig {
    let mut c = SimConfig::default();
    c.driver.gpu_memory_bytes = mem_mib * MIB;
    c
}

fn regular(mib: u64) -> Workload {
    Workload::Regular(RegularParams {
        bytes: mib * MIB,
        warps_per_block: 8,
    })
}

/// The scheduler runs points longest-first on a shared cursor but hands
/// reports back in input order, each equal to a plain `run`, with one
/// `on_point` call per index.
#[test]
fn sweep_returns_input_order_whatever_the_schedule() {
    // Ascending sizes: the longest-first schedule reverses them.
    let points: Vec<(SimConfig, Workload)> = [2, 4, 6, 8, 10]
        .iter()
        .map(|&mib| (config(8), regular(mib)))
        .collect();
    let calls: Vec<AtomicU32> = points.iter().map(|_| AtomicU32::new(0)).collect();
    rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build_global()
        .unwrap();
    let reports = run_sweep_cached_with(None, points.clone(), |i, _| {
        calls[i].fetch_add(1, Ordering::Relaxed);
    });
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .unwrap();
    assert_eq!(reports.len(), points.len());
    for ((config, workload), r) in points.iter().zip(&reports) {
        let want = run(config, workload);
        assert_eq!(r.footprint_bytes, workload.footprint_bytes());
        assert_eq!(r.total_time, want.total_time);
        assert_eq!(r.counters, want.counters);
        assert_eq!(r.engine, want.engine);
        assert_eq!(r.transfers, want.transfers);
    }
    for (i, c) in calls.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "on_point for index {i}");
    }
    assert!(uvm_sim::metrics::sched::take().points >= points.len() as u64);
}

/// A `stats()` poll (the serve daemon's `/metrics` scrape) must not wait
/// while another thread prepares a workload.
#[test]
fn cache_stats_do_not_wait_on_prepare() {
    let cache = SweepCache::new(4);
    let cfg = config(64);
    // ~230 ms to prepare in an unoptimised test build.
    let w = Workload::Random(RandomParams {
        bytes: 4096 * MIB,
        warps_per_block: 8,
    });
    let mut saw_in_flight = false;
    std::thread::scope(|s| {
        let preparing = s.spawn(|| cache.get_or_prepare(&cfg, &w));
        while !preparing.is_finished() {
            let st = cache.stats();
            saw_in_flight |= st.misses == 1 && st.entries == 0;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });
    assert!(
        saw_in_flight,
        "stats() only ever saw the cache before or after prepare"
    );
    assert_eq!(cache.stats().entries, 1);
}

/// Callers racing on one key leave one entry and count one lookup each.
#[test]
fn racing_callers_share_one_entry() {
    const N: usize = 4;
    let cache = SweepCache::new(4);
    let cfg = config(64);
    let w = regular(8);
    let start = Barrier::new(N);
    std::thread::scope(|s| {
        for _ in 0..N {
            s.spawn(|| {
                start.wait();
                cache.get_or_prepare(&cfg, &w)
            });
        }
    });
    let st = cache.stats();
    assert_eq!(st.entries, 1);
    assert_eq!(st.hits + st.misses, N as u64);
}
