//! Regeneration of the paper's figures (1, 3, 4, 5, 6, 7, 8, 9, 10).

use super::{ms, run_sweep, Artifact, Scale};
use gpu_model::PageMask;
use metrics::report::{f, Table};
use metrics::{Category, EventKind};
use uvm_driver::prefetch::DensityTree;
use uvm_driver::{DriverConfig, PrefetchPolicy, ReplayPolicy};
use uvm_sim::{SimConfig, Workload, WorkloadKind};

fn cfg_with(scale: Scale, mutate: impl FnOnce(&mut DriverConfig)) -> SimConfig {
    let mut c = scale.config();
    mutate(&mut c.driver);
    c
}

/// **Figure 1** — cumulative access latency: explicit transfer vs UVM
/// without prefetching vs UVM with prefetching, for the regular and
/// random page-touch kernels, across under- and over-subscribed sizes.
pub fn fig1(scale: Scale) -> Artifact {
    let ratios = [0.01, 0.05, 0.25, 0.5, 0.75, 1.2, 1.5];
    let patterns = [WorkloadKind::Regular, WorkloadKind::Random];

    let mut points = Vec::new();
    for &p in &patterns {
        for &r in &ratios {
            let w = scale.workload(p, r);
            points.push((
                cfg_with(scale, |d| d.prefetch = PrefetchPolicy::Disabled),
                w.clone(),
            ));
            points.push((scale.config(), w));
        }
    }
    let reports = run_sweep(points);

    let mut table = Table::new(
        "Figure 1: UVM access latency vs explicit transfer (ms)",
        &[
            "pattern",
            "ratio",
            "footprint_mib",
            "explicit",
            "uvm_no_prefetch",
            "uvm_prefetch",
        ],
    );
    for (i, (&p, &r)) in patterns
        .iter()
        .flat_map(|p| ratios.iter().map(move |r| (p, r)))
        .enumerate()
    {
        let nopf = &reports[2 * i];
        let pf = &reports[2 * i + 1];
        table.row(vec![
            p.label().into(),
            f(r, 2),
            format!("{}", nopf.footprint_bytes >> 20),
            ms(nopf.explicit_time),
            ms(nopf.total_time),
            ms(pf.total_time),
        ]);
    }
    Artifact::table(table)
}

/// **Figure 3** — total kernel time and the driver-category breakdown
/// (preprocess / service / replay policy) across data sizes with
/// prefetching disabled and the default BatchFlush policy, for both
/// access patterns.
pub fn fig3(scale: Scale) -> Artifact {
    fault_scaling_breakdown(
        scale,
        "Figure 3: fault cost scaling and breakdown (ms), prefetch off, BatchFlush",
        ReplayPolicy::BatchFlush,
        &[WorkloadKind::Regular, WorkloadKind::Random],
    )
}

/// **Figure 5** — the same experiment as Figure 3 under the **Batch**
/// policy: the replay-policy cost collapses while preprocessing grows
/// (stale duplicates linger in the unflushed buffer).
pub fn fig5(scale: Scale) -> Artifact {
    fault_scaling_breakdown(
        scale,
        "Figure 5: fault cost scaling and breakdown (ms), prefetch off, Batch policy",
        ReplayPolicy::Batch,
        &[WorkloadKind::Regular],
    )
}

fn fault_scaling_breakdown(
    scale: Scale,
    title: &str,
    policy: ReplayPolicy,
    patterns: &[WorkloadKind],
) -> Artifact {
    let ratios = [
        1.0 / 8192.0,
        1.0 / 1024.0,
        1.0 / 128.0,
        1.0 / 16.0,
        0.25,
        0.5,
    ];
    let mut points = Vec::new();
    for &p in patterns {
        for &r in &ratios {
            points.push((
                cfg_with(scale, |d| {
                    d.prefetch = PrefetchPolicy::Disabled;
                    d.replay_policy = policy;
                }),
                scale.workload(p, r),
            ));
        }
    }
    let reports = run_sweep(points);

    let mut table = Table::new(
        title,
        &[
            "pattern",
            "footprint_kib",
            "kernel",
            "driver_total",
            "preprocess",
            "service",
            "replay_policy",
            "faults",
        ],
    );
    let mut i = 0;
    for &p in patterns {
        for _ in &ratios {
            let r = &reports[i];
            i += 1;
            table.row(vec![
                p.label().into(),
                format!("{}", r.footprint_bytes >> 10),
                ms(r.total_time),
                ms(r.timers.total()),
                ms(r.timers.get(Category::Preprocess)),
                ms(r.timers.service_total()),
                ms(r.timers.get(Category::ReplayPolicy)),
                format!("{}", r.total_faults()),
            ]);
        }
    }
    Artifact::table(table)
}

/// **Figure 4** — the service-cost sub-breakdown (Map Pages / Migrate
/// Pages / PMA Alloc Pages) at small sizes: PMA allocation dominates tiny
/// transfers and amortises away at larger ones.
pub fn fig4(scale: Scale) -> Artifact {
    let ratios = [
        1.0 / 8192.0,
        1.0 / 2048.0,
        1.0 / 512.0,
        1.0 / 128.0,
        1.0 / 32.0,
        1.0 / 8.0,
    ];
    let points = ratios
        .iter()
        .map(|&r| {
            (
                cfg_with(scale, |d| d.prefetch = PrefetchPolicy::Disabled),
                scale.workload(WorkloadKind::Regular, r),
            )
        })
        .collect();
    let reports = run_sweep(points);

    let mut table = Table::new(
        "Figure 4: service cost breakdown at small sizes (% of service)",
        &[
            "footprint_kib",
            "service_ms",
            "pma_alloc_pct",
            "migrate_pct",
            "map_pct",
        ],
    );
    for r in &reports {
        let service = r.timers.service_total().as_nanos() as f64;
        let pct = |c: Category| {
            if service == 0.0 {
                "0.0".to_string()
            } else {
                f(100.0 * r.timers.get(c).as_nanos() as f64 / service, 1)
            }
        };
        table.row(vec![
            format!("{}", r.footprint_bytes >> 10),
            ms(r.timers.service_total()),
            pct(Category::ServicePma),
            pct(Category::ServiceMigrate),
            pct(Category::ServiceMap),
        ]);
    }
    Artifact::table(table)
}

/// **Figure 6** — the density-prefetch tree concept, rendered on the
/// paper's illustrative scenario (a 4-level slice of the real 9-level
/// tree, threshold 51%).
pub fn fig6(_scale: Scale) -> Artifact {
    // Occupy 9 of the first 16 pages — one more fault tips the level-4
    // subtree over the 51% threshold, exactly as Fig. 6 illustrates.
    let mut occupancy = PageMask::EMPTY;
    for leaf in 0..9 {
        occupancy.set(leaf);
    }
    let tree = DensityTree::from_mask(&occupancy);

    let mut text = String::from(
        "Density-prefetch tree (levels 0-4 of 9), occupancy = pages 0..9 of a VABlock\n",
    );
    for level in (0..=4usize).rev() {
        let nodes = 16 >> level;
        let width = 1 << level;
        text.push_str(&format!("L{level}: "));
        for idx in 0..nodes {
            let count = tree.count(level, idx);
            let dens = 100 * count as usize / width;
            text.push_str(&format!("[{count:>2}/{width:<2} {dens:>3}%] "));
        }
        text.push('\n');
    }
    let (lvl, idx) = tree.region_for(3, 51);
    text.push_str(&format!(
        "fault at page 3, threshold 51% -> prefetch region = level {lvl} node {idx} \
         (pages {:?})\n",
        DensityTree::leaves_of(lvl, idx)
    ));

    let mut table = Table::new(
        "Figure 6: density tree region selection (threshold 51%)",
        &[
            "faulted_page",
            "occupied_of_16",
            "region_level",
            "region_pages",
        ],
    );
    for occupied in [1usize, 4, 8, 9, 12] {
        let mut m = PageMask::EMPTY;
        for l in 0..occupied {
            m.set(l);
        }
        let t = DensityTree::from_mask(&m);
        let (lvl, idx) = t.region_for(0, 51);
        let range = DensityTree::leaves_of(lvl, idx);
        table.row(vec![
            "0".into(),
            format!("{occupied}"),
            format!("{lvl}"),
            format!("{}..{}", range.start, range.end),
        ]);
    }
    Artifact {
        table,
        csvs: vec![("fig6_tree.txt".into(), text)],
    }
}

/// **Figure 7** — page-granularity access patterns as the driver sees
/// them (prefetching disabled): fault occurrence order vs page index, one
/// CSV per workload.
pub fn fig7(scale: Scale) -> Artifact {
    let kinds = [
        WorkloadKind::Regular,
        WorkloadKind::Sgemm,
        WorkloadKind::Stream,
        WorkloadKind::Cufft,
        WorkloadKind::Hpgmg,
        WorkloadKind::Cusparse,
    ];
    let points = kinds
        .iter()
        .map(|&k| {
            (
                cfg_with(scale, |d| {
                    d.prefetch = PrefetchPolicy::Disabled;
                    d.trace_capacity = Some(metrics::DEFAULT_TRACE_CAPACITY);
                }),
                scale.workload(k, 0.4),
            )
        })
        .collect();
    let reports = run_sweep(points);

    let mut table = Table::new(
        "Figure 7: driver-visible access patterns (prefetch off)",
        &["workload", "faults", "distinct_pages", "allocations"],
    );
    let mut csvs = Vec::new();
    for (k, r) in kinds.iter().zip(&reports) {
        let mut csv = String::from("order,page\n");
        let mut pages = std::collections::BTreeSet::new();
        for e in &r.trace {
            if matches!(e.kind, EventKind::Fault) {
                csv.push_str(&format!("{},{}\n", e.order, e.page));
                pages.insert(e.page);
            }
        }
        table.row(vec![
            k.label().into(),
            format!("{}", r.total_faults()),
            format!("{}", pages.len()),
            format!("{}", r.counters.vablocks_serviced),
        ]);
        csvs.push((format!("fig7_{}.csv", k.label()), csv));
    }
    Artifact { table, csvs }
}

/// **Figure 8** — SGEMM at ~120 % of GPU memory with evictions plotted on
/// the fault timeline; evict-then-refault is the worst-case behaviour the
/// paper highlights.
pub fn fig8(scale: Scale) -> Artifact {
    let w = sgemm_at_ratio(scale, 1.27);
    let mut cfg = sgemm_config(scale);
    cfg.driver.trace_capacity = Some(metrics::DEFAULT_TRACE_CAPACITY);
    let r = uvm_sim::run(&cfg, &w);

    let mut csv = String::from("order,page,kind\n");
    let mut fault_counts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for e in &r.trace {
        let kind = match e.kind {
            EventKind::Fault => "fault",
            EventKind::Prefetch => continue,
            EventKind::Eviction => "evict",
        };
        if matches!(e.kind, EventKind::Fault) {
            *fault_counts.entry(e.page).or_insert(0) += 1;
        }
        csv.push_str(&format!("{},{},{kind}\n", e.order, e.page));
    }
    let refaulted = fault_counts.values().filter(|&&c| c > 1).count();

    let mut table = Table::new(
        "Figure 8: sgemm at ~120% of GPU memory — faults and evictions",
        &[
            "ratio",
            "faults",
            "evictions",
            "pages_evicted",
            "refaulted_pages",
            "kernel_ms",
        ],
    );
    table.row(vec![
        f(r.subscription_ratio, 2),
        format!("{}", r.total_faults()),
        format!("{}", r.counters.evictions),
        format!("{}", r.counters.pages_evicted_total()),
        format!("{refaulted}"),
        ms(r.total_time),
    ]);
    Artifact {
        table,
        csvs: vec![("fig8_sgemm_oversub.csv".into(), csv)],
    }
}

/// **Figure 9** — oversubscribed breakdown with prefetching enabled:
/// the regular vs random order-of-magnitude gap, with "Map" (mapping +
/// migration) and eviction costs reported per size.
pub fn fig9(scale: Scale) -> Artifact {
    let ratios = [1.1, 1.3, 1.5];
    let patterns = [WorkloadKind::Regular, WorkloadKind::Random];
    let mut points = Vec::new();
    for &p in &patterns {
        for &r in &ratios {
            points.push((scale.config(), scale.workload(p, r)));
        }
    }
    let reports = run_sweep(points);

    let mut table = Table::new(
        "Figure 9: oversubscribed breakdown with prefetching (ms)",
        &[
            "pattern",
            "ratio",
            "kernel",
            "map_migrate",
            "eviction",
            "preprocess",
            "bytes_moved_mib",
        ],
    );
    let mut i = 0;
    for &p in &patterns {
        for _ in &ratios {
            let r = &reports[i];
            i += 1;
            table.row(vec![
                p.label().into(),
                f(r.subscription_ratio, 2),
                ms(r.total_time),
                ms(r.timers.service_total()),
                ms(r.timers.get(Category::Eviction)),
                ms(r.timers.get(Category::Preprocess)),
                format!("{}", r.bytes_moved() >> 20),
            ]);
        }
    }
    Artifact::table(table)
}

/// An SGEMM workload whose footprint is `ratio` × GPU memory at `scale`.
pub fn sgemm_at_ratio(scale: Scale, ratio: f64) -> Workload {
    scale.workload(WorkloadKind::Sgemm, ratio)
}

/// Config for the SGEMM experiments: fat GEMM tiles are register- and
/// shared-memory-hungry, so occupancy is low (~2 blocks per SM). The
/// smaller resident window makes the grid execute in waves, exposing the
/// cross-wave reuse that eviction thrashes on (paper Fig. 8).
pub fn sgemm_config(scale: Scale) -> SimConfig {
    let mut c = scale.config();
    c.gpu.max_blocks_resident = 160;
    c
}

/// **Figure 10** — SGEMM compute rate falling (and data movement rising)
/// as the problem crosses into oversubscription.
pub fn fig10(scale: Scale) -> Artifact {
    let reports = sgemm_sweep(scale);
    let mut table = Table::new(
        "Figure 10: sgemm compute rate vs oversubscription",
        &[
            "n",
            "ratio",
            "kernel_ms",
            "gflops",
            "data_moved_mib",
            "footprint_mib",
        ],
    );
    for (n, r) in &reports {
        let flops = 2.0 * (*n as f64).powi(3);
        table.row(vec![
            format!("{n}"),
            f(r.subscription_ratio, 2),
            ms(r.total_time),
            f(r.compute_rate(flops) / 1e9, 1),
            format!("{}", r.bytes_moved() >> 20),
            format!("{}", r.footprint_bytes >> 20),
        ]);
    }
    Artifact::table(table)
}

/// The SGEMM size sweep shared by Figure 10 and Table II.
pub fn sgemm_sweep(scale: Scale) -> Vec<(usize, uvm_sim::SimReport)> {
    // n at which 3*4*n² == GPU memory.
    let n_full = ((scale.gpu_bytes() as f64 / 12.0).sqrt() as usize / 512).max(1) * 512;
    let ns: Vec<usize> = (-2i64..=4)
        .map(|k| (n_full as i64 + k * 512).max(512) as usize)
        .collect();
    let points = ns
        .iter()
        .map(|&n| {
            (
                sgemm_config(scale),
                Workload::Sgemm(workloads::SgemmParams {
                    n,
                    tile: 256,
                    gpu_flops: workloads::common::GPU_FLOPS * scale.fraction,
                }),
            )
        })
        .collect();
    ns.into_iter().zip(run_sweep(points)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_is_pure_and_matches_paper_example() {
        let a = fig6(Scale::QUICK);
        assert_eq!(a.table.num_rows(), 5);
        assert_eq!(a.csvs.len(), 1);
        assert!(a.csvs[0].1.contains("prefetch region = level 4"));
    }

    #[test]
    fn fig4_percentages_roughly_sum() {
        let a = fig4(Scale::QUICK);
        let csv = a.table.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let sum: f64 = cells[2..5].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((99.0..101.0).contains(&sum), "row {line}: {sum}");
        }
    }

    #[test]
    fn fig1_prefetch_wins_undersubscribed() {
        let a = fig1(Scale::QUICK);
        let csv = a.table.to_csv();
        // First row: regular at ratio 0.01 — prefetch strictly helps.
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let explicit: f64 = row[3].parse().unwrap();
        let nopf: f64 = row[4].parse().unwrap();
        let pf: f64 = row[5].parse().unwrap();
        assert!(explicit < nopf, "explicit beats UVM-no-prefetch");
        assert!(pf <= nopf, "prefetch does not hurt tiny undersubscribed");
    }
}
