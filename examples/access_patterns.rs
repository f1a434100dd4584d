//! Dump the driver-visible page access pattern of a workload — the
//! tooling behind the paper's Figure 7/8 scatter plots.
//!
//! Writes `<workload>_pattern.csv` with one row per driver-processed
//! fault (plus evictions when oversubscribed) and prints a terminal
//! scatter preview: fault occurrence order (x) vs page index (y).
//!
//! ```text
//! cargo run --release --example access_patterns [workload] [ratio_pct]
//! ```

use uvm_sim::{run, EventKind, PrefetchPolicy, SimConfig, Workload, WorkloadKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = match args.first().map(String::as_str) {
        None | Some("sgemm") => WorkloadKind::Sgemm,
        Some("regular") => WorkloadKind::Regular,
        Some("random") => WorkloadKind::Random,
        Some("stream") => WorkloadKind::Stream,
        Some("cufft") => WorkloadKind::Cufft,
        Some("tealeaf") => WorkloadKind::Tealeaf,
        Some("hpgmg") => WorkloadKind::Hpgmg,
        Some("cusparse") => WorkloadKind::Cusparse,
        Some(other) => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    let ratio_pct: u64 = match args.get(1) {
        None => 40,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("ratio must be a percentage, got {v:?}");
            std::process::exit(2);
        }),
    };

    let mut config = SimConfig::scaled(1.0 / 64.0);
    config.driver.trace_capacity = Some(uvm_sim::metrics::DEFAULT_TRACE_CAPACITY);
    if ratio_pct <= 100 {
        // Match the paper's Fig. 7 setup: prefetching disabled so the raw
        // pattern is visible.
        config.driver.prefetch = PrefetchPolicy::Disabled;
    }
    let workload = Workload::with_footprint(kind, config.driver.gpu_memory_bytes * ratio_pct / 100);
    let report = run(&config, &workload);

    // CSV artifact.
    let path = format!("{}_pattern.csv", workload.name());
    let mut csv = String::from("order,page,kind\n");
    for e in &report.trace {
        let kind = match e.kind {
            EventKind::Fault => "fault",
            EventKind::Prefetch => continue,
            EventKind::Eviction => "evict",
        };
        csv.push_str(&format!("{},{},{kind}\n", e.order, e.page));
    }
    std::fs::write(&path, &csv).expect("write CSV");

    // Terminal scatter preview (faults only).
    const W: usize = 100;
    const H: usize = 28;
    let faults: Vec<(u64, u64)> = report
        .trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fault))
        .map(|e| (e.order, e.page))
        .collect();
    let max_order = faults.iter().map(|&(o, _)| o).max().unwrap_or(1).max(1);
    let max_page = faults.iter().map(|&(_, p)| p).max().unwrap_or(1).max(1);
    let mut grid = vec![[false; W]; H];
    for &(o, p) in &faults {
        let x = (o as usize * (W - 1)) / max_order as usize;
        let y = (p as usize * (H - 1)) / max_page as usize;
        grid[H - 1 - y][x] = true;
    }
    println!(
        "{}: {} faults over {} pages ({}% of GPU memory), prefetch {}",
        workload.name(),
        faults.len(),
        max_page + 1,
        ratio_pct,
        if ratio_pct <= 100 { "off" } else { "on" },
    );
    println!("page index ^ / fault occurrence ->");
    for row in &grid {
        let line: String = row.iter().map(|&b| if b { '*' } else { ' ' }).collect();
        println!("|{line}|");
    }
    println!("wrote {path} ({} events)", report.trace.len());
}
