//! The oversubscription observatory sweep behind `repro oversub`
//! (ROADMAP's size-factor sweep): every workload × every
//! [`EvictionPolicy`] × a device-memory ratio grid, reduced to
//! [`metrics::oversub`] cells and thrash-cliff rows.

use super::{run_sweep_labelled, Scale};
use metrics::oversub::{detect_cliffs, Cliff, OversubCell};
use uvm_driver::EvictionPolicy;
use uvm_sim::{SimReport, WorkloadKind};

/// The full ratio grid: 0.25×–2.0× device memory, 9 points, denser
/// around the 1.0×–1.5× band where the paper's thrash cliffs live.
pub const FULL_RATIOS_CENTI: &[u32] = &[25, 50, 75, 100, 115, 125, 150, 175, 200];

/// The push-gate subset: still spans under- to heavily-oversubscribed.
pub const SMALL_RATIOS_CENTI: &[u32] = &[50, 100, 150, 200];

/// The push-gate workload subset (one regular, one streaming).
pub const SMALL_WORKLOADS: &[WorkloadKind] = &[WorkloadKind::Regular, WorkloadKind::Stream];

/// Which slice of the observatory to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Workloads swept.
    pub workloads: &'static [WorkloadKind],
    /// Device-memory ratios swept, as centi-ratios.
    pub ratios_centi: &'static [u32],
}

impl Grid {
    /// The nightly grid: every workload, every ratio.
    pub fn full() -> Grid {
        Grid {
            workloads: &WorkloadKind::ALL,
            ratios_centi: FULL_RATIOS_CENTI,
        }
    }

    /// The push-gate grid: a subset of workloads and ratios; always all
    /// four eviction policies (the policy seam is what the gate checks).
    pub fn small() -> Grid {
        Grid {
            workloads: SMALL_WORKLOADS,
            ratios_centi: SMALL_RATIOS_CENTI,
        }
    }

    /// Sweep points in the grid.
    pub fn points(&self) -> usize {
        self.workloads.len() * EvictionPolicy::ALL.len() * self.ratios_centi.len()
    }
}

/// The sweep's output: one cell per point in canonical nested-loop
/// order (workload outer, policy, ratio inner — the same order the
/// metrics artefacts index points by), plus one cliff row per
/// (workload, policy) curve.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One cell per sweep point, in sweep order.
    pub cells: Vec<OversubCell>,
    /// One row per (workload, policy) curve, in first-appearance order.
    pub cliffs: Vec<Cliff>,
}

/// Reduce one report to its sweep cell. The recorded ratio is the
/// *requested* grid ratio — realised footprints snap to each workload's
/// tile/power-of-two constraints, so the raw `footprint_bytes` column
/// carries the realised size and every derived metric is computed from
/// realised values.
fn cell(workload: &str, policy: &str, ratio_centi: u32, r: &SimReport) -> OversubCell {
    OversubCell {
        workload: workload.to_string(),
        policy: policy.to_string(),
        ratio_centi,
        faults: r.total_faults(),
        evictions: r.counters.evictions,
        pages_evicted: r.counters.pages_evicted_total(),
        refault_faults: r.attribution.refault_used_faults + r.attribution.refault_unused_faults,
        prefetch_evicted_pages: r.attribution.prefetch_evicted_pages,
        sim_time_ns: r.total_time.as_nanos(),
        footprint_bytes: r.footprint_bytes,
    }
}

/// Run the observatory sweep. Points execute on the shared sweep
/// machinery (parallel, deterministic, order-preserving), labelled by
/// *eviction* policy so the metrics artefacts carry the policy axis.
pub fn run(scale: Scale, grid: &Grid) -> Outcome {
    let mut points = Vec::with_capacity(grid.points());
    let mut labels = Vec::with_capacity(grid.points());
    let mut meta = Vec::with_capacity(grid.points());
    for &kind in grid.workloads {
        for &policy in &EvictionPolicy::ALL {
            for &rc in grid.ratios_centi {
                let cfg = scale.config().with_eviction(policy);
                let w = scale.workload(kind, rc as f64 / 100.0);
                labels.push(policy.label());
                meta.push((kind.label(), policy.label(), rc));
                points.push((cfg, w));
            }
        }
    }
    let reports = run_sweep_labelled(points, labels);
    let cells: Vec<OversubCell> = meta
        .iter()
        .zip(&reports)
        .map(|(&(w, p, rc), r)| cell(w, p, rc, r))
        .collect();
    let cliffs = detect_cliffs(&cells);
    Outcome { cells, cliffs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_all_policies_and_requested_span() {
        for g in [Grid::full(), Grid::small()] {
            assert_eq!(
                g.points(),
                g.workloads.len() * 4 * g.ratios_centi.len(),
                "all four eviction policies in every grid"
            );
            assert!(g.ratios_centi.first().copied().unwrap() <= 50);
            assert!(g.ratios_centi.last().copied().unwrap() >= 150);
            assert!(g.ratios_centi.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(
            Grid::full().ratios_centi.len() >= 8,
            "tentpole: >= 8 grid points"
        );
        assert_eq!(Grid::full().workloads.len(), WorkloadKind::ALL.len());
    }

    #[test]
    fn tiny_sweep_produces_cells_and_stable_cliff_rows() {
        let grid = Grid {
            workloads: &[WorkloadKind::Regular],
            ratios_centi: &[50, 150],
        };
        let outcome = run(Scale::QUICK, &grid);
        assert_eq!(outcome.cells.len(), 8);
        assert_eq!(
            outcome.cliffs.len(),
            4,
            "one row per policy even with no cliff"
        );
        for c in &outcome.cells {
            assert!(c.faults > 0);
            assert!(c.footprint_bytes > 0);
            if c.ratio_centi > 100 {
                assert!(
                    c.evictions > 0,
                    "{}/{} oversubscribed cell must evict",
                    c.policy,
                    c.ratio_centi
                );
            }
        }
        // Deterministic: the same sweep reduces to identical cells.
        let again = run(Scale::QUICK, &grid);
        assert_eq!(outcome.cells, again.cells);
        assert_eq!(outcome.cliffs, again.cliffs);
    }
}
