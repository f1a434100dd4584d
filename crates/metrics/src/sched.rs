//! Host wall-time accounting for the sweep's point scheduler: how many
//! points ran, on how many worker threads, and the longest single point
//! (the straggler that bounds sweep wall time).
//!
//! Like [`phase`](crate::phase), these are *host* measurements —
//! deliberately kept out of serialized simulation results so simulated
//! output stays bit-identical across thread counts and hosts. The sweep
//! scheduler records one [`SweepSchedStats`] per sweep into the
//! process-global totals; the `repro` harness drains them per experiment
//! into `BENCH_hotpaths.json` and the `uvm_sweep_*` gauges.

use crate::exposition::{MetricDef, MetricKind};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Exposition gauge: simulation points executed by the sweep scheduler.
pub const SWEEP_POINTS: MetricDef = MetricDef {
    name: "uvm_sweep_points",
    kind: MetricKind::Gauge,
    help: "Simulation points executed by the sweep scheduler.",
};

/// Exposition gauge: the sweep's straggler bound in host milliseconds.
pub const SWEEP_MAX_STRAGGLER_MS: MetricDef = MetricDef {
    name: "uvm_sweep_max_straggler_ms",
    kind: MetricKind::Gauge,
    help: "Wall milliseconds of the single longest sweep point.",
};

/// Exposition gauge: sweep worker threads used.
pub const SWEEP_THREADS: MetricDef = MetricDef {
    name: "uvm_sweep_threads",
    kind: MetricKind::Gauge,
    help: "Sweep worker threads (1 = serial).",
};

/// One sweep's (or experiment's) point-scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSchedStats {
    /// Simulation points executed.
    pub points: u64,
    /// Inert: always 0, since the sweep runs as one parallel map and
    /// nothing is stolen. Kept only because the benchmark crate under
    /// `perfbench/` still reads this field; drop it together with that
    /// use.
    pub stolen: u64,
    /// Wall nanoseconds of the single longest point — the straggler that
    /// lower-bounds the sweep's wall time at any thread count.
    pub max_point_wall_ns: u64,
    /// Sweep worker threads (1 = serial).
    pub threads: u64,
}

impl SweepSchedStats {
    /// Merge another sweep's stats into this accumulator: counts add,
    /// the straggler and thread width take the max.
    pub fn merge(&mut self, o: &SweepSchedStats) {
        self.points += o.points;
        self.max_point_wall_ns = self.max_point_wall_ns.max(o.max_point_wall_ns);
        self.threads = self.threads.max(o.threads);
    }
}

static POINTS: AtomicU64 = AtomicU64::new(0);
static MAX_POINT_WALL_NS: AtomicU64 = AtomicU64::new(0);
static THREADS_MAX: AtomicU64 = AtomicU64::new(0);

/// Add one sweep's stats to the process-global totals (thread-safe).
pub fn record(s: &SweepSchedStats) {
    POINTS.fetch_add(s.points, Ordering::Relaxed);
    MAX_POINT_WALL_NS.fetch_max(s.max_point_wall_ns, Ordering::Relaxed);
    THREADS_MAX.fetch_max(s.threads, Ordering::Relaxed);
}

/// Drain the process-global totals, resetting them to zero. The `repro`
/// harness calls this after each experiment.
pub fn take() -> SweepSchedStats {
    SweepSchedStats {
        points: POINTS.swap(0, Ordering::Relaxed),
        stolen: 0,
        max_point_wall_ns: MAX_POINT_WALL_NS.swap(0, Ordering::Relaxed),
        threads: THREADS_MAX.swap(0, Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_straggler() {
        let mut a = SweepSchedStats {
            points: 4,
            stolen: 0,
            max_point_wall_ns: 100,
            threads: 2,
        };
        let b = SweepSchedStats {
            points: 6,
            stolen: 0,
            max_point_wall_ns: 50,
            threads: 8,
        };
        a.merge(&b);
        assert_eq!(a.points, 10);
        assert_eq!(a.max_point_wall_ns, 100);
        assert_eq!(a.threads, 8);
    }

    // `record`/`take` touch process-global state shared with other tests
    // in this binary, so only the at-least invariant is asserted.
    #[test]
    fn record_take_roundtrip() {
        let s = SweepSchedStats {
            points: 3,
            stolen: 0,
            max_point_wall_ns: 77,
            threads: 4,
        };
        record(&s);
        let got = take();
        assert!(got.points >= 3);
        assert!(got.max_point_wall_ns >= 77);
        assert!(got.threads >= 4);
    }
}
