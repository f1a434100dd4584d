//! Host wall-time accounting for the driver's batch service: the wall
//! spent in `process_pass` (fetch/sort, the ordered plan-and-commit walk
//! with allocation and eviction, replay policy).
//!
//! These are *host* wall-clock measurements — deliberately kept out of
//! [`SimReport`](../uvm_sim/struct.SimReport.html)-style serialized
//! results so simulated output stays bit-identical across thread counts
//! and hosts. Drivers accumulate a [`ServicePhaseWall`] locally and flush
//! it into the process-global totals on drop; the `repro` harness drains
//! the totals per experiment.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wall time of the driver's batch-service pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServicePhaseWall {
    /// Wall nanoseconds the driver spent in `process_pass`.
    pub serial_front_ns: u64,
    /// Inert: always 0, since the driver plans each group inline right
    /// before its commit. Kept only because the benchmark crate under
    /// `perfbench/` still reads it; drop it together with that read.
    pub parallel_service_ns: u64,
}

static SERIAL_FRONT_NS: AtomicU64 = AtomicU64::new(0);

/// Add a driver's accumulated phase wall to the process-global totals
/// (called when a driver is dropped; thread-safe).
pub fn record(w: &ServicePhaseWall) {
    SERIAL_FRONT_NS.fetch_add(w.serial_front_ns, Ordering::Relaxed);
}

/// Drain the process-global totals, resetting them to zero. The `repro`
/// harness calls this after each experiment.
pub fn take() -> ServicePhaseWall {
    ServicePhaseWall {
        serial_front_ns: SERIAL_FRONT_NS.swap(0, Ordering::Relaxed),
        parallel_service_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `record`/`take` touch process-global state shared with other tests
    // in this binary, so only the invariant that recording then draining
    // returns at least what was recorded is asserted.
    #[test]
    fn record_take_roundtrip() {
        let w = ServicePhaseWall {
            serial_front_ns: 7,
            parallel_service_ns: 0,
        };
        record(&w);
        let got = take();
        assert!(got.serial_front_ns >= 7);
        assert_eq!(got.parallel_service_ns, 0);
    }
}
