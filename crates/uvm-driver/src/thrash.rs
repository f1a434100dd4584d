//! Thrashing detection and mitigation (the real driver ships this as
//! `uvm_perf_thrashing`; the paper's §VI-B4 suggests the driver "infer
//! from the fault/eviction load" and adapt).
//!
//! A VABlock that faults again after having been evicted is *refaulting*;
//! enough refaults mark it thrashing, and the mitigation *pins* it — the
//! eviction path skips pinned blocks for a number of batches, so data in
//! an active reuse window stops bouncing across the interconnect.

use gpu_model::VaBlockIdx;
use serde::{Deserialize, Serialize};

/// Thrashing-mitigation configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThrashConfig {
    /// Enable detection + pinning (stock-driver default here: off, so the
    /// baseline reproduces the paper's unmitigated behaviour).
    pub enabled: bool,
    /// Refaults (fault on a previously-evicted block) before a block is
    /// considered thrashing and pinned.
    pub refault_threshold: u32,
    /// How many batches a pin lasts.
    pub pin_duration_batches: u64,
}

impl Default for ThrashConfig {
    fn default() -> Self {
        ThrashConfig {
            enabled: false,
            refault_threshold: 2,
            pin_duration_batches: 64,
        }
    }
}

/// Per-VABlock refault scoring and pin bookkeeping.
#[derive(Debug, Clone)]
pub struct ThrashDetector {
    cfg: ThrashConfig,
    scores: Vec<u32>,
    pinned_until: Vec<u64>,
    batch_no: u64,
    refaults: u64,
}

impl ThrashDetector {
    /// A detector over `num_blocks` VABlocks.
    pub fn new(cfg: ThrashConfig, num_blocks: usize) -> Self {
        assert!(cfg.refault_threshold > 0, "threshold must be nonzero");
        ThrashDetector {
            cfg,
            scores: vec![0; num_blocks],
            pinned_until: vec![0; num_blocks],
            batch_no: 0,
            refaults: 0,
        }
    }

    /// True if mitigation is active.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Advance the batch clock (call once per driver pass).
    pub fn on_batch(&mut self) {
        self.batch_no += 1;
    }

    /// Record a refault (a fault for a block that has been evicted
    /// before). Returns true if the block just became pinned.
    ///
    /// Refaults are counted even with mitigation disabled — the count is
    /// the evict-before-reuse thrash signal the telemetry timeseries
    /// samples, and it must not change when pinning is switched on.
    pub fn note_refault(&mut self, block: VaBlockIdx) -> bool {
        self.refaults += 1;
        if !self.cfg.enabled {
            return false;
        }
        let i = block.0 as usize;
        self.scores[i] += 1;
        if self.scores[i] >= self.cfg.refault_threshold && !self.is_pinned(block) {
            self.pinned_until[i] = self.batch_no + self.cfg.pin_duration_batches;
            self.scores[i] = 0;
            return true;
        }
        false
    }

    /// True if `block` is currently pinned against eviction.
    pub fn is_pinned(&self, block: VaBlockIdx) -> bool {
        self.cfg.enabled && self.pinned_until[block.0 as usize] > self.batch_no
    }

    /// Total refaults observed (faults on previously-evicted blocks),
    /// counted whether or not mitigation is enabled.
    pub fn refaults(&self) -> u64 {
        self.refaults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> VaBlockIdx {
        VaBlockIdx(i)
    }

    fn enabled() -> ThrashDetector {
        ThrashDetector::new(
            ThrashConfig {
                enabled: true,
                refault_threshold: 2,
                pin_duration_batches: 3,
            },
            8,
        )
    }

    #[test]
    fn disabled_never_pins() {
        let mut d = ThrashDetector::new(ThrashConfig::default(), 8);
        for _ in 0..10 {
            assert!(!d.note_refault(b(0)));
        }
        assert!(!d.is_pinned(b(0)));
        assert_eq!(d.refaults(), 10, "refaults counted even when disabled");
    }

    #[test]
    fn threshold_refaults_pin() {
        let mut d = enabled();
        assert!(!d.note_refault(b(3)), "first refault only scores");
        assert!(!d.is_pinned(b(3)));
        assert!(d.note_refault(b(3)), "second refault pins");
        assert!(d.is_pinned(b(3)));
        assert!(!d.is_pinned(b(4)));
    }

    #[test]
    fn pins_expire_after_duration() {
        let mut d = enabled();
        d.note_refault(b(0));
        d.note_refault(b(0));
        assert!(d.is_pinned(b(0)));
        for _ in 0..3 {
            d.on_batch();
        }
        assert!(!d.is_pinned(b(0)), "pin expired");
        // A fresh pair of refaults re-pins.
        assert!(!d.note_refault(b(0)));
        assert!(d.note_refault(b(0)), "second refault after expiry re-pins");
        assert!(d.is_pinned(b(0)));
    }

    #[test]
    fn refaults_while_pinned_do_not_repin() {
        let mut d = enabled();
        d.note_refault(b(1));
        assert!(d.note_refault(b(1)));
        assert!(!d.note_refault(b(1)), "already pinned");
        assert!(!d.note_refault(b(1)));
        assert!(d.is_pinned(b(1)));
    }

    #[test]
    #[should_panic(expected = "threshold must be nonzero")]
    fn zero_threshold_rejected() {
        let _ = ThrashDetector::new(
            ThrashConfig {
                refault_threshold: 0,
                ..ThrashConfig::default()
            },
            1,
        );
    }
}
