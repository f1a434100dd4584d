//! Whole-simulation configuration: GPU hardware, fault buffer, driver,
//! cost model, and RNG seed, with presets matching the paper's platform.

use gpu_model::{FaultBufferConfig, GpuConfig};
use serde::{Deserialize, Serialize};
use sim_engine::units::GIB;
use sim_engine::CostModelConfig;
use uvm_driver::DriverConfig;

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// GPU hardware model.
    pub gpu: GpuConfig,
    /// Hardware fault buffer.
    pub fault_buffer: FaultBufferConfig,
    /// UVM driver configuration.
    pub driver: DriverConfig,
    /// Cost-model constants.
    pub cost: CostModelConfig,
    /// Master RNG seed; all streams derive from it.
    pub seed: u64,
    /// Safety limit on driver passes before the simulator assumes
    /// livelock and panics with a diagnostic.
    pub max_passes: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            gpu: GpuConfig::default(),
            fault_buffer: FaultBufferConfig::default(),
            driver: DriverConfig::default(),
            cost: CostModelConfig::default(),
            seed: 0xC0FFEE,
            max_passes: 50_000_000,
        }
    }
}

impl SimConfig {
    /// A geometrically scaled-down platform: GPU memory multiplied by
    /// `fraction` (e.g. 1/16) so oversubscription experiments run at
    /// laptop scale while preserving the subscription *ratios* that
    /// determine the paper's crossovers. Workload footprints should be
    /// scaled by the same factor.
    pub fn scaled(fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let mut cfg = SimConfig::default();
        cfg.driver.gpu_memory_bytes =
            ((12.0 * GIB as f64 * fraction) as u64).max(4 * 2 * 1024 * 1024);
        cfg
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the eviction policy, enabling the GPU
    /// access-counter feature exactly when the policy consumes its
    /// notifications (the oversub sweep's per-policy knob).
    pub fn with_eviction(mut self, policy: uvm_driver::EvictionPolicy) -> Self {
        self.driver.eviction = policy;
        self.gpu.access_counters.enabled =
            matches!(policy, uvm_driver::EvictionPolicy::AccessCounterLru);
        if self.gpu.access_counters.enabled {
            self.gpu.access_counters.threshold = 64;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_matches_paper_platform() {
        let c = SimConfig::default();
        assert_eq!(c.gpu.max_blocks_resident, 1280);
        assert_eq!(c.driver.gpu_memory_bytes, 12 * GIB);
        assert_eq!(c.driver.batch_size, 256);
    }

    #[test]
    fn scaled_preserves_ratio_machinery() {
        let c = SimConfig::scaled(1.0 / 16.0);
        assert_eq!(c.driver.gpu_memory_bytes, 12 * GIB / 16);
        assert_eq!(c.gpu.max_blocks_resident, 1280, "compute model unchanged");
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::default()
            .with_seed(7)
            .with_eviction(uvm_driver::EvictionPolicy::Random);
        assert_eq!(c.seed, 7);
        assert_eq!(c.driver.eviction, uvm_driver::EvictionPolicy::Random);
    }

    #[test]
    #[should_panic]
    fn scaled_rejects_zero() {
        let _ = SimConfig::scaled(0.0);
    }

    #[test]
    fn with_eviction_gates_access_counters() {
        use uvm_driver::EvictionPolicy;
        let c = SimConfig::default().with_eviction(EvictionPolicy::AccessCounterLru);
        assert!(c.gpu.access_counters.enabled);
        assert_eq!(c.gpu.access_counters.threshold, 64);
        for p in [
            EvictionPolicy::FaultLru,
            EvictionPolicy::Random,
            EvictionPolicy::AccessFrequency,
        ] {
            let c = SimConfig::default().with_eviction(p);
            assert!(!c.gpu.access_counters.enabled, "{:?}", p);
            assert_eq!(c.driver.eviction, p);
        }
    }
}
