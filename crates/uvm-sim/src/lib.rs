//! # uvm-sim
//!
//! One-stop facade over the UVM simulation workspace — a Rust
//! reproduction of the system analysed by Allen & Ge, *"Demystifying GPU
//! UVM Cost with Deep Runtime and Workload Analysis"* (IPDPS 2021).
//!
//! The workspace models the full demand-paging stack: a GPU execution
//! engine with replayable faults ([`gpu_model`]), the UVM driver with
//! batching, the density prefetcher, replay policies and LRU eviction
//! ([`uvm_driver`]), the paper's eight workloads ([`workloads`]), and the
//! instrumentation taxonomy ([`metrics`]) — all on a deterministic
//! virtual clock with a calibrated cost model ([`sim_engine`]).
//!
//! ## Quickstart
//!
//! ```
//! use uvm_sim::{run, SimConfig, Workload, WorkloadKind};
//!
//! // A scaled-down platform (GPU memory = 12GB/64) so the doc test is
//! // instant; `SimConfig::titan_v()` is the paper's platform.
//! let config = SimConfig::scaled(1.0 / 64.0);
//! let workload = Workload::with_footprint(WorkloadKind::Regular, 64 * 1024 * 1024);
//! let report = run(&config, &workload);
//!
//! println!(
//!     "UVM: {}  explicit: {}  faults: {}",
//!     report.total_time,
//!     report.explicit_time,
//!     report.total_faults()
//! );
//! assert!(report.total_faults() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod simulator;

pub use config::SimConfig;
pub use simulator::{
    prepare, run, run_prepared, run_repeated, run_sweep, run_sweep_cached_with,
    LaunchStats, PreparedWorkload, SimReport, SweepCache, SweepCacheStats,
};

// Re-export the workspace's public surface for downstream users.
pub use gpu_model::{self, FaultBufferConfig, GpuConfig};
pub use metrics::{
    self, flame_summary, Category, ChromePoint, Counters, EventKind, Histogram, SpanCat, SpanEvent,
    SpanKind, SpanPhase, SpanRecorder, SpanTrace, Timers, TraceEvent,
};
pub use sim_engine::{self, CostModel, CostModelConfig, SimDuration, SimRng, SimTime};
pub use uvm_driver::{
    self, BatchArena, DriverConfig, EvictionPolicy, ManagedSpace, PrefetchPolicy, ReplayPolicy,
    UvmDriver,
};
pub use workloads::{self, Workload, WorkloadKind};
