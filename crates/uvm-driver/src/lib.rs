//! # uvm-driver
//!
//! A faithful behavioural model of NVIDIA's Unified Virtual Memory (UVM)
//! kernel driver — the object of study of Allen & Ge, *"Demystifying GPU
//! UVM Cost with Deep Runtime and Workload Analysis"* (IPDPS 2021).
//!
//! The module structure mirrors the driver's functional decomposition as
//! the paper describes it:
//!
//! * [`address_space`] — the four-level hierarchy: address space → VA
//!   ranges (`cudaMallocManaged` allocations) → 2 MB VABlocks → 4 KB pages.
//! * [`batch`] — fault-batch *pre-processing*: fetch, poll, de-duplicate,
//!   sort into VABlock bins (paper §III-C).
//! * [`pma`] — the physical memory allocator with over-provisioned chunk
//!   caching (paper §III-D).
//! * [`prefetch`] — the two-stage prefetcher: 64 KB big-page upgrade plus
//!   the 9-level density tree with its load-time threshold (paper §IV).
//! * [`policy`] — the four replay policies (Block / Batch / BatchFlush /
//!   Once, paper §III-E) and eviction-aging policies.
//! * [`lru`] — the fault-driven VABlock LRU eviction list with the
//!   hot-data pathologies the paper highlights (§V-A, §VI-A).
//! * [`thrash`] — refault-driven thrashing detection with eviction
//!   pinning (the real driver's `uvm_perf_thrashing` analog; §VI-B4).
//! * [`driver`] — the top-level loop tying everything together and
//!   charging virtual time to the paper's instrumentation categories.
//!
//! ```
//! use uvm_driver::{DriverConfig, ManagedSpace, UvmDriver};
//! use sim_engine::{CostModel, SimRng};
//!
//! let mut space = ManagedSpace::new();
//! space.alloc(64 * 1024 * 1024, "buffer");
//! let driver = UvmDriver::new(
//!     DriverConfig::default(),
//!     CostModel::default(),
//!     space,
//!     SimRng::from_seed(42),
//! );
//! assert_eq!(driver.counters().faults_fetched, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_space;
pub mod batch;
pub mod driver;
pub mod lru;
pub mod pma;
pub mod policy;
pub mod prefetch;
pub(crate) mod service;
pub mod thrash;

pub use address_space::{ManagedSpace, VaRange};
pub use batch::{Batch, BatchArena, FaultGroup};
pub use driver::{DriverConfig, PassResult, UvmDriver};
pub use lru::LruList;
pub use pma::{Pma, PmaExhausted, PmaGrant};
pub use policy::{EvictionPolicy, ReplayPolicy};
pub use prefetch::{PrefetchPolicy, ResolvedPrefetch, DEFAULT_THRESHOLD};
pub use thrash::{ThrashConfig, ThrashDetector};
