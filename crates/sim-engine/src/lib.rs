//! # sim-engine
//!
//! Discrete-event simulation substrate for the `uvm-sim` workspace.
//!
//! This crate provides the building blocks every other crate in the
//! workspace rests on:
//!
//! * [`time`] — a nanosecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]) that is advanced explicitly by the simulation, never
//!   by the host OS.
//! * [`cost`] — the calibrated latency/bandwidth cost model used to charge
//!   virtual time for every operation the simulated UVM driver and GPU
//!   perform. The constants are calibrated to the magnitudes reported in
//!   Allen & Ge, *"Demystifying GPU UVM Cost with Deep Runtime and Workload
//!   Analysis"* (IPDPS 2021): a far-fault costs 30–45 µs end to end, the
//!   host–device interconnect is PCIe 3.0 x16 class (~12 GB/s), and small
//!   UVM kernels exhibit a 400–600 µs base overhead.
//! * [`rng`] — deterministic, seedable random-number plumbing so every
//!   simulation run (and thus every regenerated figure/table) is exactly
//!   reproducible.
//! * [`units`] — byte/page size helpers shared by the whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod rng;
pub mod time;
pub mod units;

pub use cost::{CostModel, CostModelConfig};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
