//! # gpu-model
//!
//! GPU-side substrate for the UVM simulator: the pieces of the paper's
//! Figure 2 architecture that live on the device.
//!
//! * [`addr`] — global page numbering, VABlock indexing, access types.
//! * [`mask`] — 512-bit per-VABlock page masks (one bit per 4 KB page in a
//!   2 MB VABlock), the representation both the GPU page tables and the
//!   driver's prefetch tree compute over.
//! * [`fault`] — the replayable-fault machinery: fault entries, the
//!   circular hardware fault buffer with ready-bit semantics, overflow
//!   (entry drop) behaviour.
//! * [`access_counters`] — Volta-style memory access counters with
//!   threshold notifications (the paper's §VI-B3 hardware hook).
//! * [`engine`] — a loosely-timed execution model of the GPU: thread
//!   blocks with page-access traces, an SM-occupancy-limited block
//!   scheduler, per-µTLB fault deduplication, stall/replay semantics.
//! * [`dma`] — transfer accounting for the copy engines plus the explicit
//!   `cudaMemcpy`-style baseline used by Figure 1.
//!
//! The crate deliberately knows nothing about the UVM driver: residency is
//! abstracted behind the [`engine::Residency`] trait which the driver's
//! address-space bookkeeping implements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_counters;
pub mod addr;
pub mod dma;
pub mod engine;
pub mod fault;
pub mod mask;

pub use access_counters::{AccessCounterConfig, AccessCounters, AccessNotification};
pub use addr::{AccessType, GlobalPage, VaBlockIdx};
pub use engine::{
    BlockTrace, EngineCounters, EngineStatus, GpuConfig, GpuEngine, Residency, RetryMode,
    WorkloadTrace,
};
pub use fault::{FaultBuffer, FaultBufferConfig, FaultEntry};
pub use mask::PageMask;
