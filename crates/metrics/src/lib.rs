//! # metrics
//!
//! Instrumentation substrate mirroring the driver instrumentation the
//! paper's authors added to the open-source NVIDIA UVM kernel module.
//!
//! * [`timers`] — per-category virtual-time accounting using the paper's
//!   taxonomy: *pre/post-processing*, *fault service* (split into Map
//!   Pages / Migrate Pages / PMA Alloc Pages, as in Fig. 4), *replay
//!   policy*, and *eviction*.
//! * [`counters`] — event counters: driver-observed faults, duplicates
//!   filtered, pages migrated/prefetched, evictions, replays, batches.
//! * [`histogram`] — log2-bucket histograms of batch composition
//!   (faults and VABlocks per batch), the paper's §III-D lever.
//! * [`trace`] — optional capture of per-fault records (page, virtual
//!   time, order) and eviction records, powering the access-pattern
//!   scatter figures (Fig. 7 and Fig. 8).
//! * [`span`] — span-level batch-lifecycle tracing: begin/end/leaf/instant
//!   events per driver pass, bounded recorder, flame-style summaries.
//! * [`phase`] — host wall-time split of the driver's two-phase batch
//!   service (serial front vs parallel planning), for Amdahl tracking.
//! * [`sched`] — host wall-time stats of the sweep's point scheduler
//!   (points, worker threads, max straggler), for load-balance tracking.
//! * [`chrome`] — Chrome-trace/Perfetto JSON export of span traces plus a
//!   validator for the trace-event-format invariants.
//! * [`timeseries`] — bounded simulated-time sampling of the cumulative
//!   signals (the time-resolved data behind Fig. 8–10), deterministic
//!   across host thread counts and allocation-free in steady state.
//! * [`exposition`] — Prometheus text-exposition rendering and a format
//!   validator for the sampled metrics.
//! * [`serve`] — service-level families (`uvm_serve_*`), the
//!   `uvm_build_info` identity gauge, and the bounded request-scoped
//!   event log behind the `repro serve` daemon.
//! * [`attribution`] — fault-provenance ledger: per-cause root-cause
//!   totals (cold / refault / prefetch-hit / replay-duplicate /
//!   prefetch-evicted) that partition the counters and the transfer log
//!   exactly, plus the per-VABlock offender table.
//! * [`lineage`] — event-sourced fault lineage: the per-VABlock
//!   lifecycle log (first touch, refault, migration, prefetch, eviction,
//!   writeback, replay) with exact per-kind totals, refault/reuse
//!   distance analytics, and the anomaly-triggered flight recorder.
//! * [`oversub`] — oversubscription-observatory analytics: the
//!   `oversub.tsv` ratio × workload × policy heatmap schema, its
//!   Prometheus projection, and the integer knee-detector that locates
//!   each curve's thrash cliff.
//! * [`report`] — plain-text table and CSV rendering for the `repro`
//!   binary that regenerates the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod chrome;
pub mod counters;
pub mod exposition;
pub mod histogram;
pub mod lineage;
pub mod oversub;
pub mod phase;
pub mod report;
pub mod sched;
pub mod serve;
pub mod span;
pub mod timers;
pub mod timeseries;
pub mod trace;

pub use attribution::{
    top_offenders, Attribution, AttributionMetric, BlockStats, Offender, ATTRIBUTION_REGISTRY,
};
pub use chrome::{ChromePoint, TraceStats};
pub use counters::{CounterMetric, Counters, COUNTER_REGISTRY};
pub use exposition::{Exposition, ExpositionStats, MetricDef, MetricKind};
pub use histogram::Histogram;
pub use lineage::{
    FlightDump, FlightTrigger, KindTotal, LineageEvent, LineageEventKind,
    LineageLog, LineageRecorder, NO_BLOCK,
};
pub use oversub::{
    Cliff, OversubCell, OversubStats, CLIFF_THRESHOLD_BP, OVERSUB_CLIFF_JUMP_BP,
    OVERSUB_CLIFF_RATIO, OVERSUB_HEADER, OVERSUB_REGISTRY,
};
pub use phase::ServicePhaseWall;
pub use sched::SweepSchedStats;
pub use serve::{ServeEvent, ServeEventKind, ServeEventLog, ServeMetric, ServeStats, SERVE_REGISTRY};
pub use timeseries::{
    Sample, Timeseries, TimeseriesConfig, TimeseriesSampler, DEFAULT_SAMPLE_CAPACITY,
    DEFAULT_SAMPLE_INTERVAL_NS,
};
pub use span::{
    flame_summary, FlameRow, SpanCat, SpanEvent, SpanKind, SpanPhase, SpanRecorder, SpanTrace,
    DEFAULT_SPAN_CAPACITY,
};
pub use timers::{Category, Timers};
pub use trace::{EventKind, TraceEvent, TraceRecorder, DEFAULT_TRACE_CAPACITY};
