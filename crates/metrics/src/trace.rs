//! Optional per-event trace capture for the access-pattern figures.
//!
//! Figure 7 plots each driver-processed fault as (occurrence order, page
//! index); Figure 8 additionally plots evictions on the same timeline.
//! The recorder stores one compact record per event and is disabled by
//! default so large sweeps pay nothing.

use serde::{Deserialize, Serialize};
use sim_engine::SimTime;

/// What kind of event a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A fault processed by the driver.
    Fault,
    /// A page prefetched by the driver.
    Prefetch,
    /// A VABlock eviction (page = first page of the evicted block).
    Eviction,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Relative processing order (0-based occurrence index).
    pub order: u64,
    /// Global page index the event concerns.
    pub page: u64,
    /// Virtual time of the event.
    pub time: SimTime,
    /// Event kind.
    pub kind: EventKind,
}

/// Default capacity of an [`TraceRecorder::enabled`] recorder: 4 Mi
/// events (~128 MiB). Large enough for every quick/default-scale figure;
/// a full-scale (12 GB) run overflows it gracefully — later events drop
/// and [`TraceRecorder::dropped`] counts them.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 22;

/// Recorder for driver events. Construct with [`TraceRecorder::enabled`]
/// to capture, [`TraceRecorder::disabled`] (or `default()`) to discard.
///
/// The buffer is bounded: once `capacity` events are captured, further
/// events are counted in [`TraceRecorder::dropped`] and discarded, so
/// enabling tracing on a full-scale run cannot grow without limit. The
/// fault occurrence counter keeps advancing past capacity, so the `order`
/// of captured events always reflects the true global fault order.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    capture: bool,
    next_order: u64,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder that captures up to [`DEFAULT_TRACE_CAPACITY`] events.
    pub fn enabled() -> Self {
        TraceRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recorder that captures up to `capacity` events, then counts
    /// drops.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            events: Vec::new(),
            capture: true,
            next_order: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// A recorder that discards events (zero overhead beyond the branch).
    pub fn disabled() -> Self {
        TraceRecorder::default()
    }

    /// True if capturing.
    pub fn is_enabled(&self) -> bool {
        self.capture
    }

    /// Record an event (no-op when disabled). Fault events advance the
    /// occurrence counter; prefetch/eviction events share the current one
    /// so they align with the fault timeline.
    pub fn record(&mut self, kind: EventKind, page: u64, time: SimTime) {
        if !self.capture {
            return;
        }
        let order = self.next_order;
        if matches!(kind, EventKind::Fault) {
            self.next_order += 1;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            order,
            page,
            time,
            kind,
        });
    }

    /// Record `n` events of one kind at `time`, one per page of `pages`
    /// (which yields at least `n` pages): the same events, orders and
    /// drops as `n` calls to [`record`](Self::record), but once the
    /// buffer is full the rest are accounted in O(1) without walking
    /// `pages`.
    pub fn record_pages(
        &mut self,
        kind: EventKind,
        n: u64,
        pages: impl IntoIterator<Item = u64>,
        time: SimTime,
    ) {
        if !self.capture {
            return;
        }
        let fault = matches!(kind, EventKind::Fault);
        let room = self.capacity.saturating_sub(self.events.len()) as u64;
        let kept = n.min(room);
        for page in pages.into_iter().take(kept as usize) {
            self.events.push(TraceEvent {
                order: self.next_order,
                page,
                time,
                kind,
            });
            self.next_order += u64::from(fault);
        }
        self.dropped += n - kept;
        if fault {
            self.next_order += n - kept;
        }
    }

    /// Events dropped because the buffer was at capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All captured events in capture order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_discards() {
        let mut r = TraceRecorder::disabled();
        r.record(EventKind::Fault, 1, SimTime::ZERO);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn fault_order_increments_only_on_faults() {
        let mut r = TraceRecorder::enabled();
        r.record(EventKind::Fault, 10, SimTime::ZERO);
        r.record(EventKind::Prefetch, 11, SimTime::ZERO);
        r.record(EventKind::Fault, 12, SimTime::ZERO);
        r.record(EventKind::Eviction, 0, SimTime::ZERO);
        let orders: Vec<u64> = r.events().iter().map(|e| e.order).collect();
        assert_eq!(orders, vec![0, 1, 1, 2]);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn capacity_bounds_capture_but_not_order() {
        let mut r = TraceRecorder::with_capacity(2);
        for page in 0..5u64 {
            r.record(EventKind::Fault, page, SimTime::ZERO);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        // The occurrence counter kept advancing past capacity.
        r.events(); // captured orders are 0 and 1
        let mut r2 = TraceRecorder::with_capacity(2);
        for page in 0..3u64 {
            r2.record(EventKind::Fault, page, SimTime::ZERO);
        }
        r2.record(EventKind::Eviction, 0, SimTime::ZERO);
        assert_eq!(r2.dropped(), 2);
        // A captured event after drops would carry order 3 — dropped here,
        // but next_order is 3, proving global order is preserved.
    }

    #[test]
    fn record_pages_matches_per_page_records() {
        let pages = [3u64, 9, 10, 40];
        for capacity in [1usize, 3, 5, 8, 100] {
            let mut one = TraceRecorder::with_capacity(capacity);
            let mut batched = TraceRecorder::with_capacity(capacity);
            for (kind, t) in [
                (EventKind::Fault, 1),
                (EventKind::Prefetch, 2),
                (EventKind::Fault, 3),
            ] {
                let time = SimTime::from_nanos(t);
                for &p in &pages {
                    one.record(kind, p, time);
                }
                batched.record_pages(kind, pages.len() as u64, pages, time);
            }
            one.record(EventKind::Fault, 0, SimTime::ZERO);
            batched.record(EventKind::Fault, 0, SimTime::ZERO);
            assert_eq!(batched.events(), one.events(), "capacity {capacity}");
            assert_eq!(batched.dropped(), one.dropped(), "capacity {capacity}");
            assert_eq!(batched.next_order, one.next_order, "capacity {capacity}");
        }
    }
}
