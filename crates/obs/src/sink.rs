//! The run-scoped, thread-local event sink.
//!
//! Mirrors the `WorkCounters` kernel in `crates/sim/src/perf.rs`: all
//! state lives in a `thread_local!`, the disabled path is a flag read,
//! and a run's events are collected between [`start_run`] and
//! [`finish_run`] on whichever worker thread executes that run. Because
//! the sweep runner executes each run start-to-finish on one thread,
//! per-run buffers are worker-count independent by construction — the
//! foundation of the 1-vs-N `--workers` byte-identity contract.
//!
//! # Ground truth only
//!
//! Belief engines and the planner replay *hypothetical* networks
//! through the very simulator code that emits ground-truth events. The
//! sink does not tell them apart: the network does. Only a network
//! marked with `Network::record_events` (in `augur-elements`) emits, the
//! loops that sample a real network mark it, and every copy starts
//! unmarked — so the log describes one real network only.
//!
//! # Flow context
//!
//! Network events carry their packet's flow; belief events happen
//! inside an agent's wake and do not know which agent that is. The flow
//! driver stamps the dispatching flow with [`set_flow`] before calling
//! `on_wake`, and belief emission sites read it back with
//! [`current_flow`]. Outside a driver (e.g. the scripted-ping harness)
//! the stamp stays at its default, flow 0 — the sole sender.

use crate::event::{EventKind, EventRecord};
use augur_sim::{Dur, FlowId, Time};
use std::cell::{Cell, RefCell};

/// What a run wants observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Record the full structured event stream.
    pub trace_events: bool,
    /// Emit posterior snapshots on this sim-time cadence.
    pub snapshot_every: Option<Dur>,
}

impl ObsConfig {
    /// Whether this configuration records anything at all.
    pub fn active(&self) -> bool {
        self.trace_events || self.snapshot_every.is_some()
    }
}

struct SinkState {
    /// Full event stream on/off.
    events_on: Cell<bool>,
    /// Snapshot cadence in microseconds; 0 disables snapshots.
    cadence_us: Cell<u64>,
    /// The flow currently being dispatched (driver-stamped).
    flow: Cell<u16>,
    /// The run's collected events.
    buf: RefCell<Vec<EventRecord>>,
}

thread_local! {
    static SINK: SinkState = const {
        SinkState {
            events_on: Cell::new(false),
            cadence_us: Cell::new(0),
            flow: Cell::new(0),
            buf: RefCell::new(Vec::new()),
        }
    };
}

/// Arm the sink for one run on the current thread. Clears any buffered
/// events from a previous run and resets the flow stamp.
pub fn start_run(cfg: ObsConfig) {
    SINK.with(|s| {
        s.events_on.set(cfg.trace_events);
        s.cadence_us
            .set(cfg.snapshot_every.map_or(0, Dur::as_micros));
        s.flow.set(0);
        s.buf.borrow_mut().clear();
    });
}

/// Disarm the sink and take the run's events (in emission order, which
/// is simulation order — a pure function of the spec and seed).
pub fn finish_run() -> Vec<EventRecord> {
    SINK.with(|s| {
        s.events_on.set(false);
        s.cadence_us.set(0);
        s.flow.set(0);
        std::mem::take(&mut *s.buf.borrow_mut())
    })
}

/// Record one full-stream event. No-op when the stream is disabled.
/// Never touches work counters or RNG.
#[inline]
pub fn emit(at: Time, kind: EventKind) {
    SINK.with(|s| {
        if s.events_on.get() {
            s.buf.borrow_mut().push(EventRecord { at, kind });
        }
    });
}

/// Record one snapshot event. Gated by the snapshot cadence (not the
/// full stream), so `--belief-snapshots` works without `--trace-events`.
#[inline]
pub fn emit_snapshot(at: Time, kind: EventKind) {
    SINK.with(|s| {
        if s.cadence_us.get() != 0 {
            s.buf.borrow_mut().push(EventRecord { at, kind });
        }
    });
}

/// Whether a belief advance from `prev` to `now` crosses a snapshot
/// cadence boundary. Advance windows are irregular (event-driven), so a
/// snapshot fires on the first window that crosses each boundary and is
/// stamped at the window's end; several boundaries inside one window
/// coalesce into one snapshot. False when snapshots are disabled.
#[inline]
pub fn snapshot_due(prev: Time, now: Time) -> bool {
    SINK.with(|s| {
        let c = s.cadence_us.get();
        c != 0 && now.as_micros() / c > prev.as_micros() / c
    })
}

/// Stamp the flow the driver is about to dispatch (see module docs).
#[inline]
pub fn set_flow(flow: FlowId) {
    SINK.with(|s| s.flow.set(flow.0));
}

/// The stamped dispatching flow (flow 0 outside a driver).
#[inline]
pub fn current_flow() -> FlowId {
    SINK.with(|s| FlowId(s.flow.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(flow: u16) -> EventKind {
        EventKind::Wake {
            flow: FlowId(flow),
            acks: 0,
            sent: 0,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        emit(Time::ZERO, wake(0));
        emit_snapshot(Time::ZERO, wake(0));
        assert!(finish_run().is_empty());
    }

    #[test]
    fn run_scope_collects_and_clears() {
        start_run(ObsConfig {
            trace_events: true,
            snapshot_every: None,
        });
        emit(Time::from_secs(1), wake(3));
        let events = finish_run();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, Time::from_secs(1));
        // The sink is disarmed and empty after finish.
        emit(Time::ZERO, wake(0));
        assert!(finish_run().is_empty());
    }

    #[test]
    fn snapshot_cadence_buckets() {
        start_run(ObsConfig {
            trace_events: false,
            snapshot_every: Some(Dur::from_secs(10)),
        });
        // Same bucket: not due.
        assert!(!snapshot_due(Time::from_secs(1), Time::from_secs(9)));
        // Boundary hit exactly.
        assert!(snapshot_due(Time::from_secs(9), Time::from_secs(10)));
        // Several boundaries in one window: due once.
        assert!(snapshot_due(Time::from_secs(5), Time::from_secs(35)));
        // Zero-width window at start: not due.
        assert!(!snapshot_due(Time::ZERO, Time::ZERO));
        // Snapshots on, full stream off.
        emit(Time::ZERO, wake(0));
        emit_snapshot(Time::from_secs(10), wake(0));
        assert_eq!(finish_run().len(), 1);
    }

    #[test]
    fn flow_stamp_round_trips() {
        assert_eq!(current_flow(), FlowId(0));
        set_flow(FlowId(7));
        assert_eq!(current_flow(), FlowId(7));
        start_run(ObsConfig::default());
        assert_eq!(current_flow(), FlowId(0));
        let _ = finish_run();
    }

    #[test]
    fn sink_is_thread_local() {
        start_run(ObsConfig {
            trace_events: true,
            snapshot_every: None,
        });
        emit(Time::ZERO, wake(0));
        std::thread::spawn(|| {
            // A fresh thread starts disarmed; its emissions vanish.
            emit(Time::ZERO, EventKind::Fire { node: 1 });
            assert!(finish_run().is_empty());
        })
        .join()
        .unwrap();
        assert_eq!(finish_run().len(), 1);
    }

    #[test]
    fn config_activity() {
        assert!(!ObsConfig::default().active());
        assert!(ObsConfig {
            trace_events: true,
            snapshot_every: None
        }
        .active());
        assert!(ObsConfig {
            trace_events: false,
            snapshot_every: Some(Dur::from_secs(1))
        }
        .active());
    }
}
