//! The element language: every idealized network element of §3.1, each
//! "corresponding to idealized versions of data structures and phenomena
//! that occur in real networks".
//!
//! An element *is* a pair: its immutable `…Params` (one variant of
//! [`ElementParams`], shared by every hypothesis of a structure) and its
//! per-hypothesis `…State` (the matching variant of [`ElementState`]).
//! The behaviour is a method of the params taking the state —
//! `params.offer(&mut state, pkt, now)` — and that is the only form there
//! is: the [`crate::network::Network`] event loop, the unit tests and any
//! standalone use all call it. The blueprints an [`Element`] wraps
//! (`Buffer`, `Link`, `DelayEl`, …) are constructors: they validate their
//! arguments and return the pair with its initial state, and
//! [`Element::split`] hands the two halves to the network builder.
//!
//! This module holds the three enums plus the small elements that need no
//! file of their own (LOSS, DIVERTER, RECEIVER).

use crate::buffer::{Buffer, BufferParams, BufferState};
use crate::delay::{DelayEl, DelayParams, DelayState, JitterEl, JitterParams, JitterState};
use crate::gate::{Either, EitherParams, EitherState, Gate, GateParams, GateState};
use crate::link::{Link, LinkParams, LinkState};
use crate::source::{Pinger, PingerParams, PingerState};
use augur_sim::{FlowId, Ppm, Time};

/// LOSS — "stochastic loss, independently distributed for each packet at a
/// particular rate" (§3.1). Stateless: each arrival raises a
/// `ChoiceKind::LossFate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loss {
    /// Per-packet loss probability.
    pub p: Ppm,
}

/// DIVERTER — "routes packets from one source (such as the cross traffic)
/// to one network element, and all other traffic to a different element"
/// (§3.1). Packets of `flow` go to `next`, everything else to `alt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Diverter {
    /// The flow routed to the primary successor.
    pub flow: FlowId,
}

/// RECEIVER — the terminal element; "accumulates packets and wakes up the
/// SENDER for each one" (§3.4). Deliveries are recorded by the network in
/// a transient log (not element state, so branches can compact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ReceiverEl;

/// Any element as constructed: what [`crate::network::NetworkBuilder::add`]
/// takes and at once splits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Element {
    /// Tail-drop / RED / CoDel queue.
    Buffer(Buffer),
    /// Throughput-limited link (optionally time-varying rate, ARQ).
    Link(Link),
    /// Fixed delay.
    Delay(DelayEl),
    /// Stochastic loss.
    Loss(Loss),
    /// Probabilistic extra delay.
    Jitter(JitterEl),
    /// Isochronous cross-traffic source.
    Pinger(Pinger),
    /// INTERMITTENT or SQUAREWAVE connectivity gate.
    Gate(Gate),
    /// Stochastic route switcher.
    Either(Either),
    /// Flow-based router.
    Diverter(Diverter),
    /// Terminal receiver.
    Receiver(ReceiverEl),
}

/// The immutable half of an element: configuration that is identical for
/// every hypothesis network sharing a structure. The variant order is part
/// of a network's identity hash stream (it writes the variant index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementParams {
    /// Queue capacity and discipline configuration.
    Buffer(BufferParams),
    /// Rate process, ARQ configuration, feed wiring.
    Link(LinkParams),
    /// Fixed delay amount.
    Delay(DelayParams),
    /// Loss probability.
    Loss(Loss),
    /// Jitter probability and extra delay.
    Jitter(JitterParams),
    /// Emission interval, packet size, flow.
    Pinger(PingerParams),
    /// Switching law.
    Gate(GateParams),
    /// Switching epoch and probability.
    Either(EitherParams),
    /// Matched flow.
    Diverter(Diverter),
    /// Terminal receiver (no configuration).
    Receiver(ReceiverEl),
}

/// The mutable half of an element: the compact per-hypothesis state a
/// `Network` clone copies. Variants mirror [`ElementParams`] one-to-one.
#[derive(Debug, PartialEq, Eq)]
pub enum ElementState {
    /// Queue contents and AQM running state.
    Buffer(BufferState),
    /// In-service packet, busy-until, bare-link backlog.
    Link(LinkState),
    /// In-flight packets.
    Delay(DelayState),
    /// LOSS is stateless.
    Loss,
    /// Jittered packets in flight.
    Jitter(JitterState),
    /// Next emission instant and sequence number.
    Pinger(PingerState),
    /// Connectivity and next decision instant.
    Gate(GateState),
    /// Route position and next decision instant.
    Either(EitherState),
    /// DIVERTER is stateless.
    Diverter,
    /// RECEIVER is stateless (deliveries live in the transient log).
    Receiver,
}

impl Clone for ElementState {
    fn clone(&self) -> ElementState {
        match self {
            ElementState::Buffer(b) => ElementState::Buffer(b.clone()),
            ElementState::Link(l) => ElementState::Link(l.clone()),
            ElementState::Delay(d) => ElementState::Delay(d.clone()),
            ElementState::Loss => ElementState::Loss,
            ElementState::Jitter(j) => ElementState::Jitter(j.clone()),
            ElementState::Pinger(p) => ElementState::Pinger(*p),
            ElementState::Gate(g) => ElementState::Gate(*g),
            ElementState::Either(e) => ElementState::Either(*e),
            ElementState::Diverter => ElementState::Diverter,
            ElementState::Receiver => ElementState::Receiver,
        }
    }

    /// Refill in place: when both sides are the same kind (always, for
    /// two networks of one structure) the queue-carrying variants keep
    /// their allocations.
    fn clone_from(&mut self, source: &ElementState) {
        match (self, source) {
            (ElementState::Buffer(a), ElementState::Buffer(b)) => a.clone_from(b),
            (ElementState::Link(a), ElementState::Link(b)) => a.clone_from(b),
            (ElementState::Delay(a), ElementState::Delay(b)) => a.clone_from(b),
            (ElementState::Jitter(a), ElementState::Jitter(b)) => a.clone_from(b),
            (a, b) => *a = b.clone(),
        }
    }
}

impl Element {
    /// Decompose a blueprint into the two halves a network stores: what
    /// [`crate::network::NetworkBuilder::add`] does with every element.
    pub fn split(self) -> (ElementParams, ElementState) {
        match self {
            Element::Buffer(Buffer { params, state }) => {
                (ElementParams::Buffer(params), ElementState::Buffer(state))
            }
            Element::Link(Link { params, state }) => {
                (ElementParams::Link(params), ElementState::Link(state))
            }
            Element::Delay(DelayEl { params, state }) => {
                (ElementParams::Delay(params), ElementState::Delay(state))
            }
            Element::Loss(l) => (ElementParams::Loss(l), ElementState::Loss),
            Element::Jitter(JitterEl { params, state }) => {
                (ElementParams::Jitter(params), ElementState::Jitter(state))
            }
            Element::Pinger(Pinger { params, state }) => {
                (ElementParams::Pinger(params), ElementState::Pinger(state))
            }
            Element::Gate(Gate { params, state }) => {
                (ElementParams::Gate(params), ElementState::Gate(state))
            }
            Element::Either(Either { params, state }) => {
                (ElementParams::Either(params), ElementState::Either(state))
            }
            Element::Diverter(d) => (ElementParams::Diverter(d), ElementState::Diverter),
            Element::Receiver(r) => (ElementParams::Receiver(r), ElementState::Receiver),
        }
    }
}

impl ElementParams {
    /// A short name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ElementParams::Buffer(_) => "Buffer",
            ElementParams::Link(_) => "Link",
            ElementParams::Delay(_) => "Delay",
            ElementParams::Loss(_) => "Loss",
            ElementParams::Jitter(_) => "Jitter",
            ElementParams::Pinger(_) => "Pinger",
            ElementParams::Gate(_) => "Gate",
            ElementParams::Either(_) => "Either",
            ElementParams::Diverter(_) => "Diverter",
            ElementParams::Receiver(_) => "Receiver",
        }
    }
}

impl ElementState {
    /// The element's next self-scheduled activity, if any — the single
    /// timer scan the event loop runs once per event.
    pub fn next_timer(&self) -> Option<Time> {
        match self {
            ElementState::Buffer(_)
            | ElementState::Loss
            | ElementState::Diverter
            | ElementState::Receiver => None,
            ElementState::Link(l) => l.next_timer(),
            ElementState::Delay(d) => d.next_timer(),
            ElementState::Jitter(j) => j.next_timer(),
            ElementState::Pinger(p) => p.next_timer(),
            ElementState::Gate(g) => g.next_timer(),
            ElementState::Either(e) => e.next_timer(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{BitRate, Bits, Dur};

    #[test]
    fn stateless_elements_have_no_timer() {
        for element in [
            Element::Loss(Loss {
                p: Ppm::from_prob(0.5),
            }),
            Element::Diverter(Diverter { flow: FlowId::SELF }),
            Element::Receiver(ReceiverEl),
            Element::Buffer(Buffer::drop_tail(Bits::new(1_000))),
        ] {
            assert!(element.split().1.next_timer().is_none());
        }
    }

    #[test]
    fn active_elements_report_timers() {
        let (_, pinger) = Element::Pinger(Pinger::new(
            Dur::from_secs(1),
            Bits::new(100),
            FlowId::CROSS,
            Time::from_secs(3),
        ))
        .split();
        assert_eq!(pinger.next_timer(), Some(Time::from_secs(3)));

        let (_, idle_link) = Element::Link(Link::constant(BitRate::from_bps(100))).split();
        assert!(idle_link.next_timer().is_none());
    }

    #[test]
    fn split_separates_params_from_state() {
        let (p, s) = Element::Pinger(Pinger::new(
            Dur::from_secs(1),
            Bits::new(100),
            FlowId::CROSS,
            Time::from_secs(3),
        ))
        .split();
        assert_eq!(p.kind_name(), "Pinger");
        // The timer lives in the state half.
        assert_eq!(s.next_timer(), Some(Time::from_secs(3)));

        let (p, s) = Element::Link(Link::constant(BitRate::from_bps(100))).split();
        assert_eq!(p.kind_name(), "Link");
        assert!(s.next_timer().is_none());

        let (p, s) = Element::Receiver(ReceiverEl).split();
        assert_eq!(p.kind_name(), "Receiver");
        assert!(s.next_timer().is_none());
    }

    #[test]
    fn kind_names() {
        let (gate, _) = Element::Gate(Gate::square_wave(Dur::from_secs(1), true)).split();
        assert_eq!(gate.kind_name(), "Gate");
        let (delay, _) = Element::Delay(DelayEl::new(Dur::ZERO)).split();
        assert_eq!(delay.kind_name(), "Delay");
    }
}
