//! The element language: one enum covering every idealized network element
//! of §3.1, each "corresponding to idealized versions of data structures
//! and phenomena that occur in real networks".
//!
//! Elements are pure state machines over integer state. The
//! [`crate::network::Network`] owns the routing loop and the choice
//! mechanism; this module defines the per-element state plus the small
//! elements that need no file of their own (LOSS, DIVERTER, RECEIVER).

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

/// Any element.
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
/// every hypothesis network sharing a structure.
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
    /// The element's next self-scheduled activity, if any.
    pub fn next_timer(&self) -> Option<Time> {
        match self {
            Element::Buffer(_) | Element::Loss(_) | Element::Diverter(_) | Element::Receiver(_) => {
                None
            }
            Element::Link(l) => l.next_timer(),
            Element::Delay(d) => d.next_timer(),
            Element::Jitter(j) => j.next_timer(),
            Element::Pinger(p) => p.next_timer(),
            Element::Gate(g) => g.next_timer(),
            Element::Either(e) => e.next_timer(),
        }
    }

    /// A short name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Element::Buffer(_) => "Buffer",
            Element::Link(_) => "Link",
            Element::Delay(_) => "Delay",
            Element::Loss(_) => "Loss",
            Element::Jitter(_) => "Jitter",
            Element::Pinger(_) => "Pinger",
            Element::Gate(_) => "Gate",
            Element::Either(_) => "Either",
            Element::Diverter(_) => "Diverter",
            Element::Receiver(_) => "Receiver",
        }
    }

    /// Decompose a blueprint element into its immutable/mutable halves
    /// (the network builder does this once per structure).
    pub fn split(self) -> (ElementParams, ElementState) {
        match self {
            Element::Buffer(b) => {
                let (p, s) = b.split();
                (ElementParams::Buffer(p), ElementState::Buffer(s))
            }
            Element::Link(l) => {
                let (p, s) = l.split();
                (ElementParams::Link(p), ElementState::Link(s))
            }
            Element::Delay(d) => {
                let (p, s) = d.split();
                (ElementParams::Delay(p), ElementState::Delay(s))
            }
            Element::Loss(l) => (ElementParams::Loss(l), ElementState::Loss),
            Element::Jitter(j) => {
                let (p, s) = j.split();
                (ElementParams::Jitter(p), ElementState::Jitter(s))
            }
            Element::Pinger(p) => {
                let (pp, s) = p.split();
                (ElementParams::Pinger(pp), ElementState::Pinger(s))
            }
            Element::Gate(g) => {
                let (p, s) = g.split();
                (ElementParams::Gate(p), ElementState::Gate(s))
            }
            Element::Either(e) => {
                let (p, s) = e.split();
                (ElementParams::Either(p), ElementState::Either(s))
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
        assert!(Element::Loss(Loss {
            p: Ppm::from_prob(0.5)
        })
        .next_timer()
        .is_none());
        assert!(Element::Diverter(Diverter { flow: FlowId::SELF })
            .next_timer()
            .is_none());
        assert!(Element::Receiver(ReceiverEl).next_timer().is_none());
        assert!(Element::Buffer(Buffer::drop_tail(Bits::new(1_000)))
            .next_timer()
            .is_none());
    }

    #[test]
    fn active_elements_report_timers() {
        let p = Element::Pinger(Pinger::new(
            Dur::from_secs(1),
            Bits::new(100),
            FlowId::CROSS,
            Time::from_secs(3),
        ));
        assert_eq!(p.next_timer(), Some(Time::from_secs(3)));

        let idle_link = Element::Link(Link::constant(BitRate::from_bps(100)));
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
        assert_eq!(
            Element::Gate(Gate::square_wave(Dur::from_secs(1), true)).kind_name(),
            "Gate"
        );
        assert_eq!(Element::Delay(DelayEl::new(Dur::ZERO)).kind_name(), "Delay");
    }
}
