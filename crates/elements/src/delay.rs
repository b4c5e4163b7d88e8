//! DELAY — "an unknown delay" — and JITTER — "a delay of a certain amount,
//! introduced to randomly-selected packets with a particular probability"
//! (§3.1).
//!
//! Both hold packets in flight and release them when due. DELAY is
//! deterministic; JITTER's per-packet decision goes through the choice
//! mechanism (`ChoiceKind::JitterFate`), and only *jittered* packets enter
//! its in-flight set — unjittered ones pass through synchronously.
//!
//! Split representation: [`DelayParams`] / [`JitterParams`] hold the
//! immutable configuration; [`DelayState`] / [`JitterState`] hold the
//! in-flight sets. [`DelayEl::new`] / [`JitterEl::new`] return the pair with
//! nothing in flight.

use augur_sim::{Dur, Packet, Ppm, Time};
use std::collections::VecDeque;

/// Fixed-delay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelayParams {
    /// Added to every packet.
    pub delay: Dur,
}

/// Packets currently held by a DELAY element.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct DelayState {
    /// Packets in flight, FIFO (fixed delay preserves order).
    pub(crate) in_flight: VecDeque<(Time, Packet)>,
}

impl Clone for DelayState {
    fn clone(&self) -> DelayState {
        DelayState {
            in_flight: self.in_flight.clone(),
        }
    }

    /// Refill in place, keeping the deque's allocation.
    fn clone_from(&mut self, source: &DelayState) {
        let DelayState { in_flight } = source;
        self.in_flight.clone_from(in_flight);
    }
}

impl DelayParams {
    /// Accept a packet at `now`; it becomes due at `now + delay`.
    pub fn accept(&self, st: &mut DelayState, pkt: Packet, now: Time) {
        let due = now + self.delay;
        debug_assert!(
            st.in_flight.back().is_none_or(|(d, _)| *d <= due),
            "fixed delay must preserve order"
        );
        st.in_flight.push_back((due, pkt));
    }
}

impl DelayState {
    /// The earliest due time, if any packet is in flight.
    pub fn next_timer(&self) -> Option<Time> {
        self.in_flight.front().map(|(d, _)| *d)
    }

    /// Release the head packet if due at `now`.
    pub fn release(&mut self, now: Time) -> Option<Packet> {
        match self.in_flight.front() {
            Some((due, _)) if *due <= now => Some(self.in_flight.pop_front().unwrap().1),
            _ => None,
        }
    }

    /// Number of packets in flight.
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// True iff no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

/// A fixed propagation delay as constructed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DelayEl {
    /// Immutable configuration.
    pub params: DelayParams,
    /// In-flight packets.
    pub state: DelayState,
}

impl DelayEl {
    /// A delay element.
    pub fn new(delay: Dur) -> DelayEl {
        DelayEl {
            params: DelayParams { delay },
            state: DelayState::default(),
        }
    }
}

/// Probabilistic-extra-delay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JitterParams {
    /// Probability a packet is jittered.
    pub p: Ppm,
    /// Extra delay applied to jittered packets.
    pub extra: Dur,
}

/// Jittered packets currently held by a JITTER element.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct JitterState {
    /// Jittered packets in flight, FIFO by due time.
    pub(crate) in_flight: VecDeque<(Time, Packet)>,
}

impl Clone for JitterState {
    fn clone(&self) -> JitterState {
        JitterState {
            in_flight: self.in_flight.clone(),
        }
    }

    /// Refill in place, keeping the deque's allocation.
    fn clone_from(&mut self, source: &JitterState) {
        let JitterState { in_flight } = source;
        self.in_flight.clone_from(in_flight);
    }
}

impl JitterParams {
    /// Hold a packet chosen for jittering; due at `now + extra`.
    pub fn hold(&self, st: &mut JitterState, pkt: Packet, now: Time) {
        st.in_flight.push_back((now + self.extra, pkt));
    }
}

impl JitterState {
    /// The earliest due time among jittered packets.
    pub fn next_timer(&self) -> Option<Time> {
        self.in_flight.front().map(|(d, _)| *d)
    }

    /// Release the head jittered packet if due at `now`.
    pub fn release(&mut self, now: Time) -> Option<Packet> {
        match self.in_flight.front() {
            Some((due, _)) if *due <= now => Some(self.in_flight.pop_front().unwrap().1),
            _ => None,
        }
    }

    /// Number of jittered packets in flight.
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// True iff no jittered packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

/// Probabilistic extra delay as constructed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JitterEl {
    /// Immutable configuration.
    pub params: JitterParams,
    /// Jittered packets in flight.
    pub state: JitterState,
}

impl JitterEl {
    /// A jitter element.
    pub fn new(p: Ppm, extra: Dur) -> JitterEl {
        JitterEl {
            params: JitterParams { p, extra },
            state: JitterState::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{Bits, FlowId};

    fn pkt(seq: u64) -> Packet {
        Packet::new(FlowId::SELF, seq, Bits::new(8_000), Time::ZERO)
    }

    #[test]
    fn delay_releases_in_order_when_due() {
        let mut d = DelayEl::new(Dur::from_millis(100));
        d.params.accept(&mut d.state, pkt(0), Time::from_millis(0));
        d.params.accept(&mut d.state, pkt(1), Time::from_millis(10));
        assert_eq!(d.state.next_timer(), Some(Time::from_millis(100)));
        assert!(d.state.release(Time::from_millis(99)).is_none());
        assert_eq!(d.state.release(Time::from_millis(100)).unwrap().seq, 0);
        assert!(d.state.release(Time::from_millis(100)).is_none());
        assert_eq!(d.state.release(Time::from_millis(110)).unwrap().seq, 1);
        assert!(d.state.is_empty());
    }

    #[test]
    fn zero_delay_is_immediately_due() {
        let mut d = DelayEl::new(Dur::ZERO);
        d.params.accept(&mut d.state, pkt(0), Time::from_secs(2));
        assert_eq!(d.state.release(Time::from_secs(2)).unwrap().seq, 0);
    }

    #[test]
    fn jitter_holds_until_extra_elapsed() {
        let mut j = JitterEl::new(Ppm::from_prob(0.3), Dur::from_millis(250));
        j.params.hold(&mut j.state, pkt(5), Time::from_secs(1));
        assert_eq!(j.state.len(), 1);
        assert_eq!(j.state.next_timer(), Some(Time::from_micros(1_250_000)));
        assert!(j.state.release(Time::from_millis(1_249)).is_none());
        assert_eq!(j.state.release(Time::from_millis(1_250)).unwrap().seq, 5);
    }
}
