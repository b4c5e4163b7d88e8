//! PINGER — "an isochronous sender of cross traffic at a particular rate"
//! (§3.1).
//!
//! The pinger emits fixed-size packets at fixed intervals from `start_at`
//! onward. It emits unconditionally; switching cross traffic on and off is
//! the job of a downstream gate (INTERMITTENT / SQUAREWAVE), which keeps
//! the pinger's sequence numbering a pure function of time — important for
//! belief-state compaction (branches that differ only in gate history
//! reconverge).
//!
//! Split representation: [`PingerParams`] (interval, size, flow) is
//! immutable; [`PingerState`] (next emission instant and sequence number)
//! is per-hypothesis.
//!
//! A pinger whose every packet is known to die on a gate held shut — in a
//! planner rollout, where memoryless gates hold — can be *parked*
//! ([`PingerState::park`]), as a held gate is disarmed: it reports no
//! timer from then on.

use augur_sim::{BitRate, Bits, Dur, FlowId, Packet, Time};

/// Immutable pinger parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PingerParams {
    /// Time between packets.
    pub interval: Dur,
    /// Size of each packet.
    pub size: Bits,
    /// Flow id stamped on emitted packets.
    pub flow: FlowId,
}

/// Per-hypothesis pinger state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PingerState {
    /// Next emission instant.
    pub next_at: Time,
    /// Next sequence number.
    pub next_seq: u64,
}

impl PingerParams {
    /// Emit the packet due at `now` and schedule the next one.
    ///
    /// # Panics
    /// Panics if called before the emission is due.
    pub fn emit(&self, st: &mut PingerState, now: Time) -> Packet {
        assert!(now >= st.next_at, "pinger emission not yet due");
        let pkt = Packet::new(self.flow, st.next_seq, self.size, now);
        st.next_seq += 1;
        st.next_at += self.interval;
        pkt
    }
}

impl PingerState {
    /// The next emission time; `None` once parked.
    pub fn next_timer(&self) -> Option<Time> {
        (self.next_at != Time::MAX).then_some(self.next_at)
    }

    /// Emit nothing ever again — for a source every packet of which is
    /// known to be dropped before it touches any state, which is what the
    /// emissions would have left behind, minus the events.
    pub fn park(&mut self) {
        self.next_at = Time::MAX;
    }
}

/// An isochronous packet source as constructed: [`PingerParams`] with the
/// [`PingerState`] of its first emission.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pinger {
    /// Immutable configuration.
    pub params: PingerParams,
    /// Mutable emission state.
    pub state: PingerState,
}

impl Pinger {
    /// A pinger emitting `size`-bit packets every `interval`, starting at
    /// `start_at`.
    pub fn new(interval: Dur, size: Bits, flow: FlowId, start_at: Time) -> Pinger {
        assert!(interval > Dur::ZERO, "pinger interval must be positive");
        Pinger {
            params: PingerParams {
                interval,
                size,
                flow,
            },
            state: PingerState {
                next_at: start_at,
                next_seq: 0,
            },
        }
    }

    /// A pinger whose average rate is `rate` with `size`-bit packets: the
    /// paper parameterizes cross traffic as a fraction of the link speed
    /// (Figure 2: "r (packets per sec)" with r given in bits relative to c).
    pub fn from_rate(rate: BitRate, size: Bits, flow: FlowId, start_at: Time) -> Pinger {
        Pinger::new(rate.service_time(size), size, flow, start_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isochronous_emission() {
        let mut p = Pinger::new(
            Dur::from_millis(500),
            Bits::new(12_000),
            FlowId::CROSS,
            Time::ZERO,
        );
        let a = p.params.emit(&mut p.state, Time::ZERO);
        assert_eq!(a.seq, 0);
        assert_eq!(p.state.next_timer(), Some(Time::from_millis(500)));
        let b = p.params.emit(&mut p.state, Time::from_millis(500));
        assert_eq!(b.seq, 1);
        assert_eq!(b.sent_at, Time::from_millis(500));
        assert_eq!(p.state.next_timer(), Some(Time::from_millis(1_000)));
        p.state.park();
        assert_eq!(p.state.next_timer(), None);
    }

    #[test]
    fn from_rate_computes_interval() {
        // 0.7 * 12000 bps = 8400 bps with 12000-bit packets:
        // one packet every 12000/8400 s ≈ 1.428571s → 1_428_572us (ceil).
        let p = Pinger::from_rate(
            BitRate::from_bps(8_400),
            Bits::new(12_000),
            FlowId::CROSS,
            Time::ZERO,
        );
        assert_eq!(p.params.interval, Dur::from_micros(1_428_572));
    }

    #[test]
    #[should_panic(expected = "not yet due")]
    fn premature_emit_panics() {
        let mut p = Pinger::new(
            Dur::from_secs(1),
            Bits::new(100),
            FlowId::CROSS,
            Time::from_secs(5),
        );
        let _ = p.params.emit(&mut p.state, Time::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = Pinger::new(Dur::ZERO, Bits::new(1), FlowId::CROSS, Time::ZERO);
    }
}
