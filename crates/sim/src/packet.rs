//! Packets and flows.
//!
//! A packet in `augur` is metadata only — sequence number, flow identity,
//! size, and send time. Payload bytes are irrelevant to transmission
//! control and are never modeled.

use crate::time::Time;
use crate::units::Bits;
use std::fmt;

/// Identifies a traffic flow (e.g. the ISender's own flow vs. cross
/// traffic). Flow identity is how `DIVERTER` routes and how utility
/// accounting separates "our" throughput from the cross traffic's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u16);

impl FlowId {
    /// Conventional flow id for the ISender under study.
    pub const SELF: FlowId = FlowId(0);
    /// Conventional flow id for cross traffic.
    pub const CROSS: FlowId = FlowId(1);
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Packet {
    /// Which flow this packet belongs to.
    pub flow: FlowId,
    /// Per-flow sequence number, starting at 0.
    pub seq: u64,
    /// Size on the wire.
    pub size: Bits,
    /// When the originating sender transmitted it.
    pub sent_at: Time,
}

impl Packet {
    /// Construct a packet.
    pub fn new(flow: FlowId, seq: u64, size: Bits, sent_at: Time) -> Packet {
        Packet {
            flow,
            seq,
            size,
            sent_at,
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}({})", self.flow, self.seq, self.size)
    }
}

/// A delivery record: a packet arriving at a receiver at a given time.
/// This is the unit of observation for the inference engine — the
/// RECEIVER "conveys the time of each packet received back to the
/// ISENDER" (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Delivery {
    /// The delivered packet.
    pub packet: Packet,
    /// Arrival instant at the receiver.
    pub at: Time,
}

impl Delivery {
    /// One-way delay experienced by the packet.
    pub fn delay(&self) -> crate::time::Dur {
        self.at.since(self.packet.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn delay_accounting() {
        let p = Packet::new(FlowId::SELF, 7, Bits::from_bytes(1500), Time::from_secs(1));
        let d = Delivery {
            packet: p,
            at: Time::from_millis(1_250),
        };
        assert_eq!(d.delay(), Dur::from_millis(250));
    }

    #[test]
    fn display() {
        let p = Packet::new(FlowId::CROSS, 3, Bits::new(12_000), Time::ZERO);
        assert_eq!(p.to_string(), "flow1#3(12000b)");
    }

    #[test]
    fn flow_constants_differ() {
        assert_ne!(FlowId::SELF, FlowId::CROSS);
    }
}
