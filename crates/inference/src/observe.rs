//! Observations: what the sender actually learns from the network.
//!
//! "The RECEIVER accumulates packets and wakes up the SENDER for each one,
//! notifying it of the received time and sequence number of the packet"
//! (§3.4). An [`Observation`] is exactly that pair. The *absence* of an
//! acknowledgment is informative too — a hypothesis that predicted a
//! delivery the sender never saw is inconsistent — which falls out of the
//! matching rule below without explicit negative events.
//!
//! # Matching rule
//!
//! Over an update window `(prev, until]`, a hypothesis branch is
//! consistent with the observations iff
//!
//! 1. every delivery it predicts at the observed receiver (for the
//!    sender's own flow) coincides exactly — same sequence number, same
//!    microsecond — with an observed acknowledgment, and
//! 2. every observed acknowledgment is matched by exactly one predicted
//!    delivery.
//!
//! Exact-time matching is sound because ground truth and hypotheses run
//! the same integer-valued element code: the true configuration predicts
//! observations bit-for-bit.

use augur_elements::{Network, NodeId};
use augur_sim::{FlowId, Time};
use std::collections::BTreeMap;

/// One acknowledgment: the receiver saw packet `seq` at time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Observation {
    /// Sequence number of the delivered packet (sender's own flow).
    pub seq: u64,
    /// Arrival time at the receiver.
    pub at: Time,
}

/// Observations of one update window, indexed for fast lookup by the
/// engines (both exact and particle). Keyed by a `BTreeMap` — windows
/// are small, and ordered maps keep every conceivable traversal of the
/// index deterministic.
#[derive(Debug, Clone, Default)]
pub struct ObservationIndex {
    by_seq: BTreeMap<u64, Time>,
}

impl ObservationIndex {
    /// Index a window's observations.
    ///
    /// # Panics
    /// Panics if two observations share a sequence number (a packet cannot
    /// be delivered twice).
    pub fn new(obs: &[Observation]) -> ObservationIndex {
        let mut by_seq = BTreeMap::new();
        for o in obs {
            let prev = by_seq.insert(o.seq, o.at);
            assert!(prev.is_none(), "duplicate observation for seq {}", o.seq);
        }
        ObservationIndex { by_seq }
    }

    /// The observed arrival time of `seq`, if acknowledged this window.
    pub fn time_of(&self, seq: u64) -> Option<Time> {
        self.by_seq.get(&seq).copied()
    }

    /// Number of observations in the window.
    pub fn len(&self) -> usize {
        self.by_seq.len()
    }

    /// True iff the window had no acknowledgments.
    pub fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }
}

/// Drain a network's logs and match its predicted self-flow deliveries
/// against the window's observations. Returns `false` if the branch is
/// inconsistent (predicted a delivery that was not observed, or at the
/// wrong time); increments `matched` once per consistent match.
///
/// Deliveries at other receivers (cross traffic, backlog) are invisible to
/// the sender and ignored; drops are likewise discarded here.
pub fn harvest(
    net: &mut Network,
    observed_rx: NodeId,
    obs: &ObservationIndex,
    matched: &mut usize,
) -> bool {
    // In place: a hypothesis is harvested after every step of every
    // window, and its logs keep their allocation for the next one.
    let (deliveries, _drops) = net.drain_logs();
    for (node, d) in deliveries {
        if node == observed_rx && d.packet.flow == FlowId::SELF {
            match obs.time_of(d.packet.seq) {
                Some(t) if t == d.at => *matched += 1,
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup() {
        let idx = ObservationIndex::new(&[
            Observation {
                seq: 3,
                at: Time::from_secs(1),
            },
            Observation {
                seq: 5,
                at: Time::from_secs(2),
            },
        ]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.time_of(3), Some(Time::from_secs(1)));
        assert_eq!(idx.time_of(4), None);
        assert!(!idx.is_empty());
        assert!(ObservationIndex::new(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate observation")]
    fn duplicate_seq_rejected() {
        let _ = ObservationIndex::new(&[
            Observation {
                seq: 1,
                at: Time::from_secs(1),
            },
            Observation {
                seq: 1,
                at: Time::from_secs(2),
            },
        ]);
    }
}
