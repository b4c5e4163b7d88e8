//! The closed loop: ground truth network + ISender, co-simulated.
//!
//! This is the harness §4 describes: "we have implemented the above design
//! … and embedded the ISENDER in an event-driven network simulation". The
//! ground truth [`Network`] runs with sampled nondeterminism; its
//! deliveries at the sender's receiver become acknowledgments (the return
//! path is lossless and instant, §3.4 — clock skew and reverse-path
//! modeling are future work in the paper and here); the sender wakes on
//! each acknowledgment and on its own timer.

use crate::driver::FlowDriver;
use crate::isender::SenderAgent;
use augur_elements::{DropRecord, Network, NodeId};
use augur_inference::{BeliefError, Observation};
use augur_sim::{SimRng, Time};

/// A completed run's record of one flow, each fact stored once (the
/// closed loop also logs every flow's drops and the cross traffic on
/// it). Per-wake facts (acknowledgments handed, packets sent, belief
/// population) are not kept here; a traced run logs them as `wake`,
/// `belief-update` and `snapshot` events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// Every transmission: (sequence number, send time).
    pub sends: Vec<(u64, Time)>,
    /// Every acknowledgment: (sequence number, receive time). The driver
    /// hands each one to the agent once, as part of the slice past the
    /// flow's cursor at its next wake.
    pub acks: Vec<Observation>,
    /// Ground-truth drops of every flow (buffer overflows, stochastic
    /// loss, gate closures). Kept by the single-sender closed loop only;
    /// empty on a multi-flow trace.
    pub drops: Vec<DropRecord>,
    /// Buffer overflows counted to this trace: every flow's under the
    /// closed loop, this flow's own in a multi-flow run.
    pub overflow_drops: u64,
    /// Ground-truth cross-traffic deliveries: (seq, time, bits).
    pub cross_deliveries: Vec<(u64, Time, u64)>,
}

impl RunTrace {
    /// Mean send rate (packets/s) over a window.
    pub fn send_rate(&self, from: Time, to: Time) -> f64 {
        let n = self
            .sends
            .iter()
            .filter(|(_, st)| *st > from && *st <= to)
            .count();
        n as f64 / to.since(from).as_secs_f64()
    }
}

/// The ground truth side of a closed loop.
pub struct GroundTruth {
    /// The real network (sampled nondeterminism).
    pub net: Network,
    /// Where the sender's packets enter.
    pub entry: NodeId,
    /// The receiver whose deliveries become acknowledgments.
    pub rx_self: NodeId,
    /// RNG resolving the real network's choices.
    pub rng: SimRng,
}

/// Run any [`SenderAgent`] (exact-belief [`crate::ISender`], particle
/// [`crate::ParticleSender`], …) against ground truth until `t_end`. The
/// sender makes its first decision at time zero.
///
/// Thin wrapper over the N=1 path of [`FlowDriver`] (see its module
/// docs for the wake contract): the sender wakes on its own timer and
/// at each acknowledgment, its packets are injected at `truth.entry`
/// with their own flow stamp, and cross-traffic deliveries plus all
/// ground-truth drops are logged to the one trace.
pub fn run_closed_loop(
    truth: &mut GroundTruth,
    sender: &mut dyn SenderAgent,
    t_end: Time,
) -> Result<RunTrace, BeliefError> {
    FlowDriver::closed_loop(truth).run_single(sender, t_end)
}
