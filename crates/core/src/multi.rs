//! The multi-sender closed loop — §3.5's open question made runnable.
//!
//! [`run_multi_agent`] generalizes [`crate::run_closed_loop`] to N
//! [`SenderAgent`]s sharing one ground-truth network: each agent owns a
//! wire flow (agent `i` transmits as `FlowId(i)`), acknowledgments are
//! routed per flow, and scheduling is event-driven — an agent wakes at
//! the instant its flow's packets are delivered or at its own requested
//! timer, never on a fixed poll. Both entry points are thin wrappers
//! over [`crate::FlowDriver`]; see its module docs for the scheduling
//! and fairness contract (seeded tie-breaks, acknowledgment wakes,
//! tail accounting to the horizon).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::driver::{DriverError, FlowDriver, FlowEndpoint, FlowTableError};
use crate::experiment::RunTrace;
use crate::isender::SenderAgent;
use augur_elements::{Buffer, Element, Link, Loss, Network, NetworkBuilder, NodeId, ReceiverEl};
use augur_sim::{BitRate, Bits, Ppm, SimRng, Time};

/// Ground truth for the multi-sender loop: a network plus a validated
/// per-flow endpoint table (`flows[i]` is where `FlowId(i)` enters and
/// is received).
///
/// The table is constructed once through [`MultiFlowTruth::new`], which
/// rejects empty tables and flow counts beyond the u16 wire-id space —
/// what used to be a runtime `assert!` inside the run loop is a typed
/// error at construction time.
pub struct MultiFlowTruth {
    /// The network.
    pub net: Network,
    /// Per-flow endpoints; validated non-empty and within `FlowId` range.
    pub(crate) flows: Vec<FlowEndpoint>,
    /// Sampling RNG — network choices *and* wake tie-breaks draw from it.
    pub rng: SimRng,
}

impl MultiFlowTruth {
    /// Validate and assemble a per-flow ground truth.
    pub fn new(
        net: Network,
        flows: Vec<FlowEndpoint>,
        rng: SimRng,
    ) -> Result<MultiFlowTruth, FlowTableError> {
        if flows.is_empty() {
            return Err(FlowTableError::Empty);
        }
        if flows.len() > usize::from(u16::MAX) + 1 {
            return Err(FlowTableError::TooManyFlows { flows: flows.len() });
        }
        Ok(MultiFlowTruth { net, flows, rng })
    }

    /// Number of declared flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The validated per-flow endpoint table.
    pub fn endpoints(&self) -> &[FlowEndpoint] {
        &self.flows
    }

    /// Where flow `i` enters the network.
    pub fn entry_for(&self, flow: usize) -> NodeId {
        self.flows[flow].entry
    }

    /// The receiver acknowledging flow `i`.
    pub fn rx_for(&self, flow: usize) -> NodeId {
        self.flows[flow].rx
    }
}

/// Build `buffer → link → loss → rx` shared by *all* `flows` senders:
/// the single-bottleneck shape of the coexistence studies (2–4 flows)
/// and the many-flow scaling runs alike. Every flow injects at the one
/// drop-tail buffer and is acknowledged at the one receiver; the driver
/// routes deliveries back to agents by [`augur_sim::FlowId`], so no
/// per-flow topology is needed and a delivery costs O(1) routing passes
/// regardless of N.
#[expect(clippy::expect_used, reason = "P020: flows >= 1 is asserted at entry")]
pub fn build_many_flow_bottleneck(
    link: BitRate,
    buffer: Bits,
    loss: Ppm,
    flows: usize,
    seed: u64,
) -> MultiFlowTruth {
    assert!(flows >= 1, "a many-flow bottleneck needs at least one flow");
    let mut b = NetworkBuilder::new();
    let buf = b.add(Element::Buffer(Buffer::drop_tail(buffer)));
    let link_n = b.add(Element::Link(Link::constant(link)));
    let loss_n = b.add(Element::Loss(Loss { p: loss }));
    let rx = b.add(Element::Receiver(ReceiverEl));
    b.connect(buf, link_n);
    b.connect(link_n, loss_n);
    b.connect(loss_n, rx);
    let table = (0..flows)
        .map(|_| FlowEndpoint { entry: buf, rx })
        .collect();
    MultiFlowTruth::new(b.build(), table, SimRng::seed_from_u64(seed))
        .expect("many-flow bottleneck flow table is non-empty; flow count checked by caller")
}

/// Run N agents over a shared ground truth until `t_end`; returns one
/// [`RunTrace`] per agent (same order). Agent `i`'s packets are
/// re-stamped to `FlowId(i)` on injection and injected at the truth's
/// i-th endpoint, so every agent may keep believing it is
/// [`augur_sim::FlowId::SELF`] internally — the loop owns wire identity.
///
/// Thin wrapper over [`FlowDriver::over`] + [`FlowDriver::run`]. Errors
/// propagate from any agent whose belief dies
/// ([`DriverError::Belief`]); handing the driver more agents than the
/// truth declares flows is [`DriverError::AgentCount`].
pub fn run_multi_agent(
    truth: &mut MultiFlowTruth,
    agents: &mut [&mut dyn SenderAgent],
    t_end: Time,
) -> Result<Vec<RunTrace>, DriverError> {
    FlowDriver::over(truth).run(agents, t_end)
}

/// Jain's fairness index over per-flow rates: `(Σr)² / (n · Σr²)`,
/// 1 for a perfectly even split, `1/n` for total capture by one flow.
pub fn jain_index(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if sq <= 0.0 {
        return f64::NAN;
    }
    sum * sum / (rates.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{FlowId, Packet};

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!(jain_index(&[0.0, 0.0]).is_nan());
    }

    #[test]
    fn many_flow_bottleneck_shares_one_receiver() {
        let mut truth = build_many_flow_bottleneck(
            BitRate::from_bps(48_000),
            Bits::new(96_000),
            Ppm::ZERO,
            1000,
            7,
        );
        assert_eq!(truth.flow_count(), 1000);
        assert_eq!(truth.rx_for(0), truth.rx_for(999));
        for f in [0usize, 500, 999] {
            truth.net.inject(
                truth.entry_for(f),
                Packet::new(FlowId(f as u16), 0, Bits::new(12_000), Time::ZERO),
            );
        }
        truth
            .net
            .run_until_sampled(Time::from_secs(20), &mut truth.rng);
        let d = truth.net.take_deliveries();
        assert_eq!(d.len(), 3);
        for (node, del) in &d {
            assert_eq!(*node, truth.rx_for(del.packet.flow.0 as usize));
        }
    }

    #[test]
    fn flow_table_validation_is_typed() {
        let probe = build_many_flow_bottleneck(
            BitRate::from_bps(12_000),
            Bits::new(96_000),
            Ppm::ZERO,
            1,
            7,
        );
        let ep = probe.endpoints()[0];
        let err = MultiFlowTruth::new(probe.net, Vec::new(), SimRng::seed_from_u64(7))
            .err()
            .expect("empty flow table must be rejected");
        assert_eq!(err, FlowTableError::Empty);

        let probe = build_many_flow_bottleneck(
            BitRate::from_bps(12_000),
            Bits::new(96_000),
            Ppm::ZERO,
            1,
            7,
        );
        let too_many = vec![ep; usize::from(u16::MAX) + 2];
        let err = MultiFlowTruth::new(probe.net, too_many, SimRng::seed_from_u64(7))
            .err()
            .expect("oversized flow table must be rejected");
        assert_eq!(
            err,
            FlowTableError::TooManyFlows {
                flows: usize::from(u16::MAX) + 2
            }
        );
    }
}
