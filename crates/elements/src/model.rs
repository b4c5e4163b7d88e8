//! The network model of Figure 2 — the paper's experimental topology —
//! as a parameterized builder.
//!
//! ```text
//! Pinger ── Intermittent ──┐
//!                          ├──> Buffer ──> Throughput ──> Loss ──> Diverter ──> Receiver (self)
//! ISender (injects) ───────┘                                          └──────> Receiver (cross)
//! ```
//!
//! The same builder constructs both the **ground truth** (where the gate
//! may really be a deterministic SQUAREWAVE, as in the paper's experiment)
//! and every **hypothesis** in the sender's prior (where the gate is
//! believed INTERMITTENT) — one parameter grid point per hypothesis. All
//! of them number their nodes alike; the `FIG2_*` constants name those
//! ids.

use crate::buffer::Buffer;
use crate::element::{Diverter, Element, Loss, ReceiverEl};
use crate::gate::Gate;
use crate::link::Link;
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeId;
use crate::source::Pinger;
use augur_sim::{BitRate, Bits, Dur, FlowId, Ppm, Time};

/// How the cross-traffic gate behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateSpec {
    /// Memoryless switching (what the sender believes).
    Intermittent {
        /// Mean time to switch.
        mtts: Dur,
        /// Decision epoch for the discretized memoryless process.
        epoch: Dur,
        /// Connected at t = 0?
        initially_connected: bool,
    },
    /// Deterministic alternation (what the paper's ground truth does:
    /// "in reality we switch deterministically every 100 seconds").
    SquareWave {
        /// Dwell time in each state.
        half_period: Dur,
        /// Connected at t = 0?
        initially_connected: bool,
    },
    /// Permanently connected (simple configurations of §4).
    AlwaysOn,
}

impl GateSpec {
    fn build(self) -> Gate {
        match self {
            GateSpec::Intermittent {
                mtts,
                epoch,
                initially_connected,
            } => Gate::intermittent(mtts, epoch, initially_connected),
            GateSpec::SquareWave {
                half_period,
                initially_connected,
            } => Gate::square_wave(half_period, initially_connected),
            // A square wave that never completes its first half-period
            // within any realistic simulation (~31,000 years).
            GateSpec::AlwaysOn => Gate::square_wave(Dur::from_secs(1_000_000_000_000), true),
        }
    }
}

/// Parameters of the Figure-2 model. Field names follow the paper's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelParams {
    /// `c` — bottleneck link speed.
    pub link_rate: BitRate,
    /// `r` — cross-traffic rate (the paper gives it as a fraction of `c`).
    pub cross_rate: BitRate,
    /// Cross traffic presence/switching.
    pub gate: GateSpec,
    /// `p` — last-mile stochastic loss rate.
    pub loss: Ppm,
    /// Buffer capacity in bits.
    pub buffer_capacity: Bits,
    /// Initial buffer fullness in bits (drains as backlog packets).
    pub initial_fullness: Bits,
    /// Packet size used by the cross traffic and backlog (the paper uses
    /// 1500-byte packets throughout).
    pub packet_size: Bits,
    /// If false, the pinger never fires (no cross traffic at all).
    pub cross_active: bool,
}

impl ModelParams {
    /// The paper's actual Figure-2/3 ground truth: c = 12,000 bps,
    /// r = 0.7 c, p = 0.2, buffer = 96,000 bits, initially empty, with the
    /// deterministic 100 s square-wave cross traffic.
    pub fn paper_ground_truth() -> ModelParams {
        ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400), // 0.7 * c
            gate: GateSpec::SquareWave {
                half_period: Dur::from_secs(100),
                initially_connected: true,
            },
            loss: Ppm::from_prob(0.2),
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::from_bytes(1_500),
            cross_active: true,
        }
    }

    /// A bare pipe: the given link behind the given buffer, no cross
    /// traffic, no loss, 1500-byte packets — the simple configurations of
    /// §4 and the natural base point for scenario specs that then override
    /// fields with the `with_*` builders.
    pub fn simple_link(link_rate: BitRate, buffer_capacity: Bits) -> ModelParams {
        ModelParams {
            link_rate,
            cross_rate: BitRate::from_bps(1),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity,
            initial_fullness: Bits::ZERO,
            packet_size: Bits::from_bytes(1_500),
            cross_active: false,
        }
    }

    /// Builder-style override of the cross-traffic rate (also enables the
    /// cross source).
    pub fn with_cross_rate(mut self, cross_rate: BitRate) -> ModelParams {
        self.cross_rate = cross_rate;
        self.cross_active = true;
        self
    }
}

/// Node ids of the Figure-2 topology. `build_model` adds its nodes in one
/// fixed order, so every Figure-2 network — the ground truth and every
/// hypothesis in every prior — shares these ids, and these constants are
/// the only names for them. This one is the cross-traffic source.
pub const FIG2_PINGER: NodeId = NodeId(0);
/// The gate in front of the cross traffic.
pub const FIG2_GATE: NodeId = NodeId(1);
/// The shared tail-drop buffer, where the ISender injects.
pub const FIG2_ENTRY: NodeId = NodeId(2);
/// The bottleneck link.
pub const FIG2_LINK: NodeId = NodeId(3);
/// The last-mile stochastic loss element.
pub const FIG2_LOSS: NodeId = NodeId(4);
/// The flow diverter in front of the receivers.
pub const FIG2_DIVERTER: NodeId = NodeId(5);
/// The ISender's receiver (its deliveries are the observations).
pub const FIG2_RX_SELF: NodeId = NodeId(6);
/// The cross traffic's receiver.
pub const FIG2_RX_CROSS: NodeId = NodeId(7);

/// Build the Figure-2 topology from parameters; its nodes are the `FIG2_*`
/// ids.
pub fn build_model(params: ModelParams) -> Network {
    let mut b = NetworkBuilder::new();
    let start_at = if params.cross_active {
        Time::ZERO
    } else {
        // Beyond any realistic horizon.
        Time::from_secs(1_000_000_000_000)
    };
    let pinger = b.add(Element::Pinger(Pinger::from_rate(
        params.cross_rate,
        params.packet_size,
        FlowId::CROSS,
        start_at,
    )));
    let gate = b.add(Element::Gate(params.gate.build()));
    let buffer = b.add(Element::Buffer(Buffer::drop_tail(params.buffer_capacity)));
    let link = b.add(Element::Link(Link::constant(params.link_rate)));
    let loss = b.add(Element::Loss(Loss { p: params.loss }));
    let div = b.add(Element::Diverter(Diverter { flow: FlowId::SELF }));
    let rx_self = b.add(Element::Receiver(ReceiverEl));
    let rx_cross = b.add(Element::Receiver(ReceiverEl));

    b.connect(pinger, gate);
    b.connect(gate, buffer);
    b.connect(buffer, link);
    b.connect(link, loss);
    b.connect(loss, div);
    b.connect(div, rx_self);
    b.connect_alt(div, rx_cross);
    if params.initial_fullness > Bits::ZERO {
        b.prefill(buffer, params.initial_fullness, params.packet_size);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{Packet, SimRng};

    #[test]
    fn paper_ground_truth_builds() {
        let net = build_model(ModelParams::paper_ground_truth());
        assert_eq!(net.node_count(), 8);
        assert_eq!(net.buffer_params(FIG2_ENTRY).capacity, Bits::new(96_000));
    }

    #[test]
    fn node_ids_match_the_fig2_constants() {
        let net = build_model(ModelParams::paper_ground_truth());
        let kind = |id: NodeId| net.structure().nodes[id.0].element.kind_name();
        let layout = [
            (FIG2_PINGER, "Pinger"),
            (FIG2_GATE, "Gate"),
            (FIG2_ENTRY, "Buffer"),
            (FIG2_LINK, "Link"),
            (FIG2_LOSS, "Loss"),
            (FIG2_DIVERTER, "Diverter"),
            (FIG2_RX_SELF, "Receiver"),
            (FIG2_RX_CROSS, "Receiver"),
        ];
        assert_eq!(net.node_count(), layout.len());
        for (id, want) in layout {
            assert_eq!(kind(id), want, "{id}");
        }
    }

    #[test]
    fn self_packet_reaches_self_receiver() {
        let mut params = ModelParams::paper_ground_truth();
        params.loss = Ppm::ZERO;
        params.cross_active = false;
        let mut net = build_model(params);
        net.inject(
            FIG2_ENTRY,
            Packet::new(FlowId::SELF, 0, Bits::from_bytes(1_500), Time::ZERO),
        );
        let mut rng = SimRng::seed_from_u64(1);
        net.run_until_sampled(Time::from_secs(5), &mut rng);
        let d = net.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, FIG2_RX_SELF);
        assert_eq!(d[0].1.at, Time::from_secs(1));
    }

    #[test]
    fn cross_traffic_occupies_70_percent() {
        // With no loss and no ISender traffic, the pinger at 0.7c should
        // deliver ~0.7 * 12_000 * 100 = 840_000 bits in 100 s.
        let mut params = ModelParams::paper_ground_truth();
        params.loss = Ppm::ZERO;
        params.gate = GateSpec::AlwaysOn;
        let mut net = build_model(params);
        let mut rng = SimRng::seed_from_u64(2);
        net.run_until_sampled(Time::from_secs(100), &mut rng);
        let bits: u64 = net
            .take_deliveries()
            .iter()
            .filter(|(n, _)| *n == FIG2_RX_CROSS)
            .map(|(_, d)| d.packet.size.as_u64())
            .sum();
        assert!(
            (bits as i64 - 840_000).unsigned_abs() <= 24_000,
            "cross delivered {bits} bits"
        );
    }

    #[test]
    fn loss_rate_measured_end_to_end() {
        let mut params = ModelParams::paper_ground_truth();
        params.gate = GateSpec::AlwaysOn;
        let mut net = build_model(params);
        let mut rng = SimRng::seed_from_u64(3);
        net.run_until_sampled(Time::from_secs(3_000), &mut rng);
        let delivered = net
            .take_deliveries()
            .iter()
            .filter(|(n, _)| *n == FIG2_RX_CROSS)
            .count();
        let dropped = net
            .take_drops()
            .iter()
            .filter(|d| d.reason == crate::network::DropReason::Stochastic)
            .count();
        let total = delivered + dropped;
        let loss_rate = dropped as f64 / total as f64;
        assert!(
            (loss_rate - 0.2).abs() < 0.03,
            "measured loss {loss_rate} over {total}"
        );
    }

    #[test]
    fn square_wave_gate_stops_cross_traffic_in_second_phase() {
        let mut params = ModelParams::paper_ground_truth();
        params.loss = Ppm::ZERO;
        let mut net = build_model(params);
        let mut rng = SimRng::seed_from_u64(4);
        net.run_until_sampled(Time::from_secs(100), &mut rng);
        let on_phase = net.take_deliveries().len();
        net.run_until_sampled(Time::from_secs(200), &mut rng);
        let off_phase = net.take_deliveries().len();
        assert!(on_phase > 50, "on phase delivered {on_phase}");
        // Queue drains a couple of packets after the gate closes.
        assert!(off_phase <= 2, "off phase delivered {off_phase}");
    }

    #[test]
    fn initial_fullness_delays_first_delivery() {
        let mut params = ModelParams::paper_ground_truth();
        params.loss = Ppm::ZERO;
        params.cross_active = false;
        params.initial_fullness = Bits::new(24_000); // 2 packets = 2 s
        let mut net = build_model(params);
        net.inject(
            FIG2_ENTRY,
            Packet::new(FlowId::SELF, 0, Bits::from_bytes(1_500), Time::ZERO),
        );
        let mut rng = SimRng::seed_from_u64(5);
        net.run_until_sampled(Time::from_secs(10), &mut rng);
        let d = net.take_deliveries();
        let ours: Vec<_> = d.iter().filter(|(n, _)| *n == FIG2_RX_SELF).collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].1.at, Time::from_secs(3));
    }

    #[test]
    fn simple_link_builders_compose() {
        let p = ModelParams {
            loss: Ppm::from_prob(0.1),
            initial_fullness: Bits::new(12_000),
            ..ModelParams::simple_link(BitRate::from_bps(24_000), Bits::new(48_000))
                .with_cross_rate(BitRate::from_bps(8_400))
        };
        assert_eq!(p.link_rate, BitRate::from_bps(24_000));
        assert_eq!(p.buffer_capacity, Bits::new(48_000));
        assert!(p.cross_active, "with_cross_rate enables the source");
        assert_eq!(p.loss, Ppm::from_prob(0.1));
        // And the result builds a runnable network.
        let net = build_model(p);
        assert_eq!(net.node_count(), 8);
    }

    #[test]
    fn identical_params_build_identical_networks() {
        let a = build_model(ModelParams::paper_ground_truth());
        let b = build_model(ModelParams::paper_ground_truth());
        assert_eq!(a, b);
    }
}
