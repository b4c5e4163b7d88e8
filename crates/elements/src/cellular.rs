//! A synthetic wide-area cellular ("LTE-like") path — the Figure-1
//! substitute.
//!
//! The paper's Figure 1 measures RTT during a TCP download on Verizon LTE
//! and finds it climbing from ~100 ms to 10 seconds. The mechanism the
//! paper blames (§1, §2): cellular networks "zealously hide non-congestive
//! losses" with link-layer retransmission and are provisioned with very
//! deep buffers, so a loss-based sender fills the queue and every packet
//! behind it waits. We reproduce that structurally:
//!
//! ```text
//! TCP sender ──> Buffer(deep, tail-drop) ──> Link(variable rate, ARQ) ──> Delay ──> Receiver
//! ```
//!
//! * the link rate follows a periodic schedule (fading between good and
//!   bad states);
//! * each transmission attempt fails with probability `arq_loss` and the
//!   link *retransmits* after `arq_retry_delay` instead of dropping —
//!   losses are invisible end-to-end but cost head-of-line time;
//! * the buffer is hundreds of packets deep, so nothing tells TCP to slow
//!   down until seconds of queue have built up.

use crate::buffer::Buffer;
use crate::delay::DelayEl;
use crate::element::{Element, ReceiverEl};
use crate::link::{Link, RateProcess};
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeId;
use augur_sim::{BitRate, Bits, Dur, Ppm};

/// Parameters of the cellular path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellularParams {
    /// Buffer depth in bits (the "bufferbloat" knob).
    pub buffer_capacity: Bits,
    /// Rate schedule of the radio link.
    pub rate: RateProcess,
    /// Per-transmission stochastic loss hidden by link-layer ARQ.
    pub arq_loss: Ppm,
    /// Delay before each ARQ retransmission starts.
    pub arq_retry_delay: Dur,
    /// One-way propagation delay (core network + internet).
    pub propagation: Dur,
}

impl CellularParams {
    /// A representative LTE-like downlink: 750 kB of buffer (500 full-size
    /// packets), rate fading between 4 Mbit/s and 250 kbit/s on a 20 s
    /// cycle, 10 % transmission loss hidden by ARQ with 40 ms retries,
    /// 25 ms propagation each way.
    pub fn lte_like() -> CellularParams {
        CellularParams {
            buffer_capacity: Bits::from_bytes(750_000),
            rate: RateProcess::Schedule {
                steps: vec![
                    (Dur::ZERO, BitRate::from_kbps(4_000)),
                    (Dur::from_secs(8), BitRate::from_kbps(1_000)),
                    (Dur::from_secs(14), BitRate::from_kbps(250)),
                    (Dur::from_secs(17), BitRate::from_kbps(2_000)),
                ],
                period: Dur::from_secs(20),
            },
            arq_loss: Ppm::from_prob(0.10),
            arq_retry_delay: Dur::from_millis(40),
            propagation: Dur::from_millis(25),
        }
    }
}

/// A built cellular path with the two nodes its senders use.
#[derive(Debug, Clone)]
pub struct CellularNet {
    /// The network.
    pub net: Network,
    /// Injection point (the deep buffer).
    pub entry: NodeId,
    /// The terminal receiver.
    pub rx: NodeId,
}

/// Build the cellular path with the default deep drop-tail buffer.
pub fn build_cellular(params: &CellularParams) -> CellularNet {
    build_cellular_with_buffer(params, Buffer::drop_tail(params.buffer_capacity))
}

/// Build the cellular path with an explicit buffer element — the AQM
/// experiments (EXT-D) swap the deep FIFO for RED or CoDel while keeping
/// the rest of the radio path identical.
pub fn build_cellular_with_buffer(params: &CellularParams, buffer_el: Buffer) -> CellularNet {
    let mut b = NetworkBuilder::new();
    let buffer = b.add(Element::Buffer(buffer_el));
    let link = b.add(Element::Link(Link::new(
        params.rate.clone(),
        params.arq_loss,
        params.arq_retry_delay,
    )));
    let delay = b.add(Element::Delay(DelayEl::new(params.propagation)));
    let rx = b.add(Element::Receiver(ReceiverEl));
    b.connect(buffer, link);
    b.connect(link, delay);
    b.connect(delay, rx);
    CellularNet {
        net: b.build(),
        entry: buffer,
        rx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{FlowId, Packet, SimRng, Time};

    #[test]
    fn lte_path_delivers_with_propagation_floor() {
        let mut params = CellularParams::lte_like();
        params.arq_loss = Ppm::ZERO;
        let mut c = build_cellular(&params);
        c.net.inject(
            c.entry,
            Packet::new(FlowId::SELF, 0, Bits::from_bytes(1_500), Time::ZERO),
        );
        let mut rng = SimRng::seed_from_u64(1);
        c.net.run_until_sampled(Time::from_secs(1), &mut rng);
        let d = c.net.take_deliveries();
        assert_eq!(d.len(), 1);
        // 12_000 bits at 4 Mbps = 3 ms serialization + 25 ms propagation.
        assert_eq!(d[0].1.at, Time::from_micros(28_000));
    }

    #[test]
    fn arq_hides_loss_but_adds_delay() {
        let mut params = CellularParams::lte_like();
        params.arq_loss = Ppm::from_prob(0.5);
        let mut c = build_cellular(&params);
        let mut rng = SimRng::seed_from_u64(42);
        let n = 200;
        for i in 0..n {
            c.net
                .run_until_sampled(Time::from_millis(100 * i), &mut rng);
            c.net.inject(
                c.entry,
                Packet::new(FlowId::SELF, i, Bits::from_bytes(1_500), c.net.now()),
            );
        }
        c.net.run_until_sampled(Time::from_secs(1_000), &mut rng);
        let deliveries = c.net.take_deliveries();
        let drops = c.net.take_drops();
        // Every packet is eventually delivered: ARQ hides all loss.
        assert_eq!(deliveries.len() as u64, n);
        assert!(drops.is_empty(), "ARQ should never drop: {drops:?}");
        // But retransmissions cost time: with p = 0.5 the mean number of
        // attempts is 2, so total delay must exceed the no-loss baseline.
        let mean_delay_us: u64 = deliveries
            .iter()
            .map(|(_, d)| d.delay().as_micros())
            .sum::<u64>()
            / n;
        assert!(
            mean_delay_us > 30_000,
            "mean delay {mean_delay_us}us suspiciously low"
        );
    }

    #[test]
    fn trace_rate_path_delivers_at_the_integrated_pace() {
        use crate::link::{RateProcess, TraceEnd};
        let mut params = CellularParams::lte_like();
        params.arq_loss = Ppm::ZERO;
        // 12 kbit/s fading to 1.2 kbit/s at 2 ms: a 12_000-bit packet
        // drains 24 bits in the fast window, then 11_976 bits at the slow
        // rate (9_980 ms) — plus 25 ms propagation.
        params.rate = RateProcess::Trace {
            label: "unit".into(),
            samples: vec![
                (Dur::ZERO, BitRate::from_kbps(12)),
                (Dur::from_millis(2), BitRate::from_bps(1_200)),
            ],
            end: TraceEnd::HoldLast,
        };
        let mut c = build_cellular(&params);
        c.net.inject(
            c.entry,
            Packet::new(FlowId::SELF, 0, Bits::from_bytes(1_500), Time::ZERO),
        );
        let mut rng = SimRng::seed_from_u64(1);
        c.net.run_until_sampled(Time::from_secs(20), &mut rng);
        let d = c.net.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.at, Time::from_millis(2 + 9_980 + 25));
    }

    #[test]
    fn fading_slows_service() {
        let params = CellularParams::lte_like();
        // At t = 15 s the schedule says 250 kbps.
        assert_eq!(
            params.rate.rate_at(Time::from_secs(15)),
            BitRate::from_kbps(250)
        );
        assert_eq!(
            params.rate.rate_at(Time::from_secs(35)),
            BitRate::from_kbps(250)
        );
    }
}
