//! An event-driven TCP download over an element network.
//!
//! The runner co-simulates a bulk-transfer sender under the congestion
//! control it is given (Reno or CUBIC), a cumulative-ACK receiver
//! attached to the network's terminal receiver node, and the network
//! itself (with sampled nondeterminism). The reverse path is a
//! fixed delay, lossless — the same simplification the paper makes for
//! the ISender (§3.4) — so the measured RTT is the sum of queueing,
//! service, ARQ, propagation, and the reverse delay. This reproduces
//! Figure 1 (the `fig1` preset; its shape is asserted in
//! `augur-scenario`'s `tests/paper_shapes.rs`).
//!
//! [`TcpRunner::new`] is the one constructor: a scenario spec's TCP
//! baselines pass it the built Figure-2 model's shared buffer and self
//! receiver, or the cellular path's entry and receiver.

use crate::cc::CongestionControl;
use crate::endpoint::TcpEndpoint;
use augur_elements::{DropReason, Network, NodeId};
use augur_sim::{Bits, Dur, FlowId, Packet, SimRng, Time};

/// The fixed reverse-path (ACK) delay of every TCP connection.
pub(crate) const REVERSE_DELAY: Dur = Dur::from_millis(25);

/// Configuration of a TCP run. The connection sends as
/// [`FlowId::SELF`] and its ACKs return after a fixed 25 ms
/// (`REVERSE_DELAY`).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Segment size on the wire.
    pub packet_size: Bits,
    /// Cap on the flight size in packets (receiver window stand-in).
    pub max_window: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            packet_size: Bits::from_bytes(1_500),
            max_window: 1_000,
        }
    }
}

/// What a TCP run measured: each fact a summary reads, kept once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcpTrace {
    /// RTT of every ACK that took a sample, in arrival order (Karn's
    /// algorithm takes none from a retransmitted segment).
    pub rtt_samples: Vec<Dur>,
    /// In-order bits the receiver had accepted when the sender last saw
    /// a new cumulative ACK: the run's goodput numerator.
    pub received_bits: u64,
    /// Total segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Timeouts taken.
    pub timeouts: u64,
    /// Buffer overflows in the network (all flows). Only [`TcpRunner`]
    /// sees the network; an endpoint driven by another loop leaves this
    /// zero.
    pub overflow_drops: u64,
}

impl TcpTrace {
    /// Mean goodput in bits/s over the run.
    pub fn mean_goodput_bps(&self, t_end: Time) -> f64 {
        self.received_bits as f64 / t_end.as_secs_f64()
    }
}

/// The co-simulated TCP endpoint pair.
pub struct TcpRunner {
    /// The forward path.
    pub net: Network,
    /// Injection node.
    pub entry: NodeId,
    /// Terminal receiver node.
    pub rx: NodeId,
    /// Sampling RNG for the network's choices.
    pub rng: SimRng,
    /// The endpoint state machine (sender, receiver, reverse path).
    pub ep: TcpEndpoint,
}

impl TcpRunner {
    /// A runner over the forward path `net`, injecting at `entry` and
    /// receiving at `rx`, under the congestion control `cc` (e.g.
    /// [`crate::reno::Reno`] or [`crate::cubic::Cubic`]).
    pub fn new(
        net: Network,
        entry: NodeId,
        rx: NodeId,
        cfg: TcpConfig,
        seed: u64,
        cc: Box<dyn CongestionControl>,
    ) -> TcpRunner {
        TcpRunner {
            net,
            entry,
            rx,
            rng: SimRng::seed_from_u64(seed),
            ep: TcpEndpoint::new(cfg, cc),
        }
    }

    /// Run the download until `t_end`, returning the measurements.
    ///
    /// Nothing is allocated per packet: the network's logs are drained
    /// in place and one packet buffer is reused for every poll, so the
    /// only growth is `rtt_samples`.
    pub fn run(&mut self, t_end: Time) -> TcpTrace {
        let mut trace = TcpTrace::default();
        let mut pkts = Vec::new();
        let mut now = Time::ZERO;
        self.net.record_events();
        self.ep.poll(now, &mut trace, &mut pkts); // initial window fill
        self.inject(&mut pkts, now);
        loop {
            // Next event: network internal, ACK arrival, or RTO.
            let mut t_next = Time::MAX;
            if let Some(t) = self.net.next_event_time() {
                t_next = t_next.min(t);
            }
            if let Some(t) = self.ep.next_event_time() {
                t_next = t_next.min(t);
            }
            if t_next > t_end {
                break;
            }
            now = t_next;

            // 1. Network events up to now (sampled choices).
            self.net.run_until_sampled(now, &mut self.rng);
            let (deliveries, drops) = self.net.drain_logs();
            for (node, d) in deliveries {
                if node == self.rx && d.packet.flow == FlowId::SELF {
                    self.ep.on_delivery(d.packet, d.at);
                }
            }
            for d in drops {
                trace.overflow_drops += u64::from(d.reason == DropReason::BufferFull);
            }

            // 2–4. ACKs due now, retransmission timeout, window refill.
            self.ep.poll(now, &mut trace, &mut pkts);
            self.inject(&mut pkts, now);
        }
        trace
    }

    /// Inject emitted packets, sampling through any stochastic element
    /// reached synchronously, and leave the buffer empty for reuse.
    fn inject(&mut self, pkts: &mut Vec<Packet>, now: Time) {
        for pkt in pkts.drain(..) {
            self.net.inject(self.entry, pkt);
            self.net.run_until_sampled(now, &mut self.rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::Reno;
    use augur_elements::{Buffer, Element, Link, NetworkBuilder, ReceiverEl};
    use augur_sim::BitRate;

    /// buffer → link → receiver with the given rate and buffer depth.
    fn path(rate_kbps: u64, buffer_pkts: u64) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(
            buffer_pkts * 12_000,
        ))));
        let link = b.add(Element::Link(Link::constant(BitRate::from_kbps(rate_kbps))));
        let rx = b.add(Element::Receiver(ReceiverEl));
        b.connect(buf, link);
        b.connect(link, rx);
        (b.build(), buf, rx)
    }

    #[test]
    fn tcp_fills_a_clean_pipe() {
        // Receiver-window-limited: the 64-packet window never overflows
        // the 100-packet buffer, so the pipe is genuinely loss-free.
        let (net, entry, rx) = path(1_000, 100);
        let cfg = TcpConfig {
            max_window: 64,
            ..TcpConfig::default()
        };
        let mut runner = TcpRunner::new(net, entry, rx, cfg, 1, Box::<Reno>::default());
        let trace = runner.run(Time::from_secs(60));
        // 1 Mbps link, long run: goodput should be close to the link rate.
        let goodput = trace.mean_goodput_bps(Time::from_secs(60));
        assert!(
            goodput > 800_000.0,
            "goodput {goodput} bps on a 1 Mbps link"
        );
        assert_eq!(trace.timeouts, 0, "clean pipe should not time out");
    }

    #[test]
    fn shallow_buffer_causes_loss_and_recovery() {
        let (net, entry, rx) = path(1_000, 5);
        let mut runner = TcpRunner::new(
            net,
            entry,
            rx,
            TcpConfig::default(),
            2,
            Box::<Reno>::default(),
        );
        let trace = runner.run(Time::from_secs(60));
        assert!(trace.overflow_drops > 0, "5-packet buffer must overflow");
        assert!(trace.retransmissions > 0);
        // Still gets decent goodput via fast retransmit.
        let goodput = trace.mean_goodput_bps(Time::from_secs(60));
        assert!(goodput > 500_000.0, "goodput {goodput}");
    }

    #[test]
    fn deep_buffer_inflates_rtt() {
        let shallow = {
            let (net, entry, rx) = path(500, 10);
            let mut r = TcpRunner::new(
                net,
                entry,
                rx,
                TcpConfig::default(),
                3,
                Box::<Reno>::default(),
            );
            r.run(Time::from_secs(60))
        };
        let deep = {
            let (net, entry, rx) = path(500, 400);
            let mut r = TcpRunner::new(
                net,
                entry,
                rx,
                TcpConfig::default(),
                3,
                Box::<Reno>::default(),
            );
            r.run(Time::from_secs(60))
        };
        let max_rtt = |t: &TcpTrace| t.rtt_samples.iter().max().map_or(0, |r| r.as_micros());
        assert!(
            max_rtt(&deep) > 4 * max_rtt(&shallow),
            "deep {}us vs shallow {}us",
            max_rtt(&deep),
            max_rtt(&shallow)
        );
    }

    #[test]
    fn rtt_samples_skip_retransmissions() {
        let (net, entry, rx) = path(1_000, 3);
        let mut runner = TcpRunner::new(
            net,
            entry,
            rx,
            TcpConfig::default(),
            4,
            Box::<Reno>::default(),
        );
        let trace = runner.run(Time::from_secs(30));
        // All RTT samples must be plausible (>= service time of one
        // packet): retransmission ambiguity would produce wild samples.
        for rtt in &trace.rtt_samples {
            assert!(*rtt >= Dur::from_millis(12), "implausible rtt {rtt}");
        }
    }
}

#[cfg(test)]
mod cubic_runner_tests {
    use super::*;
    use crate::cubic::Cubic;
    use crate::reno::RenoSignal;
    use augur_elements::{Buffer, Element, Link, NetworkBuilder, ReceiverEl};
    use augur_sim::BitRate;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn path(rate_kbps: u64, buffer_pkts: u64) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(
            buffer_pkts * 12_000,
        ))));
        let link = b.add(Element::Link(Link::constant(BitRate::from_kbps(rate_kbps))));
        let rx = b.add(Element::Receiver(ReceiverEl));
        b.connect(buf, link);
        b.connect(link, rx);
        (b.build(), buf, rx)
    }

    #[test]
    fn cubic_fills_a_clean_pipe() {
        let (net, entry, rx) = path(1_000, 100);
        let cfg = TcpConfig {
            max_window: 64,
            ..TcpConfig::default()
        };
        let mut runner = TcpRunner::new(net, entry, rx, cfg, 1, Box::new(Cubic::default()));
        let trace = runner.run(Time::from_secs(60));
        let goodput = trace.mean_goodput_bps(Time::from_secs(60));
        assert!(goodput > 800_000.0, "goodput {goodput} on a 1 Mbps link");
    }

    /// Congestion control that logs `(time, cwnd)` after every ACK and
    /// timeout it is told of: the cwnd series a run does not keep.
    struct Logged {
        inner: Box<dyn CongestionControl>,
        log: Rc<RefCell<Vec<(Time, f64)>>>,
    }

    impl Logged {
        fn note(&self, now: Time) {
            self.log.borrow_mut().push((now, self.inner.cwnd()));
        }
    }

    impl CongestionControl for Logged {
        fn window(&self) -> u64 {
            self.inner.window()
        }
        fn cwnd(&self) -> f64 {
            self.inner.cwnd()
        }
        fn in_recovery(&self) -> bool {
            self.inner.in_recovery()
        }
        fn on_new_ack(&mut self, newly_acked: u64, now: Time) {
            self.inner.on_new_ack(newly_acked, now);
            self.note(now);
        }
        fn on_dup_ack(&mut self, now: Time) -> RenoSignal {
            let signal = self.inner.on_dup_ack(now);
            self.note(now);
            signal
        }
        fn on_timeout(&mut self, now: Time) {
            self.inner.on_timeout(now);
            self.note(now);
        }
        fn observe_rtt(&mut self, srtt: Dur) {
            self.inner.observe_rtt(srtt);
        }
    }

    #[test]
    fn cubic_recovers_from_loss_faster_than_reno_grows() {
        // On a shallow buffer both lose packets; CUBIC's post-reduction
        // window (β = 0.7) stays above Reno's (1/2), so its cwnd samples
        // after recovery should on average be at least Reno's.
        let run = |inner: Box<dyn CongestionControl>| {
            let (net, entry, rx) = path(2_000, 20);
            let log = Rc::new(RefCell::new(Vec::new()));
            let cc = Box::new(Logged {
                inner,
                log: Rc::clone(&log),
            });
            let mut runner = TcpRunner::new(net, entry, rx, TcpConfig::default(), 5, cc);
            runner.run(Time::from_secs(120));
            let tail: Vec<f64> = (log.borrow().iter())
                .filter(|(t, _)| *t > Time::from_secs(30))
                .map(|(_, w)| *w)
                .collect();
            tail.iter().sum::<f64>() / tail.len().max(1) as f64
        };
        let reno_avg = run(Box::<crate::reno::Reno>::default());
        let cubic_avg = run(Box::<Cubic>::default());
        assert!(
            cubic_avg > reno_avg * 0.8,
            "cubic mean cwnd {cubic_avg:.1} vs reno {reno_avg:.1}"
        );
    }
}
