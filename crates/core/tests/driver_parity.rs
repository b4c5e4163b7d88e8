//! Parity and wake-heap contract tests for the flow driver.
//!
//! The fingerprint test pins the exact byte content of a single-flow
//! fig3-style closed-loop trace: sends, acknowledgments, drops and cross
//! deliveries. It must never change, proving the heap-scheduled driver's
//! N=1 path is byte-identical to the sequential loop it replaced.

use augur_core::{
    build_many_flow_bottleneck, run_closed_loop, run_multi_agent, AimdSender, DiscountedThroughput,
    GroundTruth, ISender, ISenderConfig, MultiFlowTruth, RunTrace, SenderAgent, WakeOutcome,
};
use augur_elements::{
    build_model, Buffer, Element, GateSpec, JitterEl, Link, ModelParams, NetworkBuilder,
    ReceiverEl, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF,
};
use augur_inference::{
    Belief, BeliefConfig, BeliefError, Hypothesis, ModelPrior, Observation, Population,
};
use augur_sim::{BitRate, Bits, Dur, FlowId, Packet, Ppm, SimRng, Time};
use augur_tcp::{Reno, TcpConfig, TcpEndpoint, TcpTrace};
use std::cell::RefCell;
use std::rc::Rc;

fn quiet_truth(c_bps: u64) -> GroundTruth {
    let net = build_model(ModelParams {
        link_rate: BitRate::from_bps(c_bps),
        cross_rate: BitRate::from_bps(c_bps * 7 / 10),
        gate: GateSpec::AlwaysOn,
        loss: Ppm::ZERO,
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: false,
    });
    GroundTruth {
        net,
        entry: FIG2_ENTRY,
        rx_self: FIG2_RX_SELF,
        rng: SimRng::seed_from_u64(21),
    }
}

fn quiet_belief() -> Belief<ModelParams> {
    let prior = ModelPrior {
        link_rates: vec![
            BitRate::from_bps(10_000),
            BitRate::from_bps(12_000),
            BitRate::from_bps(16_000),
        ],
        cross_fracs_ppm: vec![700_000],
        losses: vec![Ppm::ZERO],
        buffer_capacities: vec![Bits::new(96_000)],
        fullness_step: Some(Bits::new(48_000)),
        mtts: Dur::from_secs(100),
        epoch: Dur::from_secs(1),
        gate_initial: vec![true],
        packet_size: Bits::from_bytes(1_500),
        cross_active: true,
    };
    let mut hyps = Vec::new();
    for mut params in prior.grid() {
        params.cross_active = false;
        hyps.push(Hypothesis {
            net: build_model(params),
            meta: params,
            weight: 1.0,
        });
    }
    let prior = Population::new(hyps, Some(FIG2_LOSS));
    Belief::from_population(prior, FIG2_ENTRY, FIG2_RX_SELF, BeliefConfig::default())
}

/// FNV-1a fold over every observable field of a trace, including event
/// times at microsecond precision — any reordering, re-timing, or
/// re-counting of the run changes the fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint(trace: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.mix(trace.sends.len() as u64);
    for &(seq, t) in &trace.sends {
        h.mix(seq);
        h.mix(t.as_micros());
    }
    h.mix(trace.acks.len() as u64);
    for obs in &trace.acks {
        h.mix(obs.seq);
        h.mix(obs.at.as_micros());
    }
    h.mix(trace.acks.len() as u64 * 12_000); // the delivered bits of 12 000-bit packets
    h.mix(trace.drops.len() as u64);
    for d in &trace.drops {
        h.mix(d.at.as_micros());
        h.mix(d.packet.seq);
        h.mix(u64::from(d.packet.flow.0));
        h.mix(d.node.0 as u64);
    }
    h.mix(trace.cross_deliveries.len() as u64);
    for &(seq, at, bits) in &trace.cross_deliveries {
        h.mix(seq);
        h.mix(at.as_micros());
        h.mix(bits);
    }
    h.0
}

/// The heap-scheduled N=1 path must reproduce the pre-driver sequential
/// `run_closed_loop` trace. Traces used to carry a per-wake record too;
/// this pin is the fingerprint without it, computed on the last driver
/// that kept the records and still reproduced the pre-driver pin
/// (`0x3090_2024_73ec_d26b` with them).
const QUIET_60S_FINGERPRINT: u64 = 0xac6d_9aaf_6bb0_6248;

#[test]
fn closed_loop_trace_is_byte_identical_to_the_pre_driver_loop() {
    let mut truth = quiet_truth(12_000);
    let mut sender = ISender::new(
        quiet_belief(),
        Box::new(DiscountedThroughput::with_alpha(1.0)),
        ISenderConfig::default(),
    );
    let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(60)).expect("run failed");
    assert!(!trace.sends.is_empty() && !trace.acks.is_empty());
    assert_eq!(
        fingerprint(&trace),
        QUIET_60S_FINGERPRINT,
        "single-flow closed-loop trace diverged from the pre-driver pin \
         (got {:#x})",
        fingerprint(&trace)
    );
}

/// Run N AIMD agents over the shared many-flow bottleneck — the
/// population workload the scaling sweeps use.
fn aimd_population_run(n: usize, seed: u64, t_end: Time) -> Vec<RunTrace> {
    let mut truth = build_many_flow_bottleneck(
        BitRate::from_bps(12_000_000),
        Bits::new(480_000),
        Ppm::ZERO,
        n,
        seed,
    );
    let mut store: Vec<AimdSender> = (0..n)
        .map(|_| AimdSender::new(Dur::from_secs(8)).with_packet_size(Bits::from_bytes(1_500)))
        .collect();
    let mut agents: Vec<&mut dyn SenderAgent> = store
        .iter_mut()
        .map(|a| a as &mut dyn SenderAgent)
        .collect();
    run_multi_agent(&mut truth, &mut agents, t_end).expect("belief-free agents cannot die")
}

#[test]
fn hundred_flow_run_is_deterministic_under_one_seed() {
    let a = aimd_population_run(100, 0xD0, Time::from_secs(5));
    let b = aimd_population_run(100, 0xD0, Time::from_secs(5));
    assert!(a.iter().any(|t| !t.acks.is_empty()), "run must do work");
    assert_eq!(a, b, "same seed, same population, different traces");
}

/// A silent agent that wakes every second and records its dispatch
/// position in a log shared across the whole population — the probe for
/// the driver's seeded tie-breaking.
struct TickAgent {
    index: usize,
    log: Rc<RefCell<Vec<usize>>>,
}

impl SenderAgent for TickAgent {
    fn own_flow(&self) -> FlowId {
        FlowId::SELF
    }
    fn on_wake(&mut self, now: Time, _acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        self.log.borrow_mut().push(self.index);
        Ok(WakeOutcome::idle(now + Dur::from_secs(1)))
    }
    fn population(&self) -> usize {
        1
    }
    fn effective_population(&self) -> f64 {
        1.0
    }
}

#[test]
fn tied_wakes_are_dispatched_without_a_standing_favorite() {
    const N: usize = 8;
    const INSTANTS: usize = 201; // t = 0s, 1s, …, 200s — all N tied at each
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut truth = build_many_flow_bottleneck(
        BitRate::from_bps(12_000),
        Bits::new(96_000),
        Ppm::ZERO,
        N,
        0x71E,
    );
    let mut store: Vec<TickAgent> = (0..N)
        .map(|index| TickAgent {
            index,
            log: Rc::clone(&log),
        })
        .collect();
    let mut agents: Vec<&mut dyn SenderAgent> = store
        .iter_mut()
        .map(|a| a as &mut dyn SenderAgent)
        .collect();
    run_multi_agent(&mut truth, &mut agents, Time::from_secs(200)).expect("silent agents run");

    let log = log.borrow();
    assert_eq!(log.len(), N * INSTANTS);
    let mut firsts = [0usize; N];
    for instant in log.chunks(N) {
        // Every flow is dispatched exactly once per tied instant …
        let mut seen = [false; N];
        for &i in instant {
            assert!(!seen[i], "flow {i} dispatched twice in one instant");
            seen[i] = true;
        }
        // … and we tally who went first.
        firsts[instant[0]] += 1;
    }
    for (i, &f) in firsts.iter().enumerate() {
        assert!(f > 0, "flow {i} never dispatched first in {INSTANTS} ties");
        assert!(
            f < INSTANTS / 2,
            "flow {i} dispatched first {f}/{INSTANTS} times — a standing majority"
        );
    }
}

/// One shot, then a long timer: send a 12 000-bit packet at t=0 over a
/// 12 000 bit/s link (delivery at exactly t=1s) while asking to sleep
/// until t=10s. The probe for in-place re-keying: the ACK pulls the
/// wake from 10s to 1s (re-keying the flow's one heap entry), and
/// rescheduling 10s afterward must fire exactly once — no duplicate
/// from the superseded 10s timer.
struct OneShotAgent {
    sent: bool,
    /// Per wake: (instant in µs, acknowledgments handed, packets sent).
    log: Vec<(u64, usize, usize)>,
}

impl SenderAgent for OneShotAgent {
    fn own_flow(&self) -> FlowId {
        FlowId::SELF
    }
    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let outcome = if self.sent {
            // Keep asking for the 10s timer until it fires, then sleep
            // past the horizon.
            WakeOutcome::idle(if now < Time::from_secs(10) {
                Time::from_secs(10)
            } else {
                now + Dur::from_secs(100)
            })
        } else {
            self.sent = true;
            WakeOutcome {
                sent: vec![Packet::new(FlowId::SELF, 0, Bits::new(12_000), now)],
                ..WakeOutcome::idle(Time::from_secs(10))
            }
        };
        self.log
            .push((now.as_micros(), acks.len(), outcome.sent.len()));
        Ok(outcome)
    }
    fn population(&self) -> usize {
        1
    }
    fn effective_population(&self) -> f64 {
        1.0
    }
}

#[test]
fn ack_pulls_wake_forward_and_stale_timer_entry_fires_once() {
    let mut truth = build_many_flow_bottleneck(
        BitRate::from_bps(12_000),
        Bits::new(96_000),
        Ppm::ZERO,
        1,
        0xACE,
    );
    let mut sender = OneShotAgent {
        sent: false,
        log: Vec::new(),
    };
    let mut agents: Vec<&mut dyn SenderAgent> = vec![&mut sender];
    let traces =
        run_multi_agent(&mut truth, &mut agents, Time::from_secs(12)).expect("one-shot runs");
    let shape = &sender.log;
    assert_eq!(
        *shape,
        vec![
            (0, 0, 1),          // first decision: transmit, sleep to 10s
            (1_000_000, 1, 0),  // ACK at 1s pulls the wake forward
            (10_000_000, 0, 0), // the rescheduled 10s timer, exactly once
        ],
        "wake schedule diverged: {shape:?}"
    );
    assert_eq!(traces[0].acks.len(), 1);
}

/// Wraps an agent and records every wake: its instant and the
/// acknowledgments the driver handed it.
struct Recording {
    inner: Box<dyn SenderAgent>,
    handed: Vec<(Time, Vec<Observation>)>,
}

impl Recording {
    fn new(inner: Box<dyn SenderAgent>) -> Recording {
        Recording {
            inner,
            handed: Vec::new(),
        }
    }

    /// The hand-off contract against the flow's trace: the slices,
    /// concatenated, are exactly the trace's acknowledgments — each
    /// handed once, in arrival order — and none is handed before it
    /// arrived.
    fn check_against(&self, trace: &RunTrace, flow: usize) {
        let handed: Vec<Observation> = self
            .handed
            .iter()
            .flat_map(|(_, acks)| acks.iter().copied())
            .collect();
        assert_eq!(
            handed, trace.acks,
            "flow {flow}: handed acknowledgments differ from its trace"
        );
        for (at, acks) in &self.handed {
            assert!(
                acks.iter().all(|o| o.at <= *at),
                "flow {flow}: an acknowledgment later than its wake at {at:?}"
            );
        }
    }
}

impl SenderAgent for Recording {
    fn own_flow(&self) -> FlowId {
        self.inner.own_flow()
    }
    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        self.handed.push((now, acks.to_vec()));
        self.inner.on_wake(now, acks)
    }
    fn population(&self) -> usize {
        self.inner.population()
    }
    fn effective_population(&self) -> f64 {
        self.inner.effective_population()
    }
}

/// TCP Reno as a flow agent: deliveries feed the endpoint, which
/// schedules its own ACKs and retransmission timers. The scenario
/// crate's `TcpPeerAgent` does the same, but this crate cannot depend on
/// the scenario crate.
struct RenoAgent {
    ep: TcpEndpoint,
    trace: TcpTrace,
}

impl SenderAgent for RenoAgent {
    fn own_flow(&self) -> FlowId {
        FlowId::SELF
    }
    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let size = self.ep.cfg().packet_size;
        for o in acks {
            self.ep
                .on_delivery(Packet::new(FlowId::SELF, o.seq, size, o.at), o.at);
        }
        let mut sent = Vec::new();
        self.ep.poll(now, &mut self.trace, &mut sent);
        let cap = now + Dur::from_secs(2);
        let next_wake = self.ep.next_event_time().map_or(cap, |t| t.min(cap));
        Ok(WakeOutcome {
            sent,
            ..WakeOutcome::idle(next_wake)
        })
    }
    fn population(&self) -> usize {
        0
    }
    fn effective_population(&self) -> f64 {
        0.0
    }
}

/// A 12 Mbit/s bottleneck with a 300-packet buffer, whose jitter holds
/// half the packets back by exactly one 1500-byte service time, so a
/// held packet reaches the receiver in the same microsecond as its
/// successor: the driver must then hand a wake several acknowledgments
/// at once. (On a plain bottleneck every delivery gets a wake of its
/// own.)
fn jittered_bottleneck(flows: usize, seed: u64) -> MultiFlowTruth {
    let mut b = NetworkBuilder::new();
    let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(3_600_000))));
    let link = b.add(Element::Link(Link::constant(BitRate::from_bps(12_000_000))));
    let jitter = b.add(Element::Jitter(JitterEl::new(
        Ppm::new(500_000),
        Dur::from_micros(1_000),
    )));
    let rx = b.add(Element::Receiver(ReceiverEl));
    b.connect(buf, link);
    b.connect(link, jitter);
    b.connect(jitter, rx);
    MultiFlowTruth::new(b.build(), vec![buf; flows], SimRng::seed_from_u64(seed))
        .expect("valid flow table")
}

#[test]
fn each_acknowledgment_is_handed_once_and_never_early() {
    const N: usize = 100;
    let mut truth = jittered_bottleneck(N, 0xAC4);
    let mut store: Vec<Recording> = (0..N)
        .map(|i| {
            let size = Bits::from_bytes(1_500);
            Recording::new(if i % 2 == 0 {
                Box::new(AimdSender::new(Dur::from_secs(8)).with_packet_size(size))
            } else {
                let cfg = TcpConfig {
                    packet_size: size,
                    ..TcpConfig::default()
                };
                Box::new(RenoAgent {
                    ep: TcpEndpoint::new(cfg, Box::<Reno>::default()),
                    trace: TcpTrace::default(),
                })
            })
        })
        .collect();
    let mut agents: Vec<&mut dyn SenderAgent> = store
        .iter_mut()
        .map(|a| a as &mut dyn SenderAgent)
        .collect();
    let traces = run_multi_agent(&mut truth, &mut agents, Time::from_secs(20))
        .expect("belief-free agents cannot die");
    assert!(
        traces.iter().all(|t| !t.acks.is_empty()),
        "every flow must be acknowledged"
    );
    for (i, (rec, trace)) in store.iter().zip(&traces).enumerate() {
        rec.check_against(trace, i);
    }
    let batched = store
        .iter()
        .flat_map(|r| &r.handed)
        .filter(|(_, acks)| acks.len() > 1)
        .count();
    assert!(
        batched > 0,
        "no wake was handed more than one acknowledgment"
    );

    let mut truth = quiet_truth(12_000);
    let mut rec = Recording::new(Box::new(ISender::new(
        quiet_belief(),
        Box::new(DiscountedThroughput::with_alpha(1.0)),
        ISenderConfig::default(),
    )));
    let trace = run_closed_loop(&mut truth, &mut rec, Time::from_secs(60)).expect("run failed");
    assert!(!trace.acks.is_empty());
    rec.check_against(&trace, 0);
}
