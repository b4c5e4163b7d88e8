//! An oracle for the planner's loss pricing that does not share its
//! assumption.
//!
//! The planner rolls every network once with each `LossFate` resolved to
//! "delivered" and weights the delivery by 1 − p. What that stands for is
//! an expectation over loss fates: Σ P(fate) × U(fate). This test forms
//! the sum literally — at every `LossFate` the network is cloned, one copy
//! loses the packet and one delivers it, each leaf of the tree is valued
//! with every surviving delivery at probability 1 and weighted by the
//! product of the p and 1 − p along its path — and compares it with each
//! expected utility [`decide_weighted`] reports.
//!
//! Where every LOSS node sits after the last queue and link, a lost
//! packet leaves nothing behind, the futures of the two fates differ in
//! that one delivery only, and the two numbers agree to rounding. Where a
//! LOSS node sits *before* the bottleneck they do not: the determinized
//! future keeps every lost packet in the queue. The last scene pins that
//! gap — it is the paper's approximation, not a defect of the kernel.

use augur_core::{
    decide_weighted, subsample_weighted, DiscountedThroughput, PlannerConfig, RolloutReport,
    Utility,
};
use augur_elements::{
    build_model, Buffer, ChoiceKind, Diverter, Element, GateSpec, Link, Loss, ModelParams, Network,
    NetworkBuilder, NodeId, Pinger, ReceiverEl, Step, FIG2_ENTRY,
};
use augur_inference::Hypothesis;
use augur_sim::{BitRate, Bits, Delivery, Dur, FlowId, Packet, Ppm, SimRng, Time};

const PACKET: Bits = Bits::new(12_000);
const OWN_SEQ: u64 = 9;

/// A small belief at a common instant, and where its sender injects.
struct Scene {
    branches: Vec<Hypothesis<usize>>,
    now: Time,
    entry: NodeId,
}

/// Σ P(fate) × U(fate) of `net` from `now` to `t_end`, with the sender's
/// packet injected at `send_at` if given, and the longest run of loss
/// fates met on one path.
fn fate_expectation(
    net: &Network,
    entry: NodeId,
    send_at: Option<Time>,
    now: Time,
    t_end: Time,
    utility: &DiscountedThroughput,
) -> (f64, usize) {
    struct Path {
        sim: Network,
        sent: bool,
        prob: f64,
        fates: usize,
        delivered: Vec<Delivery>,
    }
    let mut expectation = 0.0;
    let mut longest = 0;
    let mut open = vec![Path {
        sim: net.clone(),
        sent: send_at.is_none(),
        prob: 1.0,
        fates: 0,
        delivered: Vec::new(),
    }];
    while let Some(mut path) = open.pop() {
        loop {
            let until = if path.sent { t_end } else { send_at.unwrap() };
            let step = path.sim.run_until(until);
            path.delivered
                .extend(path.sim.take_deliveries().into_iter().map(|(_, d)| d));
            match step {
                Step::Pending(spec) => {
                    assert_eq!(spec.kind, ChoiceKind::LossFate, "scenes raise no other");
                    path.fates += 1;
                    let mut lost = Path {
                        sim: path.sim.clone(),
                        sent: path.sent,
                        prob: path.prob * spec.p1.prob(),
                        fates: path.fates,
                        delivered: path.delivered.clone(),
                    };
                    lost.sim.resolve(1);
                    open.push(lost);
                    path.sim.resolve(0);
                    path.prob *= 1.0 - spec.p1.prob();
                }
                Step::Idle if !path.sent => {
                    let pkt = Packet::new(FlowId::SELF, OWN_SEQ, PACKET, until);
                    path.sim.inject(entry, pkt);
                    path.sent = true;
                }
                Step::Idle => break,
            }
        }
        // This fate happened: what it delivered, it delivered.
        let report = RolloutReport {
            deliveries: path.delivered.iter().map(|d| (*d, 1.0)).collect(),
        };
        let discounts: Vec<f64> = path
            .delivered
            .iter()
            .map(|d| utility.delivery_discount(d.at, now))
            .collect();
        expectation += path.prob * utility.evaluate(&report, &discounts, FlowId::SELF);
        longest = longest.max(path.fates);
    }
    (expectation, longest)
}

/// Every expected utility the planner reports for `scene` beside the
/// fate enumeration's, as `(planner, oracle)`, idle first; and the
/// longest run of loss fates the oracle met.
fn planner_and_oracle(scene: &Scene, cfg: &PlannerConfig) -> (Vec<(f64, f64)>, usize) {
    let utility = DiscountedThroughput {
        latency_penalty: 0.01,
        ..DiscountedThroughput::with_alpha(0.7)
    };
    let weighted = subsample_weighted(&scene.branches, scene.branches.len());
    let decision = decide_weighted(
        &weighted,
        scene.now,
        scene.entry,
        cfg,
        &utility,
        FlowId::SELF,
        OWN_SEQ,
        PACKET,
    );
    let t_end = scene.now + cfg.horizon;
    let mut longest = 0;
    let pairs = decision
        .evaluations
        .iter()
        .map(|&(delta, planner)| {
            let send_at = delta.map(|d| scene.now + d);
            let mut oracle = 0.0;
            for (h, w) in &weighted {
                let (eu, fates) =
                    fate_expectation(&h.net, scene.entry, send_at, scene.now, t_end, &utility);
                oracle += w * eu;
                longest = longest.max(fates);
            }
            (planner, oracle)
        })
        .collect();
    (pairs, longest)
}

/// Four candidates and a horizon short enough for 2^k fates.
fn short_horizon(secs: u64) -> PlannerConfig {
    PlannerConfig {
        delay_grid: [0, 400, 1_100, 2_000].map(Dur::from_millis).to_vec(),
        horizon: Dur::from_secs(secs),
        ..PlannerConfig::default()
    }
}

/// `net` at `now`, having sent `in_flight` own packets at time zero and
/// held every choice on the way.
fn warmed_up(mut net: Network, entry: NodeId, in_flight: u64, now: Time) -> Network {
    for seq in 0..in_flight {
        net.inject(entry, Packet::new(FlowId::SELF, seq, PACKET, Time::ZERO));
        while let Step::Pending(_) = net.run_until(Time::ZERO) {
            net.resolve(0);
        }
    }
    while let Step::Pending(_) = net.run_until(now) {
        net.resolve(0);
    }
    let _ = net.drain_logs();
    net
}

fn weighted(nets: Vec<Network>, rng: &mut SimRng) -> Vec<Hypothesis<usize>> {
    nets.into_iter()
        .enumerate()
        .map(|(meta, net)| Hypothesis {
            net,
            meta,
            weight: 0.1 + rng.uniform_f64(),
        })
        .collect()
}

/// The Figure-2 model under four last-mile loss rates (one state, so the
/// planner shares one rollout among three of them) and one other link.
fn last_mile_scene(rng: &mut SimRng, fullness_packets: u64) -> Scene {
    let now = Time::from_millis(rng.uniform_u64(300, 1_900));
    let link_bps = 1_000 * rng.uniform_u64(11, 14);
    let in_flight = rng.uniform_u64(0, 2);
    let nets = [
        (0, 0),
        (50_000, 0),
        (200_000, 0),
        (350_000, 0),
        (100_000, 2_000),
    ]
    .into_iter()
    .map(|(loss_ppm, extra_bps)| {
        let params = ModelParams {
            link_rate: BitRate::from_bps(link_bps + extra_bps),
            cross_rate: BitRate::from_bps(link_bps / 2),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::new(loss_ppm),
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::new(12_000 * fullness_packets),
            packet_size: PACKET,
            cross_active: true,
        };
        warmed_up(build_model(params), FIG2_ENTRY, in_flight, now)
    })
    .collect();
    Scene {
        branches: weighted(nets, rng),
        now,
        entry: FIG2_ENTRY,
    }
}

/// pinger -> [LOSS] -> buffer -> link -> [LOSS -> LOSS] -> diverter ->
/// receivers: the LOSS node before the bottleneck when `upstream` is
/// given, the two after it when `downstream` is. Returns the network and
/// its entry — the first node after the pinger.
fn lossy_path(
    upstream: Option<u32>,
    downstream: Option<(u32, u32)>,
    cross_interval: Dur,
    buffer: Bits,
) -> (Network, NodeId) {
    let loss = |ppm: u32| Element::Loss(Loss { p: Ppm::new(ppm) });
    let mut elements = vec![Element::Pinger(Pinger::new(
        cross_interval,
        PACKET,
        FlowId::CROSS,
        Time::ZERO,
    ))];
    elements.extend(upstream.map(loss));
    elements.push(Element::Buffer(Buffer::drop_tail(buffer)));
    elements.push(Element::Link(Link::constant(BitRate::from_bps(12_000))));
    if let Some((first, second)) = downstream {
        elements.extend([loss(first), loss(second)]);
    }
    elements.push(Element::Diverter(Diverter { flow: FlowId::SELF }));
    elements.push(Element::Receiver(ReceiverEl));
    let mut b = NetworkBuilder::new();
    let (pinger, rx_self) = b.chain(elements);
    let rx_cross = b.add(Element::Receiver(ReceiverEl));
    b.connect_alt(NodeId(rx_self.0 - 1), rx_cross);
    (b.build(), NodeId(pinger.0 + 1))
}

fn assert_agree(scene: &Scene, cfg: &PlannerConfig, what: &str) {
    let (pairs, longest) = planner_and_oracle(scene, cfg);
    assert!(
        (4..=10).contains(&longest),
        "{what}: {longest} loss fates on one path"
    );
    for (k, (planner, oracle)) in pairs.iter().enumerate() {
        assert!(
            (planner - oracle).abs() <= 1e-9 * oracle.abs(),
            "{what}: evaluation {k}: planner {planner} against {oracle} over the fates"
        );
    }
    // The comparison has teeth: the candidates are worth different sums.
    assert!(pairs.iter().any(|(p, _)| *p != pairs[0].0), "{what}");
}

#[test]
fn planner_prices_last_mile_loss_exactly() {
    for seed in 0..3 {
        let mut rng = SimRng::seed_from_u64(seed);
        let scene = last_mile_scene(&mut rng, 0);
        assert_agree(&scene, &short_horizon(6), &format!("siblings, seed {seed}"));
        let scene = last_mile_scene(&mut rng, 2);
        assert_agree(
            &scene,
            &short_horizon(7),
            &format!("prefilled, seed {seed}"),
        );
    }
}

#[test]
fn planner_prices_two_loss_nodes_after_the_bottleneck_exactly() {
    // A packet lost at the first never meets the second; the planner's
    // product (1 − p₁)(1 − p₂) is the probability of the one path that
    // delivers. Three siblings and a p₁ = 0 class of its own.
    for seed in 0..3 {
        let mut rng = SimRng::seed_from_u64(seed);
        let now = Time::from_millis(rng.uniform_u64(300, 1_900));
        let mut entry = NodeId(0);
        let nets = [
            (100_000, 50_000),
            (250_000, 400_000),
            (30_000, 10_000),
            (0, 150_000),
        ]
        .into_iter()
        .map(|rates| {
            let (net, at) = lossy_path(
                None,
                Some(rates),
                Dur::from_millis(2_300),
                Bits::new(96_000),
            );
            entry = at;
            warmed_up(net, at, 1, now)
        })
        .collect();
        let scene = Scene {
            branches: weighted(nets, &mut rng),
            now,
            entry,
        };
        assert_agree(&scene, &short_horizon(5), &format!("seed {seed}"));
    }
}

#[test]
fn planner_approximates_loss_before_the_bottleneck() {
    // Cross traffic at 1.25 packets/s into a 1 packet/s link behind a
    // two-packet buffer, every packet — the sender's too — crossing a
    // LOSS node first. Over the real fates a lost packet never takes a
    // place in the queue, so the survivors are served sooner and fewer
    // are tail-dropped; the determinized future queues them all and only
    // discounts their deliveries. It therefore *undervalues* every
    // strategy, here by more than a tenth.
    let mut rng = SimRng::seed_from_u64(0);
    let now = Time::from_millis(2_500);
    let mut entry = NodeId(0);
    let nets = [300_000, 200_000, 400_000]
        .into_iter()
        .map(|ppm| {
            let (net, at) = lossy_path(Some(ppm), None, Dur::from_millis(800), Bits::new(24_000));
            entry = at;
            warmed_up(net, at, 0, now)
        })
        .collect();
    let scene = Scene {
        branches: weighted(nets, &mut rng),
        now,
        entry,
    };
    let (pairs, longest) = planner_and_oracle(&scene, &short_horizon(6));
    assert!((4..=10).contains(&longest), "{longest} loss fates");
    for (k, (planner, oracle)) in pairs.iter().enumerate() {
        assert!(
            *planner < 0.9 * oracle,
            "evaluation {k}: planner {planner} against {oracle} over the fates"
        );
    }
}
