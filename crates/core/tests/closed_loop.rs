//! Closed-loop integration tests: the full ISender (belief + planner +
//! utility) against a sampled ground-truth network. These check the §4
//! claims on small priors; the full-scale Figure-3 reproduction lives in
//! `augur-scenario`'s `tests/paper_shapes.rs`.

use augur_core::{run_closed_loop, DiscountedThroughput, GroundTruth, ISender, ISenderConfig};
use augur_elements::{build_model, DropReason, GateSpec, ModelParams};
use augur_inference::{BeliefConfig, Engine, ModelPrior, Population};
use augur_sim::{BitRate, Bits, Dur, Ppm, SimRng, Time};

fn quiet_truth(c_bps: u64) -> GroundTruth {
    let m = build_model(ModelParams {
        link_rate: BitRate::from_bps(c_bps),
        cross_rate: BitRate::from_bps(c_bps * 7 / 10),
        gate: GateSpec::AlwaysOn,
        loss: Ppm::ZERO,
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: false, // no cross traffic in the simple config
    });
    GroundTruth {
        net: m.net,
        entry: m.entry,
        rx_self: m.rx_self,
        rng: SimRng::seed_from_u64(21),
    }
}

fn quiet_prior() -> ModelPrior {
    // Uncertain link rate and initial fullness; no cross traffic and no
    // loss, mirroring §4's "single ISENDER connected to a queue, drained
    // by a throughput-limited link. It begins tentatively if it is not
    // sure of the link speed and initial buffer occupancy."
    ModelPrior {
        link_rates: vec![
            BitRate::from_bps(10_000),
            BitRate::from_bps(12_000),
            BitRate::from_bps(16_000),
        ],
        cross_fracs_ppm: vec![700_000],
        losses: vec![Ppm::ZERO],
        buffer_capacities: vec![Bits::new(96_000)],
        fullness_step: Some(Bits::new(48_000)), // 0 / 48k / 96k
        mtts: Dur::from_secs(100),
        epoch: Dur::from_secs(1),
        gate_initial: vec![true],
        packet_size: Bits::from_bytes(1_500),
        cross_active: true,
    }
}

/// Build the quiet-prior hypotheses with cross traffic disabled, to match
/// the quiet ground truth.
fn quiet_belief() -> augur_inference::Belief<ModelParams> {
    let prior = quiet_prior();
    let mut hyps = Vec::new();
    for mut params in prior.grid() {
        params.cross_active = false;
        hyps.push(augur_inference::Hypothesis {
            net: build_model(params).net,
            meta: params,
            weight: 1.0,
        });
    }
    let probe = build_model(ModelParams {
        link_rate: BitRate::from_bps(12_000),
        cross_rate: BitRate::from_bps(8_400),
        gate: GateSpec::AlwaysOn,
        loss: Ppm::ZERO,
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: false,
    });
    let prior = Population::new(hyps, Some(probe.loss));
    augur_inference::Belief::from_population(
        prior,
        probe.entry,
        probe.rx_self,
        BeliefConfig::default(),
    )
}

#[test]
fn simple_link_converges_to_link_speed() {
    // §4 / TXT1: "The sender reaches a predictable, ideal result in simple
    // configurations … Once it has inferred those parameters, it simply
    // sends at the link speed from there on out."
    let mut truth = quiet_truth(12_000);
    let mut sender = ISender::new(
        quiet_belief(),
        Box::new(DiscountedThroughput::with_alpha(1.0)),
        ISenderConfig::default(),
    );
    let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(60)).expect("run failed");

    // Link speed is 1 packet/s; over the second half of the run the send
    // rate should be within 15% of it.
    let rate = trace.send_rate(Time::from_secs(30), Time::from_secs(60));
    assert!(
        (rate - 1.0).abs() < 0.15,
        "steady-state send rate {rate} pkt/s, want ~1.0"
    );

    // The posterior has identified the link rate.
    let p = sender
        .belief
        .marginal(|h| h.meta.link_rate)
        .iter()
        .find(|(r, _)| *r == BitRate::from_bps(12_000))
        .map(|(_, w)| *w)
        .unwrap_or(0.0);
    assert!(p > 0.95, "posterior on true rate: {p}");

    // Everything sent was eventually delivered (no loss, sender should
    // never overflow its own buffer — that wastes a packet).
    assert!(
        trace.acks.len() >= trace.sends.len().saturating_sub(9),
        "sent {} acked {}",
        trace.sends.len(),
        trace.acks.len()
    );
}

#[test]
fn tentative_start_under_uncertainty() {
    // §4: "It begins tentatively if it is not sure of the link speed and
    // initial buffer occupancy." A sender with the wide prior must
    // transmit less in the first second than one that knows the network
    // exactly (which immediately fills the idle pipe — risk-free under
    // this utility).
    let first_second_sends = |belief: augur_inference::Belief<ModelParams>| {
        let mut truth = quiet_truth(12_000);
        let mut sender = ISender::new(
            belief,
            Box::new(DiscountedThroughput::with_alpha(1.0)),
            ISenderConfig::default(),
        );
        let trace =
            run_closed_loop(&mut truth, &mut sender, Time::from_secs(5)).expect("run failed");
        trace
            .sends
            .iter()
            .filter(|(_, t)| *t < Time::from_secs(1))
            .count()
    };

    // Pinpoint prior: the exact ground truth.
    let pinpoint = {
        let params = ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::from_bytes(1_500),
            cross_active: false,
        };
        let m = build_model(params);
        let prior = vec![augur_inference::Hypothesis {
            net: m.net,
            meta: params,
            weight: 1.0,
        }];
        augur_inference::Belief::from_population(
            Population::new(prior, Some(m.loss)),
            m.entry,
            m.rx_self,
            BeliefConfig::default(),
        )
    };

    let certain = first_second_sends(pinpoint);
    let uncertain = first_second_sends(quiet_belief());
    assert!(
        uncertain < certain,
        "uncertain sender sent {uncertain} in the first second, \
         certain sender {certain} — uncertainty should be tentative"
    );
}

#[test]
fn no_buffer_overflows_with_alpha_one() {
    let mut truth = quiet_truth(12_000);
    let entry = truth.entry;
    let mut sender = ISender::new(
        quiet_belief(),
        Box::new(DiscountedThroughput::with_alpha(1.0)),
        ISenderConfig::default(),
    );
    let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(60)).expect("run failed");
    let overflows: Vec<_> = (trace.drops.iter())
        .filter(|d| d.node == entry && d.reason == DropReason::BufferFull)
        .collect();
    assert!(
        overflows.is_empty(),
        "sender caused {} buffer overflows",
        overflows.len()
    );
}

#[test]
fn faster_link_means_faster_sending() {
    let run = |c: u64| {
        let mut truth = quiet_truth(c);
        let mut sender = ISender::new(
            quiet_belief(),
            Box::new(DiscountedThroughput::with_alpha(1.0)),
            ISenderConfig::default(),
        );
        let trace =
            run_closed_loop(&mut truth, &mut sender, Time::from_secs(60)).expect("run failed");
        trace.send_rate(Time::from_secs(30), Time::from_secs(60))
    };
    let slow = run(10_000);
    let fast = run(16_000);
    assert!(
        fast > slow + 0.2,
        "16kbps rate {fast} should exceed 10kbps rate {slow}"
    );
}
