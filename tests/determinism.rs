//! Whole-system determinism: a simulation is a pure function of its
//! configuration and seed. This guards the reproducibility contract that
//! the belief engine's exact-match conditioning depends on (and catches
//! regressions like hash-map iteration order leaking into decisions).

use augur::prelude::*;

fn run_once() -> (Vec<(u64, Time)>, Vec<Observation>, usize) {
    let truth_params = ModelParams {
        gate: GateSpec::AlwaysOn,
        ..ModelParams::paper_ground_truth()
    };
    let net = build_model(truth_params);
    let mut truth = GroundTruth {
        net,
        entry: FIG2_ENTRY,
        rx_self: FIG2_RX_SELF,
        rng: SimRng::seed_from_u64(123),
    };
    let prior = ModelPrior::small();
    let mut sender = ISender::new(
        prior.belief(BeliefConfig::default()),
        Box::new(DiscountedThroughput::with_alpha(1.0)),
        ISenderConfig::default(),
    );
    let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(30)).unwrap();
    (
        trace.sends.clone(),
        trace.acks.clone(),
        sender.belief.branch_count(),
    )
}

#[test]
fn closed_loop_is_reproducible() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0, "send schedules differ between identical runs");
    assert_eq!(a.1, b.1, "ack streams differ between identical runs");
    assert_eq!(a.2, b.2, "belief populations differ between identical runs");
}

#[test]
fn different_seeds_give_different_loss_patterns() {
    let run = |seed: u64| {
        let mut net = build_model(ModelParams::paper_ground_truth());
        let mut rng = SimRng::seed_from_u64(seed);
        net.run_until_sampled(Time::from_secs(200), &mut rng);
        net.take_deliveries().len()
    };
    // 20% loss on the cross traffic: different seeds, different survivor
    // counts (with overwhelming probability for a 140-packet stream).
    let counts: Vec<usize> = (0..5).map(run).collect();
    assert!(
        counts.windows(2).any(|w| w[0] != w[1]),
        "five seeds produced identical loss patterns: {counts:?}"
    );
}

#[test]
fn ground_truth_sampling_is_seed_deterministic() {
    let run = || {
        let mut net = build_model(ModelParams::paper_ground_truth());
        let mut rng = SimRng::seed_from_u64(9);
        net.run_until_sampled(Time::from_secs(150), &mut rng);
        net.take_deliveries()
            .iter()
            .map(|(_, d)| (d.packet.seq, d.at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
