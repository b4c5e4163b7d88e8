//! Inference-only convergence tests: a *scripted* sender (fixed schedule,
//! no planner) transmits through the ground-truth Figure-2 network while
//! the exact engine and the particle filter watch the acknowledgments.
//! The posterior must concentrate on the true parameters — §4: "the
//! ISENDER can usually quickly pare down the prior to a smaller list of
//! possibilities as it homes in on a good estimate of the network
//! parameters".
//!
//! The same scripted driver, on `SimRng`-generated schedules, checks the
//! invariants every belief update must keep: weights stay a probability
//! distribution, and analytic loss folding is the same Bayesian update
//! as explicit forking.

use augur_elements::{
    build_model, GateSpec, ModelNet, ModelParams, Step, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF,
};
use augur_inference::{
    Belief, BeliefConfig, BeliefError, Engine, Hypothesis, ModelPrior, Observation, ParticleFilter,
    Population,
};
use augur_sim::{BitRate, Bits, Dur, FlowId, Packet, Ppm, SimRng, Time};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Ground truth matching one grid point of `ModelPrior::small()`:
/// c = 12,000 bps, r = 0.7c, p as given, buffer 96,000 bits, empty, cross
/// traffic always on (mtts 100 s means switching is unlikely in a short
/// window, and the true gate here genuinely is intermittent-but-idle).
fn ground_truth(loss: f64) -> ModelNet {
    build_model(ModelParams {
        link_rate: BitRate::from_bps(12_000),
        cross_rate: BitRate::from_bps(8_400),
        gate: GateSpec::Intermittent {
            mtts: Dur::from_secs(100),
            epoch: Dur::from_secs(1),
            initially_connected: true,
        },
        loss: Ppm::from_prob(loss),
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: true,
    })
}

/// Drive ground truth with sends every `send_every` seconds up to
/// `t_end`; deliver each window's ACKs to `update`, a callback receiving
/// `(window_end, acks)`.
fn drive<F: FnMut(Time, &[Observation])>(
    truth: &mut ModelNet,
    rng: &mut SimRng,
    send_every: u64,
    t_end_s: u64,
    mut update: F,
) {
    let mut seq = 0u64;
    // Wake once per second; send on multiples of send_every.
    for s in 0..=t_end_s {
        let t = Time::from_secs(s);
        truth.net.run_until_sampled(t, rng);
        let acks: Vec<Observation> = truth
            .net
            .take_deliveries()
            .into_iter()
            .filter(|(n, d)| *n == truth.rx_self && d.packet.flow == FlowId::SELF)
            .map(|(_, d)| Observation {
                seq: d.packet.seq,
                at: d.at,
            })
            .collect();
        truth.net.take_drops();
        update(t, &acks);
        if s % send_every == 0 && s < t_end_s {
            let pkt = Packet::new(FlowId::SELF, seq, Bits::from_bytes(1_500), t);
            seq += 1;
            truth.net.inject(truth.entry, pkt);
            while let Step::Pending(spec) = truth.net.run_until(t) {
                let pick = usize::from(rng.bernoulli(spec.p1));
                truth.net.resolve(pick);
            }
        }
    }
}

#[test]
fn exact_engine_identifies_link_rate_without_loss() {
    let mut truth = ground_truth(0.0);
    let mut rng = SimRng::seed_from_u64(11);
    let mut belief = ModelPrior::small().belief(BeliefConfig::default());
    let mut send_seq = 0u64;

    drive(&mut truth, &mut rng, 2, 30, |t, acks| {
        belief.advance(t, acks).expect("belief died");
        if t.as_micros() % 2_000_000 == 0 && t < Time::from_secs(30) {
            belief.inject(Packet::new(
                FlowId::SELF,
                send_seq,
                Bits::from_bytes(1_500),
                t,
            ));
            send_seq += 1;
        }
    });

    let p_true_rate = belief
        .marginal(|h| h.meta.link_rate)
        .iter()
        .find(|(r, _)| *r == BitRate::from_bps(12_000))
        .map(|(_, w)| *w)
        .unwrap_or(0.0);
    assert!(
        p_true_rate > 0.95,
        "posterior on true link rate: {p_true_rate}"
    );

    let p_true_loss = belief
        .marginal(|h| h.meta.loss)
        .iter()
        .find(|(p, _)| p.is_zero())
        .map(|(_, w)| *w)
        .unwrap_or(0.0);
    assert!(p_true_loss > 0.9, "posterior on p=0: {p_true_loss}");
}

#[test]
fn exact_engine_handles_20_percent_loss() {
    let mut truth = ground_truth(0.2);
    let mut rng = SimRng::seed_from_u64(7);
    let mut belief = ModelPrior::small().belief(BeliefConfig::default());
    let mut send_seq = 0u64;

    drive(&mut truth, &mut rng, 2, 60, |t, acks| {
        belief.advance(t, acks).expect("belief died");
        if t.as_micros() % 2_000_000 == 0 && t < Time::from_secs(60) {
            belief.inject(Packet::new(
                FlowId::SELF,
                send_seq,
                Bits::from_bytes(1_500),
                t,
            ));
            send_seq += 1;
        }
    });

    // Link rate is identified despite loss.
    let p_rate = belief
        .marginal(|h| h.meta.link_rate)
        .iter()
        .find(|(r, _)| *r == BitRate::from_bps(12_000))
        .map(|(_, w)| *w)
        .unwrap_or(0.0);
    assert!(p_rate > 0.9, "posterior on true link rate: {p_rate}");

    // Loss posterior favors p=0.2 over p=0 (a single unexplained missing
    // ACK rules out p=0 entirely).
    let p_loss = belief
        .marginal(|h| h.meta.loss)
        .iter()
        .find(|(p, _)| *p == Ppm::from_prob(0.2))
        .map(|(_, w)| *w)
        .unwrap_or(0.0);
    assert!(p_loss > 0.9, "posterior on p=0.2: {p_loss}");
}

#[test]
fn particle_filter_tracks_the_same_truth() {
    let mut truth = ground_truth(0.0);
    let mut rng = SimRng::seed_from_u64(5);
    let prior = ModelPrior::small();
    let hyps = prior.hypotheses();
    let probe = build_model(ModelParams {
        link_rate: BitRate::from_bps(12_000),
        cross_rate: BitRate::from_bps(8_400),
        gate: GateSpec::AlwaysOn,
        loss: Ppm::ZERO,
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: true,
    });
    let mut pf = ParticleFilter::from_population(
        &Population::new(hyps, Some(probe.loss)),
        probe.entry,
        probe.rx_self,
        400,
        99,
    );
    let mut send_seq = 0u64;

    drive(&mut truth, &mut rng, 2, 30, |t, acks| {
        pf.advance(t, acks).expect("all particles died");
        if t.as_micros() % 2_000_000 == 0 && t < Time::from_secs(30) {
            pf.inject(Packet::new(
                FlowId::SELF,
                send_seq,
                Bits::from_bytes(1_500),
                t,
            ));
            send_seq += 1;
        }
    });

    let expected_rate = pf.expected(|h| h.meta.link_rate.as_bps() as f64);
    assert!(
        (expected_rate - 12_000.0).abs() < 500.0,
        "posterior mean link rate: {expected_rate}"
    );
}

#[test]
fn belief_dies_when_truth_is_outside_prior() {
    // Ground truth at 20,000 bps — not on the small prior's grid. The
    // first ACK should be unexplainable.
    let mut truth = build_model(ModelParams {
        link_rate: BitRate::from_bps(20_000),
        cross_rate: BitRate::from_bps(14_000),
        gate: GateSpec::AlwaysOn,
        loss: Ppm::ZERO,
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: false,
    });
    let mut rng = SimRng::seed_from_u64(3);
    let mut belief = ModelPrior::small().belief(BeliefConfig::default());
    let mut died = false;
    let mut send_seq = 0u64;
    drive(&mut truth, &mut rng, 2, 10, |t, acks| {
        if died {
            return;
        }
        match belief.advance(t, acks) {
            Ok(_) => {
                if t < Time::from_secs(10) && t.as_micros() % 2_000_000 == 0 {
                    belief.inject(Packet::new(
                        FlowId::SELF,
                        send_seq,
                        Bits::from_bytes(1_500),
                        t,
                    ));
                    send_seq += 1;
                }
            }
            Err(_) => died = true,
        }
    });
    assert!(died, "belief should have rejected every hypothesis");
}

#[test]
fn marginal_order_is_deterministic_under_weight_ties() {
    // A fresh uniform belief has genuinely tied weights: 8 hypotheses at
    // 1/8 collapse to 4 (loss, link_rate) groups at 1/4 each. The sort
    // must fall back to the fixed-key fingerprint tie-break, and repeated
    // calls must agree exactly — order included.
    let belief = ModelPrior::small().belief(BeliefConfig::default());
    let first = belief.marginal(|h| (h.meta.loss, h.meta.link_rate));
    assert_eq!(first.len(), 4);
    for (_, w) in &first {
        assert!((w - 0.25).abs() < 1e-12, "weights should all tie at 1/4");
    }
    for _ in 0..50 {
        let again = belief.marginal(|h| (h.meta.loss, h.meta.link_rate));
        assert_eq!(first, again, "marginal order drifted between calls");
    }

    // Same check on a single-axis key with two tied groups.
    let rates = belief.marginal(|h| h.meta.link_rate);
    assert_eq!(rates.len(), 2);
    for _ in 0..50 {
        assert_eq!(rates, belief.marginal(|h| h.meta.link_rate));
    }
}

#[test]
fn branch_dedup_counts_are_pinned_on_a_small_exact_sweep() {
    // Satellite check for the structure/state split: hypothesis forks and
    // state-reconvergence compaction operate on per-hypothesis *state*
    // clones now, and the dedup arithmetic must be unchanged. Pin the
    // aggregate branch accounting of a short scripted run so any drift in
    // Network equality/hashing (which drives compaction) fails loudly.
    let mut truth = ground_truth(0.2);
    let mut rng = SimRng::seed_from_u64(7);
    let mut belief = ModelPrior::small().belief(BeliefConfig::default());
    let mut send_seq = 0u64;

    let mut total_forks = 0usize;
    let mut total_compacted = 0usize;
    let mut total_pruned = 0usize;
    let mut final_branches = 0usize;
    drive(&mut truth, &mut rng, 2, 20, |t, acks| {
        let stats = belief.advance(t, acks).expect("belief died");
        total_forks += stats.forks;
        total_compacted += stats.compacted;
        total_pruned += stats.pruned;
        final_branches = stats.branches;
        if t.as_micros() % 2_000_000 == 0 && t < Time::from_secs(20) {
            belief.inject(Packet::new(
                FlowId::SELF,
                send_seq,
                Bits::from_bytes(1_500),
                t,
            ));
            send_seq += 1;
        }
    });

    assert!(total_compacted > 0, "run must exercise dedup compaction");
    // Pinned against the pre-split exact engine; a change here means the
    // refactor altered fork/dedup behavior, not just representation.
    assert_eq!(
        (total_forks, total_compacted, total_pruned, final_branches),
        (342, 194, 0, 4),
        "branch accounting drifted"
    );
}

/// Run `check` on 64 generated cases; a failing case names its seed.
fn for_each_case(base_seed: u64, check: impl Fn(&mut SimRng)) {
    for case in 0..64 {
        let seed = SimRng::derive_seed(base_seed, case);
        let run = || check(&mut SimRng::seed_from_u64(seed));
        assert!(
            catch_unwind(AssertUnwindSafe(run)).is_ok(),
            "failing case {case}: SimRng seed {seed:#x}"
        );
    }
}

/// A ground truth inside the small prior's support with everything but
/// the loss rate fixed: 0 or 20 %.
fn lossy_or_clean_truth(rng: &mut SimRng) -> ModelNet {
    ground_truth(if rng.uniform_u64(0, 1) == 1 { 0.2 } else { 0.0 })
}

/// A generated scripted run against `truth`: the sender pings every
/// 1–4 s for 8–20 s, and the truth's sampled choices come from a stream
/// of their own. `engine` — either one, reached through the seam — sees
/// every window's ACKs and mirrors every send; `after` runs after each
/// advance. An engine that dies is left alone for the rest of the run
/// and its error returned.
fn generated_run<E: Engine<Meta = ModelParams>>(
    rng: &mut SimRng,
    mut truth: ModelNet,
    engine: &mut E,
    mut after: impl FnMut(&E, Time),
) -> Result<(), BeliefError> {
    let send_every = rng.uniform_u64(1, 4);
    let t_end_s = rng.uniform_u64(8, 20);
    let mut truth_rng = rng.fork();
    let mut send_seq = 0u64;
    let mut outcome = Ok(());
    drive(
        &mut truth,
        &mut truth_rng,
        send_every,
        t_end_s,
        |t, acks| {
            if outcome.is_err() {
                return;
            }
            outcome = engine.advance(t, acks);
            if outcome.is_err() {
                return;
            }
            after(engine, t);
            let s = t.as_micros() / 1_000_000;
            if s % send_every == 0 && s < t_end_s {
                engine.inject(Packet::new(
                    FlowId::SELF,
                    send_seq,
                    Bits::from_bytes(1_500),
                    t,
                ));
                send_seq += 1;
            }
        },
    );
    outcome
}

#[test]
fn weights_sum_to_one_after_every_advance() {
    for_each_case(0x5041, |rng| {
        let mut belief = ModelPrior::small().belief(BeliefConfig::default());
        let truth = lossy_or_clean_truth(rng);
        generated_run(rng, truth, &mut belief, |belief, t| {
            let total: f64 = belief.members().map(|h| h.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "weights sum to {total} at {t}");
        })
        .expect("truth is inside the prior");
    });
}

#[test]
fn fold_and_fork_agree_on_the_posterior() {
    // Analytic last-mile folding and explicit forking of the sender's own
    // loss decisions are the same Bayesian update: same marginal, more
    // branches.
    let posterior = |rng: &mut SimRng, fold_self_loss: bool| {
        let probe = ground_truth(0.0);
        let mut belief = Belief::from_population(
            Population::new(ModelPrior::small().hypotheses(), Some(probe.loss)),
            probe.entry,
            probe.rx_self,
            BeliefConfig {
                fold_self_loss,
                ..BeliefConfig::default()
            },
        );
        let truth = lossy_or_clean_truth(rng);
        generated_run(rng, truth, &mut belief, |_, _| {}).expect("truth is inside the prior");
        belief
            .marginal(|h| (h.meta.link_rate, h.meta.loss))
            .into_iter()
            .map(|(k, w)| (k, (w * 1e9).round() as i64))
            .collect::<BTreeMap<_, _>>()
    };
    for_each_case(0xF01D, |rng| {
        let mut same_run = rng.clone();
        assert_eq!(posterior(rng, true), posterior(&mut same_run, false));
    });
}

#[test]
fn a_truth_drawn_from_the_prior_survives_in_both_engines() {
    // The ground truth is a grid point of the prior itself, so with no
    // branch cap the exact posterior can never lose it: after every
    // window the true configuration keeps positive mass and the belief
    // never dies. The particle filter runs the same generated run through
    // the same seam; it may lose every particle (256 samples of sampled
    // gate and loss fates), but where it survives its link-rate marginal
    // must agree with the exact one.
    const PARTICLES: usize = 256;
    // Four standard deviations of a 256-sample estimate of a probability
    // of one half — the widest the link-rate marginal's sampling error
    // gets (it is exactly zero once one ACK has told the rates apart).
    const TOLERANCE: f64 = 0.125;
    let prior = ModelPrior::small();
    let grid = prior.grid();
    let hypotheses = prior.hypotheses();
    let filter_survived = Cell::new(0usize);
    for_each_case(0x7A07, |rng| {
        let params = grid[rng.uniform_u64(0, grid.len() as u64 - 1) as usize];
        let filter_seed = rng.uniform_u64(0, u64::MAX);
        let mut same_run = rng.clone();

        let mut belief = prior.belief(BeliefConfig {
            max_branches: usize::MAX,
            ..BeliefConfig::default()
        });
        generated_run(rng, build_model(params), &mut belief, |belief, t| {
            let on_truth = belief.marginal(|h| h.meta);
            let mass = on_truth.iter().find(|(meta, _)| *meta == params);
            assert!(
                mass.is_some_and(|(_, w)| *w > 0.0),
                "the true configuration lost its mass at {t}: {params:?}"
            );
        })
        .expect("the exact belief outlives a truth drawn from its prior");

        let mut filter = ParticleFilter::from_population(
            &Population::new(hypotheses.clone(), Some(FIG2_LOSS)),
            FIG2_ENTRY,
            FIG2_RX_SELF,
            PARTICLES,
            filter_seed,
        );
        if generated_run(&mut same_run, build_model(params), &mut filter, |_, _| {}).is_err() {
            return;
        }
        filter_survived.set(filter_survived.get() + 1);
        let sampled: BTreeMap<BitRate, f64> =
            filter.marginal(|h| h.meta.link_rate).into_iter().collect();
        for (rate, exact) in belief.marginal(|h| h.meta.link_rate) {
            let approx = sampled.get(&rate).copied().unwrap_or(0.0);
            assert!(
                (approx - exact).abs() <= TOLERANCE,
                "P(c = {rate}): exact {exact}, {PARTICLES} particles {approx}"
            );
        }
    });
    assert!(
        filter_survived.get() >= 32,
        "the filter survived only {} of 64 runs: nothing was compared",
        filter_survived.get()
    );
}

#[test]
fn prune_keeps_the_heaviest_and_normalize_restores_a_distribution() {
    let net = ground_truth(0.0).net;
    for_each_case(0x9121, |rng| {
        let weights: Vec<f64> = (0..rng.uniform_u64(2, 49))
            .map(|_| 1e-12 + rng.uniform_f64() * (1.0 - 1e-12))
            .collect();
        let branches: Vec<Hypothesis<usize>> = weights
            .iter()
            .enumerate()
            .map(|(meta, &weight)| Hypothesis {
                net: net.clone(),
                meta,
                weight,
            })
            .collect();
        // One network under every meta: one state.
        let mut branches = Population::new(branches, Some(FIG2_LOSS));
        assert_eq!(branches.state_count(), 1);
        let keep = (weights.len() / 2).max(1);
        assert_eq!(branches.prune(keep, 0.0), weights.len() - keep);
        // Exactly the `keep` heaviest survive.
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let kept: Vec<f64> = branches.members().map(|h| h.weight).collect();
        assert_eq!(kept, sorted[..keep]);
        let evidence = branches.normalize();
        assert!((evidence - sorted[..keep].iter().sum::<f64>()).abs() < 1e-12);
        let total: f64 = branches.members().map(|h| h.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    });
}
