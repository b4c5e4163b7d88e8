//! Brute-force Bayes: the posterior computed the long way, as the oracle
//! for both belief engines.
//!
//! The exact engine reaches its posterior through forking, the last-mile
//! loss fold, hash-grouped compaction, a weight floor and renormalisation
//! after every window. Every other test of it compares one form of that
//! machinery with another. This one shares none of it: for a prior of at
//! most 16 hypotheses it writes out every sequence of `GateSwitch` /
//! `LossFate` outcomes ("fate string") of every hypothesis as a flat list
//! of leaves, each with the probability `Π spec.prob(option)` of its
//! string, keeps the leaves whose own-flow deliveries are exactly the
//! acknowledgments the sender saw, and normalises — Bayes' rule with the
//! sum over nuisance variables spelled out. A leaf only ever calls
//! `Network::run_until` / `resolve` / `inject` / `take_deliveries`; there
//! is no fold, no merge, no hash, no pruning and no renormalisation along
//! the way.
//!
//! `Engine::marginal(|h| h.meta)` of the exact engine must equal that
//! posterior to 1e-12 at every wake, with `fold_self_loss` on and off;
//! the particle filter's must lie within its sampling error. It is the
//! test that fails when the fold or `compact()`'s merge is *wrong* rather
//! than merely *changed*.

use augur_elements::{
    build_model, ModelParams, Network, Step, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF,
};
use augur_inference::{
    Belief, BeliefConfig, Engine, ModelPrior, Observation, ParticleFilter, Population,
};
use augur_obs::{EventKind, ObsConfig};
use augur_sim::{Bits, Dur, FlowId, Packet, Ppm, SimRng, Time};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One fate string of one hypothesis, held as the network it leads to.
#[derive(Clone)]
struct Leaf {
    /// Index of the hypothesis in the prior's grid.
    hypothesis: usize,
    /// Probability of the fate string under the hypothesis.
    prob: f64,
    /// Own-flow deliveries at the observed receiver so far.
    acked: Vec<Observation>,
    net: Network,
}

/// Run every leaf to `until`, replacing a leaf that meets a choice by one
/// leaf per option. Leaves of probability zero stay in the list.
fn extend(leaves: Vec<Leaf>, until: Time) -> Vec<Leaf> {
    let mut todo = leaves;
    let mut settled = Vec::new();
    while let Some(mut leaf) = todo.pop() {
        let step = leaf.net.run_until(until);
        for (node, d) in leaf.net.take_deliveries() {
            if node == FIG2_RX_SELF && d.packet.flow == FlowId::SELF {
                leaf.acked.push(Observation {
                    seq: d.packet.seq,
                    at: d.at,
                });
            }
        }
        leaf.net.take_drops();
        match step {
            Step::Idle => settled.push(leaf),
            Step::Pending(spec) => {
                for option in 0..2 {
                    let mut child = leaf.clone();
                    child.prob *= spec.prob(option);
                    child.net.resolve(option);
                    todo.push(child);
                }
            }
        }
    }
    settled
}

/// P(hypothesis | acknowledgments so far) from the consistent leaves of
/// a uniform prior.
fn posterior(consistent: &[Leaf], hypotheses: usize) -> Vec<f64> {
    let mut mass = vec![0.0; hypotheses];
    for leaf in consistent {
        mass[leaf.hypothesis] += leaf.prob / hypotheses as f64;
    }
    let total: f64 = mass.iter().sum();
    assert!(total > 0.0, "the truth's own fate string is a leaf");
    mass.iter().map(|m| m / total).collect()
}

/// An engine's `marginal(|h| h.meta)` laid out along the prior's grid.
fn marginal_on<E: Engine<Meta = ModelParams>>(grid: &[ModelParams], engine: &E) -> Vec<f64> {
    let mut mass = vec![0.0; grid.len()];
    for (meta, w) in engine.marginal(|h| h.meta) {
        mass[grid.iter().position(|g| *g == meta).expect("a grid point")] = w;
    }
    mass
}

/// `small()` with a gate that switches every other epoch on average.
///
/// Uncapped, the exact engine makes one approximation: at the end of a
/// window it drops branches lighter than 1e-9 of the heaviest
/// (`exact.rs::MIN_REL_WEIGHT`). Under `small()`'s own 100 s mean time to
/// switch a fifth switch within the run is that unlikely; with even odds
/// no fate string is, every `advance` reports `pruned == 0` (asserted),
/// and the engine's posterior is exact.
fn small_prior() -> ModelPrior {
    ModelPrior {
        mtts: Dur::from_secs(2),
        ..ModelPrior::small()
    }
}

/// Two link rates, three loss rates, a four-packet buffer that starts
/// empty or full: twelve hypotheses, half of them with a backlog ahead of
/// the sender's packets and tail drops while it drains.
fn backlog_prior() -> ModelPrior {
    ModelPrior {
        cross_fracs_ppm: vec![700_000],
        losses: vec![Ppm::ZERO, Ppm::from_prob(0.1), Ppm::from_prob(0.2)],
        buffer_capacities: vec![Bits::new(48_000)],
        fullness_step: Some(Bits::new(48_000)),
        ..small_prior()
    }
}

const PARTICLES: usize = 2048;

/// One generated run: a truth drawn from `prior`, a scripted sender, the
/// oracle and the three engines side by side. Returns whether the filter
/// lived to the end.
fn check_run(prior: &ModelPrior, rng: &mut SimRng) -> bool {
    let grid = prior.grid();
    let n = grid.len();
    assert!(n <= 16, "brute force is for tiny priors");
    let hypotheses = prior.hypotheses();

    let mut truth = build_model(grid[rng.uniform_u64(0, n as u64 - 1) as usize]);
    let t_end_s = rng.uniform_u64(6, 8);
    let sends: Vec<bool> = (0..t_end_s).map(|_| rng.uniform_u64(0, 1) == 1).collect();
    let filter_seed = rng.uniform_u64(0, u64::MAX);

    let exact = |fold_self_loss| {
        prior.belief(BeliefConfig {
            max_branches: usize::MAX,
            fold_self_loss,
        })
    };
    let mut beliefs: [Belief<ModelParams>; 2] = [exact(true), exact(false)];
    let mut filter = Some(ParticleFilter::from_population(
        &Population::new(hypotheses, Some(FIG2_LOSS)),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        PARTICLES,
        filter_seed,
    ));
    // How many independent draws from the posterior over hypotheses the
    // population is worth. A hypothesis is a static parameter: resampling
    // at effective sample size `ess` keeps that fraction of the diversity
    // over it and restores none, so the fractions multiply (the filter
    // reports each `ess` in its `Resample` event); between resamplings the
    // current weights' ESS scales it once more.
    let mut draws = PARTICLES as f64;

    let mut leaves: Vec<Leaf> = grid
        .iter()
        .enumerate()
        .map(|(hypothesis, &params)| Leaf {
            hypothesis,
            prob: 1.0,
            acked: Vec::new(),
            net: build_model(params),
        })
        .collect();
    let mut seen: Vec<Observation> = Vec::new();
    let mut seq = 0u64;

    for s in 0..=t_end_s {
        let t = Time::from_secs(s);
        truth.run_until_sampled(t, rng);
        let acks: Vec<Observation> = truth
            .take_deliveries()
            .into_iter()
            .filter(|(node, d)| *node == FIG2_RX_SELF && d.packet.flow == FlowId::SELF)
            .map(|(_, d)| Observation {
                seq: d.packet.seq,
                at: d.at,
            })
            .collect();
        truth.take_drops();
        seen.extend(&acks);

        leaves = extend(leaves, t);
        // A leaf that has contradicted the acknowledgments stays
        // contradicted: dropping it now changes no later posterior.
        leaves.retain(|l| l.acked == seen);
        let want = posterior(&leaves, n);

        for belief in &mut beliefs {
            let fold = belief.config().fold_self_loss;
            let stats = belief
                .advance(t, &acks)
                .expect("the truth is inside the prior");
            assert_eq!(
                stats.pruned, 0,
                "{t}: the weight floor bit; see `small_prior`"
            );
            let got = marginal_on(&grid, belief);
            for i in 0..n {
                assert!(
                    (got[i] - want[i]).abs() <= 1e-12,
                    "fold_self_loss = {fold}, {t}: P({:?}) is {}, brute force says {}",
                    grid[i],
                    got[i],
                    want[i]
                );
            }
        }

        if let Some(f) = &mut filter {
            augur_obs::start_run(ObsConfig {
                trace_events: true,
                snapshot_every: None,
            });
            let outcome = f.advance(t, &acks);
            for event in augur_obs::finish_run() {
                if let EventKind::Resample { ess, .. } = event.kind {
                    draws *= ess / PARTICLES as f64;
                }
            }
            if outcome.is_err() {
                filter = None;
            }
        }
        if let Some(f) = &filter {
            let draws = draws * f.effective() / PARTICLES as f64;
            let got = marginal_on(&grid, f);
            for i in 0..n {
                let p = want[i];
                // Four standard deviations of a proportion estimated from
                // that many independent draws, plus three draws' worth
                // for the skewed tails near 0 and 1.
                let tolerance = 4.0 * (p * (1.0 - p) / draws).sqrt() + 3.0 / draws;
                assert!(
                    (got[i] - p).abs() <= tolerance,
                    "{t}: {PARTICLES} particles worth {draws:.0} draws put {} on {:?}, brute force {p} ± {tolerance}",
                    got[i],
                    grid[i]
                );
            }
        }

        if s < t_end_s && sends[s as usize] {
            let pkt = Packet::new(FlowId::SELF, seq, Bits::from_bytes(1_500), t);
            seq += 1;
            truth.inject(FIG2_ENTRY, pkt);
            truth.run_until_sampled(t, rng);
            for leaf in &mut leaves {
                leaf.net.inject(FIG2_ENTRY, pkt);
            }
            leaves = extend(leaves, t);
            for belief in &mut beliefs {
                Engine::inject(belief, pkt);
            }
            if let Some(f) = &mut filter {
                f.inject(pkt);
            }
        }
    }
    filter.is_some()
}

/// Run `check_run` on generated cases; a failing case names its seed.
fn check_prior(prior: &ModelPrior, base_seed: u64, cases: u64) {
    let filter_survived = Cell::new(0u64);
    for case in 0..cases {
        let seed = SimRng::derive_seed(base_seed, case);
        let run = || {
            if check_run(prior, &mut SimRng::seed_from_u64(seed)) {
                filter_survived.set(filter_survived.get() + 1);
            }
        };
        assert!(
            catch_unwind(AssertUnwindSafe(run)).is_ok(),
            "failing case {case}: SimRng seed {seed:#x}"
        );
    }
    assert!(
        filter_survived.get() * 2 >= cases,
        "the filter survived only {} of {cases} runs: too little was compared",
        filter_survived.get()
    );
}

#[test]
fn both_engines_match_brute_force_on_the_small_prior() {
    check_prior(&small_prior(), 0xBA1E5, 10);
}

#[test]
fn both_engines_match_brute_force_with_backlog_and_three_loss_rates() {
    check_prior(&backlog_prior(), 0xBAC109, 10);
}
