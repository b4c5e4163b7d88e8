//! The expected-utility planner — the ISENDER's second job (§3.2).
//!
//! "When the ISENDER wakes up, it makes a list of strategies including
//! sending immediately and at every delay up to the slowest rate the
//! ISENDER could optimally send. We evaluate the consequences of each
//! strategy on each possible network configuration, and choose the
//! strategy that maximizes the expected value of the utility."
//!
//! Every belief branch is rolled forward once, under all candidates at
//! the same time (the *branch-major* kernel, [`decide_weighted`]). A
//! candidate "send after δ" differs from doing nothing only from `now + δ`
//! on, so the branch's idle trajectory is walked forward through the
//! candidate instants in ascending order; at each one it is forked, the
//! fork receives the hypothetical packet and runs on to a fixed horizon,
//! and the idle trajectory — finished last — is itself the no-send
//! baseline. The stretch before each send is therefore simulated once per
//! branch, not once per candidate, and the cost of a decision stays
//! linear in horizon × branches. Two scratch trajectories, refilled in
//! place, serve the whole decision.
//!
//! Sharing the prefix changes no number. A fork continues from exactly
//! the state, delivery log and loss factors a rollout of that candidate
//! alone would have reached (stopping a network at an instant and
//! resuming is the same as running through it), so every rollout report
//! is the one the candidate-by-candidate evaluation produced; and each
//! candidate's expected utility still accumulates `w × U` over the
//! branches in branch order, one accumulator per grid position, so every
//! floating-point sum adds the same terms in the same order. Results are
//! stored by grid position: the grid need not be sorted.
//!
//! Rollouts are **determinized** (certainty-equivalent): stochastic
//! choices resolve to their nominal outcome, with last-mile loss folded
//! into a per-packet delivery probability instead of a fork (DESIGN.md
//! §4.6). The horizon end is the same for every candidate action, so
//! candidates are compared on equal terms.

use crate::utility::{RolloutReport, Utility};
use augur_elements::{ChoiceKind, Network, NodeId, Step};
use augur_inference::{Belief, Hypothesis};
use augur_sim::{Bits, Dur, FlowId, Packet, Time};
use std::hash::Hash;

/// Planner tuning.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Candidate sleep delays; must include `Dur::ZERO` ("send now").
    pub delay_grid: Vec<Dur>,
    /// Rollout horizon beyond the decision instant. Must exceed the
    /// largest candidate delay by enough for the hypothetical packet's
    /// consequences to play out ("only until the consequences of each
    /// hypothetically sent packet have ceased to linger", §3.3).
    pub horizon: Dur,
    /// Evaluate at most this many of the heaviest branches (weights
    /// renormalized); bounds per-decision cost on wide beliefs.
    pub max_planning_branches: usize,
    /// A send must beat idling by at least this fraction of one packet's
    /// utility (`size_bits × send_margin_frac`). Determinized rollouts
    /// carry small systematic errors (discount asymmetries, gate-stay
    /// nominal outcomes); without a margin those tip razor-edge decisions
    /// toward sending — visibly at α = 1, where displacing a cross packet
    /// with one's own is value-neutral by construction and the paper's
    /// sender declines the swap ("fills in the rest of the link" without
    /// ever overflowing, §4).
    pub send_margin_frac: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            delay_grid: vec![
                Dur::ZERO,
                Dur::from_millis(100),
                Dur::from_millis(250),
                Dur::from_millis(500),
                Dur::from_millis(1_000),
                Dur::from_millis(1_500),
                Dur::from_millis(2_000),
                Dur::from_millis(3_000),
                Dur::from_millis(4_000),
            ],
            horizon: Dur::from_secs(16),
            max_planning_branches: 512,
            send_margin_frac: 0.07,
        }
    }
}

/// What the sender should do now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transmit immediately.
    SendNow,
    /// Sleep until the given instant (a send at that time looked best),
    /// then reconsider.
    SleepUntil(Time),
    /// No send within the planning horizon improves expected utility:
    /// stay idle until something changes (an ACK or the idle timer).
    Idle,
}

/// A decision together with its evaluation trace (useful for diagnostics
/// and tests). In `evaluations`, `None` is the idle (no-send) baseline.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The chosen action.
    pub action: Action,
    /// Expected utility of the chosen action.
    pub expected_utility: f64,
    /// Expected utility of every candidate `(delay, EU)`; `None` = idle.
    pub evaluations: Vec<(Option<Dur>, f64)>,
}

/// Choose the action that maximizes expected utility for the next packet
/// (`seq`, `size`) given the current belief.
///
/// Candidates are "send after δ" for each grid delay *plus the idle
/// baseline* (send nothing this horizon). Idle wins ties: a send that
/// adds no expected utility — e.g. one that would certainly be dropped —
/// is a wasted transmission, and the sleeping sender re-decides when new
/// information arrives anyway. This is what lets a deferential sender
/// (large α) hold back entirely instead of burning packets (§4: "the
/// sender becomes more and more deferential to the cross traffic").
pub fn decide<M: Clone + Eq + Hash>(
    belief: &Belief<M>,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    let branches = subsample_weighted(belief.branches(), cfg.max_planning_branches);
    decide_weighted(
        &branches,
        belief.now(),
        belief.entry,
        cfg,
        utility,
        own_flow,
        seq,
        size,
    )
}

/// [`decide`] over an explicit weighted branch set — the engine-agnostic
/// core shared by the exact belief and the particle filter. `branches`
/// must already be subsampled/normalized (see [`subsample_weighted`]);
/// `now` is the decision instant, `entry` the injection node.
#[allow(clippy::too_many_arguments)]
pub fn decide_weighted<M>(
    branches: &[(&Hypothesis<M>, f64)],
    now: Time,
    entry: NodeId,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    assert!(
        cfg.delay_grid.first() == Some(&Dur::ZERO),
        "delay grid must start with ZERO (send now)"
    );
    let t_end = now + cfg.horizon;
    // The kernel visits the candidates in ascending send time; each keeps
    // its grid position as the slot its result is stored under.
    let mut sends: Vec<(usize, Time)> = Vec::with_capacity(cfg.delay_grid.len());
    for (slot, &delta) in cfg.delay_grid.iter().enumerate() {
        let t_act = now + delta;
        assert!(
            t_act <= t_end,
            "delay {delta} exceeds planning horizon {}",
            cfg.horizon
        );
        sends.push((slot, t_act));
    }
    sends.sort_by_key(|&(_, t_act)| t_act);

    let mut idle_eu = 0.0;
    let mut eus = vec![0.0; cfg.delay_grid.len()];
    let mut scratch = RolloutScratch::default();
    // Rollouts replay hypothetical networks; their events must never
    // reach the ground-truth trace log.
    let _quiet = augur_obs::suppress();
    let hypothetical = |t_act| Packet::new(own_flow, seq, size, t_act);
    for (h, w) in branches {
        roll_branch(
            &mut scratch,
            &h.net,
            entry,
            hypothetical,
            &sends,
            t_end,
            |slot, report| {
                let u = w * utility.evaluate(report, now, own_flow);
                match slot {
                    Some(k) => eus[k] += u,
                    None => idle_eu += u,
                }
            },
        );
    }

    choose(now, cfg, size, idle_eu, &eus)
}

/// Pick the action from the expected utilities: `idle_eu` for sending
/// nothing, `eus[k]` for sending after `cfg.delay_grid[k]`.
fn choose(now: Time, cfg: &PlannerConfig, size: Bits, idle_eu: f64, eus: &[f64]) -> Decision {
    let mut evaluations = Vec::with_capacity(1 + eus.len());
    evaluations.push((None, idle_eu));
    // Idle is the incumbent with a margin: a send must clear it by a
    // fraction of one packet's utility. Among sends, the earliest
    // strictly-best delay wins.
    let margin = cfg.send_margin_frac * size.as_f64();
    let mut best: (Option<Dur>, f64) = (None, idle_eu + margin);
    for (&delta, &eu) in cfg.delay_grid.iter().zip(eus) {
        evaluations.push((Some(delta), eu));
        if eu > best.1 {
            best = (Some(delta), eu);
        }
    }
    // Report the true EU of the chosen action, not the margin-inflated
    // incumbent value.
    if best.0.is_none() {
        best.1 = idle_eu;
    }
    let (delta, eu) = best;
    Decision {
        action: match delta {
            None => Action::Idle,
            Some(Dur::ZERO) => Action::SendNow,
            Some(d) => Action::SleepUntil(now + d),
        },
        expected_utility: eu,
        evaluations,
    }
}

/// A representative planning subset of at most `max` branches.
///
/// Taking the top-K by weight would be arbitrary when many branches tie
/// (e.g. the uniform prior before any observation) and would bias the
/// expected-utility estimate toward whatever subset survives truncation.
/// Instead we *systematically resample*: `max` equally-spaced positions
/// over the cumulative weights, deterministic (fixed half-step offset),
/// each selected branch weighted by how many positions landed on it. This
/// is an unbiased, reproducible quadrature of the belief — and works the
/// same over an exact belief's branches or a particle population.
pub fn subsample_weighted<M>(branches: &[Hypothesis<M>], max: usize) -> Vec<(&Hypothesis<M>, f64)> {
    let total: f64 = branches.iter().map(|h| h.weight).sum();
    if branches.len() <= max {
        return branches.iter().map(|h| (h, h.weight / total)).collect();
    }
    let mut out: Vec<(&Hypothesis<M>, f64)> = Vec::with_capacity(max);
    let step = total / max as f64;
    let mut cum = 0.0;
    let mut target = step / 2.0;
    let mut placed = 0usize;
    for h in branches {
        cum += h.weight;
        let mut hits = 0usize;
        while placed < max && target <= cum {
            hits += 1;
            placed += 1;
            target += step;
        }
        if hits > 0 {
            out.push((h, hits as f64 / max as f64));
        }
        if placed == max {
            break;
        }
    }
    debug_assert!(!out.is_empty());
    out
}

/// Determinized rollout of one branch under one candidate: advance to
/// `send_at` (if any), inject the hypothetical packet at `entry`,
/// continue to `t_end`, and report everything delivered or dropped in
/// `[now, t_end]`. With `send_at = None` the rollout is the idle
/// baseline: no hypothetical packet at all. This is the kernel
/// [`decide_weighted`] runs, asked for a single report.
pub fn rollout(
    net: &Network,
    entry: NodeId,
    own_flow: FlowId,
    send_at: Option<Time>,
    t_end: Time,
    seq: u64,
    size: Bits,
) -> RolloutReport {
    let _quiet = augur_obs::suppress();
    let send = send_at.map(|t_act| (0, t_act));
    let mut wanted = RolloutReport::default();
    roll_branch(
        &mut RolloutScratch::default(),
        net,
        entry,
        |t_act| Packet::new(own_flow, seq, size, t_act),
        send.as_slice(),
        t_end,
        |slot, report| {
            if slot.is_some() == send_at.is_some() {
                wanted = report.clone();
            }
        },
    );
    wanted
}

/// The two trajectories a decision rolls every branch with, allocated at
/// the first branch and refilled in place from then on.
#[derive(Default)]
struct RolloutScratch {
    idle: Option<Trajectory>,
    fork: Option<Trajectory>,
}

/// One determinized trajectory: a network, what it has delivered and
/// dropped since the decision instant, and the delivery probabilities
/// folded loss has put on its packets so far.
struct Trajectory {
    sim: Network,
    report: RolloutReport,
    /// `((flow, seq), probability)` in first-seen order. A rollout meets a
    /// handful of loss fates, so a scanned vector beats a map — and,
    /// being ordered by insertion, lets no container order reach a
    /// decision.
    probs: Vec<((FlowId, u64), f64)>,
}

impl Trajectory {
    /// Make `slot` a copy of the trajectory standing at `sim` with
    /// `report` and `probs` so far, reusing the slot's allocations when
    /// it has been filled before. Either way it is one state clone.
    fn refill<'a>(
        slot: &'a mut Option<Trajectory>,
        sim: &Network,
        report: &RolloutReport,
        probs: &[((FlowId, u64), f64)],
    ) -> &'a mut Trajectory {
        if let Some(t) = slot {
            t.sim.clone_from(sim);
            t.report.deliveries.clone_from(&report.deliveries);
            t.report.drops.clone_from(&report.drops);
            t.probs.clear();
            t.probs.extend_from_slice(probs);
        } else {
            *slot = Some(Trajectory {
                sim: sim.clone(),
                report: report.clone(),
                probs: probs.to_vec(),
            });
        }
        slot.as_mut().expect("filled above")
    }

    /// Run to `until`, resolving every choice to its nominal outcome and
    /// moving the network's logs into the report.
    fn run_to(&mut self, until: Time) {
        loop {
            let step = self.sim.run_until(until);
            let (deliveries, drops) = self.sim.drain_logs();
            self.report
                .deliveries
                .extend(deliveries.map(|(_, d)| (d, 1.0)));
            self.report.drops.extend(drops);
            match step {
                Step::Idle => return,
                Step::Pending(spec) => match spec.kind {
                    ChoiceKind::LossFate => {
                        // Nominal no-loss path; at the last-mile node the
                        // (1 − p) factor is exact, elsewhere it is the
                        // certainty-equivalent approximation.
                        let pkt = spec.packet.expect("loss fate carries its packet");
                        let survive = 1.0 - spec.p1.prob();
                        let key = (pkt.flow, pkt.seq);
                        match self.probs.iter_mut().rev().find(|(k, _)| *k == key) {
                            Some((_, p)) => *p *= survive,
                            None => self.probs.push((key, survive)),
                        }
                        self.sim.resolve(0);
                    }
                    // Nominal outcomes for everything else: no jitter, gates
                    // hold their state, ARQ delivers, RED takes its more
                    // likely branch.
                    ChoiceKind::JitterFate
                    | ChoiceKind::GateSwitch
                    | ChoiceKind::EitherSwitch
                    | ChoiceKind::ArqFate => self.sim.resolve(0),
                    ChoiceKind::RedFate => {
                        self.sim.resolve(usize::from(spec.p1.prob() >= 0.5));
                    }
                },
            }
        }
    }

    /// Run to the horizon and attach the accumulated probabilities to the
    /// deliveries. The trajectory is spent afterwards.
    fn finish(&mut self, t_end: Time) -> &RolloutReport {
        self.run_to(t_end);
        if !self.probs.is_empty() {
            for (d, p) in &mut self.report.deliveries {
                let key = (d.packet.flow, d.packet.seq);
                if let Some((_, f)) = self.probs.iter().find(|(k, _)| *k == key) {
                    *p *= f;
                }
            }
        }
        &self.report
    }
}

/// The branch-major kernel: roll `net` forward once under every candidate
/// in `sends` — `(slot, send time)`, ascending in send time — and under
/// no send at all. `sink` receives each finished report with the
/// candidate's slot, `None` for the idle baseline, which comes last.
fn roll_branch(
    scratch: &mut RolloutScratch,
    net: &Network,
    entry: NodeId,
    hypothetical: impl Fn(Time) -> Packet,
    sends: &[(usize, Time)],
    t_end: Time,
    mut sink: impl FnMut(Option<usize>, &RolloutReport),
) {
    let idle = Trajectory::refill(&mut scratch.idle, net, &RolloutReport::default(), &[]);
    for &(slot, t_act) in sends {
        idle.run_to(t_act);
        let fork = Trajectory::refill(&mut scratch.fork, &idle.sim, &idle.report, &idle.probs);
        fork.sim.inject(entry, hypothetical(t_act));
        sink(Some(slot), fork.finish(t_end));
    }
    sink(None, idle.finish(t_end));
}

/// The candidate-major evaluation the branch-major kernel replaced, kept
/// as the naive reference core: every candidate clones every branch and
/// simulates it from the decision instant on its own, with a fresh report
/// and an ordered probability map per rollout.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    #[allow(clippy::too_many_arguments)]
    pub fn decide_weighted<M>(
        branches: &[(&Hypothesis<M>, f64)],
        now: Time,
        entry: NodeId,
        cfg: &PlannerConfig,
        utility: &dyn Utility,
        own_flow: FlowId,
        seq: u64,
        size: Bits,
    ) -> Decision {
        let t_end = now + cfg.horizon;
        let eu_of = |send_at: Option<Time>| -> f64 {
            let mut eu = 0.0;
            for (h, w) in branches {
                let report = rollout(&h.net, entry, own_flow, send_at, t_end, seq, size);
                eu += w * utility.evaluate(&report, now, own_flow);
            }
            eu
        };
        let idle_eu = eu_of(None);
        let eus: Vec<f64> = cfg
            .delay_grid
            .iter()
            .map(|&delta| eu_of(Some(now + delta)))
            .collect();
        choose(now, cfg, size, idle_eu, &eus)
    }

    pub fn rollout(
        net: &Network,
        entry: NodeId,
        own_flow: FlowId,
        send_at: Option<Time>,
        t_end: Time,
        seq: u64,
        size: Bits,
    ) -> RolloutReport {
        let mut sim = net.clone();
        let mut report = RolloutReport::default();
        let mut probs: BTreeMap<(FlowId, u64), f64> = BTreeMap::new();
        if let Some(t_act) = send_at {
            run_determinized(&mut sim, t_act, &mut probs, &mut report);
            sim.inject(entry, Packet::new(own_flow, seq, size, t_act));
        }
        run_determinized(&mut sim, t_end, &mut probs, &mut report);
        for (d, p) in report.deliveries.iter_mut() {
            if let Some(f) = probs.get(&(d.packet.flow, d.packet.seq)) {
                *p *= f;
            }
        }
        report
    }

    fn run_determinized(
        sim: &mut Network,
        until: Time,
        probs: &mut BTreeMap<(FlowId, u64), f64>,
        report: &mut RolloutReport,
    ) {
        loop {
            let step = sim.run_until(until);
            for (_, d) in sim.take_deliveries() {
                report.deliveries.push((d, 1.0));
            }
            report.drops.extend(sim.take_drops());
            match step {
                Step::Idle => return,
                Step::Pending(spec) => match spec.kind {
                    ChoiceKind::LossFate => {
                        let pkt = spec.packet.expect("loss fate carries its packet");
                        let survive = 1.0 - spec.p1.prob();
                        *probs.entry((pkt.flow, pkt.seq)).or_insert(1.0) *= survive;
                        sim.resolve(0);
                    }
                    ChoiceKind::JitterFate
                    | ChoiceKind::GateSwitch
                    | ChoiceKind::EitherSwitch
                    | ChoiceKind::ArqFate => sim.resolve(0),
                    ChoiceKind::RedFate => {
                        sim.resolve(usize::from(spec.p1.prob() >= 0.5));
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::DiscountedThroughput;
    use augur_elements::{build_model, GateSpec, ModelParams, FIG2_ENTRY};
    use augur_sim::{BitRate, Ppm, SimRng};

    /// The kinds of small belief the kernel is checked on.
    #[derive(Debug, Clone, Copy)]
    enum Scene {
        QuietLink,
        LossyLastMile,
        PrefilledBuffer,
        IntermittentGate,
    }

    /// Six `rng`-drawn hypotheses of one scene, warmed up to a common
    /// `now` with some of the sender's own packets already in flight, so
    /// rollouts start from queues, a busy link and mid-period timers.
    fn seeded_branches(scene: Scene, rng: &mut SimRng) -> (Vec<Hypothesis<ModelParams>>, Time) {
        let now = Time::from_millis(rng.uniform_u64(700, 3_300));
        let mut branches = Vec::new();
        for _ in 0..6 {
            let link_bps = 1_000 * rng.uniform_u64(10, 16);
            let cross_on = !matches!(scene, Scene::QuietLink);
            let params = ModelParams {
                link_rate: BitRate::from_bps(link_bps),
                cross_rate: BitRate::from_bps(link_bps * rng.uniform_u64(4, 7) / 10),
                gate: match scene {
                    Scene::IntermittentGate => GateSpec::Intermittent {
                        mtts: Dur::from_secs(100),
                        epoch: Dur::from_secs(1),
                        initially_connected: rng.uniform_u64(0, 1) == 1,
                    },
                    _ => GateSpec::AlwaysOn,
                },
                loss: match scene {
                    Scene::LossyLastMile => Ppm::new(50_000 * rng.uniform_u64(1, 6) as u32),
                    Scene::IntermittentGate => Ppm::new(50_000 * rng.uniform_u64(0, 2) as u32),
                    _ => Ppm::ZERO,
                },
                buffer_capacity: Bits::new(96_000),
                initial_fullness: match scene {
                    Scene::PrefilledBuffer => Bits::new(12_000 * rng.uniform_u64(1, 8)),
                    _ => Bits::ZERO,
                },
                packet_size: Bits::new(12_000),
                cross_active: cross_on,
            };
            let mut net = build_model(params).net;
            for seq in 0..rng.uniform_u64(0, 3) {
                net.inject(
                    FIG2_ENTRY,
                    Packet::new(FlowId::SELF, seq, Bits::new(12_000), Time::ZERO),
                );
            }
            while let Step::Pending(_) = net.run_until(now) {
                net.resolve(0);
            }
            let _ = net.drain_logs();
            branches.push(Hypothesis {
                net,
                meta: params,
                weight: 0.1 + rng.uniform_f64(),
            });
        }
        (branches, now)
    }

    fn assert_same_decision(got: &Decision, want: &Decision, what: &str) {
        assert_eq!(got.action, want.action, "{what}");
        assert_eq!(
            got.expected_utility.to_bits(),
            want.expected_utility.to_bits(),
            "{what}"
        );
        assert_eq!(got.evaluations.len(), want.evaluations.len(), "{what}");
        for (g, w) in got.evaluations.iter().zip(&want.evaluations) {
            assert_eq!(g.0, w.0, "{what}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "{what}: EU of {:?}", g.0);
        }
    }

    #[test]
    fn kernel_matches_candidate_major_reference_bit_for_bit() {
        let unsorted = PlannerConfig {
            delay_grid: [0, 2_000, 250, 4_000, 100, 250, 1_000]
                .map(Dur::from_millis)
                .to_vec(),
            ..PlannerConfig::default()
        };
        let utility = DiscountedThroughput {
            alpha: 0.7,
            latency_penalty: 0.01,
            ..DiscountedThroughput::own_only()
        };
        let size = Bits::new(12_000);
        let mut some_send = false;
        for scene in [
            Scene::QuietLink,
            Scene::LossyLastMile,
            Scene::PrefilledBuffer,
            Scene::IntermittentGate,
        ] {
            for seed in 0..4 {
                let mut rng = SimRng::seed_from_u64(seed);
                let (branches, now) = seeded_branches(scene, &mut rng);
                // Five planning branches of six: the subsample's own
                // weights are part of the input.
                let weighted = subsample_weighted(&branches, 5);
                for cfg in [&PlannerConfig::default(), &unsorted] {
                    let got = decide_weighted(
                        &weighted,
                        now,
                        FIG2_ENTRY,
                        cfg,
                        &utility,
                        FlowId::SELF,
                        9,
                        size,
                    );
                    let want = reference::decide_weighted(
                        &weighted,
                        now,
                        FIG2_ENTRY,
                        cfg,
                        &utility,
                        FlowId::SELF,
                        9,
                        size,
                    );
                    assert_same_decision(&got, &want, &format!("{scene:?} seed {seed}"));
                    some_send |= got.action != Action::Idle;
                }
            }
        }
        assert!(
            some_send,
            "every scene idled: the sends were never compared"
        );
    }

    #[test]
    fn rollout_matches_reference_rollout() {
        let mut rng = SimRng::seed_from_u64(7);
        let (branches, now) = seeded_branches(Scene::LossyLastMile, &mut rng);
        let t_end = now + Dur::from_secs(16);
        for h in &branches {
            for send_at in [None, Some(now), Some(now + Dur::from_millis(1_500))] {
                let size = Bits::new(12_000);
                let got = rollout(&h.net, FIG2_ENTRY, FlowId::SELF, send_at, t_end, 9, size);
                let want =
                    reference::rollout(&h.net, FIG2_ENTRY, FlowId::SELF, send_at, t_end, 9, size);
                assert_eq!(got.drops, want.drops);
                assert_eq!(got.deliveries.len(), want.deliveries.len());
                for (g, w) in got.deliveries.iter().zip(&want.deliveries) {
                    assert_eq!(g.0, w.0);
                    assert_eq!(g.1.to_bits(), w.1.to_bits());
                }
            }
        }
    }

    fn quiet_model(loss: f64, fullness_bits: u64) -> Network {
        build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::from_prob(loss),
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::new(fullness_bits),
            packet_size: Bits::new(12_000),
            cross_active: false,
        })
        .net
    }

    #[test]
    fn rollout_delivers_hypothetical_packet() {
        let net = quiet_model(0.0, 0);
        let m = build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: false,
        });
        let report = rollout(
            &net,
            m.entry,
            FlowId::SELF,
            Some(Time::ZERO),
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
        let own: Vec<_> = report
            .deliveries
            .iter()
            .filter(|(d, _)| d.packet.flow == FlowId::SELF)
            .collect();
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].0.at, Time::from_secs(1));
        assert!((own[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rollout_folds_loss_probability() {
        let net = quiet_model(0.2, 0);
        let m = build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: false,
        });
        let report = rollout(
            &net,
            m.entry,
            FlowId::SELF,
            Some(Time::ZERO),
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
        let own: Vec<_> = report
            .deliveries
            .iter()
            .filter(|(d, _)| d.packet.flow == FlowId::SELF)
            .collect();
        assert_eq!(own.len(), 1);
        assert!((own[0].1 - 0.8).abs() < 1e-9, "prob = {}", own[0].1);
    }

    #[test]
    fn rollout_sees_backlog_deliveries() {
        let net = quiet_model(0.0, 24_000);
        let m = build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: false,
        });
        let report = rollout(
            &net,
            m.entry,
            FlowId::SELF,
            Some(Time::from_secs(4)), // send after backlog drains
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
        // Two backlog packets at 1 s and 2 s, ours at 5 s.
        assert_eq!(report.deliveries.len(), 3);
        let own = report
            .deliveries
            .iter()
            .find(|(d, _)| d.packet.flow == FlowId::SELF)
            .unwrap();
        assert_eq!(own.0.at, Time::from_secs(5));
    }
}
