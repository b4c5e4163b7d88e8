//! The exact enumeration engine: sequential Bayes over a finite hypothesis
//! set (§3.2).
//!
//! "Every time it receives an ACK from its RECEIVER or its timer expires,
//! the ISENDER receives an event and wakes up. It simulates each of the
//! possible network states since the last wakeup to see what results they
//! would have produced at their simulated RECEIVER. Any state that
//! produces results inconsistent from what actually happened is removed
//! from the list, and the probabilities of all remaining configurations
//! are increased so that they still sum to unity."
//!
//! [`Belief::advance`] is that paragraph. Nondeterministic elements fork
//! branches; reconverged branches are compacted; a configurable cap prunes
//! the lightest branches (the paper's computational limit, §3.2).
//!
//! # The last-mile loss fold
//!
//! A loss decision at the last-mile node is not forked but folded into
//! the branch weight ([`crate::engine`] states the rule, shared with the
//! particle filter). Disabling `fold_self_loss` (the ABL-2 ablation)
//! replays the sender's own packets as explicit forks and must produce
//! the identical posterior.
//!
//! # States and members
//!
//! The fold works because a packet lost at the last mile leaves nothing
//! behind: "the consequences of stochastic loss do not linger". So
//! hypotheses that differ only in the fold node's loss rate go through the
//! same network states, and the fold only weights them differently. The
//! belief therefore keeps two levels (a [`Population`]): the distinct
//! network *states*, and the *members* standing on them, each with its own
//! structure (its parameters, the fold-node rate included), meta and
//! weight. A window runs every state once for all its members.
//!
//! A member's structure and meta never change, so they are stored once
//! per prior hypothesis, in a table all descendants and clones of the
//! population share, and a member is a 16-byte record: the index of its
//! hypothesis there, the index of its state and its weight. Descent
//! copies the index.
//!
//! **The sharing rule.** Members share a state iff their networks are `==`
//! but for the probability of the LOSS element at the fold node and
//! none of them has probability 1 there. Every other choice — gate,
//! EITHER, jitter, ARQ, RED, a LOSS elsewhere, a cross-traffic packet at
//! the fold node — is then the same choice with the same probability for
//! every member of the state. States are formed once, as the prior's
//! hypotheses are seated one at a time by [`Population::new`], which also
//! fixes the fold node; a sweep seats each distinct prior once and starts
//! every run from a clone through [`Belief::from_population`].
//! After that they come from descent: each path on which a state's run
//! ends consistent with the window is a new state, shared by the members
//! still alive on it. States of different descent that later converge
//! stay apart (their members still merge in compaction).
//!
//! **Why p = 0 joins and p = 1 does not.** A state runs under a structure
//! with a fractional rate if any member has one, so it stops at the fold
//! node for every packet. A member with p = 0 would never have stopped
//! there: for it the packet simply passes. It costs that member nothing
//! where the state resolves "delivered" (and under injection it follows
//! only that path, counting no fork); where the fold resolves an own
//! packet "lost", the member dies, exactly as its own delivery would have
//! failed the window's acknowledgments. A member with p = 1 drops every
//! packet at that node without asking, so its queue downstream and its
//! deliveries differ from its siblings': it stands on a state of its own.
//!
//! **Exactness.** Each path of a state's run carries the weight of every
//! member alive on it, and at each choice a member's weight is multiplied
//! by its own factor — the member's rate where the choice is the fold
//! node's, the shared probability elsewhere — and checked where the
//! member's own run would have checked it. Every member thus performs the
//! multiplications, in the order, that running its own network alone
//! performs, and its kills and forks are counted where it would have had
//! them. The survivors are listed as that per-member run lists them: the
//! frontier's members in order, each on the paths of its state in the
//! order the run reached them. Weights, order, [`AdvanceStats`] and the
//! posterior are those of the per-member engine bit for bit (a
//! `#[cfg(test)]` reference keeps it).

use crate::engine::{fold, snapshot, Engine};
use crate::hypothesis::{effective_count, index, Member, Population, Record};
use crate::observe::{harvest, Observation, ObservationIndex};
use augur_elements::{ChoiceKind, ChoiceSpec, Network, NodeId, Step};
use augur_obs::EventKind;
use augur_sim::{Packet, Ppm, Time};
use std::fmt;
use std::hash::Hash;
use std::ops::Range;

/// Branches lighter than this fraction of the heaviest are dropped at the
/// end of every window.
const MIN_REL_WEIGHT: f64 = 1e-9;

/// Tuning knobs for the exact engine.
#[derive(Debug, Clone)]
pub struct BeliefConfig {
    /// Hard cap on the branch population (lowest weights pruned first).
    pub max_branches: usize,
    /// Fold the sender's own packets at the fold node (true) or fork them
    /// explicitly (false; the ABL-2 ablation — same posterior, more work).
    pub fold_self_loss: bool,
}

impl Default for BeliefConfig {
    fn default() -> Self {
        BeliefConfig {
            max_branches: 50_000,
            fold_self_loss: true,
        }
    }
}

/// Diagnostics from one [`Belief::advance`] window.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvanceStats {
    /// Branch forks performed.
    pub forks: usize,
    /// Branches killed by inconsistency with the observations.
    pub killed: usize,
    /// Branches eliminated by compaction (state reconvergence).
    pub compacted: usize,
    /// Branches eliminated by the population cap / weight floor.
    pub pruned: usize,
    /// Surviving branch count.
    pub branches: usize,
    /// Pre-normalization weight sum: the marginal likelihood of this
    /// window's observations under the belief.
    pub evidence: f64,
}

/// The belief engine failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BeliefError {
    /// Every branch was inconsistent with the observations: the true
    /// configuration is outside the prior's support.
    Dead {
        /// Time of the fatal window's end.
        at: Time,
    },
}

impl fmt::Display for BeliefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeliefError::Dead { at } => write!(
                f,
                "all hypotheses rejected at {at}: observations are outside the prior's support"
            ),
        }
    }
}

impl std::error::Error for BeliefError {}

/// A member alive on a path of its state's run: its index in the frontier,
/// its loss rate at the fold node, and its weight so far.
#[derive(Debug, Clone, Copy)]
struct Alive {
    member: u32,
    p: Ppm,
    weight: f64,
}

/// A path of one state's run still under way: its network, the window's
/// acknowledgments it has matched, and the members alive on it — a range
/// of the window's list of [`Alive`] entries.
struct Path {
    net: Network,
    matched: usize,
    alive: Range<usize>,
}

/// A path that ended consistent with the window: a new state and the
/// members alive there.
struct Leaf {
    net: Network,
    alive: Range<usize>,
}

/// Keep the entries of `range` for which `keep` holds — it may reweight
/// them — in order, shrinking the range. Returns how many went.
fn retain(
    alive: &mut [Alive],
    range: &mut Range<usize>,
    mut keep: impl FnMut(&mut Alive) -> bool,
) -> usize {
    let mut end = range.start;
    for j in range.clone() {
        let mut a = alive[j];
        if keep(&mut a) {
            alive[end] = a;
            end += 1;
        }
    }
    let gone = range.end - end;
    range.end = end;
    gone
}

/// A probability distribution over network configurations, advanced by
/// sequential Bayes.
#[derive(Debug, Clone)]
pub struct Belief<M> {
    pub(crate) pop: Population<M>,
    /// Node where the sender's packets enter every hypothesis.
    pub entry: NodeId,
    /// The receiver node whose deliveries the sender observes.
    pub observed_rx: NodeId,
    cfg: BeliefConfig,
    now: Time,
}

impl<M: Clone + Eq + Hash> Belief<M> {
    /// Build a belief from a prior seated on its states by
    /// [`Population::new`] — a clone of one a sweep keeps for all its
    /// runs, say — normalizing its weights. The fold node is the one the
    /// prior was seated for. All hypotheses must share the same topology
    /// ids for `entry` and `observed_rx`.
    ///
    /// # Panics
    /// Panics if the prior is empty or has non-positive total weight.
    pub fn from_population(
        mut pop: Population<M>,
        entry: NodeId,
        observed_rx: NodeId,
        cfg: BeliefConfig,
    ) -> Belief<M> {
        assert!(!pop.is_empty(), "empty prior");
        pop.normalize();
        Belief {
            pop,
            entry,
            observed_rx,
            cfg,
            now: Time::ZERO,
        }
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.pop.len()
    }

    /// Effective branch count, `1/Σw²`.
    pub fn effective_count(&self) -> f64 {
        effective_count(self.pop.members.iter().map(|m| m.weight))
    }

    /// The engine configuration.
    pub fn config(&self) -> &BeliefConfig {
        &self.cfg
    }

    /// Inject one of the sender's own packets into every branch at the
    /// current instant. Synchronous nondeterminism (e.g. a LOSS element
    /// reached before the packet comes to rest) forks branches; the forks
    /// are conditioned at the next [`Belief::advance`].
    pub fn inject(&mut self, pkt: Packet) {
        self.inject_counted(pkt);
    }

    /// [`Belief::inject`], returning its forks and kills.
    fn inject_counted(&mut self, pkt: Packet) -> AdvanceStats {
        let idx = ObservationIndex::new(&[]);
        let mut stats = AdvanceStats::default();
        self.descend(self.now, &idx, Some(pkt), &mut stats);
        assert!(
            !self.pop.is_empty(),
            "all branches died during inject — topology delivers instantly?"
        );
        stats
    }

    /// Advance every branch to `until`, conditioning on the window's
    /// observations, then compact, prune and renormalize.
    pub fn advance(
        &mut self,
        until: Time,
        obs: &[Observation],
    ) -> Result<AdvanceStats, BeliefError> {
        assert!(
            until >= self.now,
            "advance({until}) before now ({})",
            self.now
        );
        let idx = ObservationIndex::new(obs);
        let mut stats = AdvanceStats::default();
        augur_sim::perf::count_hypothesis_updates(self.pop.len() as u64);
        self.descend(until, &idx, None, &mut stats);
        if self.pop.is_empty() || self.pop.members.iter().map(|m| m.weight).sum::<f64>() <= 0.0 {
            return Err(BeliefError::Dead { at: until });
        }
        stats.compacted = self.pop.compact();
        stats.pruned = self.pop.prune(self.cfg.max_branches, MIN_REL_WEIGHT);
        stats.evidence = self.pop.normalize();
        stats.branches = self.pop.len();
        let prev = self.now;
        self.now = until;
        augur_obs::emit(
            until,
            EventKind::BeliefUpdate {
                flow: augur_obs::current_flow(),
                forks: stats.forks,
                killed: stats.killed,
                compacted: stats.compacted,
                pruned: stats.pruned,
                branches: stats.branches,
                states: self.pop.state_count(),
            },
        );
        snapshot(self.pop.members(), prev, until);
        Ok(stats)
    }

    /// Run every state to `until` — after injecting `pkt` into it, if
    /// given — once for all the members standing on it, and replace the
    /// population with the paths that ended consistent with the window:
    /// each a new state, its members the ones alive on it.
    fn descend(
        &mut self,
        until: Time,
        idx: &ObservationIndex,
        pkt: Option<Packet>,
        stats: &mut AdvanceStats,
    ) {
        let frontier = std::mem::take(&mut self.pop.members);
        let states = std::mem::take(&mut self.pop.states);
        // The frontier's members grouped by state, in member order within
        // each: the first paths' lists of members alive.
        let mut bounds = vec![0; states.len() + 1];
        for m in &frontier {
            bounds[m.state as usize + 1] += 1;
        }
        for s in 0..states.len() {
            bounds[s + 1] += bounds[s];
        }
        let mut next = bounds.clone();
        let mut alive = vec![
            Alive {
                member: 0,
                p: Ppm::ZERO,
                weight: 0.0,
            };
            frontier.len()
        ];
        for (i, m) in frontier.iter().enumerate() {
            let state = m.state as usize;
            alive[next[state]] = Alive {
                member: u32::try_from(i).expect("fewer than 2^32 members"),
                p: (self.pop.fold)
                    .map_or(Ppm::ZERO, |f| self.pop.hyps[m.hyp as usize].0.loss_rate(f)),
                weight: m.weight,
            };
            next[state] += 1;
        }
        let mut stack = Vec::new();
        let mut leaves = Vec::with_capacity(states.len());
        let mut leaves_of = Vec::with_capacity(states.len());
        for (s, mut net) in states.into_iter().enumerate() {
            let first = leaves.len();
            if let Some(pkt) = pkt {
                net.inject(self.entry, pkt);
            }
            stack.push(Path {
                net,
                matched: 0,
                alive: bounds[s]..bounds[s + 1],
            });
            self.settle(
                until,
                idx,
                pkt.is_some(),
                &mut stack,
                &mut alive,
                &mut leaves,
                stats,
            );
            leaves_of.push(first..leaves.len());
        }
        // The survivors as a member-by-member run lists them: the
        // frontier's members in order, each on the leaves of its state in
        // the order they were reached.
        let mut members = Vec::with_capacity(frontier.len());
        for (i, m) in frontier.into_iter().enumerate() {
            for l in leaves_of[m.state as usize].clone() {
                let on: &mut Range<usize> = &mut leaves[l].alive;
                if on.start < on.end && alive[on.start].member as usize == i {
                    members.push(Record {
                        hyp: m.hyp,
                        state: index(l),
                        weight: alive[on.start].weight,
                    });
                    on.start += 1;
                }
            }
        }
        self.pop.members = members;
        self.pop.states = leaves.into_iter().map(|l| l.net).collect();
    }

    /// Run the path on `stack` (and any forks it spawns) to `until`,
    /// collecting the paths that end consistent with the window into
    /// `leaves`. Depth-first; `stack` comes back empty, so one allocation
    /// serves every state of a window. `alive` holds every path's members;
    /// a fork appends its child's.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        until: Time,
        idx: &ObservationIndex,
        injecting: bool,
        stack: &mut Vec<Path>,
        alive: &mut Vec<Alive>,
        leaves: &mut Vec<Leaf>,
        stats: &mut AdvanceStats,
    ) {
        let last_mile = self.pop.fold;
        let fold_own = self.cfg.fold_self_loss && !injecting;
        while let Some(mut path) = stack.pop() {
            loop {
                let step = path.net.run_until(until);
                if !harvest(&mut path.net, self.observed_rx, idx, &mut path.matched) {
                    stats.killed += path.alive.len();
                    break;
                }
                let spec = match step {
                    Step::Idle => {
                        // During injection the window is zero-width and the
                        // matched count is checked by the enclosing advance.
                        if injecting || path.matched == idx.len() {
                            leaves.push(Leaf {
                                net: path.net,
                                alive: path.alive,
                            });
                        } else {
                            stats.killed += path.alive.len();
                        }
                        break;
                    }
                    Step::Pending(spec) => spec,
                };
                // The choice as a member meets it: at the fold node with its
                // own rate. A member with p = 0 there never meets it — the
                // packet just passes — so it only goes on where the packet
                // is delivered.
                let at_fold = spec.kind == ChoiceKind::LossFate && Some(spec.node) == last_mile;
                let met = |a: &Alive| match at_fold {
                    true if a.p.is_zero() => None,
                    true => Some(ChoiceSpec { p1: a.p, ..spec }),
                    false => Some(spec),
                };
                match fold(&spec, last_mile, fold_own, idx) {
                    Some((option, _)) => {
                        // Each member takes its own factor, and dies where its
                        // own run would: a weight gone to zero, or (p = 0) an
                        // own packet the window says was lost.
                        stats.killed += retain(alive, &mut path.alive, |a| match met(a) {
                            Some(own) => {
                                let (_, factor) = fold(&own, last_mile, fold_own, idx)
                                    .expect("a fold at one rate is a fold at every rate");
                                a.weight *= factor;
                                a.weight > 0.0
                            }
                            None => option == 0,
                        });
                        if path.alive.is_empty() {
                            break;
                        }
                        path.net.resolve(option);
                    }
                    None => {
                        stats.forks += path
                            .alive
                            .clone()
                            .filter(|&j| met(&alive[j]).is_some())
                            .count();
                        // A member's weight on option `o`'s path, if it goes there.
                        let on = |a: &Alive, o: usize| match met(a) {
                            Some(own) => (own.prob(o) > 0.0).then(|| a.weight * own.prob(o)),
                            None => (o == 0).then_some(a.weight),
                        };
                        // Every live option but the last goes to a cloned
                        // child with its members; the last continues in place.
                        let mut live = spec.live_options();
                        let mut o = live.next().expect("a choice has a live option");
                        for next in live {
                            let from = alive.len();
                            for j in path.alive.clone() {
                                if let Some(weight) = on(&alive[j], o) {
                                    alive.push(Alive { weight, ..alive[j] });
                                }
                            }
                            if alive.len() > from {
                                let mut child = Path {
                                    net: path.net.clone(),
                                    matched: path.matched,
                                    alive: from..alive.len(),
                                };
                                child.net.resolve(o);
                                stack.push(child);
                            }
                            o = next;
                        }
                        retain(alive, &mut path.alive, |a| match on(a, o) {
                            Some(weight) => {
                                a.weight = weight;
                                true
                            }
                            None => false,
                        });
                        if path.alive.is_empty() {
                            break;
                        }
                        path.net.resolve(o);
                    }
                }
            }
        }
    }
}

impl<M: Clone + Eq + Hash> Engine for Belief<M> {
    type Meta = M;

    fn advance(&mut self, until: Time, obs: &[Observation]) -> Result<(), BeliefError> {
        Belief::advance(self, until, obs).map(drop)
    }

    fn inject(&mut self, pkt: Packet) {
        Belief::inject(self, pkt);
    }

    fn members(&self) -> impl ExactSizeIterator<Item = Member<'_, M>> + Clone {
        self.pop.members()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn entry(&self) -> NodeId {
        self.entry
    }
}

/// The exact engine as it was before members shared states, kept as the
/// naive reference core: every member owns its network and is run, forked
/// and hashed on its own, and compaction hashes whole networks into a
/// merge map.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::hypothesis::tests::reference_compact;
    use crate::hypothesis::Hypothesis;

    struct Work<M> {
        h: Hypothesis<M>,
        matched: usize,
    }

    pub struct Belief<M> {
        pub branches: Vec<Hypothesis<M>>,
        entry: NodeId,
        observed_rx: NodeId,
        fold: Option<NodeId>,
        cfg: BeliefConfig,
        now: Time,
    }

    impl<M: Clone + Eq + Hash> Belief<M> {
        pub fn new(
            prior: Vec<Hypothesis<M>>,
            entry: NodeId,
            observed_rx: NodeId,
            fold: Option<NodeId>,
            cfg: BeliefConfig,
        ) -> Belief<M> {
            let mut b = Belief {
                branches: prior,
                entry,
                observed_rx,
                fold,
                cfg,
                now: Time::ZERO,
            };
            normalize(&mut b.branches);
            b
        }

        pub fn inject(&mut self, pkt: Packet) -> AdvanceStats {
            let idx = ObservationIndex::new(&[]);
            let frontier = std::mem::take(&mut self.branches);
            let mut out = Vec::with_capacity(frontier.len());
            let mut stack = Vec::new();
            let mut stats = AdvanceStats::default();
            for mut h in frontier {
                h.net.inject(self.entry, pkt);
                stack.push(Work { h, matched: 0 });
                self.settle(self.now, &idx, true, &mut stack, &mut out, &mut stats);
            }
            assert!(!out.is_empty(), "all branches died during inject");
            self.branches = out;
            stats
        }

        pub fn advance(
            &mut self,
            until: Time,
            obs: &[Observation],
        ) -> Result<AdvanceStats, BeliefError> {
            let idx = ObservationIndex::new(obs);
            let mut stats = AdvanceStats::default();
            let frontier = std::mem::take(&mut self.branches);
            let mut done = Vec::with_capacity(frontier.len());
            let mut stack = Vec::new();
            for h in frontier {
                stack.push(Work { h, matched: 0 });
                self.settle(until, &idx, false, &mut stack, &mut done, &mut stats);
            }
            if done.is_empty() {
                return Err(BeliefError::Dead { at: until });
            }
            self.branches = done;
            if self.branches.iter().map(|h| h.weight).sum::<f64>() <= 0.0 {
                return Err(BeliefError::Dead { at: until });
            }
            stats.compacted = reference_compact(&mut self.branches);
            stats.pruned = prune(&mut self.branches, self.cfg.max_branches, MIN_REL_WEIGHT);
            stats.evidence = normalize(&mut self.branches);
            stats.branches = self.branches.len();
            self.now = until;
            Ok(stats)
        }

        fn settle(
            &self,
            until: Time,
            idx: &ObservationIndex,
            injecting: bool,
            stack: &mut Vec<Work<M>>,
            out: &mut Vec<Hypothesis<M>>,
            stats: &mut AdvanceStats,
        ) {
            let last_mile = self.fold;
            let fold_own = self.cfg.fold_self_loss && !injecting;
            while let Some(mut w) = stack.pop() {
                loop {
                    let step = w.h.net.run_until(until);
                    if !harvest(&mut w.h.net, self.observed_rx, idx, &mut w.matched) {
                        stats.killed += 1;
                        break;
                    }
                    match step {
                        Step::Idle => {
                            if injecting || w.matched == idx.len() {
                                out.push(w.h);
                            } else {
                                stats.killed += 1;
                            }
                            break;
                        }
                        Step::Pending(spec) => match fold(&spec, last_mile, fold_own, idx) {
                            Some((option, weight)) => {
                                w.h.weight *= weight;
                                if w.h.weight <= 0.0 {
                                    stats.killed += 1;
                                    break;
                                }
                                w.h.net.resolve(option);
                            }
                            None => {
                                stats.forks += 1;
                                let mut live = spec.live_options();
                                let mut o = live.next().expect("a choice has a live option");
                                for next in live {
                                    let mut child = Work {
                                        h: w.h.clone(),
                                        matched: w.matched,
                                    };
                                    child.h.weight *= spec.prob(o);
                                    child.h.net.resolve(o);
                                    stack.push(child);
                                    o = next;
                                }
                                w.h.weight *= spec.prob(o);
                                w.h.net.resolve(o);
                            }
                        },
                    }
                }
            }
        }
    }

    fn normalize<M>(branches: &mut [Hypothesis<M>]) -> f64 {
        let total: f64 = branches.iter().map(|h| h.weight).sum();
        assert!(total > 0.0 && total.is_finite(), "cannot normalize");
        for h in branches.iter_mut() {
            h.weight /= total;
        }
        total
    }

    fn prune<M>(branches: &mut Vec<Hypothesis<M>>, max: usize, min_rel: f64) -> usize {
        let before = branches.len();
        branches.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let floor = branches[0].weight * min_rel;
        branches.retain(|h| h.weight >= floor);
        branches.truncate(max);
        before - branches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothesis::tests::{assert_same_members, checked_hashes};
    use crate::hypothesis::Hypothesis;
    use augur_elements::{
        build_model, DropReason, GateSpec, ModelParams, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF,
    };
    use augur_sim::{BitRate, Bits, Dur, FlowId, SimRng};

    /// A Figure-2 hypothesis whose meta is its parameters and a twin tag.
    fn hyp(params: ModelParams, twin: u32, weight: f64) -> Hypothesis<(ModelParams, u32)> {
        Hypothesis {
            net: build_model(params).net,
            meta: (params, twin),
            weight,
        }
    }

    /// A belief over `prior` seated for `fold`.
    fn seated<M: Clone + Eq + Hash>(
        prior: Vec<Hypothesis<M>>,
        fold: Option<NodeId>,
        fold_self_loss: bool,
    ) -> Belief<M> {
        let cfg = BeliefConfig {
            max_branches: 160,
            fold_self_loss,
        };
        Belief::from_population(Population::new(prior, fold), FIG2_ENTRY, FIG2_RX_SELF, cfg)
    }

    fn params(link_bps: u64, loss: Ppm, fill: u64, mtts_s: u64, on: bool) -> ModelParams {
        ModelParams {
            link_rate: BitRate::from_bps(link_bps),
            cross_rate: BitRate::from_bps(link_bps * 6 / 10),
            gate: GateSpec::Intermittent {
                mtts: Dur::from_secs(mtts_s),
                epoch: Dur::from_secs(1),
                initially_connected: on,
            },
            loss,
            buffer_capacity: Bits::new(48_000),
            initial_fullness: Bits::new(fill),
            packet_size: Bits::new(12_000),
            cross_active: true,
        }
    }

    #[test]
    fn shared_states_follow_the_sharing_rule() {
        let rate = |p: f64| Ppm::from_prob(p);
        let at = |p: f64| params(12_000, rate(p), 12_000, 100, true);
        let fold = Some(FIG2_LOSS);
        // (first, second, fold node, one state?)
        let table = [
            (at(0.1), at(0.2), fold, true, "two fractional rates"),
            (
                at(0.0),
                at(0.1),
                fold,
                true,
                "p = 0 joins a fractional sibling",
            ),
            (at(0.0), at(0.0), fold, true, "meta-only twins at p = 0"),
            (at(0.1), at(0.1), fold, true, "meta-only twins"),
            (
                at(0.1),
                at(1.0),
                fold,
                false,
                "p = 1 against a fractional rate",
            ),
            (at(0.0), at(1.0), fold, false, "p = 1 against p = 0"),
            (
                at(1.0),
                at(1.0),
                fold,
                false,
                "p = 1 never shares, not even with a twin",
            ),
            (
                at(0.1),
                params(14_000, rate(0.2), 12_000, 100, true),
                fold,
                false,
                "another link rate",
            ),
            (
                at(0.1),
                params(12_000, rate(0.2), 24_000, 100, true),
                fold,
                false,
                "another queue",
            ),
            (
                at(0.1),
                at(0.2),
                None,
                false,
                "no fold node: the rates tell apart",
            ),
            (
                at(0.1),
                at(0.1),
                None,
                true,
                "no fold node: meta-only twins",
            ),
        ];
        for (a, b, fold, shared, what) in table {
            for (first, second) in [(a, b), (b, a)] {
                let belief = seated(vec![hyp(first, 0, 1.0), hyp(second, 1, 1.0)], fold, true);
                assert_eq!(belief.branch_count(), 2, "{what}");
                assert_eq!(
                    belief.pop.state_count(),
                    if shared { 1 } else { 2 },
                    "{what}"
                );
                // A shared state runs with a fractional rate if a member
                // has one, so it stops wherever any member would.
                let fractional = |p: Ppm| !p.is_zero() && !p.is_one();
                if shared && (fractional(first.loss) || fractional(second.loss)) {
                    let state = &belief.pop.states[0];
                    assert!(fractional(state.view().loss_rate(FIG2_LOSS)), "{what}");
                }
                // Each member reads its own rate off its own structure.
                let rates: Vec<Ppm> = belief
                    .members()
                    .map(|m| m.net.loss_rate(FIG2_LOSS))
                    .collect();
                assert_eq!(rates, [first.loss, second.loss], "{what}");
            }
        }
    }

    /// A generated prior: two configurations, each under loss rates drawn
    /// from {0, fractional, 1}, with `meta`-only twins, weights near a
    /// total of one, and one member of the smallest positive weight, which
    /// its first fork or fold takes to zero while its siblings live on.
    fn generated_prior(rng: &mut SimRng) -> Vec<Hypothesis<(ModelParams, u32)>> {
        let rates = [0, 50_000, 100_000, 200_000, 350_000, 1_000_000].map(Ppm::new);
        let mut prior = Vec::new();
        for _ in 0..2 {
            let link_bps = 1_000 * rng.uniform_u64(10, 14);
            let fill = 12_000 * rng.uniform_u64(0, 2);
            let (mtts, on) = (rng.uniform_u64(2, 5), rng.uniform_u64(0, 3) > 0);
            for &p in &rates {
                if rng.uniform_u64(0, 3) == 0 {
                    continue;
                }
                let params = params(link_bps, p, fill, mtts, on);
                prior.push(hyp(params, 0, 0.5 + rng.uniform_f64()));
                if rng.uniform_u64(0, 3) == 0 {
                    prior.push(hyp(params, 1, 0.5 + rng.uniform_f64()));
                }
            }
        }
        let total: f64 = prior.iter().map(|h| h.weight).sum();
        for h in &mut prior {
            h.weight /= total;
        }
        let tiny = rng.uniform_u64(0, prior.len() as u64 - 1) as usize;
        prior[tiny].weight = f64::from_bits(1);
        prior
    }

    #[test]
    fn shared_states_match_the_per_member_reference() {
        // Generated runs with the fold (own packets folded or forked) and
        // without it: after every advance and every injection the
        // shared-state belief must hold the reference's members in its
        // order with the bits of its weights, and report its statistics.
        let (mut shared_windows, mut own_losses, mut killed) = (0, 0, 0);
        for case in 0..24 {
            let seed = SimRng::derive_seed(0x5A4ED, case);
            let mut rng = SimRng::seed_from_u64(seed);
            let prior = generated_prior(&mut rng);
            let (fold, fold_self_loss) = match case % 3 {
                0 => (Some(FIG2_LOSS), true),
                1 => (Some(FIG2_LOSS), false),
                _ => (None, true),
            };
            // The truth is a fractional-rate member of the prior, so own
            // packets are lost and the belief lives.
            let truth_params = prior
                .iter()
                .map(|h| h.meta.0)
                .find(|p| !p.loss.is_zero() && !p.loss.is_one())
                .unwrap_or(prior[0].meta.0);
            let mut truth = build_model(truth_params).net;
            let mut belief = seated(prior.clone(), fold, fold_self_loss);
            let cfg = belief.config().clone();
            let mut reference = reference::Belief::new(prior, FIG2_ENTRY, FIG2_RX_SELF, fold, cfg);
            let what = |t: Time| format!("seed {seed:#x} at {t}");
            let mut seq = 0;
            for s in 1..=rng.uniform_u64(6, 10) {
                let t = Time::from_secs(s);
                truth.run_until_sampled(t, &mut rng);
                let acks: Vec<Observation> = (truth.take_deliveries().into_iter())
                    .filter(|(node, d)| *node == FIG2_RX_SELF && d.packet.flow == FlowId::SELF)
                    .map(|(_, d)| Observation {
                        seq: d.packet.seq,
                        at: d.at,
                    })
                    .collect();
                own_losses += (truth.take_drops().iter())
                    .filter(|d| d.reason == DropReason::Stochastic && d.packet.flow == FlowId::SELF)
                    .count();
                let (got, want) = (belief.advance(t, &acks), reference.advance(t, &acks));
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_same_stats(&got, &want, &what(t));
                        killed += want.killed;
                    }
                    (got, want) => {
                        assert_eq!(got.err(), want.err(), "{}", what(t));
                        break;
                    }
                }
                let members: Vec<_> = belief.members().map(|m| m.to_hypothesis()).collect();
                assert_same_members(&members, &reference.branches, &what(t));
                checked_hashes(&belief.pop);
                shared_windows += usize::from(belief.pop.state_count() < belief.branch_count());
                for _ in 0..rng.uniform_u64(0, 2) {
                    let pkt = Packet::new(FlowId::SELF, seq, Bits::new(12_000), t);
                    seq += 1;
                    truth.inject(FIG2_ENTRY, pkt);
                    truth.run_until_sampled(t, &mut rng);
                    let got = belief.inject_counted(pkt);
                    let want = reference.inject(pkt);
                    assert_same_stats(&got, &want, &what(t));
                    let members: Vec<_> = belief.members().map(|m| m.to_hypothesis()).collect();
                    assert_same_members(&members, &reference.branches, &what(t));
                }
            }
        }
        assert!(shared_windows > 0, "no state was ever shared");
        assert!(own_losses > 0, "the truth never lost a packet of ours");
        assert!(killed > 0, "no member was ever killed");
    }

    fn assert_same_stats(got: &AdvanceStats, want: &AdvanceStats, what: &str) {
        assert_eq!(
            (
                got.forks,
                got.killed,
                got.compacted,
                got.pruned,
                got.branches
            ),
            (
                want.forks,
                want.killed,
                want.compacted,
                want.pruned,
                want.branches
            ),
            "{what}: forks, killed, compacted, pruned, branches"
        );
        assert_eq!(
            got.evidence.to_bits(),
            want.evidence.to_bits(),
            "{what}: evidence"
        );
    }
}
