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

use crate::engine::{fold, snapshot, Engine};
use crate::hypothesis::{compact, effective_count, normalize, prune, Hypothesis};
use crate::observe::{harvest, Observation, ObservationIndex};
use augur_elements::{NodeId, Step};
use augur_obs::EventKind;
use augur_sim::{FlowId, Packet, Time};
use std::fmt;
use std::hash::Hash;

/// Branches lighter than this fraction of the heaviest are dropped at the
/// end of every window.
const MIN_REL_WEIGHT: f64 = 1e-9;

/// Tuning knobs for the exact engine.
#[derive(Debug, Clone)]
pub struct BeliefConfig {
    /// Hard cap on the branch population (lowest weights pruned first).
    pub max_branches: usize,
    /// The LOSS node eligible for analytic folding, if the topology has a
    /// last-mile loss element. `None` forks every loss decision.
    pub fold_loss_node: Option<NodeId>,
    /// Fold the sender's own packets at the fold node (true) or fork them
    /// explicitly (false; the ABL-2 ablation — same posterior, more work).
    pub fold_self_loss: bool,
    /// The sender's own flow id (what the observed receiver reports).
    pub own_flow: FlowId,
}

impl Default for BeliefConfig {
    fn default() -> Self {
        BeliefConfig {
            max_branches: 50_000,
            fold_loss_node: None,
            fold_self_loss: true,
            own_flow: FlowId::SELF,
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

struct Work<M> {
    h: Hypothesis<M>,
    matched: usize,
}

/// A probability distribution over network configurations, advanced by
/// sequential Bayes.
#[derive(Debug, Clone)]
pub struct Belief<M> {
    branches: Vec<Hypothesis<M>>,
    /// Node where the sender's packets enter every hypothesis.
    pub entry: NodeId,
    /// The receiver node whose deliveries the sender observes.
    pub observed_rx: NodeId,
    cfg: BeliefConfig,
    now: Time,
}

impl<M: Clone + Eq + Hash> Belief<M> {
    /// Build a belief from prior hypotheses (weights need not be
    /// normalized). All hypotheses must share the same topology ids for
    /// `entry` and `observed_rx`.
    ///
    /// # Panics
    /// Panics if the prior is empty or has non-positive total weight.
    pub fn new(
        prior: Vec<Hypothesis<M>>,
        entry: NodeId,
        observed_rx: NodeId,
        cfg: BeliefConfig,
    ) -> Belief<M> {
        assert!(!prior.is_empty(), "empty prior");
        let mut b = Belief {
            branches: prior,
            entry,
            observed_rx,
            cfg,
            now: Time::ZERO,
        };
        normalize(&mut b.branches);
        b
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Effective branch count, `1/Σw²`.
    pub fn effective_count(&self) -> f64 {
        effective_count(&self.branches)
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
        let idx = ObservationIndex::new(&[]);
        let frontier = std::mem::take(&mut self.branches);
        let mut out = Vec::with_capacity(frontier.len());
        let mut stack = Vec::new();
        let mut stats = AdvanceStats::default();
        // The replayed hypothetical networks would otherwise emit
        // ground-truth-looking trace events; keep the log about the
        // real network only.
        let _quiet = augur_obs::suppress();
        for mut h in frontier {
            h.net.inject(self.entry, pkt);
            stack.push(Work { h, matched: 0 });
            self.settle(self.now, &idx, true, &mut stack, &mut out, &mut stats);
        }
        assert!(
            !out.is_empty(),
            "all branches died during inject — topology delivers instantly?"
        );
        self.branches = out;
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
        let frontier = std::mem::take(&mut self.branches);
        augur_sim::perf::count_hypothesis_updates(frontier.len() as u64);
        let mut done = Vec::with_capacity(frontier.len());
        let mut stack = Vec::new();
        {
            // Hypothetical replay must not leak trace events.
            let _quiet = augur_obs::suppress();
            for h in frontier {
                stack.push(Work { h, matched: 0 });
                self.settle(until, &idx, false, &mut stack, &mut done, &mut stats);
            }
        }
        if done.is_empty() {
            return Err(BeliefError::Dead { at: until });
        }
        self.branches = done;
        if self.branches.iter().map(|h| h.weight).sum::<f64>() <= 0.0 {
            return Err(BeliefError::Dead { at: until });
        }
        stats.compacted = compact(&mut self.branches);
        stats.pruned = prune(&mut self.branches, self.cfg.max_branches, MIN_REL_WEIGHT);
        stats.evidence = normalize(&mut self.branches);
        stats.branches = self.branches.len();
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
            },
        );
        snapshot(&self.branches, prev, until);
        Ok(stats)
    }

    /// Run the branch on `stack` (and any forks it spawns) to `until`,
    /// collecting the survivors into `out`. Depth-first; `stack` comes
    /// back empty, so one allocation serves every branch of a window.
    fn settle(
        &self,
        until: Time,
        idx: &ObservationIndex,
        injecting: bool,
        stack: &mut Vec<Work<M>>,
        out: &mut Vec<Hypothesis<M>>,
        stats: &mut AdvanceStats,
    ) {
        let (last_mile, own_flow) = (self.cfg.fold_loss_node, self.cfg.own_flow);
        let fold_own = self.cfg.fold_self_loss && !injecting;
        while let Some(mut w) = stack.pop() {
            loop {
                let step = w.h.net.run_until(until);
                if !harvest(
                    &mut w.h.net,
                    self.observed_rx,
                    self.cfg.own_flow,
                    idx,
                    &mut w.matched,
                ) {
                    stats.killed += 1;
                    break;
                }
                match step {
                    Step::Idle => {
                        // During injection the window is zero-width and the
                        // matched count is checked by the enclosing advance.
                        if injecting || w.matched == idx.len() {
                            out.push(w.h);
                        } else {
                            stats.killed += 1;
                        }
                        break;
                    }
                    Step::Pending(spec) => match fold(&spec, last_mile, own_flow, fold_own, idx) {
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
                            // Every live option but the last goes to a
                            // cloned child; the last continues in place.
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

impl<M: Clone + Eq + Hash> Engine for Belief<M> {
    type Meta = M;

    fn advance(&mut self, until: Time, obs: &[Observation]) -> Result<(), BeliefError> {
        Belief::advance(self, until, obs).map(drop)
    }

    fn inject(&mut self, pkt: Packet) {
        Belief::inject(self, pkt);
    }

    fn members(&self) -> &[Hypothesis<M>] {
        &self.branches
    }

    fn now(&self) -> Time {
        self.now
    }

    fn entry(&self) -> NodeId {
        self.entry
    }

    fn own_flow(&self) -> FlowId {
        self.cfg.own_flow
    }
}
