//! The expected-utility planner — the ISENDER's second job (§3.2).
//!
//! "When the ISENDER wakes up, it makes a list of strategies including
//! sending immediately and at every delay up to the slowest rate the
//! ISENDER could optimally send. We evaluate the consequences of each
//! strategy on each possible network configuration, and choose the
//! strategy that maximizes the expected value of the utility."
//!
//! Rollouts are **determinized** (certainty-equivalent): every stochastic
//! choice resolves to its nominal outcome — no jitter, gates and EITHERs
//! hold, ARQ delivers, RED takes its likelier branch — and a `LossFate`
//! resolves to "delivered" while the loss rate only prices the delivery.
//! At the last-mile node that price is exact, because a packet lost there
//! leaves nothing behind ("does not linger", §3.1): the expectation over
//! its two fates is the delivered future with the delivery weighted by
//! 1 − p. Elsewhere a lost packet would have freed queue space and link
//! time downstream, so the same weighting is the paper's approximation
//! (`tests/planner_fates.rs` enumerates the fates and shows both). The
//! horizon end is the same for every candidate action, so candidates are
//! compared on equal terms.
//!
//! The kernel ([`decide_weighted`]) does each piece of work at the widest
//! scope it is valid for.
//!
//! **Once per group of branches** — the rollout. Branches whose
//! determinized futures coincide share one: the posterior's siblings that
//! differ in nothing but a fractional loss rate (three to five per state
//! under the paper prior), the `meta`-only twins `compact()` keeps apart,
//! a particle filter's resampled duplicates. They are grouped by
//! [`NetworkView::determinized_eq`] over the members' views (sorted on its
//! key, equal keys split by pairwise comparison, as `compact()` merges)
//! and the group's first member is copied into the scratch trajectory and
//! rolled, so a decision costs horizon × distinct rollouts, not horizon ×
//! branches. A rollout simulates only what can change a
//! delivery, and a utility values nothing else. It starts by
//! determinizing its private copy ([`Network::determinize`]): every
//! memoryless switch is put on hold for good — its epoch timer would only
//! raise a choice to be resolved to "hold" and re-arm — and every
//! cross-traffic source whose packets can only die on a gate so held shut
//! is parked, its pings being drops and nothing else.
//!
//! **Once per trajectory** — everything the group's members agree on. A
//! candidate "send after δ" differs from doing nothing only from `now + δ`
//! on, so the idle trajectory is walked forward through the candidate
//! instants in ascending order; at each one it is forked, the fork
//! receives the hypothetical packet, and the idle trajectory — finished
//! last — is itself the no-send baseline. A fork that the injection leaves
//! unchanged — the packet tail-dropped on arrival, delivering nothing —
//! *is* the idle trajectory from there on: it is not run, and its
//! candidate is handed the finished idle trajectory. Any other fork is not
//! run to the horizon at once but *paused*, and brought to the next
//! candidate's instant. If by then it has logged exactly what the idle
//! trajectory has, and its network equals the new candidate's fork up to
//! the stamps of the hypothetical packet ([`Network::eq_but_stamps_of`]),
//! the new candidate *rides* it: a send that would only queue behind a
//! busy link, sent a little earlier, is the same future. Those stamps are
//! inert. No element reads a packet's `sent_at`, and only CoDel reads
//! the instant it was queued, so in a CoDel buffer that stamp must match.
//! Otherwise the paused fork runs on to the horizon and is handed over
//! once per candidate riding it, its hypothetical delivery stamped each
//! time with that candidate's send instant, and the new fork is paused in
//! its place. The stretch before each send is simulated once, and a fork
//! inherits the idle prefix's log. As a delivery is appended it is given
//! its discount (the one `exp()`, a function of its instant alone) and the
//! position of its packet among the packets that crossed a fractional
//! LOSS node; a crossing records *which* packet met *which* node, never a
//! probability. Three scratch trajectories (idle, paused fork, new fork),
//! refilled in place, and the lists of candidates left to the idle
//! trajectory and riding the paused fork serve the whole decision, which
//! reports how its forks were spent ([`RolloutCounts`]).
//!
//! **Once per member** — only what its own loss rates touch. 1 − p is
//! read once per crossed LOSS node, multiplied along the crossings in
//! crossing order into one probability per packet, copied onto the
//! deliveries by position, and the utility sums the deliveries left to
//! right with the discounts supplied.
//!
//! **Once per sender** — for the restarting sender, which hands its wake
//! loop a memo of every member's row its planner rolled, filed by the
//! member's exact content (`PlanMemo`): a group whose every member it
//! holds, planned at the same instant for the same packet, is served from
//! it and not rolled, its fork counts added as rolling it would count
//! them.
//!
//! None of this changes a number. A fork continues from exactly the state
//! and log a rollout of that candidate alone would have reached (stopping
//! a network at an instant and resuming is the same as running through
//! it), a network equal to the idle one runs into the idle future, and
//! one equal to a paused fork but for inert stamps runs into that fork's
//! future, the restamped delivery being the one it would have logged. A
//! member's probabilities are the products a rollout of that
//! member alone formed as it went — the same factors in the same order —
//! and a discount is the same `exp()` of the same argument whoever asks,
//! so the utility performs the floating-point operations of the
//! candidate-by-candidate, branch-by-branch evaluation, in their order.
//! Each branch's utilities are stored, and each candidate's expected
//! utility then accumulates `w × U` over the branches in branch order,
//! one accumulator per grid position: every `eus[k]` is bit-equal to
//! `planner::reference`, which clones, resolves switch timers event by
//! event, fires every ping, rolls every fork and takes every `exp()`
//! afresh. Results are stored by grid position: the grid need not be
//! sorted.

use crate::utility::{RolloutReport, Utility};
use augur_elements::{ChoiceKind, Network, NetworkStructure, NetworkView, NodeId, Step};
use augur_inference::{Engine, Hypothesis, Member};
use augur_sim::{Bits, Dur, FlowId, Packet, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// How many weighted members the expectations were taken over.
    pub members: usize,
    /// How the rollouts behind the expectations were spent.
    pub rollouts: RolloutCounts,
}

/// How a decision's rollouts were spent. Every group of branches sharing
/// a rollout answers every candidate once: by a fork run for it, by the
/// idle trajectory, or by an earlier candidate's fork it rides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RolloutCounts {
    /// Groups of branches rolled out, one idle trajectory each.
    pub groups: usize,
    /// Forks run to the horizon.
    pub forks_run: usize,
    /// Candidates left to the idle trajectory: the injection changed
    /// nothing.
    pub forks_idle: usize,
    /// Candidates riding an earlier candidate's fork.
    pub forks_shared: usize,
}

impl RolloutCounts {
    fn add(&mut self, other: RolloutCounts) {
        self.groups += other.groups;
        self.forks_run += other.forks_run;
        self.forks_idle += other.forks_idle;
        self.forks_shared += other.forks_shared;
    }
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
pub fn decide<E: Engine>(
    belief: &E,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    let branches = subsample_weighted(belief.members(), cfg.max_planning_branches);
    let (now, entry) = (belief.now(), belief.entry());
    decide_weighted(&branches, now, entry, cfg, utility, own_flow, seq, size)
}

/// The sender's planner call: [`decide`] for its own next packet on
/// [`FlowId::SELF`], serving every class of members that `memo` holds from
/// it and keeping the rows of every class it rolls there (see
/// [`PlanMemo`]).
pub(crate) fn plan<E: Engine>(
    belief: &E,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    seq: u64,
    size: Bits,
    memo: Option<&mut PlanMemo>,
) -> Decision {
    let branches = subsample_weighted(belief.members(), cfg.max_planning_branches);
    let (now, entry, own) = (belief.now(), belief.entry(), FlowId::SELF);
    plan_classes(&branches, now, entry, cfg, utility, own, seq, size, memo)
}

/// What the planner reads of a weighted member: its network and its
/// weight. An engine's [`Member`] view is one, and so is a reference to an
/// owned [`Hypothesis`].
pub trait Branch {
    /// The member's network.
    fn net(&self) -> NetworkView<'_>;
    /// The member's weight.
    fn weight(&self) -> f64;
}

impl<M> Branch for Member<'_, M> {
    fn net(&self) -> NetworkView<'_> {
        self.net
    }

    fn weight(&self) -> f64 {
        self.weight
    }
}

impl<M> Branch for &Hypothesis<M> {
    fn net(&self) -> NetworkView<'_> {
        self.net.view()
    }

    fn weight(&self) -> f64 {
        self.weight
    }
}

/// [`decide`] over an explicit weighted branch set — the engine-agnostic
/// core shared by the exact belief and the particle filter. `branches`
/// must already be subsampled/normalized (see [`subsample_weighted`]);
/// `now` is the decision instant, `entry` the injection node.
#[allow(clippy::too_many_arguments)]
pub fn decide_weighted<B: Branch>(
    branches: &[(B, f64)],
    now: Time,
    entry: NodeId,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    plan_classes(
        branches, now, entry, cfg, utility, own_flow, seq, size, None,
    )
}

/// The kernel behind [`decide_weighted`]: each class of members whose
/// determinized futures coincide is served from `memo` if it holds every
/// member's row, and rolled otherwise — its rows and counts then kept.
#[allow(clippy::too_many_arguments)]
fn plan_classes<B: Branch>(
    branches: &[(B, f64)],
    now: Time,
    entry: NodeId,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
    mut memo: Option<&mut PlanMemo>,
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

    // One rollout per group of branches whose determinized futures
    // coincide, re-priced for every member. `us` holds each branch's
    // utilities, one row per branch: a column per grid slot, idle last.
    let slots = cfg.delay_grid.len();
    let width = slots + 1;
    let mut us = vec![0.0; branches.len() * width];
    let mut scratch = RolloutScratch::for_candidates(slots);
    let mut rollouts = RolloutCounts::default();
    let packet = Packet::new(own_flow, seq, size, now);
    let discount = |at| utility.delivery_discount(at, now);
    let net_of = |b: usize| branches[b].0.net();
    let grouped = rollout_groups(branches.len(), net_of, NetworkView::determinized_key);
    for group in grouped.chunk_by(|a, b| a.0 == b.0) {
        let leader = group[0].0;
        let members = || group.iter().map(|&(_, b)| net_of(b));
        if let Some(memo) = memo.as_deref_mut() {
            if let Some(served) = memo.look_up(now, seq, members()) {
                for (&(_, b), row) in group.iter().zip(memo.rows(width)) {
                    us[b * width..][..width].copy_from_slice(row);
                }
                rollouts.add(served);
                continue;
            }
        }
        roll_branch(
            &mut scratch,
            net_of(leader),
            entry,
            packet,
            discount,
            &sends,
            t_end,
            |slot, rolled| {
                for &(_, b) in group {
                    let (report, discounts) = rolled.priced_for(net_of(b));
                    us[b * width + slot.unwrap_or(slots)] =
                        utility.evaluate(report, discounts, own_flow);
                }
            },
        );
        let rolled = std::mem::take(&mut scratch.counts);
        rollouts.add(rolled);
        if let Some(memo) = memo.as_deref_mut() {
            let rows = group.iter().map(|&(_, b)| &us[b * width..][..width]);
            memo.remember(now, seq, members(), rows, rolled);
        }
    }

    // Every accumulator adds its `w × U` terms in branch order, whatever
    // order the groups were rolled in.
    let mut idle_eu = 0.0;
    let mut eus = vec![0.0; slots];
    for ((_, w), row) in branches.iter().zip(us.chunks_exact(width)) {
        for (eu, u) in eus.iter_mut().zip(row) {
            *eu += w * u;
        }
        idle_eu += w * row[slots];
    }

    Decision {
        rollouts,
        ..choose(now, cfg, size, branches.len(), idle_eu, &eus)
    }
}

/// Pick the action from the expected utilities: `idle_eu` for sending
/// nothing, `eus[k]` for sending after `cfg.delay_grid[k]`, each taken over
/// `members` branches.
fn choose(
    now: Time,
    cfg: &PlannerConfig,
    size: Bits,
    members: usize,
    idle_eu: f64,
    eus: &[f64],
) -> Decision {
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
        members,
        rollouts: RolloutCounts::default(),
    }
}

/// The utility rows one sender has planned, kept by content so that a
/// class of members planned before is served instead of rolled again.
///
/// For a sender whose configuration and utility stay as they are, a
/// member's row — its utility under every candidate and under idling — is
/// a function of the decision instant, the packet's sequence number and
/// the member's network alone: its class's rollout is the rollout of any
/// network determinized-equal to it, and its own loss rates price it.
/// What the class's rollout spent is likewise a function of the class. So
/// the memo files every row it is given, with its class's
/// [`RolloutCounts`], under the member's key: the decision instant, the
/// sequence number, the index of the member's structure among the
/// structures the memo holds, and the member's
/// [`NetworkView::state_record`]. A structure is held once, by `Arc`, and
/// found by [`Arc::ptr_eq`], so its allocation is never freed and its
/// address never reused; two records are equal exactly when the states
/// are. Two members share a key exactly when they are the same network
/// planned at the same instant for the same packet. A class is served
/// only if every member is found; the rows served, and the counts added,
/// are then the ones rolling it would give, bit for bit.
///
/// Nothing is ever evicted: a memo lives as long as its sender.
#[derive(Default)]
pub(crate) struct PlanMemo {
    /// Each member's key to the index of its row.
    index: BTreeMap<Box<[u8]>, usize>,
    /// Every structure a key names, each once.
    structures: Vec<Arc<NetworkStructure>>,
    /// Every row, back to back in the order they were kept.
    rows: Vec<f64>,
    /// What rolling each row's class cost.
    counts: Vec<RolloutCounts>,
    /// The key last written.
    key: Vec<u8>,
    /// The rows found for the members of the class last looked up.
    found: Vec<usize>,
}

impl PlanMemo {
    /// Write `net`'s key at `now` for packet `seq` to `self.key`, its
    /// structure being the memo's `structure`-th.
    fn write_key(&mut self, now: Time, seq: u64, structure: usize, net: NetworkView<'_>) {
        self.key.clear();
        self.key.extend_from_slice(&now.as_micros().to_le_bytes());
        self.key.extend_from_slice(&seq.to_le_bytes());
        self.key.extend_from_slice(&structure.to_le_bytes());
        net.state_record(&mut self.key);
    }

    fn structure_of(&self, net: NetworkView<'_>) -> Option<usize> {
        let structure = net.shared_structure();
        self.structures
            .iter()
            .position(|s| Arc::ptr_eq(s, structure))
    }

    /// Look up every member of one class, `nets`, planned at `now` for
    /// packet `seq`: if the memo holds each one's row, what rolling the
    /// class cost. [`PlanMemo::rows`] then reads the rows found, in member
    /// order.
    fn look_up<'a>(
        &mut self,
        now: Time,
        seq: u64,
        nets: impl Iterator<Item = NetworkView<'a>>,
    ) -> Option<RolloutCounts> {
        self.found.clear();
        for net in nets {
            let structure = self.structure_of(net)?;
            self.write_key(now, seq, structure, net);
            self.found.push(*self.index.get(&self.key[..])?);
        }
        Some(self.counts[self.found[0]])
    }

    /// The rows of the class last looked up, each `width` values, in
    /// member order: every member must have been found.
    fn rows(&self, width: usize) -> impl Iterator<Item = &[f64]> {
        (self.found.iter()).map(move |&row| &self.rows[row * width..][..width])
    }

    /// Keep the rows that rolling one class, `nets`, at `now` for packet
    /// `seq` gave, together with `counts`: every member not held yet
    /// becomes a row.
    fn remember<'a, 'r>(
        &mut self,
        now: Time,
        seq: u64,
        nets: impl Iterator<Item = NetworkView<'a>>,
        rows: impl Iterator<Item = &'r [f64]>,
        counts: RolloutCounts,
    ) {
        for (net, row) in nets.zip(rows) {
            let structure = self.structure_of(net).unwrap_or_else(|| {
                self.structures.push(Arc::clone(net.shared_structure()));
                self.structures.len() - 1
            });
            self.write_key(now, seq, structure, net);
            if !self.index.contains_key(&self.key[..]) {
                self.index.insert(self.key[..].into(), self.counts.len());
                self.rows.extend_from_slice(row);
                self.counts.push(counts);
            }
        }
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
/// same over an exact belief's branches or a particle population. Either
/// way a member of weight zero (a dead particle) is never selected: it
/// would be rolled out only to contribute `0 × U`.
pub fn subsample_weighted<I>(branches: I, max: usize) -> Vec<(I::Item, f64)>
where
    I: IntoIterator + Clone,
    I::IntoIter: ExactSizeIterator,
    I::Item: Branch,
{
    let total: f64 = branches.clone().into_iter().map(|h| h.weight()).sum();
    let branches = branches.into_iter();
    if branches.len() <= max {
        // Sized up front: a filtered iterator has no length to collect by.
        let mut out = Vec::with_capacity(branches.len());
        let live = branches.filter(|h| h.weight() > 0.0);
        out.extend(live.map(|h| {
            let w = h.weight() / total;
            (h, w)
        }));
        return out;
    }
    let mut out = Vec::with_capacity(max);
    let step = total / max as f64;
    let mut cum = 0.0;
    let mut target = step / 2.0;
    let mut placed = 0usize;
    for h in branches {
        cum += h.weight();
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
/// continue to `t_end`, and report everything delivered in
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
    if let Some(t_act) = send_at {
        assert!(
            t_act <= t_end,
            "send at {t_act} exceeds rollout end {t_end}"
        );
    }
    let send = send_at.map(|t_act| (0, t_act));
    let sends = send.as_slice();
    let mut wanted = RolloutReport::default();
    roll_branch(
        &mut RolloutScratch::for_candidates(sends.len()),
        net.view(),
        entry,
        Packet::new(own_flow, seq, size, net.now()),
        // No utility is asked here: the discounts go unread.
        |_| 1.0,
        sends,
        t_end,
        |slot, rolled| {
            if slot.is_some() == send_at.is_some() {
                wanted = rolled.priced_for(net.view()).0.clone();
            }
        },
    );
    wanted
}

/// Partition the branches `0..n` into groups whose determinized rollouts
/// coincide ([`NetworkView::determinized_eq`]), brought together by `key`
/// (see [`augur_sim::classes`]: a collision costs comparisons and never a
/// wrong merge, no hash container's order can reach a decision, and the
/// allocation count does not depend on `n`). Returns `(leader, member)`
/// pairs in ascending order — each group is one contiguous run, headed by
/// its leader, the group's lowest index.
fn rollout_groups<'a>(
    n: usize,
    net_of: impl Fn(usize) -> NetworkView<'a>,
    key: impl Fn(NetworkView<'a>) -> u64,
) -> Vec<(usize, usize)> {
    augur_sim::classes(
        n,
        |b| key(net_of(b)),
        |l, b| net_of(l).determinized_eq(net_of(b)),
    )
}

/// The three trajectories a decision rolls every branch with — the idle
/// one, the paused fork and the candidate compared with it — allocated at
/// the first branch and refilled in place from then on; the slots of a
/// branch's candidates whose forks are the idle trajectory, and those
/// riding the paused fork with their send instants, each sized for every
/// candidate up front; and the fork counts of the decision so far.
struct RolloutScratch {
    idle: Option<Trajectory>,
    fork: Option<Trajectory>,
    cand: Option<Trajectory>,
    unchanged: Vec<usize>,
    riding: Vec<(usize, Time)>,
    counts: RolloutCounts,
}

impl RolloutScratch {
    fn for_candidates(n: usize) -> RolloutScratch {
        RolloutScratch {
            idle: None,
            fork: None,
            cand: None,
            unchanged: Vec::with_capacity(n),
            riding: Vec::with_capacity(n),
            counts: RolloutCounts::default(),
        }
    }
}

/// What a trajectory has logged since the decision instant — everything
/// the networks sharing it agree on. A packet is known by `(flow, seq)`,
/// which is unique within a network.
#[derive(Default, PartialEq)]
struct RolloutLog {
    /// Every delivery stands at probability 1 until
    /// [`Trajectory::priced_for`] folds a network's loss rates in.
    report: RolloutReport,
    /// The discount of each delivery, parallel to `report.deliveries`.
    discounts: Vec<f64>,
    /// Where each delivery's packet stands in `crossed`, parallel to
    /// `report.deliveries`; `None` if it met no fractional LOSS element.
    /// A delivery ends its packet, so every crossing that prices it has
    /// been logged by then — the last one, as a rule, just before it.
    packet_of: Vec<Option<usize>>,
    /// The packets that had a `LossFate` resolved to "delivered", in
    /// first-crossing order. A rollout meets a handful, so a vector
    /// scanned from the tail beats a map — and, being ordered by
    /// insertion, lets no container order reach a decision.
    crossed: Vec<(FlowId, u64)>,
    /// The LOSS nodes crossed, in the order first met.
    loss_nodes: Vec<NodeId>,
    /// `(index into crossed, index into loss_nodes)` of every crossing,
    /// in the order met. The probability is left out because it is the
    /// one thing the networks sharing this trajectory differ in.
    crossings: Vec<(usize, usize)>,
}

impl RolloutLog {
    /// Become a copy of `prefix`, keeping every allocation.
    fn refill(&mut self, prefix: &RolloutLog) {
        self.report.deliveries.clone_from(&prefix.report.deliveries);
        self.discounts.clone_from(&prefix.discounts);
        self.packet_of.clone_from(&prefix.packet_of);
        self.crossed.clone_from(&prefix.crossed);
        self.loss_nodes.clone_from(&prefix.loss_nodes);
        self.crossings.clone_from(&prefix.crossings);
    }
}

/// The position of `item` in `list`, appended if it is new.
fn position_or_push<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    list.iter().rposition(|x| *x == item).unwrap_or_else(|| {
        list.push(item);
        list.len() - 1
    })
}

/// One determinized trajectory: a network and its log.
struct Trajectory {
    sim: Network,
    log: RolloutLog,
    /// Scratch of `priced_for`: 1 − p per entry of `log.loss_nodes`.
    survive: Vec<f64>,
    /// Scratch of `priced_for`: the delivery probability per entry of
    /// `log.crossed`.
    probs: Vec<f64>,
}

impl Trajectory {
    /// Make `slot` a copy of the trajectory standing at `sim` having
    /// logged `prefix`, reusing the slot's allocations when it has been
    /// filled before. Either way it is one state clone.
    fn refill<'a>(
        slot: &'a mut Option<Trajectory>,
        sim: NetworkView<'_>,
        prefix: &RolloutLog,
    ) -> &'a mut Trajectory {
        let t = match slot {
            Some(t) => {
                t.sim.refill_from(sim);
                t
            }
            None => slot.insert(Trajectory {
                sim: sim.to_network(),
                log: RolloutLog::default(),
                survive: Vec::new(),
                probs: Vec::new(),
            }),
        };
        t.log.refill(prefix);
        t
    }

    /// Run to `until`, resolving every choice to its nominal outcome and
    /// moving the network's deliveries into the trajectory's log, each
    /// valued by `discount` of its instant; drops are discarded.
    fn run_to(&mut self, until: Time, discount: impl Fn(Time) -> f64) {
        let log = &mut self.log;
        loop {
            let step = self.sim.run_until(until);
            for (_, d) in self.sim.drain_logs().0 {
                let key = (d.packet.flow, d.packet.seq);
                log.packet_of
                    .push(log.crossed.iter().rposition(|k| *k == key));
                log.discounts.push(discount(d.at));
                log.report.deliveries.push((d, 1.0));
            }
            match step {
                Step::Idle => return,
                Step::Pending(spec) => match spec.kind {
                    ChoiceKind::LossFate => {
                        // Nominal no-loss path; `priced_for` puts the
                        // (1 − p) factor on the delivery.
                        let pkt = spec.packet.expect("loss fate carries its packet");
                        log.crossings.push((
                            position_or_push(&mut log.crossed, (pkt.flow, pkt.seq)),
                            position_or_push(&mut log.loss_nodes, spec.node),
                        ));
                        self.sim.resolve(0);
                    }
                    // Nominal outcomes for everything else: no jitter, ARQ
                    // delivers, RED takes its more likely branch. A switch
                    // holds — and, on hold since the start, never asks.
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

    /// Run this fork on to `t_end` and hand it to `sink` once per slot
    /// riding it, the delivery of the hypothetical `packet` — if there is
    /// one — stamped with that slot's send instant: the report a fork of
    /// that candidate alone logs.
    fn finish(
        &mut self,
        t_end: Time,
        discount: impl Fn(Time) -> f64,
        packet: Packet,
        riding: &[(usize, Time)],
        sink: &mut impl FnMut(Option<usize>, &mut Trajectory),
    ) {
        self.run_to(t_end, discount);
        let own = (self.log.report.deliveries.iter())
            .position(|(d, _)| (d.packet.flow, d.packet.seq) == (packet.flow, packet.seq));
        for &(slot, t_act) in riding {
            if let Some(i) = own {
                self.log.report.deliveries[i].0.packet.sent_at = t_act;
            }
            sink(Some(slot), self);
        }
    }

    /// The report as a rollout of `net` itself produces it, and the
    /// discount of each of its deliveries: `net` is the network this
    /// trajectory started from or a determinized-equivalent one, so only
    /// the delivery probabilities are its own. Each crossing multiplies
    /// 1 − p of the crossed node onto its packet, in crossing order.
    fn priced_for(&mut self, net: NetworkView<'_>) -> (&RolloutReport, &[f64]) {
        let log = &mut self.log;
        // No crossing: every probability is the 1.0 it was logged with.
        if !log.crossings.is_empty() {
            self.survive.clear();
            self.survive
                .extend(log.loss_nodes.iter().map(|&n| 1.0 - net.loss_prob(n)));
            // `crossed` is in first-crossing order: a packet's first
            // crossing is the one that finds no entry for it yet.
            self.probs.clear();
            for &(packet, node) in &log.crossings {
                match self.probs.get_mut(packet) {
                    Some(p) => *p *= self.survive[node],
                    None => self.probs.push(self.survive[node]),
                }
            }
            for ((_, p), packet) in log.report.deliveries.iter_mut().zip(&log.packet_of) {
                *p = packet.map_or(1.0, |i| self.probs[i]);
            }
        }
        (&log.report, &log.discounts)
    }
}

/// The branch-major kernel: roll `net` forward once under every candidate
/// in `sends` — `(slot, send time)`, ascending in send time — and under
/// no send at all, the hypothetical packet being `packet` sent at each
/// candidate's instant. `sink` receives each finished trajectory, to price
/// for `net` and its equivalents, with the candidate's slot — `None` for
/// the idle baseline, which comes last, after the candidates whose
/// injection left the network as it was and delivered nothing: theirs is
/// the idle trajectory too. A fork is handed over once for every
/// candidate riding it.
#[allow(clippy::too_many_arguments)]
fn roll_branch(
    scratch: &mut RolloutScratch,
    net: NetworkView<'_>,
    entry: NodeId,
    packet: Packet,
    discount: impl Fn(Time) -> f64 + Copy,
    sends: &[(usize, Time)],
    t_end: Time,
    mut sink: impl FnMut(Option<usize>, &mut Trajectory),
) {
    let RolloutScratch {
        idle,
        fork,
        cand,
        unchanged,
        riding,
        counts,
    } = scratch;
    let idle = Trajectory::refill(idle, net, &RolloutLog::default());
    // Forks are copies of the idle network, so they are determinized too.
    idle.sim.determinize();
    unchanged.clear();
    riding.clear();
    for &(slot, t_act) in sends {
        idle.run_to(t_act, discount);
        let c = Trajectory::refill(cand, idle.sim.view(), &idle.log);
        c.sim.inject(
            entry,
            Packet {
                sent_at: t_act,
                ..packet
            },
        );
        let delivered = !c.sim.deliveries().is_empty();
        if !delivered && c.sim == idle.sim {
            unchanged.push(slot);
            continue;
        }
        // The paused fork, if any, is brought to this instant: if it has
        // logged what the idle trajectory has and stands where this
        // candidate's fork starts, the packet's stamps aside, it is that
        // fork from here on.
        if let Some(paused) = fork.as_mut().filter(|_| !riding.is_empty()) {
            paused.run_to(t_act, discount);
            if !delivered
                && paused.log == idle.log
                && paused.sim.eq_but_stamps_of(&c.sim, packet.flow, packet.seq)
            {
                riding.push((slot, t_act));
                counts.forks_shared += 1;
                continue;
            }
            paused.finish(t_end, discount, packet, riding, &mut sink);
        }
        std::mem::swap(fork, cand);
        riding.clear();
        riding.push((slot, t_act));
        counts.forks_run += 1;
    }
    if let Some(paused) = fork.as_mut().filter(|_| !riding.is_empty()) {
        paused.finish(t_end, discount, packet, riding, &mut sink);
    }
    idle.run_to(t_end, discount);
    for &slot in unchanged.iter() {
        sink(Some(slot), idle);
    }
    sink(None, idle);
    counts.groups += 1;
    counts.forks_idle += unchanged.len();
}

/// The candidate-major evaluation the branch-major kernel replaced, kept
/// as the naive reference core: every candidate clones every branch and
/// simulates it from the decision instant on its own — switch timers
/// firing and holding one event at a time, every ping emitted, every
/// dropped send rolled to the horizon — with a fresh report, an
/// ordered probability map and freshly taken discounts per rollout.
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
                let discounts: Vec<f64> = report
                    .deliveries
                    .iter()
                    .map(|(d, _)| utility.delivery_discount(d.at, now))
                    .collect();
                eu += w * utility.evaluate(&report, &discounts, own_flow);
            }
            eu
        };
        let idle_eu = eu_of(None);
        let eus: Vec<f64> = cfg
            .delay_grid
            .iter()
            .map(|&delta| eu_of(Some(now + delta)))
            .collect();
        choose(now, cfg, size, branches.len(), idle_eu, &eus)
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
    use augur_elements::{
        build_model, Buffer, DelayEl, Diverter, Either, Element, Gate, GateSpec, Link, Loss,
        ModelParams, NetworkBuilder, Pinger, ReceiverEl, BACKLOG_FLOW, FIG2_ENTRY, FIG2_LOSS,
    };
    use augur_sim::{perf, BitRate, Ppm, SimRng};

    /// The kinds of small belief the kernel is checked on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Scene {
        QuietLink,
        LossyLastMile,
        PrefilledBuffer,
        IntermittentGate,
        /// An INTERMITTENT gate whose epoch divides no grid delay, so its
        /// timers fall between the candidate instants.
        OddEpochGate,
        /// A SQUAREWAVE gate that flips several times inside the horizon.
        SquareWaveGate,
        /// The cross traffic behind an EITHER in place of the gate.
        EitherDetour,
        /// One state under five loss rates, a `meta`-only twin and one
        /// other link rate: the scene whose rollouts are shared.
        LossSiblings,
        /// An INTERMITTENT gate shut from the start: the rollouts park the
        /// pinger behind it.
        ClosedGate,
        /// The entry buffer full at the decision instant: a send now is
        /// tail-dropped on arrival and its fork is the idle trajectory.
        FullBuffer,
        /// A backlog of several packets draining through a busy link, no
        /// cross traffic: a send queues behind it, and candidates between
        /// two service completions ride the earlier candidate's fork.
        Backlog,
        /// The backlog in a CoDel entry buffer with cross traffic on,
        /// CoDel's target drawn among the sojourns a send meets: there a
        /// send's enqueue instant is read, and no candidate rides.
        CoDelBacklog,
    }

    const SCENES: [Scene; 12] = [
        Scene::QuietLink,
        Scene::LossyLastMile,
        Scene::PrefilledBuffer,
        Scene::IntermittentGate,
        Scene::OddEpochGate,
        Scene::SquareWaveGate,
        Scene::EitherDetour,
        Scene::LossSiblings,
        Scene::ClosedGate,
        Scene::FullBuffer,
        Scene::Backlog,
        Scene::CoDelBacklog,
    ];

    /// The Figure-2 topology with the gate replaced by an EITHER whose
    /// switched route takes the cross traffic round the bottleneck. Node
    /// ids up to the receivers are the Figure-2 ones.
    fn either_model(params: ModelParams, epoch: Dur, initially_alt: bool) -> Network {
        let mut b = NetworkBuilder::new();
        let (pinger, _) = b.chain(vec![
            Element::Pinger(Pinger::from_rate(
                params.cross_rate,
                params.packet_size,
                FlowId::CROSS,
                Time::ZERO,
            )),
            Element::Either(Either::new(Dur::from_secs(100), epoch, initially_alt)),
            Element::Buffer(Buffer::drop_tail(params.buffer_capacity)),
            Element::Link(Link::constant(params.link_rate)),
            Element::Loss(Loss { p: params.loss }),
            Element::Diverter(Diverter { flow: FlowId::SELF }),
            Element::Receiver(ReceiverEl),
        ]);
        let either = NodeId(pinger.0 + 1);
        let diverter = NodeId(pinger.0 + 5);
        let rx_cross = b.add(Element::Receiver(ReceiverEl));
        b.connect_alt(diverter, rx_cross);
        let (detour, _) = b.chain(vec![
            Element::Delay(DelayEl::new(Dur::from_millis(40))),
            Element::Receiver(ReceiverEl),
        ]);
        b.connect_alt(either, detour);
        assert_eq!(NodeId(pinger.0 + 2), FIG2_ENTRY);
        b.build()
    }

    /// The Figure-2 topology with a CoDel entry buffer in place of the
    /// tail-drop one, its pinger on from time zero and its gate always
    /// open. Node ids are the Figure-2 ones.
    fn codel_model(params: ModelParams, target: Dur, interval: Dur) -> Network {
        let mut b = NetworkBuilder::new();
        let (pinger, _) = b.chain(vec![
            Element::Pinger(Pinger::from_rate(
                params.cross_rate,
                params.packet_size,
                FlowId::CROSS,
                Time::ZERO,
            )),
            Element::Gate(Gate::square_wave(Dur::from_secs(1_000_000_000_000), true)),
            Element::Buffer(Buffer::codel(params.buffer_capacity, target, interval)),
            Element::Link(Link::constant(params.link_rate)),
            Element::Loss(Loss { p: params.loss }),
            Element::Diverter(Diverter { flow: FlowId::SELF }),
            Element::Receiver(ReceiverEl),
        ]);
        let rx_cross = b.add(Element::Receiver(ReceiverEl));
        b.connect_alt(NodeId(pinger.0 + 5), rx_cross);
        assert_eq!(NodeId(pinger.0 + 2), FIG2_ENTRY);
        b.prefill(FIG2_ENTRY, params.initial_fullness, params.packet_size);
        b.build()
    }

    /// `net` warmed up to `now` with `in_flight` of the sender's own
    /// packets sent at time zero, so rollouts start from queues, a busy
    /// link and mid-period timers.
    fn warmed_up(mut net: Network, in_flight: u64, now: Time) -> Network {
        for seq in 0..in_flight {
            net.inject(
                FIG2_ENTRY,
                Packet::new(FlowId::SELF, seq, Bits::new(12_000), Time::ZERO),
            );
        }
        while let Step::Pending(_) = net.run_until(now) {
            net.resolve(0);
        }
        let _ = net.drain_logs();
        net
    }

    /// Top the entry buffer up to capacity at `net.now()` with backlog
    /// packets, numbered clear of the prefill's: the first one it has no
    /// room for is tail-dropped, and leaves nothing but its drop record.
    fn fill_entry_buffer(net: &mut Network) {
        for seq in 1_000.. {
            let backlog = Packet::new(BACKLOG_FLOW, seq, Bits::new(12_000), net.now());
            net.inject(FIG2_ENTRY, backlog);
            if !net.take_drops().is_empty() {
                break;
            }
        }
    }

    /// `rng`-drawn hypotheses of one scene at a common `now`: six
    /// unrelated ones, or the seven of [`Scene::LossSiblings`].
    fn seeded_branches(scene: Scene, rng: &mut SimRng) -> (Vec<Hypothesis<ModelParams>>, Time) {
        let now = Time::from_millis(rng.uniform_u64(700, 3_300));
        if scene == Scene::LossSiblings {
            return (loss_siblings(now, rng), now);
        }
        let mut branches = Vec::new();
        for _ in 0..6 {
            let link_bps = 1_000 * rng.uniform_u64(10, 16);
            let cross_on = !matches!(scene, Scene::QuietLink | Scene::Backlog);
            let params = ModelParams {
                link_rate: BitRate::from_bps(link_bps),
                cross_rate: BitRate::from_bps(link_bps * rng.uniform_u64(4, 7) / 10),
                gate: match scene {
                    Scene::IntermittentGate | Scene::OddEpochGate | Scene::ClosedGate => {
                        GateSpec::Intermittent {
                            mtts: Dur::from_secs(100),
                            epoch: match scene {
                                Scene::OddEpochGate => Dur::from_millis(370),
                                _ => Dur::from_secs(1),
                            },
                            initially_connected: scene != Scene::ClosedGate
                                && rng.uniform_u64(0, 1) == 1,
                        }
                    }
                    Scene::SquareWaveGate => GateSpec::SquareWave {
                        half_period: Dur::from_millis(100 * rng.uniform_u64(21, 45)),
                        initially_connected: rng.uniform_u64(0, 1) == 1,
                    },
                    _ => GateSpec::AlwaysOn,
                },
                loss: match scene {
                    Scene::LossyLastMile => Ppm::new(50_000 * rng.uniform_u64(1, 6) as u32),
                    Scene::IntermittentGate
                    | Scene::OddEpochGate
                    | Scene::SquareWaveGate
                    | Scene::EitherDetour
                    | Scene::ClosedGate
                    | Scene::FullBuffer
                    | Scene::Backlog
                    | Scene::CoDelBacklog => Ppm::new(50_000 * rng.uniform_u64(0, 2) as u32),
                    _ => Ppm::ZERO,
                },
                buffer_capacity: Bits::new(96_000),
                initial_fullness: match scene {
                    Scene::PrefilledBuffer | Scene::FullBuffer => {
                        Bits::new(12_000 * rng.uniform_u64(1, 8))
                    }
                    Scene::Backlog | Scene::CoDelBacklog => {
                        Bits::new(12_000 * rng.uniform_u64(3, 7))
                    }
                    _ => Bits::ZERO,
                },
                packet_size: Bits::new(12_000),
                cross_active: cross_on,
            };
            let net = match scene {
                Scene::EitherDetour => {
                    either_model(params, Dur::from_millis(430), rng.uniform_u64(0, 1) == 1)
                }
                // A send waits about a second per packet ahead of it.
                Scene::CoDelBacklog => codel_model(
                    params,
                    Dur::from_millis(rng.uniform_u64(500, 3_000)),
                    Dur::from_millis(rng.uniform_u64(100, 1_000)),
                ),
                _ => build_model(params).net,
            };
            let mut net = warmed_up(net, rng.uniform_u64(0, 3), now);
            if scene == Scene::FullBuffer {
                fill_entry_buffer(&mut net);
            }
            branches.push(Hypothesis {
                net,
                meta: params,
                weight: 0.1 + rng.uniform_f64(),
            });
        }
        (branches, now)
    }

    /// The loss rate, in ppm, of each branch [`loss_siblings`] builds.
    /// Branches 1, 2, 3 and 5 (the `meta`-only twin of 2) share one
    /// rollout; 6 has another link rate; p = 0 and p = 1 stand alone.
    const SIBLING_LOSS_PPM: [u32; 7] = [0, 50_000, 100_000, 200_000, 1_000_000, 100_000, 100_000];
    const SIBLING_GROUPS: usize = 4;

    /// The posterior shape the paper prior leaves behind: one warmed-up
    /// state whose hypotheses differ only in the last-mile loss rate,
    /// plus a twin of one of them under another `meta` and one branch
    /// that really is another network. Weights are drawn per branch and
    /// the list starts at a drawn position, so no group is contiguous or
    /// led by branch 0 by construction.
    fn loss_siblings(now: Time, rng: &mut SimRng) -> Vec<Hypothesis<ModelParams>> {
        let link_bps = 1_000 * rng.uniform_u64(10, 16);
        let in_flight = rng.uniform_u64(1, 3);
        let base = ModelParams {
            link_rate: BitRate::from_bps(link_bps),
            cross_rate: BitRate::from_bps(link_bps * rng.uniform_u64(4, 7) / 10),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::new(12_000 * rng.uniform_u64(0, 4)),
            packet_size: Bits::new(12_000),
            cross_active: true,
        };
        let mut branches: Vec<Hypothesis<ModelParams>> = SIBLING_LOSS_PPM
            .iter()
            .enumerate()
            .map(|(i, &ppm)| {
                let params = ModelParams {
                    loss: Ppm::new(ppm),
                    link_rate: BitRate::from_bps(link_bps + if i == 6 { 1_000 } else { 0 }),
                    ..base
                };
                Hypothesis {
                    net: warmed_up(build_model(params).net, in_flight, now),
                    // The twin is branch 2's network under a `meta` of
                    // its own, as `compact()` would keep it.
                    meta: ModelParams {
                        cross_active: i != 5,
                        ..params
                    },
                    weight: 0.1 + rng.uniform_f64(),
                }
            })
            .collect();
        assert!(branches[5].net == branches[2].net && branches[5].meta != branches[2].meta);
        branches.rotate_left(rng.uniform_u64(0, 6) as usize);
        branches
    }

    /// The paper's utility less a charge on the sender's own packets'
    /// delay: the one utility here that reads the hypothetical packet's
    /// `sent_at`, which a candidate riding another's fork must have
    /// restamped.
    struct OwnDelayCharged(DiscountedThroughput);

    impl Utility for OwnDelayCharged {
        fn delivery_discount(&self, at: Time, decision_time: Time) -> f64 {
            self.0.delivery_discount(at, decision_time)
        }

        fn evaluate(&self, report: &RolloutReport, discounts: &[f64], own_flow: FlowId) -> f64 {
            let mut u = self.0.evaluate(report, discounts, own_flow);
            for (d, p) in &report.deliveries {
                if d.packet.flow == own_flow {
                    u -= 100.0 * p * d.delay().as_secs_f64();
                }
            }
            u
        }
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
        let default = PlannerConfig::default();
        // Unsorted, and 250 ms twice: the second rides the first's fork
        // whatever the buffer, so shares are counted on `default` alone.
        let unsorted = PlannerConfig {
            delay_grid: [0, 2_000, 250, 4_000, 100, 250, 1_000]
                .map(Dur::from_millis)
                .to_vec(),
            ..PlannerConfig::default()
        };
        let paper = DiscountedThroughput {
            latency_penalty: 0.01,
            ..DiscountedThroughput::with_alpha(0.7)
        };
        let own_delay = OwnDelayCharged(paper);
        let size = Bits::new(12_000);
        let mut some_send = false;
        for scene in SCENES {
            let mut shared = 0;
            for seed in 0..4 {
                let mut rng = SimRng::seed_from_u64(seed);
                let (branches, now) = seeded_branches(scene, &mut rng);
                // Five planning branches of six — the subsample's own
                // weights are part of the input — or every sibling.
                let keep = match scene {
                    Scene::LossSiblings => branches.len(),
                    _ => 5,
                };
                let weighted = subsample_weighted(&branches, keep);
                let utilities: [&dyn Utility; 2] = [&paper, &own_delay];
                for (cfg, utility) in [&default, &unsorted]
                    .into_iter()
                    .flat_map(|cfg| utilities.map(|u| (cfg, u)))
                {
                    let before = perf::snapshot();
                    let got = decide_weighted(
                        &weighted,
                        now,
                        FIG2_ENTRY,
                        cfg,
                        utility,
                        FlowId::SELF,
                        9,
                        size,
                    );
                    let clones = perf::snapshot().since(&before).state_clones;
                    let want = reference::decide_weighted(
                        &weighted,
                        now,
                        FIG2_ENTRY,
                        cfg,
                        utility,
                        FlowId::SELF,
                        9,
                        size,
                    );
                    assert_same_decision(&got, &want, &format!("{scene:?} seed {seed}"));
                    some_send |= got.action != Action::Idle;
                    // Every group answers every candidate once.
                    let r = got.rollouts;
                    assert_eq!(
                        r.forks_run + r.forks_idle + r.forks_shared,
                        r.groups * cfg.delay_grid.len(),
                        "{scene:?} seed {seed}"
                    );
                    if std::ptr::eq(cfg, &default) {
                        shared += r.forks_shared;
                    }
                    // One idle trajectory and one fork per candidate, per
                    // rolled group: seven siblings cost four groups' worth.
                    if scene == Scene::LossSiblings {
                        assert!(SIBLING_GROUPS < weighted.len());
                        assert_eq!(
                            clones,
                            ((1 + cfg.delay_grid.len()) * SIBLING_GROUPS) as u64,
                            "seed {seed}"
                        );
                    }
                }
            }
            match scene {
                Scene::Backlog => assert!(shared > 0, "no candidate rode a fork"),
                Scene::CoDelBacklog => assert_eq!(shared, 0, "a CoDel enqueue instant ignored"),
                _ => {}
            }
        }
        assert!(
            some_send,
            "every scene idled: the sends were never compared"
        );
    }

    #[test]
    fn a_memo_serves_the_decision_planning_afresh_makes() {
        let cfg = PlannerConfig::default();
        let utility = DiscountedThroughput::with_alpha(0.7);
        let size = Bits::new(12_000);
        let per_class = 1 + cfg.delay_grid.len() as u64;
        let now = Time::from_millis(1_700);
        // Sibling sets of one instant: in each, four members share a state
        // under four structures.
        let sets: Vec<Vec<Hypothesis<ModelParams>>> = (0..4)
            .map(|seed| loss_siblings(now, &mut SimRng::seed_from_u64(seed)))
            .collect();
        let mut memo = PlanMemo::default();
        // Classes served and rolled on each pass.
        let mut classes = [(0, 0); 2];
        for pass in &mut classes {
            for set in &sets {
                // A part of the set, then all of it, then a packet of
                // another sequence number: the second finds some members
                // of a class and not others, the third none.
                for (keep, seq) in [(4, 9), (set.len(), 9), (set.len(), 10)] {
                    let weighted = subsample_weighted(&set[..keep], keep);
                    let fresh = |memo| {
                        let (entry, own) = (FIG2_ENTRY, FlowId::SELF);
                        let before = perf::snapshot();
                        let d = plan_classes(
                            &weighted, now, entry, &cfg, &utility, own, seq, size, memo,
                        );
                        (d, perf::snapshot().since(&before).state_clones)
                    };
                    let (want, want_clones) = fresh(None);
                    let (got, got_clones) = fresh(Some(&mut memo));
                    assert_same_decision(&got, &want, &format!("{keep} members, seq {seq}"));
                    assert_eq!(got.members, want.members);
                    assert_eq!(got.rollouts, want.rollouts);
                    // Every class is served or rolled, and a served class
                    // clones nothing.
                    assert_eq!(want_clones, want.rollouts.groups as u64 * per_class);
                    assert_eq!(got_clones % per_class, 0);
                    let rolled = (got_clones / per_class) as usize;
                    pass.0 += want.rollouts.groups - rolled;
                    pass.1 += rolled;
                }
            }
        }

        // A utility that reads the packet's sequence number prices a send
        // at seq 9 and at seq 10 apart, so a memo that filed both under
        // one key would serve seq 9's utilities to seq 10.
        let by_seq = OddSeqDoubled(utility);
        let mut memo = PlanMemo::default();
        for set in &sets {
            let weighted = subsample_weighted(set, set.len());
            let plan = |seq, memo: Option<&mut PlanMemo>| {
                let (entry, own) = (FIG2_ENTRY, FlowId::SELF);
                plan_classes(&weighted, now, entry, &cfg, &by_seq, own, seq, size, memo)
            };
            let (odd, even) = (plan(9, None), plan(10, None));
            let eus = |d: &Decision| d.evaluations.iter().map(|e| e.1).collect::<Vec<_>>();
            assert_ne!(eus(&odd), eus(&even));
            for (seq, want) in [(9, odd), (10, even)] {
                let got = plan(seq, Some(&mut memo));
                assert_same_decision(&got, &want, &format!("seq {seq}, utility reading it"));
            }
        }

        // On the first pass each full set's decision is served the 6
        // classes whose every member the partial one rolled, 42 classes in
        // all; the second pass serves every class.
        assert_eq!(classes, [(6, 36), (42, 0)]);
    }

    /// The paper's utility with the sender's own odd-numbered packets
    /// worth twice as much: a utility whose rows depend on `seq`.
    struct OddSeqDoubled(DiscountedThroughput);

    impl Utility for OddSeqDoubled {
        fn delivery_discount(&self, at: Time, decision_time: Time) -> f64 {
            self.0.delivery_discount(at, decision_time)
        }

        fn evaluate(&self, report: &RolloutReport, discounts: &[f64], own_flow: FlowId) -> f64 {
            let mut u = self.0.evaluate(report, discounts, own_flow);
            for ((d, p), discount) in report.deliveries.iter().zip(discounts) {
                if d.packet.flow == own_flow && d.packet.seq % 2 == 1 {
                    u += p * d.packet.size.as_f64() * discount;
                }
            }
            u
        }
    }

    #[test]
    fn rollout_matches_reference_rollout() {
        // The reference fires every ping and rolls every dropped send: it
        // delivers what the kernel does, packet for packet.
        for scene in [
            Scene::LossyLastMile,
            Scene::LossSiblings,
            Scene::ClosedGate,
            Scene::FullBuffer,
        ] {
            let mut rng = SimRng::seed_from_u64(7);
            let (branches, now) = seeded_branches(scene, &mut rng);
            let t_end = now + Dur::from_secs(16);
            for h in &branches {
                for send_at in [None, Some(now), Some(now + Dur::from_millis(1_500))] {
                    let size = Bits::new(12_000);
                    let got = rollout(&h.net, FIG2_ENTRY, FlowId::SELF, send_at, t_end, 9, size);
                    let want = reference::rollout(
                        &h.net,
                        FIG2_ENTRY,
                        FlowId::SELF,
                        send_at,
                        t_end,
                        9,
                        size,
                    );
                    assert_eq!(got.deliveries.len(), want.deliveries.len());
                    // Every packet crosses the last-mile LOSS node once:
                    // p = 1 delivers nothing, any other rate prices it all.
                    let survive = 1.0 - h.net.view().loss_prob(FIG2_LOSS);
                    assert!(got.deliveries.iter().all(|(_, p)| *p == survive));
                    if matches!(scene, Scene::LossyLastMile | Scene::LossSiblings) {
                        assert_eq!(got.deliveries.is_empty(), h.meta.loss.is_one());
                    }
                    for (g, w) in got.deliveries.iter().zip(&want.deliveries) {
                        assert_eq!(g.0, w.0);
                        assert_eq!(g.1.to_bits(), w.1.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn a_rollout_holds_memoryless_gates_and_lets_square_waves_flip() {
        let size = Bits::new(12_000);
        let idle_rollout = |net: &Network, now: Time| {
            let t_end = now + Dur::from_secs(16);
            rollout(net, FIG2_ENTRY, FlowId::SELF, None, t_end, 9, size)
        };
        let mut rng = SimRng::seed_from_u64(3);
        for scene in [
            Scene::IntermittentGate,
            Scene::OddEpochGate,
            Scene::SquareWaveGate,
        ] {
            let (branches, now) = seeded_branches(scene, &mut rng);
            for h in &branches {
                let report = idle_rollout(&h.net, now);
                // The pings emitted after `now` that were delivered. The
                // pinger numbers every emission and only the gate stops
                // one, so a gap in the numbers is a ping shut out.
                let let_in: Vec<u64> = report
                    .deliveries
                    .iter()
                    .filter(|(d, _)| d.packet.flow == FlowId::CROSS && d.packet.sent_at > now)
                    .map(|(d, _)| d.packet.seq)
                    .collect();
                let shut_out = let_in.windows(2).any(|w| w[1] != w[0] + 1);
                match h.meta.gate {
                    // The warm-up held the initial position and so does
                    // the rollout: sixteen seconds of one state.
                    GateSpec::Intermittent {
                        initially_connected,
                        ..
                    } => assert_eq!(
                        (!let_in.is_empty(), shut_out),
                        (initially_connected, false),
                        "{scene:?}"
                    ),
                    // At most 4.5 s per half-period: both states are met.
                    _ => assert!(!let_in.is_empty() && shut_out, "{scene:?}"),
                }
            }
        }
    }

    /// `decide_weighted` over `branches` with equal weights, and the
    /// events it processed.
    fn decide_counting_events(
        branches: &[Hypothesis<ModelParams>],
        now: Time,
        cfg: &PlannerConfig,
    ) -> (Decision, u64) {
        let weighted = subsample_weighted(branches, branches.len());
        let utility = DiscountedThroughput::with_alpha(0.7);
        let before = perf::snapshot();
        let size = Bits::new(12_000);
        let d = decide_weighted(
            &weighted,
            now,
            FIG2_ENTRY,
            cfg,
            &utility,
            FlowId::SELF,
            9,
            size,
        );
        (d, perf::snapshot().since(&before).events_processed)
    }

    #[test]
    fn a_closed_gate_costs_no_ping_and_a_dropped_send_no_fork() {
        let cfg = PlannerConfig::default();
        // Behind a gate held shut, a decision processes exactly the events
        // it processes where the pinger never starts — and decides the
        // same, bit for bit — although the reference fires every ping.
        for in_flight in 0..3 {
            let now = Time::from_millis(1_700);
            let branch = |cross_active| {
                let params = ModelParams {
                    link_rate: BitRate::from_bps(12_000),
                    cross_rate: BitRate::from_bps(8_400),
                    gate: GateSpec::Intermittent {
                        mtts: Dur::from_secs(100),
                        epoch: Dur::from_secs(1),
                        initially_connected: false,
                    },
                    loss: Ppm::from_prob(0.1),
                    buffer_capacity: Bits::new(96_000),
                    initial_fullness: Bits::new(24_000),
                    packet_size: Bits::new(12_000),
                    cross_active,
                };
                let net = warmed_up(build_model(params).net, in_flight, now);
                [Hypothesis {
                    net,
                    meta: params,
                    weight: 1.0,
                }]
            };
            let (closed, silent) = (branch(true), branch(false));
            let (got, events) = decide_counting_events(&closed, now, &cfg);
            let (want, silent_events) = decide_counting_events(&silent, now, &cfg);
            assert_same_decision(&got, &want, "closed gate against no cross traffic");
            assert_eq!(events, silent_events, "{in_flight} in flight");
            let t_end = now + cfg.horizon;
            let reference_events = |net: &Network| {
                let before = perf::snapshot();
                reference::rollout(
                    net,
                    FIG2_ENTRY,
                    FlowId::SELF,
                    None,
                    t_end,
                    9,
                    Bits::new(12_000),
                );
                perf::snapshot().since(&before).events_processed
            };
            assert!(
                reference_events(&closed[0].net) >= reference_events(&silent[0].net) + 11,
                "no ping to park"
            );
        }
        // A send into a full buffer is dropped on arrival: deciding
        // between it and idling costs one idle trajectory, where rolling
        // its fork would cost two.
        let send_now = PlannerConfig {
            delay_grid: vec![Dur::ZERO],
            ..PlannerConfig::default()
        };
        for seed in 0..4 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (branches, now) = seeded_branches(Scene::FullBuffer, &mut rng);
            for h in &branches {
                let (_, events) = decide_counting_events(std::slice::from_ref(h), now, &send_now);
                let before = perf::snapshot();
                let t_end = now + send_now.horizon;
                rollout(
                    &h.net,
                    FIG2_ENTRY,
                    FlowId::SELF,
                    None,
                    t_end,
                    9,
                    Bits::new(12_000),
                );
                let idle_events = perf::snapshot().since(&before).events_processed;
                assert!(idle_events > 0, "seed {seed}");
                assert_eq!(
                    events, idle_events,
                    "seed {seed}: the dropped send was rolled"
                );
            }
        }
    }

    #[test]
    fn a_key_collision_never_merges_distinct_rollouts() {
        // Every network under one key: equality alone must form the groups.
        for scene in [Scene::LossyLastMile, Scene::LossSiblings] {
            let mut rng = SimRng::seed_from_u64(11);
            let (branches, _) = seeded_branches(scene, &mut rng);
            let net_of = |b: usize| branches[b].net.view();
            let honest = rollout_groups(branches.len(), net_of, NetworkView::determinized_key);
            let collided = rollout_groups(branches.len(), net_of, |_| 0);
            assert_eq!(collided, honest, "{scene:?}");
            for &(leader, b) in &collided {
                assert!(net_of(leader).determinized_eq(net_of(b)));
            }
            let leaders: Vec<usize> = collided
                .iter()
                .filter(|&&(l, b)| l == b)
                .map(|&(l, _)| l)
                .collect();
            for (i, &a) in leaders.iter().enumerate() {
                for &b in &leaders[i + 1..] {
                    assert!(!net_of(a).determinized_eq(net_of(b)), "{scene:?}");
                }
            }
            if scene == Scene::LossSiblings {
                assert_eq!(leaders.len(), SIBLING_GROUPS);
            }
        }
    }

    #[test]
    fn a_filters_dead_particles_are_not_planned_over() {
        use augur_elements::FIG2_RX_SELF;
        use augur_inference::{Observation, ParticleFilter, Population};
        // Two link rates, three to one; the truth is the likelier. One
        // ACK kills every particle of the other rate — about a quarter of
        // the population, too few to trigger the resample that would
        // replace them.
        let hypothesis = |link_bps: u64, weight: f64| {
            let params = ModelParams {
                link_rate: BitRate::from_bps(link_bps),
                cross_rate: BitRate::from_bps(8_400),
                gate: GateSpec::AlwaysOn,
                loss: Ppm::from_prob(0.1),
                buffer_capacity: Bits::new(96_000),
                initial_fullness: Bits::ZERO,
                packet_size: Bits::new(12_000),
                cross_active: false,
            };
            let net = build_model(params).net;
            Hypothesis {
                net,
                meta: params,
                weight,
            }
        };
        let prior = [hypothesis(12_000, 3.0), hypothesis(10_000, 1.0)];
        let mut filter = ParticleFilter::from_population(
            &Population::new(prior, Some(FIG2_LOSS)),
            FIG2_ENTRY,
            FIG2_RX_SELF,
            64,
            7,
        );
        let size = Bits::new(12_000);
        filter.inject(Packet::new(FlowId::SELF, 0, size, Time::ZERO));
        let (seq, at) = (0, Time::from_secs(1));
        filter
            .advance(Time::from_secs(2), &[Observation { seq, at }])
            .unwrap();
        let live: Vec<_> = (filter.members())
            .filter(|h| h.weight > 0.0)
            .map(|h| h.to_hypothesis())
            .collect();
        assert!((32..64).contains(&live.len()), "{} live", live.len());

        let cfg = PlannerConfig::default();
        let utility = DiscountedThroughput::with_alpha(1.0);
        let before = perf::snapshot();
        let got = decide(&filter, &cfg, &utility, FlowId::SELF, 1, size);
        let between = perf::snapshot();
        let want = decide_weighted(
            &subsample_weighted(&live, cfg.max_planning_branches),
            filter.now(),
            filter.entry(),
            &cfg,
            &utility,
            FlowId::SELF,
            1,
            size,
        );
        let after = perf::snapshot();
        assert_same_decision(&got, &want, "dead particles planned over");
        assert_eq!(got.members, live.len());
        assert_eq!(
            between.since(&before).state_clones,
            after.since(&between).state_clones,
            "dead particles rolled out"
        );
    }

    #[test]
    #[should_panic(expected = "send at 12.000000s exceeds rollout end 10.000000s")]
    fn rollout_rejects_a_send_beyond_its_end() {
        rollout(
            &quiet_model(0.0, 0),
            FIG2_ENTRY,
            FlowId::SELF,
            Some(Time::from_secs(12)),
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
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
