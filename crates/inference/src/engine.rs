//! The seam between a belief engine and everything above it.
//!
//! The paper gives the sender two jobs — maintain a posterior, then plan
//! over it — and says the first is replaceable ("a more sophisticated and
//! scalable scheme would use the approximate techniques of Bayesian
//! inference", §3.2). [`Engine`] is that replaceable part as the sender,
//! the planner and the scenario runner see it: a weighted set of
//! [`Member`]s that can be advanced over a window of acknowledgments and
//! told about a transmission. [`crate::Belief`] and
//! [`crate::ParticleFilter`] implement it; nothing above this crate names
//! an engine kind except where it builds one.
//!
//! What the two engines do identically is stated here once: the
//! last-mile loss fold (`fold`) and the posterior snapshot
//! (`snapshot`).

use crate::exact::BeliefError;
use crate::hypothesis::{effective_count, Member};
use crate::observe::{Observation, ObservationIndex};
use augur_elements::{ChoiceKind, ChoiceSpec, NodeId};
use augur_obs::EventKind;
use augur_sim::{FlowId, Packet, StableHasher, Time};
use std::hash::Hash;

/// A posterior over network configurations, as its users see it.
pub trait Engine {
    /// The metadata each member carries (its prior grid point).
    type Meta: Clone;

    /// Advance every member to `until`, conditioning on the window's
    /// acknowledgments. Fails when no member is consistent with them.
    fn advance(&mut self, until: Time, obs: &[Observation]) -> Result<(), BeliefError>;

    /// Tell the posterior that the sender transmitted `pkt` now.
    fn inject(&mut self, pkt: Packet);

    /// The weighted members, branches or particles, in order: views that
    /// read each member's network in place, never a copy of it. A member of
    /// weight zero is dead (a particle awaiting resampling) and carries no
    /// mass.
    fn members(&self) -> impl ExactSizeIterator<Item = Member<'_, Self::Meta>> + Clone;

    /// End of the last advanced window.
    fn now(&self) -> Time;

    /// Node where the sender's packets enter every member.
    fn entry(&self) -> NodeId;

    /// Posterior expectation of a numeric statistic.
    fn expected<F: Fn(&Member<'_, Self::Meta>) -> f64>(&self, f: F) -> f64 {
        self.members().map(|h| h.weight * f(&h)).sum()
    }

    /// The maximum-a-posteriori member.
    fn map_estimate(&self) -> Member<'_, Self::Meta> {
        self.members()
            .max_by(|a, b| a.weight.total_cmp(&b.weight))
            .expect("a posterior is never empty")
    }

    /// Posterior marginal of an arbitrary statistic of the member.
    ///
    /// The return order is deterministic: descending weight, ties broken
    /// by the [`StableHasher`] fingerprint of the key (the keys are only
    /// `Eq + Hash`, not `Ord`), never by `HashMap` iteration order.
    fn marginal<K: Eq + Hash, F: Fn(&Member<'_, Self::Meta>) -> K>(&self, f: F) -> Vec<(K, f64)> {
        #[expect(
            clippy::disallowed_types,
            reason = "D003: keys are Eq + Hash, not Ord; drained into a Vec re-sorted by \
                      (weight desc, StableHasher fingerprint), so iteration order never \
                      escapes (marginal_order_is_deterministic_under_weight_ties)"
        )]
        let mut acc: std::collections::HashMap<K, f64> = std::collections::HashMap::new();
        for h in self.members() {
            *acc.entry(f(&h)).or_insert(0.0) += h.weight;
        }
        let mut v: Vec<(u64, K, f64)> = acc
            .into_iter()
            .map(|(k, w)| (StableHasher::hash_of(&k), k, w))
            .collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(_, k, w)| (k, w)).collect()
    }

    /// Effective member count, `1/Σw²`.
    fn effective(&self) -> f64 {
        effective_count(self.members().map(|h| h.weight))
    }
}

/// The last-mile loss fold.
///
/// When the LOSS element sits at the *last mile* (nothing stateful
/// downstream — the paper's own design point: "if stochastic loss is
/// assumed to occur only at the 'last mile' … then the consequences of
/// stochastic loss do not linger"), the two-way fork plus immediate
/// conditioning collapses into a single weight multiplication:
///
/// * the window's observations contain an ACK for this packet at exactly
///   this instant → resolve "delivered", weight × (1 − p);
/// * otherwise → resolve "lost", weight × p.
///
/// Cross-traffic packets at the same node are invisible to the sender and
/// their fate leaves no state behind, so they are marginalized (resolved
/// "delivered" with unchanged weight). Both folds are exact.
///
/// `last_mile` is the fold node the engine's prior was seated for;
/// `fold_own` is false for the sender's own packet mid-inject (its ACK
/// cannot have arrived yet) and under the ABL-2 ablation. Returns the option to resolve and the
/// factor to weight it by, or `None` when the choice is not foldable: the
/// exact engine then forks, the filter samples.
pub(crate) fn fold(
    spec: &ChoiceSpec,
    last_mile: Option<NodeId>,
    fold_own: bool,
    idx: &ObservationIndex,
) -> Option<(usize, f64)> {
    if spec.kind != ChoiceKind::LossFate || Some(spec.node) != last_mile {
        return None;
    }
    let pkt = spec.packet.expect("loss fate carries its packet");
    if pkt.flow != FlowId::SELF {
        return Some((0, 1.0));
    }
    if !fold_own {
        return None;
    }
    let p = spec.p1.prob();
    Some(match idx.time_of(pkt.seq) {
        Some(t) if t == spec.at => (0, 1.0 - p),
        _ => (1, p),
    })
}

/// Publish a posterior snapshot event if the cadence came due in
/// `(prev, until]`: live member count, diversity, entropy of the
/// normalized weights, and the weighted link-rate marginal. Pure reads —
/// no counters or RNG are touched, so arming snapshots cannot perturb a
/// run.
pub(crate) fn snapshot<'a, M: 'a>(
    members: impl Iterator<Item = Member<'a, M>> + Clone,
    prev: Time,
    until: Time,
) {
    if !augur_obs::snapshot_due(prev, until) {
        return;
    }
    let mut live = 0usize;
    let mut entropy_bits = 0.0;
    let mut rate_bps = 0.0;
    for h in members.clone() {
        if h.weight > 0.0 {
            live += 1;
            entropy_bits -= h.weight * h.weight.log2();
            rate_bps += h.weight * h.net.first_link_rate_bps();
        }
    }
    augur_obs::emit_snapshot(
        until,
        EventKind::Snapshot {
            flow: augur_obs::current_flow(),
            branches: live,
            effective: effective_count(members.map(|h| h.weight)),
            entropy_bits,
            rate_bps,
        },
    );
}
