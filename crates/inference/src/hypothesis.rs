//! Hypotheses and members: weighted candidate network configurations.
//!
//! "The sender maintains a probability distribution of the possible states
//! that the network could be in" (§3). A [`Hypothesis`] is one such
//! candidate, owned: a complete network (parameters *and* dynamic state —
//! queue contents, gate position, in-service packet) plus a probability
//! weight and a metadata record `M` naming the prior grid point it descends
//! from. `M` is for posterior reporting only — every parameter the planner
//! needs, the loss rate included, is in the network. Priors are lists of
//! hypotheses, and so is the particle filter's population.
//!
//! The exact belief stores its members in a [`Population`] instead: the
//! network *states* apart from the *members* standing on them, each member
//! with its own parameters, meta and weight, so that members whose
//! networks differ only in the last-mile loss rate share one state (see
//! [`crate::exact`] for the rule). Readers of either engine see a member
//! as a [`Member`] view, its network read through its own structure.
//!
//! [`Population::compact`] hashes each member once (with [`StableHasher`])
//! — the part of the identity stream its state's members share, once per
//! state — and moves it once, and keeps equal networks of different `M`
//! apart.

use augur_elements::{Network, NetworkStructure, NetworkView, NodeId};
use augur_sim::StableHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One weighted network configuration, owning its network.
#[derive(Debug, Clone)]
pub struct Hypothesis<M> {
    /// The modeled network, including dynamic state.
    pub net: Network,
    /// Static metadata (the prior grid point this branch descends from).
    pub meta: M,
    /// Probability weight. Within a belief, weights sum to one after each
    /// update ("the probabilities of all remaining configurations are
    /// increased so that they still sum to unity", §3.2).
    pub weight: f64,
}

impl<M: Clone> Hypothesis<M> {
    /// This hypothesis as a member view.
    pub fn member(&self) -> Member<'_, M> {
        Member {
            net: self.net.view(),
            meta: self.meta.clone(),
            weight: self.weight,
        }
    }
}

/// One weighted member of a posterior as its readers see it: its network
/// borrowed — never copied — through the member's own structure, its
/// meta and its weight. A member of weight zero is dead (a particle
/// awaiting resampling) and carries no mass.
#[derive(Debug, Clone)]
pub struct Member<'a, M> {
    /// The member's network.
    pub net: NetworkView<'a>,
    /// Static metadata (the prior grid point this member descends from).
    pub meta: M,
    /// Probability weight.
    pub weight: f64,
}

impl<M: Clone> Member<'_, M> {
    /// An owned copy of the member: one state clone.
    pub fn to_hypothesis(&self) -> Hypothesis<M> {
        Hypothesis {
            net: self.net.to_network(),
            meta: self.meta.clone(),
            weight: self.weight,
        }
    }
}

/// A member as a [`Population`] stores it: its own structure (its
/// parameters, the fold-node loss rate included), its meta, its weight and
/// the index of the state it stands on.
#[derive(Debug, Clone)]
pub(crate) struct Record<M> {
    pub(crate) structure: Arc<NetworkStructure>,
    pub(crate) meta: M,
    pub(crate) weight: f64,
    pub(crate) state: usize,
}

/// Weighted members over shared network states: the exact belief's
/// storage.
///
/// A state is one network state; every member standing on it is that
/// state read under the member's own structure. The members of one state
/// are `==` but for the probability of the LOSS element at `fold` (none
/// of them 1): states are formed that way by [`Population::new`], and
/// descent keeps them so.
#[derive(Debug, Clone)]
pub struct Population<M> {
    /// The distinct network states. Each is the network of one of its
    /// members, one whose loss rate at `fold` is fractional if any is: a
    /// state runs with a structure that raises every choice any of its
    /// members meets.
    pub(crate) states: Vec<Network>,
    pub(crate) members: Vec<Record<M>>,
    /// The LOSS node whose probability members of one state may differ in.
    pub(crate) fold: Option<NodeId>,
}

#[cfg(test)]
thread_local! {
    /// How often this thread has hashed a state's shared head and a
    /// member's own tail in [`Population::keyed`].
    static HASHED: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

impl<M: Clone + Eq + Hash> Population<M> {
    /// Seat the hypotheses of `prior` on shared states, keeping their
    /// order. Two share a state iff their networks are `==` but for the
    /// probability of the LOSS element at `fold` and neither probability
    /// is 1; with no `fold`, iff they are `==`. The classes are formed as
    /// [`augur_sim::classes`] forms them, on a key that leaves that
    /// probability out, so a key collision never makes a wrong share.
    pub fn new(prior: Vec<Hypothesis<M>>, fold: Option<NodeId>) -> Population<M> {
        let rate = |i: usize| fold.map(|f| prior[i].net.view().loss_rate(f));
        let below_one = |i: usize| rate(i).is_some_and(|p| !p.is_one());
        let fractional = |i: usize| rate(i).is_some_and(|p| !p.is_zero() && !p.is_one());
        let classes = augur_sim::classes(
            prior.len(),
            |i| match fold {
                Some(f) => prior[i].net.view().key_but_loss_at(f),
                // `==` implies equal determinized keys.
                None => prior[i].net.determinized_key(),
            },
            |a, b| match fold {
                Some(f) => {
                    below_one(a)
                        && below_one(b)
                        && (prior[a].net.view()).eq_but_loss_at(prior[b].net.view(), f)
                }
                None => prior[a].net == prior[b].net,
            },
        );
        // States in the order of their first members, each the network of
        // its first member with a fractional rate, else of its first.
        let mut state_of = vec![0; prior.len()];
        let mut reps = Vec::new();
        for class in classes.chunk_by(|a, b| a.0 == b.0) {
            for &(_, i) in class {
                state_of[i] = reps.len();
            }
            let mut members = class.iter().map(|&(_, i)| i);
            reps.push(members.find(|&i| fractional(i)).unwrap_or(class[0].0));
        }
        let mut states: Vec<Option<Network>> = (0..reps.len()).map(|_| None).collect();
        let members = prior
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let state = state_of[i];
                let structure = Arc::clone(h.net.shared_structure());
                if reps[state] == i {
                    states[state] = Some(h.net);
                }
                Record {
                    structure,
                    meta: h.meta,
                    weight: h.weight,
                    state,
                }
            })
            .collect();
        Population {
            states: states
                .into_iter()
                .map(|s| s.expect("every state is some member's network"))
                .collect(),
            members,
            fold,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff there are no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct states the members stand on.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The members in order, each its state under its own structure.
    pub fn members(&self) -> impl ExactSizeIterator<Item = Member<'_, M>> + Clone {
        self.members.iter().map(|m| Member {
            net: self.states[m.state].view_with(&m.structure),
            meta: m.meta.clone(),
            weight: m.weight,
        })
    }

    /// `(identity hash, index)` of every member: [`StableHasher`] over
    /// `(network, meta)`, the same on every run and toolchain. Everything
    /// before the fold node is the same for all members of a state, so it
    /// is hashed once per state, in state order, and each member carries a
    /// copy of that hasher on through its own rest of the stream and its
    /// meta.
    fn keyed(&self) -> Vec<(u64, usize)> {
        let split = |s: &Network| self.fold.unwrap_or(NodeId(s.node_count()));
        let heads: Vec<StableHasher> = (self.states.iter())
            .map(|s| {
                let mut h = StableHasher::new();
                s.view().hash_head(split(s), &mut h);
                h
            })
            .collect();
        #[cfg(test)]
        HASHED.with(|n| n.set((n.get().0 + heads.len(), n.get().1 + self.members.len())));
        (self.members.iter())
            .map(|m| {
                let s = &self.states[m.state];
                let mut h = heads[m.state].clone();
                s.view_with(&m.structure).hash_tail(split(s), &mut h);
                m.meta.hash(&mut h);
                h.finish()
            })
            .zip(0..)
            .collect()
    }

    /// Merge members whose `(network, meta)` are identical, summing
    /// weights — the paper's *compaction*: "eventually, the two possible
    /// states of the network may become identical and can be compacted
    /// back into one state" (§3.2). Returns the number of members
    /// eliminated; states no survivor stands on are dropped.
    ///
    /// The survivors are re-ordered deterministically, weight descending
    /// then [`StableHasher`] hash ascending: everything downstream — the
    /// planner's top-K selection in particular — must see the same member
    /// order on every run for whole simulations to be reproducible.
    ///
    /// Each member is hashed once (the head of the stream once per state,
    /// see `keyed`) and moved once. Hashing is the expensive step and under
    /// the uniform prior nearly every comparison is a weight tie, so the
    /// one hash both groups the merge candidates and breaks the ties; only
    /// index tuples are sorted and the records follow in one pass of
    /// swaps. Two members of one state are equal iff their loss rates at
    /// the fold node and their metas are; members of different states are
    /// compared whole.
    ///
    /// # Panics
    /// Panics (debug) if any network still holds undrained logs: compaction
    /// would silently discard them.
    pub fn compact(&mut self) -> usize {
        debug_assert!(
            self.states.iter().all(Network::logs_empty),
            "compacting a network with undrained logs"
        );
        let keyed = self.keyed();
        self.compact_keyed(keyed)
    }

    /// [`Population::compact`] on the given `(hash, index)` pairs, one per
    /// member: a hash only brings merge candidates together and orders
    /// ties, equality decides every merge.
    fn compact_keyed(&mut self, mut keyed: Vec<(u64, usize)>) -> usize {
        // The pairs are distinct, so this is the stable sort on the hash:
        // identical members stand in input order, the order of summation.
        keyed.sort_unstable();
        let Population {
            states,
            members,
            fold,
        } = &mut *self;
        // `(weight, hash, index)` per survivor; `run` is where the survivors of
        // the current hash start (more than one only if members collide).
        let mut survivors: Vec<(f64, u64, usize)> = Vec::with_capacity(keyed.len());
        let (mut run, mut run_hash) = (0, None);
        for (hash, i) in keyed {
            if run_hash != Some(hash) {
                (run, run_hash) = (survivors.len(), Some(hash));
            }
            let m = &members[i];
            let same = |s: usize| {
                let o = &members[s];
                o.meta == m.meta
                    && if o.state == m.state {
                        fold.is_none_or(|f| o.structure.loss_rate(f) == m.structure.loss_rate(f))
                    } else {
                        states[o.state].view_with(&o.structure)
                            == states[m.state].view_with(&m.structure)
                    }
            };
            match survivors[run..].iter_mut().find(|s| same(s.2)) {
                Some(survivor) => survivor.0 += m.weight,
                None => survivors.push((m.weight, hash, i)),
            }
        }
        survivors.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        // Swap survivor `j` into slot `j`. A slot below `j` gave its record
        // away when it was filled; `survivors[..j]` says where that went.
        for j in 0..survivors.len() {
            let mut at = survivors[j].2;
            while at < j {
                at = survivors[at].2;
            }
            survivors[j].2 = at;
            members.swap(j, at);
            members[j].weight = survivors[j].0;
        }
        let eliminated = members.len() - survivors.len();
        members.truncate(survivors.len());
        self.retain_referenced_states();
        eliminated
    }
}

impl<M> Population<M> {
    /// Rescale weights to sum to one. Returns the pre-normalization total
    /// (the marginal likelihood of the window just conditioned on).
    ///
    /// # Panics
    /// Panics if the total weight is zero or not finite.
    pub fn normalize(&mut self) -> f64 {
        let total: f64 = self.members.iter().map(|m| m.weight).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "cannot normalize: total weight {total}"
        );
        for m in self.members.iter_mut() {
            m.weight /= total;
        }
        total
    }

    /// Keep only the `max` highest-weight members (the computational cap of
    /// §3.2: "maintaining more than a few million possible discrete channel
    /// configurations is impractical"). Also drops members lighter than
    /// `min_rel` times the heaviest, and the states no member is left on.
    /// Returns the number of members pruned.
    pub fn prune(&mut self, max: usize, min_rel: f64) -> usize {
        let before = self.members.len();
        if before == 0 {
            return 0;
        }
        self.members.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let floor = self.members[0].weight * min_rel;
        self.members.retain(|m| m.weight >= floor);
        self.members.truncate(max);
        self.retain_referenced_states();
        before - self.members.len()
    }

    /// Drop the states no member stands on, keeping the others in order.
    fn retain_referenced_states(&mut self) {
        const UNUSED: usize = usize::MAX;
        let mut renumber = vec![UNUSED; self.states.len()];
        for m in &self.members {
            renumber[m.state] = 0;
        }
        let mut kept = 0;
        for r in renumber.iter_mut().filter(|r| **r != UNUSED) {
            *r = kept;
            kept += 1;
        }
        if kept == self.states.len() {
            return;
        }
        let mut s = 0;
        self.states.retain(|_| {
            s += 1;
            renumber[s - 1] != UNUSED
        });
        for m in &mut self.members {
            m.state = renumber[m.state];
        }
    }
}

/// Effective number of members, `1 / Σ w²` — a diversity diagnostic
/// (familiar from particle filtering as the effective sample size).
pub fn effective_count(weights: impl IntoIterator<Item = f64>) -> f64 {
    let sum_sq: f64 = weights.into_iter().map(|w| w * w).sum();
    if sum_sq == 0.0 {
        0.0
    } else {
        1.0 / sum_sq
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use augur_elements::{Element, Loss, NetworkBuilder, ReceiverEl};
    use augur_sim::Ppm;

    /// The LOSS node of [`tiny_net`].
    const FOLD: NodeId = NodeId(0);

    fn tiny_net(p: f64) -> Network {
        let mut b = NetworkBuilder::new();
        b.chain(vec![
            Element::Loss(Loss {
                p: Ppm::from_prob(p),
            }),
            Element::Receiver(ReceiverEl),
        ]);
        b.build()
    }

    fn hyp(p: f64, meta: u32, weight: f64) -> Hypothesis<u32> {
        Hypothesis {
            net: tiny_net(p),
            meta,
            weight,
        }
    }

    fn population<M: Clone + Eq + Hash>(v: Vec<Hypothesis<M>>) -> Population<M> {
        Population::new(v, Some(FOLD))
    }

    /// Owned copies of the members, in order.
    fn owned<M: Clone + Eq + Hash>(p: &Population<M>) -> Vec<Hypothesis<M>> {
        p.members().map(|m| m.to_hypothesis()).collect()
    }

    /// The members' hashes as `compact` forms them, each checked against
    /// the hash of the whole `(network, meta)` stream.
    pub(crate) fn checked_hashes<M: Clone + Eq + Hash>(p: &Population<M>) -> Vec<u64> {
        let keyed = p.keyed();
        for ((hash, _), m) in keyed.iter().zip(p.members()) {
            assert_eq!(*hash, StableHasher::hash_of(&(m.net, &m.meta)));
        }
        keyed.into_iter().map(|(hash, _)| hash).collect()
    }

    /// Whether two member lists agree member by member: networks and metas
    /// `==`, weights to the bit.
    pub(crate) fn assert_same_members<M: PartialEq + std::fmt::Debug>(
        got: &[Hypothesis<M>],
        want: &[Hypothesis<M>],
        what: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{what}: member count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g.net == w.net, "{what}: network of member {i}");
            assert_eq!(g.meta, w.meta, "{what}: meta of member {i}");
            assert_eq!(
                g.weight.to_bits(),
                w.weight.to_bits(),
                "{what}: weight of member {i}"
            );
        }
    }

    #[test]
    fn compact_merges_identical_states() {
        let mut v = population(vec![hyp(0.1, 7, 0.25), hyp(0.1, 7, 0.35), hyp(0.2, 7, 0.4)]);
        assert_eq!(v.state_count(), 1, "loss siblings share a state");
        let eliminated = v.compact();
        assert_eq!(eliminated, 1);
        assert_eq!(v.len(), 2);
        let w: f64 = v
            .members()
            .find(|h| h.net == tiny_net(0.1).view())
            .map(|h| h.weight)
            .unwrap();
        assert!((w - 0.6).abs() < 1e-12);
    }

    #[test]
    fn compact_respects_meta() {
        // Same network, different meta: must not merge.
        let mut v = population(vec![hyp(0.1, 1, 0.5), hyp(0.1, 2, 0.5)]);
        assert_eq!(v.compact(), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn compact_order_is_stable_under_ties() {
        // Equal weights leave the (weight desc) key degenerate, so only
        // the stable_hash tie-break orders the output — HashMap iteration
        // order must never show through. Build the same member set in
        // several input permutations and demand an identical output order
        // every time, equal to the comparator's own verdict.
        let build = |metas: &[u32]| population(metas.iter().map(|&m| hyp(0.1, m, 0.25)).collect());
        let mut first = build(&[3, 1, 4, 2]);
        assert_eq!(first.compact(), 0);
        let first_metas: Vec<u32> = first.members().map(|h| h.meta).collect();
        for perm in [[1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]] {
            let mut v = build(&perm);
            assert_eq!(v.compact(), 0);
            let metas: Vec<u32> = v.members().map(|h| h.meta).collect();
            assert_eq!(
                metas, first_metas,
                "compact order drifted across permutations"
            );
        }
        // And the order really is the comparator's: hashes ascend.
        let hashes = checked_hashes(&first);
        assert!(hashes.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A hypothesis's identity hash as compaction took it before states
    /// were shared: the whole `(network, meta)` stream.
    fn stable_hash<M: Hash>(h: &Hypothesis<M>) -> u64 {
        StableHasher::hash_of(&(&h.net, &h.meta))
    }

    /// `compact` as it was before it cached the key: a `RandomState` merge
    /// map, then a sort whose comparator hashes both whole hypotheses at
    /// every weight tie. The reference the cached-key order is pinned to,
    /// and the per-member belief reference's compaction.
    #[expect(clippy::disallowed_types, reason = "D003: its sort fixes the order")]
    pub(crate) fn reference_compact<M: Clone + Eq + Hash>(
        branches: &mut Vec<Hypothesis<M>>,
    ) -> usize {
        let before = branches.len();
        let mut merged: std::collections::HashMap<(Network, M), f64> =
            std::collections::HashMap::with_capacity(before);
        for h in branches.drain(..) {
            *merged.entry((h.net, h.meta)).or_insert(0.0) += h.weight;
        }
        branches.extend(merged.into_iter().map(|((net, meta), weight)| Hypothesis {
            net,
            meta,
            weight,
        }));
        branches.sort_by(|a, b| {
            b.weight
                .total_cmp(&a.weight)
                .then_with(|| stable_hash(a).cmp(&stable_hash(b)))
        });
        before - branches.len()
    }

    #[test]
    fn compact_order_matches_reference_on_the_tie_heavy_paper_belief() {
        use crate::{BeliefConfig, Engine, ModelPrior};
        use augur_elements::FIG2_LOSS;
        use augur_sim::Time;
        // The uniform paper prior after one window: thousands of
        // members on a handful of distinct weights, so nearly every
        // comparison is decided by the hash tie-break.
        let mut belief = ModelPrior::paper().belief(BeliefConfig::default());
        belief.advance(Time::from_secs(2), &[]).unwrap();
        let settled: Vec<Hypothesis<_>> = belief.members().map(|m| m.to_hypothesis()).collect();
        let distinct_weights = {
            let mut w: Vec<u64> = settled.iter().map(|h| h.weight.to_bits()).collect();
            w.sort_unstable();
            w.dedup();
            w.len()
        };
        assert!(settled.len() > 100 * distinct_weights, "not tie-heavy");

        // Every member twice, the second copy far from the first and with
        // another weight, so merging and summation order are exercised.
        let mut input = settled.clone();
        input.extend(settled.iter().rev().cloned().map(|mut h| {
            h.weight *= 0.5;
            h
        }));
        let mut expected = input.clone();
        assert_eq!(reference_compact(&mut expected), settled.len());
        let mut got = Population::new(input, Some(FIG2_LOSS));
        assert!(got.state_count() < got.len() / 2, "siblings share states");
        checked_hashes(&got);
        assert_eq!(got.compact(), settled.len());
        assert_same_members(&owned(&got), &expected, "tie-heavy belief");
    }

    #[test]
    fn compact_hashes_each_hypothesis_once() {
        // Ties, merges and distinct weights together: 40 inputs over two
        // states, 20 survivors.
        let v: Vec<Hypothesis<u32>> = (0..40)
            .map(|i| {
                let p = if i % 4 == 0 { 0.0 } else { 0.1 };
                hyp(p, i % 20, if i % 3 == 0 { 0.5 } else { 0.25 })
            })
            .chain([hyp(1.0, 0, 0.25)])
            .collect();
        let mut v = population(v);
        let (inputs, states) = (v.len(), v.state_count());
        assert_eq!(states, 2, "p = 1 stands alone");
        let before = HASHED.with(|n| n.get());
        assert_eq!(v.compact(), 20);
        let after = HASHED.with(|n| n.get());
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (states, inputs),
            "one head per state, one tail per member"
        );
    }

    #[test]
    fn compact_matches_reference_on_generated_multisets() {
        use augur_sim::SimRng;
        // Draws with replacement from a pool of sixteen hypotheses — four
        // loss rates (two of them certain) under four metas, so `meta`-only
        // and rate-only twins on shared and unshared states — on weights
        // from a set of four (ties everywhere) or arbitrary ones (rounding
        // shows the order of summation): duplicates far apart, three-way
        // merges and more, against the reference's order, `==` on the parts
        // and the bits of every weight, every member's head-and-tail hash
        // against its whole stream.
        for case in 0..64 {
            let seed = SimRng::derive_seed(0xC0A7, case);
            let mut rng = SimRng::seed_from_u64(seed);
            let tied = rng.uniform_u64(0, 1) == 1;
            let input: Vec<Hypothesis<u32>> = (0..rng.uniform_u64(1, 80))
                .map(|_| {
                    let weight = if tied {
                        [0.5, 0.25, 0.125, 0.1][rng.uniform_u64(0, 3) as usize]
                    } else {
                        rng.uniform_f64()
                    };
                    hyp(
                        [0.0, 0.1, 0.2, 1.0][rng.uniform_u64(0, 3) as usize],
                        rng.uniform_u64(0, 3) as u32,
                        weight,
                    )
                })
                .collect();
            let mut expected = input.clone();
            let eliminated = reference_compact(&mut expected);
            let mut got = population(input);
            checked_hashes(&got);
            assert_eq!(got.compact(), eliminated, "seed {seed:#x}");
            assert_same_members(&owned(&got), &expected, &format!("seed {seed:#x}"));
            let used: std::collections::BTreeSet<usize> =
                got.members.iter().map(|m| m.state).collect();
            assert_eq!(
                used.len(),
                got.state_count(),
                "seed {seed:#x}: unused state"
            );
        }
    }

    /// A meta that tells the hasher nothing: over one network every
    /// hypothesis then has the same `stable_hash`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Mute(u32);

    impl Hash for Mute {
        fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
    }

    #[test]
    fn compact_never_merges_distinct_hypotheses_on_a_hash_collision() {
        // The whole population in one run of equal hashes: equality alone
        // must tell the members apart, and still bring the equal ones
        // together, first-seen first among equal weights.
        let hyp = |meta: u32, weight: f64| Hypothesis {
            net: tiny_net(0.1),
            meta: Mute(meta),
            weight,
        };
        let mut v = population(vec![
            hyp(3, 0.125),
            hyp(1, 0.25),
            hyp(3, 0.0625),
            hyp(2, 0.5),
            hyp(1, 0.25),
            hyp(4, 0.5),
            hyp(3, 0.0625),
        ]);
        let hashes = checked_hashes(&v);
        assert!(hashes.windows(2).all(|w| w[0] == w[1]), "not a collision");
        assert_eq!(v.compact(), 3);
        let got: Vec<(u32, f64)> = v.members().map(|h| (h.meta.0, h.weight)).collect();
        assert_eq!(got, [(1, 0.5), (2, 0.5), (4, 0.5), (3, 0.25)]);
    }

    #[test]
    fn compact_tells_rates_and_states_apart_on_a_forced_collision() {
        // Members of one state differing only in rate, and members of two
        // states that are copies of each other, all under one key: the
        // rates keep the first apart, the networks bring the second
        // together, and the copy no survivor stands on is dropped.
        let mut v = population(vec![
            hyp(0.1, 1, 0.5),
            hyp(0.2, 1, 0.25),
            hyp(0.0, 1, 0.25),
            hyp(0.1, 2, 0.5),
            hyp(0.1, 1, 0.125),
            hyp(0.2, 1, 0.125),
        ]);
        assert_eq!(v.state_count(), 1);
        v.states.push(v.states[0].clone());
        (v.members[4].state, v.members[5].state) = (1, 1);
        let collided = (0..v.len()).map(|i| (0, i)).collect();
        assert_eq!(v.compact_keyed(collided), 2);
        let got: Vec<(f64, u32, f64)> = (v.members())
            .map(|m| (m.net.loss_prob(FOLD), m.meta, m.weight))
            .collect();
        assert_eq!(
            got,
            [
                (0.1, 1, 0.625),
                (0.1, 2, 0.5),
                (0.2, 1, 0.375),
                (0.0, 1, 0.25)
            ]
        );
        assert_eq!(v.state_count(), 1);
    }

    #[test]
    fn normalize_returns_evidence() {
        let mut v = population(vec![hyp(0.1, 0, 0.2), hyp(0.2, 0, 0.2)]);
        let total = v.normalize();
        assert!((total - 0.4).abs() < 1e-12);
        assert!((v.members().map(|h| h.weight).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn normalize_rejects_dead_belief() {
        population(vec![hyp(0.1, 0, 0.0)]).normalize();
    }

    #[test]
    fn prune_keeps_heaviest() {
        let mut v = population((0..10).map(|i| hyp(0.1, i, (i + 1) as f64)).collect());
        let pruned = v.prune(3, 0.0);
        assert_eq!(pruned, 7);
        assert_eq!(v.len(), 3);
        let w: Vec<f64> = v.members().map(|h| h.weight).collect();
        assert!(w[0] >= w[1] && w[1] >= w[2]);
        assert!((w[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn prune_drops_relative_dust() {
        // The dust stands alone on a state of its own, which goes with it.
        let mut v = population(vec![hyp(0.1, 0, 1.0), hyp(1.0, 1, 1e-12)]);
        assert_eq!(v.state_count(), 2);
        let pruned = v.prune(100, 1e-9);
        assert_eq!(pruned, 1);
        assert_eq!((v.len(), v.state_count()), (1, 1));
    }

    #[test]
    fn effective_count_diagnostics() {
        assert!((effective_count([0.5, 0.5]) - 2.0).abs() < 1e-9);
        assert!((effective_count([1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert_eq!(effective_count([]), 0.0);
    }
}
