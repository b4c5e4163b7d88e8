//! Hypotheses: weighted candidate network configurations.
//!
//! "The sender maintains a probability distribution of the possible states
//! that the network could be in" (§3). A [`Hypothesis`] is one such
//! candidate: a complete network (parameters *and* dynamic state — queue
//! contents, gate position, in-service packet) plus a probability weight
//! and a metadata record `M` naming the prior grid point it descends
//! from. `M` is for posterior reporting only — every parameter the planner
//! needs, the loss rate included, is in the network — but [`compact`],
//! which hashes each hypothesis once (with [`StableHasher`]) and moves it
//! once, keeps equal networks of different `M` apart.

use augur_elements::Network;
use augur_sim::StableHasher;
use std::hash::Hash;

/// One weighted network configuration.
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

/// Merge hypotheses whose `(net, meta)` are identical, summing weights —
/// the paper's *compaction*: "eventually, the two possible states of the
/// network may become identical and can be compacted back into one state"
/// (§3.2). Returns the number of branches eliminated.
///
/// The survivors are re-ordered deterministically, weight descending then
/// [`StableHasher`] hash ascending: everything downstream — the planner's
/// top-K selection in particular — must see the same branch order on
/// every run for whole simulations to be reproducible.
///
/// Each hypothesis is hashed once and moved once. Hashing a whole network
/// is the expensive step and under the uniform prior nearly every
/// comparison is a weight tie, so the one hash both groups the merge
/// candidates and breaks the ties; a hypothesis is 232 bytes, so only
/// index tuples are sorted and the records follow in one pass of swaps.
///
/// # Panics
/// Panics (debug) if any network still holds undrained logs: compaction
/// would silently discard them.
pub fn compact<M: Clone + Eq + Hash>(branches: &mut Vec<Hypothesis<M>>) -> usize {
    debug_assert!(
        branches.iter().all(|h| h.net.logs_empty()),
        "compacting a network with undrained logs"
    );
    let mut keyed: Vec<(u64, usize)> = branches.iter().map(stable_hash).zip(0..).collect();
    // The pairs are distinct, so this is the stable sort on the hash:
    // identical hypotheses stand in input order, the order of summation.
    keyed.sort_unstable();
    // `(weight, hash, index)` per survivor; `run` is where the survivors of
    // the current hash start (more than one only if hypotheses collide).
    let mut survivors: Vec<(f64, u64, usize)> = Vec::with_capacity(keyed.len());
    let (mut run, mut run_hash) = (0, None);
    for (hash, i) in keyed {
        if run_hash != Some(hash) {
            (run, run_hash) = (survivors.len(), Some(hash));
        }
        let h = &branches[i];
        let same = |s: usize| branches[s].net == h.net && branches[s].meta == h.meta;
        match survivors[run..].iter_mut().find(|s| same(s.2)) {
            Some(survivor) => survivor.0 += h.weight,
            None => survivors.push((h.weight, hash, i)),
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
        branches.swap(j, at);
        branches[j].weight = survivors[j].0;
    }
    let eliminated = branches.len() - survivors.len();
    branches.truncate(survivors.len());
    eliminated
}

#[cfg(test)]
thread_local! {
    /// How often this thread has called [`stable_hash`].
    static STABLE_HASH_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A hypothesis's identity hash: the same on every run and toolchain.
fn stable_hash<M: Hash>(h: &Hypothesis<M>) -> u64 {
    #[cfg(test)]
    STABLE_HASH_CALLS.with(|calls| calls.set(calls.get() + 1));
    StableHasher::hash_of(&(&h.net, &h.meta))
}

/// Rescale weights to sum to one. Returns the pre-normalization total
/// (the marginal likelihood of the window just conditioned on).
///
/// # Panics
/// Panics if the total weight is zero or not finite.
pub fn normalize<M>(branches: &mut [Hypothesis<M>]) -> f64 {
    let total: f64 = branches.iter().map(|h| h.weight).sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "cannot normalize: total weight {total}"
    );
    for h in branches.iter_mut() {
        h.weight /= total;
    }
    total
}

/// Keep only the `max` highest-weight branches (the computational cap of
/// §3.2: "maintaining more than a few million possible discrete channel
/// configurations is impractical"). Also drops branches lighter than
/// `min_rel` times the heaviest. Returns the number pruned.
pub fn prune<M>(branches: &mut Vec<Hypothesis<M>>, max: usize, min_rel: f64) -> usize {
    let before = branches.len();
    if before == 0 {
        return 0;
    }
    branches.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    let heaviest = branches[0].weight;
    let floor = heaviest * min_rel;
    branches.retain(|h| h.weight >= floor);
    branches.truncate(max);
    before - branches.len()
}

/// Effective number of branches, `1 / Σ w²` — a diversity diagnostic
/// (familiar from particle filtering as the effective sample size).
pub fn effective_count<M>(branches: &[Hypothesis<M>]) -> f64 {
    let sum_sq: f64 = branches.iter().map(|h| h.weight * h.weight).sum();
    if sum_sq == 0.0 {
        0.0
    } else {
        1.0 / sum_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_elements::{Element, Loss, NetworkBuilder, ReceiverEl};
    use augur_sim::Ppm;

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

    #[test]
    fn compact_merges_identical_states() {
        let mut v = vec![hyp(0.1, 7, 0.25), hyp(0.1, 7, 0.35), hyp(0.2, 7, 0.4)];
        let eliminated = compact(&mut v);
        assert_eq!(eliminated, 1);
        assert_eq!(v.len(), 2);
        let w: f64 = v
            .iter()
            .find(|h| h.net == tiny_net(0.1))
            .map(|h| h.weight)
            .unwrap();
        assert!((w - 0.6).abs() < 1e-12);
    }

    #[test]
    fn compact_respects_meta() {
        // Same network, different meta: must not merge.
        let mut v = vec![hyp(0.1, 1, 0.5), hyp(0.1, 2, 0.5)];
        assert_eq!(compact(&mut v), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn compact_order_is_stable_under_ties() {
        // Equal weights leave the (weight desc) key degenerate, so only
        // the stable_hash tie-break orders the output — HashMap iteration
        // order must never show through. Build the same branch set in
        // several input permutations and demand an identical output order
        // every time, equal to the comparator's own verdict.
        let build = |metas: &[u32]| -> Vec<Hypothesis<u32>> {
            metas.iter().map(|&m| hyp(0.1, m, 0.25)).collect()
        };
        let mut first = build(&[3, 1, 4, 2]);
        assert_eq!(compact(&mut first), 0);
        let first_metas: Vec<u32> = first.iter().map(|h| h.meta).collect();
        for perm in [[1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]] {
            let mut v = build(&perm);
            assert_eq!(compact(&mut v), 0);
            let metas: Vec<u32> = v.iter().map(|h| h.meta).collect();
            assert_eq!(
                metas, first_metas,
                "compact order drifted across permutations"
            );
        }
        // And the order really is the comparator's: hashes ascend.
        let hashes: Vec<u64> = first.iter().map(stable_hash).collect();
        assert!(hashes.windows(2).all(|w| w[0] <= w[1]));
    }

    /// `compact` as it was before it cached the key: a `RandomState` merge
    /// map, then a sort whose comparator hashes both whole hypotheses at
    /// every weight tie. The reference the cached-key order is pinned to.
    fn reference_compact<M: Clone + Eq + Hash>(branches: &mut Vec<Hypothesis<M>>) -> usize {
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
        use augur_sim::Time;
        // The uniform paper prior after one window: thousands of
        // branches on a handful of distinct weights, so nearly every
        // comparison is decided by the hash tie-break.
        let mut belief = ModelPrior::paper().belief(BeliefConfig::default());
        belief.advance(Time::from_secs(2), &[]).unwrap();
        let settled = belief.members().to_vec();
        let distinct_weights = {
            let mut w: Vec<u64> = settled.iter().map(|h| h.weight.to_bits()).collect();
            w.sort_unstable();
            w.dedup();
            w.len()
        };
        assert!(settled.len() > 100 * distinct_weights, "not tie-heavy");

        // Every branch twice, the second copy far from the first and with
        // another weight, so merging and summation order are exercised.
        let mut input = settled.clone();
        input.extend(settled.iter().rev().cloned().map(|mut h| {
            h.weight *= 0.5;
            h
        }));
        let mut expected = input.clone();
        assert_eq!(reference_compact(&mut expected), settled.len());
        assert_eq!(compact(&mut input), settled.len());
        assert_eq!(input.len(), expected.len());
        for (got, want) in input.iter().zip(&expected) {
            assert!(
                got.net == want.net && got.meta == want.meta,
                "order drifted"
            );
            assert_eq!(got.weight.to_bits(), want.weight.to_bits());
        }
    }

    #[test]
    fn compact_hashes_each_hypothesis_once() {
        // Ties, merges and distinct weights together: 40 inputs, 20
        // survivors.
        let mut v: Vec<Hypothesis<u32>> = (0..40)
            .map(|i| hyp(0.1, i % 20, if i % 3 == 0 { 0.5 } else { 0.25 }))
            .collect();
        let inputs = v.len();
        let before = STABLE_HASH_CALLS.with(|calls| calls.get());
        assert_eq!(compact(&mut v), 20);
        let calls = STABLE_HASH_CALLS.with(|calls| calls.get()) - before;
        assert_eq!(calls, inputs, "one stable_hash per input hypothesis");
    }

    #[test]
    fn compact_matches_reference_on_generated_multisets() {
        use augur_sim::SimRng;
        // Draws with replacement from a pool of twelve hypotheses — three
        // networks under four metas, so `meta`-only and `net`-only twins —
        // on weights from a set of four (ties everywhere) or arbitrary
        // ones (rounding shows the order of summation): duplicates far
        // apart, three-way merges and more, against the reference's order,
        // `==` on the parts and the bits of every weight.
        for case in 0..64 {
            let seed = SimRng::derive_seed(0xC0A7, case);
            let mut rng = SimRng::seed_from_u64(seed);
            let tied = rng.uniform_u64(0, 1) == 1;
            let mut input: Vec<Hypothesis<u32>> = (0..rng.uniform_u64(1, 80))
                .map(|_| {
                    let weight = if tied {
                        [0.5, 0.25, 0.125, 0.1][rng.uniform_u64(0, 3) as usize]
                    } else {
                        rng.uniform_f64()
                    };
                    hyp(
                        [0.0, 0.1, 0.2][rng.uniform_u64(0, 2) as usize],
                        rng.uniform_u64(0, 3) as u32,
                        weight,
                    )
                })
                .collect();
            let mut expected = input.clone();
            let eliminated = reference_compact(&mut expected);
            assert_eq!(compact(&mut input), eliminated, "seed {seed:#x}");
            assert_eq!(input.len(), expected.len(), "seed {seed:#x}");
            for (got, want) in input.iter().zip(&expected) {
                assert!(
                    got.net == want.net && got.meta == want.meta,
                    "order drifted: seed {seed:#x}"
                );
                assert_eq!(
                    got.weight.to_bits(),
                    want.weight.to_bits(),
                    "seed {seed:#x}"
                );
            }
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
        // The whole belief in one run of equal hashes: equality alone
        // must tell the hypotheses apart, and still bring the equal ones
        // together, first-seen first among equal weights.
        let hyp = |meta: u32, weight: f64| Hypothesis {
            net: tiny_net(0.1),
            meta: Mute(meta),
            weight,
        };
        let mut v = vec![
            hyp(3, 0.125),
            hyp(1, 0.25),
            hyp(3, 0.0625),
            hyp(2, 0.5),
            hyp(1, 0.25),
            hyp(4, 0.5),
            hyp(3, 0.0625),
        ];
        let hashes: Vec<u64> = v.iter().map(stable_hash).collect();
        assert!(hashes.windows(2).all(|w| w[0] == w[1]), "not a collision");
        assert_eq!(compact(&mut v), 3);
        let got: Vec<(u32, f64)> = v.iter().map(|h| (h.meta.0, h.weight)).collect();
        assert_eq!(got, [(1, 0.5), (2, 0.5), (4, 0.5), (3, 0.25)]);
    }

    #[test]
    fn normalize_returns_evidence() {
        let mut v = vec![hyp(0.1, 0, 0.2), hyp(0.2, 0, 0.2)];
        let total = normalize(&mut v);
        assert!((total - 0.4).abs() < 1e-12);
        assert!((v.iter().map(|h| h.weight).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn normalize_rejects_dead_belief() {
        let mut v = vec![hyp(0.1, 0, 0.0)];
        normalize(&mut v);
    }

    #[test]
    fn prune_keeps_heaviest() {
        let mut v: Vec<_> = (0..10).map(|i| hyp(0.1, i, (i + 1) as f64)).collect();
        let pruned = prune(&mut v, 3, 0.0);
        assert_eq!(pruned, 7);
        assert_eq!(v.len(), 3);
        assert!(v[0].weight >= v[1].weight && v[1].weight >= v[2].weight);
        assert!((v[0].weight - 10.0).abs() < 1e-12);
    }

    #[test]
    fn prune_drops_relative_dust() {
        let mut v = vec![hyp(0.1, 0, 1.0), hyp(0.2, 1, 1e-12)];
        let pruned = prune(&mut v, 100, 1e-9);
        assert_eq!(pruned, 1);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn effective_count_diagnostics() {
        let v = vec![hyp(0.1, 0, 0.5), hyp(0.2, 1, 0.5)];
        assert!((effective_count(&v) - 2.0).abs() < 1e-9);
        let skewed = vec![hyp(0.1, 0, 1.0), hyp(0.2, 1, 0.0)];
        assert!((effective_count(&skewed) - 1.0).abs() < 1e-9);
        assert_eq!(effective_count::<u32>(&[]), 0.0);
    }
}
