//! Hypotheses: weighted candidate network configurations.
//!
//! "The sender maintains a probability distribution of the possible states
//! that the network could be in" (§3). A [`Hypothesis`] is one such
//! candidate: a complete network (parameters *and* dynamic state — queue
//! contents, gate position, in-service packet) plus a probability weight
//! and a metadata record `M` identifying which prior grid point it
//! descends from. `M` is for posterior reporting only: the planner reads
//! nothing from it — every parameter it needs, the loss rate included, is
//! in the network — but [`compact`] keeps hypotheses of different `M`
//! apart even when their networks are equal.

use augur_elements::Network;
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
/// The surviving branches are re-ordered deterministically (weight
/// descending, then a fixed-key state hash): everything downstream — the
/// planner's top-K selection in particular — must see the same branch
/// order on every run for whole simulations to be reproducible.
///
/// Each hypothesis is hashed exactly once per call. Hashing a whole
/// network is the expensive step, and under the uniform prior nearly
/// every comparison is a weight tie, so the one hash both groups the
/// merge candidates and serves as the tie-break of the output order.
///
/// # Panics
/// Panics (debug) if any network still holds undrained logs: compaction
/// would silently discard them.
pub fn compact<M: Clone + Eq + Hash>(branches: &mut Vec<Hypothesis<M>>) -> usize {
    let before = branches.len();
    let mut keyed: Vec<(u64, Hypothesis<M>)> = branches
        .drain(..)
        .map(|h| {
            debug_assert!(
                h.net.logs_empty(),
                "compacting a network with undrained logs"
            );
            (stable_hash(&h), h)
        })
        .collect();
    // Stable, so identical hypotheses stay in input order and their
    // weights are summed in that order.
    keyed.sort_by_key(|&(key, _)| key);
    // Equal hypotheses hash equally and are now adjacent; `run` is where
    // the survivors of the current hash value start (more than one only
    // if distinct hypotheses collide).
    let (mut run, mut run_key) = (0, None);
    for (key, h) in keyed {
        if run_key != Some(key) {
            (run, run_key) = (branches.len(), Some(key));
        }
        match branches[run..]
            .iter_mut()
            .find(|s| s.net == h.net && s.meta == h.meta)
        {
            Some(survivor) => survivor.weight += h.weight,
            None => branches.push(h),
        }
    }
    // The survivors stand in ascending-hash order, so a stable sort on
    // weight alone leaves them in (weight desc, hash asc) order.
    branches.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    before - branches.len()
}

#[cfg(test)]
thread_local! {
    /// How often this thread has called [`stable_hash`].
    static STABLE_HASH_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A run-to-run deterministic hash of a hypothesis's identity.
/// `DefaultHasher::new()` uses fixed keys (unlike `RandomState`), which is
/// exactly what reproducibility needs.
fn stable_hash<M: Hash>(h: &Hypothesis<M>) -> u64 {
    use std::hash::Hasher;
    #[cfg(test)]
    STABLE_HASH_CALLS.with(|calls| calls.set(calls.get() + 1));
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    h.net.hash(&mut hasher);
    h.meta.hash(&mut hasher);
    hasher.finish()
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
