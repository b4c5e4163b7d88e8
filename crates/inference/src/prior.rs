//! Prior construction: discretized uniform grids over the Figure-2 model
//! parameters.
//!
//! "The ISENDER is initialized with a prior that includes, as one
//! possibility, the true value of most of the parameters. The prior
//! represents a discretized uniform distribution over the following
//! ranges" (§4) — the table this module's [`ModelPrior::paper`] encodes:
//!
//! | parameter          | prior belief              | actual   |
//! |--------------------|---------------------------|----------|
//! | c (link speed)     | 10,000 ≤ c ≤ 16,000       | 12,000   |
//! | r (cross rate)     | 0.4c ≤ r ≤ 0.7c           | 0.7c     |
//! | t (mean switch)    | 100 s                     | n/a      |
//! | p (loss rate)      | 0 ≤ p ≤ 0.2               | 0.2      |
//! | buffer capacity    | 72,000 ≤ x ≤ 108,000 bits | 96,000   |
//! | initial fullness   | 0 ≤ x ≤ capacity          | 0        |

use crate::exact::{Belief, BeliefConfig};
use crate::hypothesis::{Hypothesis, Population};
use augur_elements::{
    build_model, GateSpec, ModelParams, NetworkStructure, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF,
};
use augur_sim::{BitRate, Bits, Dur, Ppm};
use std::sync::Arc;

/// A discretized uniform prior over the Figure-2 model.
///
/// All fields are integer-valued units, so the prior is `Eq + Hash` —
/// which lets sweep-level caches key seated priors by the prior that
/// produced them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelPrior {
    /// Grid of link speeds `c` (bits/s).
    pub link_rates: Vec<BitRate>,
    /// Grid of cross-traffic rates as parts-per-million of `c`.
    pub cross_fracs_ppm: Vec<u32>,
    /// Grid of last-mile loss rates `p`.
    pub losses: Vec<Ppm>,
    /// Grid of buffer capacities (bits).
    pub buffer_capacities: Vec<Bits>,
    /// Grid step for initial fullness, from zero to capacity inclusive.
    /// `None` pins initial fullness to zero.
    pub fullness_step: Option<Bits>,
    /// Believed mean time-to-switch of the cross-traffic gate.
    pub mtts: Dur,
    /// Decision epoch for the discretized memoryless gate.
    pub epoch: Dur,
    /// Candidate initial gate states.
    pub gate_initial: Vec<bool>,
    /// Packet size (cross traffic and backlog).
    pub packet_size: Bits,
    /// If false, every hypothesis's cross-traffic source is disabled —
    /// the quiet single-link configurations of §4, where only the link
    /// speed and backlog are unknown.
    pub cross_active: bool,
}

impl ModelPrior {
    /// The paper's prior (Figure 2 table), with 1,000 bps / 0.1 / 0.05 /
    /// 12,000-bit grid steps and a 1 s gate epoch.
    pub fn paper() -> ModelPrior {
        ModelPrior {
            link_rates: (10..=16).map(|k| BitRate::from_bps(k * 1_000)).collect(),
            cross_fracs_ppm: vec![400_000, 500_000, 600_000, 700_000],
            losses: (0..=4).map(|k| Ppm::from_prob(k as f64 * 0.05)).collect(),
            buffer_capacities: (6..=9).map(|k| Bits::new(k * 12_000)).collect(),
            fullness_step: Some(Bits::new(12_000)),
            mtts: Dur::from_secs(100),
            epoch: Dur::from_secs(1),
            gate_initial: vec![true],
            packet_size: Bits::from_bytes(1_500),
            cross_active: true,
        }
    }

    /// A reduced grid for unit tests: 2–3 values per axis.
    pub fn small() -> ModelPrior {
        ModelPrior {
            link_rates: vec![BitRate::from_bps(10_000), BitRate::from_bps(12_000)],
            cross_fracs_ppm: vec![500_000, 700_000],
            losses: vec![Ppm::ZERO, Ppm::from_prob(0.2)],
            buffer_capacities: vec![Bits::new(96_000)],
            fullness_step: None,
            mtts: Dur::from_secs(100),
            epoch: Dur::from_secs(1),
            gate_initial: vec![true],
            packet_size: Bits::from_bytes(1_500),
            cross_active: true,
        }
    }

    /// The parameter grid points.
    pub fn grid(&self) -> Vec<ModelParams> {
        let mut out = Vec::new();
        for &c in &self.link_rates {
            for &frac in &self.cross_fracs_ppm {
                let cross_bps = (c.as_bps() as u128 * frac as u128 / 1_000_000) as u64;
                for &p in &self.losses {
                    for &cap in &self.buffer_capacities {
                        let fullnesses: Vec<Bits> = match self.fullness_step {
                            None => vec![Bits::ZERO],
                            Some(step) => {
                                assert!(step > Bits::ZERO, "fullness step must be positive");
                                let n = cap.as_u64() / step.as_u64();
                                (0..=n).map(|k| Bits::new(k * step.as_u64())).collect()
                            }
                        };
                        for fill in fullnesses {
                            for &on in &self.gate_initial {
                                out.push(ModelParams {
                                    link_rate: c,
                                    cross_rate: BitRate::from_bps(cross_bps.max(1)),
                                    gate: GateSpec::Intermittent {
                                        mtts: self.mtts,
                                        epoch: self.epoch,
                                        initially_connected: on,
                                    },
                                    loss: p,
                                    buffer_capacity: cap,
                                    initial_fullness: fill,
                                    packet_size: self.packet_size,
                                    cross_active: self.cross_active,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Enumerate the prior as uniformly-weighted hypotheses, one at a time
    /// ([`uniform_hypotheses`] over [`ModelPrior::grid`]).
    pub fn hypotheses(&self) -> impl Iterator<Item = Hypothesis<ModelParams>> + Clone {
        uniform_hypotheses(self.grid())
    }

    /// Build a ready-to-run belief: hypotheses enumerated and seated for
    /// the last-mile loss fold, entry/receiver node ids wired.
    pub fn belief(&self, cfg: BeliefConfig) -> Belief<ModelParams> {
        // All grid points share the topology of `build_model`, so the
        // fixed Figure-2 node ids apply to every hypothesis — no probe
        // network needed.
        let pop = Population::new(self.hypotheses(), Some(FIG2_LOSS));
        Belief::from_population(pop, FIG2_ENTRY, FIG2_RX_SELF, cfg)
    }
}

/// The grid points as uniformly-weighted hypotheses, built one at a time
/// as they are taken. One call is one "network build" in the work
/// counters: the expensive operation is enumerating a prior, and sweeps
/// that share a seated prior (the runner's `PriorCache`) do it once per
/// *distinct prior*.
///
/// Hypotheses with equal structures share one allocation
/// ([`sharing_structures`]). A grid that varies the initial state
/// (fullness, gate) innermost, as [`ModelPrior::grid`] does, lists equal
/// structures together.
pub fn uniform_hypotheses(
    grid: Vec<ModelParams>,
) -> impl Iterator<Item = Hypothesis<ModelParams>> + Clone {
    augur_sim::perf::count_network_build();
    let w = 1.0 / grid.len() as f64;
    sharing_structures(grid.into_iter().map(move |params| Hypothesis {
        net: build_model(params),
        meta: params,
        weight: w,
    }))
}

/// `hyps` with each hypothesis holding the previous one's structure
/// allocation where the two structures are equal: a prior that lists
/// hypotheses differing only in state together keeps one structure for
/// each such run of them. Only the previous hypothesis's `Arc` is held,
/// never the hypothesis.
pub fn sharing_structures<M>(
    hyps: impl Iterator<Item = Hypothesis<M>> + Clone,
) -> impl Iterator<Item = Hypothesis<M>> + Clone {
    hyps.scan(None, |prev: &mut Option<Arc<NetworkStructure>>, mut h| {
        if let Some(prev) = prev {
            h.net.share_structure(prev);
        }
        *prev = Some(Arc::clone(h.net.shared_structure()));
        Some(h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_elements::Network;

    #[test]
    fn paper_grid_matches_table() {
        let prior = ModelPrior::paper();
        let grid = prior.grid();
        // 7 c-values × 4 fracs × 5 losses × Σ_cap (cap/12000 + 1) fullness
        // values with 1 gate state: caps 72k..108k give 7+8+9+10 = 34
        // fullness slots per (c, frac, loss).
        assert_eq!(grid.len(), 7 * 4 * 5 * 34);
        // The true configuration is on the grid (the paper: the prior
        // "includes, as one possibility, the true value").
        let truth = grid.iter().find(|p| {
            p.link_rate == BitRate::from_bps(12_000)
                && p.cross_rate == BitRate::from_bps(8_400)
                && p.loss == Ppm::from_prob(0.2)
                && p.buffer_capacity == Bits::new(96_000)
                && p.initial_fullness == Bits::ZERO
        });
        assert!(truth.is_some());
    }

    #[test]
    fn hypotheses_are_uniform() {
        let prior = ModelPrior::small();
        let hyps: Vec<_> = prior.hypotheses().collect();
        assert_eq!(hyps.len(), 8);
        for h in &hyps {
            assert!((h.weight - 1.0 / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_hypotheses_share_equal_structures() {
        // 7 rates × 4 cross fractions × 5 losses × 4 buffer caps: the
        // fullness a grid point adds is state, not structure.
        let hyps: Vec<_> = ModelPrior::paper().hypotheses().collect();
        let mut distinct: Vec<&Network> = Vec::new();
        for h in &hyps {
            if !(distinct.iter())
                .any(|d| Arc::ptr_eq(d.shared_structure(), h.net.shared_structure()))
            {
                distinct.push(&h.net);
            }
        }
        assert_eq!(distinct.len(), 7 * 4 * 5 * 4);
        // No two distinct allocations hold equal structures, so every
        // pair of hypotheses with equal structures is `ptr_eq`.
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(a.structure(), b.structure());
            }
        }
    }

    #[test]
    fn belief_wires_fold_node() {
        let belief = ModelPrior::small().belief(BeliefConfig::default());
        assert_eq!(belief.pop.fold, Some(FIG2_LOSS));
        assert_eq!(belief.branch_count(), 8);
    }

    #[test]
    fn cross_rate_scales_with_link_rate() {
        let prior = ModelPrior::paper();
        let grid = prior.grid();
        let p = grid
            .iter()
            .find(|p| p.link_rate == BitRate::from_bps(16_000))
            .unwrap();
        // Lowest frac is 0.4: 16_000 * 0.4 = 6_400.
        assert_eq!(p.cross_rate, BitRate::from_bps(6_400));
    }
}
