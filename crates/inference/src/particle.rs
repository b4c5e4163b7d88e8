//! A bootstrap particle filter over network configurations — the scalable
//! alternative the paper names as future work (§3.2: "a more sophisticated
//! and scalable scheme would use the approximate techniques of Bayesian
//! inference that have been developed in the literature of POMDPs").
//!
//! Each particle is a concrete network trajectory: parameters drawn from
//! a prior seated by [`Population::new`], stochastic transitions *sampled*
//! rather than forked. Because observations are exact-time events (see
//! [`crate::observe`]), the likelihood of a mismatch is zero — a particle
//! either predicts the window's ACKs exactly (weight kept, loss at the
//! prior's fold node folded analytically like the exact engine) or dies.
//! Systematic resampling replenishes the population from the survivors
//! when the effective sample size drops.
//!
//! Cost per update is O(particles), independent of the prior's size —
//! the point of the EXT-C scaling experiment.

use crate::engine::{fold, snapshot, Engine};
use crate::exact::BeliefError;
use crate::hypothesis::{effective_count, Hypothesis, Member, Population};
use crate::observe::{harvest, Observation, ObservationIndex};
use augur_elements::{NodeId, Step};
use augur_obs::EventKind;
use augur_sim::{Packet, SimRng, Time};

/// Resample when the effective sample size falls below this fraction of
/// the population.
const RESAMPLE_FRAC: f64 = 0.5;

/// A fixed-size population of sampled network trajectories.
#[derive(Debug, Clone)]
pub struct ParticleFilter<M> {
    particles: Vec<Hypothesis<M>>,
    /// Injection node (shared topology).
    pub entry: NodeId,
    /// Observed receiver node.
    pub observed_rx: NodeId,
    /// The last-mile LOSS node folded analytically (as in the exact
    /// engine), the one the prior was seated for; other nondeterminism is
    /// sampled.
    fold: Option<NodeId>,
    rng: SimRng,
    now: Time,
}

impl<M: Clone> ParticleFilter<M> {
    /// Draw `n_particles` particles i.i.d. from a weighted prior seated by
    /// [`Population::new`]: each a copy of a member picked by weight, in
    /// member order. The fold node is the one the prior was seated for.
    ///
    /// # Panics
    /// Panics if the prior is empty or `n_particles` is 0.
    pub fn from_population(
        prior: &Population<M>,
        entry: NodeId,
        observed_rx: NodeId,
        n_particles: usize,
        seed: u64,
    ) -> ParticleFilter<M> {
        assert!(!prior.is_empty(), "empty prior");
        assert!(n_particles > 0, "need at least one particle");
        let mut rng = SimRng::seed_from_u64(seed);
        let members: Vec<Member<'_, M>> = prior.members().collect();
        let weights: Vec<f64> = members.iter().map(|m| m.weight).collect();
        let w = 1.0 / n_particles as f64;
        let particles = (0..n_particles)
            .map(|_| Hypothesis {
                weight: w,
                ..members[rng.pick_weighted(&weights)].to_hypothesis()
            })
            .collect();
        ParticleFilter {
            particles,
            entry,
            observed_rx,
            fold: prior.fold,
            rng,
            now: Time::ZERO,
        }
    }

    /// Run one particle to `until`, sampling choices. Returns false if it
    /// became inconsistent with the observations.
    fn settle_one(
        p: &mut Hypothesis<M>,
        until: Time,
        idx: &ObservationIndex,
        last_mile: Option<NodeId>,
        observed_rx: NodeId,
        rng: &mut SimRng,
        injecting: bool,
    ) -> bool {
        let mut matched = 0usize;
        loop {
            let step = p.net.run_until(until);
            if !harvest(&mut p.net, observed_rx, idx, &mut matched) {
                return false;
            }
            match step {
                Step::Idle => {
                    return injecting || matched == idx.len();
                }
                Step::Pending(spec) => match fold(&spec, last_mile, !injecting, idx) {
                    Some((option, weight)) => {
                        p.weight *= weight;
                        p.net.resolve(option);
                        if p.weight <= 0.0 {
                            return false;
                        }
                    }
                    None => p.net.resolve(usize::from(rng.bernoulli(spec.p1))),
                },
            }
        }
    }

    /// Systematic resampling: positions (u + i)/n over the cumulative
    /// weights; weights reset to uniform.
    fn resample(&mut self) {
        augur_sim::perf::count_particle_resample();
        let n = self.particles.len();
        let u0 = self.rng.uniform_f64() / n as f64;
        let mut picks = Vec::with_capacity(n);
        let mut cum = 0.0;
        let mut i = 0usize;
        for k in 0..n {
            let target = u0 + k as f64 / n as f64;
            while cum + self.particles[i].weight < target && i + 1 < n {
                cum += self.particles[i].weight;
                i += 1;
            }
            picks.push(i);
        }
        let w = 1.0 / n as f64;
        let new: Vec<Hypothesis<M>> = picks
            .into_iter()
            .map(|i| Hypothesis {
                net: self.particles[i].net.clone(),
                meta: self.particles[i].meta.clone(),
                weight: w,
            })
            .collect();
        self.particles = new;
    }
}

impl<M: Clone> Engine for ParticleFilter<M> {
    type Meta = M;

    /// Advance to `until`, conditioning on the window's observations;
    /// resample if diversity collapses.
    fn advance(&mut self, until: Time, obs: &[Observation]) -> Result<(), BeliefError> {
        assert!(until >= self.now);
        let idx = ObservationIndex::new(obs);
        let (mut advanced, mut killed) = (0u64, 0usize);
        for p in &mut self.particles {
            if p.weight <= 0.0 {
                continue;
            }
            advanced += 1;
            let ok = Self::settle_one(
                p,
                until,
                &idx,
                self.fold,
                self.observed_rx,
                &mut self.rng,
                false,
            );
            if !ok {
                p.weight = 0.0;
                killed += 1;
            }
        }
        augur_sim::perf::count_hypothesis_updates(advanced);
        let total: f64 = self.particles.iter().map(|p| p.weight).sum();
        if total <= 0.0 {
            return Err(BeliefError::Dead { at: until });
        }
        for p in &mut self.particles {
            p.weight /= total;
        }
        let ess = effective_count(self.particles.iter().map(|p| p.weight));
        let prev = self.now;
        self.now = until;
        if ess < RESAMPLE_FRAC * self.particles.len() as f64 {
            self.resample();
            let flow = augur_obs::current_flow();
            augur_obs::emit(until, EventKind::Resample { flow, ess, killed });
        }
        snapshot(self.members(), prev, until);
        Ok(())
    }

    /// Inject one of the sender's own packets into every live particle.
    /// Dead particles (weight zero, possibly stopped mid-choice) are left
    /// alone; resampling replaces them.
    fn inject(&mut self, pkt: Packet) {
        let idx = ObservationIndex::new(&[]);
        for p in &mut self.particles {
            if p.weight <= 0.0 {
                continue;
            }
            p.net.inject(self.entry, pkt);
            // Settle any synchronous choices by sampling.
            Self::settle_one(
                p,
                self.now,
                &idx,
                self.fold,
                self.observed_rx,
                &mut self.rng,
                true,
            );
        }
    }

    fn members(&self) -> impl ExactSizeIterator<Item = Member<'_, M>> + Clone {
        self.particles.iter().map(Hypothesis::member)
    }

    fn now(&self) -> Time {
        self.now
    }

    fn entry(&self) -> NodeId {
        self.entry
    }
}
