#![forbid(unsafe_code)]
//! `augur-inference` — Bayesian inference over network configurations.
//!
//! This crate is the first of the ISENDER's two jobs: "maintain a model of
//! the network configuration with specified uncertainty … accomplished
//! using standard probabilistic techniques" (§3.2).
//!
//! * [`prior`] builds the discretized uniform prior of Figure 2's table.
//! * [`exact`] is the paper's engine: enumerate every configuration, fork
//!   on nondeterminism, reject branches inconsistent with the observed
//!   acknowledgments, renormalize, and compact reconverged states.
//! * [`particle`] is the scalable alternative the paper points to in the
//!   POMDP literature: a bootstrap particle filter with systematic
//!   resampling, O(particles) per update regardless of prior size.
//! * [`observe`] defines the observation model (ACK = sequence number +
//!   exact arrival time) and the consistency rule.
//! * [`engine`] is the seam: the [`Engine`] trait is all the sender, the
//!   planner and the scenario runner know about a posterior, so either
//!   engine can stand behind them; what both engines do alike (the
//!   last-mile loss fold, the posterior snapshot) is stated there once.
//!
//! Both engines hand out their members as the same views, and take their
//! priors as the same hypotheses ([`hypothesis`]); the exact engine stores
//! its members over shared network states there.

pub mod engine;
pub mod exact;
pub mod hypothesis;
pub mod observe;
pub mod particle;
pub mod prior;

pub use engine::Engine;
pub use exact::{AdvanceStats, Belief, BeliefConfig, BeliefError};
pub use hypothesis::{effective_count, Hypothesis, Member, Population};
pub use observe::{harvest, Observation, ObservationIndex};
pub use particle::{ParticleConfig, ParticleFilter};
pub use prior::ModelPrior;
