//! Declarative experiment descriptions.
//!
//! A [`ScenarioSpec`] is a *value* describing one experiment: the ground
//! truth topology, the sender's prior, which sender runs, what workload
//! drives it, for how long, and under which base seed. Everything the
//! paper's experiment binaries used to hand-wire becomes data that the
//! sweep runner can expand, parallelize, and reproduce.

use augur_elements::{build_model, CellularParams, ModelParams, Network};
use augur_inference::prior::uniform_hypotheses;
use augur_inference::{Hypothesis, ModelPrior};
use augur_sim::{BitRate, Bits, Dur};
use augur_topo::GraphTopology;

// Queue disciplines moved to `augur-topo` (graph links carry them too);
// re-exported here so `augur_scenario::QueueSpec` keeps working.
pub use augur_topo::QueueSpec;

/// The ground-truth network a scenario runs against.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's Figure-2 model family ([`augur_elements::build_model`]):
    /// buffer → link → loss, with optional gated cross traffic.
    Model(ModelParams),
    /// The LTE-like cellular path ([`augur_elements::build_cellular`]):
    /// a deep buffer feeding a fading ARQ link — with the buffer's queue
    /// discipline swappable (FIG1 / EXT-D). Only TCP senders run over it;
    /// the ISender's priors all describe the model family.
    Cellular {
        /// The radio path.
        params: CellularParams,
        /// Queue discipline of the deep buffer.
        queue: QueueSpec,
    },
    /// A declarative multi-bottleneck graph ([`augur_topo::compile`]):
    /// named nodes, directed links with per-link queues, and one route
    /// per flow. Runs through the multi-agent loop — the coexist
    /// workload supplies one agent per declared flow.
    Graph(GraphTopology),
}

impl TopologySpec {
    /// A short stable label of the topology kind, for diagnostics.
    pub fn kind_label(&self) -> &'static str {
        match self {
            TopologySpec::Model(_) => "model",
            TopologySpec::Cellular { .. } => "cellular",
            TopologySpec::Graph(_) => "graph",
        }
    }

    /// The model parameters, for scenario kinds that require the Figure-2
    /// family — call sites whose specs are already validated.
    ///
    /// # Panics
    /// Panics for non-model topologies — `what` names the feature that
    /// needed the model (an authoring error, not a runtime condition).
    pub fn model(&self, what: &str) -> &ModelParams {
        match self {
            TopologySpec::Model(m) => m,
            other => panic!("{}", other.not_a_model(what)),
        }
    }

    /// Mutable [`TopologySpec::model`] that reports instead of panicking:
    /// `Err` is the rule naming `what` needed the model and the actual
    /// topology kind, which a sweep axis over the wrong topology breaks.
    pub fn try_model_mut(
        &mut self,
        what: impl std::fmt::Display,
    ) -> Result<&mut ModelParams, String> {
        match self {
            TopologySpec::Model(m) => Ok(m),
            other => Err(other.not_a_model(what)),
        }
    }

    fn not_a_model(&self, what: impl std::fmt::Display) -> String {
        format!(
            "{what} requires a model topology, got {}",
            self.kind_label()
        )
    }

    /// The packet size senders should use over this topology: the model's
    /// configured size, the graph's declared size, or the paper's
    /// 1500-byte packets on the cellular path (which carries whatever it
    /// is given).
    pub fn packet_size(&self) -> Bits {
        match self {
            TopologySpec::Model(m) => m.packet_size,
            TopologySpec::Cellular { .. } => Bits::from_bytes(1_500),
            TopologySpec::Graph(g) => g.packet_size,
        }
    }
}

/// Which sender runs the scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SenderSpec {
    /// The paper's ISender over the exact enumeration engine.
    IsenderExact {
        /// Utility weight on cross traffic (§4's α).
        alpha: f64,
        /// Latency penalty λ on cross traffic (0 disables).
        latency_penalty: f64,
        /// Branch cap of the exact belief.
        max_branches: usize,
    },
    /// The ISender over the bootstrap particle filter.
    IsenderParticle {
        /// Utility weight on cross traffic.
        alpha: f64,
        /// Latency penalty λ on cross traffic.
        latency_penalty: f64,
        /// Particle population size.
        n_particles: usize,
    },
    /// TCP Reno bulk transfer (the paper's baseline).
    TcpReno {
        /// Receiver-window stand-in (packets).
        max_window: u64,
    },
    /// TCP CUBIC bulk transfer.
    TcpCubic {
        /// Receiver-window stand-in (packets).
        max_window: u64,
    },
}

impl SenderSpec {
    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SenderSpec::IsenderExact { .. } => "isender-exact",
            SenderSpec::IsenderParticle { .. } => "isender-particle",
            SenderSpec::TcpReno { .. } => "tcp-reno",
            SenderSpec::TcpCubic { .. } => "tcp-cubic",
        }
    }

    /// The utility's α, if this sender has one.
    pub fn alpha(&self) -> Option<f64> {
        match self {
            SenderSpec::IsenderExact { alpha, .. } | SenderSpec::IsenderParticle { alpha, .. } => {
                Some(*alpha)
            }
            _ => None,
        }
    }

    /// The exact-belief branch cap, if this sender has one (the knob the
    /// `sweep` CLI's `--branches` override writes).
    pub fn max_branches_mut(&mut self) -> Option<&mut usize> {
        match self {
            SenderSpec::IsenderExact { max_branches, .. } => Some(max_branches),
            _ => None,
        }
    }
}

/// The sender's prior over network configurations.
///
/// `Eq + Hash` so the sweep runner's [`crate::runner::PriorCache`] can
/// key seated priors by the prior that built them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PriorSpec {
    /// The paper's Figure-2 table prior (≈4,800 configurations).
    Paper,
    /// The reduced 8-point grid used by unit tests.
    Small,
    /// An explicit [`ModelPrior`] grid.
    Custom(ModelPrior),
    /// `n` hypotheses on a fine link-rate grid with everything else
    /// pinned and the gate always on — the inference-scaling prior
    /// (EXT-C): posterior quality and update cost as pure functions of
    /// hypothesis count.
    FineLinkRate {
        /// Hypothesis count.
        n: usize,
        /// Lowest link rate on the grid (bits/s).
        lo_bps: u64,
        /// Highest link rate on the grid (bits/s).
        hi_bps: u64,
    },
}

impl PriorSpec {
    /// Number of grid points without building any networks.
    pub fn size(&self) -> usize {
        match self {
            PriorSpec::FineLinkRate { n, .. } => *n,
            _ => self.grid().len(),
        }
    }

    /// The parameter grid points, in enumeration order.
    fn grid(&self) -> Vec<ModelParams> {
        match self {
            PriorSpec::Paper => ModelPrior::paper().grid(),
            PriorSpec::Small => ModelPrior::small().grid(),
            PriorSpec::Custom(p) => p.grid(),
            PriorSpec::FineLinkRate { n, lo_bps, hi_bps } => {
                let n = *n;
                assert!(n > 0, "FineLinkRate prior needs at least one hypothesis");
                // Backstop for hand-built specs; config decoding rejects
                // this with a positioned error before a run ever starts.
                assert!(
                    lo_bps <= hi_bps,
                    "FineLinkRate prior has an inverted range ({lo_bps} > {hi_bps})"
                );
                // In u128, so no product or sum of two u64 rates wraps;
                // every rate lies in `lo..=hi`, so it fits a u64 again.
                let (lo, hi) = (u128::from(*lo_bps), u128::from(*hi_bps));
                let rate = |bps: u128| BitRate::from_bps((bps as u64).max(1));
                (0..n)
                    .map(|i| {
                        let bps = if n == 1 {
                            (lo + hi) / 2
                        } else {
                            lo + i as u128 * (hi - lo) / (n as u128 - 1)
                        };
                        ModelParams::simple_link(rate(bps), Bits::new(96_000))
                            .with_cross_rate(rate(bps * 7 / 10))
                    })
                    .collect()
            }
        }
    }

    /// Enumerate the prior as uniformly-weighted hypotheses, one at a time
    /// ([`uniform_hypotheses`] over its grid points).
    pub fn hypotheses(&self) -> impl Iterator<Item = Hypothesis<ModelParams>> + Clone {
        uniform_hypotheses(self.grid())
    }
}

/// The competitor sharing the bottleneck in a coexistence run (the
/// second sender, transmitting as `FlowId(1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeerSpec {
    /// A second belief-restarting ISender with its own utility weight α
    /// (same coexistence prior as the primary, no latency penalty) —
    /// EXT-A, §3.5's "more than one ISENDER".
    Isender {
        /// The peer's utility weight on cross traffic.
        alpha: f64,
    },
    /// A compact AIMD window sender: additive increase per delivery,
    /// halve on an RTO-style gap — the congestion-control core all of
    /// §2's TCP variants share (EXT-B).
    Aimd {
        /// The RTO-like gap detector.
        timeout: Dur,
    },
    /// A full TCP Reno bulk transfer (via the network-free
    /// `augur_tcp::TcpEndpoint`).
    TcpReno {
        /// Receiver-window stand-in (packets).
        max_window: u64,
    },
    /// A full TCP CUBIC bulk transfer.
    TcpCubic {
        /// Receiver-window stand-in (packets).
        max_window: u64,
    },
}

impl PeerSpec {
    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PeerSpec::Isender { .. } => "isender",
            PeerSpec::Aimd { .. } => "aimd",
            PeerSpec::TcpReno { .. } => "tcp-reno",
            PeerSpec::TcpCubic { .. } => "tcp-cubic",
        }
    }
}

/// An N-sender coexistence run (§3.5): the scenario's sender and one
/// [`PeerSpec`] competitor per entry share one bottleneck built from the
/// topology's link rate, buffer capacity, and loss — peer `i` transmits
/// as `FlowId(i + 1)`. The primary must be an exact-belief ISender; its
/// prior is the dedicated coexistence prior (`augur_core::
/// coexist_belief`, derived from the topology), so
/// [`ScenarioSpec::prior`] is not consulted.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexistSpec {
    /// Who shares the link (must be non-empty; the multi-agent loop
    /// supports any count).
    pub peers: Vec<PeerSpec>,
}

impl CoexistSpec {
    /// All peer labels joined into one report token, e.g. `aimd+tcp-reno`.
    pub fn label(&self) -> String {
        self.peers
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// A many-flow scaling run: N lightweight senders (no belief machinery)
/// share one bottleneck through the heap-scheduled flow driver. The
/// scenario's [`ScenarioSpec::sender`] and [`ScenarioSpec::prior`] are
/// inert — every agent comes from `mix`, with agent `i` built from
/// `mix[i % mix.len()]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ManyFlowSpec {
    /// How many concurrent flows share the bottleneck (1..=65536).
    pub flows: usize,
    /// The repeating agent pattern (must be non-empty; belief-carrying
    /// [`PeerSpec::Isender`] entries are rejected at decode time — at
    /// N=10k each belief would dwarf the network itself).
    pub mix: Vec<PeerSpec>,
}

impl ManyFlowSpec {
    /// All mix labels joined into one report token, e.g. `aimd+tcp-reno`.
    pub fn label(&self) -> String {
        self.mix
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// What drives the sender.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's closed loop (§4): the sender decides when to transmit,
    /// woken by acknowledgments and its own timer.
    ClosedLoop,
    /// Open-loop scripted sends every `interval`, with the belief update
    /// measured but never consulted for scheduling — the
    /// inference-scaling workload (EXT-C / §3.2's cost remark).
    ScriptedPing {
        /// Gap between scripted transmissions.
        interval: Dur,
    },
    /// Two senders share the bottleneck (§3.5): the scenario's sender
    /// plus the described peer, run through the multi-agent loop.
    Coexist(CoexistSpec),
    /// N lightweight flows share the bottleneck through the flow driver
    /// — the many-flow scaling workload.
    ManyFlows(ManyFlowSpec),
}

/// One fully-described experiment.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Report label.
    pub name: String,
    /// Ground-truth network.
    pub topology: TopologySpec,
    /// The sender's prior.
    pub prior: PriorSpec,
    /// Which sender runs.
    pub sender: SenderSpec,
    /// What drives it.
    pub workload: WorkloadSpec,
    /// Simulated duration.
    pub duration: Dur,
    /// Base seed; per-run seeds derive from `(base_seed, run_index)`.
    pub base_seed: u64,
    /// Observability arming for the scenario's runs (the `[observe]`
    /// config table, `sweep --trace-events` / `--belief-snapshots`).
    /// Default-off: a non-armed run takes the sink's no-op fast path, and
    /// arming either channel leaves CSVs, work counters, and RNG streams
    /// byte-identical (pinned by tests).
    pub observe: augur_obs::ObsConfig,
}

impl ScenarioSpec {
    /// A closed-loop α = 1 exact-ISender scenario over the paper's ground
    /// truth and prior — the common starting point presets then override.
    pub fn paper_baseline(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            topology: TopologySpec::Model(ModelParams::paper_ground_truth()),
            prior: PriorSpec::Paper,
            sender: SenderSpec::IsenderExact {
                alpha: 1.0,
                latency_penalty: 0.0,
                max_branches: 50_000,
            },
            workload: WorkloadSpec::ClosedLoop,
            duration: Dur::from_secs(300),
            base_seed: 0xF13,
            observe: augur_obs::ObsConfig::default(),
        }
    }

    /// The ground-truth network this scenario runs against, for
    /// model-family topologies; its nodes are the `FIG2_*` ids.
    ///
    /// # Panics
    /// Panics for cellular and graph topologies, which are built by the
    /// runner's TCP-over-cellular and compiled-graph paths instead.
    pub fn build_truth(&self) -> Network {
        build_model(*self.topology.model("build_truth"))
    }

    /// Every rule one scenario must satisfy to run — a positive duration,
    /// workload × sender × topology compatibility and non-empty belief
    /// populations — in one
    /// place: `Err` carries the rule this scenario breaks and the section
    /// it blames. [`crate::SweepGrid::validate`] applies it to the base
    /// spec and every grid point (the config decoder turns its blame into
    /// a `file:line:col`), the runner's lowering assumes a checked spec,
    /// and [`crate::execute_run_traced_in`] refuses an unchecked one up front.
    pub fn check(&self) -> Result<(), RuleError> {
        use {SenderSpec as S, TopologySpec as T, WorkloadSpec as W};
        let sender = self.sender.label();
        let exact_sender = matches!(self.sender, S::IsenderExact { .. });
        let belief_sender = exact_sender || matches!(self.sender, S::IsenderParticle { .. });
        // An empty population leaves the belief nothing to normalize.
        let no_branches = matches!(
            self.sender,
            S::IsenderExact {
                max_branches: 0,
                ..
            }
        );
        let no_particles = matches!(self.sender, S::IsenderParticle { n_particles: 0, .. });
        let no_hypotheses = matches!(self.prior, PriorSpec::FineLinkRate { n: 0, .. });
        // The first arm that matches decides: a rule this spec breaks, or
        // a workload × topology pairing with nothing left to break.
        let (blame, rule) = match (&self.workload, &self.topology) {
            // A run of no time sends nothing and divides by zero seconds.
            _ if self.duration == Dur::ZERO => {
                (Blame::Scenario, "`duration_s` must be > 0 seconds".into())
            }
            _ if no_branches => (Blame::Sender, "`max_branches` must be at least 1".into()),
            _ if no_particles => (Blame::Sender, "`n_particles` must be at least 1".into()),
            _ if no_hypotheses => (
                Blame::Prior,
                "a fine-link-rate prior needs at least one hypothesis".into(),
            ),
            // A buffer cannot start fuller than it holds.
            (_, T::Model(m)) if m.initial_fullness > m.buffer_capacity => (
                Blame::Topology,
                format!(
                    "`initial_fullness_bits` ({}) must not exceed `buffer_bits` ({})",
                    m.initial_fullness, m.buffer_capacity
                ),
            ),
            (W::ClosedLoop, T::Model(_)) => return Ok(()),
            (W::ClosedLoop, T::Cellular { .. }) if !belief_sender => return Ok(()),
            (_, T::Cellular { .. }) if belief_sender => (
                Blame::Sender,
                format!(
                    "sender kind `{sender}` cannot run over a cellular topology (only tcp-reno / \
                     tcp-cubic can)"
                ),
            ),
            (_, T::Cellular { .. }) => (
                Blame::Workload,
                "cellular topologies only support the closed-loop workload".into(),
            ),
            (W::Coexist(_), _) if !exact_sender => (
                Blame::Sender,
                format!(
                    "the coexist workload needs an exact-belief isender primary, got `{sender}`"
                ),
            ),
            (W::Coexist(cx), T::Graph(g)) if g.flows.len() != 1 + cx.peers.len() => (
                Blame::Workload,
                format!(
                    "graph topology declares {} flows but this workload drives {} agents \
                     (primary + {} peers)",
                    g.flows.len(),
                    1 + cx.peers.len(),
                    cx.peers.len()
                ),
            ),
            // The coexistence prior models the competitor as a pinger of
            // 1500-byte packets and grids buffer fullness in 1500-byte
            // steps; another wire size would make the restart counts
            // measure that mismatch instead of the adaptive-peer misfit.
            (W::Coexist(_), topology) if topology.packet_size() != Bits::from_bytes(1_500) => (
                Blame::Topology,
                format!(
                    "the coexist workload requires 1500-byte packets (`packet_bits = 12000`, the \
                     coexistence prior's grid), got {} bits",
                    topology.packet_size().as_u64()
                ),
            ),
            (W::Coexist(_), _) => return Ok(()),
            (_, T::Graph(_)) => (
                Blame::Workload,
                "graph topologies only support the coexist workload (one agent per declared flow)"
                    .into(),
            ),
            // Only the model family is left for the last two workloads.
            (W::ScriptedPing { .. }, _) if !belief_sender => (
                Blame::Sender,
                format!(
                    "the scripted-ping workload measures a belief update; sender kind `{sender}` \
                     carries no belief"
                ),
            ),
            (W::ScriptedPing { interval }, _) if *interval == Dur::ZERO => (
                Blame::Workload,
                "the scripted-ping `interval_s` must be > 0 seconds".into(),
            ),
            (W::ScriptedPing { .. } | W::ManyFlows(_), _) => return Ok(()),
        };
        Err(RuleError { blame, rule })
    }
}

/// The part of a spec a broken rule blames — what the config decoder's
/// `file:line:col` points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// The `[scenario]` section.
    Scenario,
    /// The `[topology]` section.
    Topology,
    /// The `[prior]` section.
    Prior,
    /// The `[sender]` section.
    Sender,
    /// The `[workload]` section.
    Workload,
    /// The grid's `i`-th `[[axis]]` (only
    /// [`crate::SweepGrid::validate`] blames one).
    Axis(usize),
}

/// A validity rule a scenario or grid breaks, and the part it blames.
/// Displays as the rule alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleError {
    /// Where the fault lies.
    pub blame: Blame,
    /// The rule, as a sentence naming what was expected and what was found.
    pub rule: String,
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_link_rate_prior_contains_truth_and_is_uniform() {
        let p = PriorSpec::FineLinkRate {
            n: 101,
            lo_bps: 8_000,
            hi_bps: 16_000,
        };
        assert_eq!(p.size(), 101);
        let hyps: Vec<_> = p.hypotheses().collect();
        assert_eq!(hyps.len(), 101);
        assert!(hyps
            .iter()
            .any(|h| h.meta.link_rate == BitRate::from_bps(12_000)));
        let total: f64 = hyps.iter().map(|h| h.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fine_prior_rates_do_not_wrap() {
        // i · (hi − lo) is 2^64 at i = 2, and each rate · 7 wraps a u64.
        let p = PriorSpec::FineLinkRate {
            n: 3,
            lo_bps: 1 << 62,
            hi_bps: 3 << 62,
        };
        let rates: Vec<_> = p
            .hypotheses()
            .map(|h| (h.meta.link_rate.as_bps(), h.meta.cross_rate.as_bps()))
            .collect();
        let cross = |bps: u64| (u128::from(bps) * 7 / 10) as u64;
        let want = [1 << 62, 2 << 62, 3 << 62].map(|bps| (bps, cross(bps)));
        assert_eq!(rates, want);
    }

    #[test]
    fn single_point_fine_prior_sits_mid_range() {
        let p = PriorSpec::FineLinkRate {
            n: 1,
            lo_bps: 8_000,
            hi_bps: 16_000,
        };
        let first = p.hypotheses().next().expect("one hypothesis");
        assert_eq!(first.meta.link_rate, BitRate::from_bps(12_000));
    }

    #[test]
    fn prior_sizes_match_model_prior_grids() {
        assert_eq!(PriorSpec::Small.size(), 8);
        assert_eq!(PriorSpec::Paper.size(), ModelPrior::paper().grid().len());
    }
}
