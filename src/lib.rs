#![forbid(unsafe_code)]
//! `augur` — end-to-end transmission control by modeling uncertainty
//! about the network state.
//!
//! A from-scratch Rust reproduction of Winstein & Balakrishnan,
//! *"End-to-End Transmission Control by Modeling Uncertainty about the
//! Network State"*, HotNets-X (2011): a sender that treats the network as
//! a nondeterministic automaton built from idealized elements, maintains
//! a probability distribution over its possible configurations by
//! conditioning on acknowledgment times, and at every moment takes the
//! action — transmit now, or sleep — that maximizes the expected value of
//! an explicit utility function.
//!
//! # Crates
//!
//! * [`sim`] — discrete-event substrate: integer virtual time, packets,
//!   seeded RNG.
//! * [`elements`] — the paper's element language (§3.1): BUFFER,
//!   THROUGHPUT, DELAY, LOSS, JITTER, PINGER, INTERMITTENT, SQUAREWAVE,
//!   RECEIVER, with SERIES / DIVERTER / EITHER composition, plus AQM
//!   (RED, CoDel), time-varying links and link-layer ARQ.
//! * [`inference`] — the belief engines (§3.2): exact enumeration with
//!   forking, compaction and pruning; and a bootstrap particle filter.
//!   Both start from a prior seated by `Population::new`, which fixes the
//!   last-mile loss node they fold.
//! * [`core`] — the ISender (§3.2–3.4): utility functions, the
//!   expected-utility planner, the sender agent and the closed-loop
//!   experiment harness.
//! * [`tcp`] — the baseline the paper contrasts with: TCP Reno congestion
//!   control with Jacobson RTT estimation, over the same element networks.
//! * [`trace`] — the sweep report table (deterministic CSV / JSON-lines)
//!   and summary statistics.
//! * [`scenario`] — experiments as data: declarative scenario specs,
//!   cartesian sweep grids, a parallel deterministic sweep runner, and
//!   CSV/JSONL report export.
//!
//! # Quickstart
//!
//! ```
//! use augur::prelude::*;
//!
//! // The paper's Figure-2 network with its "actual" parameters...
//! let mut truth = GroundTruth {
//!     net: build_model(ModelParams::paper_ground_truth()),
//!     entry: FIG2_ENTRY,
//!     rx_self: FIG2_RX_SELF,
//!     rng: SimRng::seed_from_u64(7),
//! };
//! // ...a sender holding the paper's prior and the α = 1 utility...
//! let belief = ModelPrior::paper().belief(BeliefConfig::default());
//! let mut sender = ISender::new(
//!     belief,
//!     Box::new(DiscountedThroughput::with_alpha(1.0)),
//!     ISenderConfig::default(),
//! );
//! // ...run the closed loop for ten simulated seconds.
//! let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(10)).unwrap();
//! assert!(!trace.sends.is_empty());
//! ```

pub use augur_core as core;
pub use augur_elements as elements;
pub use augur_inference as inference;
pub use augur_scenario as scenario;
pub use augur_sim as sim;
pub use augur_tcp as tcp;
pub use augur_trace as trace;

/// The commonly-used surface in one import.
pub mod prelude {
    pub use augur_core::{
        decide, run_closed_loop, Action, DiscountedThroughput, GroundTruth, ISender, ISenderConfig,
        ParticleSender, PlannerConfig, RunTrace, SenderAgent, Utility,
    };
    pub use augur_elements::{
        build_cellular, build_model, Buffer, CellularParams, Element, GateSpec, Link, ModelParams,
        Network, NetworkBuilder, NodeId, RateProcess, ReceiverEl, Step, FIG2_ENTRY, FIG2_RX_SELF,
    };
    pub use augur_inference::{
        Belief, BeliefConfig, Engine, Hypothesis, ModelPrior, Observation, ParticleFilter,
        Population,
    };
    pub use augur_scenario::{
        Axis, PriorSpec, ScenarioSpec, SenderSpec, SweepGrid, SweepReport, SweepRunner,
        WorkloadSpec,
    };
    pub use augur_sim::{BitRate, Bits, Dur, FlowId, Packet, Ppm, SimRng, Time};
    pub use augur_tcp::{TcpConfig, TcpRunner};
}
