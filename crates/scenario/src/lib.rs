#![forbid(unsafe_code)]
//! `augur-scenario` — experiments as data.
//!
//! The paper's results are all parameter sweeps over (topology, prior,
//! sender, utility α, seed) tuples. This crate turns such an experiment
//! into a value instead of a hand-rolled binary:
//!
//! * [`ScenarioSpec`] describes one experiment — ground-truth topology
//!   ([`augur_elements::ModelParams`]), prior ([`PriorSpec`]), sender
//!   kind ([`SenderSpec`]: exact ISender, particle ISender, TCP Reno or
//!   CUBIC), workload ([`WorkloadSpec`]), duration and base seed;
//! * [`SweepGrid`] expands [`Axis`] lists (α values × buffer sizes ×
//!   seed replicates × …) into a cartesian run list, each run's seed
//!   derived deterministically from `(base_seed, run_index)`;
//! * [`SweepRunner`] executes runs in parallel on scoped worker threads
//!   — results are byte-identical to a serial execution because every
//!   run is a pure function of its spec and derived seed;
//! * [`SweepReport`] collects per-run [`RunSummary`]s (throughput, delay
//!   percentiles, realized utility, overflow counts) and exports
//!   deterministic CSV / JSON-lines through [`augur_trace::Table`];
//! * [`config`] loads a whole grid from a TOML spec file, so new
//!   experiments are data changes, not code changes — the shipped
//!   sweeps in [`presets`] are the files under `experiments/specs/`,
//!   compiled in.
//!
//! # Example
//!
//! ```no_run
//! use augur_scenario::{presets, SweepRunner};
//!
//! // Figure 3's α sweep, executed across all cores.
//! let runs = presets::by_name("fig3").expect("a shipped sweep").expand();
//! let report = SweepRunner::parallel().run(&runs);
//! print!("{}", report.to_csv_string());
//! ```

pub mod config;
pub mod grid;
pub mod presets;
pub mod report;
pub mod runner;
pub mod spec;
pub mod traces;

pub use augur_topo::{FlowSpec, GraphTopology, LinkSpec};
pub use config::{load_grid, parse_grid, parse_grid_at, ConfigError};
pub use grid::{Axis, RunSpec, SweepGrid};
pub use report::{RunStatus, RunSummary, SweepReport};
pub use runner::{
    execute_run_traced_in, spec_ground_truth, spec_isender, PriorCache, RunArtifact, SweepRunner,
    TcpPeerAgent,
};
pub use spec::{
    Blame, CoexistSpec, ObserveSpec, PeerSpec, PriorSpec, QueueSpec, RuleError, ScenarioSpec,
    SenderSpec, TopologySpec, WorkloadSpec,
};
