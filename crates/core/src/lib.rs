#![forbid(unsafe_code)]
//! `augur-core` — the paper's primary contribution: a sender that treats
//! the network as a nondeterministic automaton, maintains a probability
//! distribution over its possible configurations, and "at each moment …
//! acts to maximize the expected value of a utility function that is given
//! explicitly" (abstract).
//!
//! The approach "consists of four parts: the model of the network itself,
//! a sender that simulates possible network states to decide when best to
//! transmit, an instantaneous utility function that the sender is trying
//! to optimize, and a receiver" (§3). The model lives in
//! `augur-elements`, the belief machinery in `augur-inference`; this crate
//! supplies the remaining parts:
//!
//! * [`utility`] — the discounted-throughput utility family (§3.3) with
//!   the cross-traffic weight α and the optional latency penalty;
//! * [`planner`] — expected-utility maximization over the send/sleep
//!   action grid via determinized rollouts (§3.2–3.3);
//! * [`isender`] — the event-driven sender agent;
//! * [`experiment`] — the closed loop embedding the sender in a
//!   ground-truth simulation (§4), whose receiver acknowledges each
//!   packet's arrival time (§3.4);
//! * [`driver`] — the heap-scheduled [`FlowDriver`] event loop every
//!   closed-loop harness runs on, from N=1 to many thousands of flows;
//! * [`multi`] — the N-sender closed loop over a shared bottleneck
//!   (§3.5's open question), with per-flow ACK routing, event-driven
//!   wakes, and seeded tie-breaking;
//! * [`coexist`] — the agents that share that bottleneck: the
//!   belief-restarting ISender and a compact AIMD competitor.

pub mod coexist;
pub mod driver;
pub mod experiment;
pub mod isender;
pub mod multi;
pub mod planner;
pub mod utility;

pub use coexist::{coexist_belief, AimdSender, RestartingSender};
pub use driver::{DriverError, FlowDriver, FlowTableError};
pub use experiment::{run_closed_loop, GroundTruth, RunTrace};
pub use isender::{ISender, ISenderConfig, ParticleSender, SenderAgent, WakeOutcome};
pub use multi::{build_many_flow_bottleneck, jain_index, run_multi_agent, MultiFlowTruth};
pub use planner::{
    decide, decide_weighted, rollout, subsample_weighted, Action, Branch, Decision, PlannerConfig,
    RolloutCounts,
};
pub use utility::{discounted_stream_sum, DiscountedThroughput, RolloutReport, Utility, THETA_MS};
