#![forbid(unsafe_code)]
//! `augur-obs` — deterministic structured observability.
//!
//! The rest of the workspace reports *endpoints*: summary rows, work
//! counters, final goodput. This crate is the *trajectory* layer — a
//! run-scoped, thread-local [`sink`] that the simulator, the flow
//! driver, and both belief engines emit sim-time-stamped structured
//! events into, plus the periodic belief snapshots that make posterior
//! convergence a measurable quantity instead of a final number.
//!
//! # Determinism contract
//!
//! * Every event is stamped with **simulated** time ([`augur_sim::Time`])
//!   — never wall-clock, so event logs are pure functions of (spec,
//!   seed) and byte-identical at any `--workers`.
//! * The sink is **thread-local and run-scoped** (the `WorkCounters`
//!   pattern from `crates/sim/src/perf.rs`): a sweep worker executes one
//!   run start-to-finish on one thread, so per-run buffers never
//!   interleave across runs.
//! * Emission is **observer-effect free**: hooks never touch work
//!   counters or RNG state, so enabling tracing leaves every counter,
//!   trace, and report byte-identical to an untraced run.
//! * The disabled path is a **no-op** — one thread-local flag read per
//!   hook, no allocation, no formatting.
//!
//! Belief engines replay *hypothetical* networks through the same
//! simulator code paths that emit ground-truth events. Only the network
//! a truth loop marks (`Network::record_events` in `augur-elements`)
//! emits, and copies are never marked, so an event log describes the
//! one real network, not thousands of imagined ones.
//!
//! Artifacts serialize as canonical JSONL through
//! [`event::event_to_json`] (shared float formatting from
//! [`augur_sim::canon`]); the `augur-obs` CLI summarizes them.

pub mod event;
pub mod json;
pub mod sink;
pub mod summary;

pub use event::{event_to_json, to_jsonl, DropKind, EventKind, EventRecord};
pub use sink::{
    current_flow, emit, emit_snapshot, finish_run, set_flow, snapshot_due, start_run, ObsConfig,
};
