#![forbid(unsafe_code)]
//! `augur-trace` — the sweep report table and summary statistics.
//!
//! Sweeps produce one record per run: [`Table`] holds those and writes
//! deterministic CSV / JSON-lines. [`stats`] computes the report's delay
//! percentiles and summarizes a run's samples (min / median / p95 /
//! max) for the paper-shape tests.

pub mod stats;
pub mod table;

pub use stats::{percentile_of_sorted, summarize, Summary};
pub use table::{Cell, Table};
