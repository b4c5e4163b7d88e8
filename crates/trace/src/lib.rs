#![forbid(unsafe_code)]
//! `augur-trace` — measurement and reporting toolkit.
//!
//! Experiments produce [`Series`] (time series of samples), summarize them
//! with [`stats`], export them as CSV for external plotting, and render
//! them as ASCII charts so every experiment binary displays its figure
//! directly in the terminal. Sweeps additionally produce one record per
//! run: [`Table`] holds those and writes deterministic CSV / JSON-lines.

pub mod ascii_plot;
pub mod csv;
pub mod series;
pub mod stats;
pub mod table;

pub use ascii_plot::{render, PlotConfig};
pub use csv::{write_long, write_wide};
pub use series::Series;
pub use stats::{percentile_of_sorted, summarize, Summary};
pub use table::{Cell, Table};
