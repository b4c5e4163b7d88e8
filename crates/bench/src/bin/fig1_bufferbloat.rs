#![forbid(unsafe_code)]
//! FIG1 — reproduce Figure 1: "Round-trip time during a TCP download on
//! the Verizon LTE network" (bufferbloat).
//!
//! The paper measured a real LTE modem; we substitute the synthetic
//! cellular path of `augur_elements::cellular`: a deep drop-tail buffer feeding a fading radio link whose stochastic losses
//! are hidden by link-layer ARQ. The experiment is the `presets::fig1`
//! scenario (a `TopologySpec::Cellular` TCP Reno run, also shipped as
//! `experiments/specs/fig1.toml`); this binary adds the log-axis RTT
//! plot and the shape checks EXPERIMENTS.md records.
//!
//! Shape targets: RTT starts near the propagation floor (~0.1 s) and
//! climbs beyond several seconds; max/min ratio ≥ 30×.

use augur_bench::{figure, save_csv, Checks};
use augur_scenario::{presets, SweepRunner};
use augur_sim::{Dur, Time};
use augur_trace::{render, PlotConfig, Series};
use std::process::ExitCode;

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("FIG1: TCP Reno download over a synthetic LTE-like path, 250 s");
    let runs = presets::fig1(Dur::from_secs(250)).expand();
    // Goodput windows derive from the spec, not a second literal.
    let t_end = Time::ZERO + runs[0].spec.duration;
    let (report, artifacts) = SweepRunner::serial().run_traced(&runs);
    let trace = artifacts
        .into_iter()
        .next()
        .and_then(|a| a.into_tcp())
        .expect("cellular TCP runs produce a TcpTrace");
    let summary_row = &report.runs[0];

    let mut rtt = Series::new("rtt_seconds");
    for (t, r) in &trace.rtt_samples {
        rtt.push(t.as_secs_f64(), r.as_secs_f64());
    }
    println!(
        "\n{}",
        render(
            &[&rtt],
            &PlotConfig {
                title: "Figure 1: RTT during a TCP download (log y)".into(),
                log_y: true,
                ..PlotConfig::default()
            }
        )
    );
    save_csv("fig1_rtt_vs_time", &[&rtt]);

    let samples: Vec<f64> = rtt.values().collect();
    let summary = augur_trace::summarize(&samples);
    println!(
        "\n  RTT: min {:.3}s  median {:.3}s  p95 {:.3}s  max {:.3}s  ({} samples)",
        summary.min, summary.median, summary.p95, summary.max, summary.n
    );
    println!(
        "  goodput {:.0} bit/s over {} segments ({} retransmitted, {} timeouts)",
        trace.mean_goodput_bps(t_end),
        trace.segments_sent,
        trace.retransmissions,
        trace.timeouts
    );
    println!(
        "  sweep row: p50 {:.3}s  p95 {:.3}s  {} overflow drops",
        summary_row.delay_p50_s, summary_row.delay_p95_s, summary_row.overflow_drops
    );

    println!("\nShape checks:");
    c.check(
        "RTT floor near propagation delay",
        summary.min < 0.2,
        format!("min RTT {:.3}s (floor 0.053s)", summary.min),
    );
    c.check(
        "RTT climbs into the seconds (bufferbloat)",
        summary.max > 3.0,
        format!("max RTT {:.3}s", summary.max),
    );
    c.check(
        "RTT blow-up ratio >= 30x (paper: ~100x)",
        trace.rtt_blowup() >= 30.0,
        format!("max/min = {:.0}x", trace.rtt_blowup()),
    );
    c.check(
        "loss fully hidden by link-layer ARQ (no stochastic drops)",
        trace
            .drops
            .iter()
            .all(|d| d.reason == augur_elements::DropReason::BufferFull),
        format!("{} drops, all buffer overflows", trace.drops.len()),
    );
}
