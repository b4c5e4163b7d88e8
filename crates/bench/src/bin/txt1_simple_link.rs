#![forbid(unsafe_code)]
//! TXT1 — §4's first claim: "The sender reaches a predictable, ideal
//! result in simple configurations, such as a single ISENDER connected to
//! a queue, drained by a throughput-limited link. It begins tentatively
//! if it is not sure of the link speed and initial buffer occupancy.
//! Once it has inferred those parameters, it simply sends at the link
//! speed from there on out."
//!
//! The experiment is the `presets::txt1` scenario — a quiet 12 kbit/s
//! link with a half-full buffer, neither known to the sender, and a
//! cross-free custom prior (also shipped as `experiments/specs/
//! txt1.toml`). This binary builds the scenario's truth and sender via
//! the scenario runner's helpers because the checks read the posterior
//! out of the belief after the run.

use augur_bench::{figure, save_csv, Checks};
use augur_core::run_closed_loop;
use augur_inference::Engine;
use augur_scenario::{presets, spec_ground_truth, spec_isender};
use augur_sim::{BitRate, Dur, Time};
use augur_trace::{render, PlotConfig, Series};
use std::process::ExitCode;

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("TXT1: single ISender on an unknown link (no cross traffic, no loss), 90 s");

    let runs = presets::txt1(Dur::from_secs(90)).expand();
    let run = &runs[0];
    let mut truth = spec_ground_truth(&run.spec, run.seed);
    let mut sender = spec_isender(&run.spec);
    let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(90)).expect("belief died");

    let mut seq = Series::new("sequence number");
    for (i, (_, t)) in trace.sends.iter().enumerate() {
        seq.push(t.as_secs_f64(), (i + 1) as f64);
    }
    println!(
        "\n{}",
        render(
            &[&seq],
            &PlotConfig {
                title: "TXT1: sequence number vs time (single unknown link)".into(),
                ..PlotConfig::default()
            }
        )
    );
    save_csv("txt1_seq_vs_time", &[&seq]);

    // The half-full backlog delays the first ACK past ~4 s; sends before
    // it reflect pure prior uncertainty (the "tentative" phase). The
    // window after it includes the catch-up burst once parameters are
    // known, which is not tentative behavior.
    let early = trace.send_rate(Time::ZERO, Time::from_secs(4));
    let steady = trace.send_rate(Time::from_secs(45), Time::from_secs(90));
    let p_c = sender
        .belief
        .marginal(|h| h.meta.link_rate)
        .iter()
        .find(|(r, _)| *r == BitRate::from_bps(12_000))
        .map(|(_, w)| *w)
        .unwrap_or(0.0);
    println!("\n  early rate (0-4s): {early:.2} pkt/s   steady rate (45-90s): {steady:.2} pkt/s");
    println!("  posterior P(c=12000) = {p_c:.3}");

    println!("\nShape checks:");
    c.check(
        "steady state sends at the link speed",
        (steady - 1.0).abs() < 0.15,
        format!("{steady:.2} pkt/s vs link 1.00"),
    );
    c.check(
        "begins tentatively under uncertainty",
        early < steady + 0.2,
        format!("early {early:.2} <= steady {steady:.2}"),
    );
    c.check(
        "link speed inferred",
        p_c > 0.95,
        format!("P(c=12000) = {p_c:.3}"),
    );
    c.check(
        "no packets wasted on overflows",
        trace
            .drops
            .iter()
            .filter(|d| d.packet.flow == augur_sim::FlowId::SELF)
            .count()
            == 0,
        "zero own-flow drops",
    );
}
