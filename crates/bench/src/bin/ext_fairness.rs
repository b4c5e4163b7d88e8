#![forbid(unsafe_code)]
//! EXT-A — §3.5's first open question: "we have not yet experimented with
//! any networks that contain more than one ISENDER … whether starting
//! with the same or different assumptions … will be of great importance."
//!
//! A thin wrapper over the `coexist-fairness` scenario preset: two
//! ISenders (same coexistence prior, same α = 1 utility) share one
//! 24 kbit/s bottleneck through the multi-agent loop
//! (`augur_core::run_multi_agent`). Each models the other as an
//! isochronous pinger — a misspecification, handled by the
//! belief-restart protocol. Reported: per-flow throughput, Jain's
//! fairness index, and the restart counts (a direct measurement of how
//! badly the pinger model fits an adaptive peer).

use augur_bench::{figure, out_dir, Checks};
use augur_scenario::{presets, SweepRunner};
use augur_sim::Dur;
use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("EXT-A: two ISenders sharing a 24 kbit/s bottleneck, 200 s\n");
    let grid = presets::coexist_fairness(Dur::from_secs(200), 1, 50_000);
    let runs = grid.expand();
    let link_bps = runs[0]
        .spec
        .topology
        .model("ext_fairness")
        .link_rate
        .as_bps();
    let report = SweepRunner::serial().run(&runs);
    let r = &report.runs[0];

    let (ra, rb) = (r.goodput_bps, r.goodput_b_bps);
    let (restarts_a, restarts_b) = (
        r.restarts_a.expect("coexist run reports restarts"),
        r.restarts_b.expect("coexist run reports restarts"),
    );
    println!("  flow A: {ra:.0} bit/s ({restarts_a} belief restarts)");
    println!("  flow B: {rb:.0} bit/s ({restarts_b} belief restarts)");
    println!(
        "  combined: {:.0} bit/s of {link_bps} ({:.0}%)",
        ra + rb,
        (ra + rb) / link_bps as f64 * 100.0
    );
    println!("  Jain fairness index: {:.3}", r.jain);

    let csv_path = out_dir().join("ext_fairness.csv");
    let file = fs::File::create(&csv_path).expect("create csv");
    report.write_csv(BufWriter::new(file)).expect("write csv");
    println!("  wrote {}", csv_path.display());

    println!("\nShape checks:");
    c.check(
        "both senders make progress",
        ra > 1_000.0 && rb > 1_000.0,
        format!("{ra:.0} / {rb:.0} bit/s"),
    );
    c.check(
        "link not overdriven",
        ra + rb <= link_bps as f64 * 1.05,
        format!("{:.0} <= {link_bps}", ra + rb),
    );
    c.check(
        "rough fairness (Jain >= 0.7)",
        r.jain >= 0.7,
        format!("{:.3}", r.jain),
    );
    c.check(
        "misspecification measured: restarts occurred (open question of §3.5)",
        restarts_a + restarts_b > 0,
        format!("{} total restarts", restarts_a + restarts_b),
    );
}
