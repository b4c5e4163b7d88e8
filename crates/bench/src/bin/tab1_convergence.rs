#![forbid(unsafe_code)]
//! TAB1 — reproduce Figure 2's parameter table: prior belief vs actual,
//! and show the posterior concentrating on the actual values.
//!
//! "The ISENDER is initialized with a prior that includes, as one
//! possibility, the true value of most of the parameters" (§4). We run
//! the α = 1 sender for 120 s against the paper's ground truth and report
//! the posterior marginal of each parameter over time.
//!
//! The experiment is the `presets::tab1` scenario (also shipped as
//! `experiments/specs/tab1.toml`); this binary builds the exact truth
//! and sender that scenario describes via the scenario runner's helpers,
//! because the posterior snapshots need the belief mid-run — a
//! measurement the summary-only sweep path does not expose.

use augur_bench::{figure, save_csv, Checks};
use augur_core::run_closed_loop;
use augur_inference::Engine;
use augur_scenario::{presets, spec_ground_truth, spec_isender};
use augur_sim::{BitRate, Bits, Dur, Ppm, Time};
use augur_trace::Series;
use std::process::ExitCode;

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("TAB1: prior vs actual (Figure 2 table), posterior over time\n");
    println!(
        "  {:<22} {:<28} {:>10}",
        "parameter", "prior belief", "actual"
    );
    println!(
        "  {:<22} {:<28} {:>10}",
        "c (link speed)", "10,000..=16,000 bps", "12,000"
    );
    println!(
        "  {:<22} {:<28} {:>10}",
        "r (cross rate)", "0.4c..=0.7c", "0.7c"
    );
    println!(
        "  {:<22} {:<28} {:>10}",
        "t (mean switch)", "100 s (believed)", "n/a"
    );
    println!(
        "  {:<22} {:<28} {:>10}",
        "p (loss rate)", "0.00..=0.20", "0.20"
    );
    println!(
        "  {:<22} {:<28} {:>10}",
        "buffer capacity", "72,000..=108,000 bits", "96,000"
    );
    println!(
        "  {:<22} {:<28} {:>10}",
        "initial fullness", "0..=capacity", "0"
    );

    // Run in 10 s stages so we can snapshot the posterior as it sharpens.
    let runs = presets::tab1(Dur::from_secs(120), 50_000).expand();
    let run = &runs[0];
    let mut truth = spec_ground_truth(&run.spec, run.seed);
    let mut sender = spec_isender(&run.spec);
    let mut p_c = Series::new("P(c=12000)");
    let mut p_r = Series::new("P(r=0.7c)");
    let mut p_p = Series::new("P(p=0.2)");
    let mut p_b = Series::new("P(buf=96000)");
    let stages: Vec<u64> = (1..=12).map(|k| k * 10).collect();
    let mut checkpoints = Vec::new();
    for &secs in &stages {
        run_closed_loop(&mut truth, &mut sender, Time::from_secs(secs)).expect("belief died");
        let t = secs as f64;
        let prob = |f: &dyn Fn(&augur_elements::ModelParams) -> bool| -> f64 {
            sender
                .belief
                .members()
                .filter(|h| f(&h.meta))
                .map(|h| h.weight)
                .sum()
        };
        let c = prob(&|m| m.link_rate == BitRate::from_bps(12_000));
        let r = prob(&|m| m.cross_rate == BitRate::from_bps(8_400));
        let p = prob(&|m| m.loss == Ppm::from_prob(0.2));
        let b = prob(&|m| m.buffer_capacity == Bits::new(96_000));
        p_c.push(t, c);
        p_r.push(t, r);
        p_p.push(t, p);
        p_b.push(t, b);
        checkpoints.push((secs, c, r, p, b, sender.belief.branch_count()));
    }

    println!(
        "\n  {:>5} {:>12} {:>10} {:>10} {:>14} {:>10}",
        "t(s)", "P(c=12000)", "P(r=0.7c)", "P(p=0.2)", "P(buf=96000)", "branches"
    );
    for (t, c, r, p, b, n) in &checkpoints {
        println!("  {t:>5} {c:>12.3} {r:>10.3} {p:>10.3} {b:>14.3} {n:>10}");
    }
    save_csv("tab1_posterior_vs_time", &[&p_c, &p_r, &p_p, &p_b]);

    let last = checkpoints.last().unwrap();
    println!("\nShape checks:");
    c.check(
        "link speed identified (P > 0.95)",
        last.1 > 0.95,
        format!("P(c=12000) = {:.3} at {}s", last.1, last.0),
    );
    c.check(
        "cross rate identified (P > 0.8)",
        last.2 > 0.8,
        format!("P(r=0.7c) = {:.3}", last.2),
    );
    c.check(
        "loss rate concentrating on 0.2 (P > 0.5 among 5 values)",
        last.3 > 0.5,
        format!("P(p=0.2) = {:.3}", last.3),
    );
    c.check(
        "buffer capacity not excluded (P >= prior 0.25)",
        last.4 >= 0.2,
        format!("P(buf=96000) = {:.3}", last.4),
    );
    c.check(
        "prior pared down (paper: 'quickly pare down the prior')",
        last.5 < 4_000,
        format!("{} branches from 4,760 grid points", last.5),
    );
}
