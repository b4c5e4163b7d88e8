#![forbid(unsafe_code)]
//! EXT-C — the paper's scalability remark (§3.2): "This
//! rejection-sampling approach is limited computationally; we have found
//! that maintaining more than a few million possible discrete channel
//! configurations is impractical. A more sophisticated and scalable
//! scheme would use the approximate techniques of Bayesian inference …"
//!
//! We sweep the hypothesis count of the exact engine across four decades
//! and compare against the particle filter at a fixed 1,000-particle
//! budget, measuring the work of the belief update — hypothesis
//! trajectories advanced, the deterministic cost every engine pays per
//! member per window — and the posterior-mean error on the link rate. The
//! sweep is the `presets::ext_scaling` grid — engine × prior size under
//! the scripted 2 s ping workload; this binary adds the scaling shape
//! checks. Nothing here reads a clock: timing belongs to `benchmark/`, and
//! a check on wall time fails whenever the engine gets faster.

use augur_bench::{figure, out_dir, Checks};
use augur_scenario::{presets, Axis, RunStatus, RunSummary, SweepRunner};
use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;

/// Seed replicates per (engine, prior size) cell: particle survival at
/// large priors is seed luck, so each cell is measured a few times and
/// aggregated over the survivors.
const REPLICATES: usize = 3;

/// Mean hypothesis updates and rate error over a cell's surviving
/// replicates, if any.
fn survivors(cell: &[RunSummary]) -> Option<(f64, f64)> {
    let ok: Vec<&RunSummary> = cell.iter().filter(|r| r.status == RunStatus::Ok).collect();
    if ok.is_empty() {
        return None;
    }
    let n = ok.len() as f64;
    Some((
        ok.iter()
            .map(|r| r.work.hypothesis_updates as f64)
            .sum::<f64>()
            / n,
        ok.iter().map(|r| r.rate_err_bps).sum::<f64>() / n,
    ))
}

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("EXT-C: exact enumeration vs particle filter, 30 s of inference\n");
    let sizes = vec![101usize, 1_001, 10_001, 100_001];
    let grid = presets::ext_scaling(sizes.clone(), 1_000).axis(Axis::Seeds(REPLICATES));
    let runs = grid.expand();
    let report = SweepRunner::serial().run(&runs);
    // Group replicates by what each run actually was — the spec carries
    // the engine and prior size, so axis ordering cannot mislabel cells.
    let cell_of = |sender: &str, n: usize| -> Vec<RunSummary> {
        runs.iter()
            .zip(&report.runs)
            .filter(|(run, _)| run.spec.sender.label() == sender && run.spec.prior.size() == n)
            .map(|(_, summary)| summary.clone())
            .collect()
    };
    let exact: Vec<Vec<RunSummary>> = sizes.iter().map(|&n| cell_of("isender-exact", n)).collect();
    let particle: Vec<Vec<RunSummary>> = sizes
        .iter()
        .map(|&n| cell_of("isender-particle", n))
        .collect();
    assert!(
        exact.iter().chain(&particle).all(|c| c.len() == REPLICATES),
        "every (engine, prior size) cell must have its replicates"
    );

    println!(
        "  {:>12} {:>16} {:>12}",
        "hypotheses", "hyp. updates", "rate err bps"
    );
    let mut exact_cells = Vec::new();
    for (n, cell) in sizes.iter().zip(&exact) {
        let (updates, err) = survivors(cell).expect("exact engine never degenerates here");
        println!("  {n:>12} {updates:>16.0} {err:>12.1}");
        exact_cells.push((updates, err));
    }

    println!("\n  particle filter, fixed 1,000-particle budget (mean over surviving replicates):");
    println!(
        "  {:>12} {:>16} {:>12} {:>10}",
        "prior size", "hyp. updates", "rate err", "outcome"
    );
    let mut particle_cells = Vec::new();
    for (n, cell) in sizes.iter().zip(&particle) {
        match survivors(cell) {
            Some((updates, err)) => {
                let ok = cell.iter().filter(|r| r.status == RunStatus::Ok).count();
                println!("  {n:>12} {updates:>16.0} {err:>12.1} {ok:>7}/{REPLICATES} ok");
                particle_cells.push(Some((updates, err)));
            }
            // With exact-time matching, a particle survives only if it
            // sits on the true grid point; 1,000 particles over a prior
            // much larger than the budget lose coverage — a measured
            // limitation of the bootstrap filter the paper's "belief
            // compression" remark anticipates.
            None => {
                println!("  {n:>12} {:>16} {:>12} {:>10}", "-", "-", "degenerate");
                particle_cells.push(None);
            }
        }
    }

    let path = out_dir().join("ext_scaling_sweep.csv");
    let file = fs::File::create(&path).expect("create csv");
    report
        .write_csv(BufWriter::new(file))
        .expect("write sweep csv");
    println!("\n  wrote {}", path.display());

    println!("\nShape checks:");
    let (n0, u0) = (sizes[0], exact_cells[0].0);
    let (n2, u2) = (sizes[2], exact_cells[2].0);
    let scale = (u2 / u0) / (n2 as f64 / n0 as f64);
    c.check(
        "exact cost grows ~linearly with the prior",
        (0.2..5.0).contains(&scale),
        format!("{n0}→{n2} hypotheses: {u0:.0}→{u2:.0} updates (per-hyp ratio {scale:.2})"),
    );
    // Every hypothesis is simulated through at least the first window
    // before any ACK can reject it, so a prior of millions costs millions
    // of network simulations before it has learnt anything.
    let at_2m = u2 / n2 as f64 * 2e6;
    c.check(
        "extrapolated: millions of hypotheses are impractical (paper §3.2)",
        at_2m >= 2e6,
        format!("~{at_2m:.0} network trajectories advanced in 30 s at 2M hypotheses"),
    );
    c.check(
        "exact posterior locates the link rate",
        exact_cells.iter().all(|(_, err)| *err < 1_000.0),
        "posterior means within 1 kbps of truth",
    );
    let ok_updates: Vec<f64> = particle_cells
        .iter()
        .filter_map(|c| c.map(|(u, _)| u))
        .collect();
    c.check(
        "particle cost flat across prior sizes (where it survives)",
        ok_updates.len() >= 2
            && ok_updates.iter().cloned().fold(f64::MIN, f64::max)
                < 5.0 * ok_updates.iter().cloned().fold(f64::MAX, f64::min),
        format!("updates: {ok_updates:?}"),
    );
    let accurate = particle_cells
        .iter()
        .filter_map(|c| c.map(|(_, err)| err))
        .all(|err| err < 1_000.0);
    c.check(
        "particle filter accurate where coverage suffices",
        accurate,
        "posterior means within 1 kbps of truth",
    );
    c.check(
        "bootstrap filter degenerates when prior >> particle budget",
        particle
            .iter()
            .any(|cell| cell.iter().all(|r| r.status == RunStatus::BeliefDied)),
        "exact-match likelihood needs coverage (motivates belief compression)",
    );
}
