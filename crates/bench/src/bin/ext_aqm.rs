#![forbid(unsafe_code)]
//! EXT-D — §3.5 names active queue management and non-FIFO scheduling as
//! missing elements; we implement RED and CoDel as BUFFER variants and
//! show the in-network fix to Figure 1's bufferbloat: the same TCP Reno
//! download over the same deep buffer, with the queue discipline swapped.
//!
//! The experiment is the `presets::ext_aqm` scenario grid — the FIG1
//! cellular download with a queue-discipline sweep axis (also shipped as
//! `experiments/specs/ext-aqm.toml`); this binary adds the RTT series
//! export and the shape checks.
//!
//! Expected shape: drop-tail shows multi-second RTTs; CoDel holds the
//! p95 RTT near its 100 ms interval; RED sits in between; goodput stays
//! comparable (within ~2× of drop-tail).

use augur_bench::{figure, save_csv, Checks};
use augur_scenario::{presets, SweepRunner};
use augur_sim::{Dur, Time};
use augur_tcp::TcpTrace;
use augur_trace::{summarize, Series, Summary};
use std::process::ExitCode;

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("EXT-D: TCP Reno over the LTE-like path, queue discipline swapped, 120 s\n");
    let runs = presets::ext_aqm(Dur::from_secs(120)).expand();
    // Goodput windows derive from the spec, not a second literal.
    let t_end = Time::ZERO + runs[0].spec.duration;
    let (_, artifacts) = SweepRunner::parallel().run_traced(&runs);

    let mut results: Vec<(String, TcpTrace, Summary)> = Vec::new();
    for (run, artifact) in runs.iter().zip(artifacts) {
        let label = run.point();
        let trace = artifact.into_tcp().expect("cellular TCP runs leave traces");
        let rtts: Vec<f64> = trace
            .rtt_samples
            .iter()
            .map(|(_, r)| r.as_secs_f64())
            .collect();
        let summary = summarize(&rtts);
        println!(
            "  {label:<16} median RTT {:>7.3}s  p95 {:>7.3}s  max {:>7.3}s  goodput {:>9.0} bps  drops {:>4}",
            summary.median,
            summary.p95,
            summary.max,
            trace.mean_goodput_bps(t_end),
            trace.drops.len(),
        );
        results.push((label, trace, summary));
    }

    let by_queue = |q: &str| -> &(String, TcpTrace, Summary) {
        results
            .iter()
            .find(|(label, ..)| label == &format!("queue={q}"))
            .unwrap_or_else(|| panic!("queue={q} run present"))
    };
    let (_, droptail_trace, droptail) = by_queue("drop-tail");
    let (_, red_trace, red) = by_queue("red");
    let (_, codel_trace, codel) = by_queue("codel");

    // Series for the figure: RTT over time per discipline.
    let series = |name: &str, trace: &TcpTrace| {
        let mut s = Series::new(name);
        for (t, r) in &trace.rtt_samples {
            s.push(t.as_secs_f64(), r.as_secs_f64());
        }
        s
    };
    let s1 = series("droptail", droptail_trace);
    let s2 = series("red", red_trace);
    let s3 = series("codel", codel_trace);
    save_csv("ext_aqm_rtt", &[&s1, &s2, &s3]);

    println!("\nShape checks:");
    c.check(
        "drop-tail bloats (p95 RTT in the seconds)",
        droptail.p95 > 2.0,
        format!("p95 {:.3}s", droptail.p95),
    );
    c.check(
        "CoDel tames the standing queue (p95 < 1/4 of drop-tail)",
        codel.p95 < droptail.p95 / 4.0,
        format!("{:.3}s vs {:.3}s", codel.p95, droptail.p95),
    );
    c.check(
        "RED improves on drop-tail",
        red.p95 < droptail.p95,
        format!("{:.3}s vs {:.3}s", red.p95, droptail.p95),
    );
    let gp = |t: &TcpTrace| t.mean_goodput_bps(t_end);
    c.check(
        "CoDel keeps comparable goodput (>= half of drop-tail)",
        gp(codel_trace) >= gp(droptail_trace) / 2.0,
        format!("{:.0} vs {:.0} bps", gp(codel_trace), gp(droptail_trace)),
    );
}
