#![forbid(unsafe_code)]
//! TXT2 — §4's second claim: "If cross traffic is present and the utility
//! function penalizes induced latency to other traffic, then the ISENDER
//! drains the buffer before sending at the link speed."
//!
//! Two senders face the same ground truth (cross traffic at 0.35c, a
//! buffer that starts half full): one with the pure α = 1 utility, one
//! with an added latency penalty on cross traffic. The penalized sender
//! must hold back while the backlog drains and keep the standing queue
//! shallower. The experiment is the `presets::txt2` scenario grid (the
//! latency penalty is a sweep axis); this binary adds the plot and the
//! shape checks.

use augur_bench::{figure, save_csv, Checks};
use augur_core::RunTrace;
use augur_scenario::{presets, SweepRunner};
use augur_sim::{Dur, Time};
use augur_trace::{render, PlotConfig, Series};
use std::process::ExitCode;

/// Mean cross-traffic delay in the second minute (steady state). Cross
/// packets are emitted isochronously, one packet-service-time apart at
/// the cross rate — derive the period from the scenario's topology so a
/// preset retune cannot desynchronize this measurement.
fn mean_cross_delay(trace: &RunTrace, topology: &augur_elements::ModelParams) -> f64 {
    let period_s = topology.packet_size.as_f64() / topology.cross_rate.as_bps() as f64;
    let delays: Vec<f64> = trace
        .cross_deliveries
        .iter()
        .filter(|(_, t, _)| *t >= Time::from_secs(60))
        .map(|(seq, t, _)| {
            let sent = *seq as f64 * period_s;
            t.as_secs_f64() - sent
        })
        .collect();
    if delays.is_empty() {
        f64::NAN
    } else {
        delays.iter().sum::<f64>() / delays.len() as f64
    }
}

fn main() -> ExitCode {
    figure(run)
}

fn run(c: &mut Checks) {
    println!("TXT2: latency-penalty utility drains the buffer before filling the link, 120 s");
    let runs = presets::txt2(Dur::from_secs(120)).expand();
    let (_, traces) = SweepRunner::parallel().verbose().run_traced(&runs);
    // Match traces to runs by the spec's latency penalty, not by
    // position, so reordering the preset axis cannot swap them.
    let trace_with = |lp: f64| -> RunTrace {
        runs.iter()
            .zip(&traces)
            .find(|(run, _)| match run.spec.sender {
                augur_scenario::SenderSpec::IsenderExact {
                    latency_penalty, ..
                } => latency_penalty == lp,
                _ => false,
            })
            .and_then(|(_, trace)| trace.clone().into_closed_loop())
            .unwrap_or_else(|| panic!("latency_penalty={lp} run produces a trace"))
    };
    let plain = trace_with(0.0);
    let penalized = trace_with(0.5);
    let topology = runs[0].spec.topology.model("txt2");
    let (plain_delay, pen_delay) = (
        mean_cross_delay(&plain, topology),
        mean_cross_delay(&penalized, topology),
    );

    let series = |name: &str, trace: &RunTrace| {
        let mut s = Series::new(name);
        for (i, (_, t)) in trace.sends.iter().enumerate() {
            s.push(t.as_secs_f64(), (i + 1) as f64);
        }
        s
    };
    let s_plain = series("alpha=1", &plain);
    let s_pen = series("alpha=1 + latency penalty", &penalized);
    println!(
        "\n{}",
        render(
            &[&s_plain, &s_pen],
            &PlotConfig {
                title: "TXT2: sequence number vs time (half-full buffer at t=0)".into(),
                ..PlotConfig::default()
            }
        )
    );
    save_csv("txt2_seq_vs_time", &[&s_plain, &s_pen]);

    let first_plain = plain.sends.first().map(|(_, t)| t.as_secs_f64());
    let first_pen = penalized.sends.first().map(|(_, t)| t.as_secs_f64());
    let early_plain = plain.send_rate(Time::ZERO, Time::from_secs(8));
    let early_pen = penalized.send_rate(Time::ZERO, Time::from_secs(8));
    let steady_pen = penalized.send_rate(Time::from_secs(60), Time::from_secs(120));
    println!("\n  first send: plain {first_plain:?}s, penalized {first_pen:?}s");
    println!(
        "  rate 0-8s (backlog draining): plain {early_plain:.2}, penalized {early_pen:.2} pkt/s"
    );
    println!("  penalized steady rate 60-120s: {steady_pen:.2} pkt/s");
    println!("  mean cross delay 60-120s: plain {plain_delay:.2}s, penalized {pen_delay:.2}s");

    println!("\nShape checks:");
    c.check(
        "penalized sender holds back while the backlog drains",
        early_pen < early_plain,
        format!("{early_pen:.2} < {early_plain:.2} pkt/s in 0-8s"),
    );
    c.check(
        "penalized sender still uses the residual link afterwards",
        steady_pen > 0.3,
        format!("{steady_pen:.2} pkt/s steady"),
    );
    c.check(
        "cross traffic sees lower latency under the penalty",
        pen_delay < plain_delay,
        format!("{pen_delay:.2}s vs {plain_delay:.2}s"),
    );
}
