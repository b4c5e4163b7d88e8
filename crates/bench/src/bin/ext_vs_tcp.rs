#![forbid(unsafe_code)]
//! EXT-B — §3.5's second open question: an ISender sharing a bottleneck
//! with loss-based senders. A thin wrapper over the `coexist-vs-tcp`
//! scenario preset, whose peer axis runs the compact AIMD core (the
//! congestion-control structure all of §2's TCP variants share) plus
//! full TCP Reno and CUBIC endpoints.
//!
//! Expected shape: loss-based senders fill queues by design, the
//! deferential ISender (α = 1) backs off, so the split is unequal but
//! both make progress — quantifying the paper's worry that a
//! deferential sender may be out-competed by a loss-based one.

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
    println!("EXT-B: ISender (alpha=1) vs loss-based senders on a 24 kbit/s bottleneck, 200 s\n");
    let grid = presets::coexist_vs_tcp(Dur::from_secs(200), 1, 50_000);
    let runs = grid.expand();
    let link_bps = runs[0].spec.topology.model("ext_vs_tcp").link_rate.as_bps();
    let report = SweepRunner::serial().run(&runs);

    for r in &report.runs {
        println!(
            "  vs {:<9}  ISender {:>6.0} bit/s ({} restarts) | peer {:>6.0} bit/s | Jain {:.3}",
            r.peer,
            r.goodput_bps,
            r.restarts_a.unwrap_or(0),
            r.goodput_b_bps,
            r.jain,
        );
    }

    let csv_path = out_dir().join("ext_vs_tcp.csv");
    let file = fs::File::create(&csv_path).expect("create csv");
    report.write_csv(BufWriter::new(file)).expect("write csv");
    println!("  wrote {}", csv_path.display());

    let aimd = report
        .runs
        .iter()
        .find(|r| r.peer == "aimd")
        .expect("aimd point present");
    let (rm, rt) = (aimd.goodput_bps, aimd.goodput_b_bps);
    println!("\nShape checks (vs AIMD):");
    c.check(
        "both flows make progress",
        rm > 500.0 && rt > 500.0,
        format!("{rm:.0} / {rt:.0} bit/s"),
    );
    c.check(
        "link well utilized (> 60%)",
        rm + rt > link_bps as f64 * 0.6,
        format!("{:.0} bit/s", rm + rt),
    );
    c.check(
        "loss-based sender out-competes the deferential ISender (the paper's worry)",
        rt > rm,
        format!("AIMD {rt:.0} > ISender {rm:.0}"),
    );
    let max_combined = report
        .runs
        .iter()
        .map(|r| r.goodput_bps + r.goodput_b_bps)
        .fold(0.0_f64, f64::max);
    c.check(
        "no pairing overdrives the link",
        max_combined <= link_bps as f64 * 1.05,
        format!("max combined {max_combined:.0} bit/s of {link_bps}"),
    );
}
