//! The motivating problem (paper §1, Figure 1): a loss-based TCP download
//! over a cellular path whose link layer zealously hides losses behind a
//! deep buffer — round-trip times balloon from ~100 ms into the seconds.
//!
//! ```sh
//! cargo run --release --example lte_bufferbloat
//! ```

use augur::prelude::*;
use augur::tcp::Reno;

fn main() {
    // A synthetic LTE-like downlink: 750 kB drop-tail buffer, fading rate
    // (4 Mbit/s down to 250 kbit/s), 10 % transmission loss hidden by
    // link-layer ARQ, 25 ms propagation.
    let params = CellularParams::lte_like();
    let cell = build_cellular(&params);

    // TCP Reno bulk download for two minutes.
    let cfg = TcpConfig::default();
    let mut runner = TcpRunner::new(
        cell.net,
        cell.entry,
        cell.rx,
        cfg,
        1,
        Box::<Reno>::default(),
    );
    let trace = runner.run(Time::from_secs(120));

    let rtts: Vec<f64> = trace.rtt_samples.iter().map(|r| r.as_secs_f64()).collect();
    let s = augur::trace::summarize(&rtts);
    println!(
        "RTT min {:.3}s / median {:.3}s / max {:.3}s — a {:.0}x blow-up.",
        s.min,
        s.median,
        s.max,
        s.max / s.min
    );
    println!(
        "The buffer overflowed {} times; link-layer ARQ hid every stochastic loss.",
        trace.overflow_drops
    );
    println!(
        "TCP kept the pipe busy ({:.0} bit/s goodput) but at seconds of latency —",
        trace.mean_goodput_bps(Time::from_secs(120))
    );
    println!("exactly the failure mode the paper's model-based sender is designed to avoid.");
}
