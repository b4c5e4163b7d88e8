//! Quickstart: run the paper's sender against the paper's network for one
//! minute and watch it infer the link.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use augur::prelude::*;

fn main() {
    // Ground truth: the Figure-2 network with the paper's "actual"
    // parameters — a 12 kbit/s link, 96 kbit tail-drop buffer, 20 %
    // last-mile loss, and cross traffic at 0.7c behind a 100 s square
    // wave.
    let mut truth = GroundTruth {
        net: build_model(ModelParams::paper_ground_truth()),
        entry: FIG2_ENTRY,
        rx_self: FIG2_RX_SELF,
        rng: SimRng::seed_from_u64(42),
    };

    // The sender: the paper's discretized uniform prior (≈4,800 network
    // configurations) and the α = 1 utility — own throughput plus the
    // cross traffic's, equally weighted.
    let belief = ModelPrior::paper().belief(BeliefConfig::default());
    println!(
        "prior: {} candidate network configurations",
        belief.branch_count()
    );
    let mut sender = ISender::new(
        belief,
        Box::new(DiscountedThroughput::with_alpha(1.0)),
        ISenderConfig::default(),
    );

    // Close the loop for 60 simulated seconds.
    let trace = run_closed_loop(&mut truth, &mut sender, Time::from_secs(60))
        .expect("the prior contains the truth, so the belief cannot die");

    println!(
        "sent {} packets, received {} acknowledgments",
        trace.sends.len(),
        trace.acks.len()
    );
    println!(
        "posterior after 60 s: {} configurations remain",
        sender.belief.branch_count()
    );

    // What does the sender now believe about the link speed?
    for (rate, prob) in sender.belief.marginal(|h| h.meta.link_rate).iter().take(3) {
        println!("  P(c = {rate}) = {prob:.3}");
    }
    let map = sender.belief.map_estimate();
    println!(
        "maximum-a-posteriori configuration: c = {}, r = {}, p = {}, buffer = {}",
        map.meta.link_rate, map.meta.cross_rate, map.meta.loss, map.meta.buffer_capacity
    );

    // The sending rate over the minute, the slope Figure 3 plots.
    println!("sends per 10 s:");
    for start in (0..60).step_by(10) {
        let (from, to) = (Time::from_secs(start), Time::from_secs(start + 10));
        let sends = trace
            .sends
            .iter()
            .filter(|(_, t)| *t >= from && *t < to)
            .count();
        println!("  {start:>2}-{:<2} s: {sends}", start + 10);
    }
}
