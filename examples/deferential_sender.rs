//! The paper's headline knob: α, "a parameter varying the relative value
//! of cross traffic compared with our own" (§3.3). A selfish sender
//! (α < 1) floods the shared buffer; a deferential one (α > 1) leaves
//! room for traffic it can only infer.
//!
//! ```sh
//! cargo run --release --example deferential_sender
//! ```

use augur::prelude::*;

fn run(alpha: f64) -> (f64, usize) {
    let mut truth = GroundTruth {
        net: build_model(ModelParams::paper_ground_truth()),
        entry: FIG2_ENTRY,
        rx_self: FIG2_RX_SELF,
        rng: SimRng::seed_from_u64(7),
    };
    let belief = ModelPrior::paper().belief(BeliefConfig::default());
    let mut sender = ISender::new(
        belief,
        Box::new(DiscountedThroughput::with_alpha(alpha)),
        ISenderConfig::default(),
    );
    let t_end = Time::from_secs(80); // within the first cross-on phase
    let trace = run_closed_loop(&mut truth, &mut sender, t_end).expect("run failed");
    let rate = trace.send_rate(Time::from_secs(20), t_end);
    let overflows = trace
        .drops
        .iter()
        .filter(|d| d.reason == augur::elements::DropReason::BufferFull)
        .count();
    (rate, overflows)
}

fn main() {
    println!("Cross traffic uses 70% of a 12 kbit/s link (1 pkt/s). The sender's α decides");
    println!("how much of that it is willing to displace:\n");
    println!(
        "  {:>6} {:>16} {:>12}",
        "alpha", "send rate pkt/s", "overflows"
    );
    for alpha in [0.9, 1.0, 2.5] {
        let (rate, overflows) = run(alpha);
        println!("  {alpha:>6} {rate:>16.2} {overflows:>12}");
    }
    println!("\nα < 1: the paper's 'flood out all of the other sender's packets'.");
    println!("α = 1: fill the residual ~30% the cross traffic leaves.");
    println!("α > 1: defer — the inferred cross traffic is worth more than our own.");
}
