//! The two inference engines side by side: exact enumeration (the paper's
//! rejection-sampling scheme, §3.2) and the bootstrap particle filter
//! (the scalable alternative it points to in the POMDP literature). Both
//! watch the same acknowledgment stream from a scripted sender and must
//! agree on the posterior.
//!
//! ```sh
//! cargo run --release --example particle_vs_exact
//! ```

use augur::elements::FIG2_LOSS;
use augur::prelude::*;

fn main() {
    // Truth: 12 kbit/s link, cross traffic at 0.7c, no loss.
    let truth_params = ModelParams {
        gate: GateSpec::AlwaysOn,
        loss: Ppm::ZERO,
        ..ModelParams::paper_ground_truth()
    };
    let mut truth = build_model(truth_params);
    let mut rng = SimRng::seed_from_u64(5);

    // A shared prior: link speed anywhere in 9..=15 kbit/s.
    let hypotheses: Vec<Hypothesis<ModelParams>> = (9..=15)
        .map(|k| {
            let p = ModelParams {
                link_rate: BitRate::from_bps(k * 1_000),
                cross_rate: BitRate::from_bps(k * 700),
                gate: GateSpec::AlwaysOn,
                loss: Ppm::ZERO,
                buffer_capacity: Bits::new(96_000),
                initial_fullness: Bits::ZERO,
                packet_size: Bits::from_bytes(1_500),
                cross_active: true,
            };
            Hypothesis {
                net: build_model(p),
                meta: p,
                weight: 1.0,
            }
        })
        .collect();
    // Seated once for the last-mile loss fold, which both engines take
    // from it.
    let prior = Population::new(hypotheses, Some(FIG2_LOSS));
    let mut particle = ParticleFilter::from_population(&prior, FIG2_ENTRY, FIG2_RX_SELF, 200, 99);
    let mut exact =
        Belief::from_population(prior, FIG2_ENTRY, FIG2_RX_SELF, BeliefConfig::default());

    // Scripted sender: one packet every 2 s; both engines see the ACKs.
    let mut seq = 0u64;
    for s in 0..=20u64 {
        let t = Time::from_secs(s);
        truth.run_until_sampled(t, &mut rng);
        let acks: Vec<Observation> = truth
            .take_deliveries()
            .into_iter()
            .filter(|(n, d)| *n == FIG2_RX_SELF && d.packet.flow == FlowId::SELF)
            .map(|(_, d)| Observation {
                seq: d.packet.seq,
                at: d.at,
            })
            .collect();
        truth.take_drops();
        exact.advance(t, &acks).expect("exact belief died");
        particle.advance(t, &acks).expect("particles died");
        if s % 2 == 0 && s < 20 {
            let pkt = Packet::new(FlowId::SELF, seq, Bits::from_bytes(1_500), t);
            seq += 1;
            exact.inject(pkt);
            particle.inject(pkt);
            truth.inject(FIG2_ENTRY, pkt);
            while let Step::Pending(spec) = truth.run_until(t) {
                let pick = usize::from(rng.bernoulli(spec.p1));
                truth.resolve(pick);
            }
        }
        let e = exact.expected(|h| h.meta.link_rate.as_bps() as f64);
        let p = particle.expected(|h| h.meta.link_rate.as_bps() as f64);
        println!(
            "t={s:>2}s  E[c | exact] = {e:>8.0} bps   E[c | particle] = {p:>8.0} bps   ({} branches / {} particles)",
            exact.branch_count(),
            particle.members().len(),
        );
    }
    println!("\ntruth: c = 12000 bps — both engines should have converged to it.");
}
