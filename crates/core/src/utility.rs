//! Utility functions — explicit, first-class objects (§3.3).
//!
//! "The instantaneous utility of each packet … is defined as the packet
//! size in bits, divided by e^τ, where τ is the number of milliseconds in
//! the future when the packet will be received. This has the effect of
//! nearly linearly rewarding throughput — the accumulated instantaneous
//! utility of a stream of packets will correspond almost linearly to the
//! actual throughput for any realistic bitrate, since
//! Σ_{t=0}^∞ e^(−t/(1000 r)) ≈ 1000 r + 0.5 for r > 1/100 packets per
//! second."
//!
//! The approximation identity pins down the timescale the prose elides:
//! for a stream at `r` packets/s, packet `t` arrives τ = 1000·t/r ms in
//! the future, and the stated summand e^(−t/(1000 r)) equals
//! e^(−τ/10⁶). So the discount is **e^(−τ_ms/Θ) with Θ = 10⁶ ms**, and
//! [`discounted_stream_sum`] reproduces the identity exactly (tested, and
//! property-tested at the workspace level).
//!
//! The utility "may include a parameter varying the relative value of
//! cross traffic compared with our own" (α) and "can optionally penalize
//! latency experienced by the cross traffic" (λ).

use augur_sim::{Delivery, FlowId, Time};

/// The paper's discount timescale Θ, in milliseconds.
pub const THETA_MS: f64 = 1e6;

/// What a planning rollout produced: the raw material utilities evaluate.
/// A utility values deliveries only — a drop is worth what it leaves
/// undelivered — so a rollout reports nothing else, and two rollouts that
/// deliver the same packets at the same instants are the same report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RolloutReport {
    /// Deliveries within the horizon, each with the probability that it
    /// actually happens (the last-mile loss fold contributes `1 − p`).
    pub deliveries: Vec<(Delivery, f64)>,
}

/// An instantaneous utility function over a rollout, in two parts: what
/// a delivery's instant is worth, which every network that shares a
/// rollout agrees on, and the total, which also weighs each network's own
/// delivery probabilities. The planner asks for the first once per
/// delivery of a trajectory and for the second once per network.
pub trait Utility {
    /// The factor by which a delivery at `at` is discounted when seen
    /// from `decision_time`. It may depend on nothing else.
    fn delivery_discount(&self, at: Time, decision_time: Time) -> f64;

    /// Total utility of the rollout for a sender owning `own_flow`.
    /// `discounts[i]` is [`Self::delivery_discount`] of
    /// `report.deliveries[i]`.
    fn evaluate(&self, report: &RolloutReport, discounts: &[f64], own_flow: FlowId) -> f64;
}

/// The paper's utility: discounted own throughput, plus α times the cross
/// traffic's, minus an optional latency penalty on the cross traffic.
#[derive(Debug, Clone, Copy)]
pub struct DiscountedThroughput {
    /// Discount timescale in milliseconds (default [`THETA_MS`]).
    pub theta_ms: f64,
    /// "Our utility function is our own instantaneous throughput, times
    /// some multiple α of the throughput achieved by the cross traffic"
    /// (§4).
    pub alpha: f64,
    /// Penalty per (bit × second of delay) experienced by cross traffic;
    /// 0 disables (§3.3: "can optionally penalize latency experienced by
    /// the cross traffic").
    pub latency_penalty: f64,
}

impl DiscountedThroughput {
    /// The Figure-3 family: own throughput + α · cross throughput.
    pub fn with_alpha(alpha: f64) -> DiscountedThroughput {
        DiscountedThroughput {
            theta_ms: THETA_MS,
            alpha,
            latency_penalty: 0.0,
        }
    }

    /// The discount factor for a packet delivered `tau_ms` in the future.
    pub fn discount(&self, tau_ms: f64) -> f64 {
        (-tau_ms / self.theta_ms).exp()
    }
}

impl Utility for DiscountedThroughput {
    fn delivery_discount(&self, at: Time, decision_time: Time) -> f64 {
        self.discount(at.saturating_since(decision_time).as_millis_f64())
    }

    fn evaluate(&self, report: &RolloutReport, discounts: &[f64], own_flow: FlowId) -> f64 {
        assert_eq!(report.deliveries.len(), discounts.len());
        let mut u = 0.0;
        for ((d, prob), discount) in report.deliveries.iter().zip(discounts) {
            let value = prob * d.packet.size.as_f64() * discount;
            if d.packet.flow == own_flow {
                u += value;
            } else {
                u += self.alpha * value;
                if self.latency_penalty > 0.0 {
                    let delay_s = d.delay().as_secs_f64();
                    u -= self.latency_penalty * prob * d.packet.size.as_f64() * delay_s;
                }
            }
        }
        u
    }
}

/// The closed form the paper quotes: Σ_{t=0}^∞ e^(−t/(1000 r)) =
/// 1 / (1 − e^(−1/(1000 r))), which ≈ 1000 r + 0.5 for r > 1/100
/// packets/s.
pub fn discounted_stream_sum(r_packets_per_sec: f64) -> f64 {
    assert!(r_packets_per_sec > 0.0);
    1.0 / (1.0 - (-1.0 / (1000.0 * r_packets_per_sec)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{Bits, Packet, SimRng};

    /// `u` of `report` as seen from `now`, every discount taken afresh.
    fn utility_at(u: &DiscountedThroughput, report: &RolloutReport, now: Time) -> f64 {
        let discounts: Vec<f64> = report
            .deliveries
            .iter()
            .map(|(d, _)| u.delivery_discount(d.at, now))
            .collect();
        u.evaluate(report, &discounts, FlowId::SELF)
    }

    fn delivery(flow: FlowId, at_ms: u64, sent_ms: u64) -> Delivery {
        Delivery {
            packet: Packet::new(flow, 0, Bits::new(12_000), Time::from_millis(sent_ms)),
            at: Time::from_millis(at_ms),
        }
    }

    #[test]
    fn paper_identity_holds_across_rates() {
        // Σ e^(−t/(1000 r)) ≈ 1000 r + 0.5 for r > 1/100 pkt/s (TXT3):
        // at the decades, and at 64 rates drawn log-uniformly from
        // [0.01, 1000) pkt/s.
        let seed = 0x7137;
        let mut rng = SimRng::seed_from_u64(seed);
        let drawn = (0..64).map(|_| 0.01 * 1e5f64.powf(rng.uniform_f64()));
        for r in [0.01, 0.1, 1.0, 10.0, 100.0].into_iter().chain(drawn) {
            let exact = discounted_stream_sum(r);
            let approx = 1000.0 * r + 0.5;
            let rel = (exact - approx).abs() / exact;
            assert!(
                rel < 0.01,
                "seed {seed:#x}: r={r}: exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn discount_never_grows_with_delay() {
        let seed = 0xD15C;
        let mut rng = SimRng::seed_from_u64(seed);
        let u = DiscountedThroughput::with_alpha(0.0);
        for _ in 0..64 {
            let (tau, later) = (1e6 * rng.uniform_f64(), 1e6 * rng.uniform_f64());
            assert!(
                u.discount(tau) >= u.discount(tau + later),
                "seed {seed:#x}: tau={tau} ms, {later} ms later"
            );
        }
    }

    #[test]
    fn own_packet_counts_fully_cross_scaled_by_alpha() {
        let u = DiscountedThroughput::with_alpha(0.5);
        let report = RolloutReport {
            deliveries: vec![
                (delivery(FlowId::SELF, 100, 0), 1.0),
                (delivery(FlowId::CROSS, 100, 0), 1.0),
            ],
        };
        let total = utility_at(&u, &report, Time::ZERO);
        let disc = u.discount(100.0);
        let want = 12_000.0 * disc * (1.0 + 0.5);
        assert!((total - want).abs() < 1e-6, "{total} vs {want}");
    }

    #[test]
    fn delivery_probability_scales_value() {
        let u = DiscountedThroughput::with_alpha(0.0);
        let full = RolloutReport {
            deliveries: vec![(delivery(FlowId::SELF, 0, 0), 1.0)],
        };
        let partial = RolloutReport {
            deliveries: vec![(delivery(FlowId::SELF, 0, 0), 0.8)],
        };
        let a = utility_at(&u, &full, Time::ZERO);
        let b = utility_at(&u, &partial, Time::ZERO);
        assert!((b / a - 0.8).abs() < 1e-12);
    }

    #[test]
    fn later_delivery_is_worth_less() {
        let u = DiscountedThroughput::with_alpha(0.0);
        let early = RolloutReport {
            deliveries: vec![(delivery(FlowId::SELF, 1_000, 0), 1.0)],
        };
        let late = RolloutReport {
            deliveries: vec![(delivery(FlowId::SELF, 500_000, 0), 1.0)],
        };
        let ue = utility_at(&u, &early, Time::ZERO);
        let ul = utility_at(&u, &late, Time::ZERO);
        assert!(ue > ul);
        // But the discount is gentle: a 1-second delay costs ~0.1%.
        assert!((1.0 - ul / ue) < 0.5);
    }

    #[test]
    fn latency_penalty_charges_cross_delay() {
        let mut u = DiscountedThroughput::with_alpha(1.0);
        u.latency_penalty = 0.5;
        // Cross packet delayed 2 s: penalty 0.5 * 12_000 * 2 = 12_000
        // wipes out its α-value (~12_000 · disc).
        let report = RolloutReport {
            deliveries: vec![(delivery(FlowId::CROSS, 2_000, 0), 1.0)],
        };
        let total = utility_at(&u, &report, Time::ZERO);
        assert!(total < 0.0, "penalty should dominate: {total}");
    }

    #[test]
    fn deliveries_before_decision_time_not_negatively_discounted() {
        let u = DiscountedThroughput::with_alpha(0.0);
        let report = RolloutReport {
            deliveries: vec![(delivery(FlowId::SELF, 100, 0), 1.0)],
        };
        // Decision time after the delivery: τ clamps to 0.
        let total = utility_at(&u, &report, Time::from_millis(200));
        assert!((total - 12_000.0).abs() < 1e-9);
    }
}
