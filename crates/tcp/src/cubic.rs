//! CUBIC congestion control (Ha, Rhee & Xu 2008; RFC 8312, simplified) —
//! one of the cwnd-rule variants the paper's §2 lists as sharing
//! Jacobson's architecture ("much work has been done on different
//! increase/decrease rules for cwnd within this architectural
//! framework").
//!
//! The window grows as a cubic of the time since the last reduction,
//! `W(t) = C·(t − K)³ + W_max`, with `K = ∛(W_max·β/C)`, making growth
//! rate independent of RTT. We implement the standard constants
//! (C = 0.4, β = 0.7), the TCP-friendly region, and Reno-style slow
//! start below `ssthresh`.

use crate::cc::CongestionControl;
use crate::reno::RenoSignal;
use augur_sim::{Dur, Time};

/// CUBIC state.
#[derive(Debug, Clone)]
pub struct Cubic {
    /// Congestion window, packets.
    pub cwnd: f64,
    /// Slow-start threshold, packets.
    pub ssthresh: f64,
    /// Window size just before the last reduction.
    pub w_max: f64,
    /// Time of the last reduction.
    epoch_start: Option<Time>,
    /// The cubic scaling constant C (packets/s³).
    pub c: f64,
    /// Multiplicative decrease factor β.
    pub beta: f64,
    /// Estimate of the connection's RTT (for the TCP-friendly region).
    srtt: Dur,
    dupacks: u32,
    /// True while in fast recovery.
    pub in_recovery: bool,
}

impl Default for Cubic {
    fn default() -> Self {
        Cubic {
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            c: 0.4,
            beta: 0.7,
            srtt: Dur::from_millis(100),
            dupacks: 0,
            in_recovery: false,
        }
    }
}

impl Cubic {
    /// The cubic window target at elapsed time `t` seconds since the last
    /// reduction.
    pub fn w_cubic(&self, t: f64) -> f64 {
        let k = (self.w_max * self.beta / self.c).cbrt();
        self.c * (t - k).powi(3) + self.w_max
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl CongestionControl for Cubic {
    fn window(&self) -> u64 {
        self.cwnd.floor().max(1.0) as u64
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn on_new_ack(&mut self, newly_acked: u64, now: Time) {
        self.dupacks = 0;
        if self.in_recovery {
            self.in_recovery = false;
            self.cwnd = self.ssthresh.max(2.0);
            return;
        }
        if self.in_slow_start() {
            self.cwnd += newly_acked as f64;
            return;
        }
        let t0 = *self.epoch_start.get_or_insert(now);
        let t = now.saturating_since(t0).as_secs_f64();
        let rtt = self.srtt.as_secs_f64().max(1e-3);
        let target = self.w_cubic(t + rtt);
        // TCP-friendly region: never grow slower than AIMD would.
        let w_aimd =
            self.w_max * self.beta + 3.0 * (1.0 - self.beta) / (1.0 + self.beta) * (t / rtt);
        let target = target.max(w_aimd);
        if target > self.cwnd {
            // Standard per-ACK increment toward the cubic target.
            self.cwnd += ((target - self.cwnd) / self.cwnd).min(1.0) * newly_acked as f64;
        } else {
            self.cwnd += 0.01 * newly_acked as f64 / self.cwnd; // minimal probing
        }
    }

    /// The third duplicate ACK triggers fast retransmit.
    fn on_dup_ack(&mut self, now: Time) -> RenoSignal {
        if self.in_recovery {
            return RenoSignal::None;
        }
        self.dupacks += 1;
        if self.dupacks == 3 {
            self.w_max = self.cwnd;
            self.cwnd = (self.cwnd * self.beta).max(2.0);
            self.ssthresh = self.cwnd;
            self.epoch_start = Some(now);
            self.in_recovery = true;
            RenoSignal::FastRetransmit
        } else {
            RenoSignal::None
        }
    }

    fn on_timeout(&mut self, now: Time) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * self.beta).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.in_recovery = false;
        self.epoch_start = Some(now);
    }

    /// Feeds the TCP-friendly region.
    fn observe_rtt(&mut self, srtt: Dur) {
        self.srtt = srtt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_function_has_plateau_at_w_max() {
        let c = Cubic {
            w_max: 100.0,
            ..Cubic::default()
        };
        let k = (100.0 * 0.7 / 0.4f64).cbrt();
        // At t = K the cubic crosses W_max.
        assert!((c.w_cubic(k) - 100.0).abs() < 1e-9);
        // Before K it is below, after K above.
        assert!(c.w_cubic(k - 1.0) < 100.0);
        assert!(c.w_cubic(k + 1.0) > 100.0);
    }

    #[test]
    fn slow_start_until_ssthresh() {
        let mut c = Cubic {
            ssthresh: 16.0,
            ..Cubic::default()
        };
        assert!(c.in_slow_start());
        c.on_new_ack(2, Time::from_millis(100));
        assert!((c.cwnd - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_is_multiplicative_beta() {
        let mut c = Cubic {
            cwnd: 100.0,
            ssthresh: 10.0,
            ..Cubic::default()
        };
        for _ in 0..2 {
            assert_eq!(c.on_dup_ack(Time::from_secs(1)), RenoSignal::None);
        }
        assert_eq!(c.on_dup_ack(Time::from_secs(1)), RenoSignal::FastRetransmit);
        assert!((c.cwnd - 70.0).abs() < 1e-9);
        assert!((c.w_max - 100.0).abs() < 1e-9);
        assert!(c.in_recovery);
    }

    #[test]
    fn concave_growth_back_toward_w_max() {
        let mut c = Cubic {
            cwnd: 70.0,
            ssthresh: 70.0,
            w_max: 100.0,
            ..Cubic::default()
        };
        c.epoch_start = Some(Time::ZERO);
        // Feed ACKs over simulated time; the window should approach W_max
        // quickly at first, then flatten (concave region).
        let mut w_at = Vec::new();
        for s in 1..=20u64 {
            for _ in 0..c.window() {
                c.on_new_ack(1, Time::from_secs(s));
            }
            w_at.push(c.cwnd);
        }
        assert!(w_at[4] > 80.0, "early growth too slow: {}", w_at[4]);
        assert!(w_at[19] >= w_at[4]);
        // K = ∛(W_max·β/C) ≈ 5.6 s: the region before it is concave —
        // per-second gains shrink as the window approaches the plateau.
        let gain_1 = w_at[1] - w_at[0];
        let gain_4 = w_at[4] - w_at[3];
        assert!(
            gain_1 > gain_4,
            "growth should be concave before the plateau: {gain_1} vs {gain_4}"
        );
    }

    #[test]
    fn timeout_resets_to_one() {
        let mut c = Cubic {
            cwnd: 50.0,
            ssthresh: 10.0,
            ..Cubic::default()
        };
        c.on_timeout(Time::from_secs(5));
        assert_eq!(c.window(), 1);
        assert!((c.ssthresh - 35.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_independence_of_cubic_target() {
        // The cubic target at a given elapsed time does not depend on RTT
        // (that's CUBIC's design goal); only the TCP-friendly floor does.
        let a = Cubic {
            w_max: 100.0,
            ..Cubic::default()
        };
        assert_eq!(a.w_cubic(3.0), a.w_cubic(3.0));
        let t = 2.0;
        let k = (100.0f64 * 0.7 / 0.4).cbrt();
        assert!((a.w_cubic(t) - (0.4 * (t - k).powi(3) + 100.0)).abs() < 1e-9);
    }
}
