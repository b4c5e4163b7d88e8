//! TCP Reno congestion control (RFC 5681, simplified for simulation).
//!
//! This is the baseline the paper positions itself against: "all TCP
//! variants model the entire network path using a single variable, cwnd,
//! and use incoming ACKs to adjust this value and send out data" (§2).
//! The window is kept in (fractional) packets; slow start, congestion
//! avoidance, fast retransmit / fast recovery, and timeout recovery are
//! implemented; SACK and pacing are not. Reno ignores the event times
//! [`CongestionControl`] passes.

use crate::cc::CongestionControl;
use augur_sim::Time;

/// What the control asked the transport to do after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenoSignal {
    /// Nothing special; send as the window allows.
    None,
    /// Retransmit the first unacknowledged segment (fast retransmit).
    FastRetransmit,
}

/// Reno state.
#[derive(Debug, Clone)]
pub struct Reno {
    /// Congestion window, packets.
    pub cwnd: f64,
    /// Slow-start threshold, packets.
    pub ssthresh: f64,
    /// Consecutive duplicate ACKs seen.
    pub dupacks: u32,
    /// True while in fast recovery.
    pub in_recovery: bool,
    /// Initial window (RFC 5681 allows up to 4; we use 2).
    pub initial_window: f64,
}

impl Default for Reno {
    fn default() -> Self {
        Reno {
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            in_recovery: false,
            initial_window: 2.0,
        }
    }
}

impl Reno {
    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl CongestionControl for Reno {
    fn window(&self) -> u64 {
        self.cwnd.floor().max(1.0) as u64
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn on_new_ack(&mut self, newly_acked: u64, _now: Time) {
        self.dupacks = 0;
        if self.in_recovery {
            // NewReno-lite: leave recovery, deflate to ssthresh.
            self.in_recovery = false;
            self.cwnd = self.ssthresh.max(self.initial_window);
            return;
        }
        for _ in 0..newly_acked {
            if self.in_slow_start() {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
    }

    /// Returns `FastRetransmit` on the third duplicate ACK.
    fn on_dup_ack(&mut self, _now: Time) -> RenoSignal {
        if self.in_recovery {
            // Window inflation during recovery.
            self.cwnd += 1.0;
            return RenoSignal::None;
        }
        self.dupacks += 1;
        if self.dupacks == 3 {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh + 3.0;
            self.in_recovery = true;
            RenoSignal::FastRetransmit
        } else {
            RenoSignal::None
        }
    }

    fn on_timeout(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.in_recovery = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::default();
        assert!(r.in_slow_start());
        let w0 = r.cwnd;
        // One ACK per outstanding packet: cwnd grows by the window.
        r.on_new_ack(w0 as u64, Time::ZERO);
        assert!((r.cwnd - 2.0 * w0).abs() < 1e-9);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut r = Reno {
            cwnd: 10.0,
            ssthresh: 5.0,
            ..Reno::default()
        };
        assert!(!r.in_slow_start());
        // 10 ACKs ≈ one RTT worth: cwnd += ~1.
        for _ in 0..10 {
            r.on_new_ack(1, Time::ZERO);
        }
        assert!((r.cwnd - 11.0).abs() < 0.1, "cwnd = {}", r.cwnd);
    }

    #[test]
    fn third_dupack_triggers_fast_retransmit() {
        let mut r = Reno {
            cwnd: 16.0,
            ssthresh: 4.0,
            ..Reno::default()
        };
        assert_eq!(r.on_dup_ack(Time::ZERO), RenoSignal::None);
        assert_eq!(r.on_dup_ack(Time::ZERO), RenoSignal::None);
        assert_eq!(r.on_dup_ack(Time::ZERO), RenoSignal::FastRetransmit);
        assert!(r.in_recovery);
        assert!((r.ssthresh - 8.0).abs() < 1e-9);
        assert!((r.cwnd - 11.0).abs() < 1e-9); // ssthresh + 3
    }

    #[test]
    fn recovery_exit_deflates_window() {
        let mut r = Reno {
            cwnd: 16.0,
            ssthresh: 4.0,
            ..Reno::default()
        };
        for _ in 0..3 {
            r.on_dup_ack(Time::ZERO);
        }
        r.on_new_ack(5, Time::ZERO);
        assert!(!r.in_recovery);
        assert!((r.cwnd - 8.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut r = Reno {
            cwnd: 20.0,
            ssthresh: 50.0,
            ..Reno::default()
        };
        r.on_timeout(Time::ZERO);
        assert_eq!(r.window(), 1);
        assert!((r.ssthresh - 10.0).abs() < 1e-9);
        assert!(r.in_slow_start());
    }

    #[test]
    fn window_never_below_one() {
        let r = Reno {
            cwnd: 0.3,
            ..Reno::default()
        };
        assert_eq!(r.window(), 1);
    }
}
