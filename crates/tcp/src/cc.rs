//! The congestion-control interface the transport runner drives — the
//! "different increase/decrease rules for cwnd within this architectural
//! framework" of the paper's §2, as a trait. Each rule is written once,
//! in its implementation next to its type: [`crate::Reno`] and
//! [`crate::Cubic`].

use crate::reno::RenoSignal;
use augur_sim::{Dur, Time};

/// Window-based congestion control, ACK-clocked.
pub trait CongestionControl {
    /// Whole-packet window currently allowed in flight.
    fn window(&self) -> u64;
    /// The fractional congestion window (diagnostics: the endpoint paces
    /// by [`CongestionControl::window`] and keeps no cwnd series).
    fn cwnd(&self) -> f64;
    /// True while in fast recovery.
    fn in_recovery(&self) -> bool;
    /// A cumulative ACK advanced `snd_una` by `newly_acked` packets.
    fn on_new_ack(&mut self, newly_acked: u64, now: Time);
    /// A duplicate ACK; the implementation decides when to fast-retransmit.
    fn on_dup_ack(&mut self, now: Time) -> RenoSignal;
    /// The retransmission timer fired.
    fn on_timeout(&mut self, now: Time);
    /// Smoothed-RTT feedback (CUBIC's TCP-friendly region uses it).
    fn observe_rtt(&mut self, _srtt: Dur) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cubic, Reno};

    #[test]
    fn trait_objects_dispatch() {
        let mut ccs: Vec<Box<dyn CongestionControl>> =
            vec![Box::new(Reno::default()), Box::new(Cubic::default())];
        for cc in &mut ccs {
            assert!(cc.window() >= 1);
            cc.on_new_ack(1, Time::from_millis(50));
            assert!(cc.cwnd() > 2.0);
            cc.on_timeout(Time::from_millis(100));
            assert_eq!(cc.window(), 1);
        }
    }
}
