//! The TCP endpoint pair as a pure state machine — no network attached.
//!
//! [`TcpEndpoint`] holds everything [`crate::TcpRunner`] used to own
//! except the network itself: the bulk-transfer sender (congestion
//! control, RTT estimation, retransmission machinery), the
//! cumulative-ACK receiver, and the fixed-delay reverse path. Splitting
//! it out lets the same machine run in two harnesses:
//!
//! * [`crate::TcpRunner`] drives it against a network it owns — the
//!   single-flow Figure-1 experiments;
//! * a multi-sender loop (e.g. `augur_core::run_multi_agent`) feeds it
//!   deliveries and injects the packets it emits, so TCP can *share* a
//!   bottleneck with other senders instead of owning it.
//!
//! The endpoint never draws randomness and never touches a `Network`:
//! transmissions accumulate in an outbox that [`TcpEndpoint::poll`]
//! drains, and the caller decides how to inject them.

use crate::cc::CongestionControl;
use crate::reno::RenoSignal;
use crate::rtt::RttEstimator;
use crate::runner::{TcpConfig, TcpTrace};
use augur_sim::{Dur, EventQueue, Packet, Time};
use std::collections::VecDeque;

/// The co-simulated TCP sender + receiver pair, network-free.
pub struct TcpEndpoint {
    cfg: TcpConfig,

    // Sender state.
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    next_seq: u64,
    high_water: u64,
    recover: u64,
    snd_una: u64,
    /// One entry per unacknowledged segment: entry `k` is segment
    /// `snd_una + k`, for every segment below `high_water` — its first
    /// transmission time and whether it was ever retransmitted (Karn's
    /// algorithm takes no RTT sample from those). A cumulative ACK pops
    /// from the front; a first transmission pushes at the back.
    segments: VecDeque<(Option<Time>, bool)>,
    rto_deadline: Option<Time>,
    rto_backoff: u32,

    // Receiver state.
    rcv_next: u64,
    /// Segments held above the in-order point: entry `k` is segment
    /// `rcv_next + k`, true once it arrived. The front entry is never
    /// true between deliveries (that segment would have been accepted).
    out_of_order: VecDeque<bool>,
    received_bits: u64,

    // Reverse path: cumulative-ACK events (ack number = next expected).
    acks: EventQueue<u64>,
    last_ack_seen: u64,

    // Packets emitted since the last poll, in transmission order.
    outbox: Vec<Packet>,
}

impl TcpEndpoint {
    /// A fresh endpoint with the given congestion-control algorithm.
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> TcpEndpoint {
        TcpEndpoint {
            cfg,
            cc,
            rtt: RttEstimator::default(),
            next_seq: 0,
            high_water: 0,
            recover: 0,
            snd_una: 0,
            segments: VecDeque::new(),
            rto_deadline: None,
            rto_backoff: 0,
            rcv_next: 0,
            out_of_order: VecDeque::new(),
            received_bits: 0,
            acks: EventQueue::new(),
            last_ack_seen: 0,
            outbox: Vec::new(),
        }
    }

    /// The endpoint's configuration.
    pub fn cfg(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Total in-order bits the receiver has accepted.
    pub fn received_bits(&self) -> u64 {
        self.received_bits
    }

    /// The earliest internal event (ACK arrival or retransmission
    /// timeout), if any is scheduled.
    pub fn next_event_time(&self) -> Option<Time> {
        match (self.acks.peek_time(), self.rto_deadline) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, r) => r,
        }
    }

    /// The receiver accepts a delivered data packet and schedules the
    /// (possibly duplicate) cumulative ACK on the reverse path. `pkt` is
    /// one of the segments [`TcpEndpoint::poll`] emitted: an arrival
    /// above the in-order point extends the reassembly ring to it.
    pub fn on_delivery(&mut self, pkt: Packet, at: Time) {
        if let Some(k) = pkt.seq.checked_sub(self.rcv_next) {
            let k = k as usize;
            if k == 0 {
                self.out_of_order.pop_front();
                self.rcv_next += 1;
                self.received_bits += pkt.size.as_u64();
                while self.out_of_order.front() == Some(&true) {
                    self.out_of_order.pop_front();
                    self.rcv_next += 1;
                    self.received_bits += pkt.size.as_u64();
                }
            } else {
                if self.out_of_order.len() <= k {
                    self.out_of_order.resize(k + 1, false);
                }
                self.out_of_order[k] = true;
            }
        }
        self.acks.push(at + self.cfg.reverse_delay, self.rcv_next);
    }

    /// Process everything due at `now` — ACK arrivals, the retransmission
    /// timeout, window refill — and return the packets to inject, in
    /// order.
    pub fn poll(&mut self, now: Time, trace: &mut TcpTrace) -> Vec<Packet> {
        while self.acks.peek_time().is_some_and(|t| t <= now) {
            let (_, ack) = self.acks.pop().unwrap();
            self.sender_on_ack(ack, now, trace);
        }
        if self.rto_deadline.is_some_and(|t| t <= now) {
            self.on_timeout(now, trace);
        }
        self.fill_window(now, trace);
        std::mem::take(&mut self.outbox)
    }

    fn flight(&self) -> u64 {
        // After a timeout rewind, a late ACK from an original transmission
        // can advance snd_una past the rewound send pointer.
        self.next_seq.saturating_sub(self.snd_una)
    }

    fn fill_window(&mut self, now: Time, trace: &mut TcpTrace) {
        let window = self.cc.window().min(self.cfg.max_window);
        while self.flight() < window {
            let seq = self.next_seq;
            self.next_seq += 1;
            // After a timeout the send pointer rewinds (go-back-N), so a
            // "new" send may be a retransmission of an old sequence.
            let is_retx = seq < self.high_water;
            self.transmit(seq, now, is_retx, trace);
        }
    }

    fn transmit(&mut self, seq: u64, now: Time, is_retx: bool, trace: &mut TcpTrace) {
        self.outbox
            .push(Packet::new(self.cfg.flow, seq, self.cfg.packet_size, now));
        trace.segments_sent += 1;
        if is_retx {
            trace.retransmissions += 1;
        }
        self.high_water = self.high_water.max(seq + 1);
        let unacked = self.high_water.saturating_sub(self.snd_una) as usize;
        if self.segments.len() < unacked {
            self.segments.resize(unacked, (None, false));
        }
        // A segment below `snd_una` is already acknowledged: nothing is
        // left to record for it.
        if let Some(k) = seq.checked_sub(self.snd_una) {
            let (sent_at, retransmitted) = &mut self.segments[k as usize];
            if is_retx {
                *retransmitted = true;
            } else {
                *sent_at = Some(now);
            }
        }
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.backed_off_rto());
        }
    }

    fn backed_off_rto(&self) -> Dur {
        self.rtt
            .rto()
            .saturating_mul(1u64 << self.rto_backoff.min(6))
    }

    fn sender_on_ack(&mut self, ack: u64, now: Time, trace: &mut TcpTrace) {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            // RTT sample from the *first* newly-acked segment — the one
            // whose delivery triggered this ACK in the in-order case —
            // and never from a retransmitted one (Karn's algorithm).
            if let Some(&(Some(sent), false)) = self.segments.front() {
                let rtt = now.since(sent);
                self.rtt.observe(rtt);
                if let Some(srtt) = self.rtt.srtt() {
                    self.cc.observe_rtt(srtt);
                }
                trace.rtt_samples.push((now, rtt));
            }
            let acked = (newly as usize).min(self.segments.len());
            self.segments.drain(..acked);
            self.snd_una = ack;
            self.next_seq = self.next_seq.max(ack);
            self.rto_backoff = 0;
            let was_in_recovery = self.cc.in_recovery();
            if was_in_recovery && ack < self.recover {
                // NewReno partial ACK: the next hole is at the new
                // snd_una — retransmit it immediately, stay in recovery.
                self.transmit(self.snd_una, now, true, trace);
            } else {
                self.cc.on_new_ack(newly, now);
            }
            self.rto_deadline = if self.flight() > 0 {
                Some(now + self.backed_off_rto())
            } else {
                None
            };
            trace.goodput.push((now, self.received_bits));
        } else if ack == self.last_ack_seen
            && self.flight() > 0
            && self.cc.on_dup_ack(now) == RenoSignal::FastRetransmit
        {
            self.recover = self.next_seq;
            self.transmit(self.snd_una, now, true, trace);
        }
        self.last_ack_seen = ack;
        trace.cwnd_samples.push((now, self.cc.cwnd()));
    }

    fn on_timeout(&mut self, now: Time, trace: &mut TcpTrace) {
        trace.timeouts += 1;
        self.cc.on_timeout(now);
        self.rtt.on_timeout();
        self.rto_backoff += 1;
        // Go-back-N: rewind the send pointer; everything unacknowledged
        // will be resent as the window reopens in slow start.
        self.next_seq = self.snd_una;
        self.recover = self.high_water;
        self.fill_window(now, trace); // window is 1: resends snd_una
        self.rto_deadline = Some(now + self.backed_off_rto());
        trace.cwnd_samples.push((now, self.cc.cwnd()));
    }
}

/// The endpoint as it stood before its segment records became
/// sequence-indexed rings, kept as the reference core: send times in a
/// `HashMap`, retransmitted and out-of-order segments in `BTreeSet`s,
/// every acknowledged key removed one by one.
#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "D003: a lookup-only map")]
mod reference {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    pub struct TcpEndpoint {
        cfg: TcpConfig,
        cc: Box<dyn CongestionControl>,
        rtt: RttEstimator,
        next_seq: u64,
        high_water: u64,
        recover: u64,
        snd_una: u64,
        sent_at: HashMap<u64, Time>,
        retransmitted: BTreeSet<u64>,
        rto_deadline: Option<Time>,
        rto_backoff: u32,
        rcv_next: u64,
        out_of_order: BTreeSet<u64>,
        received_bits: u64,
        acks: EventQueue<u64>,
        last_ack_seen: u64,
        outbox: Vec<Packet>,
    }

    impl TcpEndpoint {
        pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> TcpEndpoint {
            TcpEndpoint {
                cfg,
                cc,
                rtt: RttEstimator::default(),
                next_seq: 0,
                high_water: 0,
                recover: 0,
                snd_una: 0,
                sent_at: HashMap::new(),
                retransmitted: BTreeSet::new(),
                rto_deadline: None,
                rto_backoff: 0,
                rcv_next: 0,
                out_of_order: BTreeSet::new(),
                received_bits: 0,
                acks: EventQueue::new(),
                last_ack_seen: 0,
                outbox: Vec::new(),
            }
        }

        pub fn received_bits(&self) -> u64 {
            self.received_bits
        }

        pub fn next_event_time(&self) -> Option<Time> {
            match (self.acks.peek_time(), self.rto_deadline) {
                (Some(a), Some(r)) => Some(a.min(r)),
                (Some(a), None) => Some(a),
                (None, r) => r,
            }
        }

        pub fn on_delivery(&mut self, pkt: Packet, at: Time) {
            if pkt.seq >= self.rcv_next {
                if pkt.seq == self.rcv_next {
                    self.rcv_next += 1;
                    self.received_bits += pkt.size.as_u64();
                    while self.out_of_order.remove(&self.rcv_next) {
                        self.rcv_next += 1;
                        self.received_bits += pkt.size.as_u64();
                    }
                } else {
                    self.out_of_order.insert(pkt.seq);
                }
            }
            self.acks.push(at + self.cfg.reverse_delay, self.rcv_next);
        }

        pub fn poll(&mut self, now: Time, trace: &mut TcpTrace) -> Vec<Packet> {
            while self.acks.peek_time().is_some_and(|t| t <= now) {
                let (_, ack) = self.acks.pop().unwrap();
                self.sender_on_ack(ack, now, trace);
            }
            if self.rto_deadline.is_some_and(|t| t <= now) {
                self.on_timeout(now, trace);
            }
            self.fill_window(now, trace);
            std::mem::take(&mut self.outbox)
        }

        fn flight(&self) -> u64 {
            self.next_seq.saturating_sub(self.snd_una)
        }

        fn fill_window(&mut self, now: Time, trace: &mut TcpTrace) {
            let window = self.cc.window().min(self.cfg.max_window);
            while self.flight() < window {
                let seq = self.next_seq;
                self.next_seq += 1;
                let is_retx = seq < self.high_water;
                self.transmit(seq, now, is_retx, trace);
            }
        }

        fn transmit(&mut self, seq: u64, now: Time, is_retx: bool, trace: &mut TcpTrace) {
            self.outbox
                .push(Packet::new(self.cfg.flow, seq, self.cfg.packet_size, now));
            trace.segments_sent += 1;
            if is_retx {
                trace.retransmissions += 1;
                self.retransmitted.insert(seq);
            } else {
                self.sent_at.insert(seq, now);
            }
            self.high_water = self.high_water.max(seq + 1);
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.backed_off_rto());
            }
        }

        fn backed_off_rto(&self) -> Dur {
            self.rtt
                .rto()
                .saturating_mul(1u64 << self.rto_backoff.min(6))
        }

        fn sender_on_ack(&mut self, ack: u64, now: Time, trace: &mut TcpTrace) {
            if ack > self.snd_una {
                let newly = ack - self.snd_una;
                let sample_seq = self.snd_una;
                if !self.retransmitted.contains(&sample_seq) {
                    if let Some(sent) = self.sent_at.get(&sample_seq) {
                        let rtt = now.since(*sent);
                        self.rtt.observe(rtt);
                        if let Some(srtt) = self.rtt.srtt() {
                            self.cc.observe_rtt(srtt);
                        }
                        trace.rtt_samples.push((now, rtt));
                    }
                }
                for s in self.snd_una..ack {
                    self.sent_at.remove(&s);
                    self.retransmitted.remove(&s);
                }
                self.snd_una = ack;
                self.next_seq = self.next_seq.max(ack);
                self.rto_backoff = 0;
                let was_in_recovery = self.cc.in_recovery();
                if was_in_recovery && ack < self.recover {
                    self.transmit(self.snd_una, now, true, trace);
                } else {
                    self.cc.on_new_ack(newly, now);
                }
                self.rto_deadline = if self.flight() > 0 {
                    Some(now + self.backed_off_rto())
                } else {
                    None
                };
                trace.goodput.push((now, self.received_bits));
            } else if ack == self.last_ack_seen
                && self.flight() > 0
                && self.cc.on_dup_ack(now) == RenoSignal::FastRetransmit
            {
                self.recover = self.next_seq;
                self.transmit(self.snd_una, now, true, trace);
            }
            self.last_ack_seen = ack;
            trace.cwnd_samples.push((now, self.cc.cwnd()));
        }

        fn on_timeout(&mut self, now: Time, trace: &mut TcpTrace) {
            trace.timeouts += 1;
            self.cc.on_timeout(now);
            self.rtt.on_timeout();
            self.rto_backoff += 1;
            self.next_seq = self.snd_una;
            self.recover = self.high_water;
            self.fill_window(now, trace);
            self.rto_deadline = Some(now + self.backed_off_rto());
            trace.cwnd_samples.push((now, self.cc.cwnd()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubic::Cubic;
    use crate::reno::Reno;
    use augur_sim::SimRng;

    /// A synthetic forward path: a bottleneck that spaces departures by
    /// `service`, then `delay` plus up to `jitter_us` of per-packet jitter
    /// (reordering inside the window when it exceeds `service`), with
    /// per-mille loss and duplication odds and outages that lose every
    /// packet sent inside them.
    struct Path {
        service: Dur,
        delay: Dur,
        jitter_us: u64,
        loss_permille: u64,
        dup_permille: u64,
        /// `(start, length)` of each outage.
        outages: Vec<(Time, Dur)>,
    }

    impl Path {
        fn clean() -> Path {
            Path {
                service: Dur::from_millis(2),
                delay: Dur::from_millis(20),
                jitter_us: 0,
                loss_permille: 0,
                dup_permille: 0,
                outages: Vec::new(),
            }
        }
    }

    /// What one differential run exercised, summed over every poll.
    #[derive(Default)]
    struct Totals {
        deliveries: u64,
        reordered: u64,
        duplicates: u64,
        retransmissions: u64,
        timeouts: u64,
        rtt_samples: usize,
    }

    /// Drive the ring endpoint and the reference side by side over `path`
    /// until `t_end`: after every delivery and every poll both must emit
    /// the same packets, schedule the same next event and write the same
    /// trace (each poll gets a fresh trace, so equal deltas mean equal
    /// accumulated traces).
    fn differential(path: &Path, cc: fn() -> Box<dyn CongestionControl>, seed: u64) -> Totals {
        let t_end = Time::from_secs(30);
        let cfg = TcpConfig {
            max_window: 64,
            ..TcpConfig::default()
        };
        let mut new = TcpEndpoint::new(cfg.clone(), cc());
        let mut old = reference::TcpEndpoint::new(cfg, cc());
        let mut rng = SimRng::seed_from_u64(seed);
        let mut wire: EventQueue<Packet> = EventQueue::new();
        let mut link_free = Time::ZERO;
        let mut highest_delivered = None;
        let mut totals = Totals::default();
        let mut now = Time::ZERO;
        loop {
            let (mut a, mut b) = (TcpTrace::default(), TcpTrace::default());
            let sent = new.poll(now, &mut a);
            assert_eq!(sent, old.poll(now, &mut b), "packets emitted at {now}");
            assert_eq!(a, b, "trace written at {now}");
            assert_eq!(new.next_event_time(), old.next_event_time(), "at {now}");
            totals.retransmissions += a.retransmissions;
            totals.timeouts += a.timeouts;
            totals.rtt_samples += a.rtt_samples.len();
            for pkt in sent {
                link_free = link_free.max(now) + path.service;
                let in_outage = path
                    .outages
                    .iter()
                    .any(|&(start, len)| now >= start && now < start + len);
                if in_outage || rng.uniform_u64(0, 999) < path.loss_permille {
                    continue;
                }
                let copies = 1 + u64::from(rng.uniform_u64(0, 999) < path.dup_permille);
                for _ in 0..copies {
                    let jitter = Dur::from_micros(rng.uniform_u64(0, path.jitter_us));
                    wire.push(link_free + path.delay + jitter, pkt);
                }
            }
            let next = match (wire.peek_time(), new.next_event_time()) {
                (Some(w), Some(e)) => Some(w.min(e)),
                (w, e) => w.or(e),
            };
            match next {
                Some(t) if t <= t_end => now = t,
                _ => return totals,
            }
            while wire.peek_time().is_some_and(|t| t <= now) {
                let (at, pkt) = wire.pop().expect("peeked");
                totals.deliveries += 1;
                match highest_delivered {
                    Some(h) if pkt.seq == h => totals.duplicates += 1,
                    Some(h) if pkt.seq < h => totals.reordered += 1,
                    _ => highest_delivered = Some(pkt.seq),
                }
                new.on_delivery(pkt, at);
                old.on_delivery(pkt, at);
                assert_eq!(new.next_event_time(), old.next_event_time(), "at {at}");
                assert_eq!(new.received_bits(), old.received_bits(), "at {at}");
            }
        }
    }

    fn reno() -> Box<dyn CongestionControl> {
        Box::<Reno>::default()
    }

    fn cubic() -> Box<dyn CongestionControl> {
        Box::<Cubic>::default()
    }

    #[test]
    fn in_order_path_matches_reference() {
        let t = differential(&Path::clean(), reno, 1);
        assert!(t.deliveries > 1_000 && t.rtt_samples > 1_000);
        assert_eq!((t.reordered, t.retransmissions, t.timeouts), (0, 0, 0));
    }

    #[test]
    fn reordered_and_duplicated_deliveries_match_reference() {
        for (seed, cc) in [(2, reno as fn() -> _), (3, cubic)] {
            let path = Path {
                jitter_us: 9_000,
                dup_permille: 30,
                ..Path::clean()
            };
            let t = differential(&path, cc, seed);
            assert!(t.reordered > 100 && t.duplicates > 10, "seed {seed}");
        }
    }

    #[test]
    fn gaps_force_fast_retransmit_and_partial_acks_like_reference() {
        // Dense losses stack holes in one window (partial ACKs); sparse
        // ones let the window grow, so a hole leaves long gaps above it.
        for (seed, cc, loss_permille) in [(4, reno as fn() -> _, 30), (5, cubic, 30), (7, reno, 2)]
        {
            let path = Path {
                loss_permille,
                jitter_us: 1_000,
                ..Path::clean()
            };
            let t = differential(&path, cc, seed);
            assert!(t.retransmissions > 2 * t.timeouts + 20, "seed {seed}");
        }
    }

    #[test]
    fn outages_fire_the_timeout_and_rewind_like_reference() {
        let path = Path {
            loss_permille: 5,
            outages: vec![
                (Time::from_secs(5), Dur::from_secs(3)),
                (Time::from_secs(15), Dur::from_millis(2_500)),
                (Time::from_secs(22), Dur::from_secs(4)),
            ],
            ..Path::clean()
        };
        let t = differential(&path, reno, 6);
        assert!(t.timeouts >= 3 && t.retransmissions > 64);
    }
}
