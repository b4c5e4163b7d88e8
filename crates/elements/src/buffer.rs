//! BUFFER — "a tail-drop queue, whose unknown parameters are the size of
//! the queue and its current fullness" (§3.1) — plus the AQM variants the
//! paper lists as missing in §3.5 (RED, CoDel) and a DRR fair-queue pair
//! for non-FIFO scheduling.
//!
//! A buffer never drains itself; it must feed a [`crate::link::Link`]
//! directly downstream, which pulls the head packet each time it finishes
//! serving (wired by the network builder). Fullness is measured in bits.
//!
//! Split representation: [`BufferParams`] (capacity, discipline
//! configuration) is immutable and shared across hypothesis networks;
//! [`BufferState`] (queue contents, fullness, AQM running state) is the
//! compact per-hypothesis half. [`Buffer`]'s constructors return the pair
//! with its initial state.

use augur_sim::{Bits, Dur, Packet, Ppm, Time};
use std::collections::VecDeque;

/// One queued packet with its enqueue instant (needed by CoDel's sojourn
/// test and useful for latency accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Queued {
    /// The packet itself.
    pub packet: Packet,
    /// When it entered the buffer.
    pub enq_at: Time,
}

/// Queue-management discipline configuration (immutable).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Plain tail drop: the paper's BUFFER element.
    DropTail,
    /// Random Early Detection (Floyd & Jacobson 1993), fixed-point EWMA.
    Red(RedParams),
    /// CoDel (Nichols & Jacobson 2012): sojourn-time-based dropping at
    /// dequeue.
    CoDel(CoDelParams),
}

/// RED's configuration. The average queue it controls lives in
/// [`AqmState::Red`], kept in 1/256-bit fixed point so the element stays
/// integer-valued (`Eq + Hash`: hypotheses are compared and deduplicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RedParams {
    /// Minimum threshold, bits.
    pub min_th: Bits,
    /// Maximum threshold, bits.
    pub max_th: Bits,
    /// Max drop probability at `max_th`.
    pub max_p: Ppm,
    /// EWMA weight as a right-shift: avg += (q - avg) >> w_shift.
    pub w_shift: u32,
}

/// CoDel's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoDelParams {
    /// Sojourn target (standard: 5 ms).
    pub target: Dur,
    /// Sliding-window interval (standard: 100 ms).
    pub interval: Dur,
}

impl CoDelParams {
    /// The control-law interval: `interval / sqrt(count)`, in integer
    /// microseconds.
    pub fn control_law(&self, count: u32, from: Time) -> Time {
        let denom = (count.max(1) as f64).sqrt();
        from + Dur::from_micros((self.interval.as_micros() as f64 / denom).round() as u64)
    }
}

/// CoDel's running state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoDelRun {
    /// When the sojourn time first exceeded target, if currently above.
    pub first_above: Option<Time>,
    /// True while in the dropping state.
    pub dropping: bool,
    /// Next scheduled drop time while dropping.
    pub drop_next: Time,
    /// Drops in the current dropping episode (controls the sqrt law).
    pub count: u32,
}

/// Per-discipline mutable state, matching the [`BufferKind`] variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AqmState {
    /// Tail drop carries no extra state.
    DropTail,
    /// RED's average queue in 1/256-bit fixed point.
    Red {
        /// EWMA of the instantaneous queue, × 256.
        avg_x256: u64,
    },
    /// CoDel's dropping-state machine.
    CoDel(CoDelRun),
}

/// Immutable buffer parameters: capacity and discipline configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufferParams {
    /// Capacity in bits (tail-drop bound regardless of discipline).
    pub capacity: Bits,
    /// Discipline.
    pub kind: BufferKind,
}

/// Per-hypothesis mutable buffer state: the queue and AQM running state.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct BufferState {
    pub(crate) queue: VecDeque<Queued>,
    pub(crate) queued_bits: Bits,
    /// Discipline running state (variant mirrors the params' kind).
    pub aqm: AqmState,
}

impl Clone for BufferState {
    fn clone(&self) -> BufferState {
        BufferState {
            queue: self.queue.clone(),
            queued_bits: self.queued_bits,
            aqm: self.aqm.clone(),
        }
    }

    /// Refill in place, keeping the queue's allocation: planner rollouts
    /// overwrite the same scratch network once per branch and candidate.
    fn clone_from(&mut self, source: &BufferState) {
        let BufferState {
            queue,
            queued_bits,
            aqm,
        } = source;
        self.queue.clone_from(queue);
        self.queued_bits = *queued_bits;
        self.aqm.clone_from(aqm);
    }
}

/// Outcome of offering a packet to a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued (or will be, pending no AQM objection).
    Enqueued,
    /// Tail-dropped: not enough room.
    TailDrop,
    /// RED wants a probabilistic early-drop decision with this probability.
    RedChoice(Ppm),
}

impl BufferParams {
    /// Fresh (empty) state matching this configuration.
    pub fn initial_state(&self) -> BufferState {
        BufferState {
            queue: VecDeque::new(),
            queued_bits: Bits::ZERO,
            aqm: match &self.kind {
                BufferKind::DropTail => AqmState::DropTail,
                BufferKind::Red(_) => AqmState::Red { avg_x256: 0 },
                BufferKind::CoDel(_) => AqmState::CoDel(CoDelRun::default()),
            },
        }
    }

    /// Would `pkt` fit into `st` right now?
    pub fn fits(&self, st: &BufferState, pkt: &Packet) -> bool {
        match st.queued_bits.checked_add(pkt.size) {
            Some(total) => total <= self.capacity,
            None => false,
        }
    }

    /// Offer a packet for admission at `now`. For `DropTail`/`CoDel` this
    /// decides immediately; for `Red` it may return [`Admission::RedChoice`]
    /// and the caller resolves the probabilistic drop through the choice
    /// mechanism, then calls [`BufferParams::force_enqueue`] on "enqueue".
    pub fn offer(&self, st: &mut BufferState, pkt: Packet, now: Time) -> Admission {
        if !self.fits(st, &pkt) {
            return Admission::TailDrop;
        }
        if let BufferKind::Red(red) = &self.kind {
            let AqmState::Red { avg_x256 } = &mut st.aqm else {
                unreachable!("RED params with non-RED state");
            };
            // EWMA update on the *instantaneous* queue at arrival.
            let q_x256 = st.queued_bits.as_u64() * 256;
            let delta = q_x256 as i128 - *avg_x256 as i128;
            *avg_x256 = (*avg_x256 as i128 + (delta >> red.w_shift)) as u64;
            let avg = Bits::new(*avg_x256 / 256);
            if avg >= red.max_th {
                return Admission::RedChoice(Ppm::ONE);
            }
            if avg > red.min_th {
                let span = (red.max_th - red.min_th).as_u64();
                let over = (avg - red.min_th).as_u64();
                let p = red.max_p.prob() * over as f64 / span as f64;
                return Admission::RedChoice(Ppm::from_prob(p.min(1.0)));
            }
        }
        self.force_enqueue(st, pkt, now);
        Admission::Enqueued
    }

    /// Enqueue unconditionally (post-admission). Panics if it does not fit —
    /// admission must have been checked.
    pub fn force_enqueue(&self, st: &mut BufferState, pkt: Packet, now: Time) {
        assert!(self.fits(st, &pkt), "force_enqueue past capacity");
        st.queued_bits += pkt.size;
        st.queue.push_back(Queued {
            packet: pkt,
            enq_at: now,
        });
    }

    /// Dequeue for service at `now`. Returns the packet to serve plus any
    /// packets CoDel dropped on the way (these must be recorded as drops by
    /// the caller).
    pub fn pull(&self, st: &mut BufferState, now: Time) -> PullResult {
        let mut dropped = Vec::new();
        loop {
            let Some(q) = st.queue.pop_front() else {
                return PullResult {
                    serve: None,
                    dropped,
                };
            };
            st.queued_bits -= q.packet.size;
            match (&self.kind, &mut st.aqm) {
                (BufferKind::DropTail, _) | (BufferKind::Red(_), _) => {
                    return PullResult {
                        serve: Some(q),
                        dropped,
                    };
                }
                (BufferKind::CoDel(cfg), AqmState::CoDel(run)) => {
                    let sojourn = now.since(q.enq_at);
                    let ok = sojourn < cfg.target;
                    if ok {
                        run.first_above = None;
                        if run.dropping {
                            run.dropping = false;
                        }
                        return PullResult {
                            serve: Some(q),
                            dropped,
                        };
                    }
                    // Sojourn above target.
                    if run.dropping {
                        if now >= run.drop_next {
                            dropped.push(q);
                            run.count += 1;
                            run.drop_next = cfg.control_law(run.count, run.drop_next);
                            continue;
                        }
                        return PullResult {
                            serve: Some(q),
                            dropped,
                        };
                    }
                    match run.first_above {
                        None => {
                            run.first_above = Some(now);
                            return PullResult {
                                serve: Some(q),
                                dropped,
                            };
                        }
                        Some(t0) if now.since(t0) >= cfg.interval => {
                            // Enter dropping state: drop this one.
                            dropped.push(q);
                            run.dropping = true;
                            run.count = if run.count > 2 { run.count - 2 } else { 1 };
                            run.drop_next = cfg.control_law(run.count, now);
                            continue;
                        }
                        Some(_) => {
                            return PullResult {
                                serve: Some(q),
                                dropped,
                            };
                        }
                    }
                }
                (BufferKind::CoDel(_), _) => unreachable!("CoDel params with non-CoDel state"),
            }
        }
    }
}

impl BufferState {
    /// Bits currently queued.
    pub fn fullness(&self) -> Bits {
        self.queued_bits
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A bounded queue with a selectable discipline as constructed:
/// [`BufferParams`] with the matching empty [`BufferState`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Buffer {
    /// Immutable configuration.
    pub params: BufferParams,
    /// Mutable queue/AQM state.
    pub state: BufferState,
}

impl Buffer {
    /// A tail-drop buffer of the given capacity.
    pub fn drop_tail(capacity: Bits) -> Buffer {
        Buffer::from_params(BufferParams {
            capacity,
            kind: BufferKind::DropTail,
        })
    }

    /// A RED buffer. Thresholds in bits.
    pub fn red(capacity: Bits, min_th: Bits, max_th: Bits, max_p: Ppm, w_shift: u32) -> Buffer {
        assert!(min_th < max_th, "RED thresholds inverted");
        Buffer::from_params(BufferParams {
            capacity,
            kind: BufferKind::Red(RedParams {
                min_th,
                max_th,
                max_p,
                w_shift,
            }),
        })
    }

    /// A CoDel buffer with standard target/interval unless overridden.
    pub fn codel(capacity: Bits, target: Dur, interval: Dur) -> Buffer {
        Buffer::from_params(BufferParams {
            capacity,
            kind: BufferKind::CoDel(CoDelParams { target, interval }),
        })
    }

    fn from_params(params: BufferParams) -> Buffer {
        let state = params.initial_state();
        Buffer { params, state }
    }
}

/// Result of [`BufferParams::pull`].
#[derive(Debug, Clone)]
pub struct PullResult {
    /// The packet to put into service, if any.
    pub serve: Option<Queued>,
    /// Packets dropped by CoDel while searching for one to serve.
    pub dropped: Vec<Queued>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::FlowId;

    fn pkt(seq: u64, bits: u64) -> Packet {
        Packet::new(FlowId::SELF, seq, Bits::new(bits), Time::ZERO)
    }

    #[test]
    fn drop_tail_respects_capacity_in_bits() {
        let mut b = Buffer::drop_tail(Bits::new(25_000));
        assert_eq!(
            b.params.offer(&mut b.state, pkt(0, 12_000), Time::ZERO),
            Admission::Enqueued
        );
        assert_eq!(
            b.params.offer(&mut b.state, pkt(1, 12_000), Time::ZERO),
            Admission::Enqueued
        );
        // 24_000 queued; a third 12_000-bit packet exceeds 25_000.
        assert_eq!(
            b.params.offer(&mut b.state, pkt(2, 12_000), Time::ZERO),
            Admission::TailDrop
        );
        // But a 1_000-bit packet still fits.
        assert_eq!(
            b.params.offer(&mut b.state, pkt(3, 1_000), Time::ZERO),
            Admission::Enqueued
        );
        assert_eq!(b.state.fullness(), Bits::new(25_000));
        assert_eq!(b.state.len(), 3);
    }

    #[test]
    fn pull_is_fifo_and_updates_fullness() {
        let mut b = Buffer::drop_tail(Bits::new(100_000));
        for i in 0..3 {
            b.params
                .offer(&mut b.state, pkt(i, 10_000), Time::from_secs(i));
        }
        let r = b.params.pull(&mut b.state, Time::from_secs(10));
        assert_eq!(r.serve.unwrap().packet.seq, 0);
        assert!(r.dropped.is_empty());
        assert_eq!(b.state.fullness(), Bits::new(20_000));
        assert_eq!(
            b.params
                .pull(&mut b.state, Time::from_secs(10))
                .serve
                .unwrap()
                .packet
                .seq,
            1
        );
        assert_eq!(
            b.params
                .pull(&mut b.state, Time::from_secs(10))
                .serve
                .unwrap()
                .packet
                .seq,
            2
        );
        assert!(b
            .params
            .pull(&mut b.state, Time::from_secs(10))
            .serve
            .is_none());
        assert!(b.state.is_empty());
    }

    #[test]
    fn red_below_min_is_plain_enqueue() {
        let mut b = Buffer::red(
            Bits::new(1_000_000),
            Bits::new(50_000),
            Bits::new(100_000),
            Ppm::from_prob(0.1),
            2,
        );
        assert_eq!(
            b.params.offer(&mut b.state, pkt(0, 10_000), Time::ZERO),
            Admission::Enqueued
        );
    }

    #[test]
    fn red_above_max_forces_drop_choice() {
        let mut b = Buffer::red(
            Bits::new(1_000_000),
            Bits::new(1_000),
            Bits::new(2_000),
            Ppm::from_prob(0.1),
            0, // w_shift 0: avg tracks queue instantly
        );
        b.params.offer(&mut b.state, pkt(0, 10_000), Time::ZERO);
        // Next arrival sees avg = 10_000 >= max_th = 2_000.
        match b.params.offer(&mut b.state, pkt(1, 10_000), Time::ZERO) {
            Admission::RedChoice(p) => assert!(p.is_one()),
            other => panic!("expected RedChoice, got {other:?}"),
        }
    }

    #[test]
    fn red_between_thresholds_scales_probability() {
        let mut b = Buffer::red(
            Bits::new(1_000_000),
            Bits::new(10_000),
            Bits::new(20_000),
            Ppm::from_prob(0.2),
            0,
        );
        b.params.offer(&mut b.state, pkt(0, 15_000), Time::ZERO);
        match b.params.offer(&mut b.state, pkt(1, 1_000), Time::ZERO) {
            Admission::RedChoice(p) => {
                // avg = 15_000 is halfway between thresholds → p = 0.1.
                assert!((p.prob() - 0.1).abs() < 1e-3, "p = {p}");
            }
            other => panic!("expected RedChoice, got {other:?}"),
        }
    }

    #[test]
    fn codel_passes_packets_below_target() {
        let mut b = Buffer::codel(
            Bits::new(1_000_000),
            Dur::from_millis(5),
            Dur::from_millis(100),
        );
        b.params.offer(&mut b.state, pkt(0, 1_000), Time::ZERO);
        let r = b.params.pull(&mut b.state, Time::from_millis(1));
        assert_eq!(r.serve.unwrap().packet.seq, 0);
        assert!(r.dropped.is_empty());
    }

    #[test]
    fn codel_drops_after_persistent_excess_sojourn() {
        let mut b = Buffer::codel(
            Bits::new(10_000_000),
            Dur::from_millis(5),
            Dur::from_millis(100),
        );
        // Enqueue many packets at t=0; dequeue them slowly so sojourn stays
        // far above target for longer than the interval.
        for i in 0..50 {
            b.params.offer(&mut b.state, pkt(i, 1_000), Time::ZERO);
        }
        let mut drops = 0;
        let mut served = 0;
        for k in 0..40u64 {
            let now = Time::from_millis(20 * (k + 1)); // sojourn >= 20ms > 5ms
            let r = b.params.pull(&mut b.state, now);
            drops += r.dropped.len();
            served += usize::from(r.serve.is_some());
        }
        assert!(drops >= 1, "CoDel never dropped (served {served})");
    }

    #[test]
    fn codel_recovers_when_sojourn_falls() {
        let mut b = Buffer::codel(
            Bits::new(10_000_000),
            Dur::from_millis(5),
            Dur::from_millis(100),
        );
        b.params
            .offer(&mut b.state, pkt(0, 1_000), Time::from_millis(0));
        // Long sojourn starts the "above" clock...
        let _ = b.params.pull(&mut b.state, Time::from_millis(50));
        // ...but a fresh packet with tiny sojourn resets it.
        b.params
            .offer(&mut b.state, pkt(1, 1_000), Time::from_millis(60));
        let r = b.params.pull(&mut b.state, Time::from_millis(61));
        assert!(r.dropped.is_empty());
        assert_eq!(r.serve.unwrap().packet.seq, 1);
        if let AqmState::CoDel(run) = &b.state.aqm {
            assert!(run.first_above.is_none());
            assert!(!run.dropping);
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "past capacity")]
    fn force_enqueue_checks_capacity() {
        let mut b = Buffer::drop_tail(Bits::new(1_000));
        b.params
            .force_enqueue(&mut b.state, pkt(0, 2_000), Time::ZERO);
    }
}
