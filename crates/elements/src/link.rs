//! THROUGHPUT — "a throughput-limited link, operating at a particular
//! speed in bits per second" (§3.1) — generalized with two optional
//! features needed by the Figure-1 reproduction:
//!
//! * a **rate process**: the speed may follow a piecewise-constant,
//!   periodic schedule or a measured rate trace instead of being constant
//!   ("buffer sizes and throughputs can vary over time", §3.1), and
//!   service completion *integrates* the process across the serialization
//!   interval rather than freezing the departure-instant rate;
//! * **link-layer ARQ**: each completed transmission is lost with
//!   probability `arq_loss` and then *retransmitted* after
//!   `arq_retry_delay` rather than dropped — the "zealous" loss hiding of
//!   cellular networks (§1). Retransmission keeps the link busy, so
//!   subsequent packets suffer head-of-line blocking: exactly the
//!   mechanism behind the paper's 10-second LTE round-trip times.
//!
//! A link serves one packet at a time. If wired behind a
//! [`crate::buffer::Buffer`] it pulls its next packet from that buffer on
//! completion; a bare link keeps an internal unbounded FIFO instead.

use crate::node::NodeId;
use augur_sim::{BitRate, Bits, Dur, Packet, Ppm, Time};
use std::collections::VecDeque;

/// What a [`RateProcess::Trace`] does when simulated time runs past its
/// last sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEnd {
    /// Wrap around: the final sample's offset is the cycle length, so the
    /// trace repeats forever (its rate is never read — the cycle restarts
    /// with the first sample's rate the instant it is reached).
    Loop,
    /// Hold the final sample's rate forever.
    HoldLast,
}

impl TraceEnd {
    /// The stable spec-file token (`loop` / `hold-last`).
    pub fn label(self) -> &'static str {
        match self {
            TraceEnd::Loop => "loop",
            TraceEnd::HoldLast => "hold-last",
        }
    }
}

/// How the link's speed evolves over time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RateProcess {
    /// A constant rate: the paper's THROUGHPUT.
    Const(BitRate),
    /// A periodic piecewise-constant schedule: step `i` applies from its
    /// offset (within the period) until the next step's offset.
    Schedule {
        /// `(offset_within_period, rate)`, sorted by offset, first at zero.
        steps: Vec<(Dur, BitRate)>,
        /// Cycle length.
        period: Dur,
    },
    /// A measured (or synthesized) rate trace: sample `i` applies from
    /// its offset until the next sample's offset, and the [`TraceEnd`]
    /// policy decides what happens after the last sample. Unlike
    /// [`RateProcess::Schedule`] the samples are non-periodic and may be
    /// numerous, so [`RateProcess::rate_at`] binary-searches them.
    Trace {
        /// Where the samples came from (e.g. the CSV path as written in a
        /// spec file). Part of the process's identity, and the label
        /// sweep reports use.
        label: String,
        /// `(offset, rate)`, sorted by offset, first at zero.
        samples: Vec<(Dur, BitRate)>,
        /// Behavior past the last sample.
        end: TraceEnd,
    },
}

impl RateProcess {
    /// The rate in effect at instant `t`.
    pub fn rate_at(&self, t: Time) -> BitRate {
        match self {
            RateProcess::Const(r) => *r,
            RateProcess::Schedule { steps, period } => {
                let phase = Dur::from_micros(t.as_micros() % period.as_micros());
                let mut current = steps[0].1;
                for &(off, r) in steps {
                    if off <= phase {
                        current = r;
                    } else {
                        break;
                    }
                }
                current
            }
            RateProcess::Trace { samples, end, .. } => {
                let phase = match end {
                    TraceEnd::HoldLast => t.as_micros(),
                    // Cycle length is the last sample's offset (validated
                    // positive), so phase < cycle and the last sample
                    // never matches — it only marks the wrap point.
                    TraceEnd::Loop => {
                        t.as_micros() % samples.last().expect("validated non-empty").0.as_micros()
                    }
                };
                let idx = samples.partition_point(|(off, _)| off.as_micros() <= phase);
                samples[idx - 1].1
            }
        }
    }

    /// The next instant strictly after `t` at which the rate may change,
    /// or `None` if it is constant from `t` on.
    fn next_change(&self, t: Time) -> Option<Time> {
        match self {
            RateProcess::Const(_) => None,
            RateProcess::Schedule { steps, period } => {
                let phase = t.as_micros() % period.as_micros();
                let next_off = steps
                    .iter()
                    .map(|(off, _)| off.as_micros())
                    .find(|&off| off > phase)
                    .unwrap_or(period.as_micros());
                Some(Time::from_micros(t.as_micros() - phase + next_off))
            }
            RateProcess::Trace { samples, end, .. } => {
                let last = samples.last().expect("validated non-empty").0.as_micros();
                let phase = match end {
                    TraceEnd::HoldLast if t.as_micros() >= last => return None,
                    TraceEnd::HoldLast => t.as_micros(),
                    TraceEnd::Loop => t.as_micros() % last,
                };
                let idx = samples.partition_point(|(off, _)| off.as_micros() <= phase);
                Some(Time::from_micros(
                    t.as_micros() - phase + samples[idx].0.as_micros(),
                ))
            }
        }
    }

    /// The cycle length and the exact supply (in bit-microseconds) one
    /// full cycle delivers, for the periodic processes. Periodicity means
    /// the supply over `[t, t + cycle)` is the same from *any* `t`, which
    /// lets [`RateProcess::service_end`] skip whole cycles in O(1).
    fn cycle_supply(&self) -> Option<(u64, u128)> {
        let supply_of = |points: &[(Dur, BitRate)], cycle: u64| -> u128 {
            let mut supply = 0u128;
            for (i, &(off, rate)) in points.iter().enumerate() {
                let next = points
                    .get(i + 1)
                    .map(|&(o, _)| o.as_micros())
                    .unwrap_or(cycle);
                supply += rate.as_bps() as u128 * (next - off.as_micros()) as u128;
            }
            supply
        };
        match self {
            RateProcess::Const(_) => None,
            RateProcess::Schedule { steps, period } => {
                let cycle = period.as_micros();
                Some((cycle, supply_of(steps, cycle)))
            }
            RateProcess::Trace { samples, end, .. } => match end {
                TraceEnd::HoldLast => None,
                TraceEnd::Loop => {
                    let cycle = samples.last().expect("validated non-empty").0.as_micros();
                    // The last sample only marks the wrap, so it
                    // contributes no segment.
                    Some((cycle, supply_of(&samples[..samples.len() - 1], cycle)))
                }
            },
        }
    }

    /// The instant at which `bits` finish serializing when transmission
    /// begins at `start`, *integrating* the rate process across the whole
    /// service interval: a packet that spans a rate change takes the
    /// piecewise-exact time, not `bits / rate_at(start)`. Accounting is
    /// in integer bit-microseconds, so no precision is lost at segment
    /// boundaries, and the final partial segment rounds up to a whole
    /// microsecond exactly like [`BitRate::service_time`].
    pub fn service_end(&self, start: Time, bits: Bits) -> Time {
        augur_sim::perf::count_rate_integration();
        // A constant rate is one division, the walk's own last step —
        // unless bits × 10⁶ overflows u64; the walk counts in u128.
        if let RateProcess::Const(rate) = self {
            if let Some(needed) = bits.as_u64().checked_mul(1_000_000) {
                return start + Dur::from_micros(needed.div_ceil(rate.as_bps()));
            }
        }
        // Bit-microseconds still owed: bits × 1e6 / rate µs remain.
        let mut needed = bits.as_u64() as u128 * 1_000_000;
        let mut t = start;
        // The common case — the packet drains inside its first segment —
        // must stay one rate lookup, so whole-cycle fast-forwarding only
        // engages after the first boundary crossing (and at most once:
        // after it, less than one cycle of segments remains to walk).
        let mut crossed = false;
        loop {
            let rate = self.rate_at(t).as_bps() as u128;
            match self.next_change(t) {
                Some(boundary) => {
                    let supply = rate * (boundary.as_micros() - t.as_micros()) as u128;
                    if supply >= needed {
                        let us = needed.div_ceil(rate);
                        return t + Dur::from_micros(u64::try_from(us).expect("service end fits"));
                    }
                    needed -= supply;
                    t = boundary;
                }
                None => {
                    let us = needed.div_ceil(rate);
                    return t + Dur::from_micros(u64::try_from(us).expect("service end fits"));
                }
            }
            if !crossed {
                crossed = true;
                // Fast-forward whole cycles so a slow packet over a short
                // period costs O(steps), not O(cycles crossed) — a valid
                // spec with a microsecond-scale period must not hang.
                if let Some((cycle, supply)) = self.cycle_supply() {
                    if needed >= supply {
                        let k = needed / supply;
                        needed -= k * supply;
                        let skip = cycle as u128 * k;
                        t += Dur::from_micros(u64::try_from(skip).expect("service end fits"));
                        if needed == 0 {
                            // Supply is continuous and strictly
                            // increasing, so landing exactly on a cycle's
                            // worth finishes exactly at its boundary.
                            return t;
                        }
                    }
                }
            }
        }
    }

    /// Check invariants, naming the first violation. Config decoding
    /// surfaces these as positioned spec-file errors; [`Link::new`] (via
    /// [`RateProcess::validate`]) keeps them as a run-time backstop.
    pub fn check(&self) -> Result<(), String> {
        let piecewise = |what: &str, points: &[(Dur, BitRate)]| -> Result<(), String> {
            if points.is_empty() {
                return Err(format!("rate {what} must have at least one entry"));
            }
            if points[0].0 != Dur::ZERO {
                return Err(format!("the first rate {what} entry must be at offset 0"));
            }
            if !points.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("rate {what} offsets must be strictly increasing"));
            }
            Ok(())
        };
        match self {
            RateProcess::Const(_) => Ok(()),
            RateProcess::Schedule { steps, period } => {
                piecewise("schedule", steps)?;
                if *period == Dur::ZERO {
                    return Err("rate schedule period must be positive".into());
                }
                if steps.last().unwrap().0 >= *period {
                    return Err(format!(
                        "rate schedule offset {} does not fit in the period {}",
                        steps.last().unwrap().0,
                        period
                    ));
                }
                Ok(())
            }
            RateProcess::Trace { samples, end, .. } => {
                piecewise("trace", samples)?;
                if *end == TraceEnd::Loop && samples.len() < 2 {
                    return Err(
                        "a looping rate trace needs at least two samples (the last marks the \
                         cycle length)"
                            .into(),
                    );
                }
                Ok(())
            }
        }
    }

    /// Validate invariants (builder calls this).
    ///
    /// # Panics
    /// Panics on the first violated invariant (see [`RateProcess::check`]).
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

/// Immutable link parameters: the rate process, ARQ configuration, and
/// the upstream feed wiring.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkParams {
    /// Speed over time.
    pub rate: RateProcess,
    /// Per-transmission loss hidden by link-layer ARQ (0 disables ARQ).
    pub arq_loss: Ppm,
    /// Extra delay before a retransmission begins serializing.
    pub arq_retry_delay: Dur,
    /// Upstream buffer to pull from on completion (wired by the builder).
    pub feed: Option<NodeId>,
}

/// Per-hypothesis mutable link state.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct LinkState {
    /// Packet currently being serialized.
    pub in_service: Option<Packet>,
    /// When the current serialization finishes.
    pub busy_until: Time,
    /// Internal unbounded FIFO, used only when the params' `feed` is `None`.
    pub backlog: VecDeque<Packet>,
}

impl Clone for LinkState {
    fn clone(&self) -> LinkState {
        LinkState {
            in_service: self.in_service,
            busy_until: self.busy_until,
            backlog: self.backlog.clone(),
        }
    }

    /// Refill in place, keeping the backlog's allocation.
    fn clone_from(&mut self, source: &LinkState) {
        let LinkState {
            in_service,
            busy_until,
            backlog,
        } = source;
        self.in_service = *in_service;
        self.busy_until = *busy_until;
        self.backlog.clone_from(backlog);
    }
}

impl LinkParams {
    /// Fresh (idle) state.
    pub fn initial_state(&self) -> LinkState {
        LinkState {
            in_service: None,
            busy_until: Time::ZERO,
            backlog: VecDeque::new(),
        }
    }

    /// Begin serializing `pkt` at `now`. Completion integrates the rate
    /// process across the service interval ([`RateProcess::service_end`]):
    /// a packet that starts just before a fade finishes at the faded
    /// pace, not frozen at the departure-instant rate.
    ///
    /// # Panics
    /// Panics if the link is already busy.
    pub fn start_service(&self, st: &mut LinkState, pkt: Packet, now: Time) {
        assert!(st.idle(), "start_service on busy link");
        st.busy_until = self.rate.service_end(now, pkt.size);
        st.in_service = Some(pkt);
    }

    /// Begin a retransmission of the current packet at `now` (ARQ). The
    /// retry serializes starting after `arq_retry_delay`, at whatever the
    /// rate process does from *that* instant on.
    pub fn start_retransmission(&self, st: &mut LinkState, now: Time) {
        let pkt = st
            .in_service
            .expect("retransmission with nothing in service");
        st.busy_until = self.rate.service_end(now + self.arq_retry_delay, pkt.size);
    }
}

impl LinkState {
    /// Is the link free to accept a packet right now?
    pub fn idle(&self) -> bool {
        self.in_service.is_none()
    }

    /// Take the completed packet out of service.
    ///
    /// # Panics
    /// Panics if nothing is in service.
    pub fn complete(&mut self) -> Packet {
        self.in_service.take().expect("complete on idle link")
    }

    /// The link's next timer: its completion instant, if busy.
    pub fn next_timer(&self) -> Option<Time> {
        self.in_service.map(|_| self.busy_until)
    }
}

/// A throughput-limited link as constructed: [`LinkParams`] with an idle
/// [`LinkState`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Link {
    /// Immutable configuration.
    pub params: LinkParams,
    /// Mutable service state.
    pub state: LinkState,
}

impl Link {
    /// A constant-rate link with no ARQ.
    pub fn constant(rate: BitRate) -> Link {
        Link::new(RateProcess::Const(rate), Ppm::ZERO, Dur::ZERO)
    }

    /// A fully-specified link.
    pub fn new(rate: RateProcess, arq_loss: Ppm, arq_retry_delay: Dur) -> Link {
        rate.validate();
        assert!(!arq_loss.is_one(), "ARQ with loss 1.0 never delivers");
        let params = LinkParams {
            rate,
            arq_loss,
            arq_retry_delay,
            feed: None,
        };
        let state = params.initial_state();
        Link { params, state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::FlowId;

    fn pkt(bits: u64) -> Packet {
        Packet::new(FlowId::SELF, 0, Bits::new(bits), Time::ZERO)
    }

    #[test]
    fn constant_rate_service() {
        let mut l = Link::constant(BitRate::from_bps(12_000));
        assert!(l.state.idle());
        l.params
            .start_service(&mut l.state, pkt(12_000), Time::from_secs(5));
        assert!(!l.state.idle());
        assert_eq!(l.state.next_timer(), Some(Time::from_secs(6)));
        let p = l.state.complete();
        assert_eq!(p.size, Bits::new(12_000));
        assert!(l.state.idle());
    }

    #[test]
    #[should_panic(expected = "busy link")]
    fn double_start_panics() {
        let mut l = Link::constant(BitRate::from_bps(1_000));
        l.params.start_service(&mut l.state, pkt(100), Time::ZERO);
        l.params.start_service(&mut l.state, pkt(100), Time::ZERO);
    }

    #[test]
    fn schedule_rate_lookup() {
        let rp = RateProcess::Schedule {
            steps: vec![
                (Dur::ZERO, BitRate::from_kbps(100)),
                (Dur::from_secs(10), BitRate::from_kbps(25)),
            ],
            period: Dur::from_secs(20),
        };
        rp.validate();
        assert_eq!(rp.rate_at(Time::from_secs(0)), BitRate::from_kbps(100));
        assert_eq!(rp.rate_at(Time::from_secs(9)), BitRate::from_kbps(100));
        assert_eq!(rp.rate_at(Time::from_secs(10)), BitRate::from_kbps(25));
        assert_eq!(rp.rate_at(Time::from_secs(19)), BitRate::from_kbps(25));
        // Periodic wraparound.
        assert_eq!(rp.rate_at(Time::from_secs(20)), BitRate::from_kbps(100));
        assert_eq!(rp.rate_at(Time::from_secs(31)), BitRate::from_kbps(25));
    }

    #[test]
    fn retransmission_extends_busy_time() {
        let mut l = Link::new(
            RateProcess::Const(BitRate::from_bps(12_000)),
            Ppm::from_prob(0.5),
            Dur::from_millis(50),
        );
        l.params
            .start_service(&mut l.state, pkt(12_000), Time::ZERO);
        assert_eq!(l.state.busy_until, Time::from_secs(1));
        // Simulate ARQ failure at completion: retransmit.
        l.params
            .start_retransmission(&mut l.state, Time::from_secs(1));
        assert_eq!(l.state.busy_until, Time::from_micros(2_050_000));
        assert!(l.state.in_service.is_some());
    }

    #[test]
    #[should_panic(expected = "never delivers")]
    fn arq_loss_one_rejected() {
        let _ = Link::new(
            RateProcess::Const(BitRate::from_bps(1)),
            Ppm::ONE,
            Dur::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "must be at offset 0")]
    fn schedule_must_start_at_zero() {
        RateProcess::Schedule {
            steps: vec![(Dur::from_secs(1), BitRate::from_bps(1))],
            period: Dur::from_secs(10),
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn schedule_zero_period_rejected() {
        RateProcess::Schedule {
            steps: vec![(Dur::ZERO, BitRate::from_bps(1))],
            period: Dur::ZERO,
        }
        .validate();
    }

    fn two_rate_trace(end: TraceEnd) -> RateProcess {
        RateProcess::Trace {
            label: "test".into(),
            samples: vec![
                (Dur::ZERO, BitRate::from_bps(1_000)),
                (Dur::from_secs(1), BitRate::from_bps(2_000)),
                (Dur::from_secs(2), BitRate::from_bps(1_000)),
            ],
            end,
        }
    }

    #[test]
    fn trace_rate_lookup_hold_last() {
        let rp = two_rate_trace(TraceEnd::HoldLast);
        rp.validate();
        assert_eq!(rp.rate_at(Time::ZERO), BitRate::from_bps(1_000));
        assert_eq!(rp.rate_at(Time::from_millis(999)), BitRate::from_bps(1_000));
        assert_eq!(rp.rate_at(Time::from_secs(1)), BitRate::from_bps(2_000));
        // Past the final sample the last rate holds forever.
        assert_eq!(rp.rate_at(Time::from_secs(2)), BitRate::from_bps(1_000));
        assert_eq!(rp.rate_at(Time::from_secs(500)), BitRate::from_bps(1_000));
    }

    #[test]
    fn trace_rate_lookup_loops() {
        let rp = two_rate_trace(TraceEnd::Loop);
        rp.validate();
        // Cycle length is the last offset (2 s): [0,1) slow, [1,2) fast.
        assert_eq!(rp.rate_at(Time::from_millis(500)), BitRate::from_bps(1_000));
        assert_eq!(
            rp.rate_at(Time::from_millis(1_500)),
            BitRate::from_bps(2_000)
        );
        // Wraparound: t = 2 s is phase 0 again, and so on forever.
        assert_eq!(rp.rate_at(Time::from_secs(2)), BitRate::from_bps(1_000));
        assert_eq!(
            rp.rate_at(Time::from_millis(3_500)),
            BitRate::from_bps(2_000)
        );
        assert_eq!(rp.rate_at(Time::from_secs(1_000)), BitRate::from_bps(1_000));
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn looping_single_sample_trace_rejected() {
        RateProcess::Trace {
            label: "test".into(),
            samples: vec![(Dur::ZERO, BitRate::from_bps(1))],
            end: TraceEnd::Loop,
        }
        .validate();
    }

    /// The frozen-rate regression (the bug this PR fixes): a packet that
    /// begins serializing just before a fade must finish at the faded
    /// pace. 24_000 bits from t = 0 under a 12 kbit/s → 1 kbit/s step at
    /// t = 1 s: the first second drains 12_000 bits, the remaining
    /// 12_000 take 12 s at the slow rate — completion at exactly 13 s,
    /// not the 2 s the departure-instant rate would predict.
    #[test]
    fn serialization_spanning_a_step_integrates_the_rate() {
        let rp = RateProcess::Schedule {
            steps: vec![
                (Dur::ZERO, BitRate::from_bps(12_000)),
                (Dur::from_secs(1), BitRate::from_bps(1_000)),
            ],
            period: Dur::from_secs(1_000),
        };
        let mut l = Link::new(rp, Ppm::ZERO, Dur::ZERO);
        l.params
            .start_service(&mut l.state, pkt(24_000), Time::ZERO);
        assert_eq!(l.state.busy_until, Time::from_secs(13));
        // Mid-segment start: 0.5 s at 12 kbit/s (6_000 bits), then
        // 6_000 bits at 1 kbit/s (6 s) — done at 7 s.
        let mut l2 = Link::new(
            RateProcess::Schedule {
                steps: vec![
                    (Dur::ZERO, BitRate::from_bps(12_000)),
                    (Dur::from_secs(1), BitRate::from_bps(1_000)),
                ],
                period: Dur::from_secs(1_000),
            },
            Ppm::ZERO,
            Dur::ZERO,
        );
        l2.params
            .start_service(&mut l2.state, pkt(12_000), Time::from_millis(500));
        assert_eq!(l2.state.busy_until, Time::from_secs(7));
    }

    /// Integration across a loop wraparound: 3_000 bits starting at
    /// t = 1.5 s over the [1 kbit/s, 2 kbit/s] 2-second cycle — 1_000
    /// bits by 2 s, 1_000 more by 3 s, the last 1_000 at 2 kbit/s by
    /// 3.5 s.
    #[test]
    fn service_end_spans_a_loop_wrap() {
        let rp = two_rate_trace(TraceEnd::Loop);
        assert_eq!(
            rp.service_end(Time::from_millis(1_500), Bits::new(3_000)),
            Time::from_millis(3_500)
        );
        // Const-equivalence sanity: a flat stretch matches service_time.
        assert_eq!(
            rp.service_end(Time::ZERO, Bits::new(500)),
            Time::from_millis(500)
        );
    }

    /// A microsecond-scale period crossed millions of times must resolve
    /// through the whole-cycle fast path, not a per-boundary walk (a
    /// valid spec with a tiny `period_s` would otherwise hang the run).
    #[test]
    fn service_end_is_fast_over_microsecond_periods() {
        let rp = RateProcess::Schedule {
            steps: vec![(Dur::ZERO, BitRate::from_bps(1_000))],
            period: Dur::from_micros(1),
        };
        rp.validate();
        assert_eq!(
            rp.service_end(Time::ZERO, Bits::new(12_000)),
            Time::from_secs(12)
        );
        // Two-step 2 µs cycle averaging 2 kbit/s: 12_000 bits in 6 s,
        // landing exactly on a cycle boundary — and phase-shifted starts
        // shift the completion by exactly the shift (periodicity).
        let rp2 = RateProcess::Schedule {
            steps: vec![
                (Dur::ZERO, BitRate::from_bps(1_000)),
                (Dur::from_micros(1), BitRate::from_bps(3_000)),
            ],
            period: Dur::from_micros(2),
        };
        rp2.validate();
        assert_eq!(
            rp2.service_end(Time::ZERO, Bits::new(12_000)),
            Time::from_secs(6)
        );
        assert_eq!(
            rp2.service_end(Time::from_micros(1), Bits::new(12_000)),
            Time::from_micros(6_000_001)
        );
    }

    /// `Const(r)` takes one division unless bits × 10⁶ overflows u64; a
    /// one-step `Schedule` of the same rate takes the general walk,
    /// boundary crossings and whole-cycle skips included. Both must give
    /// the same instant, on both sides of the overflow and up to sizes
    /// near `u64::MAX`.
    #[test]
    fn a_constant_rate_matches_a_one_step_schedule() {
        use augur_sim::SimRng;
        let seed = 0xC0_57;
        let mut rng = SimRng::seed_from_u64(seed);
        let last_fit = u64::MAX / 1_000_000;
        for case in 0..512 {
            let bits = match case % 4 {
                0 => rng.uniform_u64(1, 1_000_000),
                1 => rng.uniform_u64(1, last_fit),
                2 => rng.uniform_u64(last_fit - 1_000, last_fit + 1_000),
                _ => rng.uniform_u64(u64::MAX - 1_000_000, u64::MAX),
            };
            // The slowest rate that keeps the end under 2⁶¹ µs.
            let slowest = (u128::from(bits) * 1_000_000).div_ceil(1 << 60);
            let rate = BitRate::from_bps(rng.uniform_u64(slowest.max(1) as u64, u64::MAX));
            let start = Time::from_micros(rng.uniform_u64(0, 1 << 60));
            let schedule = RateProcess::Schedule {
                steps: vec![(Dur::ZERO, rate)],
                period: Dur::from_micros(rng.uniform_u64(1, 1_000_000_000)),
            };
            let bits = Bits::new(bits);
            assert_eq!(
                RateProcess::Const(rate).service_end(start, bits),
                schedule.service_end(start, bits),
                "seed {seed:#x} case {case}: {bits} at {rate} from {start}"
            );
        }
    }

    /// The retransmission variant of the frozen-rate bug: the retry's
    /// serialization starts after the ARQ delay, and must integrate the
    /// rate from that instant — here the delay pushes it across the fade.
    #[test]
    fn retransmission_integrates_past_the_step() {
        let rp = RateProcess::Schedule {
            steps: vec![
                (Dur::ZERO, BitRate::from_bps(12_000)),
                (Dur::from_secs(1), BitRate::from_bps(1_000)),
            ],
            period: Dur::from_secs(1_000),
        };
        // 100 ms retry delay: a failure at 0.9 s retries at 1.0 s, wholly
        // inside the slow segment — 12_000 bits take 12 s, ending at 13 s.
        let mut l = Link::new(rp, Ppm::from_prob(0.5), Dur::from_millis(100));
        l.params
            .start_service(&mut l.state, pkt(12_000), Time::ZERO);
        assert_eq!(l.state.busy_until, Time::from_secs(1));
        l.params
            .start_retransmission(&mut l.state, Time::from_millis(900));
        assert_eq!(l.state.busy_until, Time::from_secs(13));
    }
}
