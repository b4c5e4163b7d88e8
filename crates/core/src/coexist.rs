//! Co-existing senders: the agents that share a bottleneck in the
//! multi-sender loop ([`crate::run_multi_agent`]) — the question §3.5
//! leaves open ("we have not yet experimented with any networks that
//! contain more than one ISENDER, or any network elements performing
//! TCP").
//!
//! # Misspecification and belief restarts
//!
//! An ISender models its competition as an isochronous PINGER. Another
//! *adaptive* sender is not isochronous, so sooner or later every
//! hypothesis mispredicts an acknowledgment time and the belief dies —
//! exactly the failure mode one expects from exact-time conditioning
//! under model misspecification. [`RestartingSender`] handles this with
//! a **restart protocol**:
//!
//! * start again from a clone of the prior the sender began with, with
//!   the *time origin shifted to the restart instant* — the unknown
//!   "initial fullness" grid then absorbs whatever is sitting in the real
//!   queue (including the sender's own still-unacknowledged packets);
//! * acknowledgments for pre-restart packets are ignored (the fresh
//!   belief knows nothing about them);
//! * the utility and the configuration are kept, so a restart preserves
//!   the configured α and latency penalty;
//! * restarts are counted and reported — they are a *result*, not noise:
//!   they measure how badly the pinger model fits an adaptive peer;
//! * a class of members planned before is served, not rolled again: a
//!   restarted belief starts from the same prior on a belief-relative
//!   clock, so it meets the networks of earlier ones again, whatever
//!   wakes led there. A member's utility row is a function of the
//!   decision instant, the packet's sequence number and the member's
//!   network alone, so the sender keeps every row its planner rolled in
//!   a memo ([`crate::planner`]'s `PlanMemo`), kept across restarts and
//!   handed to the wrapped sender's wake cycle. The memo files a row
//!   under the member's exact content — the decision instant, the
//!   sequence number, the structure allocation and the state's record —
//!   so a row is served only to a network equal to the one it was rolled
//!   for, and a class only when every member is found: each decision, its
//!   expected utilities and its rollout counts are bit for bit what
//!   planning afresh gives. The belief is still advanced and told of
//!   every send.

use crate::isender::SenderAgent;
use crate::planner::PlanMemo;
use crate::{ISender, ISenderConfig, Utility, WakeOutcome};
use augur_elements::{build_model, GateSpec, ModelParams, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF};
use augur_inference::prior::sharing_structures;
use augur_inference::{Belief, BeliefConfig, BeliefError, Hypothesis, Observation, Population};
use augur_sim::{BitRate, Bits, Dur, FlowId, Packet, Ppm, Time};

/// The prior an ISender holds about a shared link whose competition is
/// adaptive: link speed known-ish, competitor modeled as an always-on
/// pinger of unknown rate (including "absent"), queue fullness unknown.
///
/// The fullness varies innermost, so each cross fraction's hypotheses
/// share one structure ([`sharing_structures`]).
pub fn coexist_belief(link_bps: u64, buffer_bits: u64, max_branches: usize) -> Belief<ModelParams> {
    let fracs_ppm = [0u32, 125_000, 250_000, 375_000, 500_000, 625_000, 750_000];
    let hyps = fracs_ppm.into_iter().flat_map(move |frac_ppm| {
        (0..=(buffer_bits / 12_000)).map(move |fill_steps| {
            let params = ModelParams {
                link_rate: BitRate::from_bps(link_bps),
                cross_rate: BitRate::from_bps(
                    ((link_bps as u128 * frac_ppm as u128 / 1_000_000) as u64).max(1),
                ),
                gate: GateSpec::AlwaysOn,
                loss: Ppm::ZERO,
                buffer_capacity: Bits::new(buffer_bits),
                initial_fullness: Bits::new(fill_steps * 12_000),
                packet_size: Bits::from_bytes(1_500),
                cross_active: frac_ppm > 0,
            };
            Hypothesis {
                net: build_model(params),
                meta: params,
                weight: 1.0,
            }
        })
    });
    Belief::from_population(
        Population::new(sharing_structures(hyps), Some(FIG2_LOSS)),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        BeliefConfig {
            max_branches,
            ..BeliefConfig::default()
        },
    )
}

/// An ISender plus the restart machinery.
pub struct RestartingSender {
    inner: ISender<ModelParams>,
    /// The belief the sender began with, never advanced: every restart
    /// starts from a clone of it.
    prior: Belief<ModelParams>,
    /// Every row the planner has rolled, across restarts: a restarted
    /// belief meets the states of earlier ones again, and its times are
    /// belief-relative.
    memo: PlanMemo,
    /// Absolute time of the current belief's origin.
    t0: Time,
    /// First (absolute) sequence number the current belief knows about.
    base_seq: u64,
    /// Next absolute sequence number to transmit.
    next_abs_seq: u64,
    /// Number of belief restarts so far.
    pub restarts: usize,
    /// Packets transmitted so far, across restarts.
    pub sent: u64,
}

impl RestartingSender {
    /// Wrap a fresh sender over `prior`, which it keeps for its restarts.
    pub fn new(
        prior: Belief<ModelParams>,
        utility: Box<dyn Utility + Send>,
        cfg: ISenderConfig,
    ) -> RestartingSender {
        RestartingSender {
            inner: ISender::new(prior.clone(), utility, cfg),
            prior,
            memo: PlanMemo::default(),
            t0: Time::ZERO,
            base_seq: 0,
            next_abs_seq: 0,
            restarts: 0,
            sent: 0,
        }
    }

    /// Absolute time origin of the current belief.
    pub fn t0(&self) -> Time {
        self.t0
    }

    /// First absolute sequence number the current belief knows about.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The wrapped sender (for belief/utility inspection in tests and
    /// experiments).
    pub fn inner(&self) -> &ISender<ModelParams> {
        &self.inner
    }

    /// Wake with absolute-time acknowledgments; returns packets to inject
    /// (absolute seq applied; flow stamped by the caller) and the next
    /// wake time.
    pub fn wake(&mut self, now: Time, acks: &[Observation]) -> WakeOutcome {
        // Shift to belief-relative time; drop pre-restart ACKs.
        let rel_acks: Vec<Observation> = acks
            .iter()
            .filter(|o| o.seq >= self.base_seq)
            .map(|o| Observation {
                seq: o.seq - self.base_seq,
                at: o.at - self.t0.since(Time::ZERO),
            })
            .collect();
        let rel_now = now - self.t0.since(Time::ZERO);
        match self.inner.wake(rel_now, &rel_acks, Some(&mut self.memo)) {
            Ok(mut outcome) => {
                for pkt in &mut outcome.sent {
                    // Re-base to absolute identifiers for the caller.
                    *pkt = Packet::new(pkt.flow, pkt.seq + self.base_seq, pkt.size, now);
                }
                self.sent += outcome.sent.len() as u64;
                self.next_abs_seq = self.inner.next_seq() + self.base_seq;
                outcome.next_wake += self.t0.since(Time::ZERO);
                outcome
            }
            Err(_) => {
                // Misspecification caught us: restart from the prior with
                // the clock re-zeroed at `now`, keeping the utility.
                self.restarts += 1;
                self.t0 = now;
                self.base_seq = self.next_abs_seq;
                self.inner.restart(self.prior.clone());
                WakeOutcome::idle(now + Dur::from_millis(500))
            }
        }
    }
}

impl SenderAgent for RestartingSender {
    fn own_flow(&self) -> FlowId {
        self.inner.own_flow()
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        Ok(self.wake(now, acks))
    }

    fn population(&self) -> usize {
        self.inner.belief.branch_count()
    }

    fn effective_population(&self) -> f64 {
        self.inner.belief.effective_count()
    }
}

/// A compact AIMD window sender (TCP-like competitor): additive increase
/// per delivery, halve on an RTO-style gap. Window in packets,
/// ACK-clocked; wakes are event-driven — on each delivery, and at the
/// instant its gap detector would fire.
pub struct AimdSender {
    /// Congestion window (packets).
    pub window: f64,
    next_seq: u64,
    acked: u64,
    /// RTO-style gap detector.
    timeout: Dur,
    last_progress: Time,
    /// Size of every packet transmitted.
    packet_size: Bits,
    /// Packets transmitted so far, retransmissions included.
    pub sent: u64,
}

impl AimdSender {
    /// A fresh AIMD sender with the given RTO-like gap detector, sending
    /// 1500-byte packets.
    pub fn new(timeout: Dur) -> AimdSender {
        AimdSender {
            window: 1.0,
            next_seq: 0,
            acked: 0,
            timeout,
            last_progress: Time::ZERO,
            packet_size: Bits::from_bytes(1_500),
            sent: 0,
        }
    }

    /// Builder-style override of the wire packet size.
    pub fn with_packet_size(mut self, size: Bits) -> AimdSender {
        self.packet_size = size;
        self
    }

    /// Process deliveries of our flow; returns sequence numbers to send
    /// now.
    pub fn on_event(&mut self, now: Time, delivered: usize) -> Vec<u64> {
        if delivered > 0 {
            self.acked += delivered as u64;
            self.window += delivered as f64 / self.window.max(1.0);
            self.last_progress = now;
        } else if now.since(self.last_progress) >= self.timeout && self.next_seq > self.acked {
            // Gap: halve, retransmit-equivalent (we just resume from acked).
            self.window = (self.window / 2.0).max(1.0);
            self.next_seq = self.acked;
            self.last_progress = now;
        }
        let mut out = Vec::new();
        while self.next_seq < self.acked + self.window.floor() as u64 {
            out.push(self.next_seq);
            self.next_seq += 1;
        }
        self.sent += out.len() as u64;
        out
    }
}

impl SenderAgent for AimdSender {
    fn own_flow(&self) -> FlowId {
        FlowId::SELF
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let sent: Vec<Packet> = self
            .on_event(now, acks.len())
            .into_iter()
            .map(|seq| Packet::new(FlowId::SELF, seq, self.packet_size, now))
            .collect();
        // Event-driven timer: with packets outstanding the only scheduled
        // event is the gap detector firing (strictly in the future —
        // on_event just reset last_progress if it was due); otherwise
        // idle until an acknowledgment wakes us (with a periodic safety
        // check).
        let next_wake = if self.next_seq > self.acked {
            self.last_progress + self.timeout
        } else {
            now + self.timeout
        };
        Ok(WakeOutcome {
            sent,
            ..WakeOutcome::idle(next_wake)
        })
    }

    fn population(&self) -> usize {
        0
    }

    fn effective_population(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_many_flow_bottleneck, jain_index, run_multi_agent};
    use crate::{Action, DiscountedThroughput};

    const LINK_BPS: u64 = 24_000;
    const BUFFER_BITS: u64 = 96_000;

    fn utility(alpha: f64, latency_penalty: f64) -> Box<dyn Utility + Send> {
        let mut u = DiscountedThroughput::with_alpha(alpha);
        u.latency_penalty = latency_penalty;
        Box::new(u)
    }

    fn restarting(alpha: f64, latency_penalty: f64) -> RestartingSender {
        RestartingSender::new(
            coexist_belief(LINK_BPS, BUFFER_BITS, 50_000),
            utility(alpha, latency_penalty),
            ISenderConfig::default(),
        )
    }

    /// A single-hypothesis known-link belief: the planner transmits on
    /// the very first wake, which the rebase tests rely on.
    fn tiny_belief() -> Belief<ModelParams> {
        let params = ModelParams::simple_link(BitRate::from_bps(12_000), Bits::new(96_000));
        let net = build_model(params);
        let prior = vec![Hypothesis {
            net,
            meta: params,
            weight: 1.0,
        }];
        Belief::from_population(
            Population::new(prior, Some(FIG2_LOSS)),
            FIG2_ENTRY,
            FIG2_RX_SELF,
            BeliefConfig::default(),
        )
    }

    fn restarting_tiny(alpha: f64, latency_penalty: f64) -> RestartingSender {
        RestartingSender::new(
            tiny_belief(),
            utility(alpha, latency_penalty),
            ISenderConfig::default(),
        )
    }

    /// Wake the sender with an acknowledgment no hypothesis can explain,
    /// forcing the restart path.
    fn force_restart(s: &mut RestartingSender, now: Time) {
        let bogus = Observation {
            seq: s.base_seq() + 10_000,
            at: now,
        };
        let before = s.restarts;
        let _ = s.wake(now, &[bogus]);
        assert_eq!(s.restarts, before + 1, "bogus ack must kill the belief");
    }

    #[test]
    fn coexist_prior_keeps_one_structure_per_cross_fraction() {
        use augur_elements::Network;
        use augur_inference::Engine;
        use std::sync::Arc;
        let belief = coexist_belief(LINK_BPS, BUFFER_BITS, 50_000);
        // 7 cross fractions × 9 backlogs, the backlog state only.
        assert_eq!(belief.branch_count(), 7 * 9);
        let nets: Vec<Network> = belief.members().map(|m| m.net.to_network()).collect();
        let mut distinct: Vec<&Network> = Vec::new();
        for net in &nets {
            if !(distinct.iter()).any(|d| Arc::ptr_eq(d.shared_structure(), net.shared_structure()))
            {
                distinct.push(net);
            }
        }
        assert_eq!(distinct.len(), 7);
    }

    #[test]
    fn restart_starts_from_the_prior_it_began_with() {
        use augur_inference::Engine;
        use augur_sim::perf;
        // A belief's state count is what cloning it copies.
        let states = |b: &Belief<ModelParams>| {
            let before = perf::snapshot();
            drop(b.clone());
            perf::snapshot().since(&before).state_clones
        };
        let mut s = restarting(1.0, 0.0);
        let _ = s.wake(Time::ZERO, &[]);
        let _ = s.wake(Time::from_secs(1), &[]);
        assert_eq!(s.inner().belief.now(), Time::from_secs(1), "advanced");
        force_restart(&mut s, Time::from_secs(2));

        let fresh = coexist_belief(LINK_BPS, BUFFER_BITS, 50_000);
        let got = &s.inner().belief;
        assert_eq!(got.now(), fresh.now());
        assert_eq!(got.members().len(), fresh.members().len());
        for (i, (a, b)) in got.members().zip(fresh.members()).enumerate() {
            assert!(a.net == b.net, "member {i}: network");
            assert_eq!(a.meta, b.meta, "member {i}: meta");
            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "member {i}: weight");
        }
        assert_eq!(states(got), states(&fresh));
        assert_eq!(s.inner().next_seq(), 0, "sequence numbers count afresh");
        assert!(s.inner().sent_log.is_empty());
    }

    /// [`coexist_belief`]'s prior over three cross rates, each state
    /// under two fractional last-mile loss rates: the belief keeps the two
    /// members of a state on one network state under two structures, and
    /// one class rolls for both.
    fn sibling_belief() -> Belief<ModelParams> {
        let hyps = [0, 6_000, 12_000].into_iter().flat_map(|cross_bps: u64| {
            [50_000, 100_000].into_iter().flat_map(move |loss_ppm| {
                (0..=BUFFER_BITS / 12_000).map(move |fill_steps| {
                    let params = ModelParams {
                        link_rate: BitRate::from_bps(LINK_BPS),
                        cross_rate: BitRate::from_bps(cross_bps.max(1)),
                        gate: GateSpec::AlwaysOn,
                        loss: Ppm::new(loss_ppm),
                        buffer_capacity: Bits::new(BUFFER_BITS),
                        initial_fullness: Bits::new(fill_steps * 12_000),
                        packet_size: Bits::from_bytes(1_500),
                        cross_active: cross_bps > 0,
                    };
                    Hypothesis {
                        net: build_model(params),
                        meta: params,
                        weight: 1.0,
                    }
                })
            })
        });
        Belief::from_population(
            Population::new(sharing_structures(hyps), Some(FIG2_LOSS)),
            FIG2_ENTRY,
            FIG2_RX_SELF,
            BeliefConfig {
                max_branches: 50_000,
                ..BeliefConfig::default()
            },
        )
    }

    /// [`RestartingSender`]'s rebasing and restart around a wake loop of
    /// its own over [`crate::decide`]: it plans every decision of every
    /// wake afresh and shares no code with the sender under test.
    struct Replanning {
        belief: Belief<ModelParams>,
        prior: Belief<ModelParams>,
        utility: Box<dyn Utility + Send>,
        cfg: ISenderConfig,
        next_seq: u64,
        t0: Time,
        base_seq: u64,
    }

    impl Replanning {
        /// The wake and the classes its decisions rolled.
        fn wake(&mut self, now: Time, acks: &[Observation]) -> (WakeOutcome, usize) {
            let shift = self.t0.since(Time::ZERO);
            let rel_acks: Vec<Observation> = acks
                .iter()
                .filter(|o| o.seq >= self.base_seq)
                .map(|o| Observation {
                    seq: o.seq - self.base_seq,
                    at: o.at - shift,
                })
                .collect();
            let rel_now = now - shift;
            if self.belief.advance(rel_now, &rel_acks).is_err() {
                self.t0 = now;
                self.base_seq += self.next_seq;
                self.next_seq = 0;
                self.belief = self.prior.clone();
                return (WakeOutcome::idle(now + Dur::from_millis(500)), 0);
            }
            let (cfg, utility) = (&self.cfg, self.utility.as_ref());
            let (planner, size, own) = (&cfg.planner, cfg.packet_size, FlowId::SELF);
            let (mut sent, mut classes) = (Vec::new(), 0);
            let decision = loop {
                let seq = self.next_seq;
                let d = crate::decide(&self.belief, planner, utility, own, seq, size);
                classes += d.rollouts.groups;
                if d.action != Action::SendNow || sent.len() == cfg.max_sends_per_wake {
                    break d;
                }
                self.belief.inject(Packet::new(own, seq, size, rel_now));
                sent.push(Packet::new(own, seq + self.base_seq, size, now));
                self.next_seq += 1;
            };
            let next_wake = match decision.action {
                Action::SleepUntil(t) => t.min(rel_now + cfg.max_sleep),
                _ => rel_now + cfg.max_sleep,
            } + shift;
            let outcome = WakeOutcome {
                sent,
                next_wake,
                decision,
            };
            (outcome, classes)
        }
    }

    fn assert_same_outcome(at: &str, got: &WakeOutcome, want: &WakeOutcome) {
        assert_eq!(got.sent, want.sent, "{at}: sent");
        assert_eq!(got.next_wake, want.next_wake, "{at}: next wake");
        let (g, w) = (&got.decision, &want.decision);
        assert_eq!(g.action, w.action, "{at}: action");
        assert_eq!(
            g.expected_utility.to_bits(),
            w.expected_utility.to_bits(),
            "{at}: EU"
        );
        let bits = |d: &crate::Decision| -> Vec<(Option<Dur>, u64)> {
            d.evaluations
                .iter()
                .map(|&(delay, eu)| (delay, eu.to_bits()))
                .collect()
        };
        assert_eq!(bits(g), bits(w), "{at}: evaluations");
        assert_eq!(g.members, w.members, "{at}: members");
        assert_eq!(g.rollouts, w.rollouts, "{at}: rollouts");
    }

    #[test]
    fn remembered_classes_match_a_sender_that_replans() {
        use augur_inference::Engine;
        use augur_sim::{perf, SimRng};
        let prior = sibling_belief();
        // A lossless truth with no cross traffic over a queue `fill`
        // packets deep. Six packets drain in 3 s, so the sends of the
        // first wakes are acknowledged later than over an empty one.
        let truth = |fill: u64| {
            build_model(ModelParams {
                link_rate: BitRate::from_bps(LINK_BPS),
                cross_rate: BitRate::from_bps(1),
                gate: GateSpec::AlwaysOn,
                loss: Ppm::ZERO,
                buffer_capacity: Bits::new(BUFFER_BITS),
                initial_fullness: Bits::new(fill * 12_000),
                packet_size: Bits::from_bytes(1_500),
                cross_active: false,
            })
        };
        // Each history is a truth and the belief-relative wake instants
        // (ms) after a restart; a forced restart follows each. The second
        // repeats the first; the third repeats its first wakes, then its
        // acknowledgments differ at the same instants; the fourth repeats
        // a prefix, then wakes at an instant not seen before; the fifth
        // wakes once more, with no acknowledgment, on the first's path,
        // and the last repeats the first.
        let wakes: &[u64] = &[500, 1_000, 1_500, 2_000, 3_000, 4_000];
        let histories: [(u64, &[u64]); 6] = [
            (0, wakes),
            (0, wakes),
            (6, wakes),
            (0, &[500, 1_000, 1_250, 2_500]),
            (0, &[500, 750, 1_000, 1_500, 2_000, 3_000, 4_000]),
            (0, wakes),
        ];
        let mut s =
            RestartingSender::new(prior.clone(), utility(1.0, 0.0), ISenderConfig::default());
        let mut r = Replanning {
            belief: prior.clone(),
            prior: prior.clone(),
            utility: utility(1.0, 0.0),
            cfg: ISenderConfig::default(),
            next_seq: 0,
            t0: Time::ZERO,
            base_seq: 0,
        };
        // A rolled class clones its idle trajectory and one fork per
        // candidate; the belief's own work is the same for both senders.
        let per_class = 1 + ISenderConfig::default().planner.delay_grid.len() as u64;
        let work = |wake: &mut dyn FnMut() -> (WakeOutcome, usize)| {
            let before = perf::snapshot();
            let (outcome, classes) = wake();
            let spent = perf::snapshot().since(&before);
            (outcome, classes, spent.events_processed, spent.state_clones)
        };
        // Every surviving wake history seen since a restart, relative.
        let mut seen: Vec<Vec<(Time, Vec<Observation>)>> = Vec::new();
        // Classes served on wakes that repeat a history and on wakes that
        // do not, and the wakes that served some classes and rolled others.
        let (mut served_repeated, mut served_new, mut partial) = (0, 0, 0);
        for (h, &(fill, instants)) in histories.iter().enumerate() {
            let mut truth = truth(fill);
            let mut rng = SimRng::seed_from_u64(0);
            let mut path: Vec<(Time, Vec<Observation>)> = Vec::new();
            for &ms in instants {
                let at = format!("history {h}, {ms} ms");
                let rel_now = Time::from_millis(ms);
                truth.run_until_sampled(rel_now, &mut rng);
                let rel_acks: Vec<Observation> = truth
                    .take_deliveries()
                    .into_iter()
                    .filter(|(node, _)| *node == FIG2_RX_SELF)
                    .map(|(_, d)| Observation {
                        seq: d.packet.seq,
                        at: d.at,
                    })
                    .collect();
                let (t0, base) = (s.t0().since(Time::ZERO), s.base_seq());
                let now = rel_now + t0;
                let acks: Vec<Observation> = rel_acks
                    .iter()
                    .map(|o| Observation {
                        seq: o.seq + base,
                        at: o.at + t0,
                    })
                    .collect();
                path.push((rel_now, rel_acks));
                let repeated = seen.iter().any(|h| h.starts_with(&path));

                let (got, _, got_events, got_clones) = work(&mut || (s.wake(now, &acks), 0));
                let (want, classes, want_events, want_clones) = work(&mut || r.wake(now, &acks));
                assert_eq!(s.restarts, h, "{at}: the truth's belief survives");
                assert_same_outcome(&at, &got, &want);
                let (a, b) = (&s.inner().belief, &r.belief);
                assert_eq!(a.now(), b.now(), "{at}: belief instant");
                assert_eq!(a.members().len(), b.members().len(), "{at}: members");
                for (i, (x, y)) in a.members().zip(b.members()).enumerate() {
                    assert!(x.net == y.net, "{at}: member {i}: network");
                    assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{at}: member {i}");
                }
                let saved = want_clones - got_clones;
                assert_eq!(saved % per_class, 0, "{at}: a class is served whole");
                let served = (saved / per_class) as usize;
                if repeated {
                    // A wake history seen before finds every class.
                    assert_eq!(served, classes, "{at}: repeated");
                    served_repeated += served;
                } else {
                    served_new += served;
                }
                if served > 0 {
                    // The belief is still advanced, but a served class
                    // runs no rollout.
                    assert!(got_events < want_events, "{at}: served");
                    partial += usize::from(served < classes);
                } else {
                    assert_eq!(got_events, want_events, "{at}: planned afresh");
                }
                for pkt in &got.sent {
                    let seq = pkt.seq - base;
                    truth.inject(FIG2_ENTRY, Packet::new(pkt.flow, seq, pkt.size, rel_now));
                }
            }
            seen.push(path);

            let last = instants.last().expect("a history has wakes");
            let now = s.t0() + Dur::from_millis(last + 500);
            let bogus = [Observation {
                seq: s.base_seq() + 10_000,
                at: now,
            }];
            let got = s.wake(now, &bogus);
            assert_same_outcome(&format!("restart {h}"), &got, &r.wake(now, &bogus).0);
            assert_eq!(s.restarts, h + 1, "bogus ack must kill the belief");
            assert_eq!((s.t0(), s.base_seq()), (r.t0, r.base_seq));
        }
        // 395 classes served on repeated histories. 83 more on new ones,
        // which no path-keyed reuse reaches: the 81 of the fifth history
        // after its extra wake, which left the belief where the first's
        // was, and 2 of 23 at the third's first new wake.
        assert_eq!((served_repeated, served_new, partial), (395, 83, 1));
    }

    #[test]
    fn restart_rebases_time_and_sequence() {
        let mut s = restarting_tiny(1.0, 0.0);
        let o1 = s.wake(Time::ZERO, &[]);
        assert!(!o1.sent.is_empty(), "fresh sender should transmit");
        let sent_before = s.sent;
        assert_eq!(s.base_seq(), 0);
        assert_eq!(s.t0(), Time::ZERO);

        force_restart(&mut s, Time::from_secs(5));
        assert_eq!(s.t0(), Time::from_secs(5), "clock re-zeroed at restart");
        assert_eq!(
            s.base_seq(),
            sent_before,
            "fresh belief starts at the next unsent absolute seq"
        );

        // The next transmission must carry absolute sequence numbers on
        // top of the new base.
        let o2 = s.wake(Time::from_secs(6), &[]);
        for pkt in &o2.sent {
            assert!(pkt.seq >= sent_before, "absolute seq {} rebased", pkt.seq);
        }
        assert!(
            o2.next_wake > Time::from_secs(6),
            "next wake is absolute, not belief-relative"
        );
    }

    #[test]
    fn pre_restart_acks_are_ignored() {
        let mut s = restarting_tiny(1.0, 0.0);
        let o1 = s.wake(Time::ZERO, &[]);
        assert!(!o1.sent.is_empty());
        force_restart(&mut s, Time::from_secs(5));
        let restarts = s.restarts;

        // An acknowledgment for a pre-restart packet (seq < base_seq)
        // must be filtered out, not fed to the fresh belief — feeding it
        // would either corrupt the posterior or kill it again.
        let stale = Observation {
            seq: 0,
            at: Time::from_secs(5) + Dur::from_millis(100),
        };
        let _ = s.wake(Time::from_secs(5) + Dur::from_millis(200), &[stale]);
        assert_eq!(
            s.restarts, restarts,
            "a stale ack must not reach (and kill) the fresh belief"
        );
    }

    #[test]
    fn restart_preserves_the_configured_utility() {
        // α = 5 with a latency penalty: after a restart the kept utility
        // must behave identically to the configured one — the old harness
        // silently reset to α = 1, λ = 0.
        let mut s = restarting_tiny(5.0, 0.5);
        force_restart(&mut s, Time::from_secs(1));

        let mut want = DiscountedThroughput::with_alpha(5.0);
        want.latency_penalty = 0.5;
        let report = crate::RolloutReport {
            deliveries: vec![(
                augur_sim::Delivery {
                    packet: Packet::new(FlowId::CROSS, 0, Bits::new(12_000), Time::ZERO),
                    at: Time::from_millis(1_500),
                },
                1.0,
            )],
        };
        let discounts = [want.delivery_discount(Time::from_millis(1_500), Time::ZERO)];
        let got = s
            .inner()
            .utility()
            .evaluate(&report, &discounts, FlowId::SELF);
        let expect = want.evaluate(&report, &discounts, FlowId::SELF);
        assert!(
            (got - expect).abs() < 1e-9,
            "restarted utility {got} != configured {expect}"
        );
    }

    #[test]
    fn two_isenders_same_seed_identical_outcome() {
        // The §3.5 determinism contract: (bits_a, bits_b, restarts) is a
        // pure function of the seed, including the tie-break coin flips.
        let run = |seed: u64| {
            let mut truth = build_many_flow_bottleneck(
                BitRate::from_bps(LINK_BPS),
                Bits::new(BUFFER_BITS),
                Ppm::ZERO,
                2,
                seed,
            );
            let mut a = restarting(1.0, 0.0);
            let mut b = restarting(1.0, 0.0);
            let traces = run_multi_agent(&mut truth, &mut [&mut a, &mut b], Time::from_secs(40))
                .expect("restarting senders never propagate belief death");
            (
                traces[0].acks.clone(),
                traces[1].acks.clone(),
                a.restarts,
                b.restarts,
            )
        };
        assert_eq!(run(0xFA1), run(0xFA1), "same seed, same outcome");
        // And the seed genuinely steers the run.
        assert_ne!(run(1), run(2), "different seeds should diverge");
    }

    #[test]
    fn tail_deliveries_are_counted() {
        // One AIMD sender alone on the link: every injected packet that
        // the link serves by t_end must be counted, including those that
        // complete after the sender's last wake.
        let mut truth = build_many_flow_bottleneck(
            BitRate::from_bps(12_000),
            Bits::new(960_000),
            Ppm::ZERO,
            1,
            3,
        );
        let mut a = AimdSender::new(Dur::from_secs(100));
        // Window grows each ack; at 1 pkt/s service the queue stays busy,
        // so deliveries continue right up to t_end.
        let t_end = Time::from_secs(30);
        let traces = run_multi_agent(&mut truth, &mut [&mut a], t_end).unwrap();
        let last_ack = traces[0].acks.last().expect("deliveries happened").at;
        assert!(
            t_end.since(last_ack) <= Dur::from_secs(2),
            "tail drained: last delivery {last_ack} sits at the horizon"
        );
    }

    #[test]
    fn jain_of_symmetric_isenders_is_reasonable() {
        let mut truth = build_many_flow_bottleneck(
            BitRate::from_bps(LINK_BPS),
            Bits::new(BUFFER_BITS),
            Ppm::ZERO,
            2,
            0xFA1,
        );
        let mut a = restarting(1.0, 0.0);
        let mut b = restarting(1.0, 0.0);
        let t_end = Time::from_secs(60);
        let traces = run_multi_agent(&mut truth, &mut [&mut a, &mut b], t_end).unwrap();
        // Every packet of a restarting sender is 1500 bytes.
        let rate = |k: usize| traces[k].acks.len() as f64 * 12_000.0 / t_end.as_secs_f64();
        let (ra, rb) = (rate(0), rate(1));
        assert!(ra > 0.0 && rb > 0.0, "both flows progress: {ra} / {rb}");
        assert!(
            ra + rb <= LINK_BPS as f64 * 1.05,
            "link not overdriven: {}",
            ra + rb
        );
        assert!(
            jain_index(&[ra, rb]) >= 0.5,
            "gross unfairness: jain {}",
            jain_index(&[ra, rb])
        );
    }
}
