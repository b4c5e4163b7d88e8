//! ISENDER — "a sender that follows our approach by maintaining a model of
//! the network and scheduling transmissions to maximize the expected
//! utility" (§3.1).
//!
//! The sender is event-driven: it wakes on each acknowledgment and on its
//! own timer ("if the RECEIVER notifies the ISENDER before x seconds have
//! passed …, the sender will be woken up early and will reevaluate the
//! best decision", §3.2). On every wake it
//!
//! 1. advances its belief over the window since the last wake,
//!    conditioning on the acknowledgments received;
//! 2. repeatedly asks the planner for the best action, transmitting while
//!    "send now" maximizes expected utility;
//! 3. returns the packets it sent plus the instant it wants to be woken
//!    if no acknowledgment arrives first.
//!
//! There is one sender, [`ISender<M, E>`], over whichever belief engine
//! `E` stands behind the [`Engine`] seam: the exact [`Belief`] (the
//! default, so `ISender<M>` names the paper's sender) or the
//! [`ParticleFilter`] ([`ParticleSender`]). The wake cycle is written once
//! and reaches the engine through `advance`, `inject` and — inside the
//! planner — `members`, so the policy cannot diverge between belief
//! representations. [`SenderAgent::on_wake`] plans every decision afresh;
//! [`crate::RestartingSender`] runs the same cycle with the memo it keeps
//! across restarts.

use crate::planner::{plan, Action, Decision, PlanMemo, PlannerConfig, RolloutCounts};
use crate::utility::Utility;
use augur_inference::{Belief, BeliefError, Engine, Observation, ParticleFilter};
use augur_obs::EventKind;
use augur_sim::{Bits, Dur, FlowId, Packet, Time};
use std::marker::PhantomData;

/// ISender tuning.
#[derive(Debug, Clone)]
pub struct ISenderConfig {
    /// Size of every packet the sender transmits ("we assume the sender
    /// will always send packets of uniform length", §3.2).
    pub packet_size: Bits,
    /// Planner settings.
    pub planner: PlannerConfig,
    /// Upper bound on how long the sender sleeps without reconsidering.
    pub max_sleep: Dur,
    /// Safety cap on transmissions per wake (guards against a degenerate
    /// utility that always prefers sending).
    pub max_sends_per_wake: usize,
}

impl Default for ISenderConfig {
    fn default() -> Self {
        ISenderConfig {
            packet_size: Bits::from_bytes(1_500),
            planner: PlannerConfig::default(),
            max_sleep: Dur::from_secs(2),
            max_sends_per_wake: 64,
        }
    }
}

/// What one wake produced.
#[derive(Debug, Clone)]
pub struct WakeOutcome {
    /// Packets transmitted at this instant (inject these into the real
    /// network).
    pub sent: Vec<Packet>,
    /// When to wake the sender if no acknowledgment arrives earlier.
    pub next_wake: Time,
    /// The final decision of the wake (diagnostics).
    pub decision: Decision,
}

impl WakeOutcome {
    /// An outcome that transmits nothing and carries a placeholder Idle
    /// decision: wake me at `next_wake` unless an acknowledgment arrives
    /// first. Used by agents without a planner (AIMD, TCP) and by
    /// restart paths; senders with packets combine it via
    /// `WakeOutcome { sent, ..WakeOutcome::idle(t) }`.
    pub fn idle(next_wake: Time) -> WakeOutcome {
        WakeOutcome {
            sent: Vec::new(),
            next_wake,
            decision: Decision {
                action: Action::Idle,
                expected_utility: 0.0,
                evaluations: Vec::new(),
                members: 0,
                rollouts: RolloutCounts::default(),
            },
        }
    }
}

/// The model-based sender over belief engine `E`.
pub struct ISender<M, E = Belief<M>> {
    /// The belief over network configurations (public for inspection by
    /// experiments and tests).
    pub belief: E,
    cfg: ISenderConfig,
    utility: Box<dyn Utility + Send>,
    next_seq: u64,
    /// Log of (seq, send time) for every transmitted packet.
    pub sent_log: Vec<(u64, Time)>,
    meta: PhantomData<fn() -> M>,
}

/// The ISender over a bootstrap particle filter instead of the exact
/// belief — the scalable engine the paper sketches in §3.2. Only the
/// belief update differs: particles are sampled trajectories that die on
/// observation mismatch rather than forked branches.
pub type ParticleSender<M> = ISender<M, ParticleFilter<M>>;

impl<M, E: Engine<Meta = M>> ISender<M, E> {
    /// Create a sender over a prior belief with the given utility.
    pub fn new(belief: E, utility: Box<dyn Utility + Send>, cfg: ISenderConfig) -> ISender<M, E> {
        ISender {
            belief,
            cfg,
            utility,
            next_seq: 0,
            sent_log: Vec::new(),
            meta: PhantomData,
        }
    }

    /// Sequence number of the next packet to transmit.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sender's configuration.
    pub fn config(&self) -> &ISenderConfig {
        &self.cfg
    }

    /// The sender's utility function (for inspection by experiments and
    /// tests — e.g. verifying a restart preserved the configured α).
    pub fn utility(&self) -> &dyn Utility {
        self.utility.as_ref()
    }

    /// Start over from `belief`, as a fresh sender would: sequence numbers
    /// count from zero again and the send log is emptied. The utility and
    /// the configuration are kept.
    pub fn restart(&mut self, belief: E) {
        self.belief = belief;
        self.next_seq = 0;
        self.sent_log.clear();
    }

    /// The wake cycle, written once: advance the belief over the window
    /// since the last wake (conditioning on `acks`), then transmit while
    /// the planner says "send now" (up to the per-wake cap), telling the
    /// belief about each transmission, and map the final action to the
    /// next timer. The planner serves every class of members `memo` holds
    /// and keeps there every class it rolls; each decision is the one
    /// [`decide`](crate::decide) returns for the same belief and packet.
    pub(crate) fn wake(
        &mut self,
        now: Time,
        acks: &[Observation],
        mut memo: Option<&mut PlanMemo>,
    ) -> Result<WakeOutcome, BeliefError> {
        self.belief.advance(now, acks)?;
        let (cfg, utility) = (&self.cfg, self.utility.as_ref());
        let (planner, size) = (&cfg.planner, cfg.packet_size);
        let mut sent = Vec::new();
        let decision = loop {
            let memo = memo.as_deref_mut();
            let d = plan(&self.belief, planner, utility, self.next_seq, size, memo);
            match d.action {
                Action::SendNow if sent.len() < cfg.max_sends_per_wake => {
                    let pkt = Packet::new(FlowId::SELF, self.next_seq, size, now);
                    self.belief.inject(pkt);
                    self.sent_log.push((self.next_seq, now));
                    self.next_seq += 1;
                    sent.push(pkt);
                }
                _ => break d,
            }
        };

        let (action, next_wake) = match decision.action {
            Action::SendNow => ("send-now", now + cfg.max_sleep), // send cap hit
            Action::SleepUntil(t) => ("sleep", t.min(now + cfg.max_sleep)),
            // No send looks profitable: wait for news (ACKs wake earlier).
            Action::Idle => ("idle", now + cfg.max_sleep),
        };
        // `evaluations` opens with the idle baseline, then the grid, whose
        // first delay is zero.
        augur_obs::emit(
            now,
            EventKind::Decision {
                flow: augur_obs::current_flow(),
                action,
                eu: decision.expected_utility,
                idle_eu: decision.evaluations[0].1,
                send_now_eu: decision.evaluations[1].1,
                members: decision.members,
                groups: decision.rollouts.groups,
                forks_run: decision.rollouts.forks_run,
                forks_idle: decision.rollouts.forks_idle,
                forks_shared: decision.rollouts.forks_shared,
            },
        );
        Ok(WakeOutcome {
            sent,
            next_wake,
            decision,
        })
    }
}

impl<M, E> std::fmt::Debug for ISender<M, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ISender")
            .field("next_seq", &self.next_seq)
            .field("sent", &self.sent_log.len())
            .finish()
    }
}

/// What the closed-loop harness needs from a model-based sender: the
/// wake-driven decision cycle, independent of the belief representation
/// (exact enumeration or particle filter). This is the dispatch point the
/// scenario subsystem uses to swap sender kinds without duplicating the
/// experiment loop.
pub trait SenderAgent {
    /// The sender's flow id (its packets and acknowledgments).
    fn own_flow(&self) -> FlowId;

    /// Wake at `now` with the acknowledgments received since the previous
    /// wake: update the belief, transmit while profitable, schedule the
    /// next timer.
    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError>;

    /// Current belief population (branches or particles) — diagnostics.
    fn population(&self) -> usize;

    /// Effective population (inverse Simpson index over weights).
    ///
    /// No workspace code outside tests calls this: traced runs log the
    /// effective population in `snapshot` events. It stays because the
    /// benchmark package's probe agents implement it.
    fn effective_population(&self) -> f64;
}

impl<M, E: Engine<Meta = M>> SenderAgent for ISender<M, E> {
    /// Every ISender believes it is [`FlowId::SELF`]: the driver owns wire
    /// identity.
    fn own_flow(&self) -> FlowId {
        FlowId::SELF
    }

    /// The wake cycle, every decision planned afresh.
    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        self.wake(now, acks, None)
    }

    fn population(&self) -> usize {
        self.belief.members().len()
    }

    fn effective_population(&self) -> f64 {
        self.belief.effective()
    }
}
