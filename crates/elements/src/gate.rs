//! Connectivity gates and the EITHER combinator.
//!
//! * INTERMITTENT — "connects input and output only intermittently, and
//!   switches from connected to disconnected according to a memoryless
//!   process with particular interarrival time (mean-time-to-switch)"
//!   (§3.1). The memoryless process is realized as a per-epoch Bernoulli
//!   switch (geometric interarrival, the discrete-time memoryless law),
//!   with switch probability `1 − e^(−epoch/mtts)` — the probability that
//!   an exponential interarrival of mean `mtts` ends within one epoch —
//!   so the mean time to switch matches `mtts` as the epoch shrinks.
//!   Using a finite per-epoch choice lets ground truth (sampled) and
//!   belief branches (forked) share one mechanism.
//! * SQUAREWAVE — "regularly alternates between connected and
//!   disconnected with a certain period" (§3.1); deterministic.
//! * EITHER — "sends traffic either to one element or another, switching
//!   with a specified mean-time-to-switch" (§3.1); the same epoch
//!   mechanism, but it reroutes instead of dropping.
//!
//! Packets arriving at a disconnected gate are dropped (recorded as
//! `DropReason::GateClosed`).
//!
//! Split representation: [`GateParams`] / [`EitherParams`] carry the
//! switching law; [`GateState`] / [`EitherState`] carry the phase (current
//! position plus next decision instant).
//!
//! A memoryless switch whose every decision is known to be "hold" — a
//! planner rollout's nominal outcome — can be *disarmed*
//! ([`GateState::disarm`], [`EitherState::disarm`]): it keeps its position
//! and reports no timer from then on, which is the state an epoch timer
//! that only ever re-arms itself leaves behind, minus the events.

use augur_sim::{Dur, Ppm, Time};

/// How a gate decides to switch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Memoryless switching, discretized to epochs.
    Intermittent {
        /// Decision epoch length.
        epoch: Dur,
        /// Per-epoch switch probability (derived from mtts).
        p_switch: Ppm,
        /// The configured mean time to switch (kept for introspection).
        mtts: Dur,
    },
    /// Deterministic alternation every `half_period`.
    SquareWave {
        /// Time spent in each state.
        half_period: Dur,
    },
}

/// Immutable gate parameters: the switching law.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GateParams {
    /// Switching law.
    pub kind: GateKind,
}

/// Per-hypothesis gate phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateState {
    /// True iff input currently reaches output.
    pub connected: bool,
    /// Next switching decision instant.
    pub next_decision: Time,
}

/// Per-epoch switch probability for a memoryless process with mean time to
/// switch `mtts`, observed every `epoch`: `1 − e^(−epoch/mtts)`.
pub fn epoch_switch_prob(epoch: Dur, mtts: Dur) -> Ppm {
    assert!(mtts > Dur::ZERO, "mean time to switch must be positive");
    let x = epoch.as_micros() as f64 / mtts.as_micros() as f64;
    Ppm::from_prob(1.0 - (-x).exp())
}

impl GateParams {
    /// For INTERMITTENT: the per-epoch switch probability to hand to the
    /// choice mechanism. `None` for SQUAREWAVE (deterministic).
    pub fn switch_choice(&self) -> Option<Ppm> {
        match &self.kind {
            GateKind::Intermittent { p_switch, .. } => Some(*p_switch),
            GateKind::SquareWave { .. } => None,
        }
    }

    /// Apply a decision at `now`: flip if `switch`, then schedule the next
    /// decision.
    pub fn decide(&self, st: &mut GateState, switch: bool, now: Time) {
        debug_assert!(st.next_timer().is_some(), "decision on a disarmed gate");
        debug_assert!(now >= st.next_decision);
        if switch {
            st.connected = !st.connected;
        }
        let step = match &self.kind {
            GateKind::Intermittent { epoch, .. } => *epoch,
            GateKind::SquareWave { half_period } => *half_period,
        };
        st.next_decision += step;
    }
}

impl GateState {
    /// The next decision instant; `None` once disarmed.
    pub fn next_timer(&self) -> Option<Time> {
        (self.next_decision != Time::MAX).then_some(self.next_decision)
    }

    /// Hold the current position for good: no decision is ever due again.
    pub fn disarm(&mut self) {
        self.next_decision = Time::MAX;
    }
}

/// A connectivity gate (INTERMITTENT or SQUAREWAVE) as constructed:
/// [`GateParams`] with the initial [`GateState`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Gate {
    /// Immutable switching law.
    pub params: GateParams,
    /// Mutable phase.
    pub state: GateState,
}

impl Gate {
    /// An INTERMITTENT gate. First decision falls at the end of the first
    /// epoch.
    pub fn intermittent(mtts: Dur, epoch: Dur, initially_connected: bool) -> Gate {
        assert!(epoch > Dur::ZERO, "epoch must be positive");
        Gate {
            params: GateParams {
                kind: GateKind::Intermittent {
                    epoch,
                    p_switch: epoch_switch_prob(epoch, mtts),
                    mtts,
                },
            },
            state: GateState {
                connected: initially_connected,
                next_decision: Time::ZERO + epoch,
            },
        }
    }

    /// A SQUAREWAVE gate. First flip at `half_period`.
    pub fn square_wave(half_period: Dur, initially_connected: bool) -> Gate {
        assert!(half_period > Dur::ZERO, "half period must be positive");
        Gate {
            params: GateParams {
                kind: GateKind::SquareWave { half_period },
            },
            state: GateState {
                connected: initially_connected,
                next_decision: Time::ZERO + half_period,
            },
        }
    }
}

/// Immutable EITHER parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EitherParams {
    /// Decision epoch.
    pub epoch: Dur,
    /// Per-epoch switch probability.
    pub p_switch: Ppm,
}

/// Per-hypothesis EITHER phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EitherState {
    /// True iff currently routing to the secondary (`alt`) successor.
    pub on_alt: bool,
    /// Next decision instant.
    pub next_decision: Time,
}

impl EitherParams {
    /// Apply a decision at `now`.
    pub fn decide(&self, st: &mut EitherState, switch: bool, _now: Time) {
        debug_assert!(st.next_timer().is_some(), "decision on a disarmed EITHER");
        if switch {
            st.on_alt = !st.on_alt;
        }
        st.next_decision += self.epoch;
    }
}

impl EitherState {
    /// Next decision instant; `None` once disarmed.
    pub fn next_timer(&self) -> Option<Time> {
        (self.next_decision != Time::MAX).then_some(self.next_decision)
    }

    /// Hold the current route for good: no decision is ever due again.
    pub fn disarm(&mut self) {
        self.next_decision = Time::MAX;
    }
}

/// The EITHER combinator: routes to the primary successor normally, to the
/// secondary while switched, flipping memorylessly per epoch. As
/// constructed: [`EitherParams`] with the initial [`EitherState`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Either {
    /// Immutable configuration.
    pub params: EitherParams,
    /// Mutable phase.
    pub state: EitherState,
}

impl Either {
    /// An EITHER with mean time-to-switch `mtts`, decided every `epoch`.
    pub fn new(mtts: Dur, epoch: Dur, initially_alt: bool) -> Either {
        assert!(epoch > Dur::ZERO, "epoch must be positive");
        Either {
            params: EitherParams {
                epoch,
                p_switch: epoch_switch_prob(epoch, mtts),
            },
            state: EitherState {
                on_alt: initially_alt,
                next_decision: Time::ZERO + epoch,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_prob_matches_exponential_law() {
        // epoch = mtts → p = 1 - 1/e ≈ 0.6321
        let p = epoch_switch_prob(Dur::from_secs(100), Dur::from_secs(100));
        assert!((p.prob() - 0.632_12).abs() < 1e-3, "p = {p}");
        // epoch << mtts → p ≈ epoch/mtts
        let p = epoch_switch_prob(Dur::from_secs(1), Dur::from_secs(100));
        assert!((p.prob() - 0.00995).abs() < 1e-4, "p = {p}");
    }

    #[test]
    fn square_wave_flips_deterministically() {
        let mut g = Gate::square_wave(Dur::from_secs(100), true);
        assert!(g.state.connected);
        assert!(g.params.switch_choice().is_none());
        assert_eq!(g.state.next_timer(), Some(Time::from_secs(100)));
        g.params.decide(&mut g.state, true, Time::from_secs(100));
        assert!(!g.state.connected);
        assert_eq!(g.state.next_timer(), Some(Time::from_secs(200)));
        g.params.decide(&mut g.state, true, Time::from_secs(200));
        assert!(g.state.connected);
    }

    #[test]
    fn intermittent_exposes_choice() {
        let mut g = Gate::intermittent(Dur::from_secs(100), Dur::from_secs(1), true);
        let p = g.params.switch_choice().unwrap();
        assert!(p.prob() > 0.0 && p.prob() < 0.02);
        g.params.decide(&mut g.state, false, Time::from_secs(1));
        assert!(g.state.connected);
        assert_eq!(g.state.next_timer(), Some(Time::from_secs(2)));
        g.params.decide(&mut g.state, true, Time::from_secs(2));
        assert!(!g.state.connected);
    }

    #[test]
    fn either_switches_route() {
        let mut e = Either::new(Dur::from_secs(10), Dur::from_secs(1), false);
        assert!(!e.state.on_alt);
        e.params.decide(&mut e.state, true, Time::from_secs(1));
        assert!(e.state.on_alt);
        e.params.decide(&mut e.state, false, Time::from_secs(2));
        assert!(e.state.on_alt);
        assert_eq!(e.state.next_timer(), Some(Time::from_secs(3)));
    }
}
