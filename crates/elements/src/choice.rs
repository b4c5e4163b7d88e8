//! Nondeterministic choice points.
//!
//! Every source of randomness in the element language — stochastic loss,
//! jitter, memoryless gate switching, link-layer ARQ, RED's drop decision —
//! is expressed as a **binary choice point** surfaced to the driver. The
//! ground-truth driver resolves choices by sampling with the seeded RNG;
//! the belief engine resolves them by *forking* the hypothesis, one
//! branch per option. The paper calls this forking: "when
//! LOSS receives a packet, it forks the model into a case where the packet
//! is lost and one where it is sent" (§3.2).
//!
//! Option `0` is always the *common* outcome (pass / stay / deliver /
//! enqueue) with probability `1 − p1`; option `1` is the *exceptional*
//! outcome (drop / switch / retransmit) with probability `p1`.

use crate::node::NodeId;
use augur_sim::{Packet, Ppm, Time};

/// What kind of decision a pending choice represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// A packet at a LOSS element: 0 = delivered onward, 1 = lost.
    LossFate,
    /// A packet at a JITTER element: 0 = passes untouched, 1 = delayed.
    JitterFate,
    /// An INTERMITTENT gate at an epoch boundary: 0 = stay, 1 = switch.
    GateSwitch,
    /// An EITHER combinator at an epoch boundary: 0 = stay, 1 = switch.
    EitherSwitch,
    /// A link-layer ARQ transmission attempt: 0 = delivered, 1 = retransmit.
    ArqFate,
    /// A RED queue admission: 0 = enqueue, 1 = early drop.
    RedFate,
}

/// A pending binary choice the driver must resolve before simulation can
/// continue. Fully integer-valued so networks holding one remain `Eq +
/// Hash` (weights are applied by the driver, not stored here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChoiceSpec {
    /// Virtual time at which the decision takes effect.
    pub at: Time,
    /// The node whose element raised the choice.
    pub node: NodeId,
    /// What is being decided.
    pub kind: ChoiceKind,
    /// Probability of option 1 (the exceptional outcome).
    pub p1: Ppm,
    /// The packet whose fate is being decided, when the decision concerns
    /// one (`LossFate`/`JitterFate`/`RedFate`); `None` for gate/ARQ
    /// decisions. The belief engine reads the flow and sequence number to
    /// fold last-mile loss analytically (the lost and the delivered branch
    /// reconverge, so only their weights are kept).
    pub packet: Option<Packet>,
}

impl ChoiceSpec {
    /// Probability of the given option.
    pub fn prob(&self, option: usize) -> f64 {
        match option {
            0 => self.p1.complement().prob(),
            1 => self.p1.prob(),
            _ => panic!("binary choice has no option {option}"),
        }
    }

    /// The options worth exploring: skips zero-probability branches, so a
    /// `Loss` with p = 0 or p = 1 never forks.
    pub fn live_options(&self) -> impl Iterator<Item = usize> + '_ {
        (0..2).filter(|&o| self.prob(o) > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(p1: Ppm) -> ChoiceSpec {
        ChoiceSpec {
            at: Time::ZERO,
            node: NodeId(0),
            kind: ChoiceKind::LossFate,
            p1,
            packet: None,
        }
    }

    #[test]
    fn probs_sum_to_one() {
        let s = spec(Ppm::from_prob(0.2));
        assert!((s.prob(0) + s.prob(1) - 1.0).abs() < 1e-12);
        assert!((s.prob(1) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn live_options_skips_impossible() {
        assert_eq!(spec(Ppm::ZERO).live_options().collect::<Vec<_>>(), [0]);
        assert_eq!(spec(Ppm::ONE).live_options().collect::<Vec<_>>(), [1]);
        assert_eq!(
            spec(Ppm::from_prob(0.5)).live_options().collect::<Vec<_>>(),
            [0, 1]
        );
    }

    #[test]
    #[should_panic(expected = "no option")]
    fn rejects_nonbinary_option() {
        let _ = spec(Ppm::ZERO).prob(2);
    }
}
