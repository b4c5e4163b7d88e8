//! The structured event vocabulary and its canonical JSONL form.
//!
//! Every [`EventRecord`] is a sim-time-stamped fact about the *ground
//! truth* run: what the flow driver dispatched, what the real network
//! did to real packets, and what the sender's belief concluded from it.
//! The vocabulary is deliberately small and flat — raw wire identities
//! (`u32` node ids, [`FlowId`] flows, `u64` sequence numbers) so the
//! crate stays dependency-free below `augur-sim`.
//!
//! `augur-lint` rule C031 keeps this vocabulary honest: every
//! [`EventKind`] variant must have at least one production emission site
//! outside `crates/obs`, so dead event kinds cannot accumulate.

use augur_sim::canon::{json_num, json_string};
use augur_sim::{FlowId, Time};
use std::fmt::Write as _;

/// Why the network dropped a packet — the wire-format mirror of
/// `augur_elements::DropReason` (this crate sits below `augur-elements`,
/// so the emission hook maps between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// A finite buffer overflowed.
    BufferFull,
    /// A gate element was closed.
    GateClosed,
    /// A stochastic LOSS element fired.
    Stochastic,
    /// An active queue (RED/CoDel) elected to drop.
    Aqm,
}

impl DropKind {
    /// The stable JSONL token.
    pub fn label(self) -> &'static str {
        match self {
            DropKind::BufferFull => "buffer-full",
            DropKind::GateClosed => "gate-closed",
            DropKind::Stochastic => "stochastic",
            DropKind::Aqm => "aqm",
        }
    }

    /// Parse a JSONL token back into a kind.
    pub fn parse(s: &str) -> Option<DropKind> {
        Some(match s {
            "buffer-full" => DropKind::BufferFull,
            "gate-closed" => DropKind::GateClosed,
            "stochastic" => DropKind::Stochastic,
            "aqm" => DropKind::Aqm,
            _ => return None,
        })
    }
}

/// One kind of structured event. See the emission sites: the flow
/// driver (`wake`), the element network (`fire` / `deliver` / `enqueue`
/// / `drop`), the belief engines (`belief-update` / `resample` /
/// `snapshot`), and the model-based sender (`decision`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The flow driver dispatched an agent wake: `acks` acknowledgments
    /// handed over, `sent` packets transmitted in response.
    Wake {
        /// The dispatched flow.
        flow: FlowId,
        /// Observations delivered to this wake.
        acks: usize,
        /// Packets the agent sent from this wake.
        sent: usize,
    },
    /// A network element fired (processed its scheduled event).
    Fire {
        /// The firing element.
        node: u32,
    },
    /// A packet came to rest at a receiver.
    Deliver {
        /// The receiving element.
        node: u32,
        /// The delivered packet's flow.
        flow: FlowId,
        /// The delivered packet's sequence number.
        seq: u64,
    },
    /// A queue admitted a packet (it will wait for service).
    Enqueue {
        /// The queueing element.
        node: u32,
        /// The queued packet's flow.
        flow: FlowId,
        /// The queued packet's sequence number.
        seq: u64,
    },
    /// The network dropped a packet.
    Drop {
        /// The dropping element.
        node: u32,
        /// The dropped packet's flow.
        flow: FlowId,
        /// The dropped packet's sequence number.
        seq: u64,
        /// Why it was dropped.
        reason: DropKind,
    },
    /// One exact-belief advance window: fork/kill/compact/prune
    /// accounting, the surviving branch count and the distinct network
    /// states those branches stand on.
    BeliefUpdate {
        /// The flow whose belief advanced.
        flow: FlowId,
        /// Branch forks performed.
        forks: usize,
        /// Branches killed by inconsistent observations.
        killed: usize,
        /// Branches merged by state reconvergence.
        compacted: usize,
        /// Branches cut by the population cap / weight floor.
        pruned: usize,
        /// Surviving branches.
        branches: usize,
        /// Distinct network states after compaction: branches that differ
        /// only in the last-mile loss rate share one.
        states: usize,
    },
    /// The particle filter resampled its population.
    Resample {
        /// The flow whose filter resampled.
        flow: FlowId,
        /// Effective sample size that triggered the resample.
        ess: f64,
        /// Particles killed in the window before resampling.
        killed: usize,
    },
    /// A periodic posterior snapshot (the belief introspection channel):
    /// population, diversity, entropy, and the link-rate marginal.
    Snapshot {
        /// The flow whose posterior this is.
        flow: FlowId,
        /// Hypothesis count (branches or live particles).
        branches: usize,
        /// Effective population, `1/Σw²`.
        effective: f64,
        /// Posterior entropy over hypothesis weights, in bits.
        entropy_bits: f64,
        /// Posterior-mean bottleneck link rate, bits/s.
        rate_bps: f64,
    },
    /// The decision a model-based sender's wake ended on, with the
    /// expected-utility comparison behind it (§3.3).
    Decision {
        /// The deciding flow.
        flow: FlowId,
        /// What it chose: `send-now` (the wake stopped at its send cap),
        /// `sleep` (a later send looked best) or `idle`.
        action: &'static str,
        /// Expected utility of the chosen action.
        eu: f64,
        /// Expected utility of sending nothing this horizon.
        idle_eu: f64,
        /// Expected utility of sending at once.
        send_now_eu: f64,
        /// Weighted posterior members the expectations were taken over.
        members: usize,
        /// Groups of members that shared one rollout.
        groups: usize,
        /// Candidate forks run to the horizon.
        forks_run: usize,
        /// Candidates left to the idle trajectory (the send changed
        /// nothing).
        forks_idle: usize,
        /// Candidates riding an earlier candidate's fork.
        forks_shared: usize,
    },
}

impl EventKind {
    /// The stable JSONL `kind` token.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Wake { .. } => "wake",
            EventKind::Fire { .. } => "fire",
            EventKind::Deliver { .. } => "deliver",
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Drop { .. } => "drop",
            EventKind::BeliefUpdate { .. } => "belief-update",
            EventKind::Resample { .. } => "resample",
            EventKind::Snapshot { .. } => "snapshot",
            EventKind::Decision { .. } => "decision",
        }
    }
}

/// One sim-time-stamped structured event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// When it happened, in simulated time.
    pub at: Time,
    /// What happened.
    pub kind: EventKind,
}

/// One event as a canonical flat JSON object: `at_us` first, `kind`
/// second, then the variant's fields in declaration order. Floats use
/// the workspace-canonical shortest-roundtrip form
/// ([`augur_sim::canon`]), so the bytes are deterministic.
pub fn event_to_json(r: &EventRecord) -> String {
    let mut out = String::with_capacity(64);
    let _ = write!(
        out,
        "{{\"at_us\":{},\"kind\":{}",
        r.at.as_micros(),
        json_string(r.kind.label())
    );
    match &r.kind {
        EventKind::Wake { flow, acks, sent } => {
            let _ = write!(out, ",\"flow\":{},\"acks\":{acks},\"sent\":{sent}", flow.0);
        }
        EventKind::Fire { node } => {
            let _ = write!(out, ",\"node\":{node}");
        }
        EventKind::Deliver { node, flow, seq } | EventKind::Enqueue { node, flow, seq } => {
            let _ = write!(out, ",\"node\":{node},\"flow\":{},\"seq\":{seq}", flow.0);
        }
        EventKind::Drop {
            node,
            flow,
            seq,
            reason,
        } => {
            let _ = write!(
                out,
                ",\"node\":{node},\"flow\":{},\"seq\":{seq},\"reason\":{}",
                flow.0,
                json_string(reason.label())
            );
        }
        EventKind::BeliefUpdate {
            flow,
            forks,
            killed,
            compacted,
            pruned,
            branches,
            states,
        } => {
            let _ = write!(
                out,
                ",\"flow\":{},\"forks\":{forks},\"killed\":{killed},\"compacted\":{compacted},\"pruned\":{pruned},\"branches\":{branches},\"states\":{states}",
                flow.0
            );
        }
        EventKind::Resample { flow, ess, killed } => {
            let _ = write!(
                out,
                ",\"flow\":{},\"ess\":{},\"killed\":{killed}",
                flow.0,
                json_num(*ess)
            );
        }
        EventKind::Snapshot {
            flow,
            branches,
            effective,
            entropy_bits,
            rate_bps,
        } => {
            let _ = write!(
                out,
                ",\"flow\":{},\"branches\":{branches},\"effective\":{},\"entropy_bits\":{},\"rate_bps\":{}",
                flow.0,
                json_num(*effective),
                json_num(*entropy_bits),
                json_num(*rate_bps)
            );
        }
        EventKind::Decision {
            flow,
            action,
            eu,
            idle_eu,
            send_now_eu,
            members,
            groups,
            forks_run,
            forks_idle,
            forks_shared,
        } => {
            let _ = write!(
                out,
                ",\"flow\":{},\"action\":{},\"eu\":{},\"idle_eu\":{},\"send_now_eu\":{},\"members\":{members},\"groups\":{groups},\"forks_run\":{forks_run},\"forks_idle\":{forks_idle},\"forks_shared\":{forks_shared}",
                flow.0,
                json_string(action),
                json_num(*eu),
                json_num(*idle_eu),
                json_num(*send_now_eu)
            );
        }
    }
    out.push('}');
    out
}

/// A whole event log as JSONL (one object per line, trailing newline
/// when non-empty).
pub fn to_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_bytes_are_pinned() {
        let events = [
            EventRecord {
                at: Time::from_millis(1),
                kind: EventKind::Wake {
                    flow: FlowId(0),
                    acks: 2,
                    sent: 1,
                },
            },
            EventRecord {
                at: Time::from_millis(2),
                kind: EventKind::Drop {
                    node: 3,
                    flow: FlowId(1),
                    seq: 42,
                    reason: DropKind::BufferFull,
                },
            },
            EventRecord {
                at: Time::from_millis(3),
                kind: EventKind::Snapshot {
                    flow: FlowId(0),
                    branches: 12,
                    effective: 8.5,
                    entropy_bits: 2.25,
                    rate_bps: 12_000.0,
                },
            },
            EventRecord {
                at: Time::from_millis(3),
                kind: EventKind::BeliefUpdate {
                    flow: FlowId(0),
                    forks: 40,
                    killed: 7,
                    compacted: 9,
                    pruned: 2,
                    branches: 24,
                    states: 6,
                },
            },
            EventRecord {
                at: Time::from_millis(4),
                kind: EventKind::Decision {
                    flow: FlowId(0),
                    action: "sleep",
                    eu: 1.5,
                    idle_eu: 1.25,
                    send_now_eu: -0.5,
                    members: 12,
                    groups: 5,
                    forks_run: 30,
                    forks_idle: 4,
                    forks_shared: 11,
                },
            },
        ];
        assert_eq!(
            to_jsonl(&events),
            "{\"at_us\":1000,\"kind\":\"wake\",\"flow\":0,\"acks\":2,\"sent\":1}\n\
             {\"at_us\":2000,\"kind\":\"drop\",\"node\":3,\"flow\":1,\"seq\":42,\"reason\":\"buffer-full\"}\n\
             {\"at_us\":3000,\"kind\":\"snapshot\",\"flow\":0,\"branches\":12,\"effective\":8.5,\"entropy_bits\":2.25,\"rate_bps\":12000}\n\
             {\"at_us\":3000,\"kind\":\"belief-update\",\"flow\":0,\"forks\":40,\"killed\":7,\"compacted\":9,\"pruned\":2,\"branches\":24,\"states\":6}\n\
             {\"at_us\":4000,\"kind\":\"decision\",\"flow\":0,\"action\":\"sleep\",\"eu\":1.5,\"idle_eu\":1.25,\"send_now_eu\":-0.5,\"members\":12,\"groups\":5,\"forks_run\":30,\"forks_idle\":4,\"forks_shared\":11}\n"
        );
    }

    #[test]
    fn drop_kind_labels_round_trip() {
        for k in [
            DropKind::BufferFull,
            DropKind::GateClosed,
            DropKind::Stochastic,
            DropKind::Aqm,
        ] {
            assert_eq!(DropKind::parse(k.label()), Some(k));
        }
        assert_eq!(DropKind::parse("unknown"), None);
    }

    #[test]
    fn serialization_is_deterministic() {
        let e = EventRecord {
            at: Time::from_secs(7),
            kind: EventKind::Resample {
                flow: FlowId(2),
                ess: 31.25,
                killed: 4,
            },
        };
        assert_eq!(event_to_json(&e), event_to_json(&e));
        assert_eq!(
            event_to_json(&e),
            "{\"at_us\":7000000,\"kind\":\"resample\",\"flow\":2,\"ess\":31.25,\"killed\":4}"
        );
    }
}
