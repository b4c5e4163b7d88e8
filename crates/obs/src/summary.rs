//! Event-log analysis: the tables behind the `augur-obs` CLI.
//!
//! Works on parsed [`crate::json::Object`]s rather than
//! [`crate::event::EventRecord`]s so logs written by older or newer
//! schema revisions still summarize (unknown kinds are counted, not
//! rejected). All grouping uses ordered containers, so the rendered
//! text is deterministic for a given log.

use crate::json::Object;
use augur_sim::canon::fmt_f64;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-flow tallies over one event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTally {
    /// `wake` events dispatched to this flow.
    pub wakes: u64,
    /// Acknowledgments handed over across those wakes.
    pub acks: u64,
    /// Packets sent across those wakes.
    pub sent: u64,
    /// `deliver` events for this flow's packets.
    pub delivers: u64,
    /// `enqueue` events for this flow's packets.
    pub enqueues: u64,
    /// `drop` events for this flow's packets.
    pub drops: u64,
    /// `belief-update` events attributed to this flow.
    pub belief_updates: u64,
    /// Surviving branches summed over those events.
    pub branches: u64,
    /// Distinct network states summed over those events (zero in logs
    /// written before the field existed).
    pub states: u64,
    /// `resample` events attributed to this flow.
    pub resamples: u64,
}

/// One dropped packet, for the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DropPoint {
    /// Simulated seconds.
    pub at_s: f64,
    /// The dropped packet's flow.
    pub flow: u16,
    /// The dropping element.
    pub node: u64,
    /// The packet's sequence number.
    pub seq: u64,
    /// The drop reason token.
    pub reason: String,
}

/// One posterior snapshot, for the convergence table.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPoint {
    /// Simulated seconds.
    pub at_s: f64,
    /// Hypothesis count.
    pub branches: u64,
    /// Effective population.
    pub effective: f64,
    /// Posterior entropy, bits.
    pub entropy_bits: f64,
    /// Posterior-mean link rate, bits/s.
    pub rate_bps: f64,
}

/// Everything the CLI renders, extracted in one pass.
#[derive(Debug, Clone, Default)]
pub struct LogStats {
    /// Events by kind token, ordered.
    pub by_kind: BTreeMap<String, u64>,
    /// Per-flow tallies, ordered by flow.
    pub per_flow: BTreeMap<u16, FlowTally>,
    /// Every drop, in log (= simulation) order.
    pub drops: Vec<DropPoint>,
    /// Snapshot trajectories per flow, in log order.
    pub snapshots: BTreeMap<u16, Vec<SnapshotPoint>>,
}

fn u(obj: &Object, key: &str) -> u64 {
    obj.num(key).map_or(0, |v| v as u64)
}

/// Extract [`LogStats`] from parsed event objects.
pub fn scan(objects: &[Object]) -> LogStats {
    let mut stats = LogStats::default();
    for obj in objects {
        let kind = obj.str("kind").unwrap_or("?").to_string();
        *stats.by_kind.entry(kind.clone()).or_insert(0) += 1;
        let at_s = obj.num("at_us").unwrap_or(0.0) / 1e6;
        let flow = u(obj, "flow") as u16;
        // `fire` carries no flow; unknown kinds are counted in by_kind
        // only.
        match kind.as_str() {
            "wake" => {
                let tally = stats.per_flow.entry(flow).or_default();
                tally.wakes += 1;
                tally.acks += u(obj, "acks");
                tally.sent += u(obj, "sent");
            }
            "deliver" => stats.per_flow.entry(flow).or_default().delivers += 1,
            "enqueue" => stats.per_flow.entry(flow).or_default().enqueues += 1,
            "drop" => {
                stats.per_flow.entry(flow).or_default().drops += 1;
                stats.drops.push(DropPoint {
                    at_s,
                    flow,
                    node: u(obj, "node"),
                    seq: u(obj, "seq"),
                    reason: obj.str("reason").unwrap_or("?").to_string(),
                });
            }
            "belief-update" => {
                let tally = stats.per_flow.entry(flow).or_default();
                tally.belief_updates += 1;
                tally.branches += u(obj, "branches");
                tally.states += u(obj, "states");
            }
            "resample" => stats.per_flow.entry(flow).or_default().resamples += 1,
            "snapshot" => {
                stats
                    .snapshots
                    .entry(flow)
                    .or_default()
                    .push(SnapshotPoint {
                        at_s,
                        branches: u(obj, "branches"),
                        effective: obj.num("effective").unwrap_or(f64::NAN),
                        entropy_bits: obj.num("entropy_bits").unwrap_or(f64::NAN),
                        rate_bps: obj.num("rate_bps").unwrap_or(f64::NAN),
                    });
            }
            _ => {}
        }
    }
    stats
}

fn f3(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "-".to_string()
    }
}

/// The `summary` rendering: kind counts, a per-flow table, and the
/// per-flow drop timeline. The table's `mem/state` is the exact belief's
/// branches per distinct network state over all its updates (`-` where
/// the log records no states).
pub fn summary_text(stats: &LogStats) -> String {
    let mut out = String::new();
    let total: u64 = stats.by_kind.values().sum();
    let _ = writeln!(out, "events: {total}");
    for (kind, n) in &stats.by_kind {
        let _ = writeln!(out, "  {kind:<14} {n}");
    }
    let _ = writeln!(
        out,
        "flow   wakes    acks    sent  deliver enqueue    drop  belief resample mem/state"
    );
    for (flow, t) in &stats.per_flow {
        let per_state = if t.states == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", t.branches as f64 / t.states as f64)
        };
        let _ = writeln!(
            out,
            "{flow:>4} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7} {:>8} {per_state:>9}",
            t.wakes, t.acks, t.sent, t.delivers, t.enqueues, t.drops, t.belief_updates, t.resamples
        );
    }
    if !stats.drops.is_empty() {
        let _ = writeln!(out, "drop timeline ({} drops):", stats.drops.len());
        const SHOWN: usize = 50;
        for d in stats.drops.iter().take(SHOWN) {
            let _ = writeln!(
                out,
                "  t={}s flow={} node={} seq={} reason={}",
                f3(d.at_s),
                d.flow,
                d.node,
                d.seq,
                d.reason
            );
        }
        if stats.drops.len() > SHOWN {
            let _ = writeln!(out, "  ... and {} more", stats.drops.len() - SHOWN);
        }
    }
    out
}

/// The `convergence` rendering: each flow's posterior-entropy trajectory
/// and its time-to-convergence — the first snapshot whose entropy is at
/// or below `threshold_bits`.
pub fn convergence_text(stats: &LogStats, threshold_bits: f64) -> String {
    let mut out = String::new();
    if stats.snapshots.is_empty() {
        let _ = writeln!(
            out,
            "no snapshots in log (run with --belief-snapshots or [observe] snapshot_every_s)"
        );
        return out;
    }
    for (flow, points) in &stats.snapshots {
        let _ = writeln!(out, "flow {flow}: {} snapshots", points.len());
        let _ = writeln!(
            out,
            "     t_s  branches  effective  entropy_bits      rate_bps"
        );
        for p in points {
            let _ = writeln!(
                out,
                "{:>8} {:>9} {:>10} {:>13} {:>13}",
                f3(p.at_s),
                p.branches,
                f3(p.effective),
                f3(p.entropy_bits),
                fmt_num(p.rate_bps)
            );
        }
        match time_to_convergence(points, threshold_bits) {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "time-to-convergence (entropy <= {} bits): {}s",
                    fmt_num(threshold_bits),
                    f3(t)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "time-to-convergence (entropy <= {} bits): not reached",
                    fmt_num(threshold_bits)
                );
            }
        }
    }
    out
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "-".to_string()
    }
}

/// The first snapshot instant (seconds) whose entropy is at or below
/// `threshold_bits`, if the trajectory ever gets there.
pub fn time_to_convergence(points: &[SnapshotPoint], threshold_bits: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| p.entropy_bits.is_finite() && p.entropy_bits <= threshold_bits)
        .map(|p| p.at_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{to_jsonl, DropKind, EventKind, EventRecord};
    use crate::json::parse_jsonl;
    use augur_sim::{FlowId, Time};

    fn log() -> Vec<Object> {
        let events = [
            EventRecord {
                at: Time::from_secs(1),
                kind: EventKind::Wake {
                    flow: FlowId(0),
                    acks: 2,
                    sent: 3,
                },
            },
            EventRecord {
                at: Time::from_secs(1),
                kind: EventKind::Fire { node: 1 },
            },
            EventRecord {
                at: Time::from_secs(2),
                kind: EventKind::Deliver {
                    node: 4,
                    flow: FlowId(0),
                    seq: 0,
                },
            },
            EventRecord {
                at: Time::from_secs(3),
                kind: EventKind::Drop {
                    node: 1,
                    flow: FlowId(1),
                    seq: 5,
                    reason: DropKind::Stochastic,
                },
            },
            EventRecord {
                at: Time::from_secs(4),
                kind: EventKind::BeliefUpdate {
                    flow: FlowId(0),
                    forks: 10,
                    killed: 3,
                    compacted: 2,
                    pruned: 0,
                    branches: 12,
                    states: 4,
                },
            },
            EventRecord {
                at: Time::from_secs(5),
                kind: EventKind::BeliefUpdate {
                    flow: FlowId(0),
                    forks: 4,
                    killed: 8,
                    compacted: 0,
                    pruned: 0,
                    branches: 6,
                    states: 2,
                },
            },
            EventRecord {
                at: Time::from_secs(10),
                kind: EventKind::Snapshot {
                    flow: FlowId(0),
                    branches: 40,
                    effective: 20.0,
                    entropy_bits: 4.0,
                    rate_bps: 11_000.0,
                },
            },
            EventRecord {
                at: Time::from_secs(20),
                kind: EventKind::Snapshot {
                    flow: FlowId(0),
                    branches: 10,
                    effective: 2.0,
                    entropy_bits: 0.5,
                    rate_bps: 12_000.0,
                },
            },
        ];
        parse_jsonl(&to_jsonl(&events)).unwrap()
    }

    #[test]
    fn scan_tallies_per_flow() {
        let stats = scan(&log());
        assert_eq!(stats.by_kind["wake"], 1);
        assert_eq!(stats.by_kind["fire"], 1);
        assert_eq!(stats.by_kind["snapshot"], 2);
        let f0 = &stats.per_flow[&0];
        assert_eq!((f0.wakes, f0.acks, f0.sent, f0.delivers), (1, 2, 3, 1));
        assert_eq!((f0.belief_updates, f0.branches, f0.states), (2, 18, 6));
        assert_eq!(stats.per_flow[&1].drops, 1);
        assert_eq!(stats.drops.len(), 1);
        assert_eq!(stats.drops[0].reason, "stochastic");
        assert_eq!(stats.snapshots[&0].len(), 2);
    }

    #[test]
    fn convergence_threshold() {
        let stats = scan(&log());
        let points = &stats.snapshots[&0];
        assert_eq!(time_to_convergence(points, 1.0), Some(20.0));
        assert_eq!(time_to_convergence(points, 5.0), Some(10.0));
        assert_eq!(time_to_convergence(points, 0.1), None);
    }

    #[test]
    fn renderings_are_deterministic() {
        let stats = scan(&log());
        let summary = summary_text(&stats);
        assert_eq!(summary, summary_text(&stats));
        // Members per state: 18 branches over 6 states for flow 0; flow 1
        // holds no belief.
        let row = |flow: &str| {
            let row = summary.lines().find(|l| l.trim_start().starts_with(flow));
            row.and_then(|l| l.split_whitespace().last())
                .map(str::to_string)
        };
        assert_eq!(row("0 ").as_deref(), Some("3.00"));
        assert_eq!(row("1 ").as_deref(), Some("-"));
        let text = convergence_text(&stats, 1.0);
        assert!(text.contains("time-to-convergence (entropy <= 1 bits): 20.000s"));
        let none = convergence_text(&LogStats::default(), 1.0);
        assert!(none.contains("no snapshots"));
    }
}
