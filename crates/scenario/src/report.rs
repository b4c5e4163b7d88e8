//! Sweep results: one [`RunSummary`] per run, aggregated into a
//! [`SweepReport`] with deterministic CSV / JSON-lines export.

use augur_sim::WorkCounters;
use augur_trace::{Cell, Table};
use std::io::{self, Write};

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed normally.
    Ok,
    /// The belief / particle population died (no hypothesis consistent
    /// with the observations) — a measured outcome, not an error.
    BeliefDied,
}

impl RunStatus {
    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::BeliefDied => "belief-died",
        }
    }
}

/// What one run measured.
///
/// Fields that do not apply to a run kind (e.g. `utility` for TCP,
/// `rate_err_bps` outside scripted workloads) are `NaN` and serialize as
/// missing. `wall_s` is wall-clock measurement and is deliberately
/// excluded from [`SweepReport::table`]: exported artifacts must be a
/// pure function of the spec and seed. `work` *is* such a pure function
/// (deterministic counters from `augur_sim::perf`), but it stays out of
/// the table too so sweep CSVs remain byte-stable when a counter is
/// added or an optimisation lowers one; `tests/work_counters.rs` pins it
/// and `benchmark trace` reports it per layer.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Run index in the expanded grid.
    pub index: usize,
    /// Scenario name.
    pub scenario: String,
    /// Sender label (`isender-exact`, `tcp-reno`, …).
    pub sender: String,
    /// Coexistence-peer label (`isender`, `aimd`, …; `+`-joined when
    /// several peers share the link); empty for single-sender runs.
    pub peer: String,
    /// Grid coordinates, e.g. `alpha=1 replicate=3`.
    pub point: String,
    /// The run's derived seed.
    pub seed: u64,
    /// How the run ended.
    pub status: RunStatus,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Packets (or TCP segments) transmitted.
    pub sends: u64,
    /// Own-flow packets delivered (acknowledged).
    pub delivered: u64,
    /// Own-flow delivered packets per second.
    pub throughput_pps: f64,
    /// Own-flow delivered bits per second.
    pub goodput_bps: f64,
    /// Coexistence runs: the peer flows' aggregate delivered bits per
    /// second (`NaN` for single-sender runs).
    pub goodput_b_bps: f64,
    /// Coexistence runs: Jain's fairness index over all flows' goodputs
    /// (`NaN` for single-sender runs).
    pub jain: f64,
    /// Coexistence runs: belief restarts of the primary sender (missing
    /// for single-sender runs).
    pub restarts_a: Option<u64>,
    /// Coexistence runs: belief restarts summed over the peers (0 for
    /// peers with no belief; missing for single-sender runs).
    pub restarts_b: Option<u64>,
    /// Per-packet delay percentiles in seconds (send→ack for the ISender,
    /// RTT for TCP); `NaN` when no packet completed.
    pub delay_p50_s: f64,
    /// 95th percentile delay.
    pub delay_p95_s: f64,
    /// 99th percentile delay.
    pub delay_p99_s: f64,
    /// Realized throughput-utility: own goodput + α × cross goodput
    /// (bits/s); `NaN` for utility-free senders.
    pub utility: f64,
    /// Ground-truth buffer-overflow drops (all flows).
    pub overflow_drops: u64,
    /// Final belief population (branches or particles); 0 for TCP.
    pub population: u64,
    /// Scripted workloads: |posterior mean link rate − truth| in bits/s.
    pub rate_err_bps: f64,
    /// Graph-topology runs: aggregate goodput per declared flow class,
    /// formatted `class=bits_per_s` space-joined in class declaration
    /// order (e.g. `long=4800.000 short=9600.000`); empty for
    /// single-bottleneck runs.
    pub class_goodput: String,
    /// Wall-clock seconds spent in the run (diagnostic only; excluded
    /// from exports).
    pub wall_s: f64,
    /// Deterministic work-done counters for the run (events fired,
    /// packets forwarded, hypothesis updates, …) — a pure function of
    /// the spec and seed, identical for any worker count. Excluded from
    /// the CSV/JSONL table; the perf subsystem aggregates it.
    pub work: WorkCounters,
}

/// An ordered collection of run summaries.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Summaries in run-index order.
    pub runs: Vec<RunSummary>,
}

/// The export column set, in order.
pub const COLUMNS: [&str; 23] = [
    "index",
    "scenario",
    "sender",
    "peer",
    "point",
    "seed",
    "status",
    "duration_s",
    "sends",
    "delivered",
    "throughput_pps",
    "goodput_bps",
    "goodput_b_bps",
    "jain",
    "restarts_a",
    "restarts_b",
    "delay_p50_s",
    "delay_p95_s",
    "delay_p99_s",
    "utility",
    "overflow_drops",
    "rate_err_bps",
    "class_goodput_bps",
];

impl SweepReport {
    /// The report as a [`Table`] (deterministic: excludes wall-clock and
    /// population diagnostics).
    pub fn table(&self) -> Table {
        let mut t = Table::new(COLUMNS);
        for r in &self.runs {
            t.push_row(vec![
                Cell::Int(r.index as u64),
                Cell::Str(r.scenario.clone()),
                Cell::Str(r.sender.clone()),
                Cell::Str(r.peer.clone()),
                Cell::Str(r.point.clone()),
                Cell::Int(r.seed),
                Cell::Str(r.status.label().to_string()),
                Cell::Num(r.duration_s),
                Cell::Int(r.sends),
                Cell::Int(r.delivered),
                Cell::Num(r.throughput_pps),
                Cell::Num(r.goodput_bps),
                Cell::Num(r.goodput_b_bps),
                Cell::Num(r.jain),
                r.restarts_a.map_or(Cell::Num(f64::NAN), Cell::Int),
                r.restarts_b.map_or(Cell::Num(f64::NAN), Cell::Int),
                Cell::Num(r.delay_p50_s),
                Cell::Num(r.delay_p95_s),
                Cell::Num(r.delay_p99_s),
                Cell::Num(r.utility),
                Cell::Int(r.overflow_drops),
                Cell::Num(r.rate_err_bps),
                Cell::Str(r.class_goodput.clone()),
            ]);
        }
        t
    }

    /// CSV serialization (byte-stable for a given spec and base seed).
    pub fn to_csv_string(&self) -> String {
        self.table().to_csv_string()
    }

    /// Write CSV.
    pub fn write_csv<W: Write>(&self, w: W) -> io::Result<()> {
        self.table().write_csv(w)
    }

    /// Write JSON-lines.
    pub fn write_jsonl<W: Write>(&self, w: W) -> io::Result<()> {
        self.table().write_jsonl(w)
    }

    /// The summary for a grid point label, if present.
    pub fn find(&self, point: &str) -> Option<&RunSummary> {
        self.runs.iter().find(|r| r.point == point)
    }

    /// Total deterministic work across every run. Summation commutes,
    /// so this is identical for any worker count or schedule.
    pub fn total_work(&self) -> WorkCounters {
        let mut total = WorkCounters::default();
        for r in &self.runs {
            total += r.work;
        }
        total
    }

    /// Render a compact fixed-width text table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:>5} {:>16} {:>24} {:>11} {:>7} {:>9} {:>10} {:>10} {:>10} {:>9} {:>8}\n",
            "index",
            "sender",
            "point",
            "status",
            "sends",
            "acked",
            "pps",
            "p50_s",
            "p95_s",
            "overflow",
            "wall_s"
        ));
        for r in &self.runs {
            out.push_str(&format!(
                "  {:>5} {:>16} {:>24} {:>11} {:>7} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>9} {:>8.1}\n",
                r.index,
                r.sender,
                r.point,
                r.status.label(),
                r.sends,
                r.delivered,
                r.throughput_pps,
                r.delay_p50_s,
                r.delay_p95_s,
                r.overflow_drops,
                r.wall_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(index: usize) -> RunSummary {
        RunSummary {
            index,
            scenario: "s".into(),
            sender: "isender-exact".into(),
            peer: String::new(),
            point: format!("alpha={index}"),
            seed: 7,
            status: RunStatus::Ok,
            duration_s: 10.0,
            sends: 5,
            delivered: 4,
            throughput_pps: 0.4,
            goodput_bps: 4_800.0,
            goodput_b_bps: f64::NAN,
            jain: f64::NAN,
            restarts_a: None,
            restarts_b: None,
            delay_p50_s: 1.5,
            delay_p95_s: 2.0,
            delay_p99_s: 2.5,
            utility: 4_800.0,
            overflow_drops: 0,
            population: 8,
            rate_err_bps: f64::NAN,
            class_goodput: String::new(),
            wall_s: 0.123,
            work: WorkCounters {
                events_processed: 9_999_991,
                ..WorkCounters::default()
            },
        }
    }

    #[test]
    fn csv_has_header_and_rows_and_no_wall_clock() {
        let report = SweepReport {
            runs: vec![summary(0), summary(1)],
        };
        let csv = report.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,scenario,sender,peer,point,seed,status"));
        assert!(
            !csv.contains("0.123"),
            "wall clock must not leak into exports"
        );
        assert!(
            !csv.contains("9999991"),
            "work counters must not leak into exports"
        );
        assert_eq!(report.total_work().events_processed, 2 * 9_999_991);
        // NaN serializes as missing; the trailing class column is empty
        // for single-bottleneck runs.
        assert!(lines[1].ends_with(",0,,"));
    }

    #[test]
    fn jsonl_is_one_object_per_run() {
        let report = SweepReport {
            runs: vec![summary(0)],
        };
        let mut out = Vec::new();
        report.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"rate_err_bps\":null"));
        assert!(text.contains("\"sender\":\"isender-exact\""));
    }
}
