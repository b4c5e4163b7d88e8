//! The observability layer's non-interference contract:
//!
//! 1. event logs and belief snapshots are byte-identical at any worker
//!    count (each run's sink is thread-local and run-scoped, so
//!    scheduling cannot reorder or split a run's log) — the traced rows of
//!    `byte_identity.rs` pin them at 1 and 4 workers;
//! 2. arming tracing/snapshots changes NOTHING about the sweep itself —
//!    report CSV bytes and every work counter are identical to an
//!    unobserved execution of the same runs;
//! 3. the `--progress` ticker writes only to stderr, so report bytes
//!    are identical with and without it.

mod common;

use augur_obs::{to_jsonl, EventKind, ObsConfig};
use augur_scenario::{SweepGrid, SweepRunner};
use augur_sim::Dur;
use common::grid_of;

/// The coexist-fairness grid with observability armed: the multi-agent
/// loop exercises every event source (wakes, fires, queue churn, drops,
/// belief updates and planner decisions against a TCP peer).
fn observed_grid() -> SweepGrid {
    let mut grid = grid_of("coexist-vs-tcp --duration 20 --replicates 2 --branches 50000");
    grid.base.observe = ObsConfig {
        trace_events: true,
        snapshot_every: Some(Dur::from_secs(5)),
    };
    grid
}

/// Every `EventKind` shows up in real runs; the smoke grid's particle runs resample.
#[test]
fn event_logs_carry_every_event_family() {
    let runs = observed_grid().expand();
    let (_, logs) = SweepRunner::serial().run_observed(&runs);
    let mut grid = grid_of("smoke --duration 5 --replicates 2");
    grid.base.observe.trace_events = true;
    let (_, smoke) = SweepRunner::serial().run_observed(&grid.expand());
    let all: String = logs.iter().chain(&smoke).map(|l| to_jsonl(l)).collect();
    let kinds = "wake fire deliver enqueue drop belief-update resample snapshot decision";
    for kind in kinds.split(' ') {
        assert!(
            all.contains(&format!("\"kind\":\"{kind}\"")),
            "no {kind} event in any coexist or smoke log"
        );
    }
    // Every log actually carries posterior snapshots once armed.
    for log in &logs {
        assert!(
            log.iter()
                .any(|e| matches!(e.kind, EventKind::Snapshot { .. })),
            "cadence armed but no snapshots emitted"
        );
    }
}

#[test]
fn observing_leaves_report_and_counters_byte_identical() {
    let plain_grid = grid_of("coexist-vs-tcp --duration 20 --replicates 2 --branches 50000");
    let plain_runs = plain_grid.expand();
    let observed_runs = observed_grid().expand();
    let plain = SweepRunner::serial().run(&plain_runs);
    let (observed, logs) = SweepRunner::serial().run_observed(&observed_runs);
    assert_eq!(
        plain.to_csv_string(),
        observed.to_csv_string(),
        "arming observability changed sweep CSV bytes"
    );
    for (p, o) in plain.runs.iter().zip(&observed.runs) {
        assert_eq!(
            p.work, o.work,
            "run {}: tracing perturbed the work counters",
            p.index
        );
    }
    assert!(
        logs.iter().all(|l| !l.is_empty()),
        "observed runs must actually produce events"
    );
}

#[test]
fn progress_ticker_leaves_report_bytes_identical() {
    let runs = grid_of("coexist-vs-tcp --duration 20 --replicates 2 --branches 50000").expand();
    let quiet = SweepRunner::serial().run(&runs);
    let ticking = SweepRunner::serial().progress().run(&runs);
    assert_eq!(
        quiet.to_csv_string(),
        ticking.to_csv_string(),
        "--progress must be stderr-only; stdout/CSV bytes may not move"
    );
}

#[test]
fn unobserved_runs_emit_no_events() {
    let runs = grid_of("coexist-vs-tcp --duration 20 --replicates 1 --branches 50000").expand();
    let (_, logs) = SweepRunner::serial().run_observed(&runs);
    assert!(
        logs.iter().all(Vec::is_empty),
        "observe defaults off: no events without [observe]"
    );
}
