//! Byte identity, committed: one table of FNV-1a digests.
//!
//! The belief keeps only the network states whose simulated receiver
//! reproduces exactly what happened, so the method rests on a run being a
//! pure function of its spec and seed. Each row is a `sweep` command line,
//! the digest of the CSV it writes and, for a traced row, of its event logs
//! (`run-0.jsonl`, `run-1.jsonl`, … in run order). Each row must reproduce
//! them serially and on four workers; a traced row's CSV must be the
//! untraced run's, and each of its logs must carry deliveries.
//!
//! An intended output change edits its rows, so `git log -p` on this file
//! records every re-pin. `cargo test` checks the `Always` rows, and
//! `cargo test --release -p augur-scenario --test byte_identity` all rows.

mod common;

use augur_obs::{to_jsonl, EventKind, EventRecord, ObsConfig};
use augur_scenario::{presets, SweepGrid, SweepRunner};
use common::{fnv1a, grid_of};
use Check::{Always, Release};

/// Which profiles check a row: `Release` rows are too slow for `cargo test`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    Always,
    Release,
}

/// `(where checked, sweep arguments, CSV digest, event-log digest)`. Every
/// preset at shipped size, in `presets::NAMES` order; the run where the
/// restarting senders' memos grow largest; the traced runs of the
/// multi-agent loop, both ISenders, the TCP and scripted-ping runners and
/// the paper prior.
#[rustfmt::skip]
const TABLE: &[(Check, &str, u64, Option<u64>)] = &[
    (Always, "fig1", 0xBD03_E690_B795_8896, None),
    (Release, "fig3", 0x9CD1_7A51_6A26_67D3, None),
    (Release, "tab1", 0x7A87_3261_B43A_0F36, None),
    (Always, "txt1", 0x32CB_40DA_3195_7795, None),
    (Always, "txt2", 0xE8A2_FEF6_1DCA_AC3E, None),
    (Always, "scaling", 0xFB21_CDB9_0B28_0ED5, None),
    (Release, "smoke", 0x160B_6955_3860_0743, None),
    (Release, "coexist-fairness", 0x02C1_C9A0_F45F_BFD4, None),
    (Release, "coexist-vs-tcp", 0xDE08_7FED_31C9_56EB, None),
    (Always, "ext-aqm", 0x643E_1C8F_5FFC_21D7, None),
    (Always, "replay-cellular", 0x8AB7_18E8_A00E_F3D8, None),
    (Always, "dumbbell-cross", 0xC425_AC97_F733_DDDE, None),
    (Always, "parking-lot", 0x0C6F_1F25_4946_0CA9, None),
    (Release, "ext-scaling-flows", 0x618A_F1CA_2F0E_C5AE, None),
    (Release, "coexist-vs-tcp --duration 600", 0x9EAF_56FA_2AA7_1C17, None),
    (Release, "coexist-fairness --duration 30 --replicates 2 --trace-events --belief-snapshots 5",
        0x571E_D748_6489_5DD8, Some(0x9085_BAA1_6C64_6AA1)),
    (Always, "smoke --duration 10 --replicates 2 --trace-events",
        0xF7BC_552F_5EEF_E277, Some(0x171C_AEB6_CC2A_D5DF)),
    (Always, "fig1 --duration 10 --trace-events", 0x9342_19F2_2A64_9E47, Some(0x412B_3C37_A33F_1996)),
    (Always, "scaling --duration 10 --trace-events", 0xA2FA_A72A_A1DF_C5CC, Some(0x99FC_1947_36CB_04BF)),
    (Release, "fig3 --duration 30 --branches 2000 --trace-events --belief-snapshots 5",
        0x67BC_B96A_927D_F52E, Some(0x0EB0_E6A9_BCF8_7538)),
];

/// The digests of what `runner` writes for `grid`: its CSV, and its event
/// logs when the grid is traced.
fn digests(args: &str, grid: &SweepGrid, runner: &SweepRunner) -> (u64, Option<u64>) {
    let (report, logs) = runner.run_observed(&grid.expand());
    let csv = fnv1a(report.to_csv_string().as_bytes());
    if !grid.base.observe.active() {
        return (csv, None);
    }
    let delivers = |e: &EventRecord| matches!(e.kind, EventKind::Deliver { .. });
    assert!(logs.iter().all(|log| log.iter().any(delivers)), "{args}");
    let jsonl: String = logs.iter().map(|log| to_jsonl(log)).collect();
    (csv, Some(fnv1a(jsonl.as_bytes())))
}

/// Digests as the table writes them.
fn show((csv, log): (u64, Option<u64>)) -> String {
    let hex = |d: u64| {
        let h = format!("{d:016X}");
        format!("0x{}_{}_{}_{}", &h[..4], &h[4..8], &h[8..12], &h[12..])
    };
    let log = log.map_or("None".into(), |l| format!("Some({})", hex(l)));
    format!("{}, {log}", hex(csv))
}

#[test]
fn preset_rows_are_the_shipped_presets() {
    let mut bare: Vec<&str> = TABLE.iter().map(|row| row.1).collect();
    bare.retain(|args| !args.contains(' '));
    assert_eq!(bare, presets::NAMES);
}

#[test]
fn every_row_reproduces_its_digests_serially_and_on_four_workers() {
    let mut moved = Vec::new();
    for &(check, args, csv, log) in TABLE {
        if check == Release && cfg!(debug_assertions) {
            continue;
        }
        let grid = grid_of(args);
        for runner in [SweepRunner::serial(), SweepRunner::with_workers(4)] {
            let got = digests(args, &grid, &runner);
            if got != (csv, log) {
                let workers = runner.workers;
                moved.push(format!("`{args}` on {workers} workers: {}", show(got)));
            }
        }
        if log.is_some() {
            let mut plain = grid.clone();
            plain.base.observe = ObsConfig::default();
            let untraced = digests(args, &plain, &SweepRunner::serial()).0;
            if untraced != csv {
                moved.push(format!("`{args}` untraced: {}", show((untraced, None))));
            }
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
