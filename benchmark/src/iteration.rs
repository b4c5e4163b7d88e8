//! One iteration: what `sweep --spec <file> --workers 1` does after
//! process start, with the CSV kept in memory, plus the checks that
//! compare iterations with one another.

use crate::spans::span;
use crate::workloads::Workload;
use augur_scenario::{
    execute_run_traced_in, load_grid, PriorCache, RunArtifact, RunSpec, RunStatus, SweepReport,
    SweepRunner,
};
use std::path::Path;

/// What one iteration produced.
pub struct Iteration {
    pub report: SweepReport,
    pub csv: Vec<u8>,
}

fn csv_of(report: &SweepReport) -> Result<Vec<u8>, String> {
    let mut csv = Vec::new();
    report
        .write_csv(&mut csv)
        .map_err(|e| format!("cannot serialize the report: {e}"))?;
    Ok(csv)
}

fn load_runs(spec_path: &Path) -> Result<Vec<RunSpec>, String> {
    let grid = load_grid(spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    Ok(grid.expand())
}

/// The untraced iteration: the stock serial runner, nothing in between.
pub fn iterate(spec_path: &Path) -> Result<Iteration, String> {
    let runs = load_runs(spec_path)?;
    let report = SweepRunner::serial().run(&runs);
    let csv = csv_of(&report)?;
    Ok(Iteration { report, csv })
}

/// The same iteration taken apart into the public calls the serial
/// runner makes, one span around each. Also returns every run's
/// artifact, which the layer probes compare their own runs with.
pub fn iterate_traced(
    spec_path: &Path,
    iteration: usize,
) -> Result<(Iteration, Vec<RunSpec>, Vec<RunArtifact>), String> {
    span("bench.iteration", Some(iteration), || {
        let grid = span("scenario.load_grid", None, || load_grid(spec_path))
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        let runs = span("scenario.expand", None, || grid.expand());
        let priors = span("scenario.prior_cache", None, || PriorCache::for_runs(&runs));
        let (summaries, artifacts) = runs
            .iter()
            .map(|run| {
                span("scenario.execute_run", Some(run.index), || {
                    execute_run_traced_in(run, &priors)
                })
            })
            .unzip();
        let report = SweepReport { runs: summaries };
        let csv = span("scenario.report", None, || csv_of(&report))?;
        Ok((Iteration { report, csv }, runs, artifacts))
    })
}

/// A named check that did not hold.
pub type Failures = Vec<String>;

/// Checks on one iteration by itself.
pub fn check_alone(w: &Workload, it: &Iteration, failures: &mut Failures) {
    for r in &it.report.runs {
        if r.status != RunStatus::Ok {
            failures.push(format!(
                "every-run-ok: run {} ended {}",
                r.index,
                r.status.label()
            ));
        }
        if r.delivered > r.sends {
            failures.push(format!(
                "delivered-le-sends: run {} delivered {} of {} sent",
                r.index, r.delivered, r.sends
            ));
        }
    }
    let updates = it.report.total_work().hypothesis_updates;
    if w.belief_free && updates != 0 {
        failures.push(format!(
            "belief-free: {updates} hypothesis updates on a workload without a belief"
        ));
    }
}

/// The shipped sweep byte for byte: the generated spec must expand to
/// exactly the runs `sweep <name>` builds from its preset constructors.
pub fn check_against_preset(w: &Workload, spec_path: &Path, failures: &mut Failures) {
    match load_runs(spec_path) {
        Ok(runs) => {
            if format!("{runs:?}") != format!("{:?}", w.preset_grid().expand()) {
                failures.push("shipped-sweep: generated spec and preset expand differently".into());
            }
        }
        Err(e) => failures.push(format!("shipped-sweep: {e}")),
    }
}

/// Operations of one timed iteration that failed: a run that did not end
/// `ok`, or whose CSV row is not the cold iteration's. Also records the
/// whole-iteration checks (CSV bytes and work counters identical).
pub fn failed_operations(
    cold: &Iteration,
    timed: &Iteration,
    label: &str,
    failures: &mut Failures,
) -> u64 {
    if timed.csv != cold.csv {
        failures.push(format!(
            "csv-identical: {label} differs from the cold iteration"
        ));
    }
    if timed.report.total_work() != cold.report.total_work() {
        failures.push(format!(
            "work-identical: {label} counted {:?}, the cold iteration {:?}",
            timed.report.total_work(),
            cold.report.total_work()
        ));
    }
    // Row 0 is the header; row i + 1 is the i-th run executed.
    let mut cold_rows = cold.csv.split(|b| *b == b'\n').skip(1);
    let mut timed_rows = timed.csv.split(|b| *b == b'\n').skip(1);
    timed
        .report
        .runs
        .iter()
        .filter(|r| {
            let same_row =
                matches!((cold_rows.next(), timed_rows.next()), (Some(a), Some(b)) if a == b);
            r.status != RunStatus::Ok || !same_row
        })
        .count() as u64
}

/// Low 48 bits of 64-bit FNV-1a: small enough to print as an exact
/// number, wide enough to tell two CSVs apart.
pub fn digest48(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & 0xffff_ffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_truncated() {
        // FNV-1a 64 of "" and "a" are the published test vectors.
        assert_eq!(digest48(b""), 0xcbf2_9ce4_8422_2325 & 0xffff_ffff_ffff);
        assert_eq!(digest48(b"a"), 0xaf63_dc4c_8601_ec8c & 0xffff_ffff_ffff);
    }
}
