#![forbid(unsafe_code)]
//! `augur-bench` — the experiment harness.
//!
//! One binary per paper artifact:
//!
//! | binary                | artifact |
//! |-----------------------|----------|
//! | `fig1_bufferbloat`    | Figure 1: TCP RTT blow-up on an LTE-like path |
//! | `tab1_convergence`    | Figure 2's parameter table: prior → posterior |
//! | `fig3_alpha_sweep`    | Figure 3: sequence number vs time across α |
//! | `txt1_simple_link`    | §4: single sender on an unknown link |
//! | `txt2_latency_penalty`| §4: latency penalty drains the buffer first |
//! | `ext_fairness`        | §3.5: two ISenders sharing a bottleneck (coexist-fairness preset) |
//! | `ext_vs_tcp`          | §3.5: ISender vs AIMD / TCP Reno / CUBIC (coexist-vs-tcp preset) |
//! | `ext_scaling`         | §5: exact enumeration vs particle filter |
//! | `ext_aqm`             | §3.5: AQM (RED/CoDel) vs deep FIFO under TCP |
//!
//! Each binary prints its figure as an ASCII chart, writes CSV under
//! `experiments/`, prints its shape checks — the paper-shape acceptance
//! criteria of the figure — and exits 1 if any of them failed: its `main`
//! returns [`figure`]'s exit code, and only `figure` hands out the
//! [`Checks`] a check is made on.

use augur_trace::Series;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where experiment CSVs land (override with `AUGUR_OUT`).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("AUGUR_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("experiments"));
    fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Write series to `<out_dir>/<name>.csv` (wide format) and report the
/// path on stdout.
pub fn save_csv(name: &str, series: &[&Series]) {
    let path = out_dir().join(format!("{name}.csv"));
    let file = fs::File::create(&path).expect("create csv");
    augur_trace::write_wide(std::io::BufWriter::new(file), series).expect("write csv");
    println!("  wrote {}", path.display());
}

/// The shape checks of one figure run: created by [`figure`] only, so a
/// check can only be made where its outcome reaches the exit status.
#[derive(Debug)]
pub struct Checks {
    failed: bool,
}

impl Checks {
    /// Render a one-line pass/fail check and remember a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.failed |= !ok;
        println!("  [{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    }
}

/// Run a figure binary's body and turn its shape checks into the process
/// exit status: failure if any check failed, so a figure that lost the
/// paper's shape fails its caller. Every figure `main` is
/// `fn main() -> ExitCode { figure(..) }`.
#[must_use = "return it from `main`: it is the figure's exit status"]
pub fn figure(body: impl FnOnce(&mut Checks)) -> ExitCode {
    let mut checks = Checks { failed: false };
    body(&mut checks);
    if checks.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
