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
//! criteria of the figure — and exits 1 if any of them failed.

use augur_trace::Series;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// Whether any [`check`] of this process has failed. `Relaxed`: the flag
/// publishes nothing but itself.
static CHECK_FAILED: AtomicBool = AtomicBool::new(false);

/// Render a one-line pass/fail check and remember a failure for
/// [`finish`].
pub fn check(name: &str, ok: bool, detail: impl std::fmt::Display) {
    if !ok {
        CHECK_FAILED.store(true, Ordering::Relaxed);
    }
    println!("  [{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
}

/// The last call of every figure binary's `main`: exit 1 if any shape
/// check failed, so a figure that lost the paper's shape fails its caller.
pub fn finish() {
    if CHECK_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}
