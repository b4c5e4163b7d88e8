//! Rate-trace files: the CSV loader behind the spec schema's
//! `rate = { kind = "trace", … }`, and the deterministic synthetic
//! LTE-like traces shipped under `experiments/traces/`.
//!
//! # File format
//!
//! A trace is a CSV of `(time, rate)` samples, one per line:
//!
//! ```text
//! # comment lines and blank lines are ignored
//! time_s,bps
//! 0.0,4000000
//! 0.5,3100000
//! 1.0,250000
//! ```
//!
//! The `time_s,bps` header is mandatory (it makes the file
//! self-describing), times are seconds from the start of the trace
//! (first sample at 0, strictly increasing, rounded to the simulator's
//! microsecond grid), and rates are whole bits per second (positive).
//! Sample `i`'s rate applies until sample `i + 1`'s instant; the spec's
//! `end` policy (`loop` / `hold-last`) decides what happens after the
//! last sample. Loader errors carry the CSV's own line and column, and
//! the spec decoder prefixes them with the trace file's path.
//!
//! # Shipped synthetic traces
//!
//! Real measured traces (e.g. the Verizon LTE download behind the
//! paper's Figure 1) are not redistributable, so the repo ships
//! *synthetic* LTE-like traces produced by the deterministic generators
//! here — pure integer arithmetic over [`SimRng`], so the committed
//! files are reproducible bit-for-bit on any platform
//! (`sweep --export-traces` rewrites them; tests pin the equality).
//! Both are authored to loop: the final sample closes the cycle.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::config::ConfigError;
use augur_sim::{BitRate, Dur, SimRng};
use std::fmt::Write as _;

/// Every shipped synthetic trace, in the order `--export-traces` writes
/// them. Each name is the file stem under `experiments/traces/`.
pub const NAMES: [&str; 2] = ["lte-fade", "lte-scatter"];

/// The samples of a shipped trace, by file stem.
pub fn by_name(name: &str) -> Option<Vec<(Dur, BitRate)>> {
    match name {
        "lte-fade" => Some(lte_fade()),
        "lte-scatter" => Some(lte_scatter()),
        _ => None,
    }
}

/// `lte-fade`: a 60-second loop sampled every 500 ms — one deep, slow
/// fade from 4 Mbit/s down to 250 kbit/s and back (the cell-edge
/// drive-away-and-return profile), with ±10 % multiplicative jitter on
/// every sample.
pub fn lte_fade() -> Vec<(Dur, BitRate)> {
    let mut rng = SimRng::seed_from_u64(0xFADE);
    let (hi, lo) = (4_000_000u64, 250_000u64);
    let half = 60u64; // samples per half-cycle: 30 s down, 30 s up
    (0..=2 * half)
        .map(|i| {
            let base = if i <= half {
                hi - (hi - lo) * i / half
            } else {
                lo + (hi - lo) * (i - half) / half
            };
            let bps = base * rng.uniform_u64(900, 1_100) / 1_000;
            (Dur::from_millis(i * 500), BitRate::from_bps(bps))
        })
        .collect()
}

/// `lte-scatter`: a 45-second loop sampled every 250 ms — a fast
/// multiplicative random walk between 100 kbit/s and 8 Mbit/s, the
/// small-scale-fading counterpoint to `lte-fade`'s smooth excursion.
pub fn lte_scatter() -> Vec<(Dur, BitRate)> {
    let mut rng = SimRng::seed_from_u64(0x5CA7);
    let (floor, ceil) = (100_000u64, 8_000_000u64);
    let mut bps = 2_000_000u64;
    (0..=180u64)
        .map(|i| {
            let sample = (Dur::from_millis(i * 250), BitRate::from_bps(bps));
            bps = (bps * rng.uniform_u64(800, 1_250) / 1_000).clamp(floor, ceil);
            sample
        })
        .collect()
}

/// Format a float so parsing reads back the same `f64`: Rust's shortest
/// round-trip formatting, with a `.0` forced onto integral values.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The canonical CSV emission of a trace — what `--export-traces`
/// writes and [`parse_trace_csv`] reads back sample-for-sample.
pub fn trace_to_csv(name: &str, samples: &[(Dur, BitRate)]) -> String {
    let mut out = format!(
        "# Synthetic LTE-like rate trace `{name}` (see `augur_scenario::traces`);\n\
         # regenerate with `sweep --export-traces experiments/traces`.\n\
         time_s,bps\n"
    );
    for (t, r) in samples {
        let _ = writeln!(out, "{},{}", fmt_f64(t.as_secs_f64()), r.as_bps());
    }
    out
}

/// Parse trace-CSV text into validated samples. Errors are positioned
/// within the CSV text itself; callers loading a file prefix the path.
pub fn parse_trace_csv(src: &str) -> Result<Vec<(Dur, BitRate)>, ConfigError> {
    let err = |line: u32, col: u32, message: String| ConfigError { line, col, message };
    let mut samples: Vec<(Dur, BitRate)> = Vec::new();
    let mut saw_header = false;
    for (i, raw) in src.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = raw.trim_end();
        let indent = (raw.len() - raw.trim_start().len()) as u32;
        let body = line.trim_start();
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        if !saw_header {
            if body != "time_s,bps" {
                return Err(err(
                    lineno,
                    indent + 1,
                    format!("expected the `time_s,bps` header, found {body:?}"),
                ));
            }
            saw_header = true;
            continue;
        }
        let (time_field, bps_field) = body.split_once(',').ok_or_else(|| {
            err(
                lineno,
                indent + 1,
                format!("expected `time_s,bps`, found {body:?}"),
            )
        })?;
        let bps_col = indent + time_field.len() as u32 + 2;
        let secs: f64 = time_field.trim().parse().map_err(|_| {
            err(
                lineno,
                indent + 1,
                format!("bad time (seconds) {:?}", time_field.trim()),
            )
        })?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(err(
                lineno,
                indent + 1,
                format!("time must be >= 0 seconds, got {secs}"),
            ));
        }
        let bps: u64 = bps_field.trim().parse().map_err(|_| {
            err(
                lineno,
                bps_col,
                format!("bad rate (bits/s) {:?}", bps_field.trim()),
            )
        })?;
        if bps == 0 {
            return Err(err(lineno, bps_col, "rate must be positive".into()));
        }
        let t = Dur::from_secs_f64(secs);
        match samples.last() {
            None if t != Dur::ZERO => {
                return Err(err(
                    lineno,
                    indent + 1,
                    "the first sample must be at time 0".into(),
                ))
            }
            Some(&(prev, _)) if t <= prev => {
                return Err(err(
                    lineno,
                    indent + 1,
                    format!("sample times must be strictly increasing ({t} after {prev})"),
                ))
            }
            _ => {}
        }
        samples.push((t, BitRate::from_bps(bps)));
    }
    if samples.is_empty() {
        return Err(err(1, 1, "trace has no samples".into()));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_loopable() {
        for name in NAMES {
            let a = by_name(name).unwrap();
            let b = by_name(name).unwrap();
            assert_eq!(a, b, "{name}: generator must be deterministic");
            assert!(a.len() >= 2, "{name}: loopable traces need >= 2 samples");
            assert_eq!(a[0].0, Dur::ZERO, "{name}: first sample at 0");
            assert!(
                a.windows(2).all(|w| w[0].0 < w[1].0),
                "{name}: times must increase"
            );
        }
        // The two traces cover different cycle lengths and cadences.
        assert_eq!(lte_fade().last().unwrap().0, Dur::from_secs(60));
        assert_eq!(lte_scatter().last().unwrap().0, Dur::from_secs(45));
    }

    #[test]
    fn csv_round_trips_sample_for_sample() {
        for name in NAMES {
            let samples = by_name(name).unwrap();
            let csv = trace_to_csv(name, &samples);
            let parsed = parse_trace_csv(&csv).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(samples, parsed, "{name}: CSV round-trip");
        }
    }

    #[test]
    fn loader_errors_carry_csv_positions() {
        let missing_header = "0.0,1000\n";
        let e = parse_trace_csv(missing_header).unwrap_err();
        assert!(e.message.contains("time_s,bps"), "got: {e}");
        assert_eq!((e.line, e.col), (1, 1));

        let bad_rate = "time_s,bps\n0.0,1000\n0.5,fast\n";
        let e = parse_trace_csv(bad_rate).unwrap_err();
        assert!(e.message.contains("bad rate"), "got: {e}");
        assert_eq!((e.line, e.col), (3, 5));

        let not_increasing = "time_s,bps\n0.0,1000\n2.0,900\n1.0,800\n";
        let e = parse_trace_csv(not_increasing).unwrap_err();
        assert!(e.message.contains("strictly increasing"), "got: {e}");
        assert_eq!(e.line, 4);

        let late_start = "time_s,bps\n1.0,1000\n";
        let e = parse_trace_csv(late_start).unwrap_err();
        assert!(e.message.contains("first sample"), "got: {e}");

        let zero_rate = "time_s,bps\n0.0,0\n";
        let e = parse_trace_csv(zero_rate).unwrap_err();
        assert!(e.message.contains("must be positive"), "got: {e}");
    }
}
