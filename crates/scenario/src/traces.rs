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
//! # Shipped traces
//!
//! Real measured traces (e.g. the Verizon LTE download behind the
//! paper's Figure 1) are not redistributable, so the repo ships
//! synthetic LTE-like traces. Each committed CSV is the only definition
//! of its trace, and its header comment says how it was made; to change
//! a trace, edit its file. [`SHIPPED`] compiles the files in, so a
//! preset that names one reads no file. Both are authored to loop: the
//! final sample closes the cycle.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::config::{self, ConfigError};
use augur_sim::{BitRate, Dur};

/// Every shipped trace: its file stem under `experiments/traces/` and
/// the text of that file.
pub const SHIPPED: [(&str, &str); 2] = [
    (
        "lte-fade",
        include_str!("../../../experiments/traces/lte-fade.csv"),
    ),
    (
        "lte-scatter",
        include_str!("../../../experiments/traces/lte-scatter.csv"),
    ),
];

/// The text of the shipped trace `experiments/traces/<stem>.csv`.
pub fn shipped_text(stem: &str) -> Option<&'static str> {
    SHIPPED
        .iter()
        .find(|(s, _)| *s == stem)
        .map(|(_, text)| *text)
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
        let t = config::seconds(secs).map_err(|m| err(lineno, indent + 1, format!("time {m}")))?;
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
    fn shipped_traces_decode_and_loop() {
        for (stem, text) in SHIPPED {
            let samples = parse_trace_csv(text).unwrap_or_else(|e| panic!("{stem}.csv:{e}"));
            assert!(
                samples.len() >= 2,
                "{stem}: loopable traces need >= 2 samples"
            );
        }
        // The two traces cover different cycle lengths.
        let last = |stem| {
            parse_trace_csv(shipped_text(stem).unwrap())
                .unwrap()
                .last()
                .unwrap()
                .0
        };
        assert_eq!(last("lte-fade"), Dur::from_secs(60));
        assert_eq!(last("lte-scatter"), Dur::from_secs(45));
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

        let huge_time = "time_s,bps\n0.0,1000\n 1e300,900\n";
        let e = parse_trace_csv(huge_time).unwrap_err();
        assert!(e.message.contains("does not fit in 64-bit"), "got: {e}");
        assert_eq!((e.line, e.col), (3, 2));
    }
}
