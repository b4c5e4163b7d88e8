#![forbid(unsafe_code)]
//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark all                  every workload, untraced then traced, each in a child process
//! benchmark run <workload>       the untraced run: end-to-end metrics
//! benchmark trace <workload>     the traced run: layer metrics and benchmark/out/spans-<workload>.jsonl
//! benchmark aa                   `all` twice; fails if the two disagree by more than the bounds
//! benchmark manifest             print the text of BENCHMARK.json
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                the form the benchmark driver calls: `run` or `trace`
//! options: --seed <u64> (written over the spec's base_seed; 0 = the shipped sweep byte for byte)
//!          --seconds <n> (scales the fixed iteration counts; default 30)
//! ```

mod iteration;
mod metrics;
mod probes;
mod procfs;
mod run;
mod spans;
mod stats;
mod workloads;

use metrics::{result_json, END_TO_END};
use run::{Options, Outcome};
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Workload, NOMINAL_SECONDS, WORKLOADS};

#[derive(Debug, PartialEq, Eq)]
enum Cmd {
    All,
    Aa,
    Manifest,
    Run(String),
    Trace(String),
}

fn parse_args(args: &[String]) -> Result<(Cmd, Options), String> {
    let mut opts = Options {
        seed: 0,
        seconds: NOMINAL_SECONDS,
    };
    let mut positional = Vec::new();
    let mut workload = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg} takes a whole number, not {text:?}"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = number(value("a seed")?)?,
            "--seconds" => opts.seconds = number(value("a number of seconds")?)?,
            "--workload" => workload = Some(value("a workload name")?.to_string()),
            "--trace" => trace = Some(number(value("0 or 1")?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word => positional.push(word),
        }
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let cmd = match (positional.as_slice(), workload, trace) {
        ([], Some(w), Some(0) | None) => Cmd::Run(w),
        ([], Some(w), Some(1)) => Cmd::Trace(w),
        (["all"], None, None) => Cmd::All,
        (["aa"], None, None) => Cmd::Aa,
        (["manifest"], None, None) => Cmd::Manifest,
        (["run", w], None, None) => Cmd::Run(w.to_string()),
        (["trace", w], None, None) => Cmd::Trace(w.to_string()),
        _ => return Err("expected one of: all | run <workload> | trace <workload> | aa | manifest | --workload <name> [--trace <0|1>]".to_string()),
    };
    Ok((cmd, opts))
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })
}

/// Print one run's outcome: a line per metric, per note and per failed
/// check, then the result line. True iff every check held.
fn report(w: &Workload, outcome: &Outcome) -> bool {
    for m in &outcome.metrics {
        println!("metric {} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("note {} {note}", w.name);
    }
    for failure in &outcome.failures {
        eprintln!("check {} FAILED {failure}", w.name);
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!(
            "check {} FAILED finite-metrics: a metric is not a number",
            w.name
        );
    }
    let correct = outcome.failures.is_empty() && outcome.failed == 0 && finite;
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    correct
}

/// One `metric` line of a child's output.
struct Reading {
    workload: String,
    name: String,
    value: f64,
    unit: String,
}

/// Run this executable again with `args`, pass its output through line
/// by line, and collect its metric lines. `Err` if the child failed.
fn child(args: &[&str], opts: Options) -> Result<Vec<Reading>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {args:?}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut readings = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read from {args:?}: {e}"))?;
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        if let ["metric", workload, name, value, unit] = fields.as_slice() {
            readings.push(Reading {
                workload: workload.to_string(),
                name: name.to_string(),
                value: value
                    .parse()
                    .map_err(|_| format!("unreadable line: {line}"))?,
                unit: unit.to_string(),
            });
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for {args:?}: {e}"))?;
    if status.success() {
        Ok(readings)
    } else {
        Err(format!("{args:?} failed"))
    }
}

/// Every workload, untraced then traced, each run in its own process.
fn all(opts: Options) -> Result<Vec<Reading>, String> {
    let mut readings = Vec::new();
    for w in &WORKLOADS {
        readings.extend(child(&["run", w.name], opts)?);
        readings.extend(child(&["trace", w.name], opts)?);
    }
    Ok(readings)
}

/// Is a metric with this unit a pure function of the inputs? Counts,
/// sizes and digests are; times and ratios of times are not.
fn repeats_exactly(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "id")
}

/// The A/A check: two sets of runs of the same code must agree.
fn aa(opts: Options) -> Result<(), String> {
    let first = all(opts)?;
    let second = all(opts)?;
    let mut offending = Vec::new();
    for a in &first {
        let b = second
            .iter()
            .find(|b| b.workload == a.workload && b.name == a.name)
            .ok_or_else(|| format!("second set lacks {} {}", a.workload, a.name))?;
        let bound = END_TO_END
            .iter()
            .find(|(m, _)| m.name == a.name)
            .map(|(_, b)| *b);
        let verdict = match bound {
            Some(bound)
                if b.value > a.value * (1.0 + bound) || a.value > b.value * (1.0 + bound) =>
            {
                Some(format!("differs by more than {bound}"))
            }
            None if repeats_exactly(&a.unit) && a.value != b.value => {
                Some("is a count and differs".into())
            }
            _ => None,
        };
        if let Some(verdict) = verdict {
            offending.push(format!(
                "{} {}: {} vs {} {verdict}",
                a.workload, a.name, a.value, b.value
            ));
        }
    }
    if offending.is_empty() {
        println!("aa: {} metrics agree between the two sets", first.len());
        Ok(())
    } else {
        Err(format!(
            "aa: the two sets disagree:\n  {}",
            offending.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(cmd, opts)| match cmd {
        Cmd::All => all(opts).map(|_| true),
        Cmd::Aa => aa(opts).map(|()| true),
        Cmd::Manifest => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Cmd::Run(name) => {
            let w = workload(&name)?;
            run::untraced(w, opts, started).map(|o| report(w, &o))
        }
        Cmd::Trace(name) => {
            let w = workload(&name)?;
            run::traced(w, opts, started).map(|o| report(w, &o))
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<(Cmd, Options), String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_selects_the_run_kind() {
        let (cmd, opts) = parse(&[
            "--workload",
            "fig3",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(cmd, Cmd::Run("fig3".into()));
        assert_eq!((opts.seed, opts.seconds), (7, 20));
        let (cmd, _) = parse(&["--workload", "fig3", "--trace", "1"]).unwrap();
        assert_eq!(cmd, Cmd::Trace("fig3".into()));
    }

    #[test]
    fn subcommands_take_the_same_options() {
        let (cmd, opts) = parse(&["trace", "replay-cellular", "--seed", "9"]).unwrap();
        assert_eq!(cmd, Cmd::Trace("replay-cellular".into()));
        assert_eq!((opts.seed, opts.seconds), (9, NOMINAL_SECONDS));
        assert_eq!(parse(&["aa", "--seed", "3"]).unwrap().0, Cmd::Aa);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["run"]).is_err());
        assert!(parse(&["all", "--workload", "fig3"]).is_err());
        assert!(parse(&["run", "fig3", "--seed"]).is_err());
        assert!(parse(&["run", "fig3", "--seed", "-1"]).is_err());
        assert!(parse(&["run", "fig3", "--seconds", "0"]).is_err());
        assert!(parse(&["run", "fig3", "--bogus"]).is_err());
        assert!(parse(&["--workload", "fig3", "--trace", "2"]).is_err());
    }

    #[test]
    fn every_layer_unit_is_classed_as_repeating_or_timed() {
        for m in &metrics::PER_LAYER {
            assert!(
                repeats_exactly(m.unit) || matches!(m.unit, "s" | "us" | "ratio"),
                "{} has the unclassed unit {}",
                m.name,
                m.unit
            );
        }
    }
}
