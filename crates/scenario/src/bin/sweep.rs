#![forbid(unsafe_code)]
//! `sweep` — run any preset or spec-file parameter sweep from the
//! command line.
//!
//! ```sh
//! cargo run --release --bin sweep -- fig3
//! cargo run --release --bin sweep -- fig3 --duration 60 --branches 2000 --workers 1
//! cargo run --release --bin sweep -- --spec experiments/specs/fig3.toml
//! cargo run --release --bin sweep -- --spec my_experiment.toml --check
//! cargo run --release --bin sweep -- scaling --jsonl
//! ```
//!
//! A preset (see `augur_scenario::presets::NAMES`) is the spec file
//! `experiments/specs/<name>.toml` compiled into the binary, so it runs
//! from any directory; give it positionally or via `--preset`.
//! `--spec <file.toml>` loads a grid from a spec file on disk instead —
//! to change a shipped sweep, edit its file. `--check` parses,
//! validates, and expands the grid without running it.
//!
//! `--duration`, `--branches`, and `--replicates` override the grid the
//! same way for presets and spec files, and are rejected when the grid
//! has nothing to apply them to (a silently ignored parameter would
//! yield a sweep that does not match what was asked for). Spec-file
//! parse and validation failures exit with code 2 — distinct from a run
//! failure — as `file:line:col: message`; that covers every rule of
//! `SweepGrid::validate` (workload × sender × topology, an axis with no
//! knob to turn), which blames a section or an `[[axis]]` header.
//!
//! Every run's seed derives from `(base seed, run index)`, so the CSV is
//! byte-identical for any `--workers` value — `--workers 1` is the
//! reference execution.

use augur_scenario::config::positive_seconds;
use augur_scenario::{load_grid, presets, SweepGrid, SweepRunner};
use augur_sim::Dur;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::exit;

/// Where sweep CSVs land (override with `AUGUR_OUT`).
fn out_dir() -> PathBuf {
    let dir = std::env::var("AUGUR_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("experiments"));
    fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Where the grid comes from.
enum Source {
    Preset(String),
    Spec(PathBuf),
}

struct Options {
    source: Option<Source>,
    check: bool,
    workers: Option<usize>,
    duration: Option<Dur>,
    branches: Option<usize>,
    replicates: Option<usize>,
    jsonl: bool,
    trace_events: Option<PathBuf>,
    belief_snapshots: Option<Dur>,
    progress: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--preset] <{}>\n\
         \x20      sweep --spec <file.toml>\n\
         \x20 options: [--check] [--workers N] [--duration SECS] [--branches B] \
         [--replicates K] [--jsonl] [--trace-events [DIR]] [--belief-snapshots SECS] \
         [--progress]\n\
         \x20   --workers N: worker threads, at least 1; values above the \
         expanded run count are clamped to it (extra workers would idle)\n\
         \x20   --trace-events [DIR]: record each run's structured event log as \
         DIR/run-<index>.jsonl (default DIR: <out>/<name>_events)\n\
         \x20   --belief-snapshots SECS: emit posterior snapshots every SECS of sim \
         time into the event logs (implies --trace-events output)\n\
         \x20   --progress: completed-run ticker on stderr (report bytes unchanged)",
        presets::NAMES.join("|")
    );
    exit(2)
}

/// A time flag's value, by the rule every time in a spec file follows:
/// `--duration` and `--belief-snapshots` must name a positive time that
/// fits in 64-bit microseconds.
fn flag_seconds(name: &str, raw: &str) -> Result<Dur, String> {
    let secs: f64 = raw
        .parse()
        .map_err(|_| format!("bad value {raw:?} for {name}"))?;
    positive_seconds(secs).map_err(|rule| format!("{name} {rule}"))
}

fn parse_args() -> Options {
    parse_from(std::env::args().skip(1))
}

fn parse_from(args: impl Iterator<Item = String>) -> Options {
    let mut args = args.peekable();
    let mut opts = Options {
        source: None,
        check: false,
        workers: None,
        duration: None,
        branches: None,
        replicates: None,
        jsonl: false,
        trace_events: None,
        belief_snapshots: None,
        progress: false,
    };
    // The preset names the sweep; accept it positionally as the first
    // argument or anywhere as --preset/--spec.
    if matches!(args.peek(), Some(p) if !p.starts_with("--")) {
        opts.source = Some(Source::Preset(args.next().unwrap()));
    }
    while let Some(flag) = args.next() {
        // `--trace-events` takes an optional directory: consume the next
        // argument only when it does not look like another flag.
        if flag == "--trace-events" {
            let dir = match args.peek() {
                Some(v) if !v.starts_with("--") => PathBuf::from(args.next().unwrap()),
                _ => PathBuf::new(), // empty = default <out>/<name>_events
            };
            opts.trace_events = Some(dir);
            continue;
        }
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        fn numeric<T: std::str::FromStr>(name: &str, raw: String) -> T {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("bad value {raw:?} for {name}");
                usage()
            })
        }
        // Zero workers or replicates run nothing; a zero branch cap
        // leaves the belief nothing to normalize.
        fn at_least_one(name: &str, raw: String) -> usize {
            let n: usize = numeric(name, raw);
            if n == 0 {
                eprintln!("{name} must be at least 1");
                usage()
            }
            n
        }
        fn time(name: &str, raw: String) -> Dur {
            flag_seconds(name, &raw).unwrap_or_else(|message| {
                eprintln!("{message}");
                usage()
            })
        }
        let set_source = |opts: &mut Options, source: Source| {
            if opts.source.is_some() {
                eprintln!("give exactly one of a preset or --spec");
                usage()
            }
            opts.source = Some(source);
        };
        match flag.as_str() {
            "--preset" => {
                let name = value("--preset");
                set_source(&mut opts, Source::Preset(name));
            }
            "--spec" => {
                let path = value("--spec");
                set_source(&mut opts, Source::Spec(PathBuf::from(path)));
            }
            "--check" => opts.check = true,
            "--workers" => opts.workers = Some(at_least_one("--workers", value("--workers"))),
            "--duration" => opts.duration = Some(time("--duration", value("--duration"))),
            "--branches" => opts.branches = Some(at_least_one("--branches", value("--branches"))),
            "--replicates" => {
                opts.replicates = Some(at_least_one("--replicates", value("--replicates")))
            }
            "--jsonl" => opts.jsonl = true,
            "--belief-snapshots" => {
                opts.belief_snapshots =
                    Some(time("--belief-snapshots", value("--belief-snapshots")))
            }
            "--progress" => opts.progress = true,
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage()
            }
        }
    }
    opts
}

/// Apply `--duration` / `--branches` / `--replicates` to the grid — the
/// same semantics for presets and spec files — rejecting any override
/// the grid cannot consume.
fn apply_overrides(grid: &mut SweepGrid, opts: &Options, label: &str) {
    if let Some(duration) = opts.duration {
        grid.set_duration(duration);
    }
    if let Some(b) = opts.branches {
        if !grid.set_max_branches(b) {
            eprintln!("{label} does not take --branches (no exact-belief sender in the grid)");
            usage()
        }
    }
    if let Some(k) = opts.replicates {
        if !grid.set_replicates(k) {
            eprintln!("{label} does not take --replicates (no seeds axis in the grid)");
            usage()
        }
    }
}

fn main() {
    let opts = parse_args();
    let (mut grid, label) = match &opts.source {
        Some(Source::Preset(name)) => match presets::by_name(name) {
            Some(grid) => (grid, format!("preset {name:?}")),
            None => {
                eprintln!("unknown preset {name:?}");
                usage()
            }
        },
        Some(Source::Spec(path)) => match load_grid(path) {
            Ok(grid) => (grid, format!("spec {}", path.display())),
            Err(e) => {
                // Parse/validation failure: exit 2, distinct from a run
                // failure, naming the file and position. IO errors carry
                // no position (and already name the path).
                if e.line == 0 {
                    eprintln!("{}", e.message);
                } else {
                    eprintln!("{}:{e}", path.display());
                }
                exit(2)
            }
        },
        None => usage(),
    };
    apply_overrides(&mut grid, &opts, &label);
    // Observability flags arm the base spec before expansion, so every
    // expanded run inherits them (a spec file's [observe] table arms the
    // same fields without any flag).
    if opts.trace_events.is_some() {
        grid.base.observe.trace_events = true;
    }
    if let Some(every) = opts.belief_snapshots {
        grid.base.observe.snapshot_every = Some(every);
    }

    // `load_grid` has validated the file as written; validate again the
    // grid as it will run — a preset, or either one under the overrides
    // above — so nothing invalid reaches `expand()` or a worker.
    if let Err(rule) = grid.validate() {
        eprintln!("{label}: {rule}");
        exit(2)
    }

    if opts.check {
        // The run count `validate` checked, without building every run.
        println!(
            "OK {label}: scenario {:?}, {} runs ({}), base seed {:#x}",
            grid.base.name,
            grid.len(),
            if grid.axes.is_empty() {
                "no axes".to_string()
            } else {
                grid.axes
                    .iter()
                    .map(|a| format!("{}×{}", a.name(), a.len()))
                    .collect::<Vec<_>>()
                    .join(" ")
            },
            grid.base.base_seed
        );
        return;
    }
    let runs = grid.expand();
    // Clamp the worker count to the run count: a sweep never benefits
    // from more threads than runs, and silently spawning idle workers
    // would misreport the execution shape.
    let configured = match opts.workers {
        Some(n) => SweepRunner::with_workers(n),
        None => SweepRunner::parallel(),
    };
    let workers = configured.effective_workers(runs.len());
    if opts.workers.is_some_and(|n| n > workers) {
        eprintln!(
            "note: --workers {} exceeds the {} expanded runs; using {workers}",
            opts.workers.unwrap(),
            runs.len()
        );
    }
    // The ticker replaces the per-run lines — both are stderr-only, but
    // interleaving a carriage-return ticker with full lines is noise.
    let runner = if opts.progress {
        SweepRunner::with_workers(workers).progress()
    } else {
        SweepRunner::with_workers(workers).verbose()
    };
    println!(
        "SWEEP {}: {} runs ({}), {} workers, base seed {:#x}",
        grid.base.name,
        runs.len(),
        grid.axes
            .iter()
            .map(|a| format!("{}×{}", a.name(), a.len()))
            .collect::<Vec<_>>()
            .join(" "),
        runner.workers,
        grid.base.base_seed
    );

    let observing = grid.base.observe.active();
    let (report, event_logs) = if observing {
        let (report, events) = runner.run_observed(&runs);
        (report, Some(events))
    } else {
        (runner.run(&runs), None)
    };
    println!("\n{}", report.render_text());

    let csv_path = out_dir().join(format!("{}_sweep.csv", grid.base.name));
    let file = fs::File::create(&csv_path).expect("create sweep csv");
    report
        .write_csv(BufWriter::new(file))
        .expect("write sweep csv");
    println!("  wrote {}", csv_path.display());
    if opts.jsonl {
        let path = out_dir().join(format!("{}_sweep.jsonl", grid.base.name));
        let file = fs::File::create(&path).expect("create sweep jsonl");
        report
            .write_jsonl(BufWriter::new(file))
            .expect("write sweep jsonl");
        println!("  wrote {}", path.display());
    }
    if let Some(event_logs) = event_logs {
        let dir = match &opts.trace_events {
            Some(d) if !d.as_os_str().is_empty() => d.clone(),
            _ => out_dir().join(format!("{}_events", grid.base.name)),
        };
        fs::create_dir_all(&dir).expect("create events dir");
        for (i, events) in event_logs.iter().enumerate() {
            let path = dir.join(format!("run-{i}.jsonl"));
            fs::write(&path, augur_obs::to_jsonl(events)).expect("write event log");
        }
        println!(
            "  wrote {} event logs ({} events) to {}",
            event_logs.len(),
            event_logs.iter().map(Vec::len).sum::<usize>(),
            dir.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Options {
        parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_positional_preset_and_workers() {
        let opts = parse(&["fig3", "--workers", "8", "--duration", "30"]);
        assert!(matches!(opts.source, Some(Source::Preset(ref p)) if p == "fig3"));
        assert_eq!(opts.workers, Some(8));
        assert_eq!(opts.duration, Some(Dur::from_secs(30)));
    }

    #[test]
    fn parses_spec_and_flags() {
        let opts = parse(&["--spec", "x.toml", "--check", "--jsonl"]);
        assert!(matches!(opts.source, Some(Source::Spec(_))));
        assert!(opts.check);
        assert!(opts.jsonl);
        assert_eq!(opts.workers, None);
    }

    #[test]
    fn time_flags_follow_the_spec_time_rule() {
        assert_eq!(flag_seconds("--duration", "30"), Ok(Dur::from_secs(30)));
        // A wrapped duration, a cadence rounded to zero (snapshots off) and
        // a saturated one each used to run.
        for (flag, raw, rule) in [
            ("--duration", "18446744073710", "does not fit"),
            ("--belief-snapshots", "1e-7", "must be > 0 seconds"),
            ("--belief-snapshots", "1e300", "does not fit"),
        ] {
            let message = flag_seconds(flag, raw).unwrap_err();
            assert!(message.starts_with(flag), "{message}");
            assert!(message.contains(rule), "{message}");
        }
    }

    #[test]
    fn workers_clamp_to_run_count() {
        // The clamp main() applies: requested workers never exceed the
        // expanded run count (and never fall below one).
        let runner = SweepRunner::with_workers(64);
        assert_eq!(runner.effective_workers(4), 4);
        assert_eq!(runner.effective_workers(64), 64);
        assert_eq!(runner.effective_workers(1000), 64);
        assert_eq!(runner.effective_workers(0), 1);
    }
}
