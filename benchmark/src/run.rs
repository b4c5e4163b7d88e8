//! The two kinds of run of one workload: the untraced run that gives the
//! end-to-end metrics, and the traced run that gives the layer metrics.

use crate::iteration::{
    check_against_preset, check_alone, digest48, failed_operations, iterate, iterate_traced,
    Failures, Iteration,
};
use crate::metrics::{fill, Measured, END_TO_END, PER_LAYER};
use crate::probes::probe_runs;
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::spans::{self, durations_ns, seconds_of, self_times_ns};
use crate::stats::{fastest, iqr_rel, median};
use crate::workloads::{out_dir, Inputs, Workload};
use augur_scenario::RunStatus;
use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;

/// Traced iterations of a traced run. Odd, so that one of them is the
/// median.
const TRACED_ITERATIONS: usize = 3;

/// CPU time is read at most this many times in a timed phase, after
/// equal counts of iterations. `/proc/self/stat` counts in ticks of
/// 10 ms, which is 4 % of the short workloads' iterations, so one
/// reading has to span several of them.
const CPU_READINGS: usize = 10;

/// What selects and sizes a run, as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Written over the generated spec's `base_seed`; 0 keeps the
    /// shipped one.
    pub seed: u64,
    /// Scales the fixed iteration count.
    pub seconds: u64,
}

/// The outcome of one run of one workload.
pub struct Outcome {
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Failures,
    /// Lines for a reader, beyond the metrics themselves.
    pub notes: Vec<String>,
}

/// What both kinds of run start with: input generation, the cold
/// iteration, then the fixed count of timed iterations back to back.
struct TimedPhase {
    inputs: Inputs,
    cold: Iteration,
    /// Process start to the start of the first timed iteration.
    setup_s: f64,
    /// `VmHWM` at that moment, in MiB.
    setup_rss_mib: f64,
    /// Wall time of each timed iteration.
    walls: Vec<f64>,
    /// Process CPU per iteration, one value per CPU reading.
    cpus: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Failures,
}

/// `started` is when the process started.
fn timed_phase(w: &Workload, opts: Options, started: Instant) -> Result<TimedPhase, String> {
    let inputs = Inputs::generate(w, opts.seed)?;
    let cold = iterate(&inputs.spec_path)?;
    let setup_s = started.elapsed().as_secs_f64();
    let setup_rss_mib = peak_rss_mib()?;

    let count = w.timed_iterations(opts.seconds);
    let mut walls = Vec::with_capacity(count);
    let mut timed = Vec::with_capacity(count);
    let per_reading = count.div_ceil(CPU_READINGS);
    let mut cpus = Vec::with_capacity(count / per_reading);
    let mut cpu_before = cpu_seconds()?;
    for done in 1..=count {
        let t = Instant::now();
        timed.push(iterate(&inputs.spec_path)?);
        walls.push(t.elapsed().as_secs_f64());
        if done % per_reading == 0 {
            let cpu_now = cpu_seconds()?;
            cpus.push((cpu_now - cpu_before) / per_reading as f64);
            cpu_before = cpu_now;
        }
    }

    let mut failures = Failures::new();
    check_alone(w, &cold, &mut failures);
    if w.is_shipped_sweep(opts.seed) {
        check_against_preset(w, &inputs.spec_path, &mut failures);
    }
    let mut failed = 0;
    for (i, it) in timed.iter().enumerate() {
        failed += failed_operations(&cold, it, &format!("timed iteration {i}"), &mut failures);
    }
    Ok(TimedPhase {
        attempted: (count * cold.report.runs.len()) as u64,
        inputs,
        cold,
        setup_s,
        setup_rss_mib,
        walls,
        cpus,
        failed,
        failures,
    })
}

/// The untraced run: the timed phase and nothing else. The timed
/// iterations do bit-identical work, so whatever one of them took beyond
/// the fastest was the host's doing, not the program's: the times
/// reported are those of the least disturbed iteration (for CPU, of the
/// least disturbed reading). The median is printed beside them.
pub fn untraced(w: &Workload, opts: Options, started: Instant) -> Result<Outcome, String> {
    let phase = timed_phase(w, opts, started)?;
    let values = [
        ("wall_s", fastest(&phase.walls)),
        ("cpu_s", fastest(&phase.cpus)),
        ("peak_rss_mb", phase.setup_rss_mib),
        ("setup_s", phase.setup_s),
    ];
    let notes = vec![
        format!(
            "wall_s is the fastest of {} timed iterations (median {:.6} s, iqr/median {:.4})",
            phase.walls.len(),
            median(&phase.walls),
            iqr_rel(&phase.walls),
        ),
        format!(
            "cpu_s is the least of {} readings of CPU per iteration, each over {} iterations (median {:.6} s)",
            phase.cpus.len(),
            phase.walls.len() / phase.cpus.len(),
            median(&phase.cpus),
        ),
        format!(
            "peak_rss_mb is VmHWM after the cold iteration; after the last timed one it is {:.2} MiB",
            peak_rss_mib()?
        ),
    ];
    Ok(Outcome {
        metrics: fill(END_TO_END.iter().map(|(m, _)| m), &values),
        attempted: phase.attempted,
        failed: phase.failed,
        failures: phase.failures,
        notes,
    })
}

/// The traced run: the same timed phase (its `wall_s` is what the time
/// ratios below divide by), then the traced iterations, then the layer
/// probes. Writes the spans to `benchmark/out/`.
pub fn traced(w: &Workload, opts: Options, started: Instant) -> Result<Outcome, String> {
    let TimedPhase {
        inputs,
        cold,
        walls,
        mut attempted,
        mut failed,
        mut failures,
        ..
    } = timed_phase(w, opts, started)?;
    let mut traced_walls = Vec::new();
    let mut iterations = Vec::new();
    let mut last = None;
    for i in 0..TRACED_ITERATIONS {
        let from = spans::mark();
        let t = Instant::now();
        let (it, runs, artifacts) = iterate_traced(&inputs.spec_path, i)?;
        traced_walls.push(t.elapsed().as_secs_f64());
        iterations.push((from, spans::mark()));
        failed += failed_operations(&cold, &it, &format!("traced iteration {i}"), &mut failures);
        last = Some((runs, artifacts));
    }
    attempted += (TRACED_ITERATIONS * cold.report.runs.len()) as u64;

    let probes_from = spans::mark();
    let (runs, artifacts) = last.expect("at least one traced iteration");
    let counts = probe_runs(&runs, &artifacts, &mut failures);

    let all = spans::take_recorded();
    let path = out_dir()?.join(format!("spans-{}.jsonl", w.name));
    File::create(&path)
        .and_then(|f| spans::write_jsonl(&all, BufWriter::new(f)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Layer times all come from one iteration, the median traced one,
    // so that they add up to its wall time.
    let durations = durations_ns(&all);
    let traced_s = median(&traced_walls);
    let middle = traced_walls
        .iter()
        .position(|w| *w == traced_s)
        .expect("the median of an odd count is one of the values");
    let (from, to) = iterations[middle];
    let iteration_sum = |name: &str| seconds_of(&all[from..to], &durations[from..to], name);
    let runs_of_middle = all[from..to].iter().zip(&durations[from..to]);
    let slowest_run = runs_of_middle
        .filter(|(s, _)| s.name == "scenario.execute_run")
        .map(|(_, d)| *d)
        .max()
        .unwrap_or(0) as f64
        / 1e9;

    let probe_spans = &all[probes_from..];
    let probe_durations = &durations[probes_from..];
    let probe_self = &self_times_ns(&all)[probes_from..];
    let probe_sum = |name: &str| seconds_of(probe_spans, probe_durations, name);
    let calls = |name: &str| probe_spans.iter().filter(|s| s.name == name).count() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let work = cold.report.total_work();
    let sum = |f: fn(&augur_scenario::RunSummary) -> u64| {
        cold.report.runs.iter().map(f).sum::<u64>() as f64
    };
    let wall_s = fastest(&walls);
    let advance_s = probe_sum("inference.advance");
    let kernel_s = probe_sum("elements.forward_kernel");
    let kernel_passes = calls("elements.forward_kernel");
    let branches = &counts.branches;
    let mut values = vec![
        ("sim.events", work.events_processed as f64),
        ("elements.forwards", work.packets_forwarded as f64),
        ("elements.rate_integrations", work.rate_integrations as f64),
        ("elements.structures_built", work.structures_built as f64),
        (
            "inference.hypothesis_updates",
            work.hypothesis_updates as f64,
        ),
        ("inference.state_clones", work.state_clones as f64),
        ("inference.prior_enumerations", work.networks_built as f64),
        (
            "inference.particle_resamples",
            work.particle_resamples as f64,
        ),
        ("core.flow_wakes", work.flow_wakes as f64),
        ("scenario.runs", cold.report.runs.len() as f64),
        (
            "scenario.runs_failed",
            sum(|r| u64::from(r.status != RunStatus::Ok)),
        ),
        ("scenario.sim_sends", sum(|r| r.sends)),
        ("scenario.sim_delivered", sum(|r| r.delivered)),
        ("scenario.sim_overflow_drops", sum(|r| r.overflow_drops)),
        ("scenario.csv_bytes", cold.csv.len() as f64),
        ("scenario.csv_digest48", digest48(&cold.csv) as f64),
        (
            "scenario.us_per_event",
            ratio(wall_s * 1e6, work.events_processed as f64),
        ),
        ("scenario.load_grid_s", iteration_sum("scenario.load_grid")),
        ("scenario.expand_s", iteration_sum("scenario.expand")),
        (
            "scenario.prior_cache_s",
            iteration_sum("scenario.prior_cache"),
        ),
        (
            "scenario.execute_run_s",
            iteration_sum("scenario.execute_run"),
        ),
        ("scenario.execute_run_max_s", slowest_run),
        ("scenario.report_s", iteration_sum("scenario.report")),
        ("inference.advance_s", advance_s),
        ("inference.advance_calls", calls("inference.advance")),
        ("inference.inject_s", probe_sum("inference.inject")),
        (
            "inference.branches_max",
            branches.iter().copied().max().unwrap_or(0) as f64,
        ),
        (
            "inference.branches_mean",
            ratio(branches.iter().sum::<usize>() as f64, branches.len() as f64),
        ),
        (
            "inference.us_per_hypothesis_update",
            ratio(advance_s * 1e6, work.hypothesis_updates as f64),
        ),
        ("core.planner_decide_s", probe_sum("core.planner_decide")),
        ("core.decide_calls", calls("core.planner_decide")),
        (
            "core.drive_self_s",
            seconds_of(probe_spans, probe_self, "core.drive"),
        ),
        ("core.aimd_on_wake_s", probe_sum("core.aimd_on_wake")),
        ("tcp.on_wake_s", probe_sum("tcp.on_wake")),
        (
            "topo.compile_s",
            ratio(probe_sum("topo.compile"), calls("topo.compile")),
        ),
        ("elements.forward_kernel_s", ratio(kernel_s, kernel_passes)),
        (
            "elements.us_per_forward",
            ratio(kernel_s * 1e6, counts.kernel_forwards as f64),
        ),
        ("bench.wall_iqr_rel", iqr_rel(&walls)),
        (
            "bench.trace_overhead_ratio",
            fastest(&traced_walls) / wall_s,
        ),
    ];
    // Driver self time per wake, one metric per population size.
    for m in PER_LAYER.iter() {
        let Some(n) = m.name.strip_prefix("core.drive_self_us_per_wake.n") else {
            continue;
        };
        let of_size = counts
            .many_flow_runs
            .iter()
            .filter(|r| r.flows.to_string() == n);
        let (mut self_ns, mut wakes) = (0, 0);
        for r in of_size {
            let drives = probe_spans.iter().zip(probe_self);
            self_ns += drives
                .filter(|(s, _)| s.name == "core.drive" && s.run == Some(r.run))
                .map(|(_, t)| *t)
                .sum::<u64>();
            wakes += r.wakes;
        }
        values.push((m.name, ratio(self_ns as f64 / 1e3, wakes as f64)));
    }

    let notes = vec![
        format!(
            "{} spans of {TRACED_ITERATIONS} traced iterations and the probes are in {}",
            all.len(),
            path.display()
        ),
        format!(
            "layer times are those of the median traced iteration; counts are one iteration's; \
             the time ratios divide by the fastest of {} untraced timed iterations run first",
            walls.len()
        ),
    ];
    Ok(Outcome {
        metrics: fill(&PER_LAYER, &values),
        attempted,
        failed,
        failures,
        notes,
    })
}
