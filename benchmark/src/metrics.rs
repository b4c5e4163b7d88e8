//! The metric names, units, directions and regression bounds, and the
//! `BENCHMARK.json` text built from them. Later issues cite these names
//! verbatim, so a name here is never reused for something else.

use crate::workloads::{NOMINAL_SECONDS, WORKLOADS};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the sweep feels, with the share of the parent's
/// median by which each may worsen before a change is a regression.
/// The bounds are what the reference box can hold, not what one would
/// wish for: it changes speed by 5 to 10 % for minutes at a time (25 %
/// has been seen), whatever statistic a run reports, and the 4 MiB of
/// `dumbbell-cross` move by 5 % with the address-space layout. See
/// "Repeatability" in the README.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (lower("wall_s", "s"), 0.25),
    (lower("cpu_s", "s"), 0.25),
    (lower("peak_rss_mb", "MiB"), 0.20),
    (lower("setup_s", "s"), 0.25),
];

/// Layer = crate. Counts come from one iteration's `RunSummary`s, spans
/// from the median traced iteration, the rest from the layer probes; a probe
/// metric reads 0 on the workloads its probe does not run on.
pub const PER_LAYER: [MetricDef; 43] = [
    lower("sim.events", "count"),
    lower("elements.forwards", "count"),
    lower("elements.rate_integrations", "count"),
    lower("elements.structures_built", "count"),
    lower("inference.hypothesis_updates", "count"),
    lower("inference.state_clones", "count"),
    lower("inference.prior_enumerations", "count"),
    lower("inference.particle_resamples", "count"),
    lower("core.flow_wakes", "count"),
    higher("scenario.runs", "count"),
    lower("scenario.runs_failed", "count"),
    higher("scenario.sim_sends", "count"),
    higher("scenario.sim_delivered", "count"),
    lower("scenario.sim_overflow_drops", "count"),
    lower("scenario.csv_bytes", "bytes"),
    lower("scenario.csv_digest48", "id"),
    lower("scenario.us_per_event", "us"),
    lower("scenario.load_grid_s", "s"),
    lower("scenario.expand_s", "s"),
    lower("scenario.prior_cache_s", "s"),
    lower("scenario.execute_run_s", "s"),
    lower("scenario.execute_run_max_s", "s"),
    lower("scenario.report_s", "s"),
    lower("inference.advance_s", "s"),
    lower("inference.advance_calls", "count"),
    lower("inference.inject_s", "s"),
    lower("inference.branches_max", "count"),
    lower("inference.branches_mean", "count"),
    lower("inference.us_per_hypothesis_update", "us"),
    lower("core.planner_decide_s", "s"),
    lower("core.decide_calls", "count"),
    lower("core.drive_self_s", "s"),
    lower("core.drive_self_us_per_wake.n10", "us"),
    lower("core.drive_self_us_per_wake.n100", "us"),
    lower("core.drive_self_us_per_wake.n1000", "us"),
    lower("core.drive_self_us_per_wake.n10000", "us"),
    lower("core.aimd_on_wake_s", "s"),
    lower("tcp.on_wake_s", "s"),
    lower("topo.compile_s", "s"),
    lower("elements.forward_kernel_s", "s"),
    lower("elements.us_per_forward", "us"),
    lower("bench.wall_iqr_rel", "ratio"),
    lower("bench.trace_overhead_ratio", "ratio"),
];

/// A measured value of one named metric.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Values for `defs` in their order, from `(name, value)` pairs; a name
/// with no pair reads 0.
pub fn fill<'a>(
    defs: impl IntoIterator<Item = &'a MetricDef>,
    values: &[(&str, f64)],
) -> Vec<Measured> {
    defs.into_iter()
        .map(|d| Measured {
            name: d.name,
            unit: d.unit,
            value: values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// The result line the benchmark contract asks for.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The text of `BENCHMARK.json` at the repository root.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {NOMINAL_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest_json());
    }

    #[test]
    fn names_units_and_reasons_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|(m, _)| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_lists_metrics_in_order_with_missing_ones_at_zero() {
        let defs = [lower("a_s", "s"), lower("b.count", "count")];
        let line = result_json(true, 12, 0, &fill(&defs, &[("a_s", 1.25)]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b.count\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
