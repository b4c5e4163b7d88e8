//! The config layer's external contract:
//!
//! 1. the spec files shipped under `experiments/specs/` are the presets:
//!    the same set of names, each preset's compiled-in text decoding —
//!    with no file access — to the grid `sweep --spec` loads from disk,
//!    and `sweep`'s overrides writing their arguments over that grid;
//! 2. the committed trace CSVs are exactly the ones compiled in, and the
//!    shipped graph topologies compile to the shapes their names promise;
//! 3. spec files can reach configurations the presets don't, like N > 2
//!    coexistence peers, and those run deterministically;
//! 4. a spec whose sections each decode but that holds a grid point the
//!    runner cannot execute fails `parse_grid` with the rule it breaks,
//!    at the line of the section or axis to blame.

mod common;

use augur_scenario::{
    load_grid, parse_grid, presets, traces, Blame, SweepGrid, SweepRunner, TopologySpec,
    WorkloadSpec,
};
use common::{grid_of, scaling_grid};
use std::path::PathBuf;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments/specs")
}

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments/traces")
}

fn assert_grid_eq(name: &str, a: &SweepGrid, b: &SweepGrid) {
    assert_eq!(
        format!("{a:#?}"),
        format!("{b:#?}"),
        "{name}: parsed grid differs from preset"
    );
}

#[test]
fn presets_and_shipped_spec_files_are_the_same_sweeps() {
    // The same names: nothing shipped that `sweep <name>` cannot run,
    // no preset without its file.
    let mut files: Vec<String> = std::fs::read_dir(specs_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut names: Vec<String> = presets::NAMES.iter().map(|n| format!("{n}.toml")).collect();
    names.sort();
    assert_eq!(files, names, "experiments/specs/ vs presets::NAMES");
    // The same grids: the compiled-in text (trace references answered
    // by the compiled-in CSVs) against the file on disk (by the CSVs on
    // disk), down to every run's coordinates and derived seed.
    for name in presets::NAMES {
        let preset = presets::by_name(name).unwrap();
        let loaded = load_grid(&specs_dir().join(format!("{name}.toml")))
            .unwrap_or_else(|e| panic!("{name}: shipped spec failed to parse: {e}"));
        assert_grid_eq(name, &preset, &loaded);
        let (a, b) = (preset.expand(), loaded.expand());
        assert_eq!(a.len(), b.len(), "{name}: run count differs");
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.seed, rb.seed, "{name}: seed differs at {}", ra.index);
            assert_eq!(ra.point(), rb.point(), "{name}: coords differ");
        }
    }
}

/// The compiled topology of a shipped graph preset.
fn compiled(name: &str) -> (augur_topo::GraphTopology, augur_topo::CompiledTopo) {
    match presets::by_name(name).unwrap().base.topology {
        TopologySpec::Graph(graph) => {
            let compiled = augur_topo::compile(&graph).unwrap();
            (graph, compiled)
        }
        other => panic!("{name}: unexpected topology {other:?}"),
    }
}

#[test]
fn dumbbell_cross_flows_share_exactly_one_bottleneck() {
    let (graph, c) = compiled("dumbbell-cross");
    let shared = graph.links.iter().position(|l| l.name == "l-r").unwrap();
    assert_eq!(c.routes.len(), 3);
    for (f, route) in c.routes.iter().enumerate() {
        assert_eq!(route.len(), 3, "flow {f} takes access → shared → access");
        assert_eq!(route[1], shared);
        assert_eq!(c.bottlenecks[f], shared);
    }
}

#[test]
fn parking_lot_long_flow_crosses_every_hop() {
    let (graph, c) = compiled("parking-lot");
    let hops: Vec<usize> = (0..graph.links.len()).collect();
    assert_eq!(c.routes[0], hops, "the long flow takes every link in order");
    for (i, route) in c.routes.iter().enumerate().skip(1) {
        assert_eq!(route, &[i - 1], "short{} takes exactly its own hop", i - 1);
    }
}

#[test]
fn shipped_trace_files_are_the_embedded_list() {
    // Nothing extra shipped: every committed trace is one the presets can
    // name, and the list names no file that is not there.
    let mut files: Vec<String> = std::fs::read_dir(traces_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut stems: Vec<String> = traces::SHIPPED
        .iter()
        .map(|(s, _)| format!("{s}.csv"))
        .collect();
    stems.sort();
    assert_eq!(files, stems, "experiments/traces/ vs traces::SHIPPED");
}

#[test]
fn replay_spec_runs_deterministically_across_worker_counts() {
    let mut grid = load_grid(&specs_dir().join("replay-cellular.toml")).unwrap();
    grid.base.duration = augur_sim::Dur::from_secs(10);
    let runs = grid.expand();
    assert_eq!(runs.len(), 12);
    let serial = SweepRunner::serial().run(&runs);
    let parallel = SweepRunner::with_workers(4).run(&runs);
    assert_eq!(
        serial.to_csv_string(),
        parallel.to_csv_string(),
        "worker count leaked into the trace-replay sweep"
    );
    // Every run moves traffic, and the trace label lands in the coords.
    for r in &serial.runs {
        assert!(r.sends > 0, "{}: no sends", r.point);
        assert!(
            r.point.contains("rate_trace=lte-fade") || r.point.contains("rate_trace=lte-scatter"),
            "unexpected point {}",
            r.point
        );
    }
}

#[test]
fn three_flow_coexist_spec_runs_deterministically() {
    // A configuration only spec files can express today: the primary
    // ISender against TWO AIMD peers (three flows on one bottleneck).
    let shipped = std::fs::read_to_string(specs_dir().join("coexist-fairness.toml")).unwrap();
    let toml = shipped.replace(
        "peers = [\n  { kind = \"isender\", alpha = 1.0 },\n]",
        "peers = [\n  { kind = \"aimd\", timeout_s = 8.0 },\n  { kind = \"aimd\", timeout_s = 8.0 },\n]",
    );
    let mut grid = parse_grid(&toml).unwrap();
    grid.base.duration = augur_sim::Dur::from_secs(20);
    match &grid.base.sender {
        augur_scenario::SenderSpec::IsenderExact { .. } => {}
        other => panic!("unexpected sender {other:?}"),
    }
    match &grid.base.workload {
        WorkloadSpec::Coexist(cx) => assert_eq!(cx.peers.len(), 2),
        other => panic!("unexpected workload {other:?}"),
    }
    grid.axes = vec![augur_scenario::Axis::Seeds(2)];
    let runs = grid.expand();
    let serial = SweepRunner::serial().run(&runs);
    let parallel = SweepRunner::with_workers(3).run(&runs);
    assert_eq!(
        serial.to_csv_string(),
        parallel.to_csv_string(),
        "worker count leaked into a 3-flow coexistence sweep"
    );
    for r in &serial.runs {
        assert_eq!(r.peer, "aimd+aimd", "peer label joins all peers");
        assert!(
            r.jain.is_nan() || (0.0..=1.0).contains(&r.jain),
            "jain index in range over 3 flows: {}",
            r.jain
        );
        // goodput_b aggregates both peers; with three active flows the
        // peers together should move at least something.
        assert!(r.goodput_b_bps >= 0.0);
    }
}

#[test]
fn spec_files_can_sweep_model_topology_axes() {
    // Axes the presets don't combine: link-rate × buffer-capacity over a
    // fast scripted workload, written as a spec file would be.
    let src = r#"
[scenario]
name = "custom-matrix"
duration_s = 10.0
base_seed = 7

[topology]
kind = "model"
link_bps = 12000
cross_bps = 8400
cross_active = false
gate = { kind = "always-on" }
loss_ppm = 0
buffer_bits = 96000
initial_fullness_bits = 0
packet_bits = 12000

[prior]
kind = "fine-link-rate"
n = 11
lo_bps = 8000
hi_bps = 16000

[sender]
kind = "isender-exact"
alpha = 1.0
latency_penalty = 0.0
max_branches = 4096

[workload]
kind = "scripted-ping"
interval_s = 2.0

[[axis]]
kind = "link-rate"
values = [10000, 12000]

[[axis]]
kind = "seeds"
count = 2
"#;
    let grid = parse_grid(src).unwrap();
    assert_eq!(grid.len(), 4);
    let report = SweepRunner::serial().run(&grid.expand());
    assert_eq!(report.runs.len(), 4);
    assert!(report.runs.iter().all(|r| r.sends > 0));
}

#[test]
fn incompatible_grid_points_are_check_errors_not_run_time_panics() {
    // Each shape is well-formed section by section; the first five used
    // to pass the decoder and fail `ScenarioSpec::check` on an expanded
    // run, the next four panicked inside `expand()`, the next two passed
    // `--check` and panicked or saturated in the run, and the last passed
    // `--check` and ran for no time, reporting rates over 0 s. All are now
    // `parse_grid` errors: (shipped spec, text to replace, replacement,
    // rule, where the text of the blamed line starts).
    const TCP_RENO: &str = "kind = \"tcp-reno\"\nmax_window = 64";
    const EXACT: &str =
        "kind = \"isender-exact\"\nalpha = 1.0\nlatency_penalty = 0.0\nmax_branches = 50000";
    let particle_axis_point =
        r#"{ kind = "isender-particle", alpha = 1.0, latency_penalty = 0.0, n_particles = 1000 }"#;
    let cases = [
        (
            "coexist-fairness",
            "packet_bits = 12000",
            "packet_bits = 8000",
            "requires 1500-byte packets",
            "[topology]",
        ),
        (
            "coexist-fairness",
            EXACT,
            "kind = \"isender-particle\"\nalpha = 1.0\nlatency_penalty = 0.0\nn_particles = 1000",
            "needs an exact-belief isender primary, got `isender-particle`",
            "[sender]",
        ),
        (
            "coexist-fairness",
            EXACT,
            TCP_RENO,
            "needs an exact-belief isender primary, got `tcp-reno`",
            "[sender]",
        ),
        (
            "scaling",
            "interval_s = 2.0",
            "interval_s = 0.0",
            "`interval_s` must be > 0",
            "[workload]",
        ),
        (
            "scaling",
            particle_axis_point,
            r#"{ kind = "tcp-reno", max_window = 64 }"#,
            "sender kind `tcp-reno` carries no belief",
            "[[axis]]\nkind = \"sender\"",
        ),
        (
            "fig3",
            EXACT,
            TCP_RENO,
            "an alpha axis requires an isender",
            "[[axis]]\nkind = \"alpha\"",
        ),
        (
            "txt2",
            EXACT,
            TCP_RENO,
            "a latency-penalty axis requires an isender",
            "[[axis]]\nkind = \"latency-penalty\"",
        ),
        (
            "coexist-vs-tcp",
            "kind = \"coexist\"\npeers = [\n  { kind = \"aimd\", timeout_s = 8.0 },\n]",
            "kind = \"closed-loop\"",
            "a peer axis requires the coexist workload",
            "[[axis]]\nkind = \"peer\"",
        ),
        (
            "scaling",
            "kind = \"fine-link-rate\"\nn = 101\nlo_bps = 8000\nhi_bps = 16000",
            "kind = \"paper\"",
            "a prior-size axis requires a fine-link-rate prior",
            "[[axis]]\nkind = \"prior-size\"",
        ),
        (
            "scaling",
            "values = [101, 1001, 10001]",
            "values = [0]",
            "`values[0]` must be at least 1",
            "values = [0]",
        ),
        (
            "smoke",
            "duration_s = 20.0",
            "duration_s = 1e300",
            "does not fit in 64-bit microseconds",
            "duration_s = 1e300",
        ),
        (
            "smoke",
            "duration_s = 20.0",
            "duration_s = 0.0",
            "`duration_s` must be > 0 seconds",
            "[scenario]",
        ),
        (
            "smoke",
            "count = 4",
            "count = 9223372036854775808",
            "the grid's run count overflows at its `replicate` axis: 2 × 9223372036854775808",
            "[[axis]]\nkind = \"seeds\"",
        ),
    ];
    for (spec, from, to, rule, blamed) in cases {
        let text = std::fs::read_to_string(specs_dir().join(format!("{spec}.toml"))).unwrap();
        assert!(
            text.contains(from),
            "{spec}: `{from}` not in the shipped spec"
        );
        let text = text.replace(from, to);
        let err = match parse_grid(&text) {
            Err(err) => err,
            Ok(_) => panic!("{spec} with `{to}` decoded"),
        };
        assert!(err.message.contains(rule), "{spec} with `{to}`: {err}");
        let upto = text.find(blamed).unwrap();
        let line = text[..upto].lines().count() + 1;
        assert_eq!(err.line as usize, line, "{spec} with `{to}`: {err}");
        assert!(err.col > 0, "{spec} with `{to}`: {err}");
    }
    // An empty belief population cannot come from a file — the decoder
    // refuses it with a position — only from an override or hand-built
    // grid, where it used to panic in the first normalize.
    let mut uncapped = presets::by_name("fig3").unwrap();
    assert!(uncapped.set_max_branches(0));
    let mut instant = presets::by_name("smoke").unwrap();
    instant.set_duration(augur_sim::Dur::ZERO);
    for (grid, rule, blame) in [
        (uncapped, "`max_branches` must be at least 1", Blame::Sender),
        (instant, "`duration_s` must be > 0 seconds", Blame::Scenario),
        (
            scaling_grid(&[101], 0),
            "`n_particles` must be at least 1",
            Blame::Axis(0),
        ),
        (
            scaling_grid(&[0], 1000),
            "a fine-link-rate prior needs at least one hypothesis",
            Blame::Axis(1),
        ),
    ] {
        let err = grid.validate().unwrap_err();
        assert_eq!((err.rule.as_str(), err.blame), (rule, blame));
    }
    for name in presets::NAMES {
        assert_eq!(presets::by_name(name).unwrap().validate(), Ok(()), "{name}");
    }
}

#[test]
fn sweep_overrides_are_the_shipped_files_plus_their_arguments() {
    // `sweep`'s overrides, with non-default arguments, against the
    // shipped file mutated by hand — direct field assignment only, so
    // this pins the overrides without leaning on the setters they are
    // built from.
    use augur_scenario::{Axis, SenderSpec};
    use augur_sim::Dur;
    // (grid, shipped file, duration in s, base branch cap, replicates)
    let overridden = |args: &'static str, d: u64, b: Option<usize>, k: Option<usize>| {
        (grid_of(args), args.split(' ').next().unwrap(), d, b, k)
    };
    let cases = [
        overridden("fig1 --duration 7", 7, None, None),
        overridden("fig3 --duration 3 --branches 77", 3, Some(77), None),
        overridden("tab1 --duration 9 --branches 77", 9, Some(77), None),
        overridden("txt1 --duration 11", 11, None, None),
        overridden("txt2 --duration 11", 11, None, None),
        overridden("ext-aqm --duration 11", 11, None, None),
        overridden("smoke --duration 3 --replicates 5", 3, None, Some(5)),
        overridden(
            "coexist-fairness --duration 3 --replicates 5 --branches 77",
            3,
            Some(77),
            Some(5),
        ),
        overridden(
            "coexist-vs-tcp --duration 3 --replicates 5 --branches 77",
            3,
            Some(77),
            Some(5),
        ),
        overridden(
            "dumbbell-cross --duration 3 --replicates 5 --branches 77",
            3,
            Some(77),
            Some(5),
        ),
        overridden(
            "parking-lot --duration 3 --replicates 5 --branches 77",
            3,
            Some(77),
            Some(5),
        ),
        overridden(
            "ext-scaling-flows --duration 3 --replicates 5",
            3,
            None,
            Some(5),
        ),
        (
            presets::replay_cellular(Dur::from_secs(3)),
            "replay-cellular",
            3,
            None,
            None,
        ),
    ];
    let shipped = |name: &str| load_grid(&specs_dir().join(format!("{name}.toml"))).unwrap();
    for (built, name, duration, branches, replicates) in cases {
        let mut want = shipped(name);
        want.base.duration = Dur::from_secs(duration);
        if let Some(b) = branches {
            match &mut want.base.sender {
                SenderSpec::IsenderExact { max_branches, .. } => *max_branches = b,
                other => panic!("{name}: no branch cap on {other:?}"),
            }
        }
        if let Some(k) = replicates {
            let seeds = want.axes.iter_mut().find_map(|a| match a {
                Axis::Seeds(count) => Some(count),
                _ => None,
            });
            *seeds.unwrap_or_else(|| panic!("{name}: no seeds axis")) = k;
        }
        assert_grid_eq(name, &built, &want);
    }
}
