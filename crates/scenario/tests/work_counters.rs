//! The committed work-counter trajectory.
//!
//! `WorkCounters` are pure functions of the simulated work, so every
//! value below is exact: a counter that moves by one fails the test.
//! Where a count has a closed form (one integration per `service_end`,
//! one state clone per `Network::clone`, one prior enumeration per
//! sweep) the test asserts the closed form. Where it
//! does not (whole sweeps, the many-flow drive) the value is a committed
//! constant: a change that deliberately lowers a counter edits the
//! constant in the same commit, and `git log -p` on this file is the
//! history of how much work the shipped workloads cost. Each pinned
//! sweep also commits the FNV-1a digest of its CSV, so a refactor that
//! moves a report byte fails here before any shipped-size comparison.
//!
//! Every sweep pin is a full `WorkCounters { … }` literal, so a new field
//! cannot go unpinned, and the smoke sweep must bump every counter
//! `WorkCounters::named` lists.

mod common;

use augur_core::{build_many_flow_bottleneck, run_multi_agent, AimdSender, SenderAgent};
use augur_elements::{build_model, ModelParams, RateProcess, TraceEnd};
use augur_scenario::{execute_run_traced_in, traces, Axis, PriorCache, RunSpec, SweepRunner};
use augur_sim::{perf, BitRate, Bits, Dur, Ppm, Time, WorkCounters};
use common::{fnv1a, grid_of};

/// The calling thread's work while `f` runs, and what `f` returned.
fn work_of<R>(f: impl FnOnce() -> R) -> (WorkCounters, R) {
    let before = perf::snapshot();
    let out = f();
    (perf::snapshot().since(&before), out)
}

/// What one serial sweep leaves behind and costs: the digest of its CSV,
/// and the prior enumeration the runner does up front on the calling
/// thread plus every run's own work.
fn sweep_pin(runs: &[RunSpec]) -> (u64, WorkCounters) {
    let (mut work, report) = work_of(|| SweepRunner::serial().run(runs));
    work += report.total_work();
    (fnv1a(report.to_csv_string().as_bytes()), work)
}

#[test]
fn rate_integrations_count_service_end_calls_and_never_rate_at() {
    const N: u64 = 50_000;
    let process = RateProcess::Trace {
        label: "lte-fade".into(),
        samples: traces::parse_trace_csv(traces::shipped_text("lte-fade").unwrap()).unwrap(),
        end: TraceEnd::Loop,
    };
    // Start offsets cover mid-segment starts, boundary crossings and
    // whole-cycle fast-forwards; each call is one integration whatever
    // it crosses.
    let (integrate, ()) = work_of(|| {
        for i in 0..N {
            let start = Time::from_micros(i.wrapping_mul(37_137) % 120_000_000);
            process.service_end(start, Bits::new(12_000 + (i % 5) * 3_000));
        }
    });
    assert_eq!(
        integrate,
        WorkCounters {
            rate_integrations: N,
            ..WorkCounters::default()
        }
    );
    let (lookup, ()) = work_of(|| {
        for i in 0..N {
            process.rate_at(Time::from_micros(i.wrapping_mul(91_997) % 240_000_000));
        }
    });
    assert_eq!(lookup, WorkCounters::default());
}

#[test]
fn network_clone_copies_state_and_builds_no_structure() {
    const N: u64 = 256;
    let (build, proto) = work_of(|| build_model(ModelParams::paper_ground_truth()));
    assert_eq!(
        build,
        WorkCounters {
            structures_built: 1,
            ..WorkCounters::default()
        }
    );
    let (clones, ()) = work_of(|| {
        for _ in 0..N {
            std::hint::black_box(proto.clone());
        }
    });
    assert_eq!(
        clones,
        WorkCounters {
            state_clones: N,
            ..WorkCounters::default()
        }
    );
}

#[test]
fn fig3_replicate_grid_enumerates_its_prior_once_shared_and_once_per_run_cold() {
    // 4 α values × 3 replicates, all over one prior.
    let runs = grid_of("fig3 --duration 1 --branches 64")
        .axis(Axis::Seeds(3))
        .expand();
    assert_eq!(runs.len(), 12);
    // Through the runner: one enumeration up front on this thread, none
    // inside any run.
    let (up_front, report) = work_of(|| SweepRunner::serial().run(&runs));
    assert_eq!(up_front.networks_built, 1);
    assert_eq!(report.total_work().networks_built, 0);
    // Standalone: every run enumerates for itself.
    let mut cold = WorkCounters::default();
    for run in &runs {
        let work = execute_run_traced_in(run, &PriorCache::empty()).0.work;
        assert_eq!(work.networks_built, 1, "run {}", run.index);
        cold += work;
    }
    assert_eq!(cold.networks_built, 12);
}

#[test]
fn smoke_sweep_counters_are_pinned() {
    let runs = grid_of("smoke --duration 5 --replicates 2").expand();
    let pin = sweep_pin(&runs);
    for (name, value) in pin.1.named() {
        assert!(value > 0, "the smoke sweep never bumps `{name}`");
    }
    assert_eq!(
        pin,
        (
            0xD9FC_7782_60C8_5538,
            WorkCounters {
                events_processed: 45_645,
                packets_forwarded: 66_361,
                hypothesis_updates: 736,
                particle_resamples: 3,
                rate_integrations: 27_842,
                networks_built: 1,
                // Each of the two exact runs starts from a clone of the
                // seated small prior, its 8 hypotheses on 4 states: 4 state
                // clones where it cloned 8 networks.
                state_clones: 6_756,
                structures_built: 12,
                flow_wakes: 19,
            }
        )
    );
}

#[test]
fn dumbbell_cross_sweep_counters_are_pinned() {
    let runs = grid_of("dumbbell-cross --duration 5 --replicates 2 --branches 256").expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xD03A_F72E_6377_97C7,
            WorkCounters {
                // A restarting agent enumerates its coexist prior once, with
                // no probe network (one structure fewer), and starts from a
                // clone of it (63 states); each restart clones it again
                // instead of enumerating it (63 structures, and 56 service
                // integrations for the backlogged hypotheses): 2 agents and
                // 2 restarts.
                events_processed: 126_762,
                packets_forwarded: 134_006,
                hypothesis_updates: 758,
                particle_resamples: 0,
                rate_integrations: 69_726,
                networks_built: 0,
                state_clones: 8_072,
                structures_built: 128,
                flow_wakes: 34,
            }
        )
    );
}

#[test]
fn parking_lot_sweep_counters_are_pinned() {
    let runs = grid_of("parking-lot --duration 5 --replicates 2 --branches 256").expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0x3B6F_18E2_72BB_AAFC,
            WorkCounters {
                // A restarting agent enumerates its coexist prior once, with
                // no probe network (one structure fewer), and starts from a
                // clone of it (63 states); each restart clones it again
                // instead of enumerating it (63 structures, and 56 service
                // integrations for the backlogged hypotheses): 2 agents and
                // no restart.
                events_processed: 122_674,
                packets_forwarded: 129_608,
                hypothesis_updates: 668,
                particle_resamples: 0,
                rate_integrations: 67_810,
                networks_built: 0,
                state_clones: 7_506,
                structures_built: 128,
                flow_wakes: 70,
            }
        )
    );
}

#[test]
fn replay_cellular_sweep_counters_are_pinned() {
    let runs = grid_of("replay-cellular --duration 5").expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xD6CE_CD1B_E503_0518,
            WorkCounters {
                events_processed: 15_203,
                packets_forwarded: 17_806,
                hypothesis_updates: 0,
                particle_resamples: 0,
                rate_integrations: 5_479,
                networks_built: 0,
                state_clones: 0,
                structures_built: 12,
                flow_wakes: 0,
            }
        )
    );
}

#[test]
fn fig3_sweep_counters_are_pinned() {
    let runs = grid_of("fig3 --duration 4 --branches 64").expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xC02A_0666_602D_D12E,
            WorkCounters {
                events_processed: 71_064,
                packets_forwarded: 111_882,
                hypothesis_updates: 19_440,
                particle_resamples: 0,
                rate_integrations: 42_830,
                networks_built: 1,
                // Each of the four runs starts from a clone of the seated
                // paper prior, its 4,760 hypotheses on 952 states: 3,808
                // fewer state clones per run than cloning every network.
                state_clones: 12_288,
                structures_built: 4_764,
                flow_wakes: 12,
            }
        )
    );
}

#[test]
fn coexist_fairness_sweep_counters_are_pinned() {
    let runs = grid_of("coexist-fairness --duration 20 --replicates 2 --branches 256").expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xB1B1_17BB_25E4_3E0F,
            WorkCounters {
                // A restarting agent enumerates its coexist prior once, with
                // no probe network (one structure fewer), and starts from a
                // clone of it (63 states); each restart clones it again
                // instead of enumerating it (63 structures, and 56 service
                // integrations for the backlogged hypotheses): 4 agents and
                // 10 restarts. A class of members whose rows the agent
                // planned before, at the same belief-relative instant and
                // sequence number, is served from its memo and runs no
                // rollout, where only a repeated wake history used to be:
                // events 637 536 → 419 652, forwards 673 722 → 444 138,
                // integrations 352 218 → 232 920, clones 39 102 → 26 102.
                events_processed: 419_652,
                packets_forwarded: 444_138,
                hypothesis_updates: 4_266,
                particle_resamples: 0,
                rate_integrations: 232_920,
                networks_built: 0,
                state_clones: 26_102,
                structures_built: 254,
                flow_wakes: 124,
            }
        )
    );
}

#[test]
fn coexist_vs_tcp_sweep_counters_are_pinned() {
    let runs = grid_of("coexist-vs-tcp --duration 20 --replicates 2 --branches 256").expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xF5C7_086A_5113_8B66,
            WorkCounters {
                // A restarting agent enumerates its coexist prior once, with
                // no probe network (one structure fewer), and starts from a
                // clone of it (63 states); each restart clones it again
                // instead of enumerating it (63 structures, and 56 service
                // integrations for the backlogged hypotheses): 6 agents and
                // 12 restarts. A class of members whose rows the agent
                // planned before, at the same belief-relative instant and
                // sequence number, is served from its memo and runs no
                // rollout, where only a repeated wake history used to be:
                // events 812 559 → 602 705, forwards 858 546 → 637 181,
                // integrations 448 942 → 334 229, clones 49 734 → 36 944.
                events_processed: 602_705,
                packets_forwarded: 637_181,
                hypothesis_updates: 5_253,
                particle_resamples: 0,
                rate_integrations: 334_229,
                networks_built: 0,
                state_clones: 36_944,
                structures_built: 384,
                flow_wakes: 417,
            }
        )
    );
}

/// N AIMD agents over the shared 12 Mbit/s many-flow bottleneck for 3 s
/// of simulated time, straight through the `FlowDriver`.
fn aimd_drive(n: usize) -> WorkCounters {
    work_of(|| {
        let mut truth = build_many_flow_bottleneck(
            BitRate::from_bps(12_000_000),
            Bits::new(480_000),
            Ppm::ZERO,
            n,
            0xF10,
        );
        let mut store: Vec<AimdSender> = (0..n)
            .map(|_| AimdSender::new(Dur::from_secs(8)).with_packet_size(Bits::from_bytes(1_500)))
            .collect();
        let mut agents: Vec<&mut dyn SenderAgent> = store
            .iter_mut()
            .map(|a| a as &mut dyn SenderAgent)
            .collect();
        run_multi_agent(&mut truth, &mut agents, Time::from_secs(3))
            .expect("belief-free agents cannot die");
    })
    .0
}

#[test]
fn many_flow_drive_counters_are_pinned() {
    // (flows, events_processed, packets_forwarded, rate_integrations, flow_wakes)
    for (n, events_processed, packets_forwarded, rate_integrations, flow_wakes) in [
        (100, 3_000, 6_551, 3_001, 3_100),
        (1_000, 3_000, 7_451, 3_001, 4_000),
        (10_000, 3_000, 16_451, 3_001, 13_000),
    ] {
        assert_eq!(
            aimd_drive(n),
            WorkCounters {
                events_processed,
                packets_forwarded,
                rate_integrations,
                flow_wakes,
                structures_built: 1,
                ..WorkCounters::default()
            },
            "N = {n}"
        );
    }
}
