//! The committed work-counter trajectory.
//!
//! `WorkCounters` are pure functions of the simulated work, so every
//! value below is exact: a counter that moves by one fails the test.
//! Where a count has a closed form (one pop per push, one integration
//! per `service_end`, one state clone per `Network::clone`, one prior
//! enumeration per sweep) the test asserts the closed form. Where it
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

use augur_core::{build_many_flow_bottleneck, run_multi_agent, AimdSender, SenderAgent};
use augur_elements::{build_model, ModelParams, RateProcess, TraceEnd};
use augur_scenario::{execute_run, presets, traces, Axis, RunSpec, SweepRunner};
use augur_sim::{perf, BitRate, Bits, Dur, EventQueue, Ppm, SimRng, Time, WorkCounters};

/// The calling thread's work while `f` runs, and what `f` returned.
fn work_of<R>(f: impl FnOnce() -> R) -> (WorkCounters, R) {
    let before = perf::snapshot();
    let out = f();
    (perf::snapshot().since(&before), out)
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
fn event_queue_pops_equal_pushes() {
    const N: u64 = 20_000;
    let (work, ()) = work_of(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(0xE0);
        let mut now = Time::ZERO;
        let mut pushed = 0;
        // Waves of 64 pushes, each drained completely: the heap grows
        // and empties the way a busy simulation drives it.
        while pushed < N {
            for _ in 0..64.min(N - pushed) {
                q.push(
                    now + Dur::from_micros(rng.uniform_u64(0, 1_000_000)),
                    pushed,
                );
                pushed += 1;
            }
            while let Some((t, _)) = q.pop() {
                now = t;
            }
        }
    });
    assert_eq!(
        work,
        WorkCounters {
            events_processed: N,
            ..WorkCounters::default()
        }
    );
}

#[test]
fn rate_integrations_count_service_end_calls_and_never_rate_at() {
    const N: u64 = 50_000;
    let process = RateProcess::Trace {
        label: "lte-fade".into(),
        samples: traces::lte_fade(),
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
    let (build, proto) = work_of(|| build_model(ModelParams::paper_ground_truth()).net);
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
    let runs = presets::fig3(Dur::from_secs(1), 64)
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
        let work = execute_run(run).work;
        assert_eq!(work.networks_built, 1, "run {}", run.index);
        cold += work;
    }
    assert_eq!(cold.networks_built, 12);
}

#[test]
fn smoke_sweep_counters_are_pinned() {
    let runs = presets::smoke(Dur::from_secs(5), 2).expand();
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
                state_clones: 6_764,
                structures_built: 12,
                flow_wakes: 19,
            }
        )
    );
}

#[test]
fn dumbbell_cross_sweep_counters_are_pinned() {
    let runs = presets::dumbbell_cross(Dur::from_secs(5), 2, 256).expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xD03A_F72E_6377_97C7,
            WorkCounters {
                events_processed: 126_762,
                packets_forwarded: 134_006,
                hypothesis_updates: 758,
                particle_resamples: 0,
                rate_integrations: 69_838,
                networks_built: 0,
                state_clones: 7_820,
                structures_built: 258,
                flow_wakes: 34,
            }
        )
    );
}

#[test]
fn parking_lot_sweep_counters_are_pinned() {
    let runs = presets::parking_lot(Dur::from_secs(5), 2, 256).expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0x3B6F_18E2_72BB_AAFC,
            WorkCounters {
                events_processed: 122_674,
                packets_forwarded: 129_608,
                hypothesis_updates: 668,
                particle_resamples: 0,
                rate_integrations: 67_810,
                networks_built: 0,
                state_clones: 7_380,
                structures_built: 130,
                flow_wakes: 70,
            }
        )
    );
}

#[test]
fn replay_cellular_sweep_counters_are_pinned() {
    let runs = presets::replay_cellular(Dur::from_secs(5)).expand();
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
    let runs = presets::fig3(Dur::from_secs(4), 64).expand();
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
                state_clones: 27_520,
                structures_built: 4_764,
                flow_wakes: 12,
            }
        )
    );
}

#[test]
fn coexist_fairness_sweep_counters_are_pinned() {
    let runs = presets::coexist_fairness(Dur::from_secs(20), 2, 256).expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xB1B1_17BB_25E4_3E0F,
            WorkCounters {
                events_processed: 786_022,
                packets_forwarded: 830_416,
                hypothesis_updates: 4_266,
                particle_resamples: 0,
                rate_integrations: 433_726,
                networks_built: 0,
                state_clones: 47_340,
                structures_built: 898,
                flow_wakes: 124,
            }
        )
    );
}

#[test]
fn coexist_vs_tcp_sweep_counters_are_pinned() {
    let runs = presets::coexist_vs_tcp(Dur::from_secs(20), 2, 256).expand();
    assert_eq!(
        sweep_pin(&runs),
        (
            0xF5C7_086A_5113_8B66,
            WorkCounters {
                events_processed: 991_242,
                packets_forwarded: 1_047_102,
                hypothesis_updates: 5_253,
                particle_resamples: 0,
                rate_integrations: 546_984,
                networks_built: 0,
                state_clones: 59_570,
                structures_built: 1_158,
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
