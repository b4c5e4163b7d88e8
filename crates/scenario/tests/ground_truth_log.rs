//! The event log describes the one real network: belief members,
//! particles and planner rollouts run through the same event loop but
//! never emit, because only a network marked with
//! `Network::record_events` does and every copy starts unmarked.
//!
//! 1. Hand-driven wakes of an exact `ISender` and a `ParticleSender`
//!    (every network they touch is hypothetical, and the network that
//!    answers them is never marked) log only what the agent itself says:
//!    belief updates, resamples, snapshots and decisions.
//! 2. Each loop that samples a real network marks it: a short traced run
//!    of a preset on each loop logs deliveries. A loop that forgot the
//!    mark would log none and nothing else would notice.
//! 3. The flow driver's overflow counters agree with the log: in a
//!    many-flow run each flow's `RunTrace::overflow_drops` is the number
//!    of its own overflow `drop` records, and in the closed loop it is
//!    the number of `BufferFull` entries in the trace's drop log.

mod common;

use augur_core::{
    build_many_flow_bottleneck, run_multi_agent, AimdSender, DiscountedThroughput, ISender,
    ISenderConfig, SenderAgent,
};
use augur_elements::{build_model, DropReason, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF};
use augur_inference::{BeliefConfig, ModelPrior, Observation, ParticleFilter, Population};
use augur_obs::{DropKind, EventKind, EventRecord, ObsConfig};
use augur_scenario::{
    Axis, PeerSpec, RunArtifact, SweepGrid, SweepRunner, TcpPeerAgent, TopologySpec, WorkloadSpec,
};
use augur_sim::{Dur, FlowId, SimRng, Time};
use augur_tcp::{Reno, TcpConfig};
use common::{grid_of, scaling_grid};

/// Wake `agent` every 250 ms for 20 s against an unmarked network built
/// from the small prior's first grid point, with the sink armed for events
/// and snapshots. Returns the log and the number of packets sent.
fn hand_driven_log(mut agent: impl SenderAgent) -> (Vec<EventRecord>, usize) {
    let m = build_model(ModelPrior::small().grid()[0]);
    let (mut net, entry, rx) = (m.net, m.entry, m.rx_self);
    let mut rng = SimRng::seed_from_u64(7);
    augur_obs::start_run(ObsConfig {
        trace_events: true,
        snapshot_every: Some(Dur::from_secs(1)),
    });
    let mut sent = 0;
    for k in 0..80 {
        let now = Time::ZERO + Dur::from_millis(250 * k);
        net.run_until_sampled(now, &mut rng);
        let acks: Vec<Observation> = (net.take_deliveries().into_iter())
            .filter(|(node, d)| *node == rx && d.packet.flow == FlowId::SELF)
            .map(|(_, d)| Observation {
                seq: d.packet.seq,
                at: d.at,
            })
            .collect();
        let outcome = agent
            .on_wake(now, &acks)
            .expect("the truth is on the prior's grid");
        for pkt in outcome.sent {
            net.inject(entry, pkt);
            net.run_until_sampled(now, &mut rng);
            sent += 1;
        }
    }
    (augur_obs::finish_run(), sent)
}

fn assert_only_agent_records(name: &str, log: &[EventRecord], sent: usize) {
    assert!(
        sent > 0,
        "{name}: sent nothing, so nothing hypothetical ran"
    );
    for e in log {
        assert!(
            matches!(
                e.kind,
                EventKind::BeliefUpdate { .. }
                    | EventKind::Resample { .. }
                    | EventKind::Snapshot { .. }
                    | EventKind::Decision { .. }
            ),
            "{name}: hypothetical work leaked a {} record at {}",
            e.kind.label(),
            e.at
        );
    }
    for kind in ["decision", "snapshot"] {
        assert!(
            log.iter().any(|e| e.kind.label() == kind),
            "{name}: no {kind} record"
        );
    }
}

#[test]
fn hypothetical_work_is_silent() {
    let utility = || Box::new(DiscountedThroughput::with_alpha(1.0));
    let prior = ModelPrior::small();

    let exact = ISender::new(
        prior.belief(BeliefConfig::default()),
        utility(),
        ISenderConfig::default(),
    );
    let (log, sent) = hand_driven_log(exact);
    assert_only_agent_records("exact", &log, sent);
    assert!(log.iter().any(|e| e.kind.label() == "belief-update"));

    let seated = Population::new(prior.hypotheses(), Some(FIG2_LOSS));
    let filter = ParticleFilter::from_population(&seated, FIG2_ENTRY, FIG2_RX_SELF, 200, 3);
    let particle = ISender::new(filter, utility(), ISenderConfig::default());
    let (log, sent) = hand_driven_log(particle);
    assert_only_agent_records("particle", &log, sent);
}

/// Every run of `grid`, traced, logs at least one delivery.
fn assert_truth_delivers(name: &str, mut grid: SweepGrid) {
    grid.base.observe.trace_events = true;
    let runs = grid.expand();
    let (_, logs) = SweepRunner::serial().run_observed(&runs);
    assert_eq!(logs.len(), runs.len());
    for (i, log) in logs.iter().enumerate() {
        assert!(
            log.iter()
                .any(|e| matches!(e.kind, EventKind::Deliver { .. })),
            "{name} run {i}: no deliver record, so its truth loop never marked its network"
        );
    }
}

#[test]
fn every_truth_loop_is_marked() {
    // `TcpRunner::run`.
    assert_truth_delivers("fig1", grid_of("fig1 --duration 10"));
    // The scripted-ping runner, over both belief engines.
    let mut scaling = scaling_grid(&[101], 100);
    scaling.set_duration(Dur::from_secs(10));
    assert_truth_delivers("scaling", scaling);
    // The flow driver.
    assert_truth_delivers("smoke", grid_of("smoke --duration 5 --replicates 1"));
}

/// Overflow `drop` records in `log`, per flow, for flows `0..n`.
fn overflow_records(log: &[EventRecord], n: usize) -> Vec<u64> {
    let mut per_flow = vec![0; n];
    for e in log {
        if let EventKind::Drop {
            flow,
            reason: DropKind::BufferFull,
            ..
        } = e.kind
        {
            if let Some(c) = per_flow.get_mut(flow.0 as usize) {
                *c += 1;
            }
        }
    }
    per_flow
}

#[test]
fn many_flow_overflow_counts_match_the_drop_records() {
    const N: usize = 100;
    let mut grid = grid_of("ext-scaling-flows --duration 5 --replicates 1");
    grid.axes = vec![Axis::Flows(vec![N])];
    grid.base.observe.trace_events = true;
    let runs = grid.expand();
    assert_eq!(runs.len(), 1);
    let spec = &runs[0].spec;
    let (TopologySpec::Model(model), WorkloadSpec::ManyFlows(mf)) =
        (&spec.topology, &spec.workload)
    else {
        panic!("ext-scaling-flows is a many-flow workload over a model topology");
    };

    // The same population driven by hand, so every flow's trace is kept.
    let mut truth = build_many_flow_bottleneck(
        model.link_rate,
        model.buffer_capacity,
        model.loss,
        N,
        runs[0].seed,
    );
    let mut store: Vec<Box<dyn SenderAgent>> = (0..N)
        .map(|i| -> Box<dyn SenderAgent> {
            match mf.mix[i % mf.mix.len()] {
                PeerSpec::Aimd { timeout } => {
                    Box::new(AimdSender::new(timeout).with_packet_size(model.packet_size))
                }
                PeerSpec::TcpReno { max_window } => Box::new(TcpPeerAgent::new(
                    TcpConfig {
                        packet_size: model.packet_size,
                        max_window,
                    },
                    Box::<Reno>::default(),
                )),
                ref other => panic!("unexpected ext-scaling-flows peer {other:?}"),
            }
        })
        .collect();
    let mut agents: Vec<&mut dyn SenderAgent> = store
        .iter_mut()
        .map(|a| &mut **a as &mut dyn SenderAgent)
        .collect();
    augur_obs::start_run(ObsConfig {
        trace_events: true,
        snapshot_every: None,
    });
    let traces = run_multi_agent(&mut truth, &mut agents, Time::ZERO + spec.duration)
        .expect("belief-free agents cannot die");
    let log = augur_obs::finish_run();
    let counted: Vec<u64> = traces.iter().map(|t| t.overflow_drops).collect();
    assert_eq!(counted, overflow_records(&log, N));
    assert!(
        counted.iter().filter(|&&c| c > 0).count() > 1,
        "too few flows overflowed to check anything: {counted:?}"
    );
    assert!(
        traces.iter().all(|t| t.drops.is_empty()),
        "a multi-flow trace keeps no drop records"
    );

    // The sweep's summary sums the same counters.
    let (report, logs) = SweepRunner::serial().run_observed(&runs);
    let logged: u64 = overflow_records(&logs[0], N).iter().sum();
    assert!(logged > 0);
    assert_eq!(report.runs[0].overflow_drops, logged);
}

#[test]
fn closed_loop_overflow_count_matches_its_drop_log() {
    let runs = grid_of("smoke --duration 20 --replicates 1").expand();
    let (_, artifacts) = SweepRunner::serial().run_traced(&runs);
    let mut checked = 0;
    for artifact in artifacts {
        let RunArtifact::ClosedLoop(trace) = artifact else {
            continue;
        };
        let logged = trace
            .drops
            .iter()
            .filter(|d| d.reason == DropReason::BufferFull)
            .count() as u64;
        assert_eq!(trace.overflow_drops, logged);
        checked += logged;
    }
    assert!(checked > 0, "no closed-loop run overflowed a buffer");
}
