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

use augur_core::{DiscountedThroughput, ISender, ISenderConfig, SenderAgent};
use augur_elements::{build_model, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF};
use augur_inference::{BeliefConfig, ModelPrior, Observation, ParticleConfig, ParticleFilter};
use augur_obs::{EventKind, EventRecord, ObsConfig};
use augur_scenario::{presets, SweepGrid, SweepRunner};
use augur_sim::{Dur, FlowId, SimRng, Time};

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

    let cfg = ParticleConfig {
        n_particles: 200,
        fold_loss_node: Some(FIG2_LOSS),
        ..ParticleConfig::default()
    };
    let filter = ParticleFilter::from_prior(&prior.hypotheses(), FIG2_ENTRY, FIG2_RX_SELF, cfg, 3);
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
    assert_truth_delivers("fig1", presets::fig1(Dur::from_secs(10)));
    // The scripted-ping runner, over both belief engines.
    let mut scaling = presets::ext_scaling(vec![101], 100);
    scaling.set_duration(Dur::from_secs(10));
    assert_truth_delivers("scaling", scaling);
    // The flow driver.
    assert_truth_delivers("smoke", presets::smoke(Dur::from_secs(5), 1));
}
