//! The sweep subsystem's reproducibility contract beyond the digests
//! `byte_identity.rs` pins at 1 and 4 workers:
//!
//! 1. the same base seed twice yields byte-identical CSV and JSONL, and
//!    the same work counters at any worker count;
//! 2. a different base seed yields a different (but equally
//!    reproducible) sweep;
//! 3. the rows each workload writes have the shape its report promises.

mod common;

use augur_scenario::{
    execute_run_traced_in, Axis, PriorCache, PriorSpec, ScenarioSpec, SenderSpec, SweepGrid,
    SweepRunner,
};
use augur_sim::Dur;
use common::grid_of;

/// A small but non-trivial grid: exact and particle senders, two seed
/// replicates, a 20 s closed loop over the paper's square-wave truth.
fn grid(base_seed: u64) -> SweepGrid {
    let mut base = ScenarioSpec::paper_baseline("determinism");
    base.prior = PriorSpec::Small;
    base.duration = Dur::from_secs(20);
    base.base_seed = base_seed;
    SweepGrid::new(base)
        .axis(Axis::Sender(vec![
            SenderSpec::IsenderExact {
                alpha: 1.0,
                latency_penalty: 0.0,
                max_branches: 2_048,
            },
            SenderSpec::IsenderParticle {
                alpha: 1.0,
                latency_penalty: 0.0,
                n_particles: 48,
            },
        ]))
        .axis(Axis::Seeds(2))
}

#[test]
fn same_base_seed_twice_is_byte_identical() {
    let a = SweepRunner::with_workers(2).run(&grid(0xFEED).expand());
    let b = SweepRunner::with_workers(3).run(&grid(0xFEED).expand());
    assert_eq!(a.to_csv_string(), b.to_csv_string());
    let mut ja = Vec::new();
    let mut jb = Vec::new();
    a.write_jsonl(&mut ja).unwrap();
    b.write_jsonl(&mut jb).unwrap();
    assert_eq!(ja, jb, "JSONL export must be byte-stable too");
}

#[test]
fn different_base_seed_changes_the_sweep() {
    let a = SweepRunner::serial().run(&grid(1).expand());
    let b = SweepRunner::serial().run(&grid(2).expand());
    assert_ne!(
        a.to_csv_string(),
        b.to_csv_string(),
        "base seed must actually steer the ground truth"
    );
}

#[test]
fn scripted_exact_sender_pins_the_true_link_rate() {
    let mut base = ScenarioSpec::paper_baseline("determinism-scripted");
    base.prior = PriorSpec::FineLinkRate {
        n: 51,
        lo_bps: 8_000,
        hi_bps: 16_000,
    };
    let topology = base.topology.try_model_mut("determinism test").unwrap();
    topology.loss = augur_sim::Ppm::ZERO;
    topology.gate = augur_elements::GateSpec::AlwaysOn;
    base.workload = augur_scenario::WorkloadSpec::ScriptedPing {
        interval: Dur::from_secs(2),
    };
    base.duration = Dur::from_secs(20);
    let grid = SweepGrid::new(base).axis(Axis::Sender(vec![
        SenderSpec::IsenderExact {
            alpha: 1.0,
            latency_penalty: 0.0,
            max_branches: 1 << 16,
        },
        SenderSpec::IsenderParticle {
            alpha: 1.0,
            latency_penalty: 0.0,
            n_particles: 200,
        },
    ]));
    let serial = SweepRunner::serial().run(&grid.expand());
    // The exact engine must pin the true 12 kbps link from 20 s of pings.
    assert!(
        serial.runs[0].rate_err_bps < 500.0,
        "exact posterior err {} bps",
        serial.runs[0].rate_err_bps
    );
}

#[test]
fn prior_cache_reuses_prototypes_without_changing_results() {
    // The runner seats each prior once and starts every run from a
    // clone of it (PriorCache); executing the same runs standalone builds
    // every prior from scratch. Results must be byte-identical — a clone
    // is the population a fresh seating would build — while the cached
    // path builds strictly fewer networks.
    let runs = grid(0xCAC4E).expand();
    let cached = SweepRunner::serial().run(&runs);
    let uncached = augur_scenario::SweepReport {
        runs: (runs.iter())
            .map(|run| execute_run_traced_in(run, &PriorCache::empty()).0)
            .collect(),
    };
    assert_eq!(
        cached.to_csv_string(),
        uncached.to_csv_string(),
        "prototype reuse must not change sweep results"
    );
    for (c, u) in cached.runs.iter().zip(&uncached.runs) {
        // Simulation work is identical counter-for-counter; only the
        // network-build count may drop (priors built once up front
        // instead of once per run).
        assert_eq!(c.work.events_processed, u.work.events_processed);
        assert_eq!(c.work.packets_forwarded, u.work.packets_forwarded);
        assert_eq!(c.work.hypothesis_updates, u.work.hypothesis_updates);
        assert_eq!(c.work.particle_resamples, u.work.particle_resamples);
        assert!(c.work.networks_built <= u.work.networks_built);
    }
    assert!(
        cached.total_work().networks_built < uncached.total_work().networks_built,
        "the cache must actually remove per-run prior builds"
    );
}

#[test]
fn work_counters_are_deterministic_across_workers() {
    // Per-run work counters are a pure function of the run: the same
    // sweep on 1 and 4 workers reports identical counters run-for-run.
    let runs = grid(0xC0DE).expand();
    let serial = SweepRunner::serial().run(&runs);
    let parallel = SweepRunner::with_workers(4).run(&runs);
    for (s, p) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(s.work, p.work, "run {} work drifted with workers", s.index);
        assert!(s.work.events_processed > 0, "closed loops process events");
    }
    assert_eq!(serial.total_work(), parallel.total_work());
}

#[test]
fn coexist_rows_carry_peer_restarts_and_jain() {
    let grid = grid_of("coexist-vs-tcp --duration 20 --replicates 2 --branches 50000");
    for r in &SweepRunner::serial().run(&grid.expand()).runs {
        assert!(!r.peer.is_empty(), "coexist rows carry the peer label");
        assert!(
            r.restarts_a.is_some() && r.restarts_b.is_some(),
            "coexist rows carry restart counts"
        );
        assert!(
            r.jain.is_nan() || (0.0..=1.0).contains(&r.jain),
            "jain index in range: {}",
            r.jain
        );
    }
}

#[test]
fn graph_rows_split_goodput_by_flow_class() {
    let grid = grid_of("dumbbell-cross --duration 20 --replicates 2 --branches 2048");
    for r in &SweepRunner::serial().run(&grid.expand()).runs {
        assert!(
            r.class_goodput.starts_with("primary=") && r.class_goodput.contains(" cross="),
            "graph rows split goodput by flow class: {:?}",
            r.class_goodput
        );
        assert!(
            r.jain.is_nan() || (0.0..=1.0).contains(&r.jain),
            "jain index in range: {}",
            r.jain
        );
    }
}
