//! The measurement kernel: always-on work counters and a wall-clock
//! stopwatch.
//!
//! This module lives in `augur-sim` — the workspace's dependency-free
//! root — so the hot paths of every other crate (the network event loop,
//! link-rate integration, belief updates) can bump a counter without
//! taking a dependency on anything above it. The sweep runner stamps
//! each run's counter delta into `RunSummary::work`; the standalone
//! `benchmark/` package reads the same counters for its per-layer
//! metrics.
//!
//! # Design
//!
//! Counters are **thread-local** `Cell<u64>`s: an increment is a handful
//! of instructions, never a contended atomic, so they stay on in release
//! builds. The cost of that choice is that a snapshot only sees the
//! calling thread's work — which is exactly what the sweep runner wants
//! (each run executes entirely on one worker thread, so a
//! snapshot-before/snapshot-after pair around a run is that run's work,
//! deterministically, for any worker count). Callers that fan work out
//! across threads sum the per-run [`WorkCounters`] instead.
//!
//! Counter values are pure functions of the simulated work — never of
//! wall time, scheduling, or thread count — so they can be pinned as
//! committed constants (`crates/scenario/tests/work_counters.rs`) and
//! compared exactly between two commits. Wall time ([`Stopwatch`]) is
//! diagnostic-only and must never flow into deterministic outputs.
#![expect(clippy::disallowed_types, reason = "D001: the one wall clock")]

use std::cell::Cell;
use std::ops::AddAssign;
use std::time::Instant;

/// A snapshot of the work-done counters.
///
/// All fields count discrete units of simulation/inference work. The
/// struct is closed under subtraction ([`WorkCounters::since`]) and
/// addition (`+=`), so per-run deltas can be aggregated across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Timer events fired: network-element timers plus reverse-path ACK
    /// arrivals at TCP endpoints.
    pub events_processed: u64,
    /// Packet movements routed through a network (one per routing pass:
    /// injection, link completion, delay release, …).
    pub packets_forwarded: u64,
    /// Hypothesis trajectories advanced by a belief engine: branches
    /// entering an exact-`advance` window, or live particles settled.
    pub hypothesis_updates: u64,
    /// Particle-filter systematic resampling passes.
    pub particle_resamples: u64,
    /// Rate-process service integrations (piecewise-exact
    /// `service_end` evaluations on time-varying links).
    pub rate_integrations: u64,
    /// Full prior enumerations: hypothesis sets built from scratch, one
    /// network construction per grid point. The sweep-level cache of
    /// seated priors exists to keep this at one per *distinct prior*, not
    /// one per run.
    pub networks_built: u64,
    /// Network state clones: per-hypothesis mutable state copied while
    /// the immutable structure is shared by `Arc`. Belief forks and
    /// particle resamples are state clones, not structure builds.
    pub state_clones: u64,
    /// Immutable network structures assembled by `NetworkBuilder::build`
    /// (topology, element parameters, rate schedules).
    pub structures_built: u64,
    /// Agent wakes dispatched by the flow driver (one `on_wake` call
    /// per count).
    pub flow_wakes: u64,
}

impl WorkCounters {
    /// The work done between `earlier` and `self` (field-wise wrapping
    /// subtraction, so a counter wrap cannot panic a run).
    pub fn since(&self, earlier: &WorkCounters) -> WorkCounters {
        WorkCounters {
            events_processed: self.events_processed.wrapping_sub(earlier.events_processed),
            packets_forwarded: self
                .packets_forwarded
                .wrapping_sub(earlier.packets_forwarded),
            hypothesis_updates: self
                .hypothesis_updates
                .wrapping_sub(earlier.hypothesis_updates),
            particle_resamples: self
                .particle_resamples
                .wrapping_sub(earlier.particle_resamples),
            rate_integrations: self
                .rate_integrations
                .wrapping_sub(earlier.rate_integrations),
            networks_built: self.networks_built.wrapping_sub(earlier.networks_built),
            state_clones: self.state_clones.wrapping_sub(earlier.state_clones),
            structures_built: self.structures_built.wrapping_sub(earlier.structures_built),
            flow_wakes: self.flow_wakes.wrapping_sub(earlier.flow_wakes),
        }
    }

    /// `(name, value)` pairs in a stable order, for report emission.
    /// Every field is named, so a new counter cannot be left out.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        let WorkCounters {
            events_processed,
            packets_forwarded,
            hypothesis_updates,
            particle_resamples,
            rate_integrations,
            networks_built,
            state_clones,
            structures_built,
            flow_wakes,
        } = *self;
        [
            ("events_processed", events_processed),
            ("packets_forwarded", packets_forwarded),
            ("hypothesis_updates", hypothesis_updates),
            ("particle_resamples", particle_resamples),
            ("rate_integrations", rate_integrations),
            ("networks_built", networks_built),
            ("state_clones", state_clones),
            ("structures_built", structures_built),
            ("flow_wakes", flow_wakes),
        ]
    }

    /// Total units of work across every counter.
    pub fn total(&self) -> u64 {
        self.named().iter().map(|(_, v)| v).sum()
    }
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, rhs: WorkCounters) {
        self.events_processed = self.events_processed.wrapping_add(rhs.events_processed);
        self.packets_forwarded = self.packets_forwarded.wrapping_add(rhs.packets_forwarded);
        self.hypothesis_updates = self.hypothesis_updates.wrapping_add(rhs.hypothesis_updates);
        self.particle_resamples = self.particle_resamples.wrapping_add(rhs.particle_resamples);
        self.rate_integrations = self.rate_integrations.wrapping_add(rhs.rate_integrations);
        self.networks_built = self.networks_built.wrapping_add(rhs.networks_built);
        self.state_clones = self.state_clones.wrapping_add(rhs.state_clones);
        self.structures_built = self.structures_built.wrapping_add(rhs.structures_built);
        self.flow_wakes = self.flow_wakes.wrapping_add(rhs.flow_wakes);
    }
}

struct Cells {
    events_processed: Cell<u64>,
    packets_forwarded: Cell<u64>,
    hypothesis_updates: Cell<u64>,
    particle_resamples: Cell<u64>,
    rate_integrations: Cell<u64>,
    networks_built: Cell<u64>,
    state_clones: Cell<u64>,
    structures_built: Cell<u64>,
    flow_wakes: Cell<u64>,
}

thread_local! {
    static COUNTERS: Cells = const {
        Cells {
            events_processed: Cell::new(0),
            packets_forwarded: Cell::new(0),
            hypothesis_updates: Cell::new(0),
            particle_resamples: Cell::new(0),
            rate_integrations: Cell::new(0),
            networks_built: Cell::new(0),
            state_clones: Cell::new(0),
            structures_built: Cell::new(0),
            flow_wakes: Cell::new(0),
        }
    };
}

#[inline]
fn bump(f: impl Fn(&Cells) -> &Cell<u64>, n: u64) {
    COUNTERS.with(|c| {
        let cell = f(c);
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Record one processed timer event.
#[inline]
pub fn count_event() {
    bump(|c| &c.events_processed, 1);
}

/// Record one packet routing pass.
#[inline]
pub fn count_packet_forward() {
    bump(|c| &c.packets_forwarded, 1);
}

/// Record `n` hypothesis trajectories advanced.
#[inline]
pub fn count_hypothesis_updates(n: u64) {
    bump(|c| &c.hypothesis_updates, n);
}

/// Record one particle resampling pass.
#[inline]
pub fn count_particle_resample() {
    bump(|c| &c.particle_resamples, 1);
}

/// Record one rate-process service integration.
#[inline]
pub fn count_rate_integration() {
    bump(|c| &c.rate_integrations, 1);
}

/// Record one full prior enumeration (a hypothesis set built from
/// scratch rather than cloned from a cached seated prior).
#[inline]
pub fn count_network_build() {
    bump(|c| &c.networks_built, 1);
}

/// Record one network state clone (structure shared by `Arc`).
#[inline]
pub fn count_state_clone() {
    bump(|c| &c.state_clones, 1);
}

/// Record one immutable network structure assembled by a builder.
#[inline]
pub fn count_structure_build() {
    bump(|c| &c.structures_built, 1);
}

/// Record one flow-driver agent wake (`on_wake` dispatch).
#[inline]
pub fn count_flow_wake() {
    bump(|c| &c.flow_wakes, 1);
}

/// The calling thread's cumulative counters. Counters are never reset;
/// measure an interval by snapshotting before and after and taking
/// [`WorkCounters::since`].
pub fn snapshot() -> WorkCounters {
    COUNTERS.with(|c| WorkCounters {
        events_processed: c.events_processed.get(),
        packets_forwarded: c.packets_forwarded.get(),
        hypothesis_updates: c.hypothesis_updates.get(),
        particle_resamples: c.particle_resamples.get(),
        rate_integrations: c.rate_integrations.get(),
        networks_built: c.networks_built.get(),
        state_clones: c.state_clones.get(),
        structures_built: c.structures_built.get(),
        flow_wakes: c.flow_wakes.get(),
    })
}

/// A started wall clock — the one sanctioned way to measure elapsed
/// time. Wall time is diagnostic only: it may be printed or stored in
/// fields explicitly excluded from deterministic exports, never used to
/// derive simulation behavior or report bytes.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_count_work() {
        let before = snapshot();
        count_event();
        count_event();
        count_packet_forward();
        count_hypothesis_updates(7);
        count_particle_resample();
        count_rate_integration();
        count_network_build();
        count_state_clone();
        count_state_clone();
        count_state_clone();
        count_structure_build();
        count_flow_wake();
        let work = snapshot().since(&before);
        assert_eq!(work.events_processed, 2);
        assert_eq!(work.packets_forwarded, 1);
        assert_eq!(work.hypothesis_updates, 7);
        assert_eq!(work.particle_resamples, 1);
        assert_eq!(work.rate_integrations, 1);
        assert_eq!(work.networks_built, 1);
        assert_eq!(work.state_clones, 3);
        assert_eq!(work.structures_built, 1);
        assert_eq!(work.flow_wakes, 1);
        assert_eq!(work.total(), 18);
    }

    #[test]
    fn counters_are_thread_local() {
        let before = snapshot();
        std::thread::spawn(|| {
            let inner_before = snapshot();
            count_event();
            assert_eq!(snapshot().since(&inner_before).events_processed, 1);
        })
        .join()
        .unwrap();
        // The spawned thread's work is invisible here.
        assert_eq!(snapshot().since(&before).events_processed, 0);
    }

    #[test]
    fn add_assign_sums_fieldwise() {
        let mut a = WorkCounters {
            events_processed: 1,
            packets_forwarded: 2,
            ..WorkCounters::default()
        };
        a += WorkCounters {
            events_processed: 10,
            hypothesis_updates: 5,
            ..WorkCounters::default()
        };
        assert_eq!(a.events_processed, 11);
        assert_eq!(a.packets_forwarded, 2);
        assert_eq!(a.hypothesis_updates, 5);
    }

    #[test]
    fn named_order_is_stable() {
        let names: Vec<&str> = WorkCounters::default()
            .named()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            vec![
                "events_processed",
                "packets_forwarded",
                "hypothesis_updates",
                "particle_resamples",
                "rate_integrations",
                "networks_built",
                "state_clones",
                "structures_built",
                "flow_wakes",
            ]
        );
    }

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
