//! The shipped sweeps: what `sweep <name>` runs, and what the library's
//! callers and tests build on.
//!
//! A preset *is* its spec file: `experiments/specs/<name>.toml` is
//! compiled in and decoded on request, so there is exactly one
//! definition of every shipped grid and `sweep <name>` cannot differ
//! from `sweep --spec experiments/specs/<name>.toml`. What each sweep
//! measures, and why its numbers are what they are, is written as
//! comments in the file. The constructors below are the shipped grid
//! with their arguments written over it by the same [`SweepGrid`]
//! overrides `sweep --duration/--branches/--replicates` uses.

use crate::config;
use crate::grid::{Axis, SweepGrid};
use crate::spec::SenderSpec;
use augur_sim::Dur;

/// One list of names declares both tables, so a preset's name is its
/// spec file's stem by construction.
macro_rules! shipped_specs {
    ($($name:literal),* $(,)?) => {
        /// Every preset name. Each doubles as the spec file stem under
        /// `experiments/specs/` and the default CSV stem under
        /// `experiments/`.
        pub const NAMES: [&str; 14] = [$($name),*];

        /// The text of `experiments/specs/<name>.toml`, in [`NAMES`] order.
        const SPECS: [&str; 14] =
            [$(include_str!(concat!("../../../experiments/specs/", $name, ".toml"))),*];
    };
}

shipped_specs![
    "fig1",
    "fig3",
    "tab1",
    "txt1",
    "txt2",
    "scaling",
    "smoke",
    "coexist-fairness",
    "coexist-vs-tcp",
    "ext-aqm",
    "replay-cellular",
    "dumbbell-cross",
    "parking-lot",
    "ext-scaling-flows",
];

/// The shipped spec text of a preset, as committed under
/// `experiments/specs/`.
pub(crate) fn spec_text(name: &str) -> Option<&'static str> {
    let i = NAMES.iter().position(|n| *n == name)?;
    Some(SPECS[i])
}

/// The shipped grid for a preset name: what `sweep <name>` runs with no
/// overrides. Decoding reads no file — trace references load from the
/// CSVs [`crate::traces::SHIPPED`] compiles in.
///
/// # Panics
/// Panics if the compiled-in spec does not decode — a broken file under
/// `experiments/specs/`, caught by the tests, never by a user's input.
pub fn by_name(name: &str) -> Option<SweepGrid> {
    let text = spec_text(name)?;
    match config::parse_embedded(text) {
        Ok(grid) => Some(grid),
        Err(e) => panic!("experiments/specs/{name}.toml:{e}"),
    }
}

/// The shipped grid `name` with the constructor's arguments applied.
fn shipped(
    name: &str,
    duration: Dur,
    max_branches: Option<usize>,
    replicates: Option<usize>,
) -> SweepGrid {
    let mut grid = by_name(name).expect("constructors name shipped specs");
    grid.set_duration(duration);
    if let Some(cap) = max_branches {
        assert!(grid.set_max_branches(cap), "{name} has no branch cap");
    }
    if let Some(k) = replicates {
        assert!(grid.set_replicates(k), "{name} has no seeds axis");
    }
    grid
}

/// FIG1 (bufferbloat): a TCP Reno bulk download over the LTE-like path.
pub fn fig1(duration: Dur) -> SweepGrid {
    shipped("fig1", duration, None, None)
}

/// Figure 3: one closed-loop run per α ∈ {0.9, 1, 2.5, 5}.
pub fn fig3(duration: Dur, max_branches: usize) -> SweepGrid {
    shipped("fig3", duration, Some(max_branches), None)
}

/// TAB1 (Figure 2's table): the α = 1 posterior-convergence run.
pub fn tab1(duration: Dur, max_branches: usize) -> SweepGrid {
    shipped("tab1", duration, Some(max_branches), None)
}

/// TXT1 (§4's simple configuration): one ISender on a quiet unknown link.
pub fn txt1(duration: Dur) -> SweepGrid {
    shipped("txt1", duration, None, None)
}

/// TXT2 (§4): α = 1 with and without the latency penalty.
pub fn txt2(duration: Dur) -> SweepGrid {
    shipped("txt2", duration, None, None)
}

/// EXT-C (§3.2's cost remark): exact enumeration vs a particle filter of
/// `n_particles` across the prior `sizes`, at the shipped 30 s.
pub fn ext_scaling(sizes: Vec<usize>, n_particles: usize) -> SweepGrid {
    let mut grid = by_name("scaling").expect("constructors name shipped specs");
    for axis in &mut grid.axes {
        match axis {
            Axis::PriorSize(shipped) => shipped.clone_from(&sizes),
            Axis::Sender(senders) => {
                for sender in senders {
                    if let SenderSpec::IsenderParticle { n_particles: n, .. } = sender {
                        *n = n_particles;
                    }
                }
            }
            _ => {}
        }
    }
    grid
}

/// A quick smoke sweep: exact vs particle over the Small prior.
pub fn smoke(duration: Dur, replicates: usize) -> SweepGrid {
    shipped("smoke", duration, None, Some(replicates))
}

/// EXT-A (§3.5): two ISenders sharing one bottleneck.
pub fn coexist_fairness(duration: Dur, replicates: usize, max_branches: usize) -> SweepGrid {
    shipped(
        "coexist-fairness",
        duration,
        Some(max_branches),
        Some(replicates),
    )
}

/// EXT-B (§3.5): the ISender against AIMD, TCP Reno and TCP CUBIC.
pub fn coexist_vs_tcp(duration: Dur, replicates: usize, max_branches: usize) -> SweepGrid {
    shipped(
        "coexist-vs-tcp",
        duration,
        Some(max_branches),
        Some(replicates),
    )
}

/// EXT-D (§3.5's AQM remark): the FIG1 download under drop-tail, RED and
/// CoDel.
pub fn ext_aqm(duration: Dur) -> SweepGrid {
    shipped("ext-aqm", duration, None, None)
}

/// Trace-driven cellular replay: TCP Reno and CUBIC over the shipped
/// synthetic LTE traces, crossed with the EXT-D queue disciplines.
pub fn replay_cellular(duration: Dur) -> SweepGrid {
    shipped("replay-cellular", duration, None, None)
}

/// EXT-E: the ISender and two AIMD cross flows over a three-pair dumbbell.
pub fn dumbbell_cross(duration: Dur, replicates: usize, max_branches: usize) -> SweepGrid {
    shipped(
        "dumbbell-cross",
        duration,
        Some(max_branches),
        Some(replicates),
    )
}

/// EXT-F: the ISender's long flow against one AIMD short flow per hop of
/// a three-hop parking lot.
pub fn parking_lot(duration: Dur, replicates: usize, max_branches: usize) -> SweepGrid {
    shipped(
        "parking-lot",
        duration,
        Some(max_branches),
        Some(replicates),
    )
}

/// EXT-SCALING-FLOWS: 10 to 10,000 belief-free agents on one bottleneck.
pub fn ext_scaling_flows(duration: Dur, replicates: usize) -> SweepGrid {
    shipped("ext-scaling-flows", duration, None, Some(replicates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PeerSpec, WorkloadSpec};

    #[test]
    fn fig3_grid_matches_the_paper() {
        let grid = fig3(Dur::from_secs(300), 50_000);
        assert_eq!(grid.len(), 4);
        let runs = grid.expand();
        let alphas: Vec<f64> = runs
            .iter()
            .map(|r| r.spec.sender.alpha().unwrap())
            .collect();
        assert_eq!(alphas, vec![0.9, 1.0, 2.5, 5.0]);
        assert!(runs
            .iter()
            .all(|r| r.spec.workload == WorkloadSpec::ClosedLoop));
    }

    #[test]
    fn ext_scaling_crosses_engines_with_sizes() {
        let grid = ext_scaling(vec![101, 1_001], 1_000);
        let runs = grid.expand();
        assert_eq!(runs.len(), 4);
        // Sender is the slow axis: exact×both sizes first, then particle.
        assert_eq!(runs[0].spec.sender.label(), "isender-exact");
        assert_eq!(runs[1].spec.sender.label(), "isender-exact");
        assert_eq!(runs[2].spec.sender.label(), "isender-particle");
        assert_eq!(runs[0].spec.prior.size(), 101);
        assert_eq!(runs[1].spec.prior.size(), 1_001);
    }

    #[test]
    fn coexist_fairness_expands_to_replicates() {
        let runs = coexist_fairness(Dur::from_secs(60), 3, 50_000).expand();
        assert_eq!(runs.len(), 3);
        for r in &runs {
            match &r.spec.workload {
                WorkloadSpec::Coexist(cx) => {
                    assert_eq!(cx.peers, vec![PeerSpec::Isender { alpha: 1.0 }])
                }
                other => panic!("unexpected workload {other:?}"),
            }
        }
    }

    #[test]
    fn coexist_vs_tcp_crosses_peers_with_seeds() {
        let runs = coexist_vs_tcp(Dur::from_secs(60), 2, 50_000).expand();
        assert_eq!(runs.len(), 6);
        let peers: Vec<String> = runs
            .iter()
            .map(|r| match &r.spec.workload {
                WorkloadSpec::Coexist(cx) => cx.label(),
                other => panic!("unexpected workload {other:?}"),
            })
            .collect();
        assert_eq!(
            peers,
            [
                "aimd",
                "aimd",
                "tcp-reno",
                "tcp-reno",
                "tcp-cubic",
                "tcp-cubic"
            ]
        );
        assert_eq!(runs[2].point(), "peer=tcp-reno replicate=0");
    }

    #[test]
    fn txt2_sweeps_the_latency_penalty() {
        let runs = txt2(Dur::from_secs(120)).expand();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].point(), "latency_penalty=0");
        assert_eq!(runs[1].point(), "latency_penalty=0.5");
    }
}
