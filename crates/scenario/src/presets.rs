//! The shipped sweeps: what `sweep <name>` runs, and what the library's
//! callers and tests build on.
//!
//! A preset *is* its spec file: `experiments/specs/<name>.toml` is
//! compiled in and decoded on request, so there is exactly one
//! definition of every shipped grid and `sweep <name>` cannot differ
//! from `sweep --spec experiments/specs/<name>.toml`. What each sweep
//! measures, and why its numbers are what they are, is written as
//! comments in the file. A caller that wants another size writes it
//! over the shipped grid with the [`SweepGrid`] setters `sweep
//! --duration/--branches/--replicates` uses.

use crate::config;
use crate::grid::SweepGrid;
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

/// Trace-driven cellular replay at `duration`: TCP Reno and CUBIC over
/// the shipped synthetic LTE traces, crossed with the EXT-D queue
/// disciplines.
pub fn replay_cellular(duration: Dur) -> SweepGrid {
    let mut grid = by_name("replay-cellular").expect("replay-cellular is shipped");
    grid.set_duration(duration);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PeerSpec, WorkloadSpec};

    #[test]
    fn fig3_grid_matches_the_paper() {
        let grid = by_name("fig3").unwrap();
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
        let runs = by_name("scaling").unwrap().expand();
        assert_eq!(runs.len(), 6);
        // Sender is the slow axis: exact×every size first, then particle.
        assert_eq!(runs[0].spec.sender.label(), "isender-exact");
        assert_eq!(runs[1].spec.sender.label(), "isender-exact");
        assert_eq!(runs[3].spec.sender.label(), "isender-particle");
        assert_eq!(runs[0].spec.prior.size(), 101);
        assert_eq!(runs[1].spec.prior.size(), 1_001);
    }

    #[test]
    fn coexist_fairness_expands_to_replicates() {
        let mut grid = by_name("coexist-fairness").unwrap();
        assert!(grid.set_replicates(3));
        let runs = grid.expand();
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
        let runs = by_name("coexist-vs-tcp").unwrap().expand();
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
        let runs = by_name("txt2").unwrap().expand();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].point(), "latency_penalty=0");
        assert_eq!(runs[1].point(), "latency_penalty=0.5");
    }
}
