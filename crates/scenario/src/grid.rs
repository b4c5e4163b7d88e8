//! Sweep grids: axes × base spec → a cartesian run list.
//!
//! A [`SweepGrid`] holds a base [`ScenarioSpec`] and an ordered list of
//! [`Axis`] values. [`SweepGrid::expand`] produces one [`RunSpec`] per
//! cartesian grid point — first axis slowest, last axis fastest — each
//! with a seed derived deterministically from `(base_seed, run_index)`
//! via [`SimRng::derive_seed`]. Because the seed is a pure function of
//! the index, executing the run list serially or across any number of
//! worker threads yields bit-identical results.

use crate::spec::{
    PeerSpec, PriorSpec, QueueSpec, ScenarioSpec, SenderSpec, TopologySpec, WorkloadSpec,
};
use augur_elements::RateProcess;
use augur_sim::{BitRate, Bits, Dur, Ppm, SimRng};

/// One sweep dimension.
#[derive(Debug, Clone)]
pub enum Axis {
    /// Utility α values (ISender senders only).
    Alpha(Vec<f64>),
    /// Latency penalty λ values (ISender senders only).
    LatencyPenalty(Vec<f64>),
    /// Ground-truth bottleneck link speeds.
    LinkRate(Vec<BitRate>),
    /// Ground-truth cross-traffic rates (enables the cross source).
    CrossRate(Vec<BitRate>),
    /// Ground-truth buffer capacities.
    BufferCapacity(Vec<Bits>),
    /// Ground-truth initial buffer backlogs.
    InitialFullness(Vec<Bits>),
    /// Ground-truth last-mile loss rates.
    Loss(Vec<Ppm>),
    /// Whole sender configurations (e.g. exact vs particle vs TCP).
    Sender(Vec<SenderSpec>),
    /// Coexistence peers (requires a [`WorkloadSpec::Coexist`] workload);
    /// each point replaces the workload's whole peer list with the one
    /// given peer.
    Peer(Vec<PeerSpec>),
    /// Queue disciplines of the cellular path's deep buffer (requires a
    /// [`TopologySpec::Cellular`] topology).
    Queue(Vec<QueueSpec>),
    /// Rate processes of the cellular path's radio link — one replayed
    /// trace file per point (requires a [`TopologySpec::Cellular`]
    /// topology).
    RateTrace(Vec<RateProcess>),
    /// Prior sizes (requires a [`PriorSpec::FineLinkRate`] prior).
    PriorSize(Vec<usize>),
    /// Concurrent flow counts (requires a [`WorkloadSpec::ManyFlows`]
    /// workload); each point sets the workload's flow count.
    Flows(Vec<usize>),
    /// `k` seed replicates: the spec is unchanged, but each replicate is
    /// a distinct run index and therefore a distinct derived seed.
    Seeds(usize),
}

impl Axis {
    /// Points along this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Alpha(v) => v.len(),
            Axis::LatencyPenalty(v) => v.len(),
            Axis::LinkRate(v) => v.len(),
            Axis::CrossRate(v) => v.len(),
            Axis::BufferCapacity(v) => v.len(),
            Axis::InitialFullness(v) => v.len(),
            Axis::Loss(v) => v.len(),
            Axis::Sender(v) => v.len(),
            Axis::Peer(v) => v.len(),
            Axis::Queue(v) => v.len(),
            Axis::RateTrace(v) => v.len(),
            Axis::PriorSize(v) => v.len(),
            Axis::Flows(v) => v.len(),
            Axis::Seeds(k) => *k,
        }
    }

    /// True iff the axis has no points (expansion of an empty axis yields
    /// an empty run list).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stable axis name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Alpha(_) => "alpha",
            Axis::LatencyPenalty(_) => "latency_penalty",
            Axis::LinkRate(_) => "link_bps",
            Axis::CrossRate(_) => "cross_bps",
            Axis::BufferCapacity(_) => "buffer_bits",
            Axis::InitialFullness(_) => "fullness_bits",
            Axis::Loss(_) => "loss_ppm",
            Axis::Sender(_) => "sender",
            Axis::Peer(_) => "peer",
            Axis::Queue(_) => "queue",
            Axis::RateTrace(_) => "rate_trace",
            Axis::PriorSize(_) => "prior_size",
            Axis::Flows(_) => "flows",
            Axis::Seeds(_) => "replicate",
        }
    }

    /// Human-readable value label of point `i`.
    pub fn label(&self, i: usize) -> String {
        match self {
            Axis::Alpha(v) => format!("{}", v[i]),
            Axis::LatencyPenalty(v) => format!("{}", v[i]),
            Axis::LinkRate(v) => format!("{}", v[i].as_bps()),
            Axis::CrossRate(v) => format!("{}", v[i].as_bps()),
            Axis::BufferCapacity(v) => format!("{}", v[i].as_u64()),
            Axis::InitialFullness(v) => format!("{}", v[i].as_u64()),
            Axis::Loss(v) => format!("{}", v[i].as_u32()),
            Axis::Sender(v) => v[i].label().to_string(),
            Axis::Peer(v) => v[i].label().to_string(),
            Axis::Queue(v) => v[i].label().to_string(),
            Axis::RateTrace(v) => rate_point_label(&v[i]),
            Axis::PriorSize(v) => format!("{}", v[i]),
            Axis::Flows(v) => format!("{}", v[i]),
            Axis::Seeds(_) => format!("{i}"),
        }
    }

    /// Write point `i` into the spec.
    fn apply(&self, i: usize, spec: &mut ScenarioSpec) {
        match self {
            Axis::Alpha(v) => spec.sender.set_alpha(v[i]),
            Axis::LatencyPenalty(v) => spec.sender.set_latency_penalty(v[i]),
            Axis::LinkRate(v) => spec.topology.model_mut("link-rate axis").link_rate = v[i],
            Axis::CrossRate(v) => {
                let m = spec.topology.model_mut("cross-rate axis");
                m.cross_rate = v[i];
                m.cross_active = true;
            }
            Axis::BufferCapacity(v) => {
                spec.topology
                    .model_mut("buffer-capacity axis")
                    .buffer_capacity = v[i]
            }
            Axis::InitialFullness(v) => {
                spec.topology
                    .model_mut("initial-fullness axis")
                    .initial_fullness = v[i]
            }
            Axis::Loss(v) => spec.topology.model_mut("loss axis").loss = v[i],
            Axis::Sender(v) => spec.sender = v[i].clone(),
            Axis::Peer(v) => match &mut spec.workload {
                WorkloadSpec::Coexist(cx) => cx.peers = vec![v[i]],
                other => panic!("peer axis over non-coexist workload {other:?}"),
            },
            Axis::Queue(v) => match &mut spec.topology {
                TopologySpec::Cellular { queue, .. } => *queue = v[i].clone(),
                other => panic!("queue axis over non-cellular topology {other:?}"),
            },
            Axis::RateTrace(v) => match &mut spec.topology {
                TopologySpec::Cellular { params, .. } => params.rate = v[i].clone(),
                other => panic!("rate-trace axis over non-cellular topology {other:?}"),
            },
            Axis::PriorSize(v) => match &mut spec.prior {
                PriorSpec::FineLinkRate { n, .. } => *n = v[i],
                other => panic!("prior-size axis over non-scalable prior {other:?}"),
            },
            Axis::Flows(v) => match &mut spec.workload {
                WorkloadSpec::ManyFlows(mf) => mf.flows = v[i],
                other => panic!("flows axis over non-many-flows workload {other:?}"),
            },
            Axis::Seeds(_) => {} // the run index alone differentiates replicates
        }
    }
}

/// The report label of a rate-trace axis point: the trace's file stem
/// (`../traces/lte-fade.csv` → `lte-fade`), falling back to the rate
/// kind for the non-trace processes a hand-built grid could hold. The
/// config decoder rejects rate-trace axes whose points share a stem, so
/// grid coordinates built from spec files stay unique.
pub(crate) fn rate_point_label(rate: &RateProcess) -> String {
    match rate {
        RateProcess::Trace { label, .. } => {
            let file = label.rsplit(['/', '\\']).next().unwrap_or(label.as_str());
            file.strip_suffix(".csv").unwrap_or(file).to_string()
        }
        RateProcess::Const(r) => format!("{}", r.as_bps()),
        RateProcess::Schedule { .. } => "schedule".into(),
    }
}

/// The ambient `AUGUR_BRANCHES` branch cap for quick runs, for
/// [`SweepGrid::set_max_branches`]. Unset, unparsable and zero all read
/// as no cap: a belief with no branches has nothing to normalize.
pub fn ambient_max_branches() -> Option<usize> {
    let raw = std::env::var("AUGUR_BRANCHES").ok()?;
    raw.parse().ok().filter(|&cap: &usize| cap >= 1)
}

/// One expanded run: a concrete spec, its position in the grid, and its
/// derived seed.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Position in the expanded run list (also the seed stream index).
    pub index: usize,
    /// The fully-applied scenario.
    pub spec: ScenarioSpec,
    /// `SimRng::derive_seed(base_seed, index)` — the run's root seed.
    pub seed: u64,
    /// `(axis name, value label)` per axis, for reporting.
    pub coords: Vec<(String, String)>,
}

impl RunSpec {
    /// The coordinates as one compact label, e.g. `alpha=1 replicate=3`.
    pub fn point(&self) -> String {
        self.coords
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A base scenario plus sweep axes.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// The spec every run starts from.
    pub base: ScenarioSpec,
    /// Sweep dimensions, slowest-varying first.
    pub axes: Vec<Axis>,
}

impl SweepGrid {
    /// A grid with no axes (expands to the single base run).
    pub fn new(base: ScenarioSpec) -> SweepGrid {
        SweepGrid {
            base,
            axes: Vec::new(),
        }
    }

    /// Append an axis (builder style).
    pub fn axis(mut self, axis: Axis) -> SweepGrid {
        self.axes.push(axis);
        self
    }

    /// Run every grid point for `duration` of simulated time.
    pub fn set_duration(&mut self, duration: Dur) {
        self.base.duration = duration;
    }

    /// Cap every exact-belief sender in the grid — the base sender and
    /// each sender-axis point — at `max_branches`. False when the grid
    /// has no such sender to take the cap.
    pub fn set_max_branches(&mut self, max_branches: usize) -> bool {
        let mut applied = false;
        let mut cap = |sender: &mut SenderSpec| {
            if let Some(cap) = sender.max_branches_mut() {
                *cap = max_branches;
                applied = true;
            }
        };
        cap(&mut self.base.sender);
        for axis in &mut self.axes {
            if let Axis::Sender(senders) = axis {
                senders.iter_mut().for_each(&mut cap);
            }
        }
        applied
    }

    /// Run `replicates` seeds per grid point. False when the grid has no
    /// seeds axis to take the count.
    pub fn set_replicates(&mut self, replicates: usize) -> bool {
        let mut applied = false;
        for axis in &mut self.axes {
            if let Axis::Seeds(count) = axis {
                *count = replicates;
                applied = true;
            }
        }
        applied
    }

    /// Total number of runs (product of axis lengths).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// True iff some axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand to the cartesian run list. The first axis varies slowest,
    /// the last fastest; run `index` enumerates in that order, and each
    /// run's seed is `SimRng::derive_seed(base.base_seed, index)`.
    pub fn expand(&self) -> Vec<RunSpec> {
        let total = self.len();
        let mut runs = Vec::with_capacity(total);
        for index in 0..total {
            // Decompose index into per-axis digits, last axis fastest.
            let mut rem = index;
            let mut digits = vec![0usize; self.axes.len()];
            for (d, axis) in self.axes.iter().enumerate().rev() {
                digits[d] = rem % axis.len();
                rem /= axis.len();
            }
            let mut spec = self.base.clone();
            let mut coords = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&digits) {
                axis.apply(i, &mut spec);
                coords.push((axis.name().to_string(), axis.label(i)));
            }
            runs.push(RunSpec {
                index,
                seed: SimRng::derive_seed(self.base.base_seed, index as u64),
                spec,
                coords,
            });
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioSpec {
        let mut s = ScenarioSpec::paper_baseline("test");
        s.duration = Dur::from_secs(10);
        s.base_seed = 42;
        s
    }

    #[test]
    fn cartesian_count_is_product_of_axes() {
        let grid = SweepGrid::new(base())
            .axis(Axis::Alpha(vec![0.9, 1.0, 2.5]))
            .axis(Axis::BufferCapacity(vec![
                Bits::new(48_000),
                Bits::new(96_000),
            ]))
            .axis(Axis::Seeds(4));
        assert_eq!(grid.len(), 3 * 2 * 4);
        assert_eq!(grid.expand().len(), 24);
    }

    #[test]
    fn no_axes_expands_to_single_base_run() {
        let runs = SweepGrid::new(base()).expand();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].index, 0);
        assert!(runs[0].coords.is_empty());
    }

    #[test]
    fn last_axis_varies_fastest() {
        let grid = SweepGrid::new(base())
            .axis(Axis::Alpha(vec![0.9, 5.0]))
            .axis(Axis::Seeds(2));
        let runs = grid.expand();
        let alphas: Vec<f64> = runs
            .iter()
            .map(|r| r.spec.sender.alpha().unwrap())
            .collect();
        assert_eq!(alphas, vec![0.9, 0.9, 5.0, 5.0]);
        let replicates: Vec<&str> = runs
            .iter()
            .map(|r| r.coords.last().unwrap().1.as_str())
            .collect();
        assert_eq!(replicates, vec!["0", "1", "0", "1"]);
    }

    #[test]
    fn axis_application_writes_topology_and_sender() {
        let grid = SweepGrid::new(base())
            .axis(Axis::LinkRate(vec![BitRate::from_bps(9_000)]))
            .axis(Axis::Loss(vec![Ppm::from_prob(0.1)]))
            .axis(Axis::LatencyPenalty(vec![0.5]));
        let runs = grid.expand();
        let topology = runs[0].spec.topology.model("test");
        assert_eq!(topology.link_rate, BitRate::from_bps(9_000));
        assert_eq!(topology.loss, Ppm::from_prob(0.1));
        match runs[0].spec.sender {
            SenderSpec::IsenderExact {
                latency_penalty, ..
            } => assert_eq!(latency_penalty, 0.5),
            ref other => panic!("unexpected sender {other:?}"),
        }
    }

    #[test]
    fn seed_derivation_is_stable_and_unique_per_index() {
        let grid = SweepGrid::new(base()).axis(Axis::Seeds(16));
        let a = grid.expand();
        let b = grid.expand();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.seed, rb.seed, "expansion must be reproducible");
            assert_eq!(ra.seed, SimRng::derive_seed(42, ra.index as u64));
        }
        let mut seeds: Vec<u64> = a.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16, "replicate seeds must be distinct");
    }

    #[test]
    fn point_label_joins_coordinates() {
        let grid = SweepGrid::new(base())
            .axis(Axis::Alpha(vec![2.5]))
            .axis(Axis::Seeds(1));
        let runs = grid.expand();
        assert_eq!(runs[0].point(), "alpha=2.5 replicate=0");
    }

    #[test]
    #[should_panic(expected = "non-coexist workload")]
    fn peer_axis_over_plain_workload_is_a_spec_error() {
        let grid = SweepGrid::new(base()).axis(Axis::Peer(vec![PeerSpec::Aimd {
            timeout: augur_sim::Dur::from_secs(8),
        }]));
        let _ = grid.expand();
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let grid = SweepGrid::new(base()).axis(Axis::Alpha(vec![]));
        assert!(grid.is_empty());
        assert_eq!(grid.expand().len(), 0);
    }
}
