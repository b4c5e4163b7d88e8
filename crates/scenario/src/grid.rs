//! Sweep grids: axes × base spec → a cartesian run list.
//!
//! A [`SweepGrid`] holds a base [`ScenarioSpec`] and an ordered list of
//! [`Axis`] values. [`SweepGrid::expand`] produces one [`RunSpec`] per
//! cartesian grid point — first axis slowest, last axis fastest — each
//! with a seed derived deterministically from `(base_seed, run_index)`
//! via [`SimRng::derive_seed`]. Because the seed is a pure function of
//! the index, executing the run list serially or across any number of
//! worker threads yields bit-identical results.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::spec::{
    Blame, PeerSpec, PriorSpec, QueueSpec, RuleError, ScenarioSpec, SenderSpec, TopologySpec,
    WorkloadSpec,
};
use augur_elements::{CellularParams, RateProcess};
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

    /// The section this axis writes, if any — the one it is to blame for
    /// when a grid point breaks a rule the base spec keeps.
    fn writes(&self) -> Option<Blame> {
        match self {
            Axis::Alpha(_) | Axis::LatencyPenalty(_) | Axis::Sender(_) => Some(Blame::Sender),
            Axis::LinkRate(_)
            | Axis::CrossRate(_)
            | Axis::BufferCapacity(_)
            | Axis::InitialFullness(_)
            | Axis::Loss(_)
            | Axis::Queue(_)
            | Axis::RateTrace(_) => Some(Blame::Topology),
            Axis::Peer(_) | Axis::Flows(_) => Some(Blame::Workload),
            Axis::PriorSize(_) => Some(Blame::Prior),
            Axis::Seeds(_) => None,
        }
    }

    /// Write point `i` into the spec. `Err` is the rule the axis breaks
    /// by finding nothing of its kind in this spec to write to.
    fn apply(&self, i: usize, spec: &mut ScenarioSpec) -> Result<(), String> {
        let model = |topology| {
            TopologySpec::try_model_mut(topology, format_args!("a {} axis", self.name()))
        };
        match self {
            Axis::Alpha(v) => *utility(&mut spec.sender, "an alpha")?.0 = v[i],
            Axis::LatencyPenalty(v) => *utility(&mut spec.sender, "a latency-penalty")?.1 = v[i],
            Axis::LinkRate(v) => model(&mut spec.topology)?.link_rate = v[i],
            Axis::CrossRate(v) => {
                let m = model(&mut spec.topology)?;
                m.cross_rate = v[i];
                m.cross_active = true;
            }
            Axis::BufferCapacity(v) => model(&mut spec.topology)?.buffer_capacity = v[i],
            Axis::InitialFullness(v) => model(&mut spec.topology)?.initial_fullness = v[i],
            Axis::Loss(v) => model(&mut spec.topology)?.loss = v[i],
            Axis::Sender(v) => spec.sender = v[i].clone(),
            Axis::Peer(v) => match &mut spec.workload {
                WorkloadSpec::Coexist(cx) => cx.peers = vec![v[i]],
                _ => return Err("a peer axis requires the coexist workload".into()),
            },
            Axis::Queue(v) => *cellular(&mut spec.topology, "queue")?.1 = v[i].clone(),
            Axis::RateTrace(v) => cellular(&mut spec.topology, "rate-trace")?.0.rate = v[i].clone(),
            Axis::PriorSize(v) => match &mut spec.prior {
                PriorSpec::FineLinkRate { n, .. } => *n = v[i],
                _ => return Err("a prior-size axis requires a fine-link-rate prior".into()),
            },
            Axis::Flows(v) => match &mut spec.workload {
                WorkloadSpec::ManyFlows(mf) => mf.flows = v[i],
                _ => return Err("a flows axis requires the many-flows workload".into()),
            },
            Axis::Seeds(_) => {} // the run index alone differentiates replicates
        }
        Ok(())
    }
}

/// The `(α, λ)` knobs of a sender with a utility function, for the axes
/// that sweep them.
fn utility<'a>(
    sender: &'a mut SenderSpec,
    axis: &str,
) -> Result<(&'a mut f64, &'a mut f64), String> {
    match sender {
        SenderSpec::IsenderExact {
            alpha,
            latency_penalty,
            ..
        }
        | SenderSpec::IsenderParticle {
            alpha,
            latency_penalty,
            ..
        } => Ok((alpha, latency_penalty)),
        other => Err(format!(
            "{axis} axis requires an isender (tcp senders have no utility function), got `{}`",
            other.label()
        )),
    }
}

/// The radio path and queue discipline of a cellular topology, for the
/// axes that sweep them.
fn cellular<'a>(
    topology: &'a mut TopologySpec,
    axis: &str,
) -> Result<(&'a mut CellularParams, &'a mut QueueSpec), String> {
    match topology {
        TopologySpec::Cellular { params, queue } => Ok((params, queue)),
        _ => Err(format!(
            "a {axis} axis requires a cellular topology (only its radio path has that knob)"
        )),
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

    /// Total number of runs (product of axis lengths), which
    /// [`SweepGrid::validate`] checks fits in a `usize`.
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// True iff some axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run count, or the rule it breaks: blame on the axis at which
    /// the product of the axis lengths overflows a `usize`.
    fn run_count(&self) -> Result<usize, RuleError> {
        let mut runs = 1usize;
        for (k, axis) in self.axes.iter().enumerate() {
            runs = runs.checked_mul(axis.len()).ok_or_else(|| RuleError {
                blame: Blame::Axis(k),
                rule: format!(
                    "the grid's run count overflows at its `{}` axis: {runs} × {}",
                    axis.name(),
                    axis.len()
                ),
            })?;
        }
        Ok(runs)
    }

    /// Grid point `index` — the base spec with one point of every axis
    /// applied, last axis fastest — and which point of each axis that is.
    fn point(&self, index: usize) -> Result<(ScenarioSpec, Vec<usize>), RuleError> {
        let mut rem = index;
        let mut digits = vec![0usize; self.axes.len()];
        for (d, axis) in self.axes.iter().enumerate().rev() {
            digits[d] = rem % axis.len();
            rem /= axis.len();
        }
        let mut spec = self.base.clone();
        for (k, (axis, &i)) in self.axes.iter().zip(&digits).enumerate() {
            axis.apply(i, &mut spec).map_err(|rule| RuleError {
                blame: Blame::Axis(k),
                rule,
            })?;
        }
        Ok((spec, digits))
    }

    /// The one validity authority for a grid: the base spec, then every
    /// grid point, must pass [`ScenarioSpec::check`], and every axis must
    /// find its knob in the spec it is applied to. `Err` names the first
    /// broken rule and blames a base section or — for a rule the base
    /// keeps and a point breaks — the last axis that wrote the blamed
    /// section — or the axis at which the run count overflows. The config
    /// decoder runs this on every grid it builds, so a grid from
    /// [`crate::load_grid`] is already valid.
    pub fn validate(&self) -> Result<(), RuleError> {
        self.base.check()?;
        for index in 0..self.run_count()? {
            let (spec, _) = self.point(index)?;
            spec.check().map_err(|mut e| {
                let wrote = |axis: &Axis| axis.writes() == Some(e.blame);
                if let Some(k) = self.axes.iter().rposition(wrote) {
                    e.blame = Blame::Axis(k);
                }
                e
            })?;
        }
        Ok(())
    }

    /// Expand to the cartesian run list. The first axis varies slowest,
    /// the last fastest; run `index` enumerates in that order, and each
    /// run's seed is `SimRng::derive_seed(base.base_seed, index)`.
    ///
    /// # Panics
    /// Panics with the rule if the run count overflows or an axis has no
    /// knob to write in this grid's spec — a hand-built grid that skipped
    /// [`SweepGrid::validate`]; one decoded from a spec file cannot.
    pub fn expand(&self) -> Vec<RunSpec> {
        #[expect(clippy::panic, reason = "P020: the documented # Panics")]
        let runs = self.run_count().unwrap_or_else(|e| panic!("{e}"));
        (0..runs)
            .map(|index| {
                #[expect(clippy::panic, reason = "P020: the documented # Panics")]
                let (spec, digits) = self.point(index).unwrap_or_else(|e| panic!("{e}"));
                let coord = |(axis, &i): (&Axis, &usize)| (axis.name().to_string(), axis.label(i));
                RunSpec {
                    index,
                    seed: SimRng::derive_seed(self.base.base_seed, index as u64),
                    spec,
                    coords: self.axes.iter().zip(&digits).map(coord).collect(),
                }
            })
            .collect()
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
    #[should_panic(expected = "the grid's run count overflows at its `replicate` axis")]
    fn an_overflowing_run_count_is_a_spec_error_not_an_empty_sweep() {
        // 2 × 2^63 runs wrap to exactly 0 in an unchecked product.
        let grid = SweepGrid::new(base())
            .axis(Axis::Alpha(vec![0.9, 1.0]))
            .axis(Axis::Seeds(1 << 63));
        assert_eq!(grid.validate().unwrap_err().blame, Blame::Axis(1));
        let _ = grid.expand();
    }

    #[test]
    #[should_panic(expected = "a peer axis requires the coexist workload")]
    fn peer_axis_over_plain_workload_is_a_spec_error() {
        let grid = SweepGrid::new(base()).axis(Axis::Peer(vec![PeerSpec::Aimd {
            timeout: augur_sim::Dur::from_secs(8),
        }]));
        let _ = grid.expand();
    }

    #[test]
    fn alpha_axis_over_tcp_is_a_spec_error() {
        let mut tcp = base();
        tcp.sender = SenderSpec::TcpReno { max_window: 64 };
        let grid = SweepGrid::new(tcp)
            .axis(Axis::Seeds(2))
            .axis(Axis::Alpha(vec![1.0]));
        let err = grid.validate().unwrap_err();
        assert_eq!(err.blame, Blame::Axis(1));
        assert!(err.rule.contains("an alpha axis requires an isender"));
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let grid = SweepGrid::new(base()).axis(Axis::Alpha(vec![]));
        assert!(grid.is_empty());
        assert_eq!(grid.expand().len(), 0);
    }
}
