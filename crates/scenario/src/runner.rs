//! The sweep executor.
//!
//! [`SweepRunner`] pulls [`RunSpec`]s off a shared work queue onto
//! `std::thread::scope` worker threads. Every run is self-contained: its
//! ground truth, belief engine, and RNGs are all (re)built inside
//! [`execute_run_traced_in`] from the spec and the run's derived seed, and results
//! land in a per-run slot. No state is shared between runs, so a sweep
//! executed with one worker or N workers produces identical
//! [`SweepReport`]s — the determinism test pins this.
//!
//! # Run paths
//!
//! `execute_run_observed_in` first holds the spec to
//! [`ScenarioSpec::check`] and then takes one of three paths:
//!
//! * **Agent workloads** — closed-loop ISenders, coexistence over a
//!   model or graph topology, many-flow scaling. `lower` turns the spec
//!   into (ground truth, agents, horizon), `run_agents` drives that
//!   through [`FlowDriver`] (the crate's only call into it), and
//!   `summarize` turns the per-flow [`RunTrace`]s into the
//!   [`RunSummary`].
//! * **`closed_loop_tcp`** — a TCP bulk transfer over a model or
//!   cellular path runs on [`augur_tcp::TcpRunner`]'s own loop. The same
//!   endpoint as a [`TcpPeerAgent`] at N=1 through the driver is
//!   byte-identical but measurably slower and larger on
//!   `replay-cellular`, where the driver's per-wake cost dominates, so
//!   the private loop stays until that cost is measured down.
//! * **`scripted_ping`** — open loop: sends follow a fixed script and no
//!   agent decides anything, so there is nothing for the driver to
//!   schedule; it meters the belief update alone.

use crate::grid::RunSpec;
use crate::report::{RunStatus, RunSummary, SweepReport};
use crate::spec::{PeerSpec, PriorSpec, ScenarioSpec, SenderSpec, TopologySpec, WorkloadSpec};
use augur_core::{
    build_many_flow_bottleneck, coexist_belief, jain_index, AimdSender, DiscountedThroughput,
    DriverError, FlowDriver, FlowEndpoint, GroundTruth, ISender, ISenderConfig, MultiFlowTruth,
    ParticleSender, RestartingSender, RunTrace, SenderAgent, WakeOutcome,
};
use augur_elements::{
    build_cellular_with_buffer, DropReason, ModelParams, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF,
};
use augur_inference::{
    Belief, BeliefConfig, BeliefError, Engine, Observation, ParticleFilter, Population,
};
use augur_obs::EventRecord;
use augur_sim::perf::{self, Stopwatch, WorkCounters};
use augur_sim::{Bits, Dur, FlowId, Packet, SimRng, Time};
use augur_tcp::{Cubic, Reno, TcpConfig, TcpEndpoint, TcpTrace};
use augur_trace::percentile_of_sorted;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Seed sub-stream for the ground-truth network's sampled choices.
const STREAM_TRUTH: u64 = 0;
/// Seed sub-stream for the belief engine (particle sampling/resampling).
const STREAM_ENGINE: u64 = 1;

/// The time-resolved record a run leaves behind, beyond its summary.
/// The paper-shape tests check it; summary-only sweeps drop it as each
/// run completes.
#[derive(Debug, Clone)]
pub enum RunArtifact {
    /// The run kind produces no trace (scripted workloads, which
    /// summarize inline).
    None,
    /// An agent workload's full [`RunTrace`] (for coexistence and
    /// many-flow runs, the primary flow's).
    ClosedLoop(RunTrace),
    /// A TCP run's [`TcpTrace`] (RTT samples, received bits, segment
    /// and drop counts).
    Tcp(TcpTrace),
}

/// Each distinct prior of a sweep, seated once.
///
/// A run's belief engine starts from its prior seated on shared states (a
/// [`Population`]): the paper grid is 4,760 hypotheses on 952 states.
/// Enumerating and seating that inside every run made prior construction
/// the dominant sweep startup cost on big priors, so [`SweepRunner`]
/// seats each distinct [`PriorSpec`] once up front, one hypothesis at a
/// time, and keeps it in the form the belief holds: an exact run starts
/// from a clone of it (its states copied, its structures and metas
/// shared), and a particle filter draws from its members.
///
/// Determinism is unaffected: a clone is the population a fresh seating
/// of `PriorSpec::hypotheses` would build, so summaries and report bytes
/// are byte-for-byte the same with or without the cache
/// (`prior_cache_reuses_prototypes_without_changing_results` in the
/// scenario tests pins this).
#[derive(Debug, Clone, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "D003: lookup-only (get/insert by PriorSpec, never iterated); PriorSpec is \
              Eq + Hash but not Ord (prior_cache_reuses_prototypes_without_changing_results)"
)]
pub struct PriorCache {
    map: std::collections::HashMap<PriorSpec, Arc<Population<ModelParams>>>,
}

impl PriorCache {
    /// A cache with no entries: every lookup seats the prior afresh.
    pub fn empty() -> PriorCache {
        PriorCache::default()
    }

    /// Seat every distinct prior the runs' belief engines will start
    /// from. Runs whose sender carries no belief over the scenario prior
    /// (TCP senders, coexistence workloads — the latter derive a
    /// dedicated prior from the topology) are skipped.
    #[expect(clippy::disallowed_types, reason = "D003: fills the lookup-only cache")]
    pub fn for_runs(runs: &[RunSpec]) -> PriorCache {
        let mut map = std::collections::HashMap::new();
        for run in runs {
            if !uses_scenario_prior(&run.spec) {
                continue;
            }
            map.entry(run.spec.prior.clone())
                .or_insert_with_key(|prior: &PriorSpec| Arc::new(seat(prior)));
        }
        PriorCache { map }
    }

    /// The prior seated: shared on a cache hit, seated afresh otherwise.
    fn population(&self, prior: &PriorSpec) -> Arc<Population<ModelParams>> {
        match self.map.get(prior) {
            Some(seated) => Arc::clone(seated),
            None => Arc::new(seat(prior)),
        }
    }
}

/// The prior's hypotheses seated on shared states at the Figure-2 model's
/// last-mile loss node, the fold every scenario belief uses.
fn seat(prior: &PriorSpec) -> Population<ModelParams> {
    Population::new(prior.hypotheses(), Some(FIG2_LOSS))
}

/// Does this scenario's belief engine enumerate `spec.prior`?
fn uses_scenario_prior(spec: &ScenarioSpec) -> bool {
    let belief_sender = matches!(
        spec.sender,
        SenderSpec::IsenderExact { .. } | SenderSpec::IsenderParticle { .. }
    );
    // Coexistence primaries use the dedicated coexistence prior derived
    // from the topology, not the scenario prior.
    belief_sender && !matches!(spec.workload, WorkloadSpec::Coexist(_))
}

/// Executes expanded run lists across worker threads.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    /// Worker thread count (≥ 1).
    pub workers: usize,
    /// Print one progress line per completed run to stderr.
    pub verbose: bool,
    /// Print a compact completed-run ticker to stderr. Stderr-only and
    /// wall-clock-free, so enabling it cannot change stdout, report
    /// bytes, or any counter (pinned by `progress_leaves_report_bytes`).
    pub progress: bool,
}

impl SweepRunner {
    /// One worker: the serial reference execution.
    pub fn serial() -> SweepRunner {
        SweepRunner {
            workers: 1,
            verbose: false,
            progress: false,
        }
    }

    /// One worker per available core.
    pub fn parallel() -> SweepRunner {
        SweepRunner {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            verbose: false,
            progress: false,
        }
    }

    /// An explicit worker count.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> SweepRunner {
        assert!(workers > 0, "a sweep needs at least one worker");
        SweepRunner {
            workers,
            verbose: false,
            progress: false,
        }
    }

    /// Enable per-run progress lines on stderr.
    pub fn verbose(mut self) -> SweepRunner {
        self.verbose = true;
        self
    }

    /// Enable the completed-run ticker on stderr.
    pub fn progress(mut self) -> SweepRunner {
        self.progress = true;
        self
    }

    /// Execute every run, in parallel, and collect summaries in run-index
    /// order. The report is a pure function of the run list: worker count
    /// and scheduling order cannot affect it.
    pub fn run(&self, runs: &[RunSpec]) -> SweepReport {
        self.run_impl(runs, false, false).0
    }

    /// [`SweepRunner::run`], additionally keeping each run's
    /// [`RunArtifact`] (where the run kind produces one) in run-index
    /// order. Artifacts cover the whole simulated duration; summary-only
    /// sweeps should use [`SweepRunner::run`], which drops each artifact
    /// as soon as its run completes.
    pub fn run_traced(&self, runs: &[RunSpec]) -> (SweepReport, Vec<RunArtifact>) {
        let (report, traces, _) = self.run_impl(runs, true, false);
        (report, traces)
    }

    /// [`SweepRunner::run`], additionally keeping each run's structured
    /// event log in run-index order. Runs whose spec arms no observation
    /// channel leave an empty log. The logs are a pure function of the
    /// run list, like the report: any worker count yields byte-identical
    /// JSONL (pinned by the scenario determinism tests).
    pub fn run_observed(&self, runs: &[RunSpec]) -> (SweepReport, Vec<Vec<EventRecord>>) {
        let (report, _, events) = self.run_impl(runs, false, true);
        (report, events)
    }

    /// The worker count actually used for `run_count` runs: the
    /// configured count clamped to the run count (never below one) —
    /// spawning more threads than there are runs buys nothing.
    pub fn effective_workers(&self, run_count: usize) -> usize {
        self.workers.min(run_count).max(1)
    }

    fn run_impl(
        &self,
        runs: &[RunSpec],
        keep_traces: bool,
        keep_events: bool,
    ) -> (SweepReport, Vec<RunArtifact>, Vec<Vec<EventRecord>>) {
        type Slot = Mutex<Option<(RunSummary, RunArtifact, Vec<EventRecord>)>>;
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Slot> = runs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.effective_workers(runs.len());
        // Seat each distinct prior once; every run starts from a clone
        // of it instead of re-enumerating.
        let priors = PriorCache::for_runs(runs);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= runs.len() {
                        break;
                    }
                    let (summary, trace, events) = execute_run_observed_in(&runs[i], &priors);
                    let trace = if keep_traces {
                        trace
                    } else {
                        RunArtifact::None
                    };
                    let events = if keep_events { events } else { Vec::new() };
                    if self.verbose {
                        eprintln!(
                            "  [{}/{}] {} {} — {}: {} sends, {} acked, {} events, {:.1}s wall",
                            i + 1,
                            runs.len(),
                            summary.sender,
                            summary.point,
                            summary.status.label(),
                            summary.sends,
                            summary.delivered,
                            summary.work.events_processed,
                            summary.wall_s
                        );
                    }
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.progress {
                        // Completed-run count only — no wall clock, no
                        // rates — so the ticker is deterministic noise-free
                        // stderr and nothing else.
                        eprint!("\r  {finished}/{} runs", runs.len());
                        if finished == runs.len() {
                            eprintln!();
                        }
                    }
                    *slots[i].lock().expect("slot poisoned") = Some((summary, trace, events));
                });
            }
        });
        let mut summaries = Vec::with_capacity(runs.len());
        let mut traces = Vec::with_capacity(runs.len());
        let mut event_logs = Vec::with_capacity(runs.len());
        for slot in slots {
            let (summary, trace, events) = slot
                .into_inner()
                .expect("slot poisoned")
                .expect("every run executed");
            summaries.push(summary);
            traces.push(trace);
            event_logs.push(events);
        }
        (SweepReport { runs: summaries }, traces, event_logs)
    }
}

/// Execute one run to completion and summarize it, drawing prior
/// hypotheses from `priors` (a miss, as on [`PriorCache::empty`], seats
/// the prior inside the run), and return its [`RunArtifact`]: agent
/// workloads leave the primary flow's [`RunTrace`], TCP runs a
/// [`TcpTrace`]; scripted workloads summarize inline. The artifact
/// carries the time-resolved quantities (RTT samples, per-phase send
/// rates) the summary does not.
pub fn execute_run_traced_in(run: &RunSpec, priors: &PriorCache) -> (RunSummary, RunArtifact) {
    let (summary, trace, _) = execute_run_observed_in(run, priors);
    (summary, trace)
}

/// [`execute_run_traced_in`], additionally returning the run's
/// structured event log (empty unless the spec's `observe` arms a
/// channel). The sink is armed for exactly the duration of the
/// run on the executing thread, so per-run logs are independent of
/// worker count and scheduling. Wall time and work-done counters come
/// from `augur_sim::perf`: the counter delta around the run is that
/// run's work — runs execute entirely on one thread — and is
/// deterministic for any worker count, unlike the stopwatch reading.
///
/// # Panics
/// Panics if the spec breaks a [`ScenarioSpec::check`] rule — `sweep`
/// rejects such a grid with exit 2 before any run starts.
fn execute_run_observed_in(
    run: &RunSpec,
    priors: &PriorCache,
) -> (RunSummary, RunArtifact, Vec<EventRecord>) {
    if let Err(rule) = run.spec.check() {
        panic!("run {} ({}): {rule}", run.index, run.point());
    }
    augur_obs::start_run(run.spec.observe);
    let watch = Stopwatch::start();
    let counters_before = perf::snapshot();
    let (mut summary, trace) = match (&run.spec.workload, &run.spec.sender) {
        (WorkloadSpec::ClosedLoop, SenderSpec::TcpReno { .. } | SenderSpec::TcpCubic { .. }) => {
            let (summary, trace) = closed_loop_tcp(run);
            (summary, RunArtifact::Tcp(trace))
        }
        (WorkloadSpec::ScriptedPing { interval }, _) => {
            (scripted_ping(run, *interval, priors), RunArtifact::None)
        }
        _ => agent_run(run, priors),
    };
    summary.work = perf::snapshot().since(&counters_before);
    // Scripted runs meter their own wall clock (belief updates only);
    // everything else reports whole-run wall time.
    if summary.wall_s == 0.0 {
        summary.wall_s = watch.elapsed_secs();
    }
    let events = augur_obs::finish_run();
    (summary, trace, events)
}

/// A summary skeleton with everything not-yet-measured marked missing.
fn blank_summary(run: &RunSpec) -> RunSummary {
    RunSummary {
        index: run.index,
        scenario: run.spec.name.clone(),
        sender: run.spec.sender.label().to_string(),
        peer: String::new(),
        point: run.point(),
        seed: run.seed,
        status: RunStatus::Ok,
        duration_s: run.spec.duration.as_secs_f64(),
        sends: 0,
        delivered: 0,
        throughput_pps: f64::NAN,
        goodput_bps: f64::NAN,
        goodput_b_bps: f64::NAN,
        jain: f64::NAN,
        restarts_a: None,
        restarts_b: None,
        delay_p50_s: f64::NAN,
        delay_p95_s: f64::NAN,
        delay_p99_s: f64::NAN,
        utility: f64::NAN,
        overflow_drops: 0,
        population: 0,
        rate_err_bps: f64::NAN,
        class_goodput: String::new(),
        wall_s: 0.0,
        work: WorkCounters::default(),
    }
}

/// The spec's ground truth wrapped for the closed loop, with the truth
/// RNG on the run seed's dedicated sub-stream. Public so callers that
/// read the belief itself (the TAB1 and TXT1 paper-shape tests check the
/// posterior) can drive the exact network a sweep run would use.
pub fn spec_ground_truth(spec: &ScenarioSpec, seed: u64) -> GroundTruth {
    let m = spec.build_truth();
    GroundTruth {
        net: m.net,
        entry: m.entry,
        rx_self: m.rx_self,
        rng: SimRng::derive(seed, STREAM_TRUTH),
    }
}

/// Build the exact belief for a spec, drawing the prior's hypotheses
/// from `priors` (cache misses enumerate from scratch).
fn spec_belief_in(
    spec: &ScenarioSpec,
    max_branches: usize,
    priors: &PriorCache,
) -> Belief<ModelParams> {
    // Every Figure-2 model shares the fixed FIG2_* node ids, so no probe
    // network is needed — but keep the model-topology guard so non-model
    // specs still fail loudly here.
    let _ = spec.topology.model("spec_belief_in");
    Belief::from_population(
        Arc::unwrap_or_clone(priors.population(&spec.prior)),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        BeliefConfig {
            max_branches,
            ..BeliefConfig::default()
        },
    )
}

/// Build the exact-belief ISender a spec describes.
///
/// # Panics
/// Panics unless the spec's sender is [`SenderSpec::IsenderExact`].
pub fn spec_isender(spec: &ScenarioSpec) -> ISender<ModelParams> {
    spec_isender_in(spec, &PriorCache::empty())
}

fn spec_isender_in(spec: &ScenarioSpec, priors: &PriorCache) -> ISender<ModelParams> {
    match &spec.sender {
        SenderSpec::IsenderExact {
            alpha,
            latency_penalty,
            max_branches,
        } => ISender::new(
            spec_belief_in(spec, *max_branches, priors),
            utility_of(*alpha, *latency_penalty),
            sender_config(spec),
        ),
        other => panic!("spec_isender over sender {}", other.label()),
    }
}

fn build_filter(
    spec: &ScenarioSpec,
    n_particles: usize,
    seed: u64,
    priors: &PriorCache,
) -> ParticleFilter<ModelParams> {
    let _ = spec.topology.model("build_filter");
    ParticleFilter::from_population(
        &priors.population(&spec.prior),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        n_particles,
        SimRng::derive_seed(seed, STREAM_ENGINE),
    )
}

fn utility_of(alpha: f64, latency_penalty: f64) -> Box<DiscountedThroughput> {
    let mut u = DiscountedThroughput::with_alpha(alpha);
    u.latency_penalty = latency_penalty;
    Box::new(u)
}

fn sender_config(spec: &ScenarioSpec) -> ISenderConfig {
    ISenderConfig {
        packet_size: spec.topology.packet_size(),
        ..ISenderConfig::default()
    }
}

/// The ground truth an agent workload runs against, which fixes how the
/// driver accounts deliveries and drops.
enum Truth {
    /// One sender with closed-loop accounting: cross-traffic deliveries
    /// and every drop land on its trace.
    ClosedLoop(GroundTruth),
    /// Agent `i` transmits as `FlowId(i)`; deliveries and drops route to
    /// their own flow's trace.
    PerFlow(MultiFlowTruth),
}

/// Every agent kind a workload can put on a flow, kept concrete so send
/// and restart counts can be read back after the loop. The large kinds
/// are boxed, so a many-flow table of AIMD agents is not sized by its
/// largest variant.
enum Agent {
    Exact(Box<ISender<ModelParams>>),
    Particle(Box<ParticleSender<ModelParams>>),
    Restarting(Box<RestartingSender>),
    Aimd(AimdSender),
    Tcp(Box<TcpPeerAgent>),
}

impl Agent {
    /// The agent a [`PeerSpec`] describes, sending `packet_size`
    /// packets. `restarting` builds the belief-carrying peer for its α.
    fn from_peer(
        peer: &PeerSpec,
        packet_size: Bits,
        restarting: impl FnOnce(f64) -> RestartingSender,
    ) -> Agent {
        let tcp = |max_window: u64, cc: Box<dyn augur_tcp::CongestionControl>| {
            Agent::Tcp(Box::new(TcpPeerAgent::new(
                TcpConfig {
                    packet_size,
                    max_window,
                },
                cc,
            )))
        };
        match *peer {
            PeerSpec::Isender { alpha } => Agent::Restarting(Box::new(restarting(alpha))),
            PeerSpec::Aimd { timeout } => {
                Agent::Aimd(AimdSender::new(timeout).with_packet_size(packet_size))
            }
            PeerSpec::TcpReno { max_window } => tcp(max_window, Box::<Reno>::default()),
            PeerSpec::TcpCubic { max_window } => tcp(max_window, Box::<Cubic>::default()),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn SenderAgent {
        match self {
            Agent::Exact(s) => &mut **s,
            Agent::Particle(s) => &mut **s,
            Agent::Restarting(s) => &mut **s,
            Agent::Aimd(s) => s,
            Agent::Tcp(s) => &mut **s,
        }
    }

    /// Packets transmitted so far — what a run whose belief died reports,
    /// its trace being lost with the error.
    fn sent(&self) -> u64 {
        match self {
            Agent::Exact(s) => s.sent_log.len() as u64,
            Agent::Particle(s) => s.sent_log.len() as u64,
            Agent::Restarting(s) => s.sent,
            Agent::Aimd(s) => s.sent,
            Agent::Tcp(s) => s.trace.segments_sent,
        }
    }

    /// Belief restarts so far (0 for agents that never restart).
    fn restarts(&self) -> u64 {
        match self {
            Agent::Restarting(s) => s.restarts as u64,
            _ => 0,
        }
    }
}

/// Lower an agent workload to what [`run_agents`] executes: the ground
/// truth, one agent per driven flow (agent `i` transmits as flow `i`;
/// agent 0 is the scenario's sender and the summarized primary) and the
/// horizon.
///
/// * Closed loop (§4): the spec's model network with closed-loop
///   accounting and the one exact or particle ISender.
/// * Coexist (§3.5): the scenario's sender plus one agent per
///   [`PeerSpec`]. A model topology becomes the single shared bottleneck;
///   a graph topology compiles to its declared multi-bottleneck network,
///   each flow injecting at its own source. Every belief-carrying agent
///   holds the dedicated coexistence prior over the slowest link on *its
///   own* route (the single-bottleneck abstraction the paper's sender
///   would bring to a network it cannot see into).
/// * Many flows: N belief-free agents over the shared bottleneck, agent
///   `i` built from `mix[i % mix.len()]`; the scenario's `sender` and
///   `prior` sections are inert.
fn lower(run: &RunSpec, priors: &PriorCache) -> (Truth, Vec<Agent>, Time) {
    let spec = &run.spec;
    let packet_size = spec.topology.packet_size();
    let truth_seed = SimRng::derive_seed(run.seed, STREAM_TRUTH);
    let (truth, agents) = match &spec.workload {
        WorkloadSpec::ClosedLoop => {
            let agent = match &spec.sender {
                SenderSpec::IsenderParticle {
                    alpha,
                    latency_penalty,
                    n_particles,
                } => Agent::Particle(Box::new(ParticleSender::new(
                    build_filter(spec, *n_particles, run.seed, priors),
                    utility_of(*alpha, *latency_penalty),
                    sender_config(spec),
                ))),
                _ => Agent::Exact(Box::new(spec_isender_in(spec, priors))),
            };
            let truth = Truth::ClosedLoop(spec_ground_truth(spec, run.seed));
            (truth, vec![agent])
        }
        WorkloadSpec::Coexist(cx) => {
            let SenderSpec::IsenderExact {
                alpha,
                latency_penalty,
                max_branches,
            } = spec.sender
            else {
                unreachable!("ScenarioSpec::check requires an exact-belief coexist primary")
            };
            let flows = 1 + cx.peers.len();
            // Per flow, the (link bps, buffer bits) its belief models.
            let (truth, bottlenecks): (_, Vec<(u64, u64)>) = match &spec.topology {
                TopologySpec::Graph(g) => {
                    let compiled = augur_topo::compile(g)
                        .unwrap_or_else(|e| panic!("invalid graph topology: {e}"));
                    let table = compiled
                        .entries
                        .iter()
                        .zip(&compiled.rxs)
                        .map(|(&entry, &rx)| FlowEndpoint { entry, rx })
                        .collect();
                    let truth =
                        MultiFlowTruth::new(compiled.net, table, SimRng::seed_from_u64(truth_seed))
                            .unwrap_or_else(|e| panic!("invalid graph flow table: {e}"));
                    let bottlenecks = compiled
                        .bottlenecks
                        .iter()
                        .map(|&l| (g.links[l].rate.as_bps(), g.links[l].buffer.as_u64()))
                        .collect();
                    (truth, bottlenecks)
                }
                topology => {
                    let m = topology.model("coexist workload");
                    let truth = build_many_flow_bottleneck(
                        m.link_rate,
                        m.buffer_capacity,
                        m.loss,
                        flows,
                        truth_seed,
                    );
                    let bottleneck = (m.link_rate.as_bps(), m.buffer_capacity.as_u64());
                    (truth, vec![bottleneck; flows])
                }
            };
            let restarting = |flow: usize, alpha: f64, latency_penalty: f64| {
                let (link_bps, buffer_bits) = bottlenecks[flow];
                RestartingSender::new(
                    coexist_belief(link_bps, buffer_bits, max_branches),
                    utility_of(alpha, latency_penalty),
                    sender_config(spec),
                )
            };
            let primary = restarting(0, alpha, latency_penalty);
            let mut agents = vec![Agent::Restarting(Box::new(primary))];
            agents.extend(cx.peers.iter().enumerate().map(|(i, p)| {
                Agent::from_peer(p, packet_size, |alpha| restarting(i + 1, alpha, 0.0))
            }));
            (Truth::PerFlow(truth), agents)
        }
        WorkloadSpec::ManyFlows(mf) => {
            let m = spec.topology.model("many-flows workload");
            let truth = build_many_flow_bottleneck(
                m.link_rate,
                m.buffer_capacity,
                m.loss,
                mf.flows,
                truth_seed,
            );
            let agents = (0..mf.flows)
                .map(|i| {
                    Agent::from_peer(&mf.mix[i % mf.mix.len()], packet_size, |_| {
                        unreachable!("spec decoding rejects belief-carrying mix entries")
                    })
                })
                .collect();
            (Truth::PerFlow(truth), agents)
        }
        WorkloadSpec::ScriptedPing { .. } => {
            unreachable!("execute_run_observed_in sends scripted workloads to scripted_ping")
        }
    };
    (truth, agents, Time::ZERO + spec.duration)
}

/// Drive the agents over the truth until `t_end`; one [`RunTrace`] per
/// agent, same order.
fn run_agents(
    truth: &mut Truth,
    agents: &mut [Agent],
    t_end: Time,
) -> Result<Vec<RunTrace>, BeliefError> {
    let mut table: Vec<&mut dyn SenderAgent> = agents.iter_mut().map(Agent::as_dyn).collect();
    let driver = match truth {
        Truth::ClosedLoop(truth) => FlowDriver::closed_loop(truth),
        Truth::PerFlow(truth) => FlowDriver::over(truth),
    };
    driver.run(&mut table, t_end).map_err(|e| match e {
        DriverError::Belief(b) => b,
        DriverError::AgentCount { .. } => unreachable!("lower builds one agent per flow: {e}"),
    })
}

/// The agent path: lower, run, summarize. The primary flow's trace is
/// the run artifact. Many-flow runs report `many-flow` as the sender and
/// the mix label as the peer; coexist runs report the peer list and both
/// sides' belief restarts; graph topologies add per-class goodput.
fn agent_run(run: &RunSpec, priors: &PriorCache) -> (RunSummary, RunArtifact) {
    let spec = &run.spec;
    let (mut truth, mut agents, t_end) = lower(run, priors);
    let result = run_agents(&mut truth, &mut agents, t_end);

    let mut summary = blank_summary(run);
    // α weighs the other traffic in the realized utility. A many-flow
    // run leaves the sender section inert: it reports its mix instead
    // and weighs every flow alike.
    let mut alpha = spec.sender.alpha().unwrap_or(1.0);
    match &spec.workload {
        WorkloadSpec::ManyFlows(mf) => {
            summary.sender = "many-flow".to_string();
            summary.peer = mf.label();
            alpha = 1.0;
        }
        WorkloadSpec::Coexist(cx) => summary.peer = cx.label(),
        _ => {}
    }
    summary.population = agents[0].as_dyn().population() as u64;
    let mut traces = match result {
        Ok(traces) => traces,
        Err(_) => {
            summary.status = RunStatus::BeliefDied;
            summary.sends = agents[0].sent();
            return (summary, RunArtifact::None);
        }
    };
    let rates = summarize(
        &mut summary,
        &traces,
        matches!(truth, Truth::PerFlow(_)),
        spec.duration.as_secs_f64(),
        spec.topology.packet_size().as_f64(),
        alpha,
    );
    if matches!(spec.workload, WorkloadSpec::Coexist(_)) {
        summary.restarts_a = Some(agents[0].restarts());
        summary.restarts_b = Some(agents[1..].iter().map(Agent::restarts).sum());
    }
    if let TopologySpec::Graph(g) = &spec.topology {
        summary.class_goodput = class_goodput_label(&g.flows, &rates);
    }
    (summary, RunArtifact::ClosedLoop(traces.swap_remove(0)))
}

/// The one trace → summary function: `traces[0]` is the primary flow.
/// Goodput is unique bits per flow (loss-based peers retransmit, and a
/// duplicate delivery of an already-received segment is not useful
/// throughput — the single-sender TCP path dedups the same way via the
/// endpoint's in-order accounting), overflow drops count across every
/// trace, delays are the primary's. With per-flow accounting the other
/// flows' goodput, Jain fairness over every flow and `own + α · others`
/// utility are reported; with closed-loop accounting the "others" are
/// the cross-traffic deliveries logged on the one trace. Returns the
/// per-flow rates.
fn summarize(
    summary: &mut RunSummary,
    traces: &[RunTrace],
    per_flow: bool,
    dur_s: f64,
    pkt_bits: f64,
    alpha: f64,
) -> Vec<f64> {
    let unique_bits = |trace: &RunTrace| {
        let mut seen = BTreeSet::new();
        trace.acks.iter().filter(|o| seen.insert(o.seq)).count() as f64 * pkt_bits
    };
    let rates: Vec<f64> = traces.iter().map(|t| unique_bits(t) / dur_s).collect();
    let primary = &traces[0];
    summary.sends = primary.sends.len() as u64;
    summary.delivered = primary.acks.len() as u64;
    summary.throughput_pps = summary.delivered as f64 / dur_s;
    summary.goodput_bps = rates[0];
    if per_flow {
        let others: f64 = rates[1..].iter().sum();
        summary.goodput_b_bps = others;
        summary.jain = jain_index(&rates);
        summary.utility = rates[0] + alpha * others;
    } else {
        let cross_bits: u64 = primary.cross_deliveries.iter().map(|(_, _, b)| *b).sum();
        summary.utility = summary.goodput_bps + alpha * cross_bits as f64 / dur_s;
    }
    summary.overflow_drops = traces.iter().map(|t| t.overflow_drops).sum();
    let send_at: BTreeMap<u64, Time> = primary.sends.iter().map(|&(seq, t)| (seq, t)).collect();
    // A retransmitted seq keeps only its latest send time; an ACK of the
    // original copy can predate that retransmit, so such pairs carry no
    // usable delay and are skipped.
    let mut delays: Vec<f64> = primary
        .acks
        .iter()
        .filter_map(|o| {
            send_at
                .get(&o.seq)
                .filter(|&&t| t <= o.at)
                .map(|t| o.at.since(*t).as_secs_f64())
        })
        .collect();
    delays.sort_by(|a, b| a.total_cmp(b));
    set_delay_percentiles(summary, &delays);
    rates
}

/// Aggregate per-flow goodputs by declared flow class, formatted
/// `class=bits_per_s` in class declaration order.
fn class_goodput_label(flows: &[augur_topo::FlowSpec], rates: &[f64]) -> String {
    let mut classes: Vec<(&str, f64)> = Vec::new();
    for (f, r) in flows.iter().zip(rates) {
        match classes.iter_mut().find(|(c, _)| *c == f.class.as_str()) {
            Some((_, sum)) => *sum += r,
            None => classes.push((f.class.as_str(), *r)),
        }
    }
    classes
        .iter()
        .map(|(c, r)| format!("{c}={r:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The spec's TCP flavor as a window cap and congestion controller.
fn tcp_flavor(spec: &ScenarioSpec) -> (u64, Box<dyn augur_tcp::CongestionControl>) {
    match &spec.sender {
        SenderSpec::TcpReno { max_window } => (*max_window, Box::new(Reno::default())),
        SenderSpec::TcpCubic { max_window } => (*max_window, Box::new(Cubic::default())),
        other => unreachable!(
            "execute_run_observed_in sends only tcp senders here, got {}",
            other.label()
        ),
    }
}

fn closed_loop_tcp(run: &RunSpec) -> (RunSummary, TcpTrace) {
    use augur_tcp::TcpRunner;
    let spec = &run.spec;
    let t_end = Time::ZERO + spec.duration;
    let (max_window, cc) = tcp_flavor(spec);
    let cfg = TcpConfig {
        packet_size: spec.topology.packet_size(),
        max_window,
    };
    let seed = SimRng::derive_seed(run.seed, STREAM_TRUTH);
    let trace = match &spec.topology {
        TopologySpec::Model(_) => {
            let m = spec.build_truth();
            TcpRunner::new(m.net, m.entry, m.rx_self, cfg, seed, cc).run(t_end)
        }
        TopologySpec::Cellular { params, queue } => {
            // The shared cellular path, with the deep buffer's queue
            // discipline swapped per the spec (FIG1 / EXT-D).
            let cell = build_cellular_with_buffer(params, queue.build(params.buffer_capacity));
            TcpRunner::new(cell.net, cell.entry, cell.rx, cfg, seed, cc).run(t_end)
        }
        TopologySpec::Graph(_) => {
            unreachable!("ScenarioSpec::check allows only the coexist workload over a graph")
        }
    };

    let mut summary = blank_summary(run);
    summarize_tcp(&mut summary, &trace, spec);
    (summary, trace)
}

fn summarize_tcp(summary: &mut RunSummary, trace: &TcpTrace, spec: &ScenarioSpec) {
    let dur_s = spec.duration.as_secs_f64();
    let pkt_bits = spec.topology.packet_size().as_f64();
    let received_bits = trace.received_bits;
    summary.sends = trace.segments_sent;
    summary.delivered = (received_bits as f64 / pkt_bits) as u64;
    summary.throughput_pps = summary.delivered as f64 / dur_s;
    summary.goodput_bps = received_bits as f64 / dur_s;
    summary.overflow_drops = trace.overflow_drops;
    let mut rtts: Vec<f64> = trace.rtt_samples.iter().map(|r| r.as_secs_f64()).collect();
    rtts.sort_by(|a, b| a.total_cmp(b));
    set_delay_percentiles(summary, &rtts);
}

fn set_delay_percentiles(summary: &mut RunSummary, sorted: &[f64]) {
    if sorted.is_empty() {
        return; // leave the NaN "missing" markers
    }
    summary.delay_p50_s = percentile_of_sorted(sorted, 50.0);
    summary.delay_p95_s = percentile_of_sorted(sorted, 95.0);
    summary.delay_p99_s = percentile_of_sorted(sorted, 99.0);
}

/// Open-loop scripted drive (EXT-C): transmit every `interval`, update
/// the belief on the resulting acknowledgments, and measure how well the
/// posterior locates the true link rate. TCP senders have no belief to
/// measure and a zero interval never reaches the horizon, so
/// [`ScenarioSpec::check`] rejects both.
fn scripted_ping(run: &RunSpec, interval: Dur, priors: &PriorCache) -> RunSummary {
    let spec = &run.spec;
    match &spec.sender {
        SenderSpec::IsenderExact { max_branches, .. } => {
            scripted_ping_over(run, interval, spec_belief_in(spec, *max_branches, priors))
        }
        SenderSpec::IsenderParticle { n_particles, .. } => scripted_ping_over(
            run,
            interval,
            build_filter(spec, *n_particles, run.seed, priors),
        ),
        other => unreachable!(
            "ScenarioSpec::check rejects scripted-ping over belief-free sender {}",
            other.label()
        ),
    }
}

fn scripted_ping_over(
    run: &RunSpec,
    interval: Dur,
    mut engine: impl Engine<Meta = ModelParams>,
) -> RunSummary {
    let spec = &run.spec;
    let mut truth = spec_ground_truth(spec, run.seed);
    truth.net.record_events();
    let t_end = Time::ZERO + spec.duration;
    let pkt_size = spec.topology.packet_size();
    let mut summary = blank_summary(run);
    let mut seq = 0u64;
    let mut alive = true;

    let mut t = Time::ZERO;
    loop {
        // Advance ground truth to t, harvesting this window's acks.
        let mut acks: Vec<Observation> = Vec::new();
        truth.net.run_until_sampled(t, &mut truth.rng);
        for (node, d) in truth.net.take_deliveries() {
            if node == truth.rx_self && d.packet.flow == FlowId::SELF {
                acks.push(Observation {
                    seq: d.packet.seq,
                    at: d.at,
                });
            }
        }
        summary.overflow_drops += truth
            .net
            .take_drops()
            .iter()
            .filter(|d| d.reason == DropReason::BufferFull)
            .count() as u64;
        summary.delivered += acks.len() as u64;

        let send = if t < t_end {
            let pkt = Packet::new(FlowId::SELF, seq, pkt_size, t);
            seq += 1;
            Some(pkt)
        } else {
            None
        };

        if alive {
            // Wall-clock here measures the belief update alone — the cost
            // EXT-C studies — not prior construction or truth stepping.
            let update_watch = Stopwatch::start();
            alive = engine.advance(t, &acks).is_ok();
            if let (true, Some(pkt)) = (alive, send) {
                engine.inject(pkt);
            }
            summary.wall_s += update_watch.elapsed_secs();
        }
        if let Some(pkt) = send {
            summary.sends += 1;
            truth.net.inject(truth.entry, pkt);
            // Settle any synchronous choices the injection reached.
            truth.net.run_until_sampled(t, &mut truth.rng);
        }

        if t >= t_end {
            break;
        }
        t = (t + interval).min(t_end);
    }

    summary.population = engine.members().len() as u64;
    if alive {
        summary.rate_err_bps = (engine.expected(|h| h.meta.link_rate.as_bps() as f64)
            - spec.topology.model("scripted workload").link_rate.as_bps() as f64)
            .abs();
        let dur_s = spec.duration.as_secs_f64();
        summary.throughput_pps = summary.delivered as f64 / dur_s;
        summary.goodput_bps = summary.delivered as f64 * pkt_size.as_f64() / dur_s;
    } else {
        summary.status = RunStatus::BeliefDied;
    }
    summary
}

/// TCP as a coexistence peer: the network-free [`TcpEndpoint`] adapted
/// to the [`SenderAgent`] wake protocol. Deliveries arrive as
/// observations, the endpoint schedules its own reverse-path ACKs and
/// retransmission timers, and the multi-agent loop owns injection.
pub struct TcpPeerAgent {
    ep: TcpEndpoint,
    /// The endpoint's measurements (segments, retransmissions, RTTs).
    pub trace: TcpTrace,
}

/// A [`TcpPeerAgent`]'s timer cap when its endpoint has nothing scheduled.
const PEER_MAX_SLEEP: Dur = Dur::from_secs(2);

impl TcpPeerAgent {
    /// A fresh peer with the given TCP configuration and congestion
    /// control.
    pub fn new(cfg: TcpConfig, cc: Box<dyn augur_tcp::CongestionControl>) -> TcpPeerAgent {
        TcpPeerAgent {
            ep: TcpEndpoint::new(cfg, cc),
            trace: TcpTrace::default(),
        }
    }
}

impl SenderAgent for TcpPeerAgent {
    fn own_flow(&self) -> FlowId {
        FlowId::SELF
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let size = self.ep.cfg().packet_size;
        for o in acks {
            self.ep
                .on_delivery(Packet::new(FlowId::SELF, o.seq, size, o.at), o.at);
        }
        let mut sent = Vec::new();
        self.ep.poll(now, &mut self.trace, &mut sent);
        let next_wake = self
            .ep
            .next_event_time()
            .unwrap_or(now + PEER_MAX_SLEEP)
            .min(now + PEER_MAX_SLEEP);
        Ok(WakeOutcome {
            sent,
            ..WakeOutcome::idle(next_wake)
        })
    }

    fn population(&self) -> usize {
        0
    }

    fn effective_population(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use augur_elements::Network;
    use augur_inference::Hypothesis;

    /// A cache seated for the runs of the shipped sweep `name`, and the
    /// prior they share.
    fn cache_of(name: &str) -> (PriorCache, PriorSpec) {
        let runs = presets::by_name(name).unwrap().expand();
        let prior = runs[0].spec.prior.clone();
        let cache = PriorCache::for_runs(&runs);
        assert!(cache.map.contains_key(&prior), "the runs' prior is cached");
        (cache, prior)
    }

    #[test]
    fn cached_paper_prior_holds_each_fact_once() {
        let (cache, prior) = cache_of("fig3");
        assert_eq!(prior, PriorSpec::Paper);
        let seated = cache.population(&prior);
        assert_eq!((seated.state_count(), seated.len()), (952, 4_760));
        // 7 rates × 4 cross fractions × 5 losses × 4 buffer caps.
        let owned: Vec<Network> = seated.members().map(|m| m.net.to_network()).collect();
        let mut distinct: Vec<&Network> = Vec::new();
        for net in &owned {
            if !(distinct.iter()).any(|d| Arc::ptr_eq(d.shared_structure(), net.shared_structure()))
            {
                distinct.push(net);
            }
        }
        assert_eq!(distinct.len(), 560);
    }

    #[test]
    fn particles_drawn_from_the_cached_prior_are_the_collected_priors() {
        for name in ["fig3", "smoke"] {
            let (cache, prior) = cache_of(name);
            let collected: Vec<Hypothesis<ModelParams>> = prior.hypotheses().collect();
            let weights: Vec<f64> = collected.iter().map(|h| h.weight).collect();
            for seed in [1, 0xF17, u64::MAX] {
                let what = format!("{prior:?}, seed {seed:#x}");
                let cached = ParticleFilter::from_population(
                    &cache.population(&prior),
                    FIG2_ENTRY,
                    FIG2_RX_SELF,
                    256,
                    seed,
                );
                let fresh = ParticleFilter::from_population(
                    &Population::new(collected.clone(), Some(FIG2_LOSS)),
                    FIG2_ENTRY,
                    FIG2_RX_SELF,
                    256,
                    seed,
                );
                // Each particle is the hypothesis `pick_weighted` takes
                // over the collected prior's weights, in its order.
                let mut rng = SimRng::seed_from_u64(seed);
                for (k, (c, f)) in cached.members().zip(fresh.members()).enumerate() {
                    let want = &collected[rng.pick_weighted(&weights)];
                    for (m, from) in [(&c, "cached"), (&f, "collected")] {
                        assert!(m.net == want.net.view(), "{what}: {from} particle {k}");
                        assert_eq!(m.meta, want.meta, "{what}: {from} particle {k}");
                        assert_eq!(m.weight.to_bits(), (1.0 / 256.0f64).to_bits());
                    }
                }
                assert_eq!(cached.members().len(), 256);
            }
        }
    }
}
