//! Layer probes: a run rebuilt from public pieces only, with a span
//! around each call into the layer below the runner. A probe is chosen
//! by what the run's spec is made of, and checks itself against the
//! artifact the stock runner returned for the same run.

use crate::iteration::Failures;
use crate::spans::span;
use augur_core::{
    build_many_flow_bottleneck, decide, run_multi_agent, Action, AimdSender, FlowDriver, ISender,
    ISenderConfig, RunTrace, SenderAgent, WakeOutcome,
};
use augur_elements::ModelParams;
use augur_inference::{BeliefError, Observation};
use augur_scenario::spec::ManyFlowSpec;
use augur_scenario::{
    spec_ground_truth, spec_isender, GraphTopology, PeerSpec, RunArtifact, RunSpec, SenderSpec,
    TcpPeerAgent, TopologySpec, WorkloadSpec,
};
use augur_sim::{perf, FlowId, Packet, SimRng, Time};
use augur_tcp::{CongestionControl, Cubic, Reno, TcpConfig};
use std::hint::black_box;

/// The runner's seed sub-stream for the ground-truth network. It is
/// private there; the trace-equality checks below fail if it moves.
const STREAM_TRUTH: u64 = 0;

/// Passes of the forwarding kernel per graph run: one pass is about a
/// millisecond, too short to time once.
const KERNEL_PASSES: usize = 50;

/// One probed many-flow run: its population and the wakes dispatched.
pub struct ManyFlowRun {
    pub run: usize,
    pub flows: usize,
    pub wakes: u64,
}

/// What the probes counted that no span carries.
#[derive(Default)]
pub struct ProbeCounts {
    /// Belief branch count after each probed `advance`.
    pub branches: Vec<usize>,
    pub many_flow_runs: Vec<ManyFlowRun>,
    /// Packets forwarded over all forwarding-kernel passes.
    pub kernel_forwards: u64,
}

/// Probe every run whose spec one of the probes covers.
pub fn probe_runs(runs: &[RunSpec], stock: &[RunArtifact], failures: &mut Failures) -> ProbeCounts {
    let mut counts = ProbeCounts::default();
    for (run, stock) in runs.iter().zip(stock) {
        let stock_trace = match stock {
            RunArtifact::ClosedLoop(trace) => Some(trace),
            _ => None,
        };
        match (&run.spec.workload, &run.spec.sender, &run.spec.topology) {
            (WorkloadSpec::ClosedLoop, SenderSpec::IsenderExact { .. }, _) => {
                let trace = probe_isender(run, &mut counts);
                check_trace(run, "isender", trace.as_ref(), stock_trace, failures);
            }
            (WorkloadSpec::ManyFlows(mf), _, TopologySpec::Model(model)) => {
                let trace = probe_many_flows(run, mf, model, &mut counts);
                check_trace(run, "many-flow", trace.as_ref(), stock_trace, failures);
            }
            (_, _, TopologySpec::Graph(graph)) => {
                if let Err(e) = probe_forwarding(run, graph, &mut counts) {
                    failures.push(format!("probe-forwarding: run {}: {e}", run.index));
                }
            }
            _ => {}
        }
    }
    counts
}

fn check_trace(
    run: &RunSpec,
    probe: &str,
    probed: Option<&RunTrace>,
    stock: Option<&RunTrace>,
    failures: &mut Failures,
) {
    if probed.is_none() || probed != stock {
        failures.push(format!(
            "probe-trace-equal: the {probe} probe of run {} left a different trace than the stock run",
            run.index
        ));
    }
}

/// The stock `ISender` with its wake cycle spelled out, so that belief
/// advance, planner decisions and belief injection each get a span.
struct ProbeSender<'a> {
    inner: ISender<ModelParams>,
    cfg: ISenderConfig,
    next_seq: u64,
    branches: &'a mut Vec<usize>,
}

impl SenderAgent for ProbeSender<'_> {
    fn own_flow(&self) -> FlowId {
        self.inner.own_flow()
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        span("core.isender_on_wake", None, || {
            span("inference.advance", None, || {
                self.inner.belief.advance(now, acks)
            })?;
            self.branches.push(self.inner.belief.branch_count());
            let (cfg, own_flow) = (&self.cfg, self.inner.own_flow());
            let mut sent = Vec::new();
            let decision = loop {
                let d = span("core.planner_decide", None, || {
                    decide(
                        &self.inner.belief,
                        &cfg.planner,
                        self.inner.utility(),
                        own_flow,
                        self.next_seq,
                        cfg.packet_size,
                    )
                });
                match d.action {
                    Action::SendNow if sent.len() < cfg.max_sends_per_wake => {
                        let pkt = Packet::new(own_flow, self.next_seq, cfg.packet_size, now);
                        span("inference.inject", None, || self.inner.belief.inject(pkt));
                        self.inner.sent_log.push((self.next_seq, now));
                        self.next_seq += 1;
                        sent.push(pkt);
                    }
                    _ => break d,
                }
            };
            let next_wake = match decision.action {
                Action::SleepUntil(t) => t.min(now + cfg.max_sleep),
                Action::SendNow | Action::Idle => now + cfg.max_sleep,
            };
            Ok(WakeOutcome {
                sent,
                next_wake,
                decision,
            })
        })
    }

    fn population(&self) -> usize {
        self.inner.belief.branch_count()
    }

    fn effective_population(&self) -> f64 {
        self.inner.belief.effective_count()
    }
}

fn probe_isender(run: &RunSpec, counts: &mut ProbeCounts) -> Option<RunTrace> {
    let mut truth = spec_ground_truth(&run.spec, run.seed);
    let inner = spec_isender(&run.spec);
    let mut probe = ProbeSender {
        cfg: inner.config().clone(),
        inner,
        next_seq: 0,
        branches: &mut counts.branches,
    };
    let t_end = Time::ZERO + run.spec.duration;
    span("core.drive", Some(run.index), || {
        FlowDriver::closed_loop(&mut truth).run_single(&mut probe, t_end)
    })
    .ok()
}

/// Any agent, with a span named after its kind around every wake.
struct SpanAgent {
    span_name: &'static str,
    inner: Box<dyn SenderAgent>,
}

impl SenderAgent for SpanAgent {
    fn own_flow(&self) -> FlowId {
        self.inner.own_flow()
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        span(self.span_name, None, || self.inner.on_wake(now, acks))
    }

    fn population(&self) -> usize {
        self.inner.population()
    }

    fn effective_population(&self) -> f64 {
        self.inner.effective_population()
    }
}

fn probe_many_flows(
    run: &RunSpec,
    mf: &ManyFlowSpec,
    model: &ModelParams,
    counts: &mut ProbeCounts,
) -> Option<RunTrace> {
    let mut truth = build_many_flow_bottleneck(
        model.link_rate,
        model.buffer_capacity,
        model.loss,
        mf.flows,
        SimRng::derive_seed(run.seed, STREAM_TRUTH),
    );
    let tcp = |max_window: u64, cc: Box<dyn CongestionControl>| SpanAgent {
        span_name: "tcp.on_wake",
        inner: Box::new(TcpPeerAgent::new(
            TcpConfig {
                packet_size: model.packet_size,
                max_window,
                ..TcpConfig::default()
            },
            cc,
        )),
    };
    let mut store = Vec::with_capacity(mf.flows);
    for i in 0..mf.flows {
        store.push(match mf.mix[i % mf.mix.len()] {
            // Spec decoding rejects belief-carrying mix entries.
            PeerSpec::Isender { .. } => return None,
            PeerSpec::Aimd { timeout } => SpanAgent {
                span_name: "core.aimd_on_wake",
                inner: Box::new(AimdSender::new(timeout).with_packet_size(model.packet_size)),
            },
            PeerSpec::TcpReno { max_window } => tcp(max_window, Box::<Reno>::default()),
            PeerSpec::TcpCubic { max_window } => tcp(max_window, Box::<Cubic>::default()),
        });
    }
    let mut agents: Vec<&mut dyn SenderAgent> = store
        .iter_mut()
        .map(|a| a as &mut dyn SenderAgent)
        .collect();
    let t_end = Time::ZERO + run.spec.duration;
    let before = perf::snapshot();
    let traces = span("core.drive", Some(run.index), || {
        run_multi_agent(&mut truth, &mut agents, t_end)
    });
    let wakes = perf::snapshot().since(&before).flow_wakes;
    counts.many_flow_runs.push(ManyFlowRun {
        run: run.index,
        flows: mf.flows,
        wakes,
    });
    traces.ok()?.into_iter().next()
}

/// Forwarding alone: the compiled network, every flow injected at its
/// first link's rate, stepped to the run's horizon with no agent, no
/// driver and no belief.
fn probe_forwarding(
    run: &RunSpec,
    graph: &GraphTopology,
    counts: &mut ProbeCounts,
) -> Result<(), String> {
    let horizon = Time::ZERO + run.spec.duration;
    for _ in 0..KERNEL_PASSES {
        let compiled = span("topo.compile", Some(run.index), || {
            augur_topo::compile(graph)
        })
        .map_err(|e| e.to_string())?;
        let interval: Vec<_> = compiled
            .routes
            .iter()
            .map(|route| graph.links[route[0]].rate.service_time(graph.packet_size))
            .collect();
        let mut net = compiled.net;
        let mut rng = SimRng::derive(run.seed, STREAM_TRUTH);
        let mut next = vec![Time::ZERO; interval.len()];
        let mut seq = vec![0u64; interval.len()];
        let before = perf::snapshot();
        span("elements.forward_kernel", Some(run.index), || {
            while let Some(t) = next.iter().copied().min().filter(|t| *t <= horizon) {
                net.run_until_sampled(t, &mut rng);
                for flow in 0..next.len() {
                    if next[flow] == t {
                        let pkt = Packet::new(FlowId(flow as u16), seq[flow], graph.packet_size, t);
                        net.inject(compiled.entries[flow], pkt);
                        net.run_until_sampled(t, &mut rng);
                        seq[flow] += 1;
                        next[flow] = t + interval[flow];
                    }
                }
            }
            net.run_until_sampled(horizon, &mut rng);
            black_box((net.take_deliveries().len(), net.take_drops().len()));
        });
        counts.kernel_forwards += perf::snapshot().since(&before).packets_forwarded;
    }
    Ok(())
}
