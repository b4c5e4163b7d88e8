//! The flow driver: one heap-scheduled event loop for every closed-loop
//! harness in the workspace, from the single-sender fig3 run (N=1) to
//! many-flow scaling sweeps (N=10 000).
//!
//! [`FlowDriver`] owns the co-simulation of N [`SenderAgent`]s against a
//! sampled ground-truth [`Network`]: per-flow slots (agent, trace, a
//! cursor into the trace's acknowledgments, next wake) plus a wake
//! schedule. The earlier loops ([`crate::run_multi_agent`],
//! [`crate::run_closed_loop`]) are thin wrappers over it and produce
//! byte-identical traces — the driver replays the exact same event,
//! sampling, and tie-break sequence, only the bookkeeping around it
//! changed from O(N) scans to an indexed heap.
//!
//! A slot keeps only what a run's summary reads. No acknowledgment
//! waits in a queue of its own for the next wake: the cursor marks how
//! much of [`RunTrace::acks`] the agent has been handed. Buffer overflows
//! are counted in [`RunTrace::overflow_drops`] under either routing, but
//! only the single-sender closed loop keeps [`RunTrace::drops`] records
//! (every flow's drops, for diagnostics); a multi-flow run keeps none.
//!
//! # The wake-heap contract
//!
//! [`SenderAgent`] implementors rely on the following scheduling
//! guarantees, unchanged from the sequential loops:
//!
//! * **Timer wakes.** After `on_wake` returns
//!   [`crate::WakeOutcome::next_wake`], the agent sleeps until that instant —
//!   floored to strictly after the current wake (`now + 1µs`), so an
//!   agent can never busy-loop the driver by re-requesting `now`.
//! * **Acknowledgment wakes.** A delivery for flow `i` at time `d`
//!   pulls that flow's wake forward to `min(next_wake, d)` — the
//!   event-driven "ACK wakes the sender early" behavior. Observations
//!   are batched: every acknowledgment that arrived since the previous
//!   wake is handed to the next `on_wake` call in one slice — the
//!   suffix of the flow's [`RunTrace::acks`] past its cursor, so each
//!   acknowledgment is stored once.
//! * **Seeded tie-breaks.** Flows waking at the same instant are
//!   dispatched in an order drawn from the truth RNG (uniform over the
//!   standing tied set, ascending by flow index between draws), so no
//!   index gets a permanent first-transmitter advantage and the run
//!   stays a pure function of the seed.
//! * **Horizon.** Multi-flow runs fire every wake scheduled at or
//!   before `t_end`; the classic closed loop fires a wake exactly at
//!   `t_end` only when it is the start instant or an acknowledgment
//!   pulled it there (a bare timer landing on the horizon stays
//!   silent). Either way the ground truth is drained to exactly
//!   `t_end`, so traces cover the full window.
//!
//! # Complexity
//!
//! Wakes live in an indexed 4-ary min-heap keyed `(Time, flow index)`
//! with a position map beside it. Every flow outside the tied set (and
//! not the one being dispatched) has exactly one entry, so the heap
//! never holds more than N entries and never holds a stale one: a
//! reschedule or an acknowledgment pull re-keys the flow's entry in
//! place, and a pull back to the open instant moves the flow from the
//! heap into the tied set. Deliveries are routed to slots by direct
//! [`FlowId`] indexing. Advancing the ground truth between wakes is
//! therefore O(events · log N), and each wake costs O(log N) — there is
//! no O(N) scan anywhere in the steady-state path. The only O(N) work
//! per *instant* is dispatching a fully tied instant (e.g. the common
//! start at t=0, where every flow wakes at once).

use crate::experiment::{GroundTruth, RunTrace};
use crate::isender::SenderAgent;
use crate::multi::MultiFlowTruth;
use augur_elements::{DropReason, Network, NodeId};
use augur_inference::{BeliefError, Observation};
use augur_sim::{perf, Dur, FlowId, Packet, SimRng, Time};
use std::error::Error;
use std::fmt;

/// A per-flow entry table that failed validation at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTableError {
    /// The table declares no flows at all.
    Empty,
    /// More flows than [`FlowId`]'s u16 wire identity can address.
    TooManyFlows {
        /// The offending flow count.
        flows: usize,
    },
}

impl fmt::Display for FlowTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTableError::Empty => write!(f, "a flow table needs at least one flow"),
            FlowTableError::TooManyFlows { flows } => write!(
                f,
                "{flows} flows exceed the {} addressable by a u16 flow id",
                usize::from(u16::MAX) + 1
            ),
        }
    }
}

impl Error for FlowTableError {}

/// A driver run that could not complete.
#[derive(Debug)]
pub enum DriverError {
    /// An agent's belief died (zero posterior mass on its observations).
    Belief(BeliefError),
    /// More agents than the ground truth declares flows.
    AgentCount {
        /// Agents handed to the driver.
        agents: usize,
        /// Flows the ground truth declares.
        flows: usize,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Belief(e) => write!(f, "agent belief died: {e}"),
            DriverError::AgentCount { agents, flows } => {
                write!(f, "ground truth declares {flows} flows for {agents} agents")
            }
        }
    }
}

impl Error for DriverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriverError::Belief(e) => Some(e),
            DriverError::AgentCount { .. } => None,
        }
    }
}

impl From<BeliefError> for DriverError {
    fn from(e: BeliefError) -> DriverError {
        DriverError::Belief(e)
    }
}

/// How deliveries and drops map onto per-flow traces.
#[derive(Debug, Clone, Copy)]
enum Routing {
    /// Multi-agent wiring: agent `i` transmits as `FlowId(i)` (packets
    /// are re-stamped on injection), deliveries route to slot
    /// `flow.0`, a buffer overflow is counted on its own flow's trace
    /// (no drop record is kept), foreign flows belong to nobody.
    PerFlow,
    /// Single-sender accounting (the classic closed loop): the agent
    /// keeps its own wire flow, acknowledgments are its deliveries at
    /// `rx`, cross-traffic deliveries and *all* drops are logged to the
    /// one trace for diagnostics, and every buffer overflow is counted
    /// on it.
    ClosedLoop {
        /// The receiver whose deliveries acknowledge the sender.
        rx: NodeId,
    },
}

/// Position-map value of a flow that has no heap entry: it stands in
/// the tied set or is being dispatched.
const UNQUEUED: u32 = u32::MAX;

/// Heap arity: a 4-ary heap is half as deep as a binary one, and the
/// four children a sift compares sit side by side in memory.
const ARITY: usize = 4;

/// The indexed wake schedule: a 4-ary min-heap of `(Time, flow index)`
/// with one entry per queued flow and a position map into it, plus the
/// "tied set" of flows standing at the instant currently being
/// dispatched.
struct WakeHeap {
    /// Min-heap of `(wake, flow)`: every flow outside the tied set,
    /// except the one being dispatched, exactly once.
    heap: Vec<(Time, u32)>,
    /// `pos[i]` is flow `i`'s slot in `heap`, or [`UNQUEUED`].
    pos: Vec<u32>,
    /// Authoritative next wake per flow.
    wake: Vec<Time>,
    /// Flows whose wake equals `t_active`, ascending by index — the
    /// pool simultaneous wakes are drawn from.
    tied: Vec<u32>,
    /// The instant being dispatched, if any.
    t_active: Option<Time>,
}

impl WakeHeap {
    fn new(n: usize, start: Time) -> WakeHeap {
        // Equal keys ascending by index already satisfy the heap order.
        WakeHeap {
            heap: (0..n as u32).map(|i| (start, i)).collect(),
            pos: (0..n as u32).collect(),
            wake: vec![start; n],
            tied: Vec::new(),
            t_active: None,
        }
    }

    /// Reschedule flow `i` to wake at `t` (O(log N): its one heap entry
    /// is re-keyed in place, inserted, or moved to the tied set).
    fn set_wake(&mut self, i: usize, t: Time) {
        // A standing tied entry is authoritative — drop it before the
        // reschedule so the flow is not dispatched twice.
        if self.t_active == Some(self.wake[i]) {
            if let Ok(pos) = self.tied.binary_search(&(i as u32)) {
                self.tied.remove(pos);
            }
        }
        self.wake[i] = t;
        let slot = self.pos[i];
        if self.t_active == Some(t) {
            // Pulled back into the instant being dispatched: leave the
            // heap and join the tied set directly (ascending order
            // preserved).
            if slot != UNQUEUED {
                self.remove(slot as usize);
            }
            let pos = self.tied.binary_search(&(i as u32)).unwrap_err();
            self.tied.insert(pos, i as u32);
        } else if slot == UNQUEUED {
            self.heap.push((t, i as u32));
            self.sift_up(self.heap.len() - 1);
        } else {
            let slot = slot as usize;
            let earlier = t < self.heap[slot].0;
            self.heap[slot].0 = t;
            if earlier {
                self.sift_up(slot);
            } else {
                self.sift_down(slot);
            }
        }
    }

    /// Pull flow `i`'s wake forward to `t` if that is earlier — the
    /// acknowledgment-wake path.
    fn pull_wake(&mut self, i: usize, t: Time) {
        if t < self.wake[i] {
            self.set_wake(i, t);
        }
    }

    /// Earliest scheduled wake.
    fn next_wake(&self) -> Time {
        self.heap
            .first()
            .expect("every flow keeps a heap entry between instants")
            .0
    }

    /// Open the instant `t` for dispatch: move every flow scheduled at
    /// `t` into the tied set (ascending by index — equal-time entries
    /// pop in index order).
    fn begin_instant(&mut self, t: Time) {
        debug_assert!(self.tied.is_empty());
        self.t_active = Some(t);
        while let Some(&(tt, i)) = self.heap.first() {
            if tt > t {
                break;
            }
            debug_assert_eq!(tt, t);
            self.remove(0);
            self.tied.push(i);
        }
        debug_assert!(!self.tied.is_empty());
    }

    /// Take the entry at `slot` out of the heap.
    fn remove(&mut self, slot: usize) {
        let gone = self.heap.swap_remove(slot);
        self.pos[gone.1 as usize] = UNQUEUED;
        if slot < self.heap.len() {
            // The former last entry now sits at `slot`; either sift
            // places it and updates its position.
            if self.heap[slot] < gone {
                self.sift_up(slot);
            } else {
                self.sift_down(slot);
            }
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        let entry = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / ARITY;
            if self.heap[parent] <= entry {
                break;
            }
            self.place(slot, self.heap[parent]);
            slot = parent;
        }
        self.place(slot, entry);
    }

    fn sift_down(&mut self, mut slot: usize) {
        let entry = self.heap[slot];
        let len = self.heap.len();
        loop {
            let first = ARITY * slot + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            for c in first + 1..(first + ARITY).min(len) {
                if self.heap[c] < self.heap[child] {
                    child = c;
                }
            }
            if self.heap[child] >= entry {
                break;
            }
            self.place(slot, self.heap[child]);
            slot = child;
        }
        self.place(slot, entry);
    }

    fn place(&mut self, slot: usize, entry: (Time, u32)) {
        self.heap[slot] = entry;
        self.pos[entry.1 as usize] = slot as u32;
    }

    /// Draw the next flow to dispatch from the tied set: the sole
    /// member when unambiguous, a seeded uniform draw otherwise.
    fn draw_tied(&mut self, rng: &mut SimRng) -> usize {
        let m = self.tied.len();
        debug_assert!(m >= 1);
        let j = match m {
            1 => 0,
            m => rng.uniform_u64(0, m as u64 - 1) as usize,
        };
        self.tied.remove(j) as usize
    }
}

/// The heap-scheduled co-simulation loop.
fn drive(
    net: &mut Network,
    rng: &mut SimRng,
    entries: &[NodeId],
    routing: Routing,
    agents: &mut [&mut dyn SenderAgent],
    t_end: Time,
) -> Result<Vec<RunTrace>, BeliefError> {
    let n = agents.len();
    debug_assert!(n >= 1 && n <= entries.len());
    let own0 = agents[0].own_flow();
    let mut traces: Vec<RunTrace> = vec![RunTrace::default(); n];
    // `traces[i].acks[seen[i]..]` arrived since flow `i`'s last wake.
    let mut seen: Vec<usize> = vec![0; n];
    let start = net.now();
    let mut heap = WakeHeap::new(n, start);
    net.record_events();

    // Let the ground truth process its own events at the start instant
    // (pinger emissions, backlog service starts) before any agent's
    // first injection — the beliefs do the same inside their first
    // `advance`, and both sides must agree on same-instant ordering.
    net.run_until_sampled(start, rng);
    harvest(net, routing, own0, &mut traces, &mut heap);

    loop {
        if heap.tied.is_empty() {
            // Advance ground truth toward the earliest wake (capped at
            // the horizon) event by event; any delivery on the way
            // pulls its flow's wake forward, possibly before every
            // scheduled timer.
            loop {
                let target = heap.next_wake().min(t_end);
                match net.next_event_time() {
                    Some(te) if te <= target => {
                        net.run_until_sampled(te, rng);
                        harvest(net, routing, own0, &mut traces, &mut heap);
                        if te >= target {
                            break;
                        }
                    }
                    _ => {
                        net.run_until_sampled(target, rng);
                        harvest(net, routing, own0, &mut traces, &mut heap);
                        break;
                    }
                }
            }
            let t_wake = heap.next_wake();
            if t_wake > t_end {
                break;
            }
            // Closed-loop accounting never fires a bare timer exactly at
            // the horizon: a wake at `t_end` happens only at the start
            // instant or when an acknowledgment pulled it there (the
            // multi-flow loop, by contrast, dispatches every wake with
            // `t ≤ t_end`).
            if matches!(routing, Routing::ClosedLoop { .. })
                && t_wake == t_end
                && t_wake > start
                && seen[0] == traces[0].acks.len()
            {
                break;
            }
            heap.begin_instant(t_wake);
        }

        let t_wake = heap.t_active.expect("an instant is open");
        let i = heap.draw_tied(rng);
        perf::count_flow_wake();
        let acks = &traces[i].acks[seen[i]..];
        // Stamp the dispatched flow so belief-engine events emitted from
        // inside `on_wake` carry the right attribution.
        augur_obs::set_flow(FlowId(i as u16));
        let outcome = agents[i].on_wake(t_wake, acks)?;
        augur_obs::emit(
            t_wake,
            augur_obs::EventKind::Wake {
                flow: FlowId(i as u16),
                acks: acks.len(),
                sent: outcome.sent.len(),
            },
        );
        seen[i] = traces[i].acks.len();
        for pkt in &outcome.sent {
            // The loop owns wire identity in multi-agent runs: agent
            // `i` transmits as `FlowId(i)` no matter what it believes
            // its flow is. The single-sender loop keeps the agent's own
            // stamp, exactly as the classic closed loop injected `*pkt`.
            let pkt = match routing {
                Routing::PerFlow => Packet::new(FlowId(i as u16), pkt.seq, pkt.size, t_wake),
                Routing::ClosedLoop { .. } => *pkt,
            };
            traces[i].sends.push((pkt.seq, t_wake));
            net.inject(entries[i], pkt);
            // Injection may stop at a stochastic element reached
            // synchronously; resolve by sampling.
            net.run_until_sampled(t_wake, rng);
        }
        // Schedule the next timer first; instant deliveries harvested
        // below may legitimately pull any wake (including agent i's
        // own) back to this instant.
        heap.set_wake(i, outcome.next_wake.max(t_wake + Dur::from_micros(1)));
        harvest(net, routing, own0, &mut traces, &mut heap);
    }

    // Tail accounting: the advance loop's `min(wake, t_end)` cap ran
    // the ground truth to exactly `t_end` and harvested the final
    // deliveries before the loop broke.
    debug_assert!(net.now() == t_end);
    Ok(traces)
}

/// Drain ground-truth logs into per-flow traces; a delivery pulls its
/// flow's wake forward to the delivery instant.
/// The logs are drained in place, so the network keeps their
/// allocations for the next event.
fn harvest(
    net: &mut Network,
    routing: Routing,
    own0: FlowId,
    traces: &mut [RunTrace],
    heap: &mut WakeHeap,
) {
    let n = traces.len();
    let (deliveries, drops) = net.drain_logs();
    for (node, d) in deliveries {
        let k = match routing {
            Routing::PerFlow => {
                let k = d.packet.flow.0 as usize;
                if k >= n {
                    continue; // backlog / foreign flows belong to nobody
                }
                k
            }
            Routing::ClosedLoop { rx } => {
                if d.packet.flow == own0 && node == rx {
                    0
                } else {
                    if d.packet.flow == FlowId::CROSS {
                        traces[0].cross_deliveries.push((
                            d.packet.seq,
                            d.at,
                            d.packet.size.as_u64(),
                        ));
                    }
                    continue;
                }
            }
        };
        traces[k].acks.push(Observation {
            seq: d.packet.seq,
            at: d.at,
        });
        heap.pull_wake(k, d.at);
    }
    for drop in drops {
        let k = match routing {
            Routing::PerFlow => drop.packet.flow.0 as usize,
            Routing::ClosedLoop { .. } => 0,
        };
        let Some(trace) = traces.get_mut(k) else {
            continue; // backlog / foreign flows belong to nobody
        };
        if drop.reason == DropReason::BufferFull {
            trace.overflow_drops += 1;
        }
        if matches!(routing, Routing::ClosedLoop { .. }) {
            trace.drops.push(drop);
        }
    }
}

/// A borrowed view of one ground truth, ready to drive agents to a
/// horizon. Construct with [`FlowDriver::over`] (multi-flow) or
/// [`FlowDriver::closed_loop`] (single sender), then call
/// [`FlowDriver::run`] or [`FlowDriver::run_single`].
///
/// See the [module docs](self) for the wake-heap contract agents may
/// rely on.
pub struct FlowDriver<'a> {
    net: &'a mut Network,
    rng: &'a mut SimRng,
    /// Where each flow's packets enter the network.
    entries: Vec<NodeId>,
    routing: Routing,
}

impl<'a> FlowDriver<'a> {
    /// Drive agents over a validated multi-flow ground truth: agent `i`
    /// transmits as `FlowId(i)` into `truth`'s i-th entry.
    pub fn over(truth: &'a mut MultiFlowTruth) -> FlowDriver<'a> {
        FlowDriver {
            entries: truth.entries().to_vec(),
            net: &mut truth.net,
            rng: &mut truth.rng,
            routing: Routing::PerFlow,
        }
    }

    /// Drive one sender over a classic single-flow ground truth, with
    /// closed-loop accounting (cross-traffic deliveries and all drops
    /// logged to the trace).
    pub fn closed_loop(truth: &'a mut GroundTruth) -> FlowDriver<'a> {
        FlowDriver {
            entries: vec![truth.entry],
            net: &mut truth.net,
            rng: &mut truth.rng,
            routing: Routing::ClosedLoop { rx: truth.rx_self },
        }
    }

    /// Run N agents until `t_end`; returns one [`RunTrace`] per agent
    /// (same order). Fewer agents than declared flows is allowed (the
    /// extra entries stay silent); more is a [`DriverError`].
    pub fn run(
        self,
        agents: &mut [&mut dyn SenderAgent],
        t_end: Time,
    ) -> Result<Vec<RunTrace>, DriverError> {
        if agents.is_empty() || agents.len() > self.entries.len() {
            return Err(DriverError::AgentCount {
                agents: agents.len(),
                flows: self.entries.len(),
            });
        }
        drive(
            self.net,
            self.rng,
            &self.entries,
            self.routing,
            agents,
            t_end,
        )
        .map_err(DriverError::from)
    }

    /// Run a single sender until `t_end` — the N=1 path
    /// [`crate::run_closed_loop`] wraps.
    pub fn run_single(
        self,
        sender: &mut dyn SenderAgent,
        t_end: Time,
    ) -> Result<RunTrace, BeliefError> {
        debug_assert!(!self.entries.is_empty());
        let mut traces = drive(
            self.net,
            self.rng,
            &self.entries,
            self.routing,
            &mut [sender],
            t_end,
        )?;
        Ok(traces.swap_remove(0))
    }
}

/// The lazy-deletion schedule the indexed heap replaced, kept as the
/// reference core: a binary heap of `(Time, flow index, generation)`
/// where every reschedule pushes a fresh entry and stales the flow's
/// older ones by bumping its generation, and stale entries are
/// discarded when they reach the top.
#[cfg(test)]
mod reference {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub struct WakeHeap {
        heap: BinaryHeap<Reverse<(Time, u32, u64)>>,
        pub wake: Vec<Time>,
        gen: Vec<u64>,
        pub tied: Vec<u32>,
        t_active: Option<Time>,
    }

    impl WakeHeap {
        pub fn new(n: usize, start: Time) -> WakeHeap {
            WakeHeap {
                heap: (0..n as u32).map(|i| Reverse((start, i, 0))).collect(),
                wake: vec![start; n],
                gen: vec![0; n],
                tied: Vec::new(),
                t_active: None,
            }
        }

        pub fn set_wake(&mut self, i: usize, t: Time) {
            if self.t_active == Some(self.wake[i]) {
                if let Ok(pos) = self.tied.binary_search(&(i as u32)) {
                    self.tied.remove(pos);
                }
            }
            self.wake[i] = t;
            self.gen[i] += 1;
            if self.t_active == Some(t) {
                let pos = self.tied.binary_search(&(i as u32)).unwrap_err();
                self.tied.insert(pos, i as u32);
            } else {
                self.heap.push(Reverse((t, i as u32, self.gen[i])));
            }
        }

        pub fn pull_wake(&mut self, i: usize, t: Time) {
            if t < self.wake[i] {
                self.set_wake(i, t);
            }
        }

        /// Earliest valid wake, discarding stale entries on the way.
        pub fn next_wake(&mut self) -> Option<Time> {
            while let Some(&Reverse((t, i, g))) = self.heap.peek() {
                if self.gen[i as usize] == g {
                    return Some(t);
                }
                self.heap.pop();
            }
            None
        }

        pub fn begin_instant(&mut self, t: Time) {
            self.t_active = Some(t);
            while let Some(&Reverse((tt, i, g))) = self.heap.peek() {
                if self.gen[i as usize] != g {
                    self.heap.pop();
                    continue;
                }
                if tt > t {
                    break;
                }
                self.heap.pop();
                self.tied.push(i);
            }
        }

        pub fn draw_tied(&mut self, rng: &mut SimRng) -> usize {
            let j = match self.tied.len() {
                1 => 0,
                m => rng.uniform_u64(0, m as u64 - 1) as usize,
            };
            self.tied.remove(j) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both schedules agree on everything the driver reads — the next
    /// wake, the tied set, every flow's wake — and the indexed heap holds
    /// exactly one entry per flow that is neither tied nor being
    /// dispatched.
    fn assert_same(new: &WakeHeap, old: &mut reference::WakeHeap, dispatching: bool) {
        assert_eq!(new.heap.first().map(|e| e.0), old.next_wake(), "next wake");
        assert_eq!(new.tied, old.tied, "tied set");
        assert_eq!(new.wake, old.wake, "wake table");
        assert_eq!(
            new.heap.len() + new.tied.len(),
            new.wake.len() - usize::from(dispatching),
            "one heap entry per queued flow"
        );
        for (slot, &(t, i)) in new.heap.iter().enumerate() {
            assert_eq!(new.pos[i as usize] as usize, slot, "position map");
            assert_eq!(t, new.wake[i as usize], "heap key is the flow's wake");
        }
    }

    /// Seeded schedules in the driver's own call pattern: ACK pulls
    /// between instants, then per open instant a draw, the dispatched
    /// flow's next timer, deliveries pulling flows back to the open
    /// instant or a few µs ahead, and stray reschedules of any flow.
    #[test]
    fn indexed_heap_matches_the_lazy_deletion_reference() {
        let us = Dur::from_micros;
        for n in [1usize, 2, 17, 1_000] {
            let mut rng = SimRng::derive(0x4EA9, n as u64);
            let flow = |rng: &mut SimRng| rng.uniform_u64(0, n as u64 - 1) as usize;
            let mut new = WakeHeap::new(n, Time::ZERO);
            let mut old = reference::WakeHeap::new(n, Time::ZERO);
            assert_same(&new, &mut old, false);
            let mut dispatched = 0;
            for _ in 0..40 {
                let last = new.t_active.unwrap_or(Time::ZERO);
                for _ in 0..rng.uniform_u64(0, 4) {
                    let (k, t) = (flow(&mut rng), last + us(rng.uniform_u64(1, 8)));
                    new.pull_wake(k, t);
                    old.pull_wake(k, t);
                    assert_same(&new, &mut old, false);
                }
                let t = new.next_wake();
                new.begin_instant(t);
                old.begin_instant(t);
                assert_same(&new, &mut old, false);
                while !new.tied.is_empty() {
                    let mut old_rng = rng.clone();
                    let i = new.draw_tied(&mut rng);
                    assert_eq!(old.draw_tied(&mut old_rng), i, "dispatch order");
                    assert_same(&new, &mut old, true);
                    let next = t + us(rng.uniform_u64(1, 8));
                    new.set_wake(i, next);
                    old.set_wake(i, next);
                    assert_same(&new, &mut old, false);
                    for _ in 0..rng.uniform_u64(0, 3) {
                        let k = flow(&mut rng);
                        let at = match rng.uniform_u64(0, 2) {
                            0 => t,
                            _ => t + us(rng.uniform_u64(1, 8)),
                        };
                        if rng.uniform_u64(0, 4) == 0 {
                            new.set_wake(k, at);
                            old.set_wake(k, at);
                        } else {
                            new.pull_wake(k, at);
                            old.pull_wake(k, at);
                        }
                        assert_same(&new, &mut old, false);
                    }
                    dispatched += 1;
                }
            }
            assert!(dispatched >= 40, "{n} flows: only {dispatched} dispatches");
        }
    }
}
