//! The topology language and its compiler.
//!
//! A [`GraphTopology`] names its nodes, wires them with directed
//! [`LinkSpec`]s (rate, propagation delay, buffered queue), and declares
//! one [`FlowSpec`] per competing flow — either with an explicit hop
//! path or routed shortest-path over the declared links. [`compile`]
//! validates the whole description (every error names the offending
//! node, link, or flow) and lowers it onto
//! [`augur_elements::NetworkBuilder`]:
//!
//! * each link used by at least one route becomes a
//!   `buffer → link → delay` pipeline (the buffer built by the link's
//!   [`QueueSpec`], the delay element elided when zero);
//! * at the tail of every link a chain of [`augur_elements::Diverter`]s
//!   steers each flow to the entry buffer of its next link — or to its
//!   own receiver at the destination — so flows genuinely traverse
//!   different hop sequences through shared queues;
//! * flow `i` transmits as `FlowId(i)` and enters the network at the
//!   first link of its route ([`CompiledTopo::entries`]).
//!
//! Validation rejects *forwarding cycles* — routes whose combined
//! link-to-link successor relation loops — at compile time with the
//! closing link named, rather than tripping the runtime
//! `routing cycle detected` assertion inside the element network.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::queue::QueueSpec;
use augur_sim::{BitRate, Bits, Dur, FlowId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use augur_elements::{
    DelayEl, Diverter, Element, Link, Network, NetworkBuilder, NodeId, ReceiverEl,
};

/// One directed link between two named nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Diagnostic name (unique within the topology).
    pub name: String,
    /// Source node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Service rate.
    pub rate: BitRate,
    /// Propagation delay appended after service (zero elides the
    /// delay element).
    pub delay: Dur,
    /// Capacity of the link's ingress buffer.
    pub buffer: Bits,
    /// Queue discipline of that buffer.
    pub queue: QueueSpec,
}

/// One flow: where it enters and leaves the topology, and optionally the
/// exact hop sequence it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Diagnostic name (unique within the topology).
    pub name: String,
    /// Report class ("long" vs "short", "primary" vs "cross", …);
    /// reports aggregate goodput per class.
    pub class: String,
    /// Source node name.
    pub src: String,
    /// Destination node name.
    pub dst: String,
    /// Explicit route as a node list from `src` to `dst`; `None` routes
    /// shortest-path (fewest hops, earlier-declared links breaking ties).
    pub path: Option<Vec<String>>,
}

/// A declarative multi-bottleneck topology.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphTopology {
    /// Node names (unique).
    pub nodes: Vec<String>,
    /// Directed links (at most one per ordered node pair).
    pub links: Vec<LinkSpec>,
    /// Flows; flow `i` transmits as `FlowId(i)`, flow 0 is a scenario's
    /// primary sender.
    pub flows: Vec<FlowSpec>,
    /// Wire packet size every sender over this topology uses.
    pub packet_size: Bits,
}

/// What made a topology invalid. Every variant names the offending
/// node, link, or flow so spec-file diagnostics can point at the
/// authoring mistake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// The topology declares no nodes.
    NoNodes,
    /// The topology declares no flows.
    NoFlows,
    /// Two nodes share a name.
    DuplicateNode {
        /// The repeated name.
        node: String,
    },
    /// Two links share a name.
    DuplicateLink {
        /// The repeated name.
        link: String,
    },
    /// Two links connect the same ordered node pair, so a route over
    /// that pair would be ambiguous.
    ParallelLink {
        /// The later-declared link.
        link: String,
        /// The earlier-declared link over the same pair.
        other: String,
    },
    /// Two flows share a name.
    DuplicateFlow {
        /// The repeated name.
        flow: String,
    },
    /// A link or flow references a node the topology never declares.
    UnknownNode {
        /// The undeclared name.
        node: String,
        /// What referenced it, e.g. `link "l-r"` or `flow "long"`.
        within: String,
    },
    /// A link connects a node to itself.
    SelfLoop {
        /// The offending link.
        link: String,
    },
    /// A flow's source equals its destination.
    SelfFlow {
        /// The offending flow.
        flow: String,
    },
    /// An explicit path does not start at the flow's source or end at
    /// its destination.
    PathEndpoint {
        /// The offending flow.
        flow: String,
        /// `"start"` or `"end"`.
        end: &'static str,
        /// The declared src/dst.
        expected: String,
        /// What the path actually has there.
        found: String,
    },
    /// An explicit path steps between two nodes no declared link
    /// connects.
    MissingLink {
        /// The offending flow.
        flow: String,
        /// Hop source.
        from: String,
        /// Hop destination.
        to: String,
    },
    /// An explicit path visits a node twice — a routing cycle.
    RoutingCycle {
        /// The offending flow.
        flow: String,
        /// The revisited node.
        node: String,
    },
    /// No route exists from a flow's source to its destination.
    Unreachable {
        /// The offending flow.
        flow: String,
        /// Its source.
        src: String,
        /// Its (unreachable) destination.
        dst: String,
    },
    /// The flows' combined link-to-link successor relation loops, which
    /// would cycle the compiled element network.
    ForwardingCycle {
        /// A link on the cycle.
        link: String,
        /// That link's source node.
        from: String,
        /// That link's destination node.
        to: String,
    },
    /// More flows than `FlowId` can address.
    TooManyFlows {
        /// The declared count.
        flows: usize,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::NoNodes => write!(f, "topology declares no nodes"),
            TopoError::NoFlows => write!(f, "topology declares no flows"),
            TopoError::DuplicateNode { node } => write!(f, "duplicate node {node:?}"),
            TopoError::DuplicateLink { link } => write!(f, "duplicate link name {link:?}"),
            TopoError::ParallelLink { link, other } => write!(
                f,
                "link {link:?} duplicates {other:?} (one link per ordered node pair)"
            ),
            TopoError::DuplicateFlow { flow } => write!(f, "duplicate flow {flow:?}"),
            TopoError::UnknownNode { node, within } => {
                write!(f, "unknown node {node:?} in {within}")
            }
            TopoError::SelfLoop { link } => {
                write!(f, "link {link:?} connects a node to itself")
            }
            TopoError::SelfFlow { flow } => {
                write!(f, "flow {flow:?} has identical src and dst")
            }
            TopoError::PathEndpoint {
                flow,
                end,
                expected,
                found,
            } => write!(
                f,
                "flow {flow:?}: path must {end} at {expected:?}, found {found:?}"
            ),
            TopoError::MissingLink { flow, from, to } => {
                write!(f, "flow {flow:?}: no link connects {from:?} -> {to:?}")
            }
            TopoError::RoutingCycle { flow, node } => {
                write!(f, "routing cycle: flow {flow:?} visits node {node:?} twice")
            }
            TopoError::Unreachable { flow, src, dst } => write!(
                f,
                "flow {flow:?}: destination {dst:?} is unreachable from {src:?}"
            ),
            TopoError::ForwardingCycle { link, from, to } => write!(
                f,
                "forwarding cycle through link {link:?} ({from:?} -> {to:?})"
            ),
            TopoError::TooManyFlows { flows } => {
                write!(f, "{flows} flows exceed the addressable flow-id space")
            }
        }
    }
}

impl std::error::Error for TopoError {}

/// Validate the topology and resolve every flow's route as a list of
/// link indices (into [`GraphTopology::links`]), in flow order.
pub fn resolve_routes(topo: &GraphTopology) -> Result<Vec<Vec<usize>>, TopoError> {
    if topo.nodes.is_empty() {
        return Err(TopoError::NoNodes);
    }
    if topo.flows.is_empty() {
        return Err(TopoError::NoFlows);
    }
    if topo.flows.len() > usize::from(u16::MAX) {
        return Err(TopoError::TooManyFlows {
            flows: topo.flows.len(),
        });
    }
    let mut node_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, n) in topo.nodes.iter().enumerate() {
        if node_of.insert(n.as_str(), i).is_some() {
            return Err(TopoError::DuplicateNode { node: n.clone() });
        }
    }

    let mut link_names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut link_of_pair: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    // Outgoing links per node, in declaration order (the shortest-path
    // tie-break).
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); topo.nodes.len()];
    for (l, spec) in topo.links.iter().enumerate() {
        if link_names.insert(spec.name.as_str(), l).is_some() {
            return Err(TopoError::DuplicateLink {
                link: spec.name.clone(),
            });
        }
        let within = || format!("link {:?}", spec.name);
        let from = *node_of
            .get(spec.from.as_str())
            .ok_or_else(|| TopoError::UnknownNode {
                node: spec.from.clone(),
                within: within(),
            })?;
        let to = *node_of
            .get(spec.to.as_str())
            .ok_or_else(|| TopoError::UnknownNode {
                node: spec.to.clone(),
                within: within(),
            })?;
        if from == to {
            return Err(TopoError::SelfLoop {
                link: spec.name.clone(),
            });
        }
        if let Some(&earlier) = link_of_pair.get(&(from, to)) {
            return Err(TopoError::ParallelLink {
                link: spec.name.clone(),
                other: topo.links[earlier].name.clone(),
            });
        }
        link_of_pair.insert((from, to), l);
        out[from].push(l);
    }

    let mut flow_names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut routes = Vec::with_capacity(topo.flows.len());
    for (fi, flow) in topo.flows.iter().enumerate() {
        if flow_names.insert(flow.name.as_str(), fi).is_some() {
            return Err(TopoError::DuplicateFlow {
                flow: flow.name.clone(),
            });
        }
        let within = || format!("flow {:?}", flow.name);
        let src = *node_of
            .get(flow.src.as_str())
            .ok_or_else(|| TopoError::UnknownNode {
                node: flow.src.clone(),
                within: within(),
            })?;
        let dst = *node_of
            .get(flow.dst.as_str())
            .ok_or_else(|| TopoError::UnknownNode {
                node: flow.dst.clone(),
                within: within(),
            })?;
        if src == dst {
            return Err(TopoError::SelfFlow {
                flow: flow.name.clone(),
            });
        }
        let route = match &flow.path {
            Some(path) => explicit_route(topo, flow, path, &node_of, &link_of_pair)?,
            None => shortest_route(topo, flow, src, dst, &out)?,
        };
        routes.push(route);
    }

    check_forwarding(topo, &routes)?;
    Ok(routes)
}

/// Resolve an explicit hop list against the declared links.
fn explicit_route(
    topo: &GraphTopology,
    flow: &FlowSpec,
    path: &[String],
    node_of: &BTreeMap<&str, usize>,
    link_of_pair: &BTreeMap<(usize, usize), usize>,
) -> Result<Vec<usize>, TopoError> {
    let first = path.first().map(String::as_str).unwrap_or("");
    if first != flow.src {
        return Err(TopoError::PathEndpoint {
            flow: flow.name.clone(),
            end: "start",
            expected: flow.src.clone(),
            found: first.to_string(),
        });
    }
    let last = path.last().map(String::as_str).unwrap_or("");
    if last != flow.dst {
        return Err(TopoError::PathEndpoint {
            flow: flow.name.clone(),
            end: "end",
            expected: flow.dst.clone(),
            found: last.to_string(),
        });
    }
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut ids = Vec::with_capacity(path.len());
    for node in path {
        let id = *node_of
            .get(node.as_str())
            .ok_or_else(|| TopoError::UnknownNode {
                node: node.clone(),
                within: format!("path of flow {:?}", flow.name),
            })?;
        if !seen.insert(id) {
            return Err(TopoError::RoutingCycle {
                flow: flow.name.clone(),
                node: node.clone(),
            });
        }
        ids.push(id);
    }
    ids.windows(2)
        .map(|w| {
            link_of_pair
                .get(&(w[0], w[1]))
                .copied()
                .ok_or_else(|| TopoError::MissingLink {
                    flow: flow.name.clone(),
                    from: topo.nodes[w[0]].clone(),
                    to: topo.nodes[w[1]].clone(),
                })
        })
        .collect()
}

/// Fewest-hops route via breadth-first search; among equally short
/// routes the earlier-declared links win (each node is first reached
/// through the earliest possible link, and that parent sticks).
fn shortest_route(
    topo: &GraphTopology,
    flow: &FlowSpec,
    src: usize,
    dst: usize,
    out: &[Vec<usize>],
) -> Result<Vec<usize>, TopoError> {
    let mut parent: Vec<Option<usize>> = vec![None; topo.nodes.len()]; // arriving link
    let mut visited = vec![false; topo.nodes.len()];
    visited[src] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        if u == dst {
            break;
        }
        for &l in &out[u] {
            let v = node_index(topo, &topo.links[l].to);
            if !visited[v] {
                visited[v] = true;
                parent[v] = Some(l);
                queue.push_back(v);
            }
        }
    }
    if !visited[dst] {
        return Err(TopoError::Unreachable {
            flow: flow.name.clone(),
            src: flow.src.clone(),
            dst: flow.dst.clone(),
        });
    }
    let mut route = Vec::new();
    let mut at = dst;
    while at != src {
        #[expect(clippy::expect_used, reason = "P020: dst reached, so it has a parent")]
        let l = parent[at].expect("visited non-source node has a parent link");
        route.push(l);
        at = node_index(topo, &topo.links[l].from);
    }
    route.reverse();
    Ok(route)
}

/// The declaration index of a node name known to be declared.
#[expect(clippy::expect_used, reason = "P020: endpoints were validated")]
fn node_index(topo: &GraphTopology, name: &str) -> usize {
    topo.nodes
        .iter()
        .position(|n| n == name)
        .expect("link endpoints were validated against the node table")
}

/// Reject forwarding cycles: if some flow traverses link `a` then `b`,
/// the compiled network wires `a`'s tail toward `b`'s buffer, so the
/// union of those successor pairs must be acyclic or
/// `NetworkBuilder::build` would produce a cyclic element graph.
fn check_forwarding(topo: &GraphTopology, routes: &[Vec<usize>]) -> Result<(), TopoError> {
    let nl = topo.links.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nl];
    let mut used = vec![false; nl];
    for route in routes {
        for &l in route {
            used[l] = true;
        }
        for w in route.windows(2) {
            if !succ[w[0]].contains(&w[1]) {
                succ[w[0]].push(w[1]);
            }
        }
    }
    // Iterative three-color DFS over used links.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; nl];
    for start in (0..nl).filter(|&l| used[l]) {
        if color[start] != WHITE {
            continue;
        }
        // Stack of (link, next successor position to try).
        let mut stack = vec![(start, 0usize)];
        color[start] = GRAY;
        while let Some(&mut (l, ref mut pos)) = stack.last_mut() {
            if let Some(&nx) = succ[l].get(*pos) {
                *pos += 1;
                match color[nx] {
                    WHITE => {
                        color[nx] = GRAY;
                        stack.push((nx, 0));
                    }
                    GRAY => {
                        let spec = &topo.links[nx];
                        return Err(TopoError::ForwardingCycle {
                            link: spec.name.clone(),
                            from: spec.from.clone(),
                            to: spec.to.clone(),
                        });
                    }
                    _ => {}
                }
            } else {
                color[l] = BLACK;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Validate a topology without building the element network — the
/// `--check` entry point. Equivalent to [`resolve_routes`] with the
/// routes discarded.
pub fn validate(topo: &GraphTopology) -> Result<(), TopoError> {
    resolve_routes(topo).map(|_| ())
}

/// A topology lowered onto a concrete element [`Network`].
#[derive(Debug)]
pub struct CompiledTopo {
    /// The element network.
    pub net: Network,
    /// `entries[i]` is the ingress buffer of flow `i`'s first link.
    pub entries: Vec<NodeId>,
    /// `rxs[i]` receives flow `i` at its destination.
    pub rxs: Vec<NodeId>,
    /// Per-flow routes as link indices (into [`GraphTopology::links`]).
    pub routes: Vec<Vec<usize>>,
    /// Per-flow index of the slowest link on the route (first wins on
    /// rate ties) — the bottleneck a single-link belief should model.
    pub bottlenecks: Vec<usize>,
}

/// Validate and compile the topology. See the module docs for the
/// lowering; errors are exactly [`resolve_routes`]'s.
pub fn compile(topo: &GraphTopology) -> Result<CompiledTopo, TopoError> {
    let routes = resolve_routes(topo)?;
    let nl = topo.links.len();
    // Flows through each link, in flow order.
    let mut flows_on: Vec<Vec<usize>> = vec![Vec::new(); nl];
    for (fi, route) in routes.iter().enumerate() {
        for &l in route {
            flows_on[l].push(fi);
        }
    }

    let mut b = NetworkBuilder::new();
    // (ingress buffer, egress tail) per used link, declaration order.
    let mut pipes: Vec<Option<(NodeId, NodeId)>> = vec![None; nl];
    for (l, spec) in topo.links.iter().enumerate() {
        if flows_on[l].is_empty() {
            continue; // declared but routed around: build nothing
        }
        let buf = b.add(Element::Buffer(spec.queue.build(spec.buffer)));
        let link = b.add(Element::Link(Link::constant(spec.rate)));
        b.connect(buf, link);
        let tail = if spec.delay > Dur::ZERO {
            let delay = b.add(Element::Delay(DelayEl::new(spec.delay)));
            b.connect(link, delay);
            delay
        } else {
            link
        };
        pipes[l] = Some((buf, tail));
    }
    let rxs: Vec<NodeId> = topo
        .flows
        .iter()
        .map(|_| b.add(Element::Receiver(ReceiverEl)))
        .collect();

    // Where flow `fi` goes after link `l`: the next link's buffer, or its
    // receiver when `l` is the route's last hop.
    #[expect(clippy::expect_used, reason = "P020: l is on the route; pipe built")]
    let target = |fi: usize, l: usize, pipes: &[Option<(NodeId, NodeId)>]| -> NodeId {
        let route = &routes[fi];
        let pos = route
            .iter()
            .position(|&x| x == l)
            .expect("flow is on this link");
        match route.get(pos + 1) {
            Some(&next) => pipes[next].expect("links on routes are built").0,
            None => rxs[fi],
        }
    };
    for l in 0..nl {
        let on = &flows_on[l];
        let Some((_, tail)) = pipes[l] else { continue };
        if let [only] = on[..] {
            b.connect(tail, target(only, l, &pipes));
            continue;
        }
        // diverter(f).next → f's target; its alt continues the chain,
        // with the last alt edge going straight to the final flow's
        // target.
        let mut upstream = tail;
        for (j, &fi) in on.iter().take(on.len() - 1).enumerate() {
            let div = b.add(Element::Diverter(Diverter {
                flow: FlowId(fi as u16),
            }));
            if j == 0 {
                b.connect(upstream, div);
            } else {
                b.connect_alt(upstream, div);
            }
            b.connect(div, target(fi, l, &pipes));
            upstream = div;
        }
        #[expect(clippy::expect_used, reason = "P020: a chain has >= 2 flows")]
        b.connect_alt(
            upstream,
            target(*on.last().expect("chain is non-empty"), l, &pipes),
        );
    }

    #[expect(clippy::expect_used, reason = "P020: route[0]'s pipe was built")]
    let entries = routes
        .iter()
        .map(|route| pipes[route[0]].expect("first links are built").0)
        .collect();
    let bottlenecks = routes
        .iter()
        .map(|route| {
            let mut best = route[0];
            for &l in &route[1..] {
                if topo.links[l].rate < topo.links[best].rate {
                    best = l;
                }
            }
            best
        })
        .collect();
    Ok(CompiledTopo {
        net: b.build(),
        entries,
        rxs,
        routes,
        bottlenecks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_sim::{Packet, SimRng, Time};

    fn link(name: &str, from: &str, to: &str, bps: u64) -> LinkSpec {
        LinkSpec {
            name: name.into(),
            from: from.into(),
            to: to.into(),
            rate: BitRate::from_bps(bps),
            delay: Dur::ZERO,
            buffer: Bits::new(96_000),
            queue: QueueSpec::DropTail,
        }
    }

    fn flow(name: &str, src: &str, dst: &str) -> FlowSpec {
        FlowSpec {
            name: name.into(),
            class: "c".into(),
            src: src.into(),
            dst: dst.into(),
            path: None,
        }
    }

    fn line3() -> GraphTopology {
        GraphTopology {
            nodes: vec!["a".into(), "b".into(), "c".into()],
            links: vec![link("ab", "a", "b", 12_000), link("bc", "b", "c", 12_000)],
            flows: vec![flow("long", "a", "c"), flow("short", "b", "c")],
            packet_size: Bits::from_bytes(1_500),
        }
    }

    #[test]
    fn shortest_path_routes_resolve_in_declaration_order() {
        let routes = resolve_routes(&line3()).unwrap();
        assert_eq!(routes, vec![vec![0, 1], vec![1]]);
    }

    #[test]
    fn explicit_path_overrides_and_matches_bfs_here() {
        let mut t = line3();
        t.flows[0].path = Some(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(resolve_routes(&t).unwrap()[0], vec![0, 1]);
    }

    #[test]
    fn unknown_nodes_are_named() {
        let mut t = line3();
        t.links[0].to = "zz".into();
        match resolve_routes(&t).unwrap_err() {
            TopoError::UnknownNode { node, within } => {
                assert_eq!(node, "zz");
                assert!(within.contains("ab"), "{within}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unreachable_destination_is_named() {
        let mut t = line3();
        t.links.remove(1); // b→c gone; both flows lose their route to c
        let err = resolve_routes(&t).unwrap_err();
        assert_eq!(
            err,
            TopoError::Unreachable {
                flow: "long".into(),
                src: "a".into(),
                dst: "c".into(),
            }
        );
        assert!(err.to_string().contains("\"c\""), "{err}");
    }

    #[test]
    fn explicit_path_revisiting_a_node_is_a_routing_cycle() {
        let mut t = line3();
        t.links.push(link("ba", "b", "a", 12_000));
        t.flows[0].path = Some(vec![
            "a".into(),
            "b".into(),
            "a".into(),
            "b".into(),
            "c".into(),
        ]);
        let err = resolve_routes(&t).unwrap_err();
        assert_eq!(
            err,
            TopoError::RoutingCycle {
                flow: "long".into(),
                node: "a".into(),
            }
        );
    }

    #[test]
    fn cross_flow_forwarding_cycle_is_rejected_with_the_link_named() {
        // Three individually-acyclic explicit routes whose link-successor
        // union is the cycle ab → bc → ca → ab.
        let mut t = GraphTopology {
            nodes: vec!["a".into(), "b".into(), "c".into()],
            links: vec![
                link("ab", "a", "b", 12_000),
                link("bc", "b", "c", 12_000),
                link("ca", "c", "a", 12_000),
            ],
            flows: vec![
                flow("f0", "a", "c"),
                flow("f1", "b", "a"),
                flow("f2", "c", "b"),
            ],
            packet_size: Bits::from_bytes(1_500),
        };
        t.flows[0].path = Some(vec!["a".into(), "b".into(), "c".into()]);
        t.flows[1].path = Some(vec!["b".into(), "c".into(), "a".into()]);
        t.flows[2].path = Some(vec!["c".into(), "a".into(), "b".into()]);
        match resolve_routes(&t).unwrap_err() {
            TopoError::ForwardingCycle { link, .. } => {
                assert!(["ab", "bc", "ca"].contains(&link.as_str()), "{link}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_hop_link_and_bad_endpoints_are_rejected() {
        let mut t = line3();
        t.flows[1].path = Some(vec!["b".into(), "a".into()]);
        // b→a has no link, but the endpoint check fires first: dst is c.
        match resolve_routes(&t).unwrap_err() {
            TopoError::PathEndpoint { flow, end, .. } => {
                assert_eq!(flow, "short");
                assert_eq!(end, "end");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let mut t = line3();
        t.flows[0].path = Some(vec!["a".into(), "c".into()]);
        assert_eq!(
            resolve_routes(&t).unwrap_err(),
            TopoError::MissingLink {
                flow: "long".into(),
                from: "a".into(),
                to: "c".into(),
            }
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut t = line3();
        t.nodes.push("a".into());
        assert_eq!(
            resolve_routes(&t).unwrap_err(),
            TopoError::DuplicateNode { node: "a".into() }
        );
        let mut t = line3();
        t.links.push(link("ab", "a", "c", 1_000));
        assert_eq!(
            resolve_routes(&t).unwrap_err(),
            TopoError::DuplicateLink { link: "ab".into() }
        );
        let mut t = line3();
        t.links.push(link("ab2", "a", "b", 1_000));
        assert_eq!(
            resolve_routes(&t).unwrap_err(),
            TopoError::ParallelLink {
                link: "ab2".into(),
                other: "ab".into(),
            }
        );
    }

    #[test]
    fn compiled_line_delivers_each_flow_to_its_receiver() {
        let mut c = compile(&line3()).unwrap();
        let mut rng = SimRng::seed_from_u64(7);
        c.net.inject(
            c.entries[0],
            Packet::new(FlowId(0), 0, Bits::new(12_000), Time::ZERO),
        );
        c.net.inject(
            c.entries[1],
            Packet::new(FlowId(1), 0, Bits::new(12_000), Time::ZERO),
        );
        c.net.run_until_sampled(Time::from_secs(30), &mut rng);
        let deliveries = c.net.take_deliveries();
        assert_eq!(deliveries.len(), 2);
        for (node, d) in deliveries {
            assert_eq!(node, c.rxs[d.packet.flow.0 as usize]);
        }
    }

    #[test]
    fn bottleneck_is_the_slowest_link_on_the_route() {
        let mut t = line3();
        t.links[1].rate = BitRate::from_bps(6_000);
        let c = compile(&t).unwrap();
        assert_eq!(c.bottlenecks, vec![1, 1]);
    }

    #[test]
    fn unused_links_are_not_built() {
        let mut t = line3();
        t.links.push(link("cb", "c", "b", 12_000)); // no flow uses it
        let c = compile(&t).unwrap();
        // 2 used links × (buffer + link) + 2 receivers + 1 diverter (both
        // flows share bc) = 7 nodes.
        assert_eq!(c.net.node_count(), 7);
    }
}
