#![forbid(unsafe_code)]
//! `augur-topo` — declarative multi-bottleneck topologies.
//!
//! Every scenario the paper itself runs sits on a single bottleneck, but
//! the sender's core claim — modeling *uncertainty about the network
//! state* — is most interesting when which bottleneck is binding is
//! itself uncertain. This crate grows the repo a topology language for
//! exactly that scenario space:
//!
//! * [`GraphTopology`] — the declarative description: named nodes,
//!   directed [`LinkSpec`] links (rate, propagation delay, buffer with a
//!   swappable [`QueueSpec`] queue discipline), and per-flow
//!   [`FlowSpec`] routes (explicit hop lists, or shortest-path when
//!   omitted);
//! * [`compile`] — validation (duplicate names, unknown nodes, routing
//!   cycles, unreachable destinations, cross-flow forwarding cycles —
//!   every error names the offending node/link/flow) plus compilation
//!   onto [`augur_elements::NetworkBuilder`]: one buffer → link → delay
//!   pipeline per used link, diverter chains steering each flow to its
//!   next hop, one receiver per flow.
//!
//! A topology is written as the `[topology]` section of a spec file (the
//! shipped `dumbbell-cross.toml` and `parking-lot.toml` are the canonical
//! shapes) or built as a [`GraphTopology`] value.
//!
//! The compiled network drives `augur_core::run_multi_agent` through
//! per-flow entry points, so flows genuinely traverse different hop
//! sequences — see `augur-scenario`'s `TopologySpec::Graph`.

pub mod graph;
pub mod queue;

pub use graph::{
    compile, resolve_routes, validate, CompiledTopo, FlowSpec, GraphTopology, LinkSpec, TopoError,
};
pub use queue::QueueSpec;
