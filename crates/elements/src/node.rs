//! Nodes: an element's parameters plus its wiring in the network graph.

use crate::element::ElementParams;
use std::fmt;

/// Index of a node within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node of the element graph: the element's parameters plus up to two
/// successors. `next` is the primary output; `alt` is only used by the
/// two-output combinators (DIVERTER routes non-matching flows to `alt`,
/// EITHER routes to `alt` while switched). A `NetworkStructure` is a
/// `Vec<NodeParams>` shared by every hypothesis network built from it; the
/// node's mutable half is the `ElementState` at the same index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeParams {
    /// The element's immutable configuration.
    pub element: ElementParams,
    /// Primary successor.
    pub next: Option<NodeId>,
    /// Secondary successor (DIVERTER / EITHER only).
    pub alt: Option<NodeId>,
}
