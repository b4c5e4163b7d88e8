#![forbid(unsafe_code)]
//! `augur-elements` — the paper's network-element language (§3.1).
//!
//! "The model is built as a language of network elements, corresponding to
//! idealized versions of data structures and phenomena that occur in real
//! networks." This crate implements every element the paper lists —
//! BUFFER, THROUGHPUT, DELAY, LOSS, JITTER, PINGER, INTERMITTENT,
//! SQUAREWAVE, RECEIVER — and the combinators SERIES, DIVERTER and EITHER,
//! plus the extensions the paper calls for in §3.5 (AQM variants of
//! BUFFER, a time-varying-rate THROUGHPUT, and link-layer ARQ for the
//! cellular experiments).
//!
//! The crate's central type is [`network::Network`]: a *value* combining
//! elements into a graph, advanced event-by-event, with every stochastic
//! decision surfaced as a [`choice::ChoiceSpec`] so that the same code
//! serves as ground truth (decisions sampled) and as belief-state
//! hypothesis (decisions forked). See the module docs of [`network`] for
//! the driver contract.
//!
//! An element has one representation: an immutable `…Params` that every
//! hypothesis of a network shares and a per-hypothesis `…State`, with the
//! behaviour a method of the params over the state (see [`element`]). The
//! named blueprints (`Buffer`, `Link`, `Gate`, …) are constructors of
//! that pair. A network's identity — `==` and the `Hash` that orders and
//! deduplicates hypotheses — is defined over the pairs in [`network`],
//! in one function.

pub mod buffer;
pub mod cellular;
pub mod choice;
pub mod delay;
pub mod element;
pub mod gate;
pub mod link;
pub mod model;
pub mod network;
pub mod node;
pub mod source;

pub use buffer::{
    AqmState, Buffer, BufferKind, BufferParams, BufferState, CoDelParams, CoDelRun, RedParams,
};
pub use cellular::{build_cellular, build_cellular_with_buffer, CellularNet, CellularParams};
pub use choice::{ChoiceKind, ChoiceSpec};
pub use delay::{DelayEl, DelayParams, DelayState, JitterEl, JitterParams, JitterState};
pub use element::{Diverter, Element, ElementParams, ElementState, Loss, ReceiverEl};
pub use gate::{Either, EitherParams, EitherState, Gate, GateKind, GateParams, GateState};
pub use link::{Link, LinkParams, LinkState, RateProcess, TraceEnd};
pub use model::{
    build_model, GateSpec, ModelParams, FIG2_DIVERTER, FIG2_ENTRY, FIG2_GATE, FIG2_LINK, FIG2_LOSS,
    FIG2_PINGER, FIG2_RX_CROSS, FIG2_RX_SELF,
};
pub use network::{
    DropReason, DropRecord, Network, NetworkBuilder, NetworkStructure, NetworkView, Step,
    BACKLOG_FLOW,
};
pub use node::{NodeId, NodeParams};
pub use source::{Pinger, PingerParams, PingerState};
