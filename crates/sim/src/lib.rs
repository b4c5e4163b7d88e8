#![forbid(unsafe_code)]
//! `augur-sim` — the discrete-event simulation substrate for `augur`.
//!
//! This crate provides the vocabulary the rest of the system is written
//! in: integer virtual [`Time`], integer physical units ([`BitRate`],
//! [`Bits`], [`Ppm`]), [`Packet`]s and [`Delivery`] observations, a
//! seeded [`SimRng`], the fixed-algorithm identity hasher
//! [`StableHasher`], the always-on
//! work counters / stopwatch of [`perf`], and the canonical number/JSON
//! formatting of [`canon`] that every deterministic artifact writer
//! shares.
//!
//! Design rules:
//!
//! * **All simulated state is integer-valued.** Belief states are hashed
//!   and compared for exact compaction, and the true hypothesis must
//!   predict ground-truth observations bit-for-bit.
//! * **All randomness is seeded and deterministic.** A simulation run is a
//!   pure function of its configuration and seed.

pub mod canon;
pub mod hash;
pub mod packet;
pub mod perf;
pub mod rng;
pub mod time;
pub mod units;

pub use hash::{classes, StableHasher};
pub use packet::{Delivery, FlowId, Packet};
pub use perf::{Stopwatch, WorkCounters};
pub use rng::SimRng;
pub use time::{Dur, Time};
pub use units::{BitRate, Bits, Ppm};
