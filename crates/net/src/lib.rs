//! Simulated inter-kernel network.
//!
//! DEMOS/MP assumes "reliable delivery of messages … any message sent will
//! eventually be delivered" (§2.1), provided by the *published
//! communications* layer of Powell & Presotto 83. We do not have that
//! system (or the Z8000 network hardware), so this crate substitutes:
//!
//! * [`topology`] — a weighted graph of machines with per-edge latency,
//!   per-byte cost and loss probability, plus shortest-path routing
//!   (messages can travel "possibly through intermediate processors", §1);
//! * [`frame`] — the link-level frame format (data + cumulative acks);
//! * [`channel`] — per-peer sequenced go-back-N channels with
//!   retransmission and duplicate suppression: the delivery guarantee;
//! * [`network`] — the physical layer: a deterministic event heap that
//!   delays, drops (seeded) and delivers frames, and records the traffic
//!   statistics (frames, bytes, hops) that the paper's cost analysis (§6)
//!   is denominated in.
//!
//! Determinism: all ordering is `(time, sequence)`-keyed and all loss is
//! drawn from a seeded RNG, so a simulation replays bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Code a protocol handler can reach degrades instead of aborting the kernel
// (DESIGN.md §8, D004/D006); tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// A match over an enum names its variants, so a new variant is a compile
// error at every handler instead of a silent fall-through (D003).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod channel;
pub mod frame;
pub mod network;
pub mod topology;

pub use channel::{Bounce, ChannelConfig, ChannelStats, Endpoint, PeerState};
pub use frame::{Frame, FrameMeta};
pub use network::{InFlight, NetEvent, NetStats, Phys, SendKey, SimNetwork};
pub use topology::{EdgeParams, Topology};
