//! Core types for the DEMOS/MP reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`ids`] — machine identifiers, system-wide unique process identifiers
//!   and the two-part *process address* of Figure 2-1 of the paper
//!   (`last known machine` + `unique process id`).
//! * [`time`] — virtual time used by the discrete-event substrate.
//! * [`wire`] — a small, byte-exact codec: hand-rolled primitives and
//!   one table macro ([`wire_enum!`]) that generates a tagged enum's
//!   codec from its layout. DEMOS/MP's evaluation counts message *bytes*,
//!   so every type that crosses the simulated network has a deterministic
//!   encoding whose length we can report honestly (e.g. a forwarding
//!   address is exactly 8 bytes, §4).
//! * [`link`] — links: protected global process addresses with the
//!   `DELIVERTOKERNEL` attribute and optional data-area windows (§2.1–2.2).
//! * [`message`] — message headers and messages, including carried links.
//! * [`proto`] — payloads of kernel control, migration, move-data and
//!   link-maintenance protocol messages (§3–5).
//! * [`corr`] — correlation ids for causal tracing; carried alongside
//!   messages and frames, never inside the wire encoding.
//! * [`error`] — error types shared across the workspace.
//!
//! Nothing in this crate allocates per-message beyond the one buffer that
//! holds the wire image: every `encode` writes into a caller-provided
//! [`bytes::BufMut`], and [`Wire::to_bytes`] hands it one sized exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod error;
pub mod ids;
pub mod link;
pub mod message;
pub mod proto;
pub mod time;
pub mod wire;

pub use corr::CorrId;
pub use error::{DemosError, Result};
pub use ids::{MachineId, ProcessAddress, ProcessId, KERNEL_LOCAL_UID};
pub use link::{DataArea, Link, LinkAttrs, LinkIdx};
pub use message::{tags, Message, MsgFlags, MsgHeader};
pub use time::{Duration, Time};
pub use wire::{Wire, WireError};
