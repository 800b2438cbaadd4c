//! Process migration for DEMOS/MP — the paper's primary contribution.
//!
//! This crate implements §3–§5 of *Process Migration in DEMOS/MP* (Powell
//! & Miller, SOSP 1983) on top of the `demos-kernel` mechanisms:
//!
//! * [`engine`] — the eight-step migration protocol (§3.1), destination
//!   -driven after the offer, with the nine administrative messages, the
//!   three move-data state transfers, autonomy/inter-domain accept
//!   policies (§3.2), and timeout-based abort;
//! * [`node`] — the per-machine composition of kernel + engine that the
//!   simulation harness drives.
//!
//! Message *forwarding* (§4) and *link updating* (§5) are properties of
//! the delivery system and live in `demos-kernel`; migration installs the
//! forwarding address as its step 7 and the delivery system does the rest.
//! The rejected-alternative non-delivery mode and the forwarding-address
//! garbage collector are selected through
//! [`demos_kernel::KernelConfig::forwarding`] and
//! [`demos_kernel::KernelConfig::gc_forwarding`].

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

pub mod engine;
pub mod node;

pub use engine::{AcceptPolicy, MigrationConfig, MigrationEngine, MigrationStats, OfferInfo};
pub use engine::{Ownership, Stage};
pub use node::Node;
