//! The DEMOS/MP per-processor kernel.
//!
//! This crate implements systems S3 and S4 of the design: everything a
//! single processor's kernel does in DEMOS/MP —
//!
//! * processes with code/data/stack images, link tables and message
//!   queues ([`process`], [`image`], [`linktable`]; Figure 2-2);
//! * the [`Program`] abstraction and communication-oriented kernel-call
//!   interface ([`program`]; §2.1);
//! * the message delivery system with `DELIVERTOKERNEL` receives,
//!   forwarding addresses and link-update by-products ([`kernel`];
//!   §2.2, §4, §5);
//! * the streamed move-data facility ([`movedata`]; §2.2, §6);
//! * remote process creation ([`mgmt`]) and the event trace ([`trace`]).
//!
//! The migration *protocol* (the 8 steps of §3.1) is composed on top of
//! these mechanisms by `demos-core`; this crate deliberately exposes the
//! mechanism surface (freeze, serve state, reserve, install, finish
//! source side) without policy.

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

pub mod checkpoint;
pub mod image;
pub mod kernel;
pub mod linktable;
pub mod mgmt;
pub mod movedata;
pub mod process;
pub mod program;
pub mod trace;

pub use checkpoint::Checkpoint;
pub use image::{ImageLayout, ProcessImage};
pub use kernel::{
    decode_md_done, encode_md_done, DetectorStats, ForwardEntry, Kernel, KernelConfig,
    KernelPullDone, KernelStats, MigrationSizes, MsgCount, Outbox, TrafficBreakdown, MAX_PROCESSES,
    MEM_CAPACITY,
};
pub use linktable::{LinkAttrsExt, LinkTable};
pub use movedata::{MdAction, MoveData, MoveDataConfig, PullPurpose};
pub use process::{ExecStatus, Process, TimerEntry};
pub use program::{local_tags, Carry, Ctx, Delivered, Effects, MoveDataReq, Program, Registry};
pub use trace::{MigrationPhase, TraceEvent, TraceRecord};
