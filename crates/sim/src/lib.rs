//! Deterministic simulation harness for the DEMOS/MP reproduction.
//!
//! * [`cluster`] — the discrete-event loop driving one [`demos_core::Node`]
//!   per machine over the simulated network, with fault injection
//!   (crash, degradation) and deterministic replay;
//! * [`programs`] — seeded synthetic workload programs (ping-pong pairs,
//!   CPU burners, echo servers/clients, pipelines, inert cargo);
//! * [`recovery`] — checkpoint stable storage and automatic re-homing of
//!   processes from machines the failure detector confirmed dead;
//! * [`balance`] — drives `demos-policy` decision rules against the live
//!   cluster, playing the process manager's monitoring role;
//! * [`partition`] / [`shard`] — shard plans that deal machine `i` to
//!   shard `i mod S`, and the conservative parallel (PDES) executor that
//!   runs them, one worker thread per shard, bit-identical to the
//!   sequential loop;
//! * [`trace`] — the event log experiments are reconstructed from;
//! * [`span`] — per-message journey reconstruction from correlation ids,
//!   and the trace's per-migration lifecycle spans (the §6 phase
//!   profiler, stitched by `demos_obs::recorder`);
//! * [`flight`] — [`TraceEvent`](demos_kernel::TraceEvent) → flight
//!   recorder encoding (the always-on post-mortem ring, `demos-obs`);
//! * [`coverage`] — schedule-coverage feature extraction from the trace
//!   and recovery episodes (the chaos fuzzer's feedback signal);
//! * [`export`] — cluster snapshots, the JSON-lines exporter and the
//!   `demos-top` report (via `demos-obs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A match over an enum names its variants, so a new variant is a compile
// error at every handler instead of a silent fall-through (D003).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod balance;
pub mod boot;
pub mod cluster;
pub mod coverage;
mod evindex;
pub mod export;
pub mod flight;
pub mod partition;
pub mod programs;
pub mod recovery;
mod residency;
pub mod shard;
pub mod span;
pub mod trace;

pub use balance::{snapshot, PolicyDriver};
pub use boot::{boot_system, BootConfig, SystemHandles};
pub use cluster::{Cluster, ClusterBuilder, StepStats};
pub use coverage::{coverage_of, features_of_trace};
pub use demos_obs::Histogram;
pub use flight::DEFAULT_RECORDER_CAPACITY;
pub use partition::ShardPlan;
pub use recovery::{RecoveryConfig, RecoveryEpisode, RecoveryManager, RecoveryStats};
pub use shard::ShardStats;
pub use span::{latency_histogram, migration_spans_of, spans_of, Hop, HopKind, Span};
pub use trace::Trace;

/// Convenience re-exports for harnesses and examples.
pub mod prelude {
    pub use crate::balance::{snapshot, PolicyDriver};
    pub use crate::boot::{boot_system, spawn_fs_clients, spawn_shell, BootConfig, SystemHandles};
    pub use crate::cluster::{Cluster, ClusterBuilder, StepStats};
    pub use crate::partition::ShardPlan;
    pub use crate::programs::{self, wl};
    pub use crate::recovery::{RecoveryConfig, RecoveryEpisode, RecoveryStats};
    pub use crate::trace::Trace;
    pub use demos_core::{AcceptPolicy, MigrationConfig, Node};
    pub use demos_kernel::{
        ExecStatus, ImageLayout, KernelConfig, MigrationPhase, Registry, TraceEvent,
    };
    pub use demos_net::{EdgeParams, Topology};
    pub use demos_obs::Histogram;
    pub use demos_types::{tags, Duration, Link, LinkAttrs, MachineId, ProcessId, Time};
}
