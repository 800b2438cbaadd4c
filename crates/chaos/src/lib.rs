//! Deterministic chaos harness for the DEMOS/MP reproduction.
//!
//! The paper's central claim is that migration is *transparent*: messages
//! are delivered exactly once and links converge to the process's true
//! location no matter when a move happens (§3–§4). This crate checks that
//! claim adversarially instead of anecdotally:
//!
//! * [`scenario`] — a single `u64` seed derives a whole scenario: random
//!   topology (mesh/line/ring/star with per-edge latency, bandwidth and
//!   loss), a random workload mix, and a random schedule interleaving
//!   migrations, partitions, crashes, CPU degradations and message
//!   bursts — plus a stable text form for corpus files and repros;
//! * [`invariants`] — continuous checkers run between every virtual-time
//!   quantum: exactly-once delivery, forwarding-chain acyclicity,
//!   process-state conservation, transport-counter sanity, and (at
//!   quiescence) link convergence and workload counter reconciliation;
//! * [`exec`] — the schedule executor tying the two together;
//! * [`coverage`] — schedule-coverage features of one run (protocol
//!   edges, fault×phase pairs, forwarding depth, recovery overlap,
//!   violation variants): the fuzzer's feedback signal;
//! * [`mutate`] — operators that edit a scenario's stable form (retime,
//!   reorder, splice, insert from the fault alphabet, …);
//! * [`pool`] — the corpus pool of clean feature-novel scenarios, its
//!   gain-weighted selector and its greedy set-cover distiller;
//! * [`campaign`] — the coverage-guided parallel driver: rounds of
//!   deterministically derived candidate batches, executed across
//!   threads, folded in order — byte-identical for any `--jobs`;
//! * [`shrink`] — a greedy ddmin-style reducer that minimizes a violating
//!   schedule while the violation still reproduces;
//! * [`repro`] — emits the minimized scenario as corpus text, a
//!   self-contained Rust test, and the JSON-lines trace.
//!
//! The `chaos` binary (`cargo run --release -p demos-chaos`) drives both
//! blind seed sweeps and guided campaigns; see `--help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod coverage;
pub mod exec;
pub mod invariants;
pub mod mutate;
pub mod pool;
pub mod repro;
pub mod scenario;
pub mod shrink;

pub use campaign::{campaign, CampaignConfig, CampaignReport, FoundBug, Generator};
pub use exec::{
    run, run_capture, run_cluster, run_full, run_with_coverage, trace_json_lines, RunConfig,
    RunReport, BURST_TAG,
};
pub use invariants::{Checker, Violation};
pub use mutate::mutate;
pub use pool::{Pool, PoolEntry};
pub use repro::{rust_snippet, write_artifacts, Artifacts};
pub use scenario::{Event, EventKind, Scenario, TopoKind, TopoSpec, Workload};
pub use shrink::{shrink, ShrinkResult};
