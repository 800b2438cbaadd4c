//! The repository's benchmark: the host-time ledger.
//!
//! Seven workloads, eight end-to-end metrics, per-layer kits and
//! counters, a traced run, and an agreement check between two result
//! files. Everything is measured from outside, through the public
//! functions of the crates under `../crates`; see `README.md` for the
//! catalogue, the predictions and the frozen surface.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod alloc;
pub mod catalog;
pub mod cli;
pub mod clock;
pub mod digest;
pub mod harness;
pub mod json;
pub mod kits;
pub mod measure;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
