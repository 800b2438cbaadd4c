//! The benchmark's one wall-clock read.
//!
//! Host time is this crate's measurand, but the repository's `demos-lint`
//! treats every `Instant::now()` outside `crates/bench` as rule D002, and
//! its scope table is not this crate's to change. So every timestamp in
//! the benchmark comes from [`now_ns`], which carries the single
//! justified exemption.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds of host time since the first call in this process.
// lint:allow(D002 host time is what the benchmark measures; this is its only wall-clock read and nothing it returns reaches simulated state)
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two [`now_ns`] readings.
pub fn secs_between(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}
