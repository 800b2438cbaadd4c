//! Observability layer: metrics registry, time series, snapshots,
//! exporters.
//!
//! The paper's evaluation (§6) is a cost accounting exercise — messages,
//! bytes, forwarding hops, link-update traffic. This crate is the
//! measurement substrate for that accounting: a dependency-free
//! per-kernel [`MetricsRegistry`] of counters and gauges, sampled on a
//! virtual-time cadence into [`TimeSeries`], merged into cluster-wide
//! [`snapshot::ClusterSnapshot`]s, and exported as JSON lines
//! ([`json`]) or a human-readable `demos-top`-style [`report`].
//!
//! Only `demos-types` is a dependency, so every layer of the system —
//! net, kernel, sim, bench — can feed it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrset;
pub mod features;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod series;
pub mod snapshot;

pub use corrset::{DeliveryEvent, DeliveryLedger};
pub use features::FeatureSet;
pub use hist::Histogram;
pub use recorder::{FlightRecorder, MigrationOutcome, MigrationSpan, NodeDump, PhaseTable, Record};
pub use registry::MetricsRegistry;
pub use series::{SeriesStore, TimeSeries};
pub use snapshot::{ClusterSnapshot, MachineSnapshot};
