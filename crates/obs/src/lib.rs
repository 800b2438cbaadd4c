//! Observability layer: snapshots, exporters, histograms and the flight
//! recorder.
//!
//! The paper's evaluation (§6) is a cost accounting exercise — messages,
//! bytes, forwarding hops, link-update traffic. The counters themselves
//! live in the kernel's stats structs, bumped where the action happens;
//! this crate is what reads them out: typed per-machine
//! [`MachineSnapshot`]s merged into cluster-wide [`ClusterSnapshot`]s,
//! exported as JSON lines ([`json`]) or a human-readable `demos-top`-style
//! [`report`], plus latency [`Histogram`]s and the always-on
//! [`FlightRecorder`].
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
pub mod report;
pub mod snapshot;

pub use corrset::{DeliveryEvent, DeliveryLedger};
pub use features::FeatureSet;
pub use hist::Histogram;
pub use recorder::{FlightRecorder, MigrationOutcome, MigrationSpan, NodeDump, PhaseTable, Record};
pub use snapshot::{ClusterSnapshot, MachineSnapshot};
