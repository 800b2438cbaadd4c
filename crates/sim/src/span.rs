//! Span reconstruction: from the flat event [`Trace`] to per-message
//! journeys.
//!
//! Every message is stamped with a [`CorrId`] by the first kernel that
//! sees it, and the id rides along through retransmission, forwarding
//! (§4), pending-queue resubmission (§3.1 step 6) and the §5 link-update
//! by-product. Grouping trace events by that id therefore recovers each
//! message's complete causal journey — which machines touched it, in what
//! order, and how much virtual time each hop took — without any parsing
//! of wire bytes.
//!
//! Migration lifecycles ([`migration_spans_of`]) are not stitched here:
//! the trace is encoded as flight records and handed to the one
//! lifecycle fold in `demos_obs::recorder`, which the recorder's phase
//! table and `demos-trace` read too.

use std::collections::BTreeMap;

use demos_kernel::TraceEvent;
use demos_obs::recorder::{migration_spans, Record};
use demos_obs::{DeliveryEvent, DeliveryLedger, Histogram, MigrationSpan};
use demos_types::{tags, CorrId, Duration, MachineId, ProcessId, Time};

use crate::flight::encode;
use crate::trace::Trace;

/// What happened to a message at one point of its journey.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// Stamped and entered the delivery system.
    Submitted,
    /// Hit a forwarding address; resubmitted towards `to` (§4).
    Forwarded {
        /// Machine the forwarding address pointed to.
        to: MachineId,
    },
    /// Placed on the destination process's message queue.
    Enqueued,
    /// Received by the kernel (`DELIVERTOKERNEL`).
    KernelReceived,
    /// Dropped as non-deliverable.
    NonDeliverable,
}

/// One observed step of a message's journey.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Virtual time of the event.
    pub at: Time,
    /// Machine whose kernel observed it.
    pub machine: MachineId,
    /// What happened.
    pub kind: HopKind,
}

/// One message's reconstructed journey.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The correlation id tying the hops together.
    pub corr: CorrId,
    /// Destination process (from the first event carrying one).
    pub dest: ProcessId,
    /// Message type tag.
    pub msg_type: u16,
    /// Every observed hop, in trace (= virtual time) order.
    pub hops: Vec<Hop>,
    /// §5 link-update messages this journey triggered (annotation; the
    /// update inherits the chased message's id).
    pub link_updates_sent: usize,
    /// Links rewritten when those updates were applied.
    pub links_patched: usize,
}

impl Span {
    /// When the message was stamped, if its submission was traced.
    pub fn submitted_at(&self) -> Option<Time> {
        self.hops
            .iter()
            .find(|h| h.kind == HopKind::Submitted)
            .map(|h| h.at)
    }

    /// When (and where) the message finally reached a process queue or
    /// the kernel. A held-then-forwarded message is enqueued more than
    /// once; delivery is the *last* such event.
    pub fn delivered(&self) -> Option<Hop> {
        self.hops
            .iter()
            .rev()
            .find(|h| matches!(h.kind, HopKind::Enqueued | HopKind::KernelReceived))
            .copied()
    }

    /// Forwarding hops the journey took (§4 chains can stack several).
    pub fn forward_hops(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| matches!(h.kind, HopKind::Forwarded { .. }))
            .count()
    }

    /// Whether the message ended non-deliverable.
    pub fn failed(&self) -> bool {
        self.hops.iter().any(|h| h.kind == HopKind::NonDeliverable)
    }

    /// End-to-end virtual-time latency: submission to final delivery.
    pub fn latency(&self) -> Option<Duration> {
        let start = self.submitted_at()?;
        let end = self.delivered()?.at;
        Some(Duration::from_micros(
            end.as_micros().saturating_sub(start.as_micros()),
        ))
    }

    /// Virtual time between consecutive hops, in order; `hops.len() - 1`
    /// entries. Per-hop cost of a forwarding chain.
    pub fn hop_latencies(&self) -> Vec<Duration> {
        self.hops
            .windows(2)
            .map(|w| Duration::from_micros(w[1].at.as_micros().saturating_sub(w[0].at.as_micros())))
            .collect()
    }
}

fn hop_of(event: &TraceEvent) -> Option<HopKind> {
    match *event {
        TraceEvent::Submitted { .. } => Some(HopKind::Submitted),
        TraceEvent::Enqueued { .. } => Some(HopKind::Enqueued),
        TraceEvent::KernelReceived { .. } => Some(HopKind::KernelReceived),
        TraceEvent::ForwardedMessage { to, .. } => Some(HopKind::Forwarded { to }),
        TraceEvent::NonDeliverable { .. } => Some(HopKind::NonDeliverable),
        // Listed explicitly (not `_`) so a new event type must decide
        // whether it is a hop in a message's journey.
        TraceEvent::Spawned { .. }
        | TraceEvent::Exited { .. }
        | TraceEvent::LinkUpdateSent { .. }
        | TraceEvent::LinkUpdateApplied { .. }
        | TraceEvent::Migration { .. }
        | TraceEvent::ForwardingInstalled { .. }
        | TraceEvent::ForwardingCollected { .. }
        | TraceEvent::MoveDataDone { .. }
        | TraceEvent::Log { .. } => None,
    }
}

/// Reconstruct every traced message journey, keyed and ordered by
/// correlation id. Events without a correlation id (locally synthesized
/// timer ticks, pre-observability traces) are skipped.
pub fn spans_of(trace: &Trace) -> Vec<Span> {
    let mut spans: BTreeMap<CorrId, Span> = BTreeMap::new();
    for r in trace.records() {
        let Some(corr) = r.event.corr() else { continue };
        let span = spans.entry(corr).or_insert_with(|| Span {
            corr,
            dest: ProcessId {
                creating_machine: MachineId(0),
                local_uid: 0,
            },
            msg_type: 0,
            hops: Vec::new(),
            link_updates_sent: 0,
            links_patched: 0,
        });
        match &r.event {
            TraceEvent::Submitted { dest, msg_type, .. } => {
                span.dest = *dest;
                span.msg_type = *msg_type;
            }
            TraceEvent::Enqueued { pid, msg_type, .. }
            | TraceEvent::KernelReceived { pid, msg_type, .. }
            | TraceEvent::ForwardedMessage { pid, msg_type, .. }
            | TraceEvent::NonDeliverable { pid, msg_type, .. }
                if span.hops.is_empty() =>
            {
                span.dest = *pid;
                span.msg_type = *msg_type;
            }
            TraceEvent::LinkUpdateSent { .. } => span.link_updates_sent += 1,
            TraceEvent::LinkUpdateApplied { patched, .. } => span.links_patched += patched,
            // Later hops: dest/msg_type were already fixed by the first one.
            TraceEvent::Enqueued { .. }
            | TraceEvent::KernelReceived { .. }
            | TraceEvent::ForwardedMessage { .. }
            | TraceEvent::NonDeliverable { .. } => {}
            // Listed explicitly (not `_`) so a new corr-carrying event
            // cannot silently contribute nothing to its span.
            TraceEvent::Spawned { .. }
            | TraceEvent::Exited { .. }
            | TraceEvent::Migration { .. }
            | TraceEvent::ForwardingInstalled { .. }
            | TraceEvent::ForwardingCollected { .. }
            | TraceEvent::MoveDataDone { .. }
            | TraceEvent::Log { .. } => {}
        }
        if let Some(kind) = hop_of(&r.event) {
            span.hops.push(Hop {
                at: r.at,
                machine: r.machine,
                kind,
            });
        }
    }
    spans.into_values().collect()
}

/// The [`DeliveryLedger`] of a trace as a **resumable fold**: it keeps a
/// cursor into the trace, and [`advance`](LedgerFold::advance) folds only
/// the records appended since the last call. A consumer that looks at
/// the ledger of a growing trace again and again (the chaos checker, at
/// every quantum) therefore reads each record once. The fold lives in
/// that consumer, not in [`Trace`] or the cluster: a run that never asks
/// for a ledger pays nothing for one.
///
/// The ledger covers **user-plane** messages
/// (`msg_type >= tags::USER_BASE`) — the messages the paper's
/// transparency claim is about. Kernel control traffic (migration
/// protocol, link maintenance, timers) has hold / re-deliver semantics of
/// its own and is excluded.
///
/// Two subtleties make a naive "one `Enqueued` per journey" rule wrong:
///
/// * §4 forwarding re-enqueues the message at the next hop — the trace
///   carries an explicit [`TraceEvent::ForwardedMessage`] between the
///   deliveries, which the ledger uses to reset its duplicate counter;
/// * §3.1 step 6 re-homes messages pending on a frozen process's queue
///   *silently* (no per-message forward event), but increments the
///   message's hop count. A second `Enqueued` with strictly greater
///   `hops` is therefore a legitimate re-home; equal hops means the
///   kernel really delivered the same message twice. The ledger keeps
///   each id's last hop count beside its other state
///   ([`DeliveryEvent::Enqueued`]), so a record costs one map lookup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerFold {
    ledger: DeliveryLedger,
    /// Records of the trace already folded.
    cursor: usize,
}

impl LedgerFold {
    /// A fold advanced over all of `trace`.
    pub fn of(trace: &Trace) -> LedgerFold {
        let mut fold = LedgerFold::default();
        fold.advance(trace);
        fold
    }

    /// The ledger of every record folded so far.
    pub fn ledger(&self) -> &DeliveryLedger {
        &self.ledger
    }

    /// Fold the records `trace` gained since the last call. The trace
    /// must be the one the earlier calls saw, only longer; one that is
    /// *shorter* than the cursor was cleared ([`Trace::clear`]) in
    /// between, and the fold starts over on what it holds now.
    pub fn advance(&mut self, trace: &Trace) {
        let records = trace.records();
        if records.len() < self.cursor {
            *self = LedgerFold::default();
        }
        for r in &records[self.cursor..] {
            let Some(corr) = r.event.corr() else { continue };
            let ev = match r.event {
                TraceEvent::Submitted { msg_type, .. } if msg_type >= tags::USER_BASE => {
                    DeliveryEvent::Submitted
                }
                TraceEvent::Enqueued { msg_type, hops, .. } if msg_type >= tags::USER_BASE => {
                    DeliveryEvent::Enqueued { hops }
                }
                TraceEvent::KernelReceived { msg_type, .. } if msg_type >= tags::USER_BASE => {
                    DeliveryEvent::Delivered
                }
                TraceEvent::ForwardedMessage { msg_type, .. } if msg_type >= tags::USER_BASE => {
                    DeliveryEvent::Forwarded
                }
                TraceEvent::NonDeliverable { msg_type, .. } if msg_type >= tags::USER_BASE => {
                    DeliveryEvent::Failed
                }
                // Kernel-internal message types (guards above failed): not part
                // of the user-visible delivery ledger.
                TraceEvent::Submitted { .. }
                | TraceEvent::Enqueued { .. }
                | TraceEvent::KernelReceived { .. }
                | TraceEvent::ForwardedMessage { .. }
                | TraceEvent::NonDeliverable { .. } => continue,
                // Listed explicitly (not `_`) so a new corr-carrying event must
                // decide how it affects delivery accounting.
                TraceEvent::Spawned { .. }
                | TraceEvent::Exited { .. }
                | TraceEvent::LinkUpdateSent { .. }
                | TraceEvent::LinkUpdateApplied { .. }
                | TraceEvent::Migration { .. }
                | TraceEvent::ForwardingInstalled { .. }
                | TraceEvent::ForwardingCollected { .. }
                | TraceEvent::MoveDataDone { .. }
                | TraceEvent::Log { .. } => continue,
            };
            self.ledger.record(corr, ev);
        }
        self.cursor = records.len();
    }
}

/// Reduce the whole trace to its [`DeliveryLedger`]: one
/// [`LedgerFold::advance`] on a fresh fold.
pub fn ledger_of(trace: &Trace) -> DeliveryLedger {
    LedgerFold::of(trace).ledger
}

/// Histogram of end-to-end delivery latencies over `spans` (delivered
/// journeys only), in microseconds.
pub fn latency_histogram<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Histogram {
    let mut h = Histogram::new();
    for s in spans {
        if let Some(l) = s.latency() {
            h.record_duration(l);
        }
    }
    h
}

/// Every migration lifecycle in the trace, in freeze order: the whole
/// trace encoded record by record, in trace order, and stitched by the
/// one lifecycle fold, [`demos_obs::recorder::migration_spans`].
pub fn migration_spans_of(trace: &Trace) -> Vec<MigrationSpan> {
    let records: Vec<Record> = trace
        .records()
        .iter()
        .map(|r| encode(r.at, r.machine, &r.event))
        .collect();
    migration_spans(&records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(uid: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(0),
            local_uid: uid,
        }
    }

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// Hand-built trace: message 1 is submitted on m0, forwarded on m1,
    /// delivered on m2; message 2 dies non-deliverable.
    fn sample_trace() -> Trace {
        let c1 = CorrId::new(MachineId(0), 1);
        let c2 = CorrId::new(MachineId(0), 2);
        let mut tr = Trace::enabled();
        tr.extend(
            t(0),
            MachineId(0),
            [TraceEvent::Submitted {
                corr: c1,
                dest: pid(7),
                msg_type: 42,
            }],
        );
        tr.extend(
            t(150),
            MachineId(1),
            [
                TraceEvent::ForwardedMessage {
                    corr: c1,
                    pid: pid(7),
                    to: MachineId(2),
                    msg_type: 42,
                },
                TraceEvent::LinkUpdateSent {
                    corr: c1,
                    sender: pid(3),
                    migrated: pid(7),
                    new_machine: MachineId(2),
                },
            ],
        );
        tr.extend(
            t(400),
            MachineId(2),
            [TraceEvent::Enqueued {
                corr: c1,
                pid: pid(7),
                msg_type: 42,
                forwarded: true,
                hops: 1,
            }],
        );
        tr.extend(
            t(500),
            MachineId(0),
            [
                TraceEvent::LinkUpdateApplied {
                    corr: c1,
                    sender: pid(3),
                    migrated: pid(7),
                    patched: 2,
                },
                TraceEvent::Submitted {
                    corr: c2,
                    dest: pid(9),
                    msg_type: 42,
                },
                TraceEvent::NonDeliverable {
                    corr: c2,
                    pid: pid(9),
                    msg_type: 42,
                },
            ],
        );
        tr
    }

    #[test]
    fn reconstructs_forwarded_journey() {
        let spans = spans_of(&sample_trace());
        assert_eq!(spans.len(), 2);
        let s = &spans[0];
        assert_eq!(s.corr, CorrId::new(MachineId(0), 1));
        assert_eq!(s.dest, pid(7));
        assert_eq!(s.forward_hops(), 1);
        assert!(!s.failed());
        assert_eq!(s.delivered().unwrap().machine, MachineId(2));
        assert_eq!(s.latency(), Some(Duration::from_micros(400)));
        assert_eq!(
            s.hop_latencies(),
            vec![Duration::from_micros(150), Duration::from_micros(250)]
        );
        assert_eq!(s.link_updates_sent, 1);
        assert_eq!(s.links_patched, 2);
    }

    #[test]
    fn nondeliverable_journey_is_failed_and_unlatencied() {
        let spans = spans_of(&sample_trace());
        let s = &spans[1];
        assert!(s.failed());
        assert!(s.delivered().is_none());
        assert!(s.latency().is_none());
    }

    #[test]
    fn histogram_counts_only_delivered() {
        let spans = spans_of(&sample_trace());
        let h = latency_histogram(&spans);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 400);
    }
}
