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

use std::collections::BTreeMap;

use demos_kernel::{MigrationPhase, TraceEvent};
use demos_obs::{DeliveryEvent, DeliveryLedger, Histogram};
use demos_types::{tags, CorrId, Duration, MachineId, ProcessId, Time};

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
///   `hops` is therefore a legitimate re-home, and a synthetic
///   `Forwarded` is fed to the ledger; equal hops means the kernel
///   really delivered the same message twice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerFold {
    ledger: DeliveryLedger,
    /// Hop count of each message's latest `Enqueued` (re-home detection).
    last_hops: BTreeMap<CorrId, u8>,
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
                    let rehomed = self.last_hops.get(&corr).is_some_and(|&h| hops > h);
                    if rehomed {
                        self.ledger.record(corr, DeliveryEvent::Forwarded);
                    }
                    self.last_hops.insert(corr, hops);
                    DeliveryEvent::Delivered
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

// ---------------------------------------------------------------------
// Migration lifecycle spans (the §6 phase profiler)
// ---------------------------------------------------------------------

/// How a migration lifecycle ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Step 8 reached: the process restarted at the destination.
    Completed,
    /// The destination refused the offer (§3.2).
    Rejected,
    /// Abandoned mid-protocol (timeout, crash); resumed at the source.
    Aborted,
    /// The trace ended before the protocol did.
    InFlight,
}

/// One migration of one process, stitched from its
/// [`MigrationPhase`] trace events — §3.1's eight steps plus the
/// §4 residual: how long the forwarding address kept fielding traffic
/// after the process had left.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationSpan {
    /// The migrating process.
    pub pid: ProcessId,
    /// Machine that froze it (from the `Frozen` record).
    pub src: Option<MachineId>,
    /// Machine that took it (from the destination-side records).
    pub dest: Option<MachineId>,
    /// Step 1: removed from execution.
    pub frozen: Option<Time>,
    /// Step 2: offer sent.
    pub offered: Option<Time>,
    /// Step 3: destination allocated.
    pub allocated: Option<Time>,
    /// Step 4 complete: process state arrived.
    pub state_transferred: Option<Time>,
    /// Step 5 complete: image arrived.
    pub image_transferred: Option<Time>,
    /// Step 6: pending messages forwarded.
    pub pending_forwarded: Option<Time>,
    /// Step 7: source cleaned up, forwarding address installed.
    pub cleaned_up: Option<Time>,
    /// Step 8: restarted at the destination.
    pub restarted: Option<Time>,
    /// When a rejection/abort ended the lifecycle instead.
    pub ended: Option<Time>,
    /// How the lifecycle ended.
    pub outcome: MigrationOutcome,
    /// Total size stamped on the offer (resident + swappable + image).
    pub bytes_offered: u64,
    /// State bytes received by step 4's completion.
    pub bytes_state: u64,
    /// Full transferred total stamped at step 5.
    pub bytes_total: u64,
    /// Messages that chased the forwarding address after cleanup (§4).
    pub forwards: u64,
    /// Last time the forwarding address fielded a message.
    pub last_forward: Option<Time>,
    /// When the forwarding address was garbage-collected, if observed.
    pub forwarding_collected: Option<Time>,
}

impl MigrationSpan {
    fn open(pid: ProcessId, src: MachineId, at: Time) -> Self {
        MigrationSpan {
            pid,
            src: Some(src),
            dest: None,
            frozen: Some(at),
            offered: None,
            allocated: None,
            state_transferred: None,
            image_transferred: None,
            pending_forwarded: None,
            cleaned_up: None,
            restarted: None,
            ended: None,
            outcome: MigrationOutcome::InFlight,
            bytes_offered: 0,
            bytes_state: 0,
            bytes_total: 0,
            forwards: 0,
            last_forward: None,
            forwarding_collected: None,
        }
    }

    /// Whether step 8 was reached.
    pub fn completed(&self) -> bool {
        self.outcome == MigrationOutcome::Completed
    }

    /// Steps 1–3: freeze through destination allocation (the offer
    /// negotiation, including the §3.2 policy decision).
    pub fn negotiation(&self) -> Option<Duration> {
        Some(self.allocated?.since(self.frozen?))
    }

    /// Steps 4–5: allocation through image arrival — the state-transfer
    /// window the paper's §6 table prices by image size.
    pub fn transfer(&self) -> Option<Duration> {
        Some(self.image_transferred?.since(self.allocated?))
    }

    /// Step 8: image arrival through restart (cleanup confirmation
    /// round-trip plus scheduling).
    pub fn restart(&self) -> Option<Duration> {
        Some(self.restarted?.since(self.image_transferred?))
    }

    /// The whole off-cpu window: freeze through restart.
    pub fn frozen_total(&self) -> Option<Duration> {
        Some(self.restarted?.since(self.frozen?))
    }

    /// Residual forwarding lifetime (§4): cleanup until the forwarding
    /// address was collected, or until its last observed use.
    pub fn residual(&self) -> Option<Duration> {
        let start = self.cleaned_up?;
        let end = self.forwarding_collected.or(self.last_forward)?;
        Some(end.since(start))
    }
}

/// Stitch every migration lifecycle out of the trace, in freeze order.
///
/// The kernel's `AlreadyMigrating` guard means a process has at most one
/// lifecycle open at a time, so a per-pid "open span" map is sound.
/// `Restarted` events with no open lifecycle (checkpoint restores, the
/// engine's duplicate restart marker) are ignored. Residual forwarding
/// events after step 7 are credited to the pid's most recent span.
pub fn migration_spans_of(trace: &Trace) -> Vec<MigrationSpan> {
    let mut out: Vec<MigrationSpan> = Vec::new();
    let mut open: BTreeMap<ProcessId, usize> = BTreeMap::new();
    let mut latest: BTreeMap<ProcessId, usize> = BTreeMap::new();
    for r in trace.records() {
        match &r.event {
            TraceEvent::Migration { pid, phase, bytes } => {
                if *phase == MigrationPhase::Frozen {
                    out.push(MigrationSpan::open(*pid, r.machine, r.at));
                    open.insert(*pid, out.len() - 1);
                    latest.insert(*pid, out.len() - 1);
                    continue;
                }
                let Some(&i) = open.get(pid) else { continue };
                let s = &mut out[i];
                match phase {
                    MigrationPhase::Offered => {
                        s.offered = s.offered.or(Some(r.at));
                        s.bytes_offered = s.bytes_offered.max(*bytes);
                    }
                    MigrationPhase::Allocated => {
                        s.allocated = s.allocated.or(Some(r.at));
                        s.dest = s.dest.or(Some(r.machine));
                    }
                    MigrationPhase::StateTransferred => {
                        s.state_transferred = s.state_transferred.or(Some(r.at));
                        s.bytes_state = s.bytes_state.max(*bytes);
                    }
                    MigrationPhase::ImageTransferred => {
                        s.image_transferred = s.image_transferred.or(Some(r.at));
                        s.bytes_total = s.bytes_total.max(*bytes);
                        s.dest = s.dest.or(Some(r.machine));
                    }
                    MigrationPhase::PendingForwarded => {
                        s.pending_forwarded = s.pending_forwarded.or(Some(r.at));
                    }
                    MigrationPhase::CleanedUp => {
                        s.cleaned_up = s.cleaned_up.or(Some(r.at));
                    }
                    MigrationPhase::Restarted => {
                        s.restarted = Some(r.at);
                        s.dest = s.dest.or(Some(r.machine));
                        s.outcome = MigrationOutcome::Completed;
                        open.remove(pid);
                    }
                    MigrationPhase::Rejected => {
                        s.ended = Some(r.at);
                        s.outcome = MigrationOutcome::Rejected;
                        open.remove(pid);
                    }
                    MigrationPhase::Aborted => {
                        s.ended = Some(r.at);
                        s.outcome = MigrationOutcome::Aborted;
                        open.remove(pid);
                    }
                    MigrationPhase::Frozen => {
                        // Handled above; listed so the match stays
                        // exhaustive without a catch-all.
                    }
                }
            }
            TraceEvent::ForwardedMessage { pid, .. } => {
                if let Some(&i) = latest.get(pid) {
                    let s = &mut out[i];
                    if s.cleaned_up.is_some_and(|c| r.at >= c) {
                        s.forwards += 1;
                        s.last_forward = Some(r.at);
                    }
                }
            }
            TraceEvent::ForwardingInstalled { pid, to } => {
                if let Some(&i) = latest.get(pid) {
                    let s = &mut out[i];
                    s.dest = s.dest.or(Some(*to));
                }
            }
            TraceEvent::ForwardingCollected { pid } => {
                if let Some(&i) = latest.get(pid) {
                    let s = &mut out[i];
                    s.forwarding_collected = s.forwarding_collected.or(Some(r.at));
                }
            }
            // Listed explicitly (not `_`) so a new event type must decide
            // whether it participates in migration lifecycles.
            TraceEvent::Spawned { .. }
            | TraceEvent::Exited { .. }
            | TraceEvent::Submitted { .. }
            | TraceEvent::Enqueued { .. }
            | TraceEvent::KernelReceived { .. }
            | TraceEvent::LinkUpdateSent { .. }
            | TraceEvent::LinkUpdateApplied { .. }
            | TraceEvent::NonDeliverable { .. }
            | TraceEvent::MoveDataDone { .. }
            | TraceEvent::Log { .. } => {}
        }
    }
    out
}

/// Per-phase duration histograms over a set of migration spans — the §6
/// cost table's raw material. All values are microseconds except
/// `bytes` (total transferred bytes of completed migrations).
#[derive(Debug, Clone, Default)]
pub struct PhaseHistograms {
    /// Freeze → allocation.
    pub negotiation: Histogram,
    /// Allocation → image arrival.
    pub transfer: Histogram,
    /// Image arrival → restart.
    pub restart: Histogram,
    /// Freeze → restart.
    pub total: Histogram,
    /// Residual forwarding lifetimes (spans that forwarded anything or
    /// were collected).
    pub residual: Histogram,
    /// Transferred byte totals.
    pub bytes: Histogram,
}

/// Aggregate spans into per-phase histograms (completed lifecycles feed
/// the duration rows; residuals feed from any span that has one).
pub fn phase_histograms<'a>(spans: impl IntoIterator<Item = &'a MigrationSpan>) -> PhaseHistograms {
    let mut h = PhaseHistograms::default();
    for s in spans {
        if let Some(d) = s.negotiation() {
            h.negotiation.record_duration(d);
        }
        if let Some(d) = s.transfer() {
            h.transfer.record_duration(d);
        }
        if let Some(d) = s.restart() {
            h.restart.record_duration(d);
        }
        if let Some(d) = s.frozen_total() {
            h.total.record_duration(d);
        }
        if let Some(d) = s.residual() {
            h.residual.record_duration(d);
        }
        if s.completed() && s.bytes_total > 0 {
            h.bytes.record(s.bytes_total);
        }
    }
    h
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

    fn mig(p: ProcessId, ph: MigrationPhase, bytes: u64) -> TraceEvent {
        TraceEvent::Migration {
            pid: p,
            phase: ph,
            bytes,
        }
    }

    /// Hand-built trace: pid 1 completes a full eight-step migration with
    /// residual forwarding afterwards; pid 2 is rejected; pid 1's second
    /// attempt aborts.
    fn migration_trace() -> Trace {
        let mut tr = Trace::enabled();
        let (p1, p2) = (pid(1), pid(2));
        tr.extend(t(10), MachineId(0), [mig(p1, MigrationPhase::Frozen, 0)]);
        tr.extend(t(12), MachineId(0), [mig(p1, MigrationPhase::Offered, 900)]);
        tr.extend(t(14), MachineId(0), [mig(p2, MigrationPhase::Frozen, 0)]);
        tr.extend(t(16), MachineId(0), [mig(p2, MigrationPhase::Offered, 300)]);
        tr.extend(t(20), MachineId(1), [mig(p1, MigrationPhase::Allocated, 0)]);
        tr.extend(t(22), MachineId(1), [mig(p2, MigrationPhase::Rejected, 0)]);
        tr.extend(
            t(40),
            MachineId(1),
            [mig(p1, MigrationPhase::StateTransferred, 400)],
        );
        tr.extend(
            t(55),
            MachineId(1),
            [mig(p1, MigrationPhase::ImageTransferred, 900)],
        );
        tr.extend(
            t(60),
            MachineId(0),
            [mig(p1, MigrationPhase::PendingForwarded, 0)],
        );
        tr.extend(
            t(61),
            MachineId(0),
            [
                mig(p1, MigrationPhase::CleanedUp, 0),
                TraceEvent::ForwardingInstalled {
                    pid: p1,
                    to: MachineId(1),
                },
            ],
        );
        tr.extend(t(70), MachineId(1), [mig(p1, MigrationPhase::Restarted, 0)]);
        // Residual traffic chases the forwarding address.
        tr.extend(
            t(80),
            MachineId(0),
            [TraceEvent::ForwardedMessage {
                corr: CorrId::new(MachineId(0), 5),
                pid: p1,
                to: MachineId(1),
                msg_type: 42,
            }],
        );
        tr.extend(
            t(95),
            MachineId(0),
            [TraceEvent::ForwardedMessage {
                corr: CorrId::new(MachineId(0), 6),
                pid: p1,
                to: MachineId(1),
                msg_type: 42,
            }],
        );
        tr.extend(
            t(120),
            MachineId(0),
            [TraceEvent::ForwardingCollected { pid: p1 }],
        );
        // A second attempt by p1 that gets abandoned.
        tr.extend(t(200), MachineId(1), [mig(p1, MigrationPhase::Frozen, 0)]);
        tr.extend(
            t(202),
            MachineId(1),
            [mig(p1, MigrationPhase::Offered, 900)],
        );
        tr.extend(t(260), MachineId(1), [mig(p1, MigrationPhase::Aborted, 0)]);
        tr
    }

    #[test]
    fn migration_spans_golden() {
        let spans = migration_spans_of(&migration_trace());
        assert_eq!(spans.len(), 3, "two p1 attempts + one p2 attempt");

        let done = &spans[0];
        assert_eq!(done.pid, pid(1));
        assert_eq!(done.outcome, MigrationOutcome::Completed);
        assert_eq!(done.src, Some(MachineId(0)));
        assert_eq!(done.dest, Some(MachineId(1)));
        assert_eq!(done.bytes_offered, 900);
        assert_eq!(done.bytes_state, 400);
        assert_eq!(done.bytes_total, 900);
        assert_eq!(done.negotiation(), Some(Duration::from_micros(10)));
        assert_eq!(done.transfer(), Some(Duration::from_micros(35)));
        assert_eq!(done.restart(), Some(Duration::from_micros(15)));
        assert_eq!(done.frozen_total(), Some(Duration::from_micros(60)));
        assert_eq!(done.forwards, 2, "both residual messages credited");
        assert_eq!(done.residual(), Some(Duration::from_micros(59)));

        let rejected = &spans[1];
        assert_eq!(rejected.pid, pid(2));
        assert_eq!(rejected.outcome, MigrationOutcome::Rejected);
        assert_eq!(rejected.ended, Some(t(22)));
        assert_eq!(rejected.negotiation(), None);
        assert_eq!(rejected.frozen_total(), None);

        let aborted = &spans[2];
        assert_eq!(aborted.pid, pid(1));
        assert_eq!(aborted.outcome, MigrationOutcome::Aborted);
        assert_eq!(aborted.ended, Some(t(260)));
        assert_eq!(aborted.forwards, 0, "earlier residuals stay on span 1");
    }

    #[test]
    fn duplicate_restarted_events_are_ignored() {
        // The engine emits Restarted on both the kernel and engine paths;
        // checkpoint restores add more. Only an open lifecycle absorbs one.
        let mut tr = Trace::enabled();
        tr.extend(
            t(5),
            MachineId(1),
            [mig(pid(1), MigrationPhase::Restarted, 0)],
        );
        tr.extend(
            t(10),
            MachineId(0),
            [mig(pid(1), MigrationPhase::Frozen, 0)],
        );
        tr.extend(
            t(30),
            MachineId(1),
            [mig(pid(1), MigrationPhase::Restarted, 0)],
        );
        tr.extend(
            t(31),
            MachineId(1),
            [mig(pid(1), MigrationPhase::Restarted, 0)],
        );
        let spans = migration_spans_of(&tr);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].restarted, Some(t(30)));
        assert_eq!(spans[0].outcome, MigrationOutcome::Completed);
    }

    #[test]
    fn phase_histograms_aggregate_completed_spans() {
        let spans = migration_spans_of(&migration_trace());
        let h = phase_histograms(&spans);
        assert_eq!(h.total.count(), 1);
        assert_eq!(h.negotiation.count(), 1);
        assert_eq!(h.transfer.count(), 1);
        assert_eq!(h.restart.count(), 1);
        assert_eq!(h.residual.count(), 1);
        assert_eq!(h.bytes.count(), 1);
        assert_eq!(h.total.max(), 60);
        assert_eq!(h.bytes.max(), 900);
    }
}
