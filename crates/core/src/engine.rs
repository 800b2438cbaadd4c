//! The migration engine: the eight-step protocol of §3.1.
//!
//! One engine instance runs beside each kernel. The *source* side freezes
//! the process, offers it, serves the destination's state pulls (done by
//! the kernel's move-data machinery), then forwards pending messages and
//! leaves the forwarding address. The *destination* side — which "controls
//! the next part of the migration, up to the forwarding of messages"
//! (§3.1 step 2) — reserves resources, pulls the three state blobs
//! (resident, swappable, image: the three data moves of §6), installs the
//! process, and restarts it after the source confirms cleanup.
//!
//! The administrative messages are exactly the nine of DESIGN.md:
//! `MigrateRequest` (a `DELIVERTOKERNEL` control op), `Offer`,
//! `Accept`/`Reject`, three `ReadReq`s, `TransferComplete`, `CleanupDone`
//! and `Done`.
//!
//! Autonomy (§3.2) enters through [`AcceptPolicy`]: "the destination
//! machine may simply refuse to accept any migrations not fitting its
//! criteria". Timeouts abort half-done migrations and thaw the process at
//! the source, so a crashed destination cannot wedge a process forever.
//!
//! # Two roles, explicit state
//!
//! A **destination** record (`incoming`, keyed by source machine and the
//! source's context) is in one `DestPhase`: `Pulling(Resident)` →
//! `Pulling(Swappable)` → `Pulling(Image)` → `Installed`. Only the
//! completion of the outstanding pull advances it, and only an `Installed`
//! record can commit.
//!
//! A **source** record (`outgoing`, keyed by the context minted here) has
//! no phase beyond existing, from the freeze until it settles. After the
//! offer the destination drives: its pulls are served by the kernel
//! without consulting the engine, so the first pull — not `Accept`, which
//! stays on the wire as message #3 and is handled by an empty arm — is the
//! source's go-ahead, and nothing here would read a flag that recorded it.
//!
//! # Every ending, once
//!
//! A message acts only on the record that its context, its sender and
//! (where it carries one) its pid all name; "names no live record" and
//! "wrong phase" are written-out cases that change nothing. A record
//! leaves its map through exactly one of: `finish_outgoing` (steps 6–7),
//! `fail_outgoing` (one of the four `SourceFail` causes), `restart` (the
//! commit, step 8) or `fail_incoming`. DESIGN.md §2 tabulates what each
//! cause traces, whom it tells and the `Done.status` it reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use demos_kernel::{Kernel, MigrationPhase, Outbox, TraceEvent};
use demos_net::Phys;
use demos_types::proto::{AreaSel, KernelOp, MigrateMsg, RejectReason};
use demos_types::wire::Wire;
use demos_types::{tags, DemosError, Duration, Link, MachineId, Message, ProcessId, Result, Time};

/// Destination-side acceptance policy (§3.2).
#[derive(Clone, Copy, Debug)]
pub enum AcceptPolicy {
    /// Accept whenever capacity allows (the paper's trusting kernels).
    Always,
    /// Refuse all incoming migrations (a closed administrative domain).
    Never,
    /// Custom predicate over the offer, e.g. a suspicious domain's
    /// admission filter.
    Custom(fn(&OfferInfo) -> bool),
}

/// What a destination sees when deciding on an offer.
#[derive(Clone, Copy, Debug)]
pub struct OfferInfo {
    /// The process being offered.
    pub pid: ProcessId,
    /// Source machine.
    pub src: MachineId,
    /// The deciding (destination) machine — lets one policy function
    /// implement per-domain criteria (§3.2).
    pub dest: MachineId,
    /// Resident-state bytes.
    pub resident_len: u16,
    /// Swappable-state bytes.
    pub swappable_len: u16,
    /// Image bytes.
    pub image_len: u32,
}

/// Engine tuning.
#[derive(Clone, Copy, Debug)]
pub struct MigrationConfig {
    /// Destination acceptance policy.
    pub accept: AcceptPolicy,
    /// Abort an in-flight migration after this long without completion.
    pub timeout: Duration,
    /// After an outgoing migration aborts mid-transfer, re-offer the
    /// process to an alternate destination at most this many times
    /// (0 disables retries). Candidates come from
    /// [`MigrationEngine::set_peers`].
    pub retries: u32,
    /// Delay before the first retry; doubles per attempt (bounded
    /// exponential backoff).
    pub retry_backoff: Duration,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_secs(30),
            retries: 0,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// Counters for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Migrations initiated at this machine (as source).
    pub started: u64,
    /// Migrations completed with this machine as source.
    pub completed_out: u64,
    /// Migrations completed with this machine as destination.
    pub completed_in: u64,
    /// Offers rejected by this machine.
    pub rejected: u64,
    /// Migrations aborted (timeout or failure), either side.
    pub aborted: u64,
    /// Outgoing offers rejected by the peer, by reason:
    /// `[Capacity, Policy, DuplicatePid, Protocol]` in wire-tag order.
    pub rejected_by_reason: [u64; 4],
    /// Pending messages forwarded during step 6 here.
    pub pending_forwarded: u64,
    /// Total state+image bytes received by this machine as destination.
    pub bytes_received: u64,
    /// Virtual time spent by completed incoming migrations, summed
    /// (freeze-to-restart is measured by the harness from traces; this is
    /// offer-to-restart at the destination).
    pub total_in_duration: Duration,
    /// Aborted outgoing migrations re-offered to an alternate destination.
    pub retried: u64,
}

/// The three data moves of §6, in the order the destination pulls them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Resident,
    Swappable,
    Image,
}

/// Where an incoming migration stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DestPhase {
    /// The pull of this stage is outstanding; nothing is installed yet.
    Pulling(Stage),
    /// The process is installed and held (`in_migration`) until the source
    /// confirms cleanup. From here a failure must destroy the copy.
    Installed,
}

/// Source-side record of an outgoing migration, keyed by its context.
#[derive(Debug)]
struct SourceMig {
    pid: ProcessId,
    dest: MachineId,
    started: Time,
    /// Reply link from the `MigrateRequest`, forwarded inside the offer so
    /// the destination can send `Done` (message #9).
    reply: Option<Link>,
}

/// Destination-side record of an incoming migration, keyed by
/// `(source machine, source's context)`.
#[derive(Debug)]
struct DestMig {
    pid: ProcessId,
    slot: u16,
    started: Time,
    reply: Option<Link>,
    phase: DestPhase,
    resident: Vec<u8>,
    swappable: Vec<u8>,
    /// Sizes the offer announced for the two pulls still to start. Each
    /// sizes its reassembly buffer: `image_len` is what
    /// `reserve_incoming` admitted, the state records are 16-bit on the
    /// wire.
    swappable_len: u16,
    image_len: u32,
    received: u64,
}

type DestKey = (MachineId, u16);

/// Why an outgoing migration failed. One row each of the source table in
/// DESIGN.md §2; [`MigrationEngine::fail_outgoing`] is the only reader.
#[derive(Clone, Copy, Debug)]
enum SourceFail {
    /// The destination refused the offer.
    Rejected(RejectReason),
    /// The destination gave up mid-transfer and said so.
    PeerAborted,
    /// No completion within `cfg.timeout`.
    TimedOut,
    /// The destination was confirmed dead, or rebooted.
    PeerDead,
}

impl SourceFail {
    /// `Done.status` for the requester when no retry takes over.
    fn status(self) -> u8 {
        match self {
            SourceFail::Rejected(reason) => 1 + reason as u8,
            SourceFail::PeerAborted => 200,
            SourceFail::TimedOut => 201,
            SourceFail::PeerDead => 203,
        }
    }

    /// The record traced after the thaw's own `Aborted`. The second
    /// `Aborted` of peer death and the two empty rows are pinned by every
    /// committed fingerprint: carried as data, not fixed here.
    fn extra_trace(self) -> Option<MigrationPhase> {
        match self {
            SourceFail::Rejected(_) => Some(MigrationPhase::Rejected),
            SourceFail::PeerAborted | SourceFail::TimedOut => None,
            SourceFail::PeerDead => Some(MigrationPhase::Aborted),
        }
    }

    /// Whether the destination may still hold a record that only an
    /// `Abort` from here will settle before its own timeout.
    fn tells_dest(self) -> bool {
        match self {
            SourceFail::TimedOut => true,
            SourceFail::Rejected(_) | SourceFail::PeerAborted | SourceFail::PeerDead => false,
        }
    }
}

/// Retry bookkeeping for one process whose outgoing migration aborted.
#[derive(Debug)]
struct Retry {
    /// Retries already launched for this process.
    attempts: u32,
    /// A scheduled re-offer: fire time, alternate destination, reply link.
    pending: Option<(Time, MachineId, Option<Link>)>,
}

/// The per-machine migration engine.
#[derive(Debug)]
pub struct MigrationEngine {
    machine: MachineId,
    cfg: MigrationConfig,
    next_ctx: u16,
    outgoing: BTreeMap<u16, SourceMig>,
    incoming: BTreeMap<DestKey, DestMig>,
    /// Alternate-destination candidates for retries (set by the harness;
    /// one list shared by every engine of a cluster).
    peers: Option<Arc<[MachineId]>>,
    /// Aborted outgoing migrations awaiting (or between) re-offers.
    retries: BTreeMap<ProcessId, Retry>,
    stats: MigrationStats,
}

/// Cookie layout for kernel pulls: src machine ≪ 32 | ctx ≪ 8 | stage.
fn cookie((src, ctx): DestKey, stage: Stage) -> u64 {
    ((src.0 as u64) << 32)
        | ((ctx as u64) << 8)
        | match stage {
            Stage::Resident => 0,
            Stage::Swappable => 1,
            Stage::Image => 2,
        }
}

fn uncookie(c: u64) -> (DestKey, Stage) {
    let stage = match c & 0xff {
        0 => Stage::Resident,
        1 => Stage::Swappable,
        _ => Stage::Image,
    };
    let key = (MachineId((c >> 32) as u16), ((c >> 8) & 0xffff) as u16);
    (key, stage)
}

/// One entry into the engine: the instant, and the kernel, wire and outbox
/// the handlers act through. Every message, notification, trace record and
/// pull the engine emits goes through one of its four methods.
struct Cx<'a> {
    now: Time,
    kernel: &'a mut Kernel,
    phys: &'a mut dyn Phys,
    out: &'a mut Outbox,
}

impl<'a> Cx<'a> {
    fn new(now: Time, kernel: &'a mut Kernel, phys: &'a mut dyn Phys, out: &'a mut Outbox) -> Self {
        Cx {
            now,
            kernel,
            phys,
            out,
        }
    }

    fn trace(&mut self, pid: ProcessId, phase: MigrationPhase, bytes: u64) {
        self.out
            .trace
            .push(TraceEvent::Migration { pid, phase, bytes });
    }

    /// Send a protocol message to `to`'s engine; `link` rides along (the
    /// offer carries the requester's reply link).
    fn send(&mut self, to: MachineId, msg: MigrateMsg, link: Option<Link>) {
        let links = link.into_iter().collect();
        self.kernel
            .send_migrate_msg(self.now, to, msg.to_bytes(), links, self.phys, self.out);
    }

    /// Message #9: tell the requester, if there is one, how the migration
    /// of `pid` to `dest` ended (`status` as mapped in DESIGN.md §2).
    fn notify(&mut self, reply: Option<Link>, pid: ProcessId, dest: MachineId, status: u8) {
        if let Some(r) = reply {
            let done = MigrateMsg::Done { pid, dest, status }.to_bytes();
            self.kernel
                .send_kernel_to(self.now, r, tags::MIGRATE, done, self.phys, self.out);
        }
    }

    /// Start the `stage` pull of `pid` for the incoming record `key`.
    fn pull(&mut self, key: DestKey, pid: ProcessId, stage: Stage, len: u32) {
        let sel = match stage {
            Stage::Resident => AreaSel::Resident,
            Stage::Swappable => AreaSel::Swappable,
            Stage::Image => AreaSel::Image,
        };
        let c = cookie(key, stage);
        self.kernel
            .start_kernel_pull(self.now, c, pid, key.0, sel, len, self.phys, self.out);
    }
}

impl MigrationEngine {
    /// New engine for `machine`.
    pub fn new(machine: MachineId, cfg: MigrationConfig) -> Self {
        MigrationEngine {
            machine,
            cfg,
            next_ctx: 1,
            outgoing: BTreeMap::new(),
            incoming: BTreeMap::new(),
            peers: None,
            retries: BTreeMap::new(),
            stats: MigrationStats::default(),
        }
    }

    /// Provide the set of machines usable as alternate destinations when
    /// an aborted migration is retried (self and the failed destination
    /// are skipped automatically). The list is shared, not copied: a
    /// cluster hands every engine a clone of one `Arc`, so an engine's
    /// size does not grow with the number of machines.
    pub fn set_peers(&mut self, peers: Arc<[MachineId]>) {
        self.peers = Some(peers);
    }

    /// Counters.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// The alternate destination for a retry: the next candidate after
    /// `failed` in cyclic peer order, never self; falls back to `failed`
    /// itself when no other candidate exists.
    fn alternate_dest(&self, failed: MachineId) -> MachineId {
        let cands: Vec<MachineId> = self
            .peers
            .as_deref()
            .unwrap_or_default()
            .iter()
            .copied()
            .filter(|&p| p != self.machine)
            .collect();
        match cands.iter().position(|&p| p == failed) {
            Some(i) if cands.len() > 1 => cands[(i + 1) % cands.len()],
            Some(_) => failed,
            None => cands.first().copied().unwrap_or(failed),
        }
    }

    /// An outgoing migration of `pid` to `dest` aborted: schedule a
    /// bounded backoff re-offer to an alternate destination, if the
    /// configured retry budget allows. Returns whether a retry was
    /// scheduled (in which case the requester is not yet notified of
    /// failure — it will hear `Done` from whichever attempt settles it).
    fn schedule_retry(
        &mut self,
        now: Time,
        pid: ProcessId,
        dest: MachineId,
        reply: Option<Link>,
    ) -> bool {
        if self.cfg.retries == 0 {
            return false;
        }
        let attempts = self.retries.get(&pid).map_or(0, |r| r.attempts);
        if attempts >= self.cfg.retries {
            self.retries.remove(&pid);
            return false;
        }
        let delay = self.cfg.retry_backoff.saturating_mul(1 << attempts.min(16));
        let alt = self.alternate_dest(dest);
        self.retries.insert(
            pid,
            Retry {
                attempts,
                pending: Some((now + delay, alt, reply)),
            },
        );
        true
    }

    /// Migrations currently in flight on either side.
    pub fn in_flight(&self) -> usize {
        self.outgoing.len() + self.incoming.len()
    }

    /// Begin migrating local process `pid` to `dest` (steps 1–2). The
    /// optional `reply` link receives the `Done` notification (#9).
    #[allow(clippy::too_many_arguments)]
    pub fn start_migration(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        pid: ProcessId,
        dest: MachineId,
        reply: Option<Link>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Result<()> {
        let cx = &mut Cx::new(now, kernel, phys, out);
        self.start(cx, pid, dest, reply)
    }

    fn start(
        &mut self,
        cx: &mut Cx<'_>,
        pid: ProcessId,
        dest: MachineId,
        reply: Option<Link>,
    ) -> Result<()> {
        if dest == self.machine {
            return Err(DemosError::MigrationToSelf(pid));
        }
        if self.outgoing.values().any(|m| m.pid == pid) {
            return Err(DemosError::AlreadyMigrating(pid));
        }
        // Step 1: freeze. Refuses unknown pids and double migrations.
        let sizes = cx
            .kernel
            .freeze_for_migration(cx.now, pid, cx.phys, cx.out)?;
        // The counter wraps and a record can outlive 65 535 later offers
        // (a reject/retry storm under a long timeout): skip the contexts
        // still live — overwriting one leaves its process frozen forever.
        // One record per local process at most, so the scan is short.
        while self.outgoing.contains_key(&self.next_ctx) {
            self.next_ctx = self.next_ctx.wrapping_add(1).max(1);
        }
        let ctx = self.next_ctx;
        self.next_ctx = ctx.wrapping_add(1).max(1);
        let started = cx.now;
        self.outgoing.insert(
            ctx,
            SourceMig {
                pid,
                dest,
                started,
                reply,
            },
        );
        self.stats.started += 1;
        // Step 2: offer, carrying the reply link so the destination can
        // notify the requester directly (links are context-independent).
        let offer = MigrateMsg::Offer {
            ctx,
            pid,
            resident_len: sizes.resident.min(u16::MAX as u32) as u16,
            swappable_len: sizes.swappable.min(u16::MAX as u32) as u16,
            image_len: sizes.image,
        };
        cx.send(dest, offer, reply);
        let bytes = sizes.resident as u64 + sizes.swappable as u64 + sizes.image as u64;
        cx.trace(pid, MigrationPhase::Offered, bytes);
        Ok(())
    }

    /// Whether `ctx`, sent by `from` (about `pid`, when the message names
    /// one), names a live outgoing record. Contexts are per-source
    /// counters: a stale message from another machine, or one whose own
    /// migration already settled here, must not hit an unrelated record
    /// that reused the number.
    fn names_outgoing(&self, ctx: u16, from: MachineId, pid: Option<ProcessId>) -> bool {
        self.outgoing
            .get(&ctx)
            .is_some_and(|m| m.dest == from && pid.is_none_or(|p| p == m.pid))
    }

    /// The phase of the incoming record `key` names, if it is live (and is
    /// about `pid`, when the message names one).
    fn incoming_phase(&self, key: DestKey, pid: Option<ProcessId>) -> Option<DestPhase> {
        let mig = self.incoming.get(&key)?;
        pid.is_none_or(|p| p == mig.pid).then_some(mig.phase)
    }

    /// Feed one message from the kernel's migration inbox (both the
    /// kernel-to-kernel `MIGRATE` protocol and `MigrateRequest` control
    /// ops). Anything else, and anything that does not decode, is dropped.
    pub fn handle(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        msg: Message,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let cx = &mut Cx::new(now, kernel, phys, out);
        let from = msg.header.src_machine;
        let reply = msg.links.first().copied();
        let m = match msg.header.msg_type {
            tags::MIGRATE => MigrateMsg::from_bytes(&msg.payload),
            tags::KERNEL_OP => {
                if let Ok(KernelOp::MigrateRequest { dest, .. }) =
                    KernelOp::from_bytes(&msg.payload)
                {
                    let pid = msg.header.dest.pid;
                    if let Err(e) = self.start(cx, pid, dest, reply) {
                        cx.notify(reply, pid, dest, reject_status(&e));
                    }
                }
                return;
            }
            _ => return,
        };
        let Ok(m) = m else {
            return;
        };
        match m {
            MigrateMsg::Offer {
                ctx,
                pid,
                resident_len,
                swappable_len,
                image_len,
            } => {
                let info = OfferInfo {
                    pid,
                    src: from,
                    dest: self.machine,
                    resident_len,
                    swappable_len,
                    image_len,
                };
                self.on_offer(cx, ctx, info, reply);
            }
            // Message #3 is an acknowledgement only: the source's go-ahead
            // is the first pull, which the kernel's move-data machinery
            // serves without consulting the engine.
            MigrateMsg::Accept { .. } => {}
            MigrateMsg::Reject { ctx, pid, reason } => {
                if self.names_outgoing(ctx, from, Some(pid)) {
                    self.fail_outgoing(cx, ctx, SourceFail::Rejected(reason));
                }
            }
            MigrateMsg::TransferComplete { ctx, .. } => {
                if self.names_outgoing(ctx, from, None) {
                    self.finish_outgoing(cx, ctx);
                }
            }
            MigrateMsg::CleanupDone { ctx, .. } => {
                let key = (from, ctx);
                match self.incoming_phase(key, None) {
                    // Step 8 at the destination.
                    Some(DestPhase::Installed) => self.restart(cx, key, false),
                    // Nothing is installed, so the source cannot have
                    // cleaned anything up: a protocol violation. Dropping
                    // the record alone would strand its reservation.
                    Some(DestPhase::Pulling(_)) => self.fail_incoming(cx, key, true),
                    None => {}
                }
            }
            // Either side abandoning. The incoming record is tried first;
            // with crossing migrations both may carry the same number, and
            // `pid` (with the sender) tells them apart.
            MigrateMsg::Abort { ctx, pid } => {
                if self.incoming_phase((from, ctx), Some(pid)).is_some() {
                    self.fail_incoming(cx, (from, ctx), false);
                } else if self.names_outgoing(ctx, from, Some(pid)) {
                    self.fail_outgoing(cx, ctx, SourceFail::PeerAborted);
                }
            }
            // Addressed to the requesting process, not the engine.
            MigrateMsg::Done { .. } => {}
        }
    }

    /// The one way an outgoing migration fails: thaw the process, book a
    /// retry or tell the requester. The order — count, thaw (which traces
    /// `Aborted`), the cause's own trace, its `Abort`, then `Done` — is
    /// part of every fingerprint: each send also traces a `Submitted`.
    fn fail_outgoing(&mut self, cx: &mut Cx<'_>, ctx: u16, why: SourceFail) {
        let Some(mig) = self.outgoing.remove(&ctx) else {
            return;
        };
        self.stats.aborted += 1;
        if let SourceFail::Rejected(reason) = why {
            self.stats.rejected_by_reason[match reason {
                RejectReason::Capacity => 0,
                RejectReason::Policy => 1,
                RejectReason::DuplicatePid => 2,
                RejectReason::Protocol => 3,
            }] += 1;
        }
        let retried = self.schedule_retry(cx.now, mig.pid, mig.dest, mig.reply);
        cx.kernel.unfreeze(mig.pid, cx.out);
        if let Some(phase) = why.extra_trace() {
            cx.trace(mig.pid, phase, 0);
        }
        if why.tells_dest() {
            cx.send(mig.dest, MigrateMsg::Abort { ctx, pid: mig.pid }, None);
        }
        if !retried {
            cx.notify(mig.reply, mig.pid, mig.dest, why.status());
        }
    }

    /// Steps 6–7 at the source, on `TransferComplete`: forward the pending
    /// messages, leave the forwarding address, confirm.
    fn finish_outgoing(&mut self, cx: &mut Cx<'_>, ctx: u16) {
        let Some(mig) = self.outgoing.remove(&ctx) else {
            return;
        };
        self.retries.remove(&mig.pid);
        match cx
            .kernel
            .finish_source_side(cx.now, mig.pid, mig.dest, cx.phys, cx.out)
        {
            Ok(forwarded) => {
                self.stats.pending_forwarded += forwarded as u64;
                self.stats.completed_out += 1;
                cx.send(mig.dest, MigrateMsg::CleanupDone { ctx, forwarded }, None);
            }
            // Process vanished mid-migration (killed): tell the
            // destination to drop its copy.
            Err(_) => {
                cx.send(mig.dest, MigrateMsg::Abort { ctx, pid: mig.pid }, None);
                self.stats.aborted += 1;
            }
        }
    }

    /// The one way an incoming migration fails, whatever its phase: free
    /// the reservation (a no-op once the install consumed it), destroy an
    /// installed copy, tell the source unless it told us or is dead. The
    /// order — release, kill, count, `Abort`, trace — is pinned likewise.
    fn fail_incoming(&mut self, cx: &mut Cx<'_>, key: DestKey, tell_source: bool) {
        let Some(mig) = self.incoming.remove(&key) else {
            return;
        };
        let (src, ctx) = key;
        cx.kernel.release_reservation(mig.slot);
        if mig.phase == DestPhase::Installed {
            cx.kernel.kill(cx.now, mig.pid, cx.phys, cx.out);
        }
        self.stats.aborted += 1;
        if tell_source {
            cx.send(src, MigrateMsg::Abort { ctx, pid: mig.pid }, None);
        }
        cx.trace(mig.pid, MigrationPhase::Aborted, 0);
    }

    /// The one commit (step 8): restart the installed copy and tell the
    /// requester. `echo` repeats the kernel's `Restarted` record, as the
    /// peer-death commit always has (`sim::span`'s "duplicate restart
    /// marker"; pinned like the rows of [`SourceFail::extra_trace`]).
    fn restart(&mut self, cx: &mut Cx<'_>, key: DestKey, echo: bool) {
        let Some(mig) = self.incoming.get(&key) else {
            return;
        };
        if cx.kernel.restart_migrated(mig.pid, cx.out).is_err() {
            // The held copy is gone: there is nothing left to commit.
            return self.fail_incoming(cx, key, false);
        }
        self.stats.completed_in += 1;
        self.stats.total_in_duration += cx.now.since(mig.started);
        if echo {
            cx.trace(mig.pid, MigrationPhase::Restarted, 0);
        }
        cx.notify(mig.reply, mig.pid, self.machine, 0);
        self.incoming.remove(&key);
    }

    /// Destination side of the offer (steps 3–5 start here).
    fn on_offer(&mut self, cx: &mut Cx<'_>, ctx: u16, info: OfferInfo, reply: Option<Link>) {
        let key = (info.src, ctx);
        let policy_ok = match self.cfg.accept {
            AcceptPolicy::Always => true,
            AcceptPolicy::Never => false,
            AcceptPolicy::Custom(f) => f(&info),
        };
        let admitted = if !policy_ok {
            Err(RejectReason::Policy)
        } else if self.incoming.contains_key(&key) {
            // A re-used (source, context) pair while that context's
            // migration is still in flight is a protocol violation:
            // accepting it would overwrite the in-progress entry and leak
            // its reservation.
            Err(RejectReason::Protocol)
        } else {
            // Step 3: allocate an (empty) process state — here, a capacity
            // reservation under the same process identifier.
            cx.kernel
                .reserve_incoming(info.pid, info.image_len as u64)
                // Exhaustive: a new error variant must consciously pick
                // its reject reason (Capacity is the §5 step-3 bucket —
                // "allocate process state" failed — not a default).
                .map_err(|e| match e {
                    DemosError::AlreadyMigrating(_) => RejectReason::DuplicatePid,
                    DemosError::NoSuchMachine(_)
                    | DemosError::NoSuchProcess(_)
                    | DemosError::BadLink(_)
                    | DemosError::LinkAccess { .. }
                    | DemosError::ReplyLinkConsumed(_)
                    | DemosError::AreaOutOfBounds
                    | DemosError::MigrationRejected(_)
                    | DemosError::MigrationAborted(_)
                    | DemosError::MigrationToSelf(_)
                    | DemosError::KernelImmovable(_)
                    | DemosError::NonDeliverable(_)
                    | DemosError::TooLarge { .. }
                    | DemosError::Capacity(_)
                    | DemosError::Wire(_)
                    | DemosError::UnknownProgram(_)
                    | DemosError::Internal(_) => RejectReason::Capacity,
                })
        };
        let pid = info.pid;
        let slot = match admitted {
            Ok(slot) => slot,
            Err(reason) => {
                self.stats.rejected += 1;
                cx.send(info.src, MigrateMsg::Reject { ctx, pid, reason }, None);
                return cx.trace(pid, MigrationPhase::Rejected, 0);
            }
        };
        cx.trace(pid, MigrationPhase::Allocated, 0);
        let window = 1024;
        cx.send(info.src, MigrateMsg::Accept { ctx, slot, window }, None);
        self.incoming.insert(
            key,
            DestMig {
                pid,
                slot,
                started: cx.now,
                reply,
                phase: DestPhase::Pulling(Stage::Resident),
                resident: Vec::new(),
                swappable: Vec::new(),
                swappable_len: info.swappable_len,
                image_len: info.image_len,
                received: 0,
            },
        );
        // Step 4 begins: pull the resident state.
        cx.pull(key, pid, Stage::Resident, u32::from(info.resident_len));
    }

    /// Feed a completed kernel pull (from [`Outbox::pull_done`]).
    pub fn on_pull_done(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        done: demos_kernel::KernelPullDone,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let cx = &mut Cx::new(now, kernel, phys, out);
        let (key, stage) = uncookie(done.cookie);
        let (src, ctx) = key;
        let Some(mig) = self
            .incoming
            .get_mut(&key)
            .filter(|m| m.phase == DestPhase::Pulling(stage))
        else {
            // Names no live record, or not the pull its record is waiting
            // for (a duplicate, or a completion after the install): there
            // is nothing it could advance.
            return;
        };
        if done.status != 0 {
            return self.fail_incoming(cx, key, true);
        }
        mig.received += done.data.len() as u64;
        self.stats.bytes_received += done.data.len() as u64;
        match stage {
            Stage::Resident => {
                mig.resident = done.data;
                mig.phase = DestPhase::Pulling(Stage::Swappable);
                let len = u32::from(mig.swappable_len);
                cx.pull(key, mig.pid, Stage::Swappable, len);
            }
            Stage::Swappable => {
                mig.swappable = done.data;
                mig.phase = DestPhase::Pulling(Stage::Image);
                cx.trace(mig.pid, MigrationPhase::StateTransferred, mig.received);
                cx.pull(key, mig.pid, Stage::Image, mig.image_len);
            }
            Stage::Image => {
                // Step 5 complete: install.
                let (resident, swappable) = (
                    std::mem::take(&mut mig.resident),
                    std::mem::take(&mut mig.swappable),
                );
                let (slot, image) = (mig.slot, done.data);
                match cx
                    .kernel
                    .install_migrated(cx.now, slot, src, resident, swappable, image, cx.out)
                {
                    Ok(installed_pid) => {
                        debug_assert_eq!(installed_pid, mig.pid);
                        mig.phase = DestPhase::Installed;
                        let received = mig.received as u32;
                        cx.send(src, MigrateMsg::TransferComplete { ctx, received }, None);
                    }
                    Err(_) => self.fail_incoming(cx, key, true),
                }
            }
        }
    }

    /// A peer machine was confirmed dead by the failure detector: resolve
    /// every in-flight migration touching it now instead of letting the
    /// timeout guess.
    ///
    /// An **installed** incoming copy is committed locally — the dead
    /// source can no longer send `CleanupDone` or `Abort`, and whichever
    /// point of the handshake it died at, its own copy is gone, so the
    /// local copy is the only one (§1's "migration off a crashed
    /// processor"). Killing it on timeout instead would destroy the last
    /// copy of the process. A **partial** incoming transfer is dropped and
    /// its reservation released. An **outgoing** migration to the dead
    /// machine is aborted, the frozen source copy thawed, and the process
    /// re-offered to an alternate destination when the retry budget
    /// allows.
    ///
    /// "Its own copy is gone" assumes the verdict is true. A live source
    /// that is merely unreachable times out and thaws its copy as well:
    /// the open split-brain finding of DESIGN.md §7.
    pub fn on_peer_dead(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        peer: MachineId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let cx = &mut Cx::new(now, kernel, phys, out);
        let incoming: Vec<(DestKey, DestPhase)> = self
            .incoming
            .iter()
            .filter(|(&(src, _), _)| src == peer)
            .map(|(&key, m)| (key, m.phase))
            .collect();
        for (key, phase) in incoming {
            match phase {
                DestPhase::Installed => self.restart(cx, key, true),
                DestPhase::Pulling(_) => self.fail_incoming(cx, key, false),
            }
        }
        let outgoing: Vec<u16> = self
            .outgoing
            .iter()
            .filter(|(_, m)| m.dest == peer)
            .map(|(&c, _)| c)
            .collect();
        for ctx in outgoing {
            self.fail_outgoing(cx, ctx, SourceFail::PeerDead);
        }
    }

    /// Earliest in-flight migration deadline or scheduled retry, for the
    /// simulation loop.
    pub fn next_timeout(&self) -> Option<Time> {
        let o = self
            .outgoing
            .values()
            .map(|m| m.started + self.cfg.timeout)
            .min();
        let i = self
            .incoming
            .values()
            .map(|m| m.started + self.cfg.timeout)
            .min();
        let r = self
            .retries
            .values()
            .filter_map(|r| r.pending.map(|(t, _, _)| t))
            .min();
        [o, i, r].into_iter().flatten().min()
    }

    /// Abort migrations that exceeded the timeout (crashed peers), then
    /// fire the retries that are due.
    pub fn on_time(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let cx = &mut Cx::new(now, kernel, phys, out);
        let timeout = self.cfg.timeout;
        let stale_out: Vec<u16> = self
            .outgoing
            .iter()
            .filter(|(_, m)| now.since(m.started) >= timeout)
            .map(|(&c, _)| c)
            .collect();
        for ctx in stale_out {
            self.fail_outgoing(cx, ctx, SourceFail::TimedOut);
        }
        let stale_in: Vec<DestKey> = self
            .incoming
            .iter()
            .filter(|(_, m)| now.since(m.started) >= timeout)
            .map(|(&k, _)| k)
            .collect();
        for key in stale_in {
            self.fail_incoming(cx, key, true);
        }
        // Fire scheduled retries: re-offer each aborted process to its
        // alternate destination (bounded by `cfg.retries`).
        let due: Vec<(ProcessId, MachineId, Option<Link>)> = self
            .retries
            .iter()
            .filter_map(|(&pid, r)| {
                r.pending
                    .filter(|&(t, _, _)| t <= now)
                    .map(|(_, dest, reply)| (pid, dest, reply))
            })
            .collect();
        for (pid, dest, reply) in due {
            let Some(entry) = self.retries.get_mut(&pid) else {
                continue;
            };
            entry.pending = None;
            entry.attempts += 1;
            self.stats.retried += 1;
            if self.start(cx, pid, dest, reply).is_err() {
                // The process is gone (killed) or already moving again:
                // give up on this retry chain.
                self.retries.remove(&pid);
                cx.notify(reply, pid, dest, 202);
            }
        }
    }
}

fn reject_status(e: &DemosError) -> u8 {
    // Exhaustive: a new error variant must consciously pick its status
    // byte (199 is the generic bucket, chosen per-variant, not by default).
    match e {
        DemosError::MigrationToSelf(_) => 100,
        DemosError::AlreadyMigrating(_) => 101,
        DemosError::NoSuchProcess(_) => 102,
        DemosError::KernelImmovable(_) => 103,
        DemosError::NoSuchMachine(_)
        | DemosError::BadLink(_)
        | DemosError::LinkAccess { .. }
        | DemosError::ReplyLinkConsumed(_)
        | DemosError::AreaOutOfBounds
        | DemosError::MigrationRejected(_)
        | DemosError::MigrationAborted(_)
        | DemosError::NonDeliverable(_)
        | DemosError::TooLarge { .. }
        | DemosError::Capacity(_)
        | DemosError::Wire(_)
        | DemosError::UnknownProgram(_)
        | DemosError::Internal(_) => 199,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cookie_roundtrip() {
        for (m, c, s) in [
            (MachineId(0), 1u16, Stage::Resident),
            (MachineId(7), 0xffff, Stage::Swappable),
            (MachineId(u16::MAX), 42, Stage::Image),
        ] {
            assert_eq!(uncookie(cookie((m, c), s)), ((m, c), s));
        }
    }

    struct Sink;
    impl Phys for Sink {
        fn transmit(&mut self, _: Time, _: MachineId, _: MachineId, _: demos_net::Frame) {}
    }

    struct Inert;
    impl demos_kernel::Program for Inert {
        fn on_message(&mut self, _: &mut demos_kernel::Ctx<'_>, _: demos_kernel::Delivered) {}
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    /// The context counter wraps after 65 535 offers; a record still live
    /// from the previous lap must keep its context. Overwriting it left
    /// its process frozen forever, with no record for the timeout to find.
    #[test]
    fn a_wrapped_context_counter_skips_a_live_record() {
        let mut registry = demos_kernel::Registry::new();
        registry.register("inert", |_| Box::new(Inert));
        let here = MachineId(0);
        let mut kernel = Kernel::new(here, Default::default(), registry.into_shared());
        let cfg = MigrationConfig::default();
        let mut engine = MigrationEngine::new(here, cfg);
        let (mut phys, mut out) = (Sink, Outbox::default());
        let mut spawn = |kernel: &mut Kernel| {
            kernel
                .spawn(
                    Time::ZERO,
                    "inert",
                    &[],
                    Default::default(),
                    false,
                    &mut out,
                )
                .unwrap()
        };
        let (a, b) = (spawn(&mut kernel), spawn(&mut kernel));
        let mut out = Outbox::default();
        for pid in [a, b] {
            // One lap later the counter stands where `a` took its context.
            engine.next_ctx = u16::MAX;
            engine
                .start_migration(
                    Time::ZERO,
                    &mut kernel,
                    pid,
                    MachineId(1),
                    None,
                    &mut phys,
                    &mut out,
                )
                .unwrap();
        }
        assert_eq!(engine.in_flight(), 2, "both records are live");
        engine.on_time(Time::ZERO + cfg.timeout, &mut kernel, &mut phys, &mut out);
        assert_eq!(engine.in_flight(), 0);
        for pid in [a, b] {
            let thawed = kernel.process(pid).is_some_and(|p| !p.in_migration);
            assert!(thawed, "{pid:?} thaws when its migration times out");
        }
    }

    #[test]
    fn accept_policy_custom() {
        fn only_small(info: &OfferInfo) -> bool {
            info.image_len < 1000
        }
        let p = AcceptPolicy::Custom(only_small);
        let small = OfferInfo {
            pid: ProcessId {
                creating_machine: MachineId(0),
                local_uid: 1,
            },
            src: MachineId(0),
            dest: MachineId(1),
            resident_len: 250,
            swappable_len: 600,
            image_len: 500,
        };
        let big = OfferInfo {
            image_len: 5000,
            ..small
        };
        match p {
            AcceptPolicy::Custom(f) => {
                assert!(f(&small));
                assert!(!f(&big));
            }
            _ => unreachable!(),
        }
    }
}
