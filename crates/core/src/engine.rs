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
//! # Ownership is a state
//!
//! Every record names who holds its process ([`Ownership`], read by
//! [`MigrationEngine::ownership`]), and one function per side moves it:
//! `source_step` and `dest_step`, each one exhaustive `match (state,
//! event)` that yields the next state or how the record settled. The entry
//! points only decode an input and route it to the record its context, its
//! sender and (where carried) its pid all name; an input that names no
//! live record changes nothing.
//!
//! | source record (keyed by the context minted here) | `Accept` | `TransferComplete` | `Reject` · `Abort` · timeout · peer dead |
//! |---|---|---|---|
//! | `Offered`: frozen here; the only runnable copy | stays: the kernel serves the pulls, and the first is the go-ahead | steps 6–7 | thaws ([`SourceFail`]) |
//!
//! | destination record (keyed by source and its context) | its pull completes | it fails | `CleanupDone` | `Abort` | timeout | source dead |
//! |---|---|---|---|---|---|---|
//! | `Pulling(stage)`: nothing installed | next stage; the image installs → `Installed` | fails, tells | fails, tells | fails | fails, tells | fails |
//! | `Installed`: a held copy here; the source's frozen copy may still exist | stays | stays | commits | fails, kills | fails, kills, tells | commits |
//!
//! A completion of another stage than the outstanding one changes nothing.
//! DESIGN.md §2 tabulates what each ending traces, whom it tells and the
//! `Done.status` it reports.

use std::collections::BTreeMap;

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
    /// A failed outgoing migration thaws its process and tells the
    /// requester, so this also bounds how long a process stays frozen.
    pub timeout: Duration,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_secs(30),
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
    /// Aborted outgoing migrations re-offered to another destination.
    /// Always 0: a failed migration is never re-offered (the requester
    /// hears `Done` and may ask again). Still reported as `core.retried`.
    pub retried: u64,
}

/// The three data moves of §6, in the order the destination pulls them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The resident state record.
    Resident,
    /// The swappable state record.
    Swappable,
    /// Code, data and stack.
    Image,
}

/// Who holds a process while its migration is in flight, as one machine's
/// engine sees it ([`MigrationEngine::ownership`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ownership {
    /// Source: frozen here and offered. This is the only runnable copy.
    Offered,
    /// Destination: this stage's pull is outstanding; nothing is installed.
    Pulling(Stage),
    /// Destination: a held copy is installed here; the source's frozen
    /// copy may still exist.
    Installed,
}

/// A source record's state: it has one, from the freeze until it settles.
#[derive(Clone, Copy, Debug)]
enum SourceState {
    /// Frozen here and offered; this is the only runnable copy.
    Offered,
}

/// A destination record's state.
#[derive(Debug)]
enum DestState {
    /// A pull is outstanding and nothing is installed.
    Pulling(Pull),
    /// The process is installed and held (`in_migration`) until the source
    /// confirms cleanup. From here a failure must destroy the copy.
    Installed,
}

/// The outstanding pull, carrying the blobs pulled so far and the sizes
/// the offer announced for the pulls still to start: `Resident(swappable_len,
/// image_len)`, `Swappable(resident, image_len)`, `Image(resident,
/// swappable)`. Each size is a reassembly buffer's: `image_len` is what
/// `reserve_incoming` admitted, the state records are 16-bit on the wire.
#[derive(Debug)]
enum Pull {
    Resident(u16, u32),
    Swappable(Vec<u8>, u32),
    Image(Vec<u8>, Vec<u8>),
}

impl DestState {
    fn ownership(&self) -> Ownership {
        match self {
            DestState::Pulling(Pull::Resident(..)) => Ownership::Pulling(Stage::Resident),
            DestState::Pulling(Pull::Swappable(..)) => Ownership::Pulling(Stage::Swappable),
            DestState::Pulling(Pull::Image(..)) => Ownership::Pulling(Stage::Image),
            DestState::Installed => Ownership::Installed,
        }
    }
}

/// Source-side record of an outgoing migration, keyed by its context.
#[derive(Clone, Copy, Debug)]
struct SourceMig {
    pid: ProcessId,
    dest: MachineId,
    started: Time,
    /// Reply link from the `MigrateRequest`, forwarded inside the offer so
    /// the destination can send `Done` (message #9).
    reply: Option<Link>,
    state: SourceState,
}

/// Destination-side record of an incoming migration, keyed by
/// `(source machine, source's context)`.
#[derive(Debug)]
struct DestMig {
    pid: ProcessId,
    slot: u16,
    started: Time,
    reply: Option<Link>,
    received: u64,
    state: DestState,
}

type DestKey = (MachineId, u16);

/// An input to a source record.
#[derive(Clone, Copy, Debug)]
enum SourceEvent {
    /// Message #3: an acknowledgement only.
    Accept,
    /// Message #7: the destination installed its copy.
    TransferComplete,
    /// The attempt failed, for this cause.
    Fail(SourceFail),
}

/// Why an outgoing migration failed. One row each of the source table in
/// DESIGN.md §2; `source_step` is the only reader.
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
    /// The cause's row: `Done.status` for the requester, the record
    /// traced after the thaw's own `Aborted`, and whether to send `Abort`
    /// (the destination may still hold a record that only that settles
    /// before its own timeout). The second `Aborted` of peer death and the
    /// two empty trace cells are pinned by every committed fingerprint:
    /// carried as data, not fixed here.
    fn row(self) -> (u8, Option<MigrationPhase>, bool) {
        match self {
            SourceFail::Rejected(r) => (1 + r as u8, Some(MigrationPhase::Rejected), false),
            SourceFail::PeerAborted => (200, None, false),
            SourceFail::TimedOut => (201, None, true),
            SourceFail::PeerDead => (203, Some(MigrationPhase::Aborted), false),
        }
    }
}

/// An input to a destination record.
#[derive(Debug)]
enum DestEvent {
    /// The kernel finished this stage's pull: its bytes, or `None` on failure.
    Pulled(Stage, Option<Vec<u8>>),
    /// Message #8: the source has done steps 6–7.
    CleanupDone,
    /// The source abandoned the migration.
    Abort,
    /// No completion within `cfg.timeout`.
    TimedOut,
    /// The source was confirmed dead, or rebooted.
    PeerDead,
}

/// How a destination record settles.
#[derive(Clone, Copy, Debug)]
enum DestEnd {
    /// Step 8: restart the installed copy, tell the requester. `echo`
    /// repeats the kernel's `Restarted`, as the peer-death commit always
    /// has (pinned like the trace cells of [`SourceFail::row`]).
    Commit { echo: bool },
    /// Free the reservation (a no-op once installed), destroy an installed
    /// copy, tell the source unless it told us or is dead.
    Fail { tell_source: bool },
}

/// The per-machine migration engine.
#[derive(Debug)]
pub struct MigrationEngine {
    machine: MachineId,
    cfg: MigrationConfig,
    next_ctx: u16,
    outgoing: BTreeMap<u16, SourceMig>,
    incoming: BTreeMap<DestKey, DestMig>,
    stats: MigrationStats,
}

/// Cookie layout for kernel pulls: src machine ≪ 32 | ctx ≪ 8 | stage.
fn cookie((src, ctx): DestKey, stage: Stage) -> u64 {
    ((src.0 as u64) << 32) | ((ctx as u64) << 8) | stage as u64
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
        let event = TraceEvent::Migration { pid, phase, bytes };
        self.out.trace.push(event);
    }

    /// Send a protocol message to `to`'s engine; `link` rides along (the
    /// offer carries the requester's reply link).
    fn send(&mut self, to: MachineId, msg: MigrateMsg, link: Option<Link>) {
        let links = link.into_iter().collect();
        let payload = self.out.encode_payload(&msg);
        self.kernel
            .send_migrate_msg(self.now, to, payload, links, self.phys, self.out);
    }

    /// Message #9: tell the requester, if there is one, how the migration
    /// of `pid` to `dest` ended (`status` as mapped in DESIGN.md §2).
    fn notify(&mut self, reply: Option<Link>, pid: ProcessId, dest: MachineId, status: u8) {
        if let Some(r) = reply {
            let done = self
                .out
                .encode_payload(&MigrateMsg::Done { pid, dest, status });
            self.kernel
                .send_kernel_to(self.now, r, tags::MIGRATE, done, self.phys, self.out);
        }
    }

    /// Start the `stage` pull of `pid` for the incoming record `key`.
    fn pull(&mut self, key: DestKey, pid: ProcessId, stage: Stage, len: u32) {
        let sel = [AreaSel::Resident, AreaSel::Swappable, AreaSel::Image][stage as usize];
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
            stats: MigrationStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Migrations currently in flight on either side.
    pub fn in_flight(&self) -> usize {
        self.outgoing.len() + self.incoming.len()
    }

    /// Where the migration of `pid` stands on this machine, if one is in
    /// flight here (the furthest state, should two records name it).
    pub fn ownership(&self, pid: ProcessId) -> Option<Ownership> {
        let src = self.outgoing.values().filter(|m| m.pid == pid);
        let src = src.map(|m| match m.state {
            SourceState::Offered => Ownership::Offered,
        });
        let dest = self.incoming.values().filter(|m| m.pid == pid);
        src.chain(dest.map(|m| m.state.ownership())).max()
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
        // (a storm of rejected offers under a long timeout): skip the
        // contexts still live — overwriting one leaves its process frozen
        // forever.
        // One record per local process at most, so the scan is short.
        while self.outgoing.contains_key(&self.next_ctx) {
            self.next_ctx = self.next_ctx.wrapping_add(1).max(1);
        }
        let ctx = self.next_ctx;
        self.next_ctx = ctx.wrapping_add(1).max(1);
        let mig = SourceMig {
            pid,
            dest,
            started: cx.now,
            reply,
            state: SourceState::Offered,
        };
        self.outgoing.insert(ctx, mig);
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
                        cx.notify(reply, pid, dest, refusal(&e).1);
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
            MigrateMsg::Accept { ctx, .. } if self.names_outgoing(ctx, from, None) => {
                self.source_step(cx, ctx, SourceEvent::Accept);
            }
            MigrateMsg::Reject { ctx, pid, reason }
                if self.names_outgoing(ctx, from, Some(pid)) =>
            {
                self.source_step(cx, ctx, SourceEvent::Fail(SourceFail::Rejected(reason)));
            }
            MigrateMsg::TransferComplete { ctx, .. } if self.names_outgoing(ctx, from, None) => {
                self.source_step(cx, ctx, SourceEvent::TransferComplete);
            }
            MigrateMsg::CleanupDone { ctx, .. } => {
                self.dest_step(cx, (from, ctx), DestEvent::CleanupDone);
            }
            // Either side abandoning. The incoming record is tried first;
            // with crossing migrations both may carry the same number, and
            // `pid` (with the sender) tells them apart.
            MigrateMsg::Abort { ctx, pid } => {
                let incoming = self.incoming.get(&(from, ctx));
                if incoming.is_some_and(|m| m.pid == pid) {
                    self.dest_step(cx, (from, ctx), DestEvent::Abort);
                } else if self.names_outgoing(ctx, from, Some(pid)) {
                    self.source_step(cx, ctx, SourceEvent::Fail(SourceFail::PeerAborted));
                }
            }
            // Names no live record.
            MigrateMsg::Accept { .. }
            | MigrateMsg::Reject { .. }
            | MigrateMsg::TransferComplete { .. } => {}
            // Addressed to the requesting process, not the engine.
            MigrateMsg::Done { .. } => {}
        }
    }

    /// The source side's one transition function: `ev` on the outgoing
    /// record `ctx`. The match yields the next state, or `None` once its
    /// arm has settled the record. Within an arm the order of the actions
    /// — here count, thaw (which traces `Aborted`), the cause's own trace,
    /// its `Abort`, then `Done` — is part of every fingerprint: each send
    /// also traces a `Submitted`.
    fn source_step(&mut self, cx: &mut Cx<'_>, ctx: u16, ev: SourceEvent) {
        let Some(&mig) = self.outgoing.get(&ctx) else {
            return;
        };
        let (pid, dest, reply) = (mig.pid, mig.dest, mig.reply);
        let next = match (mig.state, ev) {
            // The go-ahead is the first pull, which the kernel serves.
            (SourceState::Offered, SourceEvent::Accept) => Some(SourceState::Offered),
            // Steps 6–7: forward the pending messages, leave the
            // forwarding address, confirm.
            (SourceState::Offered, SourceEvent::TransferComplete) => {
                let finished = cx
                    .kernel
                    .finish_source_side(cx.now, pid, dest, cx.phys, cx.out);
                match finished {
                    Ok(forwarded) => {
                        self.stats.pending_forwarded += forwarded as u64;
                        self.stats.completed_out += 1;
                        cx.send(dest, MigrateMsg::CleanupDone { ctx, forwarded }, None);
                    }
                    // Process vanished mid-migration (killed): tell the
                    // destination to drop its copy.
                    Err(_) => {
                        cx.send(dest, MigrateMsg::Abort { ctx, pid }, None);
                        self.stats.aborted += 1;
                    }
                }
                None
            }
            // Thaw the process, then tell the requester.
            (SourceState::Offered, SourceEvent::Fail(why)) => {
                self.stats.aborted += 1;
                if let SourceFail::Rejected(reason) = why {
                    self.stats.rejected_by_reason[match reason {
                        RejectReason::Capacity => 0,
                        RejectReason::Policy => 1,
                        RejectReason::DuplicatePid => 2,
                        RejectReason::Protocol => 3,
                    }] += 1;
                }
                let (status, extra_trace, tells_dest) = why.row();
                cx.kernel.unfreeze(pid, cx.out);
                if let Some(phase) = extra_trace {
                    cx.trace(pid, phase, 0);
                }
                if tells_dest {
                    cx.send(dest, MigrateMsg::Abort { ctx, pid }, None);
                }
                cx.notify(reply, pid, dest, status);
                None
            }
        };
        match next {
            Some(state) => self.outgoing.insert(ctx, SourceMig { state, ..mig }),
            None => self.outgoing.remove(&ctx),
        };
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
            let reserved = cx.kernel.reserve_incoming(info.pid, info.image_len as u64);
            reserved.map_err(|e| refusal(&e).0)
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
        let mig = DestMig {
            pid,
            slot,
            started: cx.now,
            reply,
            received: 0,
            state: DestState::Pulling(Pull::Resident(info.swappable_len, info.image_len)),
        };
        self.incoming.insert(key, mig);
        // Step 4 begins: pull the resident state.
        cx.pull(key, pid, Stage::Resident, u32::from(info.resident_len));
    }

    /// The destination side's one transition function: `ev` on the
    /// incoming record `key`. The match yields the next state, or how the
    /// record settles; the tail carries a settlement out in the order
    /// every fingerprint pins — a commit restarts, counts, echoes and
    /// sends `Done`; a failure releases, kills an installed copy, counts,
    /// sends `Abort`, then traces.
    fn dest_step(&mut self, cx: &mut Cx<'_>, key: DestKey, ev: DestEvent) {
        use DestEnd::{Commit, Fail};
        use DestEvent::{Abort, CleanupDone, PeerDead, Pulled, TimedOut};
        use DestState::{Installed, Pulling};
        let Some(mig) = self.incoming.get_mut(&key) else {
            return;
        };
        let ((src, ctx), pid) = (key, mig.pid);
        let installed = matches!(mig.state, Installed);
        // `Installed` holds the place until the arm yields the next state.
        let end = match (std::mem::replace(&mut mig.state, Installed), ev) {
            // A duplicate, or a completion after the install: there is
            // nothing it could advance.
            (Installed, Pulled(..)) => Ok(Installed),
            (s @ Pulling(_), Pulled(stage, _)) if s.ownership() != Ownership::Pulling(stage) => {
                Ok(s)
            }
            (Pulling(_), Pulled(_, None)) => Err(Fail { tell_source: true }),
            (Pulling(pull), Pulled(_, Some(data))) => {
                mig.received += data.len() as u64;
                self.stats.bytes_received += data.len() as u64;
                match pull {
                    Pull::Resident(swappable_len, image_len) => {
                        cx.pull(key, pid, Stage::Swappable, u32::from(swappable_len));
                        Ok(Pulling(Pull::Swappable(data, image_len)))
                    }
                    Pull::Swappable(resident, image_len) => {
                        cx.trace(pid, MigrationPhase::StateTransferred, mig.received);
                        cx.pull(key, pid, Stage::Image, image_len);
                        Ok(Pulling(Pull::Image(resident, data)))
                    }
                    // Step 5 complete: install.
                    Pull::Image(resident, swappable) => {
                        let (now, slot) = (cx.now, mig.slot);
                        let install = cx
                            .kernel
                            .install_migrated(now, slot, src, resident, swappable, data, cx.out);
                        match install {
                            Ok(installed_pid) => {
                                debug_assert_eq!(installed_pid, pid);
                                let received = mig.received as u32;
                                cx.send(src, MigrateMsg::TransferComplete { ctx, received }, None);
                                Ok(Installed)
                            }
                            Err(_) => Err(Fail { tell_source: true }),
                        }
                    }
                }
            }
            // Step 8 at the destination.
            (Installed, CleanupDone) => Err(Commit { echo: false }),
            // Nothing is installed, so the source cannot have cleaned
            // anything up: a protocol violation. Dropping the record alone
            // would strand its reservation.
            (Pulling(_), CleanupDone) => Err(Fail { tell_source: true }),
            (Pulling(_) | Installed, Abort) => Err(Fail { tell_source: false }),
            (Pulling(_) | Installed, TimedOut) => Err(Fail { tell_source: true }),
            (Pulling(_), PeerDead) => Err(Fail { tell_source: false }),
            // The dead source can send neither `CleanupDone` nor `Abort`,
            // and its copy died with it: this one is the last (see
            // `on_peer_dead`).
            (Installed, PeerDead) => Err(Commit { echo: true }),
        };
        let tell_source = match end {
            Ok(next) => {
                mig.state = next;
                return;
            }
            Err(Commit { echo }) => {
                if cx.kernel.restart_migrated(pid, cx.out).is_ok() {
                    self.stats.completed_in += 1;
                    self.stats.total_in_duration += cx.now.since(mig.started);
                    if echo {
                        cx.trace(pid, MigrationPhase::Restarted, 0);
                    }
                    cx.notify(mig.reply, pid, self.machine, 0);
                    self.incoming.remove(&key);
                    return;
                }
                // The held copy is gone: there is nothing left to commit.
                false
            }
            Err(Fail { tell_source }) => tell_source,
        };
        cx.kernel.release_reservation(mig.slot);
        if installed {
            cx.kernel.kill(cx.now, pid, cx.phys, cx.out);
        }
        self.stats.aborted += 1;
        if tell_source {
            cx.send(src, MigrateMsg::Abort { ctx, pid }, None);
        }
        cx.trace(pid, MigrationPhase::Aborted, 0);
        self.incoming.remove(&key);
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
        let data = (done.status == 0).then_some(done.data);
        self.dest_step(cx, key, DestEvent::Pulled(stage, data));
    }

    /// A peer machine was confirmed dead by the failure detector (or
    /// rebooted): resolve every in-flight migration touching it now
    /// instead of letting the timeout guess.
    ///
    /// An `Installed` incoming copy is committed: the dead source can send
    /// neither `CleanupDone` nor `Abort`, and its own copy died with it, so
    /// this is the last copy (§1's "migration off a crashed processor");
    /// the timeout would kill it. A transfer still `Pulling` is dropped,
    /// and an outgoing migration to the dead machine thaws and tells its
    /// requester. "Its own copy died" assumes the verdict is true: a live
    /// source that is merely unreachable times out and thaws its copy as
    /// well, the open split-brain finding of DESIGN.md §7.
    pub fn on_peer_dead(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        peer: MachineId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let cx = &mut Cx::new(now, kernel, phys, out);
        let incoming = self.incoming.keys().filter(|key| key.0 == peer);
        for key in incoming.copied().collect::<Vec<_>>() {
            self.dest_step(cx, key, DestEvent::PeerDead);
        }
        let outgoing = self.outgoing.iter().filter(|(_, m)| m.dest == peer);
        for ctx in outgoing.map(|(&ctx, _)| ctx).collect::<Vec<_>>() {
            self.source_step(cx, ctx, SourceEvent::Fail(SourceFail::PeerDead));
        }
    }

    /// Earliest in-flight migration deadline, for the simulation loop.
    pub fn next_timeout(&self) -> Option<Time> {
        let o = self.outgoing.values().map(|m| m.started);
        let i = self.incoming.values().map(|m| m.started);
        o.chain(i).map(|t| t + self.cfg.timeout).min()
    }

    /// Abort migrations that exceeded the timeout (crashed peers).
    pub fn on_time(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let cx = &mut Cx::new(now, kernel, phys, out);
        let timeout = self.cfg.timeout;
        let stale = self
            .outgoing
            .iter()
            .filter(|(_, m)| now.since(m.started) >= timeout);
        for ctx in stale.map(|(&ctx, _)| ctx).collect::<Vec<_>>() {
            self.source_step(cx, ctx, SourceEvent::Fail(SourceFail::TimedOut));
        }
        let stale = self
            .incoming
            .iter()
            .filter(|(_, m)| now.since(m.started) >= timeout);
        for key in stale.map(|(&key, _)| key).collect::<Vec<_>>() {
            self.dest_step(cx, key, DestEvent::TimedOut);
        }
    }
}

/// How a refusal is reported: the `Reject` reason a destination sends when
/// it cannot reserve the process, and the `Done.status` a source sends when
/// it cannot start the migration.
fn refusal(e: &DemosError) -> (RejectReason, u8) {
    // Exhaustive: a new error variant must consciously pick both (Capacity
    // is the §5 step-3 bucket, "allocate process state" failed; 199 the
    // generic status), chosen per variant, not by default.
    match e {
        DemosError::MigrationToSelf(_) => (RejectReason::Capacity, 100),
        DemosError::AlreadyMigrating(_) => (RejectReason::DuplicatePid, 101),
        DemosError::NoSuchProcess(_) => (RejectReason::Capacity, 102),
        DemosError::KernelImmovable(_) => (RejectReason::Capacity, 103),
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
        | DemosError::Internal(_) => (RejectReason::Capacity, 199),
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
