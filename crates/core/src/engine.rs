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

use std::collections::BTreeMap;

use demos_kernel::{Kernel, MigrationPhase, Outbox, TraceEvent};
use demos_net::Phys;
use demos_types::proto::{AreaSel, KernelOp, MigrateMsg, RejectReason};
use demos_types::wire::Wire;
use demos_types::{DemosError, Duration, Link, MachineId, Message, ProcessId, Result, Time};

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

/// Transfer stage of an incoming migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Resident,
    Swappable,
    Image,
}

/// Source-side record of an outgoing migration.
#[derive(Debug)]
struct SourceMig {
    pid: ProcessId,
    dest: MachineId,
    started: Time,
    /// Reply link from the `MigrateRequest`, forwarded inside the offer so
    /// the destination can send `Done` (message #9).
    reply: Option<Link>,
    accepted: bool,
}

/// Destination-side record of an incoming migration.
#[derive(Debug)]
struct DestMig {
    pid: ProcessId,
    src: MachineId,
    src_ctx: u16,
    slot: u16,
    started: Time,
    reply: Option<Link>,
    stage: Stage,
    resident: Vec<u8>,
    swappable: Vec<u8>,
    /// Sizes the offer announced for the two pulls still to start. Each
    /// sizes its reassembly buffer: `image_len` is what
    /// `reserve_incoming` admitted, the state records are 16-bit on the
    /// wire.
    swappable_len: u16,
    image_len: u32,
    received: u64,
    installed: bool,
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
    incoming: BTreeMap<(MachineId, u16), DestMig>,
    /// Alternate-destination candidates for retries (set by the harness).
    peers: Vec<MachineId>,
    /// Aborted outgoing migrations awaiting (or between) re-offers.
    retries: BTreeMap<ProcessId, Retry>,
    stats: MigrationStats,
}

/// Cookie layout for kernel pulls: src machine ≪ 32 | ctx ≪ 8 | stage.
fn cookie(src: MachineId, ctx: u16, stage: Stage) -> u64 {
    ((src.0 as u64) << 32)
        | ((ctx as u64) << 8)
        | match stage {
            Stage::Resident => 0,
            Stage::Swappable => 1,
            Stage::Image => 2,
        }
}

fn uncookie(c: u64) -> (MachineId, u16, Stage) {
    let stage = match c & 0xff {
        0 => Stage::Resident,
        1 => Stage::Swappable,
        _ => Stage::Image,
    };
    (
        MachineId((c >> 32) as u16),
        ((c >> 8) & 0xffff) as u16,
        stage,
    )
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
            peers: Vec::new(),
            retries: BTreeMap::new(),
            stats: MigrationStats::default(),
        }
    }

    /// Provide the set of machines usable as alternate destinations when
    /// an aborted migration is retried (self and the failed destination
    /// are skipped automatically).
    pub fn set_peers(&mut self, peers: Vec<MachineId>) {
        self.peers = peers;
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
        if dest == self.machine {
            return Err(DemosError::MigrationToSelf(pid));
        }
        if self.outgoing.values().any(|m| m.pid == pid) {
            return Err(DemosError::AlreadyMigrating(pid));
        }
        // Step 1: freeze. Refuses unknown pids and double migrations.
        let sizes = kernel.freeze_for_migration(now, pid, phys, out)?;
        let ctx = self.next_ctx;
        self.next_ctx = self.next_ctx.wrapping_add(1).max(1);
        self.outgoing.insert(
            ctx,
            SourceMig {
                pid,
                dest,
                started: now,
                reply,
                accepted: false,
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
        let links = reply.into_iter().collect();
        kernel.send_migrate_msg(now, dest, offer.to_bytes(), links, phys, out);
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Offered,
            bytes: sizes.resident as u64 + sizes.swappable as u64 + sizes.image as u64,
        });
        Ok(())
    }

    /// Feed one message from the kernel's migration inbox (both the
    /// kernel-to-kernel `MIGRATE` protocol and `MigrateRequest` control
    /// ops).
    pub fn handle(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        msg: Message,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        if msg.header.msg_type == demos_types::tags::KERNEL_OP {
            if let Ok(KernelOp::MigrateRequest { dest, .. }) = KernelOp::from_bytes(&msg.payload) {
                let pid = msg.header.dest.pid;
                let reply = msg.links.first().copied();
                if let Err(e) = self.start_migration(now, kernel, pid, dest, reply, phys, out) {
                    // Notify the requester of the failure, if possible.
                    if let Some(r) = msg.links.first() {
                        let done = MigrateMsg::Done {
                            pid,
                            dest,
                            status: reject_status(&e),
                        };
                        kernel.send_kernel_to(
                            now,
                            *r,
                            demos_types::tags::MIGRATE,
                            done.to_bytes(),
                            phys,
                            out,
                        );
                    }
                }
            }
            return;
        }
        debug_assert_eq!(msg.header.msg_type, demos_types::tags::MIGRATE);
        let Ok(m) = MigrateMsg::from_bytes(&msg.payload) else {
            return;
        };
        let from = msg.header.src_machine;
        match m {
            MigrateMsg::Offer {
                ctx,
                pid,
                resident_len,
                swappable_len,
                image_len,
            } => {
                let reply = msg.links.first().copied();
                let dest = self.machine;
                self.on_offer(
                    now,
                    kernel,
                    from,
                    ctx,
                    OfferInfo {
                        pid,
                        src: from,
                        dest,
                        resident_len,
                        swappable_len,
                        image_len,
                    },
                    reply,
                    phys,
                    out,
                );
            }
            MigrateMsg::Accept { ctx, .. } => {
                // Guard on the sender: contexts are per-source counters, so
                // a stale Accept from another machine could otherwise hit an
                // unrelated outgoing migration that reused the number.
                if let Some(mig) = self.outgoing.get_mut(&ctx).filter(|m| m.dest == from) {
                    mig.accepted = true;
                }
            }
            MigrateMsg::Reject { ctx, pid, reason } => {
                let matches = self
                    .outgoing
                    .get(&ctx)
                    .is_some_and(|m| m.dest == from && m.pid == pid);
                if matches {
                    let Some(mig) = self.outgoing.remove(&ctx) else {
                        return;
                    };
                    self.stats.aborted += 1;
                    self.stats.rejected_by_reason[match reason {
                        RejectReason::Capacity => 0,
                        RejectReason::Policy => 1,
                        RejectReason::DuplicatePid => 2,
                        RejectReason::Protocol => 3,
                    }] += 1;
                    let retried = self.schedule_retry(now, mig.pid, mig.dest, mig.reply);
                    kernel.unfreeze(mig.pid, out);
                    out.trace.push(TraceEvent::Migration {
                        pid: mig.pid,
                        phase: MigrationPhase::Rejected,
                        bytes: 0,
                    });
                    if let Some(r) = mig.reply.filter(|_| !retried) {
                        let done = MigrateMsg::Done {
                            pid: mig.pid,
                            dest: mig.dest,
                            status: 1 + reason as u8,
                        };
                        kernel.send_kernel_to(
                            now,
                            r,
                            demos_types::tags::MIGRATE,
                            done.to_bytes(),
                            phys,
                            out,
                        );
                    }
                }
            }
            MigrateMsg::TransferComplete { ctx, .. } => {
                // Steps 6–7 at the source. Guarded on the sender so a
                // context number reused by another machine cannot complete
                // an unrelated migration.
                if self.outgoing.get(&ctx).is_some_and(|m| m.dest == from) {
                    let Some(mig) = self.outgoing.remove(&ctx) else {
                        return;
                    };
                    match kernel.finish_source_side(now, mig.pid, mig.dest, phys, out) {
                        Ok(forwarded) => {
                            self.stats.pending_forwarded += forwarded as u64;
                            self.stats.completed_out += 1;
                            self.retries.remove(&mig.pid);
                            let cleanup = MigrateMsg::CleanupDone { ctx, forwarded };
                            kernel.send_migrate_msg(
                                now,
                                mig.dest,
                                cleanup.to_bytes(),
                                vec![],
                                phys,
                                out,
                            );
                        }
                        Err(_) => {
                            // Process vanished mid-migration (killed):
                            // tell the destination to drop its copy.
                            let abort = MigrateMsg::Abort { ctx, pid: mig.pid };
                            kernel.send_migrate_msg(
                                now,
                                mig.dest,
                                abort.to_bytes(),
                                vec![],
                                phys,
                                out,
                            );
                            self.stats.aborted += 1;
                            self.retries.remove(&mig.pid);
                        }
                    }
                }
            }
            MigrateMsg::CleanupDone { ctx, .. } => {
                // Step 8 at the destination.
                if let Some(mig) = self.incoming.remove(&(from, ctx)) {
                    if kernel.restart_migrated(mig.pid, out).is_ok() {
                        self.stats.completed_in += 1;
                        self.stats.total_in_duration += now.since(mig.started);
                        if let Some(r) = mig.reply {
                            let done = MigrateMsg::Done {
                                pid: mig.pid,
                                dest: self.machine,
                                status: 0,
                            };
                            kernel.send_kernel_to(
                                now,
                                r,
                                demos_types::tags::MIGRATE,
                                done.to_bytes(),
                                phys,
                                out,
                            );
                        }
                    }
                }
            }
            MigrateMsg::Abort { ctx, pid } => {
                // Source told us (destination) to abandon; or destination
                // told us (source) it failed mid-transfer. Each abort must
                // hit exactly the migration it names: contexts are per-
                // source counters, so both branches also match on pid (and
                // the outgoing branch on the sending machine) — otherwise a
                // crossing Abort whose own record already timed out locally
                // would remove an unrelated migration that reused the
                // context number, double-counting `aborted`.
                let incoming_match = self
                    .incoming
                    .get(&(from, ctx))
                    .is_some_and(|m| m.pid == pid);
                let outgoing_match = self
                    .outgoing
                    .get(&ctx)
                    .is_some_and(|m| m.dest == from && m.pid == pid);
                if incoming_match {
                    let Some(mig) = self.incoming.remove(&(from, ctx)) else {
                        return;
                    };
                    kernel.release_reservation(mig.slot);
                    if mig.installed {
                        kernel.kill(now, mig.pid, phys, out);
                    }
                    self.stats.aborted += 1;
                    out.trace.push(TraceEvent::Migration {
                        pid,
                        phase: MigrationPhase::Aborted,
                        bytes: 0,
                    });
                } else if outgoing_match {
                    let Some(mig) = self.outgoing.remove(&ctx) else {
                        return;
                    };
                    kernel.unfreeze(mig.pid, out);
                    self.stats.aborted += 1;
                    let retried = self.schedule_retry(now, mig.pid, mig.dest, mig.reply);
                    if let Some(r) = mig.reply.filter(|_| !retried) {
                        let done = MigrateMsg::Done {
                            pid: mig.pid,
                            dest: mig.dest,
                            status: 200,
                        };
                        kernel.send_kernel_to(
                            now,
                            r,
                            demos_types::tags::MIGRATE,
                            done.to_bytes(),
                            phys,
                            out,
                        );
                    }
                }
            }
            MigrateMsg::Done { .. } => {
                // Addressed to the requesting process, not the engine.
            }
        }
    }

    /// Destination side of the offer (steps 3–5 start here).
    #[allow(clippy::too_many_arguments)]
    fn on_offer(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        from: MachineId,
        src_ctx: u16,
        info: OfferInfo,
        reply: Option<Link>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let policy_ok = match self.cfg.accept {
            AcceptPolicy::Always => true,
            AcceptPolicy::Never => false,
            AcceptPolicy::Custom(f) => f(&info),
        };
        if !policy_ok {
            self.reject_offer(
                now,
                kernel,
                from,
                src_ctx,
                info.pid,
                RejectReason::Policy,
                phys,
                out,
            );
            return;
        }
        // A re-used (source, context) pair while that context's migration
        // is still in flight is a protocol violation: accepting it would
        // overwrite the in-progress entry and leak its reservation.
        if self.incoming.contains_key(&(from, src_ctx)) {
            self.reject_offer(
                now,
                kernel,
                from,
                src_ctx,
                info.pid,
                RejectReason::Protocol,
                phys,
                out,
            );
            return;
        }
        // Step 3: allocate an (empty) process state — here, a capacity
        // reservation under the same process identifier.
        let slot = match kernel.reserve_incoming(info.pid, info.image_len as u64) {
            Ok(slot) => slot,
            Err(e) => {
                // Exhaustive: a new error variant must consciously pick
                // its reject reason (Capacity is the §5 step-3 bucket —
                // "allocate process state" failed — not a default).
                let reason = match e {
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
                };
                self.reject_offer(now, kernel, from, src_ctx, info.pid, reason, phys, out);
                return;
            }
        };
        out.trace.push(TraceEvent::Migration {
            pid: info.pid,
            phase: MigrationPhase::Allocated,
            bytes: 0,
        });
        let accept = MigrateMsg::Accept {
            ctx: src_ctx,
            slot,
            window: 1024,
        };
        kernel.send_migrate_msg(now, from, accept.to_bytes(), vec![], phys, out);
        self.incoming.insert(
            (from, src_ctx),
            DestMig {
                pid: info.pid,
                src: from,
                src_ctx,
                slot,
                started: now,
                reply,
                stage: Stage::Resident,
                resident: Vec::new(),
                swappable: Vec::new(),
                swappable_len: info.swappable_len,
                image_len: info.image_len,
                received: 0,
                installed: false,
            },
        );
        // Step 4 begins: pull the resident state.
        kernel.start_kernel_pull(
            now,
            cookie(from, src_ctx, Stage::Resident),
            info.pid,
            from,
            AreaSel::Resident,
            u32::from(info.resident_len),
            phys,
            out,
        );
    }

    /// Refuse an offer: count it, notify the source, trace the rejection.
    #[allow(clippy::too_many_arguments)]
    fn reject_offer(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        from: MachineId,
        src_ctx: u16,
        pid: ProcessId,
        reason: RejectReason,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        self.stats.rejected += 1;
        let reject = MigrateMsg::Reject {
            ctx: src_ctx,
            pid,
            reason,
        };
        kernel.send_migrate_msg(now, from, reject.to_bytes(), vec![], phys, out);
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Rejected,
            bytes: 0,
        });
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
        let (src, ctx, stage) = uncookie(done.cookie);
        let Some(mig) = self.incoming.get_mut(&(src, ctx)) else {
            return;
        };
        if done.status != 0 {
            let Some(mig) = self.incoming.remove(&(src, ctx)) else {
                return;
            };
            kernel.release_reservation(mig.slot);
            self.stats.aborted += 1;
            let abort = MigrateMsg::Abort { ctx, pid: mig.pid };
            kernel.send_migrate_msg(now, src, abort.to_bytes(), vec![], phys, out);
            out.trace.push(TraceEvent::Migration {
                pid: mig.pid,
                phase: MigrationPhase::Aborted,
                bytes: 0,
            });
            return;
        }
        debug_assert_eq!(mig.stage, stage, "pull completions arrive in order");
        mig.received += done.data.len() as u64;
        self.stats.bytes_received += done.data.len() as u64;
        match stage {
            Stage::Resident => {
                mig.resident = done.data;
                mig.stage = Stage::Swappable;
                kernel.start_kernel_pull(
                    now,
                    cookie(src, ctx, Stage::Swappable),
                    mig.pid,
                    src,
                    AreaSel::Swappable,
                    u32::from(mig.swappable_len),
                    phys,
                    out,
                );
            }
            Stage::Swappable => {
                mig.swappable = done.data;
                mig.stage = Stage::Image;
                out.trace.push(TraceEvent::Migration {
                    pid: mig.pid,
                    phase: MigrationPhase::StateTransferred,
                    bytes: mig.received,
                });
                kernel.start_kernel_pull(
                    now,
                    cookie(src, ctx, Stage::Image),
                    mig.pid,
                    src,
                    AreaSel::Image,
                    mig.image_len,
                    phys,
                    out,
                );
            }
            Stage::Image => {
                // Step 5 complete: install.
                let (pid, slot, resident, swappable) = (
                    mig.pid,
                    mig.slot,
                    std::mem::take(&mut mig.resident),
                    std::mem::take(&mut mig.swappable),
                );
                let received = mig.received;
                match kernel.install_migrated(now, slot, src, &resident, &swappable, done.data, out)
                {
                    Ok(installed_pid) => {
                        debug_assert_eq!(installed_pid, pid);
                        if let Some(mig) = self.incoming.get_mut(&(src, ctx)) {
                            mig.installed = true;
                        }
                        let complete = MigrateMsg::TransferComplete {
                            ctx,
                            received: received as u32,
                        };
                        kernel.send_migrate_msg(now, src, complete.to_bytes(), vec![], phys, out);
                    }
                    Err(_) => {
                        if let Some(mig) = self.incoming.remove(&(src, ctx)) {
                            kernel.release_reservation(mig.slot);
                        }
                        self.stats.aborted += 1;
                        let abort = MigrateMsg::Abort { ctx, pid };
                        kernel.send_migrate_msg(now, src, abort.to_bytes(), vec![], phys, out);
                        out.trace.push(TraceEvent::Migration {
                            pid,
                            phase: MigrationPhase::Aborted,
                            bytes: 0,
                        });
                    }
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
    pub fn on_peer_dead(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        peer: MachineId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let incoming: Vec<(MachineId, u16)> = self
            .incoming
            .keys()
            .filter(|&&(src, _)| src == peer)
            .copied()
            .collect();
        for key in incoming {
            let Some(mig) = self.incoming.remove(&key) else {
                continue;
            };
            if mig.installed && kernel.restart_migrated(mig.pid, out).is_ok() {
                self.stats.completed_in += 1;
                self.stats.total_in_duration += now.since(mig.started);
                out.trace.push(TraceEvent::Migration {
                    pid: mig.pid,
                    phase: MigrationPhase::Restarted,
                    bytes: 0,
                });
                if let Some(r) = mig.reply {
                    let done = MigrateMsg::Done {
                        pid: mig.pid,
                        dest: self.machine,
                        status: 0,
                    };
                    kernel.send_kernel_to(
                        now,
                        r,
                        demos_types::tags::MIGRATE,
                        done.to_bytes(),
                        phys,
                        out,
                    );
                }
            } else {
                kernel.release_reservation(mig.slot);
                self.stats.aborted += 1;
                out.trace.push(TraceEvent::Migration {
                    pid: mig.pid,
                    phase: MigrationPhase::Aborted,
                    bytes: 0,
                });
            }
        }
        let outgoing: Vec<u16> = self
            .outgoing
            .iter()
            .filter(|(_, m)| m.dest == peer)
            .map(|(&c, _)| c)
            .collect();
        for ctx in outgoing {
            let Some(mig) = self.outgoing.remove(&ctx) else {
                continue;
            };
            self.stats.aborted += 1;
            kernel.unfreeze(mig.pid, out);
            let retried = self.schedule_retry(now, mig.pid, mig.dest, mig.reply);
            out.trace.push(TraceEvent::Migration {
                pid: mig.pid,
                phase: MigrationPhase::Aborted,
                bytes: 0,
            });
            if let Some(r) = mig.reply.filter(|_| !retried) {
                let done = MigrateMsg::Done {
                    pid: mig.pid,
                    dest: mig.dest,
                    status: 203,
                };
                kernel.send_kernel_to(
                    now,
                    r,
                    demos_types::tags::MIGRATE,
                    done.to_bytes(),
                    phys,
                    out,
                );
            }
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

    /// Abort migrations that exceeded the timeout (crashed peers).
    pub fn on_time(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let stale_out: Vec<u16> = self
            .outgoing
            .iter()
            .filter(|(_, m)| now.since(m.started) >= self.cfg.timeout)
            .map(|(&c, _)| c)
            .collect();
        for ctx in stale_out {
            let Some(mig) = self.outgoing.remove(&ctx) else {
                continue;
            };
            self.stats.aborted += 1;
            kernel.unfreeze(mig.pid, out);
            let retried = self.schedule_retry(now, mig.pid, mig.dest, mig.reply);
            let abort = MigrateMsg::Abort { ctx, pid: mig.pid };
            kernel.send_migrate_msg(now, mig.dest, abort.to_bytes(), vec![], phys, out);
            if let Some(r) = mig.reply.filter(|_| !retried) {
                let done = MigrateMsg::Done {
                    pid: mig.pid,
                    dest: mig.dest,
                    status: 201,
                };
                kernel.send_kernel_to(
                    now,
                    r,
                    demos_types::tags::MIGRATE,
                    done.to_bytes(),
                    phys,
                    out,
                );
            }
        }
        let stale_in: Vec<(MachineId, u16)> = self
            .incoming
            .iter()
            .filter(|(_, m)| now.since(m.started) >= self.cfg.timeout)
            .map(|(&k, _)| k)
            .collect();
        for key in stale_in {
            let Some(mig) = self.incoming.remove(&key) else {
                continue;
            };
            kernel.release_reservation(mig.slot);
            if mig.installed {
                kernel.kill(now, mig.pid, phys, out);
            }
            self.stats.aborted += 1;
            let abort = MigrateMsg::Abort {
                ctx: mig.src_ctx,
                pid: mig.pid,
            };
            kernel.send_migrate_msg(now, mig.src, abort.to_bytes(), vec![], phys, out);
            out.trace.push(TraceEvent::Migration {
                pid: mig.pid,
                phase: MigrationPhase::Aborted,
                bytes: 0,
            });
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
            if self
                .start_migration(now, kernel, pid, dest, reply, phys, out)
                .is_err()
            {
                // The process is gone (killed) or already moving again:
                // give up on this retry chain.
                self.retries.remove(&pid);
                if let Some(r) = reply {
                    let done = MigrateMsg::Done {
                        pid,
                        dest,
                        status: 202,
                    };
                    kernel.send_kernel_to(
                        now,
                        r,
                        demos_types::tags::MIGRATE,
                        done.to_bytes(),
                        phys,
                        out,
                    );
                }
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
            let (m2, c2, s2) = uncookie(cookie(m, c, s));
            assert_eq!((m, c, s), (m2, c2, s2));
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
