//! The per-processor kernel.
//!
//! "A copy of the kernel resides on each processor. Although each kernel
//! independently maintains its own resources …, all kernels cooperate in
//! providing a location-transparent, reliable, interprocess message
//! facility" (§2.1).
//!
//! [`Kernel`] owns one machine's process table, forwarding-address table,
//! run queue, transport endpoint and move-data engine. It is driven by the
//! simulation loop through a narrow surface:
//!
//! * [`Kernel::on_frame`] — a transport frame arrived;
//! * [`Kernel::run_next`] — give the CPU to the next runnable process;
//! * [`Kernel::on_time`] — fire due timers and retransmissions;
//! * [`Kernel::submit`] — the message delivery system (also the entry
//!   point for locally originated messages).
//!
//! The delivery system implements §4 directly: a message finds a live
//! process (enqueue, or kernel receive for `DELIVERTOKERNEL`), an
//! in-migration process (held on the queue), a *forwarding address*
//! (rewrite the location hint, resubmit, and send the §5 link-update
//! by-product), or nothing (non-deliverable notice). Migration policy and
//! protocol live in `demos-core`; this crate provides the mechanisms the
//! protocol composes (freeze, serve state, install, finish source side).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};
use demos_net::{ChannelConfig, Endpoint, Frame, Phys};
use demos_types::proto::{AreaSel, KernelOp, LinkMaintMsg, MoveDataMsg};
use demos_types::wire::Wire;
use demos_types::{
    tags, CorrId, DemosError, Duration, Link, LinkIdx, MachineId, Message, MsgFlags, MsgHeader,
    ProcessAddress, ProcessId, Result, Time,
};

use crate::image::{ImageLayout, ProcessImage};
use crate::movedata::{MdAction, MoveData, MoveDataConfig, PullPurpose};
use crate::process::{ExecStatus, Process, Queued, TimerEntry};
use crate::program::{local_tags, Ctx, Delivered, Effects, MoveDataReq, Registry};
use crate::trace::{MigrationPhase, TraceEvent};

/// Kernel tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Maximum resident processes (capacity for migration accept/reject).
    pub max_processes: usize,
    /// Total image memory available, bytes.
    pub mem_capacity: u64,
    /// Base virtual CPU charged per program activation (context switch +
    /// minimal handler).
    pub base_msg_cpu: Duration,
    /// Move-data streaming parameters.
    pub movedata: MoveDataConfig,
    /// Reliable-channel parameters.
    pub channel: ChannelConfig,
    /// Forwarding addresses enabled (§4). `false` selects the paper's
    /// rejected alternative — return messages as non-deliverable — used as
    /// an ablation (experiment E8).
    pub forwarding: bool,
    /// Garbage-collect forwarding addresses via death notices propagated
    /// backwards along the migration path (§4). The paper left them in
    /// place ("we have not found it necessary"); both modes are supported.
    pub gc_forwarding: bool,
    /// Inter-kernel heartbeat interval. [`Duration::ZERO`] (the default)
    /// disables the failure detector entirely — the paper's DEMOS/MP had
    /// no automatic crash detection, so everything here is opt-in.
    pub heartbeat_every: Duration,
    /// Heartbeat intervals of silence before a watched peer is *suspected*
    /// (may still recover — counted as a false positive if it does).
    pub suspect_after: u32,
    /// Heartbeat intervals of silence before a suspected peer is confirmed
    /// *dead*. Terminal: the channel is purged and queued frames bounce.
    pub dead_after: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            max_processes: 64,
            mem_capacity: 16 << 20,
            base_msg_cpu: Duration::from_micros(100),
            movedata: MoveDataConfig::default(),
            channel: ChannelConfig::default(),
            forwarding: true,
            gc_forwarding: false,
            heartbeat_every: Duration::ZERO,
            suspect_after: 3,
            dead_after: 8,
        }
    }
}

/// Failure-detector counters (all zero while heartbeats are disabled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Heartbeats transmitted to watched peers.
    pub beats_sent: u64,
    /// Heartbeats received from peers.
    pub beats_received: u64,
    /// Peers that crossed the suspicion threshold.
    pub suspicions: u64,
    /// Suspected peers later heard from again (premature suspicion).
    pub false_positives: u64,
    /// Peers confirmed dead (terminal).
    pub confirmed_dead: u64,
    /// Frames returned by the transport instead of being sent to a dead
    /// peer (queued at confirmation time or submitted afterwards).
    pub bounced: u64,
}

/// Liveness bookkeeping for one watched peer.
#[derive(Clone, Copy, Debug)]
struct PeerHealth {
    /// Last virtual time any frame arrived from this peer.
    last_heard: Time,
    /// Currently past the suspicion threshold.
    suspected: bool,
}

/// A forwarding address: "a degenerate process state, whose only contents
/// are the (last known) machine to which the process was migrated" (§3.1
/// step 7). `prev` is the backward pointer along the migration path used
/// for garbage collection (§4); `forwards` is bookkeeping for the
/// experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardEntry {
    /// Machine the process moved to.
    pub to: MachineId,
    /// Machine the process had previously migrated from, if any.
    pub prev: Option<MachineId>,
    /// Messages forwarded through this entry.
    pub forwards: u64,
}

/// Message/byte counts for one traffic category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgCount {
    /// Messages transmitted.
    pub msgs: u64,
    /// Total wire bytes of those messages.
    pub bytes: u64,
}

impl MsgCount {
    fn add(&mut self, bytes: usize) {
        self.msgs += 1;
        self.bytes += bytes as u64;
    }
}

/// Remote traffic broken down by protocol category — the classification
/// §6's cost analysis uses (administrative messages vs. block data
/// transfers vs. ordinary messages).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Kernel control operations (`KERNEL_OP`, incl. MigrateRequest #1).
    pub kernel_op: MsgCount,
    /// Migration protocol messages (#2, #3, #7, #8, #9).
    pub migrate: MsgCount,
    /// Move-data read/write requests (#4–#6 for migrations).
    pub md_req: MsgCount,
    /// Move-data data packets.
    pub md_data: MsgCount,
    /// Move-data acknowledgements.
    pub md_ack: MsgCount,
    /// Move-data completion/abort messages.
    pub md_done: MsgCount,
    /// Link maintenance (updates, non-deliverable, death notices).
    pub link_maint: MsgCount,
    /// Kernel management (process creation).
    pub mgmt: MsgCount,
    /// System-server and user messages.
    pub user: MsgCount,
}

impl TrafficBreakdown {
    /// Administrative migration messages: the paper's "9 such messages"
    /// (request + protocol + the three state-pull requests).
    pub fn admin(&self) -> MsgCount {
        MsgCount {
            msgs: self.kernel_op.msgs + self.migrate.msgs + self.md_req.msgs,
            bytes: self.kernel_op.bytes + self.migrate.bytes + self.md_req.bytes,
        }
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, o: &TrafficBreakdown) {
        for (a, b) in [
            (&mut self.kernel_op, &o.kernel_op),
            (&mut self.migrate, &o.migrate),
            (&mut self.md_req, &o.md_req),
            (&mut self.md_data, &o.md_data),
            (&mut self.md_ack, &o.md_ack),
            (&mut self.md_done, &o.md_done),
            (&mut self.link_maint, &o.link_maint),
            (&mut self.mgmt, &o.mgmt),
            (&mut self.user, &o.user),
        ] {
            a.msgs += b.msgs;
            a.bytes += b.bytes;
        }
    }
}

/// Counters kept by each kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Remote traffic by category.
    pub traffic: TrafficBreakdown,
    /// Messages entering the delivery system here.
    pub submitted: u64,
    /// Messages enqueued for local processes.
    pub delivered_local: u64,
    /// Messages transmitted to another machine.
    pub transmitted: u64,
    /// Messages redirected by a forwarding address (§4).
    pub forwarded: u64,
    /// Link-update messages sent (§5).
    pub link_updates_sent: u64,
    /// Link-update messages applied.
    pub link_updates_applied: u64,
    /// Individual links rewritten by updates.
    pub links_patched: u64,
    /// Messages that could not be delivered.
    pub nondeliverable: u64,
    /// `DELIVERTOKERNEL` messages received by this kernel.
    pub kernel_received: u64,
    /// Processes spawned here.
    pub spawned: u64,
    /// Processes exited here.
    pub exited: u64,
    /// Program activations run.
    pub activations: u64,
}

/// Completion of a kernel-purpose move-data pull (migration state
/// transfer), surfaced to the migration engine.
#[derive(Debug, Clone)]
pub struct KernelPullDone {
    /// Cookie given at [`Kernel::start_kernel_pull`].
    pub cookie: u64,
    /// Operation id.
    pub op: u16,
    /// The bytes (empty on failure).
    pub data: Vec<u8>,
    /// 0 = success.
    pub status: u8,
}

/// Side-channel outputs of one kernel invocation, drained by the caller
/// (the simulation loop / migration engine).
#[derive(Debug, Default)]
pub struct Outbox {
    /// Trace events (timestamped by the harness).
    pub trace: Vec<TraceEvent>,
    /// Messages the kernel does not interpret itself: the migration
    /// protocol (`MIGRATE` tag) and `MigrateRequest` control ops, consumed
    /// by the `demos-core` migration engine.
    pub migration_inbox: Vec<Message>,
    /// Completions of kernel-purpose move-data pulls.
    pub pull_done: Vec<KernelPullDone>,
    /// Scratch of [`Kernel::run_next`] and [`Kernel::on_time`]: an
    /// activation's side-effect lists and a firing's due timers, kept
    /// between calls for their capacity. Always empty between calls.
    effects: Effects,
    due_timers: Vec<TimerEntry>,
}

/// Sizes reported in a migration offer (message #2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationSizes {
    /// Resident (non-swappable) state bytes.
    pub resident: u32,
    /// Swappable state bytes.
    pub swappable: u32,
    /// Memory image bytes (flat form, header included).
    pub image: u32,
    /// Messages pending on the queue at freeze time.
    pub queued: u16,
}

/// The per-machine kernel.
pub struct Kernel {
    machine: MachineId,
    cfg: KernelConfig,
    registry: Arc<Registry>,
    endpoint: Endpoint,
    md: MoveData,
    procs: BTreeMap<ProcessId, Process>,
    forwarding: BTreeMap<ProcessId, ForwardEntry>,
    run_queue: VecDeque<ProcessId>,
    reserved: BTreeMap<u16, u64>,
    next_slot: u16,
    next_uid: u32,
    next_corr: u64,
    mem_used: u64,
    stats: KernelStats,
    hb_peers: BTreeMap<MachineId, PeerHealth>,
    next_hb_at: Option<Time>,
    hb_seq: u64,
    dead: BTreeSet<MachineId>,
    dead_events: Vec<(MachineId, Time)>,
    det_stats: DetectorStats,
    /// Min-heap over process-timer deadlines, lazily invalidated: an entry
    /// `(t, pid)` is live iff `procs[pid].next_timer() == Some(t)` when it
    /// is inspected. Entries are pushed whenever a process's earliest
    /// timer may have changed (new timers in `run_next`, residual timers
    /// after `on_time`, migrated-in timers) and never removed eagerly —
    /// stale ones are discarded on peek/pop. Makes
    /// [`Kernel::next_deadline`] an O(log n) peek and [`Kernel::on_time`]
    /// pop-due-only instead of a full process-table scan.
    timer_heap: BinaryHeap<Reverse<(Time, ProcessId)>>,
    /// Delivery list [`Kernel::on_frame`] hands the channel, kept between
    /// frames for its capacity.
    delivered: Vec<(CorrId, Bytes)>,
    /// Due-process list of [`Kernel::on_time`], kept between firings for
    /// its capacity.
    due_pids: Vec<ProcessId>,
    /// Action list for the move-data engine, kept between packets for its
    /// capacity.
    md_actions: Vec<MdAction>,
}

impl Kernel {
    /// Create the kernel for `machine`.
    pub fn new(machine: MachineId, cfg: KernelConfig, registry: Arc<Registry>) -> Self {
        Kernel {
            machine,
            endpoint: Endpoint::new(machine, cfg.channel),
            md: MoveData::new(cfg.movedata),
            cfg,
            registry,
            procs: BTreeMap::new(),
            forwarding: BTreeMap::new(),
            run_queue: VecDeque::new(),
            reserved: BTreeMap::new(),
            next_slot: 1,
            next_uid: 1,
            next_corr: 1,
            mem_used: 0,
            stats: KernelStats::default(),
            hb_peers: BTreeMap::new(),
            next_hb_at: None,
            hb_seq: 0,
            dead: BTreeSet::new(),
            dead_events: Vec::new(),
            det_stats: DetectorStats::default(),
            timer_heap: BinaryHeap::new(),
            delivered: Vec::new(),
            due_pids: Vec::new(),
            md_actions: Vec::new(),
        }
    }

    /// This kernel's machine.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Monotone identifier watermarks — next process uid, next message
    /// correlation serial. This is the boot record a processor keeps in
    /// stable storage: a fresh incarnation must mint *above* these, or
    /// its ids collide with the previous incarnation's still-circulating
    /// ones (a re-minted correlation id makes two distinct messages look
    /// like a duplicate; a re-minted uid collides with a re-homed
    /// process).
    pub fn id_watermarks(&self) -> (u32, u64) {
        (self.next_uid, self.next_corr)
    }

    /// Resume identifier minting above a previous incarnation's
    /// watermarks (reboot path; see [`Kernel::id_watermarks`]).
    pub fn resume_id_watermarks(&mut self, uid: u32, corr: u64) {
        self.next_uid = self.next_uid.max(uid);
        self.next_corr = self.next_corr.max(corr);
    }

    /// This kernel's process identity (local uid 0).
    pub fn kernel_pid(&self) -> ProcessId {
        ProcessId::kernel_of(self.machine)
    }

    /// Configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Image memory in use, bytes (including reservations).
    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// Resident process count.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Run-queue length (load metric).
    pub fn runq_len(&self) -> usize {
        self.run_queue.len()
    }

    /// Total messages queued for *runnable* residents (excludes processes
    /// frozen for migration, whose held messages are reported by
    /// [`Kernel::pending_queue_len`]).
    pub fn msg_queue_len(&self) -> usize {
        self.procs
            .values()
            .filter(|p| !p.in_migration)
            .map(|p| p.queue.len())
            .sum()
    }

    /// Messages held on in-migration processes' queues (§3.1 step 1):
    /// the backlog step 6 will forward. Zero outside migrations.
    pub fn pending_queue_len(&self) -> usize {
        self.procs
            .values()
            .filter(|p| p.in_migration)
            .map(|p| p.queue.len())
            .sum()
    }

    /// Total link-table entries across resident processes.
    pub fn link_table_len(&self) -> usize {
        self.procs.values().map(|p| p.links.len()).sum()
    }

    /// Reliable-channel health counters (retransmits, duplicate acks,
    /// dedup drops), cumulative for this machine's endpoint.
    pub fn channel_stats(&self) -> demos_net::ChannelStats {
        self.endpoint.channel_stats()
    }

    /// Iterate over resident process ids.
    pub fn pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.procs.keys().copied()
    }

    /// Immutable access to a resident process.
    pub fn process(&self, pid: ProcessId) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Mutable access to a resident process (tests, bootstrap, engine).
    pub fn process_mut(&mut self, pid: ProcessId) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// The forwarding table (read-only view).
    pub fn forwarding_table(&self) -> &BTreeMap<ProcessId, ForwardEntry> {
        &self.forwarding
    }

    /// Where this machine's forwarding table redirects `pid`, if an entry
    /// exists — one hop of the chain walk used by the chaos acyclicity
    /// checker.
    pub fn forwarding_next(&self, pid: ProcessId) -> Option<MachineId> {
        self.forwarding.get(&pid).map(|e| e.to)
    }

    /// Insert a forwarding entry (crash-recovery path; migrations install
    /// theirs through [`Kernel::finish_source_side`]).
    pub(crate) fn forwarding_insert(&mut self, pid: ProcessId, to: MachineId) {
        self.forwarding.insert(
            pid,
            ForwardEntry {
                to,
                prev: None,
                forwards: 0,
            },
        );
    }

    /// Reset the reliable channel to `peer` (connection re-establishment
    /// after the peer is revived with fresh sequence numbers), starting
    /// connection incarnation `epoch` — both ends of the pair must be
    /// handed the same value, strictly above anything the pair used
    /// before, so stragglers of the old incarnation are recognizably
    /// stale. Also clears any detector verdict so a revived peer is
    /// watched afresh.
    pub fn reset_channel(&mut self, peer: MachineId, epoch: u32) {
        self.endpoint.reset_peer(peer, epoch);
        self.dead.remove(&peer);
        if let Some(ph) = self.hb_peers.get_mut(&peer) {
            ph.suspected = false;
        }
    }

    /// Current connection incarnation of the channel to `peer`.
    pub fn channel_epoch(&self, peer: MachineId) -> u32 {
        self.endpoint.peer_epoch(peer)
    }

    /// A revived peer is alive by definition: reset its channel (onto the
    /// new connection incarnation `epoch`) and restart liveness tracking
    /// from `now`.
    pub fn peer_revived(&mut self, now: Time, peer: MachineId, epoch: u32) {
        self.reset_channel(peer, epoch);
        if let Some(ph) = self.hb_peers.get_mut(&peer) {
            ph.last_heard = now;
            ph.suspected = false;
        }
    }

    /// Start heartbeating `peers` (typically every other machine in the
    /// cluster). No-op while [`KernelConfig::heartbeat_every`] is zero.
    pub fn watch_peers(&mut self, now: Time, peers: impl IntoIterator<Item = MachineId>) {
        for peer in peers {
            if peer == self.machine {
                continue;
            }
            self.hb_peers.insert(
                peer,
                PeerHealth {
                    last_heard: now,
                    suspected: false,
                },
            );
        }
        if self.cfg.heartbeat_every > Duration::ZERO && !self.hb_peers.is_empty() {
            self.next_hb_at = Some(now + self.cfg.heartbeat_every);
        }
    }

    /// Stop heartbeating and failure detection (harness drain phases: a
    /// cluster with an active detector never goes fully quiescent).
    /// Verdicts already reached are kept.
    pub fn stop_heartbeats(&mut self) {
        self.next_hb_at = None;
    }

    /// Failure-detector counters.
    pub fn detector_stats(&self) -> DetectorStats {
        self.det_stats
    }

    /// Whether this kernel has confirmed `peer` dead.
    pub fn peer_dead(&self, peer: MachineId) -> bool {
        self.dead.contains(&peer)
    }

    /// Peers this kernel has confirmed dead, in machine-id order.
    pub fn dead_peers(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.dead.iter().copied()
    }

    /// Drain the (machine, confirmation time) events recorded since the
    /// last call — the recovery manager's trigger.
    pub fn take_confirmed_dead(&mut self) -> Vec<(MachineId, Time)> {
        std::mem::take(&mut self.dead_events)
    }

    /// A frame arrived from `from`: refresh liveness. A suspected peer
    /// heard from again was a premature suspicion; a dead verdict is
    /// terminal and is not revisited here.
    fn peer_heard(&mut self, now: Time, from: MachineId) {
        if self.dead.contains(&from) {
            return;
        }
        if let Some(ph) = self.hb_peers.get_mut(&from) {
            ph.last_heard = now;
            if ph.suspected {
                ph.suspected = false;
                self.det_stats.false_positives += 1;
            }
        }
    }

    /// Confirm `peer` dead: purge its channel (queued frames bounce),
    /// drop forwarding entries that would route *into* it (a stale chain
    /// through a dead machine black-holes; better to fall through to
    /// non-deliverable or a recovery entry), and record the event.
    fn confirm_dead(&mut self, now: Time, peer: MachineId) {
        if !self.dead.insert(peer) {
            return;
        }
        self.det_stats.confirmed_dead += 1;
        self.dead_events.push((peer, now));
        let bounces = self.endpoint.mark_dead(peer);
        self.det_stats.bounced += bounces.len() as u64;
        self.forwarding.retain(|_, e| e.to != peer);
    }

    /// Send heartbeats and evaluate silence thresholds if the interval
    /// elapsed.
    fn heartbeat_tick(&mut self, now: Time, phys: &mut dyn Phys) {
        let every = self.cfg.heartbeat_every;
        if every == Duration::ZERO || self.hb_peers.is_empty() {
            return;
        }
        let due = match self.next_hb_at {
            Some(t) if t <= now => t,
            _ => return,
        };
        self.hb_seq += 1;
        let seq = self.hb_seq;
        let suspect_at = every.saturating_mul(self.cfg.suspect_after as u64);
        let dead_at = every.saturating_mul(self.cfg.dead_after as u64);
        let beat = LinkMaintMsg::Heartbeat {
            from: self.machine,
            seq,
        };
        // Sending and `confirm_dead` need `&mut self`, so the peer table
        // is out of `self` while it is walked (neither reads it) — no
        // per-tick copy of its keys.
        let mut peers = std::mem::take(&mut self.hb_peers);
        for (&peer, ph) in peers.iter_mut() {
            if self.dead.contains(&peer) {
                continue;
            }
            // What `transmit` does with the message around `beat`, with
            // header and body written once into the buffer that travels.
            let header = self.kernel_header(ProcessAddress::kernel_of(peer), tags::LINK_MAINT);
            let bytes = Message::encode_with_body(&header, &[], &beat);
            self.account_transmit(peer, &header, bytes.len(), None);
            self.send_encoded(now, peer, bytes, CorrId::NONE, phys);
            self.det_stats.beats_sent += 1;
            let silent = now.since(ph.last_heard);
            if silent >= dead_at {
                self.confirm_dead(now, peer);
            } else if silent >= suspect_at && !ph.suspected {
                ph.suspected = true;
                self.det_stats.suspicions += 1;
            }
        }
        self.hb_peers = peers;
        let mut next = due + every;
        while next <= now {
            next += every;
        }
        self.next_hb_at = Some(next);
    }

    /// Whether the transport has unacknowledged frames in flight.
    pub fn transport_quiescent(&self) -> bool {
        self.endpoint.quiescent()
    }

    /// Per-peer transmit backlog (`(peer, unacked, pending, state)`),
    /// for diagnosing a non-quiescent endpoint.
    pub fn transport_backlog(&self) -> Vec<(MachineId, usize, usize, demos_net::PeerState)> {
        self.endpoint.backlog()
    }

    // ------------------------------------------------------------------
    // Spawning and bootstrap
    // ------------------------------------------------------------------

    /// Create a process running registered program `name` with initial
    /// serialized `state`.
    pub fn spawn(
        &mut self,
        now: Time,
        name: &str,
        state: &[u8],
        layout: ImageLayout,
        privileged: bool,
        out: &mut Outbox,
    ) -> Result<ProcessId> {
        if self.procs.len() >= self.cfg.max_processes {
            return Err(DemosError::Capacity(self.machine));
        }
        let program = self.registry.instantiate(name, state)?;
        let pid = ProcessId {
            creating_machine: self.machine,
            local_uid: self.next_uid,
        };
        self.next_uid += 1;
        let proc = Process::new(pid, name, program, layout, privileged, now);
        let image_len = proc.image.total_len() as u64;
        if self.mem_used + image_len > self.cfg.mem_capacity {
            return Err(DemosError::Capacity(self.machine));
        }
        self.mem_used += image_len;
        self.procs.insert(pid, proc);
        self.stats.spawned += 1;
        out.trace.push(TraceEvent::Spawned {
            pid,
            program: name.to_string(),
        });
        self.schedule(pid);
        Ok(pid)
    }

    /// Install a link value into a process's table (bootstrap: handing the
    /// first processes their switchboard links, etc.).
    pub fn install_link(&mut self, pid: ProcessId, link: Link) -> Result<LinkIdx> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(DemosError::NoSuchProcess(pid))?;
        Ok(proc.links.insert(link))
    }

    /// Mint a link to a local process (kernel participates in all link
    /// operations; used at bootstrap and by `CreateProcess` replies).
    pub fn mint_link(&self, pid: ProcessId) -> Result<Link> {
        if !self.procs.contains_key(&pid) {
            return Err(DemosError::NoSuchProcess(pid));
        }
        Ok(Link::to(pid.at(self.machine)))
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    fn schedule(&mut self, pid: ProcessId) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            if proc.runnable() && !proc.in_runq {
                proc.in_runq = true;
                self.run_queue.push_back(pid);
            }
        }
    }

    fn wake(&mut self, pid: ProcessId) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            if proc.status == ExecStatus::Waiting {
                proc.status = ExecStatus::Ready;
            }
        }
        self.schedule(pid);
    }

    /// Whether the run queue may contain work (may report a false positive
    /// for stale entries; `run_next` skips them).
    pub fn has_runnable(&self) -> bool {
        !self.run_queue.is_empty()
    }

    /// Run one program activation: deliver the next queued message (or
    /// `on_start`) to the next runnable process. Returns the pid and the
    /// virtual CPU consumed, or `None` if nothing was runnable.
    pub fn run_next(
        &mut self,
        now: Time,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Option<(ProcessId, Duration)> {
        loop {
            let pid = self.run_queue.pop_front()?;
            let Some(proc) = self.procs.get_mut(&pid) else {
                continue;
            };
            proc.in_runq = false;
            if !proc.runnable() {
                continue;
            }
            // A DELIVERTOKERNEL message held while the process was in
            // migration (§3.1 step 1) is received by the kernel now that
            // "normal message receiving can continue" (§2.2) — it never
            // reaches the program.
            if proc.started
                && matches!(proc.queue.front(), Some(Queued::Message(m))
                    if m.header.flags.contains(MsgFlags::DELIVER_TO_KERNEL))
            {
                let Some(Queued::Message(msg)) = proc.queue.pop_front() else {
                    continue;
                };
                let cost = self.cfg.base_msg_cpu.max(Duration::from_micros(1));
                if let Some(proc) = self.procs.get_mut(&pid) {
                    proc.cpu_used += cost;
                    if proc.queue.is_empty() {
                        proc.status = ExecStatus::Waiting;
                    }
                }
                self.stats.kernel_received += 1;
                out.trace.push(TraceEvent::KernelReceived {
                    corr: msg.corr,
                    pid,
                    msg_type: msg.header.msg_type,
                });
                self.handle_control(now, pid, msg, phys, out);
                self.schedule(pid);
                return Some((pid, cost));
            }
            self.stats.activations += 1;
            let Some(mut program) = proc.program.take() else {
                // Defensive: a runnable process should always hold its
                // program; park it rather than abort the kernel.
                proc.status = ExecStatus::Waiting;
                continue;
            };
            let machine = self.machine;
            if !proc.started {
                proc.started = true;
                let mut ctx = Ctx::new(now, pid, machine, &mut proc.links, &mut out.effects);
                program.on_start(&mut ctx);
            } else {
                let Some(entry) = proc.queue.pop_front() else {
                    // Defensive: restore the invariant instead of panicking.
                    proc.program = Some(program);
                    proc.status = ExecStatus::Waiting;
                    continue;
                };
                proc.msgs_handled += 1;
                match entry {
                    Queued::Message(msg) if msg.header.msg_type != local_tags::TIMER => {
                        let links: Vec<LinkIdx> =
                            msg.links.iter().map(|l| proc.links.insert(*l)).collect();
                        let delivered = Delivered {
                            from: msg.header.src,
                            msg_type: msg.header.msg_type,
                            payload: msg.payload,
                            links,
                            forwarded: msg.header.flags.contains(MsgFlags::FORWARDED),
                        };
                        let mut ctx =
                            Ctx::new(now, pid, machine, &mut proc.links, &mut out.effects);
                        program.on_message(&mut ctx, delivered);
                    }
                    // A timer: queued here as its token, or fired where the
                    // process used to live and forwarded after it as a
                    // `TIMER` message (step 6).
                    timer @ (Queued::Timer(_) | Queued::Message(_)) => {
                        let token = match timer {
                            Queued::Timer(token) => token,
                            Queued::Message(msg) => decode_timer_token(&msg.payload),
                        };
                        let mut ctx =
                            Ctx::new(now, pid, machine, &mut proc.links, &mut out.effects);
                        program.on_timer(&mut ctx, token);
                    }
                }
            }
            // The handler filled the outbox's scratch lists; take them out
            // to apply them, and hand them back, drained, at the end.
            let mut effects = std::mem::take(&mut out.effects);
            let Some(proc) = self.procs.get_mut(&pid) else {
                continue;
            };
            proc.program = Some(program);
            // Never zero: virtual time must advance per activation or the
            // event loop could livelock on a zero-cost message cycle.
            let cost = (self.cfg.base_msg_cpu + effects.cpu).max(Duration::from_micros(1));
            proc.cpu_used += cost;
            let armed_timers = !effects.timers.is_empty();
            for (delay, token) in effects.timers.drain(..) {
                proc.timers.push(TimerEntry {
                    at: now + delay,
                    token,
                });
            }
            if armed_timers {
                // Index the (possibly new) earliest deadline. If the old
                // minimum still stands its heap entry remains live and this
                // push is a harmless duplicate.
                if let Some(t) = proc.next_timer() {
                    self.timer_heap.push(Reverse((t, pid)));
                }
            }
            if !effects.exit {
                proc.status = if proc.queue.is_empty() {
                    ExecStatus::Waiting
                } else {
                    ExecStatus::Ready
                };
            }
            for text in effects.logs.drain(..) {
                out.trace.push(TraceEvent::Log { pid, text });
            }
            for m in effects.sends.drain(..) {
                self.submit(now, m, phys, out);
            }
            for req in effects.movedata.drain(..) {
                self.start_user_movedata(now, pid, req, phys, out);
            }
            if effects.exit {
                self.kill(now, pid, phys, out);
            } else {
                self.schedule(pid);
            }
            effects.exit = false;
            effects.cpu = Duration::ZERO;
            out.effects = effects;
            return Some((pid, cost));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest future deadline this kernel cares about: process timers
    /// and transport retransmissions. Authoritative O(procs + peers) scan
    /// kept for callers that only hold `&self` (the native runtime); the
    /// simulation hot loop uses the indexed [`Kernel::next_deadline`].
    pub fn next_timer_at(&self) -> Option<Time> {
        let proc_min = self.procs.values().filter_map(|p| p.next_timer()).min();
        [proc_min, self.endpoint.next_timeout(), self.next_hb_at]
            .into_iter()
            .flatten()
            .min()
    }

    /// Whether heap entry `(t, pid)` still describes `pid`'s earliest
    /// timer. Killed or migrated-away processes invalidate their entries
    /// automatically.
    fn timer_entry_valid(&self, t: Time, pid: ProcessId) -> bool {
        self.procs
            .get(&pid)
            .is_some_and(|p| p.next_timer() == Some(t))
    }

    /// Indexed equivalent of [`Kernel::next_timer_at`]: O(log n) peeks
    /// over the process-timer and retransmission heaps plus the O(1)
    /// heartbeat field, discarding stale heap entries on the way. Debug
    /// builds cross-check against the full scan.
    pub fn next_deadline(&mut self) -> Option<Time> {
        let proc_min = loop {
            match self.timer_heap.peek() {
                Some(&Reverse((t, pid))) => {
                    if self.timer_entry_valid(t, pid) {
                        break Some(t);
                    }
                    self.timer_heap.pop();
                }
                None => break None,
            }
        };
        let r = [
            proc_min,
            self.endpoint.next_timeout_indexed(),
            self.next_hb_at,
        ]
        .into_iter()
        .flatten()
        .min();
        debug_assert_eq!(r, self.next_timer_at(), "timer index diverged from scan");
        r
    }

    /// Fire everything due at or before `now`.
    pub fn on_time(&mut self, now: Time, phys: &mut dyn Phys, out: &mut Outbox) {
        let bounces = self.endpoint.on_timeout(now, phys);
        self.det_stats.bounced += bounces.len() as u64;
        self.heartbeat_tick(now, phys);
        // Pop due, still-live entries instead of scanning every process.
        // Sorting restores the pre-index order (ascending pid), keeping
        // the order timers are queued in — and thus the trace — byte
        // identical to the scan-everything loop.
        let mut due_pids = std::mem::take(&mut self.due_pids);
        let mut due = std::mem::take(&mut out.due_timers);
        while let Some(&Reverse((t, pid))) = self.timer_heap.peek() {
            if !self.timer_entry_valid(t, pid) {
                self.timer_heap.pop();
                continue;
            }
            if t > now {
                break;
            }
            self.timer_heap.pop();
            due_pids.push(pid);
        }
        due_pids.sort_unstable();
        due_pids.dedup();
        for pid in due_pids.drain(..) {
            let Some(proc) = self.procs.get_mut(&pid) else {
                continue;
            };
            proc.take_due_timers(now, &mut due);
            // Re-index the earliest residual (future) timer, if any.
            if let Some(t) = proc.next_timer() {
                self.timer_heap.push(Reverse((t, pid)));
            }
            // A fired timer queues as its token: nothing is allocated
            // until (and unless) it has to follow a migrating process.
            for t in due.drain(..) {
                proc.queue.push_back(Queued::Timer(t.token));
            }
            self.wake(pid);
        }
        self.due_pids = due_pids;
        out.due_timers = due;
    }

    fn synthetic_msg(&self, pid: ProcessId, msg_type: u16, payload: Bytes) -> Message {
        Message {
            header: MsgHeader {
                dest: pid.at(self.machine),
                src: self.kernel_pid(),
                src_machine: self.machine,
                msg_type,
                flags: MsgFlags::FROM_KERNEL,
                hops: 0,
            },
            links: vec![],
            payload,
            corr: CorrId::NONE,
        }
    }

    fn enqueue_local_quiet(&mut self, pid: ProcessId, msg: Message) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.queue.push_back(Queued::Message(msg));
        }
    }

    // ------------------------------------------------------------------
    // Transport
    // ------------------------------------------------------------------

    /// A frame arrived from the physical network.
    pub fn on_frame(
        &mut self,
        now: Time,
        from: MachineId,
        frame: Frame,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        self.peer_heard(now, from);
        // One delivery list per kernel, not per frame (`submit` never
        // re-enters `on_frame`, so the list is free while it is out).
        let mut delivered = std::mem::take(&mut self.delivered);
        self.endpoint
            .on_frame_into(now, from, frame, phys, &mut delivered);
        for (corr, bytes) in delivered.drain(..) {
            match Message::from_bytes(&bytes) {
                Ok(mut msg) => {
                    // The correlation id travelled alongside the wire bytes
                    // (frame metadata, not part of the encoding); re-attach
                    // it so the journey continues under the same id.
                    msg.corr = corr;
                    self.submit(now, msg, phys, out);
                }
                Err(e) => {
                    debug_assert!(false, "undecodable message on reliable channel: {e}");
                }
            }
        }
        self.delivered = delivered;
    }

    fn transmit(&mut self, now: Time, to: MachineId, msg: &Message, phys: &mut dyn Phys) {
        let first = msg.payload.first().copied();
        self.account_transmit(to, &msg.header, msg.wire_size(), first);
        self.send_encoded(now, to, msg.to_bytes(), msg.corr, phys);
    }

    /// Count one message of `size` encoded bytes leaving for `to`;
    /// `first` is the first byte of its payload (the move-data kind).
    fn account_transmit(
        &mut self,
        to: MachineId,
        header: &MsgHeader,
        size: usize,
        first: Option<u8>,
    ) {
        self.stats.transmitted += 1;
        let t = &mut self.stats.traffic;
        match header.msg_type {
            tags::KERNEL_OP => t.kernel_op.add(size),
            tags::MIGRATE => t.migrate.add(size),
            tags::MOVE_DATA => match first {
                Some(1) | Some(2) => t.md_req.add(size),
                Some(3) => t.md_data.add(size),
                Some(4) => t.md_ack.add(size),
                _ => t.md_done.add(size),
            },
            tags::LINK_MAINT => t.link_maint.add(size),
            local_tags::KERNEL_MGMT => t.mgmt.add(size),
            _ => t.user.add(size),
        }
        // Communication accounting for the affinity policy: charge the
        // *sending* process for traffic that actually leaves the machine.
        // (A send to a colocated process — even over a stale link — never
        // reaches the transport, so it never counts as remote.)
        if !header.flags.contains(MsgFlags::FROM_KERNEL) && header.src_machine == self.machine {
            if let Some(proc) = self.procs.get_mut(&header.src) {
                *proc.bytes_sent_to.entry(to).or_insert(0) += size as u64;
            }
        }
    }

    /// Hand one encoded message to the reliable channel.
    fn send_encoded(
        &mut self,
        now: Time,
        to: MachineId,
        bytes: Bytes,
        corr: CorrId,
        phys: &mut dyn Phys,
    ) {
        if self.endpoint.send(now, to, bytes, corr, phys).is_some() {
            // The channel to a confirmed-dead peer accepts nothing; the
            // frame comes straight back as a local bounce.
            self.det_stats.bounced += 1;
        }
    }

    // ------------------------------------------------------------------
    // The message delivery system (§4)
    // ------------------------------------------------------------------

    /// Deliver (or route) one message. This is the single entry point for
    /// messages originated locally *and* arriving from the network.
    pub fn submit(&mut self, now: Time, mut msg: Message, phys: &mut dyn Phys, out: &mut Outbox) {
        msg.corr = self.count_submitted(msg.corr, &msg.header, out);
        let dest = msg.header.dest;
        // 1. Is the destination process resident here (by pid, regardless
        //    of the — possibly stale — location hint)?
        if let Some(proc) = self.procs.get(&dest.pid) {
            let dtk = msg.header.flags.contains(MsgFlags::DELIVER_TO_KERNEL);
            if dtk && !proc.in_migration {
                // "On arrival at the destination process's message queue,
                // the message is received by the kernel" (§2.2).
                self.stats.kernel_received += 1;
                out.trace.push(TraceEvent::KernelReceived {
                    corr: msg.corr,
                    pid: dest.pid,
                    msg_type: msg.header.msg_type,
                });
                self.handle_control(now, dest.pid, msg, phys, out);
            } else {
                // Normal delivery — or an in-migration hold: "messages
                // arriving for the migrating process, including
                // DELIVERTOKERNEL messages, will be placed on its message
                // queue" (§3.1 step 1).
                self.stats.delivered_local += 1;
                out.trace.push(TraceEvent::Enqueued {
                    corr: msg.corr,
                    pid: dest.pid,
                    msg_type: msg.header.msg_type,
                    forwarded: msg.header.flags.contains(MsgFlags::FORWARDED),
                    hops: msg.header.hops,
                });
                if let Some(proc) = self.procs.get_mut(&dest.pid) {
                    proc.queue.push_back(Queued::Message(msg));
                    self.wake(dest.pid);
                }
            }
            return;
        }
        // 2. Kernel-addressed messages.
        if dest.pid.is_kernel() {
            if dest.pid.kernel_machine() == Some(self.machine) {
                self.handle_kernel_msg(now, msg, phys, out);
            } else if let Some(m) = dest.pid.kernel_machine() {
                self.transmit(now, m, &msg, phys);
            }
            return;
        }
        // 3. Not local: route towards the location hint — unless the hint
        //    names a machine this kernel has confirmed dead *and* recovery
        //    has installed a local forwarding entry, in which case fall
        //    through to step 4 so the stale hint is repaired here (a dead
        //    machine can never run its own forwarding addresses).
        if dest.last_known_machine != self.machine {
            let reroute = self.cfg.forwarding
                && self.dead.contains(&dest.last_known_machine)
                && self.forwarding.contains_key(&dest.pid);
            if !reroute {
                self.transmit(now, dest.last_known_machine, &msg, phys);
                return;
            }
        }
        // 4. Addressed here but absent: forwarding address? (§4)
        if self.cfg.forwarding {
            if let Some(entry) = self.forwarding.get_mut(&dest.pid) {
                entry.forwards += 1;
                let to = entry.to;
                self.stats.forwarded += 1;
                out.trace.push(TraceEvent::ForwardedMessage {
                    corr: msg.corr,
                    pid: dest.pid,
                    to,
                    msg_type: msg.header.msg_type,
                });
                msg.header.dest = dest.rehomed(to);
                msg.header.flags = msg.header.flags | MsgFlags::FORWARDED;
                msg.header.hops = msg.header.hops.saturating_add(1);
                // §5 by-product: tell the sender's kernel where the process
                // went so it can patch the sender's links.
                let sender = msg.header.src;
                let sender_machine = msg.header.src_machine;
                let from_kernel = msg.header.flags.contains(MsgFlags::FROM_KERNEL);
                if !from_kernel && !sender.is_kernel() {
                    self.stats.link_updates_sent += 1;
                    out.trace.push(TraceEvent::LinkUpdateSent {
                        corr: msg.corr,
                        sender,
                        migrated: dest.pid,
                        new_machine: to,
                    });
                    // The §5 by-product inherits the chased message's
                    // correlation id: cause (forwarded message) and effect
                    // (link repair) are one traced journey.
                    self.send_to_kernel(
                        now,
                        sender_machine,
                        tags::LINK_MAINT,
                        &LinkMaintMsg::LinkUpdate {
                            sender,
                            migrated: dest.pid,
                            new_machine: to,
                        },
                        msg.corr,
                        phys,
                        out,
                    );
                }
                self.submit(now, msg, phys, out);
                return;
            }
        }
        // 5. Non-deliverable (dead process — or the ablation mode, §4).
        self.stats.nondeliverable += 1;
        out.trace.push(TraceEvent::NonDeliverable {
            corr: msg.corr,
            pid: dest.pid,
            msg_type: msg.header.msg_type,
        });
        let sender = msg.header.src;
        if !msg.header.flags.contains(MsgFlags::FROM_KERNEL) && !sender.is_kernel() {
            let reason = if self.cfg.forwarding { 0 } else { 1 };
            let notice = Message {
                header: MsgHeader {
                    dest: sender.at(msg.header.src_machine),
                    src: self.kernel_pid(),
                    src_machine: self.machine,
                    msg_type: tags::LINK_MAINT,
                    flags: MsgFlags::DELIVER_TO_KERNEL | MsgFlags::FROM_KERNEL,
                    hops: 0,
                },
                links: vec![],
                payload: LinkMaintMsg::NonDeliverable {
                    dest: dest.pid,
                    msg_type: msg.header.msg_type,
                    reason,
                }
                .to_bytes(),
                corr: CorrId::NONE,
            };
            self.submit(now, notice, phys, out);
        }
    }

    /// First step of every submission: count it and settle its
    /// correlation id. Causal tracing: the first kernel to see a message
    /// stamps it with a fresh id. Resubmissions (forwarding, pending-queue
    /// flush in step 6) and network arrivals already carry one, so the id
    /// identifies the message's whole journey across machines.
    fn count_submitted(&mut self, corr: CorrId, header: &MsgHeader, out: &mut Outbox) -> CorrId {
        self.stats.submitted += 1;
        if !corr.is_none() {
            return corr;
        }
        let corr = CorrId::new(self.machine, self.next_corr);
        self.next_corr += 1;
        out.trace.push(TraceEvent::Submitted {
            corr,
            dest: header.dest.pid,
            msg_type: header.msg_type,
        });
        corr
    }

    /// Send a kernel-to-kernel protocol message whose payload is `body`,
    /// under `corr` ([`CorrId::NONE`] for a fresh journey).
    ///
    /// Bound for another machine this takes the steps [`Kernel::submit`]
    /// takes for such a message — count, stamp, transmit — but writes
    /// header and body once into the buffer the channel will carry
    /// ([`Message::encode_with_body`]) instead of body → payload → frame.
    /// Every other case goes through `submit` itself.
    #[allow(clippy::too_many_arguments)]
    fn send_to_kernel<B: Wire>(
        &mut self,
        now: Time,
        to: MachineId,
        msg_type: u16,
        body: &B,
        corr: CorrId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let dest = ProcessAddress::kernel_of(to);
        if to == self.machine || self.procs.contains_key(&dest.pid) {
            let mut msg = self.kernel_msg(dest, msg_type, body.to_bytes(), vec![]);
            msg.corr = corr;
            self.submit(now, msg, phys, out);
            return;
        }
        let header = self.kernel_header(dest, msg_type);
        let corr = self.count_submitted(corr, &header, out);
        let bytes = Message::encode_with_body(&header, &[], body);
        let first = bytes.get(bytes.len() - body.wire_len()).copied();
        self.account_transmit(to, &header, bytes.len(), first);
        self.send_encoded(now, to, bytes, corr, phys);
    }

    /// Header of a kernel-originated message.
    fn kernel_header(&self, dest: ProcessAddress, msg_type: u16) -> MsgHeader {
        MsgHeader {
            dest,
            src: self.kernel_pid(),
            src_machine: self.machine,
            msg_type,
            flags: MsgFlags::FROM_KERNEL,
            hops: 0,
        }
    }

    /// Build a kernel-originated message.
    fn kernel_msg(
        &self,
        dest: ProcessAddress,
        msg_type: u16,
        payload: Bytes,
        links: Vec<Link>,
    ) -> Message {
        Message {
            header: self.kernel_header(dest, msg_type),
            links,
            payload,
            corr: CorrId::NONE,
        }
    }

    /// Send a migration protocol message to another machine's kernel
    /// (used by the `demos-core` migration engine).
    pub fn send_migrate_msg(
        &mut self,
        now: Time,
        to: MachineId,
        payload: Bytes,
        links: Vec<Link>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let msg = self.kernel_msg(ProcessAddress::kernel_of(to), tags::MIGRATE, payload, links);
        self.submit(now, msg, phys, out);
    }

    /// Send an arbitrary kernel-originated message to a process address
    /// (used by the migration engine for the `Done` notification, which
    /// travels over the requester's reply link).
    pub fn send_kernel_to(
        &mut self,
        now: Time,
        link: Link,
        msg_type: u16,
        payload: Bytes,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let mut flags = MsgFlags::FROM_KERNEL;
        if link.is_dtk() {
            flags = flags | MsgFlags::DELIVER_TO_KERNEL;
        }
        let msg = Message {
            header: MsgHeader {
                dest: link.addr,
                src: self.kernel_pid(),
                src_machine: self.machine,
                msg_type,
                flags,
                hops: 0,
            },
            links: vec![],
            payload,
            corr: CorrId::NONE,
        };
        self.submit(now, msg, phys, out);
    }

    // ------------------------------------------------------------------
    // Control operations (DELIVERTOKERNEL receives, §2.2)
    // ------------------------------------------------------------------

    fn handle_control(
        &mut self,
        now: Time,
        pid: ProcessId,
        msg: Message,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        match msg.header.msg_type {
            tags::KERNEL_OP => {
                let Ok(op) = KernelOp::from_bytes(&msg.payload) else {
                    return;
                };
                match op {
                    KernelOp::Suspend => self.suspend(pid),
                    KernelOp::Resume => self.resume(pid),
                    KernelOp::Kill => self.kill(now, pid, phys, out),
                    KernelOp::QueryStatus => {
                        if let Some(reply) = msg.links.first() {
                            let payload = self.encode_status(pid);
                            self.send_kernel_to(now, *reply, tags::KERNEL_OP, payload, phys, out);
                        }
                    }
                    KernelOp::MigrateRequest { .. } => {
                        // Policy and protocol live in the migration engine.
                        out.migration_inbox.push(msg);
                    }
                }
            }
            tags::MOVE_DATA => {
                let Ok(m) = MoveDataMsg::from_bytes(&msg.payload) else {
                    return;
                };
                self.handle_user_movedata_request(now, pid, &msg, m, phys, out);
            }
            tags::LINK_MAINT => {
                if let Ok(LinkMaintMsg::NonDeliverable {
                    dest,
                    msg_type,
                    reason,
                }) = LinkMaintMsg::from_bytes(&msg.payload)
                {
                    // Mark the sender's links dead and tell the program.
                    if let Some(proc) = self.procs.get_mut(&pid) {
                        proc.links.mark_dead(dest);
                    }
                    let payload = Bytes::filled(dest.wire_len() + 3, |out| {
                        dest.encode(out);
                        out.put_u16(msg_type);
                        out.put_u8(reason);
                    });
                    let notice = self.synthetic_msg(pid, local_tags::NON_DELIVERABLE, payload);
                    self.enqueue_local_quiet(pid, notice);
                    self.wake(pid);
                }
            }
            _ => {
                // A DELIVERTOKERNEL message with an unknown control tag:
                // dropped (traced as kernel-received above).
            }
        }
    }

    fn encode_status(&self, pid: ProcessId) -> Bytes {
        match self.procs.get(&pid) {
            Some(p) => Bytes::filled(5 + MachineId::WIRE_LEN, |buf| {
                buf.put_u8(1);
                buf.put_u8(match p.status {
                    ExecStatus::Ready => 0,
                    ExecStatus::Waiting => 1,
                    ExecStatus::Suspended => 2,
                });
                buf.put_u8(p.in_migration as u8);
                buf.put_u16(p.queue.len() as u16);
                self.machine.encode(buf);
            }),
            None => Bytes::from_static(&[0]),
        }
    }

    /// Suspend a process (take it off the run queue; messages accumulate).
    pub fn suspend(&mut self, pid: ProcessId) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.status = ExecStatus::Suspended;
        }
    }

    /// Resume a suspended process.
    pub fn resume(&mut self, pid: ProcessId) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            if proc.status == ExecStatus::Suspended {
                proc.status = if proc.queue.is_empty() && proc.started {
                    ExecStatus::Waiting
                } else {
                    ExecStatus::Ready
                };
                self.schedule(pid);
            }
        }
    }

    /// Destroy a process, reclaim its memory, abort its move-data
    /// operations, and (if enabled) start forwarding-address garbage
    /// collection along the migration path (§4).
    pub fn kill(&mut self, now: Time, pid: ProcessId, phys: &mut dyn Phys, out: &mut Outbox) {
        let Some(proc) = self.procs.remove(&pid) else {
            return;
        };
        self.mem_used = self.mem_used.saturating_sub(proc.image.total_len() as u64);
        self.stats.exited += 1;
        out.trace.push(TraceEvent::Exited { pid });
        let mut actions = self.md.abort_ops_touching(pid);
        self.apply_md_actions(now, &mut actions, phys, out);
        if self.cfg.gc_forwarding {
            if let Some(prev) = proc.migrated_from {
                let notice = LinkMaintMsg::DeathNotice { pid };
                self.send_to_kernel(
                    now,
                    prev,
                    tags::LINK_MAINT,
                    &notice,
                    CorrId::NONE,
                    phys,
                    out,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Kernel-addressed messages
    // ------------------------------------------------------------------

    fn handle_kernel_msg(
        &mut self,
        now: Time,
        msg: Message,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        match msg.header.msg_type {
            tags::MIGRATE => out.migration_inbox.push(msg),
            tags::MOVE_DATA => {
                let Ok(m) = MoveDataMsg::from_bytes(&msg.payload) else {
                    return;
                };
                match m {
                    MoveDataMsg::ReadReq {
                        op,
                        target,
                        sel,
                        offset,
                        len,
                    } => {
                        self.serve_kernel_read(now, &msg, op, target, sel, offset, len, phys, out);
                    }
                    MoveDataMsg::WriteReq { op, .. } => {
                        // Kernel-addressed writes are not part of any
                        // protocol we speak; refuse.
                        let a = self.md.abort_reply(op, msg.header.src_machine, 2);
                        self.apply_md_actions(now, &mut vec![a], phys, out);
                    }
                    other @ (MoveDataMsg::Data { .. }
                    | MoveDataMsg::Ack { .. }
                    | MoveDataMsg::Done { .. }
                    | MoveDataMsg::Abort { .. }) => {
                        // A nested packet (a local peer) finds the list
                        // taken and starts a fresh one; only capacity is
                        // at stake.
                        let mut actions = std::mem::take(&mut self.md_actions);
                        self.md
                            .on_msg_into(msg.header.src_machine, other, &mut actions);
                        self.apply_md_actions(now, &mut actions, phys, out);
                        self.md_actions = actions;
                    }
                }
            }
            tags::LINK_MAINT => {
                let Ok(m) = LinkMaintMsg::from_bytes(&msg.payload) else {
                    return;
                };
                match m {
                    LinkMaintMsg::LinkUpdate {
                        sender,
                        migrated,
                        new_machine,
                    } => {
                        self.stats.link_updates_applied += 1;
                        if let Some(proc) = self.procs.get_mut(&sender) {
                            let patched = proc.links.rehome_links_to(migrated, new_machine);
                            self.stats.links_patched += patched as u64;
                            out.trace.push(TraceEvent::LinkUpdateApplied {
                                corr: msg.corr,
                                sender,
                                migrated,
                                patched,
                            });
                        }
                    }
                    LinkMaintMsg::DeathNotice { pid } => {
                        if let Some(entry) = self.forwarding.remove(&pid) {
                            out.trace.push(TraceEvent::ForwardingCollected { pid });
                            if let Some(prev) = entry.prev {
                                let notice = LinkMaintMsg::DeathNotice { pid };
                                self.send_to_kernel(
                                    now,
                                    prev,
                                    tags::LINK_MAINT,
                                    &notice,
                                    CorrId::NONE,
                                    phys,
                                    out,
                                );
                            }
                        }
                    }
                    LinkMaintMsg::NonDeliverable { .. } => {
                        // Addressed to a kernel only when the original
                        // sender was a kernel; our kernel protocols carry
                        // their own failure handling. Ignore.
                    }
                    LinkMaintMsg::Heartbeat { .. } => {
                        // Liveness was already refreshed when the frame
                        // arrived (`peer_heard`); the message itself just
                        // counts.
                        self.det_stats.beats_received += 1;
                    }
                }
            }
            local_tags::KERNEL_MGMT => {
                self.handle_mgmt(now, msg, phys, out);
            }
            _ => {}
        }
    }

    fn handle_mgmt(&mut self, now: Time, msg: Message, phys: &mut dyn Phys, out: &mut Outbox) {
        use crate::mgmt::KernelMgmt;
        let Ok(m) = KernelMgmt::from_bytes(&msg.payload) else {
            return;
        };
        if let KernelMgmt::CreateProcess {
            token,
            name,
            state,
            layout,
            privileged,
        } = m
        {
            let Some(reply) = msg.links.first().copied() else {
                return;
            };
            match self.spawn(now, &name, &state, layout, privileged, out) {
                Ok(pid) => {
                    let link = Link::to(pid.at(self.machine));
                    let reply_msg = Message {
                        header: MsgHeader {
                            dest: reply.addr,
                            src: self.kernel_pid(),
                            src_machine: self.machine,
                            msg_type: local_tags::KERNEL_MGMT,
                            flags: MsgFlags::FROM_KERNEL,
                            hops: 0,
                        },
                        links: vec![link],
                        payload: KernelMgmt::Created { token, pid }.to_bytes(),
                        corr: CorrId::NONE,
                    };
                    self.submit(now, reply_msg, phys, out);
                }
                Err(e) => {
                    let reason = match e {
                        DemosError::Capacity(_) => 0,
                        DemosError::UnknownProgram(_) => 1,
                        // Exhaustive: a new error variant must consciously
                        // pick its CreateFailed reason code.
                        DemosError::NoSuchMachine(_)
                        | DemosError::NoSuchProcess(_)
                        | DemosError::BadLink(_)
                        | DemosError::LinkAccess { .. }
                        | DemosError::ReplyLinkConsumed(_)
                        | DemosError::AreaOutOfBounds
                        | DemosError::AlreadyMigrating(_)
                        | DemosError::MigrationRejected(_)
                        | DemosError::MigrationAborted(_)
                        | DemosError::MigrationToSelf(_)
                        | DemosError::KernelImmovable(_)
                        | DemosError::NonDeliverable(_)
                        | DemosError::TooLarge { .. }
                        | DemosError::Wire(_)
                        | DemosError::Internal(_) => 2,
                    };
                    let reply_msg = Message {
                        header: MsgHeader {
                            dest: reply.addr,
                            src: self.kernel_pid(),
                            src_machine: self.machine,
                            msg_type: local_tags::KERNEL_MGMT,
                            flags: MsgFlags::FROM_KERNEL,
                            hops: 0,
                        },
                        links: vec![],
                        payload: KernelMgmt::CreateFailed { token, reason }.to_bytes(),
                        corr: CorrId::NONE,
                    };
                    self.submit(now, reply_msg, phys, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Move-data plumbing
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn serve_kernel_read(
        &mut self,
        now: Time,
        msg: &Message,
        op: u16,
        target: ProcessId,
        sel: AreaSel,
        offset: u32,
        len: u32,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let requester = msg.header.src_machine;
        let from_kernel = msg.header.flags.contains(MsgFlags::FROM_KERNEL);
        let mut actions = match self.read_area(target, sel, offset, len, None, from_kernel) {
            Ok(data) => self.md.begin_serve(op, requester, data),
            Err(_) => vec![self.md.abort_reply(op, requester, 2)],
        };
        self.apply_md_actions(now, &mut actions, phys, out);
    }

    /// Read an area of `pid` for a move-data serve. Migration selectors
    /// require a kernel requester and a frozen process; `LinkArea` is
    /// validated against `link`.
    pub fn read_area(
        &mut self,
        pid: ProcessId,
        sel: AreaSel,
        offset: u32,
        len: u32,
        link: Option<&Link>,
        from_kernel: bool,
    ) -> Result<Bytes> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(DemosError::NoSuchProcess(pid))?;
        match sel {
            AreaSel::Resident => {
                if !from_kernel || !proc.in_migration {
                    return Err(DemosError::Internal(
                        "resident read requires migration authority",
                    ));
                }
                Ok(Bytes::filled(proc.resident_len(), |out| {
                    proc.encode_resident(out)
                }))
            }
            AreaSel::Swappable => {
                if !from_kernel || !proc.in_migration {
                    return Err(DemosError::Internal(
                        "swappable read requires migration authority",
                    ));
                }
                Ok(Bytes::filled(proc.swappable_len(), |out| {
                    proc.encode_swappable(out)
                }))
            }
            AreaSel::Image => {
                if !from_kernel || !proc.in_migration {
                    return Err(DemosError::Internal(
                        "image read requires migration authority",
                    ));
                }
                Ok(proc.image.shared_flat())
            }
            AreaSel::LinkArea => {
                let link = link.ok_or(DemosError::Internal("LinkArea read without link"))?;
                let area = link.area.ok_or(DemosError::AreaOutOfBounds)?;
                if link.target() != pid
                    || !link.attrs.contains(demos_types::LinkAttrs::DATA_READ)
                    || !area.contains_range(offset, len)
                {
                    return Err(DemosError::AreaOutOfBounds);
                }
                // Serve *live* memory: re-serialize the program state into
                // the data segment so the reader sees current contents.
                proc.refresh_image();
                proc.image
                    .read_data(offset, len)
                    .map(Bytes::copy_from_slice)
                    .ok_or(DemosError::AreaOutOfBounds)
            }
        }
    }

    /// Handle a user-level move-data request that arrived over a
    /// `DELIVERTOKERNEL` link addressed to `pid` (§2.2).
    fn handle_user_movedata_request(
        &mut self,
        now: Time,
        pid: ProcessId,
        msg: &Message,
        m: MoveDataMsg,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let requester = msg.header.src_machine;
        match m {
            MoveDataMsg::ReadReq {
                op,
                sel: AreaSel::LinkArea,
                offset,
                len,
                ..
            } => {
                let link = msg.links.first().copied();
                let mut actions =
                    match self.read_area(pid, AreaSel::LinkArea, offset, len, link.as_ref(), false)
                    {
                        Ok(data) => self.md.begin_serve(op, requester, data),
                        Err(_) => vec![self.md.abort_reply(op, requester, 2)],
                    };
                self.apply_md_actions(now, &mut actions, phys, out);
            }
            MoveDataMsg::WriteReq {
                op,
                sel: AreaSel::LinkArea,
                offset,
                len,
                ..
            } => {
                let ok = msg.links.first().is_some_and(|link| {
                    link.target() == pid
                        && link.attrs.contains(demos_types::LinkAttrs::DATA_WRITE)
                        && link.area.is_some_and(|a| a.contains_range(offset, len))
                });
                let action = if ok {
                    self.md.accept_push(op, requester, pid, offset, len)
                } else {
                    self.md.abort_reply(op, requester, 2)
                };
                self.apply_md_actions(now, &mut vec![action], phys, out);
            }
            // A request with a migration selector over a user link is
            // refused.
            MoveDataMsg::ReadReq { op, .. } | MoveDataMsg::WriteReq { op, .. } => {
                let a = self.md.abort_reply(op, requester, 2);
                self.apply_md_actions(now, &mut vec![a], phys, out);
            }
            // Data/Ack/Done/Abort never travel DTK.
            MoveDataMsg::Data { .. }
            | MoveDataMsg::Ack { .. }
            | MoveDataMsg::Done { .. }
            | MoveDataMsg::Abort { .. } => {}
        }
    }

    /// Start a user-level move-data operation for local process `pid`.
    fn start_user_movedata(
        &mut self,
        now: Time,
        pid: ProcessId,
        req: MoveDataReq,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let fail = |kernel: &mut Kernel, status: u8| {
            let payload = encode_md_done(req.token, status, 0);
            let notice = kernel.synthetic_msg(pid, local_tags::MOVE_DATA_DONE, payload);
            kernel.enqueue_local_quiet(pid, notice);
            kernel.wake(pid);
        };
        let Some(proc) = self.procs.get(&pid) else {
            return;
        };
        let Ok(link) = proc.links.get(req.link) else {
            fail(self, 2);
            return;
        };
        let Some(area) = link.area else {
            fail(self, 2);
            return;
        };
        let abs = area.offset.saturating_add(req.remote_off);
        if !area.contains_range(abs, req.len) {
            fail(self, 2);
            return;
        }
        if req.read {
            let (_op, readreq) = self.md.start_pull(
                PullPurpose::ProcessRead {
                    pid,
                    local_off: req.local_off,
                    token: req.token,
                },
                link.target(),
                AreaSel::LinkArea,
                abs,
                req.len,
            );
            let msg = Message {
                header: MsgHeader {
                    dest: link.addr,
                    src: pid,
                    src_machine: self.machine,
                    msg_type: tags::MOVE_DATA,
                    flags: MsgFlags::DELIVER_TO_KERNEL,
                    hops: 0,
                },
                links: vec![link],
                payload: readreq.to_bytes(),
                corr: CorrId::NONE,
            };
            self.submit(now, msg, phys, out);
        } else {
            let Some(proc) = self.procs.get(&pid) else {
                return;
            };
            let Some(data) = proc.image.read_data(req.local_off, req.len) else {
                fail(self, 2);
                return;
            };
            let data = Bytes::copy_from_slice(data);
            let (_op, writereq) = self.md.start_push(
                (pid, req.token),
                data,
                link.target(),
                AreaSel::LinkArea,
                abs,
            );
            let msg = Message {
                header: MsgHeader {
                    dest: link.addr,
                    src: pid,
                    src_machine: self.machine,
                    msg_type: tags::MOVE_DATA,
                    flags: MsgFlags::DELIVER_TO_KERNEL,
                    hops: 0,
                },
                links: vec![link],
                payload: writereq.to_bytes(),
                corr: CorrId::NONE,
            };
            self.submit(now, msg, phys, out);
        }
    }

    /// Carry out actions returned by the move-data engine, leaving the
    /// list empty (and its capacity with the caller).
    fn apply_md_actions(
        &mut self,
        now: Time,
        actions: &mut Vec<MdAction>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        for a in actions.drain(..) {
            match a {
                MdAction::Send { to, msg } => {
                    self.send_to_kernel(now, to, tags::MOVE_DATA, &msg, CorrId::NONE, phys, out);
                }
                MdAction::WriteProcess { pid, off, bytes } => {
                    if let Some(proc) = self.procs.get_mut(&pid) {
                        let ok = proc.image.write_data(off, &bytes);
                        debug_assert!(ok, "validated window writes must fit");
                        if let Some(program) = proc.program.as_mut() {
                            program.on_data_write(off, &bytes);
                        }
                    }
                }
                MdAction::PullDone {
                    purpose,
                    op,
                    data,
                    status,
                } => match purpose {
                    PullPurpose::Kernel { cookie } => {
                        out.trace.push(TraceEvent::MoveDataDone {
                            op,
                            bytes: data.len() as u64,
                            status,
                        });
                        out.pull_done.push(KernelPullDone {
                            cookie,
                            op,
                            data,
                            status,
                        });
                    }
                    PullPurpose::ProcessRead {
                        pid,
                        local_off,
                        token,
                    } => {
                        let mut final_status = status;
                        let len = data.len() as u32;
                        if status == 0 {
                            if let Some(proc) = self.procs.get_mut(&pid) {
                                if !proc.image.write_data(local_off, &data) {
                                    final_status = 2;
                                }
                            } else {
                                final_status = 3;
                            }
                        }
                        let payload = encode_md_done(token, final_status, len);
                        let notice = self.synthetic_msg(pid, local_tags::MOVE_DATA_DONE, payload);
                        self.enqueue_local_quiet(pid, notice);
                        self.wake(pid);
                    }
                },
                MdAction::PushDone {
                    pid,
                    token,
                    status,
                    len,
                } => {
                    let payload = encode_md_done(token, status, len);
                    let notice = self.synthetic_msg(pid, local_tags::MOVE_DATA_DONE, payload);
                    self.enqueue_local_quiet(pid, notice);
                    self.wake(pid);
                }
            }
        }
    }

    /// Start a kernel-purpose pull (migration state transfer) from
    /// `source_machine`'s kernel. Completion arrives in
    /// [`Outbox::pull_done`] with `cookie`. `expect` is the area's size as
    /// the accepted offer announced it; the reassembly buffer grows to
    /// exactly that (see [`MoveData::start_pull_sized`]), so pass only
    /// what [`Kernel::reserve_incoming`] admitted.
    #[allow(clippy::too_many_arguments)]
    pub fn start_kernel_pull(
        &mut self,
        now: Time,
        cookie: u64,
        target: ProcessId,
        source_machine: MachineId,
        sel: AreaSel,
        expect: u32,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> u16 {
        let (op, readreq) = self.md.start_pull_sized(
            PullPurpose::Kernel { cookie },
            target,
            sel,
            0,
            0,
            expect as usize,
        );
        self.send_to_kernel(
            now,
            source_machine,
            tags::MOVE_DATA,
            &readreq,
            CorrId::NONE,
            phys,
            out,
        );
        op
    }

    // ------------------------------------------------------------------
    // Migration mechanisms (composed by the demos-core engine)
    // ------------------------------------------------------------------

    /// Step 1: remove the process from execution and mark it "in
    /// migration". Arriving messages (including `DELIVERTOKERNEL` ones)
    /// are held on its queue. Active move-data operations touching the
    /// process are aborted (their initiators see an error and may retry).
    pub fn freeze_for_migration(
        &mut self,
        now: Time,
        pid: ProcessId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Result<MigrationSizes> {
        if pid.is_kernel() {
            return Err(DemosError::KernelImmovable(self.machine));
        }
        {
            let proc = self
                .procs
                .get_mut(&pid)
                .ok_or(DemosError::NoSuchProcess(pid))?;
            if proc.in_migration {
                return Err(DemosError::AlreadyMigrating(pid));
            }
            proc.check_record_counts()?;
            proc.in_migration = true;
            proc.refresh_image();
        }
        let mut actions = self.md.abort_ops_touching(pid);
        self.apply_md_actions(now, &mut actions, phys, out);
        let Some(proc) = self.procs.get(&pid) else {
            return Err(DemosError::NoSuchProcess(pid));
        };
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Frozen,
            bytes: 0,
        });
        Ok(MigrationSizes {
            resident: proc.resident_len() as u32,
            swappable: proc.swappable_len() as u32,
            image: proc.image.flat_len() as u32,
            queued: proc.queue.len() as u16,
        })
    }

    /// Abort a migration: thaw the process at the source.
    pub fn unfreeze(&mut self, pid: ProcessId, out: &mut Outbox) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.in_migration = false;
            out.trace.push(TraceEvent::Migration {
                pid,
                phase: MigrationPhase::Aborted,
                bytes: 0,
            });
            self.schedule(pid);
        }
    }

    /// Step 3 (destination): reserve capacity for an incoming process.
    /// Returns a slot id; release with [`Kernel::release_reservation`] on
    /// failure. Reservations count against memory and process capacity.
    pub fn reserve_incoming(&mut self, pid: ProcessId, image_len: u64) -> Result<u16> {
        if self.procs.contains_key(&pid) {
            return Err(DemosError::AlreadyMigrating(pid));
        }
        if self.procs.len() + self.reserved.len() >= self.cfg.max_processes {
            return Err(DemosError::Capacity(self.machine));
        }
        if self.mem_used + image_len > self.cfg.mem_capacity {
            return Err(DemosError::Capacity(self.machine));
        }
        // The counter wraps: skip slots still reserved, or the older
        // reservation's bytes are orphaned in `mem_used`. `reserved` holds
        // fewer than `max_processes` entries, so the scan is short.
        while self.reserved.contains_key(&self.next_slot) {
            self.next_slot = self.next_slot.wrapping_add(1).max(1);
        }
        let slot = self.next_slot;
        self.next_slot = slot.wrapping_add(1).max(1);
        self.mem_used += image_len;
        self.reserved.insert(slot, image_len);
        Ok(slot)
    }

    /// Release a reservation made by [`Kernel::reserve_incoming`].
    pub fn release_reservation(&mut self, slot: u16) {
        if let Some(bytes) = self.reserved.remove(&slot) {
            self.mem_used = self.mem_used.saturating_sub(bytes);
        }
    }

    /// Steps 4–5 complete (destination): construct the process from the
    /// three transferred blobs against reservation `slot`. All three are
    /// taken by value, in the buffers the packets were written into: the
    /// records are decoded from theirs, and the image's is the one the
    /// process runs on. The process is *not* yet scheduled;
    /// call [`Kernel::restart_migrated`] (step 8) once the source has
    /// confirmed cleanup.
    #[allow(clippy::too_many_arguments)]
    pub fn install_migrated(
        &mut self,
        now: Time,
        slot: u16,
        from: MachineId,
        resident: Vec<u8>,
        swappable: Vec<u8>,
        image_flat: Vec<u8>,
        out: &mut Outbox,
    ) -> Result<ProcessId> {
        let _ = now;
        let image = ProcessImage::from_flat_vec(image_flat).map_err(DemosError::Wire)?;
        self.install_image(slot, from, resident.into(), swappable.into(), image, out)
    }

    /// The install core shared by migration and checkpoint restore: the
    /// image arrives parsed, whichever way its bytes got here.
    pub(crate) fn install_image(
        &mut self,
        slot: u16,
        from: MachineId,
        resident: Bytes,
        swappable: Bytes,
        image: ProcessImage,
        out: &mut Outbox,
    ) -> Result<ProcessId> {
        let transferred = resident.len() + swappable.len() + image.flat_len();
        let mut proc =
            Process::from_migrated(resident, swappable, image).map_err(DemosError::Wire)?;
        proc.instantiate(&self.registry)?;
        proc.migrated_from = Some(from);
        proc.migrations += 1;
        let pid = proc.pid;
        // Swap the reservation for the real memory accounting.
        let reserved = self.reserved.remove(&slot).unwrap_or(0);
        self.mem_used = self.mem_used.saturating_sub(reserved);
        self.mem_used += proc.image.total_len() as u64;
        // The process may have migrated away from here earlier and come
        // back: drop any stale forwarding address so delivery finds it.
        self.forwarding.remove(&pid);
        // Hold execution until step 8.
        proc.in_migration = true;
        // A migrated-in process can arrive with live timers; index them.
        if let Some(t) = proc.next_timer() {
            self.timer_heap.push(Reverse((t, pid)));
        }
        self.procs.insert(pid, proc);
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::ImageTransferred,
            bytes: transferred as u64,
        });
        Ok(pid)
    }

    /// Step 8 (destination): restart the process "in whatever state it was
    /// in before being migrated".
    pub fn restart_migrated(&mut self, pid: ProcessId, out: &mut Outbox) -> Result<()> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(DemosError::NoSuchProcess(pid))?;
        proc.in_migration = false;
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Restarted,
            bytes: 0,
        });
        self.schedule(pid);
        Ok(())
    }

    /// Steps 6–7 (source): forward every pending message to `dest` with a
    /// rewritten location hint, remove the process state, reclaim memory,
    /// and leave a forwarding address. Returns the number of messages
    /// forwarded.
    pub fn finish_source_side(
        &mut self,
        now: Time,
        pid: ProcessId,
        dest: MachineId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Result<u16> {
        let mut proc = self
            .procs
            .remove(&pid)
            .ok_or(DemosError::NoSuchProcess(pid))?;
        debug_assert!(proc.in_migration, "finish_source_side on unfrozen process");
        let forwarded = proc.queue.len() as u16;
        // Step 6: "the source kernel changes the location part of the
        // process address to reflect the new location" and resends. A
        // timer that fired here but was not yet handled follows as the
        // `TIMER` message this kernel sends itself.
        for entry in proc.queue.drain(..) {
            let mut m = match entry {
                Queued::Message(m) => m,
                Queued::Timer(token) => {
                    self.synthetic_msg(pid, local_tags::TIMER, encode_timer_token(token))
                }
            };
            m.header.dest = m.header.dest.rehomed(dest);
            m.header.hops = m.header.hops.saturating_add(1);
            self.submit(now, m, phys, out);
        }
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::PendingForwarded,
            bytes: 0,
        });
        // Step 7: reclaim, install the forwarding address.
        self.mem_used = self.mem_used.saturating_sub(proc.image.total_len() as u64);
        self.forwarding.insert(
            pid,
            ForwardEntry {
                to: dest,
                prev: proc.migrated_from,
                forwards: 0,
            },
        );
        out.trace
            .push(TraceEvent::ForwardingInstalled { pid, to: dest });
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::CleanedUp,
            bytes: 0,
        });
        Ok(forwarded)
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("machine", &self.machine)
            .field("procs", &self.procs.keys().collect::<Vec<_>>())
            .field("forwarding", &self.forwarding)
            .field("runq", &self.run_queue)
            .finish()
    }
}

fn encode_timer_token(token: u64) -> Bytes {
    Bytes::copy_from_slice(&token.to_be_bytes())
}

fn decode_timer_token(payload: &Bytes) -> u64 {
    let mut b = [0u8; 8];
    if payload.len() == 8 {
        b.copy_from_slice(payload);
    }
    u64::from_be_bytes(b)
}

/// Encode a `MOVE_DATA_DONE` payload: token, status, length.
pub fn encode_md_done(token: u16, status: u8, len: u32) -> Bytes {
    Bytes::filled(7, |buf| {
        buf.put_u16(token);
        buf.put_u8(status);
        buf.put_u32(len);
    })
}

/// Decode a `MOVE_DATA_DONE` payload.
pub fn decode_md_done(payload: &Bytes) -> Option<(u16, u8, u32)> {
    let mut b = payload.clone();
    if b.remaining() < 7 {
        return None;
    }
    Some((b.get_u16(), b.get_u8(), b.get_u32()))
}
