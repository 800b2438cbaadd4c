//! A node: one machine's kernel plus its migration engine.
//!
//! The simulation loop drives [`Node`]s, not bare kernels: every kernel
//! entry point is wrapped so that migration-protocol messages and
//! state-transfer completions surfaced in the kernel [`Outbox`] are fed to
//! the [`MigrationEngine`] before control returns — including any produced
//! recursively while the engine itself acts on the kernel.

use demos_kernel::{Kernel, KernelConfig, KernelPullDone, Outbox, Registry};
use demos_net::{Frame, Phys};
use demos_types::{Duration, Link, MachineId, Message, ProcessId, Result, Time};

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::engine::{MigrationConfig, MigrationEngine};

/// One simulated processor: kernel + migration engine.
pub struct Node {
    /// The kernel (mechanisms).
    pub kernel: Kernel,
    /// The migration engine (protocol).
    pub engine: MigrationEngine,
    /// Dead-peer verdicts already relayed to the engine.
    notified_dead: BTreeSet<MachineId>,
    /// The batch [`Node::drain`] is feeding the engine, swapped with the
    /// outbox's lists so both keep their capacity between rounds.
    inbox: Vec<Message>,
    pulls: Vec<KernelPullDone>,
}

impl Node {
    /// Build a node for `machine`.
    pub fn new(
        machine: MachineId,
        kcfg: KernelConfig,
        mcfg: MigrationConfig,
        registry: Arc<Registry>,
    ) -> Self {
        Node {
            kernel: Kernel::new(machine, kcfg, registry),
            engine: MigrationEngine::new(machine, mcfg),
            notified_dead: BTreeSet::new(),
            inbox: Vec::new(),
            pulls: Vec::new(),
        }
    }

    /// This node's machine id.
    pub fn machine(&self) -> MachineId {
        self.kernel.machine()
    }

    /// Feed engine-bound items out of the outbox until quiescent.
    /// Each engine action may enqueue further items (e.g. a local
    /// migration request produces pulls whose completions re-enter here).
    fn drain(&mut self, now: Time, phys: &mut dyn Phys, out: &mut Outbox) {
        // Generously bounded: protocol chains are short; a bound turns a
        // hypothetical livelock into a visible failure.
        for _ in 0..10_000 {
            if out.migration_inbox.is_empty() && out.pull_done.is_empty() {
                return;
            }
            std::mem::swap(&mut self.inbox, &mut out.migration_inbox);
            std::mem::swap(&mut self.pulls, &mut out.pull_done);
            for m in self.inbox.drain(..) {
                self.engine.handle(now, &mut self.kernel, m, phys, out);
            }
            for p in self.pulls.drain(..) {
                self.engine
                    .on_pull_done(now, &mut self.kernel, p, phys, out);
            }
        }
        debug_assert!(false, "migration drain did not quiesce");
    }

    /// Transport frame arrived.
    pub fn on_frame(
        &mut self,
        now: Time,
        from: MachineId,
        frame: Frame,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        self.kernel.on_frame(now, from, frame, phys, out);
        self.drain(now, phys, out);
    }

    /// Submit a locally originated message.
    pub fn submit(&mut self, now: Time, msg: Message, phys: &mut dyn Phys, out: &mut Outbox) {
        self.kernel.submit(now, msg, phys, out);
        self.drain(now, phys, out);
    }

    /// Run one program activation.
    pub fn run_next(
        &mut self,
        now: Time,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Option<(ProcessId, Duration)> {
        let r = self.kernel.run_next(now, phys, out);
        self.drain(now, phys, out);
        r
    }

    /// Whether the run queue may hold work.
    pub fn has_runnable(&self) -> bool {
        self.kernel.has_runnable()
    }

    /// Earliest deadline across kernel timers, transport retransmissions
    /// and migration timeouts. Authoritative scan, kept for `&self`
    /// callers (the native runtime); the simulation hot loop uses
    /// [`Node::next_deadline`].
    pub fn next_timer_at(&self) -> Option<Time> {
        let engine = self.engine.next_timeout();
        self.kernel.next_timer_at().into_iter().chain(engine).min()
    }

    /// Indexed equivalent of [`Node::next_timer_at`]: O(log n) peeks over
    /// the kernel's lazy timer/retransmission heaps, plus the engine's
    /// scan over its (few) active migrations.
    pub fn next_deadline(&mut self) -> Option<Time> {
        let engine = self.engine.next_timeout();
        self.kernel.next_deadline().into_iter().chain(engine).min()
    }

    /// Fire due deadlines. Newly confirmed-dead peers (the detector
    /// reaches its verdict inside the kernel's timer path) are relayed to
    /// the migration engine so in-flight migrations touching a dead
    /// machine resolve immediately instead of timing out — an installed
    /// incoming copy would otherwise be killed by the timeout even though
    /// it is the last copy of the process.
    pub fn on_time(&mut self, now: Time, phys: &mut dyn Phys, out: &mut Outbox) {
        self.kernel.on_time(now, phys, out);
        let newly: Vec<MachineId> = self
            .kernel
            .dead_peers()
            .filter(|p| !self.notified_dead.contains(p))
            .collect();
        for peer in newly {
            self.notified_dead.insert(peer);
            self.engine
                .on_peer_dead(now, &mut self.kernel, peer, phys, out);
        }
        self.engine.on_time(now, &mut self.kernel, phys, out);
        self.drain(now, phys, out);
    }

    /// A crashed peer came back: clear the dead verdict (kernel) and the
    /// relay latch, so a second death of the same machine is reported to
    /// the engine again.
    ///
    /// The reboot is also this node's death certificate for the *old*
    /// incarnation: the fresh kernel remembers none of its migration
    /// contexts, so any in-flight migration with that peer is resolved
    /// exactly as a confirmed death would — an installed incoming copy
    /// is the last copy of its process and restarts here (the 10 s
    /// timeout would kill it), a partial transfer is dropped, an
    /// outgoing migration thaws and tells its requester. Without this, a peer
    /// that crashes and reboots *inside* the failure-detection window
    /// leaves the migration to the timeout's worst-case guess.
    pub fn peer_revived(
        &mut self,
        now: Time,
        peer: MachineId,
        epoch: u32,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        self.kernel.peer_revived(now, peer, epoch);
        self.notified_dead.remove(&peer);
        self.engine
            .on_peer_dead(now, &mut self.kernel, peer, phys, out);
        self.drain(now, phys, out);
    }

    /// Convenience for harnesses: migrate `pid` to `dest` directly,
    /// without a process-manager message (the paper's test setup — "the
    /// decision to move a particular process and the choice of destination
    /// were arbitrary", §3.1).
    pub fn migrate(
        &mut self,
        now: Time,
        pid: ProcessId,
        dest: MachineId,
        reply: Option<Link>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Result<()> {
        let r = self
            .engine
            .start_migration(now, &mut self.kernel, pid, dest, reply, phys, out);
        self.drain(now, phys, out);
        r
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("kernel", &self.kernel)
            .finish()
    }
}
