//! The cluster: a deterministic discrete-event simulation of a
//! loosely-coupled multiprocessor running one DEMOS/MP node per machine.
//!
//! Three event sources interleave on a single virtual clock:
//!
//! * **frame arrivals** from the simulated network;
//! * **kernel deadlines** (process timers, transport retransmissions,
//!   migration timeouts);
//! * **CPU completions** — each machine has one CPU; a program activation
//!   occupies it for the activation's virtual cost (optionally scaled by a
//!   per-machine degradation factor, used by the sinking-ship experiment).
//!
//! All ties break deterministically (machine order, network sequence
//! numbers), and all randomness in the network is seeded, so a run with
//! the same configuration replays identically — the property the replay
//! tests pin with trace fingerprints.

use std::collections::BTreeMap;
use std::sync::Arc;

use demos_core::{MigrationConfig, Node};
use demos_kernel::{ImageLayout, KernelConfig, Outbox, Registry};
use demos_net::{EdgeParams, SimNetwork, Topology};
use demos_obs::SeriesStore;
use demos_types::proto::KernelOp;
use demos_types::{
    tags, CorrId, DemosError, Duration, Link, MachineId, Message, MsgFlags, MsgHeader, ProcessId,
    Result, Time, Wire,
};

use demos_obs::FlightRecorder;

use crate::evindex::EventIndex;
use crate::flight::{self, DEFAULT_RECORDER_CAPACITY};
use crate::partition::ShardPlan;
use crate::recovery::{RecoveryConfig, RecoveryEpisode, RecoveryManager};
use crate::residency::{self, Residency};
use crate::shard::ShardStats;
use crate::trace::Trace;

/// How many machines a cluster can hold: a [`MachineId`] is 16 bits.
const MAX_MACHINES: usize = 1 << 16;

/// Cluster construction.
pub struct ClusterBuilder {
    topology: Topology,
    seed: u64,
    kernel: KernelConfig,
    migration: MigrationConfig,
    registry: Registry,
    trace: bool,
    sample: Option<Duration>,
    recovery: Option<RecoveryConfig>,
    recorder_capacity: usize,
    shards: usize,
}

impl ClusterBuilder {
    /// `n` machines on a full mesh with default edges.
    pub fn new(n: usize) -> Self {
        ClusterBuilder {
            topology: Topology::full_mesh(n, EdgeParams::default()),
            seed: 42,
            kernel: KernelConfig::default(),
            migration: MigrationConfig::default(),
            registry: crate::programs::registry(),
            trace: true,
            sample: None,
            recovery: None,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            shards: 1,
        }
    }

    /// Replace the topology (machine count comes from it).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Seed for all simulated randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Kernel configuration applied to every machine.
    pub fn kernel_config(mut self, cfg: KernelConfig) -> Self {
        self.kernel = cfg;
        self
    }

    /// Migration-engine configuration applied to every machine.
    pub fn migration_config(mut self, cfg: MigrationConfig) -> Self {
        self.migration = cfg;
        self
    }

    /// Register an additional program.
    pub fn register<F>(mut self, name: &str, ctor: F) -> Self
    where
        F: Fn(&[u8]) -> Box<dyn demos_kernel::Program> + Send + Sync + 'static,
    {
        self.registry.register(name, ctor);
        self
    }

    /// Disable trace collection (long benchmark runs).
    pub fn no_trace(mut self) -> Self {
        self.trace = false;
        self
    }

    /// Sample every kernel's metrics into time series on this virtual-time
    /// cadence (see [`Cluster::series`]). Off by default.
    pub fn sample_every(mut self, cadence: Duration) -> Self {
        self.sample = Some(cadence);
        self
    }

    /// Per-machine flight-recorder ring capacity, in records. The
    /// recorder stays on even with [`ClusterBuilder::no_trace`] — it is
    /// the black box consulted after crashes and invariant violations.
    /// `0` disables it entirely.
    pub fn recorder_capacity(mut self, records: usize) -> Self {
        self.recorder_capacity = records;
        self
    }

    /// Run the event loop on `s` worker threads (shards) where the
    /// configuration permits (see [`crate::shard`]). `1` (the default)
    /// is the plain sequential loop. Results are bit-identical across
    /// shard counts; configurations the conservative executor cannot
    /// shard safely — lossy links, automatic recovery, zero-latency
    /// edges — silently fall back to sequential execution.
    pub fn shards(mut self, s: usize) -> Self {
        self.shards = s.max(1);
        self
    }

    /// Enable automatic crash recovery: periodic checkpoints plus
    /// re-homing when the kernels' failure detector confirms a machine
    /// dead. Pair with a non-zero
    /// [`demos_kernel::KernelConfig::heartbeat_every`], or deaths are
    /// never confirmed and the checkpoints only serve manual restores.
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Build the cluster.
    pub fn build(self) -> Cluster {
        let n = self.topology.len();
        assert!(
            n <= MAX_MACHINES,
            "a cluster of {n} machines does not fit the 16-bit machine space \
             (at most {MAX_MACHINES}): machine ids would alias"
        );
        let registry = self.registry.into_shared();
        let machines: Arc<[MachineId]> = (0..n).map(|i| MachineId(i as u16)).collect();
        let nodes: Vec<Node> = machines
            .iter()
            .map(|&m| {
                let mut node = Node::new(m, self.kernel, self.migration, Arc::clone(&registry));
                node.engine.set_peers(Arc::clone(&machines));
                if self.kernel.heartbeat_every > Duration::ZERO {
                    node.kernel
                        .watch_peers(Time::ZERO, machines.iter().copied());
                }
                node
            })
            .collect();
        let mut c = Cluster {
            now: Time::ZERO,
            nodes,
            machines,
            net: SimNetwork::new(self.topology, self.seed),
            cpu_busy_until: vec![Time::ZERO; n],
            cpu_factor_ppm: vec![1_000_000; n],
            cpu_busy_total: vec![Duration::ZERO; n],
            crashed: vec![false; n],
            trace: if self.trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            outbox: Outbox::default(),
            recorders: (0..n)
                .map(|i| FlightRecorder::new(i as u16, self.recorder_capacity))
                .collect(),
            registry,
            series: self.sample.map(SeriesStore::new),
            migration: self.migration,
            recovery: self.recovery.map(RecoveryManager::new),
            crash_log: BTreeMap::new(),
            idx: EventIndex::new(0, n),
            residency: Residency::default(),
            dirty: Vec::new(),
            cpu_scratch: Vec::new(),
            fired_scratch: Vec::new(),
            step_stats: StepStats::default(),
            shards: self.shards,
            send_idx: vec![0; n],
            plan_cache: None,
            parallel_segments: 0,
            shard_stats: ShardStats::default(),
        };
        // Prime the event index with each node's boot state (e.g. the
        // heartbeat schedules armed by `watch_peers` above).
        for i in 0..n {
            c.touch_node(i);
        }
        c
    }
}

/// Instrumentation for the event loop: how many nodes each phase of
/// [`Cluster::step`] actually touches. The scheduler-cost regression test
/// pins a visit budget on a mostly-idle cluster — reintroducing an O(n)
/// scan blows the budget immediately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Completed [`Cluster::step`] calls that advanced the simulation.
    /// **Mode-dependent**: the sharded executor counts one step per
    /// shard per local instant, so totals differ from the sequential
    /// loop's global step count. The visit counters below are exact in
    /// both modes — equality tests compare those, never `steps`.
    pub steps: u64,
    /// Nodes examined as CPU candidates by the run-CPUs phase.
    pub cpu_visits: u64,
    /// Frames delivered to nodes.
    pub frame_visits: u64,
    /// Node deadline firings (`on_time` calls).
    pub timer_visits: u64,
}

impl StepStats {
    /// Total node visits across all phases.
    pub fn node_visits(&self) -> u64 {
        self.cpu_visits + self.frame_visits + self.timer_visits
    }
}

/// The simulated cluster.
pub struct Cluster {
    pub(crate) now: Time,
    pub(crate) nodes: Vec<Node>,
    /// Every machine id, ascending: the one peer list all the engines
    /// share, so a machine's host state does not grow with the cluster.
    machines: Arc<[MachineId]>,
    pub(crate) net: SimNetwork,
    pub(crate) cpu_busy_until: Vec<Time>,
    /// Per-machine CPU degradation factor in parts-per-million
    /// (1_000_000 = healthy). Integer so scaled costs are exact.
    pub(crate) cpu_factor_ppm: Vec<u64>,
    pub(crate) cpu_busy_total: Vec<Duration>,
    pub(crate) crashed: Vec<bool>,
    pub(crate) trace: Trace,
    outbox: Outbox,
    /// Per-machine black boxes: bounded rings of the most recent kernel
    /// events, kept even when the full [`Trace`] is disabled.
    pub(crate) recorders: Vec<FlightRecorder>,
    registry: Arc<Registry>,
    pub(crate) series: Option<SeriesStore>,
    migration: MigrationConfig,
    recovery: Option<RecoveryManager>,
    crash_log: BTreeMap<MachineId, Time>,
    /// Node deadlines, CPU completions and the runnable set: finding the
    /// next event is an O(1) peek instead of a scan over every machine.
    pub(crate) idx: EventIndex,
    /// Which machines hold which processes: finding a process is a range
    /// walk over its pairs instead of a visit to every kernel.
    pub(crate) residency: Residency,
    /// Nodes handed out via [`Cluster::node_mut`] since the last event-loop
    /// entry, each once; their cached state and their process tables are
    /// re-read before they are trusted.
    dirty: Vec<usize>,
    /// Reused buffers for the per-step candidate and fired-node lists,
    /// so the hot loop allocates nothing.
    cpu_scratch: Vec<usize>,
    fired_scratch: Vec<usize>,
    pub(crate) step_stats: StepStats,
    /// Requested worker-thread count ([`ClusterBuilder::shards`]).
    shards: usize,
    /// Per-machine canonical send counters for the sharded executor
    /// (monotone across segments; only key *order* matters).
    pub(crate) send_idx: Vec<u64>,
    /// Shard plan memoised against (topology version, shard count).
    plan_cache: Option<(usize, Arc<ShardPlan>)>,
    /// How many parallel segments have actually executed — lets tests
    /// assert the parallel path was exercised rather than silently
    /// falling back to sequential.
    pub(crate) parallel_segments: u64,
    pub(crate) shard_stats: ShardStats,
}

impl Cluster {
    /// Shorthand: `n` machines, default everything.
    pub fn mesh(n: usize) -> Cluster {
        ClusterBuilder::new(n).build()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The shared program registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Immutable node access.
    pub fn node(&self, m: MachineId) -> &Node {
        &self.nodes[m.0 as usize]
    }

    /// Mutable node access (tests and bootstrap).
    pub fn node_mut(&mut self, m: MachineId) -> &mut Node {
        // The caller may arm timers, enqueue work or change the process
        // table behind the indexes' backs: the machine leaves the
        // residency index, and both re-read it at the next flush.
        let i = m.0 as usize;
        if !self.dirty.contains(&i) {
            self.residency.set_table(&self.nodes[i].kernel, false);
            self.dirty.push(i);
        }
        &mut self.nodes[i]
    }

    /// The network (statistics, topology).
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// Mutable network access (fault injection).
    pub fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// The collected trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace (e.g. to clear between experiment phases).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// CPU time consumed by machine `m` so far.
    pub fn cpu_busy(&self, m: MachineId) -> Duration {
        self.cpu_busy_total[m.0 as usize]
    }

    /// Machine `m`'s flight recorder (its bounded event ring).
    pub fn recorder(&self, m: MachineId) -> &FlightRecorder {
        &self.recorders[m.0 as usize]
    }

    /// Render machine `m`'s recent flight-recorder tail as text — the
    /// post-mortem view used on crash recovery and invariant violations.
    pub fn render_postmortem(&self, m: MachineId) -> String {
        let rec = &self.recorders[m.0 as usize];
        let mut s = format!(
            "flight recorder m{} ({} recorded, {} dropped):\n",
            m.0,
            rec.total_recorded(),
            rec.total_recorded().saturating_sub(rec.len() as u64),
        );
        if rec.capacity() == 0 {
            s.push_str("  (recorder disabled)\n");
            return s;
        }
        for r in rec.tail(32) {
            s.push_str("  ");
            s.push_str(&demos_obs::recorder::render_record(&r));
            s.push('\n');
        }
        s
    }

    /// Serialize every machine's recorder ring — crashed machines
    /// included (a black box survives its aircraft) — as one dump
    /// readable by `demos-trace` and [`demos_obs::recorder::parse_dump`].
    pub fn recorder_dump(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in &self.recorders {
            rec.dump_into(&mut out);
        }
        out
    }

    /// Cumulative event-loop instrumentation (node visits per phase).
    pub fn step_stats(&self) -> StepStats {
        self.step_stats
    }

    /// Reset the instrumentation counters (e.g. after warm-up).
    pub fn reset_step_stats(&mut self) {
        self.step_stats = StepStats::default();
    }

    /// The sampled metric time series, if the cluster was built with
    /// [`ClusterBuilder::sample_every`]. Keys are `"m{machine}.{metric}"`
    /// (`"m0.pending"`, `"m2.retransmits"`, …).
    pub fn series(&self) -> Option<&SeriesStore> {
        self.series.as_ref()
    }

    /// Take a sample now regardless of cadence (e.g. a final sample when
    /// an experiment ends between grid points). No-op without sampling.
    pub fn sample_now(&mut self) {
        let Some(store) = &mut self.series else {
            return;
        };
        for (i, node) in self.nodes.iter().enumerate() {
            if self.crashed[i] {
                continue;
            }
            store.record(
                self.now,
                MachineId(i as u16),
                &crate::export::machine_registry(node),
            );
        }
        store.advance(self.now);
    }

    fn maybe_sample(&mut self) {
        if self.series.as_ref().is_some_and(|s| s.due(self.now)) {
            self.sample_now();
        }
    }

    /// Which machine currently hosts `pid`, if any. Processes on crashed
    /// machines are gone (their state died with the processor). Between
    /// steps 5 and 7 of a migration, source and destination both hold
    /// the process; the answer is then the lower-numbered of the two.
    pub fn where_is(&self, pid: ProcessId) -> Option<MachineId> {
        let holds = |m: &MachineId| self.holds(*m, pid);
        let indexed = self.residency.hosts(pid).find(holds);
        // Machines `node_mut` handed out are out of the index until the
        // next flush: ask them directly.
        let handed_out = self.dirty.iter().map(|&i| MachineId(i as u16));
        let found = indexed.into_iter().chain(handed_out.filter(holds)).min();
        debug_assert_eq!(found, self.scan(pid), "residency index diverged from scan");
        found
    }

    /// Whether live machine `m`'s process table holds `pid`.
    fn holds(&self, m: MachineId, pid: ProcessId) -> bool {
        let i = m.0 as usize;
        !self.crashed[i] && self.nodes[i].kernel.process(pid).is_some()
    }

    /// What `where_is` must return, by asking every kernel. Checks the
    /// index on the way: a pair naming a live machine that `node_mut` has
    /// not handed out must be backed by that machine's process table.
    fn scan(&self, pid: ProcessId) -> Option<MachineId> {
        for m in self.residency.hosts(pid) {
            let i = m.0 as usize;
            assert!(
                self.crashed[i] || self.dirty.contains(&i) || self.holds(m, pid),
                "residency index holds a stale pair ({pid}, {m})"
            );
        }
        (0..self.nodes.len())
            .map(|i| MachineId(i as u16))
            .find(|&m| self.holds(m, pid))
    }

    fn drain_outbox(&mut self, machine: MachineId) {
        let rec = &mut self.recorders[machine.0 as usize];
        if rec.capacity() > 0 {
            for ev in &self.outbox.trace {
                rec.record(flight::encode(self.now, machine, ev));
            }
        }
        for ev in &self.outbox.trace {
            if let Some(change) = residency::change(machine, ev) {
                self.residency.apply(change);
            }
        }
        // Drained in place: the outbox keeps its buffer for the next event.
        self.trace
            .extend(self.now, machine, self.outbox.trace.drain(..));
        debug_assert!(
            self.outbox.migration_inbox.is_empty() && self.outbox.pull_done.is_empty(),
            "node must drain engine items"
        );
    }

    // ------------------------------------------------------------------
    // Bootstrap operations
    // ------------------------------------------------------------------

    /// Spawn a process on machine `m`.
    pub fn spawn(
        &mut self,
        m: MachineId,
        program: &str,
        state: &[u8],
        layout: ImageLayout,
    ) -> Result<ProcessId> {
        self.spawn_opt(m, program, state, layout, false)
    }

    /// Spawn with the privileged (system-process) flag.
    pub fn spawn_opt(
        &mut self,
        m: MachineId,
        program: &str,
        state: &[u8],
        layout: ImageLayout,
        privileged: bool,
    ) -> Result<ProcessId> {
        let now = self.now;
        let node = &mut self.nodes[m.0 as usize];
        let pid = node
            .kernel
            .spawn(now, program, state, layout, privileged, &mut self.outbox)?;
        self.drain_outbox(m);
        self.touch_node(m.0 as usize);
        Ok(pid)
    }

    /// Mint a link to a process wherever it currently lives.
    pub fn link_to(&self, pid: ProcessId) -> Result<Link> {
        let m = self.where_is(pid).ok_or(DemosError::NoSuchProcess(pid))?;
        Ok(Link::to(pid.at(m)))
    }

    /// Deliver a message to `pid` from "outside" (modelling operator
    /// input; sent as the hosting machine's kernel).
    pub fn post(
        &mut self,
        pid: ProcessId,
        msg_type: u16,
        payload: impl Into<bytes::Bytes>,
        links: Vec<Link>,
    ) -> Result<()> {
        let m = self.where_is(pid).ok_or(DemosError::NoSuchProcess(pid))?;
        let now = self.now;
        let msg = Message {
            header: MsgHeader {
                dest: pid.at(m),
                src: ProcessId::kernel_of(m),
                src_machine: m,
                msg_type,
                flags: MsgFlags::FROM_KERNEL,
                hops: 0,
            },
            links,
            payload: payload.into(),
            corr: CorrId::NONE,
        };
        self.nodes[m.0 as usize].submit(now, msg, &mut self.net, &mut self.outbox);
        self.drain_outbox(m);
        self.touch_node(m.0 as usize);
        Ok(())
    }

    /// Deliver a `DELIVERTOKERNEL` control message to `pid` from outside
    /// (modelling a system process's control op). Addressed to the given
    /// machine hint, which may be stale — the message follows forwarding
    /// addresses like any other (§2.2).
    pub fn post_dtk(
        &mut self,
        pid: ProcessId,
        hint: MachineId,
        msg_type: u16,
        payload: impl Into<bytes::Bytes>,
    ) -> Result<()> {
        let now = self.now;
        let origin = hint.0 as usize % self.nodes.len();
        let msg = Message {
            header: MsgHeader {
                dest: pid.at(hint),
                src: ProcessId::kernel_of(MachineId(origin as u16)),
                src_machine: MachineId(origin as u16),
                msg_type,
                flags: MsgFlags::FROM_KERNEL | MsgFlags::DELIVER_TO_KERNEL,
                hops: 0,
            },
            links: vec![],
            payload: payload.into(),
            corr: CorrId::NONE,
        };
        self.nodes[origin].submit(now, msg, &mut self.net, &mut self.outbox);
        self.drain_outbox(MachineId(origin as u16));
        self.touch_node(origin);
        Ok(())
    }

    /// Suspend `pid`: posts a [`KernelOp::Suspend`] control op, which
    /// follows forwarding addresses to wherever the process lives now.
    pub fn suspend(&mut self, pid: ProcessId, hint: MachineId) -> Result<()> {
        self.post_dtk(pid, hint, tags::KERNEL_OP, KernelOp::Suspend.to_bytes())
    }

    /// Resume a suspended `pid` (the [`KernelOp::Resume`] control op).
    pub fn resume(&mut self, pid: ProcessId, hint: MachineId) -> Result<()> {
        self.post_dtk(pid, hint, tags::KERNEL_OP, KernelOp::Resume.to_bytes())
    }

    /// Ask `pid`'s kernel for a status report (the
    /// [`KernelOp::QueryStatus`] control op); the answer arrives as a
    /// message, like every other kernel interaction.
    pub fn query_status(&mut self, pid: ProcessId, hint: MachineId) -> Result<()> {
        self.post_dtk(pid, hint, tags::KERNEL_OP, KernelOp::QueryStatus.to_bytes())
    }

    /// Migrate `pid` to `dest` (harness-driven, like the paper's arbitrary
    /// test decisions). Returns an error if the process is unknown,
    /// already migrating, or already there.
    pub fn migrate(&mut self, pid: ProcessId, dest: MachineId) -> Result<()> {
        let m = self.where_is(pid).ok_or(DemosError::NoSuchProcess(pid))?;
        let now = self.now;
        let r =
            self.nodes[m.0 as usize].migrate(now, pid, dest, None, &mut self.net, &mut self.outbox);
        self.drain_outbox(m);
        self.touch_node(m.0 as usize);
        r
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crash machine `m`: its CPU stops, its timers stop, and every frame
    /// to or from it is dropped.
    pub fn crash(&mut self, m: MachineId) {
        self.crashed[m.0 as usize] = true;
        self.crash_log.insert(m, self.now);
        self.net.set_down(m, true);
        // Clears the deadline, the CPU wake-up and runnable membership.
        self.touch_node(m.0 as usize);
    }

    /// Ground-truth crash time of `m` (for latency metrics), if it was
    /// ever crashed.
    pub fn crashed_at(&self, m: MachineId) -> Option<Time> {
        self.crash_log.get(&m).copied()
    }

    /// Whether `m` is crashed.
    pub fn is_crashed(&self, m: MachineId) -> bool {
        self.crashed[m.0 as usize]
    }

    /// Revive a crashed machine with a **fresh, empty** kernel (its
    /// processes and forwarding addresses died with it). Every surviving
    /// machine's channel to it is reset — connection re-establishment —
    /// so sequence spaces restart cleanly; whatever they still had queued
    /// for the dead machine is lost. Recovery of processes is the
    /// caller's job via [`demos_kernel::Checkpoint`] restore plus
    /// [`demos_kernel::Kernel::install_forwarding`] here.
    pub fn revive(&mut self, m: MachineId) {
        let i = m.0 as usize;
        if !self.crashed[i] {
            return;
        }
        // A reboot is its own death certificate. If the machine comes
        // back *before* any peer's failure detector confirmed the death
        // (silence shorter than the detection window), no verdict will
        // ever fire for the old incarnation — yet its processes are just
        // as gone: the fresh kernel boots empty. Capture the black box
        // now and re-home the casualties right after the swap below.
        let reboot_rehome = self
            .recovery
            .as_ref()
            .is_some_and(|mgr| !mgr.handled.contains(&m))
            .then(|| self.render_postmortem(m));
        let node = &self.nodes[i];
        let kcfg = *node.kernel.config();
        // The boot record survives the crash: the fresh incarnation must
        // mint process uids and correlation ids above the old one's, or
        // they collide with the old incarnation's still-live remnants.
        let (uid_wm, corr_wm) = node.kernel.id_watermarks();
        // Connection incarnations also survive the crash: each channel the
        // pair will re-establish starts one above whatever either end used
        // before, so frames of the old incarnation still in flight (the
        // machine may reboot faster than the network delivers) are
        // recognizably stale instead of corrupting fresh sequence spaces.
        // Taking the max of both ends covers a peer that rebooted while
        // *we* were down and could not follow its bump.
        let epochs: Vec<(MachineId, u32)> = (0..self.nodes.len())
            .filter(|&j| j != i)
            .map(|j| {
                let peer = MachineId(j as u16);
                let ours = node.kernel.channel_epoch(peer);
                let theirs = self.nodes[j].kernel.channel_epoch(m);
                (peer, ours.max(theirs) + 1)
            })
            .collect();
        // Build a brand-new node with the same identity and configuration.
        let mut fresh = Node::new(m, kcfg, self.migration, Arc::clone(&self.registry));
        fresh.kernel.resume_id_watermarks(uid_wm, corr_wm);
        fresh.engine.set_peers(Arc::clone(&self.machines));
        if kcfg.heartbeat_every > Duration::ZERO {
            fresh
                .kernel
                .watch_peers(self.now, self.machines.iter().copied());
        }
        for &(peer, epoch) in &epochs {
            fresh.kernel.reset_channel(peer, epoch);
        }
        self.residency.set_table(&self.nodes[i].kernel, false);
        self.nodes[i] = fresh;
        self.crashed[i] = false;
        self.cpu_busy_until[i] = self.now;
        self.cpu_factor_ppm[i] = 1_000_000;
        self.net.set_down(m, false);
        for j in 0..self.nodes.len() {
            // Crashed peers are skipped: a corpse can neither reset its
            // channels nor resolve migrations (and must not transmit);
            // its own revive builds a fresh kernel with clean state.
            if j != i && !self.crashed[j] {
                let now = self.now;
                let epoch = self.nodes[i].kernel.channel_epoch(MachineId(j as u16));
                self.nodes[j].peer_revived(now, m, epoch, &mut self.net, &mut self.outbox);
                self.drain_outbox(MachineId(j as u16));
                // Clearing a dead verdict may reschedule the detector —
                // and resolving in-flight migrations may queue sends.
                self.touch_node(j);
            }
        }
        self.touch_node(i);
        if let Some(postmortem) = reboot_rehome {
            let now = self.now;
            self.rehome_from(m, now, postmortem);
        }
        // The fresh kernel's forwarding table is empty, but stale links
        // minted against the old incarnation still hint this machine:
        // any process that ever lived here and now lives elsewhere must
        // stay chain-reachable *through* us, or those links diverge.
        // Re-seed the gaps from current residency — the §4 recovery
        // action a revived processor takes, driven by the process map.
        if self.recovery.is_some() {
            self.sync_forwarding_residency();
        }
        // Either way the old incarnation's death is settled; a future
        // crash of the fresh incarnation must be handled afresh.
        if let Some(mgr) = self.recovery.as_mut() {
            mgr.handled.remove(&m);
        }
    }

    /// Sever the direct network edge between `a` and `b`, remembering its
    /// parameters so [`Cluster::heal`] can restore them. Frames in flight
    /// between machine pairs the cut disconnects are lost. Returns `false`
    /// if the machines are not directly connected.
    pub fn partition(&mut self, a: MachineId, b: MachineId) -> bool {
        self.net.partition(a, b)
    }

    /// Restore an edge severed by [`Cluster::partition`] with its original
    /// parameters. Returns `false` if the pair was not partitioned.
    pub fn heal(&mut self, a: MachineId, b: MachineId) -> bool {
        self.net.heal(a, b)
    }

    /// Restore every partitioned edge; returns how many were healed.
    pub fn heal_all(&mut self) -> usize {
        self.net.heal_all()
    }

    /// Degrade (or restore) machine `m`'s CPU: activation costs are
    /// multiplied by `factor` (1.0 = healthy). Models the paper's
    /// "gradual degradation of the processor" failure mode (§1). The
    /// factor is quantised to parts-per-million once, here, so the
    /// per-activation cost scaling is exact integer arithmetic.
    pub fn degrade(&mut self, m: MachineId, factor: f64) {
        let ppm = (factor.max(0.0) * 1e6).round();
        self.cpu_factor_ppm[m.0 as usize] = if ppm >= u64::MAX as f64 {
            u64::MAX
        } else {
            ppm as u64
        };
    }

    /// Health of machine `m` as policies see it: 1.0 nominal, the inverse
    /// of the degradation factor when degraded, 0.0 when crashed.
    pub fn health(&self, m: MachineId) -> f64 {
        if self.crashed[m.0 as usize] {
            return 0.0;
        }
        let ppm = self.cpu_factor_ppm[m.0 as usize];
        if ppm <= 1_000_000 {
            1.0
        } else {
            1_000_000.0 / ppm as f64
        }
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Scale an activation cost by a ppm factor, exactly, in integer
    /// microseconds: round up, saturate at `u64::MAX` µs.
    pub(crate) fn scale(cost: Duration, ppm: u64) -> Duration {
        let micros = (cost.as_micros() as u128 * ppm as u128).div_ceil(1_000_000);
        Duration::from_micros(micros.min(u64::MAX as u128) as u64)
    }

    /// Re-derive node `i`'s indexed deadline and runnable membership
    /// after a mutation.
    pub(crate) fn touch_node(&mut self, i: usize) {
        let (down, busy) = (self.crashed[i], self.cpu_busy_until[i]);
        self.idx.touch(i, &mut self.nodes[i], down, busy, self.now);
    }

    /// Re-index every node mutated through [`Cluster::node_mut`] since the
    /// last event-loop pass, its process table included.
    pub(crate) fn flush_dirty(&mut self) {
        while let Some(i) = self.dirty.pop() {
            self.residency.set_table(&self.nodes[i].kernel, true);
            self.touch_node(i);
        }
    }

    /// Run every CPU that is free and has work at the current instant.
    /// One ascending pass over the runnable set: a node that runs becomes
    /// busy (scaled cost is at least 1µs), and nothing short of a network
    /// delivery — which only happens in `step` — can make *another* node
    /// runnable, so a single pass reaches the same fixpoint the old
    /// scan-until-no-progress loop did, in the same order.
    pub(crate) fn run_cpus(&mut self) {
        self.flush_dirty();
        let mut candidates = std::mem::take(&mut self.cpu_scratch);
        candidates.clear();
        candidates.extend(self.idx.runnable());
        for &i in &candidates {
            if self.crashed[i] || self.cpu_busy_until[i] > self.now {
                continue;
            }
            self.step_stats.cpu_visits += 1;
            if let Some((_pid, cost)) =
                self.nodes[i].run_next(self.now, &mut self.net, &mut self.outbox)
            {
                let scaled =
                    Self::scale(cost, self.cpu_factor_ppm[i]).max(Duration::from_micros(1));
                self.cpu_busy_until[i] = self.now + scaled;
                self.cpu_busy_total[i] += scaled;
            }
            self.drain_outbox(MachineId(i as u16));
            self.touch_node(i);
        }
        self.cpu_scratch = candidates;
    }

    /// Advance to the next event. Returns `false` when the simulation is
    /// quiescent (no pending frames, deadlines, or runnable work).
    ///
    /// The next-event time is a peek over the network's arrival queue and
    /// the cluster event index — no per-node scan. Tie-breaking
    /// is unchanged from the scanning loop: frames deliver first (network
    /// arrival order), then due node deadlines fire in ascending machine
    /// order, then recovery runs, then sampling.
    pub fn step(&mut self) -> bool {
        self.run_cpus();
        // Find the earliest future event.
        let indexed = self.idx.peek(self.now, &self.cpu_busy_until);
        let t_next = match (self.net.next_arrival_at(), indexed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let Some(t) = t_next else { return false };
        if t > self.now {
            self.now = t;
        }
        self.step_stats.steps += 1;
        // Deliver all frames due at or before the new instant.
        while let Some((_at, src, dst, frame)) = self.net.pop_due(self.now) {
            if self.crashed[dst.0 as usize] {
                continue;
            }
            let now = self.now;
            self.step_stats.frame_visits += 1;
            self.nodes[dst.0 as usize].on_frame(now, src, frame, &mut self.net, &mut self.outbox);
            self.drain_outbox(dst);
            self.touch_node(dst.0 as usize);
        }
        // Fire due deadlines.
        let mut fired = std::mem::take(&mut self.fired_scratch);
        fired.clear();
        self.idx.pop_due(self.now, &mut fired);
        for &i in &fired {
            let now = self.now;
            self.step_stats.timer_visits += 1;
            self.nodes[i].on_time(now, &mut self.net, &mut self.outbox);
            self.drain_outbox(MachineId(i as u16));
            self.touch_node(i);
        }
        self.drive_recovery(&fired);
        self.fired_scratch = fired;
        self.maybe_sample();
        true
    }

    // ------------------------------------------------------------------
    // Automatic crash recovery
    // ------------------------------------------------------------------

    /// Register `pid` for checkpoint protection. No-op unless the cluster
    /// was built with [`ClusterBuilder::recovery`].
    pub fn protect(&mut self, pid: ProcessId) {
        if let Some(mgr) = &mut self.recovery {
            mgr.protected.insert(pid);
        }
    }

    /// The recovery manager's state (stats, episodes, stored
    /// checkpoints), if recovery is enabled.
    pub fn recovery(&self) -> Option<&RecoveryManager> {
        self.recovery.as_ref()
    }

    /// Stop every live kernel's heartbeat detector. A cluster with an
    /// active detector never goes quiescent (beats fly forever), so
    /// harnesses call this once recovery has settled and they want to
    /// drain the transport for final checks.
    pub fn stop_heartbeats(&mut self) {
        for i in 0..self.nodes.len() {
            if !self.crashed[i] {
                self.nodes[i].kernel.stop_heartbeats();
                self.touch_node(i);
            }
        }
    }

    fn drive_recovery(&mut self, fired: &[usize]) {
        if self.recovery.is_none() {
            return;
        }
        self.checkpoint_pass();
        self.handle_confirmed_deaths(fired);
    }

    /// Periodically snapshot every protected, settled (not mid-migration)
    /// process into stable storage.
    fn checkpoint_pass(&mut self) {
        let now = self.now;
        {
            let mgr = self.recovery.as_mut().expect("checked");
            if now < mgr.next_ck_at {
                return;
            }
            let every = mgr.cfg.checkpoint_every;
            let mut next = mgr.next_ck_at + every;
            while next <= now {
                next += every;
            }
            mgr.next_ck_at = next;
        }
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let pids: Vec<ProcessId> = self.nodes[i].kernel.pids().collect();
            for pid in pids {
                let mgr = self.recovery.as_ref().expect("checked");
                if !mgr.cfg.protect_all && !mgr.protected.contains(&pid) {
                    continue;
                }
                if self.nodes[i]
                    .kernel
                    .process(pid)
                    .is_none_or(|p| p.in_migration)
                {
                    continue;
                }
                // A process that cannot be checkpointed now keeps its
                // older checkpoint.
                if self.nodes[i].kernel.checkpointable(pid).is_err() {
                    continue;
                }
                // The previous checkpoint shares the image buffer this one
                // is about to refresh, and a shared buffer is copied
                // before it is written: let go of it first, so the write
                // is in place.
                let mgr = self.recovery.as_mut().expect("checked");
                mgr.store.remove(&pid);
                if let Ok(ck) = self.nodes[i].kernel.checkpoint(now, pid) {
                    mgr.store.insert(pid, ck);
                    mgr.stats.checkpoints += 1;
                }
            }
            self.touch_node(i);
        }
    }

    /// Act on kernel-level death confirmations: re-home every checkpointed
    /// process that vanished with the dead machine onto a survivor, and
    /// install forwarding addresses on the other survivors so stale links
    /// converge through the ordinary §4/§5 machinery.
    fn handle_confirmed_deaths(&mut self, fired: &[usize]) {
        // Death verdicts are only produced inside `on_time` (the
        // heartbeat detector's confirmation path), so only nodes whose
        // deadlines just fired can hold any; `fired` is already in
        // ascending machine order, matching the old full scan.
        let mut confirmed: Vec<(MachineId, Time)> = Vec::new();
        for &i in fired {
            if self.crashed[i] {
                continue;
            }
            confirmed.extend(self.nodes[i].kernel.take_confirmed_dead());
        }
        for (dead, detected_at) in confirmed {
            // A verdict about a machine that is no longer crashed is
            // stale: the machine rebooted, and the reboot path already
            // re-homed its casualties.
            if !self.crashed[dead.0 as usize] {
                continue;
            }
            let fresh = self
                .recovery
                .as_mut()
                .expect("checked")
                .handled
                .insert(dead);
            if fresh {
                // Pull the black box before touching anything else: the
                // dead kernel's final recorded events.
                let postmortem = self.render_postmortem(dead);
                self.rehome_from(dead, detected_at, postmortem);
            }
        }
    }

    /// Repair pass over every live machine's forwarding table: any
    /// process alive on some other machine that this machine neither
    /// hosts nor has an entry for gets a direct entry to its current
    /// host. Existing entries are never overwritten (lazy link updating
    /// keeps working); the pass only fills holes recovery tears open —
    /// a detector purging entries into a confirmed-dead machine, or a
    /// reboot wiping the table of a machine stale links still hint at.
    fn sync_forwarding_residency(&mut self) {
        let residency: Vec<(ProcessId, MachineId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(j, _)| !self.crashed[j])
            .flat_map(|(_, n)| {
                let host = n.machine();
                n.kernel.pids().map(move |p| (p, host))
            })
            .collect();
        for j in 0..self.nodes.len() {
            if self.crashed[j] {
                continue;
            }
            let mut touched = false;
            for &(pid, host) in &residency {
                let k = &self.nodes[j].kernel;
                if host == k.machine() || k.process(pid).is_some() {
                    continue;
                }
                if k.forwarding_next(pid).is_none() {
                    self.nodes[j]
                        .kernel
                        .install_forwarding(pid, host, &mut self.outbox);
                    touched = true;
                }
            }
            if touched {
                self.drain_outbox(MachineId(j as u16));
                self.touch_node(j);
            }
        }
    }

    fn rehome_from(&mut self, dead: MachineId, detected_at: Time, postmortem: String) {
        let now = self.now;
        let crashed_at = self.crash_log.get(&dead).copied();
        self.recovery
            .as_mut()
            .expect("checked")
            .postmortems
            .push((dead, postmortem));
        // Guard: only re-home processes that are genuinely gone. A
        // detector false-confirmation on a live (e.g. long-partitioned)
        // machine must never duplicate a process.
        let candidates: Vec<ProcessId> = {
            let mgr = self.recovery.as_ref().expect("checked");
            mgr.store
                .keys()
                .copied()
                .filter(|&pid| self.where_is(pid).is_none())
                .collect()
        };
        let survivors: Vec<MachineId> = (0..self.nodes.len())
            .map(|i| MachineId(i as u16))
            .filter(|&m| !self.crashed[m.0 as usize] && m != dead)
            .collect();
        // Forwarding is installed on every live machine. On the
        // detection path this equals `survivors` (the dead machine is
        // still down); on the reboot path it additionally covers the
        // revived machine itself, whose peers still hold links naming it
        // as the casualties' home.
        let hosts: Vec<MachineId> = (0..self.nodes.len())
            .map(|i| MachineId(i as u16))
            .filter(|&m| !self.crashed[m.0 as usize])
            .collect();
        let mut rehomed = 0u32;
        for pid in candidates {
            let ck = self
                .recovery
                .as_ref()
                .expect("checked")
                .store
                .get(&pid)
                .cloned()
                .expect("listed");
            let mut new_home = None;
            for &m in &survivors {
                let r =
                    self.nodes[m.0 as usize]
                        .kernel
                        .restore_checkpoint(now, &ck, &mut self.outbox);
                self.drain_outbox(m);
                self.touch_node(m.0 as usize);
                if r.is_ok() {
                    new_home = Some(m);
                    break;
                }
            }
            match new_home {
                Some(home) => {
                    rehomed += 1;
                    self.recovery.as_mut().expect("checked").stats.rehomed += 1;
                    // Forwarding on every *other* live machine (never on
                    // the new home itself — a self-pointing entry would
                    // loop).
                    for &m in &hosts {
                        if m != home {
                            self.nodes[m.0 as usize].kernel.install_forwarding(
                                pid,
                                home,
                                &mut self.outbox,
                            );
                            self.drain_outbox(m);
                            self.touch_node(m.0 as usize);
                        }
                    }
                }
                None => {
                    self.recovery
                        .as_mut()
                        .expect("checked")
                        .stats
                        .rehome_failures += 1
                }
            }
        }
        // Chains routed *through* the corpse are broken too: each
        // survivor's detector purged its forwarding entries into the
        // dead machine on confirmation (a chain through a corpse
        // black-holes), counting on recovery to leave something
        // resolvable behind. Leave it: re-seed the gaps from current
        // residency — §4's observation that forwarding addresses are
        // (degenerate) processes means the same recovery that re-homes
        // processes must also re-home the addresses.
        self.sync_forwarding_residency();
        let mgr = self.recovery.as_mut().expect("checked");
        mgr.stats.deaths_handled += 1;
        mgr.episodes.push(RecoveryEpisode {
            machine: dead,
            crashed_at,
            detected_at,
            recovered_at: now,
            rehomed,
        });
    }

    /// Whether the current configuration can run on the conservative
    /// sharded executor. Deliberately independent of the shard *count*
    /// (beyond it being > 1), so every parallel shard count takes the
    /// identical code path: lossy links draw from one global RNG whose
    /// draw order is execution order, the recovery manager runs
    /// cross-machine passes inside the step, and zero-latency edges
    /// admit no positive lookahead — each forces the sequential loop.
    pub fn parallel_ready(&self) -> bool {
        let topo = self.net.topology();
        self.shards > 1
            && self.nodes.len() >= 2
            && self.recovery.is_none()
            && topo.max_edge_loss() <= 0.0
            && topo.min_edge_latency() != Some(Duration::ZERO)
    }

    /// How many parallel segments the sharded executor has run. Zero
    /// means every run so far took the sequential path (shards = 1 or an
    /// unsupported configuration).
    pub fn parallel_segments(&self) -> u64 {
        self.parallel_segments
    }

    /// What the sharded executor did so far: windows, final batches,
    /// per-shard visits and mailbox high-water, summed over every
    /// parallel segment. Exact and deterministic (no clock is read).
    pub fn shard_stats(&self) -> &ShardStats {
        &self.shard_stats
    }

    /// The shard plan for the current configuration, or `None` when the
    /// sequential loop must be used. Memoised against the topology
    /// version and shared, so fault-free steady state neither
    /// re-partitions nor copies the plan per run.
    fn parallel_plan(&mut self) -> Option<Arc<ShardPlan>> {
        if !self.parallel_ready() {
            return None;
        }
        let topo = self.net.topology();
        let fresh = !self
            .plan_cache
            .as_ref()
            .is_some_and(|(s, p)| *s == self.shards && p.topo_version == topo.version());
        if fresh {
            let plan = ShardPlan::new(self.nodes.len(), self.shards, topo);
            self.plan_cache = Some((self.shards, Arc::new(plan)));
        }
        let plan = &self.plan_cache.as_ref().expect("just cached").1;
        (plan.shards > 1).then(|| Arc::clone(plan))
    }

    /// Run until virtual time `t` (or quiescence, whichever first).
    pub fn run_until(&mut self, t: Time) {
        if let Some(plan) = self.parallel_plan() {
            crate::shard::run_until_parallel(self, t, &plan);
            return;
        }
        while self.now < t {
            if !self.step() {
                return;
            }
        }
        // Execute any work that became runnable exactly at the boundary.
        self.run_cpus();
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until the cluster is quiescent or `limit` virtual time has
    /// passed; returns the finishing time.
    pub fn run_quiescent(&mut self, limit: Duration) -> Time {
        if let Some(plan) = self.parallel_plan() {
            return crate::shard::run_quiescent_parallel(self, limit, &plan);
        }
        let deadline = self.now + limit;
        loop {
            if self.now >= deadline || !self.step() {
                return self.now;
            }
        }
    }

    /// Run for `d` more virtual time in `quantum`-sized slices, invoking
    /// `on_quantum` after each slice (and once more if the cluster goes
    /// quiescent early). The callback returning `false` stops the run —
    /// this is how the chaos harness interleaves continuous invariant
    /// checks with execution. Returns the finishing time.
    pub fn run_with_quantum<F>(&mut self, d: Duration, quantum: Duration, mut on_quantum: F) -> Time
    where
        F: FnMut(&Cluster) -> bool,
    {
        let deadline = self.now + d;
        let q = quantum.max(Duration::from_micros(1));
        while self.now < deadline {
            let target = (self.now + q).min(deadline);
            self.run_until(target);
            if !on_quantum(self) {
                return self.now;
            }
            if self.now < target {
                // run_until returned early: no pending events anywhere.
                return self.now;
            }
        }
        self.now
    }

    /// Whether every surviving machine's reliable channel has drained
    /// (nothing unacknowledged) and no frames remain in flight — the
    /// "queues drain" half of the transport-sanity invariant.
    pub fn transport_quiescent(&self) -> bool {
        self.net.in_flight() == 0
            && self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.crashed[*i])
                .all(|(_, n)| n.kernel.transport_quiescent())
    }

    /// Follow forwarding addresses for `pid` starting from machine
    /// `start`, yielding every machine visited (`start` included). The
    /// walk stops at a machine that hosts the process, has no forwarding
    /// entry, or is crashed — or after `len() + 1` machines, which can only
    /// happen if the chain revisits one (a forwarding cycle; the chaos
    /// acyclicity checker flags exactly that case).
    pub fn forwarding_walk(
        &self,
        start: MachineId,
        pid: ProcessId,
    ) -> impl Iterator<Item = MachineId> + '_ {
        let step = move |&cur: &MachineId| {
            let i = cur.0 as usize;
            if self.crashed[i] || self.nodes[i].kernel.process(pid).is_some() {
                return None;
            }
            self.nodes[i].kernel.forwarding_next(pid)
        };
        std::iter::successors(Some(start), step).take(self.nodes.len() + 1)
    }

    /// [`forwarding_walk`](Cluster::forwarding_walk), collected.
    pub fn forwarding_chain(&self, start: MachineId, pid: ProcessId) -> Vec<MachineId> {
        self.forwarding_walk(start, pid).collect()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.now)
            .field("machines", &self.nodes.len())
            .field("in_flight_frames", &self.net.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_exact_integer_micros() {
        let us = Duration::from_micros;
        // 100µs × 1.1 is exactly 110µs. The old f64 path computed
        // ceil(110.00000000000001) = 111 because 1.1 is not
        // representable in binary floating point.
        assert_eq!(Cluster::scale(us(100), 1_100_000), us(110));
        // A true remainder still rounds up: 3µs × 1.5 = 4.5 → 5.
        assert_eq!(Cluster::scale(us(3), 1_500_000), us(5));
        // Sub-ppm leftovers round up too, never down to a free lunch.
        assert_eq!(Cluster::scale(us(1), 333_333), us(1));
        // Degenerate factors.
        assert_eq!(Cluster::scale(us(100), 0), us(0));
        assert_eq!(Cluster::scale(us(0), u64::MAX), us(0));
        // Saturates instead of overflowing.
        assert_eq!(Cluster::scale(us(u64::MAX), u64::MAX), us(u64::MAX));
    }

    #[test]
    fn degrade_quantises_and_health_inverts() {
        let mut c = Cluster::mesh(2);
        c.degrade(MachineId(1), 4.0);
        assert_eq!(c.health(MachineId(1)), 0.25);
        // Negative factors clamp to zero (healthy-or-better → 1.0).
        c.degrade(MachineId(1), -3.0);
        assert_eq!(c.health(MachineId(1)), 1.0);
        // Absurd factors clamp rather than poisoning the arithmetic.
        c.degrade(MachineId(1), f64::INFINITY);
        let h = c.health(MachineId(1));
        assert!(h > 0.0 && h < 1e-9);
        assert_eq!(c.health(MachineId(0)), 1.0);
    }
}
