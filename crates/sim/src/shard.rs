//! Conservative parallel (PDES) execution of the cluster event loop.
//!
//! The cluster's machines are dealt to shards by [`ShardPlan`] — machine
//! `i` to shard `i mod S` — one worker thread per shard, each running a
//! faithful port of the sequential [`Cluster::step`] loop over its own
//! machines. A worker holds strided views of the cluster's nodes and
//! recorders (element `i / S` of each view is machine `i`) and a
//! [`ShardLocal`] the cluster keeps across segments: an event index over
//! the same machines, cleared in place at the start of each segment, and
//! dense copies of their CPU clocks, so that no two workers write the
//! same cache line. Synchronization is
//! **conservative**: every round, each shard runs a window
//! `[·, min(next event anywhere) + lookahead)` — where lookahead is the
//! minimum cross-shard link latency — inside which no not-yet-sent
//! cross-shard frame can possibly arrive, so the shards execute the
//! window without communicating. Cross-shard frames produced inside a
//! window are exchanged at the barrier and heaped before the next window.
//!
//! There is no coordinator: each worker publishes its event horizon,
//! waits at a [`WindowBarrier`], computes the next window from *all*
//! published horizons (the same arithmetic on the same values, so the
//! same answer everywhere), takes its mail, and waits once more so that
//! nobody overwrites a horizon or mailbox a neighbour is still reading.
//!
//! # Determinism
//!
//! Everything a worker does is a pure function of its shard's state and
//! the frames it received at barriers; the window choices are pure
//! functions of published event times. Nothing reads wall clock,
//! thread ids, or lock-acquisition order (mailboxes are drained in shard
//! order), so a run is bit-deterministic for a given (seed, shard count).
//!
//! # Equivalence with the sequential loop
//!
//! The sequential loop orders same-instant work frames → timers → CPU
//! (the CPU pass at the top of the *next* `step` call still runs at the
//! previous instant), frames among themselves by global transmission
//! order, and timers/CPUs in ascending machine order. Workers reproduce
//! this with canonical [`SendKey`]s — `(era, send time, phase, sender,
//! per-sender index)` — which are computable shard-locally and agree
//! with the sequential global order for timer-, CPU- and external-phase
//! sends (at any instant the sequential pass visits machines in
//! ascending order within a phase). Trace segments are tagged with the
//! same `(time, phase, key)` coordinates and merged by a stable sort at
//! reassembly, so the merged trace, the flight-recorder rings (per
//! machine, written only by the owning shard), and every statistic are
//! byte-identical across shard counts. The chaos-corpus equality suite
//! pins exactly this.
//!
//! Configurations whose couplings are inherently global — lossy links
//! (one global RNG whose draw order is the execution order), the
//! recovery manager (cross-machine checkpoint/re-home passes inside the
//! step), zero-latency edges (no positive lookahead) — fall back to the
//! sequential loop; `Cluster::parallel_ready` is the single gate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use demos_core::Node;
use demos_kernel::{Outbox, TraceEvent};
use demos_net::{InFlight, NetEvent, NetStats, Phys, SendKey, Topology};
use demos_obs::FlightRecorder;
use demos_types::{Duration, MachineId, Time};

use crate::cluster::{Cluster, StepStats};
use crate::evindex::EventIndex;
use crate::flight;
use crate::partition::ShardPlan;
use crate::residency::{self, Change};

/// Same-instant phase ranks, matching the sequential interleave.
const PHASE_FRAME: u8 = 1;
const PHASE_TIMER: u8 = 2;
const PHASE_CPU: u8 = 3;

/// "No pending event" sentinel for published times.
const T_NONE: u64 = u64::MAX;

/// What the sharded executor did, counted inside the workers and summed
/// over every parallel segment. Exact and deterministic for a given
/// (seed, shard count): no clock is read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Window rounds run (two barrier waits per worker each).
    pub windows: u64,
    /// Overshoot batches run at a segment's closing instant.
    pub final_batches: u64,
    /// Node visits, per shard.
    pub visits: Vec<u64>,
    /// The busiest shard's node visits, summed window by window: the
    /// critical path. `critical_visits · S / Σ visits` is 1 when every
    /// window is balanced and S when one shard does all the work; what
    /// it exceeds 1 by is time the other shards spend at the barrier.
    pub critical_visits: u64,
    /// The most frames each shard took from its mailboxes at one barrier.
    pub mailbox_high_water: Vec<u64>,
}

/// How long a waiter busy-waits before it starts yielding its core.
const SPIN_LIMIT: u32 = 1 << 8;

/// The per-window rendezvous: a sense-reversing barrier over two atomics.
/// The last arriver resets `arrived` and bumps `generation`; everyone
/// else waits for the bump. When every party can own a core the wait is
/// a busy-wait — a parked vCPU takes of the order of a millisecond to
/// come back, as long as a whole window — otherwise waiters would spin
/// against the threads they wait for, so they park at once.
struct WindowBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    spin: bool,
    lock: Mutex<()>,
    parked: Condvar,
}

impl WindowBarrier {
    fn new(parties: usize, spin: bool) -> Self {
        WindowBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            spin,
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// Block until all `parties` have called `wait` this generation.
    /// Everything written before a party's `wait` is visible to every
    /// party after it: arrivals are `AcqRel` on `arrived`, and the bump
    /// is a `Release` store paired with the waiters' `Acquire` loads.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Reset before the bump: nobody re-arrives until they see it.
            self.arrived.store(0, Ordering::Relaxed);
            if self.spin {
                self.generation.store(gen + 1, Ordering::Release);
            } else {
                // Under the lock, or a waiter could check, miss the bump
                // and park after the notification.
                let _guard = self.lock.lock().expect("barrier lock poisoned");
                self.generation.store(gen + 1, Ordering::Release);
                self.parked.notify_all();
            }
        } else if self.spin {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        } else {
            let mut guard = self.lock.lock().expect("barrier lock poisoned");
            while self.generation.load(Ordering::Acquire) == gen {
                guard = self.parked.wait(guard).expect("barrier lock poisoned");
            }
        }
    }
}

/// Barrier-shared coordination state. All cross-thread data flows through
/// here, and only at barriers.
struct Shared {
    barrier: WindowBarrier,
    /// Per shard: earliest pending local event after its last round.
    next_local: Vec<AtomicU64>,
    /// Per shard: earliest arrival among cross-shard frames it *posted*
    /// during its last round (they are in mailboxes, visible to no heap,
    /// so the horizon must count them separately).
    posted_min: Vec<AtomicU64>,
    /// Per shard: node visits of its last window (statistics only).
    visits: Vec<AtomicU64>,
    /// `mail[dst][src]`: frames posted by shard `src` for shard `dst`.
    /// Locks are uncontended by construction (one writer before the
    /// round's first wait, one reader between its two waits).
    mail: Vec<Vec<Mutex<Vec<InFlight>>>>,
}

/// One trace segment produced by a worker: the outbox drained after a
/// single handler call, tagged with its global merge coordinates.
struct Segment {
    at: Time,
    phase: u8,
    key: SendKey,
    machine: MachineId,
    events: Vec<TraceEvent>,
}

/// What a worker hands back at exit (slice mutations are already in
/// place; this is only the owned state).
struct WorkerResult {
    now: Time,
    /// The closing instant every worker computed, `None` if quiescent.
    fin: Option<u64>,
    leftovers: Vec<InFlight>,
    segments: Vec<Segment>,
    /// Residency changes of the shard's machines, in execution order.
    moves: Vec<Change>,
    net_stats: NetStats,
    step_stats: StepStats,
    windows: u64,
    critical_visits: u64,
    mailbox_high_water: u64,
}

/// The physical layer a shard's nodes transmit into: local-destination
/// frames go straight onto the shard's arrival heap, cross-shard frames
/// into per-destination outgoing mail. Counting and routing are
/// `NetStats::transmit`, as in `SimNetwork`; there is no loss draw (lossy
/// topologies never reach the parallel path) and the key is canonical.
struct ShardNet<'a> {
    topo: &'a Topology,
    /// The shard count: machine `i` lives on shard `i % shards`, at
    /// local index `i / shards`.
    shards: usize,
    sid: usize,
    /// Global crashed flags, fixed for the whole segment (crash/revive
    /// only happen between runs).
    down: &'a [bool],
    era: u32,
    /// Send context, set by the worker before each handler call.
    phase: u8,
    now_us: u64,
    /// Per-sender canonical send counters for this shard's machines.
    send_idx: &'a mut [u64],
    arrivals: BinaryHeap<Reverse<InFlight>>,
    /// Outgoing cross-shard frames accumulated this round, per shard.
    outmail: Vec<Vec<InFlight>>,
    /// Earliest arrival posted to mail this round.
    posted_min: u64,
    stats: NetStats,
}

impl Phys for ShardNet<'_> {
    fn transmit(&mut self, now: Time, src: MachineId, dst: MachineId, frame: demos_net::Frame) {
        let Some((transit, loss)) = self.stats.transmit(self.topo, self.down, src, dst, &frame)
        else {
            return;
        };
        debug_assert!(loss == 0.0, "lossy topologies take the sequential path");
        let slot = &mut self.send_idx[src.0 as usize / self.shards];
        *slot += 1;
        let arr = InFlight {
            at: now + transit,
            key: SendKey::canonical(self.era, self.now_us, self.phase, src.0, *slot),
            src,
            dst,
            frame,
        };
        let ds = dst.0 as usize % self.shards;
        if ds == self.sid {
            self.arrivals.push(Reverse(arr));
        } else {
            self.posted_min = self.posted_min.min(arr.at.as_micros());
            self.outmail[ds].push(arr);
        }
    }

    fn note(&mut self, ev: NetEvent) {
        self.stats.note(ev);
    }
}

/// What a shard keeps between parallel segments, so that a segment
/// allocates none of it. Indexed by local index, like the worker's views.
pub(crate) struct ShardLocal {
    idx: EventIndex,
    /// The machines' `cpu_busy_until` / `cpu_busy_total`, copied in at
    /// segment start and out at its end. Dealt machines are neighbours
    /// in the cluster's arrays, so writing those in place would bounce
    /// their cache lines between the workers' cores.
    busy_until: Vec<Time>,
    busy_total: Vec<Duration>,
    /// Per-sender canonical send counters, monotone across segments
    /// (only key order matters); only the sharded executor reads them.
    sent: Vec<u64>,
}

impl ShardLocal {
    fn new(sid: usize, s: usize, n: usize) -> Self {
        let len = (n - sid).div_ceil(s);
        ShardLocal {
            idx: EventIndex::new(sid, s, len),
            busy_until: vec![Time::ZERO; len],
            busy_total: vec![Duration::ZERO; len],
            sent: vec![0; len],
        }
    }
}

/// One shard's executable state: strided `&mut` views of the cluster's
/// nodes and recorders and the shard's [`ShardLocal`], all indexed by
/// local index.
struct Worker<'a> {
    sid: usize,
    nodes: Vec<&'a mut Node>,
    recorders: Vec<&'a mut FlightRecorder>,
    cpu_busy_until: &'a mut [Time],
    /// Every machine's, by global index: read-only in a segment.
    cpu_factor_ppm: &'a [u64],
    cpu_busy_total: &'a mut [Duration],
    trace_on: bool,
    now: Time,
    net: ShardNet<'a>,
    outbox: Outbox,
    idx: &'a mut EventIndex,
    segments: Vec<Segment>,
    moves: Vec<Change>,
    stats: StepStats,
    windows: u64,
    critical_visits: u64,
    mailbox_high_water: u64,
    cpu_scratch: Vec<usize>,
    fired_scratch: Vec<usize>,
}

impl<'a> Worker<'a> {
    /// The local index of machine `i`, one of this shard's.
    fn local(&self, i: usize) -> usize {
        i / self.net.shards
    }

    fn touch_node(&mut self, i: usize) {
        let l = self.local(i);
        let (down, busy) = (self.net.down[i], self.cpu_busy_until[l]);
        self.idx.touch(l, self.nodes[l], down, busy, self.now);
    }

    /// Earliest pending local event: frame arrival (frames to crashed
    /// machines included — the sequential loop also advances to them and
    /// drops them on pop) or indexed node event.
    fn peek_next(&mut self) -> Option<Time> {
        let arr = self.net.arrivals.peek().map(|Reverse(a)| a.at);
        match (arr, self.idx.peek(self.now, self.cpu_busy_until)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drain the outbox after one handler call into the recorder ring, the
    /// residency changes handed back at segment end, and a tagged trace
    /// segment.
    fn drain(&mut self, machine: MachineId, phase: u8, key: SendKey) {
        let l = self.local(machine.0 as usize);
        let rec = &mut self.recorders[l];
        if rec.capacity() > 0 {
            for ev in &self.outbox.trace {
                rec.record(flight::encode(self.now, machine, ev));
            }
        }
        for ev in &self.outbox.trace {
            self.moves.extend(residency::change(machine, ev));
        }
        if self.trace_on && !self.outbox.trace.is_empty() {
            self.segments.push(Segment {
                at: self.now,
                phase,
                key,
                machine,
                events: std::mem::take(&mut self.outbox.trace),
            });
        } else {
            // Untraced: the outbox keeps its buffer for the next event.
            self.outbox.trace.clear();
        }
        debug_assert!(
            self.outbox.migration_inbox.is_empty() && self.outbox.pull_done.is_empty(),
            "node must drain engine items"
        );
    }

    /// Port of `Cluster::run_cpus` over the shard's runnable set.
    fn run_cpus(&mut self) {
        let mut candidates = std::mem::take(&mut self.cpu_scratch);
        candidates.clear();
        candidates.extend(self.idx.runnable());
        for &i in &candidates {
            let l = self.local(i);
            if self.net.down[i] || self.cpu_busy_until[l] > self.now {
                continue;
            }
            self.stats.cpu_visits += 1;
            self.net.phase = PHASE_CPU;
            self.net.now_us = self.now.as_micros();
            if let Some((_pid, cost)) =
                self.nodes[l].run_next(self.now, &mut self.net, &mut self.outbox)
            {
                let scaled =
                    Cluster::scale(cost, self.cpu_factor_ppm[i]).max(Duration::from_micros(1));
                self.cpu_busy_until[l] = self.now + scaled;
                self.cpu_busy_total[l] += scaled;
            }
            let key =
                SendKey::canonical(self.net.era, self.now.as_micros(), PHASE_CPU, i as u16, 0);
            self.drain(MachineId(i as u16), PHASE_CPU, key);
            self.touch_node(i);
        }
        self.cpu_scratch = candidates;
    }

    /// Deliver every frame due at or before `now` — the shard-local
    /// mirror of `SimNetwork::pop_due` + the delivery loop in
    /// `Cluster::step`.
    fn deliver_due(&mut self) {
        while self
            .net
            .arrivals
            .peek()
            .is_some_and(|Reverse(a)| a.at <= self.now)
        {
            let Some(Reverse(a)) = self.net.arrivals.pop() else {
                break;
            };
            if !self.net.stats.arrives(self.net.down, &a) {
                continue;
            }
            self.stats.frame_visits += 1;
            let l = self.local(a.dst.0 as usize);
            let now = self.now;
            self.net.phase = PHASE_FRAME;
            self.net.now_us = now.as_micros();
            self.nodes[l].on_frame(now, a.src, a.frame, &mut self.net, &mut self.outbox);
            self.drain(a.dst, PHASE_FRAME, a.key);
            self.touch_node(a.dst.0 as usize);
        }
    }

    /// Fire due deadlines in ascending machine order (port of the firing
    /// loop in `Cluster::step`).
    fn fire_due(&mut self) {
        let mut fired = std::mem::take(&mut self.fired_scratch);
        fired.clear();
        self.idx.pop_due(self.now, &mut fired);
        for &i in &fired {
            self.stats.timer_visits += 1;
            self.net.phase = PHASE_TIMER;
            self.net.now_us = self.now.as_micros();
            let now = self.now;
            let l = self.local(i);
            self.nodes[l].on_time(now, &mut self.net, &mut self.outbox);
            let key = SendKey::canonical(self.net.era, now.as_micros(), PHASE_TIMER, i as u16, 0);
            self.drain(MachineId(i as u16), PHASE_TIMER, key);
            self.touch_node(i);
        }
        self.fired_scratch = fired;
    }

    /// Execute every local event strictly before `end` — the windowed
    /// equivalent of repeated `Cluster::step` calls.
    fn run_window(&mut self, end: Time) {
        loop {
            self.run_cpus();
            let Some(t) = self.peek_next() else { break };
            if t >= end {
                break;
            }
            self.stats.steps += 1;
            if t > self.now {
                self.now = t;
            }
            self.deliver_due();
            self.fire_due();
        }
    }

    /// Process exactly the batch at the global overshoot instant `t` (the
    /// sequential loop's final `step` past a deadline).
    fn final_batch(&mut self, t: Time) {
        if t > self.now {
            self.now = t;
        }
        if self.peek_next().is_some_and(|e| e <= self.now) {
            self.stats.steps += 1;
        }
        self.deliver_due();
        self.fire_due();
    }

    /// Merge the mail posted before this round's first wait into the
    /// arrival heap. Drained in ascending source-shard order
    /// (deterministic, though the heap makes insertion order irrelevant).
    fn take_mail(&mut self, shared: &Shared) {
        let mut taken = 0u64;
        for slot in &shared.mail[self.sid] {
            let mut inbox = slot.lock().expect("mailbox lock poisoned");
            taken += inbox.len() as u64;
            for a in inbox.drain(..) {
                self.net.arrivals.push(Reverse(a));
            }
        }
        self.mailbox_high_water = self.mailbox_high_water.max(taken);
    }

    /// Post this round's outgoing cross-shard frames.
    fn post_mail(&mut self, shared: &Shared) {
        for (ds, out) in self.net.outmail.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            shared.mail[ds][self.sid]
                .lock()
                .expect("mailbox lock poisoned")
                .append(out);
        }
    }

    /// The worker thread body: run windows up to `bound_us`, then the
    /// overshoot batch at the first global event time at or after it.
    /// Every worker derives the same windows from the same published
    /// horizons, so all leave the loop in the same round.
    fn run(mut self, shared: &Shared, bound_us: u64, lookahead_us: Option<u64>) -> WorkerResult {
        // The first window ends at `now`: a pure CPU pass (work made
        // runnable by external ops since the last run), mirroring the
        // `run_cpus` at the top of the first sequential step.
        let mut end_us = self.now.as_micros();
        let fin = loop {
            let visits_before = self.stats.node_visits();
            self.run_window(Time::from_micros(end_us));
            self.windows += 1;
            self.post_mail(shared);
            // Relaxed: the barrier orders these stores before the loads.
            let next = self.peek_next().map_or(T_NONE, |t| t.as_micros());
            shared.next_local[self.sid].store(next, Ordering::Relaxed);
            shared.posted_min[self.sid].store(self.net.posted_min, Ordering::Relaxed);
            self.net.posted_min = T_NONE;
            let visits = self.stats.node_visits() - visits_before;
            shared.visits[self.sid].store(visits, Ordering::Relaxed);

            shared.barrier.wait(); // every horizon and mailbox is posted
            let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
            let t_min = shared
                .next_local
                .iter()
                .chain(&shared.posted_min)
                .map(read)
                .fold(T_NONE, u64::min);
            self.critical_visits += shared.visits.iter().map(read).fold(0, u64::max);
            self.take_mail(shared);
            shared.barrier.wait(); // ... and read: the next round may overwrite them

            if t_min == T_NONE {
                break None; // quiescent
            }
            if t_min >= bound_us {
                self.final_batch(Time::from_micros(t_min));
                // Never taken by a worker; reassembly collects it.
                self.post_mail(shared);
                break Some(t_min);
            }
            end_us = match lookahead_us {
                Some(l) => t_min.saturating_add(l).min(bound_us),
                None => bound_us,
            };
        };
        WorkerResult {
            now: self.now,
            fin,
            leftovers: self.net.arrivals.drain().map(|Reverse(a)| a).collect(),
            segments: self.segments,
            moves: self.moves,
            net_stats: self.net.stats,
            step_stats: self.stats,
            windows: self.windows,
            critical_visits: self.critical_visits,
            mailbox_high_water: self.mailbox_high_water,
        }
    }
}

/// Whether `parties` busy-waiting threads can each own a core. The core
/// count is read once: the query walks cgroup files, and a chaos run asks
/// once per quantum.
fn can_spin(parties: usize) -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()));
    parties <= *cores
}

/// Deal `slice` to `s` strided views, as [`ShardPlan`] deals machines:
/// element `i` becomes element `i / s` of view `i % s`.
fn deal<T>(slice: &mut [T], s: usize) -> Vec<Vec<&mut T>> {
    let n = slice.len();
    let mut views: Vec<Vec<&mut T>> = (0..s)
        .map(|sid| Vec::with_capacity((n - sid).div_ceil(s)))
        .collect();
    for row in slice.chunks_mut(s) {
        for (view, x) in views.iter_mut().zip(row) {
            view.push(x);
        }
    }
    views
}

/// Run one parallel segment: windows up to `bound`, then the overshoot
/// batch at the first global event time `T* ≥ bound`. Returns `Some(T*)`
/// (with `cluster.now == T*` and all state reassembled), or `None` if the
/// cluster went quiescent first.
pub(crate) fn run_scope(c: &mut Cluster, bound: Time, plan: &ShardPlan) -> Option<Time> {
    c.flush_dirty();
    c.parallel_segments += 1;
    let era = c.net.bump_era();
    let s = plan.shards;
    let n = c.nodes.len();
    let start_now = c.now;
    let lookahead_us = plan.lookahead.map(|d| d.as_micros());

    // Partition the in-flight set by destination shard.
    let mut inflight: Vec<Vec<InFlight>> = (0..s).map(|_| Vec::new()).collect();
    for a in c.net.drain_in_flight() {
        inflight[plan.shard_of(a.dst.0 as usize)].push(a);
    }

    let shared = Shared {
        barrier: WindowBarrier::new(s, can_spin(s)),
        next_local: (0..s).map(|_| AtomicU64::new(T_NONE)).collect(),
        posted_min: (0..s).map(|_| AtomicU64::new(T_NONE)).collect(),
        visits: (0..s).map(|_| AtomicU64::new(0)).collect(),
        mail: (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
    };

    // Built by the first segment; the partition never changes after.
    if c.shard_local.len() != s {
        c.shard_local = (0..s).map(|sid| ShardLocal::new(sid, s, n)).collect();
    }
    let trace_on = c.trace.is_enabled();
    let crashed = &c.crashed;
    let topo = c.net.topology();
    let node_views = deal(&mut c.nodes, s);
    let rec_views = deal(&mut c.recorders, s);
    let ppm = &c.cpu_factor_ppm;

    let mut workers: Vec<Worker<'_>> = Vec::with_capacity(s);
    let mut inflight_iter = inflight.into_iter();
    for (sid, ((nodes, recorders), local)) in node_views
        .into_iter()
        .zip(rec_views)
        .zip(c.shard_local.iter_mut())
        .enumerate()
    {
        let machines = (sid..n).step_by(s);
        for (l, i) in machines.clone().enumerate() {
            local.busy_until[l] = c.cpu_busy_until[i];
            local.busy_total[l] = c.cpu_busy_total[i];
        }
        local.idx.clear();
        let mut arrivals = BinaryHeap::new();
        for a in inflight_iter.next().unwrap_or_default() {
            arrivals.push(Reverse(a));
        }
        let mut w = Worker {
            sid,
            nodes,
            recorders,
            cpu_busy_until: &mut local.busy_until,
            cpu_factor_ppm: ppm,
            cpu_busy_total: &mut local.busy_total,
            trace_on,
            now: start_now,
            net: ShardNet {
                topo,
                shards: s,
                sid,
                down: crashed,
                era,
                phase: PHASE_CPU,
                now_us: start_now.as_micros(),
                send_idx: &mut local.sent,
                arrivals,
                outmail: (0..s).map(|_| Vec::new()).collect(),
                posted_min: T_NONE,
                stats: NetStats::default(),
            },
            outbox: Outbox::default(),
            idx: &mut local.idx,
            segments: Vec::new(),
            moves: Vec::new(),
            stats: StepStats::default(),
            windows: 0,
            critical_visits: 0,
            mailbox_high_water: 0,
            cpu_scratch: Vec::new(),
            fired_scratch: Vec::new(),
        };
        for i in machines {
            w.touch_node(i);
        }
        workers.push(w);
    }

    let bound_us = bound.as_micros();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| scope.spawn(move || w.run(shared, bound_us, lookahead_us)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    // ------------------------------------------------------------------
    // Reassembly
    // ------------------------------------------------------------------
    let fin = results[0].fin;
    let mut segments: Vec<Segment> = Vec::new();
    let mut new_now = start_now;
    let stats = &mut c.shard_stats;
    stats.windows += results[0].windows;
    stats.final_batches += u64::from(fin.is_some());
    stats.critical_visits += results[0].critical_visits;
    if stats.visits.len() < s {
        stats.visits.resize(s, 0);
        stats.mailbox_high_water.resize(s, 0);
    }
    for (sid, (r, local)) in results.into_iter().zip(&c.shard_local).enumerate() {
        debug_assert_eq!(r.fin, fin, "workers disagree on the closing instant");
        for (l, i) in (sid..n).step_by(s).enumerate() {
            c.cpu_busy_until[i] = local.busy_until[l];
            c.cpu_busy_total[i] = local.busy_total[l];
        }
        new_now = new_now.max(r.now);
        c.net.restore_in_flight(r.leftovers);
        c.net.absorb_stats(r.net_stats);
        c.step_stats.steps += r.step_stats.steps;
        c.step_stats.cpu_visits += r.step_stats.cpu_visits;
        c.step_stats.frame_visits += r.step_stats.frame_visits;
        c.step_stats.timer_visits += r.step_stats.timer_visits;
        stats.visits[sid] += r.step_stats.node_visits();
        stats.mailbox_high_water[sid] = stats.mailbox_high_water[sid].max(r.mailbox_high_water);
        segments.extend(r.segments);
        // Each machine belongs to one shard, so shards' changes commute.
        for change in r.moves {
            c.residency.apply(change);
        }
    }
    // Mail posted by the final batch was never taken by a worker.
    for row in &shared.mail {
        for slot in row {
            let mut inbox = slot.lock().expect("mailbox lock poisoned");
            c.net.restore_in_flight(inbox.drain(..));
        }
    }
    c.now = if let Some(t) = fin {
        Time::from_micros(t)
    } else {
        new_now
    };
    // Merge trace segments into global order: time, then phase
    // (frames < timers < cpu), then send key. The sort is stable and
    // equal coordinates only arise within one shard, where concatenation
    // order is already chronological.
    segments.sort_by_key(|s| (s.at, s.phase, s.key));
    for seg in segments {
        c.trace.extend(seg.at, seg.machine, seg.events);
    }
    // Rebuild the sequential event index in place.
    c.idx.clear();
    for i in 0..n {
        c.touch_node(i);
    }
    // Sends issued after this segment (externals, the boundary CPU pass)
    // use sequential-style keys; a fresh era keeps them ordered after
    // every canonical key issued inside the segment.
    c.net.bump_era();
    fin.map(Time::from_micros)
}

/// Run parallel segments until `deadline` has been reached (`true`) or
/// the cluster is quiescent (`false`).
fn run_segments(c: &mut Cluster, deadline: Time, plan: &ShardPlan) -> bool {
    while c.now < deadline {
        if run_scope(c, deadline, plan).is_none() {
            return false;
        }
    }
    true
}

/// Parallel `run_until`: overshoot batch at each stop, boundary CPU pass
/// at the end unless quiescent — semantics identical to the sequential
/// `Cluster::run_until`.
pub(crate) fn run_until_parallel(c: &mut Cluster, t: Time, plan: &ShardPlan) {
    if run_segments(c, t, plan) {
        c.run_cpus();
    }
}

/// Parallel `run_quiescent`: like [`run_until_parallel`] but without the
/// boundary CPU pass, returning the finishing time.
pub(crate) fn run_quiescent_parallel(c: &mut Cluster, limit: Duration, plan: &ShardPlan) -> Time {
    let deadline = c.now + limit;
    run_segments(c, deadline, plan);
    c.now
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-wait round the workers run, with a counter in place of a
    /// horizon: publish the round, wait, read a neighbour, wait. Without
    /// the second wait a fast thread publishes round `r + 1` while a slow
    /// one still reads round `r`.
    fn stress(parties: usize, spin: bool) {
        const ROUNDS: u64 = 10_000;
        let barrier = WindowBarrier::new(parties, spin);
        let published: Vec<AtomicU64> = (0..parties).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for me in 0..parties {
                let (barrier, published) = (&barrier, &published);
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        published[me].store(round, Ordering::Relaxed);
                        barrier.wait();
                        for other in published {
                            assert_eq!(other.load(Ordering::Relaxed), round);
                        }
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn barrier_holds_every_round_spinning_and_parked() {
        for parties in [2, 3, 8] {
            // Parked: what an oversubscribed run selects.
            stress(parties, false);
            // Spinning: only where the executor would select it — eight
            // spinners on two cores make progress one yield at a time.
            if can_spin(parties) {
                stress(parties, true);
            }
        }
    }
}
