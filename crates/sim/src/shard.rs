//! Conservative parallel (PDES) execution of the cluster event loop.
//!
//! The cluster is split into [`ShardPlan`] ranges, one worker thread per
//! shard, each running a faithful port of the sequential
//! [`Cluster::step`] loop over its own machines. Synchronization is
//! **conservative**: a coordinator repeatedly grants every shard a window
//! `[·, min(next event anywhere) + lookahead)` — where lookahead is the
//! minimum cross-shard link latency — inside which no not-yet-sent
//! cross-shard frame can possibly arrive, so the shards execute the
//! window without communicating. Cross-shard frames produced inside a
//! window are exchanged at the barrier and heaped before the next window.
//!
//! # Determinism
//!
//! Everything a worker does is a pure function of its shard's state and
//! the frames it received at barriers; the coordinator's window choices
//! are pure functions of published event times. Nothing reads wall clock,
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
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};

use demos_core::Node;
use demos_kernel::{Outbox, TraceEvent};
use demos_net::{InFlight, NetEvent, NetStats, Phys, SendKey, Topology};
use demos_obs::FlightRecorder;
use demos_types::{Duration, MachineId, Time};

use crate::cluster::{Cluster, StepStats, EV_CPU, EV_TIMER};
use crate::flight;
use crate::partition::ShardPlan;

/// Same-instant phase ranks, matching the sequential interleave.
const PHASE_FRAME: u8 = 1;
const PHASE_TIMER: u8 = 2;
const PHASE_CPU: u8 = 3;

/// Coordinator → worker commands.
const M_WINDOW: u8 = 0;
const M_FINAL: u8 = 1;
const M_EXIT: u8 = 2;

/// "No pending event" sentinel for published times.
const T_NONE: u64 = u64::MAX;

/// Barrier-shared coordination state. All cross-thread data flows through
/// here, and only at barriers.
struct Shared {
    /// Rendezvous: `shards + 1` parties (workers + coordinator). Each
    /// round is two waits: release (command visible) and collect
    /// (published times + mailboxes visible).
    barrier: Barrier,
    /// Current command.
    mode: AtomicU8,
    /// Command parameter: window end (exclusive) or final-batch instant,
    /// in microseconds.
    param: AtomicU64,
    /// Per shard: earliest pending local event after its last round.
    next_local: Vec<AtomicU64>,
    /// Per shard: earliest arrival among cross-shard frames it *posted*
    /// during its last round (they are in mailboxes, visible to no heap,
    /// so the coordinator must count them separately).
    posted_min: Vec<AtomicU64>,
    /// `mail[dst][src]`: frames posted by shard `src` for shard `dst`.
    /// Locks are uncontended by construction (one writer, and readers
    /// only at barriers).
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
    leftovers: Vec<InFlight>,
    segments: Vec<Segment>,
    net_stats: NetStats,
    step_stats: StepStats,
}

/// The physical layer a shard's nodes transmit into: local-destination
/// frames go straight onto the shard's arrival heap, cross-shard frames
/// into per-destination outgoing mail. A faithful port of
/// `SimNetwork::transmit` minus the loss draw (lossy topologies never
/// reach the parallel path).
struct ShardNet<'a> {
    topo: &'a Topology,
    shard_of: &'a [u16],
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
    base: usize,
    arrivals: BinaryHeap<Reverse<InFlight>>,
    /// Outgoing cross-shard frames accumulated this round, per shard.
    outmail: Vec<Vec<InFlight>>,
    /// Earliest arrival posted to mail this round.
    posted_min: u64,
    stats: NetStats,
}

impl Phys for ShardNet<'_> {
    fn transmit(&mut self, now: Time, src: MachineId, dst: MachineId, frame: demos_net::Frame) {
        let size = frame.wire_size();
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += size as u64;
        if frame.is_ack() {
            self.stats.ack_frames += 1;
        } else {
            self.stats.data_frames += 1;
            if frame.meta().is_some_and(|m| m.retx) {
                self.stats.retransmit_frames += 1;
            }
        }
        if self.down[src.0 as usize] || self.down[dst.0 as usize] {
            self.stats.frames_dropped += 1;
            return;
        }
        let Some((transit, loss)) = self.topo.transit(src, dst, size) else {
            self.stats.frames_dropped += 1;
            return;
        };
        self.stats.byte_hops += (size * self.topo.hops(src, dst)) as u64;
        debug_assert!(loss == 0.0, "lossy topologies take the sequential path");
        let slot = &mut self.send_idx[src.0 as usize - self.base];
        *slot += 1;
        let arr = InFlight {
            at: now + transit,
            key: SendKey::canonical(self.era, self.now_us, self.phase, src.0, *slot),
            src,
            dst,
            frame,
        };
        let ds = self.shard_of[dst.0 as usize] as usize;
        if ds == self.sid {
            self.arrivals.push(Reverse(arr));
        } else {
            self.posted_min = self.posted_min.min(arr.at.as_micros());
            self.outmail[ds].push(arr);
        }
    }

    fn note(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::DupAck => self.stats.dup_acks += 1,
            NetEvent::DedupDrop => self.stats.dedup_drops += 1,
            NetEvent::StaleEpochDrop => self.stats.stale_epoch_drops += 1,
        }
    }
}

/// One shard's executable state: disjoint `&mut` slices of the cluster's
/// per-machine storage plus a private port of the event-loop caches.
struct Worker<'a> {
    sid: usize,
    base: usize,
    nodes: &'a mut [Node],
    recorders: &'a mut [FlightRecorder],
    cpu_busy_until: &'a mut [Time],
    cpu_factor_ppm: &'a [u64],
    cpu_busy_total: &'a mut [Duration],
    trace_on: bool,
    now: Time,
    net: ShardNet<'a>,
    outbox: Outbox,
    /// Local event index over `(time, kind, global machine)`.
    events: BinaryHeap<Reverse<(Time, u8, usize)>>,
    /// Cached earliest deadline per local node.
    node_deadline: Vec<Option<Time>>,
    /// Runnable set, in global machine indices.
    runnable: BTreeSet<usize>,
    segments: Vec<Segment>,
    stats: StepStats,
    cpu_scratch: Vec<usize>,
    fired_scratch: Vec<usize>,
}

impl<'a> Worker<'a> {
    fn local(&self, i: usize) -> usize {
        i - self.base
    }

    /// Port of `Cluster::touch_node` over the shard-local caches.
    fn touch_node(&mut self, i: usize) {
        let l = self.local(i);
        if self.net.down[i] {
            self.node_deadline[l] = None;
            self.runnable.remove(&i);
            return;
        }
        let d = self.nodes[l].next_deadline();
        if d != self.node_deadline[l] {
            self.node_deadline[l] = d;
            if let Some(t) = d {
                self.events.push(Reverse((t, EV_TIMER, i)));
            }
        }
        if self.nodes[l].has_runnable() {
            if self.runnable.insert(i) && self.cpu_busy_until[l] > self.now {
                self.events
                    .push(Reverse((self.cpu_busy_until[l], EV_CPU, i)));
            }
        } else {
            self.runnable.remove(&i);
        }
    }

    fn event_valid(&self, t: Time, kind: u8, i: usize) -> bool {
        let l = i - self.base;
        if self.net.down[i] {
            return false;
        }
        match kind {
            EV_TIMER => self.node_deadline[l] == Some(t),
            _ => t > self.now && self.cpu_busy_until[l] == t && self.runnable.contains(&i),
        }
    }

    fn peek_events(&mut self) -> Option<Time> {
        while let Some(&Reverse((t, kind, i))) = self.events.peek() {
            if self.event_valid(t, kind, i) {
                return Some(t);
            }
            self.events.pop();
        }
        None
    }

    /// Earliest pending local event: frame arrival (frames to crashed
    /// machines included — the sequential loop also advances to them and
    /// drops them on pop) or indexed node event.
    fn peek_next(&mut self) -> Option<Time> {
        let arr = self.net.arrivals.peek().map(|Reverse(a)| a.at);
        match (arr, self.peek_events()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drain the outbox after one handler call into the recorder ring and
    /// a tagged trace segment.
    fn drain(&mut self, machine: MachineId, phase: u8, key: SendKey) {
        let l = (machine.0 as usize) - self.base;
        let rec = &mut self.recorders[l];
        if rec.capacity() > 0 {
            for ev in &self.outbox.trace {
                rec.record(flight::encode(self.now, machine, ev));
            }
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
        candidates.extend(self.runnable.iter().copied());
        for &i in &candidates {
            let l = i - self.base;
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
                    Cluster::scale(cost, self.cpu_factor_ppm[l]).max(Duration::from_micros(1));
                self.cpu_busy_until[l] = self.now + scaled;
                self.cpu_busy_total[l] += scaled;
            }
            let key =
                SendKey::canonical(self.net.era, self.now.as_micros(), PHASE_CPU, i as u16, 0);
            self.drain(MachineId(i as u16), PHASE_CPU, key);
            self.touch_node(i);
            if self.runnable.contains(&i) && self.cpu_busy_until[l] > self.now {
                self.events
                    .push(Reverse((self.cpu_busy_until[l], EV_CPU, i)));
            }
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
            if self.net.down[a.dst.0 as usize] || self.net.down[a.src.0 as usize] {
                self.net.stats.frames_dropped += 1;
                continue;
            }
            self.net.stats.frames_delivered += 1;
            self.stats.frame_visits += 1;
            let l = (a.dst.0 as usize) - self.base;
            let now = self.now;
            self.net.phase = PHASE_FRAME;
            self.net.now_us = now.as_micros();
            self.nodes[l].on_frame(now, a.src, a.frame, &mut self.net, &mut self.outbox);
            self.drain(a.dst, PHASE_FRAME, a.key);
            self.touch_node(a.dst.0 as usize);
        }
    }

    /// Fire due deadlines in ascending machine order (port of
    /// `Cluster::pop_due_nodes` + the firing loop).
    fn fire_due(&mut self) {
        let mut fired = std::mem::take(&mut self.fired_scratch);
        fired.clear();
        while let Some(&Reverse((t, kind, i))) = self.events.peek() {
            if t > self.now {
                break;
            }
            self.events.pop();
            if kind == EV_TIMER && self.event_valid(t, kind, i) {
                fired.push(i);
            }
        }
        fired.sort_unstable();
        fired.dedup();
        for &i in &fired {
            self.stats.timer_visits += 1;
            self.net.phase = PHASE_TIMER;
            self.net.now_us = self.now.as_micros();
            let now = self.now;
            let l = i - self.base;
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
        if self
            .net
            .arrivals
            .peek()
            .is_some_and(|Reverse(a)| a.at <= self.now)
            || self.peek_events().is_some_and(|e| e <= self.now)
        {
            self.stats.steps += 1;
        }
        self.deliver_due();
        self.fire_due();
    }

    /// Merge mail delivered at the last barrier into the arrival heap.
    /// Drained in ascending source-shard order (deterministic, though the
    /// heap makes insertion order irrelevant).
    fn take_mail(&mut self, shared: &Shared) {
        for src in 0..shared.mail[self.sid].len() {
            let mut inbox = shared.mail[self.sid][src]
                .lock()
                .expect("mailbox lock poisoned");
            for a in inbox.drain(..) {
                self.net.arrivals.push(Reverse(a));
            }
        }
    }

    /// Post this round's outgoing cross-shard frames and publish event
    /// horizons for the coordinator.
    fn flush_and_publish(&mut self, shared: &Shared) {
        for (ds, out) in self.net.outmail.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            shared.mail[ds][self.sid]
                .lock()
                .expect("mailbox lock poisoned")
                .append(out);
        }
        shared.posted_min[self.sid].store(self.net.posted_min, Ordering::Release);
        self.net.posted_min = T_NONE;
        let next = self.peek_next().map_or(T_NONE, |t| t.as_micros());
        shared.next_local[self.sid].store(next, Ordering::Release);
    }

    /// The worker thread body: obey coordinator commands until EXIT.
    fn run(mut self, shared: &Shared, results: &Mutex<Vec<Option<WorkerResult>>>) {
        loop {
            shared.barrier.wait();
            let mode = shared.mode.load(Ordering::Acquire);
            let param = shared.param.load(Ordering::Acquire);
            match mode {
                M_WINDOW => {
                    self.take_mail(shared);
                    self.run_window(Time::from_micros(param));
                    self.flush_and_publish(shared);
                }
                M_FINAL => {
                    self.take_mail(shared);
                    self.final_batch(Time::from_micros(param));
                    self.flush_and_publish(shared);
                }
                _ => {
                    let sid = self.sid;
                    let result = WorkerResult {
                        now: self.now,
                        leftovers: self.net.arrivals.drain().map(|Reverse(a)| a).collect(),
                        segments: std::mem::take(&mut self.segments),
                        net_stats: self.net.stats,
                        step_stats: self.stats,
                    };
                    results.lock().expect("results lock poisoned")[sid] = Some(result);
                    shared.barrier.wait();
                    return;
                }
            }
            shared.barrier.wait();
        }
    }
}

/// Split `slice` into the plan's contiguous per-shard sub-slices.
fn split_ranges<'t, T>(mut slice: &'t mut [T], ranges: &[(usize, usize)]) -> Vec<&'t mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for &(start, end) in ranges {
        debug_assert_eq!(start, consumed, "ranges must be contiguous from 0");
        let (head, tail) = slice.split_at_mut(end - consumed);
        out.push(head);
        slice = tail;
        consumed = end;
    }
    out
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
        barrier: Barrier::new(s + 1),
        mode: AtomicU8::new(M_WINDOW),
        param: AtomicU64::new(0),
        next_local: (0..s).map(|_| AtomicU64::new(T_NONE)).collect(),
        posted_min: (0..s).map(|_| AtomicU64::new(T_NONE)).collect(),
        mail: (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
    };
    let results: Mutex<Vec<Option<WorkerResult>>> = Mutex::new((0..s).map(|_| None).collect());

    let trace_on = c.trace.is_enabled();
    let crashed = &c.crashed;
    let topo = c.net.topology();
    let node_slices = split_ranges(&mut c.nodes, &plan.ranges);
    let rec_slices = split_ranges(&mut c.recorders, &plan.ranges);
    let busy_slices = split_ranges(&mut c.cpu_busy_until, &plan.ranges);
    let total_slices = split_ranges(&mut c.cpu_busy_total, &plan.ranges);
    let idx_slices = split_ranges(&mut c.send_idx, &plan.ranges);
    let ppm = &c.cpu_factor_ppm;

    let mut workers: Vec<Worker<'_>> = Vec::with_capacity(s);
    let mut inflight_iter = inflight.into_iter();
    for (sid, (((nodes, recorders), (busy, total)), send_idx)) in node_slices
        .into_iter()
        .zip(rec_slices)
        .zip(busy_slices.into_iter().zip(total_slices))
        .zip(idx_slices)
        .enumerate()
    {
        let (base, end) = plan.ranges[sid];
        let mut arrivals = BinaryHeap::new();
        for a in inflight_iter.next().unwrap_or_default() {
            arrivals.push(Reverse(a));
        }
        let mut w = Worker {
            sid,
            base,
            nodes,
            recorders,
            cpu_busy_until: busy,
            cpu_factor_ppm: &ppm[base..end],
            cpu_busy_total: total,
            trace_on,
            now: start_now,
            net: ShardNet {
                topo,
                shard_of: &plan.shard_of,
                sid,
                down: crashed,
                era,
                phase: PHASE_CPU,
                now_us: start_now.as_micros(),
                send_idx,
                base,
                arrivals,
                outmail: (0..s).map(|_| Vec::new()).collect(),
                posted_min: T_NONE,
                stats: NetStats::default(),
            },
            outbox: Outbox::default(),
            events: BinaryHeap::new(),
            node_deadline: vec![None; end - base],
            runnable: BTreeSet::new(),
            segments: Vec::new(),
            stats: StepStats::default(),
            cpu_scratch: Vec::new(),
            fired_scratch: Vec::new(),
        };
        for i in base..end {
            w.touch_node(i);
        }
        workers.push(w);
    }

    let bound_us = bound.as_micros();
    let mut fin: Option<u64> = None;
    std::thread::scope(|scope| {
        for w in workers.drain(..) {
            let shared = &shared;
            let results = &results;
            scope.spawn(move || w.run(shared, results));
        }
        // The first window ends at `now`: a pure CPU pass (work made
        // runnable by external ops since the last run), mirroring the
        // `run_cpus` at the top of the first sequential step.
        let mut end_us = start_now.as_micros();
        loop {
            shared.mode.store(M_WINDOW, Ordering::Release);
            shared.param.store(end_us, Ordering::Release);
            shared.barrier.wait(); // release
            shared.barrier.wait(); // collect
            let mut t_min = T_NONE;
            for a in shared.next_local.iter().chain(shared.posted_min.iter()) {
                t_min = t_min.min(a.load(Ordering::Acquire));
            }
            if t_min == T_NONE {
                break; // quiescent
            }
            if t_min >= bound_us {
                fin = Some(t_min);
                break;
            }
            end_us = match lookahead_us {
                Some(l) => t_min.saturating_add(l).min(bound_us),
                None => bound_us,
            };
        }
        if let Some(t) = fin {
            shared.mode.store(M_FINAL, Ordering::Release);
            shared.param.store(t, Ordering::Release);
            shared.barrier.wait();
            shared.barrier.wait();
        }
        shared.mode.store(M_EXIT, Ordering::Release);
        shared.barrier.wait();
        shared.barrier.wait();
    });

    // ------------------------------------------------------------------
    // Reassembly
    // ------------------------------------------------------------------
    let results = results.into_inner().expect("results lock poisoned");
    let mut segments: Vec<Segment> = Vec::new();
    let mut new_now = start_now;
    for r in results.into_iter().flatten() {
        new_now = new_now.max(r.now);
        c.net.restore_in_flight(r.leftovers);
        c.net.absorb_stats(r.net_stats);
        c.step_stats.steps += r.step_stats.steps;
        c.step_stats.cpu_visits += r.step_stats.cpu_visits;
        c.step_stats.frame_visits += r.step_stats.frame_visits;
        c.step_stats.timer_visits += r.step_stats.timer_visits;
        segments.extend(r.segments);
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
    // Rebuild the sequential event caches from scratch; stale entries
    // from before the segment are gone with the clear.
    c.events.clear();
    c.runnable.clear();
    for i in 0..n {
        c.node_deadline[i] = None;
    }
    for i in 0..n {
        c.touch_node(i);
    }
    // Sends issued after this segment (externals, the boundary CPU pass)
    // use sequential-style keys; a fresh era keeps them ordered after
    // every canonical key issued inside the segment.
    c.net.bump_era();
    fin.map(Time::from_micros)
}

/// Parallel `run_until`: windows clipped at sampling due-points and the
/// deadline, overshoot batch at each stop, boundary CPU pass at the end —
/// semantics identical to the sequential `Cluster::run_until`.
pub(crate) fn run_until_parallel(c: &mut Cluster, t: Time, plan: &ShardPlan) {
    while c.now < t {
        let due = c.series.as_ref().map(|s| s.next_due());
        let bound = due.map_or(t, |d| d.min(t));
        match run_scope(c, bound, plan) {
            None => return, // quiescent: no boundary CPU pass (matches sequential)
            Some(fin) => {
                if due.is_some_and(|d| fin >= d) {
                    c.sample_now();
                }
            }
        }
    }
    c.run_cpus();
}

/// Parallel `run_quiescent`: like [`run_until_parallel`] but without the
/// boundary CPU pass, returning the finishing time.
pub(crate) fn run_quiescent_parallel(c: &mut Cluster, limit: Duration, plan: &ShardPlan) -> Time {
    let deadline = c.now + limit;
    while c.now < deadline {
        let due = c.series.as_ref().map(|s| s.next_due());
        let bound = due.map_or(deadline, |d| d.min(deadline));
        match run_scope(c, bound, plan) {
            None => return c.now,
            Some(fin) => {
                if due.is_some_and(|d| fin >= d) {
                    c.sample_now();
                }
            }
        }
    }
    c.now
}
