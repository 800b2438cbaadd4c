//! The simulated physical network.
//!
//! [`SimNetwork`] owns a deterministic arrival heap: every transmitted
//! frame is assigned an arrival time from the topology (fixed latency plus
//! per-byte cost along the route) and possibly dropped by a seeded coin
//! flip. The discrete-event loop in `demos-sim` interleaves these arrivals
//! with kernel-local events.
//!
//! The network also keeps the traffic accounting the paper's evaluation is
//! built on: frames, bytes, and byte·hops (bytes weighted by route length —
//! the "system-wide communication traffic" that moving a process closer to
//! its favourite resource is supposed to reduce, §1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use demos_types::{Duration, MachineId, Time};

use crate::frame::Frame;
use crate::topology::Topology;

/// Receiver-side transport events surfaced to the physical layer's
/// statistics via [`Phys::note`]. The network cannot observe these
/// itself — deduplication and ack bookkeeping happen inside
/// [`crate::channel::Endpoint`] after delivery — so the endpoint
/// reports them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// An ack arrived that acknowledged nothing new.
    DupAck,
    /// An already-delivered (or already-buffered) data frame was dropped
    /// by the dedup window.
    DedupDrop,
    /// A frame from a previous connection incarnation arrived after the
    /// channel was reset (its sender or receiver rebooted while it was in
    /// flight) and was discarded before it could pollute the fresh
    /// sequence space.
    StaleEpochDrop,
}

/// Where the transport hands frames to the physical layer.
pub trait Phys {
    /// Transmit `frame` from `src` towards `dst`, departing at `now`.
    fn transmit(&mut self, now: Time, src: MachineId, dst: MachineId, frame: Frame);

    /// Record a receiver-side transport event (statistics only; default
    /// is to ignore it, so test doubles need not care).
    fn note(&mut self, _ev: NetEvent) {}
}

/// Traffic statistics, cumulative since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the physical layer.
    pub frames_sent: u64,
    /// Frames lost (loss probability, crashed endpoint, or partition).
    pub frames_dropped: u64,
    /// Frames that reached their destination.
    pub frames_delivered: u64,
    /// Data frames sent.
    pub data_frames: u64,
    /// Ack frames sent.
    pub ack_frames: u64,
    /// Data frames that were retransmissions (marked via frame metadata
    /// by the sending endpoint).
    pub retransmit_frames: u64,
    /// Acks received that acknowledged nothing new ([`NetEvent::DupAck`]).
    pub dup_acks: u64,
    /// Data frames suppressed by receiver dedup ([`NetEvent::DedupDrop`]).
    pub dedup_drops: u64,
    /// Frames discarded as stragglers from a dead connection incarnation
    /// ([`NetEvent::StaleEpochDrop`]).
    pub stale_epoch_drops: u64,
    /// Total bytes handed to the physical layer.
    pub bytes_sent: u64,
    /// Bytes × route hops, summed over sent frames: total load placed on
    /// the network fabric.
    pub byte_hops: u64,
}

impl NetStats {
    /// Field-wise sum: folds one shard's traffic counters into the total.
    /// Every field is a cumulative count, so merging across disjoint
    /// shards never double-counts.
    pub fn merge(&mut self, o: &NetStats) {
        self.frames_sent += o.frames_sent;
        self.frames_dropped += o.frames_dropped;
        self.frames_delivered += o.frames_delivered;
        self.data_frames += o.data_frames;
        self.ack_frames += o.ack_frames;
        self.retransmit_frames += o.retransmit_frames;
        self.dup_acks += o.dup_acks;
        self.dedup_drops += o.dedup_drops;
        self.stale_epoch_drops += o.stale_epoch_drops;
        self.bytes_sent += o.bytes_sent;
        self.byte_hops += o.byte_hops;
    }

    /// Count one receiver-side transport event.
    pub fn note(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::DupAck => self.dup_acks += 1,
            NetEvent::DedupDrop => self.dedup_drops += 1,
            NetEvent::StaleEpochDrop => self.stale_epoch_drops += 1,
        }
    }

    /// The step every physical layer's [`Phys::transmit`] opens with:
    /// count the frame, drop it if an endpoint is marked in `down` or the
    /// topology has no route, otherwise charge its byte·hops. Returns the
    /// route's transit time and loss probability, or `None` for a frame
    /// that was dropped (and counted so). The loss draw and the arrival
    /// key are the caller's.
    pub fn transmit(
        &mut self,
        topo: &Topology,
        down: &[bool],
        src: MachineId,
        dst: MachineId,
        frame: &Frame,
    ) -> Option<(Duration, f64)> {
        let size = frame.wire_size();
        self.frames_sent += 1;
        self.bytes_sent += size as u64;
        if frame.is_ack() {
            self.ack_frames += 1;
        } else {
            self.data_frames += 1;
            if frame.meta().is_some_and(|m| m.retx) {
                self.retransmit_frames += 1;
            }
        }
        let route = if is_down(down, src) || is_down(down, dst) {
            None
        } else {
            topo.transit(src, dst, size)
        };
        match route {
            Some(_) => self.byte_hops += (size * topo.hops(src, dst)) as u64,
            None => self.frames_dropped += 1,
        }
        route
    }

    /// Whether a frame popped from an arrival heap is delivered, counted
    /// either way: a machine that crashed after the frame departed still
    /// loses it.
    pub fn arrives(&mut self, down: &[bool], a: &InFlight) -> bool {
        let lost = is_down(down, a.dst) || is_down(down, a.src);
        if lost {
            self.frames_dropped += 1;
        } else {
            self.frames_delivered += 1;
        }
        !lost
    }
}

/// A machine the flags do not cover counts as crashed.
fn is_down(down: &[bool], m: MachineId) -> bool {
    down.get(m.0 as usize).copied().unwrap_or(true)
}

/// Total-order tie-break key for frames arriving at the same instant.
///
/// Sequentially executed clusters key every send `{era, 0, 0, 0, n}` with a
/// single global counter `n` — byte-identical to the original scalar
/// sequence number. The sharded executor cannot reproduce a global counter
/// without serializing, so inside a parallel run segment it keys sends
/// *canonically*: `{era, send-time, phase, sender, per-sender index}`,
/// which every shard can compute locally and which reproduces the
/// sequential transmission order (sends from distinct machines at the same
/// instant happen in ascending machine order within a scheduler phase).
/// The `era` field — bumped around every parallel segment — makes the two
/// key styles comparable: later eras sort later, matching real time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SendKey {
    /// Coarse epoch: bumped entering and leaving every parallel segment.
    pub era: u32,
    /// Send instant in microseconds (0 in sequential style).
    pub at_us: u64,
    /// Scheduler phase of the send: frame delivery < timers < cpu.
    pub phase: u8,
    /// Transmitting machine (0 in sequential style).
    pub sender: u16,
    /// Per-sender (canonical) or global (sequential) send index.
    pub idx: u64,
}

impl SendKey {
    /// Sequential-style key: ordered purely by the global counter `idx`.
    pub fn sequential(era: u32, idx: u64) -> Self {
        SendKey {
            era,
            at_us: 0,
            phase: 0,
            sender: 0,
            idx,
        }
    }

    /// Canonical shard-computable key.
    pub fn canonical(era: u32, at_us: u64, phase: u8, sender: u16, idx: u64) -> Self {
        SendKey {
            era,
            at_us,
            phase,
            sender,
            idx,
        }
    }
}

/// One scheduled frame arrival. Public so the sharded executor can drain
/// the in-flight set, partition it across shards, and restore leftovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// Arrival instant.
    pub at: Time,
    /// Tie-break key among same-instant arrivals.
    pub key: SendKey,
    /// Transmitting machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// The frame itself.
    pub frame: Frame,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic simulated network.
#[derive(Debug)]
pub struct SimNetwork {
    topo: Topology,
    rng: StdRng,
    heap: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    era: u32,
    stats: NetStats,
    down: Vec<bool>,
    /// Edges severed by [`SimNetwork::partition`], with the parameters to
    /// restore on heal. Keyed by the (low, high) machine pair.
    severed: std::collections::BTreeMap<(u16, u16), crate::topology::EdgeParams>,
}

impl SimNetwork {
    /// Build over `topo`, with all loss decisions drawn from `seed`.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let n = topo.len();
        SimNetwork {
            topo,
            rng: StdRng::seed_from_u64(seed),
            heap: BinaryHeap::new(),
            seq: 0,
            era: 0,
            stats: NetStats::default(),
            down: vec![false; n],
            severed: std::collections::BTreeMap::new(),
        }
    }

    /// The topology (for hop counts etc.).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (fault injection); routes recompute on edit.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Mark a machine crashed: every frame to or from it is dropped.
    pub fn set_down(&mut self, m: MachineId, down: bool) {
        if let Some(slot) = self.down.get_mut(m.0 as usize) {
            *slot = down;
        }
    }

    /// Whether a machine is marked crashed.
    pub fn is_down(&self, m: MachineId) -> bool {
        is_down(&self.down, m)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Earliest pending arrival, if any.
    pub fn next_arrival_at(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(a)| a.at)
    }

    /// Pop the earliest arrival if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, MachineId, MachineId, Frame)> {
        while self.heap.peek().is_some_and(|Reverse(a)| a.at <= now) {
            let Reverse(a) = self.heap.pop()?;
            if self.stats.arrives(&self.down, &a) {
                return Some((a.at, a.src, a.dst, a.frame));
            }
        }
        None
    }

    /// Number of frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.heap.len()
    }

    // ------------------------------------------------------------------
    // Sharded-executor hooks
    // ------------------------------------------------------------------

    /// Current send-key era.
    pub fn era(&self) -> u32 {
        self.era
    }

    /// Advance to a fresh era and return it. The sharded executor bumps
    /// the era entering *and* leaving every parallel segment so that
    /// sequential-style keys issued between segments order after the
    /// canonical keys issued inside them.
    pub fn bump_era(&mut self) -> u32 {
        self.era += 1;
        self.era
    }

    /// Remove and return every in-flight frame (used to hand the pending
    /// set to per-shard heaps). Order is unspecified; the `(at, key)`
    /// ordering is total, so re-heaping reproduces delivery order.
    pub fn drain_in_flight(&mut self) -> Vec<InFlight> {
        self.heap.drain().map(|Reverse(a)| a).collect()
    }

    /// Return frames (typically shard-segment leftovers) to the in-flight
    /// heap.
    pub fn restore_in_flight(&mut self, items: impl IntoIterator<Item = InFlight>) {
        for a in items {
            self.heap.push(Reverse(a));
        }
    }

    /// Fold per-shard traffic statistics into the cumulative totals.
    pub fn absorb_stats(&mut self, shard: NetStats) {
        self.stats.merge(&shard);
    }

    // ------------------------------------------------------------------
    // Partition injection
    // ------------------------------------------------------------------

    fn pair_key(a: MachineId, b: MachineId) -> (u16, u16) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Sever the direct edge `a — b`, remembering its parameters for
    /// [`SimNetwork::heal`]. Frames already in flight between machine
    /// pairs that the cut disconnects are lost (counted as drops) — a
    /// partition takes the wire with it, it does not hold packets in
    /// escrow. Returns `false` (and changes nothing) if the machines are
    /// not directly connected.
    pub fn partition(&mut self, a: MachineId, b: MachineId) -> bool {
        let Some(params) = self.topo.edge(a, b) else {
            return false;
        };
        self.severed.insert(Self::pair_key(a, b), params);
        self.topo.clear_edge(a, b);
        self.purge_unreachable();
        true
    }

    /// Restore an edge severed by [`SimNetwork::partition`] with its
    /// original parameters. Returns `false` if the pair was not severed.
    pub fn heal(&mut self, a: MachineId, b: MachineId) -> bool {
        let Some(params) = self.severed.remove(&Self::pair_key(a, b)) else {
            return false;
        };
        self.topo.set_edge(a, b, params);
        true
    }

    /// Restore every severed edge; returns how many were healed.
    pub fn heal_all(&mut self) -> usize {
        let severed: Vec<(u16, u16)> = self.severed.keys().copied().collect();
        for (a, b) in &severed {
            let Some(params) = self.severed.remove(&(*a, *b)) else {
                continue;
            };
            self.topo.set_edge(MachineId(*a), MachineId(*b), params);
        }
        severed.len()
    }

    /// Machine pairs currently partitioned via [`SimNetwork::partition`].
    pub fn partitions(&self) -> Vec<(MachineId, MachineId)> {
        self.severed
            .keys()
            .map(|&(a, b)| (MachineId(a), MachineId(b)))
            .collect()
    }

    /// Drop in-flight frames whose endpoints the topology can no longer
    /// connect (after a partition disconnected them mid-transit).
    fn purge_unreachable(&mut self) {
        let topo = &self.topo;
        let before = self.heap.len();
        let kept: Vec<Reverse<InFlight>> = self
            .heap
            .drain()
            .filter(|Reverse(a)| topo.reachable(a.src, a.dst))
            .collect();
        self.stats.frames_dropped += (before - kept.len()) as u64;
        self.heap = kept.into_iter().collect();
    }
}

impl Phys for SimNetwork {
    fn transmit(&mut self, now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        let Some((transit, loss)) = self
            .stats
            .transmit(&self.topo, &self.down, src, dst, &frame)
        else {
            return;
        };
        if loss > 0.0 && self.rng.gen_bool(loss.min(1.0)) {
            self.stats.frames_dropped += 1;
            return;
        }
        self.seq += 1;
        self.heap.push(Reverse(InFlight {
            at: now + transit,
            key: SendKey::sequential(self.era, self.seq),
            src,
            dst,
            frame,
        }));
    }

    fn note(&mut self, ev: NetEvent) {
        self.stats.note(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::EdgeParams;
    use bytes::Bytes;
    use demos_types::Duration;

    fn m(i: u16) -> MachineId {
        MachineId(i)
    }

    fn data(seq: u64) -> Frame {
        Frame::data(seq, Bytes::from_static(b"payload"))
    }

    #[test]
    fn frames_arrive_after_transit() {
        let topo = Topology::full_mesh(
            2,
            EdgeParams {
                latency: Duration::from_micros(100),
                ns_per_byte: 0,
                loss: 0.0,
            },
        );
        let mut net = SimNetwork::new(topo, 1);
        net.transmit(Time(0), m(0), m(1), data(1));
        assert_eq!(net.next_arrival_at(), Some(Time(100)));
        assert!(net.pop_due(Time(50)).is_none());
        let (at, src, dst, f) = net.pop_due(Time(100)).unwrap();
        assert_eq!((at, src, dst), (Time(100), m(0), m(1)));
        assert_eq!(f, data(1));
        assert_eq!(net.stats().frames_delivered, 1);
    }

    #[test]
    fn deterministic_ordering_for_simultaneous_arrivals() {
        let topo = Topology::full_mesh(
            3,
            EdgeParams {
                latency: Duration::from_micros(10),
                ns_per_byte: 0,
                loss: 0.0,
            },
        );
        let mut net = SimNetwork::new(topo, 1);
        net.transmit(Time(0), m(1), m(0), data(7));
        net.transmit(Time(0), m(2), m(0), data(8));
        // Same arrival instant: transmission order breaks the tie.
        let (_, src1, _, _) = net.pop_due(Time(10)).unwrap();
        let (_, src2, _, _) = net.pop_due(Time(10)).unwrap();
        assert_eq!((src1, src2), (m(1), m(2)));
    }

    #[test]
    fn loss_is_seeded_and_counted() {
        let topo = Topology::full_mesh(
            2,
            EdgeParams {
                latency: Duration::ZERO,
                ns_per_byte: 0,
                loss: 0.5,
            },
        );
        let mut a = SimNetwork::new(topo.clone(), 42);
        let mut b = SimNetwork::new(topo, 42);
        for i in 0..100 {
            a.transmit(Time(i), m(0), m(1), data(i));
            b.transmit(Time(i), m(0), m(1), data(i));
        }
        assert_eq!(a.stats(), b.stats(), "same seed, same drops");
        assert!(a.stats().frames_dropped > 10 && a.stats().frames_dropped < 90);
        assert_eq!(a.stats().frames_sent, 100);
    }

    #[test]
    fn crashed_machine_blackholes() {
        let topo = Topology::full_mesh(2, EdgeParams::fast());
        let mut net = SimNetwork::new(topo, 1);
        net.set_down(m(1), true);
        net.transmit(Time(0), m(0), m(1), data(1));
        assert_eq!(net.stats().frames_dropped, 1);
        assert_eq!(net.in_flight(), 0);
        net.set_down(m(1), false);
        net.transmit(Time(0), m(0), m(1), data(2));
        assert_eq!(net.in_flight(), 1);
    }

    #[test]
    fn crash_after_departure_still_drops() {
        let topo = Topology::full_mesh(2, EdgeParams::fast());
        let mut net = SimNetwork::new(topo, 1);
        net.transmit(Time(0), m(0), m(1), data(1));
        net.set_down(m(1), true);
        assert!(net.pop_due(Time(1_000_000)).is_none());
        assert_eq!(net.stats().frames_dropped, 1);
    }

    /// A crash with a deep in-flight queue: every frame is dropped in one
    /// `pop_due` call, which must not nest a stack frame per drop.
    #[test]
    fn crash_drops_a_deep_in_flight_queue_without_recursing() {
        const FRAMES: u64 = 200_000;
        let topo = Topology::full_mesh(3, EdgeParams::fast());
        let mut net = SimNetwork::new(topo, 1);
        for i in 0..FRAMES {
            net.transmit(Time(0), m(0), m(1), data(i));
        }
        net.transmit(Time(0), m(0), m(2), data(FRAMES));
        assert_eq!(net.in_flight() as u64, FRAMES + 1);
        net.set_down(m(1), true);
        // The survivor's frame is behind every dropped one.
        let (_, _, dst, f) = net.pop_due(Time(1_000_000)).unwrap();
        assert_eq!((dst, f), (m(2), data(FRAMES)));
        assert!(net.pop_due(Time(1_000_000)).is_none());
        assert_eq!(net.stats().frames_dropped, FRAMES);
        assert_eq!(net.stats().frames_delivered, 1);
    }

    #[test]
    fn byte_hops_accounts_route_length() {
        let topo = Topology::line(
            3,
            EdgeParams {
                latency: Duration::from_micros(1),
                ns_per_byte: 0,
                loss: 0.0,
            },
        );
        let mut net = SimNetwork::new(topo, 1);
        let f = data(1);
        let size = f.wire_size() as u64;
        net.transmit(Time(0), m(0), m(2), f);
        assert_eq!(net.stats().byte_hops, size * 2);
    }

    #[test]
    fn unreachable_is_dropped() {
        let topo = Topology::new(2); // no edges
        let mut net = SimNetwork::new(topo, 1);
        net.transmit(Time(0), m(0), m(1), data(1));
        assert_eq!(net.stats().frames_dropped, 1);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let params = EdgeParams {
            latency: Duration::from_micros(100),
            ns_per_byte: 7,
            loss: 0.0,
        };
        let mut net = SimNetwork::new(Topology::full_mesh(2, params), 1);
        assert!(net.partition(m(0), m(1)));
        assert_eq!(net.partitions(), vec![(m(0), m(1))]);
        net.transmit(Time(0), m(0), m(1), data(1));
        assert_eq!(net.stats().frames_dropped, 1);

        assert!(net.heal(m(1), m(0)), "pair key is order-insensitive");
        assert!(net.partitions().is_empty());
        assert_eq!(net.topology().edge(m(0), m(1)), Some(params));
        net.transmit(Time(0), m(0), m(1), data(2));
        assert!(net.pop_due(Time(1_000_000)).is_some());
        // Double-heal and partitioning a missing edge are no-ops.
        assert!(!net.heal(m(0), m(1)));
        let mut empty = SimNetwork::new(Topology::new(2), 1);
        assert!(!empty.partition(m(0), m(1)));
    }

    #[test]
    fn partition_drops_in_flight_frames() {
        let mut net = SimNetwork::new(Topology::full_mesh(3, EdgeParams::fast()), 1);
        net.transmit(Time(0), m(0), m(1), data(1));
        net.transmit(Time(0), m(1), m(2), data(2));
        assert_eq!(net.in_flight(), 2);
        // Cutting 0—1 leaves both pairs reachable via m2 in a mesh; the
        // in-flight frames survive.
        assert!(net.partition(m(0), m(1)));
        assert_eq!(net.in_flight(), 2);
        // Cutting 0—2 isolates m0 entirely: the 0→1 frame is lost.
        assert!(net.partition(m(0), m(2)));
        assert_eq!(net.in_flight(), 1);
        assert_eq!(net.stats().frames_dropped, 1);
        let sent = net.stats().frames_sent;
        let s = net.stats();
        assert_eq!(
            sent,
            s.frames_delivered + s.frames_dropped + net.in_flight() as u64,
            "frame conservation survives the purge"
        );
        assert_eq!(net.heal_all(), 2);
        net.transmit(Time(100), m(0), m(1), data(3));
        assert_eq!(net.in_flight(), 2);
    }
}
