//! Reliable, sequenced per-peer channels — the delivery guarantee.
//!
//! DEMOS/MP's fundamental communication guarantee is that "any message sent
//! will eventually be delivered" (§2.1), supplied below the kernel by the
//! *published communications* mechanism. This module substitutes a
//! conventional sequenced transport: per source-destination pair, data
//! frames carry increasing sequence numbers, the receiver acknowledges
//! cumulatively, the sender retransmits on timeout, and duplicates are
//! suppressed. Frames may overtake each other on the simulated network
//! (a short frame can beat a long one), so the receiver reorders via a
//! small buffer; delivery to the kernel is exactly-once, in send order.
//!
//! The sender never stalls waiting for an acknowledgement (§6: "the
//! sending kernel does not have to wait for the acknowledgement to send
//! the next packet") until the configurable window fills.
//!
//! For causal tracing, each queued message keeps its correlation id next
//! to (never inside) its wire bytes: the id rides in [`FrameMeta`] on
//! every transmission — including retransmissions, which are marked as
//! such — and is handed back with the payload on delivery so the
//! receiving kernel can re-attach it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use bytes::Bytes;
use demos_types::{CorrId, Duration, MachineId, Time};

use crate::frame::{Frame, FrameMeta};
use crate::network::{NetEvent, Phys};

/// Tuning knobs for the reliable channel.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Retransmission timeout for the first retransmission round. Later
    /// rounds back off exponentially (with deterministic jitter) up to
    /// `rto << max_backoff_exp`.
    pub rto: Duration,
    /// Maximum unacknowledged data frames per peer before sends queue.
    pub window: usize,
    /// Ceiling on the backoff exponent: the inter-retransmission gap never
    /// exceeds `rto * 2^max_backoff_exp` (plus jitter).
    pub max_backoff_exp: u32,
    /// Consecutive retransmission rounds without an ack before the peer is
    /// escalated to [`PeerState::Dead`] and its queued frames are bounced.
    /// `0` disables the budget: the channel retransmits forever and only
    /// an explicit [`Endpoint::mark_dead`] (the kernel failure detector)
    /// can condemn a peer.
    pub retx_budget: u32,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        // RTO of 20 ms against default edge latencies of ~0.5–1 ms leaves
        // ample headroom while still recovering promptly under loss.
        ChannelConfig {
            rto: Duration::from_millis(20),
            window: 64,
            max_backoff_exp: 6,
            retx_budget: 0,
        }
    }
}

/// Liveness verdict the transport holds about one peer.
///
/// Escalation is one-way from the channel's point of view: a peer goes
/// `Alive → Suspect` after half the retransmit budget is burned,
/// `Suspect → Dead` when the budget is exhausted (or the kernel's failure
/// detector calls [`Endpoint::mark_dead`]). An ack de-escalates
/// `Suspect → Alive`; `Dead` is terminal until [`Endpoint::reset_peer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PeerState {
    /// Acks are flowing; nothing is overdue.
    #[default]
    Alive,
    /// Retransmissions have gone unacknowledged for half the budget.
    Suspect,
    /// The peer is condemned: nothing more will be sent to it, and every
    /// queued frame has been bounced back to the kernel.
    Dead,
}

/// A frame returned to the kernel instead of being (re)transmitted,
/// because its destination is [`PeerState::Dead`]. Carries everything the
/// kernel needs to run its local non-deliverable handling.
#[derive(Debug, Clone)]
pub struct Bounce {
    /// The condemned destination machine.
    pub dst: MachineId,
    /// Correlation id the message was queued with.
    pub corr: CorrId,
    /// The encoded message bytes, exactly as queued.
    pub bytes: Bytes,
}

/// Transport health counters for one endpoint, across all its peers.
/// Survive [`Endpoint::reset_peer`] (they describe the machine, not the
/// connection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Data frames retransmitted after timeout.
    pub retransmits: u64,
    /// Acks received that acknowledged nothing new.
    pub dup_acks: u64,
    /// Incoming data frames suppressed as duplicates.
    pub dedup_drops: u64,
    /// Frames discarded because they carried a connection epoch different
    /// from the current one: stragglers transmitted by (or to) a previous
    /// incarnation of the channel, still in flight across a reset. Their
    /// sequence numbers belong to a dead sequence space and must not be
    /// woven into the current one.
    pub stale_drops: u64,
    /// Frames bounced back to the kernel because their peer was Dead.
    pub bounced: u64,
}

/// One message queued in the transport: its correlation id alongside its
/// encoded bytes.
#[derive(Debug, Clone)]
struct Queued {
    corr: CorrId,
    bytes: Bytes,
}

/// Per-peer channel state.
#[derive(Debug, Default)]
struct Peer {
    /// Connection incarnation. Every frame in both directions carries it;
    /// a frame whose epoch differs from ours is a straggler from a dead
    /// incarnation and is discarded. Bumped by [`Endpoint::reset_peer`]
    /// on every reboot of either end — the cluster reset protocol hands
    /// both ends the same new value, so live traffic always agrees.
    epoch: u32,
    /// Next sequence number to assign (sequences start at 1).
    next_seq: u64,
    /// In-flight frames awaiting acknowledgement, in sequence order.
    unacked: VecDeque<(u64, Queued)>,
    /// Sends deferred because the window was full.
    pending: VecDeque<Queued>,
    /// When the oldest unacked frame times out.
    rto_deadline: Option<Time>,
    /// Highest sequence delivered in order to the local kernel.
    recv_cum: u64,
    /// Out-of-order frames buffered for reassembly.
    reorder: BTreeMap<u64, (CorrId, Bytes)>,
    /// Liveness verdict for this peer.
    state: PeerState,
    /// Backoff exponent for the next retransmission round (0 ⇒ base RTO).
    backoff_exp: u32,
    /// Consecutive retransmission rounds since the last ack.
    retx_rounds: u32,
}

/// One machine's end of the reliable transport: a set of sequenced channels
/// to every peer it has communicated with.
#[derive(Debug)]
pub struct Endpoint {
    machine: MachineId,
    cfg: ChannelConfig,
    peers: BTreeMap<MachineId, Peer>,
    stats: ChannelStats,
    /// Min-heap over armed retransmission deadlines, lazily invalidated:
    /// an entry `(t, dst)` is live iff `peers[dst].rto_deadline == Some(t)`
    /// at the moment it is inspected. Deadlines are never removed from the
    /// heap when cleared or superseded — stale entries are discarded on
    /// peek/pop. This makes [`Endpoint::next_timeout_indexed`] an O(log n)
    /// peek instead of an O(peers) scan.
    rto_heap: BinaryHeap<Reverse<(Time, MachineId)>>,
}

impl Endpoint {
    /// Create the endpoint for `machine`.
    pub fn new(machine: MachineId, cfg: ChannelConfig) -> Self {
        Endpoint {
            machine,
            cfg,
            peers: BTreeMap::new(),
            stats: ChannelStats::default(),
            rto_heap: BinaryHeap::new(),
        }
    }

    /// The machine this endpoint belongs to.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Transport health counters.
    pub fn channel_stats(&self) -> ChannelStats {
        self.stats
    }

    /// Reliably send one encoded message to `dst`, tagged with the
    /// message's correlation id (pass [`CorrId::NONE`] for untraced
    /// traffic).
    ///
    /// If `dst` has been condemned ([`PeerState::Dead`]) nothing is
    /// transmitted: the message comes straight back as a [`Bounce`] for
    /// the kernel's local non-deliverable handling.
    ///
    /// # Panics
    /// Debug-asserts that `dst` is a remote machine; local delivery is the
    /// kernel's job and never touches the transport.
    pub fn send(
        &mut self,
        now: Time,
        dst: MachineId,
        msg_bytes: Bytes,
        corr: CorrId,
        phys: &mut dyn Phys,
    ) -> Option<Bounce> {
        debug_assert_ne!(dst, self.machine, "local sends must not use the transport");
        let cfg = self.cfg;
        let src = self.machine;
        let peer = self.peers.entry(dst).or_default();
        if peer.state == PeerState::Dead {
            self.stats.bounced += 1;
            return Some(Bounce {
                dst,
                corr,
                bytes: msg_bytes,
            });
        }
        let q = Queued {
            corr,
            bytes: msg_bytes,
        };
        if peer.unacked.len() >= cfg.window {
            peer.pending.push_back(q);
            return None;
        }
        Self::transmit_data(src, cfg, &mut self.rto_heap, peer, now, dst, q, phys);
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        src: MachineId,
        cfg: ChannelConfig,
        rto_heap: &mut BinaryHeap<Reverse<(Time, MachineId)>>,
        peer: &mut Peer,
        now: Time,
        dst: MachineId,
        q: Queued,
        phys: &mut dyn Phys,
    ) {
        peer.next_seq += 1;
        let seq = peer.next_seq;
        let frame = Frame::Data {
            epoch: peer.epoch,
            seq,
            payload: q.bytes.clone(),
            meta: FrameMeta::new(q.corr),
        };
        peer.unacked.push_back((seq, q));
        if peer.rto_deadline.is_none() {
            let deadline = now + cfg.rto;
            peer.rto_deadline = Some(deadline);
            rto_heap.push(Reverse((deadline, dst)));
        }
        phys.transmit(now, src, dst, frame);
    }

    /// Handle an incoming frame from `from`; returns `(corr, payload)`
    /// pairs now deliverable to the kernel, in order.
    pub fn on_frame(
        &mut self,
        now: Time,
        from: MachineId,
        frame: Frame,
        phys: &mut dyn Phys,
    ) -> Vec<(CorrId, Bytes)> {
        let mut delivered = Vec::new();
        self.on_frame_into(now, from, frame, phys, &mut delivered);
        delivered
    }

    /// [`Endpoint::on_frame`] appending the deliverable pairs to a list
    /// the caller owns, so a kernel handling a frame per event reuses one
    /// allocation instead of building a `Vec` per frame.
    pub fn on_frame_into(
        &mut self,
        now: Time,
        from: MachineId,
        frame: Frame,
        phys: &mut dyn Phys,
        delivered: &mut Vec<(CorrId, Bytes)>,
    ) {
        let cfg = self.cfg;
        let src = self.machine;
        let peer = self.peers.entry(from).or_default();
        // Connection-incarnation gate: a reboot of either end resets the
        // channel and bumps the epoch on both sides, but frames from the
        // old incarnation may still be in flight. Their sequence numbers
        // are meaningless in the fresh sequence space (an old seq 2 would
        // sit in the reorder buffer and later masquerade as the new seq 2),
        // so anything not from the current epoch is discarded unanswered —
        // acking it would equally confuse the sender's new send state.
        if frame.epoch() != peer.epoch {
            self.stats.stale_drops += 1;
            phys.note(NetEvent::StaleEpochDrop);
            return;
        }
        let epoch = peer.epoch;
        match frame {
            Frame::Data {
                seq, payload, meta, ..
            } => {
                // Always (re-)acknowledge so lost acks cannot wedge the peer.
                if seq <= peer.recv_cum {
                    self.stats.dedup_drops += 1;
                    phys.note(NetEvent::DedupDrop);
                } else if seq == peer.recv_cum + 1 {
                    // The next frame in sequence — the common case — goes
                    // straight out; the reorder buffer cannot hold this
                    // sequence number (it would have been drained when its
                    // predecessor was delivered).
                    peer.recv_cum = seq;
                    delivered.push((meta.corr, payload));
                    while let Some(p) = peer.reorder.remove(&(peer.recv_cum + 1)) {
                        peer.recv_cum += 1;
                        delivered.push(p);
                    }
                } else {
                    match peer.reorder.entry(seq) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert((meta.corr, payload));
                        }
                        std::collections::btree_map::Entry::Occupied(_) => {
                            // Retransmission of a frame already buffered out
                            // of order: suppressed, but still re-acked below.
                            self.stats.dedup_drops += 1;
                            phys.note(NetEvent::DedupDrop);
                        }
                    }
                }
                phys.transmit(
                    now,
                    src,
                    from,
                    Frame::Ack {
                        epoch,
                        cum: peer.recv_cum,
                    },
                );
            }
            Frame::Ack { cum, .. } => {
                let mut popped = 0u64;
                while peer.unacked.front().is_some_and(|&(s, _)| s <= cum) {
                    peer.unacked.pop_front();
                    popped += 1;
                }
                if popped == 0 {
                    self.stats.dup_acks += 1;
                    phys.note(NetEvent::DupAck);
                }
                // Window may have opened: flush deferred sends.
                while peer.unacked.len() < cfg.window {
                    let Some(q) = peer.pending.pop_front() else {
                        break;
                    };
                    Self::transmit_data(src, cfg, &mut self.rto_heap, peer, now, from, q, phys);
                }
                // An ack is proof of life: reset the backoff ladder and the
                // retransmit budget, and clear any suspicion. (Dead stays
                // dead — the queues were already bounced.)
                if popped > 0 {
                    peer.backoff_exp = 0;
                    peer.retx_rounds = 0;
                    if peer.state == PeerState::Suspect {
                        peer.state = PeerState::Alive;
                    }
                }
                peer.rto_deadline = if peer.unacked.is_empty() {
                    None
                } else {
                    let deadline = now + cfg.rto;
                    self.rto_heap.push(Reverse((deadline, from)));
                    Some(deadline)
                };
            }
        }
    }

    /// Earliest retransmission deadline across all peers, if any frame is
    /// in flight. Authoritative O(peers) scan; the simulation hot loop
    /// uses [`Endpoint::next_timeout_indexed`] instead.
    pub fn next_timeout(&self) -> Option<Time> {
        self.peers.values().filter_map(|p| p.rto_deadline).min()
    }

    /// Whether heap entry `(t, dst)` still describes `dst`'s armed
    /// deadline. A condemned or reset peer clears its deadline, so its
    /// entries go stale automatically.
    fn rto_entry_valid(&self, t: Time, dst: MachineId) -> bool {
        self.peers
            .get(&dst)
            .is_some_and(|p| p.rto_deadline == Some(t))
    }

    /// Indexed equivalent of [`Endpoint::next_timeout`]: an O(log n)
    /// peek over the deadline heap, discarding stale entries on the way.
    /// Debug builds cross-check the answer against the full scan.
    pub fn next_timeout_indexed(&mut self) -> Option<Time> {
        let r = loop {
            match self.rto_heap.peek() {
                Some(&Reverse((t, dst))) => {
                    if self.rto_entry_valid(t, dst) {
                        break Some(t);
                    }
                    self.rto_heap.pop();
                }
                None => break None,
            }
        };
        debug_assert_eq!(r, self.next_timeout(), "rto index diverged from scan");
        r
    }

    /// Deterministic jitter for the retransmission deadline: a fixed
    /// fraction (up to 1/8) of the backed-off interval, derived
    /// arithmetically from the endpoint pair and the backoff round so two
    /// machines that timed out together do not retransmit in lock-step.
    /// No RNG — the same inputs always yield the same jitter, preserving
    /// bit-for-bit replay.
    fn jitter_us(src: MachineId, dst: MachineId, exp: u32, base_us: u64) -> u64 {
        let mix = ((src.0 as u64) << 24 | (dst.0 as u64) << 8 | exp as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mix >> 48) % (base_us / 8 + 1)
    }

    /// Retransmit everything whose deadline has passed (go-back-N), with
    /// exponential backoff between rounds. Retransmissions keep their
    /// original correlation id and are marked in the frame metadata.
    ///
    /// When a peer exhausts the configured retransmit budget it is
    /// escalated to [`PeerState::Dead`] and everything queued for it is
    /// returned for the kernel's local non-deliverable handling.
    pub fn on_timeout(&mut self, now: Time, phys: &mut dyn Phys) -> Vec<Bounce> {
        let cfg = self.cfg;
        let src = self.machine;
        // Pop every due, still-live deadline from the heap instead of
        // scanning all peers. Stale entries (acked, superseded, condemned)
        // are discarded here; duplicates from repeated re-arms at the same
        // instant are deduped. Sorting restores the pre-index iteration
        // order — ascending machine id — which fixes the frame-emission
        // order and therefore the deterministic replay.
        let mut due: Vec<MachineId> = Vec::new();
        while let Some(&Reverse((t, dst))) = self.rto_heap.peek() {
            if !self.rto_entry_valid(t, dst) {
                self.rto_heap.pop();
                continue;
            }
            if t > now {
                break;
            }
            self.rto_heap.pop();
            due.push(dst);
        }
        due.sort_unstable();
        due.dedup();
        let mut bounces = Vec::new();
        for dst in due {
            let Some(peer) = self.peers.get_mut(&dst) else {
                continue;
            };
            if peer.state == PeerState::Dead {
                continue;
            }
            peer.retx_rounds += 1;
            if cfg.retx_budget > 0 {
                if peer.retx_rounds >= cfg.retx_budget {
                    bounces.extend(Self::condemn(&mut self.stats, dst, peer));
                    continue;
                }
                if peer.retx_rounds >= cfg.retx_budget.div_ceil(2) {
                    peer.state = PeerState::Suspect;
                }
            }
            for (seq, q) in &peer.unacked {
                self.stats.retransmits += 1;
                let frame = Frame::Data {
                    epoch: peer.epoch,
                    seq: *seq,
                    payload: q.bytes.clone(),
                    meta: FrameMeta::new(q.corr).retransmission(),
                };
                phys.transmit(now, src, dst, frame);
            }
            // Back off: the first round re-arms at the base RTO (exp 0),
            // later rounds double up to the ceiling, plus deterministic
            // jitter once backoff is in effect.
            let exp = peer.backoff_exp.min(cfg.max_backoff_exp);
            let base_us = cfg.rto.as_micros() << exp;
            let jitter = if exp == 0 {
                0
            } else {
                Self::jitter_us(src, dst, exp, base_us)
            };
            let deadline = now + Duration::from_micros(base_us + jitter);
            peer.rto_deadline = Some(deadline);
            self.rto_heap.push(Reverse((deadline, dst)));
            peer.backoff_exp = (peer.backoff_exp + 1).min(cfg.max_backoff_exp);
        }
        bounces
    }

    /// Transition `peer` to Dead, draining its queues into bounces.
    fn condemn(stats: &mut ChannelStats, dst: MachineId, peer: &mut Peer) -> Vec<Bounce> {
        peer.state = PeerState::Dead;
        peer.rto_deadline = None;
        let mut bounces = Vec::new();
        for (_, q) in peer.unacked.drain(..) {
            stats.bounced += 1;
            bounces.push(Bounce {
                dst,
                corr: q.corr,
                bytes: q.bytes,
            });
        }
        for q in peer.pending.drain(..) {
            stats.bounced += 1;
            bounces.push(Bounce {
                dst,
                corr: q.corr,
                bytes: q.bytes,
            });
        }
        bounces
    }

    /// Condemn `peer` on external evidence (the kernel's heartbeat
    /// failure detector): escalate it to [`PeerState::Dead`] immediately
    /// and return every queued frame as a bounce. Subsequent sends to the
    /// peer bounce synchronously until [`Endpoint::reset_peer`].
    pub fn mark_dead(&mut self, peer: MachineId) -> Vec<Bounce> {
        let entry = self.peers.entry(peer).or_default();
        Self::condemn(&mut self.stats, peer, entry)
    }

    /// The transport's liveness verdict for `peer` (Alive if unknown).
    pub fn peer_state(&self, peer: MachineId) -> PeerState {
        self.peers.get(&peer).map_or(PeerState::Alive, |p| p.state)
    }

    /// Total frames currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.peers.values().map(|p| p.unacked.len()).sum()
    }

    /// Total retransmitted frames since creation.
    pub fn retransmits(&self) -> u64 {
        self.stats.retransmits
    }

    /// Per-peer transmit backlog: `(peer, unacked, pending, state)` for
    /// every peer with channel state. Diagnostic — the chaos harness uses
    /// it to name the peer a non-quiescent endpoint is still waiting on.
    pub fn backlog(&self) -> Vec<(MachineId, usize, usize, PeerState)> {
        self.peers
            .iter()
            .map(|(&m, p)| (m, p.unacked.len(), p.pending.len(), p.state))
            .collect()
    }

    /// Drop all channel state for `peer` — sequence numbers, in-flight and
    /// deferred frames — and start connection incarnation `epoch`. Used
    /// when a crashed peer is revived with a fresh endpoint: both sides
    /// must restart their sequence spaces, or the survivor's high sequence
    /// numbers would sit in the revived peer's reorder buffer forever. Any
    /// unacknowledged messages to the dead peer are lost, like everything
    /// else on it.
    ///
    /// `epoch` must be strictly greater than every incarnation this
    /// channel has used before (the cluster reset protocol derives it from
    /// the max of both ends' current epochs), so that frames of the old
    /// incarnation still in flight across the reset are recognizably stale
    /// instead of being woven into the fresh sequence space.
    pub fn reset_peer(&mut self, peer: MachineId, epoch: u32) {
        debug_assert!(
            self.peers.get(&peer).is_none_or(|p| epoch > p.epoch),
            "channel epoch must move forward on reset"
        );
        self.peers.insert(
            peer,
            Peer {
                epoch,
                ..Peer::default()
            },
        );
    }

    /// Current connection incarnation of the channel to `peer` (0 if the
    /// pair has never communicated or been reset).
    pub fn peer_epoch(&self, peer: MachineId) -> u32 {
        self.peers.get(&peer).map_or(0, |p| p.epoch)
    }

    /// Whether every send has been acknowledged and nothing is queued.
    pub fn quiescent(&self) -> bool {
        self.peers
            .values()
            .all(|p| p.unacked.is_empty() && p.pending.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records transmitted frames instead of delivering them.
    #[derive(Default)]
    struct Capture(Vec<(MachineId, MachineId, Frame)>);

    impl Phys for Capture {
        fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
            self.0.push((src, dst, frame));
        }
    }

    fn m(i: u16) -> MachineId {
        MachineId(i)
    }

    fn bytes(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    fn corr(n: u64) -> CorrId {
        CorrId::new(m(0), n)
    }

    fn payloads(delivered: Vec<(CorrId, Bytes)>) -> Vec<Bytes> {
        delivered.into_iter().map(|(_, b)| b).collect()
    }

    #[test]
    fn in_order_delivery_with_acks() {
        let mut a = Endpoint::new(m(0), ChannelConfig::default());
        let mut b = Endpoint::new(m(1), ChannelConfig::default());
        let mut phys = Capture::default();
        a.send(Time(0), m(1), bytes("one"), corr(1), &mut phys);
        a.send(Time(0), m(1), bytes("two"), corr(2), &mut phys);
        let frames: Vec<Frame> = phys.0.drain(..).map(|(_, _, f)| f).collect();
        let mut delivered = Vec::new();
        for f in frames {
            delivered.extend(b.on_frame(Time(1), m(0), f, &mut phys));
        }
        assert_eq!(
            delivered,
            vec![(corr(1), bytes("one")), (corr(2), bytes("two"))],
            "correlation ids arrive with their payloads"
        );
        // b sent cumulative acks; feed them back to a.
        let acks: Vec<Frame> = phys.0.drain(..).map(|(_, _, f)| f).collect();
        assert!(acks.iter().all(|f| f.is_ack()));
        for f in acks {
            a.on_frame(Time(2), m(1), f, &mut phys);
        }
        assert_eq!(a.in_flight(), 0);
        assert!(a.quiescent());
        assert!(a.next_timeout().is_none());
    }

    #[test]
    fn reorder_buffering() {
        let mut b = Endpoint::new(m(1), ChannelConfig::default());
        let mut phys = Capture::default();
        // seq 2 arrives before seq 1.
        let d = b.on_frame(Time(0), m(0), Frame::data(2, bytes("two")), &mut phys);
        assert!(d.is_empty());
        let d = b.on_frame(Time(1), m(0), Frame::data(1, bytes("one")), &mut phys);
        assert_eq!(payloads(d), vec![bytes("one"), bytes("two")]);
    }

    #[test]
    fn duplicates_suppressed_and_reacked() {
        let mut b = Endpoint::new(m(1), ChannelConfig::default());
        let mut phys = Capture::default();
        let d1 = b.on_frame(Time(0), m(0), Frame::data(1, bytes("x")), &mut phys);
        assert_eq!(d1.len(), 1);
        let d2 = b.on_frame(Time(1), m(0), Frame::data(1, bytes("x")), &mut phys);
        assert!(d2.is_empty(), "duplicate must not be delivered twice");
        // Both receipts generated an ack.
        assert_eq!(phys.0.iter().filter(|(_, _, f)| f.is_ack()).count(), 2);
        assert_eq!(
            b.channel_stats().dedup_drops,
            1,
            "the duplicate was counted"
        );
    }

    #[test]
    fn duplicate_of_buffered_out_of_order_frame_counted() {
        let mut b = Endpoint::new(m(1), ChannelConfig::default());
        let mut phys = Capture::default();
        assert!(b
            .on_frame(Time(0), m(0), Frame::data(2, bytes("two")), &mut phys)
            .is_empty());
        assert!(b
            .on_frame(Time(1), m(0), Frame::data(2, bytes("two")), &mut phys)
            .is_empty());
        assert_eq!(b.channel_stats().dedup_drops, 1);
        // Delivery still exactly once when the gap fills.
        let d = b.on_frame(Time(2), m(0), Frame::data(1, bytes("one")), &mut phys);
        assert_eq!(payloads(d), vec![bytes("one"), bytes("two")]);
    }

    #[test]
    fn retransmit_after_timeout() {
        let cfg = ChannelConfig {
            rto: Duration::from_millis(5),
            window: 4,
            ..Default::default()
        };
        let mut a = Endpoint::new(m(0), cfg);
        let mut phys = Capture::default();
        a.send(Time(0), m(1), bytes("lost"), corr(7), &mut phys);
        phys.0.clear(); // the frame is "lost"
        assert_eq!(a.next_timeout(), Some(Time(5_000)));
        a.on_timeout(Time(5_000), &mut phys);
        assert_eq!(phys.0.len(), 1, "frame retransmitted");
        let meta = phys.0[0].2.meta().unwrap();
        assert!(meta.retx, "retransmission marked in metadata");
        assert_eq!(meta.corr, corr(7), "correlation id survives retransmission");
        assert_eq!(a.retransmits(), 1);
        assert_eq!(a.channel_stats().retransmits, 1);
        assert_eq!(a.next_timeout(), Some(Time(10_000)), "deadline re-armed");
    }

    #[test]
    fn window_defers_and_flushes() {
        let cfg = ChannelConfig {
            rto: Duration::from_millis(5),
            window: 2,
            ..Default::default()
        };
        let mut a = Endpoint::new(m(0), cfg);
        let mut phys = Capture::default();
        for (i, s) in ["1", "2", "3", "4"].iter().enumerate() {
            a.send(
                Time(0),
                m(1),
                Bytes::from(s.as_bytes().to_vec()),
                corr(i as u64 + 1),
                &mut phys,
            );
        }
        assert_eq!(phys.0.len(), 2, "window limits in-flight frames");
        assert_eq!(a.in_flight(), 2);
        // Ack the first two: the remaining two go out.
        a.on_frame(Time(1), m(1), Frame::Ack { epoch: 0, cum: 2 }, &mut phys);
        assert_eq!(phys.0.len(), 4);
        assert!(!a.quiescent());
        // A deferred message keeps its correlation id when it finally
        // leaves the window.
        assert_eq!(phys.0[3].2.meta().unwrap().corr, corr(4));
    }

    /// Backoff doubles per unacked retransmission round, caps at the
    /// configured ceiling, and an ack resets the ladder so the next loss
    /// starts again from the base RTO.
    #[test]
    fn backoff_caps_and_rearms_after_ack() {
        let cfg = ChannelConfig {
            rto: Duration::from_millis(5),
            window: 4,
            max_backoff_exp: 2,
            retx_budget: 0,
        };
        let mut a = Endpoint::new(m(0), cfg);
        let mut phys = Capture::default();
        a.send(Time(0), m(1), bytes("x"), corr(1), &mut phys);
        phys.0.clear();
        // Walk the ladder: gap after round n is rto<<min(n-1, cap) + jitter
        // (jitter only once backoff kicks in). At the cap the gap stops
        // growing and becomes constant — same exponent, same jitter.
        let mut now = a.next_timeout().unwrap();
        let mut gaps = Vec::new();
        for _ in 0..5 {
            a.on_timeout(now, &mut phys);
            let next = a.next_timeout().unwrap();
            gaps.push(next.since(now).as_micros());
            now = next;
        }
        assert_eq!(gaps[0], 5_000, "first round re-arms at the base RTO");
        assert!(
            (10_000..10_000 + 10_000 / 8 + 1).contains(&gaps[1]),
            "second round doubles (plus bounded jitter): {}",
            gaps[1]
        );
        assert!(
            (20_000..20_000 + 20_000 / 8 + 1).contains(&gaps[2]),
            "third round doubles again: {}",
            gaps[2]
        );
        assert_eq!(gaps[2], gaps[3], "ceiling reached: the gap stops growing");
        assert_eq!(gaps[3], gaps[4]);
        // An ack clears the ladder; a fresh loss starts from the base RTO.
        a.on_frame(now, m(1), Frame::Ack { epoch: 0, cum: 1 }, &mut phys);
        assert!(a.next_timeout().is_none());
        a.send(now, m(1), bytes("y"), corr(2), &mut phys);
        assert_eq!(
            a.next_timeout(),
            Some(now + cfg.rto),
            "backoff re-armed at base after ack"
        );
        a.on_timeout(now + cfg.rto, &mut phys);
        assert_eq!(
            a.next_timeout(),
            Some(now + cfg.rto + cfg.rto),
            "first retransmission round after an ack uses the base RTO again"
        );
    }

    /// Exhausting the retransmit budget condemns the peer: queued frames
    /// (in-flight and deferred) come back as bounces, the peer reads Dead,
    /// and later sends bounce synchronously instead of transmitting.
    #[test]
    fn budget_exhaustion_bounces_and_condemns() {
        let cfg = ChannelConfig {
            rto: Duration::from_millis(5),
            window: 1,
            max_backoff_exp: 6,
            retx_budget: 3,
        };
        let mut a = Endpoint::new(m(0), cfg);
        let mut phys = Capture::default();
        a.send(Time(0), m(1), bytes("one"), corr(1), &mut phys);
        a.send(Time(0), m(1), bytes("two"), corr(2), &mut phys); // deferred
        assert_eq!(a.peer_state(m(1)), PeerState::Alive);
        let mut now = a.next_timeout().unwrap();
        // Round 1 retransmits; round 2 (>= ceil(3/2)) suspects.
        assert!(a.on_timeout(now, &mut phys).is_empty());
        now = a.next_timeout().unwrap();
        assert!(a.on_timeout(now, &mut phys).is_empty());
        assert_eq!(a.peer_state(m(1)), PeerState::Suspect);
        // Round 3 exhausts the budget: both frames bounce.
        now = a.next_timeout().unwrap();
        let bounces = a.on_timeout(now, &mut phys);
        assert_eq!(bounces.len(), 2, "in-flight and deferred frames bounce");
        assert_eq!(bounces[0].dst, m(1));
        assert_eq!(bounces[0].corr, corr(1));
        assert_eq!(bounces[1].bytes, bytes("two"));
        assert_eq!(a.peer_state(m(1)), PeerState::Dead);
        assert_eq!(a.channel_stats().bounced, 2);
        assert!(a.next_timeout().is_none(), "no deadline for a dead peer");
        assert!(a.quiescent(), "nothing left queued for the dead peer");
        // A later send comes straight back.
        let b = a.send(now, m(1), bytes("three"), corr(3), &mut phys);
        let b = b.expect("send to a dead peer bounces");
        assert_eq!(b.corr, corr(3));
        assert_eq!(a.channel_stats().bounced, 3);
    }

    /// `mark_dead` (the kernel failure detector's verdict) purges the
    /// peer immediately, and `reset_peer` afterwards reconciles with the
    /// transport-conservation ledger: in-flight drops to zero, the bounce
    /// counter accounts for every purged frame, and delivery/dedup
    /// counters are untouched.
    #[test]
    fn mark_dead_purge_reconciles_with_conservation() {
        let mut a = Endpoint::new(m(0), ChannelConfig::default());
        let mut phys = Capture::default();
        a.send(Time(0), m(1), bytes("one"), corr(1), &mut phys);
        a.send(Time(0), m(1), bytes("two"), corr(2), &mut phys);
        a.send(Time(0), m(2), bytes("keep"), corr(3), &mut phys);
        let before = a.channel_stats();
        assert_eq!(a.in_flight(), 3);
        let bounces = a.mark_dead(m(1));
        assert_eq!(bounces.len(), 2, "only the dead peer's frames bounce");
        // Conservation: every frame formerly in flight to the dead peer is
        // now accounted for by the bounce counter, none silently vanish.
        assert_eq!(a.in_flight(), 1);
        assert_eq!(a.channel_stats().bounced - before.bounced, 2);
        assert_eq!(a.channel_stats().retransmits, before.retransmits);
        assert_eq!(a.channel_stats().dedup_drops, before.dedup_drops);
        assert_eq!(a.peer_state(m(1)), PeerState::Dead);
        assert_eq!(a.peer_state(m(2)), PeerState::Alive);
        assert_eq!(
            a.next_timeout(),
            Some(Time(0) + ChannelConfig::default().rto),
            "the live peer's deadline survives the purge"
        );
        // reset_peer forgets the verdict entirely (revival): sequence
        // space restarts and the peer is sendable again.
        a.reset_peer(m(1), 1);
        assert_eq!(a.peer_state(m(1)), PeerState::Alive);
        assert!(a
            .send(Time(10), m(1), bytes("fresh"), corr(4), &mut phys)
            .is_none());
        assert_eq!(a.in_flight(), 2);
    }

    #[test]
    fn ack_for_old_seq_ignored_and_counted() {
        let mut a = Endpoint::new(m(0), ChannelConfig::default());
        let mut phys = Capture::default();
        a.send(Time(0), m(1), bytes("x"), corr(1), &mut phys);
        a.on_frame(Time(1), m(1), Frame::Ack { epoch: 0, cum: 0 }, &mut phys);
        assert_eq!(a.in_flight(), 1, "cum=0 acknowledges nothing");
        assert_eq!(a.channel_stats().dup_acks, 1);
    }

    /// Frames of a previous connection incarnation that were still in
    /// flight across a reset are discarded — not acked, not buffered —
    /// instead of entering the fresh sequence space. Regression for a
    /// fuzzer-found trace where an old seq-2 heartbeat frame crossed a
    /// crash+revive, sat in the revived channel's reorder buffer until the
    /// new seq 1 released it, and then made the *new* seq 2 look like a
    /// duplicate (dedup drops with zero retransmissions).
    #[test]
    fn stale_epoch_frames_dropped_across_reset() {
        let mut b = Endpoint::new(m(1), ChannelConfig::default());
        let mut phys = Capture::default();
        // Old incarnation delivered seq 1; its seq 2 is still in flight.
        let d = b.on_frame(Time(0), m(0), Frame::data(1, bytes("old1")), &mut phys);
        assert_eq!(d.len(), 1);
        // The peer reboots: both ends reset to incarnation 1.
        b.reset_peer(m(0), 1);
        phys.0.clear();
        // The old incarnation's straggler arrives after the reset.
        let d = b.on_frame(Time(2), m(0), Frame::data(2, bytes("old2")), &mut phys);
        assert!(d.is_empty(), "stale frame must not be delivered");
        assert!(phys.0.is_empty(), "stale frame must not be acked");
        assert_eq!(b.channel_stats().stale_drops, 1);
        assert_eq!(b.channel_stats().dedup_drops, 0);
        // The new incarnation reuses the same sequence numbers cleanly.
        let fresh = |seq, s| Frame::Data {
            epoch: 1,
            seq,
            payload: bytes(s),
            meta: FrameMeta::default(),
        };
        let mut d = b.on_frame(Time(3), m(0), fresh(1, "new1"), &mut phys);
        d.extend(b.on_frame(Time(4), m(0), fresh(2, "new2"), &mut phys));
        assert_eq!(payloads(d), vec![bytes("new1"), bytes("new2")]);
        // A stale ack is equally ignored: it must not acknowledge frames
        // of the new incarnation that happen to share sequence numbers.
        let mut a = Endpoint::new(m(0), ChannelConfig::default());
        a.send(Time(5), m(1), bytes("x"), corr(1), &mut phys);
        a.reset_peer(m(1), 1);
        a.send(Time(6), m(1), bytes("y"), corr(2), &mut phys);
        a.on_frame(Time(7), m(1), Frame::Ack { epoch: 0, cum: 1 }, &mut phys);
        assert_eq!(a.in_flight(), 1, "old-incarnation ack ignored");
        assert_eq!(a.channel_stats().stale_drops, 1);
    }
}
