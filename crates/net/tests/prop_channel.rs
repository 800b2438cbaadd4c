//! Property tests of the reliable channel: exactly-once, in-order
//! delivery under arbitrary loss, duplication and reordering injected at
//! the physical layer — the §2.1 guarantee ("any message sent will
//! eventually be delivered") must hold whenever the network is fair.

use std::collections::BTreeSet;

use bytes::Bytes;
use demos_net::{ChannelConfig, ChannelStats, Endpoint, Frame, FrameMeta, NetEvent, Phys};
use demos_types::{CorrId, Duration, MachineId, Time};
use proptest::prelude::*;

/// An adversarial physical layer: drops, duplicates and reorders frames
/// according to a script, but is fair (a frame offered repeatedly gets
/// through eventually because the script is finite).
struct Adversary {
    /// Pending frames per destination.
    queues: [Vec<(MachineId, Frame)>; 2],
    /// Script of (drop?, duplicate?) decisions, consumed round-robin.
    script: Vec<(bool, bool)>,
    cursor: usize,
}

impl Adversary {
    fn decision(&mut self) -> (bool, bool) {
        if self.script.is_empty() {
            return (false, false);
        }
        let d = self.script[self.cursor % self.script.len()];
        self.cursor += 1;
        // After one full pass the adversary plays fair so runs terminate.
        if self.cursor >= self.script.len() * 2 {
            return (false, false);
        }
        d
    }
}

impl Phys for Adversary {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        let (drop, dup) = self.decision();
        if drop {
            return;
        }
        self.queues[dst.0 as usize].push((src, frame.clone()));
        if dup {
            self.queues[dst.0 as usize].push((src, frame));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exactly_once_in_order_under_adversary(
        msgs in 1usize..40,
        script in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..64),
        reorder in any::<bool>(),
    ) {
        let cfg = ChannelConfig { rto: Duration::from_millis(5), window: 8, ..Default::default() };
        let mut a = Endpoint::new(MachineId(0), cfg);
        let mut b = Endpoint::new(MachineId(1), cfg);
        let mut phys = Adversary { queues: [Vec::new(), Vec::new()], script, cursor: 0 };

        for i in 0..msgs {
            let corr = CorrId::new(MachineId(0), i as u64 + 1);
            a.send(Time(0), MachineId(1), Bytes::from(vec![i as u8]), corr, &mut phys);
        }

        let mut delivered: Vec<u8> = Vec::new();
        let mut corrs: Vec<CorrId> = Vec::new();
        let mut now = Time(0);
        // Pump until quiescent; time advances so retransmissions fire.
        for _round in 0..10_000 {
            let empty = phys.queues[0].is_empty() && phys.queues[1].is_empty();
            if empty && a.quiescent() && delivered.len() == msgs {
                break;
            }
            // Deliver queued frames (optionally in reverse = reordering).
            let mut q1 = std::mem::take(&mut phys.queues[1]);
            if reorder {
                q1.reverse();
            }
            for (src, f) in q1 {
                for (corr, p) in b.on_frame(now, src, f, &mut phys) {
                    delivered.push(p[0]);
                    corrs.push(corr);
                }
            }
            let q0 = std::mem::take(&mut phys.queues[0]);
            for (src, f) in q0 {
                a.on_frame(now, src, f, &mut phys);
            }
            now += Duration::from_millis(1);
            a.on_timeout(now, &mut phys);
        }
        prop_assert_eq!(delivered.len(), msgs, "all messages delivered");
        let expect: Vec<u8> = (0..msgs as u8).collect();
        prop_assert_eq!(delivered, expect, "in order, exactly once");
        prop_assert!(a.quiescent());
        // Correlation ids survive loss, duplication, reordering and
        // retransmission, and arrive exactly once, in order.
        let expect_corrs: Vec<CorrId> =
            (0..msgs).map(|i| CorrId::new(MachineId(0), i as u64 + 1)).collect();
        prop_assert_eq!(corrs, expect_corrs, "corr ids delivered with their messages");
        // Transport health counters are consistent: dedup drops at the
        // receiver can only happen when frames were duplicated by the
        // adversary or retransmitted by the sender.
        let a_stats = a.channel_stats();
        let b_stats = b.channel_stats();
        prop_assert_eq!(a_stats.retransmits, a.retransmits());
        let dup_capable = phys.script.iter().any(|&(d, dup)| d || dup);
        if !dup_capable {
            prop_assert_eq!(a_stats.retransmits, 0, "clean network needs no retransmits");
            prop_assert_eq!(b_stats.dedup_drops, 0, "clean network has no duplicates");
        }
    }

    /// Delivery oracle for the receive side. One endpoint is fed an
    /// arbitrary interleaving of the data frames 1..=n — duplicates,
    /// overtaking, stragglers from the previous connection epoch — and
    /// must do what a receiver that simply remembers every sequence
    /// number it has seen would do: hand each message over once, in
    /// order, as soon as the prefix is complete; acknowledge every
    /// current-epoch frame with the cumulative point; count every
    /// duplicate and every straggler. The in-order frame takes a path
    /// that never touches the reorder buffer; this keeps the two paths
    /// from drifting apart.
    #[test]
    fn receiver_matches_the_sort_and_dedup_reference(
        n in 1u64..48,
        arrivals in proptest::collection::vec((any::<u16>(), 0u8..8), 0..256),
        epoch in 1u32..4,
    ) {
        #[derive(Default)]
        struct Wire {
            acks: Vec<(u32, u64)>,
            notes: ChannelStats,
        }
        impl Phys for Wire {
            fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
                assert_eq!((src, dst), (MachineId(1), MachineId(0)));
                match frame {
                    Frame::Ack { epoch, cum } => self.acks.push((epoch, cum)),
                    Frame::Data { .. } => panic!("a receiver sends only acks"),
                }
            }
            fn note(&mut self, ev: NetEvent) {
                match ev {
                    NetEvent::DupAck => self.notes.dup_acks += 1,
                    NetEvent::DedupDrop => self.notes.dedup_drops += 1,
                    NetEvent::StaleEpochDrop => self.notes.stale_drops += 1,
                }
            }
        }
        let corr_of = |seq: u64| CorrId::new(MachineId(0), seq);
        let frame = |epoch: u32, seq: u64| Frame::Data {
            epoch,
            seq,
            payload: Bytes::from(seq.to_be_bytes().to_vec()),
            meta: FrameMeta::new(corr_of(seq)),
        };
        let mut b = Endpoint::new(MachineId(1), ChannelConfig::default());
        b.reset_peer(MachineId(0), epoch);
        let mut wire = Wire::default();
        let mut got: Vec<(CorrId, Bytes)> = Vec::new();

        // The reference: a set of sequence numbers, nothing else.
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut cum = 0u64;
        let mut want: Vec<u64> = Vec::new();
        let mut want_acks: Vec<(u32, u64)> = Vec::new();
        let mut want_stats = ChannelStats::default();

        // Every sequence number arrives at least once, after the noise.
        let tail = (1..=n).map(|seq| (seq, false));
        let noise = arrivals
            .iter()
            .map(|&(pick, kind)| (1 + u64::from(pick) % n, kind == 0));
        for (seq, stale) in noise.chain(tail) {
            let before = got.len();
            let f = if stale { frame(epoch - 1, seq) } else { frame(epoch, seq) };
            b.on_frame_into(Time(1), MachineId(0), f, &mut wire, &mut got);
            if stale {
                want_stats.stale_drops += 1;
            } else {
                if !seen.insert(seq) {
                    want_stats.dedup_drops += 1;
                }
                while seen.contains(&(cum + 1)) {
                    cum += 1;
                    want.push(cum);
                }
                want_acks.push((epoch, cum));
            }
            // The caller's list is appended to, never rewritten.
            prop_assert!(got.len() >= before);
            prop_assert_eq!(got.len(), want.len());
        }
        let want_msgs: Vec<(CorrId, Bytes)> = want
            .iter()
            .map(|&seq| (corr_of(seq), Bytes::from(seq.to_be_bytes().to_vec())))
            .collect();
        prop_assert_eq!(want, (1..=n).collect::<Vec<u64>>(), "reference delivers 1..=n");
        prop_assert_eq!(got, want_msgs, "exactly once, in order, with its correlation id");
        prop_assert_eq!(wire.acks, want_acks);
        prop_assert_eq!(b.channel_stats(), want_stats);
        prop_assert_eq!(wire.notes, want_stats, "every drop is also reported to the network");
    }

    /// Sequence windows never confuse two independent peers.
    #[test]
    fn independent_peers_do_not_interfere(
        to_b in 1usize..20,
        to_c in 1usize..20,
    ) {
        struct Collect(Vec<(MachineId, MachineId, Frame)>);
        impl Phys for Collect {
            fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
                self.0.push((src, dst, frame));
            }
        }
        let cfg = ChannelConfig::default();
        let mut a = Endpoint::new(MachineId(0), cfg);
        let mut b = Endpoint::new(MachineId(1), cfg);
        let mut c = Endpoint::new(MachineId(2), cfg);
        let mut phys = Collect(Vec::new());
        for i in 0..to_b {
            a.send(Time(0), MachineId(1), Bytes::from(vec![1, i as u8]), CorrId::NONE, &mut phys);
        }
        for i in 0..to_c {
            a.send(Time(0), MachineId(2), Bytes::from(vec![2, i as u8]), CorrId::NONE, &mut phys);
        }
        let mut got_b = 0;
        let mut got_c = 0;
        for _ in 0..6 {
            for (src, dst, f) in std::mem::take(&mut phys.0) {
                match dst.0 {
                    1 => got_b += b.on_frame(Time(1), src, f, &mut phys).len(),
                    2 => got_c += c.on_frame(Time(1), src, f, &mut phys).len(),
                    _ => { a.on_frame(Time(1), src, f, &mut phys); }
                }
            }
        }
        prop_assert_eq!(got_b, to_b);
        prop_assert_eq!(got_c, to_c);
        prop_assert!(a.quiescent());
    }
}
