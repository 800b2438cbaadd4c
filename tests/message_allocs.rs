//! The allocation budget of the delivery path.
//!
//! §6 prices DEMOS/MP in messages, so the host cost of one message
//! multiplies through every row of the ledger. This file pins that cost
//! where the allocator can see it: an encoded message is **one**
//! allocation that every later view shares, and a kernel sending to
//! another machine writes it into the slab of an acknowledged message of
//! the same length when its channel kept one — so once a pull is under
//! way a move-data packet and its ack cost **none**, a fired timer
//! reaches its program with **none**, and a request/reply round trip
//! between two machines costs **none**: the client writes its payload
//! into the slab of the one before, which its kernel kept once the
//! request was encoded. The link list a request carries is a kept one at
//! both ends. A slab is never written again while anything can still
//! read it. It is the gate that fails when an allocation is re-added,
//! without waiting for the benchmark.

mod common;

use std::cell::Cell;
use std::sync::Arc;

use bytes::{BufMut, Bytes};
use common::{allocs_in, live_bytes_in};
use demos_mp::kernel::process::Queued;
use demos_mp::kernel::program::Kept;
use demos_mp::kernel::{local_tags, Ctx, Delivered, Kernel, KernelConfig, Outbox, Program};
use demos_mp::net::{Bounce, ChannelConfig, Endpoint, Frame, Phys};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{client_stats, Cargo, Client, EchoServer};
use demos_mp::types::message::MAX_CARRIED_LINKS;
use demos_mp::types::proto::{AreaSel, MoveDataMsg};
use demos_mp::types::wire::Wire;
use demos_mp::types::{CorrId, LinkIdx, Message, MsgFlags, MsgHeader, ProcessAddress};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn pid(machine: u16, uid: u32) -> ProcessId {
    ProcessId {
        creating_machine: m(machine),
        local_uid: uid,
    }
}

fn header(msg_type: u16) -> MsgHeader {
    MsgHeader {
        dest: pid(1, 5).at(m(2)),
        src: pid(3, 9),
        src_machine: m(3),
        msg_type,
        flags: MsgFlags::NONE,
        hops: 0,
    }
}

// ----------------------------------------------------------------------
// (a) one message, one allocation, shared by every view
// ----------------------------------------------------------------------

#[test]
fn an_encoded_message_is_one_allocation_that_every_view_shares() {
    for n_links in [0usize, 1, 16] {
        for payload_len in [0usize, 64, 8192] {
            let msg = Message {
                header: header(tags::USER_BASE + 1),
                links: vec![Link::to(pid(4, 2).at(m(4))).reply(); n_links],
                payload: Bytes::from(vec![0xa5u8; payload_len]),
                corr: CorrId::NONE,
            };
            let (wire, all, _) = allocs_in(|| msg.to_bytes());
            assert_eq!(all, 1, "{n_links} links, {payload_len} B: one wire image");
            assert_eq!(wire.len(), msg.wire_len());

            // Clones, slices, splits and cursors are views of it.
            let base = wire.as_ptr();
            let (_, all, _) = allocs_in(|| {
                assert_eq!(wire.clone().as_ptr(), base);
                assert_eq!(wire.slice(21..).as_ptr(), base.wrapping_add(21));
                let mut rest = wire.clone();
                assert_eq!(rest.split_to(26).as_ptr(), base);
                assert_eq!(rest.as_ptr(), base.wrapping_add(26));
            });
            assert_eq!(all, 0);

            // Decoding allocates the link list and nothing else; the
            // payload is the tail of the same buffer.
            let mut cursor = wire.clone();
            let (back, all, _) = allocs_in(|| Message::decode(&mut cursor).expect("decodes"));
            assert_eq!(all, usize::from(n_links > 0));
            assert_eq!(back, msg);
            if payload_len > 0 {
                let at = wire.len() - payload_len;
                assert_eq!(back.payload.as_ptr(), base.wrapping_add(at));
            }

            // Into a kept list with room for the links, nothing at all;
            // whatever the list held before is gone.
            let mut kept = Vec::with_capacity(16);
            kept.push(Link::to(pid(7, 7).at(m(7))));
            let mut cursor = wire.clone();
            let (back, all, _) =
                allocs_in(|| Message::decode_in(&mut cursor, kept).expect("decodes"));
            assert_eq!(all, 0);
            assert_eq!(back, msg);
        }
    }
}

#[test]
fn a_move_data_packet_is_written_once_and_read_in_place() {
    let packet = MoveDataMsg::Data {
        op: 7,
        seq: 3,
        bytes: Bytes::from(vec![0x5au8; 1024]),
    };
    let head = header(tags::MOVE_DATA);
    // Header, framing and body go straight into the buffer that travels.
    let (wire, all, _) = allocs_in(|| Message::encode_with_body(&head, &[], &packet, None));
    assert_eq!(all, 1);
    let by_hand = Message {
        header: head,
        links: vec![],
        payload: packet.to_bytes(),
        corr: CorrId::NONE,
    };
    assert_eq!(wire, by_hand.to_bytes());

    // The receiver's two decodes copy nothing: the 1 KiB it hands the
    // reassembly buffer still lies inside the frame's payload.
    let (back, all, _) = allocs_in(|| {
        let msg = Message::from_bytes(&wire).expect("message");
        MoveDataMsg::from_bytes(&msg.payload).expect("packet")
    });
    assert_eq!(all, 0);
    let MoveDataMsg::Data { bytes, .. } = &back else {
        panic!("decoded {back:?}");
    };
    assert_eq!(
        bytes.as_ptr(),
        wire.as_ptr().wrapping_add(wire.len() - 1024)
    );
    assert_eq!(back, packet);
}

// ----------------------------------------------------------------------
// Two kernels wired by hand: a physical layer that keeps what it is
// given, in a list with room to spare so that catching a frame is free.
// ----------------------------------------------------------------------

struct Cable(Vec<(MachineId, MachineId, Frame)>);

impl Cable {
    fn new() -> Self {
        Cable(Vec::with_capacity(256))
    }
}

impl Phys for Cable {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        self.0.push((src, dst, frame));
    }
}

/// The message a data frame carries.
fn carried(frame: &Frame) -> Option<Message> {
    match frame {
        Frame::Data { payload, .. } => Message::from_bytes(payload).ok(),
        Frame::Ack { .. } => None,
    }
}

#[test]
fn once_a_pull_is_under_way_a_packet_and_its_ack_allocate_nothing() {
    let registry = programs::registry().into_shared();
    let mut kernels = [
        Kernel::new(m(0), KernelConfig::default(), Arc::clone(&registry)),
        Kernel::new(m(1), KernelConfig::default(), registry),
    ];
    let (mut cable, mut out) = (Cable::new(), Outbox::default());
    let now = Time::ZERO;
    let layout = ImageLayout {
        code: 256 * 1024,
        data: 4096,
        stack: 1024,
    };
    let cargo = kernels[0]
        .spawn(now, "cargo", &Cargo::state(64), layout, false, &mut out)
        .expect("spawn");
    let sizes = kernels[0]
        .freeze_for_migration(now, cargo, &mut cable, &mut out)
        .expect("freeze");
    kernels[1].start_kernel_pull(
        now,
        1,
        cargo,
        m(0),
        AreaSel::Image,
        sizes.image,
        &mut cable,
        &mut out,
    );

    // Shuttle frames until the pull completes. Each side's channel keeps
    // the slab of every frame the other side has acknowledged and nobody
    // reads any more, and the kernel writes its next message of that
    // length into it. So only the first window of packets and acks get
    // slabs of their own; once the transfer is under way, whatever a
    // kernel does with one frame — serve the next 1 KiB packet,
    // acknowledge one — allocates nothing. The whole pull is one window
    // of images (32 today: the move-data window's 16 packets and their 16
    // acks) plus a slack for its set-up, its tail and the queues behind
    // it, which double a handful of times as they find their size (43
    // today). One allocation per message would be over 500.
    const SLACK: usize = 48;
    let window = ChannelConfig::default().window;
    let mut inbox = Vec::with_capacity(256);
    let (mut allocs, mut messages, mut packets) = (0, 0, 0);
    while out.pull_done.is_empty() {
        assert!(!cable.0.is_empty(), "transfer stalled");
        std::mem::swap(&mut inbox, &mut cable.0);
        for (src, dst, frame) in inbox.drain(..) {
            let before = cable.0.len();
            let kernel = &mut kernels[usize::from(dst.0)];
            let (_, all, _) = allocs_in(|| kernel.on_frame(now, src, frame, &mut cable, &mut out));
            out.trace.clear();
            allocs += all;
            let (sent, mut steady) = (messages, true);
            for msg in cable.0[before..].iter().filter_map(|(_, _, f)| carried(f)) {
                assert_eq!(msg.header.msg_type, tags::MOVE_DATA);
                let body = MoveDataMsg::from_bytes(&msg.payload).expect("move-data");
                let full = matches!(&body, MoveDataMsg::Data { bytes, .. } if bytes.len() == 1024);
                packets += usize::from(full);
                messages += 1;
                // The last, shorter packet and the `Done` have no
                // predecessor of their length.
                steady &= full || matches!(body, MoveDataMsg::Ack { .. });
            }
            if sent >= window && messages > sent && steady {
                assert_eq!(all, 0, "message {messages}, to {dst}");
            }
        }
    }
    assert!(
        packets >= 256 && messages >= 2 * packets,
        "{packets} of {messages}"
    );
    assert!(
        allocs <= SLACK + window,
        "{allocs} allocations for {messages} messages, {packets} of them 1 KiB packets"
    );
    assert_eq!(out.pull_done[0].status, 0);
    assert_eq!(out.pull_done[0].data.len(), sizes.image as usize);
}

// ----------------------------------------------------------------------
// A slab comes back only when nothing can read it
// ----------------------------------------------------------------------

/// What a kernel's remote send does: encode into the slab the channel
/// hands back for exactly this length, if it kept one.
fn encode(a: &mut Endpoint, seq: u32) -> Bytes {
    let body = MoveDataMsg::Ack { op: 1, seq };
    let spare = a.take_spare(Message::framed_len(0, body.wire_len()));
    Message::encode_with_body(&header(tags::MOVE_DATA), &[], &body, spare)
}

/// Hand every frame on the cable to its endpoint, once: one hop. Returns
/// what the receiver delivered.
fn hop(ends: &mut [Endpoint; 2], cable: &mut Cable, now: Time) -> Vec<Bytes> {
    let mut delivered = Vec::new();
    for (src, dst, frame) in std::mem::take(&mut cable.0) {
        let got = ends[usize::from(dst.0)].on_frame(now, src, frame, cable);
        delivered.extend(got.into_iter().map(|(_, payload)| payload));
    }
    delivered
}

#[test]
fn a_slab_is_never_written_again_while_any_view_of_it_lives() {
    let cfg = ChannelConfig::default();
    let mut ends = [Endpoint::new(m(0), cfg), Endpoint::new(m(1), cfg)];
    let mut cable = Cable::new();
    let mut now = Time::ZERO;

    // Nothing holds the first image once it is delivered and acked: the
    // next one is written into the same slab, allocating nothing.
    let first = encode(&mut ends[0], 1);
    let reused = first.as_ptr();
    ends[0].send(now, m(1), first, CorrId::NONE, &mut cable);
    drop(hop(&mut ends, &mut cable, now));
    hop(&mut ends, &mut cable, now);
    let (second, all, _) = allocs_in(|| encode(&mut ends[0], 2));
    assert_eq!((all, second.as_ptr()), (0, reused), "refilled");

    // The receiver still holds the delivered payload when the ack comes
    // back: the slab stays with it, and the next image is a new one.
    ends[0].send(now, m(1), second.clone(), CorrId::NONE, &mut cable);
    let held = hop(&mut ends, &mut cable, now);
    hop(&mut ends, &mut cable, now);
    let (third, all, _) = allocs_in(|| encode(&mut ends[0], 3));
    assert_eq!(all, 1, "a delivered payload still reads the slab");
    assert_ne!(third.as_ptr(), reused);
    drop(second);

    // A retransmission still in flight when the original is acked holds
    // the slab too.
    ends[0].send(now, m(1), third, CorrId::NONE, &mut cable);
    now += cfg.rto;
    ends[0].on_timeout(now, &mut cable);
    let retransmitted = cable.0.pop().expect("retransmitted");
    assert!(retransmitted.2.meta().is_some_and(|meta| meta.retx));
    drop(hop(&mut ends, &mut cable, now));
    hop(&mut ends, &mut cable, now);
    let (fourth, all, _) = allocs_in(|| encode(&mut ends[0], 4));
    assert_eq!(all, 1, "a frame in flight still reads the slab");

    // More traffic, each image refilling the one before it: neither held
    // view ever changes.
    let held_bytes = held[0].to_vec();
    let Frame::Data { payload, .. } = &retransmitted.2 else {
        panic!("retransmitted {:?}", retransmitted.2);
    };
    let frame_bytes = payload.to_vec();
    let mut next = fourth;
    for seq in 5..40 {
        ends[0].send(now, m(1), next, CorrId::NONE, &mut cable);
        drop(hop(&mut ends, &mut cable, now));
        hop(&mut ends, &mut cable, now);
        let all;
        (next, all, _) = allocs_in(|| encode(&mut ends[0], seq));
        assert_eq!(all, 0, "image {seq}");
        assert_eq!(held[0], held_bytes);
        assert_eq!(payload, &frame_bytes);
    }
}

#[test]
fn bounce_condemn_and_reset_never_reclaim_a_slab() {
    let cfg = ChannelConfig {
        window: 2,
        ..ChannelConfig::default()
    };
    let mut a = Endpoint::new(m(0), cfg);
    let mut cable = Cable::new();
    let now = Time::ZERO;
    let len = encode(&mut a, 0).len();
    let send = |a: &mut Endpoint, cable: &mut Cable, to: MachineId| {
        let sent = encode(a, 1);
        a.send(now, to, sent, CorrId::NONE, cable)
    };
    let nothing_kept = |a: &mut Endpoint, what: &str| {
        assert!(a.take_spare(len).is_none(), "{what} reclaimed a slab");
    };

    // Condemned by the failure detector: every queued image comes back to
    // the kernel, whose non-deliverable handling reads it.
    send(&mut a, &mut cable, m(1));
    send(&mut a, &mut cable, m(1));
    cable.0.clear();
    let bounced: Vec<Bounce> = a.mark_dead(m(1));
    assert_eq!(bounced.len(), 2);
    nothing_kept(&mut a, "mark_dead");
    // A send to the condemned peer bounces straight back.
    let back = send(&mut a, &mut cable, m(1)).expect("bounced");
    assert_eq!(back.bytes.len(), len);
    nothing_kept(&mut a, "a bounced send");
    drop((bounced, back));

    // Condemned after a retransmission round: the image the channel sent
    // twice comes back like any other.
    send(&mut a, &mut cable, m(2));
    a.on_timeout(now + cfg.rto, &mut cable);
    cable.0.clear();
    let bounced = a.mark_dead(m(2));
    assert_eq!(bounced.len(), 1);
    nothing_kept(&mut a, "a condemned retransmission");
    drop(bounced);

    // Reset: the old incarnation's images go with it.
    send(&mut a, &mut cable, m(3));
    cable.0.clear();
    a.reset_peer(m(3), 1);
    nothing_kept(&mut a, "reset_peer");

    // The checks above are not vacuous: an ack does hand this slab back.
    send(&mut a, &mut cable, m(4));
    cable.0.clear();
    a.on_frame(now, m(4), Frame::Ack { epoch: 0, cum: 1 }, &mut cable);
    assert!(a.take_spare(len).is_some());
}

// ----------------------------------------------------------------------
// (b) a fired timer costs nothing
// ----------------------------------------------------------------------

thread_local! {
    /// `(timers handled, last token)` by the `Ticker`s of this thread.
    static TICKS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Arms a timer, and on each firing records the token and arms the next.
struct Ticker;

const TICK: Duration = Duration::from_micros(10);

impl Program for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(TICK, 1);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        TICKS.with(|t| t.set((t.get().0 + 1, token)));
        ctx.set_timer(TICK, token + 1);
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

fn ticker_registry() -> Arc<Registry> {
    let mut r = Registry::new();
    r.register("ticker", |_| Box::new(Ticker));
    r.into_shared()
}

#[test]
fn a_fired_timer_reaches_its_program_without_allocating_also_after_a_migration() {
    let registry = ticker_registry();
    let mut a = Kernel::new(m(0), KernelConfig::default(), Arc::clone(&registry));
    let mut b = Kernel::new(m(1), KernelConfig::default(), registry);
    let (mut cable, mut out) = (Cable::new(), Outbox::default());
    let mut now = Time::ZERO;
    let ticker = a
        .spawn(now, "ticker", &[], ImageLayout::default(), false, &mut out)
        .expect("spawn");
    a.run_next(now, &mut cable, &mut out).expect("on_start");

    // Warm-up: the queue, the timer list and the heap find their size.
    for _ in 0..8 {
        now += TICK;
        a.on_time(now, &mut cable, &mut out);
        a.run_next(now, &mut cable, &mut out).expect("on_timer");
    }
    assert_eq!(TICKS.with(Cell::get), (8, 8));

    // Fire, queue, dispatch: nothing is allocated, and the token arrives.
    for expect in 9..=12 {
        now += TICK;
        let (_, all, _) = allocs_in(|| {
            a.on_time(now, &mut cable, &mut out);
            a.run_next(now, &mut cable, &mut out).expect("on_timer");
        });
        assert_eq!(all, 0, "timer {expect}");
        assert_eq!(TICKS.with(Cell::get), (expect, expect));
    }

    // A timer that fires while its process is frozen for migration waits
    // on the queue as a token …
    a.freeze_for_migration(now, ticker, &mut cable, &mut out)
        .expect("freeze");
    now += TICK;
    a.on_time(now, &mut cable, &mut out);
    assert!(a.run_next(now, &mut cable, &mut out).is_none(), "frozen");
    let frozen = a.process(ticker).expect("still here");
    assert_eq!(frozen.queue.len(), 1);
    assert_eq!(frozen.queue[0], Queued::Timer(13));
    let (resident, swappable, image) = (
        frozen.serialize_resident(),
        frozen.serialize_swappable(),
        frozen.image.to_flat(),
    );

    // … and follows the process as the `TIMER` message a kernel has
    // always sent itself, byte for byte, forwarded in step 6.
    let slot = b
        .reserve_incoming(ticker, image.len() as u64)
        .expect("reserve");
    b.install_migrated(now, slot, m(0), resident, swappable, image, &mut out)
        .expect("install");
    let forwarded = a
        .finish_source_side(now, ticker, m(1), &mut cable, &mut out)
        .expect("finish");
    assert_eq!(forwarded, 1);
    let todays = Message {
        header: MsgHeader {
            dest: ticker.at(m(1)),
            src: a.kernel_pid(),
            src_machine: m(0),
            msg_type: local_tags::TIMER,
            flags: MsgFlags::FROM_KERNEL,
            hops: 1,
        },
        links: vec![],
        payload: Bytes::copy_from_slice(&13u64.to_be_bytes()),
        corr: CorrId::NONE,
    };
    assert_eq!(cable.0.len(), 1);
    let (src, dst, frame) = cable.0.remove(0);
    assert_eq!((src, dst), (m(0), m(1)));
    let Frame::Data { payload, .. } = &frame else {
        panic!("forwarded as {frame:?}");
    };
    assert_eq!(payload, &todays.to_bytes());

    b.on_frame(now, src, frame, &mut cable, &mut out);
    b.restart_migrated(ticker, &mut out).expect("restart");
    b.run_next(now, &mut cable, &mut out).expect("on_timer");
    assert_eq!(TICKS.with(Cell::get), (13, 13));
    // The timer it armed there fires there, as a token again.
    now += TICK;
    b.on_time(now, &mut cable, &mut out);
    let moved = b.process(ticker).expect("arrived");
    assert_eq!(moved.queue[0], Queued::Timer(14));
}

// ----------------------------------------------------------------------
// (c) a request/reply round trip
// ----------------------------------------------------------------------

#[test]
fn a_round_trip_between_two_machines_allocates_nothing() {
    const PERIOD_US: u32 = 2_500;
    let mut cluster = ClusterBuilder::new(2).no_trace().build();
    let server = cluster
        .spawn(
            m(1),
            "echo_server",
            &EchoServer::state(0),
            ImageLayout::default(),
        )
        .expect("spawn server");
    let client = cluster
        .spawn(
            m(0),
            "client",
            &Client::state(0, PERIOD_US, 64),
            ImageLayout::default(),
        )
        .expect("spawn client");
    let link = cluster.link_to(server).expect("server exists");
    cluster
        .post(client, wl::INIT, Bytes::new(), vec![link])
        .expect("post INIT");
    let period = Duration::from_micros(u64::from(PERIOD_US));
    let answered = |c: &Cluster| {
        let p = c.node(m(0)).kernel.process(client).expect("client");
        client_stats(&p.program.as_ref().expect("program").save()).recv
    };
    cluster.run_for(period.saturating_mul(16));
    let before = answered(&cluster);

    // Request: the client's payload, written into the slab of the one
    // before it, which its kernel kept once that request was encoded. The
    // link list `Ctx::send` fills with the reply link and the one the
    // server decodes it into: kept lists, handed back once the request is
    // encoded and once its link is installed. The link indices handed to
    // the program: inline. The two wire images, request and reply: each
    // is written into the slab of an acknowledged one of the same length.
    // The timer that paces the client: nothing.
    let rounds = 32;
    let (_, all, _) = allocs_in(|| cluster.run_for(period.saturating_mul(rounds)));
    assert_eq!(answered(&cluster) - before, rounds);
    assert_eq!(all, 0, "{all} allocations in {rounds} round trips");
}

#[test]
fn a_full_set_of_kept_link_lists_drops_what_comes_back() {
    let mut lists = Kept::default();
    let mut held: Vec<Vec<Link>> = (0..=MAX_CARRIED_LINKS)
        .map(|_| lists.take_list(1))
        .collect();
    let extra = held.pop().expect("one more than the bound");
    for list in held {
        lists.give_list(list);
    }
    // At the bound, a list that comes back is freed, and the set of kept
    // lists does not grow to hold it.
    let (_, all, live) = live_bytes_in(|| lists.give_list(extra));
    assert_eq!(all, 0);
    assert_eq!(live, -(std::mem::size_of::<Link>() as isize));
    // All kept lists come back before a new one is made.
    let (again, all, _) = allocs_in(|| {
        (0..MAX_CARRIED_LINKS)
            .map(|_| lists.take_list(1))
            .collect::<Vec<_>>()
    });
    assert_eq!(all, 1, "only the list that holds them");
    assert!(again.iter().all(|l| l.is_empty() && l.capacity() == 1));
    let (_, all, _) = allocs_in(|| lists.take_list(1));
    assert_eq!(all, 1, "a miss is one allocation");
}

// ----------------------------------------------------------------------
// (d) a program writes its payload into a slab it let go of
// ----------------------------------------------------------------------

/// A payload slab that nothing else reads: what a program writes.
fn slab(len: usize, byte: u8) -> Bytes {
    Bytes::filled(len, |out| out.put_bytes(byte, len))
}

#[test]
fn a_full_set_of_kept_slabs_frees_its_oldest_and_does_not_grow() {
    let mut kept = Kept::default();
    let mut at: Vec<*const u8> = (0..MAX_CARRIED_LINKS as u8)
        .map(|i| {
            let payload = slab(64, i);
            let ptr = payload.as_ptr();
            kept.offer(payload);
            ptr
        })
        .collect();
    // At the bound, a slab that comes back pushes the oldest out: that
    // one is freed — its bytes and its counts — and the set does not grow.
    let (extra, _, size) = live_bytes_in(|| slab(64, 0xff));
    at.push(extra.as_ptr());
    let (_, all, live) = live_bytes_in(|| kept.offer(extra));
    assert_eq!((all, live), (0, -size));
    // The others come back, newest first, without allocating; then a
    // take misses.
    for expect in at[1..].iter().rev() {
        let (back, all, _) = allocs_in(|| Bytes::refilled(kept.take(64), 64, |_| ()).as_ptr());
        assert_eq!((back, all), (*expect, 0));
    }
    assert!(kept.take(64).is_none());
}

#[test]
fn a_frame_slice_a_static_an_adopted_payload_and_a_sub_slice_are_never_kept() {
    let mut kept = Kept::default();
    // What a remote message's payload is: the tail of the frame's slab,
    // here its last view (the sender's channel has let go of it).
    let msg = Message {
        header: header(tags::USER_BASE),
        links: vec![],
        payload: Bytes::copy_from_slice(&[7; 24]),
        corr: CorrId::NONE,
    };
    let frame = msg.to_bytes();
    let payload = Message::from_bytes(&frame).expect("decodes").payload;
    let frame_len = frame.len();
    drop(frame);
    let whole = slab(16, 3);
    // Each with the length of the storage under it.
    let offered = [
        (payload, frame_len),
        (Bytes::from_static(&[5; 24]), 24),
        (Bytes::from(vec![6u8; 24]), 24),
        (whole.slice(4..12), 16),
    ];
    drop(whole);
    for (payload, under) in offered {
        let len = payload.len();
        kept.offer(payload);
        for len in [len, under] {
            assert!(kept.take(len).is_none(), "a {len}-byte slab was kept");
        }
    }
    // Nor is a slab still read by someone else; its last view is.
    let shared = slab(24, 8);
    kept.offer(shared.clone());
    assert!(kept.take(24).is_none());
    assert_eq!(shared, vec![8u8; 24]);
    kept.offer(shared);
    assert!(kept.take(24).is_some());
}

#[test]
fn a_set_that_never_keeps_a_slab_allocates_nothing() {
    let shared = slab(8, 1);
    let (_, all, live) = live_bytes_in(|| {
        let mut kept = Kept::default();
        for _ in 0..4 {
            assert!(kept.take(8).is_none());
            assert!(kept.take_list(0).is_empty());
            kept.offer(Bytes::from_static(b"static"));
            kept.offer(shared.clone());
        }
        kept
    });
    assert_eq!((all, live), (0, 0));
    // Nor does an outbox, which holds one.
    let (_, all, _) = allocs_in(Outbox::default);
    assert_eq!(all, 0);
}

thread_local! {
    /// `(payloads delivered, payloads that read wrong)` by the `Keeper`s
    /// of this thread.
    static KEPT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

const KEEPER_LEN: usize = 24;

/// The bytes of payload `seq`.
fn keeper_payload(seq: u64) -> [u8; KEEPER_LEN] {
    let mut b = [0u8; KEEPER_LEN];
    b[..8].copy_from_slice(&seq.to_be_bytes());
    b[8..16].copy_from_slice(&(!seq).to_be_bytes());
    b[16..].copy_from_slice(&seq.wrapping_mul(0x9e37_79b9).to_be_bytes());
    b
}

/// Writes payload `seq` into a fresh or kept slab on each tick and sends
/// it to a `Keeper` on the same machine (links[0] of its `INIT`).
struct Writer {
    to: Option<LinkIdx>,
    seq: u64,
}

/// Checks every payload it is given. Every `stash`-th it keeps; every
/// other one it hands on over links[0] of its `INIT` (its kernel, which
/// reads and drops it).
struct Keeper {
    stash: u64,
    sink: Option<LinkIdx>,
    stashed: Vec<(u64, Bytes)>,
}

impl Program for Writer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        self.to = msg.links.first().copied();
        ctx.set_timer(TICK, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(to) = self.to else { return };
        let bytes = keeper_payload(self.seq);
        let payload = ctx.payload(KEEPER_LEN, |out| out.put_slice(&bytes));
        ctx.send(to, wl::REQ, payload, &[]).expect("send");
        self.seq += 1;
        ctx.set_timer(TICK, 0);
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

impl Program for Keeper {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type == wl::INIT {
            self.sink = msg.links.first().copied();
            return;
        }
        let (seen, _) = KEPT.with(Cell::get);
        let wrong = msg.payload != keeper_payload(seen)[..]
            || self
                .stashed
                .iter()
                .any(|(seq, bytes)| *bytes != keeper_payload(*seq)[..]);
        KEPT.with(|k| k.set((seen + 1, k.get().1 + u64::from(wrong))));
        if seen % self.stash == 0 {
            self.stashed.push((seen, msg.payload));
        } else if let Some(sink) = self.sink {
            ctx.send(sink, wl::REQ, msg.payload, &[]).expect("hand on");
        }
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// One kernel running a `Writer` and a `Keeper` that stashes every
/// `stash`-th payload. Returns the kernel, its wiring and the clock.
fn writer_and_keeper(stash: u64) -> (Kernel, Cable, Outbox, Time) {
    let mut r = Registry::new();
    r.register("writer", |_| Box::new(Writer { to: None, seq: 0 }));
    r.register("keeper", move |_| {
        Box::new(Keeper {
            stash,
            sink: None,
            stashed: Vec::with_capacity(64),
        })
    });
    let mut kernel = Kernel::new(m(0), KernelConfig::default(), r.into_shared());
    let (mut cable, mut out, now) = (Cable::new(), Outbox::default(), Time::ZERO);
    let layout = ImageLayout::default();
    let spawn = |k: &mut Kernel, out: &mut Outbox, name| {
        k.spawn(now, name, &[], layout, false, out).expect("spawn")
    };
    let (writer, keeper) = (
        spawn(&mut kernel, &mut out, "writer"),
        spawn(&mut kernel, &mut out, "keeper"),
    );
    let init = |to: ProcessId, link: Link| Message {
        header: MsgHeader {
            dest: to.at(m(0)),
            ..header(wl::INIT)
        },
        links: vec![link],
        payload: Bytes::new(),
        corr: CorrId::NONE,
    };
    let sink = Link::to(ProcessAddress::kernel_of(m(0)));
    for msg in [init(writer, Link::to(keeper.at(m(0)))), init(keeper, sink)] {
        kernel.submit(now, msg, &mut cable, &mut out);
    }
    while kernel.run_next(now, &mut cable, &mut out).is_some() {}
    KEPT.with(|k| k.set((0, 0)));
    (kernel, cable, out, now)
}

/// Run `ticks` writer ticks, each delivered; the allocations they made.
fn tick(
    kernel: &mut Kernel,
    cable: &mut Cable,
    out: &mut Outbox,
    now: &mut Time,
    ticks: u64,
) -> usize {
    let (_, all, _) = allocs_in(|| {
        for _ in 0..ticks {
            *now += TICK;
            kernel.on_time(*now, cable, out);
            while kernel.run_next(*now, cable, out).is_some() {}
            out.trace.clear();
        }
    });
    all
}

#[test]
fn a_payload_a_program_stashes_reads_the_same_after_35_more_refills() {
    let (mut kernel, mut cable, mut out, mut now) = writer_and_keeper(3);
    // Warm-up: the queues find their size, and payload 0 is stashed.
    tick(&mut kernel, &mut cable, &mut out, &mut now, 3);
    // 54 more: every third is stashed, and the next one takes a new slab;
    // the other 36 are written into the slab the payload before them let
    // go of. Each delivery checks its own bytes and every stashed
    // payload's.
    let all = tick(&mut kernel, &mut cable, &mut out, &mut now, 54);
    assert_eq!(all, 18, "one slab per stashed payload");
    assert_eq!(KEPT.with(Cell::get), (57, 0), "(delivered, read wrong)");
}

#[test]
fn a_payload_handed_on_is_kept_once_the_activation_s_effects_are_applied() {
    // Nothing stashed after payload 0: each payload is handed on to the
    // kernel, which reads and drops it while the activation's effects are
    // applied; the slab is kept only after that, and the next payload is
    // written into it.
    let (mut kernel, mut cable, mut out, mut now) = writer_and_keeper(u64::MAX);
    tick(&mut kernel, &mut cable, &mut out, &mut now, 3);
    let all = tick(&mut kernel, &mut cable, &mut out, &mut now, 32);
    assert_eq!(all, 0);
    assert_eq!(KEPT.with(Cell::get), (35, 0), "(delivered, read wrong)");
}

// ----------------------------------------------------------------------
// (e) the in-place constructor and a length that lies
// ----------------------------------------------------------------------

#[test]
fn a_fill_that_disagrees_with_its_announced_length_degrades() {
    // What a `wire_len` one byte too large or too small would do to
    // `to_bytes`, which in a debug build stops on it by design
    // (`debug_assert`); in a release build this is all that happens.
    let announced = 16;
    let (short, all, _) = allocs_in(|| {
        Bytes::filled(announced, |out| {
            out.put_u64(0x0102_0304_0506_0708);
            out.put_slice(&[9, 10, 11, 12, 13, 14, 15]);
            assert_eq!(out.overflow(), 0);
        })
    });
    assert_eq!(all, 1);
    assert_eq!(
        short.len(),
        15,
        "the written prefix, not the zeroed remainder"
    );
    assert_eq!(short[14], 15);

    let mut overflow = 0;
    let long = Bytes::filled(announced, |out| {
        out.put_u64(0x0102_0304_0506_0708);
        out.put_u64(0x090a_0b0c_0d0e_0f10);
        out.put_u8(17);
        overflow = out.overflow();
    });
    assert_eq!(long.len(), announced, "never past the announced length");
    assert_eq!(long[15], 16);
    assert_eq!(overflow, 1, "and the caller is told, so it can count it");

    // The handle every queued message and in-flight frame carries.
    assert!(std::mem::size_of::<Bytes>() <= 32);
}
