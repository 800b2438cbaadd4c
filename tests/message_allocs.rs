//! The allocation budget of the delivery path.
//!
//! §6 prices DEMOS/MP in messages, so the host cost of one message
//! multiplies through every row of the ledger. This file pins that cost
//! where the allocator can see it: an encoded message is **one**
//! allocation that every later view shares, a move-data packet leaves the
//! kernel as one, a fired timer reaches its program with **none**, and a
//! request/reply round trip between two machines stays within six. It is
//! the gate that fails when an allocation is re-added, without waiting
//! for the benchmark.

mod common;

use std::cell::Cell;
use std::sync::Arc;

use bytes::{BufMut, Bytes};
use common::allocs_in;
use demos_mp::kernel::process::Queued;
use demos_mp::kernel::{local_tags, Ctx, Delivered, Kernel, KernelConfig, Outbox, Program};
use demos_mp::net::{Frame, Phys};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{client_stats, Cargo, Client, EchoServer};
use demos_mp::types::proto::{AreaSel, MoveDataMsg};
use demos_mp::types::wire::Wire;
use demos_mp::types::{CorrId, Message, MsgFlags, MsgHeader};

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
    let (wire, all, _) = allocs_in(|| Message::encode_with_body(&head, &[], &packet));
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
fn a_move_data_packet_leaves_the_kernel_as_one_allocation() {
    let registry = programs::registry().into_shared();
    let mut kernels = [
        Kernel::new(m(0), KernelConfig::default(), Arc::clone(&registry)),
        Kernel::new(m(1), KernelConfig::default(), registry),
    ];
    let (mut cable, mut out) = (Cable::new(), Outbox::default());
    let now = Time::ZERO;
    let layout = ImageLayout {
        code: 96 * 1024,
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

    // Shuttle frames until the pull completes. Once the transfer is under
    // way, whatever a kernel does with one frame — serve the next 1 KiB
    // packet, acknowledge one — allocates the wire image of the move-data
    // message it sends and nothing else. (The slack is for the queues
    // behind them, which double a handful of times as they find their
    // size: 7 today. A second allocation per message would be 150.)
    let mut inbox = Vec::with_capacity(256);
    let (mut handled, mut allocs, mut messages, mut packets) = (0, 0, 0, 0);
    while out.pull_done.is_empty() {
        assert!(!cable.0.is_empty(), "transfer stalled");
        std::mem::swap(&mut inbox, &mut cable.0);
        for (src, dst, frame) in inbox.drain(..) {
            let before = cable.0.len();
            let kernel = &mut kernels[usize::from(dst.0)];
            let (_, all, _) = allocs_in(|| kernel.on_frame(now, src, frame, &mut cable, &mut out));
            out.trace.clear();
            handled += 1;
            if handled <= 64 {
                continue;
            }
            let sent = messages;
            for msg in cable.0[before..].iter().filter_map(|(_, _, f)| carried(f)) {
                assert_eq!(msg.header.msg_type, tags::MOVE_DATA);
                let body = MoveDataMsg::from_bytes(&msg.payload).expect("move-data");
                let full = matches!(&body, MoveDataMsg::Data { bytes, .. } if bytes.len() == 1024);
                packets += usize::from(full);
                messages += 1;
            }
            assert!(all >= messages - sent, "frame {handled} to {dst}");
            allocs += all;
        }
    }
    assert!(
        packets >= 64 && messages >= 2 * packets,
        "{packets} of {messages}"
    );
    assert!(
        allocs <= messages + 16,
        "{allocs} allocations for {messages} messages, {packets} of them 1 KiB packets"
    );
    assert_eq!(out.pull_done[0].status, 0);
    assert_eq!(out.pull_done[0].data.len(), sizes.image as usize);
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
fn a_round_trip_between_two_machines_costs_at_most_six_allocations() {
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

    // Request: the client's payload buffer, the link list `Ctx::send`
    // builds for the reply link, the wire image, and at the server the
    // decoded link list and the link indices handed to the program.
    // Reply: its wire image. The timer that paces the client: nothing.
    let rounds = 32;
    let (_, all, _) = allocs_in(|| cluster.run_for(period.saturating_mul(rounds)));
    assert_eq!(answered(&cluster) - before, rounds);
    assert!(
        all as u64 <= 6 * rounds,
        "{all} allocations in {rounds} round trips"
    );
}

// ----------------------------------------------------------------------
// (d) the in-place constructor and a length that lies
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
