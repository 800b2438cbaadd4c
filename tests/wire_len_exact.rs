//! `Wire::wire_len` is required and arithmetic; `to_bytes` allocates its
//! one buffer from it. This file pins, for generated values of **every**
//! `Wire` type in the workspace, that the arithmetic agrees with what
//! `encode` writes and that the value comes back — and that an encode
//! which has to clamp is counted once, not once per pass. `encode` writes
//! through any `BufMut`, so the same values also pin that the in-place
//! slab `to_bytes` fills, a `Vec<u8>` and a `BytesMut` receive the same
//! bytes.

use std::fmt::Debug;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_mp::kernel::mgmt::KernelMgmt;
use demos_mp::kernel::{Checkpoint, ExecStatus, ImageLayout, LinkTable};
use demos_mp::net::Frame;
use demos_mp::sysproc::{FsMsg, MemMsg, PmMsg, SbMsg};
use demos_mp::types::proto::{
    AreaSel, KernelOp, LinkMaintMsg, MigrateMsg, MoveDataMsg, RejectReason,
};
use demos_mp::types::wire::{codec_stats, WireError};
use demos_mp::types::{
    CorrId, DataArea, Link, LinkAttrs, MachineId, Message, MsgFlags, MsgHeader, ProcessAddress,
    ProcessId, Time, Wire,
};
use proptest::prelude::*;

/// The properties, for one value: the length is exact, the value comes
/// back, and every sink receives the same encoding.
fn exact<T: Wire + PartialEq + Debug>(v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(v.wire_len(), bytes.len(), "wire_len of {v:?}");
    assert_eq!(&T::from_bytes(&bytes).expect("decodes"), v);
    let (mut vec, mut builder) = (Vec::new(), BytesMut::new());
    v.encode(&mut vec);
    v.encode(&mut builder);
    assert_eq!(bytes, vec, "Vec sink of {v:?}");
    assert_eq!(bytes, builder.freeze(), "BytesMut sink of {v:?}");
}

/// `MsgHeader` is written as one 21-byte array and read as one chunk;
/// this is the field-by-field codec it replaced, kept as the reference.
fn header_by_fields(h: &MsgHeader) -> Vec<u8> {
    let mut buf = Vec::new();
    h.dest.encode(&mut buf);
    h.src.encode(&mut buf);
    h.src_machine.encode(&mut buf);
    buf.put_u16(h.msg_type);
    buf.put_u16(h.flags.0);
    buf.put_u8(h.hops);
    buf
}

fn header_from_fields(buf: &mut Bytes) -> MsgHeader {
    MsgHeader {
        dest: ProcessAddress::decode(buf).expect("dest"),
        src: ProcessId::decode(buf).expect("src"),
        src_machine: MachineId::decode(buf).expect("src_machine"),
        msg_type: buf.get_u16(),
        flags: MsgFlags(buf.get_u16()),
        hops: buf.get_u8(),
    }
}

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (any::<u16>(), any::<u32>()).prop_map(|(m, local_uid)| ProcessId {
        creating_machine: MachineId(m),
        local_uid,
    })
}

fn arb_addr() -> impl Strategy<Value = ProcessAddress> {
    (any::<u16>(), arb_pid()).prop_map(|(m, pid)| pid.at(MachineId(m)))
}

/// Links in the codec's normal form (`HAS_AREA` set iff an area rides).
fn arb_link() -> impl Strategy<Value = Link> {
    (
        arb_addr(),
        any::<u8>(),
        proptest::option::of((any::<u32>(), any::<u32>())),
    )
        .prop_map(|(addr, bits, area)| {
            let link = Link {
                addr,
                attrs: LinkAttrs(u16::from(bits) & 0b1111),
                area: None,
            };
            match area {
                Some((offset, len)) => link.with_area(DataArea { offset, len }, LinkAttrs::NONE),
                None => link,
            }
        })
}

fn arb_header() -> impl Strategy<Value = MsgHeader> {
    (
        arb_addr(),
        arb_pid(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(dest, src, m, msg_type, flags, hops)| MsgHeader {
            dest,
            src,
            src_machine: MachineId(m),
            msg_type,
            flags: MsgFlags(flags),
            hops,
        })
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..40)
        .prop_map(|v| String::from_utf8(v).expect("printable ascii"))
}

fn arb_layout() -> impl Strategy<Value = ImageLayout> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(code, data, stack)| ImageLayout {
        code,
        data,
        stack,
    })
}

fn area_sel(n: u8) -> AreaSel {
    [
        AreaSel::LinkArea,
        AreaSel::Resident,
        AreaSel::Swappable,
        AreaSel::Image,
    ][usize::from(n % 4)]
}

fn reject_reason(n: u8) -> RejectReason {
    [
        RejectReason::Capacity,
        RejectReason::Policy,
        RejectReason::DuplicatePid,
        RejectReason::Protocol,
    ][usize::from(n % 4)]
}

proptest! {
    #[test]
    fn scalars_ids_links_and_headers(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(),
        addr in arb_addr(), link in arb_link(), header in arb_header(),
    ) {
        exact(&a);
        exact(&b);
        exact(&c);
        exact(&d);
        exact(&(a & 1 == 0));
        exact(&MachineId(b));
        exact(&addr.pid);
        exact(&addr);
        exact(&Time(d));
        exact(&link);
        exact(&header);
        // The array codec against the reference, both directions, and a
        // header cut anywhere is an error, never a panic.
        let image = header.to_bytes();
        prop_assert_eq!(&image, &header_by_fields(&header));
        prop_assert_eq!(header_from_fields(&mut image.clone()), header);
        for cut in 0..MsgHeader::WIRE_LEN {
            let cut_short = MsgHeader::decode(&mut image.slice(..cut));
            prop_assert!(matches!(cut_short, Err(WireError::Truncated(_))), "{cut}: {cut_short:?}");
        }
    }

    #[test]
    fn messages_and_frames(
        header in arb_header(),
        links in proptest::collection::vec(arb_link(), 0..17),
        payload in arb_bytes(2048),
        epoch in any::<u32>(), seq in any::<u64>(),
    ) {
        let msg = Message { header, links, payload, corr: CorrId(seq) };
        exact(&msg);
        prop_assert_eq!(msg.wire_size(), msg.wire_len());
        // A body written straight into the frame gives the same image as
        // body → payload → frame.
        let body = MoveDataMsg::Data { op: 3, seq: epoch, bytes: msg.payload.clone() };
        let nested = Message { payload: body.to_bytes(), ..msg.clone() };
        prop_assert_eq!(
            Message::encode_with_body(&msg.header, &msg.links, &body),
            nested.to_bytes()
        );
        exact(&Frame::Data { epoch, seq, payload: msg.to_bytes(), meta: Default::default() });
        exact(&Frame::Ack { epoch, cum: seq });
    }

    #[test]
    fn kernel_protocols(
        pid in arb_pid(), other in arb_pid(), m in any::<u16>(), sel in any::<u8>(),
        a in any::<u16>(), b in any::<u16>(), c in any::<u32>(), d in any::<u32>(),
        e in any::<u64>(), bytes in arb_bytes(2048),
    ) {
        let machine = MachineId(m);
        exact(&reject_reason(sel));
        exact(&area_sel(sel));
        exact(&[ExecStatus::Ready, ExecStatus::Waiting, ExecStatus::Suspended][usize::from(sel % 3)]);
        for op in [
            KernelOp::Suspend,
            KernelOp::Resume,
            KernelOp::Kill,
            KernelOp::MigrateRequest { dest: machine, flags: a },
            KernelOp::QueryStatus,
        ] {
            exact(&op);
        }
        for msg in [
            MigrateMsg::Offer { ctx: a, pid, resident_len: a, swappable_len: b, image_len: c },
            MigrateMsg::Accept { ctx: a, slot: b, window: a },
            MigrateMsg::Reject { ctx: a, pid, reason: reject_reason(sel) },
            MigrateMsg::TransferComplete { ctx: a, received: c },
            MigrateMsg::CleanupDone { ctx: a, forwarded: b },
            MigrateMsg::Done { pid, dest: machine, status: sel },
            MigrateMsg::Abort { ctx: a, pid },
        ] {
            exact(&msg);
        }
        for msg in [
            MoveDataMsg::ReadReq { op: a, target: pid, sel: area_sel(sel), offset: c, len: d },
            MoveDataMsg::WriteReq { op: a, target: pid, sel: area_sel(sel), offset: c, len: d },
            MoveDataMsg::Data { op: a, seq: c, bytes },
            MoveDataMsg::Ack { op: a, seq: c },
            MoveDataMsg::Done { op: a, status: sel, total: c },
            MoveDataMsg::Abort { op: a, reason: sel },
        ] {
            exact(&msg);
        }
        for msg in [
            LinkMaintMsg::LinkUpdate { sender: pid, migrated: other, new_machine: machine },
            LinkMaintMsg::NonDeliverable { dest: pid, msg_type: a, reason: sel },
            LinkMaintMsg::DeathNotice { pid },
            LinkMaintMsg::Heartbeat { from: machine, seq: e },
        ] {
            exact(&msg);
        }
    }

    #[test]
    fn kernel_records(
        pid in arb_pid(), m in any::<u16>(), at in any::<u64>(), token in any::<u32>(),
        name in arb_name(), state in arb_bytes(1024), layout in arb_layout(),
        links in proptest::collection::vec(arb_link(), 0..24),
        resident in arb_bytes(300), swappable in arb_bytes(700), image in arb_bytes(4096),
    ) {
        exact(&layout);
        for msg in [
            KernelMgmt::CreateProcess { token, name, state, layout, privileged: token & 1 == 0 },
            KernelMgmt::Created { token, pid },
            KernelMgmt::CreateFailed { token, reason: 2 },
        ] {
            exact(&msg);
        }
        let mut table = LinkTable::new();
        for link in links {
            table.insert(link);
        }
        exact(&table);
        exact(&Checkpoint {
            pid,
            taken_on: MachineId(m),
            taken_at: Time(at),
            resident: resident.to_vec(),
            swappable: swappable.to_vec(),
            image,
        });
    }

    #[test]
    fn system_process_protocols(
        m in any::<u16>(), a in any::<u32>(), b in any::<u32>(), c in any::<u32>(),
        big in any::<u64>(), name in arb_name(), state in arb_bytes(1024),
        layout in arb_layout(), data in arb_bytes(4096),
    ) {
        let machine = MachineId(m);
        let ok = a & 1 == 0;
        for msg in [
            SbMsg::Register { name: name.clone() },
            SbMsg::Lookup { name: name.clone() },
            SbMsg::Registered { ok },
            SbMsg::Found { name: name.clone() },
            SbMsg::NotFound { name: name.clone() },
        ] {
            exact(&msg);
        }
        for msg in [
            PmMsg::Spawn { machine, program: name.clone(), state, layout, privileged: ok },
            PmMsg::Spawned { creating_machine: machine, local_uid: a },
            PmMsg::SpawnFailed { reason: 1 },
            PmMsg::Migrate { dest: machine },
            PmMsg::Kill,
        ] {
            exact(&msg);
        }
        for msg in [
            MemMsg::Reserve { machine, bytes: big },
            MemMsg::Release { machine, bytes: big },
            MemMsg::Query { machine },
            MemMsg::Granted { ok, free: big },
        ] {
            exact(&msg);
        }
        for msg in [
            FsMsg::DirCreate { tok: a, name: name.clone() },
            FsMsg::DirLookup { tok: a, name: name.clone() },
            FsMsg::DirDone { tok: a, fid: b },
            FsMsg::Create { name: name.clone() },
            FsMsg::Open { name },
            FsMsg::Read { fid: a, off: b, len: c },
            FsMsg::Write { fid: a, off: b, bytes: data.clone() },
            FsMsg::Data { bytes: data.clone() },
            FsMsg::Done { fid: a, len: b },
            FsMsg::Err { code: 2 },
            FsMsg::BRead { tok: a, blk: b },
            FsMsg::BWrite { tok: a, blk: b, bytes: data.clone() },
            FsMsg::BAlloc { tok: a },
            FsMsg::BData { tok: a, blk: b, bytes: data },
            FsMsg::BOk { tok: a, blk: b },
        ] {
            exact(&msg);
        }
    }
}

/// More links than the one-byte count can express: the encoder writes
/// 255 of them and says so, `wire_len` has to describe *that* image, and
/// one clamped encode is one clamp on the counter. (At the parent commit
/// `to_bytes` encoded twice — once to measure — and counted 2; its
/// `wire_size()` summed all 300 links.)
///
/// The only test in this binary that clamps: the counter is
/// process-wide.
#[test]
fn clamped_message_is_sized_as_encoded_and_counted_once() {
    let addr = ProcessId {
        creating_machine: MachineId(1),
        local_uid: 7,
    }
    .at(MachineId(2));
    let msg = Message {
        header: MsgHeader {
            dest: addr,
            src: addr.pid,
            src_machine: MachineId(1),
            msg_type: 0x1001,
            flags: MsgFlags::NONE,
            hops: 0,
        },
        links: vec![Link::to(addr); 300],
        payload: Bytes::from_static(b"payload"),
        corr: CorrId::NONE,
    };
    let before = codec_stats::clamped();
    let bytes = msg.to_bytes();
    assert_eq!(codec_stats::clamped() - before, 1, "one clamped encode");
    assert_eq!(msg.wire_len(), bytes.len());
    assert_eq!(msg.wire_size(), bytes.len());
    assert_eq!(
        bytes.len(),
        MsgHeader::WIRE_LEN + 1 + 4 + 255 * Link::WIRE_LEN + 7
    );
    // Sizing alone never touches the counter.
    let _ = msg.wire_len();
    assert_eq!(codec_stats::clamped() - before, 1);
    // The single-pass body encoder clamps — and counts — the same way.
    let body = LinkMaintMsg::DeathNotice { pid: addr.pid };
    let image = Message::encode_with_body(&msg.header, &msg.links, &body);
    assert_eq!(codec_stats::clamped() - before, 2);
    let nested = Message {
        payload: body.to_bytes(),
        ..msg
    };
    assert_eq!(image, nested.to_bytes());
}
