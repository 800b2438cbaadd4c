//! The wire format, pinned as bytes — and decoders that are total.
//!
//! `tests/wire/GOLDEN.txt` holds one line `Type::Variant <hex>` for a
//! fixed value of every variant of the twelve tagged wire enums (plus
//! `net::Frame`), at boundary values: `u16::MAX` ids, empty and one-byte
//! byte strings, a 40-character name, both values of every `bool`. Every
//! line is held five ways: `to_bytes()` writes exactly it; `from_bytes`
//! reads the value back; every strict prefix of it is an `Err`; it plus
//! one trailing byte is an `Err`; and with any one byte flipped it either
//! fails to decode or decodes to a value whose `wire_len`, encoding and
//! decoding agree — never a panic.
//!
//! Three of the enums ride inside another type and are pinned there:
//! a `RejectReason::X` line is `MigrateMsg::Reject` carrying `X`, an
//! `AreaSel::X` line is `MoveDataMsg::ReadReq` selecting `X`, and an
//! `ExecStatus::X` line is the status byte of a resident state record.
//!
//! A change that is not meant to move the wire leaves the file untouched.
//! A deliberate one re-pins it in the same reviewed diff: the failing
//! test prints the file as the codecs now write it.
//!
//! The last test feeds arbitrary bytes to every protocol decoder
//! (ROADMAP: decode fuzzing for `sysproc::proto`, the kernel management
//! protocol and `net::Frame` with its epoch header, next to the `types`
//! protocols `crates/types/tests/prop_wire.rs` already covered).

use std::fmt::{Debug, Write};

use bytes::Bytes;
use demos_mp::kernel::mgmt::KernelMgmt;
use demos_mp::kernel::{Ctx, Delivered, ExecStatus, ImageLayout, Process, Program};
use demos_mp::net::Frame;
use demos_mp::sysproc::{FsMsg, MemMsg, PmMsg, SbMsg};
use demos_mp::types::proto::{
    AreaSel, KernelOp, LinkMaintMsg, MigrateMsg, MoveDataMsg, RejectReason,
};
use demos_mp::types::{MachineId, ProcessId, Time, Wire};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("wire/GOLDEN.txt");

/// Whatever `input` decodes to is a value the codec agrees with itself
/// about: sized as encoded, and read back from its own encoding.
/// Values are compared, not bytes — re-encoding may normalise (a `bool`
/// read from any non-zero byte is written as 1).
fn total<T: Wire + PartialEq + Debug>(input: &Bytes) {
    if let Ok(v) = T::decode(&mut input.clone()) {
        let bytes = v.to_bytes();
        assert_eq!(v.wire_len(), bytes.len(), "wire_len of {v:?}");
        assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(&v));
    }
}

/// The golden file as the codecs write it today, built a line at a time.
#[derive(Default)]
struct Golden {
    rendered: String,
}

impl Golden {
    fn line(&mut self, label: &str, bytes: &[u8]) {
        write!(self.rendered, "{label} ").expect("write to a String");
        for b in bytes {
            write!(self.rendered, "{b:02x}").expect("write to a String");
        }
        self.rendered.push('\n');
    }

    /// One line, and everything the module doc promises about it.
    fn pin<T: Wire + PartialEq + Debug>(&mut self, label: &str, v: T) {
        let bytes = v.to_bytes();
        self.line(label, &bytes);
        assert_eq!(v.wire_len(), bytes.len(), "{label}: wire_len");
        assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(&v), "{label}");
        for cut in 0..bytes.len() {
            let prefix = T::from_bytes(&bytes.slice(..cut));
            assert!(prefix.is_err(), "{label} cut at {cut}: {prefix:?}");
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        let trailing = T::from_bytes(&Bytes::from(longer));
        assert!(trailing.is_err(), "{label} plus one byte: {trailing:?}");
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                total::<T>(&Bytes::from(flipped));
            }
        }
    }
}

const TOP: MachineId = MachineId(u16::MAX);
const PID: ProcessId = ProcessId {
    creating_machine: TOP,
    local_uid: u32::MAX,
};
const NAME_40: &str = "forty-characters-of-program-name-exactly";
const LAYOUT: ImageLayout = ImageLayout {
    code: 0x0102_0304,
    data: 0,
    stack: u32::MAX,
};

fn one_byte() -> Bytes {
    Bytes::from_static(&[0xa5])
}

fn kernel_protocols(g: &mut Golden) {
    g.pin("KernelOp::Suspend", KernelOp::Suspend);
    g.pin("KernelOp::Resume", KernelOp::Resume);
    g.pin("KernelOp::Kill", KernelOp::Kill);
    g.pin(
        "KernelOp::MigrateRequest",
        KernelOp::MigrateRequest {
            dest: TOP,
            flags: 0x0102,
        },
    );
    g.pin("KernelOp::QueryStatus", KernelOp::QueryStatus);

    g.pin(
        "MigrateMsg::Offer",
        MigrateMsg::Offer {
            ctx: u16::MAX,
            pid: PID,
            resident_len: 250,
            swappable_len: 600,
            image_len: 0x0008_0000,
        },
    );
    g.pin(
        "MigrateMsg::Accept",
        MigrateMsg::Accept {
            ctx: u16::MAX,
            slot: 1,
            window: 1024,
        },
    );
    for (label, reason) in [
        ("MigrateMsg::Reject", RejectReason::Capacity),
        ("RejectReason::Capacity", RejectReason::Capacity),
        ("RejectReason::Policy", RejectReason::Policy),
        ("RejectReason::DuplicatePid", RejectReason::DuplicatePid),
        ("RejectReason::Protocol", RejectReason::Protocol),
    ] {
        let (ctx, pid) = (u16::MAX, PID);
        g.pin(label, MigrateMsg::Reject { ctx, pid, reason });
    }
    g.pin(
        "MigrateMsg::TransferComplete",
        MigrateMsg::TransferComplete {
            ctx: u16::MAX,
            received: u32::MAX,
        },
    );
    g.pin(
        "MigrateMsg::CleanupDone",
        MigrateMsg::CleanupDone {
            ctx: u16::MAX,
            forwarded: 12,
        },
    );
    g.pin(
        "MigrateMsg::Done",
        MigrateMsg::Done {
            pid: PID,
            dest: TOP,
            status: 2,
        },
    );
    g.pin(
        "MigrateMsg::Abort",
        MigrateMsg::Abort {
            ctx: u16::MAX,
            pid: PID,
        },
    );

    for (label, sel) in [
        ("MoveDataMsg::ReadReq", AreaSel::Image),
        ("AreaSel::LinkArea", AreaSel::LinkArea),
        ("AreaSel::Resident", AreaSel::Resident),
        ("AreaSel::Swappable", AreaSel::Swappable),
        ("AreaSel::Image", AreaSel::Image),
    ] {
        g.pin(
            label,
            MoveDataMsg::ReadReq {
                op: u16::MAX,
                target: PID,
                sel,
                offset: 64,
                len: 0,
            },
        );
    }
    g.pin(
        "MoveDataMsg::WriteReq",
        MoveDataMsg::WriteReq {
            op: u16::MAX,
            target: PID,
            sel: AreaSel::LinkArea,
            offset: u32::MAX,
            len: 128,
        },
    );
    for bytes in [Bytes::new(), one_byte()] {
        g.pin(
            "MoveDataMsg::Data",
            MoveDataMsg::Data {
                op: u16::MAX,
                seq: u32::MAX,
                bytes,
            },
        );
    }
    g.pin(
        "MoveDataMsg::Ack",
        MoveDataMsg::Ack {
            op: u16::MAX,
            seq: 5,
        },
    );
    g.pin(
        "MoveDataMsg::Done",
        MoveDataMsg::Done {
            op: u16::MAX,
            status: 0,
            total: 4096,
        },
    );
    g.pin(
        "MoveDataMsg::Abort",
        MoveDataMsg::Abort {
            op: u16::MAX,
            reason: 2,
        },
    );

    g.pin(
        "LinkMaintMsg::LinkUpdate",
        LinkMaintMsg::LinkUpdate {
            sender: PID,
            migrated: ProcessId {
                creating_machine: MachineId(1),
                local_uid: 2,
            },
            new_machine: TOP,
        },
    );
    g.pin(
        "LinkMaintMsg::NonDeliverable",
        LinkMaintMsg::NonDeliverable {
            dest: PID,
            msg_type: 0x1001,
            reason: 1,
        },
    );
    g.pin(
        "LinkMaintMsg::DeathNotice",
        LinkMaintMsg::DeathNotice { pid: PID },
    );
    g.pin(
        "LinkMaintMsg::Heartbeat",
        LinkMaintMsg::Heartbeat {
            from: TOP,
            seq: u64::MAX,
        },
    );

    for (name, state, privileged) in [(NAME_40, Bytes::new(), true), ("", one_byte(), false)] {
        g.pin(
            "KernelMgmt::CreateProcess",
            KernelMgmt::CreateProcess {
                token: u32::MAX,
                name: name.into(),
                state,
                layout: LAYOUT,
                privileged,
            },
        );
    }
    g.pin(
        "KernelMgmt::Created",
        KernelMgmt::Created {
            token: u32::MAX,
            pid: PID,
        },
    );
    g.pin(
        "KernelMgmt::CreateFailed",
        KernelMgmt::CreateFailed {
            token: u32::MAX,
            reason: 1,
        },
    );
}

fn system_process_protocols(g: &mut Golden) {
    let name = || String::from(NAME_40);
    g.pin("SbMsg::Register", SbMsg::Register { name: name() });
    g.pin(
        "SbMsg::Lookup",
        SbMsg::Lookup {
            name: String::new(),
        },
    );
    for ok in [true, false] {
        g.pin("SbMsg::Registered", SbMsg::Registered { ok });
    }
    g.pin("SbMsg::Found", SbMsg::Found { name: name() });
    g.pin("SbMsg::NotFound", SbMsg::NotFound { name: "x".into() });

    for (program, state, privileged) in [(NAME_40, Bytes::new(), true), ("", one_byte(), false)] {
        g.pin(
            "PmMsg::Spawn",
            PmMsg::Spawn {
                machine: TOP,
                program: program.into(),
                state,
                layout: LAYOUT,
                privileged,
            },
        );
    }
    g.pin(
        "PmMsg::Spawned",
        PmMsg::Spawned {
            creating_machine: TOP,
            local_uid: u32::MAX,
        },
    );
    g.pin("PmMsg::SpawnFailed", PmMsg::SpawnFailed { reason: 1 });
    g.pin("PmMsg::Migrate", PmMsg::Migrate { dest: TOP });
    g.pin("PmMsg::Kill", PmMsg::Kill);

    let (machine, bytes) = (TOP, u64::MAX);
    g.pin("MemMsg::Reserve", MemMsg::Reserve { machine, bytes });
    g.pin("MemMsg::Release", MemMsg::Release { machine, bytes });
    g.pin("MemMsg::Query", MemMsg::Query { machine });
    for ok in [true, false] {
        g.pin("MemMsg::Granted", MemMsg::Granted { ok, free: 1 << 20 });
    }

    let (tok, fid, blk, off) = (u32::MAX, 3, 7, 8);
    g.pin("FsMsg::DirCreate", FsMsg::DirCreate { tok, name: name() });
    g.pin(
        "FsMsg::DirLookup",
        FsMsg::DirLookup {
            tok,
            name: String::new(),
        },
    );
    g.pin("FsMsg::DirDone", FsMsg::DirDone { tok, fid });
    g.pin("FsMsg::Create", FsMsg::Create { name: name() });
    g.pin("FsMsg::Open", FsMsg::Open { name: "a".into() });
    g.pin("FsMsg::Read", FsMsg::Read { fid, off, len: 512 });
    for bytes in [Bytes::new(), one_byte()] {
        g.pin("FsMsg::Write", FsMsg::Write { fid, off, bytes });
    }
    for bytes in [Bytes::new(), one_byte()] {
        g.pin("FsMsg::Data", FsMsg::Data { bytes });
    }
    g.pin("FsMsg::Done", FsMsg::Done { fid, len: 3 });
    g.pin("FsMsg::Err", FsMsg::Err { code: 2 });
    g.pin("FsMsg::BRead", FsMsg::BRead { tok, blk });
    let bytes = Bytes::from_static(b"block");
    g.pin(
        "FsMsg::BWrite",
        FsMsg::BWrite {
            tok,
            blk,
            bytes: bytes.clone(),
        },
    );
    g.pin("FsMsg::BAlloc", FsMsg::BAlloc { tok });
    g.pin("FsMsg::BData", FsMsg::BData { tok, blk, bytes });
    g.pin("FsMsg::BOk", FsMsg::BOk { tok, blk });
}

fn frames(g: &mut Golden) {
    for payload in [Bytes::new(), one_byte()] {
        g.pin(
            "Frame::Data",
            Frame::Data {
                epoch: u32::MAX,
                seq: u64::MAX,
                payload,
                meta: Default::default(),
            },
        );
    }
    g.pin(
        "Frame::Ack",
        Frame::Ack {
            epoch: u32::MAX,
            cum: 5,
        },
    );
}

struct Inert;
impl Program for Inert {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {}
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// `ExecStatus` has no message of its own: it is the byte after the pid
/// in a resident state record.
fn exec_status(g: &mut Golden) {
    const AT: usize = ProcessId::WIRE_LEN;
    let mut p = Process::new(PID, "inert", Box::new(Inert), LAYOUT, false, Time(0));
    let swappable = Bytes::from(p.serialize_swappable());
    let install = |resident: Vec<u8>| {
        Process::from_migrated(resident.into(), swappable.clone(), p.image.clone())
            .map(|q| q.status)
    };
    for (label, status) in [
        ("ExecStatus::Ready", ExecStatus::Ready),
        ("ExecStatus::Waiting", ExecStatus::Waiting),
        ("ExecStatus::Suspended", ExecStatus::Suspended),
    ] {
        p.status = status;
        let resident = p.serialize_resident();
        g.line(label, &resident[AT..=AT]);
        assert_eq!(install(resident), Ok(status), "{label}");
    }
    let mut unknown = p.serialize_resident();
    unknown[AT] = 3;
    assert!(install(unknown).is_err(), "no fourth status");
}

#[test]
fn the_golden_file_is_what_the_codecs_write_and_read() {
    let mut g = Golden::default();
    kernel_protocols(&mut g);
    exec_status(&mut g);
    system_process_protocols(&mut g);
    frames(&mut g);
    assert!(
        g.rendered == GOLDEN,
        "tests/wire/GOLDEN.txt is not what the codecs write; they write:\n{}",
        g.rendered
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // As drawn, and again under a small tag, so that the fields
        // behind a tag are reached by more than one draw in 256.
        let mut tagged = data.clone();
        if let Some(tag) = tagged.first_mut() {
            *tag %= 16;
        }
        for input in [Bytes::from(data), Bytes::from(tagged)] {
            total::<SbMsg>(&input);
            total::<PmMsg>(&input);
            total::<MemMsg>(&input);
            total::<FsMsg>(&input);
            total::<KernelMgmt>(&input);
            total::<Frame>(&input);
            total::<KernelOp>(&input);
            total::<MigrateMsg>(&input);
            total::<MoveDataMsg>(&input);
            total::<LinkMaintMsg>(&input);
        }
    }
}
