//! Wire protocols of the system server processes (§2.3).
//!
//! Every server is an ordinary process reached over links; requests carry
//! a reply link as their first carried link (the DEMOS request/reply
//! convention, §2.4). Payloads are byte-exact like everything else.

use bytes::{Buf, BufMut, Bytes};
use demos_kernel::ImageLayout;
use demos_types::wire::{self, Wire, WireError};
use demos_types::MachineId;

/// Message-type tags of the system services.
pub mod sys {
    use demos_types::tags::SYS_BASE;
    /// Switchboard (name service).
    pub const SWITCHBOARD: u16 = SYS_BASE;
    /// Process manager.
    pub const PROCMGR: u16 = SYS_BASE + 1;
    /// Memory scheduler.
    pub const MEMSCHED: u16 = SYS_BASE + 2;
    /// File system (all four processes).
    pub const FS: u16 = SYS_BASE + 3;
    /// Command interpreter.
    pub const SHELL: u16 = SYS_BASE + 4;
}

const MAX_NAME: usize = 128;
const MAX_DATA: usize = 4096;

/// Switchboard protocol: "a server that distributes links by name" (§2.3).
#[derive(Clone, Debug, PartialEq)]
pub enum SbMsg {
    /// Register the link carried in slot 1 under `name` (slot 0: reply).
    Register {
        /// Service name.
        name: String,
    },
    /// Look `name` up (slot 0: reply).
    Lookup {
        /// Service name.
        name: String,
    },
    /// Registration outcome.
    Registered {
        /// Whether the name was stored (false = table full / no link).
        ok: bool,
    },
    /// Lookup hit; the link is carried in slot 0 of the reply message.
    Found {
        /// Echoed name.
        name: String,
    },
    /// Lookup miss.
    NotFound {
        /// Echoed name.
        name: String,
    },
}

impl Wire for SbMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            SbMsg::Register { name } => {
                buf.put_u8(1);
                wire::put_string(buf, name);
            }
            SbMsg::Lookup { name } => {
                buf.put_u8(2);
                wire::put_string(buf, name);
            }
            SbMsg::Registered { ok } => {
                buf.put_u8(3);
                buf.put_u8(*ok as u8);
            }
            SbMsg::Found { name } => {
                buf.put_u8(4);
                wire::put_string(buf, name);
            }
            SbMsg::NotFound { name } => {
                buf.put_u8(5);
                wire::put_string(buf, name);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            SbMsg::Register { name }
            | SbMsg::Lookup { name }
            | SbMsg::Found { name }
            | SbMsg::NotFound { name } => 1 + wire::bytes_len(name.len()),
            SbMsg::Registered { .. } => 1 + 1,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("SbMsg"));
        }
        match buf.get_u8() {
            1 => Ok(SbMsg::Register {
                name: wire::get_string(buf, "Register.name", MAX_NAME)?,
            }),
            2 => Ok(SbMsg::Lookup {
                name: wire::get_string(buf, "Lookup.name", MAX_NAME)?,
            }),
            3 => {
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated("Registered"));
                }
                Ok(SbMsg::Registered {
                    ok: buf.get_u8() != 0,
                })
            }
            4 => Ok(SbMsg::Found {
                name: wire::get_string(buf, "Found.name", MAX_NAME)?,
            }),
            5 => Ok(SbMsg::NotFound {
                name: wire::get_string(buf, "NotFound.name", MAX_NAME)?,
            }),
            t => Err(WireError::BadTag {
                what: "SbMsg",
                tag: t as u16,
            }),
        }
    }
}

/// Process-manager protocol (§2.3): creation, migration, destruction.
#[derive(Clone, Debug, PartialEq)]
pub enum PmMsg {
    /// Create a process on `machine` (slot 0: reply).
    Spawn {
        /// Target machine.
        machine: MachineId,
        /// Registered program name.
        program: String,
        /// Initial program state.
        state: Bytes,
        /// Image layout.
        layout: ImageLayout,
        /// Privileged (system) process?
        privileged: bool,
    },
    /// Creation succeeded; a link to the new process rides in slot 0.
    Spawned {
        /// The new process (pid encoded in the carried link too).
        creating_machine: MachineId,
        /// Its local uid.
        local_uid: u32,
    },
    /// Creation failed.
    SpawnFailed {
        /// 0 capacity, 1 unknown program, 2 other.
        reason: u8,
    },
    /// Migrate the process whose link rides in slot 1 to `dest`
    /// (slot 0: reply — receives the kernel's `MigrateMsg::Done`).
    Migrate {
        /// Destination machine.
        dest: MachineId,
    },
    /// Kill the process whose link rides in slot 0.
    Kill,
}

impl Wire for PmMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            PmMsg::Spawn {
                machine,
                program,
                state,
                layout,
                privileged,
            } => {
                buf.put_u8(1);
                machine.encode(buf);
                wire::put_string(buf, program);
                wire::put_bytes(buf, state);
                layout.encode(buf);
                buf.put_u8(*privileged as u8);
            }
            PmMsg::Spawned {
                creating_machine,
                local_uid,
            } => {
                buf.put_u8(2);
                creating_machine.encode(buf);
                buf.put_u32(*local_uid);
            }
            PmMsg::SpawnFailed { reason } => {
                buf.put_u8(3);
                buf.put_u8(*reason);
            }
            PmMsg::Migrate { dest } => {
                buf.put_u8(4);
                dest.encode(buf);
            }
            PmMsg::Kill => buf.put_u8(5),
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            PmMsg::Spawn {
                program,
                state,
                layout,
                ..
            } => {
                1 + MachineId::WIRE_LEN
                    + wire::bytes_len(program.len())
                    + wire::bytes_len(state.len())
                    + layout.wire_len()
                    + 1
            }
            PmMsg::Spawned { .. } => 1 + MachineId::WIRE_LEN + 4,
            PmMsg::SpawnFailed { .. } => 1 + 1,
            PmMsg::Migrate { .. } => 1 + MachineId::WIRE_LEN,
            PmMsg::Kill => 1,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("PmMsg"));
        }
        match buf.get_u8() {
            1 => {
                let machine = MachineId::decode(buf)?;
                let program = wire::get_string(buf, "Spawn.program", MAX_NAME)?;
                let state = wire::get_bytes(buf, "Spawn.state", 1 << 20)?;
                let layout = ImageLayout::decode(buf)?;
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated("Spawn.privileged"));
                }
                Ok(PmMsg::Spawn {
                    machine,
                    program,
                    state,
                    layout,
                    privileged: buf.get_u8() != 0,
                })
            }
            2 => {
                let creating_machine = MachineId::decode(buf)?;
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated("Spawned"));
                }
                Ok(PmMsg::Spawned {
                    creating_machine,
                    local_uid: buf.get_u32(),
                })
            }
            3 => {
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated("SpawnFailed"));
                }
                Ok(PmMsg::SpawnFailed {
                    reason: buf.get_u8(),
                })
            }
            4 => Ok(PmMsg::Migrate {
                dest: MachineId::decode(buf)?,
            }),
            5 => Ok(PmMsg::Kill),
            t => Err(WireError::BadTag {
                what: "PmMsg",
                tag: t as u16,
            }),
        }
    }
}

/// Memory-scheduler protocol (§2.3): coarse per-machine memory grants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemMsg {
    /// Reserve `bytes` on `machine` (slot 0: reply).
    Reserve {
        /// Machine.
        machine: MachineId,
        /// Bytes requested.
        bytes: u64,
    },
    /// Return `bytes` on `machine`.
    Release {
        /// Machine.
        machine: MachineId,
        /// Bytes returned.
        bytes: u64,
    },
    /// How much is free on `machine`? (slot 0: reply)
    Query {
        /// Machine.
        machine: MachineId,
    },
    /// Reply to `Reserve`/`Query`.
    Granted {
        /// Reservation succeeded (always true for `Query`).
        ok: bool,
        /// Remaining free bytes.
        free: u64,
    },
}

impl Wire for MemMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            MemMsg::Reserve { machine, bytes } => {
                buf.put_u8(1);
                machine.encode(buf);
                buf.put_u64(*bytes);
            }
            MemMsg::Release { machine, bytes } => {
                buf.put_u8(2);
                machine.encode(buf);
                buf.put_u64(*bytes);
            }
            MemMsg::Query { machine } => {
                buf.put_u8(3);
                machine.encode(buf);
            }
            MemMsg::Granted { ok, free } => {
                buf.put_u8(4);
                buf.put_u8(*ok as u8);
                buf.put_u64(*free);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            MemMsg::Reserve { .. } | MemMsg::Release { .. } => 1 + MachineId::WIRE_LEN + 8,
            MemMsg::Query { .. } => 1 + MachineId::WIRE_LEN,
            MemMsg::Granted { .. } => 1 + 1 + 8,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("MemMsg"));
        }
        match buf.get_u8() {
            1 => {
                let machine = MachineId::decode(buf)?;
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated("Reserve"));
                }
                Ok(MemMsg::Reserve {
                    machine,
                    bytes: buf.get_u64(),
                })
            }
            2 => {
                let machine = MachineId::decode(buf)?;
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated("Release"));
                }
                Ok(MemMsg::Release {
                    machine,
                    bytes: buf.get_u64(),
                })
            }
            3 => Ok(MemMsg::Query {
                machine: MachineId::decode(buf)?,
            }),
            4 => {
                if buf.remaining() < 9 {
                    return Err(WireError::Truncated("Granted"));
                }
                Ok(MemMsg::Granted {
                    ok: buf.get_u8() != 0,
                    free: buf.get_u64(),
                })
            }
            t => Err(WireError::BadTag {
                what: "MemMsg",
                tag: t as u16,
            }),
        }
    }
}

/// File-system protocol, spanning the four fs processes (§2.3: directory,
/// file, buffer-cache and disk servers; same structure as the DEMOS file
/// system of [Powell 77], simplified).
#[derive(Clone, Debug, PartialEq)]
pub enum FsMsg {
    // -- directory server --
    /// Bind `name` to a fresh fid (slot 0: reply → `DirDone`).
    DirCreate {
        /// Request token echoed in the reply.
        tok: u32,
        /// File name.
        name: String,
    },
    /// Resolve `name` (slot 0: reply → `DirDone` or `Err`).
    DirLookup {
        /// Request token echoed in the reply.
        tok: u32,
        /// File name.
        name: String,
    },
    /// Directory reply.
    DirDone {
        /// Echoed token.
        tok: u32,
        /// The file id.
        fid: u32,
    },
    // -- file server (client-facing) --
    /// Create a file (slot 0: reply → `Done`).
    Create {
        /// File name.
        name: String,
    },
    /// Open by name (slot 0: reply → `Done { fid, len }`).
    Open {
        /// File name.
        name: String,
    },
    /// Read up to one block (slot 0: reply → `Data`).
    Read {
        /// File id from `Open`/`Create`.
        fid: u32,
        /// Byte offset.
        off: u32,
        /// Bytes wanted.
        len: u32,
    },
    /// Write within one block (slot 0: reply → `Done`).
    Write {
        /// File id.
        fid: u32,
        /// Byte offset.
        off: u32,
        /// The bytes.
        bytes: Bytes,
    },
    /// Read reply.
    Data {
        /// The bytes.
        bytes: Bytes,
    },
    /// Generic success reply.
    Done {
        /// File id.
        fid: u32,
        /// File length (Open/Create) or bytes written (Write).
        len: u32,
    },
    /// Failure reply.
    Err {
        /// 1 no such file, 2 bad range, 3 exists, 4 internal.
        code: u8,
    },
    // -- block layer (cache + disk) --
    /// Read block `blk` (slot 0: reply → `BData`).
    BRead {
        /// Request token echoed in the reply.
        tok: u32,
        /// Block id.
        blk: u32,
    },
    /// Write block `blk` (slot 0: reply → `BOk`).
    BWrite {
        /// Request token.
        tok: u32,
        /// Block id.
        blk: u32,
        /// Exactly one block of bytes.
        bytes: Bytes,
    },
    /// Allocate a block (slot 0: reply → `BOk { blk }`).
    BAlloc {
        /// Request token.
        tok: u32,
    },
    /// Block-read reply.
    BData {
        /// Echoed token.
        tok: u32,
        /// Block id.
        blk: u32,
        /// The block contents.
        bytes: Bytes,
    },
    /// Block-write / alloc reply.
    BOk {
        /// Echoed token.
        tok: u32,
        /// Block id.
        blk: u32,
    },
}

impl Wire for FsMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            FsMsg::DirCreate { tok, name } => {
                buf.put_u8(1);
                buf.put_u32(*tok);
                wire::put_string(buf, name);
            }
            FsMsg::DirLookup { tok, name } => {
                buf.put_u8(2);
                buf.put_u32(*tok);
                wire::put_string(buf, name);
            }
            FsMsg::DirDone { tok, fid } => {
                buf.put_u8(3);
                buf.put_u32(*tok);
                buf.put_u32(*fid);
            }
            FsMsg::Create { name } => {
                buf.put_u8(4);
                wire::put_string(buf, name);
            }
            FsMsg::Open { name } => {
                buf.put_u8(5);
                wire::put_string(buf, name);
            }
            FsMsg::Read { fid, off, len } => {
                buf.put_u8(6);
                buf.put_u32(*fid);
                buf.put_u32(*off);
                buf.put_u32(*len);
            }
            FsMsg::Write { fid, off, bytes } => {
                buf.put_u8(7);
                buf.put_u32(*fid);
                buf.put_u32(*off);
                wire::put_bytes(buf, bytes);
            }
            FsMsg::Data { bytes } => {
                buf.put_u8(8);
                wire::put_bytes(buf, bytes);
            }
            FsMsg::Done { fid, len } => {
                buf.put_u8(9);
                buf.put_u32(*fid);
                buf.put_u32(*len);
            }
            FsMsg::Err { code } => {
                buf.put_u8(10);
                buf.put_u8(*code);
            }
            FsMsg::BRead { tok, blk } => {
                buf.put_u8(11);
                buf.put_u32(*tok);
                buf.put_u32(*blk);
            }
            FsMsg::BWrite { tok, blk, bytes } => {
                buf.put_u8(12);
                buf.put_u32(*tok);
                buf.put_u32(*blk);
                wire::put_bytes(buf, bytes);
            }
            FsMsg::BAlloc { tok } => {
                buf.put_u8(13);
                buf.put_u32(*tok);
            }
            FsMsg::BData { tok, blk, bytes } => {
                buf.put_u8(14);
                buf.put_u32(*tok);
                buf.put_u32(*blk);
                wire::put_bytes(buf, bytes);
            }
            FsMsg::BOk { tok, blk } => {
                buf.put_u8(15);
                buf.put_u32(*tok);
                buf.put_u32(*blk);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            FsMsg::DirCreate { name, .. } | FsMsg::DirLookup { name, .. } => {
                1 + 4 + wire::bytes_len(name.len())
            }
            FsMsg::Create { name } | FsMsg::Open { name } => 1 + wire::bytes_len(name.len()),
            FsMsg::Read { .. } => 1 + 4 + 4 + 4,
            FsMsg::Write { bytes, .. }
            | FsMsg::BWrite { bytes, .. }
            | FsMsg::BData { bytes, .. } => 1 + 4 + 4 + wire::bytes_len(bytes.len()),
            FsMsg::Data { bytes } => 1 + wire::bytes_len(bytes.len()),
            FsMsg::DirDone { .. }
            | FsMsg::Done { .. }
            | FsMsg::BRead { .. }
            | FsMsg::BOk { .. } => 1 + 4 + 4,
            FsMsg::Err { .. } => 1 + 1,
            FsMsg::BAlloc { .. } => 1 + 4,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("FsMsg"));
        }
        let tag = buf.get_u8();
        let need = |buf: &Bytes, n: usize| {
            if buf.remaining() < n {
                Err(WireError::Truncated("FsMsg"))
            } else {
                Ok(())
            }
        };
        Ok(match tag {
            1 => {
                need(buf, 4)?;
                let tok = buf.get_u32();
                FsMsg::DirCreate {
                    tok,
                    name: wire::get_string(buf, "DirCreate", MAX_NAME)?,
                }
            }
            2 => {
                need(buf, 4)?;
                let tok = buf.get_u32();
                FsMsg::DirLookup {
                    tok,
                    name: wire::get_string(buf, "DirLookup", MAX_NAME)?,
                }
            }
            3 => {
                need(buf, 8)?;
                FsMsg::DirDone {
                    tok: buf.get_u32(),
                    fid: buf.get_u32(),
                }
            }
            4 => FsMsg::Create {
                name: wire::get_string(buf, "Create", MAX_NAME)?,
            },
            5 => FsMsg::Open {
                name: wire::get_string(buf, "Open", MAX_NAME)?,
            },
            6 => {
                need(buf, 12)?;
                FsMsg::Read {
                    fid: buf.get_u32(),
                    off: buf.get_u32(),
                    len: buf.get_u32(),
                }
            }
            7 => {
                need(buf, 8)?;
                let fid = buf.get_u32();
                let off = buf.get_u32();
                FsMsg::Write {
                    fid,
                    off,
                    bytes: wire::get_bytes(buf, "Write.bytes", MAX_DATA)?,
                }
            }
            8 => FsMsg::Data {
                bytes: wire::get_bytes(buf, "Data.bytes", MAX_DATA)?,
            },
            9 => {
                need(buf, 8)?;
                FsMsg::Done {
                    fid: buf.get_u32(),
                    len: buf.get_u32(),
                }
            }
            10 => {
                need(buf, 1)?;
                FsMsg::Err { code: buf.get_u8() }
            }
            11 => {
                need(buf, 8)?;
                FsMsg::BRead {
                    tok: buf.get_u32(),
                    blk: buf.get_u32(),
                }
            }
            12 => {
                need(buf, 8)?;
                let tok = buf.get_u32();
                let blk = buf.get_u32();
                FsMsg::BWrite {
                    tok,
                    blk,
                    bytes: wire::get_bytes(buf, "BWrite.bytes", MAX_DATA)?,
                }
            }
            13 => {
                need(buf, 4)?;
                FsMsg::BAlloc { tok: buf.get_u32() }
            }
            14 => {
                need(buf, 8)?;
                let tok = buf.get_u32();
                let blk = buf.get_u32();
                FsMsg::BData {
                    tok,
                    blk,
                    bytes: wire::get_bytes(buf, "BData.bytes", MAX_DATA)?,
                }
            }
            15 => {
                need(buf, 8)?;
                FsMsg::BOk {
                    tok: buf.get_u32(),
                    blk: buf.get_u32(),
                }
            }
            t => {
                return Err(WireError::BadTag {
                    what: "FsMsg",
                    tag: t as u16,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::wire::roundtrip;

    #[test]
    fn sb_roundtrips() {
        for m in [
            SbMsg::Register { name: "fs".into() },
            SbMsg::Lookup { name: "pm".into() },
            SbMsg::Registered { ok: true },
            SbMsg::Found { name: "fs".into() },
            SbMsg::NotFound { name: "x".into() },
        ] {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn pm_roundtrips() {
        for m in [
            PmMsg::Spawn {
                machine: MachineId(2),
                program: "cargo".into(),
                state: Bytes::from_static(b"s"),
                layout: ImageLayout::default(),
                privileged: false,
            },
            PmMsg::Spawned {
                creating_machine: MachineId(2),
                local_uid: 9,
            },
            PmMsg::SpawnFailed { reason: 1 },
            PmMsg::Migrate { dest: MachineId(3) },
            PmMsg::Kill,
        ] {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn mem_roundtrips() {
        for m in [
            MemMsg::Reserve {
                machine: MachineId(1),
                bytes: 4096,
            },
            MemMsg::Release {
                machine: MachineId(1),
                bytes: 4096,
            },
            MemMsg::Query {
                machine: MachineId(0),
            },
            MemMsg::Granted {
                ok: true,
                free: 1 << 20,
            },
        ] {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn fs_roundtrips() {
        for m in [
            FsMsg::DirCreate {
                tok: 1,
                name: "a".into(),
            },
            FsMsg::DirLookup {
                tok: 1,
                name: "a".into(),
            },
            FsMsg::DirDone { tok: 1, fid: 3 },
            FsMsg::Create { name: "a".into() },
            FsMsg::Open { name: "a".into() },
            FsMsg::Read {
                fid: 3,
                off: 0,
                len: 512,
            },
            FsMsg::Write {
                fid: 3,
                off: 8,
                bytes: Bytes::from_static(b"xyz"),
            },
            FsMsg::Data {
                bytes: Bytes::from_static(b"xyz"),
            },
            FsMsg::Done { fid: 3, len: 3 },
            FsMsg::Err { code: 2 },
            FsMsg::BRead { tok: 1, blk: 7 },
            FsMsg::BWrite {
                tok: 1,
                blk: 7,
                bytes: Bytes::from_static(&[0u8; 512]),
            },
            FsMsg::BAlloc { tok: 2 },
            FsMsg::BData {
                tok: 1,
                blk: 7,
                bytes: Bytes::from_static(&[0u8; 512]),
            },
            FsMsg::BOk { tok: 2, blk: 8 },
        ] {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn bad_tags() {
        let mut b = Bytes::from_static(&[0xee]);
        assert!(SbMsg::decode(&mut b.clone()).is_err());
        assert!(PmMsg::decode(&mut b.clone()).is_err());
        assert!(MemMsg::decode(&mut b.clone()).is_err());
        assert!(FsMsg::decode(&mut b).is_err());
    }
}
