//! Wire protocols of the system server processes (§2.3).
//!
//! Every server is an ordinary process reached over links; requests carry
//! a reply link as their first carried link (the DEMOS request/reply
//! convention, §2.4). Payloads are byte-exact like everything else: each
//! enum's layout is the `wire_enum!` table that follows its definition.

use bytes::Bytes;
use demos_kernel::ImageLayout;
use demos_types::{wire_enum, MachineId};

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

wire_enum! { SbMsg: u8 {
    1 => Register { name: String[MAX_NAME] },
    2 => Lookup { name: String[MAX_NAME] },
    3 => Registered { ok: bool },
    4 => Found { name: String[MAX_NAME] },
    5 => NotFound { name: String[MAX_NAME] },
} }

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

wire_enum! { PmMsg: u8 {
    1 => Spawn {
        machine: MachineId,
        program: String[MAX_NAME],
        state: Bytes[1 << 20],
        layout: ImageLayout,
        privileged: bool,
    },
    2 => Spawned { creating_machine: MachineId, local_uid: u32 },
    3 => SpawnFailed { reason: u8 },
    4 => Migrate { dest: MachineId },
    5 => Kill {},
} }

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

wire_enum! { MemMsg: u8 {
    1 => Reserve { machine: MachineId, bytes: u64 },
    2 => Release { machine: MachineId, bytes: u64 },
    3 => Query { machine: MachineId },
    4 => Granted { ok: bool, free: u64 },
} }

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

wire_enum! { FsMsg: u8 {
    1 => DirCreate { tok: u32, name: String[MAX_NAME] },
    2 => DirLookup { tok: u32, name: String[MAX_NAME] },
    3 => DirDone { tok: u32, fid: u32 },
    4 => Create { name: String[MAX_NAME] },
    5 => Open { name: String[MAX_NAME] },
    6 => Read { fid: u32, off: u32, len: u32 },
    7 => Write { fid: u32, off: u32, bytes: Bytes[MAX_DATA] },
    8 => Data { bytes: Bytes[MAX_DATA] },
    9 => Done { fid: u32, len: u32 },
    10 => Err { code: u8 },
    11 => BRead { tok: u32, blk: u32 },
    12 => BWrite { tok: u32, blk: u32, bytes: Bytes[MAX_DATA] },
    13 => BAlloc { tok: u32 },
    14 => BData { tok: u32, blk: u32, bytes: Bytes[MAX_DATA] },
    15 => BOk { tok: u32, blk: u32 },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::wire::{roundtrip, Wire};

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
