//! System protocol payloads.
//!
//! Four wire protocols ride inside [`crate::message::Message`] payloads,
//! distinguished by the header's `msg_type`:
//!
//! * [`KernelOp`] (`tags::KERNEL_OP`) — control operations addressed *to a
//!   process* over a `DELIVERTOKERNEL` link and received by the kernel of
//!   whatever machine the process currently occupies (§2.2). Includes
//!   message #1 of the migration protocol (`MigrateRequest`).
//! * [`MigrateMsg`] (`tags::MIGRATE`) — the kernel-to-kernel migration
//!   protocol of §3.1 (offer/accept/complete/cleanup/done).
//! * [`MoveDataMsg`] (`tags::MOVE_DATA`) — the streamed block-transfer
//!   facility of §2.2/§6: a read or write request followed by a continuous
//!   stream of data packets, each acknowledged, with the sender never
//!   waiting for acknowledgements to send the next packet.
//! * [`LinkMaintMsg`] (`tags::LINK_MAINT`) — link updates after a forward
//!   (§5), non-deliverable notices (§4's alternative scheme / ablation) and
//!   death notices for forwarding-address garbage collection (§4).
//!
//! Each enum's layout is the [`wire_enum!`](crate::wire_enum) table that
//! follows its definition — tag and fields in wire order, the one place
//! the layout is written. Unit tests pin the payload sizes that experiment
//! E2 (administrative cost) reports; `tests/wire/GOLDEN.txt` pins the bytes.

use bytes::Bytes;

use crate::ids::{MachineId, ProcessId};
use crate::message::MAX_PAYLOAD;
use crate::wire_enum;

/// Why a destination kernel refused a migration offer (§3.2 — autonomy and
/// inter-domain migration: "the destination machine may simply refuse to
/// accept any migrations not fitting its criteria").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Destination lacks memory or process slots.
    Capacity,
    /// Destination policy (e.g. a suspicious domain) declined.
    Policy,
    /// Destination already hosts a process with this identifier.
    DuplicatePid,
    /// Offer malformed or out of order.
    Protocol,
}

wire_enum! { RejectReason: u8 {
    0 => Capacity {},
    1 => Policy {},
    2 => DuplicatePid {},
    3 => Protocol {},
} }

/// Control operations delivered to a process's kernel (`DELIVERTOKERNEL`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelOp {
    /// Take the process off the run queue.
    Suspend,
    /// Put a suspended process back on the run queue.
    Resume,
    /// Destroy the process and reclaim its state.
    Kill,
    /// Migration protocol message #1: the process manager asks the kernel
    /// currently hosting the process to migrate it to `dest` (§3.1 step 2
    /// is then initiated by that kernel). 6-byte payload.
    MigrateRequest {
        /// Destination processor.
        dest: MachineId,
        /// Policy-defined flags (reserved; carried for the 6-byte size the
        /// paper reports for small control messages).
        flags: u16,
    },
    /// Ask the kernel to report the process's status on the carried reply
    /// link.
    QueryStatus,
}

wire_enum! { KernelOp: u16 {
    1 => Suspend {},
    2 => Resume {},
    3 => Kill {},
    4 => MigrateRequest { dest: MachineId, flags: u16 },
    5 => QueryStatus {},
} }

/// A migration context id, allocated by the source kernel for one migration
/// and echoed in the subsequent protocol messages, keeping them compact.
pub type MigrationCtx = u16;

/// Kernel-to-kernel migration protocol (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrateMsg {
    /// #2 — source asks destination to accept the process; carries the
    /// sizes the destination needs to reserve resources (step 3).
    Offer {
        /// Migration context on the source.
        ctx: MigrationCtx,
        /// The process being moved.
        pid: ProcessId,
        /// Bytes of non-swappable (resident) state — ≈250 in the paper.
        resident_len: u16,
        /// Bytes of swappable state — ≈600, scaling with the link table.
        swappable_len: u16,
        /// Bytes of the memory image (code + data + stack).
        image_len: u32,
    },
    /// #3 — destination accepts; an empty process state has been allocated.
    Accept {
        /// Echoed context.
        ctx: MigrationCtx,
        /// Destination-side slot (context) for the incoming process.
        slot: u16,
        /// Move-data window the destination will use (bytes per packet).
        window: u16,
    },
    /// #3′ — destination refuses (autonomy / inter-domain, §3.2).
    Reject {
        /// Echoed context.
        ctx: MigrationCtx,
        /// Echoed pid, for sanity checking at the source.
        pid: ProcessId,
        /// Why.
        reason: RejectReason,
    },
    /// #7 — destination has pulled all three state moves; source may now
    /// forward pending messages and clean up (steps 6–7).
    TransferComplete {
        /// Echoed context.
        ctx: MigrationCtx,
        /// Total bytes received across the three moves.
        received: u32,
    },
    /// #8 — source has forwarded the pending queue and installed the
    /// forwarding address; destination may restart the process (step 8).
    CleanupDone {
        /// Echoed context.
        ctx: MigrationCtx,
        /// How many queued messages were forwarded (step 6).
        forwarded: u16,
    },
    /// #9 — destination notifies the process manager that migration
    /// finished (or failed).
    Done {
        /// The migrated process.
        pid: ProcessId,
        /// Where it now runs.
        dest: MachineId,
        /// 0 = success; otherwise a [`RejectReason`] code + 1.
        status: u8,
    },
    /// Source aborts an in-flight migration (timeout / crash recovery).
    Abort {
        /// Echoed context.
        ctx: MigrationCtx,
        /// The process whose migration is abandoned.
        pid: ProcessId,
    },
}

wire_enum! { MigrateMsg: u8 {
    1 => Offer {
        ctx: MigrationCtx, pid: ProcessId, resident_len: u16, swappable_len: u16, image_len: u32,
    },
    2 => Accept { ctx: MigrationCtx, slot: u16, window: u16 },
    3 => Reject { ctx: MigrationCtx, pid: ProcessId, reason: RejectReason },
    4 => TransferComplete { ctx: MigrationCtx, received: u32 },
    5 => CleanupDone { ctx: MigrationCtx, forwarded: u16 },
    6 => Done { pid: ProcessId, dest: MachineId, status: u8 },
    7 => Abort { ctx: MigrationCtx, pid: ProcessId },
} }

/// Which region of a process a move-data operation addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AreaSel {
    /// The window granted by a link carried in the request message
    /// (user-level move-data: file transfers etc., §2.2).
    LinkArea,
    /// Non-swappable process state (migration authority only; step 4).
    Resident,
    /// Swappable process state (step 4).
    Swappable,
    /// Memory image: code + data + stack (step 5).
    Image,
}

wire_enum! { AreaSel: u8 {
    0 => LinkArea {},
    1 => Resident {},
    2 => Swappable {},
    3 => Image {},
} }

/// Move-data facility messages (§2.2, §6).
///
/// A transfer is identified by a requester-chosen `op` id, unique per
/// (requester machine, op). Data packets stream continuously; each is
/// acknowledged, but "the sending kernel does not have to wait for the
/// acknowledgement to send the next packet" (§6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MoveDataMsg {
    /// Request to read `len` bytes at `offset` of `target`'s selected area.
    /// For `AreaSel::LinkArea` the authorizing link is carried in the
    /// message's link slots.
    ReadReq {
        /// Requester-chosen operation id.
        op: u16,
        /// Process whose memory is read.
        target: ProcessId,
        /// Which area.
        sel: AreaSel,
        /// Byte offset within the area.
        offset: u32,
        /// Bytes to read (0 = whole area).
        len: u32,
    },
    /// Request to write the subsequent data stream into `target`'s area.
    WriteReq {
        /// Requester-chosen operation id.
        op: u16,
        /// Process whose memory is written.
        target: ProcessId,
        /// Which area.
        sel: AreaSel,
        /// Byte offset within the area.
        offset: u32,
        /// Bytes that will follow in `Data` packets.
        len: u32,
    },
    /// One packet of the stream.
    Data {
        /// Operation id.
        op: u16,
        /// Packet sequence number within the operation, from 0.
        seq: u32,
        /// Payload bytes.
        bytes: Bytes,
    },
    /// Acknowledgement of one data packet.
    Ack {
        /// Operation id.
        op: u16,
        /// Acknowledged sequence number.
        seq: u32,
    },
    /// End of operation.
    Done {
        /// Operation id.
        op: u16,
        /// 0 = success.
        status: u8,
        /// Total bytes moved.
        total: u32,
    },
    /// The serving side aborted (bad window, process vanished, …).
    Abort {
        /// Operation id.
        op: u16,
        /// Diagnostic code.
        reason: u8,
    },
}

wire_enum! { MoveDataMsg: u8 {
    1 => ReadReq { op: u16, target: ProcessId, sel: AreaSel, offset: u32, len: u32 },
    2 => WriteReq { op: u16, target: ProcessId, sel: AreaSel, offset: u32, len: u32 },
    3 => Data { op: u16, seq: u32, bytes: Bytes[MAX_PAYLOAD] },
    4 => Ack { op: u16, seq: u32 },
    5 => Done { op: u16, status: u8, total: u32 },
    6 => Abort { op: u16, reason: u8 },
} }

/// Link maintenance: forwarding by-products (§4–5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkMaintMsg {
    /// Sent by a forwarding kernel to the kernel of the *sender* of a
    /// forwarded message (§5, Figure 5-1): "all links in the sending
    /// process's link table that point to the migrated process are then
    /// updated to point to the new location."
    LinkUpdate {
        /// The process whose links should be patched.
        sender: ProcessId,
        /// The process that migrated.
        migrated: ProcessId,
        /// Its new location.
        new_machine: MachineId,
    },
    /// Returned to the sender's kernel when no process and no forwarding
    /// address exists for the destination (§4's alternative scheme; in
    /// forwarding mode it signals a genuinely dead process).
    NonDeliverable {
        /// The process the message was for.
        dest: ProcessId,
        /// Message type of the undeliverable message.
        msg_type: u16,
        /// Diagnostic code (0 = no such process, 1 = forwarding disabled).
        reason: u8,
    },
    /// Propagated backwards along a migration path when a process dies so
    /// forwarding addresses can be garbage-collected (§4: "pointers
    /// backwards along the path of migration").
    DeathNotice {
        /// The process that terminated.
        pid: ProcessId,
    },
    /// Periodic kernel-to-kernel liveness probe over DELIVERTOKERNEL,
    /// consumed by the receiving kernel's failure detector. Carries a
    /// monotonic beat number so missed beats are countable end-to-end.
    Heartbeat {
        /// The machine whose kernel emitted the beat.
        from: MachineId,
        /// Beat number, monotonically increasing per sender.
        seq: u64,
    },
}

wire_enum! { LinkMaintMsg: u8 {
    1 => LinkUpdate { sender: ProcessId, migrated: ProcessId, new_machine: MachineId },
    2 => NonDeliverable { dest: ProcessId, msg_type: u16, reason: u8 },
    3 => DeathNotice { pid: ProcessId },
    4 => Heartbeat { from: MachineId, seq: u64 },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{roundtrip, Wire};

    fn pid(u: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(1),
            local_uid: u,
        }
    }

    #[test]
    fn kernel_op_roundtrips() {
        for op in [
            KernelOp::Suspend,
            KernelOp::Resume,
            KernelOp::Kill,
            KernelOp::MigrateRequest {
                dest: MachineId(7),
                flags: 0,
            },
            KernelOp::QueryStatus,
        ] {
            assert_eq!(roundtrip(&op).unwrap(), op);
        }
    }

    #[test]
    fn migrate_request_is_six_bytes() {
        // §6: administrative messages are "in the 6-12 byte range";
        // message #1 is exactly 6 bytes here.
        let op = KernelOp::MigrateRequest {
            dest: MachineId(3),
            flags: 0,
        };
        assert_eq!(op.wire_len(), 6);
    }

    #[test]
    fn migrate_msg_roundtrips() {
        let msgs = [
            MigrateMsg::Offer {
                ctx: 9,
                pid: pid(4),
                resident_len: 250,
                swappable_len: 600,
                image_len: 65536,
            },
            MigrateMsg::Accept {
                ctx: 9,
                slot: 3,
                window: 1024,
            },
            MigrateMsg::Reject {
                ctx: 9,
                pid: pid(4),
                reason: RejectReason::Policy,
            },
            MigrateMsg::TransferComplete {
                ctx: 9,
                received: 66386,
            },
            MigrateMsg::CleanupDone {
                ctx: 9,
                forwarded: 12,
            },
            MigrateMsg::Done {
                pid: pid(4),
                dest: MachineId(2),
                status: 0,
            },
            MigrateMsg::Abort {
                ctx: 9,
                pid: pid(4),
            },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn admin_payload_sizes() {
        // Pin the administrative payload sizes that experiment E2 reports.
        // Most land in the paper's 6-12 byte range; Offer is 17 bytes
        // because we carry a full 32-bit image size (the Z8000 original
        // used 16-bit quantities) — EXPERIMENTS.md discusses the delta.
        assert_eq!(
            MigrateMsg::Offer {
                ctx: 0,
                pid: pid(1),
                resident_len: 0,
                swappable_len: 0,
                image_len: 0
            }
            .wire_len(),
            17
        );
        assert_eq!(
            MigrateMsg::Accept {
                ctx: 0,
                slot: 0,
                window: 0
            }
            .wire_len(),
            7
        );
        assert_eq!(
            MigrateMsg::Reject {
                ctx: 0,
                pid: pid(1),
                reason: RejectReason::Capacity
            }
            .wire_len(),
            10
        );
        assert_eq!(
            MigrateMsg::TransferComplete {
                ctx: 0,
                received: 0
            }
            .wire_len(),
            7
        );
        assert_eq!(
            MigrateMsg::CleanupDone {
                ctx: 0,
                forwarded: 0
            }
            .wire_len(),
            5
        );
        assert_eq!(
            MigrateMsg::Done {
                pid: pid(1),
                dest: MachineId(0),
                status: 0
            }
            .wire_len(),
            10
        );
    }

    #[test]
    fn move_data_roundtrips() {
        let msgs = [
            MoveDataMsg::ReadReq {
                op: 1,
                target: pid(2),
                sel: AreaSel::Image,
                offset: 0,
                len: 0,
            },
            MoveDataMsg::WriteReq {
                op: 1,
                target: pid(2),
                sel: AreaSel::LinkArea,
                offset: 64,
                len: 128,
            },
            MoveDataMsg::Data {
                op: 1,
                seq: 5,
                bytes: Bytes::from_static(b"abc"),
            },
            MoveDataMsg::Ack { op: 1, seq: 5 },
            MoveDataMsg::Done {
                op: 1,
                status: 0,
                total: 4096,
            },
            MoveDataMsg::Abort { op: 1, reason: 2 },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn link_maint_roundtrips() {
        let msgs = [
            LinkMaintMsg::LinkUpdate {
                sender: pid(1),
                migrated: pid(2),
                new_machine: MachineId(3),
            },
            LinkMaintMsg::NonDeliverable {
                dest: pid(2),
                msg_type: 0x1001,
                reason: 0,
            },
            LinkMaintMsg::DeathNotice { pid: pid(2) },
            LinkMaintMsg::Heartbeat {
                from: MachineId(4),
                seq: 17,
            },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut b = Bytes::from_static(&[0xee, 0, 0]);
        assert!(MigrateMsg::decode(&mut b).is_err());
        let mut b = Bytes::from_static(&[0xee, 0, 0]);
        assert!(MoveDataMsg::decode(&mut b).is_err());
        let mut b = Bytes::from_static(&[0xee, 0, 0]);
        assert!(LinkMaintMsg::decode(&mut b).is_err());
        let mut b = Bytes::from_static(&[0xee, 0xee, 0]);
        assert!(KernelOp::decode(&mut b).is_err());
    }

    #[test]
    fn reject_reason_codes_roundtrip() {
        for r in [
            RejectReason::Capacity,
            RejectReason::Policy,
            RejectReason::DuplicatePid,
            RejectReason::Protocol,
        ] {
            assert_eq!(roundtrip(&r).unwrap(), r);
        }
        assert!(RejectReason::from_bytes(&Bytes::from_static(&[99])).is_err());
    }
}
