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
//! Every payload has a deterministic encoding; unit tests pin the payload
//! sizes that experiment E2 (administrative cost) reports.

use bytes::{Buf, BufMut, Bytes};

use crate::ids::{MachineId, ProcessId};
use crate::wire::{self, Wire, WireError};

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

impl RejectReason {
    fn to_u8(self) -> u8 {
        match self {
            RejectReason::Capacity => 0,
            RejectReason::Policy => 1,
            RejectReason::DuplicatePid => 2,
            RejectReason::Protocol => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => RejectReason::Capacity,
            1 => RejectReason::Policy,
            2 => RejectReason::DuplicatePid,
            3 => RejectReason::Protocol,
            _ => {
                return Err(WireError::BadTag {
                    what: "RejectReason",
                    tag: u16::from(v),
                })
            }
        })
    }
}

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

impl Wire for KernelOp {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            KernelOp::Suspend => buf.put_u16(1),
            KernelOp::Resume => buf.put_u16(2),
            KernelOp::Kill => buf.put_u16(3),
            KernelOp::MigrateRequest { dest, flags } => {
                buf.put_u16(4);
                dest.encode(buf);
                buf.put_u16(*flags);
            }
            KernelOp::QueryStatus => buf.put_u16(5),
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            KernelOp::Suspend | KernelOp::Resume | KernelOp::Kill | KernelOp::QueryStatus => 2,
            KernelOp::MigrateRequest { .. } => 2 + MachineId::WIRE_LEN + 2,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 2 {
            return Err(WireError::Truncated("KernelOp"));
        }
        let tag = buf.get_u16();
        Ok(match tag {
            1 => KernelOp::Suspend,
            2 => KernelOp::Resume,
            3 => KernelOp::Kill,
            4 => {
                let dest = MachineId::decode(buf)?;
                if buf.remaining() < 2 {
                    return Err(WireError::Truncated("MigrateRequest.flags"));
                }
                KernelOp::MigrateRequest {
                    dest,
                    flags: buf.get_u16(),
                }
            }
            5 => KernelOp::QueryStatus,
            _ => {
                return Err(WireError::BadTag {
                    what: "KernelOp",
                    tag,
                })
            }
        })
    }
}

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

impl Wire for MigrateMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            MigrateMsg::Offer {
                ctx,
                pid,
                resident_len,
                swappable_len,
                image_len,
            } => {
                buf.put_u8(1);
                buf.put_u16(*ctx);
                pid.encode(buf);
                buf.put_u16(*resident_len);
                buf.put_u16(*swappable_len);
                buf.put_u32(*image_len);
            }
            MigrateMsg::Accept { ctx, slot, window } => {
                buf.put_u8(2);
                buf.put_u16(*ctx);
                buf.put_u16(*slot);
                buf.put_u16(*window);
            }
            MigrateMsg::Reject { ctx, pid, reason } => {
                buf.put_u8(3);
                buf.put_u16(*ctx);
                pid.encode(buf);
                buf.put_u8(reason.to_u8());
            }
            MigrateMsg::TransferComplete { ctx, received } => {
                buf.put_u8(4);
                buf.put_u16(*ctx);
                buf.put_u32(*received);
            }
            MigrateMsg::CleanupDone { ctx, forwarded } => {
                buf.put_u8(5);
                buf.put_u16(*ctx);
                buf.put_u16(*forwarded);
            }
            MigrateMsg::Done { pid, dest, status } => {
                buf.put_u8(6);
                pid.encode(buf);
                dest.encode(buf);
                buf.put_u8(*status);
            }
            MigrateMsg::Abort { ctx, pid } => {
                buf.put_u8(7);
                buf.put_u16(*ctx);
                pid.encode(buf);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            MigrateMsg::Offer { .. } => 1 + 2 + ProcessId::WIRE_LEN + 2 + 2 + 4,
            MigrateMsg::Accept { .. } => 1 + 2 + 2 + 2,
            MigrateMsg::Reject { .. } => 1 + 2 + ProcessId::WIRE_LEN + 1,
            MigrateMsg::TransferComplete { .. } => 1 + 2 + 4,
            MigrateMsg::CleanupDone { .. } => 1 + 2 + 2,
            MigrateMsg::Done { .. } => 1 + ProcessId::WIRE_LEN + MachineId::WIRE_LEN + 1,
            MigrateMsg::Abort { .. } => 1 + 2 + ProcessId::WIRE_LEN,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("MigrateMsg"));
        }
        let tag = buf.get_u8();
        match tag {
            1 => {
                if buf.remaining() < 2 {
                    return Err(WireError::Truncated("Offer.ctx"));
                }
                let ctx = buf.get_u16();
                let pid = ProcessId::decode(buf)?;
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated("Offer.sizes"));
                }
                Ok(MigrateMsg::Offer {
                    ctx,
                    pid,
                    resident_len: buf.get_u16(),
                    swappable_len: buf.get_u16(),
                    image_len: buf.get_u32(),
                })
            }
            2 => {
                if buf.remaining() < 6 {
                    return Err(WireError::Truncated("Accept"));
                }
                Ok(MigrateMsg::Accept {
                    ctx: buf.get_u16(),
                    slot: buf.get_u16(),
                    window: buf.get_u16(),
                })
            }
            3 => {
                if buf.remaining() < 2 {
                    return Err(WireError::Truncated("Reject.ctx"));
                }
                let ctx = buf.get_u16();
                let pid = ProcessId::decode(buf)?;
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated("Reject.reason"));
                }
                Ok(MigrateMsg::Reject {
                    ctx,
                    pid,
                    reason: RejectReason::from_u8(buf.get_u8())?,
                })
            }
            4 => {
                if buf.remaining() < 6 {
                    return Err(WireError::Truncated("TransferComplete"));
                }
                Ok(MigrateMsg::TransferComplete {
                    ctx: buf.get_u16(),
                    received: buf.get_u32(),
                })
            }
            5 => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated("CleanupDone"));
                }
                Ok(MigrateMsg::CleanupDone {
                    ctx: buf.get_u16(),
                    forwarded: buf.get_u16(),
                })
            }
            6 => {
                let pid = ProcessId::decode(buf)?;
                let dest = MachineId::decode(buf)?;
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated("Done.status"));
                }
                Ok(MigrateMsg::Done {
                    pid,
                    dest,
                    status: buf.get_u8(),
                })
            }
            7 => {
                if buf.remaining() < 2 {
                    return Err(WireError::Truncated("Abort.ctx"));
                }
                let ctx = buf.get_u16();
                let pid = ProcessId::decode(buf)?;
                Ok(MigrateMsg::Abort { ctx, pid })
            }
            _ => Err(WireError::BadTag {
                what: "MigrateMsg",
                tag: u16::from(tag),
            }),
        }
    }
}

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

impl AreaSel {
    fn to_u8(self) -> u8 {
        match self {
            AreaSel::LinkArea => 0,
            AreaSel::Resident => 1,
            AreaSel::Swappable => 2,
            AreaSel::Image => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => AreaSel::LinkArea,
            1 => AreaSel::Resident,
            2 => AreaSel::Swappable,
            3 => AreaSel::Image,
            _ => {
                return Err(WireError::BadTag {
                    what: "AreaSel",
                    tag: u16::from(v),
                })
            }
        })
    }
}

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

impl Wire for MoveDataMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            MoveDataMsg::ReadReq {
                op,
                target,
                sel,
                offset,
                len,
            } => {
                buf.put_u8(1);
                buf.put_u16(*op);
                target.encode(buf);
                buf.put_u8(sel.to_u8());
                buf.put_u32(*offset);
                buf.put_u32(*len);
            }
            MoveDataMsg::WriteReq {
                op,
                target,
                sel,
                offset,
                len,
            } => {
                buf.put_u8(2);
                buf.put_u16(*op);
                target.encode(buf);
                buf.put_u8(sel.to_u8());
                buf.put_u32(*offset);
                buf.put_u32(*len);
            }
            MoveDataMsg::Data { op, seq, bytes } => {
                buf.put_u8(3);
                buf.put_u16(*op);
                buf.put_u32(*seq);
                wire::put_bytes(buf, bytes);
            }
            MoveDataMsg::Ack { op, seq } => {
                buf.put_u8(4);
                buf.put_u16(*op);
                buf.put_u32(*seq);
            }
            MoveDataMsg::Done { op, status, total } => {
                buf.put_u8(5);
                buf.put_u16(*op);
                buf.put_u8(*status);
                buf.put_u32(*total);
            }
            MoveDataMsg::Abort { op, reason } => {
                buf.put_u8(6);
                buf.put_u16(*op);
                buf.put_u8(*reason);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            MoveDataMsg::ReadReq { .. } | MoveDataMsg::WriteReq { .. } => {
                1 + 2 + ProcessId::WIRE_LEN + 1 + 4 + 4
            }
            MoveDataMsg::Data { bytes, .. } => 1 + 2 + 4 + wire::bytes_len(bytes.len()),
            MoveDataMsg::Ack { .. } => 1 + 2 + 4,
            MoveDataMsg::Done { .. } => 1 + 2 + 1 + 4,
            MoveDataMsg::Abort { .. } => 1 + 2 + 1,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("MoveDataMsg"));
        }
        let tag = buf.get_u8();
        match tag {
            1 | 2 => {
                if buf.remaining() < 2 {
                    return Err(WireError::Truncated("MoveDataMsg.op"));
                }
                let op = buf.get_u16();
                let target = ProcessId::decode(buf)?;
                if buf.remaining() < 9 {
                    return Err(WireError::Truncated("MoveDataMsg.req"));
                }
                let sel = AreaSel::from_u8(buf.get_u8())?;
                let offset = buf.get_u32();
                let len = buf.get_u32();
                Ok(if tag == 1 {
                    MoveDataMsg::ReadReq {
                        op,
                        target,
                        sel,
                        offset,
                        len,
                    }
                } else {
                    MoveDataMsg::WriteReq {
                        op,
                        target,
                        sel,
                        offset,
                        len,
                    }
                })
            }
            3 => {
                if buf.remaining() < 6 {
                    return Err(WireError::Truncated("Data"));
                }
                let op = buf.get_u16();
                let seq = buf.get_u32();
                let bytes = wire::get_bytes(buf, "Data.bytes", crate::message::MAX_PAYLOAD)?;
                Ok(MoveDataMsg::Data { op, seq, bytes })
            }
            4 => {
                if buf.remaining() < 6 {
                    return Err(WireError::Truncated("Ack"));
                }
                Ok(MoveDataMsg::Ack {
                    op: buf.get_u16(),
                    seq: buf.get_u32(),
                })
            }
            5 => {
                if buf.remaining() < 7 {
                    return Err(WireError::Truncated("Done"));
                }
                Ok(MoveDataMsg::Done {
                    op: buf.get_u16(),
                    status: buf.get_u8(),
                    total: buf.get_u32(),
                })
            }
            6 => {
                if buf.remaining() < 3 {
                    return Err(WireError::Truncated("Abort"));
                }
                Ok(MoveDataMsg::Abort {
                    op: buf.get_u16(),
                    reason: buf.get_u8(),
                })
            }
            _ => Err(WireError::BadTag {
                what: "MoveDataMsg",
                tag: u16::from(tag),
            }),
        }
    }
}

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

impl Wire for LinkMaintMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            LinkMaintMsg::LinkUpdate {
                sender,
                migrated,
                new_machine,
            } => {
                buf.put_u8(1);
                sender.encode(buf);
                migrated.encode(buf);
                new_machine.encode(buf);
            }
            LinkMaintMsg::NonDeliverable {
                dest,
                msg_type,
                reason,
            } => {
                buf.put_u8(2);
                dest.encode(buf);
                buf.put_u16(*msg_type);
                buf.put_u8(*reason);
            }
            LinkMaintMsg::DeathNotice { pid } => {
                buf.put_u8(3);
                pid.encode(buf);
            }
            LinkMaintMsg::Heartbeat { from, seq } => {
                buf.put_u8(4);
                from.encode(buf);
                buf.put_u64(*seq);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            LinkMaintMsg::LinkUpdate { .. } => 1 + 2 * ProcessId::WIRE_LEN + MachineId::WIRE_LEN,
            LinkMaintMsg::NonDeliverable { .. } => 1 + ProcessId::WIRE_LEN + 2 + 1,
            LinkMaintMsg::DeathNotice { .. } => 1 + ProcessId::WIRE_LEN,
            LinkMaintMsg::Heartbeat { .. } => 1 + MachineId::WIRE_LEN + 8,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("LinkMaintMsg"));
        }
        let tag = buf.get_u8();
        match tag {
            1 => {
                let sender = ProcessId::decode(buf)?;
                let migrated = ProcessId::decode(buf)?;
                let new_machine = MachineId::decode(buf)?;
                Ok(LinkMaintMsg::LinkUpdate {
                    sender,
                    migrated,
                    new_machine,
                })
            }
            2 => {
                let dest = ProcessId::decode(buf)?;
                if buf.remaining() < 3 {
                    return Err(WireError::Truncated("NonDeliverable"));
                }
                Ok(LinkMaintMsg::NonDeliverable {
                    dest,
                    msg_type: buf.get_u16(),
                    reason: buf.get_u8(),
                })
            }
            3 => Ok(LinkMaintMsg::DeathNotice {
                pid: ProcessId::decode(buf)?,
            }),
            4 => {
                let from = MachineId::decode(buf)?;
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated("Heartbeat"));
                }
                Ok(LinkMaintMsg::Heartbeat {
                    from,
                    seq: buf.get_u64(),
                })
            }
            _ => Err(WireError::BadTag {
                what: "LinkMaintMsg",
                tag: u16::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

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
            assert_eq!(RejectReason::from_u8(r.to_u8()).unwrap(), r);
        }
        assert!(RejectReason::from_u8(99).is_err());
    }
}
