//! Messages and message headers.
//!
//! Every interaction in DEMOS/MP — process-to-process, process-to-server,
//! kernel-to-kernel — is a message sent over a link (§2.1). A message
//! carries a typed payload plus zero or more *links* (this is how
//! capabilities propagate through the system, §2.4).
//!
//! The header records both the destination *address* (copied from the link
//! at send time, so it may carry a stale location hint) and the sender's
//! identity and current machine. The sender machine is what lets a
//! forwarding kernel send the link-update message of §5 back to the
//! sender's kernel.

use core::fmt;

use bytes::{Buf, BufMut, Bytes};

use crate::corr::CorrId;
use crate::ids::{MachineId, ProcessAddress, ProcessId};
use crate::link::Link;
use crate::wire::{encode_exact, Wire, WireError};

/// Well-known message type tags.
///
/// Types below [`tags::USER_BASE`] are reserved for the kernel and system
/// protocols; user programs use `USER_BASE + n`.
pub mod tags {
    /// Kernel control operation (payload: [`crate::proto::KernelOp`]);
    /// always sent over a `DELIVERTOKERNEL` link.
    pub const KERNEL_OP: u16 = 0x0001;
    /// Inter-kernel migration protocol (payload: [`crate::proto::MigrateMsg`]).
    pub const MIGRATE: u16 = 0x0002;
    /// Move-data facility (payload: [`crate::proto::MoveDataMsg`]).
    pub const MOVE_DATA: u16 = 0x0003;
    /// Link maintenance (payload: [`crate::proto::LinkMaintMsg`]):
    /// link updates, non-deliverable notices, death notices.
    pub const LINK_MAINT: u16 = 0x0004;
    /// First tag available to system server processes.
    pub const SYS_BASE: u16 = 0x0100;
    /// First tag available to user programs.
    pub const USER_BASE: u16 = 0x1000;
}

/// Header flag bits.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgFlags(pub u16);

impl MsgFlags {
    /// No flags.
    pub const NONE: MsgFlags = MsgFlags(0);
    /// Receive by the kernel at the target process's machine (§2.2).
    pub const DELIVER_TO_KERNEL: MsgFlags = MsgFlags(1 << 0);
    /// Message was sent over a one-shot reply link.
    pub const REPLY: MsgFlags = MsgFlags(1 << 1);
    /// Message has passed through at least one forwarding address (§4);
    /// set by the forwarding kernel, used for metrics.
    pub const FORWARDED: MsgFlags = MsgFlags(1 << 2);
    /// Sender is a kernel rather than a process.
    pub const FROM_KERNEL: MsgFlags = MsgFlags(1 << 3);

    /// Union.
    pub const fn union(self, o: MsgFlags) -> MsgFlags {
        MsgFlags(self.0 | o.0)
    }

    /// Test for all bits of `o`.
    pub const fn contains(self, o: MsgFlags) -> bool {
        (self.0 & o.0) == o.0
    }
}

impl core::ops::BitOr for MsgFlags {
    type Output = MsgFlags;
    fn bitor(self, rhs: MsgFlags) -> MsgFlags {
        self.union(rhs)
    }
}

impl fmt::Debug for MsgFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.contains(MsgFlags::DELIVER_TO_KERNEL) {
            parts.push("DTK");
        }
        if self.contains(MsgFlags::REPLY) {
            parts.push("REPLY");
        }
        if self.contains(MsgFlags::FORWARDED) {
            parts.push("FWD");
        }
        if self.contains(MsgFlags::FROM_KERNEL) {
            parts.push("KERN");
        }
        if parts.is_empty() {
            write!(f, "NONE")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// Fixed-size portion of every message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgHeader {
    /// Destination address, copied from the sending link. The location
    /// hint may be stale; the delivery system resolves it (§4).
    pub dest: ProcessAddress,
    /// Sender's immutable process identifier.
    pub src: ProcessId,
    /// Machine where the sender resided at send time. Target of the
    /// link-update message when this message is forwarded (§5).
    pub src_machine: MachineId,
    /// Message type tag (see [`tags`]).
    pub msg_type: u16,
    /// Flag bits.
    pub flags: MsgFlags,
    /// Number of forwarding hops taken so far; incremented by each
    /// forwarding address the message passes through.
    pub hops: u8,
}

impl MsgHeader {
    /// Encoded size: 8 + 6 + 2 + 2 + 2 + 1 = 21 bytes, plus the
    /// link-count byte and 4-byte payload length written by
    /// [`Message::encode`].
    pub const WIRE_LEN: usize = 21;
}

impl Wire for MsgHeader {
    /// The header is 21 fixed bytes, so it is written as one array and
    /// one `put_slice` (and read as one chunk) instead of nine fields,
    /// each behind its own length check:
    /// `dest.last_known_machine`(2) `dest.pid`(2 + 4) `src`(2 + 4)
    /// `src_machine`(2) `msg_type`(2) `flags`(2) `hops`(1), the same bytes
    /// the fields' own codecs produce.
    fn encode(&self, buf: &mut impl BufMut) {
        let mut raw = [0u8; Self::WIRE_LEN];
        raw[0..2].copy_from_slice(&self.dest.last_known_machine.0.to_be_bytes());
        raw[2..4].copy_from_slice(&self.dest.pid.creating_machine.0.to_be_bytes());
        raw[4..8].copy_from_slice(&self.dest.pid.local_uid.to_be_bytes());
        raw[8..10].copy_from_slice(&self.src.creating_machine.0.to_be_bytes());
        raw[10..14].copy_from_slice(&self.src.local_uid.to_be_bytes());
        raw[14..16].copy_from_slice(&self.src_machine.0.to_be_bytes());
        raw[16..18].copy_from_slice(&self.msg_type.to_be_bytes());
        raw[18..20].copy_from_slice(&self.flags.0.to_be_bytes());
        raw[20] = self.hops;
        buf.put_slice(&raw);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let Some(&r) = buf.chunk().first_chunk::<{ Self::WIRE_LEN }>() else {
            return Err(WireError::Truncated("MsgHeader"));
        };
        buf.advance(Self::WIRE_LEN);
        let machine = |at: usize| MachineId(u16::from_be_bytes([r[at], r[at + 1]]));
        let pid = |at: usize| ProcessId {
            creating_machine: machine(at),
            local_uid: u32::from_be_bytes([r[at + 2], r[at + 3], r[at + 4], r[at + 5]]),
        };
        Ok(MsgHeader {
            dest: pid(2).at(machine(0)),
            src: pid(8),
            src_machine: machine(14),
            msg_type: u16::from_be_bytes([r[16], r[17]]),
            flags: MsgFlags(u16::from_be_bytes([r[18], r[19]])),
            hops: r[20],
        })
    }

    fn wire_len(&self) -> usize {
        Self::WIRE_LEN
    }
}

/// Maximum number of links one message may carry.
pub const MAX_CARRIED_LINKS: usize = 16;

/// Maximum payload of a single message (larger transfers use the move-data
/// facility, §2.2).
pub const MAX_PAYLOAD: usize = 8 * 1024;

/// A complete message: header, carried links, payload bytes.
///
/// The correlation id rides alongside the wire fields: it is never
/// encoded (wire sizes stay byte-exact), never compared (a decoded
/// message equals the original), and is re-attached from frame metadata
/// by the receiving transport.
#[derive(Clone, Eq, Debug)]
pub struct Message {
    /// Fixed header.
    pub header: MsgHeader,
    /// Links travelling inside the message (capability passing, §2.4).
    pub links: Vec<Link>,
    /// Typed payload (see [`crate::proto`] for system payloads).
    pub payload: Bytes,
    /// Causal-tracing correlation id ([`CorrId::NONE`] until the first
    /// kernel stamps it). Excluded from the wire encoding and from
    /// equality.
    pub corr: CorrId,
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header && self.links == other.links && self.payload == other.payload
    }
}

impl Message {
    /// Total encoded size of this message in bytes: what the simulated
    /// network charges for it. Same as [`Wire::wire_len`].
    pub fn wire_size(&self) -> usize {
        framed_len(self.links.len(), self.payload.len())
    }

    /// Payload length in bytes — the quantity §6 reports for the 6–12-byte
    /// administrative messages.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// First carried link, if any (conventionally the reply link).
    pub fn reply_link(&self) -> Option<Link> {
        self.links.first().copied()
    }

    /// The wire image of a message whose payload is `body`'s encoding —
    /// byte-identical to building the [`Message`] with
    /// `payload: body.to_bytes()` and encoding that, but header, links and
    /// body are written once, into one exact-size buffer, instead of the
    /// body being serialised into a payload buffer and copied from there.
    pub fn encode_with_body<B: Wire>(header: &MsgHeader, links: &[Link], body: &B) -> Bytes {
        let body_len = body.wire_len();
        encode_exact(framed_len(links.len(), body_len), |out| {
            let take = put_framing(out, header, links, body_len);
            if take == body_len {
                body.encode(out);
            } else {
                // A body the four-byte length cannot express is cut exactly
                // as an oversized payload would be.
                out.put_slice(&body.to_bytes()[..take]);
            }
        })
    }
}

/// How many of `n_links` links and `payload_len` payload bytes the
/// one-byte count and four-byte length can express. Out-of-invariant
/// messages (links > u8, payload > u32 — both impossible via the
/// constructors) are clamped to keep the frame wire-consistent instead of
/// aborting a kernel mid-protocol.
fn clamped(n_links: usize, payload_len: usize) -> (usize, usize) {
    (
        n_links.min(usize::from(u8::MAX)),
        payload_len.min(crate::wire::max_prefixed_len()),
    )
}

/// Encoded size of a message carrying `n_links` links and `payload_len`
/// payload bytes, after the encode-side clamps.
fn framed_len(n_links: usize, payload_len: usize) -> usize {
    let (n_links, payload_len) = clamped(n_links, payload_len);
    MsgHeader::WIRE_LEN + 1 + 4 + n_links * Link::WIRE_LEN + payload_len
}

/// Write everything that precedes the payload: header, counts, links.
/// Returns how many payload bytes the caller must now append (the length
/// just written); every clamp is counted, once.
fn put_framing(
    buf: &mut impl BufMut,
    header: &MsgHeader,
    links: &[Link],
    payload_len: usize,
) -> usize {
    let (n_links, take) = clamped(links.len(), payload_len);
    if n_links != links.len() {
        crate::wire::codec_stats::note_clamp();
    }
    if take != payload_len {
        crate::wire::codec_stats::note_clamp();
    }
    header.encode(buf);
    buf.put_u8(u8::try_from(n_links).unwrap_or(u8::MAX));
    buf.put_u32(u32::try_from(take).unwrap_or(u32::MAX));
    for l in &links[..n_links] {
        l.encode(buf);
    }
    take
}

impl Wire for Message {
    fn encode(&self, buf: &mut impl BufMut) {
        let take = put_framing(buf, &self.header, &self.links, self.payload.len());
        buf.put_slice(&self.payload[..take]);
    }

    fn wire_len(&self) -> usize {
        self.wire_size()
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let header = MsgHeader::decode(buf)?;
        if buf.remaining() < 5 {
            return Err(WireError::Truncated("Message counts"));
        }
        let n_links = usize::from(buf.get_u8());
        let payload_len = usize::try_from(buf.get_u32()).map_err(|_| WireError::BadLength {
            what: "Message.payload",
            len: usize::MAX,
        })?;
        if n_links > MAX_CARRIED_LINKS {
            return Err(WireError::BadLength {
                what: "Message.links",
                len: n_links,
            });
        }
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::BadLength {
                what: "Message.payload",
                len: payload_len,
            });
        }
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            links.push(Link::decode(buf)?);
        }
        if buf.remaining() < payload_len {
            return Err(WireError::Truncated("Message.payload"));
        }
        let payload = buf.split_to(payload_len);
        Ok(Message {
            header,
            links,
            payload,
            corr: CorrId::NONE,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;
    use bytes::BytesMut;

    fn header() -> MsgHeader {
        MsgHeader {
            dest: ProcessId {
                creating_machine: MachineId(1),
                local_uid: 5,
            }
            .at(MachineId(2)),
            src: ProcessId {
                creating_machine: MachineId(3),
                local_uid: 9,
            },
            src_machine: MachineId(3),
            msg_type: tags::USER_BASE + 1,
            flags: MsgFlags::NONE,
            hops: 0,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        assert_eq!(h.wire_len(), MsgHeader::WIRE_LEN);
        assert_eq!(roundtrip(&h).unwrap(), h);
    }

    #[test]
    fn message_roundtrip_with_links() {
        let addr = ProcessId {
            creating_machine: MachineId(4),
            local_uid: 2,
        }
        .at(MachineId(4));
        let m = Message {
            header: header(),
            links: vec![Link::to(addr).reply(), Link::deliver_to_kernel(addr)],
            payload: Bytes::from_static(b"hello demos"),
            corr: CorrId::new(MachineId(3), 1),
        };
        let back = roundtrip(&m).unwrap();
        assert_eq!(back, m);
        assert!(back.reply_link().unwrap().is_reply());
    }

    #[test]
    fn wire_size_matches_encoding() {
        let addr = ProcessId {
            creating_machine: MachineId(4),
            local_uid: 2,
        }
        .at(MachineId(4));
        let m = Message {
            header: header(),
            links: vec![Link::to(addr)],
            payload: Bytes::from_static(&[0u8; 100]),
            corr: CorrId::NONE,
        };
        assert_eq!(m.wire_size(), m.to_bytes().len());
    }

    #[test]
    fn oversized_payload_rejected_on_decode() {
        let mut buf = BytesMut::new();
        header().encode(&mut buf);
        buf.put_u8(0);
        buf.put_u32((MAX_PAYLOAD + 1) as u32);
        let mut b = buf.freeze();
        assert!(Message::decode(&mut b).is_err());
    }

    #[test]
    fn too_many_links_rejected_on_decode() {
        let mut buf = BytesMut::new();
        header().encode(&mut buf);
        buf.put_u8((MAX_CARRIED_LINKS + 1) as u8);
        buf.put_u32(0);
        let mut b = buf.freeze();
        assert!(Message::decode(&mut b).is_err());
    }

    #[test]
    fn flags_debug() {
        let f = MsgFlags::DELIVER_TO_KERNEL | MsgFlags::FORWARDED;
        assert_eq!(format!("{f:?}"), "DTK|FWD");
    }
}
