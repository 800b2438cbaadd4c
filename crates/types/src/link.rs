//! Links — DEMOS/MP's capability-like message paths (paper §2.1–2.2, §2.4).
//!
//! A link is "essentially a protected global process address accessed via a
//! local name space". Links are created only by the process they point to,
//! may be duplicated and passed to other processes inside messages, and are
//! context-independent: wherever a link travels, it still addresses the
//! same process.
//!
//! Two attributes matter for migration:
//!
//! * [`LinkAttrs::DELIVER_TO_KERNEL`] — a message sent over such a link
//!   follows the normal routing *to the process* (including forwarding
//!   addresses) but is received by the **kernel** of the machine where the
//!   process resides. This is how control operations follow a process
//!   through migration (§2.2).
//! * data-area access ([`LinkAttrs::DATA_READ`] / [`LinkAttrs::DATA_WRITE`]
//!   plus a [`DataArea`] window) — grants the holder the right to move
//!   data directly to/from part of the creating process's address space
//!   via the kernel move-data facility (§2.2).

use core::fmt;

use bytes::{Buf, BufMut};

use crate::ids::{MachineId, ProcessAddress, ProcessId};
use crate::wire::{Wire, WireError};

/// Index of a link in a process's link table — the *local name space*
/// through which a process refers to its links (akin to a file descriptor).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkIdx(pub u32);

impl fmt::Debug for LinkIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Link attribute bits.
///
/// Hand-rolled bit set (no external bitflags dependency); unknown bits are
/// preserved on decode so future attributes remain forward-compatible.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkAttrs(pub u16);

impl LinkAttrs {
    /// No attributes: a plain message path.
    pub const NONE: LinkAttrs = LinkAttrs(0);
    /// Message is received by the kernel of the target process's machine.
    pub const DELIVER_TO_KERNEL: LinkAttrs = LinkAttrs(1 << 0);
    /// Holder may read from the link's data area.
    pub const DATA_READ: LinkAttrs = LinkAttrs(1 << 1);
    /// Holder may write to the link's data area.
    pub const DATA_WRITE: LinkAttrs = LinkAttrs(1 << 2);
    /// One-shot reply link: consumed by its first send (§2.4 — "reply links
    /// … are used only once to respond to requests").
    pub const REPLY: LinkAttrs = LinkAttrs(1 << 3);
    /// A data-area window is present in the encoding.
    pub const HAS_AREA: LinkAttrs = LinkAttrs(1 << 4);

    /// Union of two attribute sets.
    pub const fn union(self, other: LinkAttrs) -> LinkAttrs {
        LinkAttrs(self.0 | other.0)
    }

    /// Whether every bit of `other` is set in `self`.
    pub const fn contains(self, other: LinkAttrs) -> bool {
        (self.0 & other.0) == other.0
    }

    /// Remove the bits of `other`.
    pub const fn without(self, other: LinkAttrs) -> LinkAttrs {
        LinkAttrs(self.0 & !other.0)
    }
}

impl core::ops::BitOr for LinkAttrs {
    type Output = LinkAttrs;
    fn bitor(self, rhs: LinkAttrs) -> LinkAttrs {
        self.union(rhs)
    }
}

impl fmt::Debug for LinkAttrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.contains(LinkAttrs::DELIVER_TO_KERNEL) {
            parts.push("DTK");
        }
        if self.contains(LinkAttrs::DATA_READ) {
            parts.push("RD");
        }
        if self.contains(LinkAttrs::DATA_WRITE) {
            parts.push("WR");
        }
        if self.contains(LinkAttrs::REPLY) {
            parts.push("REPLY");
        }
        if self.contains(LinkAttrs::HAS_AREA) {
            parts.push("AREA");
        }
        if parts.is_empty() {
            write!(f, "NONE")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// A window into the creating process's address space, granted via a link.
///
/// Offsets are into the process's *data segment*; the kernel validates all
/// move-data operations against this window.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DataArea {
    /// Byte offset into the creating process's data segment.
    pub offset: u32,
    /// Window length in bytes.
    pub len: u32,
}

impl DataArea {
    /// Whether `[off, off+len)` lies entirely inside this window.
    pub fn contains_range(&self, off: u32, len: u32) -> bool {
        let end = off.checked_add(len);
        matches!(end, Some(end) if off >= self.offset && end <= self.offset.saturating_add(self.len))
    }
}

/// A link: the message process address it points at, plus attributes and an
/// optional data-area window.
///
/// Fixed 18-byte wire encoding (8-byte address, 2-byte attributes, 8-byte
/// area), so the swappable-state size scales linearly with the link table —
/// the dependence §6 calls out ("about 600 bytes, depending on the size of
/// the link table").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Link {
    /// Where messages over this link are delivered. `addr.pid` is
    /// immutable; `addr.last_known_machine` is a hint kept fresh by the
    /// link-update protocol (§5).
    pub addr: ProcessAddress,
    /// Attribute bits.
    pub attrs: LinkAttrs,
    /// Data-area window, present iff `attrs` has [`LinkAttrs::HAS_AREA`].
    pub area: Option<DataArea>,
}

impl Link {
    /// Encoded size in bytes (8 + 2 + 4 + 4), fixed.
    pub const WIRE_LEN: usize = 18;

    /// A plain link to `addr`.
    pub const fn to(addr: ProcessAddress) -> Link {
        Link {
            addr,
            attrs: LinkAttrs::NONE,
            area: None,
        }
    }

    /// A link straight to machine `m`'s kernel.
    pub const fn to_kernel(m: MachineId) -> Link {
        Link {
            addr: ProcessAddress::kernel_of(m),
            attrs: LinkAttrs::NONE,
            area: None,
        }
    }

    /// A `DELIVERTOKERNEL` link to process `addr`: routes like a normal
    /// link to the process but is received by the kernel where the process
    /// lives (§2.2).
    pub const fn deliver_to_kernel(addr: ProcessAddress) -> Link {
        Link {
            addr,
            attrs: LinkAttrs::DELIVER_TO_KERNEL,
            area: None,
        }
    }

    /// Attach a data-area window with the given access bits.
    pub fn with_area(mut self, area: DataArea, access: LinkAttrs) -> Link {
        self.area = Some(area);
        self.attrs = self.attrs.union(access).union(LinkAttrs::HAS_AREA);
        self
    }

    /// Mark as a one-shot reply link.
    pub fn reply(mut self) -> Link {
        self.attrs = self.attrs.union(LinkAttrs::REPLY);
        self
    }

    /// The process this link addresses (immutable component).
    pub const fn target(&self) -> ProcessId {
        self.addr.pid
    }

    /// Whether this is a `DELIVERTOKERNEL` link.
    pub fn is_dtk(&self) -> bool {
        self.attrs.contains(LinkAttrs::DELIVER_TO_KERNEL)
    }

    /// Whether this is a one-shot reply link.
    pub fn is_reply(&self) -> bool {
        self.attrs.contains(LinkAttrs::REPLY)
    }

    /// Update the location hint (link update, §5).
    pub fn rehome(&mut self, machine: MachineId) {
        self.addr = self.addr.rehomed(machine);
    }
}

impl Wire for Link {
    fn encode(&self, buf: &mut impl BufMut) {
        self.addr.encode(buf);
        let mut attrs = self.attrs;
        if self.area.is_some() {
            attrs = attrs.union(LinkAttrs::HAS_AREA);
        } else {
            attrs = attrs.without(LinkAttrs::HAS_AREA);
        }
        buf.put_u16(attrs.0);
        let area = self.area.unwrap_or(DataArea { offset: 0, len: 0 });
        buf.put_u32(area.offset);
        buf.put_u32(area.len);
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        let addr = ProcessAddress::decode(buf)?;
        if buf.remaining() < 10 {
            return Err(WireError::Truncated("Link"));
        }
        let attrs = LinkAttrs(buf.get_u16());
        let offset = buf.get_u32();
        let len = buf.get_u32();
        let area = attrs
            .contains(LinkAttrs::HAS_AREA)
            .then_some(DataArea { offset, len });
        Ok(Link { addr, attrs, area })
    }

    fn wire_len(&self) -> usize {
        Self::WIRE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::wire::roundtrip;

    fn addr() -> ProcessAddress {
        ProcessId {
            creating_machine: MachineId(1),
            local_uid: 7,
        }
        .at(MachineId(2))
    }

    #[test]
    fn attrs_ops() {
        let a = LinkAttrs::DATA_READ | LinkAttrs::DATA_WRITE;
        assert!(a.contains(LinkAttrs::DATA_READ));
        assert!(!a.contains(LinkAttrs::REPLY));
        assert!(!a
            .without(LinkAttrs::DATA_READ)
            .contains(LinkAttrs::DATA_READ));
        assert_eq!(format!("{:?}", a), "RD|WR");
        assert_eq!(format!("{:?}", LinkAttrs::NONE), "NONE");
    }

    #[test]
    fn plain_link_roundtrip() {
        let l = Link::to(addr());
        assert_eq!(l.wire_len(), Link::WIRE_LEN);
        assert_eq!(roundtrip(&l).unwrap(), l);
        assert!(!l.is_dtk());
    }

    #[test]
    fn dtk_link_roundtrip() {
        let l = Link::deliver_to_kernel(addr());
        assert!(l.is_dtk());
        assert_eq!(roundtrip(&l).unwrap(), l);
    }

    #[test]
    fn area_link_roundtrip() {
        let l = Link::to(addr()).with_area(
            DataArea {
                offset: 16,
                len: 4096,
            },
            LinkAttrs::DATA_READ | LinkAttrs::DATA_WRITE,
        );
        let back = roundtrip(&l).unwrap();
        assert_eq!(
            back.area,
            Some(DataArea {
                offset: 16,
                len: 4096
            })
        );
        assert!(back.attrs.contains(LinkAttrs::DATA_READ));
        assert!(back.attrs.contains(LinkAttrs::DATA_WRITE));
    }

    #[test]
    fn reply_link() {
        let l = Link::to(addr()).reply();
        assert!(l.is_reply());
        assert_eq!(roundtrip(&l).unwrap(), l);
    }

    #[test]
    fn rehome_keeps_pid() {
        let mut l = Link::to(addr());
        let pid = l.target();
        l.rehome(MachineId(9));
        assert_eq!(
            l.target(),
            pid,
            "links are context-independent: pid never changes"
        );
        assert_eq!(l.addr.last_known_machine, MachineId(9));
    }

    #[test]
    fn data_area_bounds() {
        let a = DataArea {
            offset: 100,
            len: 50,
        };
        assert!(a.contains_range(100, 50));
        assert!(a.contains_range(120, 10));
        assert!(!a.contains_range(99, 2));
        assert!(!a.contains_range(140, 20));
        assert!(!a.contains_range(u32::MAX, 2), "overflow must not wrap");
    }

    #[test]
    fn kernel_link() {
        let l = Link::to_kernel(MachineId(4));
        assert!(l.target().is_kernel());
        assert_eq!(l.addr.last_known_machine, MachineId(4));
    }
}
