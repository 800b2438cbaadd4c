//! Per-process link tables.
//!
//! "Links are the only connections a process has to the operating system,
//! system resources, and other processes. Thus, a process's link table
//! provides a complete encapsulation of the execution of the process"
//! (§2.2). The table is the *local name space* through which a process
//! refers to its links: programs hold [`LinkIdx`] values, never raw
//! addresses.
//!
//! The table is part of the process's *swappable state*; its serialized
//! size is what makes that state "about 600 bytes, depending on the size
//! of the link table" (§6).

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes};
use demos_types::wire::{Wire, WireError};
use demos_types::{DemosError, Link, LinkAttrs, LinkIdx, MachineId, ProcessId, Result};

/// A process's link table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkTable {
    slots: BTreeMap<u32, Link>,
    next: u32,
}

impl LinkTable {
    /// Empty table; indices start at 1 (0 is reserved so an all-zeroes
    /// state never aliases a valid link).
    pub fn new() -> Self {
        LinkTable {
            slots: BTreeMap::new(),
            next: 1,
        }
    }

    /// Number of links held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Encoded size of a table of `links` links: next index, count, then
    /// an index and a link each.
    pub const fn wire_len_of(links: usize) -> usize {
        4 + 2 + links * (4 + Link::WIRE_LEN)
    }

    /// Whether the table holds no links.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Install a link, returning its index.
    pub fn insert(&mut self, link: Link) -> LinkIdx {
        let idx = self.next;
        self.next += 1;
        self.slots.insert(idx, link);
        LinkIdx(idx)
    }

    /// Look up a link.
    pub fn get(&self, idx: LinkIdx) -> Result<Link> {
        self.slots
            .get(&idx.0)
            .copied()
            .ok_or(DemosError::BadLink(idx))
    }

    /// Duplicate the link at `idx` into a fresh slot ("links may be …
    /// duplicated", §2.1). Reply links may not be duplicated: they are
    /// one-shot by construction.
    pub fn duplicate(&mut self, idx: LinkIdx) -> Result<LinkIdx> {
        let link = self.get(idx)?;
        if link.is_reply() {
            return Err(DemosError::LinkAccess {
                link: idx,
                need: "non-REPLY",
            });
        }
        Ok(self.insert(link))
    }

    /// Remove and return the link at `idx`.
    pub fn remove(&mut self, idx: LinkIdx) -> Result<Link> {
        self.slots.remove(&idx.0).ok_or(DemosError::BadLink(idx))
    }

    /// Fetch a link for sending. A reply link is consumed by the send
    /// (§2.4: reply links "are used only once").
    pub fn use_for_send(&mut self, idx: LinkIdx) -> Result<Link> {
        let link = self.get(idx)?;
        if link.attrs.contains(LinkAttrs::DEAD) {
            return Err(DemosError::LinkAccess {
                link: idx,
                need: "live target",
            });
        }
        if link.is_reply() {
            self.slots.remove(&idx.0);
        }
        Ok(link)
    }

    /// Patch every link addressing `migrated` to point at `new_machine` —
    /// the receiving side of the link-update message (§5). Returns how many
    /// links were updated.
    pub fn rehome_links_to(&mut self, migrated: ProcessId, new_machine: MachineId) -> usize {
        let mut n = 0;
        for link in self.slots.values_mut() {
            if link.target() == migrated && link.addr.last_known_machine != new_machine {
                link.rehome(new_machine);
                n += 1;
            }
        }
        n
    }

    /// Mark every link addressing `dead` with the DEAD attribute so later
    /// sends fail fast (non-deliverable handling, §4). Returns the count.
    pub fn mark_dead(&mut self, dead: ProcessId) -> usize {
        let mut n = 0;
        for link in self.slots.values_mut() {
            if link.target() == dead && !link.attrs.contains(LinkAttrs::DEAD) {
                link.attrs = link.attrs.union(LinkAttrs::DEAD);
                n += 1;
            }
        }
        n
    }

    /// Iterate over `(index, link)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkIdx, &Link)> {
        self.slots.iter().map(|(&i, l)| (LinkIdx(i), l))
    }
}

/// The `DEAD` attribute is kernel-internal, so it lives here rather than in
/// `demos-types`: set on links whose target was reported non-deliverable.
pub trait LinkAttrsExt {
    /// Link target is known dead; sends fail immediately.
    const DEAD: LinkAttrs;
}

impl LinkAttrsExt for LinkAttrs {
    const DEAD: LinkAttrs = LinkAttrs(1 << 8);
}

impl Wire for LinkTable {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.next);
        buf.put_u16(self.slots.len() as u16);
        for (&idx, link) in &self.slots {
            buf.put_u32(idx);
            link.encode(buf);
        }
    }

    fn wire_len(&self) -> usize {
        Self::wire_len_of(self.slots.len())
    }

    fn decode(buf: &mut Bytes) -> Result2<Self> {
        if buf.remaining() < 6 {
            return Err(WireError::Truncated("LinkTable"));
        }
        let next = buf.get_u32();
        let n = buf.get_u16() as usize;
        let mut slots = BTreeMap::new();
        for _ in 0..n {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated("LinkTable.slot"));
            }
            let idx = buf.get_u32();
            let link = Link::decode(buf)?;
            slots.insert(idx, link);
        }
        Ok(LinkTable { slots, next })
    }
}

type Result2<T> = core::result::Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::ProcessAddress;

    fn pid(u: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(1),
            local_uid: u,
        }
    }

    fn addr(u: u32, m: u16) -> ProcessAddress {
        pid(u).at(MachineId(m))
    }

    #[test]
    fn insert_get_remove() {
        let mut t = LinkTable::new();
        let i = t.insert(Link::to(addr(5, 1)));
        assert_eq!(t.get(i).unwrap().target(), pid(5));
        assert_eq!(t.len(), 1);
        t.remove(i).unwrap();
        assert!(t.get(i).is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn indices_never_reused() {
        let mut t = LinkTable::new();
        let a = t.insert(Link::to(addr(1, 1)));
        t.remove(a).unwrap();
        let b = t.insert(Link::to(addr(2, 1)));
        assert_ne!(a, b, "slot indices are never recycled");
    }

    #[test]
    fn duplicate_shares_target() {
        let mut t = LinkTable::new();
        let a = t.insert(Link::to(addr(1, 3)));
        let b = t.duplicate(a).unwrap();
        assert_eq!(t.get(a).unwrap(), t.get(b).unwrap());
    }

    #[test]
    fn reply_links_consumed_by_send_and_not_duplicable() {
        let mut t = LinkTable::new();
        let r = t.insert(Link::to(addr(1, 1)).reply());
        assert!(t.duplicate(r).is_err());
        let link = t.use_for_send(r).unwrap();
        assert!(link.is_reply());
        assert!(t.get(r).is_err(), "reply link consumed by first send");
        assert!(matches!(t.use_for_send(r), Err(DemosError::BadLink(_))));
    }

    #[test]
    fn normal_links_survive_send() {
        let mut t = LinkTable::new();
        let i = t.insert(Link::to(addr(1, 1)));
        t.use_for_send(i).unwrap();
        assert!(t.get(i).is_ok());
    }

    #[test]
    fn rehome_updates_only_matching() {
        let mut t = LinkTable::new();
        let a = t.insert(Link::to(addr(7, 1)));
        let b = t.insert(Link::to(addr(7, 1)));
        let c = t.insert(Link::to(addr(8, 1)));
        let n = t.rehome_links_to(pid(7), MachineId(4));
        assert_eq!(n, 2);
        assert_eq!(t.get(a).unwrap().addr.last_known_machine, MachineId(4));
        assert_eq!(t.get(b).unwrap().addr.last_known_machine, MachineId(4));
        assert_eq!(t.get(c).unwrap().addr.last_known_machine, MachineId(1));
        // Idempotent: already-current links are not re-counted.
        assert_eq!(t.rehome_links_to(pid(7), MachineId(4)), 0);
    }

    #[test]
    fn dead_links_refuse_sends() {
        let mut t = LinkTable::new();
        let i = t.insert(Link::to(addr(7, 1)));
        assert_eq!(t.mark_dead(pid(7)), 1);
        assert_eq!(t.mark_dead(pid(7)), 0, "marking is idempotent");
        assert!(matches!(
            t.use_for_send(i),
            Err(DemosError::LinkAccess { .. })
        ));
    }

    #[test]
    fn wire_roundtrip() {
        let mut t = LinkTable::new();
        t.insert(Link::to(addr(1, 2)));
        t.insert(Link::deliver_to_kernel(addr(2, 3)));
        let i = t.insert(Link::to(addr(3, 4)));
        t.remove(i).unwrap();
        let back = demos_types::wire::roundtrip(&t).unwrap();
        assert_eq!(back, t);
        // `next` survives, so restored tables keep the no-reuse invariant.
        let mut back2 = back.clone();
        let j = back2.insert(Link::to(addr(9, 9)));
        assert!(j.0 > i.0);
    }

    #[test]
    fn serialized_size_scales_with_links() {
        // §6: swappable state ≈600 B "depending on the size of the link
        // table" — each entry costs a fixed 22 bytes here.
        let mut t = LinkTable::new();
        let empty = t.to_bytes().len();
        for k in 1..=10u32 {
            t.insert(Link::to(addr(k, 1)));
            assert_eq!(
                t.to_bytes().len(),
                empty + (k as usize) * (4 + Link::WIRE_LEN)
            );
        }
    }
}
