//! Programs: the code a process runs, and the kernel-call interface.
//!
//! The paper's processes are Z8000 machine code; ours are Rust values
//! implementing [`Program`]. To keep migration byte-faithful, a program is
//! identified by a *registered name* (stored in the image's code segment)
//! and must serialize its entire state with [`Program::save`]; the
//! destination kernel re-instantiates it through the [`Registry`]. This
//! mirrors DEMOS/MP's own portability trick — "essentially the same
//! software runs on both systems" (§2) — the program travels as bytes, the
//! behaviour comes from the (identical) code installed on every machine.
//!
//! Programs interact with the world *only* through [`Ctx`] — the kernel
//! call interface. All interactions are communication-oriented (§2.1):
//! send over a link, create a link, set a timer, move data through a
//! data-area link, exit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bytes::{Bytes, SlabCursor, Spare};
use demos_types::message::{MAX_CARRIED_LINKS, MAX_PAYLOAD};
use demos_types::wire::Wire;
use demos_types::{
    DataArea, DemosError, Duration, Link, LinkAttrs, LinkIdx, MachineId, Message, MsgFlags,
    MsgHeader, ProcessId, Result, Time,
};

use crate::linktable::LinkTable;

/// Extra message-type tags used between a kernel and its own processes
/// (never crossing the network with these meanings reserved).
pub mod local_tags {
    /// Synthetic timer-expiry message (kernel → own process).
    pub const TIMER: u16 = 0x0007;
    /// Non-deliverable notice delivered to a sender process (§4).
    pub const NON_DELIVERABLE: u16 = 0x0008;
    /// Completion notice for a user-level move-data operation.
    pub const MOVE_DATA_DONE: u16 = 0x0009;
    /// Kernel management protocol (process creation), kernel-addressed.
    pub const KERNEL_MGMT: u16 = 0x0006;
}

/// A message as seen by a program: carried links have been installed in
/// the receiving process's link table and appear as indices.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Sender's process id.
    pub from: ProcessId,
    /// Message type tag.
    pub msg_type: u16,
    /// Payload bytes.
    pub payload: Bytes,
    /// Indices of links that arrived in the message, in order. By
    /// convention the first is the reply link.
    pub links: CarriedLinks,
    /// Whether this message passed through a forwarding address.
    pub forwarded: bool,
}

impl Delivered {
    /// The conventional reply link (first carried link), if present.
    pub fn reply(&self) -> Option<LinkIdx> {
        self.links.first().copied()
    }
}

/// The link indices a delivered message carried, inline, read as a
/// `&[LinkIdx]`. Collecting keeps the first [`MAX_CARRIED_LINKS`].
#[derive(Clone, Copy, Default)]
pub struct CarriedLinks {
    len: u8,
    idx: [LinkIdx; MAX_CARRIED_LINKS],
}

impl std::ops::Deref for CarriedLinks {
    type Target = [LinkIdx];
    fn deref(&self) -> &[LinkIdx] {
        &self.idx[..usize::from(self.len)]
    }
}

impl FromIterator<LinkIdx> for CarriedLinks {
    fn from_iter<I: IntoIterator<Item = LinkIdx>>(iter: I) -> Self {
        let mut links = CarriedLinks::default();
        for (slot, idx) in links.idx.iter_mut().zip(iter) {
            *slot = idx;
            links.len += 1;
        }
        links
    }
}

impl std::fmt::Debug for CarriedLinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Emptied `Message::links` lists and payload slabs nothing reads any
/// more, kept for the next messages: one set per [`crate::Outbox`],
/// host-only, at most [`MAX_CARRIED_LINKS`] of each (DESIGN.md §9).
#[derive(Debug, Default)]
pub struct Kept {
    lists: Vec<Vec<Link>>,
    /// Oldest first.
    slabs: VecDeque<Spare>,
}

impl Kept {
    /// An empty list with room for `n` links: a kept one grown exactly if short, or a new one.
    pub fn take_list(&mut self, n: usize) -> Vec<Link> {
        if n == 0 {
            return Vec::new();
        }
        let mut list = self.lists.pop().unwrap_or_default();
        list.reserve_exact(n);
        list
    }

    /// Keep `list`, emptied, unless [`MAX_CARRIED_LINKS`] lists are kept.
    pub fn give_list(&mut self, mut list: Vec<Link>) {
        if list.capacity() > 0 && self.lists.len() < MAX_CARRIED_LINKS {
            list.clear();
            self.lists.push(list);
        }
    }

    /// The newest kept slab of exactly `len` bytes, to write a payload
    /// into ([`Bytes::refilled`]).
    pub fn take(&mut self, len: usize) -> Option<Spare> {
        let at = self.slabs.iter().rposition(|s| s.len() == len)?;
        self.slabs.remove(at)
    }

    /// `body`'s encoding, the bytes of [`Wire::to_bytes`], written into
    /// the newest kept slab of its length if there is one.
    pub fn encode(&mut self, body: &impl Wire) -> Bytes {
        body.to_bytes_in(self.take(body.wire_len()))
    }

    /// Keep `payload`'s slab if the payload is the whole of it and nothing
    /// else reads it; a frame slice, a sub-slice, or a static, adopted or
    /// shared payload is dropped. A full set frees its oldest slab, so
    /// lengths nobody writes any more do not hold the set forever.
    pub fn offer(&mut self, payload: Bytes) {
        let len = payload.len();
        if let Some(slab) = payload.into_spare() {
            if slab.len() == len {
                if self.slabs.len() == MAX_CARRIED_LINKS {
                    self.slabs.pop_front();
                }
                self.slabs.push_back(slab);
            }
        }
    }
}

/// How to attach a link to an outgoing message.
#[derive(Debug, Clone, Copy)]
pub enum Carry {
    /// Copy an existing link (stays in the sender's table).
    Dup(LinkIdx),
    /// Move an existing link (removed from the sender's table).
    Move(LinkIdx),
    /// Create and carry a fresh link pointing at the sender, with the
    /// given attributes (e.g. a reply link).
    New(LinkAttrs),
    /// Create and carry a fresh link pointing at the sender granting a
    /// data-area window.
    NewArea(LinkAttrs, DataArea),
}

/// A user-level move-data request buffered by [`Ctx`].
#[derive(Debug, Clone, Copy)]
pub struct MoveDataReq {
    /// Link (with a data area) authorizing the operation.
    pub link: LinkIdx,
    /// True = read remote area into local data segment; false = write
    /// local bytes into the remote area.
    pub read: bool,
    /// Offset within the remote window.
    pub remote_off: u32,
    /// Offset within the caller's own data segment.
    pub local_off: u32,
    /// Bytes to move.
    pub len: u32,
    /// Caller-chosen token echoed in the completion message.
    pub token: u16,
}

/// Buffered side effects of one program activation, applied by the kernel
/// after the handler returns.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to submit to the delivery system.
    pub sends: Vec<Message>,
    /// Timers to arm: `(delay, token)`.
    pub timers: Vec<(Duration, u64)>,
    /// Move-data operations to start.
    pub movedata: Vec<MoveDataReq>,
    /// Process requested termination.
    pub exit: bool,
    /// Virtual CPU consumed by the handler (beyond the per-activation
    /// base cost).
    pub cpu: Duration,
    /// Program log lines (traced).
    pub logs: Vec<String>,
}

/// The kernel-call interface handed to a program during an activation.
///
/// "All interactions between one process and another or between a process
/// and the system are via communication-oriented kernel calls" (§2.1).
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) pid: ProcessId,
    pub(crate) machine: MachineId,
    pub(crate) links: &'a mut LinkTable,
    pub(crate) effects: &'a mut Effects,
    pub(crate) kept: &'a mut Kept,
}

impl<'a> Ctx<'a> {
    /// Construct a context (used by the kernel and by unit tests).
    pub fn new(
        now: Time,
        pid: ProcessId,
        machine: MachineId,
        links: &'a mut LinkTable,
        effects: &'a mut Effects,
        kept: &'a mut Kept,
    ) -> Self {
        Ctx {
            now,
            pid,
            machine,
            links,
            effects,
            kept,
        }
    }

    /// A `len`-byte payload written by `fill` ([`Bytes::filled`]'s
    /// contract), into a kept slab of that length if there is one.
    pub fn payload(&mut self, len: usize, fill: impl FnOnce(&mut SlabCursor<'_>)) -> Bytes {
        Bytes::refilled(self.kept.take(len), len, fill)
    }

    /// `body`'s encoding as a payload ([`Kept::encode`]).
    pub fn encode(&mut self, body: &impl Wire) -> Bytes {
        self.kept.encode(body)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This process's immutable identifier.
    pub fn self_pid(&self) -> ProcessId {
        self.pid
    }

    /// The machine this process currently runs on. (A correct program
    /// never needs this — communication is location-transparent — but
    /// tests and instrumentation do.)
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Create a link pointing at this process ("the conceptual control of
    /// a link is vested in the process that the link addresses — which is
    /// always the process that created it", §2.1).
    pub fn create_link(&mut self, attrs: LinkAttrs) -> LinkIdx {
        self.links.insert(Link {
            addr: self.pid.at(self.machine),
            attrs,
            area: None,
        })
    }

    /// Create a link to this process granting a data-area window.
    pub fn create_area_link(&mut self, attrs: LinkAttrs, area: DataArea) -> LinkIdx {
        self.links.insert(
            Link {
                addr: self.pid.at(self.machine),
                attrs,
                area: None,
            }
            .with_area(area, attrs),
        )
    }

    /// Duplicate an existing link into a new slot.
    pub fn dup_link(&mut self, idx: LinkIdx) -> Result<LinkIdx> {
        self.links.duplicate(idx)
    }

    /// Destroy a link.
    pub fn destroy_link(&mut self, idx: LinkIdx) -> Result<()> {
        self.links.remove(idx).map(drop)
    }

    /// Inspect a link.
    pub fn link(&self, idx: LinkIdx) -> Result<Link> {
        self.links.get(idx)
    }

    /// Install an externally supplied link value (used by system processes
    /// that receive links and re-distribute them, e.g. the switchboard).
    pub fn install_link(&mut self, link: Link) -> LinkIdx {
        self.links.insert(link)
    }

    /// Duplicate a link with the `DELIVERTOKERNEL` attribute added —
    /// system processes derive control paths to processes this way ("a
    /// link with this attribute looks the same as a link to the process to
    /// which it points", §2.2).
    pub fn dup_as_dtk(&mut self, idx: LinkIdx) -> Result<LinkIdx> {
        let mut link = self.links.get(idx)?;
        link.attrs = link.attrs.union(LinkAttrs::DELIVER_TO_KERNEL);
        Ok(self.links.insert(link))
    }

    /// Send a message over `via`, carrying `carry` links.
    ///
    /// Consumes `via` if it is a reply link. Returns the error without
    /// sending if the link is missing, dead, or the payload/links exceed
    /// protocol limits.
    pub fn send(
        &mut self,
        via: LinkIdx,
        msg_type: u16,
        payload: impl Into<Bytes>,
        carry: &[Carry],
    ) -> Result<()> {
        let payload: Bytes = payload.into();
        if payload.len() > MAX_PAYLOAD {
            return Err(DemosError::TooLarge {
                what: "payload",
                len: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        demos_types::message::check_carried_links(carry.len())?;
        // Validate carried links before consuming the send link, so a
        // failed send has no side effects.
        for c in carry {
            if let Carry::Dup(i) | Carry::Move(i) = c {
                self.links.get(*i)?;
            }
        }
        let link = self.links.use_for_send(via)?;
        let mut links = self.kept.take_list(carry.len());
        for c in carry {
            links.push(match c {
                Carry::Dup(i) => self.links.get(*i)?,
                Carry::Move(i) => self.links.remove(*i)?,
                Carry::New(attrs) => Link {
                    addr: self.pid.at(self.machine),
                    attrs: *attrs,
                    area: None,
                },
                Carry::NewArea(attrs, area) => Link {
                    addr: self.pid.at(self.machine),
                    attrs: *attrs,
                    area: None,
                }
                .with_area(*area, *attrs),
            });
        }
        let mut flags = MsgFlags::NONE;
        if link.is_dtk() {
            flags = flags | MsgFlags::DELIVER_TO_KERNEL;
        }
        if link.is_reply() {
            flags = flags | MsgFlags::REPLY;
        }
        self.effects.sends.push(Message {
            header: MsgHeader {
                dest: link.addr,
                src: self.pid,
                src_machine: self.machine,
                msg_type,
                flags,
                hops: 0,
            },
            links,
            payload,
            corr: demos_types::CorrId::NONE,
        });
        Ok(())
    }

    /// Arm a timer: the program's `on_timer` runs `delay` from now with
    /// `token`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.effects.timers.push((delay, token));
    }

    /// Start a user-level move-data operation (§2.2). Completion arrives
    /// later as a [`local_tags::MOVE_DATA_DONE`] message.
    pub fn move_data(&mut self, req: MoveDataReq) -> Result<()> {
        let link = self.links.get(req.link)?;
        let need = if req.read {
            LinkAttrs::DATA_READ
        } else {
            LinkAttrs::DATA_WRITE
        };
        if !link.attrs.contains(need) {
            return Err(DemosError::LinkAccess {
                link: req.link,
                need: if req.read { "DATA_READ" } else { "DATA_WRITE" },
            });
        }
        if link.area.is_none() {
            return Err(DemosError::LinkAccess {
                link: req.link,
                need: "data area",
            });
        }
        self.effects.movedata.push(req);
        Ok(())
    }

    /// Charge extra virtual CPU time to this activation (models
    /// computation; the load-balancing experiments rely on it).
    pub fn cpu(&mut self, d: Duration) {
        self.effects.cpu += d;
    }

    /// Terminate this process after the handler returns.
    pub fn exit(&mut self) {
        self.effects.exit = true;
    }

    /// Emit a trace log line.
    pub fn log(&mut self, text: impl Into<String>) {
        self.effects.logs.push(text.into());
    }
}

/// The behaviour of a process.
///
/// Handlers run to completion (one message per scheduling quantum) and
/// must not block; long computations are modelled by charging virtual CPU
/// with [`Ctx::cpu`].
pub trait Program: Send {
    /// Called once when the process first runs (not called again after a
    /// migration — execution state must be inside the program value).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Handle one message from the process's queue.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered);

    /// Handle a timer armed with [`Ctx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// A remote kernel wrote `bytes` at `off` of this process's data
    /// segment through a data-area link (§2.2). Programs that expose a
    /// buffer through such links ingest the write here; the default
    /// ignores it (the bytes still land in the segment, where the next
    /// area read — or a migration image — sees them only if the program
    /// reflects them into its state).
    fn on_data_write(&mut self, _off: u32, _bytes: &[u8]) {}

    /// Serialize the complete program state. Called at migration time to
    /// refresh the data segment (and by checkpointing).
    fn save(&self) -> Vec<u8>;
}

/// Constructor for a registered program: rebuilds the program from
/// serialized state.
pub type Ctor = Box<dyn Fn(&[u8]) -> Box<dyn Program> + Send + Sync>;

/// Maps program names to constructors. Every machine holds (a reference
/// to) the same registry — the analogue of installing the same binaries on
/// every node.
#[derive(Default)]
pub struct Registry {
    ctors: BTreeMap<String, Ctor>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register `name`; later registrations replace earlier ones.
    pub fn register<F>(&mut self, name: &str, ctor: F)
    where
        F: Fn(&[u8]) -> Box<dyn Program> + Send + Sync + 'static,
    {
        self.ctors.insert(name.to_string(), Box::new(ctor));
    }

    /// Instantiate program `name` from `state`.
    pub fn instantiate(&self, name: &str, state: &[u8]) -> Result<Box<dyn Program>> {
        let ctor = self
            .ctors
            .get(name)
            .ok_or_else(|| DemosError::UnknownProgram(name.into()))?;
        Ok(ctor(state))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.ctors.contains_key(name)
    }

    /// Wrap in an [`Arc`] for sharing across kernels.
    pub fn into_shared(self) -> Arc<Registry> {
        Arc::new(self)
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("programs", &self.ctors.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use demos_types::ProcessAddress;

    fn pid(u: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(0),
            local_uid: u,
        }
    }

    fn remote_addr() -> ProcessAddress {
        pid(9).at(MachineId(1))
    }

    fn ctx_parts() -> (LinkTable, Effects, Kept) {
        (LinkTable::new(), Effects::default(), Kept::default())
    }

    #[test]
    fn send_builds_message_with_header() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::to(remote_addr()));
        let mut ctx = Ctx::new(Time(5), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.send(
            via,
            0x1001,
            Bytes::from_static(b"hi"),
            &[Carry::New(LinkAttrs::REPLY)],
        )
        .unwrap();
        let m = &fx.sends[0];
        assert_eq!(m.header.dest, remote_addr());
        assert_eq!(m.header.src, pid(1));
        assert_eq!(m.header.src_machine, MachineId(0));
        assert_eq!(m.links.len(), 1);
        assert!(m.links[0].is_reply());
        assert_eq!(
            m.links[0].target(),
            pid(1),
            "reply link points back at sender"
        );
    }

    #[test]
    fn send_over_dtk_link_sets_flag() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::deliver_to_kernel(remote_addr()));
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.send(via, 1, Bytes::new(), &[]).unwrap();
        assert!(fx.sends[0]
            .header
            .flags
            .contains(MsgFlags::DELIVER_TO_KERNEL));
    }

    #[test]
    fn reply_link_consumed_by_send() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::to(remote_addr()).reply());
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.send(via, 1, Bytes::new(), &[]).unwrap();
        assert!(ctx.send(via, 1, Bytes::new(), &[]).is_err());
        assert_eq!(fx.sends.len(), 1);
    }

    #[test]
    fn carry_move_removes_link() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::to(remote_addr()));
        let carried = lt.insert(Link::to(pid(3).at(MachineId(2))));
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.send(via, 1, Bytes::new(), &[Carry::Move(carried)])
            .unwrap();
        assert!(lt.get(carried).is_err(), "moved link left the table");
        assert_eq!(fx.sends[0].links[0].target(), pid(3));
    }

    #[test]
    fn carry_dup_keeps_link() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::to(remote_addr()));
        let carried = lt.insert(Link::to(pid(3).at(MachineId(2))));
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.send(via, 1, Bytes::new(), &[Carry::Dup(carried)])
            .unwrap();
        assert!(lt.get(carried).is_ok());
    }

    #[test]
    fn failed_send_has_no_side_effects() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::to(remote_addr()).reply());
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        // Carrying a nonexistent link fails before the reply link is consumed.
        let err = ctx.send(via, 1, Bytes::new(), &[Carry::Dup(LinkIdx(99))]);
        assert!(err.is_err());
        assert!(
            lt.get(via).is_ok(),
            "reply link not consumed by failed send"
        );
        assert!(fx.sends.is_empty());
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let via = lt.insert(Link::to(remote_addr()));
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            ctx.send(via, 1, Bytes::from(big), &[]),
            Err(DemosError::TooLarge { .. })
        ));
    }

    #[test]
    fn move_data_requires_rights_and_area() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let no_rights = lt.insert(Link::to(remote_addr()));
        let no_area = lt.insert(Link {
            addr: remote_addr(),
            attrs: LinkAttrs::DATA_READ,
            area: None,
        });
        let ok = lt.insert(Link::to(remote_addr()).with_area(
            DataArea {
                offset: 0,
                len: 128,
            },
            LinkAttrs::DATA_READ,
        ));
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        let req = |link| MoveDataReq {
            link,
            read: true,
            remote_off: 0,
            local_off: 0,
            len: 16,
            token: 1,
        };
        assert!(ctx.move_data(req(no_rights)).is_err());
        assert!(ctx.move_data(req(no_area)).is_err());
        ctx.move_data(req(ok)).unwrap();
        assert_eq!(fx.movedata.len(), 1);
    }

    #[test]
    fn registry_roundtrip() {
        struct Echo(Vec<u8>);
        impl Program for Echo {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {}
            fn save(&self) -> Vec<u8> {
                self.0.clone()
            }
        }
        let mut reg = Registry::new();
        reg.register("echo", |state| Box::new(Echo(state.to_vec())));
        assert!(reg.contains("echo"));
        let p = reg.instantiate("echo", b"abc").unwrap();
        assert_eq!(p.save(), b"abc");
        assert!(reg.instantiate("nope", b"").is_err());
    }

    #[test]
    fn timers_and_exit_buffered() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.set_timer(Duration::from_millis(3), 42);
        ctx.cpu(Duration::from_micros(100));
        ctx.exit();
        assert_eq!(fx.timers, vec![(Duration::from_millis(3), 42)]);
        assert_eq!(fx.cpu, Duration::from_micros(100));
        assert!(fx.exit);
    }

    #[test]
    fn carried_links_read_as_the_slice_they_were_collected_from() {
        for n in [0u32, 1, 2, MAX_CARRIED_LINKS as u32] {
            let vec: Vec<LinkIdx> = (0..n).map(|i| LinkIdx(i * 7 + 1)).collect();
            let links: CarriedLinks = vec.iter().copied().collect();
            assert_eq!(&*links, vec.as_slice());
            assert_eq!(links.len(), vec.len());
            assert_eq!(links.first(), vec.first());
            assert_eq!(format!("{links:?}"), format!("{vec:?}"));
        }
        // Past the limit nothing more is pulled from the source.
        let mut pulled = 0;
        let links: CarriedLinks = (0..MAX_CARRIED_LINKS as u32 + 4)
            .map(|i| {
                pulled += 1;
                LinkIdx(i)
            })
            .collect();
        assert_eq!(links.len(), MAX_CARRIED_LINKS);
        assert_eq!(pulled, MAX_CARRIED_LINKS);
        assert_eq!(links[MAX_CARRIED_LINKS - 1], LinkIdx(15));
    }

    #[test]
    fn link_lists_hand_back_what_they_kept_emptied_and_keep_at_most_the_limit() {
        let mut lists = Kept::default();
        let no_links = lists.take_list(0);
        assert_eq!(no_links.capacity(), 0, "no links, no list");
        let link = Link::to(remote_addr());
        let mut kept = Vec::new();
        for _ in 0..=MAX_CARRIED_LINKS {
            let mut list = lists.take_list(2);
            assert_eq!(list.capacity(), 2, "exactly what was asked for");
            list.extend([link, link]);
            kept.push(list);
        }
        for list in kept {
            lists.give_list(list);
        }
        // One list too many was dropped.
        assert_eq!(lists.lists.len(), MAX_CARRIED_LINKS);
        let again = lists.take_list(1);
        assert!(again.is_empty());
        assert_eq!(again.capacity(), 2, "a kept list, emptied");
        // A kept list too short for the message grows to exactly its size.
        assert_eq!(lists.take_list(3).capacity(), 3);
        lists.give_list(Vec::new());
        assert_eq!(lists.lists.len(), MAX_CARRIED_LINKS - 2, "nothing to keep");
    }

    /// A slab of `len` bytes, each `byte`, that nothing else reads.
    fn slab(len: usize, byte: u8) -> Bytes {
        Bytes::filled(len, |out| out.put_bytes(byte, len))
    }

    #[test]
    fn only_a_whole_slab_that_nothing_else_reads_is_kept() {
        let mut kept = Kept::default();
        // A frame's payload: the tail of a longer slab, here its last view.
        let frame = slab(29, 1);
        let payload = frame.slice(21..);
        drop(frame);
        kept.offer(payload);
        // A sub-slice of a slab, and the head of one.
        let mut whole = slab(16, 2);
        kept.offer(whole.split_to(8));
        kept.offer(whole);
        // Static, adopted and empty storage.
        kept.offer(Bytes::from_static(b"static"));
        kept.offer(Bytes::from(vec![3u8; 8]));
        kept.offer(Bytes::new());
        // A slab someone else still reads.
        let shared = slab(8, 4);
        kept.offer(shared.clone());
        assert!(kept.slabs.is_empty(), "{:?}", kept.slabs);
        assert_eq!(&shared[..], &[4; 8], "the reader's bytes are untouched");

        // The last view of a whole slab is kept, for exactly its length.
        let at = shared.as_ptr();
        kept.offer(shared);
        assert!(kept.take(7).is_none() && kept.take(9).is_none());
        let again = Bytes::refilled(kept.take(8), 8, |out| out.put_u64(5));
        assert_eq!(again.as_ptr(), at, "written into the kept slab");
        assert_eq!(&again[..], &5u64.to_be_bytes()[..]);
        assert!(kept.take(8).is_none(), "taken once");
    }

    #[test]
    fn the_newest_slab_of_the_length_comes_back_and_at_most_the_limit_are_kept() {
        let mut kept = Kept::default();
        let offered: Vec<Bytes> = (0..=MAX_CARRIED_LINKS as u8)
            .map(|i| slab(8 + usize::from(i % 2), i))
            .collect();
        let ptrs: Vec<*const u8> = offered.iter().map(|b| b.as_ptr()).collect();
        for payload in offered {
            kept.offer(payload);
        }
        // The one past the bound pushed the oldest out.
        assert_eq!(kept.slabs.len(), MAX_CARRIED_LINKS);
        assert_eq!(kept.slabs[0].len(), 9, "slab 0 (8 bytes) was freed");
        let newest = |kept: &mut Kept, len| {
            Bytes::refilled(kept.take(len), len, |out| out.put_bytes(0, len)).as_ptr()
        };
        assert_eq!(newest(&mut kept, 8), ptrs[MAX_CARRIED_LINKS]);
        assert_eq!(newest(&mut kept, 9), ptrs[MAX_CARRIED_LINKS - 1]);
        assert_eq!(newest(&mut kept, 8), ptrs[MAX_CARRIED_LINKS - 2]);
    }

    #[test]
    fn a_program_writes_its_payload_into_a_kept_slab() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let body = 0x0102_0304_0506_0708u64;
        let first = slab(body.wire_len(), 9);
        let at = first.as_ptr();
        kept.offer(first);
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        // Encoded into the kept slab, the bytes `to_bytes` writes.
        let encoded = ctx.encode(&body);
        assert_eq!((encoded.as_ptr(), &encoded), (at, &body.to_bytes()));
        // Nothing kept of this length: a new slab, written the same way.
        let written = ctx.payload(3, |out| out.put_slice(b"abc"));
        assert_eq!(&written[..], b"abc");
        let at = written.as_ptr();
        ctx.kept.offer(written);
        // A short write shows no byte of the slab's last life.
        let again = ctx.payload(3, |out| out.put_u8(7));
        assert_eq!((again.as_ptr(), &again[..]), (at, &[7u8][..]));
    }

    #[test]
    fn a_send_carrying_links_uses_a_kept_list() {
        let (mut lt, mut fx, mut kept) = ctx_parts();
        let mut list = Vec::with_capacity(4);
        list.push(Link::to(remote_addr()));
        let at = list.as_ptr();
        kept.give_list(list);
        let via = lt.insert(Link::to(remote_addr()));
        let mut ctx = Ctx::new(Time(0), pid(1), MachineId(0), &mut lt, &mut fx, &mut kept);
        ctx.send(via, 1, Bytes::new(), &[]).unwrap();
        ctx.send(via, 1, Bytes::new(), &[Carry::New(LinkAttrs::REPLY)])
            .unwrap();
        assert_eq!(fx.sends[0].links.capacity(), 0);
        assert_eq!(fx.sends[1].links.as_ptr(), at);
        assert_eq!(fx.sends[1].links.len(), 1);
        assert!(fx.sends[1].links[0].is_reply());
    }
}
