//! The move-data facility (§2.2, §6).
//!
//! Large transfers — file accesses and the three state moves of process
//! migration — do not travel as single messages. Instead the kernel
//! streams a sequence of data packets: "the packets are sent to the
//! receiving kernel in a continuous stream. The receiving kernel
//! acknowledges each packet (but the sending kernel does not have to wait
//! for the acknowledgement to send the next packet)" (§6).
//!
//! [`MoveData`] is a pure state machine: the kernel feeds it protocol
//! messages and it returns [`MdAction`]s (messages to send, bytes to write
//! into a process, completions to deliver). This keeps it independently
//! testable and free of borrow entanglement with the process table.
//!
//! Operation ids partition into two spaces: *pull* ops (high bit clear)
//! are allocated by a reader issuing `ReadReq`; *push* ops (high bit set)
//! by a writer issuing `WriteReq`. Requests are routed to the target
//! *process* over a `DELIVERTOKERNEL` link — so they follow forwarding
//! addresses to wherever the process lives — while the resulting data and
//! acknowledgement streams run kernel-to-kernel between the two machines
//! that ended up involved. A push therefore starts with a go-ahead
//! handshake ([`GO_SEQ`]): the kernel that accepted the `WriteReq` tells
//! the writer where to stream.

use std::collections::BTreeMap;

use bytes::Bytes;
use demos_types::proto::{AreaSel, MoveDataMsg};
use demos_types::{MachineId, ProcessId};

/// High bit marking push (writer-allocated) operation ids.
pub const PUSH_BIT: u16 = 0x8000;

/// Sentinel sequence number for the go-ahead acknowledgement a serving
/// kernel returns after validating a `WriteReq`.
pub const GO_SEQ: u32 = u32::MAX;

/// Configuration of the streaming engine.
#[derive(Clone, Copy, Debug)]
pub struct MoveDataConfig {
    /// Bytes per data packet. §6: the facility "is designed to minimize
    /// network overhead by sending larger packets".
    pub chunk: usize,
    /// Maximum unacknowledged packets in flight per operation.
    pub window: u32,
    /// Acknowledge every n-th packet (1 = every packet, as the paper
    /// describes; larger values are an ablation knob).
    pub ack_every: u32,
}

impl Default for MoveDataConfig {
    fn default() -> Self {
        MoveDataConfig {
            chunk: 1024,
            window: 16,
            ack_every: 1,
        }
    }
}

/// Why a pull was started; echoed in the completion action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PullPurpose {
    /// Kernel-internal pull (migration state transfer); the cookie lets
    /// the migration engine match completions to protocol stages.
    Kernel {
        /// Caller-chosen cookie.
        cookie: u64,
    },
    /// A local process read a remote data area; on completion the bytes
    /// land in its data segment and it gets a `MOVE_DATA_DONE` message.
    ProcessRead {
        /// The reading process.
        pid: ProcessId,
        /// Destination offset in its data segment.
        local_off: u32,
        /// Token echoed to the program.
        token: u16,
    },
}

impl PullPurpose {
    /// The local process behind this pull, if user-level.
    fn pid(&self) -> Option<ProcessId> {
        match self {
            PullPurpose::Kernel { .. } => None,
            PullPurpose::ProcessRead { pid, .. } => Some(*pid),
        }
    }
}

/// Instructions returned by the engine for the kernel to carry out.
#[derive(Clone, Debug, PartialEq)]
pub enum MdAction {
    /// Send a move-data protocol message to the kernel of `to`.
    Send {
        /// Destination machine (kernel-addressed).
        to: MachineId,
        /// Protocol message.
        msg: MoveDataMsg,
    },
    /// Write bytes into a local process's data segment (validated write
    /// sink).
    WriteProcess {
        /// Target process.
        pid: ProcessId,
        /// Offset in its data segment.
        off: u32,
        /// The bytes.
        bytes: Bytes,
    },
    /// A pull completed (successfully or not).
    PullDone {
        /// Why it was started.
        purpose: PullPurpose,
        /// Operation id.
        op: u16,
        /// Collected bytes (empty on failure).
        data: Vec<u8>,
        /// 0 = success.
        status: u8,
    },
    /// A local process's push (write) completed; deliver `MOVE_DATA_DONE`.
    PushDone {
        /// The writing process.
        pid: ProcessId,
        /// Token echoed to the program.
        token: u16,
        /// 0 = success.
        status: u8,
        /// Bytes written.
        len: u32,
    },
}

/// An outbound stream (we are sending data).
#[derive(Debug)]
struct Outbound {
    /// Where data packets go; `None` for a push awaiting its go-ahead.
    peer: Option<MachineId>,
    data: Bytes,
    next_seq: u32,
    acked: u32,
    /// For pushes: who to notify when the receiver confirms.
    origin: Option<(ProcessId, u16)>,
    fully_sent: bool,
}

impl Outbound {
    fn total_packets(&self, chunk: usize) -> u32 {
        self.data.len().div_ceil(chunk).max(1) as u32
    }
}

/// An inbound stream (we are collecting data).
#[derive(Debug)]
struct Inbound {
    buf: Vec<u8>,
    /// Bytes the reader was told to expect (0 = unknown): what `buf`
    /// reserves when the first packet arrives.
    expect: usize,
    next_seq: u32,
    /// For pulls: purpose to echo on completion.
    purpose: Option<PullPurpose>,
    /// For inbound pushes: validated sink in a local process.
    sink: Option<PushSink>,
    received_packets: u32,
}

impl Inbound {
    /// Append one packet to the reassembly buffer. The first packet
    /// reserves the announced size, once and exactly, so a stream of that
    /// length is written into the buffer the installed image will keep
    /// and never moves. With nothing announced, and past the
    /// announcement, the buffer grows as any `Vec` does.
    fn collect(&mut self, bytes: &[u8]) {
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.expect);
        }
        self.buf.extend_from_slice(bytes);
    }
}

/// A validated write window in a local process.
#[derive(Debug, Clone, Copy)]
struct PushSink {
    pid: ProcessId,
    base_off: u32,
    expect: u32,
    written: u32,
}

/// The per-kernel move-data engine.
#[derive(Debug)]
pub struct MoveData {
    cfg: MoveDataConfig,
    next_pull: u16,
    next_push: u16,
    /// Pull ops we initiated, keyed by op id (we allocated it).
    pulls: BTreeMap<u16, Inbound>,
    /// Push streams arriving from peers, keyed by (writer machine, op).
    inbound_pushes: BTreeMap<(MachineId, u16), Inbound>,
    /// Read streams we are serving, keyed by (reader machine, op) — the
    /// reader allocated the op, so the pair is unique.
    serves: BTreeMap<(MachineId, u16), Outbound>,
    /// Push streams we initiated, keyed by op (we allocated it).
    pushes_out: BTreeMap<u16, Outbound>,
    /// Total payload bytes moved (statistics).
    bytes_moved: u64,
}

impl MoveData {
    /// New engine.
    pub fn new(cfg: MoveDataConfig) -> Self {
        MoveData {
            cfg,
            next_pull: 1,
            next_push: 1,
            pulls: BTreeMap::new(),
            inbound_pushes: BTreeMap::new(),
            serves: BTreeMap::new(),
            pushes_out: BTreeMap::new(),
            bytes_moved: 0,
        }
    }

    /// Total payload bytes this engine has received or served.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of in-flight operations (all roles).
    pub fn active_ops(&self) -> usize {
        self.pulls.len() + self.inbound_pushes.len() + self.serves.len() + self.pushes_out.len()
    }

    /// Whether any active operation involves local process `pid` (as
    /// reader, writer, or write target). Migration defers freezing while
    /// this holds, then aborts stragglers.
    pub fn has_ops_touching(&self, pid: ProcessId) -> bool {
        self.pulls
            .values()
            .any(|ib| ib.purpose.as_ref().and_then(|p| p.pid()) == Some(pid))
            || self
                .inbound_pushes
                .values()
                .any(|ib| ib.sink.is_some_and(|s| s.pid == pid))
            || self
                .pushes_out
                .values()
                .any(|ob| ob.origin.is_some_and(|(p, _)| p == pid))
    }

    /// Begin a pull: returns the op id and the `ReadReq` the kernel should
    /// route (over a `DELIVERTOKERNEL` path for user reads, or directly to
    /// the source kernel for migration pulls).
    pub fn start_pull(
        &mut self,
        purpose: PullPurpose,
        target: ProcessId,
        sel: AreaSel,
        offset: u32,
        len: u32,
    ) -> (u16, MoveDataMsg) {
        self.start_pull_sized(purpose, target, sel, offset, len, 0)
    }

    /// [`MoveData::start_pull`] for a reader that knows how many bytes
    /// will arrive: the reassembly buffer is allocated once, at exactly
    /// `expect` bytes, when the first packet arrives. `expect` only sizes
    /// the buffer — a stream of any other length is still collected and
    /// judged by its own `Done` — and it must be a figure the caller has
    /// already admitted against a limit of its own, never a length taken
    /// unchecked from the wire.
    pub fn start_pull_sized(
        &mut self,
        purpose: PullPurpose,
        target: ProcessId,
        sel: AreaSel,
        offset: u32,
        len: u32,
        expect: usize,
    ) -> (u16, MoveDataMsg) {
        let op = self.next_pull & !PUSH_BIT;
        self.next_pull = self.next_pull.wrapping_add(1) & !PUSH_BIT;
        self.pulls.insert(
            op,
            Inbound {
                buf: Vec::new(),
                expect,
                next_seq: 0,
                purpose: Some(purpose),
                sink: None,
                received_packets: 0,
            },
        );
        (
            op,
            MoveDataMsg::ReadReq {
                op,
                target,
                sel,
                offset,
                len,
            },
        )
    }

    /// Begin a push of `data`: returns the op id and the `WriteReq` the
    /// kernel should route to the target process. Data streams only after
    /// the accepting kernel's go-ahead arrives.
    pub fn start_push(
        &mut self,
        origin: (ProcessId, u16),
        data: Bytes,
        target: ProcessId,
        sel: AreaSel,
        offset: u32,
    ) -> (u16, MoveDataMsg) {
        let op = self.next_push | PUSH_BIT;
        self.next_push = self.next_push.wrapping_add(1);
        let len = data.len() as u32;
        self.pushes_out.insert(
            op,
            Outbound {
                peer: None,
                data,
                next_seq: 0,
                acked: 0,
                origin: Some(origin),
                fully_sent: false,
            },
        );
        (
            op,
            MoveDataMsg::WriteReq {
                op,
                target,
                sel,
                offset,
                len,
            },
        )
    }

    /// Serve a validated `ReadReq`: stream `data` back to `requester`.
    pub fn begin_serve(&mut self, op: u16, requester: MachineId, data: Bytes) -> Vec<MdAction> {
        let mut ob = Outbound {
            peer: Some(requester),
            data,
            next_seq: 0,
            acked: 0,
            origin: None,
            fully_sent: false,
        };
        let mut actions = Vec::new();
        Self::pump(&self.cfg, op, &mut ob, &mut actions);
        // Once every packet is out, the serve needs no further state: the
        // transport is reliable and remaining acks are pure flow control.
        if !ob.fully_sent {
            self.serves.insert((requester, op), ob);
        }
        actions
    }

    /// Accept a validated inbound `WriteReq` from `from`'s kernel targeting
    /// a window of local process `pid`; returns the go-ahead action.
    pub fn accept_push(
        &mut self,
        op: u16,
        from: MachineId,
        pid: ProcessId,
        base_off: u32,
        expect: u32,
    ) -> MdAction {
        self.inbound_pushes.insert(
            (from, op),
            Inbound {
                buf: Vec::new(),
                expect: 0,
                next_seq: 0,
                purpose: None,
                sink: Some(PushSink {
                    pid,
                    base_off,
                    expect,
                    written: 0,
                }),
                received_packets: 0,
            },
        );
        MdAction::Send {
            to: from,
            msg: MoveDataMsg::Ack { op, seq: GO_SEQ },
        }
    }

    /// Reply to a request that failed validation.
    pub fn abort_reply(&self, op: u16, to: MachineId, reason: u8) -> MdAction {
        MdAction::Send {
            to,
            msg: MoveDataMsg::Abort { op, reason },
        }
    }

    /// Abort every active operation touching local process `pid` (it is
    /// being frozen for migration or has died). Peers get `Abort`; local
    /// user operations complete with an error.
    pub fn abort_ops_touching(&mut self, pid: ProcessId) -> Vec<MdAction> {
        let mut actions = Vec::new();
        let dead_pulls: Vec<u16> = self
            .pulls
            .iter()
            .filter(|(_, ib)| ib.purpose.as_ref().and_then(|p| p.pid()) == Some(pid))
            .map(|(&op, _)| op)
            .collect();
        for op in dead_pulls {
            let Some(ib) = self.pulls.remove(&op) else {
                continue;
            };
            let Some(purpose) = ib.purpose else {
                continue;
            };
            actions.push(MdAction::PullDone {
                purpose,
                op,
                data: Vec::new(),
                status: 9,
            });
        }
        let dead_in: Vec<(MachineId, u16)> = self
            .inbound_pushes
            .iter()
            .filter(|(_, ib)| ib.sink.is_some_and(|s| s.pid == pid))
            .map(|(&k, _)| k)
            .collect();
        for (peer, op) in dead_in {
            self.inbound_pushes.remove(&(peer, op));
            actions.push(MdAction::Send {
                to: peer,
                msg: MoveDataMsg::Abort { op, reason: 9 },
            });
        }
        let dead_out: Vec<u16> = self
            .pushes_out
            .iter()
            .filter(|(_, ob)| ob.origin.is_some_and(|(p, _)| p == pid))
            .map(|(&op, _)| op)
            .collect();
        for op in dead_out {
            let Some(ob) = self.pushes_out.remove(&op) else {
                continue;
            };
            if let Some(peer) = ob.peer {
                actions.push(MdAction::Send {
                    to: peer,
                    msg: MoveDataMsg::Abort { op, reason: 9 },
                });
            }
            if let Some((p, token)) = ob.origin {
                actions.push(MdAction::PushDone {
                    pid: p,
                    token,
                    status: 9,
                    len: 0,
                });
            }
        }
        actions
    }

    /// Emit as many data packets as the window allows; appends `Done`
    /// after the final packet (the transport is ordered, so `Done`
    /// arriving implies all packets arrived).
    fn pump(cfg: &MoveDataConfig, op: u16, ob: &mut Outbound, actions: &mut Vec<MdAction>) {
        let Some(peer) = ob.peer else { return };
        let total = ob.total_packets(cfg.chunk);
        while ob.next_seq < total && ob.next_seq - ob.acked < cfg.window {
            let start = ob.next_seq as usize * cfg.chunk;
            let end = (start + cfg.chunk).min(ob.data.len());
            actions.push(MdAction::Send {
                to: peer,
                msg: MoveDataMsg::Data {
                    op,
                    seq: ob.next_seq,
                    bytes: ob.data.slice(start..end),
                },
            });
            ob.next_seq += 1;
        }
        if ob.next_seq == total && !ob.fully_sent {
            ob.fully_sent = true;
            actions.push(MdAction::Send {
                to: peer,
                msg: MoveDataMsg::Done {
                    op,
                    status: 0,
                    total: ob.data.len() as u32,
                },
            });
        }
    }

    /// Handle a protocol message from `from`'s kernel.
    pub fn on_msg(&mut self, from: MachineId, msg: MoveDataMsg) -> Vec<MdAction> {
        let mut actions = Vec::new();
        self.on_msg_into(from, msg, &mut actions);
        actions
    }

    /// [`MoveData::on_msg`] appending to a list the caller owns: the
    /// kernel handles a packet per event and keeps one list for all of
    /// them.
    pub fn on_msg_into(&mut self, from: MachineId, msg: MoveDataMsg, actions: &mut Vec<MdAction>) {
        match msg {
            MoveDataMsg::Data { op, seq, bytes } => {
                self.bytes_moved += bytes.len() as u64;
                let is_pull = op & PUSH_BIT == 0;
                let ib = if is_pull {
                    self.pulls.get_mut(&op)
                } else {
                    self.inbound_pushes.get_mut(&(from, op))
                };
                let Some(ib) = ib else { return };
                // Transport delivers in order; a gap means a protocol bug.
                debug_assert_eq!(seq, ib.next_seq, "move-data stream out of order");
                ib.next_seq = seq + 1;
                ib.received_packets += 1;
                if ib.received_packets % self.cfg.ack_every == 0 {
                    actions.push(MdAction::Send {
                        to: from,
                        msg: MoveDataMsg::Ack { op, seq },
                    });
                }
                if let Some(sink) = &mut ib.sink {
                    let off = sink.base_off + sink.written;
                    sink.written += bytes.len() as u32;
                    actions.push(MdAction::WriteProcess {
                        pid: sink.pid,
                        off,
                        bytes,
                    });
                } else {
                    ib.collect(&bytes);
                }
            }
            MoveDataMsg::Ack { op, seq } => {
                let is_push = op & PUSH_BIT != 0;
                let ob = if is_push {
                    self.pushes_out.get_mut(&op)
                } else {
                    self.serves.get_mut(&(from, op))
                };
                let Some(ob) = ob else { return };
                if seq == GO_SEQ {
                    // Go-ahead: now we know which kernel accepted the push.
                    if ob.peer.is_none() {
                        ob.peer = Some(from);
                    }
                } else {
                    ob.acked = ob.acked.max(seq + 1);
                }
                Self::pump(&self.cfg, op, ob, actions);
                // A fully-emitted serve can be dropped; pushes wait for the
                // receiver's Done confirmation.
                if !is_push && ob.fully_sent {
                    self.serves.remove(&(from, op));
                }
            }
            MoveDataMsg::Done { op, status, total } => {
                let is_pull = op & PUSH_BIT == 0;
                if is_pull {
                    if let Some(ib) = self.pulls.remove(&op) {
                        let ok = status == 0 && ib.buf.len() as u32 == total;
                        if let Some(purpose) = ib.purpose {
                            actions.push(MdAction::PullDone {
                                purpose,
                                op,
                                data: if ok { ib.buf } else { Vec::new() },
                                status: if ok { 0 } else { 1 },
                            });
                        }
                    }
                    // (A Done for a serve we ran does not occur: serves end
                    // with our own Done; the reader sends nothing back.)
                } else if let Some(sink) =
                    self.inbound_pushes.get(&(from, op)).and_then(|ib| ib.sink)
                {
                    // Writer finished streaming; confirm once all bytes are
                    // in (ordered transport ⇒ they are).
                    let ok = status == 0 && sink.written == total && sink.written == sink.expect;
                    actions.push(MdAction::Send {
                        to: from,
                        msg: if ok {
                            MoveDataMsg::Done {
                                op,
                                status: 0,
                                total,
                            }
                        } else {
                            MoveDataMsg::Abort { op, reason: 1 }
                        },
                    });
                    self.inbound_pushes.remove(&(from, op));
                } else if let Some(ob) = self.pushes_out.remove(&op) {
                    // Receiver's confirmation of our push.
                    if let Some((pid, token)) = ob.origin {
                        actions.push(MdAction::PushDone {
                            pid,
                            token,
                            status,
                            len: ob.data.len() as u32,
                        });
                    }
                }
            }
            MoveDataMsg::Abort { op, reason } => {
                let is_pull = op & PUSH_BIT == 0;
                if is_pull {
                    if let Some(purpose) = self.pulls.remove(&op).and_then(|ib| ib.purpose) {
                        actions.push(MdAction::PullDone {
                            purpose,
                            op,
                            data: Vec::new(),
                            status: reason.max(1),
                        });
                    }
                    self.serves.remove(&(from, op));
                } else {
                    self.inbound_pushes.remove(&(from, op));
                    if let Some(ob) = self.pushes_out.remove(&op) {
                        if let Some((pid, token)) = ob.origin {
                            actions.push(MdAction::PushDone {
                                pid,
                                token,
                                status: reason.max(1),
                                len: 0,
                            });
                        }
                    }
                }
            }
            MoveDataMsg::ReadReq { .. } | MoveDataMsg::WriteReq { .. } => {
                // Requests are validated by the kernel (area rights, process
                // lookup) before reaching the engine; reaching here is a bug.
                debug_assert!(false, "requests are handled by the kernel");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u16) -> MachineId {
        MachineId(i)
    }

    fn pid(u: u32) -> ProcessId {
        ProcessId {
            creating_machine: m(0),
            local_uid: u,
        }
    }

    fn cfg(chunk: usize, window: u32) -> MoveDataConfig {
        MoveDataConfig {
            chunk,
            window,
            ack_every: 1,
        }
    }

    /// Drive a complete pull between two engines, returning the collected
    /// data and the number of Data/Ack messages exchanged.
    fn run_pull(data: Vec<u8>, chunk: usize, window: u32) -> (Vec<u8>, usize, usize) {
        let mut reader = MoveData::new(cfg(chunk, window));
        let mut server = MoveData::new(cfg(chunk, window));
        let (op, req) = reader.start_pull(
            PullPurpose::Kernel { cookie: 7 },
            pid(1),
            AreaSel::Image,
            0,
            0,
        );
        let MoveDataMsg::ReadReq { op: rop, .. } = req else {
            panic!("not a read req")
        };
        assert_eq!(rop, op);
        // The server kernel validates the request and serves the bytes.
        let mut to_reader: Vec<MoveDataMsg> = Vec::new();
        let mut to_server: Vec<MoveDataMsg> = Vec::new();
        let mut result = None;
        let mut datas = 0;
        let mut acks = 0;
        for a in server.begin_serve(op, m(0), Bytes::from(data.clone())) {
            match a {
                MdAction::Send { to, msg } => {
                    assert_eq!(to, m(0));
                    to_reader.push(msg);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        while !to_reader.is_empty() || !to_server.is_empty() {
            if !to_reader.is_empty() {
                let msg = to_reader.remove(0);
                if matches!(msg, MoveDataMsg::Data { .. }) {
                    datas += 1;
                }
                for a in reader.on_msg(m(1), msg) {
                    match a {
                        MdAction::Send { to, msg } => {
                            assert_eq!(to, m(1));
                            to_server.push(msg);
                        }
                        MdAction::PullDone { data, status, .. } => result = Some((data, status)),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            if !to_server.is_empty() {
                let msg = to_server.remove(0);
                if matches!(msg, MoveDataMsg::Ack { .. }) {
                    acks += 1;
                }
                for a in server.on_msg(m(0), msg) {
                    match a {
                        MdAction::Send { to, msg } => {
                            assert_eq!(to, m(0));
                            to_reader.push(msg);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        let (got, status) = result.expect("pull completed");
        assert_eq!(status, 0);
        assert_eq!(reader.active_ops(), 0, "reader state cleaned up");
        assert_eq!(server.active_ops(), 0, "server state cleaned up");
        (got, datas, acks)
    }

    #[test]
    fn pull_transfers_exact_bytes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let (got, datas, acks) = run_pull(data.clone(), 1024, 16);
        assert_eq!(got, data);
        assert_eq!(datas, 10, "10000 bytes / 1024-byte chunks = 10 packets");
        assert_eq!(acks, 10, "each packet acknowledged (§6)");
    }

    #[test]
    fn window_smaller_than_stream_still_completes() {
        let data: Vec<u8> = (0..5_000u32).map(|i| (i * 7) as u8).collect();
        let (got, datas, _) = run_pull(data.clone(), 256, 2);
        assert_eq!(got, data);
        assert_eq!(datas, 20);
    }

    #[test]
    fn empty_area_pull() {
        let (got, datas, _) = run_pull(Vec::new(), 1024, 4);
        assert!(got.is_empty());
        assert_eq!(datas, 1, "empty area still sends one (empty) packet");
    }

    #[test]
    fn push_handshake_then_stream() {
        let mut writer = MoveData::new(cfg(512, 8));
        let mut target = MoveData::new(cfg(512, 8));
        let payload: Vec<u8> = (0..1500u32).map(|i| i as u8).collect();
        let (op, req) = writer.start_push(
            (pid(5), 77),
            Bytes::from(payload.clone()),
            pid(9),
            AreaSel::LinkArea,
            64,
        );
        assert!(op & PUSH_BIT != 0);
        let MoveDataMsg::WriteReq { len, .. } = req else {
            panic!("not a write req")
        };
        assert_eq!(len, 1500);
        // Target kernel validates the window, accepts, and sends go-ahead.
        let go = target.accept_push(op, m(0), pid(9), 64, 1500);
        let MdAction::Send { msg: go_msg, .. } = go else {
            panic!()
        };
        // Nothing streams before the go-ahead.
        assert_eq!(writer.active_ops(), 1);
        let mut to_target: Vec<MoveDataMsg> = Vec::new();
        let mut to_writer: Vec<MoveDataMsg> = vec![go_msg];
        let mut writes = Vec::new();
        let mut push_done = None;
        while !to_target.is_empty() || !to_writer.is_empty() {
            if !to_writer.is_empty() {
                let msg = to_writer.remove(0);
                for a in writer.on_msg(m(1), msg) {
                    match a {
                        MdAction::Send { msg, .. } => to_target.push(msg),
                        MdAction::PushDone {
                            pid: p,
                            token,
                            status,
                            len,
                        } => push_done = Some((p, token, status, len)),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            if !to_target.is_empty() {
                let msg = to_target.remove(0);
                for a in target.on_msg(m(0), msg) {
                    match a {
                        MdAction::Send { msg, .. } => to_writer.push(msg),
                        MdAction::WriteProcess { off, bytes, .. } => writes.push((off, bytes)),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        assert_eq!(push_done, Some((pid(5), 77, 0, 1500)));
        let mut all = Vec::new();
        let mut expect_off = 64;
        for (off, bytes) in writes {
            assert_eq!(
                off, expect_off,
                "writes are contiguous from the window base"
            );
            expect_off += bytes.len() as u32;
            all.extend_from_slice(&bytes);
        }
        assert_eq!(all, payload);
        assert_eq!(writer.active_ops(), 0);
        assert_eq!(target.active_ops(), 0);
    }

    #[test]
    fn abort_completes_pull_with_error() {
        let mut reader = MoveData::new(cfg(512, 8));
        let (op, _req) = reader.start_pull(
            PullPurpose::ProcessRead {
                pid: pid(2),
                local_off: 0,
                token: 9,
            },
            pid(1),
            AreaSel::LinkArea,
            0,
            100,
        );
        let acts = reader.on_msg(m(1), MoveDataMsg::Abort { op, reason: 3 });
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            MdAction::PullDone {
                status,
                data,
                purpose,
                ..
            } => {
                assert_eq!(*status, 3);
                assert!(data.is_empty());
                assert!(matches!(purpose, PullPurpose::ProcessRead { token: 9, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reader.active_ops(), 0);
    }

    #[test]
    fn unknown_op_messages_ignored() {
        let mut md = MoveData::new(cfg(512, 8));
        assert!(md
            .on_msg(m(1), MoveDataMsg::Ack { op: 5, seq: 0 })
            .is_empty());
        assert!(md
            .on_msg(
                m(1),
                MoveDataMsg::Data {
                    op: 5,
                    seq: 0,
                    bytes: Bytes::from_static(b"x")
                }
            )
            .is_empty());
        assert!(md
            .on_msg(
                m(1),
                MoveDataMsg::Done {
                    op: 5,
                    status: 0,
                    total: 0
                }
            )
            .is_empty());
    }

    #[test]
    fn ack_every_n_reduces_acks() {
        let mut reader = MoveData::new(MoveDataConfig {
            chunk: 100,
            window: 64,
            ack_every: 4,
        });
        let (op, _req) = reader.start_pull(
            PullPurpose::Kernel { cookie: 1 },
            pid(1),
            AreaSel::Image,
            0,
            0,
        );
        let mut acks = 0;
        for seq in 0..8 {
            for a in reader.on_msg(
                m(1),
                MoveDataMsg::Data {
                    op,
                    seq,
                    bytes: Bytes::from_static(&[0; 100]),
                },
            ) {
                if matches!(
                    a,
                    MdAction::Send {
                        msg: MoveDataMsg::Ack { .. },
                        ..
                    }
                ) {
                    acks += 1;
                }
            }
        }
        assert_eq!(acks, 2, "8 packets, ack every 4");
    }

    #[test]
    fn sized_pull_buffer_never_moves() {
        let mut reader = MoveData::new(cfg(100, 64));
        let (op, _req) = reader.start_pull_sized(
            PullPurpose::Kernel { cookie: 1 },
            pid(1),
            AreaSel::Image,
            0,
            0,
            1000,
        );
        assert_eq!(reader.pulls[&op].buf.capacity(), 0, "nothing held yet");
        let mut placed = None;
        // Ten packets fill the announcement exactly; two more outgrow it.
        for seq in 0..12 {
            reader.on_msg(
                m(1),
                MoveDataMsg::Data {
                    op,
                    seq,
                    bytes: Bytes::from_static(&[7; 100]),
                },
            );
            let buf = &reader.pulls[&op].buf;
            if seq < 10 {
                let at = (buf.as_ptr(), buf.capacity());
                assert_eq!(*placed.get_or_insert(at), at, "packet {seq}");
                assert_eq!(at.1, 1000, "reserved exactly");
            }
            assert_eq!(buf.len(), (seq as usize + 1) * 100);
        }
        let done = reader.on_msg(
            m(1),
            MoveDataMsg::Done {
                op,
                status: 0,
                total: 1200,
            },
        );
        assert!(matches!(
            &done[..],
            [MdAction::PullDone { status: 0, data, .. }] if data.len() == 1200
        ));
    }

    #[test]
    fn abort_ops_touching_cleans_all_roles() {
        let mut md = MoveData::new(cfg(512, 8));
        // A user pull by pid 3.
        md.start_pull(
            PullPurpose::ProcessRead {
                pid: pid(3),
                local_off: 0,
                token: 1,
            },
            pid(9),
            AreaSel::LinkArea,
            0,
            10,
        );
        // An inbound push into pid 3's window.
        md.accept_push(0x8001, m(2), pid(3), 0, 100);
        // An outbound push originated by pid 3 (go-ahead already received).
        let (op, _) = md.start_push(
            (pid(3), 2),
            Bytes::from_static(&[1, 2, 3]),
            pid(9),
            AreaSel::LinkArea,
            0,
        );
        md.on_msg(m(2), MoveDataMsg::Ack { op, seq: GO_SEQ });
        // An unrelated kernel pull survives.
        md.start_pull(
            PullPurpose::Kernel { cookie: 5 },
            pid(8),
            AreaSel::Image,
            0,
            0,
        );
        assert!(md.has_ops_touching(pid(3)));
        let actions = md.abort_ops_touching(pid(3));
        assert!(!md.has_ops_touching(pid(3)));
        assert_eq!(md.active_ops(), 1, "only the unrelated kernel pull remains");
        let aborts = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    MdAction::Send {
                        msg: MoveDataMsg::Abort { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(aborts, 2, "peer aborts for inbound and outbound pushes");
        assert!(actions
            .iter()
            .any(|a| matches!(a, MdAction::PullDone { status: 9, .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, MdAction::PushDone { status: 9, .. })));
    }
}
