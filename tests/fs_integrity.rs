//! File-system data integrity: a verifying client writes known patterns
//! and reads them back byte-for-byte — through the full four-process
//! pipeline (file server → cache → disk), across cache eviction, and
//! across migrations of the servers mid-stream. And the host cost of it:
//! once warm, the four servers move blocks without allocating.

mod common;

use std::collections::VecDeque;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use common::allocs_in;
use demos_mp::kernel::program::Kept;
use demos_mp::kernel::{Carry, Ctx, Delivered, Effects, LinkTable, Program};
use demos_mp::sim::boot::{boot_system, BootConfig};
use demos_mp::sim::prelude::*;
use demos_mp::sysproc::{sys, wl_init, BufferCache, DirServer, DiskServer, FileServer, FsMsg};
use demos_mp::types::wire::Wire;
use demos_mp::types::{LinkIdx, Message};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn pattern(op: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((op * 37 + i as u64 * 11) % 251) as u8)
        .collect()
}

/// Writes `pattern(k)` to file slot `k % files`, then immediately reads it
/// back and verifies the bytes. One outstanding op; runs forever.
#[derive(Debug, Default)]
struct Verifier {
    server: u32,
    created: u16,
    files: u16,
    fids: Vec<u32>,
    op: u64,
    /// 0 = idle/created, 1 = awaiting write ack, 2 = awaiting read data.
    phase: u8,
    pub verified: u64,
    pub mismatches: u64,
    pub errors: u64,
}

const OP_BYTES: usize = 96;

impl Verifier {
    fn state(files: u16) -> Vec<u8> {
        Verifier {
            files,
            ..Default::default()
        }
        .save()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut v = Verifier::default();
        if b.remaining() >= 4 + 2 + 2 {
            v.server = b.get_u32();
            v.created = b.get_u16();
            v.files = b.get_u16();
            v.op = b.get_u64();
            v.phase = b.get_u8();
            v.verified = b.get_u64();
            v.mismatches = b.get_u64();
            v.errors = b.get_u64();
            let n = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n {
                if b.remaining() < 4 {
                    break;
                }
                v.fids.push(b.get_u32());
            }
        }
        Box::new(v)
    }

    fn off(&self) -> u32 {
        ((self.op % 5) as u32) * OP_BYTES as u32
    }

    fn fid(&self) -> u32 {
        self.fids[(self.op % self.fids.len() as u64) as usize]
    }

    fn next_op(&mut self, ctx: &mut Ctx<'_>) {
        let req = FsMsg::Write {
            fid: self.fid(),
            off: self.off(),
            bytes: Bytes::from(pattern(self.op, OP_BYTES)),
        };
        self.phase = 1;
        let _ = ctx.send(
            LinkIdx(self.server),
            sys::FS,
            req.to_bytes(),
            &[Carry::New(LinkAttrs::REPLY)],
        );
    }
}

impl Program for Verifier {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            x if x == wl::INIT => {
                if let Some(&server) = msg.links.first() {
                    self.server = server.0;
                    ctx.set_timer(Duration::from_millis(1), 1);
                }
                return;
            }
            x if x == sys::FS => {}
            _ => return,
        }
        let Ok(reply) = FsMsg::from_bytes(&msg.payload) else {
            return;
        };
        match (self.phase, reply) {
            (0, FsMsg::Done { fid, .. }) => {
                // A create completed.
                self.fids.push(fid);
                if (self.fids.len() as u16) < self.files {
                    self.created += 1;
                    ctx.set_timer(Duration::from_millis(1), 1);
                } else {
                    self.next_op(ctx);
                }
            }
            (1, FsMsg::Done { .. }) => {
                // Write acked: read it back.
                let req = FsMsg::Read {
                    fid: self.fid(),
                    off: self.off(),
                    len: OP_BYTES as u32,
                };
                self.phase = 2;
                let _ = ctx.send(
                    LinkIdx(self.server),
                    sys::FS,
                    req.to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
            }
            (2, FsMsg::Data { bytes }) => {
                if bytes.as_ref() == pattern(self.op, OP_BYTES).as_slice() {
                    self.verified += 1;
                } else {
                    self.mismatches += 1;
                }
                self.op += 1;
                self.next_op(ctx);
            }
            (_, FsMsg::Err { .. }) => {
                self.errors += 1;
                self.op += 1;
                self.next_op(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if (self.fids.len() as u16) < self.files {
            let name = format!("v{}", self.created);
            let _ = ctx.send(
                LinkIdx(self.server),
                sys::FS,
                FsMsg::Create { name }.to_bytes(),
                &[Carry::New(LinkAttrs::REPLY)],
            );
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u32(self.server);
        b.put_u16(self.created);
        b.put_u16(self.files);
        b.put_u64(self.op);
        b.put_u8(self.phase);
        b.put_u64(self.verified);
        b.put_u64(self.mismatches);
        b.put_u64(self.errors);
        b.put_u16(self.fids.len() as u16);
        for f in &self.fids {
            b.put_u32(*f);
        }
        b.to_vec()
    }
}

fn stats(cluster: &Cluster, pid: ProcessId) -> (u64, u64, u64) {
    let machine = cluster.where_is(pid).unwrap();
    let s = cluster
        .node(machine)
        .kernel
        .process(pid)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    let mut b = Bytes::copy_from_slice(&s);
    b.advance(4 + 2 + 2 + 8 + 1);
    (b.get_u64(), b.get_u64(), b.get_u64())
}

fn build() -> (Cluster, ProcessId) {
    let mut cluster = ClusterBuilder::new(4)
        .register("verifier", Verifier::restore)
        .build();
    let handles = boot_system(
        &mut cluster,
        BootConfig {
            cache_blocks: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let v = cluster
        .spawn(
            m(1),
            "verifier",
            &Verifier::state(3),
            ImageLayout::default(),
        )
        .unwrap();
    let server = cluster.link_to(handles.fs_file).unwrap();
    cluster
        .post(v, wl::INIT, Bytes::new(), vec![server])
        .unwrap();
    (cluster, v)
}

#[test]
fn write_read_roundtrip_verified_bytes() {
    let (mut cluster, v) = build();
    cluster.run_for(Duration::from_secs(2));
    let (verified, mismatches, errors) = stats(&cluster, v);
    assert!(verified > 30, "verified {verified} round-trips");
    assert_eq!(mismatches, 0, "every byte came back intact");
    assert_eq!(errors, 0);
}

#[test]
fn integrity_holds_across_cache_eviction() {
    // cache_blocks = 2 but the verifier touches 3 files × 5 offsets across
    // up to 15 distinct blocks: constant eviction, write-through must keep
    // the disk authoritative.
    let (mut cluster, v) = build();
    cluster.run_for(Duration::from_secs(3));
    let (verified, mismatches, _) = stats(&cluster, v);
    assert!(verified > 50);
    assert_eq!(
        mismatches, 0,
        "write-through + eviction never served stale bytes"
    );
}

#[test]
fn integrity_holds_while_every_fs_process_migrates() {
    let mut cluster = ClusterBuilder::new(4)
        .register("verifier", Verifier::restore)
        .build();
    let handles = boot_system(
        &mut cluster,
        BootConfig {
            cache_blocks: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let v = cluster
        .spawn(
            m(1),
            "verifier",
            &Verifier::state(2),
            ImageLayout::default(),
        )
        .unwrap();
    let server = cluster.link_to(handles.fs_file).unwrap();
    cluster
        .post(v, wl::INIT, Bytes::new(), vec![server])
        .unwrap();
    cluster.run_for(Duration::from_millis(500));

    for (pid, dest) in [
        (handles.fs_file, m(2)),
        (handles.fs_cache, m(3)),
        (handles.fs_disk, m(2)),
        (handles.fs_dir, m(3)),
    ] {
        cluster.migrate(pid, dest).unwrap();
        cluster.run_for(Duration::from_millis(600));
        assert_eq!(cluster.where_is(pid), Some(dest));
    }
    cluster.run_for(Duration::from_secs(1));
    let (verified, mismatches, errors) = stats(&cluster, v);
    assert!(verified > 40, "verified {verified}");
    assert_eq!(mismatches, 0, "no corruption across four server migrations");
    assert_eq!(errors, 0, "no client-visible errors either");
}

// Process uids on the one machine of `FsMachine`: the four servers (their
// index in `servers` is uid − 1), a client, and a sink that never answers.
const FILE: u32 = 1;
const CACHE: u32 = 2;
const DISK: u32 = 3;
const DIR: u32 = 4;
const SINK: u32 = 8;
const CLIENT: u32 = 9;

fn pid(uid: u32) -> ProcessId {
    ProcessId {
        creating_machine: m(0),
        local_uid: uid,
    }
}

/// The four fs servers driven through their handlers the way a kernel
/// drives them: a message a handler sends is delivered in turn (its
/// carried link arrives as a link back to the sender), and its payload and
/// link list go back to the machine's kept set once it has been handled.
/// A message to the client is its reply; one to the sink ends there.
struct FsMachine {
    servers: Vec<Box<dyn Program>>,
    table: LinkTable,
    /// `link[uid]` addresses process `uid`.
    link: Vec<LinkIdx>,
    fx: Effects,
    kept: Kept,
    queue: VecDeque<Message>,
    reply: Option<Bytes>,
}

impl FsMachine {
    fn new(cache_blocks: u16) -> Self {
        let mut table = LinkTable::new();
        let link = (0..=CLIENT)
            .map(|uid| table.insert(Link::to(pid(uid).at(m(0)))))
            .collect();
        let mut fs = FsMachine {
            servers: vec![
                FileServer::restore(&FileServer::state()),
                BufferCache::restore(&BufferCache::state(cache_blocks)),
                DiskServer::restore(&DiskServer::state(0)),
                DirServer::restore(&DirServer::state()),
            ],
            table,
            link,
            fx: Effects::default(),
            kept: Kept::default(),
            queue: VecDeque::with_capacity(16),
            reply: None,
        };
        fs.handle(FILE, CLIENT, wl_init::INIT, Bytes::new(), &[DIR, CACHE]);
        fs.handle(CACHE, CLIENT, wl_init::INIT, Bytes::new(), &[DISK]);
        fs
    }

    /// Run `to`'s handler on one message from `from` carrying links to
    /// `carried`, then give its payload back as the kernel does.
    fn handle(&mut self, to: u32, from: u32, msg_type: u16, payload: Bytes, carried: &[u32]) {
        let links = carried.iter().map(|&uid| self.link[uid as usize]).collect();
        let server = &mut self.servers[to as usize - 1];
        let mut ctx = Ctx::new(
            Time(0),
            pid(to),
            m(0),
            &mut self.table,
            &mut self.fx,
            &mut self.kept,
        );
        let msg = Delivered {
            from: pid(from),
            msg_type,
            payload: payload.clone(),
            links,
            forwarded: false,
        };
        server.on_message(&mut ctx, msg);
        self.kept.offer(payload);
    }

    /// Deliver everything sent until nothing is left.
    fn run(&mut self) {
        loop {
            self.queue.extend(self.fx.sends.drain(..));
            let Some(msg) = self.queue.pop_front() else {
                return;
            };
            let (to, from) = (msg.header.dest.pid.local_uid, msg.header.src.local_uid);
            let carried: &[u32] = if msg.links.is_empty() { &[] } else { &[from] };
            self.kept.give_list(msg.links);
            match to {
                CLIENT => self.reply = Some(msg.payload),
                SINK => {}
                _ => self.handle(to, from, sys::FS, msg.payload, carried),
            }
        }
    }

    /// A client request to the file server, run to its reply, which
    /// `read` sees before the reply's slab goes back to the kept set (a
    /// remote client's reply comes back at its ack).
    fn request<T>(&mut self, payload: Bytes, read: impl FnOnce(FsMsg) -> T) -> T {
        self.handle(FILE, CLIENT, sys::FS, payload, &[CLIENT]);
        self.run();
        let reply = self.reply.take().expect("a reply");
        let seen = read(FsMsg::from_bytes(&reply).unwrap());
        self.kept.offer(reply);
        seen
    }

    /// A request whose downstream message is dropped: it stays pending.
    fn stand(&mut self, to: u32, req: &FsMsg) {
        self.handle(to, SINK, sys::FS, req.to_bytes(), &[SINK]);
        self.fx.sends.clear();
    }
}

#[test]
fn warm_fs_servers_move_blocks_without_allocating() {
    const FILES: u64 = 4;
    const OP: usize = 128;
    // Two cache blocks for four files' blocks: every read of a block
    // written two operations ago misses, and every fill evicts.
    let mut fs = FsMachine::new(2);
    let fids: Vec<u32> = (0..FILES)
        .map(|i| {
            let create = FsMsg::Create {
                name: format!("f{i}"),
            };
            fs.request(create.to_bytes(), |reply| match reply {
                FsMsg::Done { fid, .. } => fid,
                other => panic!("create: {other:?}"),
            })
        })
        .collect();
    // One standing request each keeps the file server's and the cache's
    // pending maps from emptying, so what is counted is the block path,
    // not a map's node coming and going.
    fs.stand(FILE, &FsMsg::Open { name: "f0".into() });
    fs.stand(CACHE, &FsMsg::BRead { tok: 1, blk: 999 });

    // Operation k writes byte k at offset k % 4 of file k % 4's one
    // block (a read-modify-write through the cache and the disk), then
    // reads it back; the first round allocates the blocks.
    let rounds = 48u64;
    let requests: Vec<(Bytes, Bytes)> = (0..rounds)
        .map(|k| {
            let (fid, off) = (fids[(k % FILES) as usize], (k % 4) as u32 * OP as u32);
            let bytes = Bytes::from(vec![k as u8; OP]);
            let write = FsMsg::Write { fid, off, bytes }.to_bytes();
            let read = FsMsg::Read {
                fid,
                off,
                len: OP as u32,
            }
            .to_bytes();
            (write, read)
        })
        .collect();
    let mut each = |k: u64| {
        let (write, read) = &requests[k as usize];
        fs.request(write.clone(), |reply| {
            assert!(matches!(reply, FsMsg::Done { .. }), "write {k}: {reply:?}");
        });
        fs.request(read.clone(), |reply| match reply {
            FsMsg::Data { bytes } => assert_eq!(&bytes[..], &[k as u8; OP][..], "read {k}"),
            other => panic!("read {k}: {other:?}"),
        });
    };
    for k in 0..2 * FILES {
        each(k);
    }
    let ((), allocs, _) = allocs_in(|| (2 * FILES..rounds).for_each(&mut each));
    assert_eq!(allocs, 0, "{} warm write/read pairs", rounds - 2 * FILES);
}
