//! The file system: four cooperating server processes (§2.3).
//!
//! "The file system (actually, four processes)" — reproduced here as:
//!
//! * [`DirServer`] — file names → file ids;
//! * [`FileServer`] — client-facing: create/open/read/write, file
//!   metadata (length, block list), orchestrating the block layer;
//! * [`BufferCache`] — an LRU block cache in front of the disk;
//! * [`DiskServer`] — block storage with simulated seek latency. Blocks
//!   live in its program state, so the disk server's image grows with
//!   stored data — which is exactly what makes migrating a file-system
//!   process the paper's hardest test (§2.3: "this is more difficult than
//!   moving a user process").
//!
//! Every in-flight request is tracked in serializable program state keyed
//! by link-table indices, so any of the four processes can be migrated
//! mid-operation: queued messages are forwarded (step 6), the link table
//! travels whole, and the operation completes at the new location.
//!
//! A block is a [`Bytes`] slab of its own. A write refills the slab of the
//! block it replaces (the disk), or of the entry it replaces or evicts (the
//! cache), in place; a read sends a view of it, which the reply's encoding
//! copies. So a block operation in steady state allocates nothing, and no
//! block is ever a view into some message's payload.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, SlabCursor};
use demos_kernel::program::Kept;
use demos_kernel::{Carry, Ctx, Delivered, Program};
use demos_types::wire::{self, Wire};
use demos_types::{Duration, LinkAttrs, LinkIdx};

use crate::proto::{sys, FsMsg};

/// File-system block size.
pub const BLOCK: u32 = 512;

/// What an unwritten block reads as.
static ZERO_BLOCK: [u8; BLOCK as usize] = [0; BLOCK as usize];

/// Bytes `from..to` of `src`, zero past its end: what `Vec::resize` to
/// `to` would leave there.
fn put_range(out: &mut SlabCursor<'_>, src: &[u8], from: usize, to: usize) {
    let have = src.get(from..to.min(src.len())).unwrap_or_default();
    out.put_slice(have);
    out.put_bytes(0, to - from - have.len());
}

/// `data` cut or zero-padded to `len` bytes, written into `old`'s slab if
/// it is `len` bytes and nothing else reads it, else into a new one.
fn refill(old: Bytes, data: &[u8], len: usize) -> Bytes {
    Bytes::refilled(old.into_spare(), len, |out| put_range(out, data, 0, len))
}

/// `base` cut or zero-padded to a block with `data` written over it at
/// `at` (as much of it as fits), into a block-sized slab of `slabs` if one
/// is kept.
fn patched(slabs: &mut Kept, base: &[u8], at: usize, data: &[u8]) -> Bytes {
    let len = BLOCK as usize;
    let at = at.min(len);
    let data = &data[..data.len().min(len - at)];
    Bytes::refilled(slabs.take(len), len, |out| {
        put_range(out, base, 0, at);
        out.put_slice(data);
        put_range(out, base, at + data.len(), len);
    })
}

fn opt_link(v: u32) -> Option<LinkIdx> {
    (v != 0).then_some(LinkIdx(v))
}

fn reply_err(ctx: &mut Ctx<'_>, reply: Option<&LinkIdx>, code: u8) {
    if let Some(r) = reply {
        let payload = ctx.encode(&FsMsg::Err { code });
        let _ = ctx.send(*r, sys::FS, payload, &[]);
    }
}

// ----------------------------------------------------------------------
// Directory server
// ----------------------------------------------------------------------

/// Name → file-id mapping.
#[derive(Debug, Default)]
pub struct DirServer {
    names: BTreeMap<String, u32>,
    next_fid: u32,
}

impl DirServer {
    /// Program name in the registry.
    pub const NAME: &'static str = "fs_dir";

    /// Initial state.
    pub fn state() -> Vec<u8> {
        DirServer {
            names: BTreeMap::new(),
            next_fid: 1,
        }
        .save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut d = DirServer::default();
        if b.remaining() >= 6 {
            d.next_fid = b.get_u32();
            let n = b.get_u16() as usize;
            for _ in 0..n {
                let Ok(name) = wire::get_string(&mut b, "dir.name", 128) else {
                    break;
                };
                if b.remaining() < 4 {
                    break;
                }
                d.names.insert(name, b.get_u32());
            }
        }
        if d.next_fid == 0 {
            d.next_fid = 1;
        }
        Box::new(d)
    }
}

impl Program for DirServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type != sys::FS {
            return;
        }
        let Ok(m) = FsMsg::from_bytes(&msg.payload) else {
            return;
        };
        let reply = msg.links.first();
        match m {
            FsMsg::DirCreate { tok, name } => {
                if self.names.contains_key(&name) {
                    reply_err(ctx, reply, 3);
                    return;
                }
                let fid = self.next_fid;
                self.next_fid += 1;
                self.names.insert(name, fid);
                if let Some(r) = reply {
                    let payload = ctx.encode(&FsMsg::DirDone { tok, fid });
                    let _ = ctx.send(*r, sys::FS, payload, &[]);
                }
            }
            FsMsg::DirLookup { tok, name } => match self.names.get(&name) {
                Some(&fid) => {
                    if let Some(r) = reply {
                        let payload = ctx.encode(&FsMsg::DirDone { tok, fid });
                        let _ = ctx.send(*r, sys::FS, payload, &[]);
                    }
                }
                None => reply_err(ctx, reply, 1),
            },
            // Meant for the file, cache and disk servers.
            FsMsg::DirDone { .. }
            | FsMsg::Create { .. }
            | FsMsg::Open { .. }
            | FsMsg::Read { .. }
            | FsMsg::Write { .. }
            | FsMsg::Data { .. }
            | FsMsg::Done { .. }
            | FsMsg::Err { .. }
            | FsMsg::BRead { .. }
            | FsMsg::BWrite { .. }
            | FsMsg::BAlloc { .. }
            | FsMsg::BData { .. }
            | FsMsg::BOk { .. } => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u32(self.next_fid);
        b.put_u16(self.names.len() as u16);
        for (name, fid) in &self.names {
            wire::put_string(&mut b, name);
            b.put_u32(*fid);
        }
        b
    }
}

// ----------------------------------------------------------------------
// Disk server
// ----------------------------------------------------------------------

/// Block storage with simulated per-operation latency.
#[derive(Debug, Default)]
pub struct DiskServer {
    next_blk: u32,
    blocks: BTreeMap<u32, Bytes>,
    /// Simulated seek+transfer time per operation, microseconds.
    pub op_us: u32,
    /// Operations served.
    pub ops: u64,
}

impl DiskServer {
    /// Program name in the registry.
    pub const NAME: &'static str = "fs_disk";

    /// Initial state with the given per-op latency.
    pub fn state(op_us: u32) -> Vec<u8> {
        DiskServer {
            next_blk: 1,
            op_us,
            ..Default::default()
        }
        .save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut d = DiskServer::default();
        if b.remaining() >= 16 {
            d.next_blk = b.get_u32();
            d.op_us = b.get_u32();
            d.ops = b.get_u64();
            let n = if b.remaining() >= 4 { b.get_u32() } else { 0 };
            for _ in 0..n {
                if b.remaining() < 4 {
                    break;
                }
                let blk = b.get_u32();
                let Ok(data) = wire::get_bytes(&mut b, "disk.block", BLOCK as usize) else {
                    break;
                };
                d.blocks.insert(blk, Bytes::copy_from_slice(&data));
            }
        }
        if d.next_blk == 0 {
            d.next_blk = 1;
        }
        Box::new(d)
    }
}

impl Program for DiskServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type != sys::FS {
            return;
        }
        let Ok(m) = FsMsg::from_bytes(&msg.payload) else {
            return;
        };
        let reply = msg.links.first();
        self.ops += 1;
        ctx.cpu(Duration::from_micros(self.op_us as u64));
        match m {
            FsMsg::BAlloc { tok } => {
                let blk = self.next_blk;
                self.next_blk += 1;
                self.blocks
                    .insert(blk, refill(Bytes::new(), &[], BLOCK as usize));
                if let Some(r) = reply {
                    let payload = ctx.encode(&FsMsg::BOk { tok, blk });
                    let _ = ctx.send(*r, sys::FS, payload, &[]);
                }
            }
            FsMsg::BRead { tok, blk } => {
                let bytes = self
                    .blocks
                    .get(&blk)
                    .cloned()
                    .unwrap_or_else(|| Bytes::from_static(&ZERO_BLOCK));
                if let Some(r) = reply {
                    let payload = ctx.encode(&FsMsg::BData { tok, blk, bytes });
                    let _ = ctx.send(*r, sys::FS, payload, &[]);
                }
            }
            FsMsg::BWrite { tok, blk, bytes } => {
                let block = self.blocks.entry(blk).or_default();
                *block = refill(std::mem::take(block), &bytes, BLOCK as usize);
                if let Some(r) = reply {
                    let payload = ctx.encode(&FsMsg::BOk { tok, blk });
                    let _ = ctx.send(*r, sys::FS, payload, &[]);
                }
            }
            // The disk answers only the block requests.
            FsMsg::DirCreate { .. }
            | FsMsg::DirLookup { .. }
            | FsMsg::DirDone { .. }
            | FsMsg::Create { .. }
            | FsMsg::Open { .. }
            | FsMsg::Read { .. }
            | FsMsg::Write { .. }
            | FsMsg::Data { .. }
            | FsMsg::Done { .. }
            | FsMsg::Err { .. }
            | FsMsg::BData { .. }
            | FsMsg::BOk { .. } => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u32(self.next_blk);
        b.put_u32(self.op_us);
        b.put_u64(self.ops);
        b.put_u32(self.blocks.len() as u32);
        for (blk, data) in &self.blocks {
            b.put_u32(*blk);
            wire::put_bytes(&mut b, data);
        }
        b
    }
}

// ----------------------------------------------------------------------
// Buffer cache
// ----------------------------------------------------------------------

/// Write-through LRU block cache between the file server and the disk.
#[derive(Debug, Default)]
pub struct BufferCache {
    /// Capacity in blocks.
    cap: u16,
    /// LRU list, most recent first.
    lru: Vec<(u32, Bytes)>,
    /// Link to the disk server (0 until INIT).
    disk: u32,
    /// Pending pass-through requests: our token → (client token, client
    /// reply link index).
    pending: BTreeMap<u32, (u32, u32)>,
    next_tok: u32,
    /// Hits and misses.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl BufferCache {
    /// Program name in the registry.
    pub const NAME: &'static str = "fs_cache";

    /// Initial state with capacity `cap` blocks.
    pub fn state(cap: u16) -> Vec<u8> {
        BufferCache {
            cap,
            next_tok: 1,
            ..Default::default()
        }
        .save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut c = BufferCache::default();
        if b.remaining() >= 26 {
            c.cap = b.get_u16();
            c.disk = b.get_u32();
            c.next_tok = b.get_u32();
            c.hits = b.get_u64();
            c.misses = b.get_u64();
            let n_lru = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n_lru {
                if b.remaining() < 4 {
                    break;
                }
                let blk = b.get_u32();
                let Ok(data) = wire::get_bytes(&mut b, "cache.block", BLOCK as usize) else {
                    break;
                };
                c.lru.push((blk, Bytes::copy_from_slice(&data)));
            }
            let n_p = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n_p {
                if b.remaining() < 12 {
                    break;
                }
                let tok = b.get_u32();
                let ctok = b.get_u32();
                let reply = b.get_u32();
                c.pending.insert(tok, (ctok, reply));
            }
        }
        if c.next_tok == 0 {
            c.next_tok = 1;
        }
        Box::new(c)
    }

    /// Make `blk` the most recent entry, holding `data` cut or padded to
    /// `len` bytes, written into the slab of the entry it replaces or, in
    /// a full cache, of the least recent one it evicts.
    fn touch(&mut self, blk: u32, data: &[u8], len: usize) {
        let cap = usize::from(self.cap);
        let old = match self.lru.iter().position(|(b, _)| *b == blk) {
            Some(pos) => self.lru.remove(pos).1,
            None if self.lru.len() >= cap => self.lru.pop().map(|(_, d)| d).unwrap_or_default(),
            None => Bytes::new(),
        };
        self.lru.insert(0, (blk, refill(old, data, len)));
        self.lru.truncate(cap);
    }

    /// `blk`'s cached bytes, made the most recent entry.
    fn get(&mut self, blk: u32) -> Option<Bytes> {
        let pos = self.lru.iter().position(|(b, _)| *b == blk)?;
        self.lru[..=pos].rotate_right(1);
        Some(self.lru[0].1.clone())
    }
}

impl Program for BufferCache {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            crate::wl_init::INIT => {
                if let Some(&disk) = msg.links.first() {
                    self.disk = disk.0;
                }
                return;
            }
            sys::FS => {}
            _ => return,
        }
        let Ok(m) = FsMsg::from_bytes(&msg.payload) else {
            return;
        };
        match m {
            FsMsg::BRead { tok, blk } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                if let Some(data) = self.get(blk) {
                    self.hits += 1;
                    let payload = ctx.encode(&FsMsg::BData {
                        tok,
                        blk,
                        bytes: data,
                    });
                    let _ = ctx.send(reply, sys::FS, payload, &[]);
                    return;
                }
                self.misses += 1;
                let Some(disk) = opt_link(self.disk) else {
                    reply_err(ctx, Some(&reply), 4);
                    return;
                };
                let my = self.next_tok;
                self.next_tok = self.next_tok.wrapping_add(1).max(1);
                self.pending.insert(my, (tok, reply.0));
                let payload = ctx.encode(&FsMsg::BRead { tok: my, blk });
                let _ = ctx.send(disk, sys::FS, payload, &[Carry::New(LinkAttrs::REPLY)]);
            }
            FsMsg::BWrite { tok, blk, bytes } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                // Write-through: update cache, then the disk.
                self.touch(blk, &bytes, BLOCK as usize);
                let Some(disk) = opt_link(self.disk) else {
                    reply_err(ctx, Some(&reply), 4);
                    return;
                };
                let my = self.next_tok;
                self.next_tok = self.next_tok.wrapping_add(1).max(1);
                self.pending.insert(my, (tok, reply.0));
                let payload = ctx.encode(&FsMsg::BWrite {
                    tok: my,
                    blk,
                    bytes,
                });
                let _ = ctx.send(disk, sys::FS, payload, &[Carry::New(LinkAttrs::REPLY)]);
            }
            FsMsg::BAlloc { tok } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                let Some(disk) = opt_link(self.disk) else {
                    reply_err(ctx, Some(&reply), 4);
                    return;
                };
                let my = self.next_tok;
                self.next_tok = self.next_tok.wrapping_add(1).max(1);
                self.pending.insert(my, (tok, reply.0));
                let payload = ctx.encode(&FsMsg::BAlloc { tok: my });
                let _ = ctx.send(disk, sys::FS, payload, &[Carry::New(LinkAttrs::REPLY)]);
            }
            FsMsg::BData { tok, blk, bytes } => {
                // Reply from the disk for one of our pass-throughs.
                if let Some((ctok, reply)) = self.pending.remove(&tok) {
                    self.touch(blk, &bytes, bytes.len());
                    if let Some(r) = opt_link(reply) {
                        let payload = ctx.encode(&FsMsg::BData {
                            tok: ctok,
                            blk,
                            bytes,
                        });
                        let _ = ctx.send(r, sys::FS, payload, &[]);
                    }
                }
            }
            FsMsg::BOk { tok, blk } => {
                if let Some((ctok, reply)) = self.pending.remove(&tok) {
                    if let Some(r) = opt_link(reply) {
                        let payload = ctx.encode(&FsMsg::BOk { tok: ctok, blk });
                        let _ = ctx.send(r, sys::FS, payload, &[]);
                    }
                }
            }
            // The cache sits on the block layer only.
            FsMsg::DirCreate { .. }
            | FsMsg::DirLookup { .. }
            | FsMsg::DirDone { .. }
            | FsMsg::Create { .. }
            | FsMsg::Open { .. }
            | FsMsg::Read { .. }
            | FsMsg::Write { .. }
            | FsMsg::Data { .. }
            | FsMsg::Done { .. }
            | FsMsg::Err { .. } => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u16(self.cap);
        b.put_u32(self.disk);
        b.put_u32(self.next_tok);
        b.put_u64(self.hits);
        b.put_u64(self.misses);
        b.put_u16(self.lru.len() as u16);
        for (blk, data) in &self.lru {
            b.put_u32(*blk);
            wire::put_bytes(&mut b, data);
        }
        b.put_u16(self.pending.len() as u16);
        for (tok, (ctok, reply)) in &self.pending {
            b.put_u32(*tok);
            b.put_u32(*ctok);
            b.put_u32(*reply);
        }
        b
    }
}

// ----------------------------------------------------------------------
// File server
// ----------------------------------------------------------------------

/// Per-file metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FileMeta {
    len: u32,
    blocks: Vec<u32>,
}

/// An in-flight client operation at the file server.
#[derive(Debug, Clone)]
enum Pending {
    /// Waiting for the directory on a create.
    CreateWait { reply: u32 },
    /// Waiting for the directory on an open.
    OpenWait { reply: u32 },
    /// Waiting for a block read to satisfy a client read.
    ReadWait { reply: u32, skip: u32, take: u32 },
    /// Waiting for a block allocation before a write.
    WriteAlloc {
        reply: u32,
        fid: u32,
        off: u32,
        data: Bytes,
    },
    /// Waiting for a block read to do read-modify-write.
    WriteRmw {
        reply: u32,
        fid: u32,
        off: u32,
        data: Bytes,
        blk: u32,
    },
    /// Waiting for the final block write.
    WriteFlush { reply: u32, fid: u32, end: u32 },
}

/// The client-facing file server.
#[derive(Debug, Default)]
pub struct FileServer {
    files: BTreeMap<u32, FileMeta>,
    /// Link to the directory server (0 until INIT).
    dir: u32,
    /// Link to the buffer cache (0 until INIT).
    cache: u32,
    pending: BTreeMap<u32, Pending>,
    next_tok: u32,
    /// Client operations completed.
    pub ops: u64,
    /// Slabs of written data and of blocks this server built and let go
    /// of, refilled by the next of the same length (the kernel's keep
    /// rules and bound). Host-only: not part of the saved state.
    slabs: Kept,
}

impl FileServer {
    /// Program name in the registry.
    pub const NAME: &'static str = "fs_file";

    /// Initial state.
    pub fn state() -> Vec<u8> {
        FileServer {
            next_tok: 1,
            ..Default::default()
        }
        .save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut f = FileServer::default();
        if b.remaining() >= 20 {
            f.dir = b.get_u32();
            f.cache = b.get_u32();
            f.next_tok = b.get_u32();
            f.ops = b.get_u64();
            let n_files = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n_files {
                if b.remaining() < 10 {
                    break;
                }
                let fid = b.get_u32();
                let len = b.get_u32();
                let nb = b.get_u16() as usize;
                let mut blocks = Vec::with_capacity(nb);
                for _ in 0..nb {
                    if b.remaining() < 4 {
                        break;
                    }
                    blocks.push(b.get_u32());
                }
                f.files.insert(fid, FileMeta { len, blocks });
            }
            let n_p = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n_p {
                if b.remaining() < 5 {
                    break;
                }
                let tok = b.get_u32();
                let kind = b.get_u8();
                let p = match kind {
                    1 => Pending::CreateWait { reply: b.get_u32() },
                    2 => Pending::OpenWait { reply: b.get_u32() },
                    3 => Pending::ReadWait {
                        reply: b.get_u32(),
                        skip: b.get_u32(),
                        take: b.get_u32(),
                    },
                    4 => {
                        let reply = b.get_u32();
                        let fid = b.get_u32();
                        let off = b.get_u32();
                        let data = wire::get_bytes(&mut b, "fs.pending", BLOCK as usize)
                            .map(|d| Bytes::copy_from_slice(&d))
                            .unwrap_or_default();
                        Pending::WriteAlloc {
                            reply,
                            fid,
                            off,
                            data,
                        }
                    }
                    5 => {
                        let reply = b.get_u32();
                        let fid = b.get_u32();
                        let off = b.get_u32();
                        let blk = b.get_u32();
                        let data = wire::get_bytes(&mut b, "fs.pending", BLOCK as usize)
                            .map(|d| Bytes::copy_from_slice(&d))
                            .unwrap_or_default();
                        Pending::WriteRmw {
                            reply,
                            fid,
                            off,
                            data,
                            blk,
                        }
                    }
                    _ => Pending::WriteFlush {
                        reply: b.get_u32(),
                        fid: b.get_u32(),
                        end: b.get_u32(),
                    },
                };
                f.pending.insert(tok, p);
            }
        }
        if f.next_tok == 0 {
            f.next_tok = 1;
        }
        Box::new(f)
    }

    fn tok(&mut self) -> u32 {
        let t = self.next_tok;
        self.next_tok = self.next_tok.wrapping_add(1).max(1);
        t
    }

    /// `bytes` copied into a slab of the server's own, so that a write in
    /// progress holds no request's payload.
    fn hold(&mut self, bytes: &[u8]) -> Bytes {
        let len = bytes.len();
        Bytes::refilled(self.slabs.take(len), len, |out| out.put_slice(bytes))
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_cache(&mut self, ctx: &mut Ctx<'_>, m: FsMsg) -> bool {
        match opt_link(self.cache) {
            Some(cache) => {
                let payload = ctx.encode(&m);
                ctx.send(cache, sys::FS, payload, &[Carry::New(LinkAttrs::REPLY)])
                    .is_ok()
            }
            None => false,
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, reply: u32, m: FsMsg) {
        self.ops += 1;
        if let Some(r) = opt_link(reply) {
            let payload = ctx.encode(&m);
            let _ = ctx.send(r, sys::FS, payload, &[]);
        }
    }
}

impl Program for FileServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            crate::wl_init::INIT => {
                // links: [dir, cache]
                if let Some(&dir) = msg.links.first() {
                    self.dir = dir.0;
                }
                if let Some(&cache) = msg.links.get(1) {
                    self.cache = cache.0;
                }
                return;
            }
            sys::FS => {}
            _ => return,
        }
        let Ok(m) = FsMsg::from_bytes(&msg.payload) else {
            return;
        };
        match m {
            // ---------------- client requests ----------------
            FsMsg::Create { name } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                let Some(dir) = opt_link(self.dir) else {
                    reply_err(ctx, Some(&reply), 4);
                    return;
                };
                let tok = self.tok();
                self.pending
                    .insert(tok, Pending::CreateWait { reply: reply.0 });
                let payload = ctx.encode(&FsMsg::DirCreate { tok, name });
                let _ = ctx.send(dir, sys::FS, payload, &[Carry::New(LinkAttrs::REPLY)]);
            }
            FsMsg::Open { name } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                let Some(dir) = opt_link(self.dir) else {
                    reply_err(ctx, Some(&reply), 4);
                    return;
                };
                let tok = self.tok();
                self.pending
                    .insert(tok, Pending::OpenWait { reply: reply.0 });
                let payload = ctx.encode(&FsMsg::DirLookup { tok, name });
                let _ = ctx.send(dir, sys::FS, payload, &[Carry::New(LinkAttrs::REPLY)]);
            }
            FsMsg::Read { fid, off, len } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                let Some(meta) = self.files.get(&fid) else {
                    reply_err(ctx, Some(&reply), 1);
                    return;
                };
                if off >= meta.len || len == 0 {
                    self.finish(
                        ctx,
                        reply.0,
                        FsMsg::Data {
                            bytes: Bytes::new(),
                        },
                    );
                    return;
                }
                let blk_i = (off / BLOCK) as usize;
                let Some(&blk) = meta.blocks.get(blk_i) else {
                    reply_err(ctx, Some(&reply), 2);
                    return;
                };
                let in_blk = off % BLOCK;
                let take = len.min(BLOCK - in_blk).min(meta.len - off);
                let tok = self.tok();
                self.pending.insert(
                    tok,
                    Pending::ReadWait {
                        reply: reply.0,
                        skip: in_blk,
                        take,
                    },
                );
                if !self.to_cache(ctx, FsMsg::BRead { tok, blk }) {
                    self.pending.remove(&tok);
                    reply_err(ctx, Some(&reply), 4);
                }
            }
            FsMsg::Write { fid, off, bytes } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                if bytes.is_empty() || bytes.len() as u32 > BLOCK {
                    reply_err(ctx, Some(&reply), 2);
                    return;
                }
                let end = off + bytes.len() as u32;
                if off / BLOCK != (end - 1) / BLOCK {
                    reply_err(ctx, Some(&reply), 2);
                    return;
                }
                let Some(meta) = self.files.get(&fid) else {
                    reply_err(ctx, Some(&reply), 1);
                    return;
                };
                let blk_i = (off / BLOCK) as usize;
                if blk_i > meta.blocks.len() {
                    reply_err(ctx, Some(&reply), 2);
                    return;
                }
                if blk_i == meta.blocks.len() {
                    // Need a fresh block first.
                    let tok = self.tok();
                    let data = self.hold(&bytes);
                    self.pending.insert(
                        tok,
                        Pending::WriteAlloc {
                            reply: reply.0,
                            fid,
                            off,
                            data,
                        },
                    );
                    if !self.to_cache(ctx, FsMsg::BAlloc { tok }) {
                        self.pending.remove(&tok);
                        reply_err(ctx, Some(&reply), 4);
                    }
                    return;
                }
                let blk = meta.blocks[blk_i];
                let data = self.hold(&bytes);
                self.start_block_write(ctx, reply.0, fid, off, data, blk);
            }
            // ---------------- directory replies ----------------
            FsMsg::DirDone { tok, fid } => {
                let Some(p) = self.pending.remove(&tok) else {
                    return;
                };
                match p {
                    Pending::CreateWait { reply } => {
                        self.files.insert(fid, FileMeta::default());
                        self.finish(ctx, reply, FsMsg::Done { fid, len: 0 });
                    }
                    Pending::OpenWait { reply } => {
                        let len = self.files.entry(fid).or_default().len;
                        self.finish(ctx, reply, FsMsg::Done { fid, len });
                    }
                    other @ (Pending::ReadWait { .. }
                    | Pending::WriteAlloc { .. }
                    | Pending::WriteRmw { .. }
                    | Pending::WriteFlush { .. }) => {
                        self.pending.insert(tok, other);
                    }
                }
            }
            // ---------------- block-layer replies ----------------
            FsMsg::BData { tok, blk, bytes } => match self.pending.remove(&tok) {
                Some(Pending::ReadWait { reply, skip, take }) => {
                    let start = (skip as usize).min(bytes.len());
                    let end = (skip + take) as usize;
                    let end = end.min(bytes.len());
                    self.finish(
                        ctx,
                        reply,
                        FsMsg::Data {
                            bytes: bytes.slice(start..end),
                        },
                    );
                }
                Some(Pending::WriteRmw {
                    reply,
                    fid,
                    off,
                    data,
                    blk: wblk,
                }) => {
                    debug_assert_eq!(blk, wblk);
                    let block = patched(&mut self.slabs, &bytes, (off % BLOCK) as usize, &data);
                    let end = off + data.len() as u32;
                    let tok2 = self.tok();
                    self.pending
                        .insert(tok2, Pending::WriteFlush { reply, fid, end });
                    if !self.to_cache(
                        ctx,
                        FsMsg::BWrite {
                            tok: tok2,
                            blk: wblk,
                            bytes: block.clone(),
                        },
                    ) {
                        self.pending.remove(&tok2);
                    }
                    self.slabs.offer(block);
                    self.slabs.offer(data);
                }
                Some(other) => {
                    self.pending.insert(tok, other);
                }
                None => {}
            },
            FsMsg::BOk { tok, blk } => match self.pending.remove(&tok) {
                Some(Pending::WriteAlloc {
                    reply,
                    fid,
                    off,
                    data,
                }) => {
                    if let Some(meta) = self.files.get_mut(&fid) {
                        meta.blocks.push(blk);
                    }
                    self.start_block_write(ctx, reply, fid, off, data, blk);
                }
                Some(Pending::WriteFlush { reply, fid, end }) => {
                    let meta = self.files.entry(fid).or_default();
                    meta.len = meta.len.max(end);
                    self.finish(ctx, reply, FsMsg::Done { fid, len: end });
                }
                Some(other) => {
                    self.pending.insert(tok, other);
                }
                None => {}
            },
            FsMsg::Err { .. } => {
                // A downstream failure: fail the oldest directory wait (the
                // only requests that can receive a bare Err from below).
                let key = self
                    .pending
                    .iter()
                    .find(|(_, p)| {
                        matches!(p, Pending::CreateWait { .. } | Pending::OpenWait { .. })
                    })
                    .map(|(&k, _)| k);
                if let Some(Pending::CreateWait { reply } | Pending::OpenWait { reply }) =
                    key.and_then(|k| self.pending.remove(&k))
                {
                    self.finish(ctx, reply, FsMsg::Err { code: 1 });
                }
            }
            // Requests to the directory and the block layer, and the replies
            // a file server sends.
            FsMsg::DirCreate { .. }
            | FsMsg::DirLookup { .. }
            | FsMsg::Data { .. }
            | FsMsg::Done { .. }
            | FsMsg::BRead { .. }
            | FsMsg::BWrite { .. }
            | FsMsg::BAlloc { .. } => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u32(self.dir);
        b.put_u32(self.cache);
        b.put_u32(self.next_tok);
        b.put_u64(self.ops);
        b.put_u16(self.files.len() as u16);
        for (fid, meta) in &self.files {
            b.put_u32(*fid);
            b.put_u32(meta.len);
            b.put_u16(meta.blocks.len() as u16);
            for blk in &meta.blocks {
                b.put_u32(*blk);
            }
        }
        b.put_u16(self.pending.len() as u16);
        for (tok, p) in &self.pending {
            b.put_u32(*tok);
            match p {
                Pending::CreateWait { reply } => {
                    b.put_u8(1);
                    b.put_u32(*reply);
                }
                Pending::OpenWait { reply } => {
                    b.put_u8(2);
                    b.put_u32(*reply);
                }
                Pending::ReadWait { reply, skip, take } => {
                    b.put_u8(3);
                    b.put_u32(*reply);
                    b.put_u32(*skip);
                    b.put_u32(*take);
                }
                Pending::WriteAlloc {
                    reply,
                    fid,
                    off,
                    data,
                } => {
                    b.put_u8(4);
                    b.put_u32(*reply);
                    b.put_u32(*fid);
                    b.put_u32(*off);
                    wire::put_bytes(&mut b, data);
                }
                Pending::WriteRmw {
                    reply,
                    fid,
                    off,
                    data,
                    blk,
                } => {
                    b.put_u8(5);
                    b.put_u32(*reply);
                    b.put_u32(*fid);
                    b.put_u32(*off);
                    b.put_u32(*blk);
                    wire::put_bytes(&mut b, data);
                }
                Pending::WriteFlush { reply, fid, end } => {
                    b.put_u8(6);
                    b.put_u32(*reply);
                    b.put_u32(*fid);
                    b.put_u32(*end);
                }
            }
        }
        b
    }
}

impl FileServer {
    fn start_block_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        reply: u32,
        fid: u32,
        off: u32,
        data: Bytes,
        blk: u32,
    ) {
        let end = off + data.len() as u32;
        if off.is_multiple_of(BLOCK) && data.len() as u32 == BLOCK {
            // Full-block write: no read needed.
            let tok = self.tok();
            self.pending
                .insert(tok, Pending::WriteFlush { reply, fid, end });
            let sent = self.to_cache(
                ctx,
                FsMsg::BWrite {
                    tok,
                    blk,
                    bytes: data.clone(),
                },
            );
            self.slabs.offer(data);
            if !sent {
                self.pending.remove(&tok);
                if let Some(r) = opt_link(reply) {
                    let payload = ctx.encode(&FsMsg::Err { code: 4 });
                    let _ = ctx.send(r, sys::FS, payload, &[]);
                }
            }
        } else {
            // Partial write: read-modify-write.
            let tok = self.tok();
            self.pending.insert(
                tok,
                Pending::WriteRmw {
                    reply,
                    fid,
                    off,
                    data,
                    blk,
                },
            );
            if !self.to_cache(ctx, FsMsg::BRead { tok, blk }) {
                self.pending.remove(&tok);
                if let Some(r) = opt_link(reply) {
                    let payload = ctx.encode(&FsMsg::Err { code: 4 });
                    let _ = ctx.send(r, sys::FS, payload, &[]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_kernel::{Effects, LinkTable};
    use demos_types::{MachineId, ProcessId, Time};

    /// Run `p`'s handler on `m`, carrying no links (so no reply is sent).
    fn deliver(p: &mut dyn Program, m: &FsMsg) {
        let pid = ProcessId {
            creating_machine: MachineId(0),
            local_uid: 1,
        };
        let (mut lt, mut fx, mut kept) = (LinkTable::new(), Effects::default(), Kept::default());
        let mut ctx = Ctx::new(Time(0), pid, MachineId(0), &mut lt, &mut fx, &mut kept);
        let msg = Delivered {
            from: pid,
            msg_type: sys::FS,
            payload: m.to_bytes(),
            links: std::iter::empty().collect(),
            forwarded: false,
        };
        p.on_message(&mut ctx, msg);
    }

    #[test]
    fn a_patched_block_is_the_read_block_resized_with_the_write_over_it() {
        let mut slabs = Kept::default();
        for base_len in [0, 100, 512, 600] {
            let base: Vec<u8> = (0..base_len).map(|i| (i % 251) as u8 + 1).collect();
            for (at, n) in [(0, 0), (0, 512), (0, 96), (96, 96), (400, 112), (511, 1)] {
                let data = vec![0xee; n];
                let mut want = base.clone();
                want.resize(BLOCK as usize, 0);
                want[at..at + n].copy_from_slice(&data);
                let got = patched(&mut slabs, &base, at, &data);
                assert_eq!(&got[..], &want[..], "base {base_len}, {n} bytes at {at}");
                // Let go of, it is the next block's slab.
                let slab = got.as_ptr();
                slabs.offer(got);
                assert_eq!(patched(&mut slabs, &[], 0, &[]).as_ptr(), slab);
            }
        }
        // A write past the block's end is cut at it, never a panic.
        let got = patched(&mut slabs, &[1; 512], 500, &[2; 40]);
        assert_eq!((&got[..500], &got[500..]), (&[1; 500][..], &[2; 12][..]));
    }

    #[test]
    fn a_disk_write_refills_its_block_unless_a_reader_still_holds_it() {
        let mut d = DiskServer {
            next_blk: 1,
            ..Default::default()
        };
        deliver(&mut d, &FsMsg::BAlloc { tok: 1 });
        let slab = d.blocks[&1].as_ptr();
        let write = |bytes: &[u8]| FsMsg::BWrite {
            tok: 2,
            blk: 1,
            bytes: Bytes::copy_from_slice(bytes),
        };
        // Short: padded with zeros, in the block's own slab.
        deliver(&mut d, &write(&[7; 100]));
        assert_eq!(d.blocks[&1].as_ptr(), slab);
        assert_eq!(
            (&d.blocks[&1][..100], &d.blocks[&1][100..]),
            (&[7; 100][..], &[0; 412][..])
        );
        // A reader's view keeps its bytes: the write goes to a new slab.
        let reader = d.blocks[&1].clone();
        deliver(&mut d, &write(&[8; 600]));
        assert_ne!(d.blocks[&1].as_ptr(), slab);
        assert_eq!(&d.blocks[&1][..], &[8; 512][..], "long: cut at the block");
        assert_eq!(&reader[..100], &[7; 100][..]);
        // Nobody reads the new one: the next write refills it.
        let slab = d.blocks[&1].as_ptr();
        deliver(&mut d, &write(&[9; 512]));
        assert_eq!(
            (d.blocks[&1].as_ptr(), &d.blocks[&1][..]),
            (slab, &[9; 512][..])
        );
    }

    #[test]
    fn a_cache_entry_refills_the_slab_it_replaces_or_evicts_unless_it_is_read() {
        let mut c = BufferCache {
            cap: 2,
            ..Default::default()
        };
        let ptr = |c: &BufferCache, blk: u32| {
            c.lru
                .iter()
                .find(|(b, _)| *b == blk)
                .map(|(_, d)| d.as_ptr())
        };
        c.touch(1, &[1; 512], 512);
        c.touch(2, &[2; 512], 512);
        let (one, two) = (ptr(&c, 1), ptr(&c, 2));
        // Full: block 1, the least recent, is evicted and lends its slab.
        c.touch(3, &[3; 512], 512);
        assert_eq!((ptr(&c, 1), ptr(&c, 3)), (None, one));
        // Replaced: block 2's new bytes, padded, in its own slab.
        c.touch(2, &[5; 100], 512);
        assert_eq!(ptr(&c, 2), two);
        assert_eq!(c.get(2).unwrap()[100..], [0; 412][..]);
        // A view handed out by a hit keeps block 3's slab from the eviction.
        let hit = c.get(3).unwrap();
        c.touch(4, &[4; 512], 512);
        c.touch(5, &[6; 512], 512);
        assert_eq!(c.lru.iter().map(|(b, _)| *b).collect::<Vec<_>>(), [5, 4]);
        assert_ne!(ptr(&c, 5), one);
        assert_eq!(&hit[..], &[3; 512][..], "the reader's bytes are untouched");
    }

    #[test]
    fn dir_state_roundtrip() {
        let mut d = DirServer {
            names: BTreeMap::new(),
            next_fid: 5,
        };
        d.names.insert("a".into(), 1);
        d.names.insert("b".into(), 2);
        assert_eq!(DirServer::restore(&d.save()).save(), d.save());
    }

    #[test]
    fn disk_state_roundtrip() {
        let mut d = DiskServer {
            next_blk: 3,
            op_us: 2000,
            ops: 7,
            ..Default::default()
        };
        d.blocks.insert(1, Bytes::from_static(&[1u8; 512]));
        d.blocks.insert(2, Bytes::from_static(&[2u8; 512]));
        assert_eq!(DiskServer::restore(&d.save()).save(), d.save());
    }

    #[test]
    fn cache_state_roundtrip_and_lru() {
        let mut c = BufferCache {
            cap: 2,
            next_tok: 4,
            disk: 1,
            ..Default::default()
        };
        c.touch(1, &[1; 512], 512);
        c.touch(2, &[2; 512], 512);
        c.touch(3, &[3; 512], 512);
        assert_eq!(c.lru.len(), 2, "capacity enforced");
        assert!(c.get(1).is_none(), "evicted");
        assert!(c.get(3).is_some());
        c.pending.insert(9, (1, 2));
        assert_eq!(BufferCache::restore(&c.save()).save(), c.save());
    }

    #[test]
    fn file_server_state_roundtrip() {
        let mut f = FileServer {
            dir: 1,
            cache: 2,
            next_tok: 9,
            ops: 3,
            ..Default::default()
        };
        f.files.insert(
            1,
            FileMeta {
                len: 700,
                blocks: vec![4, 5],
            },
        );
        f.pending.insert(
            7,
            Pending::ReadWait {
                reply: 3,
                skip: 10,
                take: 100,
            },
        );
        f.pending.insert(
            8,
            Pending::WriteRmw {
                reply: 4,
                fid: 1,
                off: 600,
                data: Bytes::from_static(&[9; 32]),
                blk: 5,
            },
        );
        assert_eq!(FileServer::restore(&f.save()).save(), f.save());
    }
}
