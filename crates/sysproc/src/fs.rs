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

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_kernel::{Carry, Ctx, Delivered, Program};
use demos_types::wire::{self, Wire};
use demos_types::{Duration, LinkAttrs, LinkIdx};

use crate::proto::{sys, FsMsg};

/// File-system block size.
pub const BLOCK: u32 = 512;

fn opt_link(v: u32) -> Option<LinkIdx> {
    (v != 0).then_some(LinkIdx(v))
}

fn reply_err(ctx: &mut Ctx<'_>, reply: Option<&LinkIdx>, code: u8) {
    if let Some(r) = reply {
        let _ = ctx.send(*r, sys::FS, FsMsg::Err { code }.to_bytes(), &[]);
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
                    let _ = ctx.send(*r, sys::FS, FsMsg::DirDone { tok, fid }.to_bytes(), &[]);
                }
            }
            FsMsg::DirLookup { tok, name } => match self.names.get(&name) {
                Some(&fid) => {
                    if let Some(r) = reply {
                        let _ = ctx.send(*r, sys::FS, FsMsg::DirDone { tok, fid }.to_bytes(), &[]);
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
        let mut b = BytesMut::new();
        b.put_u32(self.next_fid);
        b.put_u16(self.names.len() as u16);
        for (name, fid) in &self.names {
            wire::put_string(&mut b, name);
            b.put_u32(*fid);
        }
        b.to_vec()
    }
}

// ----------------------------------------------------------------------
// Disk server
// ----------------------------------------------------------------------

/// Block storage with simulated per-operation latency.
#[derive(Debug, Default)]
pub struct DiskServer {
    next_blk: u32,
    blocks: BTreeMap<u32, Vec<u8>>,
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
                d.blocks.insert(blk, data.to_vec());
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
                self.blocks.insert(blk, vec![0u8; BLOCK as usize]);
                if let Some(r) = reply {
                    let _ = ctx.send(*r, sys::FS, FsMsg::BOk { tok, blk }.to_bytes(), &[]);
                }
            }
            FsMsg::BRead { tok, blk } => {
                let bytes = self
                    .blocks
                    .get(&blk)
                    .map(|v| Bytes::copy_from_slice(v))
                    .unwrap_or_else(|| Bytes::from(vec![0u8; BLOCK as usize]));
                if let Some(r) = reply {
                    let _ = ctx.send(
                        *r,
                        sys::FS,
                        FsMsg::BData { tok, blk, bytes }.to_bytes(),
                        &[],
                    );
                }
            }
            FsMsg::BWrite { tok, blk, bytes } => {
                let mut v = bytes.to_vec();
                v.resize(BLOCK as usize, 0);
                self.blocks.insert(blk, v);
                if let Some(r) = reply {
                    let _ = ctx.send(*r, sys::FS, FsMsg::BOk { tok, blk }.to_bytes(), &[]);
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
        let mut b = BytesMut::new();
        b.put_u32(self.next_blk);
        b.put_u32(self.op_us);
        b.put_u64(self.ops);
        b.put_u32(self.blocks.len() as u32);
        for (blk, data) in &self.blocks {
            b.put_u32(*blk);
            wire::put_bytes(&mut b, data);
        }
        b.to_vec()
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
    lru: Vec<(u32, Vec<u8>)>,
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
                c.lru.push((blk, data.to_vec()));
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

    fn touch(&mut self, blk: u32, data: Vec<u8>) {
        self.lru.retain(|(b, _)| *b != blk);
        self.lru.insert(0, (blk, data));
        while self.lru.len() > self.cap as usize {
            self.lru.pop();
        }
    }

    fn get(&mut self, blk: u32) -> Option<Vec<u8>> {
        let pos = self.lru.iter().position(|(b, _)| *b == blk)?;
        let entry = self.lru.remove(pos);
        let data = entry.1.clone();
        self.lru.insert(0, entry);
        Some(data)
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
                    let _ = ctx.send(
                        reply,
                        sys::FS,
                        FsMsg::BData {
                            tok,
                            blk,
                            bytes: Bytes::from(data),
                        }
                        .to_bytes(),
                        &[],
                    );
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
                let _ = ctx.send(
                    disk,
                    sys::FS,
                    FsMsg::BRead { tok: my, blk }.to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
            }
            FsMsg::BWrite { tok, blk, bytes } => {
                let Some(&reply) = msg.links.first() else {
                    return;
                };
                // Write-through: update cache, then the disk.
                self.touch(blk, {
                    let mut v = bytes.to_vec();
                    v.resize(BLOCK as usize, 0);
                    v
                });
                let Some(disk) = opt_link(self.disk) else {
                    reply_err(ctx, Some(&reply), 4);
                    return;
                };
                let my = self.next_tok;
                self.next_tok = self.next_tok.wrapping_add(1).max(1);
                self.pending.insert(my, (tok, reply.0));
                let _ = ctx.send(
                    disk,
                    sys::FS,
                    FsMsg::BWrite {
                        tok: my,
                        blk,
                        bytes,
                    }
                    .to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
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
                let _ = ctx.send(
                    disk,
                    sys::FS,
                    FsMsg::BAlloc { tok: my }.to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
            }
            FsMsg::BData { tok, blk, bytes } => {
                // Reply from the disk for one of our pass-throughs.
                if let Some((ctok, reply)) = self.pending.remove(&tok) {
                    self.touch(blk, bytes.to_vec());
                    if let Some(r) = opt_link(reply) {
                        let _ = ctx.send(
                            r,
                            sys::FS,
                            FsMsg::BData {
                                tok: ctok,
                                blk,
                                bytes,
                            }
                            .to_bytes(),
                            &[],
                        );
                    }
                }
            }
            FsMsg::BOk { tok, blk } => {
                if let Some((ctok, reply)) = self.pending.remove(&tok) {
                    if let Some(r) = opt_link(reply) {
                        let _ = ctx.send(r, sys::FS, FsMsg::BOk { tok: ctok, blk }.to_bytes(), &[]);
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
        let mut b = BytesMut::new();
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
        b.to_vec()
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
        data: Vec<u8>,
    },
    /// Waiting for a block read to do read-modify-write.
    WriteRmw {
        reply: u32,
        fid: u32,
        off: u32,
        data: Vec<u8>,
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
                            .map(|d| d.to_vec())
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
                            .map(|d| d.to_vec())
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

    #[allow(clippy::wrong_self_convention)]
    fn to_cache(&mut self, ctx: &mut Ctx<'_>, m: FsMsg) -> bool {
        match opt_link(self.cache) {
            Some(cache) => ctx
                .send(
                    cache,
                    sys::FS,
                    m.to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                )
                .is_ok(),
            None => false,
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, reply: u32, m: FsMsg) {
        self.ops += 1;
        if let Some(r) = opt_link(reply) {
            let _ = ctx.send(r, sys::FS, m.to_bytes(), &[]);
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
                let _ = ctx.send(
                    dir,
                    sys::FS,
                    FsMsg::DirCreate { tok, name }.to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
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
                let _ = ctx.send(
                    dir,
                    sys::FS,
                    FsMsg::DirLookup { tok, name }.to_bytes(),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
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
                    self.pending.insert(
                        tok,
                        Pending::WriteAlloc {
                            reply: reply.0,
                            fid,
                            off,
                            data: bytes.to_vec(),
                        },
                    );
                    if !self.to_cache(ctx, FsMsg::BAlloc { tok }) {
                        self.pending.remove(&tok);
                        reply_err(ctx, Some(&reply), 4);
                    }
                    return;
                }
                let blk = meta.blocks[blk_i];
                self.start_block_write(ctx, reply.0, fid, off, bytes.to_vec(), blk);
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
                    let mut block = bytes.to_vec();
                    block.resize(BLOCK as usize, 0);
                    let in_blk = (off % BLOCK) as usize;
                    block[in_blk..in_blk + data.len()].copy_from_slice(&data);
                    let end = off + data.len() as u32;
                    let tok2 = self.tok();
                    self.pending
                        .insert(tok2, Pending::WriteFlush { reply, fid, end });
                    if !self.to_cache(
                        ctx,
                        FsMsg::BWrite {
                            tok: tok2,
                            blk: wblk,
                            bytes: Bytes::from(block),
                        },
                    ) {
                        self.pending.remove(&tok2);
                    }
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
        let mut b = BytesMut::new();
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
        b.to_vec()
    }
}

impl FileServer {
    fn start_block_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        reply: u32,
        fid: u32,
        off: u32,
        data: Vec<u8>,
        blk: u32,
    ) {
        let end = off + data.len() as u32;
        if off.is_multiple_of(BLOCK) && data.len() as u32 == BLOCK {
            // Full-block write: no read needed.
            let tok = self.tok();
            self.pending
                .insert(tok, Pending::WriteFlush { reply, fid, end });
            if !self.to_cache(
                ctx,
                FsMsg::BWrite {
                    tok,
                    blk,
                    bytes: Bytes::from(data),
                },
            ) {
                self.pending.remove(&tok);
                if let Some(r) = opt_link(reply) {
                    let _ = ctx.send(r, sys::FS, FsMsg::Err { code: 4 }.to_bytes(), &[]);
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
                    let _ = ctx.send(r, sys::FS, FsMsg::Err { code: 4 }.to_bytes(), &[]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        d.blocks.insert(1, vec![1u8; 512]);
        d.blocks.insert(2, vec![2u8; 512]);
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
        c.touch(1, vec![1; 512]);
        c.touch(2, vec![2; 512]);
        c.touch(3, vec![3; 512]);
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
                data: vec![9; 32],
                blk: 5,
            },
        );
        assert_eq!(FileServer::restore(&f.save()).save(), f.save());
    }
}
