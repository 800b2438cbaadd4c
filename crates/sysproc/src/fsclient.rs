//! A file-system client workload: the "several user processes …
//! performing I/O" of the paper's hardest migration test (§2.3).
//!
//! Timer-driven, one outstanding operation at a time: first creates its
//! files, then alternates reads and writes (per the configured read
//! ratio) at block-aligned offsets, recording latencies and errors.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_kernel::{Carry, Ctx, Delivered, Program};
use demos_types::wire::Wire;
use demos_types::{Duration, LinkAttrs, LinkIdx};

use crate::fs::BLOCK;
use crate::proto::{sys, FsMsg};

/// INIT tag shared with the sim workload programs.
use crate::wl_init::INIT;

/// The client program.
#[derive(Debug, Default)]
pub struct FsClient {
    /// Link to the file server (0 until INIT).
    server: u32,
    /// Files this client owns.
    nfiles: u16,
    /// Files created so far.
    created: u16,
    /// File ids, in creation order.
    fids: Vec<u32>,
    /// Operations completed (after creation phase).
    pub ops: u64,
    /// Operation budget (0 = unlimited).
    limit: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Errors observed.
    pub errors: u64,
    /// Period between operations, microseconds.
    period_us: u32,
    /// Bytes per operation (≤ block size).
    op_bytes: u16,
    /// Percentage of operations that are reads.
    read_pct: u8,
    /// Virtual time the outstanding op was issued, microseconds.
    sent_at: u64,
    /// Latency sum/max, microseconds.
    pub lat_sum: u64,
    /// Worst latency.
    pub lat_max: u64,
    /// Unique name seed so several clients don't collide.
    seed: u32,
}

impl FsClient {
    /// Program name in the registry.
    pub const NAME: &'static str = "fs_client";

    /// Initial state.
    pub fn state(
        seed: u32,
        nfiles: u16,
        limit: u64,
        period_us: u32,
        op_bytes: u16,
        read_pct: u8,
    ) -> Vec<u8> {
        FsClient {
            nfiles,
            limit,
            period_us,
            op_bytes: op_bytes.min(BLOCK as u16),
            read_pct: read_pct.min(100),
            seed,
            ..Default::default()
        }
        .save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut c = FsClient::default();
        if b.remaining() >= 4 + 2 + 2 {
            c.server = b.get_u32();
            c.nfiles = b.get_u16();
            c.created = b.get_u16();
            c.ops = b.get_u64();
            c.limit = b.get_u64();
            c.reads = b.get_u64();
            c.writes = b.get_u64();
            c.errors = b.get_u64();
            c.period_us = b.get_u32();
            c.op_bytes = b.get_u16();
            c.read_pct = b.get_u8();
            c.sent_at = b.get_u64();
            c.lat_sum = b.get_u64();
            c.lat_max = b.get_u64();
            c.seed = b.get_u32();
            let n = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n {
                if b.remaining() < 4 {
                    break;
                }
                c.fids.push(b.get_u32());
            }
        }
        Box::new(c)
    }

    fn tick(&self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_micros(self.period_us.max(1) as u64), 1);
    }

    fn done(&self) -> bool {
        self.limit != 0 && self.ops >= self.limit
    }

    fn record_latency(&mut self, now_us: u64) {
        let lat = now_us.saturating_sub(self.sent_at);
        self.lat_sum += lat;
        self.lat_max = self.lat_max.max(lat);
    }
}

impl Program for FsClient {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            INIT => {
                if let Some(&server) = msg.links.first() {
                    self.server = server.0;
                    self.tick(ctx);
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
            FsMsg::Done { fid, .. } if (self.created as usize) > self.fids.len() => {
                // Reply to a Create during the setup phase.
                self.fids.push(fid);
                self.tick(ctx);
            }
            FsMsg::Done { .. } => {
                // A write completed.
                self.ops += 1;
                self.writes += 1;
                self.record_latency(ctx.now().as_micros());
                if !self.done() {
                    self.tick(ctx);
                }
            }
            FsMsg::Data { .. } => {
                self.ops += 1;
                self.reads += 1;
                self.record_latency(ctx.now().as_micros());
                if !self.done() {
                    self.tick(ctx);
                }
            }
            FsMsg::Err { .. } => {
                self.errors += 1;
                self.ops += 1;
                if !self.done() {
                    self.tick(ctx);
                }
            }
            // Server-to-server traffic; a client sees only the replies above.
            FsMsg::DirCreate { .. }
            | FsMsg::DirLookup { .. }
            | FsMsg::DirDone { .. }
            | FsMsg::Create { .. }
            | FsMsg::Open { .. }
            | FsMsg::Read { .. }
            | FsMsg::Write { .. }
            | FsMsg::BRead { .. }
            | FsMsg::BWrite { .. }
            | FsMsg::BAlloc { .. }
            | FsMsg::BData { .. }
            | FsMsg::BOk { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(server) = (self.server != 0).then_some(LinkIdx(self.server)) else {
            return;
        };
        if (self.created as usize) < self.nfiles as usize {
            // Setup: create the next file.
            let name = format!("c{}f{}", self.seed, self.created);
            self.created += 1;
            self.sent_at = ctx.now().as_micros();
            let _ = ctx.send(
                server,
                sys::FS,
                FsMsg::Create { name }.to_bytes(),
                &[Carry::New(LinkAttrs::REPLY)],
            );
            return;
        }
        if self.fids.is_empty() || self.done() {
            return;
        }
        // Steady state: alternate reads and writes across files.
        let k = self.ops;
        let fid = self.fids[(k % self.fids.len() as u64) as usize];
        let slots = (BLOCK / self.op_bytes.max(1) as u32).max(1);
        let off = ((k * 31) % slots as u64) as u32 * self.op_bytes as u32;
        self.sent_at = ctx.now().as_micros();
        if (k % 100) < (self.read_pct as u64) {
            let _ = ctx.send(
                server,
                sys::FS,
                FsMsg::Read {
                    fid,
                    off,
                    len: self.op_bytes as u32,
                }
                .to_bytes(),
                &[Carry::New(LinkAttrs::REPLY)],
            );
        } else {
            let pattern = vec![(k % 251) as u8; self.op_bytes as usize];
            let _ = ctx.send(
                server,
                sys::FS,
                FsMsg::Write {
                    fid,
                    off,
                    bytes: Bytes::from(pattern),
                }
                .to_bytes(),
                &[Carry::New(LinkAttrs::REPLY)],
            );
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u32(self.server);
        b.put_u16(self.nfiles);
        b.put_u16(self.created);
        b.put_u64(self.ops);
        b.put_u64(self.limit);
        b.put_u64(self.reads);
        b.put_u64(self.writes);
        b.put_u64(self.errors);
        b.put_u32(self.period_us);
        b.put_u16(self.op_bytes);
        b.put_u8(self.read_pct);
        b.put_u64(self.sent_at);
        b.put_u64(self.lat_sum);
        b.put_u64(self.lat_max);
        b.put_u32(self.seed);
        b.put_u16(self.fids.len() as u16);
        for fid in &self.fids {
            b.put_u32(*fid);
        }
        b.to_vec()
    }
}

/// Parsed client statistics, extracted from a state blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsClientStats {
    /// Operations completed.
    pub ops: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Errors observed.
    pub errors: u64,
    /// Mean operation latency, microseconds.
    pub lat_mean_us: u64,
    /// Worst operation latency, microseconds.
    pub lat_max_us: u64,
}

/// Parse an `FsClient` state blob.
pub fn fs_client_stats(state: &[u8]) -> FsClientStats {
    let mut b = Bytes::copy_from_slice(state);
    // server(4) nfiles(2) created(2)
    if b.remaining() < 8 {
        return FsClientStats {
            ops: 0,
            reads: 0,
            writes: 0,
            errors: 0,
            lat_mean_us: 0,
            lat_max_us: 0,
        };
    }
    b.advance(8);
    let ops = b.get_u64();
    let _limit = b.get_u64();
    let reads = b.get_u64();
    let writes = b.get_u64();
    let errors = b.get_u64();
    b.advance(4 + 2 + 1 + 8);
    let lat_sum = b.get_u64();
    let lat_max = b.get_u64();
    FsClientStats {
        ops,
        reads,
        writes,
        errors,
        lat_mean_us: if ops == 0 { 0 } else { lat_sum / ops.max(1) },
        lat_max_us: lat_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        let c = FsClient {
            server: 1,
            nfiles: 2,
            created: 2,
            fids: vec![4, 9],
            ops: 17,
            reads: 8,
            writes: 9,
            lat_sum: 1000,
            lat_max: 200,
            ..Default::default()
        };
        let back = FsClient::restore(&c.save());
        assert_eq!(back.save(), c.save());
    }

    #[test]
    fn stats_parse() {
        let c = FsClient {
            ops: 10,
            reads: 4,
            writes: 6,
            lat_sum: 1000,
            lat_max: 300,
            ..Default::default()
        };
        let s = fs_client_stats(&c.save());
        assert_eq!(s.ops, 10);
        assert_eq!(s.reads, 4);
        assert_eq!(s.lat_mean_us, 100);
        assert_eq!(s.lat_max_us, 300);
    }
}
