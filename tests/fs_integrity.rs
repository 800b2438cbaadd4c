//! File-system data integrity: a verifying client writes known patterns
//! and reads them back byte-for-byte — through the full four-process
//! pipeline (file server → cache → disk), across cache eviction, and
//! across migrations of the servers mid-stream.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_mp::kernel::{Carry, Ctx, Delivered, Program};
use demos_mp::sim::boot::{boot_system, BootConfig};
use demos_mp::sim::prelude::*;
use demos_mp::sysproc::{sys, FsMsg};
use demos_mp::types::wire::Wire;
use demos_mp::types::LinkIdx;

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
