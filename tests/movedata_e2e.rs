//! End-to-end user-level move-data: the §2.2 mechanism for large data
//! transfers through data-area links, across machines, with live reads,
//! writes, validation failures, and interaction with migration.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_mp::kernel::{Carry, Ctx, Delivered, MoveDataReq, Program};
use demos_mp::sim::prelude::*;
use demos_mp::types::{DataArea, LinkIdx};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

const GRANT: u16 = tags::USER_BASE + 10;
const GO_READ: u16 = tags::USER_BASE + 11;
const GO_WRITE: u16 = tags::USER_BASE + 12;

/// Holds a 1 KiB buffer as its program state and grants a data-area link
/// over it on request. The buffer lives at offset 4 of the data segment
/// (after the state-length header), so the granted window starts there.
struct BufferHost {
    buf: Vec<u8>,
}

impl BufferHost {
    const LEN: u32 = 1024;
    fn state() -> Vec<u8> {
        (0..Self::LEN).map(|i| (i % 251) as u8).collect()
    }
    fn restore(state: &[u8]) -> Box<dyn Program> {
        Box::new(BufferHost {
            buf: state.to_vec(),
        })
    }
}

impl Program for BufferHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type == GRANT {
            // Reply with a read/write window over the buffer region of the
            // data segment ([4, 4+LEN): past the 4-byte state-length header).
            if let Some(reply) = msg.reply() {
                let _ = ctx.send(
                    reply,
                    GRANT,
                    Bytes::new(),
                    &[Carry::NewArea(
                        LinkAttrs::DATA_READ | LinkAttrs::DATA_WRITE,
                        DataArea {
                            offset: 4,
                            len: BufferHost::LEN,
                        },
                    )],
                );
            }
        }
    }

    fn on_data_write(&mut self, off: u32, bytes: &[u8]) {
        // Window offsets are data-segment offsets; the buffer begins at 4.
        let start = off.saturating_sub(4) as usize;
        if start + bytes.len() <= self.buf.len() {
            self.buf[start..start + bytes.len()].copy_from_slice(bytes);
        }
    }

    fn save(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

/// Drives move-data ops against a granted window and records completions.
#[derive(Default)]
struct Copier {
    area: u32,
    done: Vec<(u16, u8, u32)>, // (token, status, len)
}

impl Copier {
    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let area = if b.remaining() >= 4 { b.get_u32() } else { 0 };
        let mut done = Vec::new();
        while b.remaining() >= 7 {
            done.push((b.get_u16(), b.get_u8(), b.get_u32()));
        }
        Box::new(Copier { area, done })
    }
}

impl Program for Copier {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            GRANT if !msg.links.is_empty() => {
                self.area = msg.links[0].0;
            }
            GO_READ => {
                // Read 600 bytes of the remote buffer into our own data
                // segment at offset 100.
                let _ = ctx.move_data(MoveDataReq {
                    link: LinkIdx(self.area),
                    read: true,
                    remote_off: 0,
                    local_off: 100,
                    len: 600,
                    token: 1,
                });
            }
            GO_WRITE => {
                // Write 64 bytes into the remote buffer at 512, sourced
                // from our own data segment's (zeroed) padding region.
                let _ = ctx.move_data(MoveDataReq {
                    link: LinkIdx(self.area),
                    read: false,
                    remote_off: 512,
                    local_off: 2000,
                    len: 64,
                    token: 2,
                });
            }
            demos_mp::kernel::local_tags::MOVE_DATA_DONE => {
                if let Some((tok, status, len)) = demos_mp::kernel::decode_md_done(&msg.payload) {
                    self.done.push((tok, status, len));
                }
            }
            _ => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u32(self.area);
        for (t, s, l) in &self.done {
            b.put_u16(*t);
            b.put_u8(*s);
            b.put_u32(*l);
        }
        b.to_vec()
    }
}

fn build() -> Cluster {
    ClusterBuilder::new(3)
        .register("buffer_host", BufferHost::restore)
        .register("copier", Copier::restore)
        .build()
}

fn copier_done(cluster: &Cluster, pid: ProcessId) -> Vec<(u16, u8, u32)> {
    let machine = cluster.where_is(pid).unwrap();
    let state = cluster
        .node(machine)
        .kernel
        .process(pid)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    let mut b = Bytes::copy_from_slice(&state[4..]);
    let mut out = Vec::new();
    while b.remaining() >= 7 {
        out.push((b.get_u16(), b.get_u8(), b.get_u32()));
    }
    out
}

fn setup(cluster: &mut Cluster) -> (ProcessId, ProcessId) {
    let host = cluster
        .spawn(
            m(0),
            "buffer_host",
            &BufferHost::state(),
            ImageLayout::default(),
        )
        .unwrap();
    let copier = cluster
        .spawn(m(1), "copier", &[0u8; 4], ImageLayout::default())
        .unwrap();
    // The copier asks for a grant: post a GRANT to the host with the
    // copier as reply target.
    let reply = cluster.link_to(copier).unwrap();
    cluster
        .post(host, GRANT, Bytes::new(), vec![reply])
        .unwrap();
    cluster.run_for(Duration::from_millis(50));
    (host, copier)
}

#[test]
fn remote_read_through_area_link() {
    let mut cluster = build();
    let (host, copier) = setup(&mut cluster);
    cluster.post(copier, GO_READ, Bytes::new(), vec![]).unwrap();
    cluster.run_for(Duration::from_millis(200));

    let done = copier_done(&cluster, copier);
    assert_eq!(done, vec![(1, 0, 600)], "read completed: {done:?}");
    // The bytes landed in the copier's data segment at offset 100 and
    // match the host's live buffer pattern.
    let cm = cluster.where_is(copier).unwrap();
    let data = cluster
        .node(cm)
        .kernel
        .process(copier)
        .unwrap()
        .image
        .read_data(100, 600)
        .unwrap()
        .to_vec();
    let expect: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(data, expect);
    let _ = host;
}

#[test]
fn remote_write_through_area_link_reaches_program() {
    let mut cluster = build();
    let (host, copier) = setup(&mut cluster);
    cluster
        .post(copier, GO_WRITE, Bytes::new(), vec![])
        .unwrap();
    cluster.run_for(Duration::from_millis(200));

    let done = copier_done(&cluster, copier);
    assert_eq!(
        done,
        vec![(2, 0, 64)],
        "write confirmed end-to-end: {done:?}"
    );
    // The host *program* saw the write (on_data_write hook): its saved
    // buffer shows the copier's zero bytes at 512..576.
    let hm = cluster.where_is(host).unwrap();
    let buf = cluster
        .node(hm)
        .kernel
        .process(host)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    assert!(buf[512..576].iter().all(|&b| b == 0), "written region");
    assert_eq!(
        buf[511],
        (511 % 251) as u8,
        "byte before window edge untouched"
    );
    assert_eq!(
        buf[576],
        (576 % 251) as u8,
        "byte after written range untouched"
    );
}

#[test]
fn write_survives_host_migration_afterwards() {
    // A write ingested via on_data_write is part of program state, so it
    // migrates with the process.
    let mut cluster = build();
    let (host, copier) = setup(&mut cluster);
    cluster
        .post(copier, GO_WRITE, Bytes::new(), vec![])
        .unwrap();
    cluster.run_for(Duration::from_millis(200));
    cluster.migrate(host, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(400));
    assert_eq!(cluster.where_is(host), Some(m(2)));
    let buf = cluster
        .node(m(2))
        .kernel
        .process(host)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    assert!(
        buf[512..576].iter().all(|&b| b == 0),
        "remote write survived migration"
    );
}

#[test]
fn read_follows_host_after_migration() {
    // The copier's area link goes stale when the host migrates; the DTK
    // ReadReq chases the forwarding address and the read still works.
    let mut cluster = build();
    let (host, copier) = setup(&mut cluster);
    cluster.migrate(host, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(400));
    cluster.post(copier, GO_READ, Bytes::new(), vec![]).unwrap();
    cluster.run_for(Duration::from_millis(300));
    let done = copier_done(&cluster, copier);
    assert_eq!(
        done,
        vec![(1, 0, 600)],
        "read served from the new home: {done:?}"
    );
    assert!(
        cluster.trace().forwards_for(host) >= 1,
        "request was forwarded"
    );
}

#[test]
fn out_of_window_rejected() {
    // A request outside the granted window fails with an error completion
    // and no data movement.
    let mut cluster = build();
    let (_host, copier) = setup(&mut cluster);
    // Patch the copier's request: remote_off 1000 + len 600 exceeds the
    // 1024-byte window. Easiest path: a custom GO via direct ctx isn't
    // available, so grant-area validation is covered at the unit level;
    // here verify the *local* bounds check instead (local_off beyond the
    // copier's own segment is caught at completion).
    let machine = cluster.where_is(copier).unwrap();
    {
        let node = cluster.node_mut(machine);
        let proc = node.kernel.process_mut(copier).unwrap();
        // Shrink the copier's view by replacing its area link with one
        // whose window is only 8 bytes: a 600-byte read must be refused.
        let idx = LinkIdx(demos_mp::sim::programs::cargo_received(&[0; 8]) as u32 + 1);
        let _ = idx; // (area link is at index 1: the first installed link)
        let link = proc.links.get(LinkIdx(1)).unwrap();
        let mut small = link;
        small.area = Some(DataArea { offset: 4, len: 8 });
        proc.links.remove(LinkIdx(1)).unwrap();
        let new_idx = proc.links.insert(small);
        // Point the program's stored index at the shrunken link.
        let mut state = proc.program.as_ref().unwrap().save();
        state[..4].copy_from_slice(&new_idx.0.to_be_bytes());
        let prog = Copier::restore(&state);
        proc.program = Some(prog);
    }
    cluster.post(copier, GO_READ, Bytes::new(), vec![]).unwrap();
    cluster.run_for(Duration::from_millis(200));
    let done = copier_done(&cluster, copier);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0, 1, "token echoed");
    assert_ne!(done[0].1, 0, "completion reports failure");
}
