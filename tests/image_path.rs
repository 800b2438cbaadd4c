//! The life of a migrated image: one flat buffer from `ProcessImage`
//! through the move-data serve, reassembly and install.
//!
//! Pins what the single-buffer design promises: the flat form round
//! trips and its rejections are unchanged; adopting a buffer never
//! copies it; a view handed out earlier (a serve, a checkpoint) is
//! isolated from later writes by copy-on-write; a sized pull allocates
//! its reassembly buffer exactly once; and a migration aborted
//! mid-transfer leaves a source that runs on and migrates again with
//! its newest state.

use std::sync::Arc;

use bytes::Bytes;
use demos_mp::kernel::movedata::{MdAction, MoveData, MoveDataConfig, PullPurpose};
use demos_mp::kernel::{Checkpoint, Process, ProcessImage, TimerEntry};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{cargo_received, Cargo};
use demos_mp::types::proto::{AreaSel, MoveDataMsg};
use demos_mp::types::wire::{Wire, WireError};
use demos_mp::types::DemosError;
use proptest::prelude::*;

mod common;
use common::allocs_in;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

// ----------------------------------------------------------------------
// (a) the flat form
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn flat_form_round_trips(
        name in proptest::collection::vec(0x61u8..0x7b, 0..40),
        state in proptest::collection::vec(any::<u8>(), 0..600),
        code in 0u32..300, data in 0u32..300, stack in 0u32..300,
    ) {
        // Layouts smaller than the name or the state are part of the
        // range: segments grow, never truncate. `stack` reaches zero.
        let name = String::from_utf8(name).expect("ascii");
        let layout = ImageLayout { code, data, stack };
        let img = ProcessImage::build(&name, &state, layout);
        prop_assert_eq!(img.program_name().unwrap(), name);
        prop_assert_eq!(&img.load_state().unwrap()[..], &state[..]);
        prop_assert!(img.total_len() >= layout.total() as usize);
        prop_assert_eq!(img.code().len() + img.data().len() + img.stack().len(), img.total_len());
        prop_assert_eq!(img.stack().len(), stack as usize);

        let flat = img.to_flat();
        prop_assert_eq!(img.flat_len(), flat.len());
        prop_assert_eq!(img.flat_len(), 12 + img.total_len());
        prop_assert_eq!(&img.shared_flat()[..], &flat[..]);
        prop_assert_eq!(&ProcessImage::from_flat(&flat).unwrap(), &img);
        prop_assert_eq!(&ProcessImage::from_flat_vec(flat).unwrap(), &img);
    }

    #[test]
    fn restoring_state_matches_a_fresh_build(
        first in proptest::collection::vec(any::<u8>(), 0..300),
        second in proptest::collection::vec(any::<u8>(), 0..300),
        data in 0u32..200, stack in 0u32..64,
    ) {
        // Whether the new state fits, outgrows the segment or shrinks back
        // into the declared size, the image is the one `build` would make.
        let layout = ImageLayout { code: 32, data, stack };
        let mut img = ProcessImage::build("p", &first, layout);
        img.store_state(&second, data as usize);
        prop_assert_eq!(&img, &ProcessImage::build("p", &second, layout));
        prop_assert_eq!(&ProcessImage::from_flat(&img.to_flat()).unwrap(), &img);
    }
}

#[test]
fn a_state_larger_than_its_segment_and_an_empty_stack() {
    let layout = ImageLayout {
        code: 64,
        data: 8,
        stack: 0,
    };
    let img = ProcessImage::build("p", &[7u8; 100], layout);
    assert_eq!(img.data().len(), 104, "the segment grew to hold the state");
    assert!(img.stack().is_empty());
    assert_eq!(&img.load_state().unwrap()[..], &[7u8; 100][..]);
    assert_eq!(ProcessImage::from_flat(&img.to_flat()).unwrap(), img);
}

#[test]
fn rejections_are_unchanged() {
    assert_eq!(
        ProcessImage::from_flat(&[0u8; 11]),
        Err(WireError::Truncated("image header"))
    );
    let img = ProcessImage::build(
        "prog",
        b"abc",
        ImageLayout {
            code: 64,
            data: 16,
            stack: 4,
        },
    );
    let mut short = img.to_flat();
    short.pop();
    let mut long = img.to_flat();
    long.push(0);
    for bad in [short, long] {
        assert_eq!(
            ProcessImage::from_flat_vec(bad),
            Err(WireError::BadLength {
                what: "image segments",
                len: 84
            })
        );
    }
    // A segment header larger than the whole blob must not wrap around.
    let mut huge = img.to_flat();
    huge[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(ProcessImage::from_flat_vec(huge).is_err());

    // A name or a state longer than the kernel accepts is refused when it
    // is read, not when the image is adopted.
    let mut flat = img.to_flat();
    flat[12..14].copy_from_slice(&257u16.to_be_bytes());
    assert_eq!(
        ProcessImage::from_flat(&flat).unwrap().program_name(),
        Err(WireError::BadLength {
            what: "program name",
            len: 257
        })
    );
    let mut flat = img.to_flat();
    flat[12 + 64..12 + 68].copy_from_slice(&((16u32 << 20) + 1).to_be_bytes());
    assert_eq!(
        ProcessImage::from_flat(&flat).unwrap().load_state(),
        Err(WireError::BadLength {
            what: "program state",
            len: (16 << 20) + 1
        })
    );
}

// ----------------------------------------------------------------------
// (b) adoption does not copy
// ----------------------------------------------------------------------

#[test]
fn adoption_keeps_the_buffer_it_is_given() {
    let layout = ImageLayout {
        code: 200 * 1024,
        data: 4096,
        stack: 1024,
    };
    let flat = ProcessImage::build("cargo", b"state", layout).to_flat();
    let ptr = flat.as_ptr();

    // The reassembled `Vec` becomes the image: only the `Arc` header is
    // allocated, and the segments are slices of the same memory.
    let (img, all, big) = allocs_in(|| ProcessImage::from_flat_vec(flat).unwrap());
    assert_eq!((all, big), (1, 0), "one small allocation, no copy");
    assert_eq!(img.code().as_ptr(), ptr.wrapping_add(12));

    // Serving it shares that memory again and allocates nothing.
    let (served, all, _) = allocs_in(|| img.shared_flat());
    assert_eq!(all, 0);
    assert_eq!(served.as_ptr(), ptr);

    // The shim's half of the rule: an adopted `Arc` is the storage.
    let arc = Arc::new(vec![9u8; 100_000]);
    let (view, all, _) = allocs_in(|| Bytes::from(Arc::clone(&arc)));
    assert_eq!(all, 0);
    assert_eq!(view.as_ptr(), arc.as_ptr());
    assert_eq!(Arc::strong_count(&arc), 2);

    // The borrowing forms are one copy each, no more.
    let (_, _, big) = allocs_in(|| img.to_flat());
    assert_eq!(big, 1);
    let (_, _, big) = allocs_in(|| ProcessImage::from_flat(&served).unwrap());
    assert_eq!(big, 1);
}

// ----------------------------------------------------------------------
// (c) copy-on-write isolation
// ----------------------------------------------------------------------

#[test]
fn earlier_views_keep_their_bytes_when_the_image_is_written() {
    let layout = ImageLayout {
        code: 64 * 1024,
        data: 4096,
        stack: 512,
    };
    let mut img = ProcessImage::build("cargo", b"before", layout);
    let before = img.to_flat();

    // Unshared: written in place, the buffer does not move.
    let ptr = img.code().as_ptr();
    let (_, _, big) = allocs_in(|| img.store_state(b"still before", 4096));
    assert_eq!(big, 0);
    assert_eq!(img.code().as_ptr(), ptr);
    img.store_state(b"before", 4096);
    assert_eq!(img.to_flat(), before);

    // Shared with a serve and a clone: the first write copies, once.
    let served = img.shared_flat();
    let twin = img.clone();
    let (_, _, big) = allocs_in(|| img.store_state(b"after", 4096));
    assert_eq!(big, 1, "copy-on-write");
    assert!(img.write_data(100, b"poked"));
    assert!(!img.write_data(4094, b"xyz"), "out of the segment");
    assert_eq!(&img.load_state().unwrap()[..], b"after");
    assert_eq!(img.read_data(100, 5).unwrap(), b"poked");
    assert_eq!(&served[..], &before[..], "the serve reads the old bytes");
    assert_eq!(&twin.load_state().unwrap()[..], b"before");
    assert_eq!(twin.read_data(100, 5).unwrap(), &[0u8; 5]);

    // A refused write must not have copied anything either.
    let served = img.shared_flat();
    let (_, all, _) = allocs_in(|| assert!(!img.write_data(u32::MAX, b"x")));
    assert_eq!(all, 0);
    drop(served);
}

#[test]
fn a_checkpoint_is_a_stable_snapshot_of_a_running_process() {
    let mut cluster = Cluster::mesh(1);
    let layout = ImageLayout {
        code: 128 * 1024,
        data: 4096,
        stack: 1024,
    };
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(64), layout)
        .unwrap();
    cluster.run_for(Duration::from_millis(5));

    let now = cluster.now();
    let (ck, _, big) = allocs_in(|| cluster.node_mut(m(0)).kernel.checkpoint(now, pid).unwrap());
    assert_eq!(big, 0, "the checkpoint shares the image, it does not copy");
    let taken = ck.image.to_vec();
    let live = |c: &Cluster| c.node(m(0)).kernel.process(pid).unwrap().image.to_flat();
    assert_eq!(live(&cluster), taken);

    // The process runs on and its state changes …
    for _ in 0..3 {
        cluster.post(pid, 2000, Bytes::new(), vec![]).unwrap();
    }
    cluster.run_for(Duration::from_millis(5));
    let later = cluster.node_mut(m(0)).kernel.checkpoint(now, pid).unwrap();
    // … and so does its memory, written directly.
    let proc = cluster.node_mut(m(0)).kernel.process_mut(pid).unwrap();
    assert!(proc.image.write_data(2000, b"scribble"));

    assert_eq!(&ck.image[..], &taken[..], "first snapshot untouched");
    let state_of = |flat: &[u8]| ProcessImage::from_flat(flat).unwrap().load_state().unwrap();
    assert_eq!(cargo_received(&state_of(&ck.image)), 0);
    assert_eq!(cargo_received(&state_of(&later.image)), 3);
    assert_eq!(
        ProcessImage::from_flat(&later.image)
            .unwrap()
            .read_data(2000, 8)
            .unwrap(),
        &[0u8; 8],
        "second snapshot predates the scribble"
    );
    assert_eq!(&live(&cluster)[12 + 128 * 1024 + 2000..][..8], b"scribble");
    // Still a wire value: the image rides in the encoding unchanged.
    let back = Checkpoint::from_bytes(&later.to_bytes()).unwrap();
    assert_eq!(back, later);
}

// ----------------------------------------------------------------------
// (d) a sized pull allocates its reassembly buffer once
// ----------------------------------------------------------------------

/// Stream `data` from a serving engine into a pull started with
/// `expect`; returns the completion and the big allocations the reader
/// made while collecting.
fn pull(data: &[u8], expect: usize) -> (Vec<u8>, u8, usize) {
    let cfg = MoveDataConfig::default();
    let (mut reader, mut server) = (MoveData::new(cfg), MoveData::new(cfg));
    let target = ProcessId {
        creating_machine: m(1),
        local_uid: 1,
    };
    let (op, _req) = reader.start_pull_sized(
        PullPurpose::Kernel { cookie: 7 },
        target,
        AreaSel::Image,
        0,
        0,
        expect,
    );
    let mut to_reader = server.begin_serve(op, m(0), Bytes::from(data.to_vec()));
    let mut done = None;
    let mut big = 0;
    while !to_reader.is_empty() {
        let mut to_server = Vec::new();
        for action in to_reader.drain(..) {
            let MdAction::Send { msg, .. } = action else {
                panic!("server only sends");
            };
            let (actions, _, b) = allocs_in(|| reader.on_msg(m(1), msg));
            big += b;
            for a in actions {
                match a {
                    MdAction::Send { msg, .. } => to_server.push(msg),
                    MdAction::PullDone { data, status, .. } => done = Some((data, status)),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        for msg in to_server {
            to_reader.extend(server.on_msg(m(0), msg));
        }
    }
    let (got, status) = done.expect("pull completed");
    assert_eq!(reader.active_ops() + server.active_ops(), 0);
    (got, status, big)
}

#[test]
fn a_sized_pull_reserves_its_buffer_once() {
    let data: Vec<u8> = (0..300_007u32).map(|i| (i % 251) as u8).collect();

    // Announced exactly: one allocation of exactly that size, and it is
    // the buffer the completion hands over.
    let (got, status, big) = pull(&data, data.len());
    assert_eq!(
        (status, got.len(), got.capacity()),
        (0, data.len(), data.len())
    );
    assert_eq!(got, data);
    assert_eq!(big, 1, "reserved once, never regrown");

    // Unannounced: plain `Vec` growth, as before.
    let (got, status, big) = pull(&data, 0);
    assert_eq!((status, &got), (0, &data));
    assert!(big > 1);

    // Longer than announced: still collected whole, judged by `Done`.
    let (got, status, _) = pull(&data, 100_000);
    assert_eq!((status, &got), (0, &data));

    // Shorter than announced: `expect` is only a size hint …
    let (got, status, big) = pull(&data[..50_000], data.len());
    assert_eq!((status, &got[..]), (0, &data[..50_000]));
    assert_eq!(big, 1);
}

#[test]
fn a_short_stream_is_failed_by_done() {
    // … and a stream that ends short of what its own `Done` claims is
    // failed by that `Done`, whatever was announced.
    let mut reader = MoveData::new(MoveDataConfig::default());
    let target = ProcessId {
        creating_machine: m(1),
        local_uid: 1,
    };
    let (op, _) = reader.start_pull_sized(
        PullPurpose::Kernel { cookie: 1 },
        target,
        AreaSel::Image,
        0,
        0,
        4096,
    );
    reader.on_msg(
        m(1),
        MoveDataMsg::Data {
            op,
            seq: 0,
            bytes: Bytes::from(vec![1u8; 1024]),
        },
    );
    let actions = reader.on_msg(
        m(1),
        MoveDataMsg::Done {
            op,
            status: 0,
            total: 4096,
        },
    );
    assert!(matches!(
        &actions[..],
        [MdAction::PullDone { status: 1, data, .. }] if data.is_empty()
    ));
}

// ----------------------------------------------------------------------
// (e) abort mid-transfer, run on, migrate again
// ----------------------------------------------------------------------

#[test]
fn an_aborted_transfer_leaves_a_source_that_runs_on_and_migrates_again() {
    let mut cluster = ClusterBuilder::new(2)
        .migration_config(MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_millis(150),
            ..MigrationConfig::default()
        })
        .build();
    let layout = ImageLayout {
        code: 512 * 1024,
        data: 4096,
        stack: 1024,
    };
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(64), layout)
        .unwrap();
    cluster.run_for(Duration::from_millis(10));
    let mem = |c: &Cluster, i: u16| c.node(m(i)).kernel.mem_used();
    let (start0, start1) = (mem(&cluster, 0), mem(&cluster, 1));
    let image_len = cluster
        .node(m(0))
        .kernel
        .process(pid)
        .unwrap()
        .image
        .total_len() as u64;

    // First attempt: cut the wire once the image is streaming. The
    // destination gives up on the pull, the source on the migration.
    cluster.migrate(pid, m(1)).unwrap();
    cluster.run_for(Duration::from_millis(20));
    assert!(cluster.node(m(0)).kernel.process(pid).unwrap().in_migration);
    assert_eq!(
        mem(&cluster, 1),
        start1 + image_len + 12,
        "destination reserved the offered flat length"
    );
    assert!(
        cluster.node(m(0)).kernel.stats().traffic.md_data.bytes > 64 * 1024,
        "the image pull was under way"
    );
    assert!(cluster.partition(m(0), m(1)));
    cluster.run_for(Duration::from_secs(1));
    assert_eq!(cluster.where_is(pid), Some(m(0)));
    assert!(!cluster.node(m(0)).kernel.process(pid).unwrap().in_migration);
    assert_eq!(cluster.node(m(0)).engine.stats().aborted, 1);
    assert_eq!(
        (mem(&cluster, 0), mem(&cluster, 1)),
        (start0, start1),
        "reservation released, source accounting untouched"
    );

    // The thawed process runs on and its state moves past what the
    // abandoned serve was given.
    assert!(cluster.heal(m(0), m(1)));
    for _ in 0..5 {
        cluster.post(pid, 2000, Bytes::new(), vec![]).unwrap();
    }
    cluster.run_for(Duration::from_millis(50));

    // Second attempt completes, with the state as of the second freeze.
    cluster.migrate(pid, m(1)).unwrap();
    cluster.run_for(Duration::from_secs(2));
    assert_eq!(cluster.where_is(pid), Some(m(1)));
    let installed = cluster.node(m(1)).kernel.process(pid).unwrap();
    assert_eq!(cargo_received(&installed.image.load_state().unwrap()), 5);
    assert_eq!(
        cargo_received(&installed.program.as_ref().unwrap().save()),
        5
    );
    assert_eq!(installed.image.total_len() as u64, image_len);
    assert_eq!(
        (mem(&cluster, 0), mem(&cluster, 1)),
        (start0 - image_len, start1 + image_len)
    );

    // And home again: both machines are back where they started.
    cluster.migrate(pid, m(0)).unwrap();
    cluster.run_for(Duration::from_secs(2));
    assert_eq!(cluster.where_is(pid), Some(m(0)));
    assert_eq!((mem(&cluster, 0), mem(&cluster, 1)), (start0, start1));
    assert_eq!(cluster.node(m(0)).engine.in_flight(), 0);
    assert_eq!(cluster.node(m(1)).engine.in_flight(), 0);
}

// ----------------------------------------------------------------------
// (f) a state record counts in 16 bits: a process moves whole or not at all
// ----------------------------------------------------------------------

#[test]
fn a_process_arrives_with_every_link_or_stays_where_it_is() {
    let run = |links: usize| {
        let mut cluster = ClusterBuilder::new(2).build();
        let pid = cluster
            .spawn(m(0), "cargo", &Cargo::state(64), ImageLayout::default())
            .unwrap();
        cluster.run_for(Duration::from_millis(10));
        let table = &mut cluster
            .node_mut(m(0))
            .kernel
            .process_mut(pid)
            .unwrap()
            .links;
        for _ in 0..links {
            table.insert(Link::to(pid.at(m(0))));
        }
        let refused = cluster.migrate(pid, m(1));
        cluster.run_for(Duration::from_secs(60));
        let home = cluster.where_is(pid).expect("the process is somewhere");
        let proc = cluster.node(home).kernel.process(pid).unwrap();
        assert_eq!(proc.links.len(), links, "never fewer than it had");
        assert!(!proc.in_migration, "and it is running");
        (home, refused)
    };

    // The most a record can count migrates intact.
    assert_eq!(run(65_535), (m(1), Ok(())));
    // One more used to be announced as 0 links (and 70 000 as 4 464): the
    // migration "completed" and the process arrived with that many.
    let (home, refused) = run(65_536);
    assert_eq!(home, m(0), "refused before anything was frozen");
    assert!(matches!(
        refused,
        Err(DemosError::TooLarge {
            what: "link table",
            len: 65_536,
            ..
        })
    ));
    // A checkpoint is the same three records.
    let mut cluster = ClusterBuilder::new(1).build();
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(64), ImageLayout::default())
        .unwrap();
    let kernel = &mut cluster.node_mut(m(0)).kernel;
    for token in 0..=u64::from(u16::MAX) {
        let timers = &mut kernel.process_mut(pid).unwrap().timers;
        timers.push(TimerEntry { at: Time(1), token });
    }
    assert!(matches!(
        kernel.checkpoint(Time(0), pid),
        Err(DemosError::TooLarge { .. })
    ));
}

#[test]
fn a_checkpoint_at_the_record_limit_reads_back() {
    // The most of everything a state record can count: what
    // `Kernel::checkpoint` still admits, its wire form has to give back.
    let mut cluster = ClusterBuilder::new(1).build();
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(64), ImageLayout::default())
        .unwrap();
    let kernel = &mut cluster.node_mut(m(0)).kernel;
    let proc = kernel.process_mut(pid).unwrap();
    for i in 0..u16::MAX {
        proc.links.insert(Link::to(pid.at(m(0))));
        let token = u64::from(i);
        proc.timers.push(TimerEntry { at: Time(1), token });
        proc.bytes_sent_to.insert(m(i), 1);
    }
    let ck = kernel.checkpoint(Time(0), pid).unwrap();
    assert_eq!(ck.resident.len(), Process::MAX_RESIDENT_LEN);
    assert_eq!(ck.swappable.len(), Process::MAX_SWAPPABLE_LEN);
    // (`assert!`, not `assert_eq!`: a failure should not print 3 MB.)
    match Checkpoint::from_bytes(&ck.to_bytes()) {
        Ok(back) => assert!(back == ck, "the checkpoint read back differs"),
        Err(e) => panic!("a checkpoint that was taken cannot be read: {e:?}"),
    }

    // One byte past either bound is not a record any process wrote.
    let refused = |ck: &Checkpoint| match Checkpoint::from_bytes(&ck.to_bytes()) {
        Err(WireError::BadLength { what, .. }) => what,
        other => panic!("read back: {:?}", other.map(|c| c.len())),
    };
    let mut over = ck.clone();
    over.resident.push(0);
    assert_eq!(refused(&over), "Checkpoint.resident");
    let mut over = ck;
    over.swappable.push(0);
    assert_eq!(refused(&over), "Checkpoint.swappable");
}

#[test]
fn a_state_record_with_bytes_left_over_is_not_installed() {
    // Whatever mis-sizes a record — the wrapped count above was one way —
    // the install fails (the source thaws) rather than build a process
    // from the part of the record that was understood.
    let mut cluster = ClusterBuilder::new(1).build();
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(64), ImageLayout::default())
        .unwrap();
    let proc = cluster.node(m(0)).kernel.process(pid).unwrap();
    let (resident, swappable) = (proc.serialize_resident(), proc.serialize_swappable());
    let install = |resident: &[u8], swappable: &[u8]| {
        let (r, s) = (
            Bytes::copy_from_slice(resident),
            Bytes::copy_from_slice(swappable),
        );
        Process::from_migrated(r, s, proc.image.clone()).map(|p| p.pid)
    };
    assert_eq!(install(&resident, &swappable), Ok(pid));
    let longer = |record: &[u8]| [record, &[0]].concat();
    assert_eq!(
        install(&resident, &longer(&swappable)),
        Err(WireError::BadLength {
            what: "swappable record",
            len: 1
        })
    );
    assert!(install(&longer(&resident), &swappable).is_err());
    assert!(install(&resident, &swappable[..swappable.len() - 1]).is_err());
}
