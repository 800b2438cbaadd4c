//! File-system tests, culminating in the paper's own hard case: migrating
//! a file-system process while several user processes perform I/O (§2.3).

use demos_mp::sim::boot::{
    boot_system, spawn_fs_clients, total_client_errors, total_client_ops, BootConfig,
};
use demos_mp::sim::prelude::*;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

#[test]
fn clients_do_io_through_the_four_fs_processes() {
    let mut cluster = Cluster::mesh(3);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let clients = spawn_fs_clients(&mut cluster, &handles, m(1), 3, 2, 2_000, 128, 50).unwrap();
    cluster.run_for(Duration::from_millis(500));
    let ops = total_client_ops(&cluster, &clients);
    assert!(ops > 50, "clients completed {ops} ops");
    assert_eq!(total_client_errors(&cluster, &clients), 0);
    // The disk actually served blocks.
    let disk = cluster.node(m(0)).kernel.process(handles.fs_disk).unwrap();
    let disk_state = disk.program.as_ref().unwrap().save();
    assert!(disk_state.len() > 512, "disk holds allocated blocks");
}

#[test]
fn data_written_is_data_read() {
    // One client, 100% writes for a while, then check a read round-trips
    // through cache+disk: covered indirectly — the client writes patterns
    // and a separate verification reads a block via the trace-free path.
    let mut cluster = Cluster::mesh(2);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let clients = spawn_fs_clients(&mut cluster, &handles, m(1), 1, 1, 1_000, 256, 50).unwrap();
    cluster.run_for(Duration::from_secs(1));
    let ops = total_client_ops(&cluster, &clients);
    assert!(ops > 100);
    assert_eq!(
        total_client_errors(&cluster, &clients),
        0,
        "mixed read/write stream is clean"
    );
}

#[test]
fn migrate_file_server_under_client_io() {
    // The paper's test: "It migrates a file system process while several
    // user processes are performing I/O."
    let mut cluster = Cluster::mesh(4);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let clients = spawn_fs_clients(&mut cluster, &handles, m(1), 2, 2, 2_000, 128, 50).unwrap();
    let more = spawn_fs_clients(&mut cluster, &handles, m(2), 2, 2, 2_000, 128, 50).unwrap();
    let all: Vec<ProcessId> = clients.into_iter().chain(more).collect();

    cluster.run_for(Duration::from_millis(300));
    let before = total_client_ops(&cluster, &all);
    assert!(before > 20);

    // Move the client-facing file server m0 → m3 while I/O is in flight.
    cluster.migrate(handles.fs_file, m(3)).unwrap();
    cluster.run_for(Duration::from_millis(700));

    assert_eq!(cluster.where_is(handles.fs_file), Some(m(3)));
    let after = total_client_ops(&cluster, &all);
    assert!(
        after > before + 20,
        "I/O continued through the migration: {before} → {after}"
    );
    assert_eq!(
        total_client_errors(&cluster, &all),
        0,
        "no client observed an error"
    );

    // The server had many stale links pointing at it (the hard case of
    // §2.4/§5); they were forwarded and then updated.
    assert!(cluster.trace().forwards_for(handles.fs_file) >= 1);
    let updates = cluster.trace().count(|r| {
        matches!(r.event, TraceEvent::LinkUpdateApplied { migrated, patched, .. }
            if migrated == handles.fs_file && patched > 0)
    });
    assert!(updates >= 1, "client links to the server were updated");

    // And the rest of the quartet still lives on m0.
    assert_eq!(cluster.where_is(handles.fs_disk), Some(m(0)));
    assert_eq!(cluster.where_is(handles.fs_cache), Some(m(0)));
}

#[test]
fn migrate_disk_server_under_io() {
    // Even the process whose image contains the disk blocks can move.
    let mut cluster = Cluster::mesh(3);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let clients = spawn_fs_clients(&mut cluster, &handles, m(1), 2, 1, 3_000, 256, 30).unwrap();
    cluster.run_for(Duration::from_millis(400));
    let before = total_client_ops(&cluster, &clients);

    cluster.migrate(handles.fs_disk, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(800));

    assert_eq!(cluster.where_is(handles.fs_disk), Some(m(2)));
    let after = total_client_ops(&cluster, &clients);
    assert!(
        after > before,
        "I/O resumed after the disk server moved: {before} → {after}"
    );
    assert_eq!(total_client_errors(&cluster, &clients), 0);
}

#[test]
fn migrate_whole_fs_quartet_sequentially() {
    let mut cluster = Cluster::mesh(3);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let clients = spawn_fs_clients(&mut cluster, &handles, m(1), 1, 1, 3_000, 128, 50).unwrap();
    cluster.run_for(Duration::from_millis(300));

    for pid in [
        handles.fs_dir,
        handles.fs_cache,
        handles.fs_file,
        handles.fs_disk,
    ] {
        cluster.migrate(pid, m(2)).unwrap();
        cluster.run_for(Duration::from_millis(600));
        assert_eq!(cluster.where_is(pid), Some(m(2)), "{pid} moved");
    }
    let before = total_client_ops(&cluster, &clients);
    cluster.run_for(Duration::from_millis(500));
    let after = total_client_ops(&cluster, &clients);
    assert!(
        after > before,
        "file system fully relocated and still serving: {before} → {after}"
    );
    assert_eq!(total_client_errors(&cluster, &clients), 0);
}

#[test]
fn switchboard_lookup_roundtrip() {
    // A client process can discover the fs through the switchboard.
    use demos_mp::sysproc::{sys, SbMsg};
    use demos_mp::types::wire::Wire;

    let mut cluster = Cluster::mesh(2);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    cluster.run_for(Duration::from_millis(50));

    // Post a Lookup whose reply goes to a cargo process; the carried link
    // in the reply proves distribution works.
    let probe = cluster
        .spawn(
            m(1),
            "cargo",
            &demos_mp::sim::programs::Cargo::state(0),
            ImageLayout::default(),
        )
        .unwrap();
    let reply = cluster.link_to(probe).unwrap();
    cluster
        .post(
            handles.switchboard,
            sys::SWITCHBOARD,
            SbMsg::Lookup { name: "fs".into() }.to_bytes(),
            vec![reply],
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(100));
    let p = cluster.node(m(1)).kernel.process(probe).unwrap();
    assert!(
        p.links.iter().any(|(_, l)| l.target() == handles.fs_file),
        "probe received a link to the fs via the switchboard"
    );
}
