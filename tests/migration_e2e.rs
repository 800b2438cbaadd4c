//! End-to-end migration tests over the full stack: kernels, reliable
//! transport, migration engine, workload programs.

use demos_mp::kernel::{LinkAttrsExt, Outbox};
use demos_mp::net::SimNetwork;
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{
    burner_done, cargo_received, pingpong_rallies, Cargo, CpuBurner, PingPong,
};
use demos_mp::types::LinkIdx;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

/// Spawn a pair of ping-pong processes on two machines, linked together,
/// with the first serving the ball.
fn pingpong_pair(cluster: &mut Cluster, a: MachineId, b: MachineId) -> (ProcessId, ProcessId) {
    let pa = cluster
        .spawn(
            a,
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = cluster
        .spawn(
            b,
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let la = cluster.link_to(pa).unwrap();
    let lb = cluster.link_to(pb).unwrap();
    cluster
        .post(
            pa,
            programs::wl::INIT,
            bytes::Bytes::from_static(&[1]),
            vec![lb],
        )
        .unwrap();
    cluster
        .post(
            pb,
            programs::wl::INIT,
            bytes::Bytes::from_static(&[0]),
            vec![la],
        )
        .unwrap();
    (pa, pb)
}

fn rallies(cluster: &Cluster, pid: ProcessId) -> u64 {
    let machine = cluster.where_is(pid).expect("process exists");
    let proc = cluster.node(machine).kernel.process(pid).unwrap();
    pingpong_rallies(&proc.program.as_ref().unwrap().save())
}

#[test]
fn pingpong_runs_across_machines() {
    let mut cluster = Cluster::mesh(2);
    let (pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(200));
    assert!(
        rallies(&cluster, pa) > 10,
        "rallies: {}",
        rallies(&cluster, pa)
    );
    assert!(rallies(&cluster, pb) > 10);
}

#[test]
fn migrate_idle_process_preserves_state() {
    let mut cluster = Cluster::mesh(3);
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(10_000), ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(10));
    assert_eq!(cluster.where_is(pid), Some(m(0)));

    cluster.migrate(pid, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(500));

    assert_eq!(cluster.where_is(pid), Some(m(2)), "process moved to m2");
    // The source left a forwarding address pointing at m2 (§3.1 step 7).
    let fwd = cluster.node(m(0)).kernel.forwarding_table();
    assert_eq!(fwd.get(&pid).map(|e| e.to), Some(m(2)));
    // Ballast survived the byte-level transfer.
    let proc = cluster.node(m(2)).kernel.process(pid).unwrap();
    let state = proc.program.as_ref().unwrap().save();
    assert_eq!(state.len(), 8 + 10_000);
    assert_eq!(cargo_received(&state), 0);
    // All eight steps appear in the trace.
    for phase in [
        MigrationPhase::Frozen,
        MigrationPhase::Offered,
        MigrationPhase::Allocated,
        MigrationPhase::StateTransferred,
        MigrationPhase::ImageTransferred,
        MigrationPhase::PendingForwarded,
        MigrationPhase::CleanedUp,
        MigrationPhase::Restarted,
    ] {
        assert!(
            cluster.trace().phase_time(pid, phase, Time::ZERO).is_some(),
            "missing phase {phase:?}"
        );
    }
}

#[test]
fn migration_is_transparent_to_peer() {
    let mut cluster = Cluster::mesh(3);
    let (pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(100));
    let before = rallies(&cluster, pa);
    assert!(before > 0);

    // Move pb from m1 to m2 while balls are in flight.
    cluster.migrate(pb, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(300));

    assert_eq!(cluster.where_is(pb), Some(m(2)));
    let after = rallies(&cluster, pa);
    assert!(
        after > before + 10,
        "rallies continue after migration: {before} → {after}"
    );

    // pa's durable link to pb was updated by the §5 mechanism: a message
    // sent on the stale link was forwarded, the forwarding kernel told
    // pa's kernel, and pa's link table got patched.
    assert!(
        cluster.trace().forwards_for(pb) >= 1,
        "at least one message was forwarded"
    );
    assert!(
        cluster.trace().link_updates_for(pa) >= 1,
        "pa's links were updated"
    );
    let pa_machine = cluster.where_is(pa).unwrap();
    let pa_proc = cluster.node(pa_machine).kernel.process(pa).unwrap();
    let peer_links: Vec<_> = pa_proc
        .links
        .iter()
        .filter(|(_, l)| l.target() == pb)
        .collect();
    assert!(!peer_links.is_empty());
    for (_, l) in peer_links {
        assert_eq!(l.addr.last_known_machine, m(2), "stale link was rehomed");
    }

    // Forwarding stops once links are updated: run on and compare.
    let forwards_then = cluster.trace().forwards_for(pb);
    cluster.run_for(Duration::from_millis(300));
    let forwards_now = cluster.trace().forwards_for(pb);
    assert!(
        forwards_now - forwards_then <= 2,
        "forwarding keeps happening: {forwards_then} → {forwards_now}"
    );
    // And the rally continues.
    assert!(rallies(&cluster, pa) > after);
}

#[test]
fn pending_queue_forwarded_on_migration() {
    let mut cluster = Cluster::mesh(2);
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(100), ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(5));
    // Freeze indirectly: suspend so messages pile up, then migrate.
    cluster.node_mut(m(0)).kernel.suspend(pid);
    for i in 0..20u8 {
        cluster
            .post(
                pid,
                tags::USER_BASE + 9,
                bytes::Bytes::copy_from_slice(&[i]),
                vec![],
            )
            .unwrap();
    }
    {
        let proc = cluster.node(m(0)).kernel.process(pid).unwrap();
        assert_eq!(proc.queue.len(), 20);
    }
    cluster.migrate(pid, m(1)).unwrap();
    cluster.run_for(Duration::from_millis(500));
    assert_eq!(cluster.where_is(pid), Some(m(1)));
    let proc = cluster.node(m(1)).kernel.process(pid).unwrap();
    assert_eq!(
        proc.queue.len(),
        20,
        "all queued messages forwarded (step 6)"
    );
    assert_eq!(
        proc.status,
        ExecStatus::Suspended,
        "status preserved (step 1)"
    );
    // Resume and let it consume them.
    cluster.node_mut(m(1)).kernel.resume(pid);
    cluster.run_for(Duration::from_millis(50));
    let proc = cluster.node(m(1)).kernel.process(pid).unwrap();
    let received = cargo_received(&proc.program.as_ref().unwrap().save());
    assert_eq!(
        received, 20,
        "every held message was delivered exactly once"
    );
}

#[test]
fn migration_chain_and_link_collapse() {
    let mut cluster = Cluster::mesh(5);
    let (pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(50));
    // Migrate pb along a chain m1 → m2 → m3 → m4.
    for dest in [2u16, 3, 4] {
        cluster.migrate(pb, m(dest)).unwrap();
        cluster.run_for(Duration::from_millis(400));
        assert_eq!(cluster.where_is(pb), Some(m(dest)));
    }
    // Forwarding addresses chain along the path.
    assert_eq!(cluster.node(m(1)).kernel.forwarding_table()[&pb].to, m(2));
    assert_eq!(cluster.node(m(2)).kernel.forwarding_table()[&pb].to, m(3));
    assert_eq!(cluster.node(m(3)).kernel.forwarding_table()[&pb].to, m(4));
    // The rally still runs and pa's link points directly at m4.
    let r1 = rallies(&cluster, pa);
    cluster.run_for(Duration::from_millis(200));
    assert!(rallies(&cluster, pa) > r1);
    let pa_proc = cluster.node(m(0)).kernel.process(pa).unwrap();
    for (_, l) in pa_proc.links.iter().filter(|(_, l)| l.target() == pb) {
        assert_eq!(l.addr.last_known_machine, m(4));
    }
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let mut cluster = ClusterBuilder::new(3).seed(seed).build();
        let (_pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
        cluster.run_for(Duration::from_millis(50));
        cluster.migrate(pb, m(2)).unwrap();
        cluster.run_for(Duration::from_millis(200));
        cluster.trace().fingerprint()
    };
    assert_eq!(run(7), run(7), "same seed, same trace");
}

#[test]
fn rejected_migration_resumes_at_source() {
    let mut cluster = ClusterBuilder::new(2)
        .migration_config(MigrationConfig {
            accept: AcceptPolicy::Never,
            ..Default::default()
        })
        .build();
    let (pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(50));
    let before = rallies(&cluster, pb);
    cluster.migrate(pb, m(0)).unwrap();
    cluster.run_for(Duration::from_millis(300));
    // Rejected by policy: still at m1, still rallying.
    assert_eq!(cluster.where_is(pb), Some(m(1)));
    assert!(
        rallies(&cluster, pb) > before,
        "process thawed after rejection"
    );
    assert_eq!(cluster.node(m(1)).engine.stats().aborted, 1);
    assert_eq!(cluster.node(m(0)).engine.stats().rejected, 1);
    let _ = pa;
}

#[test]
fn migrate_errors() {
    let mut cluster = Cluster::mesh(2);
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(0), ImageLayout::default())
        .unwrap();
    // Unknown process.
    let ghost = ProcessId {
        creating_machine: m(1),
        local_uid: 999,
    };
    assert!(cluster.migrate(ghost, m(1)).is_err());
    // Migration to self.
    assert!(cluster.migrate(pid, m(0)).is_err());
}

#[test]
fn timer_survives_migration() {
    // A CpuBurner's pending timer entry is part of the resident state and
    // must fire at the destination.
    let mut cluster = Cluster::mesh(2);
    let pid = cluster
        .spawn(
            m(0),
            "cpu_burner",
            &CpuBurner::state(0, 100, 5_000),
            ImageLayout::default(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(50));
    let before = {
        let p = cluster.node(m(0)).kernel.process(pid).unwrap();
        burner_done(&p.program.as_ref().unwrap().save())
    };
    assert!(before > 3);
    cluster.migrate(pid, m(1)).unwrap();
    cluster.run_for(Duration::from_millis(300));
    assert_eq!(cluster.where_is(pid), Some(m(1)));
    let after = {
        let p = cluster.node(m(1)).kernel.process(pid).unwrap();
        burner_done(&p.program.as_ref().unwrap().save())
    };
    assert!(
        after > before + 10,
        "burner keeps ticking at destination: {before} → {after}"
    );
}

#[test]
fn nondeliverable_after_kill_marks_links_dead() {
    let mut cluster = Cluster::mesh(2);
    let (pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(20));
    // Kill pb; pa's next ball bounces as non-deliverable and pa's link is
    // marked dead.
    let now = cluster.now();
    let mut out = Outbox::default();
    {
        let node = cluster.node_mut(m(1));
        let mut tmp_net = SimNetwork::new(Topology::full_mesh(2, EdgeParams::fast()), 0);
        node.kernel.kill(now, pb, &mut tmp_net, &mut out);
    }
    cluster.run_for(Duration::from_millis(100));
    let pa_proc = cluster.node(m(0)).kernel.process(pa).unwrap();
    let dead = pa_proc
        .links
        .iter()
        .filter(|(_, l)| l.target() == pb)
        .all(|(_, l)| l.attrs.contains(<LinkAttrs as LinkAttrsExt>::DEAD));
    assert!(dead, "links to the dead process are marked DEAD");
    let idx = pa_proc
        .links
        .iter()
        .find(|(_, l)| l.target() == pb)
        .map(|(i, _)| i);
    let _: Option<LinkIdx> = idx;
}
