//! Fault-injection tests spanning the whole stack: lossy links,
//! partitions during migration, and crashing processors.

use demos_mp::core::{AcceptPolicy, MigrationConfig};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{cargo_received, pingpong_rallies, Cargo, PingPong};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn rallies(cluster: &Cluster, pid: ProcessId) -> u64 {
    let machine = cluster.where_is(pid).unwrap();
    let p = cluster.node(machine).kernel.process(pid).unwrap();
    pingpong_rallies(&p.program.as_ref().unwrap().save())
}

fn pingpong_pair(cluster: &mut Cluster) -> (ProcessId, ProcessId) {
    let pa = cluster
        .spawn(
            m(0),
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = cluster
        .spawn(
            m(1),
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let la = cluster.link_to(pa).unwrap();
    let lb = cluster.link_to(pb).unwrap();
    cluster
        .post(pa, wl::INIT, bytes::Bytes::from_static(&[1]), vec![lb])
        .unwrap();
    cluster
        .post(pb, wl::INIT, bytes::Bytes::from_static(&[0]), vec![la])
        .unwrap();
    (pa, pb)
}

#[test]
fn migration_survives_packet_loss() {
    // 5% loss on every edge: retransmission recovers everything, the
    // delivery guarantee holds, and migration completes.
    let topo = Topology::full_mesh(
        3,
        demos_mp::net::EdgeParams {
            latency: Duration::from_micros(300),
            ns_per_byte: 200,
            loss: 0.05,
        },
    );
    let mut cluster = ClusterBuilder::new(3).topology(topo).seed(77).build();
    let (pa, pb) = pingpong_pair(&mut cluster);
    cluster.run_for(Duration::from_millis(300));
    assert!(rallies(&cluster, pa) > 10);

    cluster.migrate(pb, m(2)).unwrap();
    cluster.run_for(Duration::from_secs(2));
    assert_eq!(cluster.where_is(pb), Some(m(2)));
    let before = rallies(&cluster, pa);
    cluster.run_for(Duration::from_secs(1));
    assert!(
        rallies(&cluster, pa) > before,
        "rally survives loss + migration"
    );
    // The network really was lossy.
    assert!(cluster.net().stats().frames_dropped > 0);
}

#[test]
fn heavy_loss_still_delivers_exactly_once() {
    let topo = Topology::full_mesh(
        2,
        demos_mp::net::EdgeParams {
            latency: Duration::from_micros(200),
            ns_per_byte: 100,
            loss: 0.25,
        },
    );
    let mut cluster = ClusterBuilder::new(2).topology(topo).seed(5).build();
    let (pa, pb) = pingpong_pair(&mut cluster);
    cluster.run_for(Duration::from_secs(3));
    let a = rallies(&cluster, pa);
    let b = rallies(&cluster, pb);
    // In-order exactly-once delivery keeps the rally counts within 1 of
    // each other even at 25% loss — duplicates would inflate one side,
    // drops would stall the rally entirely.
    assert!(a > 20, "rally made progress under 25% loss: {a}");
    assert!(a.abs_diff(b) <= 1, "exactly-once: {a} vs {b}");
    assert!(
        cluster.net().stats().frames_dropped > 20,
        "the loss was real"
    );
}

#[test]
fn destination_crash_aborts_migration_and_process_survives() {
    let mut cluster = ClusterBuilder::new(3)
        .migration_config(MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_millis(200),
        })
        .build();
    let (pa, pb) = pingpong_pair(&mut cluster);
    cluster.run_for(Duration::from_millis(50));
    let before = rallies(&cluster, pb);

    // Crash the destination, then try to migrate into it.
    cluster.crash(m(2));
    cluster.migrate(pb, m(2)).unwrap();
    cluster.run_for(Duration::from_secs(2));

    // The source timed out, thawed the process, and the rally resumed.
    assert_eq!(
        cluster.where_is(pb),
        Some(m(1)),
        "process survived at the source"
    );
    assert!(
        rallies(&cluster, pb) > before,
        "rally resumed after the aborted migration"
    );
    let s = cluster.node(m(1)).engine.stats();
    assert_eq!(
        (s.started, s.aborted, s.retried),
        (1, 1, 0),
        "one attempt, aborted once, never re-offered elsewhere"
    );
    assert_eq!(
        cluster.node(m(1)).engine.in_flight(),
        0,
        "no leaked migration state"
    );
    let _ = pa;
}

#[test]
fn partition_during_migration_heals() {
    let mut cluster = ClusterBuilder::new(2)
        .migration_config(MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_secs(10),
        })
        .build();
    let pid = cluster
        .spawn(
            m(0),
            "cargo",
            &Cargo::state(100_000),
            ImageLayout::default(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(10));

    cluster.migrate(pid, m(1)).unwrap();
    // Cut the link mid-transfer (the image takes several ms to move).
    cluster.run_for(Duration::from_millis(2));
    cluster.net_mut().topology_mut().clear_edge(m(0), m(1));
    cluster.run_for(Duration::from_millis(100));
    // The process is still on the source, frozen, while retransmissions
    // beat against the partition.
    assert_eq!(cluster.where_is(pid), Some(m(0)));
    assert!(cluster.node(m(0)).kernel.process(pid).unwrap().in_migration);

    // Heal: retransmissions resume and the migration completes.
    cluster
        .net_mut()
        .topology_mut()
        .set_edge(m(0), m(1), demos_mp::net::EdgeParams::default());
    cluster.run_for(Duration::from_secs(2));
    assert_eq!(
        cluster.where_is(pid),
        Some(m(1)),
        "migration completed after the heal"
    );
    let p = cluster.node(m(1)).kernel.process(pid).unwrap();
    assert_eq!(cargo_received(&p.program.as_ref().unwrap().save()), 0);
    assert_eq!(
        p.program.as_ref().unwrap().save().len(),
        8 + 100_000,
        "ballast intact"
    );
}

#[test]
fn partition_heal_delivers_queued_messages_exactly_once() {
    // Sever the only edge of a two-machine rally: the in-flight ball is
    // purged by the partition, the sender's reliable channel keeps
    // retransmitting into the void, and after the heal exactly one copy
    // arrives — the rally resumes with the counts still in lock-step.
    let mut cluster = ClusterBuilder::new(2).seed(9).build();
    let (pa, pb) = pingpong_pair(&mut cluster);
    cluster.run_for(Duration::from_millis(50));
    let before = rallies(&cluster, pa);
    assert!(before > 5, "rally warmed up");

    assert!(
        cluster.partition(m(0), m(1)),
        "edge existed and was severed"
    );
    cluster.run_for(Duration::from_millis(300));
    let during = rallies(&cluster, pa);
    assert!(
        during.abs_diff(before) <= 1,
        "rally stalled during the partition: {before} → {during}"
    );

    assert!(cluster.heal(m(0), m(1)), "edge restored");
    cluster.run_for(Duration::from_secs(2));
    let after_a = rallies(&cluster, pa);
    let after_b = rallies(&cluster, pb);
    assert!(after_a > during + 5, "rally resumed after the heal");
    assert!(
        after_a.abs_diff(after_b) <= 1,
        "exactly-once across the partition: {after_a} vs {after_b}"
    );
    // The queued messages really were carried by retransmission.
    let retransmits: u64 = (0..2)
        .map(|i| cluster.node(m(i)).kernel.channel_stats().retransmits)
        .sum();
    assert!(retransmits > 0, "the partition forced retransmissions");
    let dedup: u64 = (0..2)
        .map(|i| cluster.node(m(i)).kernel.channel_stats().dedup_drops)
        .sum();
    let delivered: u64 = (0..2)
        .map(|i| cluster.node(m(i)).kernel.stats().delivered_local)
        .sum();
    assert!(
        dedup < delivered,
        "dedup suppressed duplicates without eating deliveries"
    );
}

#[test]
fn crossing_aborts_do_not_double_count() {
    // Two sources migrate into the same destination concurrently, so both
    // transfers carry the same source-local context number. One of them is
    // cut by a partition and both of its ends time out, launching Abort
    // messages that cross on the wire and land after their records are
    // already gone. Each abort must resolve exactly the migration it
    // names: the regression was a crossing Abort matching an unrelated
    // record that reused the context number and double-counting `aborted`.
    // Slow links: the 150 KB images take tens of milliseconds to move, so
    // the partition below is guaranteed to land mid-transfer.
    let topo = Topology::full_mesh(
        3,
        demos_mp::net::EdgeParams {
            latency: Duration::from_micros(300),
            ns_per_byte: 200,
            loss: 0.0,
        },
    );
    let mut cluster = ClusterBuilder::new(3)
        .topology(topo)
        .migration_config(MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_millis(150),
        })
        .build();
    let pa = cluster
        .spawn(
            m(0),
            "cargo",
            &Cargo::state(150_000),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = cluster
        .spawn(
            m(1),
            "cargo",
            &Cargo::state(150_000),
            ImageLayout::default(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(10));

    cluster.migrate(pa, m(2)).unwrap();
    cluster.migrate(pb, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(2));
    // Isolate m1 entirely (a mesh would otherwise route around a single
    // severed edge via m0), stranding its outgoing transfer mid-flight.
    assert!(cluster.partition(m(1), m(2)), "cut the transfer edge");
    assert!(cluster.partition(m(1), m(0)), "cut the detour");
    // Both ends of the cut migration time out; the other completes.
    cluster.run_for(Duration::from_millis(400));
    assert!(cluster.heal(m(1), m(2)), "edge restored");
    assert!(cluster.heal(m(1), m(0)), "detour restored");
    cluster.run_for(Duration::from_secs(1));

    assert_eq!(cluster.where_is(pa), Some(m(2)), "healthy transfer landed");
    assert_eq!(cluster.where_is(pb), Some(m(1)), "cut transfer thawed home");
    let s0 = cluster.node(m(0)).engine.stats();
    assert_eq!((s0.started, s0.completed_out, s0.aborted), (1, 1, 0));
    let s1 = cluster.node(m(1)).engine.stats();
    assert_eq!(
        (s1.started, s1.completed_out, s1.aborted),
        (1, 0, 1),
        "the cut source aborted exactly once"
    );
    let s2 = cluster.node(m(2)).engine.stats();
    assert_eq!(s2.completed_in, 1);
    assert_eq!(
        s2.aborted, 1,
        "the destination aborted the cut transfer exactly once"
    );
    for i in 0..3 {
        assert_eq!(
            cluster.node(m(i)).engine.in_flight(),
            0,
            "no leaked migration state on m{i}"
        );
    }
}

#[test]
fn evacuated_machine_forwarding_addresses_lost_with_it() {
    // If the machine holding a forwarding address crashes, messages routed
    // via the stale hint are dropped by the transport until retransmission
    // gives up — but a sender whose link was already updated is fine.
    let mut cluster = Cluster::mesh(3);
    let (pa, pb) = pingpong_pair(&mut cluster);
    cluster.run_for(Duration::from_millis(50));
    cluster.migrate(pb, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(500));
    // pa's link was updated to m2; crash m1 (which holds the forwarding
    // address). The rally must keep going because nothing routes via m1.
    cluster.crash(m(1));
    let before = rallies(&cluster, pa);
    cluster.run_for(Duration::from_millis(500));
    assert!(
        rallies(&cluster, pa) > before,
        "updated links bypass the dead forwarder"
    );
    let _ = pb;
}
