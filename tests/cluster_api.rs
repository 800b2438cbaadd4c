//! Cluster harness API tests: fault injection semantics, quiescence,
//! trace queries, and configuration plumbing.

use demos_mp::kernel::MAX_PROCESSES;
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{burner_done, Cargo, CpuBurner};
use demos_mp::types::proto::KernelOp;
use demos_mp::types::wire::Wire;
use demos_mp::types::DemosError;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

#[test]
fn run_quiescent_stops_when_nothing_happens() {
    let mut cluster = Cluster::mesh(2);
    cluster
        .spawn(
            m(0),
            "cpu_burner",
            &CpuBurner::state(10, 100, 1_000),
            ImageLayout::default(),
        )
        .unwrap();
    let end = cluster.run_quiescent(Duration::from_secs(60));
    // 10 iterations at 1ms period: finishes in ~11ms, nowhere near 60s.
    assert!(end < Time::from_micros(60_000_000));
    assert!(
        end >= Time::from_micros(10_000),
        "ran at least the 10 periods"
    );
    assert_eq!(
        cluster.node(m(0)).kernel.nprocs(),
        0,
        "burner exited on completion"
    );
}

#[test]
fn degrade_slows_and_restore_heals() {
    let run = |factor: f64| {
        let mut cluster = ClusterBuilder::new(1).seed(1).build();
        let pid = cluster
            .spawn(
                m(0),
                "cpu_burner",
                &CpuBurner::state(0, 900, 100),
                ImageLayout::default(),
            )
            .unwrap();
        cluster.degrade(m(0), factor);
        cluster.run_for(Duration::from_millis(500));
        let p = cluster.node(m(0)).kernel.process(pid).unwrap();
        burner_done(&p.program.as_ref().unwrap().save())
    };
    let healthy = run(1.0);
    let degraded = run(5.0);
    assert!(
        healthy as f64 > degraded as f64 * 3.0,
        "5x degradation shows: {healthy} vs {degraded}"
    );
}

#[test]
fn health_reflects_state() {
    let mut cluster = Cluster::mesh(2);
    assert_eq!(cluster.health(m(0)), 1.0);
    cluster.degrade(m(0), 4.0);
    assert_eq!(cluster.health(m(0)), 0.25);
    cluster.degrade(m(0), 0.5); // faster than nominal is still healthy
    assert_eq!(cluster.health(m(0)), 1.0);
    cluster.crash(m(1));
    assert_eq!(cluster.health(m(1)), 0.0);
    assert!(cluster.is_crashed(m(1)));
}

#[test]
fn crashed_machine_stops_executing() {
    let mut cluster = Cluster::mesh(2);
    let pid = cluster
        .spawn(
            m(0),
            "cpu_burner",
            &CpuBurner::state(0, 100, 1_000),
            ImageLayout::default(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(50));
    let before = {
        let p = cluster.node(m(0)).kernel.process(pid).unwrap();
        burner_done(&p.program.as_ref().unwrap().save())
    };
    cluster.crash(m(0));
    cluster.run_for(Duration::from_millis(100));
    let after = {
        let p = cluster.node(m(0)).kernel.process(pid).unwrap();
        burner_done(&p.program.as_ref().unwrap().save())
    };
    assert_eq!(before, after, "no progress on a crashed machine");
    assert_eq!(
        cluster.where_is(pid),
        None,
        "crashed processes are unreachable"
    );
}

#[test]
fn revive_gives_a_fresh_kernel() {
    let mut cluster = Cluster::mesh(2);
    cluster
        .spawn(m(0), "cargo", &Cargo::state(64), ImageLayout::default())
        .unwrap();
    assert_eq!(cluster.node(m(0)).kernel.nprocs(), 1);
    cluster.crash(m(0));
    cluster.revive(m(0));
    assert!(!cluster.is_crashed(m(0)));
    assert_eq!(
        cluster.node(m(0)).kernel.nprocs(),
        0,
        "processes died with the crash"
    );
    // The revived machine works: spawn + run on it.
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(16), ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(10));
    assert_eq!(cluster.where_is(pid), Some(m(0)));
}

#[test]
fn post_dtk_query_status_roundtrip() {
    // QueryStatus over a DTK link: the kernel answers over the carried
    // reply link — exercised here through the public harness API plus a
    // probe process that records the reply.
    let mut cluster = Cluster::mesh(2);
    let target = cluster
        .spawn(m(1), "cargo", &Cargo::state(0), ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(5));
    cluster
        .post_dtk(
            target,
            m(1),
            demos_mp::types::tags::KERNEL_OP,
            KernelOp::Suspend.to_bytes(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(50));
    assert_eq!(
        cluster.node(m(1)).kernel.process(target).unwrap().status,
        ExecStatus::Suspended
    );
    cluster
        .post_dtk(
            target,
            m(1),
            demos_mp::types::tags::KERNEL_OP,
            KernelOp::Resume.to_bytes(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(50));
    assert_ne!(
        cluster.node(m(1)).kernel.process(target).unwrap().status,
        ExecStatus::Suspended
    );
}

#[test]
fn dtk_follows_forwarding_addresses() {
    // A control op addressed with a stale hint reaches the process's
    // kernel at its new home (§2.2: "without worrying about which
    // processor the process is on — or is moving to").
    let mut cluster = Cluster::mesh(3);
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(0), ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(5));
    cluster.migrate(pid, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(400));
    assert_eq!(cluster.where_is(pid), Some(m(2)));
    // Address the Suspend to the OLD machine.
    cluster
        .post_dtk(
            pid,
            m(0),
            demos_mp::types::tags::KERNEL_OP,
            KernelOp::Suspend.to_bytes(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(100));
    assert_eq!(
        cluster.node(m(2)).kernel.process(pid).unwrap().status,
        ExecStatus::Suspended,
        "control op chased the forwarding address"
    );
}

/// Spawn [`MAX_PROCESSES`] small cargo processes on `at`: the machine is
/// then full by process count, far below [`demos_mp::kernel::MEM_CAPACITY`].
fn fill(cluster: &mut Cluster, at: MachineId) {
    for _ in 0..MAX_PROCESSES {
        cluster
            .spawn(at, "cargo", &Cargo::state(0), ImageLayout::default())
            .unwrap();
    }
}

#[test]
fn capacity_rejection_on_spawn() {
    let mut cluster = Cluster::mesh(1);
    fill(&mut cluster, m(0));
    assert_eq!(
        cluster.spawn(m(0), "cargo", &Cargo::state(0), ImageLayout::default()),
        Err(DemosError::Capacity(m(0)))
    );
}

#[test]
fn capacity_rejection_on_migration() {
    let mut cluster = Cluster::mesh(2);
    let a = cluster
        .spawn(m(0), "cargo", &Cargo::state(0), ImageLayout::default())
        .unwrap();
    fill(&mut cluster, m(1));
    cluster.run_for(Duration::from_millis(5));
    // m1 is full: the offer is rejected with Capacity and `a` stays put.
    cluster.migrate(a, m(1)).unwrap();
    cluster.run_for(Duration::from_millis(400));
    assert_eq!(cluster.where_is(a), Some(m(0)));
    assert_eq!(cluster.node(m(1)).engine.stats().rejected, 1);
}

#[test]
fn gc_disabled_keeps_forwarding_addresses() {
    // Paper default: "we have not found it necessary to remove forwarding
    // addresses."
    let mut cluster = Cluster::mesh(3); // gc_forwarding = false by default
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(0), ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(5));
    cluster.migrate(pid, m(1)).unwrap();
    cluster.run_for(Duration::from_millis(300));
    cluster
        .post_dtk(
            pid,
            m(1),
            demos_mp::types::tags::KERNEL_OP,
            KernelOp::Kill.to_bytes(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(300));
    assert!(cluster.where_is(pid).is_none());
    assert!(
        cluster
            .node(m(0))
            .kernel
            .forwarding_table()
            .contains_key(&pid),
        "entry survives the process (paper default)"
    );
}
