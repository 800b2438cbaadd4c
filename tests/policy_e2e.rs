//! Policy-driven migration: the motivating applications of §1 —
//! load balancing, communication affinity, and evacuating a dying
//! processor — running closed-loop against the cluster. And what a
//! decision costs the host: a snapshot borrows every process's traffic
//! instead of copying it, and the balancer allocates only its orders.

mod common;

use common::allocs_in;
use demos_mp::policy::{ClusterView, CommAffinity, Evacuate, Hysteresis, LoadBalance, Policy};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{burner_done, CpuBurner};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn spawn_burners(
    cluster: &mut Cluster,
    machine: MachineId,
    n: usize,
    work_us: u32,
) -> Vec<ProcessId> {
    (0..n)
        .map(|_| {
            cluster
                .spawn(
                    machine,
                    "cpu_burner",
                    &CpuBurner::state(0, work_us, 1_000),
                    ImageLayout::default(),
                )
                .unwrap()
        })
        .collect()
}

fn total_done(cluster: &Cluster, pids: &[ProcessId]) -> u64 {
    pids.iter()
        .filter_map(|&pid| {
            let machine = cluster.where_is(pid)?;
            let p = cluster.node(machine).kernel.process(pid)?;
            Some(burner_done(&p.program.as_ref()?.save()))
        })
        .sum()
}

#[test]
fn load_balancer_spreads_burners() {
    // All work starts on m0 of a 4-machine cluster.
    let mut cluster = Cluster::mesh(4);
    let pids = spawn_burners(&mut cluster, m(0), 8, 900);
    let policy = LoadBalance::new(
        2,
        Hysteresis::new(Duration::from_millis(50), Duration::from_millis(10)),
    );
    let mut driver = PolicyDriver::new(Box::new(policy), Duration::from_millis(20));
    driver.run(&mut cluster, Duration::from_secs(3));

    // Work spread out across machines.
    let counts: Vec<usize> = (0..4).map(|i| cluster.node(m(i)).kernel.nprocs()).collect();
    assert!(
        counts[0] < 8,
        "some processes left the hot machine: {counts:?}"
    );
    let populated = counts.iter().filter(|&&c| c > 0).count();
    assert!(populated >= 3, "work spread over ≥3 machines: {counts:?}");
    assert!(driver.orders_issued >= 3);
    assert_eq!(total_done(&cluster, &pids), {
        // Every burner kept making progress wherever it ran.
        let sum = total_done(&cluster, &pids);
        assert!(sum > 1000, "{sum} iterations total");
        sum
    });
}

#[test]
fn balanced_cluster_finishes_work_faster() {
    // Identical finite workload, with and without the balancer: the
    // balanced run completes more iterations in the same virtual time.
    let run = |balance: bool| {
        let mut cluster = ClusterBuilder::new(4).seed(1).no_trace().build();
        let pids = spawn_burners(&mut cluster, m(0), 8, 950);
        if balance {
            let policy = LoadBalance::new(
                2,
                Hysteresis::new(Duration::from_millis(50), Duration::from_millis(10)),
            );
            let mut driver = PolicyDriver::new(Box::new(policy), Duration::from_millis(20));
            driver.run(&mut cluster, Duration::from_secs(4));
        } else {
            cluster.run_for(Duration::from_secs(4));
        }
        total_done(&cluster, &pids)
    };
    let unbalanced = run(false);
    let balanced = run(true);
    assert!(
        balanced as f64 > unbalanced as f64 * 1.5,
        "balancing wins despite migration cost: {unbalanced} vs {balanced}"
    );
}

#[test]
fn affinity_moves_client_next_to_server() {
    // Line topology m0 - m1 - m2: a ping-pong pair with one end at m0 and
    // the other at m2 talks across two hops; the affinity policy moves
    // the m2 end next to (onto) m0.
    let topo = Topology::line(3, EdgeParams::default());
    let mut cluster = ClusterBuilder::new(3).topology(topo).build();
    let pa = cluster
        .spawn(
            m(0),
            "pingpong",
            &programs::PingPong::state(0, 20),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = cluster
        .spawn(
            m(2),
            "pingpong",
            &programs::PingPong::state(0, 20),
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

    let policy = CommAffinity::new(
        500,
        0.6,
        Hysteresis::new(Duration::from_secs(1), Duration::ZERO),
    );
    let mut driver = PolicyDriver::new(Box::new(policy), Duration::from_millis(100));
    driver.run(&mut cluster, Duration::from_secs(2));

    // One of the pair moved to the other's machine.
    let (ma, mb) = (cluster.where_is(pa).unwrap(), cluster.where_is(pb).unwrap());
    assert_eq!(
        ma, mb,
        "affinity colocated the communicating pair: {ma} vs {mb}"
    );
}

#[test]
fn evacuation_saves_work_from_dying_machine() {
    let mut cluster = Cluster::mesh(3);
    let pids = spawn_burners(&mut cluster, m(0), 4, 500);
    cluster.run_for(Duration::from_millis(200));

    // m0 begins to fail: 20× slowdown (health 0.05).
    cluster.degrade(m(0), 20.0);
    let policy = Evacuate::new(0.5);
    let mut driver = PolicyDriver::new(Box::new(policy), Duration::from_millis(50));
    driver.run(&mut cluster, Duration::from_secs(1));

    // Everyone left the sinking ship.
    assert_eq!(cluster.node(m(0)).kernel.nprocs(), 0, "m0 evacuated");
    for &pid in &pids {
        let machine = cluster.where_is(pid).unwrap();
        assert_ne!(machine, m(0));
    }
    // And they keep working at their new homes.
    let before = total_done(&cluster, &pids);
    cluster.run_for(Duration::from_millis(500));
    assert!(total_done(&cluster, &pids) > before + 100);
}

#[test]
fn evacuation_beats_no_evacuation_on_crash() {
    // Degradation followed by a hard crash: with evacuation the work
    // survives; without it, the processes die with the machine.
    let run = |evacuate: bool| {
        let mut cluster = ClusterBuilder::new(3).seed(3).no_trace().build();
        let pids = spawn_burners(&mut cluster, m(0), 4, 500);
        cluster.run_for(Duration::from_millis(100));
        cluster.degrade(m(0), 10.0);
        if evacuate {
            let mut driver =
                PolicyDriver::new(Box::new(Evacuate::new(0.5)), Duration::from_millis(50));
            driver.run(&mut cluster, Duration::from_millis(800));
        } else {
            cluster.run_for(Duration::from_millis(800));
        }
        cluster.crash(m(0));
        cluster.run_for(Duration::from_secs(1));
        let survivors = pids
            .iter()
            .filter(|&&p| cluster.where_is(p).is_some())
            .count();
        (survivors, total_done(&cluster, &pids))
    };
    let (died_survivors, died_work) = run(false);
    let (saved_survivors, saved_work) = run(true);
    assert_eq!(
        died_survivors, 0,
        "without evacuation the crash kills everything"
    );
    assert_eq!(saved_survivors, 4, "evacuated processes survive the crash");
    assert!(saved_work > died_work, "{saved_work} > {died_work}");
}

/// `pairs` ping-pong pairs, each end on its own machine of `machines`,
/// rallying for `run`.
fn rallying(machines: u16, pairs: u16, run: Duration) -> Cluster {
    let mut cluster = ClusterBuilder::new(machines as usize).no_trace().build();
    for i in 0..pairs {
        let spawn = |cluster: &mut Cluster, machine| {
            let state = programs::PingPong::state(0, 20);
            cluster
                .spawn(m(machine), "pingpong", &state, ImageLayout::default())
                .unwrap()
        };
        let a = spawn(&mut cluster, i % machines);
        let b = spawn(&mut cluster, (i + 1) % machines);
        let (la, lb) = (cluster.link_to(a).unwrap(), cluster.link_to(b).unwrap());
        cluster
            .post(a, wl::INIT, bytes::Bytes::from_static(&[1]), vec![lb])
            .unwrap();
        cluster
            .post(b, wl::INIT, bytes::Bytes::from_static(&[0]), vec![la])
            .unwrap();
    }
    cluster.run_for(run);
    cluster
}

#[test]
fn a_snapshot_borrows_every_process_traffic_instead_of_copying_it() {
    for pairs in [2, 24] {
        let cluster = rallying(4, pairs, Duration::from_millis(200));
        let busy = vec![Duration::ZERO; 4];
        let (view, allocs, _) = allocs_in(|| snapshot(&cluster, &busy, Duration::from_millis(20)));
        assert_eq!(
            allocs, 2,
            "{pairs} pairs: its two lists, nothing per process"
        );
        assert_eq!(view.processes.len(), 2 * pairs as usize);
        for p in &view.processes {
            let proc = cluster.node(p.machine).kernel.process(p.pid).unwrap();
            assert!(
                std::ptr::eq(p.bytes_sent_to, &proc.bytes_sent_to),
                "the process's own accounting, read in place"
            );
            assert!(!p.bytes_sent_to.is_empty(), "every pair talked");
        }
    }
}

#[test]
fn the_load_balancer_allocates_only_the_orders_it_returns() {
    let mut cluster = ClusterBuilder::new(4).no_trace().build();
    spawn_burners(&mut cluster, m(0), 8, 900);
    cluster.run_for(Duration::from_millis(50));
    let busy = vec![Duration::ZERO; 4];
    let view = snapshot(&cluster, &busy, Duration::from_millis(50));
    let later = |ms| ClusterView {
        at: view.at + Duration::from_millis(ms),
        ..view.clone()
    };
    let mut policy = LoadBalance::new(
        2,
        Hysteresis::new(Duration::from_secs(1), Duration::from_millis(5)),
    );
    // The first order also starts the hysteresis record.
    assert_eq!(policy.decide(&view).len(), 1);
    // Too soon after it: nothing is looked at, nothing allocated.
    let soon = later(1);
    let (orders, allocs, _) = allocs_in(|| policy.decide(&soon));
    assert_eq!((orders.len(), allocs), (0, 0));
    // The next order, for another burner: the returned list only.
    let next = later(10);
    let (orders, allocs, _) = allocs_in(|| policy.decide(&next));
    assert_eq!((orders.len(), allocs), (1, 1));
    // A balanced cluster: no order, no allocation.
    let mut even = ClusterBuilder::new(4).no_trace().build();
    for i in 0..4 {
        spawn_burners(&mut even, m(i), 2, 900);
    }
    even.run_for(Duration::from_millis(50));
    let view = snapshot(&even, &busy, Duration::from_millis(50));
    let (orders, allocs, _) = allocs_in(|| policy.decide(&view));
    assert_eq!((orders.len(), allocs), (0, 0));
}
