//! Event-core scheduling cost tests: the indexed event loop must touch
//! only nodes with actual work, not scan the whole cluster. These pin
//! the per-step visit budget so a reintroduced O(n) scan fails loudly.

use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::PingPong;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

/// Spawn a linked ping-pong pair across two machines, first serving.
fn pingpong_pair(cluster: &mut Cluster, a: MachineId, b: MachineId) {
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
}

/// 64 machines, two active ping-pong pairs, everything else idle. The
/// scan-based loop visited all 64 nodes per step (≥64 visits/step); the
/// indexed loop must only touch the four machines doing work, plus their
/// transport chatter — single digits per step.
#[test]
fn mostly_idle_cluster_stays_within_visit_budget() {
    let mut cluster = ClusterBuilder::new(64).seed(7).no_trace().build();
    pingpong_pair(&mut cluster, m(3), m(11));
    pingpong_pair(&mut cluster, m(40), m(59));
    // Warm up past bootstrap, then measure steady state.
    cluster.run_for(Duration::from_millis(5));
    cluster.reset_step_stats();
    cluster.run_for(Duration::from_millis(100));
    let stats = cluster.step_stats();
    assert!(
        stats.steps > 100,
        "expected a busy steady state, got {} steps",
        stats.steps
    );
    let per_step = stats.node_visits() as f64 / stats.steps as f64;
    assert!(
        per_step <= 10.0,
        "event loop visits {per_step:.2} nodes/step on a 64-machine \
         mostly-idle cluster (stats: {stats:?}); an O(n) scan crept back in"
    );
}

/// The budget must not grow with cluster size: the same two-pair workload
/// on 8 and 128 machines costs the same visits per step.
#[test]
fn visit_cost_is_independent_of_cluster_size() {
    let run = |n: usize| {
        let mut cluster = ClusterBuilder::new(n).seed(7).no_trace().build();
        pingpong_pair(&mut cluster, m(0), m(1));
        pingpong_pair(&mut cluster, m(2), m(3));
        cluster.run_for(Duration::from_millis(5));
        cluster.reset_step_stats();
        cluster.run_for(Duration::from_millis(100));
        let stats = cluster.step_stats();
        stats.node_visits() as f64 / stats.steps.max(1) as f64
    };
    let small = run(8);
    let large = run(128);
    assert!(
        large <= small * 1.5 + 1.0,
        "visits/step grew with cluster size: {small:.2} @ 8 machines vs \
         {large:.2} @ 128"
    );
}

/// Sanity: the counters actually count, and reset clears them.
#[test]
fn step_stats_accumulate_and_reset() {
    let mut cluster = ClusterBuilder::new(2).seed(1).no_trace().build();
    pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(10));
    let stats = cluster.step_stats();
    assert!(stats.steps > 0);
    assert!(stats.cpu_visits > 0, "pingpong activations ran");
    assert!(stats.frame_visits > 0, "balls crossed the network");
    assert_eq!(
        stats.node_visits(),
        stats.cpu_visits + stats.frame_visits + stats.timer_visits
    );
    cluster.reset_step_stats();
    assert_eq!(cluster.step_stats(), StepStats::default());
}
