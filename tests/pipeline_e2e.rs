//! Pipeline workload: tokens flow source → stage → stage → sink over
//! links; migrating a middle stage must not lose or duplicate a token —
//! the "processes cooperating in a computation" of §3.1.

use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{stage_processed, Stage};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn processed(cluster: &Cluster, pid: ProcessId) -> u64 {
    let machine = cluster.where_is(pid).unwrap();
    let p = cluster.node(machine).kernel.process(pid).unwrap();
    stage_processed(&p.program.as_ref().unwrap().save())
}

/// Build a 4-stage pipeline across 4 machines, returning the stage pids.
fn pipeline(cluster: &mut Cluster) -> Vec<ProcessId> {
    let stages: Vec<ProcessId> = (0..4)
        .map(|i| {
            cluster
                .spawn(m(i), "stage", &Stage::state(100), ImageLayout::default())
                .unwrap()
        })
        .collect();
    // Wire each stage to the next (the last has no successor = sink).
    for w in stages.windows(2) {
        let next = cluster.link_to(w[1]).unwrap();
        cluster
            .post(w[0], wl::INIT, bytes::Bytes::new(), vec![next])
            .unwrap();
    }
    cluster.run_for(Duration::from_millis(10));
    stages
}

fn inject(cluster: &mut Cluster, head: ProcessId, n: usize) {
    for i in 0..n {
        cluster
            .post(head, wl::PIPE, bytes::Bytes::from(vec![i as u8]), vec![])
            .unwrap();
    }
}

#[test]
fn tokens_traverse_all_stages() {
    let mut cluster = Cluster::mesh(4);
    let stages = pipeline(&mut cluster);
    inject(&mut cluster, stages[0], 25);
    cluster.run_quiescent(Duration::from_secs(10));
    for (i, &s) in stages.iter().enumerate() {
        assert_eq!(processed(&cluster, s), 25, "stage {i} saw every token");
    }
}

#[test]
fn migrating_a_middle_stage_loses_nothing() {
    let mut cluster = Cluster::mesh(5);
    let stages = pipeline(&mut cluster);
    // Keep a steady token stream flowing while stage 1 moves.
    inject(&mut cluster, stages[0], 30);
    cluster.run_for(Duration::from_millis(10));
    cluster.migrate(stages[1], m(4)).unwrap();
    cluster.run_for(Duration::from_millis(50));
    inject(&mut cluster, stages[0], 30);
    cluster.run_quiescent(Duration::from_secs(10));

    assert_eq!(cluster.where_is(stages[1]), Some(m(4)));
    for (i, &s) in stages.iter().enumerate() {
        assert_eq!(
            processed(&cluster, s),
            60,
            "stage {i} processed every token exactly once across the migration"
        );
    }
    // Stage 0's link to stage 1 was updated to the new location.
    let p0 = cluster.node(m(0)).kernel.process(stages[0]).unwrap();
    for (_, l) in p0.links.iter().filter(|(_, l)| l.target() == stages[1]) {
        assert_eq!(l.addr.last_known_machine, m(4));
    }
}

#[test]
fn migrating_every_stage_onto_one_machine() {
    // Consolidation: the whole pipeline ends up colocated and still works
    // (local delivery short-circuits the network entirely).
    let mut cluster = Cluster::mesh(4);
    let stages = pipeline(&mut cluster);
    inject(&mut cluster, stages[0], 10);
    cluster.run_quiescent(Duration::from_secs(5));
    for &s in &stages[1..] {
        cluster.migrate(s, m(0)).unwrap();
        cluster.run_for(Duration::from_millis(400));
    }
    let net_before = cluster.net().stats().frames_sent;
    inject(&mut cluster, stages[0], 10);
    cluster.run_quiescent(Duration::from_secs(5));
    for &s in &stages {
        assert_eq!(processed(&cluster, s), 20);
    }
    let net_after = cluster.net().stats().frames_sent;
    assert_eq!(
        net_after, net_before,
        "colocated pipeline sends zero network frames"
    );
}
