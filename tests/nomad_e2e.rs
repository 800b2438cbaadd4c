//! Self-requested migration (§3.1): a process asks the process manager to
//! move it, repeatedly, and hops around the cluster while computing.

use demos_mp::sim::boot::{boot_system, BootConfig};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{nomad_stats, Nomad};

#[test]
fn nomad_hops_the_cluster_by_its_own_request() {
    let n = 4u16;
    let mut cluster = Cluster::mesh(n as usize);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let nomad = cluster
        .spawn(
            MachineId(1),
            "nomad",
            &Nomad::state(n, 20_000),
            ImageLayout::default(),
        )
        .unwrap();
    let pm = cluster.link_to(handles.procmgr).unwrap();
    cluster
        .post(nomad, wl::INIT, bytes::Bytes::new(), vec![pm])
        .unwrap();

    cluster.run_for(Duration::from_secs(2));

    let machine = cluster.where_is(nomad).expect("alive somewhere");
    let p = cluster.node(machine).kernel.process(nomad).unwrap();
    let (hops, failed, work) = nomad_stats(&p.program.as_ref().unwrap().save());
    assert!(hops >= 5, "nomad migrated itself repeatedly: {hops} hops");
    assert_eq!(failed, 0, "every self-request succeeded");
    assert!(work > hops, "it kept computing between hops");
    assert_eq!(p.migrations as u64, hops, "kernel agrees on the hop count");
    // It visited several machines: forwarding addresses mark the trail.
    let machines_with_entries = (0..n)
        .filter(|&i| {
            cluster
                .node(MachineId(i))
                .kernel
                .forwarding_table()
                .contains_key(&nomad)
        })
        .count();
    assert!(
        machines_with_entries >= 2,
        "trail of forwarding addresses: {machines_with_entries}"
    );
}

#[test]
fn nomad_survives_pm_migration() {
    // Even the process manager can move while nomads depend on it: their
    // stale PM links get forwarded and updated like any other.
    let n = 3u16;
    let mut cluster = Cluster::mesh(n as usize);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let nomad = cluster
        .spawn(
            MachineId(1),
            "nomad",
            &Nomad::state(n, 30_000),
            ImageLayout::default(),
        )
        .unwrap();
    let pm = cluster.link_to(handles.procmgr).unwrap();
    cluster
        .post(nomad, wl::INIT, bytes::Bytes::new(), vec![pm])
        .unwrap();
    cluster.run_for(Duration::from_millis(500));

    cluster.migrate(handles.procmgr, MachineId(2)).unwrap();
    cluster.run_for(Duration::from_secs(1));

    let machine = cluster.where_is(nomad).unwrap();
    let p = cluster.node(machine).kernel.process(nomad).unwrap();
    let (hops, failed, _) = nomad_stats(&p.program.as_ref().unwrap().save());
    assert!(
        hops >= 5,
        "hopping continued after the PM itself moved: {hops}"
    );
    assert_eq!(failed, 0);
}
