//! The host cost of a simulated machine.
//!
//! A DEMOS/MP kernel keeps no table of the other processors, so what a
//! machine holds is proportional to what lives on it (§4: a forwarding
//! address is 8 bytes). This file holds the simulator to the same law
//! where the allocator can see it: building `n` machines takes a number
//! of allocations and a number of bytes per machine that do not depend on
//! `n`, a cluster whose only activity is timers firing allocates nothing
//! at all, and the one bound `n` does have — a machine id is 16 bits —
//! is refused by name instead of aliasing ids.

mod common;

use common::{allocs_in, live_bytes_in};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::CpuBurner;

/// A cluster with nothing on it and every optional recording off.
fn bare(n: usize) -> Cluster {
    ClusterBuilder::new(n)
        .no_trace()
        .recorder_capacity(0)
        .build()
}

#[test]
fn building_a_machine_costs_the_same_in_any_cluster() {
    let built: Vec<(usize, usize, isize)> = [256, 1_024, 4_096]
        .into_iter()
        .map(|n| {
            let (cluster, allocs, live) = live_bytes_in(|| bare(n));
            assert_eq!(cluster.len(), n);
            (n, allocs, live / n as isize)
        })
        .collect();
    let (_, small_allocs, small_bytes) = built[0];
    for &(n, allocs, bytes) in &built {
        // A fixed number of cluster-wide tables, whatever their length:
        // no per-machine block.
        assert!(
            allocs.abs_diff(small_allocs) <= 8,
            "{n} machines took {allocs} allocations, 256 took {small_allocs}"
        );
        assert!(
            (bytes - small_bytes).abs() <= 16,
            "{bytes} B per machine at {n}, {small_bytes} B at 256"
        );
        assert!(bytes < 1_536, "{bytes} B per machine at {n}");
    }
}

#[test]
fn timers_firing_across_an_idle_cluster_allocate_nothing() {
    const PERIOD_US: u32 = 1_000;
    let mut cluster = bare(64);
    for i in (0..64).step_by(2) {
        cluster
            .spawn(
                MachineId(i),
                "cpu_burner",
                &CpuBurner::state(0, 10, PERIOD_US),
                ImageLayout::default(),
            )
            .expect("spawn burner");
    }
    // Every burner arms the same period at time zero: 32 timers fire at
    // one instant and 32 machines join and leave the runnable set in one
    // step, which is where a growing set used to allocate.
    for _ in 0..2_000 {
        assert!(cluster.step());
    }
    let before = cluster.step_stats();
    let (_, all, _) = allocs_in(|| {
        for _ in 0..20_000 {
            assert!(cluster.step());
        }
    });
    let fired = cluster.step_stats().timer_visits - before.timer_visits;
    assert!(fired >= 20_000, "{fired} timers fired");
    assert_eq!(all, 0, "{all} allocations in 20 000 steps");
}

#[test]
fn the_whole_machine_space_builds() {
    let cluster = bare(1 << 16);
    assert_eq!(cluster.len(), 65_536);
    assert_eq!(
        cluster.node(MachineId(u16::MAX)).machine(),
        MachineId(u16::MAX)
    );
}

#[test]
#[should_panic(expected = "16-bit machine space")]
fn one_machine_more_than_the_id_space_is_refused() {
    bare(65_537);
}

#[test]
#[should_panic(expected = "16-bit machine space")]
fn a_topology_larger_than_the_id_space_is_refused() {
    ClusterBuilder::new(4)
        .topology(Topology::full_mesh(65_537, EdgeParams::default()))
        .build();
}
