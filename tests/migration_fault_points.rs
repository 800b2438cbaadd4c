//! A fault at every step of a migration.
//!
//! The reference run migrates a 3 KB `cargo` from m0 to m1 on a 3-machine
//! mesh (m2 looks on). For every event-loop step `k` of that migration and
//! every fault below, a fresh cluster runs `k` steps, takes the fault, and
//! runs three more virtual seconds — far past the 200 ms migration
//! timeout. Then, on every live machine:
//!
//! * the engine has nothing in flight;
//! * `mem_used` equals the images actually resident (no stranded
//!   reservation);
//! * no process is left frozen (`in_migration`);
//!
//! and across the cluster the process has **at most one live copy**.
//!
//! The sweep runs twice, without and with the heartbeat failure detector.
//! It enumerates what the chaos fuzzer only samples, and pins the one
//! exception it found (an open finding, DESIGN.md §7): with the detector
//! on, isolating the *live* source while both machines hold the process —
//! after the destination installed its copy, before the source processed
//! `TransferComplete` — ends with two live copies. The destination
//! commits because the detector (falsely) confirms the source dead; the
//! source, alive but cut off, times out and thaws its own. The fuzzer's
//! partitions cut single mesh edges, which reroute, so it never isolates a
//! machine mid-handshake.
//!
//! The same cut has a mirror image with the detector *off*, pinned
//! alongside: isolate the source one step later — it has cleaned up, its
//! `CleanupDone` is on the wire — and the destination's timeout kills the
//! installed copy, the only one. No machine crashed and the process is
//! gone. (`on_peer_dead` documents that guess; the detector exists to
//! avoid it.) Everywhere else a process vanishes only with a crashed
//! machine.

use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::Cargo;

const SRC: MachineId = MachineId(0);
const DEST: MachineId = MachineId(1);
const BYSTANDER: MachineId = MachineId(2);
const TIMEOUT: Duration = Duration::from_millis(200);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    CrashDest,
    CrashSource,
    RebootDest,
    RebootSource,
    /// Cut the source off from both other machines, for good.
    IsolateSource,
    /// The same, healed once both sides' timeouts have fired.
    IsolateSourceThenHeal,
    /// A second `migrate` of the same process while the first is running.
    MigrateAgain,
}

const FAULTS: [Fault; 8] = [
    Fault::None,
    Fault::CrashDest,
    Fault::CrashSource,
    Fault::RebootDest,
    Fault::RebootSource,
    Fault::IsolateSource,
    Fault::IsolateSourceThenHeal,
    Fault::MigrateAgain,
];

/// A cluster with the migration just requested, and the migrating pid.
fn migrating_cluster(heartbeats: bool) -> (Cluster, ProcessId) {
    let heartbeat_every = if heartbeats {
        Duration::from_millis(10)
    } else {
        Duration::ZERO
    };
    let mut cluster = ClusterBuilder::new(3)
        .no_trace()
        .kernel_config(KernelConfig {
            heartbeat_every,
            ..KernelConfig::default()
        })
        .migration_config(MigrationConfig {
            timeout: TIMEOUT,
            ..MigrationConfig::default()
        })
        .build();
    let pid = cluster
        .spawn(
            SRC,
            "cargo",
            &Cargo::state(3 * 1024),
            ImageLayout::default(),
        )
        .expect("spawn cargo");
    cluster.run_for(Duration::from_millis(5));
    cluster.migrate(pid, DEST).expect("start the migration");
    (cluster, pid)
}

fn holds(cluster: &Cluster, m: MachineId, pid: ProcessId) -> bool {
    !cluster.is_crashed(m) && cluster.node(m).kernel.process(pid).is_some()
}

/// Event-loop steps from the request until the process runs at `DEST` and
/// every engine is idle again.
fn reference_steps(heartbeats: bool) -> usize {
    let (mut cluster, pid) = migrating_cluster(heartbeats);
    let mut steps = 0;
    while !(0..3).all(|i| cluster.node(MachineId(i)).engine.in_flight() == 0) {
        assert!(
            cluster.step(),
            "the event queue drained under a live migration"
        );
        steps += 1;
        assert!(steps < 1_000, "the reference migration never completed");
    }
    assert_eq!(cluster.where_is(pid), Some(DEST));
    steps
}

fn inject(cluster: &mut Cluster, pid: ProcessId, fault: Fault) {
    let isolate = |cluster: &mut Cluster| {
        assert!(cluster.partition(SRC, DEST) && cluster.partition(SRC, BYSTANDER));
    };
    match fault {
        Fault::None => {}
        Fault::CrashDest => cluster.crash(DEST),
        Fault::CrashSource => cluster.crash(SRC),
        Fault::RebootDest => {
            cluster.crash(DEST);
            cluster.revive(DEST);
        }
        Fault::RebootSource => {
            cluster.crash(SRC);
            cluster.revive(SRC);
        }
        Fault::IsolateSource => isolate(cluster),
        Fault::IsolateSourceThenHeal => {
            isolate(cluster);
            cluster.run_for(TIMEOUT + TIMEOUT);
            assert_eq!(cluster.heal_all(), 2);
        }
        // Refused (`AlreadyMigrating`) while the first is in flight, an
        // ordinary second migration once it is not; clean either way.
        Fault::MigrateAgain => drop(cluster.migrate(pid, BYSTANDER)),
    }
}

/// Run one fault point. Returns where the handshake stood when the fault
/// struck — (the source holds the process, the destination holds an
/// installed copy still awaiting `CleanupDone`) — and the live copies at
/// the end.
fn run_point(heartbeats: bool, k: usize, fault: Fault) -> ((bool, bool), usize) {
    let (mut cluster, pid) = migrating_cluster(heartbeats);
    for _ in 0..k {
        cluster.step();
    }
    let awaiting = cluster.node(DEST).kernel.process(pid);
    let awaiting = awaiting.is_some_and(|p| p.in_migration);
    let held = (holds(&cluster, SRC, pid), awaiting);
    inject(&mut cluster, pid, fault);
    cluster.run_for(Duration::from_secs(3));

    let at = format!("heartbeats {heartbeats}, step {k}, {fault:?}");
    let mut copies = 0;
    for m in [SRC, DEST, BYSTANDER] {
        if cluster.is_crashed(m) {
            continue;
        }
        let node = cluster.node(m);
        assert_eq!(node.engine.in_flight(), 0, "{at}: {m:?} still in flight");
        let mut resident = 0;
        for p in node.kernel.pids().filter_map(|p| node.kernel.process(p)) {
            assert!(!p.in_migration, "{at}: {:?} left frozen on {m:?}", p.pid);
            resident += p.image.total_len() as u64;
        }
        assert_eq!(
            node.kernel.mem_used(),
            resident,
            "{at}: {m:?} strands a reservation"
        );
        copies += usize::from(holds(&cluster, m, pid));
    }
    (held, copies)
}

fn sweep(heartbeats: bool) {
    let steps = reference_steps(heartbeats);
    assert!(steps >= 20, "the reference migration is {steps} steps");
    let mut split = Vec::new();
    for k in 0..=steps + 1 {
        for fault in FAULTS {
            let (held, copies) = run_point(heartbeats, k, fault);
            let at = format!(
                "heartbeats {heartbeats}, step {k}, {fault:?}: {copies} live copies \
                 (source holds it, destination awaits cleanup, at the fault: {held:?})"
            );
            let isolation = matches!(fault, Fault::IsolateSource | Fault::IsolateSourceThenHeal);
            // The two pinned exceptions, exactly: see the module docs.
            let splits = heartbeats && isolation && held == (true, true);
            assert_eq!(copies > 1, splits, "{at}");
            let vanishes = !heartbeats && isolation && held == (false, true);
            if isolation || matches!(fault, Fault::None | Fault::MigrateAgain) {
                assert_eq!(copies == 0, vanishes, "{at}");
            }
            if copies > 1 {
                split.push((k, fault));
            }
        }
    }
    // With the detector on, both isolation variants split at each step of
    // the both-held window; a protocol fix empties this and re-pins here.
    assert_eq!(split.is_empty(), !heartbeats, "{split:?}");
}

#[test]
fn a_fault_at_every_step_without_the_detector() {
    sweep(false);
}

#[test]
fn a_fault_at_every_step_with_the_detector() {
    sweep(true);
}
