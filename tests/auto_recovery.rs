//! End-to-end failure detection and automatic recovery: a machine dies
//! permanently mid-service, surviving kernels' heartbeat detectors
//! confirm the death, the recovery manager re-homes the dead machine's
//! processes from their checkpoints, link-update traffic re-points the
//! clients, and the workload resumes making progress — with the delivery
//! ledger still clean.

use demos_mp::sim::export::machine_registry;
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{client_stats, Client, EchoServer};
use demos_mp::sim::span::ledger_of;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn recovery_cluster(n: usize) -> Cluster {
    ClusterBuilder::new(n)
        .seed(11)
        .kernel_config(KernelConfig {
            heartbeat_every: Duration::from_millis(2),
            suspect_after: 3,
            dead_after: 10,
            ..KernelConfig::default()
        })
        .recovery(RecoveryConfig {
            checkpoint_every: Duration::from_millis(5),
            protect_all: false,
        })
        .build()
}

/// The tentpole scenario: crash the echo server's machine, watch the
/// detector confirm it, the server re-home onto a survivor, and the
/// client's replies resume flowing.
#[test]
fn crashed_server_is_detected_rehomed_and_service_resumes() {
    let mut cluster = recovery_cluster(3);
    let server = cluster
        .spawn(
            m(1),
            "echo_server",
            &EchoServer::state(20),
            ImageLayout::default(),
        )
        .unwrap();
    let client = cluster
        .spawn(
            m(0),
            "client",
            &Client::state(400, 1_000, 64),
            ImageLayout::default(),
        )
        .unwrap();
    let ls = cluster.link_to(server).unwrap();
    cluster
        .post(client, wl::INIT, bytes::Bytes::new(), vec![ls])
        .unwrap();
    cluster.protect(server);
    cluster.run_for(Duration::from_millis(50));
    let warm = {
        let p = cluster.node(m(0)).kernel.process(client).unwrap();
        client_stats(&p.program.as_ref().unwrap().save())
    };
    assert!(warm.recv > 10, "service warmed up: {} replies", warm.recv);

    // Permanent death of the server's machine.
    cluster.crash(m(1));
    cluster.run_for(Duration::from_millis(200));

    let r = cluster.recovery().expect("recovery manager attached");
    let ep = r
        .episodes()
        .iter()
        .find(|e| e.machine == m(1))
        .expect("death detected and recovery episode recorded");
    assert_eq!(ep.rehomed, 1, "the protected server was re-homed");
    let crashed_at = ep.crashed_at.expect("ground-truth crash time known");
    assert!(ep.detected_at > crashed_at, "detection follows the crash");
    assert!(
        ep.recovered_at >= ep.detected_at,
        "re-homing follows detection"
    );
    let home = cluster.where_is(server).expect("server is back");
    assert_ne!(home, m(1), "re-homed onto a survivor");

    // The recovery pass pulled the dead machine's black box.
    let (pm_machine, pm_text) = r
        .postmortems()
        .iter()
        .find(|(machine, _)| *machine == m(1))
        .expect("post-mortem captured for the dead machine");
    assert_eq!(*pm_machine, m(1));
    assert!(
        pm_text.contains("flight recorder m1"),
        "post-mortem names the machine: {pm_text}"
    );

    // The client keeps getting answers from the re-homed server.
    let mid = {
        let p = cluster.node(m(0)).kernel.process(client).unwrap();
        client_stats(&p.program.as_ref().unwrap().save())
    };
    cluster.run_for(Duration::from_millis(300));
    let after = {
        let p = cluster.node(m(0)).kernel.process(client).unwrap();
        client_stats(&p.program.as_ref().unwrap().save())
    };
    assert!(
        after.recv > mid.recv,
        "replies resumed after recovery: {} → {}",
        mid.recv,
        after.recv
    );

    // Surviving kernels reached the dead verdict and bounced dead-bound
    // traffic instead of retransmitting forever.
    let det = cluster.node(m(0)).kernel.detector_stats();
    assert_eq!(det.confirmed_dead, 1, "m0 confirmed exactly one death");
    assert_eq!(det.false_positives, 0, "no premature verdicts");

    // Exactly-once held across the whole episode.
    let ledger = ledger_of(cluster.trace());
    assert!(
        ledger.duplicates().is_empty(),
        "no duplicated deliveries across crash + re-home"
    );
}

/// Detector soundness under no faults: heartbeats flow, but nothing is
/// ever suspected-then-confirmed — false positives stay zero on every
/// machine, asserted both on the kernel counters and through the
/// metrics-registry export.
#[test]
fn no_fault_run_has_zero_false_positives() {
    let mut cluster = recovery_cluster(4);
    let server = cluster
        .spawn(
            m(2),
            "echo_server",
            &EchoServer::state(20),
            ImageLayout::default(),
        )
        .unwrap();
    let client = cluster
        .spawn(
            m(3),
            "client",
            &Client::state(200, 500, 32),
            ImageLayout::default(),
        )
        .unwrap();
    let ls = cluster.link_to(server).unwrap();
    cluster
        .post(client, wl::INIT, bytes::Bytes::new(), vec![ls])
        .unwrap();
    cluster.run_for(Duration::from_millis(400));

    for i in 0..4 {
        let reg = machine_registry(cluster.node(m(i)));
        assert!(reg.counter("hb_sent") > 0, "m{i} heartbeated");
        assert_eq!(
            reg.counter("false_positives"),
            0,
            "m{i} suspected a live peer and heard it again"
        );
        assert_eq!(
            reg.counter("peers_confirmed_dead"),
            0,
            "m{i} confirmed a live peer dead"
        );
        let det = cluster.node(m(i)).kernel.detector_stats();
        assert_eq!(det.confirmed_dead, 0);
        assert_eq!(det.false_positives, 0);
    }
}

/// A checkpoint that cannot be replaced is kept: a protected process
/// that outgrows the state record (here its communication accounting,
/// past 65 535 entries) is refused by every later checkpoint pass, and
/// when its machine dies it is re-homed from the last good one.
#[test]
fn a_process_that_can_no_longer_be_checkpointed_is_rehomed_from_its_last_good_one() {
    let mut cluster = recovery_cluster(3);
    let server = cluster
        .spawn(
            m(1),
            "echo_server",
            &EchoServer::state(20),
            ImageLayout::default(),
        )
        .unwrap();
    cluster.protect(server);
    cluster.run_for(Duration::from_millis(12));
    let taken_at = |c: &Cluster| {
        let r = c.recovery().expect("recovery manager attached");
        r.checkpoint_of(server).map(|ck| ck.taken_at)
    };
    let last_good = taken_at(&cluster).expect("checkpointed while it still could be");

    let accounting = &mut cluster
        .node_mut(m(1))
        .kernel
        .process_mut(server)
        .unwrap()
        .bytes_sent_to;
    accounting.extend((0..=u16::MAX).map(|i| (m(i), 1)));
    let now = cluster.now();
    assert!(matches!(
        cluster.node_mut(m(1)).kernel.checkpoint(now, server),
        Err(demos_mp::types::DemosError::TooLarge { .. })
    ));
    let taken = cluster.recovery().unwrap().stats().checkpoints;
    cluster.run_for(Duration::from_millis(30));
    assert_eq!(
        cluster.recovery().unwrap().stats().checkpoints,
        taken,
        "every later pass refused it"
    );
    assert_eq!(
        taken_at(&cluster),
        Some(last_good),
        "and kept the older one"
    );

    cluster.crash(m(1));
    cluster.run_for(Duration::from_millis(200));
    let r = cluster.recovery().unwrap();
    let ep = r
        .episodes()
        .iter()
        .find(|e| e.machine == m(1))
        .expect("death detected and recovery episode recorded");
    assert_eq!(ep.rehomed, 1, "re-homed from the last good checkpoint");
    let home = cluster.where_is(server).expect("server is back");
    assert_ne!(home, m(1), "on a survivor");
}
