//! Context reuse across a source reboot, end to end.
//!
//! Companion to `tests/engine_total.rs`'s duplicate-offer row (the
//! engine-level pin of the reservation leak found by `demos-lint` D007).
//! Context numbers are per-source in-memory counters, so a source
//! that reboots mid-migration restarts numbering from 1 — the exact
//! collision the engine's `RejectReason::Protocol` guard defends against.
//! End to end, the collision must not even form: the destination's
//! channel sees the new incarnation, aborts the dead incarnation's
//! in-flight migration, and releases its reservation, so the rebooted
//! source's reused context is fresh traffic and migrates cleanly.

use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::EchoServer;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

#[test]
fn rebooted_source_reusing_a_context_neither_collides_nor_leaks() {
    let mut cluster = Cluster::mesh(2);
    // A bulky image so the first migration is still streaming when the
    // source dies: the destination holds a live reservation for
    // (m0, ctx=1) at the moment of the crash.
    let bulky = ImageLayout {
        code: 256 * 1024,
        data: 64 * 1024,
        stack: 64 * 1024,
    };
    let p1 = cluster
        .spawn(m(0), "echo_server", &EchoServer::state(50), bulky)
        .unwrap();
    cluster.run_for(Duration::from_millis(10));
    let mem_idle = cluster.node(m(1)).kernel.mem_used();

    // Steps 1–3: offer sent, accepted, reservation made at m1.
    cluster.migrate(p1, m(1)).unwrap();
    let mut guard = 0u32;
    while cluster.node(m(1)).engine.in_flight() == 0 {
        assert!(
            cluster.step(),
            "event queue drained before the offer landed"
        );
        guard += 1;
        assert!(guard < 2_000_000, "offer never reached the destination");
    }
    assert_eq!(
        cluster.where_is(p1),
        Some(m(0)),
        "the transfer must still be in flight when the source dies"
    );
    assert!(cluster.node(m(1)).kernel.mem_used() > mem_idle, "reserved");

    // The source dies mid-transfer and reboots immediately. Its fresh
    // engine restarts context numbering from 1.
    cluster.crash(m(0));
    cluster.revive(m(0));

    let p2 = cluster
        .spawn(
            m(0),
            "echo_server",
            &EchoServer::state(50),
            ImageLayout::default(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(20));
    cluster.migrate(p2, m(1)).unwrap();
    cluster.run_for(Duration::from_millis(500));

    // The new incarnation's traffic made the destination abort the dead
    // incarnation's migration — so the reused ctx=1 was fresh, accepted,
    // and completed; nothing was overwritten and nothing rejected.
    let dst = cluster.node(m(1)).engine.stats();
    assert_eq!(dst.aborted, 1, "stale incoming purged on reboot: {dst:?}");
    assert_eq!(dst.completed_in, 1, "reused context accepted: {dst:?}");
    assert_eq!(dst.rejected, 0, "no protocol violation end to end: {dst:?}");
    assert_eq!(cluster.where_is(p2), Some(m(1)));

    // And the leak guard: the aborted migration's reservation was
    // released — only p2's (default-layout) image remains accounted.
    let settled = cluster.node(m(1)).kernel.mem_used();
    assert!(
        settled < mem_idle + u64::from(256 * 1024u32),
        "stale bulky reservation must be released (mem_used {settled})"
    );
}
