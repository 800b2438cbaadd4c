//! End-to-end observability: causal spans and the pending-queue gauge
//! through a live migration.
//!
//! A ping-pong pair keeps rallying while one end is migrated. The span
//! reconstructor must recover the chased balls' journeys (including the
//! forwarding hop, §4) in agreement with the raw trace, and the source
//! kernel's pending-queue gauge, polled between short slices of the run,
//! must show the held messages of §3.1 step 6 — rising while the process
//! is frozen, back to zero once it restarts.

use demos_mp::obs::recorder::parse_dump;
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{self, PingPong};
use demos_mp::sim::{spans_of, DEFAULT_RECORDER_CAPACITY};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

/// Spawn a linked ping-pong pair, first process serving.
fn pingpong_pair(cluster: &mut Cluster, a: MachineId, b: MachineId) -> (ProcessId, ProcessId) {
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
    (pa, pb)
}

#[test]
fn spans_and_pending_gauge_track_a_live_migration() {
    let mut cluster = ClusterBuilder::new(3).build();
    let (pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(50));

    // Move pb from m1 to m2 while pa keeps sending balls at it, polling
    // m1's pending-queue gauge every 200 µs of virtual time.
    cluster.migrate(pb, m(2)).unwrap();
    let mut pending_peak = 0;
    cluster.run_with_quantum(
        Duration::from_millis(300),
        Duration::from_micros(200),
        |c| {
            pending_peak = pending_peak.max(c.node(m(1)).kernel.pending_queue_len());
            true
        },
    );
    assert_eq!(cluster.where_is(pb), Some(m(2)));
    cluster.run_for(Duration::from_millis(100));

    // (a) Span reconstruction: balls sent on pa's stale link chased the
    // forwarding address on m1 before reaching pb on m2.
    let spans = spans_of(cluster.trace());
    let chased: Vec<_> = spans
        .iter()
        .filter(|s| s.dest == pb && s.forward_hops() >= 1)
        .collect();
    assert!(
        !chased.is_empty(),
        "at least one ball chased the forwarding chain"
    );

    for s in &chased {
        // Hop count agrees with the raw trace for this correlation id.
        let raw_forwards = cluster.trace().count(
            |r| matches!(r.event, TraceEvent::ForwardedMessage { corr, .. } if corr == s.corr),
        );
        assert_eq!(s.forward_hops(), raw_forwards, "span {:?}", s.corr);

        // Every hop corresponds to a trace record at the same instant on
        // the same machine carrying the same id.
        for hop in &s.hops {
            assert!(
                cluster.trace().records().iter().any(|r| r.at == hop.at
                    && r.machine == hop.machine
                    && r.event.corr() == Some(s.corr)),
                "hop {hop:?} of span {:?} not backed by a trace record",
                s.corr
            );
        }

        // Per-hop latencies are consistent: non-decreasing times, and the
        // segments sum to the end-to-end latency.
        assert!(
            s.hops.windows(2).all(|w| w[0].at <= w[1].at),
            "hops in time order"
        );
        let total = s.latency().expect("chased ball was delivered");
        let seg_sum: u64 = s.hop_latencies().iter().map(|d| d.as_micros()).sum();
        assert_eq!(
            seg_sum,
            total.as_micros(),
            "hop segments span submission→delivery"
        );

        // Delivery happened at the destination machine.
        assert_eq!(s.delivered().unwrap().machine, m(2));
    }

    // The chase triggered §5 link updates, attributed to the same spans.
    assert!(
        chased.iter().any(|s| s.link_updates_sent >= 1),
        "forwarding kernel told the sender's kernel where pb went"
    );

    // (b) The pending-queue gauge on the source machine rose while pb
    // was frozen (arriving balls held, §3.1 step 6) …
    assert!(
        pending_peak >= 1,
        "held messages visible in the pending gauge"
    );
    // … and is back to zero after restart: the queue moved with the
    // process and the source cleaned up.
    assert_eq!(
        cluster.node(m(1)).kernel.pending_queue_len(),
        0,
        "pending queue drained after restart"
    );
    let _ = pa;
}

/// Run the live-migration scenario on a fresh cluster and return the
/// serialized flight-recorder dump.
fn scenario_dump(recorder_capacity: usize) -> Vec<u8> {
    let mut cluster = ClusterBuilder::new(3)
        .seed(99)
        .recorder_capacity(recorder_capacity)
        .build();
    let (_pa, pb) = pingpong_pair(&mut cluster, m(0), m(1));
    cluster.run_for(Duration::from_millis(50));
    cluster.migrate(pb, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(300));
    cluster.recorder_dump()
}

#[test]
fn recorder_dump_is_byte_deterministic() {
    // Same seed, same capacity, two independent clusters: the black box
    // must be byte-identical — the property that makes repro-*.flight
    // artifacts and E16's phase-cost table trustworthy.
    let a = scenario_dump(DEFAULT_RECORDER_CAPACITY);
    let b = scenario_dump(DEFAULT_RECORDER_CAPACITY);
    assert!(!a.is_empty());
    assert_eq!(a, b, "recorder dumps diverged across identical runs");
}

#[test]
fn recorder_ring_wraps_at_tiny_capacity() {
    let dump = scenario_dump(8);
    let nodes = parse_dump(&dump).expect("dump parses");
    assert_eq!(nodes.len(), 3, "one section per machine");
    for d in &nodes {
        assert_eq!(d.capacity, 8);
        assert!(
            d.records.len() <= 8,
            "m{} holds {} records, over capacity",
            d.machine,
            d.records.len()
        );
        // Held records are the newest ones, still in time order.
        assert!(
            d.records.windows(2).all(|w| w[0].at <= w[1].at),
            "m{} records out of order after wrap",
            d.machine
        );
    }
    // The busy machines ran far past 8 events: the ring wrapped and
    // counted what it shed rather than growing.
    let wrapped: Vec<_> = nodes.iter().filter(|d| d.dropped() > 0).collect();
    assert!(!wrapped.is_empty(), "no ring ever wrapped at capacity 8");
    for d in &wrapped {
        assert_eq!(d.records.len(), 8, "a wrapped ring is exactly full");
        assert_eq!(d.total, d.dropped() + 8, "drop accounting consistent");
    }
}
