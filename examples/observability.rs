//! The observability layer end to end: causal message spans, the
//! migration-phase profiler, the always-on flight recorder, the
//! pending-queue gauge, and the `demos-top` cluster report.
//!
//! A ping-pong pair rallies across machines while one end is migrated.
//! Every message was stamped with a correlation id at its first kernel,
//! so the flat trace decomposes into per-message journeys: the balls
//! that chased the forwarding address show an extra hop (§4) and the
//! link update that repaired the sender's table (§5). The same trace
//! stitches into one migration lifecycle span — the §6 phase table with
//! per-step durations and byte counts. And independent of the trace,
//! every machine's flight recorder kept a bounded ring of compact
//! records: the black box a post-mortem (or the `demos-trace` CLI)
//! reads after a crash. Polling the source kernel's pending-queue gauge
//! between short slices of the run catches §3.1 step 6 in the act.
//!
//! Run: `cargo run --example observability`

use demos_mp::obs::recorder::{merge, parse_dump, PhaseTable};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::PingPong;
use demos_mp::sim::{latency_histogram, migration_spans_of, spans_of};

fn main() {
    println!("DEMOS/MP: watching a live migration through the observability layer\n");
    let mut cluster = Cluster::mesh(3);
    let pa = cluster
        .spawn(
            MachineId(0),
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = cluster
        .spawn(
            MachineId(1),
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let (la, lb) = (cluster.link_to(pa).unwrap(), cluster.link_to(pb).unwrap());
    cluster
        .post(pa, wl::INIT, bytes::Bytes::from_static(&[1]), vec![lb])
        .unwrap();
    cluster
        .post(pb, wl::INIT, bytes::Bytes::from_static(&[0]), vec![la])
        .unwrap();
    cluster.run_for(Duration::from_millis(50));

    println!(">> migrating pb to m2 while balls are in flight …\n");
    cluster.migrate(pb, MachineId(2)).unwrap();
    let mut pending_peak = 0;
    cluster.run_with_quantum(
        Duration::from_millis(300),
        Duration::from_micros(500),
        |c| {
            pending_peak = pending_peak.max(c.node(MachineId(1)).kernel.pending_queue_len());
            true
        },
    );

    // Per-message journeys, reconstructed from correlation ids alone.
    let spans = spans_of(cluster.trace());
    let delivered = spans.iter().filter(|s| s.latency().is_some()).count();
    println!(
        "{} message journeys traced, {delivered} delivered",
        spans.len()
    );

    println!("\njourneys that chased the forwarding address (§4):");
    for s in spans.iter().filter(|s| s.forward_hops() >= 1) {
        let hops: Vec<String> = s
            .hops
            .iter()
            .map(|h| format!("{:?}@m{}", h.kind, h.machine.0))
            .collect();
        println!(
            "  {:?} → {}  ({} forward hop(s), {} link update(s), end-to-end {})",
            s.corr,
            hops.join(" → "),
            s.forward_hops(),
            s.link_updates_sent,
            s.latency().unwrap(),
        );
    }

    // Log-bucketed HDR-style histogram: p50/p90/p99/p999 in microseconds.
    let h = latency_histogram(spans.iter().filter(|s| s.forward_hops() == 0));
    println!("\ndirect delivery latency: {}", h.summary());

    // The same trace stitched as one migration lifecycle — §6's table.
    println!("\nmigration lifecycle (the §6 phase table):");
    print!("{}", cluster.phase_report());
    for m in migration_spans_of(cluster.trace()) {
        println!(
            "  residual forwarding: {} message(s) chased pb after cleanup",
            m.forwards
        );
    }

    // The flight recorder's view: serialize every machine's black box,
    // parse it back as demos-trace would, and rebuild the phase costs
    // from the 32-byte records alone.
    let dump = cluster.recorder_dump();
    let nodes = parse_dump(&dump).expect("own dump parses");
    println!(
        "\nflight recorder: {} bytes across {} machine rings",
        dump.len(),
        nodes.len()
    );
    let table = PhaseTable::from_records(&merge(&nodes));
    print!("{}", table.render());

    // The pending-queue gauge, polled every 500 µs, caught step 6 in the act.
    println!(
        "\nm1 pending-queue gauge (polled every 500us): peak {pending_peak} held, now {}",
        cluster.node(MachineId(1)).kernel.pending_queue_len(),
    );

    println!("\n{}", cluster.report());
}
