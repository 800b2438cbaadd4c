//! Quickstart: transparent migration of a chattering process.
//!
//! Two ping-pong processes rally a message between machines m0 and m1;
//! we migrate one of them to m2 mid-conversation and watch the rally
//! continue without either process noticing — the forwarding address
//! redirects the first stale ball and the link update re-aims the
//! sender's link (paper §4–§5).
//!
//! Run: `cargo run --example quickstart`

use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{pingpong_rallies, PingPong};

fn rallies(cluster: &Cluster, pid: ProcessId) -> u64 {
    let m = cluster.where_is(pid).expect("alive");
    let p = cluster.node(m).kernel.process(pid).unwrap();
    pingpong_rallies(&p.program.as_ref().unwrap().save())
}

fn main() {
    println!("DEMOS/MP quickstart: migrate a process mid-conversation\n");
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
    let la = cluster.link_to(pa).unwrap();
    let lb = cluster.link_to(pb).unwrap();
    cluster
        .post(pa, wl::INIT, bytes::Bytes::from_static(&[1]), vec![lb])
        .unwrap();
    cluster
        .post(pb, wl::INIT, bytes::Bytes::from_static(&[0]), vec![la])
        .unwrap();

    cluster.run_for(Duration::from_millis(100));
    println!(
        "t={}  rally running: pa@{} has {} rallies, pb@{} has {}",
        cluster.now(),
        cluster.where_is(pa).unwrap(),
        rallies(&cluster, pa),
        cluster.where_is(pb).unwrap(),
        rallies(&cluster, pb),
    );

    println!("\n>> migrating pb to m2 while balls are in flight …\n");
    cluster.migrate(pb, MachineId(2)).unwrap();
    cluster.run_for(Duration::from_millis(400));

    println!(
        "t={}  pb now lives on {} with {} rallies; pa kept playing ({} rallies)",
        cluster.now(),
        cluster.where_is(pb).unwrap(),
        rallies(&cluster, pb),
        rallies(&cluster, pa),
    );
    println!(
        "forwarded messages: {}   link updates applied: {}",
        cluster.trace().forwards_for(pb),
        cluster.trace().link_updates_for(pa),
    );
    let fwd = cluster.node(MachineId(1)).kernel.forwarding_table();
    println!(
        "m1 keeps an 8-byte forwarding address: {:?} → {}",
        pb,
        fwd.get(&pb).map(|e| e.to).unwrap()
    );

    // The eight steps of §3.1, stitched from the trace and priced per
    // phase: the `demos-top` phase panel's row for pb.
    println!();
    print!("{}", cluster.phase_report());
}
