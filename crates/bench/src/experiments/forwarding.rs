//! Forwarding and link-update experiments: E4 (per-message forwarding
//! overhead), E5 (link-update convergence), E7 (migration chains and
//! forwarding-address GC), E8 (the non-delivery ablation), E13
//! (`DELIVERTOKERNEL` during migration).

use crate::{section, Table};
use demos_sim::prelude::*;
use demos_sim::programs::{client_stats, Client, EchoServer};
use demos_types::proto::KernelOp;
use demos_types::wire::Wire;

fn m(i: u16) -> MachineId {
    MachineId(i)
}

/// Build an echo server on m0 with `k` clients on machines 1..=k.
fn client_server(cluster: &mut Cluster, k: u16, period_us: u32) -> (ProcessId, Vec<ProcessId>) {
    let server = cluster
        .spawn(
            m(0),
            "echo_server",
            &EchoServer::state(50),
            ImageLayout::default(),
        )
        .unwrap();
    let mut clients = Vec::new();
    for i in 1..=k {
        let c = cluster
            .spawn(
                m(i),
                "client",
                &Client::state(0, period_us, 32),
                ImageLayout::default(),
            )
            .unwrap();
        let link = cluster.link_to(server).unwrap();
        cluster
            .post(c, wl::INIT, bytes::Bytes::new(), vec![link])
            .unwrap();
        clients.push(c);
    }
    (server, clients)
}

/// E4 — each message through a forwarding address generates exactly two
/// additional messages: the forward and the link update (§6, Fig 4-1).
pub fn e4_forwarding_overhead() {
    section("E4: per-message forwarding overhead (paper: 2 extra messages each)");
    let mut t = Table::new([
        "clients",
        "forwarded msgs",
        "link updates",
        "extra msgs",
        "extra per forwarded",
    ]);
    for k in [1u16, 2, 4, 8] {
        let mut cluster = Cluster::mesh(k as usize + 2);
        let (server, _clients) = client_server(&mut cluster, k, 5_000);
        cluster.run_for(Duration::from_millis(100));
        cluster.migrate(server, m(k + 1)).unwrap();
        cluster.run_for(Duration::from_millis(400));
        let forwards = cluster.trace().forwards_for(server) as u64;
        let updates = cluster
            .trace()
            .count(|r| matches!(r.event, TraceEvent::LinkUpdateSent { migrated, .. } if migrated == server))
            as u64;
        // Every forward = 1 resubmitted message + 1 update message.
        let extra = forwards + updates;
        t.row([
            k.to_string(),
            forwards.to_string(),
            updates.to_string(),
            extra.to_string(),
            format!("{:.1}", extra as f64 / forwards.max(1) as f64),
        ]);
    }
    t.print();
    println!();
    println!("Each forwarded message costs exactly one resubmission plus one link");
    println!("update back to the sender's kernel: 2 extra messages, as §6 states.");
}

/// E5 — messages sent on a stale link before it is updated: worst case 2,
/// typically 1 (§6, Fig 5-1).
pub fn e5_link_update() {
    section("E5: stale sends per link before update (paper: worst 2, typically 1)");
    let mut t = Table::new([
        "client period",
        "clients",
        "mean stale sends",
        "max stale sends",
    ]);
    for (label, period_us) in [
        ("200us (flood)", 200u32),
        ("1ms", 1_000),
        ("5ms", 5_000),
        ("20ms", 20_000),
    ] {
        let k = 6u16;
        let mut cluster = Cluster::mesh(k as usize + 2);
        let (server, clients) = client_server(&mut cluster, k, period_us);
        cluster.run_for(Duration::from_millis(100));
        cluster.migrate(server, m(k + 1)).unwrap();
        cluster.run_for(Duration::from_millis(600));
        // Stale sends per client = link updates sent on its behalf.
        let mut counts = Vec::new();
        for &c in &clients {
            let n = cluster.trace().count(|r| {
                matches!(r.event, TraceEvent::LinkUpdateSent { sender, migrated, .. }
                    if sender == c && migrated == server)
            });
            counts.push(n as f64);
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let max = counts.iter().cloned().fold(0.0f64, f64::max);
        t.row([
            label.to_string(),
            k.to_string(),
            format!("{mean:.2}"),
            format!("{max:.0}"),
        ]);
    }
    t.print();
    println!();
    println!("With request/reply pacing a link is stale for exactly one message; only");
    println!("a flood faster than the update round-trip reaches the worst case.");
}

/// E7 — repeated migration: forwarding chains, their collapse by link
/// update, and garbage collection via death notices (§4).
pub fn e7_chain() {
    section("E7: forwarding chains after k migrations (paper: 8-byte residual entries)");
    let mut t = Table::new([
        "k (migrations)",
        "hops of 1st msg",
        "hops of 2nd msg",
        "fwd entries",
        "residual bytes",
        "entries after GC",
    ]);
    for k in [1u16, 2, 4, 8] {
        let n = k as usize + 2;
        let mut cluster = ClusterBuilder::new(n)
            .kernel_config(KernelConfig {
                gc_forwarding: true,
                ..Default::default()
            })
            .build();
        let server = cluster
            .spawn(
                m(0),
                "echo_server",
                &EchoServer::state(20),
                ImageLayout::default(),
            )
            .unwrap();
        // A quiet client that will send exactly two requests later.
        let client = cluster
            .spawn(
                m(n as u16 - 1),
                "client",
                &Client::state(2, 150_000, 16),
                ImageLayout::default(),
            )
            .unwrap();
        cluster.run_for(Duration::from_millis(10));
        // Chain of migrations m0 → m1 → … → mk, no traffic meanwhile.
        for dest in 1..=k {
            cluster.migrate(server, m(dest)).unwrap();
            cluster.run_for(Duration::from_millis(300));
        }
        // Now wire the client with a maximally stale link (hint = m0).
        let stale = demos_types::Link::to(server.at(m(0)));
        cluster
            .post(client, wl::INIT, bytes::Bytes::new(), vec![stale])
            .unwrap();
        cluster.run_for(Duration::from_millis(600));
        // First request chased the whole chain; second went direct.
        let hops: Vec<u8> = cluster
            .trace()
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::Enqueued {
                    pid,
                    msg_type,
                    hops,
                    ..
                } if *pid == server && *msg_type == wl::REQ => Some(*hops),
                _ => None,
            })
            .collect();
        let entries: usize = (0..n)
            .filter(|&i| {
                cluster
                    .node(m(i as u16))
                    .kernel
                    .forwarding_table()
                    .contains_key(&server)
            })
            .count();
        // Kill the server: death notices walk the chain backwards (§4).
        let loc = cluster.where_is(server).unwrap();
        cluster
            .post_dtk(
                server,
                loc,
                demos_types::tags::KERNEL_OP,
                KernelOp::Kill.to_bytes(),
            )
            .unwrap();
        cluster.run_for(Duration::from_millis(200));
        let after_gc: usize = (0..n)
            .filter(|&i| {
                cluster
                    .node(m(i as u16))
                    .kernel
                    .forwarding_table()
                    .contains_key(&server)
            })
            .count();
        t.row([
            k.to_string(),
            hops.first()
                .map(|h| h.to_string())
                .unwrap_or_else(|| "-".into()),
            hops.get(1)
                .map(|h| h.to_string())
                .unwrap_or_else(|| "-".into()),
            entries.to_string(),
            (entries * 8).to_string(),
            after_gc.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("The first message traverses every hop of the chain; the link update");
    println!("collapses the path so the second goes direct. Residuals cost 8 bytes");
    println!("per machine (§4); with gc_forwarding the death notice reclaims them.");
}

/// E8 — ablation: return-to-sender instead of forwarding (§4's rejected
/// alternative — "this method also violates the transparency of
/// communications fundamental to DEMOS/MP").
pub fn e8_ablation_nondelivery() {
    section("E8: forwarding vs non-delivery ablation (paper: forwarding preserves transparency)");
    let mut t = Table::new([
        "mode",
        "replies before",
        "replies after",
        "non-deliverable",
        "dead links",
    ]);
    for forwarding in [true, false] {
        let mut cluster = ClusterBuilder::new(4)
            .kernel_config(KernelConfig {
                forwarding,
                ..Default::default()
            })
            .build();
        let (server, clients) = client_server(&mut cluster, 2, 5_000);
        cluster.run_for(Duration::from_millis(200));
        let before: u64 = clients
            .iter()
            .map(|&c| {
                let mm = cluster.where_is(c).unwrap();
                client_stats(
                    &cluster
                        .node(mm)
                        .kernel
                        .process(c)
                        .unwrap()
                        .program
                        .as_ref()
                        .unwrap()
                        .save(),
                )
                .recv
            })
            .sum();
        cluster.migrate(server, m(3)).unwrap();
        cluster.run_for(Duration::from_millis(500));
        let after: u64 = clients
            .iter()
            .map(|&c| {
                let mm = cluster.where_is(c).unwrap();
                client_stats(
                    &cluster
                        .node(mm)
                        .kernel
                        .process(c)
                        .unwrap()
                        .program
                        .as_ref()
                        .unwrap()
                        .save(),
                )
                .recv
            })
            .sum::<u64>()
            - before;
        let nondeliverable: u64 = (0..4)
            .map(|i| cluster.node(m(i)).kernel.stats().nondeliverable)
            .sum();
        let dead_links: usize = clients
            .iter()
            .map(|&c| {
                let mm = cluster.where_is(c).unwrap();
                cluster
                    .node(mm)
                    .kernel
                    .process(c)
                    .unwrap()
                    .links
                    .iter()
                    .filter(|(_, l)| {
                        l.target() == server
                            && l.attrs.contains(
                                <demos_types::LinkAttrs as demos_kernel::LinkAttrsExt>::DEAD,
                            )
                    })
                    .count()
            })
            .sum();
        t.row([
            if forwarding {
                "forwarding (§4)"
            } else {
                "return-to-sender"
            }
            .to_string(),
            before.to_string(),
            after.to_string(),
            nondeliverable.to_string(),
            dead_links.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("With forwarding the migration is invisible to clients. In the rejected");
    println!("alternative their messages bounce, links go dead, and the clients would");
    println!("need recovery logic — the transparency violation §4 describes.");
}

/// E13 — `DELIVERTOKERNEL` control messages are held during migration and
/// delivered when normal receiving resumes (§2.2).
pub fn e13_dtk_during_migration() {
    section("E13: DELIVERTOKERNEL control op racing a migration (paper: held and forwarded)");
    let mut cluster = Cluster::mesh(2);
    let pid = cluster
        .spawn(
            m(0),
            "cpu_burner",
            &demos_sim::programs::CpuBurner::state(0, 100, 1_000),
            ImageLayout {
                code: 256 * 1024,
                data: 4096,
                stack: 2048,
            },
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(20));
    let t0 = cluster.now();
    cluster.migrate(pid, m(1)).unwrap();
    // While the process is in migration, a Suspend control op arrives.
    cluster
        .post_dtk(
            pid,
            m(0),
            demos_types::tags::KERNEL_OP,
            KernelOp::Suspend.to_bytes(),
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(500));

    let frozen = cluster
        .trace()
        .phase_time(pid, MigrationPhase::Frozen, t0)
        .unwrap();
    let restarted = cluster
        .trace()
        .phase_time(pid, MigrationPhase::Restarted, t0)
        .unwrap();
    let received_at_dest = cluster
        .trace()
        .records()
        .iter()
        .find(|r| {
            r.machine == m(1)
                && matches!(r.event, TraceEvent::KernelReceived { pid: p, msg_type, .. }
                    if p == pid && msg_type == demos_types::tags::KERNEL_OP)
        })
        .map(|r| r.at);
    let status = cluster.node(m(1)).kernel.process(pid).map(|p| p.status);

    let mut t = Table::new(["event", "virtual time"]);
    t.row(["frozen (step 1)".to_string(), format!("{frozen}")]);
    t.row([
        "suspend sent while in migration".to_string(),
        format!("{t0}"),
    ]);
    t.row([
        "restarted at destination (step 8)".to_string(),
        format!("{restarted}"),
    ]);
    t.row([
        "suspend received by destination kernel".to_string(),
        received_at_dest
            .map(|t| format!("{t}"))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row(["final status".to_string(), format!("{status:?}")]);
    t.print();
    println!();
    println!("The control op was held on the in-migration queue, forwarded in step 6,");
    println!("and received by the *destination* kernel after restart — \"control can");
    println!("follow a process through disturbances in its execution\" (§7).");
}
