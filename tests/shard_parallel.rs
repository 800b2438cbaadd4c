//! Sharded-executor equality and aggregation tests at the `demos-sim`
//! API level: identical clusters run with `shards(1)` and `shards(S)`
//! must agree on every observable — trace fingerprint and records,
//! flight-recorder dumps, per-phase step statistics, network traffic
//! counters, per-machine transport channel statistics, CPU accounting,
//! the sampled metric time series, and where every process lives (the
//! residency index, whose changes a shard hands back at segment end).
//! The chaos corpus suite covers fault schedules; these tests pin the
//! per-counter aggregation (satellite: per-shard stats merged exactly
//! once, no double counting) and the fallback rules.

use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{Cargo, CpuBurner, PingPong};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

/// Spawn a linked ping-pong pair across two machines, first serving.
fn pingpong_pair(c: &mut Cluster, a: MachineId, b: MachineId, limit: u64) {
    let pa = c
        .spawn(
            a,
            "pingpong",
            &PingPong::state(limit, 40),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = c
        .spawn(
            b,
            "pingpong",
            &PingPong::state(limit, 40),
            ImageLayout::default(),
        )
        .unwrap();
    let la = c.link_to(pa).unwrap();
    let lb = c.link_to(pb).unwrap();
    c.post(
        pa,
        programs::wl::INIT,
        bytes::Bytes::from_static(&[1]),
        vec![lb],
    )
    .unwrap();
    c.post(
        pb,
        programs::wl::INIT,
        bytes::Bytes::from_static(&[0]),
        vec![la],
    )
    .unwrap();
}

/// 64-machine cluster with cross-shard ping-pong traffic (pairs straddle
/// every shard boundary a power-of-two split can draw) and a periodic
/// CPU burner on every eighth machine.
fn build(n: u16, shards: usize) -> Cluster {
    let mut c = ClusterBuilder::new(n as usize)
        .seed(1234)
        .shards(shards)
        .sample_every(Duration::from_millis(3))
        .build();
    for i in 0..(n / 8) {
        // Pair (i, n-1-i): distance shrinks toward the middle, so pairs
        // cross one, several, or no shard boundaries.
        pingpong_pair(&mut c, m(i), m(n - 1 - i), 0);
    }
    for i in (0..n).step_by(8) {
        c.spawn(
            m(i),
            "cpu_burner",
            &CpuBurner::state(0, 120, 900),
            ImageLayout::default(),
        )
        .unwrap();
    }
    c
}

/// Everything observable about a finished run, in one comparable bundle.
#[derive(Debug, PartialEq)]
struct Observables {
    fingerprint: u64,
    records: usize,
    flight: Vec<u8>,
    cpu_visits: u64,
    frame_visits: u64,
    timer_visits: u64,
    net: demos_mp::net::NetStats,
    channels: Vec<demos_mp::net::ChannelStats>,
    cpu_busy: Vec<Duration>,
    series: Vec<(String, Vec<(Time, u64)>)>,
    /// `where_is` of every process ever spawned, in spawn order.
    residency: Vec<(ProcessId, Option<MachineId>)>,
    end: Time,
}

fn observe(c: &Cluster) -> Observables {
    let stats = c.step_stats();
    Observables {
        fingerprint: c.trace().fingerprint(),
        records: c.trace().records().len(),
        flight: c.recorder_dump(),
        cpu_visits: stats.cpu_visits,
        frame_visits: stats.frame_visits,
        timer_visits: stats.timer_visits,
        net: c.net().stats(),
        channels: (0..c.len() as u16)
            .map(|i| c.node(m(i)).kernel.channel_stats())
            .collect(),
        cpu_busy: (0..c.len() as u16).map(|i| c.cpu_busy(m(i))).collect(),
        series: c
            .series()
            .map(|s| {
                s.iter()
                    .map(|(k, ts)| (k.to_string(), ts.points().to_vec()))
                    .collect()
            })
            .unwrap_or_default(),
        residency: c
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Spawned { pid, .. } => Some((pid, c.where_is(pid))),
                _ => None,
            })
            .collect(),
        end: c.now(),
    }
}

fn run_observed(n: u16, shards: usize, for_ms: u64) -> (Observables, u64) {
    let mut c = build(n, shards);
    c.run_for(Duration::from_millis(for_ms));
    (observe(&c), c.parallel_segments())
}

/// The aggregation satellite: a 64-machine run at S = 4 must merge every
/// per-shard counter — step-stats visits, network traffic, per-machine
/// channel stats, CPU accounting, metric series — to exactly the
/// sequential totals. A double-counted (or dropped) shard shows up here
/// as a wrong sum even if the trace happens to match.
#[test]
fn stats_aggregate_identically_at_4_shards() {
    let (seq, seq_par) = run_observed(64, 1, 40);
    let (par, par_segments) = run_observed(64, 4, 40);
    assert_eq!(seq_par, 0, "S=1 must take the sequential path");
    assert!(par_segments > 0, "S=4 must take the parallel path");
    assert!(seq.frame_visits > 100, "workload generated real traffic");
    assert!(!seq.series.is_empty(), "sampling produced series");
    assert_eq!(par, seq);
}

/// Equality holds at S = 8 too, and at a shard count that does not
/// divide the machine count evenly (uneven ranges).
#[test]
fn uneven_and_wide_shard_counts_agree() {
    let (seq, _) = run_observed(48, 1, 25);
    for shards in [3, 5, 8] {
        let (par, segs) = run_observed(48, shards, 25);
        assert!(segs > 0, "S={shards} fell back to sequential");
        assert_eq!(par, seq, "diverged at S={shards}");
    }
}

/// Bit-determinism of the parallel executor itself: two identical runs
/// at S = 4 agree byte-for-byte (thread scheduling must not leak in),
/// `Cluster::shard_stats` included.
#[test]
fn parallel_runs_are_deterministic() {
    let run = || {
        let mut c = build(64, 4);
        c.run_for(Duration::from_millis(30));
        (observe(&c), c.shard_stats().clone())
    };
    let (a, stats) = run();
    assert_eq!((a, stats.clone()), run());
    // The executor's own counters: exact, so equal above, and consistent.
    assert!(stats.windows > 0 && stats.final_batches > 0);
    assert_eq!(stats.visits.len(), 4);
    let total: u64 = stats.visits.iter().sum();
    assert!(
        stats.critical_visits <= total && total <= 4 * stats.critical_visits,
        "critical path {} outside [total / 4, total] of {total}",
        stats.critical_visits
    );
    assert!(stats.mailbox_high_water.iter().any(|&f| f > 0));
}

/// Migration mid-workload: processes hopping across shard boundaries
/// between run segments keep every observable identical, and every
/// shard count agrees on where each process ended up.
#[test]
fn migration_across_shards_stays_identical() {
    let run = |shards: usize| {
        let mut c = ClusterBuilder::new(16).seed(9).shards(shards).build();
        pingpong_pair(&mut c, m(0), m(15), 0);
        c.run_for(Duration::from_millis(5));
        let pid = c.node(m(0)).kernel.pids().next().unwrap();
        c.migrate(pid, m(8)).unwrap();
        c.run_for(Duration::from_millis(10));
        assert_eq!(c.where_is(pid), Some(m(8)), "S={shards}");
        (observe(&c), c.parallel_segments())
    };
    let (seq, _) = run(1);
    for shards in [2, 4, 8] {
        let (par, segs) = run(shards);
        assert!(segs > 0, "S={shards} fell back to sequential");
        assert_eq!(par, seq, "diverged at S={shards}");
    }
}

/// `run_quiescent` drains a finite workload to the same quiescent state
/// and finishing time on both paths.
#[test]
fn run_quiescent_agrees() {
    let run = |shards: usize| {
        let mut c = ClusterBuilder::new(24).seed(5).shards(shards).build();
        // Finite ping-pong: 200 balls, then silence.
        pingpong_pair(&mut c, m(1), m(22), 200);
        let end = c.run_quiescent(Duration::from_secs(10));
        (observe(&c), end, c.parallel_segments())
    };
    let (seq, seq_end, _) = run(1);
    let (par, par_end, segs) = run(4);
    assert!(segs > 0);
    assert_eq!(par_end, seq_end);
    assert_eq!(par, seq);
}

/// Crashed machines: frames to and from a corpse are dropped with the
/// same counts on both paths, a revive mid-run re-enters the parallel
/// path cleanly, and the process that died with the machine is gone at
/// every shard count.
#[test]
fn crash_and_revive_stay_identical() {
    let run = |shards: usize| {
        let mut c = ClusterBuilder::new(16).seed(3).shards(shards).build();
        pingpong_pair(&mut c, m(2), m(13), 0);
        // An idle bystander in another shard, holding an inert process.
        let inert = c
            .spawn(m(8), "cargo", &Cargo::state(0), ImageLayout::default())
            .unwrap();
        c.run_for(Duration::from_millis(4));
        c.crash(m(8));
        c.run_for(Duration::from_millis(4));
        c.revive(m(8));
        c.run_for(Duration::from_millis(4));
        assert_eq!(c.where_is(inert), None, "S={shards}");
        observe(&c)
    };
    let seq = run(1);
    for shards in [2, 4, 8] {
        assert_eq!(run(shards), seq, "diverged at S={shards}");
    }
}

/// The crash branch that clears two index slots at once: the victim
/// holds a deadline (its burner's next tick, a retransmission timer) *and*
/// a queued activation behind a busy CPU (its wake-up slot) when it dies.
#[test]
fn crash_with_deadline_and_queued_activation_stays_identical() {
    let victim = m(13);
    let build = |shards: usize| {
        let mut c = ClusterBuilder::new(16).seed(3).shards(shards).build();
        pingpong_pair(&mut c, m(2), victim, 0);
        c.spawn(
            victim,
            "cpu_burner",
            &CpuBurner::state(0, 120, 900),
            ImageLayout::default(),
        )
        .unwrap();
        c
    };
    let loaded = |c: &Cluster| {
        // Work still queued after a run means the CPU is mid-activation.
        c.node(victim).has_runnable() && c.node(victim).next_timer_at().is_some()
    };
    // Find, on the sequential loop, an instant at which the victim holds both.
    let mut probe = build(1);
    while !loaded(&probe) {
        assert!(probe.now() < Time::from_micros(20_000), "never loaded");
        probe.run_for(Duration::from_micros(5));
    }
    let at = probe.now();
    let run = |shards: usize| {
        let mut c = build(shards);
        c.run_until(at);
        assert!(loaded(&c), "S={shards}: victim not loaded at {at:?}");
        c.crash(victim);
        c.run_for(Duration::from_millis(4));
        c.revive(victim);
        c.run_for(Duration::from_millis(4));
        (observe(&c), c.parallel_segments())
    };
    let (seq, _) = run(1);
    let (par, segs) = run(2);
    assert!(segs > 0);
    assert_eq!(par, seq);
}

/// Fallback rules: configurations the conservative executor cannot
/// shard — lossy links, zero-latency edges, single machines — run
/// sequentially (and still correctly) regardless of the shard knob.
#[test]
fn unsupported_configurations_fall_back() {
    // Lossy mesh.
    let lossy = Topology::full_mesh(
        8,
        EdgeParams {
            latency: Duration::from_micros(100),
            ns_per_byte: 10,
            loss: 0.05,
        },
    );
    let mut c = ClusterBuilder::new(8).topology(lossy).shards(4).build();
    pingpong_pair(&mut c, m(0), m(7), 0);
    c.run_for(Duration::from_millis(10));
    assert_eq!(c.parallel_segments(), 0, "lossy links must fall back");
    assert!(!c.parallel_ready());

    // Zero-latency edges.
    let instant = Topology::full_mesh(
        8,
        EdgeParams {
            latency: Duration::ZERO,
            ns_per_byte: 0,
            loss: 0.0,
        },
    );
    let c = ClusterBuilder::new(8).topology(instant).shards(4).build();
    assert!(!c.parallel_ready(), "zero-latency edges admit no lookahead");

    // One machine.
    let c = ClusterBuilder::new(1).shards(4).build();
    assert!(!c.parallel_ready());
}

/// A shard count above the machine count clamps; equality still holds.
#[test]
fn oversubscribed_shards_clamp_and_agree() {
    let run = |shards: usize| {
        let mut c = ClusterBuilder::new(4).seed(11).shards(shards).build();
        pingpong_pair(&mut c, m(0), m(3), 0);
        c.run_for(Duration::from_millis(20));
        (observe(&c), c.parallel_segments())
    };
    let (seq, _) = run(1);
    let (par, segs) = run(64); // clamps to 4 shards
    assert!(segs > 0);
    assert_eq!(par, seq);
}
