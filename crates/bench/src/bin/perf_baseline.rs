//! Tracked performance baseline for the discrete-event core.
//!
//! Measures event-loop throughput — `Cluster::step` calls per second of
//! wall clock — on mostly-idle clusters of 2/16/64/256 machines, the
//! regime where the cost of *finding* the next event dominates. A
//! second, strong-scaling section sweeps the sharded parallel executor
//! over 256/1024/4096-machine clusters at 1/2/4/8 shards with a
//! workload that scales with size, reporting node visits per second and
//! speedup over the one-shard run. Writes the results as JSON
//! (`BENCH_EVENTLOOP.json` by default) so CI can compare against the
//! committed baseline and fail on regressions.
//!
//! Usage:
//!   perf_baseline [--quick] [--out FILE] [--check BASELINE]
//!
//! * `--quick`  — shorter runs for CI smoke (same rates, more noise);
//! * `--out`    — where to write the JSON (default `BENCH_EVENTLOOP.json`);
//! * `--check`  — compare against a baseline JSON: exit non-zero if the
//!   64-machine throughput dropped more than 30%. To stay meaningful on
//!   machines of different speeds (CI runners vs the machine that
//!   committed the baseline), the gate compares *normalized* throughput:
//!   events/sec at 64 machines divided by the same run's 2-machine rate.
//!   Machine speed cancels; what remains is exactly how the loop scales
//!   with cluster size — an O(n) scan creeping back in craters it.

use demos_sim::prelude::*;
use demos_sim::programs::{CpuBurner, PingPong};
use std::time::Instant;

const SIZES: [usize; 4] = [2, 16, 64, 256];
/// Cluster sizes for the parallel strong-scaling section. The last one
/// is skipped under `--quick`.
const PAR_SIZES: [usize; 3] = [256, 1024, 4096];
/// Shard counts swept per size in the parallel section.
const PAR_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Regression gate: fail `--check` below this fraction of the baseline.
const MIN_RATIO: f64 = 0.7;
/// Cluster size the `--check` gate applies to.
const GATE_MACHINES: usize = 64;
/// Recorder-overhead gate: recorder-on throughput at 64 machines must
/// stay above this fraction of recorder-off. The target is within 5%
/// (0.95); the gate sits at 0.90 to absorb runner noise while still
/// catching any allocation or copy creeping into the record path.
const RECORDER_MIN_RATIO: f64 = 0.90;

fn m(i: usize) -> MachineId {
    MachineId(i as u16)
}

fn pingpong_pair(cluster: &mut Cluster, a: MachineId, b: MachineId) {
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
}

/// A cluster with a fixed workload regardless of size — two message
/// pairs plus two timer-driven jobs on a handful of machines, everything
/// else idle — warmed past bootstrap. Scheduler overhead, not workload,
/// is the measurand: most events are cheap timer ticks, the regime where
/// the cost of finding the next event dominates the step. The flight
/// recorder runs at `recorder_capacity` (0 disables it — the baseline
/// side of the recorder-overhead comparison).
fn warm_cluster_cap(n: usize, recorder_capacity: usize) -> Cluster {
    let mut cluster = ClusterBuilder::new(n)
        .seed(7)
        .no_trace()
        .recorder_capacity(recorder_capacity)
        .build();
    pingpong_pair(&mut cluster, m(0), m(1));
    if n >= 4 {
        pingpong_pair(&mut cluster, m(n / 2), m(n / 2 + 1));
    }
    for k in 0..2usize.min(n) {
        cluster
            .spawn(
                m(k),
                "cpu_burner",
                &CpuBurner::state(0, 10, 100),
                ImageLayout::default(),
            )
            .unwrap();
    }
    cluster.run_for(Duration::from_millis(5));
    cluster
}

struct Sample {
    machines: usize,
    steps: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

/// One row of the parallel strong-scaling sweep. Unlike the sequential
/// rows, the workload *scales with* machine count (one message pair per
/// eight machines, one timer job per eight) so more shards have real
/// work to split, and the rate counts node visits rather than `step`
/// calls — the two loops batch work differently, so steps/sec would not
/// be comparable across thread counts but visits/sec is.
struct ParSample {
    machines: usize,
    threads: usize,
    visits: u64,
    wall_secs: f64,
    events_per_sec: f64,
    segments: u64,
    /// Window rounds of one run, from `Cluster::shard_stats`.
    windows: u64,
    /// Busiest shard's visits summed per window, over the balanced share
    /// (total visits / shards): 1.0 is perfectly balanced windows, S is
    /// one shard working per window. Whatever exceeds 1 is barrier wait
    /// that no synchronisation primitive can remove.
    imbalance: f64,
}

/// A cluster whose workload grows with its size: a cross-cluster
/// ping-pong pair per eight machines and a periodic CPU burner on every
/// eighth machine. Trace and flight recorder are off — at 4096 machines
/// the recorder rings alone would dominate memory and the measurement.
fn warm_parallel_cluster(n: usize, threads: usize) -> Cluster {
    let mut cluster = ClusterBuilder::new(n)
        .seed(7)
        .no_trace()
        .recorder_capacity(0)
        .shards(threads)
        .build();
    for i in 0..n / 8 {
        pingpong_pair(&mut cluster, m(i), m(n - 1 - i));
    }
    for k in (0..n).step_by(8) {
        cluster
            .spawn(
                m(k),
                "cpu_burner",
                &CpuBurner::state(0, 120, 900),
                ImageLayout::default(),
            )
            .unwrap();
    }
    cluster.run_for(Duration::from_millis(2));
    cluster
}

/// Strong-scaling measurement: drive fresh clusters through `virt` of
/// virtual time via `run_for` (the sharded executor dispatches from
/// `run_until`, not `step`) until `min_wall` wall seconds accumulate.
fn measure_parallel(n: usize, threads: usize, virt: Duration, min_wall: f64) -> ParSample {
    let visits_of = |c: &Cluster| {
        let s = c.step_stats();
        s.cpu_visits + s.frame_visits + s.timer_visits
    };
    let mut visits = 0u64;
    let mut segments = 0u64;
    let mut windows = 0u64;
    let mut imbalance = 1.0f64;
    let mut wall = 0.0f64;
    while wall < min_wall {
        let mut cluster = warm_parallel_cluster(n, threads);
        let before = visits_of(&cluster);
        let t0 = Instant::now();
        cluster.run_for(virt);
        wall += t0.elapsed().as_secs_f64();
        visits += visits_of(&cluster) - before;
        segments = cluster.parallel_segments();
        // Exact counts, identical for every repetition.
        let st = cluster.shard_stats();
        windows = st.windows;
        let sharded: u64 = st.visits.iter().sum();
        if sharded > 0 {
            imbalance = (st.critical_visits * st.visits.len() as u64) as f64 / sharded as f64;
        }
    }
    ParSample {
        machines: n,
        threads,
        visits,
        wall_secs: wall,
        events_per_sec: visits as f64 / wall,
        segments,
        windows,
        imbalance,
    }
}

/// Drive fresh clusters through `virt` of virtual time until at least
/// `min_wall` seconds of wall clock have accumulated.
fn measure(n: usize, virt: Duration, min_wall: f64) -> Sample {
    measure_cap(n, demos_sim::DEFAULT_RECORDER_CAPACITY, virt, min_wall)
}

/// [`measure`] with an explicit recorder capacity.
fn measure_cap(n: usize, cap: usize, virt: Duration, min_wall: f64) -> Sample {
    let mut steps = 0u64;
    let mut wall = 0.0f64;
    while wall < min_wall {
        let mut cluster = warm_cluster_cap(n, cap);
        let target = cluster.now() + virt;
        let t0 = Instant::now();
        while cluster.now() < target {
            if !cluster.step() {
                break;
            }
            steps += 1;
        }
        wall += t0.elapsed().as_secs_f64();
    }
    Sample {
        machines: n,
        steps,
        wall_secs: wall,
        events_per_sec: steps as f64 / wall,
    }
}

fn render_json(
    quick: bool,
    virt_ms: u64,
    samples: &[Sample],
    recorder: &(Sample, Sample),
    cores: usize,
    par: &[ParSample],
) -> String {
    let (on, off) = recorder;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"event_loop\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"virtual_ms_per_run\": {virt_ms},\n"));
    out.push_str(&format!(
        "  \"recorder\": {{\"machines\": {}, \"on_events_per_sec\": {:.1}, \
         \"off_events_per_sec\": {:.1}, \"on_off_ratio\": {:.4}}},\n",
        on.machines,
        on.events_per_sec,
        off.events_per_sec,
        on.events_per_sec / off.events_per_sec
    ));
    // Parallel rows deliberately use the key "m", not "machines":
    // `baseline_rate`'s textual scan keys on `"machines": N,` lines and
    // must keep matching only the sequential results.
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str("  \"parallel\": [\n");
    for (i, p) in par.iter().enumerate() {
        let base = par
            .iter()
            .find(|q| q.machines == p.machines && q.threads == 1)
            .map_or(1.0, |q| q.events_per_sec);
        out.push_str(&format!(
            "    {{\"m\": {}, \"threads\": {}, \"visits\": {}, \"wall_secs\": {:.4}, \
             \"visits_per_sec\": {:.1}, \"speedup\": {:.3}, \"segments\": {}, \
             \"windows\": {}, \"imbalance\": {:.3}}}{}\n",
            p.machines,
            p.threads,
            p.visits,
            p.wall_secs,
            p.events_per_sec,
            p.events_per_sec / base,
            p.segments,
            p.windows,
            p.imbalance,
            if i + 1 < par.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"machines\": {}, \"steps\": {}, \"wall_secs\": {:.4}, \
             \"events_per_sec\": {:.1}}}{}\n",
            s.machines,
            s.steps,
            s.wall_secs,
            s.events_per_sec,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull `events_per_sec` for a given machine count out of a baseline
/// JSON written by this binary (dumb textual scan — no JSON dependency).
fn baseline_rate(json: &str, machines: usize) -> Option<f64> {
    // Match only result rows: the "recorder" line also names a machine
    // count but carries on/off rates under different keys.
    let marker = format!("\"machines\": {machines},");
    let line = json
        .lines()
        .find(|l| l.contains(&marker) && l.contains("\"events_per_sec\": "))?;
    let tail = line.split("\"events_per_sec\": ").nth(1)?;
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_EVENTLOOP.json");
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let virt = if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1000)
    };
    let min_wall = if quick { 0.2 } else { 1.0 };

    let mut samples = Vec::new();
    for &n in &SIZES {
        let s = measure(n, virt, min_wall);
        eprintln!(
            "machines={:3}  steps={:8}  wall={:.3}s  events/sec={:.0}",
            s.machines, s.steps, s.wall_secs, s.events_per_sec
        );
        samples.push(s);
    }

    // Recorder overhead at the gate size: same workload with the flight
    // recorder at its default capacity vs disabled, measured back to
    // back so machine drift hits both equally.
    let rec_on = measure_cap(
        GATE_MACHINES,
        demos_sim::DEFAULT_RECORDER_CAPACITY,
        virt,
        min_wall,
    );
    let rec_off = measure_cap(GATE_MACHINES, 0, virt, min_wall);
    let rec_ratio = rec_on.events_per_sec / rec_off.events_per_sec;
    eprintln!(
        "recorder @{GATE_MACHINES} machines: on {:.0} ev/s, off {:.0} ev/s \
         ({:.1}% overhead)",
        rec_on.events_per_sec,
        rec_off.events_per_sec,
        (1.0 - rec_ratio) * 100.0
    );
    let recorder = (rec_on, rec_off);

    // Parallel strong scaling: scaled workload, shard counts 1..8. With
    // more shards than cores the workers park at the barrier and the rows
    // mostly pay for that; the committed JSON records `cores` so readers
    // can tell which regime the numbers come from.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut par = Vec::new();
    for &n in &PAR_SIZES {
        if quick && n > 1024 {
            continue;
        }
        for &threads in &PAR_THREADS {
            let p = measure_parallel(n, threads, virt, min_wall);
            let base = par
                .iter()
                .find(|q: &&ParSample| q.machines == n && q.threads == 1)
                .map_or(p.events_per_sec, |q| q.events_per_sec);
            eprintln!(
                "parallel m={:4} threads={}  visits={:9}  wall={:.3}s  \
                 visits/sec={:.0}  speedup={:.2}x  segments={}  windows={}  imbalance={:.2}",
                p.machines,
                p.threads,
                p.visits,
                p.wall_secs,
                p.events_per_sec,
                p.events_per_sec / base,
                p.segments,
                p.windows,
                p.imbalance
            );
            par.push(p);
        }
    }

    let json = render_json(
        quick,
        virt.as_micros() / 1000,
        &samples,
        &recorder,
        cores,
        &par,
    );
    std::fs::write(&out_path, &json).expect("write results");
    eprintln!("wrote {out_path}");

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let base_gate = baseline_rate(&baseline, GATE_MACHINES)
            .expect("baseline has no 64-machine events_per_sec");
        let base_ref = baseline_rate(&baseline, 2).expect("baseline has no 2-machine rate");
        let rate_of = |n: usize| {
            samples
                .iter()
                .find(|s| s.machines == n)
                .expect("size measured")
                .events_per_sec
        };
        let want = base_gate / base_ref;
        let got = rate_of(GATE_MACHINES) / rate_of(2);
        let ratio = got / want;
        eprintln!(
            "check @{GATE_MACHINES} machines (normalized to 2-machine rate): \
             current {got:.3} vs baseline {want:.3} ({:.0}% of baseline, gate {:.0}%)",
            ratio * 100.0,
            MIN_RATIO * 100.0
        );
        if ratio < MIN_RATIO {
            eprintln!("FAIL: event-loop throughput regressed more than 30%");
            std::process::exit(1);
        }
        // Recorder row: self-contained (on vs off within this run), so
        // older baseline files without the row still gate cleanly.
        eprintln!(
            "check recorder overhead @{GATE_MACHINES} machines: on/off ratio {rec_ratio:.3} \
             (gate {RECORDER_MIN_RATIO:.2})",
        );
        if rec_ratio < RECORDER_MIN_RATIO {
            eprintln!("FAIL: flight recorder costs more than 10% of event-loop throughput");
            std::process::exit(1);
        }
        eprintln!("OK");
    }
}
