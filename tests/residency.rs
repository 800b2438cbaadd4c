//! Model test for the residency index behind `Cluster::where_is`.
//!
//! Seeded random schedules on 3–9 machines mix every way a process table
//! changes: spawn (on a live or a crashed machine), migration (to a live
//! machine, a crashed one, or the one it is on), a program exiting, a
//! `KernelOp::Kill`, crash and revive, checkpoints taken and restored —
//! and processes killed — through `node_mut` with an outbox of the
//! test's own, and recovery re-homing a dead machine's processes. After
//! every operation, `where_is` of every pid ever minted must equal the
//! scan over every kernel that `where_is` was before it had an index, and
//! `link_to` / `post` must succeed exactly when that scan finds the
//! process.
//!
//! Each schedule runs three ways: on the sequential loop, on two shard
//! threads (a lossless mesh, so the sharded loop really runs and hands
//! its residency changes back at segment end), and with automatic
//! recovery and heartbeats on. A debug build also runs the cluster's own
//! oracle on every lookup (the same scan, plus no index pair that a live
//! machine's process table does not back); a release build checks the
//! answers here only.

use std::collections::BTreeMap;

use demos_mp::kernel::{Checkpoint, Outbox};
use demos_mp::net::{Frame, Phys};
use demos_mp::sim::prelude::*;
use demos_mp::sim::programs::{Cargo, CpuBurner};
use demos_mp::types::proto::KernelOp;
use demos_mp::types::Wire;

/// Schedules per mode.
const SEEDS: u64 = 64;
/// Operations per schedule.
const OPS: usize = 60;

fn m(i: usize) -> MachineId {
    MachineId(i as u16)
}

/// SplitMix64: the schedule generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.below(items.len())])
    }
}

/// A network that drops everything: what a kernel handed out by
/// `node_mut` transmits into.
struct Void;

impl Phys for Void {
    fn transmit(&mut self, _now: Time, _src: MachineId, _dst: MachineId, _frame: Frame) {}
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Sequential,
    Sharded,
    Recovery,
}

fn build(n: usize, mode: Mode, seed: u64) -> Cluster {
    let b = ClusterBuilder::new(n).seed(seed);
    match mode {
        Mode::Sequential => b.build(),
        Mode::Sharded => b.shards(2).build(),
        Mode::Recovery => b
            .kernel_config(KernelConfig {
                heartbeat_every: Duration::from_millis(2),
                suspect_after: 3,
                dead_after: 10,
                ..KernelConfig::default()
            })
            .recovery(RecoveryConfig {
                checkpoint_every: Duration::from_millis(5),
                protect_all: true,
            })
            .build(),
    }
}

/// The answer `where_is` gave by scanning: the lowest-numbered live
/// machine whose kernel holds `pid`.
fn scan(c: &Cluster, pid: ProcessId) -> Option<MachineId> {
    (0..c.len())
        .map(m)
        .find(|&at| !c.is_crashed(at) && c.node(at).kernel.process(pid).is_some())
}

fn check(c: &mut Cluster, pids: &[ProcessId], what: &str) {
    for &pid in pids {
        let want = scan(c, pid);
        assert_eq!(c.where_is(pid), want, "after {what}: where_is({pid})");
        assert_eq!(
            c.link_to(pid).is_ok(),
            want.is_some(),
            "after {what}: link_to({pid})"
        );
        assert_eq!(
            c.post(pid, wl::INIT, Vec::new(), Vec::new()).is_ok(),
            want.is_some(),
            "after {what}: post({pid})"
        );
    }
}

fn spawn(c: &mut Cluster, rng: &mut Rng, at: MachineId) -> Option<ProcessId> {
    let (program, state) = match rng.below(2) {
        0 => ("cargo", Cargo::state(16)),
        // Exits by itself after a handful of ticks.
        _ => {
            let ticks = 1 + rng.below(12) as u64;
            let period_us = 300 + rng.below(600) as u32;
            ("cpu_burner", CpuBurner::state(ticks, 50, period_us))
        }
    };
    c.spawn(at, program, &state, ImageLayout::default()).ok()
}

/// What a schedule did: how often each kind of operation changed
/// something, the parallel segments it ran and the processes recovery
/// re-homed.
struct Run {
    done: BTreeMap<&'static str, u32>,
    parallel_segments: u64,
    rehomed: u64,
}

fn run_schedule(seed: u64, mode: Mode) -> Run {
    let mut rng = Rng(seed);
    let n = 3 + rng.below(7);
    let mut c = build(n, mode, seed);
    let mut pids: Vec<ProcessId> = Vec::new();
    let mut checkpoints: BTreeMap<ProcessId, Checkpoint> = BTreeMap::new();
    let mut done = BTreeMap::new();
    for i in 0..n {
        pids.extend(spawn(&mut c, &mut rng, m(i)));
    }
    check(&mut c, &pids, "set-up");
    for step in 0..OPS {
        let live: Vec<MachineId> = (0..n).map(m).filter(|&x| !c.is_crashed(x)).collect();
        let dead: Vec<MachineId> = (0..n).map(m).filter(|&x| c.is_crashed(x)).collect();
        let pid = rng.pick(&pids);
        let home = pid.and_then(|p| scan(&c, p).map(|h| (p, h)));
        let (what, did) = match rng.below(100) {
            0..=17 => {
                let at = m(rng.below(n));
                let new = spawn(&mut c, &mut rng, at);
                pids.extend(new);
                ("spawn", new.is_some())
            }
            18..=37 => {
                // Any machine: live, crashed, or the one it is on.
                let dest = match home {
                    Some((_, h)) if rng.below(4) == 0 => h,
                    _ => m(rng.below(n)),
                };
                let ok = pid.is_some_and(|p| c.migrate(p, dest).is_ok());
                assert!(
                    home.is_some() || !ok,
                    "migrated a process that lives nowhere"
                );
                ("migrate", ok)
            }
            38..=57 => {
                c.run_for(Duration::from_micros(200 + rng.below(6_000) as u64));
                ("run_for", true)
            }
            58..=62 => {
                if let Some((p, h)) = home {
                    c.post_dtk(p, h, tags::KERNEL_OP, KernelOp::Kill.to_bytes())
                        .unwrap();
                }
                ("KernelOp::Kill", home.is_some())
            }
            63..=66 => {
                if let Some((p, h)) = home {
                    let now = c.now();
                    let mut out = Outbox::default();
                    c.node_mut(h).kernel.kill(now, p, &mut Void, &mut out);
                }
                ("kill through node_mut", home.is_some())
            }
            67..=74 => {
                let x = rng.pick(&live);
                if let Some(x) = x {
                    c.crash(x);
                }
                ("crash", x.is_some())
            }
            75..=82 => {
                let x = rng.pick(&dead);
                if let Some(x) = x {
                    c.revive(x);
                }
                ("revive", x.is_some())
            }
            83..=88 => {
                let ck = home.and_then(|(p, h)| {
                    let now = c.now();
                    c.node_mut(h).kernel.checkpoint(now, p).ok()
                });
                let did = ck.is_some();
                checkpoints.extend(ck.map(|ck| (ck.pid, ck)));
                ("checkpoint through node_mut", did)
            }
            89..=94 => {
                // Only a process that is gone: restoring a live one would
                // run it twice.
                let gone: Vec<ProcessId> = checkpoints
                    .keys()
                    .copied()
                    .filter(|&p| scan(&c, p).is_none())
                    .collect();
                let r = rng.pick(&gone).zip(rng.pick(&live)).map(|(p, at)| {
                    let now = c.now();
                    let mut out = Outbox::default();
                    let kernel = &mut c.node_mut(at).kernel;
                    kernel.restore_checkpoint(now, &checkpoints[&p], &mut out)
                });
                // No step before the check: `where_is` must find it on a
                // machine still in `node_mut`'s hands.
                ("restore through node_mut", r.is_some_and(|r| r.is_ok()))
            }
            _ => {
                // A machine dies for good: with recovery on, the detector
                // confirms it and its processes are re-homed.
                if let Some((_, h)) = home {
                    c.crash(h);
                    c.run_for(Duration::from_millis(40));
                }
                ("death", home.is_some())
            }
        };
        *done.entry(what).or_insert(0) += u32::from(did);
        check(
            &mut c,
            &pids,
            &format!("op {step} ({what}), {mode:?} seed {seed}"),
        );
    }
    c.run_for(Duration::from_millis(20));
    check(
        &mut c,
        &pids,
        &format!("the final run, {mode:?} seed {seed}"),
    );
    Run {
        done,
        parallel_segments: c.parallel_segments(),
        rehomed: c.recovery().map_or(0, |r| r.stats().rehomed),
    }
}

/// Every seed of `mode`, after checking that each kind of operation took
/// effect at least once over all of them.
fn run_mode(mode: Mode) -> Vec<Run> {
    let runs: Vec<Run> = (0..SEEDS).map(|seed| run_schedule(seed, mode)).collect();
    let mut done: BTreeMap<&str, u32> = BTreeMap::new();
    for run in &runs {
        for (&what, &k) in &run.done {
            *done.entry(what).or_insert(0) += k;
        }
    }
    assert_eq!(
        done.len(),
        10,
        "{mode:?}: an operation never came up: {done:?}"
    );
    for (what, k) in &done {
        assert!(*k > 0, "{mode:?}: no {what} ever took effect: {done:?}");
    }
    runs
}

#[test]
fn where_is_agrees_with_the_scan_on_the_sequential_loop() {
    for run in run_mode(Mode::Sequential) {
        assert_eq!(run.parallel_segments, 0);
    }
}

#[test]
fn where_is_agrees_with_the_scan_on_two_shards() {
    for (seed, run) in run_mode(Mode::Sharded).iter().enumerate() {
        assert!(
            run.parallel_segments > 0,
            "seed {seed}: the sharded loop never ran"
        );
    }
}

#[test]
fn where_is_agrees_with_the_scan_under_recovery() {
    let rehomed: u64 = run_mode(Mode::Recovery).iter().map(|r| r.rehomed).sum();
    assert!(rehomed > 0, "recovery never re-homed a process");
}
