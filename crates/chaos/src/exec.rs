//! The schedule executor: scenario in, verdict out.
//!
//! Builds a cluster from the scenario, spawns the workload mix, then
//! interleaves the event schedule with quantum-sized simulation slices,
//! running the continuous invariant checkers between slices. After the
//! horizon every fault is lifted (edges healed, machines revived, CPUs
//! restored) and the cluster drains to quiescence, where the final
//! checks — loss, link convergence, workload counters — run.
//!
//! Event guards keep the invariants *unconditional*: in a classic
//! scenario a crash is applied only to a machine that hosts no
//! processes, holds no forwarding addresses, and has no migration in
//! flight anywhere — so no workload message can ever be addressed to a
//! machine whose state is about to vanish. A migration into a
//! currently-crashed machine is skipped for the same reason (its offer
//! would sit in a retransmit queue that a later revive resets).
//! Guarded-out events count as *skipped*, and the shrinker deletes them
//! for free.
//!
//! Recovery scenarios ([`Scenario::recovery`]) change the crash rules:
//! crashes are *permanent* and may hit populated machines. The executor
//! then runs every kernel with the heartbeat failure detector and wires
//! a [`RecoveryConfig`] into the cluster, so confirmed deaths trigger
//! checkpoint re-homing; the invariant checker switches to its
//! recovery-aware mode (a process may be gone between the crash and its
//! re-home, but must be back — exactly once — at quiescence). The
//! `disable_recovery` ablation runs the same schedule without any of
//! that machinery and must be caught as a vanished process.

use demos_core::{AcceptPolicy, MigrationConfig};
use demos_kernel::{ImageLayout, KernelConfig};
use demos_obs::features::FeatureSet;
use demos_sim::cluster::{Cluster, ClusterBuilder};
use demos_sim::programs::{wl, Cargo, Client, EchoServer, PingPong};
use demos_sim::recovery::RecoveryConfig;
use demos_sim::trace::Trace;
use demos_types::{tags, Duration, MachineId, ProcessId};

use crate::coverage::{fault_phase_features, violation_feature};
use crate::invariants::{Checker, Violation};
use crate::scenario::{EventKind, Scenario, Workload};

/// Message tag burst events post with (user range, distinct from the
/// workload protocol tags).
pub const BURST_TAG: u16 = tags::USER_BASE + 9;

/// Execution knobs orthogonal to the scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Disable forwarding addresses (§4) in every kernel — the paper's
    /// rejected design, kept as an ablation flag. The harness is expected
    /// to catch this as a broken kernel.
    pub disable_forwarding: bool,
    /// Run a recovery scenario *without* the recovery machinery (no
    /// heartbeat detector, no checkpoints, no re-homing) — the ablation
    /// for the failure-recovery stack. Permanent crashes then orphan
    /// their processes forever, and the harness is expected to catch the
    /// vanished process. No effect on classic scenarios.
    pub disable_recovery: bool,
    /// Worker threads for the sharded event-loop executor. `0` and `1`
    /// both mean the sequential loop. Verdicts, fingerprints, traces and
    /// recorder dumps are identical for every value — the shard-equality
    /// suite replays the whole corpus to pin that.
    pub shards: usize,
    /// Zero out the scenario's link-loss probability. Lossy links force
    /// the sharded executor onto its sequential fallback (the loss RNG
    /// is global), so campaigns that want genuine parallel coverage —
    /// e.g. the ThreadSanitizer CI job — strip loss with this flag.
    pub lossless: bool,
}

/// Outcome of one scenario execution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
    /// Deterministic fingerprint of the full event trace.
    pub fingerprint: u64,
    /// Virtual time when the run ended, microseconds.
    pub end_us: u64,
    /// Schedule events actually applied.
    pub events_applied: usize,
    /// Schedule events skipped by safety guards.
    pub events_skipped: usize,
    /// Parallel segments the sharded executor ran (0 = every run took
    /// the sequential path — shards = 1 or an unsupported
    /// configuration). Lets the equality suite prove the parallel path
    /// was genuinely exercised rather than silently falling back.
    pub parallel_segments: u64,
}

impl RunReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Heartbeat cadence the executor runs recovery scenarios with.
const HB_EVERY: Duration = Duration::from_millis(5);
/// Checkpoint cadence for recovery scenarios.
const CK_EVERY: Duration = Duration::from_millis(5);

/// A finished execution with the cluster still alive: the verdict plus
/// everything a report and the derived artifacts need (trace export,
/// flight dump, coverage extraction, applied-fault log). The trace is
/// not rendered yet — each entry point below makes exactly the passes
/// over it that its caller asked for.
struct Executed {
    /// The first invariant violation, if any.
    violation: Option<Violation>,
    /// The cluster at the end of the run, trace and recorder intact.
    cluster: Cluster,
    /// Events actually applied, with the virtual time each landed at —
    /// the context `fault × phase` coverage needs.
    faults: Vec<(u64, EventKind)>,
    /// Schedule events skipped by safety guards.
    skipped: usize,
}

impl Executed {
    /// The report, given the trace's fingerprint, and the cluster back.
    fn finish(self, fingerprint: u64) -> (RunReport, Cluster) {
        let report = RunReport {
            violation: self.violation,
            fingerprint,
            end_us: self.cluster.now().as_micros(),
            events_applied: self.faults.len(),
            events_skipped: self.skipped,
            parallel_segments: self.cluster.parallel_segments(),
        };
        (report, self.cluster)
    }
}

/// Execute `sc` and return the report, the JSON-lines trace export, and
/// the flight-recorder dump (every machine's black box, readable by
/// `demos-trace`). The dump is the post-mortem artifact: unlike the full
/// trace it is bounded, so it stays useful on schedules long enough to
/// make the trace export unwieldy.
pub fn run_capture(sc: &Scenario, cfg: &RunConfig) -> (RunReport, String, Vec<u8>) {
    let done = execute(sc, cfg, Checker::continuous);
    // One pass renders both: the report's fingerprint and the export.
    let (fingerprint, lines) = done.cluster.trace().fingerprint_and_json_lines();
    let (report, cluster) = done.finish(fingerprint);
    (report, lines, cluster.recorder_dump())
}

/// Execute `sc` and return the report plus the JSON-lines trace export
/// (no flight dump).
pub fn run_full(sc: &Scenario, cfg: &RunConfig) -> (RunReport, String) {
    let done = execute(sc, cfg, Checker::continuous);
    let (fingerprint, lines) = done.cluster.trace().fingerprint_and_json_lines();
    (done.finish(fingerprint).0, lines)
}

/// Execute `sc` and return the report beside the finished cluster —
/// trace, recorder and kernels as the run left them — for a caller that
/// takes its own views of the trace.
pub fn run_cluster(sc: &Scenario, cfg: &RunConfig) -> (RunReport, Cluster) {
    let done = execute(sc, cfg, Checker::continuous);
    let fingerprint = done.cluster.trace().fingerprint();
    done.finish(fingerprint)
}

/// Execute `sc` and return the report alone: the trace is fingerprinted,
/// and neither the export nor the flight dump is rendered.
pub fn run(sc: &Scenario, cfg: &RunConfig) -> RunReport {
    run_cluster(sc, cfg).0
}

/// Execute `sc` and return the report plus the run's schedule-coverage
/// feature set: trace-derived classes and recovery-episode overlap (from
/// `demos-sim`), `fault × phase` pairs (from the applied-fault log), and
/// the violation variant if the run failed. This is the fuzzer's
/// feedback path.
pub fn run_with_coverage(sc: &Scenario, cfg: &RunConfig) -> (RunReport, FeatureSet) {
    let done = execute(sc, cfg, Checker::continuous);
    let mut set = demos_sim::coverage_of(&done.cluster);
    fault_phase_features(done.cluster.trace().records(), &done.faults, &mut set);
    if let Some(v) = &done.violation {
        set.insert(violation_feature(v));
    }
    let fingerprint = done.cluster.trace().fingerprint();
    (done.finish(fingerprint).0, set)
}

/// What runs between quanta: [`Checker::continuous`], except in the
/// parity test, which runs a reference beside it.
type QuantumCheck = fn(&mut Checker, &Cluster) -> Option<Violation>;

fn execute(sc: &Scenario, cfg: &RunConfig, check: QuantumCheck) -> Executed {
    // Recovery machinery is active only when the scenario asks for it and
    // the ablation flag doesn't veto it.
    let recovery = sc.recovery && !cfg.disable_recovery;
    let kcfg = KernelConfig {
        forwarding: !cfg.disable_forwarding,
        // Dead after 120 ms of silence — far beyond any generated
        // partition window (≤ ~9 ms), so a partitioned peer is at worst
        // suspected, never falsely confirmed dead.
        heartbeat_every: if recovery { HB_EVERY } else { Duration::ZERO },
        suspect_after: 4,
        dead_after: 24,
        ..KernelConfig::default()
    };
    let mut topo_spec = sc.topo;
    if cfg.lossless {
        topo_spec.loss_pm = 0;
    }
    let mut builder = ClusterBuilder::new(sc.topo.n as usize)
        .topology(topo_spec.build())
        .seed(sc.seed)
        .shards(cfg.shards.max(1))
        .kernel_config(kcfg)
        .migration_config(MigrationConfig {
            accept: AcceptPolicy::Always,
            // Far beyond any partition window (all heal by the horizon),
            // but short of the drain budget, so a migration stalled by a
            // guarded-out edge case still aborts and thaws in time.
            timeout: Duration::from_secs(10),
            ..MigrationConfig::default()
        });
    if recovery {
        builder = builder.recovery(RecoveryConfig {
            checkpoint_every: CK_EVERY,
            protect_all: true,
        });
    }
    let mut c = builder.build();

    let procs = spawn_workloads(&mut c, &sc.workloads);
    let mut checker = Checker::new(procs.clone(), sc.workloads.clone()).with_recovery(recovery);
    let quantum = Duration::from_micros(sc.quantum_us.max(1));

    let mut events = sc.events.clone();
    events.sort_by_key(|e| e.at_us);

    let mut violation = None;
    let mut faults: Vec<(u64, EventKind)> = Vec::new();
    let mut skipped = 0usize;
    for e in &events {
        violation = advance(&mut c, &mut checker, check, e.at_us, quantum);
        if violation.is_some() {
            break;
        }
        if apply_event(&mut c, &mut checker, &procs, e.kind, sc.recovery, recovery) {
            faults.push((c.now().as_micros(), e.kind));
        } else {
            skipped += 1;
        }
    }
    if violation.is_none() {
        violation = advance(&mut c, &mut checker, check, sc.horizon_us, quantum);
    }
    if violation.is_none() {
        // Lift every transient fault. Classic scenarios also revive
        // crashed machines; recovery scenarios leave them dead — that is
        // the point — and wait for detection plus re-homing to settle.
        c.heal_all();
        for m in 0..sc.topo.n {
            let m = MachineId(m);
            if c.is_crashed(m) {
                if !sc.recovery {
                    c.revive(m);
                }
            } else {
                c.degrade(m, 1.0);
            }
        }
        if recovery {
            violation = settle_recovery(&mut c, &mut checker, check, sc, quantum);
            // The detector never lets the transport go idle (beats fly
            // forever); stop it so the drain below reaches quiescence.
            c.stop_heartbeats();
        }
    }
    if violation.is_none() {
        let deadline = c.now().as_micros() + sc.drain_us;
        violation = advance(&mut c, &mut checker, check, deadline, quantum);
    }
    if violation.is_none() {
        violation = checker.final_check(&c);
    }

    Executed {
        violation,
        cluster: c,
        faults,
        skipped,
    }
}

/// Post-horizon settle phase for recovery scenarios: keep the cluster
/// (and its still-running detector) stepping until every permanently
/// crashed machine has a completed recovery episode, bounded by a budget
/// comfortably past the detector's dead window. If detection or
/// re-homing never happens, the final conservation check reports the
/// vanished process — this phase only gives it the time it is owed.
fn settle_recovery(
    c: &mut Cluster,
    checker: &mut Checker,
    check: QuantumCheck,
    sc: &Scenario,
    quantum: Duration,
) -> Option<Violation> {
    let crashed: Vec<MachineId> = (0..sc.topo.n)
        .map(MachineId)
        .filter(|&m| c.is_crashed(m))
        .collect();
    let budget_us = c.now().as_micros() + 1_000_000;
    while c.now().as_micros() < budget_us {
        // Settled = the re-home happened AND every live machine's own
        // failure detector has confirmed every casualty dead. The second
        // half matters: confirmation purges the survivor's channel to
        // the corpse, and the executor stops heartbeats right after this
        // loop — settling on the *first* verdict would freeze the other
        // detectors mid-decision and leave their channels retransmitting
        // at a dead machine forever (found by the guided fuzzer as a
        // failure to drain).
        let settled = crashed.iter().all(|&m| {
            c.recovery()
                .is_some_and(|r| r.episodes().iter().any(|e| e.machine == m))
                && (0..sc.topo.n)
                    .map(MachineId)
                    .filter(|&o| o != m && !c.is_crashed(o))
                    .all(|o| c.node(o).kernel.peer_dead(m))
        });
        if settled {
            return None;
        }
        let t = (c.now().as_micros() + 10_000).min(budget_us);
        let v = advance(c, checker, check, t, quantum);
        if v.is_some() {
            return v;
        }
    }
    None
}

/// Advance the cluster to virtual time `until_us`, checking continuous
/// invariants every `quantum`. Returns the first violation.
fn advance(
    c: &mut Cluster,
    checker: &mut Checker,
    check: QuantumCheck,
    until_us: u64,
    quantum: Duration,
) -> Option<Violation> {
    let now_us = c.now().as_micros();
    if until_us <= now_us {
        return check(checker, c);
    }
    let mut v = None;
    c.run_with_quantum(Duration::from_micros(until_us - now_us), quantum, |cl| {
        v = check(checker, cl);
        v.is_none()
    });
    v
}

/// Spawn the workload mix; returns the processes in slot order.
fn spawn_workloads(c: &mut Cluster, workloads: &[Workload]) -> Vec<ProcessId> {
    let mut procs = Vec::new();
    for w in workloads {
        match *w {
            Workload::PingPong {
                a,
                b,
                limit,
                cpu_us,
            } => {
                let st = PingPong::state(limit, cpu_us);
                let pa = c
                    .spawn(MachineId(a), "pingpong", &st, ImageLayout::default())
                    .expect("spawn pingpong");
                let pb = c
                    .spawn(MachineId(b), "pingpong", &st, ImageLayout::default())
                    .expect("spawn pingpong");
                let la = c.link_to(pa).expect("link");
                let lb = c.link_to(pb).expect("link");
                c.post(pa, wl::INIT, bytes::Bytes::from_static(&[1]), vec![lb])
                    .expect("init");
                c.post(pb, wl::INIT, bytes::Bytes::from_static(&[0]), vec![la])
                    .expect("init");
                procs.push(pa);
                procs.push(pb);
            }
            Workload::Cargo { m, ballast } => {
                let pid = c
                    .spawn(
                        MachineId(m),
                        "cargo",
                        &Cargo::state(ballast as usize),
                        ImageLayout::default(),
                    )
                    .expect("spawn cargo");
                procs.push(pid);
            }
            Workload::ClientServer {
                client,
                server,
                requests,
                period_us,
                payload,
            } => {
                let ps = c
                    .spawn(
                        MachineId(server),
                        "echo_server",
                        &EchoServer::state(20),
                        ImageLayout::default(),
                    )
                    .expect("spawn server");
                let pc = c
                    .spawn(
                        MachineId(client),
                        "client",
                        &Client::state(requests, period_us, payload),
                        ImageLayout::default(),
                    )
                    .expect("spawn client");
                let ls = c.link_to(ps).expect("link");
                c.post(pc, wl::INIT, bytes::Bytes::new(), vec![ls])
                    .expect("init");
                procs.push(ps);
                procs.push(pc);
            }
        }
    }
    procs
}

/// Apply one schedule event, enforcing the safety guards. Returns whether
/// the event was actually applied.
///
/// `scenario_recovery` is the scenario's flag (crashes are permanent and
/// may hit populated machines); `active_recovery` says the recovery
/// machinery is actually running (not ablated) — with it active, a crash
/// additionally waits until stable storage holds a checkpoint for every
/// resident process, mirroring an operator who only decommissions a
/// machine the checkpointer has covered.
fn apply_event(
    c: &mut Cluster,
    checker: &mut Checker,
    procs: &[ProcessId],
    kind: EventKind,
    scenario_recovery: bool,
    active_recovery: bool,
) -> bool {
    match kind {
        EventKind::Migrate { slot, to } => {
            let pid = procs[slot as usize];
            let to = MachineId(to);
            if c.is_crashed(to) || c.where_is(pid) == Some(to) {
                return false;
            }
            c.migrate(pid, to).is_ok()
        }
        EventKind::Burst {
            slot,
            count,
            payload,
        } => {
            let pid = procs[slot as usize];
            let body = bytes::Bytes::from(vec![0u8; payload as usize]);
            let mut any = false;
            for _ in 0..count {
                if c.post(pid, BURST_TAG, body.clone(), vec![]).is_ok() {
                    checker.bursts_posted[slot as usize] += 1;
                    any = true;
                }
            }
            any
        }
        EventKind::Partition { a, b } => c.partition(MachineId(a), MachineId(b)),
        EventKind::HealEdge { a, b } => c.heal(MachineId(a), MachineId(b)),
        EventKind::Crash { m } => {
            let m = MachineId(m);
            if c.is_crashed(m) {
                return false;
            }
            if scenario_recovery {
                // Permanent crash. Keep at least two live survivors so
                // re-homing has a target and traffic still flows.
                let live_after = (0..c.len() as u16)
                    .filter(|&i| i != m.0 && !c.is_crashed(MachineId(i)))
                    .count();
                if live_after < 2 {
                    return false;
                }
                if active_recovery {
                    let pids: Vec<ProcessId> = c.node(m).kernel.pids().collect();
                    let all_checkpointed = pids
                        .iter()
                        .all(|&p| c.recovery().is_some_and(|r| r.checkpoint_of(p).is_some()));
                    if !all_checkpointed {
                        return false;
                    }
                }
                c.crash(m);
                true
            } else {
                let kernel = &c.node(m).kernel;
                let empty = kernel.nprocs() == 0 && kernel.forwarding_table().is_empty();
                let engines_idle = (0..c.len() as u16)
                    .filter(|&i| !c.is_crashed(MachineId(i)))
                    .all(|i| c.node(MachineId(i)).engine.in_flight() == 0);
                if empty && engines_idle {
                    c.crash(m);
                    true
                } else {
                    false
                }
            }
        }
        EventKind::Revive { m } => {
            let m = MachineId(m);
            if c.is_crashed(m) {
                c.revive(m);
                true
            } else {
                false
            }
        }
        EventKind::Degrade { m, factor_pct } => {
            let m = MachineId(m);
            if c.is_crashed(m) {
                return false;
            }
            c.degrade(m, factor_pct as f64 / 100.0);
            true
        }
        EventKind::Restore { m } => {
            let m = MachineId(m);
            if c.is_crashed(m) {
                return false;
            }
            c.degrade(m, 1.0);
            true
        }
    }
}

/// Export the trace as JSON lines: one object per record, in order. Two
/// runs of the same scenario must produce byte-identical output (the
/// determinism test pins this).
pub fn trace_json_lines(trace: &Trace) -> String {
    trace.json_lines()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn clean_seed_passes_all_invariants() {
        let sc = Scenario::generate(1);
        let report = run(&sc, &RunConfig::default());
        assert!(
            report.passed(),
            "seed 1 violated: {:?}",
            report.violation.map(|v| v.to_string())
        );
        assert!(report.events_applied > 0, "schedule did something");
    }

    #[test]
    fn same_seed_same_fingerprint_and_trace() {
        let sc = Scenario::generate(7);
        let (a, ta) = run_full(&sc, &RunConfig::default());
        let (b, tb) = run_full(&sc, &RunConfig::default());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(ta, tb, "byte-identical JSON-lines export");
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn forwarding_ablation_is_caught() {
        // A migration of a chattering ping-pong peer with forwarding
        // disabled bounces the next ball as non-deliverable.
        let sc = crate::scenario::Scenario {
            seed: 1,
            topo: crate::scenario::TopoSpec {
                kind: crate::scenario::TopoKind::Mesh,
                n: 3,
                latency_us: 200,
                ns_per_byte: 100,
                loss_pm: 0,
            },
            quantum_us: 2_000,
            horizon_us: 30_000,
            drain_us: 10_000_000,
            workloads: vec![crate::scenario::Workload::PingPong {
                a: 0,
                b: 1,
                limit: 100,
                cpu_us: 50,
            }],
            events: vec![crate::scenario::Event {
                at_us: 5_000,
                kind: EventKind::Migrate { slot: 1, to: 2 },
            }],
            recovery: false,
        };
        assert!(run(&sc, &RunConfig::default()).passed(), "healthy kernel");
        let report = run(
            &sc,
            &RunConfig {
                disable_forwarding: true,
                ..RunConfig::default()
            },
        );
        assert!(report.violation.is_some(), "broken kernel must be caught");
    }

    #[test]
    fn permanent_crash_recovered_and_ablation_caught() {
        // An echo server's machine dies permanently mid-service. With
        // the recovery machinery the detector confirms the death, the
        // server is re-homed from its checkpoint, and every invariant
        // holds; with the machinery ablated the same schedule must be
        // caught as a vanished process.
        let sc = crate::scenario::Scenario {
            seed: 3,
            topo: crate::scenario::TopoSpec {
                kind: crate::scenario::TopoKind::Mesh,
                n: 3,
                latency_us: 200,
                ns_per_byte: 50,
                loss_pm: 0,
            },
            quantum_us: 2_000,
            horizon_us: 60_000,
            drain_us: 10_000_000,
            workloads: vec![crate::scenario::Workload::ClientServer {
                client: 0,
                server: 1,
                requests: 80,
                period_us: 800,
                payload: 64,
            }],
            events: vec![crate::scenario::Event {
                at_us: 20_000,
                kind: EventKind::Crash { m: 1 },
            }],
            recovery: true,
        };
        let report = run(&sc, &RunConfig::default());
        assert!(
            report.passed(),
            "recovered run violated: {:?}",
            report.violation.map(|v| v.to_string())
        );
        assert_eq!(report.events_applied, 1, "the crash was applied");
        let ablated = run(
            &sc,
            &RunConfig {
                disable_recovery: true,
                ..RunConfig::default()
            },
        );
        assert!(
            matches!(
                ablated.violation,
                Some(crate::invariants::Violation::ProcessVanished { .. })
            ),
            "ablation must orphan the server: {:?}",
            ablated.violation.map(|v| v.to_string())
        );
    }

    /// The checker as it was before the ledger became a resumable fold:
    /// every quantum re-reads the trace from record 0. Everything but the
    /// ledger comes from the real checker (on a fold that never resumes);
    /// the duplicate verdict is recomputed here from `ledger_of`.
    fn refolding_check(k: &mut Checker, c: &Cluster) -> Option<Violation> {
        k.ledger = demos_sim::span::LedgerFold::default();
        let v = k.continuous(c);
        let dupes = demos_sim::span::ledger_of(c.trace()).duplicates();
        match &v {
            Some(Violation::Duplicated { count, sample }) => {
                let first: Vec<String> = dupes.iter().take(3).map(|d| format!("{d:?}")).collect();
                assert_eq!((*count, sample), (dupes.len(), &first.join(", ")));
            }
            // An earlier check in the chain answered first.
            Some(_) => {}
            None => assert!(dupes.is_empty(), "missed duplicates: {dupes:?}"),
        }
        v
    }

    #[test]
    fn fold_and_refold_reach_the_same_verdict_at_the_same_quantum() {
        let no_forwarding = RunConfig {
            disable_forwarding: true,
            ..RunConfig::default()
        };
        let no_recovery = RunConfig {
            disable_recovery: true,
            ..RunConfig::default()
        };
        let mut caught = std::collections::BTreeMap::<&str, usize>::new();
        for seed in 0..32 {
            for (sc, cfg) in [
                (Scenario::generate(seed), no_forwarding),
                (Scenario::generate_recovery(seed), no_recovery),
                (Scenario::generate_recovery(seed), RunConfig::default()),
            ] {
                let fold = execute(&sc, &cfg, Checker::continuous);
                let refold = execute(&sc, &cfg, refolding_check);
                let fingerprints = [&fold, &refold].map(|d| d.cluster.trace().fingerprint());
                let (fold, _) = fold.finish(fingerprints[0]);
                let (refold, _) = refold.finish(fingerprints[1]);
                assert_eq!(fold.violation, refold.violation, "seed {seed} {cfg:?}");
                assert_eq!(fold.end_us, refold.end_us, "seed {seed} {cfg:?}");
                assert_eq!(fold.events_applied, refold.events_applied);
                assert_eq!(fold.fingerprint, refold.fingerprint, "seed {seed} {cfg:?}");
                if let Some(v) = &fold.violation {
                    *caught.entry(v.slug()).or_default() += 1;
                }
            }
        }
        // The ablations are caught mid-run and at quiescence alike.
        assert!(caught.len() >= 2, "violation variants seen: {caught:?}");
    }

    #[test]
    fn coverage_is_deterministic_and_nonempty() {
        let sc = Scenario::generate(7);
        let (ra, ca) = run_with_coverage(&sc, &RunConfig::default());
        let (rb, cb) = run_with_coverage(&sc, &RunConfig::default());
        assert_eq!(ra.fingerprint, rb.fingerprint);
        assert_eq!(ca, cb, "same seed, same feature set");
        assert!(!ca.is_empty(), "a real run exhibits features");
        // A run with applied events exhibits at least one fault-phase
        // pairing.
        if ra.events_applied > 0 {
            use demos_obs::features::{class, unpack};
            assert!(
                ca.iter().any(|f| unpack(f).0 == class::FAULT_PHASE),
                "applied events produce fault-phase features"
            );
        }
    }

    #[test]
    fn violation_feature_reaches_the_set() {
        // The forwarding-ablation scenario from above, through the
        // coverage path: the violation variant must be a feature.
        let sc = crate::scenario::Scenario {
            seed: 1,
            topo: crate::scenario::TopoSpec {
                kind: crate::scenario::TopoKind::Mesh,
                n: 3,
                latency_us: 200,
                ns_per_byte: 100,
                loss_pm: 0,
            },
            quantum_us: 2_000,
            horizon_us: 30_000,
            drain_us: 10_000_000,
            workloads: vec![crate::scenario::Workload::PingPong {
                a: 0,
                b: 1,
                limit: 100,
                cpu_us: 50,
            }],
            events: vec![crate::scenario::Event {
                at_us: 5_000,
                kind: EventKind::Migrate { slot: 1, to: 2 },
            }],
            recovery: false,
        };
        let (report, cov) = run_with_coverage(
            &sc,
            &RunConfig {
                disable_forwarding: true,
                ..RunConfig::default()
            },
        );
        let v = report.violation.expect("ablation caught");
        assert!(cov.contains(crate::coverage::violation_feature(&v)));
    }
}
