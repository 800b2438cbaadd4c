//! Greedy schedule shrinking.
//!
//! Once a scenario trips an invariant, the schedule that produced it is
//! usually mostly noise. The shrinker re-executes candidate reductions
//! and keeps any that still reproduce the *same kind* of violation
//! (matching on the enum variant, so the shrink can't drift from a lost
//! message to an unrelated counter mismatch):
//!
//! 1. **ddmin over events** — try deleting chunks of the schedule,
//!    halving the chunk size down to single events;
//! 2. **workload pruning** — drop whole workloads (remapping event slot
//!    references, deleting events that referenced the dropped slots);
//! 3. repeat until a fixed point or the run budget is exhausted.
//!
//! Everything is deterministic, so "still reproduces" is a plain re-run.

use crate::exec::{run, RunConfig};
use crate::invariants::Violation;
use crate::scenario::{EventKind, Scenario};

/// Result of a shrink campaign.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The smallest scenario found that still violates.
    pub scenario: Scenario,
    /// The violation the shrunk scenario produces.
    pub violation: Violation,
    /// Scenario executions spent.
    pub runs: usize,
    /// Accepted reductions, in order — the shrink's audit trail
    /// (`events 5 -> 3`, `workload 1 dropped`). Deterministic for a
    /// given input, so tests can pin it as a golden trace.
    pub steps: Vec<String>,
}

fn same_kind(a: &Violation, b: &Violation) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Drop workload `wi`, removing events that reference its slots and
/// shifting higher slot references down. Returns `None` if it was the
/// only workload.
fn drop_workload(sc: &Scenario, wi: usize) -> Option<Scenario> {
    if sc.workloads.len() <= 1 {
        return None;
    }
    let first: u16 = sc.workloads[..wi].iter().map(|w| w.slots()).sum();
    let width = sc.workloads[wi].slots();
    let mut out = sc.clone();
    out.workloads.remove(wi);
    out.events.retain_mut(|e| match &mut e.kind {
        EventKind::Migrate { slot, .. } | EventKind::Burst { slot, .. } => {
            if (first..first + width).contains(slot) {
                false
            } else {
                if *slot >= first + width {
                    *slot -= width;
                }
                true
            }
        }
        EventKind::Partition { .. }
        | EventKind::HealEdge { .. }
        | EventKind::Crash { .. }
        | EventKind::Revive { .. }
        | EventKind::Degrade { .. }
        | EventKind::Restore { .. } => true,
    });
    Some(out)
}

/// Shrink `sc` (which must produce `original` under `cfg`) within a
/// budget of `max_runs` re-executions.
pub fn shrink(
    sc: &Scenario,
    cfg: &RunConfig,
    original: &Violation,
    max_runs: usize,
) -> ShrinkResult {
    let mut cur = sc.clone();
    let mut cur_violation = original.clone();
    let mut runs = 0usize;
    let mut steps: Vec<String> = Vec::new();

    let reproduces = |cand: &Scenario, runs: &mut usize| -> Option<Violation> {
        *runs += 1;
        run(cand, cfg).violation.filter(|v| same_kind(v, original))
    };

    loop {
        let mut progressed = false;

        // Pass 1: ddmin over the event schedule.
        let mut chunk = (cur.events.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < cur.events.len() && runs < max_runs {
                let mut cand = cur.clone();
                let end = (i + chunk).min(cand.events.len());
                cand.events.drain(i..end);
                if let Some(v) = reproduces(&cand, &mut runs) {
                    steps.push(format!(
                        "events {} -> {}",
                        cur.events.len(),
                        cand.events.len()
                    ));
                    cur = cand;
                    cur_violation = v;
                    progressed = true;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 || runs >= max_runs {
                break;
            }
            chunk = (chunk / 2).max(1);
        }

        // Pass 2: drop whole workloads.
        let mut wi = 0;
        while wi < cur.workloads.len() && runs < max_runs {
            if let Some(cand) = drop_workload(&cur, wi) {
                if let Some(v) = reproduces(&cand, &mut runs) {
                    steps.push(format!("workload {wi} dropped"));
                    cur = cand;
                    cur_violation = v;
                    progressed = true;
                    continue; // same index now names the next workload
                }
            }
            wi += 1;
        }

        if !progressed || runs >= max_runs {
            break;
        }
    }

    ShrinkResult {
        scenario: cur,
        violation: cur_violation,
        runs,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Event, TopoKind, TopoSpec, Workload};

    fn broken_scenario() -> Scenario {
        // A busy schedule where only the migration matters once
        // forwarding is disabled.
        let sc = Scenario {
            seed: 9,
            topo: TopoSpec {
                kind: TopoKind::Mesh,
                n: 3,
                latency_us: 200,
                ns_per_byte: 100,
                loss_pm: 10,
            },
            quantum_us: 3_000,
            horizon_us: 40_000,
            drain_us: 10_000_000,
            workloads: vec![
                Workload::PingPong {
                    a: 0,
                    b: 1,
                    limit: 150,
                    cpu_us: 30,
                },
                Workload::Cargo { m: 2, ballast: 512 },
            ],
            events: vec![
                Event {
                    at_us: 2_000,
                    kind: EventKind::Burst {
                        slot: 2,
                        count: 3,
                        payload: 16,
                    },
                },
                Event {
                    at_us: 4_000,
                    kind: EventKind::Degrade {
                        m: 2,
                        factor_pct: 300,
                    },
                },
                Event {
                    at_us: 6_000,
                    kind: EventKind::Migrate { slot: 1, to: 2 },
                },
                Event {
                    at_us: 9_000,
                    kind: EventKind::Restore { m: 2 },
                },
                Event {
                    at_us: 12_000,
                    kind: EventKind::Burst {
                        slot: 2,
                        count: 2,
                        payload: 8,
                    },
                },
            ],
            recovery: false,
        };
        sc.validate().unwrap();
        sc
    }

    #[test]
    fn shrinks_broken_kernel_to_the_migration() {
        let cfg = RunConfig {
            disable_forwarding: true,
            ..RunConfig::default()
        };
        let sc = broken_scenario();
        let v = run(&sc, &cfg).violation.expect("must violate");
        let res = shrink(&sc, &cfg, &v, 100);
        assert!(
            res.scenario.events.len() <= 2,
            "shrunk to {} events: {:?}",
            res.scenario.events.len(),
            res.scenario.events
        );
        assert!(res
            .scenario
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Migrate { .. })));
        // The shrunk scenario still reproduces.
        let again = run(&res.scenario, &cfg).violation.expect("reproduces");
        assert_eq!(
            std::mem::discriminant(&again),
            std::mem::discriminant(&res.violation)
        );
    }

    /// A scenario with *two* real faults (a migration and a permanent-ish
    /// partition window) buried in noise, used by the multi-fault golden
    /// tests: under `disable_forwarding` only the migration matters, so
    /// the shrinker must peel away the partition too.
    fn multi_fault_scenario() -> Scenario {
        let sc = Scenario {
            seed: 17,
            topo: TopoSpec {
                kind: TopoKind::Mesh,
                n: 4,
                latency_us: 150,
                ns_per_byte: 50,
                loss_pm: 0,
            },
            quantum_us: 2_500,
            horizon_us: 50_000,
            drain_us: 10_000_000,
            workloads: vec![
                Workload::PingPong {
                    a: 0,
                    b: 1,
                    limit: 200,
                    cpu_us: 40,
                },
                Workload::Cargo { m: 3, ballast: 256 },
                Workload::ClientServer {
                    client: 2,
                    server: 3,
                    requests: 30,
                    period_us: 500,
                    payload: 64,
                },
            ],
            events: vec![
                Event {
                    at_us: 2_000,
                    kind: EventKind::Burst {
                        slot: 2,
                        count: 4,
                        payload: 32,
                    },
                },
                Event {
                    at_us: 5_000,
                    kind: EventKind::Partition { a: 2, b: 3 },
                },
                Event {
                    at_us: 8_000,
                    kind: EventKind::Migrate { slot: 1, to: 2 },
                },
                Event {
                    at_us: 11_000,
                    kind: EventKind::HealEdge { a: 2, b: 3 },
                },
                Event {
                    at_us: 14_000,
                    kind: EventKind::Degrade {
                        m: 1,
                        factor_pct: 400,
                    },
                },
                Event {
                    at_us: 20_000,
                    kind: EventKind::Migrate { slot: 4, to: 0 },
                },
                Event {
                    at_us: 26_000,
                    kind: EventKind::Restore { m: 1 },
                },
                Event {
                    at_us: 30_000,
                    kind: EventKind::Burst {
                        slot: 0,
                        count: 2,
                        payload: 16,
                    },
                },
            ],
            recovery: false,
        };
        sc.validate().unwrap();
        sc
    }

    #[test]
    fn multi_fault_shrink_trace_is_golden() {
        let cfg = RunConfig {
            disable_forwarding: true,
            ..RunConfig::default()
        };
        let sc = multi_fault_scenario();
        let v = run(&sc, &cfg).violation.expect("multi-fault must violate");
        let res = shrink(&sc, &cfg, &v, 200);
        // The full audit trail: ddmin halves the 8-event schedule down
        // to the single triggering migration, then the workload pass
        // drops the cargo and client/server workloads (index 1 twice —
        // the list shifts after each drop).
        assert_eq!(
            res.steps,
            vec![
                "events 8 -> 4",
                "events 4 -> 2",
                "events 2 -> 1",
                "workload 1 dropped",
                "workload 1 dropped",
            ]
        );
        assert_eq!(
            res.scenario.events,
            vec![Event {
                at_us: 8_000,
                kind: EventKind::Migrate { slot: 1, to: 2 },
            }]
        );
        assert_eq!(
            res.scenario.workloads,
            vec![Workload::PingPong {
                a: 0,
                b: 1,
                limit: 200,
                cpu_us: 40,
            }]
        );
        assert_eq!(res.runs, 10, "the whole shrink costs ten executions");
        // Variant preservation: the shrunk repro trips the same variant
        // as the original run, and still does so on replay.
        assert_eq!(
            std::mem::discriminant(&res.violation),
            std::mem::discriminant(&v)
        );
        let replay = run(&res.scenario, &cfg).violation.expect("replays");
        assert_eq!(
            std::mem::discriminant(&replay),
            std::mem::discriminant(&res.violation)
        );
    }

    #[test]
    fn multi_fault_shrink_is_deterministic() {
        let cfg = RunConfig {
            disable_forwarding: true,
            ..RunConfig::default()
        };
        let sc = multi_fault_scenario();
        let v = run(&sc, &cfg).violation.expect("must violate");
        let a = shrink(&sc, &cfg, &v, 200);
        let b = shrink(&sc, &cfg, &v, 200);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.scenario.to_text(), b.scenario.to_text());
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn drop_workload_remaps_slots() {
        let sc = broken_scenario();
        let dropped = drop_workload(&sc, 1).unwrap();
        assert_eq!(dropped.workloads.len(), 1);
        // Events addressed to the cargo slot (2) are gone; the migration
        // of slot 1 survives untouched.
        assert_eq!(dropped.events.len(), 3);
        assert!(dropped
            .events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::Burst { .. })));
    }
}
