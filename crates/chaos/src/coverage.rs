//! Chaos-level schedule coverage: the fuzzer's feedback signal.
//!
//! `demos_obs::features` owns the packed feature ids and the
//! record-level decoding; `demos_sim::coverage` extracts the
//! trace-visible classes plus recovery-episode overlap. This module adds
//! the classes only the harness can see — which *fault kind* landed in
//! which §3.1 *migration phase* (the scheduled fault times live in the
//! scenario, the phases in the trace), and which invariant-violation
//! variant a run produced — and assembles them into the per-run
//! [`FeatureSet`] the corpus pool steers by.

use demos_kernel::{MigrationPhase, TraceEvent, TraceRecord};
use demos_obs::features::{class, feature, unpack, FeatureSet};

use crate::invariants::Violation;
use crate::scenario::EventKind;

/// Stable code for a fault kind (the `FAULT_PHASE` feature's `a`
/// operand). Append-only.
pub fn fault_code(kind: EventKind) -> u32 {
    match kind {
        EventKind::Migrate { .. } => 0,
        EventKind::Burst { .. } => 1,
        EventKind::Partition { .. } => 2,
        EventKind::HealEdge { .. } => 3,
        EventKind::Crash { .. } => 4,
        EventKind::Revive { .. } => 5,
        EventKind::Degrade { .. } => 6,
        EventKind::Restore { .. } => 7,
    }
}

/// Human name of a [`fault_code`] value.
pub fn fault_name(code: u32) -> &'static str {
    match code {
        0 => "migrate",
        1 => "burst",
        2 => "partition",
        3 => "heal",
        4 => "crash",
        5 => "revive",
        6 => "degrade",
        7 => "restore",
        _ => "unknown",
    }
}

/// `fault × phase` features for a run: for every *applied* schedule
/// event, pair its fault kind with the phase of each migration in
/// flight at that instant (phase + 1; 0 when no migration was open).
/// "Crash during `pending_forwarded`" and "partition during
/// `state_transferred`" become distinct, countable coverage points.
pub fn fault_phase_features(
    records: &[TraceRecord],
    applied: &[(u64, EventKind)],
    out: &mut FeatureSet,
) {
    // Walk faults and trace in lockstep (both time-ordered), keeping the
    // open-migration table current as of each fault instant.
    let mut open: std::collections::BTreeMap<demos_types::ProcessId, MigrationPhase> =
        std::collections::BTreeMap::new();
    let mut ri = 0usize;
    for &(at_us, kind) in applied {
        while ri < records.len() && records[ri].at.as_micros() <= at_us {
            if let TraceEvent::Migration { pid, phase, .. } = records[ri].event {
                match phase {
                    MigrationPhase::Restarted
                    | MigrationPhase::Aborted
                    | MigrationPhase::Rejected => {
                        open.remove(&pid);
                    }
                    p @ (MigrationPhase::Frozen
                    | MigrationPhase::Offered
                    | MigrationPhase::Allocated
                    | MigrationPhase::StateTransferred
                    | MigrationPhase::ImageTransferred
                    | MigrationPhase::PendingForwarded
                    | MigrationPhase::CleanedUp) => {
                        open.insert(pid, p);
                    }
                }
            }
            ri += 1;
        }
        let fc = fault_code(kind);
        if open.is_empty() {
            out.insert(feature(class::FAULT_PHASE, fc, 0));
        } else {
            for &phase in open.values() {
                let code = demos_sim::flight::phase_code(phase) as u32 + 1;
                out.insert(feature(class::FAULT_PHASE, fc, code));
            }
        }
    }
}

/// The `VIOLATION` feature for a verdict.
pub fn violation_feature(v: &Violation) -> u64 {
    feature(class::VIOLATION, v.code(), 0)
}

/// Human rendering of a feature id, refining the generic obs rendering
/// with the chaos fault alphabet.
pub fn describe(f: u64) -> String {
    let (cl, a, _) = unpack(f);
    let base = demos_obs::features::describe(f);
    match cl {
        class::FAULT_PHASE => base.replace(&format!("fault#{a}"), fault_name(a)),
        class::VIOLATION => base.replace(&format!("violation#{a}"), violation_name(a)),
        _ => base,
    }
}

fn violation_name(code: u32) -> &'static str {
    match code {
        0 => "violation:lost",
        1 => "violation:duplicated",
        2 => "violation:nondeliverable",
        3 => "violation:fwdcycle",
        4 => "violation:vanished",
        5 => "violation:multiplied",
        6 => "violation:linkdiverged",
        7 => "violation:transport",
        8 => "violation:notquiescent",
        9 => "violation:workload",
        _ => "violation:unknown",
    }
}

/// Render a deterministic coverage report (the `--coverage-report`
/// artifact): totals, per-class counts, then every feature with its
/// description, in id order.
pub fn render_report(
    set: &FeatureSet,
    execs: u64,
    rounds: u64,
    pool: usize,
    bugs: usize,
) -> String {
    let mut s = String::new();
    s.push_str("demos-chaos coverage v1\n");
    s.push_str(&format!("execs {execs}\n"));
    s.push_str(&format!("rounds {rounds}\n"));
    s.push_str(&format!("pool {pool}\n"));
    s.push_str(&format!("bugs {bugs}\n"));
    s.push_str(&format!("features {}\n", set.len()));
    for (cl, n) in set.class_counts() {
        s.push_str(&format!(
            "class {} {}\n",
            demos_obs::features::class_name(cl),
            n
        ));
    }
    for f in set.iter() {
        s.push_str(&format!("feat {f:016x} {}\n", describe(f)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::{MachineId, ProcessId, Time};

    fn pid(u: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(0),
            local_uid: u,
        }
    }

    fn mig(at: u64, u: u32, phase: MigrationPhase) -> TraceRecord {
        TraceRecord {
            at: Time(at),
            machine: MachineId(0),
            event: TraceEvent::Migration {
                pid: pid(u),
                phase,
                bytes: 0,
            },
        }
    }

    #[test]
    fn faults_pair_with_open_phases_only() {
        let records = vec![
            mig(1_000, 1, MigrationPhase::Frozen),
            mig(2_000, 1, MigrationPhase::Offered),
            mig(5_000, 1, MigrationPhase::Restarted),
        ];
        let applied = vec![
            (
                500,
                EventKind::Burst {
                    slot: 0,
                    count: 1,
                    payload: 0,
                },
            ),
            (3_000, EventKind::Partition { a: 0, b: 1 }),
            (6_000, EventKind::Crash { m: 0 }),
        ];
        let mut set = FeatureSet::new();
        fault_phase_features(&records, &applied, &mut set);
        // Burst before any migration: idle pairing.
        assert!(set.contains(feature(class::FAULT_PHASE, 1, 0)));
        // Partition landed while the migration sat in Offered.
        let offered = demos_sim::flight::phase_code(MigrationPhase::Offered) as u32 + 1;
        assert!(set.contains(feature(class::FAULT_PHASE, 2, offered)));
        // Crash after Restarted: the migration is closed again.
        assert!(set.contains(feature(class::FAULT_PHASE, 4, 0)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn descriptions_use_fault_and_violation_names() {
        let f = feature(class::FAULT_PHASE, 4, 0);
        assert!(describe(f).starts_with("crash x idle"), "{}", describe(f));
        let v = violation_feature(&Violation::ProcessVanished { pid: pid(1) });
        assert!(describe(v).contains("vanished"), "{}", describe(v));
    }

    #[test]
    fn report_is_deterministic_and_labelled() {
        let mut set = FeatureSet::new();
        set.insert(feature(class::FAULT_PHASE, 0, 0));
        set.insert(feature(class::VIOLATION, 4, 0));
        let a = render_report(&set, 10, 2, 3, 1);
        let b = render_report(&set, 10, 2, 3, 1);
        assert_eq!(a, b);
        assert!(a.contains("features 2"));
        assert!(a.contains("class fault-phase 1"));
        assert!(a.contains("migrate x idle"));
    }
}
