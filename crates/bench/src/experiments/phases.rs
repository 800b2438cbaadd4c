//! E16 — migration phase costs through the observability pipeline.
//!
//! Reproduces the shape of the paper's §6 cost table (per-step costs,
//! dominated by the state/image transfer) from the *flight recorder*
//! rather than the full trace: each sub-run serializes every machine's
//! ring, parses and merges the dump exactly as the `demos-trace` CLI
//! would, and prints the per-phase percentile table stitched from the
//! compact records. The `demos-top` phase panel renders the same
//! migrations row-by-row from the trace: trace-fed and dump-fed input to
//! the one lifecycle fold (`demos_obs::recorder::migration_spans`), which
//! must agree on how many completed.
//!
//! The whole experiment runs twice and asserts both the printed output
//! and the recorder dump are byte-identical — the determinism claim the
//! rest of the harness leans on, extended to the new subsystem.

use demos_obs::recorder::{merge, parse_dump, PhaseTable};
use demos_sim::prelude::*;

use crate::section;

/// Where the last sub-run's recorder dump lands (CI's trace-tools smoke
/// job points `demos-trace` at it).
pub const E16_DUMP_PATH: &str = "target/e16_phase_costs.flight";

const SEED: u64 = 1234;
const MIGRATIONS: usize = 6;

struct SubRun {
    label: &'static str,
    code_kib: u32,
    accept: AcceptPolicy,
}

const CASES: [SubRun; 4] = [
    SubRun {
        label: "image 4 KiB",
        code_kib: 4,
        accept: AcceptPolicy::Always,
    },
    SubRun {
        label: "image 64 KiB",
        code_kib: 64,
        accept: AcceptPolicy::Always,
    },
    SubRun {
        label: "image 256 KiB",
        code_kib: 256,
        accept: AcceptPolicy::Always,
    },
    SubRun {
        label: "rejecting destination (policy ablation)",
        code_kib: 4,
        accept: AcceptPolicy::Never,
    },
];

/// Run one sub-case: spawn cargo processes, migrate each off m0, and
/// return the cluster for inspection.
fn run_case(case: &SubRun) -> Cluster {
    let mut cluster = ClusterBuilder::new(4)
        .seed(SEED)
        .migration_config(MigrationConfig {
            accept: case.accept,
            ..MigrationConfig::default()
        })
        .build();
    let layout = ImageLayout {
        code: case.code_kib * 1024,
        data: 2048,
        stack: 1024,
    };
    let mut pids = Vec::new();
    for _ in 0..MIGRATIONS {
        pids.push(
            cluster
                .spawn(
                    MachineId(0),
                    "cargo",
                    &demos_sim::programs::Cargo::state(64),
                    layout,
                )
                .unwrap(),
        );
    }
    cluster.run_for(Duration::from_millis(5));
    // Staggered so each lifecycle's phases are cleanly separated on the
    // virtual clock; destinations round-robin over the other machines.
    for (k, &pid) in pids.iter().enumerate() {
        cluster.migrate(pid, MachineId(1 + (k % 3) as u16)).unwrap();
        cluster.run_for(Duration::from_millis(30));
    }
    cluster.run_for(Duration::from_millis(300));
    cluster
}

/// One full pass: every sub-case's table plus the phase panel, and the
/// last Always-policy sub-run's recorder dump.
fn run_once() -> (String, Vec<u8>) {
    let mut out = String::new();
    let mut dump_for_ci = Vec::new();
    for case in &CASES {
        let cluster = run_case(case);
        let dump = cluster.recorder_dump();
        let records = merge(&parse_dump(&dump).expect("own dump parses"));
        let table = PhaseTable::from_records(&records);
        out.push_str(&format!("{} — per-phase costs (us):\n", case.label));
        out.push_str(&table.render());
        out.push('\n');
        if matches!(case.accept, AcceptPolicy::Always) {
            // Trace-fed and dump-fed input to the one fold agree.
            let spans = demos_sim::migration_spans_of(cluster.trace());
            let completed = spans.iter().filter(|s| s.completed()).count() as u64;
            assert_eq!(
                completed, table.completed,
                "trace-fed and dump-fed lifecycles agree"
            );
            dump_for_ci = dump;
            if case.code_kib == 256 {
                out.push_str("phase panel (demos-top view of the same migrations):\n");
                out.push_str(&cluster.phase_report());
                out.push('\n');
            }
        }
    }
    (out, dump_for_ci)
}

/// E16 — per-phase migration cost percentiles from the flight recorder.
pub fn e16_phase_costs() {
    section("E16: migration phase costs via flight recorder (paper: transfer dominates)");
    let (first, dump_first) = run_once();
    let (second, dump_second) = run_once();
    assert_eq!(first, second, "E16 output must replay byte-identically");
    assert_eq!(
        dump_first, dump_second,
        "recorder dump must replay byte-identically"
    );
    print!("{first}");
    let _ = std::fs::create_dir_all("target");
    std::fs::write(E16_DUMP_PATH, &dump_first).expect("write flight dump");
    println!("determinism: output and recorder dump byte-identical across two runs");
    println!("flight dump written to {E16_DUMP_PATH} (query with demos-trace)");
    println!();
    println!("Negotiation and restart are near-constant; the transfer phase scales");
    println!("with the image, reproducing §6's conclusion that moving the memory");
    println!("image overshadows every other step of the protocol.");
}
