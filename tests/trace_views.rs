//! The views the chaos executor takes of its trace, each against a
//! from-scratch reference kept in this file:
//!
//! * the delivery ledger as a resumable fold (`LedgerFold`) — advanced in
//!   pieces it must give what one `ledger_of` pass over the whole trace
//!   gives, and a cleared trace starts it over — and the ledger's own
//!   re-home rule, on a hand-made journey;
//! * the record renderer — `TraceEvent::write_text` must write what the
//!   derived `Debug` writes, and `Trace::fingerprint`, `trace_json_lines`
//!   and the one pass that produces both must be byte-identical to the
//!   `format!`-per-record formulas they replaced;
//! * the migration-phase views — `phase_json_lines`, `phase_report` and
//!   the recorder dump's `PhaseTable` — against digests pinned in
//!   `tests/views/PHASE_DIGESTS.txt`.
//!
//! Traces come from real runs: every committed corpus and distilled seed,
//! plus ablation runs (`no-forwarding`, `no-recovery`) that end in a
//! violation, so ledgers with failed and undelivered ids are covered too.
//! The renderer is also held to the reference on the 64 scenarios the
//! `fault_sweep` benchmark workload runs, and on a table of every event
//! variant at boundary values.

use std::path::{Path, PathBuf};

use demos_chaos::{run_cluster, trace_json_lines, RunConfig, Scenario};
use demos_kernel::{MigrationPhase, TraceEvent, TraceRecord};
use demos_mp::obs::{DeliveryEvent, DeliveryLedger};
use demos_obs::recorder::{merge, parse_dump, PhaseTable};
use demos_sim::span::{ledger_of, LedgerFold};
use demos_sim::{Cluster, Trace};
use demos_types::{CorrId, MachineId, ProcessId, Time};

/// Finished runs to take traces from: the committed corpus, and the
/// first few violating seeds of each ablation.
fn finished_runs() -> Vec<(String, Cluster)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut runs = Vec::new();
    for dir in [root.clone(), root.join("distilled")] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "seed"))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).expect("read seed");
            let sc =
                Scenario::from_corpus(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let (report, cluster) = run_cluster(&sc, &RunConfig::default());
            assert!(report.passed(), "{}: {:?}", p.display(), report.violation);
            let name = p.strip_prefix(&root).unwrap_or(&p).display().to_string();
            runs.push((name, cluster));
        }
    }
    assert!(runs.len() >= 59, "the whole committed corpus was replayed");

    let mut ablation = |fault: &str, generate: fn(u64) -> Scenario, cfg: RunConfig| {
        let caught: Vec<_> = (0..64)
            .map(|seed| (seed, run_cluster(&generate(seed), &cfg)))
            .filter(|(_, (report, _))| !report.passed())
            .take(4)
            .map(|(seed, (_, cluster))| (format!("{fault} seed {seed}"), cluster))
            .collect();
        assert!(!caught.is_empty(), "{fault}: no violating seed in 0..64");
        runs.extend(caught);
    };
    let (disable_forwarding, disable_recovery) = (true, true);
    ablation(
        "no-forwarding",
        Scenario::generate,
        RunConfig {
            disable_forwarding,
            ..RunConfig::default()
        },
    );
    ablation(
        "no-recovery",
        Scenario::generate_recovery,
        RunConfig {
            disable_recovery,
            ..RunConfig::default()
        },
    );
    runs
}

fn append(trace: &mut Trace, records: &[TraceRecord]) {
    for r in records {
        trace.extend(r.at, r.machine, [r.event.clone()]);
    }
}

/// Every view a `DeliveryLedger` offers.
fn assert_same_ledger(got: &DeliveryLedger, want: &DeliveryLedger, what: &str) {
    assert_eq!(got.duplicates(), want.duplicates(), "{what}: duplicates");
    assert_eq!(got.undelivered(), want.undelivered(), "{what}: undelivered");
    assert_eq!(got.failed(), want.failed(), "{what}: failed");
    assert_eq!(
        got.submitted_set(),
        want.submitted_set(),
        "{what}: submitted"
    );
    assert_eq!(
        got.delivered_set(),
        want.delivered_set(),
        "{what}: delivered"
    );
    assert_eq!(got.len(), want.len(), "{what}: len");
}

#[test]
fn fold_in_pieces_equals_ledger_of_the_whole() {
    let (mut failed, mut undelivered) = (0, 0);
    for (name, cluster) in finished_runs() {
        let records = cluster.trace().records();
        let whole = ledger_of(cluster.trace());
        failed += whole.failed().len();
        undelivered += whole.undelivered().len();
        // 1, 2 and 7 split points, then one after every record.
        for pieces in [2, 3, 8, records.len().max(1)] {
            let what = format!("{name}, {pieces} pieces");
            let mut growing = Trace::enabled();
            let mut fold = LedgerFold::default();
            for chunk in records.chunks(records.len().div_ceil(pieces).max(1)) {
                append(&mut growing, chunk);
                fold.advance(&growing);
                if pieces <= 8 {
                    assert_same_ledger(fold.ledger(), &ledger_of(&growing), &what);
                }
            }
            // Nothing new: advancing again changes nothing.
            fold.advance(&growing);
            assert_same_ledger(fold.ledger(), &whole, &what);
            assert_eq!(fold, LedgerFold::of(cluster.trace()), "{what}");
        }
    }
    assert!(
        failed > 0 && undelivered > 0,
        "the ablation runs put failed ({failed}) and undelivered ({undelivered}) ids in play"
    );
}

#[test]
fn a_cleared_trace_starts_the_fold_over() {
    let runs = finished_runs();
    let (_, first) = &runs[0];
    let (_, second) = runs
        .iter()
        .find(|(_, c)| c.trace().len() < first.trace().len())
        .expect("a shorter trace than the first");
    let mut trace = Trace::enabled();
    let mut fold = LedgerFold::default();
    append(&mut trace, first.trace().records());
    fold.advance(&trace);
    assert!(!fold.ledger().is_empty());

    trace.clear();
    append(&mut trace, second.trace().records());
    fold.advance(&trace);
    assert_eq!(fold, LedgerFold::of(second.trace()), "new records only");

    trace.clear();
    fold.advance(&trace);
    assert_eq!(fold, LedgerFold::default(), "cleared and left empty");
}

/// §3.1 step 6 re-homes a frozen process's pending messages one hop
/// further, with no `Forwarded` of their own. So a later `Enqueued` with
/// more hops than the id's last is a re-home, not a second delivery; one
/// with equal or fewer hops is a duplicate.
#[test]
fn a_later_enqueue_with_more_hops_is_a_rehome() {
    let c = |n| CorrId::new(MachineId(1), n);
    let mut ledger = DeliveryLedger::new();
    for n in 1..=3 {
        ledger.record(c(n), DeliveryEvent::Submitted);
        ledger.record(c(n), DeliveryEvent::Enqueued { hops: 0 });
    }
    // Re-homed twice, one hop further each time.
    ledger.record(c(1), DeliveryEvent::Enqueued { hops: 1 });
    ledger.record(c(1), DeliveryEvent::Enqueued { hops: 2 });
    // Enqueued again at the same hop count.
    ledger.record(c(2), DeliveryEvent::Enqueued { hops: 0 });
    // Re-homed, then enqueued again back at fewer hops.
    ledger.record(c(3), DeliveryEvent::Enqueued { hops: 1 });
    ledger.record(c(3), DeliveryEvent::Enqueued { hops: 0 });
    assert_eq!(ledger.duplicates(), vec![c(2), c(3)]);
    assert!(ledger.undelivered().is_empty());
    assert_eq!(ledger.delivered_set().len(), 3);
}

// ------------------------------------------------------------------
// Renderer goldens: the formulas the streaming sinks replaced.
// ------------------------------------------------------------------

fn reference_fingerprint(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for r in trace.records() {
        let s = format!("{}|{}|{:?}", r.at.as_micros(), r.machine.0, r.event);
        for b in s.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn reference_json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn reference_json_lines(trace: &Trace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        out.push_str(&format!(
            "{{\"at\":{},\"machine\":{},\"event\":\"{}\"}}\n",
            r.at.as_micros(),
            r.machine.0,
            reference_json_escape(&format!("{:?}", r.event))
        ));
    }
    out
}

fn assert_renders_like_the_reference(trace: &Trace, what: &str) {
    let (fingerprint, lines) = (reference_fingerprint(trace), reference_json_lines(trace));
    assert_eq!(trace.fingerprint(), fingerprint, "{what}: fingerprint");
    assert_eq!(trace_json_lines(trace), lines, "{what}: export");
    assert_eq!(
        trace.fingerprint_and_json_lines(),
        (fingerprint, lines),
        "{what}: teed pass"
    );
}

#[test]
fn streamed_renderings_match_the_format_reference_on_real_traces() {
    for (name, cluster) in finished_runs() {
        assert!(!cluster.trace().is_empty(), "{name}: traced");
        assert_renders_like_the_reference(cluster.trace(), &name);
    }
    // The scenarios the `fault_sweep` benchmark workload generates.
    for seed in 0..64 {
        let (what, sc) = if seed % 2 == 0 {
            ("generate", Scenario::generate(seed))
        } else {
            ("generate_recovery", Scenario::generate_recovery(seed))
        };
        let (_, cluster) = run_cluster(&sc, &RunConfig::default());
        assert!(!cluster.trace().is_empty(), "{what} seed {seed}: traced");
        assert_renders_like_the_reference(cluster.trace(), &format!("{what} seed {seed}"));
    }
}

/// Every migration phase. The `match` fails to compile when a phase is
/// added, and the assertion fails until it is listed here.
fn every_phase() -> Vec<MigrationPhase> {
    use MigrationPhase::*;
    let phases = vec![
        Frozen,
        Offered,
        Allocated,
        Rejected,
        StateTransferred,
        ImageTransferred,
        PendingForwarded,
        CleanedUp,
        Restarted,
        Aborted,
    ];
    let ordinal = |p: MigrationPhase| match p {
        Frozen => 0,
        Offered => 1,
        Allocated => 2,
        Rejected => 3,
        StateTransferred => 4,
        ImageTransferred => 5,
        PendingForwarded => 6,
        CleanedUp => 7,
        Restarted => 8,
        Aborted => 9,
    };
    let seen: Vec<usize> = phases.iter().map(|&p| ordinal(p)).collect();
    assert_eq!(seen, (0..10).collect::<Vec<_>>(), "every phase, once");
    phases
}

/// Which variant an event is; the `match` names all of them.
fn variant_ordinal(e: &TraceEvent) -> usize {
    match e {
        TraceEvent::Spawned { .. } => 0,
        TraceEvent::Exited { .. } => 1,
        TraceEvent::Submitted { .. } => 2,
        TraceEvent::Enqueued { .. } => 3,
        TraceEvent::KernelReceived { .. } => 4,
        TraceEvent::ForwardedMessage { .. } => 5,
        TraceEvent::LinkUpdateSent { .. } => 6,
        TraceEvent::LinkUpdateApplied { .. } => 7,
        TraceEvent::NonDeliverable { .. } => 8,
        TraceEvent::Migration { .. } => 9,
        TraceEvent::ForwardingInstalled { .. } => 10,
        TraceEvent::ForwardingCollected { .. } => 11,
        TraceEvent::MoveDataDone { .. } => 12,
        TraceEvent::Log { .. } => 13,
    }
}

#[test]
fn every_variant_writes_its_debug_text_at_boundary_values() {
    let top = MachineId(u16::MAX);
    let kernel = ProcessId::kernel_of(top);
    let zero_kernel = ProcessId::kernel_of(MachineId(0));
    let pid = ProcessId {
        creating_machine: top,
        local_uid: u32::MAX,
    };
    let low = ProcessId {
        creating_machine: MachineId(0),
        local_uid: 1,
    };
    let (none, max) = (CorrId::NONE, CorrId(u64::MAX));
    let awkward = "quote \" backslash \\ nl \n cr \r tab \t nul \0 del \u{7f} \u{1}\u{1f} \
                   apostrophe ' é → \u{301} \u{200b} \u{10ffff}";
    let mut events = vec![
        TraceEvent::Spawned {
            pid,
            program: awkward.to_string(),
        },
        TraceEvent::Spawned {
            pid: kernel,
            program: String::new(),
        },
        TraceEvent::Exited { pid: zero_kernel },
        TraceEvent::Submitted {
            corr: none,
            dest: kernel,
            msg_type: u16::MAX,
        },
        TraceEvent::Enqueued {
            corr: max,
            pid,
            msg_type: 0,
            forwarded: true,
            hops: u8::MAX,
        },
        TraceEvent::Enqueued {
            corr: none,
            pid: low,
            msg_type: u16::MAX,
            forwarded: false,
            hops: 0,
        },
        TraceEvent::KernelReceived {
            corr: max,
            pid: kernel,
            msg_type: u16::MAX,
        },
        TraceEvent::ForwardedMessage {
            corr: none,
            pid,
            to: top,
            msg_type: 0,
        },
        TraceEvent::LinkUpdateSent {
            corr: max,
            sender: kernel,
            migrated: pid,
            new_machine: top,
        },
        TraceEvent::LinkUpdateApplied {
            corr: none,
            sender: pid,
            migrated: zero_kernel,
            patched: usize::MAX,
        },
        TraceEvent::NonDeliverable {
            corr: max,
            pid: kernel,
            msg_type: u16::MAX,
        },
        TraceEvent::ForwardingInstalled { pid, to: top },
        TraceEvent::ForwardingCollected { pid: kernel },
        TraceEvent::MoveDataDone {
            op: u16::MAX,
            bytes: u64::MAX,
            status: u8::MAX,
        },
        TraceEvent::MoveDataDone {
            op: 0,
            bytes: 0,
            status: 0,
        },
        TraceEvent::Log {
            pid: kernel,
            text: awkward.to_string(),
        },
        TraceEvent::Log {
            pid: low,
            text: "\"\\\u{0}".to_string(),
        },
    ];
    events.extend(
        every_phase()
            .into_iter()
            .map(|phase| TraceEvent::Migration {
                pid,
                phase,
                bytes: u64::MAX,
            }),
    );

    let mut seen: Vec<usize> = events.iter().map(variant_ordinal).collect();
    seen.sort();
    seen.dedup();
    assert_eq!(
        seen,
        (0..14).collect::<Vec<_>>(),
        "every variant is in the table"
    );

    for event in &events {
        let mut text = vec![b'>'];
        event.write_text(&mut text);
        assert_eq!(
            String::from_utf8(text).expect("UTF-8"),
            format!(">{event:?}"),
            "appended after what is there"
        );
    }
    let mut trace = Trace::enabled();
    for (i, event) in events.iter().enumerate() {
        let (at, machine) = if i % 2 == 0 {
            (Time::from_micros(u64::MAX), top)
        } else {
            (Time::from_micros(0), MachineId(0))
        };
        trace.extend(at, machine, [event.clone()]);
    }
    assert_renders_like_the_reference(&trace, "boundary table");
}

#[test]
fn streamed_renderings_match_the_format_reference_on_awkward_text() {
    let pid = ProcessId {
        creating_machine: MachineId(3),
        local_uid: 9,
    };
    let log = |text: &str| TraceEvent::Log {
        pid,
        text: text.to_string(),
    };
    let mut trace = Trace::enabled();
    assert_renders_like_the_reference(&trace, "empty trace");
    trace.extend(
        Time::from_micros(0),
        MachineId(0),
        [
            log("quote \" backslash \\ newline \n tab \t control \u{1} é → end"),
            log(""),
            log("\"\\\n\t\u{1}\u{1f}"),
        ],
    );
    trace.extend(
        Time::from_micros(u64::MAX),
        MachineId(u16::MAX),
        [log("→é"), TraceEvent::Exited { pid }],
    );
    assert_renders_like_the_reference(&trace, "awkward text");
    // `Debug` escapes the awkward characters before the JSON sink sees
    // them, so the export carries them doubly escaped — spot-check one
    // line so the reference itself is pinned to something readable.
    let lines = trace_json_lines(&trace);
    assert_eq!(
        lines.lines().nth(2),
        Some(
            r#"{"at":0,"machine":0,"event":"Log { pid: p3.9, text: \"\\\"\\\\\\n\\t\\u{1}\\u{1f}\" }"}"#
        )
    );
    assert!(lines.contains("é → end"), "non-ASCII is copied verbatim");
}

// ------------------------------------------------------------------
// Migration-phase views: pinned digests.
// ------------------------------------------------------------------

/// FNV-1a over a rendered view.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn migration_phase_views_match_their_pinned_digests() {
    let (mut completed, mut failed) = (0, 0);
    let mut got = String::new();
    for (name, cluster) in finished_runs() {
        let records = merge(&parse_dump(&cluster.recorder_dump()).expect("own dump parses"));
        let table = PhaseTable::from_records(&records);
        (completed, failed) = (completed + table.completed, failed + table.failed);
        got.push_str(&format!(
            "{:016x} {:016x} {:016x} {name}\n",
            digest(&cluster.phase_json_lines()),
            digest(&cluster.phase_report()),
            digest(&table.render()),
        ));
    }
    assert!(
        completed > 0 && failed > 0,
        "completed ({completed}) and rejected/aborted ({failed}) migrations are in play"
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/views/PHASE_DIGESTS.txt");
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        got == want,
        "phase views differ from {}; they render now as:\n{got}",
        path.display()
    );
}
