//! The views the chaos executor takes of its trace, each against a
//! from-scratch reference kept in this file:
//!
//! * the delivery ledger as a resumable fold (`LedgerFold`) — advanced in
//!   pieces it must give what one `ledger_of` pass over the whole trace
//!   gives, and a cleared trace starts it over;
//! * the streamed record renderer — `Trace::fingerprint`,
//!   `trace_json_lines` and the teed pass that produces both must be
//!   byte-identical to the `format!`-per-record formulas they replaced.
//!
//! Traces come from real runs: every committed corpus and distilled seed,
//! plus ablation runs (`no-forwarding`, `no-recovery`) that end in a
//! violation, so ledgers with failed and undelivered ids are covered too.

use std::path::{Path, PathBuf};

use demos_chaos::{run_cluster, trace_json_lines, RunConfig, Scenario};
use demos_kernel::{TraceEvent, TraceRecord};
use demos_obs::DeliveryLedger;
use demos_sim::span::{ledger_of, LedgerFold};
use demos_sim::{Cluster, Trace};
use demos_types::{MachineId, ProcessId, Time};

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
            runs.push((p.display().to_string(), cluster));
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
