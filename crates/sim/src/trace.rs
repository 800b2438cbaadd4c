//! Trace collection and queries.
//!
//! Kernels emit [`TraceEvent`]s into their outboxes; the cluster
//! timestamps them into [`TraceRecord`]s. Experiments reconstruct the
//! paper's numbers from this log: administrative message counts, per-step
//! migration timings, forwarding overhead and link-update convergence.

use demos_kernel::trace::push_decimal;
use demos_kernel::{MigrationPhase, TraceEvent, TraceRecord};
use demos_types::{MachineId, ProcessId, Time};

/// An in-memory event log.
#[derive(Debug, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl Trace {
    /// A trace that records (enabled).
    pub fn enabled() -> Self {
        Trace {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// A trace that drops everything (for long benchmark runs).
    pub fn disabled() -> Self {
        Trace {
            records: Vec::new(),
            enabled: false,
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append events from a kernel outbox.
    pub fn extend(
        &mut self,
        at: Time,
        machine: MachineId,
        events: impl IntoIterator<Item = TraceEvent>,
    ) {
        if self.enabled {
            self.records.extend(
                events
                    .into_iter()
                    .map(|event| TraceRecord { at, machine, event }),
            );
        }
    }

    /// All records, in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Count records matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceRecord) -> bool) -> usize {
        self.records.iter().filter(|r| pred(r)).count()
    }

    /// First record matching a predicate.
    pub fn find(&self, pred: impl Fn(&TraceRecord) -> bool) -> Option<&TraceRecord> {
        self.records.iter().find(|r| pred(r))
    }

    /// Time of the given migration phase for `pid` (first occurrence at or
    /// after `after`).
    pub fn phase_time(&self, pid: ProcessId, phase: MigrationPhase, after: Time) -> Option<Time> {
        self.records.iter().find_map(|r| {
            if let TraceEvent::Migration {
                pid: p, phase: ph, ..
            } = &r.event
            {
                if *p == pid && *ph == phase && r.at >= after {
                    return Some(r.at);
                }
            }
            None
        })
    }

    /// Messages forwarded for `pid` (forwarding-address redirections, §4).
    pub fn forwards_for(&self, pid: ProcessId) -> usize {
        self.count(|r| matches!(&r.event, TraceEvent::ForwardedMessage { pid: p, .. } if *p == pid))
    }

    /// Link updates applied that patched at least one link of `sender`.
    pub fn link_updates_for(&self, sender: ProcessId) -> usize {
        self.count(|r| {
            matches!(&r.event, TraceEvent::LinkUpdateApplied { sender: s, patched, .. }
                if *s == sender && *patched > 0)
        })
    }

    /// A compact deterministic fingerprint of the whole log, used by the
    /// replay-determinism property tests: FNV-1a over the bytes of
    /// `{at}|{machine}|{event:?}`, record after record. Each record's line
    /// is written as bytes by [`TraceEvent::write_text`] and hashed once
    /// it is complete.
    pub fn fingerprint(&self) -> u64 {
        self.render(None)
    }

    /// The log as JSON lines, one
    /// `{"at":…,"machine":…,"event":"<escaped {:?}>"}` object per record,
    /// in order. Escaped are `"`, `\`, `\n`, `\t` and the other bytes
    /// below 0x20 (`\u00XX`); everything else is copied as it is.
    pub fn json_lines(&self) -> String {
        self.fingerprint_and_json_lines().1
    }

    /// [`fingerprint`](Trace::fingerprint) and
    /// [`json_lines`](Trace::json_lines) from one pass: each record's
    /// line is written once and serves both.
    pub fn fingerprint_and_json_lines(&self) -> (u64, String) {
        let mut out = Vec::with_capacity(self.records.len() * EXPORT_BYTES_PER_RECORD);
        let hash = self.render(Some(&mut out));
        let out = String::from_utf8(out).expect("every byte is ASCII or from a `str`'s `Debug`");
        (hash, out)
    }

    /// The one record renderer: for each record, write the line
    /// `{at}|{machine}|{event:?}` into one reused buffer, fold it into
    /// the FNV-1a hash it returns, and, if asked, append the record's
    /// export object to `json`.
    fn render(&self, mut json: Option<&mut Vec<u8>>) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut line = Vec::with_capacity(256);
        for r in &self.records {
            line.clear();
            push_decimal(&mut line, r.at.as_micros());
            let at_end = line.len();
            line.push(b'|');
            push_decimal(&mut line, u64::from(r.machine.0));
            let machine_end = line.len();
            line.push(b'|');
            r.event.write_text(&mut line);
            for &b in &line {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
            if let Some(out) = json.as_deref_mut() {
                out.extend_from_slice(b"{\"at\":");
                out.extend_from_slice(&line[..at_end]);
                out.extend_from_slice(b",\"machine\":");
                out.extend_from_slice(&line[at_end + 1..machine_end]);
                out.extend_from_slice(b",\"event\":\"");
                push_escaped(out, &line[machine_end + 1..]);
                out.extend_from_slice(b"\"}\n");
            }
        }
        hash
    }
}

/// Bytes of export reserved per record. Lines average about 104 B; 110
/// holds the largest `fault_sweep` export without a regrowth, and both
/// smaller and larger reserves raise its peak heap (DESIGN.md §10).
const EXPORT_BYTES_PER_RECORD: usize = 110;

/// Append `text` JSON-string-escaped. Text with nothing to escape — all
/// but the quoted strings of `Spawned` and `Log` — is copied as is.
fn push_escaped(out: &mut Vec<u8>, text: &[u8]) {
    let special = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    if !text.iter().any(|&b| special(b)) {
        out.extend_from_slice(text);
        return;
    }
    // Every escaped byte is ASCII, so multi-byte characters pass
    // untouched.
    for &b in text {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(u: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(0),
            local_uid: u,
        }
    }

    #[test]
    fn extend_and_query() {
        let mut t = Trace::enabled();
        t.extend(
            Time(5),
            MachineId(0),
            vec![
                TraceEvent::Migration {
                    pid: pid(1),
                    phase: MigrationPhase::Frozen,
                    bytes: 0,
                },
                TraceEvent::ForwardedMessage {
                    corr: demos_types::CorrId::new(MachineId(0), 1),
                    pid: pid(1),
                    to: MachineId(1),
                    msg_type: 7,
                },
            ],
        );
        t.extend(
            Time(9),
            MachineId(1),
            vec![TraceEvent::Migration {
                pid: pid(1),
                phase: MigrationPhase::Restarted,
                bytes: 0,
            }],
        );
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.phase_time(pid(1), MigrationPhase::Restarted, Time(0)),
            Some(Time(9))
        );
        assert_eq!(
            t.phase_time(pid(1), MigrationPhase::Restarted, Time(10)),
            None
        );
        assert_eq!(t.forwards_for(pid(1)), 1);
        assert_eq!(t.forwards_for(pid(2)), 0);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.extend(
            Time(0),
            MachineId(0),
            vec![TraceEvent::Exited { pid: pid(1) }],
        );
        assert!(t.is_empty());
    }

    #[test]
    fn export_escapes_raw_specials_and_copies_the_rest() {
        // Derived `Debug` never hands the escape a raw control character,
        // so that half of its table is only reachable directly.
        let mut out = Vec::new();
        push_escaped(&mut out, "a\"b\\c\nd\te\u{1}f\u{1f}é→".as_bytes());
        push_escaped(&mut out, b"");
        push_escaped(&mut out, "plain é→".as_bytes());
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "a\\\"b\\\\c\\nd\\te\\u0001f\\u001fé→plain é→"
        );
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Trace::enabled();
        let mut b = Trace::enabled();
        let e1 = TraceEvent::Exited { pid: pid(1) };
        let e2 = TraceEvent::Exited { pid: pid(2) };
        a.extend(Time(0), MachineId(0), vec![e1.clone(), e2.clone()]);
        b.extend(Time(0), MachineId(0), vec![e2, e1]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
    }
}
