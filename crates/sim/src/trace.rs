//! Trace collection and queries.
//!
//! Kernels emit [`TraceEvent`]s into their outboxes; the cluster
//! timestamps them into [`TraceRecord`]s. Experiments reconstruct the
//! paper's numbers from this log: administrative message counts, per-step
//! migration timings, forwarding overhead and link-update convergence.

use std::fmt::{self, Write as _};

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
    /// `{at}|{machine}|{event:?}`, record after record. The bytes are
    /// hashed as `Debug` produces them — no record is rendered into a
    /// `String` first.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::default();
        self.render(Some(&mut hash), None);
        hash.0
    }

    /// The log as JSON lines, one
    /// `{"at":…,"machine":…,"event":"<escaped {:?}>"}` object per record,
    /// in order. Escaped are `"`, `\`, `\n`, `\t` and the other bytes
    /// below 0x20 (`\u00XX`); everything else is copied as it is.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        self.render(None, Some(&mut out));
        out
    }

    /// [`fingerprint`](Trace::fingerprint) and
    /// [`json_lines`](Trace::json_lines) from one pass: each event's
    /// `Debug` text — the expensive part both share — is produced once
    /// and teed into the two sinks.
    pub fn fingerprint_and_json_lines(&self) -> (u64, String) {
        let (mut hash, mut out) = (Fnv1a::default(), String::new());
        self.render(Some(&mut hash), Some(&mut out));
        (hash.0, out)
    }

    /// The one record renderer. Each sink gets its own envelope; the
    /// event's `Debug` goes through [`EventSink`] to whichever are there.
    fn render(&self, mut hash: Option<&mut Fnv1a>, mut json: Option<&mut String>) {
        // Neither sink can fail, so the `fmt::Result`s carry nothing.
        for r in &self.records {
            let (at, machine) = (r.at.as_micros(), r.machine.0);
            if let Some(h) = hash.as_deref_mut() {
                let _ = write!(h, "{at}|{machine}|");
            }
            if let Some(out) = json.as_deref_mut() {
                let _ = write!(out, "{{\"at\":{at},\"machine\":{machine},\"event\":\"");
            }
            let mut sink = EventSink {
                hash: hash.as_deref_mut(),
                json: json.as_deref_mut(),
            };
            let _ = write!(sink, "{:?}", r.event);
            if let Some(out) = json.as_deref_mut() {
                out.push_str("\"}\n");
            }
        }
    }
}

/// FNV-1a over the bytes written to it.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// Where an event's `Debug` text goes: hashed, and/or JSON-string-escaped
/// onto the end of the export.
struct EventSink<'a> {
    hash: Option<&'a mut Fnv1a>,
    json: Option<&'a mut String>,
}

impl fmt::Write for EventSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(h) = self.hash.as_deref_mut() {
            h.write_str(s)?;
        }
        let Some(out) = self.json.as_deref_mut() else {
            return Ok(());
        };
        // Every escaped byte is ASCII, so cutting `s` at one is a
        // character boundary and multi-byte characters pass untouched.
        let mut done = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.push_str(&s[done..i]);
            done = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\t' => out.push_str("\\t"),
                _ => write!(out, "\\u{b:04x}")?,
            }
        }
        out.push_str(&s[done..]);
        Ok(())
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
    fn json_sink_escapes_raw_specials_and_copies_the_rest() {
        // Derived `Debug` never hands the sink a raw control character, so
        // that half of the escape table is only reachable directly.
        let (mut hash, mut out) = (Fnv1a::default(), String::new());
        let mut sink = EventSink {
            hash: Some(&mut hash),
            json: Some(&mut out),
        };
        sink.write_str("a\"b\\c\nd\te\u{1}f\u{1f}é→").unwrap();
        sink.write_str("").unwrap();
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001f\\u001fé→");
        // The hash side saw the text as written, not as escaped.
        let mut plain = Fnv1a::default();
        plain.write_str("a\"b\\c\nd\te\u{1}f\u{1f}é→").unwrap();
        assert_eq!(hash.0, plain.0);
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
