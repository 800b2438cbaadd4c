//! Human-readable cluster report — the `demos-top` view.
//!
//! One aligned table with a row per machine and a TOTAL row: queue
//! depths, kernel table sizes, memory, and transport retransmit
//! counters; followed by a cluster-wide traffic-by-class section. The
//! output is plain text so experiment binaries can print it and golden
//! tests can pin it.

use crate::recorder::MigrationSpan;
use crate::snapshot::{ClusterSnapshot, MachineSnapshot};
use demos_types::{Duration, MachineId};
use std::fmt::Write as _;

const HEADERS: [&str; 11] = [
    "machine", "procs", "runq", "msgq", "pend", "links", "fwd", "mem", "retx", "dupack", "dedup",
];

fn row_of(s: &MachineSnapshot, label: String) -> [String; 11] {
    [
        label,
        s.procs.to_string(),
        s.runq.to_string(),
        s.msgq.to_string(),
        s.pending.to_string(),
        s.links.to_string(),
        s.forwarding.to_string(),
        s.mem_used.to_string(),
        s.retransmits.to_string(),
        s.dup_acks.to_string(),
        s.dedup_drops.to_string(),
    ]
}

/// Render the `demos-top`-style cluster report.
pub fn render(snap: &ClusterSnapshot) -> String {
    let totals = snap.totals();
    let mut rows: Vec<[String; 11]> = snap
        .machines
        .iter()
        .map(|m| row_of(m, format!("m{}", m.machine)))
        .collect();
    rows.push(row_of(&totals, "TOTAL".to_string()));

    let mut widths: Vec<usize> = HEADERS.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster @ {} — {} machines, {} procs",
        snap.at,
        snap.machines.len(),
        totals.procs
    );
    let line = |cells: &[String]| -> String {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            } else {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
        }
        s.trim_end().to_string()
    };
    let header: Vec<String> = HEADERS.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "{}", line(&header));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        let _ = writeln!(out, "{}", line(&row));
    }

    if !totals.traffic.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "traffic by class (cluster total):");
        let wc = totals
            .traffic
            .iter()
            .map(|(c, _, _)| c.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for (class, msgs, bytes) in &totals.traffic {
            let _ = writeln!(out, "  {class:<wc$}  {msgs:>8} msgs  {bytes:>10} B");
        }
    }
    out
}

/// Render the `demos-top` migration-phase panel: one aligned row per
/// migration lifecycle, §6's cost table shape. Durations are
/// microseconds, `-` where a phase was never reached; `bytes` is the
/// larger of the offered and transferred totals.
pub fn render_phase_panel(spans: &[MigrationSpan]) -> String {
    const PH: [&str; 10] = [
        "pid", "route", "outcome", "negot", "xfer", "bytes", "restart", "frozen", "resid", "fwds",
    ];
    let us = |d: Option<Duration>| d.map_or_else(|| "-".to_string(), |d| d.as_micros().to_string());
    let at = |m: Option<MachineId>| m.map_or_else(|| "?".to_string(), |m| m.to_string());
    let cells: Vec<[String; 10]> = spans
        .iter()
        .map(|s| {
            [
                s.pid.to_string(),
                format!("{}->{}", at(s.src), at(s.dest)),
                s.outcome.label().to_string(),
                us(s.negotiation()),
                us(s.transfer()),
                s.bytes_total.max(s.bytes_offered).to_string(),
                us(s.restart()),
                us(s.frozen_total()),
                us(s.residual()),
                s.forwards.to_string(),
            ]
        })
        .collect();
    let mut widths: Vec<usize> = PH.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |row: &[String]| -> String {
        let mut s = String::new();
        for (i, c) in row.iter().enumerate() {
            if i < 3 {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            } else {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
        }
        s.trim_end().to_string()
    };
    let mut out = String::new();
    let _ = writeln!(out, "migration phases (durations in us):");
    let header: Vec<String> = PH.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "{}", line(&header));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in &cells {
        let _ = writeln!(out, "{}", line(row));
    }
    if spans.is_empty() {
        let _ = writeln!(out, "(no migrations)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::Time;

    #[test]
    fn phase_panel_renders_rows_and_dashes() {
        use crate::recorder::{kind, migration_spans, pack_pid, phase, Record};
        let mig = |at: u64, uid: u32, machine: u16, arg: u8, b: u64| Record {
            at,
            a: pack_pid(0, uid),
            b,
            machine,
            kind: kind::MIGRATION,
            arg,
            ..Record::default()
        };
        let spans = migration_spans(&[
            mig(100, 1, 0, phase::FROZEN, 0),
            mig(220, 1, 2, phase::ALLOCATED, 0),
            mig(1020, 1, 2, phase::IMAGE_TRANSFERRED, 4096),
            mig(1080, 1, 2, phase::RESTARTED, 0),
            mig(2000, 2, 0, phase::FROZEN, 0),
            mig(2010, 2, 0, phase::REJECTED, 0),
        ]);
        let text = render_phase_panel(&spans);
        assert!(text.contains("migration phases"), "{text}");
        let done = text.lines().find(|l| l.starts_with("p0.1")).unwrap();
        assert_eq!(
            done.split_whitespace().collect::<Vec<_>>().join(" "),
            "p0.1 m0->m2 completed 120 800 4096 60 980 - 0",
            "{text}"
        );
        let rejected = text.lines().find(|l| l.starts_with("p0.2")).unwrap();
        assert!(
            rejected.contains("m0->?") && rejected.contains("rejected") && rejected.contains("-"),
            "{rejected}"
        );
        let empty = render_phase_panel(&[]);
        assert!(empty.contains("(no migrations)"), "{empty}");
    }

    #[test]
    fn renders_rows_totals_and_traffic() {
        let snap = ClusterSnapshot {
            at: Time::from_micros(2_000_000),
            machines: vec![
                MachineSnapshot {
                    machine: 0,
                    procs: 2,
                    runq: 1,
                    msgq: 3,
                    pending: 0,
                    links: 8,
                    forwarding: 1,
                    mem_used: 2048,
                    retransmits: 5,
                    dup_acks: 2,
                    dedup_drops: 1,
                    traffic: vec![("user", 10, 1000)],
                },
                MachineSnapshot {
                    machine: 1,
                    procs: 1,
                    ..Default::default()
                },
            ],
        };
        let text = render(&snap);
        assert!(
            text.contains("cluster @ 2.000s — 2 machines, 3 procs"),
            "{text}"
        );
        assert!(text.contains("machine"), "{text}");
        assert!(
            text.lines()
                .any(|l| l.starts_with("m0") && l.ends_with("1")),
            "{text}"
        );
        assert!(text.lines().any(|l| l.starts_with("TOTAL")), "{text}");
        assert!(text.contains("user") && text.contains("1000 B"), "{text}");
    }
}
