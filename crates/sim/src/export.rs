//! Exporters: live cluster state → `demos-obs` structures.
//!
//! This is the only place that knows how to read a kernel's observable
//! state (queue depths, table sizes, transport health, traffic classes)
//! and spell it as metrics. Everything downstream — time series, the
//! JSON-lines dump, the `demos-top` report — consumes the
//! [`MetricsRegistry`] / [`ClusterSnapshot`] this module produces.

use demos_core::Node;
use demos_kernel::{MsgCount, TrafficBreakdown};
use demos_obs::MigrationSpan;
use demos_obs::{json::Json, report, ClusterSnapshot, MachineSnapshot, MetricsRegistry};
use demos_types::{Duration, MachineId, Time};

use crate::cluster::Cluster;
use crate::span::migration_spans_of;

/// Traffic classes in report order: the class, and the registry counters
/// of its messages and bytes.
const TRAFFIC_CLASSES: [(&str, &str, &str); 9] = [
    ("kernel_op", "msgs_kernel_op", "bytes_kernel_op"),
    ("migrate", "msgs_migrate", "bytes_migrate"),
    ("md_req", "msgs_md_req", "bytes_md_req"),
    ("md_data", "msgs_md_data", "bytes_md_data"),
    ("md_ack", "msgs_md_ack", "bytes_md_ack"),
    ("md_done", "msgs_md_done", "bytes_md_done"),
    ("link_maint", "msgs_link_maint", "bytes_link_maint"),
    ("mgmt", "msgs_mgmt", "bytes_mgmt"),
    ("user", "msgs_user", "bytes_user"),
];

/// `t`'s per-class counts in [`TRAFFIC_CLASSES`] order.
fn class_counts(t: &TrafficBreakdown) -> [MsgCount; 9] {
    [
        t.kernel_op,
        t.migrate,
        t.md_req,
        t.md_data,
        t.md_ack,
        t.md_done,
        t.link_maint,
        t.mgmt,
        t.user,
    ]
}

/// Traffic classes in report order, with their per-class counts.
pub fn traffic_classes(t: &TrafficBreakdown) -> Vec<(&'static str, u64, u64)> {
    TRAFFIC_CLASSES
        .iter()
        .zip(class_counts(t))
        .filter(|(_, c)| c.msgs > 0)
        .map(|(&(class, ..), c)| (class, c.msgs, c.bytes))
        .collect()
}

/// Read one node's kernel into a metrics registry: gauges for current
/// depths/sizes, counters for cumulative transport and delivery totals.
pub fn machine_registry(node: &Node) -> MetricsRegistry {
    let k = &node.kernel;
    let mut r = MetricsRegistry::new();
    r.gauge_set("procs", k.nprocs() as u64);
    r.gauge_set("runq", k.runq_len() as u64);
    r.gauge_set("msgq", k.msg_queue_len() as u64);
    r.gauge_set("pending", k.pending_queue_len() as u64);
    r.gauge_set("links", k.link_table_len() as u64);
    r.gauge_set("forwarding", k.forwarding_table().len() as u64);
    r.gauge_set("mem_used", k.mem_used());
    let ch = k.channel_stats();
    r.counter_set("retransmits", ch.retransmits);
    r.counter_set("dup_acks", ch.dup_acks);
    r.counter_set("dedup_drops", ch.dedup_drops);
    r.counter_set("bounced_frames", ch.bounced);
    let d = k.detector_stats();
    r.counter_set("hb_sent", d.beats_sent);
    r.counter_set("hb_received", d.beats_received);
    r.counter_set("suspicions", d.suspicions);
    r.counter_set("false_positives", d.false_positives);
    r.counter_set("peers_confirmed_dead", d.confirmed_dead);
    r.counter_set("bounced_msgs", d.bounced);
    let s = k.stats();
    r.counter_set("submitted", s.submitted);
    r.counter_set("forwarded", s.forwarded);
    r.counter_set("link_updates_sent", s.link_updates_sent);
    r.counter_set("nondeliverable", s.nondeliverable);
    for (&(_, msgs, bytes), c) in TRAFFIC_CLASSES.iter().zip(class_counts(&s.traffic)) {
        if c.msgs > 0 {
            r.counter_set(msgs, c.msgs);
            r.counter_set(bytes, c.bytes);
        }
    }
    r
}

fn machine_snapshot(node: &Node) -> MachineSnapshot {
    let k = &node.kernel;
    let ch = k.channel_stats();
    MachineSnapshot {
        machine: node.machine().0,
        procs: k.nprocs(),
        runq: k.runq_len(),
        msgq: k.msg_queue_len(),
        pending: k.pending_queue_len(),
        links: k.link_table_len(),
        forwarding: k.forwarding_table().len(),
        mem_used: k.mem_used(),
        retransmits: ch.retransmits,
        dup_acks: ch.dup_acks,
        dedup_drops: ch.dedup_drops,
        traffic: traffic_classes(&k.stats().traffic),
    }
}

impl Cluster {
    /// Snapshot every live machine's observable state at the current
    /// instant (crashed machines are omitted — their state died with
    /// them).
    pub fn snapshot(&self) -> ClusterSnapshot {
        let machines = (0..self.len())
            .map(|i| MachineId(i as u16))
            .filter(|&m| !self.is_crashed(m))
            .map(|m| machine_snapshot(self.node(m)))
            .collect();
        ClusterSnapshot {
            at: self.now(),
            machines,
        }
    }

    /// The `demos-top`-style cluster report for the current instant.
    pub fn report(&self) -> String {
        report::render(&self.snapshot())
    }

    /// The machine-readable JSON-lines dump for the current instant (one
    /// object per machine; parse with [`demos_obs::json::parse_lines`]).
    pub fn json_lines(&self) -> String {
        self.snapshot().to_json_lines()
    }

    /// The `demos-top` migration-phase panel: every migration lifecycle
    /// stitched from the trace, one row each, in freeze order.
    pub fn phase_report(&self) -> String {
        report::render_phase_panel(&migration_spans_of(self.trace()))
    }

    /// Migration lifecycle spans as JSON lines (one object per
    /// migration; parse with [`demos_obs::json::parse_lines`]).
    pub fn phase_json_lines(&self) -> String {
        let mut out = String::new();
        for s in migration_spans_of(self.trace()) {
            out.push_str(&span_json(&s).to_string());
            out.push('\n');
        }
        out
    }
}

fn span_json(s: &MigrationSpan) -> Json {
    let time = |t: Option<Time>| t.map_or(Json::Null, |t| Json::num(t.as_micros()));
    let dur = |d: Option<Duration>| d.map_or(Json::Null, |d| Json::num(d.as_micros()));
    Json::obj([
        ("pid", Json::str(s.pid.to_string())),
        ("src", s.src.map_or(Json::Null, |m| Json::num(m.0 as u64))),
        ("dest", s.dest.map_or(Json::Null, |m| Json::num(m.0 as u64))),
        ("outcome", Json::str(s.outcome.label())),
        ("frozen", time(s.frozen)),
        ("offered", time(s.offered)),
        ("allocated", time(s.allocated)),
        ("state_transferred", time(s.state_transferred)),
        ("image_transferred", time(s.image_transferred)),
        ("pending_forwarded", time(s.pending_forwarded)),
        ("cleaned_up", time(s.cleaned_up)),
        ("restarted", time(s.restarted)),
        ("negotiation_us", dur(s.negotiation())),
        ("transfer_us", dur(s.transfer())),
        ("restart_us", dur(s.restart())),
        ("frozen_us", dur(s.frozen_total())),
        ("residual_us", dur(s.residual())),
        ("bytes_offered", Json::num(s.bytes_offered)),
        ("bytes_state", Json::num(s.bytes_state)),
        ("bytes_total", Json::num(s.bytes_total)),
        ("forwards", Json::num(s.forwards)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_kernel::ImageLayout;
    use demos_obs::json;
    use demos_types::Duration;

    #[test]
    fn snapshot_sees_spawned_processes_and_user_traffic() {
        use crate::programs::{wl, PingPong};
        let mut c = Cluster::mesh(2);
        let st = PingPong::state(0, 50);
        let pa = c
            .spawn(MachineId(0), "pingpong", &st, ImageLayout::default())
            .unwrap();
        let pb = c
            .spawn(MachineId(1), "pingpong", &st, ImageLayout::default())
            .unwrap();
        let la = c.link_to(pa).unwrap();
        let lb = c.link_to(pb).unwrap();
        c.post(pa, wl::INIT, bytes::Bytes::from_static(&[1]), vec![lb])
            .unwrap();
        c.post(pb, wl::INIT, bytes::Bytes::from_static(&[0]), vec![la])
            .unwrap();
        c.run_for(Duration::from_millis(50));
        let snap = c.snapshot();
        assert_eq!(snap.machines.len(), 2);
        let m0 = snap.machine(MachineId(0)).unwrap();
        assert_eq!(m0.procs, 1);
        assert!(
            m0.traffic
                .iter()
                .any(|&(class, msgs, _)| class == "user" && msgs > 0),
            "ping-pong crosses machines: {:?}",
            m0.traffic
        );
        // Report and JSON lines render from the same snapshot.
        let text = c.report();
        assert!(text.lines().any(|l| l.starts_with("m0")), "{text}");
        let parsed = json::parse_lines(&c.json_lines()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].u64_field("procs"), Some(1));
    }

    #[test]
    fn phase_panel_and_json_cover_a_real_migration() {
        use crate::programs::Cargo;
        let mut c = Cluster::mesh(2);
        let pid = c
            .spawn(
                MachineId(0),
                "cargo",
                &Cargo::state(256),
                ImageLayout::default(),
            )
            .unwrap();
        c.run_for(Duration::from_millis(5));
        c.migrate(pid, MachineId(1)).unwrap();
        c.run_for(Duration::from_millis(400));

        let panel = c.phase_report();
        assert!(panel.contains("m0->m1"), "{panel}");
        assert!(panel.contains("completed"), "{panel}");
        let spans = migration_spans_of(c.trace());
        let s = &spans[0];
        let steps = [
            s.frozen,
            s.offered,
            s.allocated,
            s.state_transferred,
            s.image_transferred,
            s.pending_forwarded,
            s.cleaned_up,
            s.restarted,
        ];
        assert!(
            steps.iter().all(Option::is_some) && steps.windows(2).all(|w| w[0] <= w[1]),
            "all eight steps, in order: {steps:?}"
        );

        let parsed = json::parse_lines(&c.phase_json_lines()).unwrap();
        assert_eq!(parsed.len(), 1);
        let span = &parsed[0];
        assert_eq!(span.str_field("outcome"), Some("completed"));
        assert_eq!(span.u64_field("src"), Some(0));
        assert_eq!(span.u64_field("dest"), Some(1));
        assert!(span.u64_field("frozen_us").unwrap() > 0);
        assert!(span.u64_field("bytes_total").unwrap() > 0);
    }

    #[test]
    fn a_refused_offer_is_a_rejected_row() {
        use crate::programs::Cargo;
        use demos_core::{AcceptPolicy, MigrationConfig};
        let mut c = crate::cluster::ClusterBuilder::new(2)
            .migration_config(MigrationConfig {
                accept: AcceptPolicy::Never,
                ..Default::default()
            })
            .build();
        let pid = c
            .spawn(
                MachineId(0),
                "cargo",
                &Cargo::state(64),
                ImageLayout::default(),
            )
            .unwrap();
        c.run_for(Duration::from_millis(5));
        c.migrate(pid, MachineId(1)).unwrap();
        c.run_for(Duration::from_millis(400));
        let spans = migration_spans_of(c.trace());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, demos_obs::MigrationOutcome::Rejected);
        assert_eq!(spans[0].restarted, None);
        assert!(
            c.phase_report().contains("rejected"),
            "{}",
            c.phase_report()
        );
    }

    #[test]
    fn crashed_machines_drop_out_of_the_snapshot() {
        let mut c = Cluster::mesh(3);
        c.crash(MachineId(1));
        let snap = c.snapshot();
        assert_eq!(snap.machines.len(), 2);
        assert!(snap.machine(MachineId(1)).is_none());
    }
}
