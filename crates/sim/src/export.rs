//! Exporters: live cluster state → `demos-obs` structures.
//!
//! This is the only place that knows how to read a kernel's observable
//! state (queue depths, table sizes, transport health, traffic classes)
//! into a typed [`MachineSnapshot`]. The JSON-lines dump and the
//! `demos-top` report both render the [`ClusterSnapshot`] this module
//! produces.

use demos_core::Node;
use demos_kernel::TrafficBreakdown;
use demos_obs::MigrationSpan;
use demos_obs::{json::Json, report, ClusterSnapshot, MachineSnapshot};
use demos_types::{Duration, MachineId, Time};

use crate::cluster::Cluster;
use crate::span::migration_spans_of;

/// Traffic classes in report order, with their per-class counts.
pub fn traffic_classes(t: &TrafficBreakdown) -> Vec<(&'static str, u64, u64)> {
    [
        ("kernel_op", t.kernel_op),
        ("migrate", t.migrate),
        ("md_req", t.md_req),
        ("md_data", t.md_data),
        ("md_ack", t.md_ack),
        ("md_done", t.md_done),
        ("link_maint", t.link_maint),
        ("mgmt", t.mgmt),
        ("user", t.user),
    ]
    .into_iter()
    .filter(|(_, c)| c.msgs > 0)
    .map(|(class, c)| (class, c.msgs, c.bytes))
    .collect()
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
