//! The benchmark's fixed names: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit and the direction that is better.
//!
//! The root `BENCHMARK.json` lists the same names (a test keeps the two in
//! step); every later performance or simplicity change refers to them, so
//! they do not change once landed.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A smaller value is better.
    Lower,
    /// A larger value is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A workload and the one-line reason it exists.
pub struct WorkloadInfo {
    /// Fixed name.
    pub name: &'static str,
    /// Why the benchmark has it.
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "msg_mesh",
        why: "16-machine echo mesh, no migration: the delivery fast path (codec, channel, submit/deliver, loop) does all the work; core, move-data and forwarding do none",
    },
    WorkloadInfo {
        name: "migrate_churn",
        why: "32 inert processes of 4/64/512 KiB migrated in waves over 8 machines: core engine, move-data and image flatten/install dominate; user messaging is near zero",
    },
    WorkloadInfo {
        name: "forward_chase",
        why: "8 echo servers re-migrated every 10 virtual ms under 32 clients: forwarding addresses, lazy link updates and pending-queue forwarding are hot",
    },
    WorkloadInfo {
        name: "sysproc_ref",
        why: "ROADMAP reference: 64 machines, system processes, fs clients, burner waves, LoadBalance every 20 virtual ms: the mix where no single layer dominates",
    },
    WorkloadInfo {
        name: "idle_scale",
        why: "1024 mostly idle machines, sequential loop, recorder off: finding the next event dominates, so it isolates sim loop cost and per-machine memory",
    },
    WorkloadInfo {
        name: "idle_scale_s2",
        why: "the idle_scale scenario at 4096 machines on 2 shard threads: the row that decides whether sharding earns its keep",
    },
    WorkloadInfo {
        name: "fault_sweep",
        why: "chaos scenarios plus the committed corpus with every invariant checked, Trace on: lossy links, partitions, crashes, recovery and the ledger/coverage views",
    },
];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Fixed name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Whether two runs of one commit with one seed must agree exactly
    /// (`agree` then ignores the bound and demands equality).
    pub exact: bool,
}

/// The eight end-to-end metrics. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        exact: false,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Higher,
        exact: false,
    },
    EndToEnd {
        name: "host_ns_per_event",
        unit: "ns",
        better: Lower,
        exact: false,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Lower,
        exact: true,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "bytes",
        better: Lower,
        exact: true,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Lower,
        exact: false,
    },
    EndToEnd {
        name: "virt_us_per_op",
        unit: "virt_us",
        better: Lower,
        exact: true,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Higher,
        exact: true,
    },
];

/// A per-layer metric.
pub struct PerLayer {
    /// Fixed name; the part before the first `.` is the layer (crate).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Kit metrics: a layer's public functions timed directly, on inputs
/// shaped like the workloads'. The same for every workload of a run.
pub const KITS: [PerLayer; 40] = [
    pl("types.encode_ns_64b", "ns", Lower),
    pl("types.decode_ns_64b", "ns", Lower),
    pl("types.encode_ns_1k", "ns", Lower),
    pl("types.decode_ns_1k", "ns", Lower),
    pl("types.migrate_msg_codec_ns", "ns", Lower),
    pl("net.channel_ns_per_msg", "ns", Lower),
    pl("net.channel_ns_per_msg_lossy", "ns", Lower),
    pl("net.channel_retx_per_msg_lossy", "count", Lower),
    pl("net.simnet_ns_per_frame", "ns", Lower),
    pl("kernel.local_deliver_ns", "ns", Lower),
    pl("kernel.remote_deliver_ns", "ns", Lower),
    pl("kernel.forward_hop_ns", "ns", Lower),
    pl("kernel.link_update_ns", "ns", Lower),
    pl("kernel.movedata_mib_per_s", "MiB/s", Higher),
    pl("kernel.image_flat_ns_per_kib", "ns", Lower),
    pl("core.migration_host_us_4k", "us", Lower),
    pl("core.migration_host_us_64k", "us", Lower),
    pl("core.migration_host_us_512k", "us", Lower),
    pl("core.reject_host_us", "us", Lower),
    pl("sysproc.proto_codec_ns", "ns", Lower),
    pl("sysproc.fs_op_host_ns", "ns", Lower),
    pl("sysproc.boot_host_us", "us", Lower),
    pl("policy.decide_ns_64m", "ns", Lower),
    pl("sim.snapshot_ns_64m", "ns", Lower),
    pl("sim.step_ns_idle_64m", "ns", Lower),
    pl("sim.build_ms_1024m", "ms", Lower),
    pl("sim.trace_on_ratio", "ratio", Higher),
    pl("sim.recorder_on_ratio", "ratio", Higher),
    pl("sim.spans_of_ns_per_record", "ns", Lower),
    pl("sim.export_ns_per_record", "ns", Lower),
    pl("sim.shard_speedup_s2_1024m", "ratio", Higher),
    pl("sim.shard_speedup_s2_4096m", "ratio", Higher),
    pl("obs.recorder_record_ns", "ns", Lower),
    pl("obs.hist_record_ns", "ns", Lower),
    pl("obs.dump_parse_mib_per_s", "MiB/s", Higher),
    pl("obs.phase_table_ns_per_record", "ns", Lower),
    pl("chaos.generate_us", "us", Lower),
    pl("chaos.exec_us_classic", "us", Lower),
    pl("chaos.exec_us_recovery", "us", Lower),
    pl("chaos.corpus_replay_s", "s", Lower),
];

/// Workload counters: exact work, retry and failure counts read from the
/// program's public statistics after one repetition. A counter the
/// program does not expose on a workload reads 0 there.
pub const COUNTERS: [PerLayer; 41] = [
    pl("net.frames_sent", "count", Lower),
    pl("net.data_frames", "count", Lower),
    pl("net.ack_frames", "count", Lower),
    pl("net.retransmit_frames", "count", Lower),
    pl("net.frames_dropped", "count", Lower),
    pl("net.dedup_drops", "count", Lower),
    pl("net.bytes_sent", "bytes", Lower),
    pl("net.acks_per_data", "ratio", Lower),
    pl("kernel.submitted", "count", Lower),
    pl("kernel.delivered_local", "count", Lower),
    pl("kernel.transmitted", "count", Lower),
    pl("kernel.forwarded", "count", Lower),
    pl("kernel.forward_share", "ratio", Lower),
    pl("kernel.link_updates_sent", "count", Lower),
    pl("kernel.links_patched", "count", Lower),
    pl("kernel.nondeliverable", "count", Lower),
    pl("kernel.activations", "count", Lower),
    pl("kernel.movedata_bytes", "bytes", Lower),
    pl("kernel.admin_msgs_per_migration", "count", Lower),
    pl("kernel.extra_msgs_per_forward", "count", Lower),
    pl("core.started", "count", Lower),
    pl("core.completed", "count", Higher),
    pl("core.aborted", "count", Lower),
    pl("core.rejected", "count", Lower),
    pl("core.retried", "count", Lower),
    pl("core.pending_forwarded", "count", Lower),
    pl("core.bytes_received", "bytes", Lower),
    pl("core.virt_us_per_migration", "virt_us", Lower),
    pl("sysproc.fs_ops", "count", Higher),
    pl("sysproc.fs_errors", "count", Lower),
    pl("policy.orders_issued", "count", Lower),
    pl("policy.orders_failed", "count", Lower),
    pl("sim.steps", "count", Lower),
    pl("sim.cpu_visits", "count", Lower),
    pl("sim.frame_visits", "count", Lower),
    pl("sim.timer_visits", "count", Lower),
    pl("sim.visits_per_step", "ratio", Lower),
    pl("sim.parallel_segments", "count", Higher),
    pl("chaos.events_applied", "count", Higher),
    pl("chaos.events_skipped", "count", Lower),
    pl("chaos.violations", "count", Lower),
];

/// Traced-run metrics: self-time shares of the benchmark's own spans, the
/// tracing overhead, and the *estimated* split of `sim.run` self time by
/// layer (kit unit cost × workload counter ÷ wall).
pub const TRACED: [PerLayer; 16] = [
    pl("span.setup_share", "ratio", Lower),
    pl("span.sim_run_self_share", "ratio", Lower),
    pl("span.sim_post_share", "ratio", Lower),
    pl("span.core_migrate_call_share", "ratio", Lower),
    pl("span.sim_snapshot_share", "ratio", Lower),
    pl("span.policy_decide_share", "ratio", Lower),
    pl("span.chaos_generate_share", "ratio", Lower),
    pl("span.chaos_run_share", "ratio", Lower),
    pl("span.post_process_share", "ratio", Lower),
    pl("trace.overhead_ratio", "ratio", Lower),
    pl("attr.types_share", "ratio", Lower),
    pl("attr.net_share", "ratio", Lower),
    pl("attr.kernel_share", "ratio", Lower),
    pl("attr.core_share", "ratio", Lower),
    pl("attr.policy_share", "ratio", Lower),
    pl("attr.unexplained_share", "ratio", Lower),
];

/// Every per-layer metric: kits, then counters, then traced-run metrics.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    KITS.iter().chain(COUNTERS.iter()).chain(TRACED.iter())
}

/// Unit of a per-layer metric.
pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    per_layer().find(|m| m.name == name).map(|m| m.unit)
}

/// Default `--seed`: the year of the paper.
pub const DEFAULT_SEED: u64 = 1983;
/// Hold-out seed: not used while a change is written; a later claim must
/// also hold on it.
pub const HOLDOUT_SEED: u64 = 4_200_731;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(per_layer().map(|m| m.name))
        {
            assert!(name_ok(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(per_layer().map(|m| m.unit))
        {
            assert!(unit_ok(u), "{u}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert_eq!(per_layer().count(), 97);
    }

    /// `BENCHMARK.json` at the repository root names exactly this
    /// catalogue, with bounds inside the contract's limit.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let wl = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(wl.len(), WORKLOADS.len());
        for (got, want) in wl.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            let bound = got.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", want.name);
        }
        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), per_layer().count());
        for (got, want) in layers.iter().zip(per_layer()) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
