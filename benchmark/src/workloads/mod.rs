//! The seven workloads and what they share: reading a cluster's public
//! statistics into totals, counters and the `sim_digest`.

pub mod fault_sweep;
pub mod forward_chase;
pub mod idle_scale;
pub mod migrate_churn;
pub mod msg_mesh;
pub mod sysproc_ref;

use demos_core::MigrationStats;
use demos_kernel::{KernelStats, TrafficBreakdown};
use demos_net::{ChannelStats, NetStats};
use demos_sim::programs::{client_stats, wl};
use demos_sim::{Cluster, StepStats};
use demos_types::{MachineId, ProcessId};

use crate::digest::Digest;
use crate::harness::{Counters, Workload};
use crate::spans::Spans;

/// How much work a repetition does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed numbers were taken at: 0.3–0.7 s of host
    /// time per repetition on the 2-core box that defined the benchmark.
    Full,
    /// The same scenarios with tiny per-process limits, for the smoke
    /// test: every code path, almost no work.
    Quick,
}

impl Scale {
    /// `full` or `quick`, by scale.
    pub fn pick(self, full: u64, quick: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Build workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "msg_mesh" => Box::new(msg_mesh::MsgMesh::generate(seed, scale)),
        "migrate_churn" => Box::new(migrate_churn::MigrateChurn::generate(seed, scale)),
        "forward_chase" => Box::new(forward_chase::ForwardChase::generate(seed, scale)),
        "sysproc_ref" => Box::new(sysproc_ref::SysprocRef::generate(seed, scale)),
        // Rallies per player are sized so a repetition takes 0.3–0.7 s of
        // host time at either machine count.
        "idle_scale" => Box::new(idle_scale::IdleScale::generate(seed, scale, 1024, 1, 960)),
        "idle_scale_s2" => Box::new(idle_scale::IdleScale::generate(seed, scale, 4096, 2, 180)),
        "fault_sweep" => Box::new(fault_sweep::FaultSweep::generate(seed, scale)),
        _ => return None,
    })
}

/// Machine `i`.
pub fn m(i: usize) -> MachineId {
    MachineId(u16::try_from(i).expect("machine index fits the id"))
}

/// Every simulated statistic a cluster exposes, summed over machines.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Kernel counters, summed.
    pub kernel: KernelStats,
    /// Reliable-channel counters, summed.
    pub channel: ChannelStats,
    /// Migration-engine counters, summed.
    pub core: MigrationStats,
    /// Network counters.
    pub net: NetStats,
    /// Event-loop visit counters.
    pub step: StepStats,
    /// Virtual time, microseconds.
    pub now_us: u64,
    /// Parallel segments the sharded executor ran.
    pub parallel_segments: u64,
}

fn add_kernel(a: &mut KernelStats, b: &KernelStats) {
    a.traffic.merge(&b.traffic);
    a.submitted += b.submitted;
    a.delivered_local += b.delivered_local;
    a.transmitted += b.transmitted;
    a.forwarded += b.forwarded;
    a.link_updates_sent += b.link_updates_sent;
    a.link_updates_applied += b.link_updates_applied;
    a.links_patched += b.links_patched;
    a.nondeliverable += b.nondeliverable;
    a.kernel_received += b.kernel_received;
    a.spawned += b.spawned;
    a.exited += b.exited;
    a.activations += b.activations;
}

fn add_channel(a: &mut ChannelStats, b: &ChannelStats) {
    a.retransmits += b.retransmits;
    a.dup_acks += b.dup_acks;
    a.dedup_drops += b.dedup_drops;
    a.stale_drops += b.stale_drops;
    a.bounced += b.bounced;
}

fn add_core(a: &mut MigrationStats, b: &MigrationStats) {
    a.started += b.started;
    a.completed_out += b.completed_out;
    a.completed_in += b.completed_in;
    a.rejected += b.rejected;
    a.aborted += b.aborted;
    for (x, y) in a.rejected_by_reason.iter_mut().zip(b.rejected_by_reason) {
        *x += y;
    }
    a.pending_forwarded += b.pending_forwarded;
    a.bytes_received += b.bytes_received;
    a.total_in_duration += b.total_in_duration;
    a.retried += b.retried;
}

impl Totals {
    /// Read every machine of `cluster`.
    pub fn of(cluster: &Cluster) -> Totals {
        let mut t = Totals {
            net: cluster.net().stats(),
            step: cluster.step_stats(),
            now_us: cluster.now().as_micros(),
            parallel_segments: cluster.parallel_segments(),
            ..Totals::default()
        };
        for i in 0..cluster.len() {
            let node = cluster.node(m(i));
            add_kernel(&mut t.kernel, &node.kernel.stats());
            add_channel(&mut t.channel, &node.kernel.channel_stats());
            add_core(&mut t.core, &node.engine.stats());
        }
        t
    }

    /// Fold every field into `d`. `StepStats::steps` is left out: it is
    /// documented as mode-dependent, the visit counters are not.
    pub fn digest_into(&self, d: &mut Digest) {
        let traffic = |t: &TrafficBreakdown| {
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
            .into_iter()
            .flat_map(|c| [c.msgs, c.bytes])
        };
        let (k, c, g, n, s) = (
            &self.kernel,
            &self.channel,
            &self.core,
            &self.net,
            &self.step,
        );
        d.words(traffic(&k.traffic));
        d.words([
            k.submitted,
            k.delivered_local,
            k.transmitted,
            k.forwarded,
            k.link_updates_sent,
            k.link_updates_applied,
            k.links_patched,
            k.nondeliverable,
            k.kernel_received,
            k.spawned,
            k.exited,
            k.activations,
        ]);
        d.words([
            c.retransmits,
            c.dup_acks,
            c.dedup_drops,
            c.stale_drops,
            c.bounced,
        ]);
        d.words([
            g.started,
            g.completed_out,
            g.completed_in,
            g.rejected,
            g.aborted,
            g.pending_forwarded,
            g.bytes_received,
            g.total_in_duration.as_micros(),
            g.retried,
        ]);
        d.words(g.rejected_by_reason);
        d.words([
            n.frames_sent,
            n.frames_dropped,
            n.frames_delivered,
            n.data_frames,
            n.ack_frames,
            n.retransmit_frames,
            n.dup_acks,
            n.dedup_drops,
            n.stale_epoch_drops,
            n.bytes_sent,
            n.byte_hops,
        ]);
        d.words([s.cpu_visits, s.frame_visits, s.timer_visits]);
        d.words([self.now_us, self.parallel_segments]);
    }

    /// The cluster-derived per-layer counters, by catalogue name.
    pub fn counters_into(&self, out: &mut Counters) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let (k, g, n, s) = (&self.kernel, &self.core, &self.net, &self.step);
        let mut put = |name: &'static str, v: f64| {
            out.insert(name, v);
        };
        put("net.frames_sent", n.frames_sent as f64);
        put("net.data_frames", n.data_frames as f64);
        put("net.ack_frames", n.ack_frames as f64);
        put("net.retransmit_frames", n.retransmit_frames as f64);
        put("net.frames_dropped", n.frames_dropped as f64);
        put("net.dedup_drops", n.dedup_drops as f64);
        put("net.bytes_sent", n.bytes_sent as f64);
        put("net.acks_per_data", ratio(n.ack_frames, n.data_frames));
        put("kernel.submitted", k.submitted as f64);
        put("kernel.delivered_local", k.delivered_local as f64);
        put("kernel.transmitted", k.transmitted as f64);
        put("kernel.forwarded", k.forwarded as f64);
        put("kernel.forward_share", ratio(k.forwarded, k.submitted));
        put("kernel.link_updates_sent", k.link_updates_sent as f64);
        put("kernel.links_patched", k.links_patched as f64);
        put("kernel.nondeliverable", k.nondeliverable as f64);
        put("kernel.activations", k.activations as f64);
        put("kernel.movedata_bytes", k.traffic.md_data.bytes as f64);
        put(
            "kernel.admin_msgs_per_migration",
            ratio(k.traffic.admin().msgs, g.completed_in),
        );
        put(
            "kernel.extra_msgs_per_forward",
            ratio(k.forwarded + k.link_updates_sent, k.forwarded),
        );
        put("core.started", g.started as f64);
        put("core.completed", g.completed_in as f64);
        put("core.aborted", g.aborted as f64);
        put("core.rejected", g.rejected as f64);
        put("core.retried", g.retried as f64);
        put("core.pending_forwarded", g.pending_forwarded as f64);
        put("core.bytes_received", g.bytes_received as f64);
        put(
            "core.virt_us_per_migration",
            ratio(g.total_in_duration.as_micros(), g.completed_in),
        );
        put("sim.steps", s.steps as f64);
        put("sim.cpu_visits", s.cpu_visits as f64);
        put("sim.frame_visits", s.frame_visits as f64);
        put("sim.timer_visits", s.timer_visits as f64);
        put("sim.visits_per_step", ratio(s.node_visits(), s.steps));
        put("sim.parallel_segments", self.parallel_segments as f64);
    }
}

/// `run_quiescent` inside a `sim.run` span that carries the visit,
/// delivery and forward deltas of the slice as counts.
pub fn run_quiescent(cluster: &mut Cluster, limit: demos_types::Duration, spans: &mut Spans) {
    run_slice(cluster, spans, |c| {
        c.run_quiescent(limit);
    });
}

/// `run_for` inside a `sim.run` span, as [`run_quiescent`].
pub fn run_for(cluster: &mut Cluster, d: demos_types::Duration, spans: &mut Spans) {
    run_slice(cluster, spans, |c| c.run_for(d));
}

fn run_slice(cluster: &mut Cluster, spans: &mut Spans, run: impl FnOnce(&mut Cluster)) {
    if !spans.is_on() {
        return run(cluster);
    }
    let before = slice_counts(cluster);
    let id = spans.enter("sim.run");
    run(cluster);
    let after = slice_counts(cluster);
    spans.exit_with(
        id,
        &[
            ("visits", after.0 - before.0),
            ("delivered", after.1 - before.1),
            ("forwarded", after.2 - before.2),
        ],
    );
}

/// (node visits, local deliveries, forwards) so far. Summing the kernel
/// counters walks every machine, so this runs only while tracing, and
/// outside the span it annotates.
fn slice_counts(cluster: &Cluster) -> (u64, u64, u64) {
    let (mut delivered, mut forwarded) = (0, 0);
    for i in 0..cluster.len() {
        let k = cluster.node(m(i)).kernel.stats();
        delivered += k.delivered_local;
        forwarded += k.forwarded;
    }
    (cluster.step_stats().node_visits(), delivered, forwarded)
}

/// Bind each `client` to its server and start it, the starts spread
/// evenly over one send period, in the order given.
///
/// Independent users are not synchronised. Started together, the clients
/// tick in lockstep for the whole run, and the host cost per event then
/// depends on which events happen to coincide — which depends on the seed:
/// two seeds differed by 10 % in `ops_per_s` on identical `msg_mesh` work.
pub fn start_staggered(
    cluster: &mut Cluster,
    starts: impl ExactSizeIterator<Item = (ProcessId, ProcessId)>,
    period_us: u32,
) {
    let slot = demos_types::Duration::from_micros(u64::from(period_us) / starts.len() as u64);
    for (client, server) in starts {
        let link = cluster.link_to(server).expect("server exists");
        cluster
            .post(client, wl::INIT, Vec::new(), vec![link])
            .expect("post INIT");
        cluster.run_for(slot);
    }
}

/// `(sent, received, rtt_sum, rtt_max)` over `client` processes, which
/// stay on the machines they were spawned on.
pub fn client_totals(cluster: &Cluster, clients: &[(MachineId, ProcessId)]) -> [u64; 4] {
    let mut t = [0u64; 4];
    for &(machine, pid) in clients {
        let state = cluster
            .node(machine)
            .kernel
            .process(pid)
            .and_then(|p| p.program.as_ref())
            .map(|p| p.save());
        if let Some(state) = state {
            let s = client_stats(&state);
            t[0] += s.sent;
            t[1] += s.recv;
            // `client_stats` reports the mean; the digest wants the sum.
            t[2] += s.rtt_mean_us * s.recv;
            t[3] = t[3].max(s.rtt_max_us);
        }
    }
    t
}
