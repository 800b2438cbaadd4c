//! Driving migration policies against a live cluster.
//!
//! The paper's process manager "makes the decision of when and to where
//! to migrate a process" by monitoring the same information it already
//! collects for CPU and memory scheduling (§3.1). [`PolicyDriver`] plays
//! that role for the harness: it periodically snapshots the cluster into
//! a [`ClusterView`], asks a [`Policy`] for orders, and applies them
//! through the migration mechanism.

use demos_kernel::MEM_CAPACITY;
use demos_policy::{ClusterView, MachineLoad, MigrationOrder, Policy, ProcessInfo};
use demos_types::{Duration, MachineId, Time};

use crate::cluster::Cluster;

/// Build a policy snapshot of the cluster. `prev_busy`/`window` yield CPU
/// utilization; pass an empty slice to report zero utilization. Each
/// process's traffic is borrowed, not copied: the snapshot allocates its
/// two lists and nothing per process.
pub fn snapshot<'a>(
    cluster: &'a Cluster,
    prev_busy: &[Duration],
    window: Duration,
) -> ClusterView<'a> {
    let mut machines = Vec::with_capacity(cluster.len());
    let nprocs = cluster.nodes.iter().map(|n| n.kernel.nprocs()).sum();
    let mut processes = Vec::with_capacity(nprocs);
    for i in 0..cluster.len() {
        let m = MachineId(i as u16);
        let node = cluster.node(m);
        let busy_now = cluster.cpu_busy(m);
        let busy_prev = prev_busy.get(i).copied().unwrap_or(busy_now);
        let util = if window.as_micros() == 0 {
            0.0
        } else {
            (busy_now - busy_prev).as_micros() as f64 / window.as_micros() as f64
        };
        machines.push(MachineLoad {
            machine: m,
            runq: node.kernel.runq_len(),
            nprocs: node.kernel.nprocs(),
            cpu_util: util.min(1.0),
            mem_used: node.kernel.mem_used(),
            mem_capacity: MEM_CAPACITY,
            health: cluster.health(m),
        });
        for (pid, proc) in node.kernel.processes() {
            processes.push(ProcessInfo {
                pid,
                machine: m,
                cpu_used: proc.cpu_used,
                image_len: proc.image.total_len() as u64,
                privileged: proc.privileged,
                bytes_sent_to: &proc.bytes_sent_to,
            });
        }
    }
    ClusterView {
        at: cluster.now(),
        machines,
        processes,
    }
}

/// Periodically runs a policy against the cluster.
pub struct PolicyDriver {
    policy: Box<dyn Policy>,
    /// Decision period.
    pub period: Duration,
    prev_busy: Vec<Duration>,
    last_run: Time,
    /// Orders issued so far.
    pub orders_issued: u64,
    /// Orders that failed to start (process gone, already migrating, …).
    pub orders_failed: u64,
}

impl PolicyDriver {
    /// New driver for `policy`, deciding every `period`.
    pub fn new(policy: Box<dyn Policy>, period: Duration) -> Self {
        PolicyDriver {
            policy,
            period,
            prev_busy: Vec::new(),
            last_run: Time::ZERO,
            orders_issued: 0,
            orders_failed: 0,
        }
    }

    /// Snapshot, decide, apply. Call after each `cluster.run_for(period)`.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Vec<MigrationOrder> {
        let window = cluster.now().since(self.last_run);
        self.last_run = cluster.now();
        if self.prev_busy.len() != cluster.len() {
            self.prev_busy = vec![Duration::ZERO; cluster.len()];
        }
        let view = snapshot(cluster, &self.prev_busy, window);
        for i in 0..cluster.len() {
            self.prev_busy[i] = cluster.cpu_busy(MachineId(i as u16));
        }
        let orders = self.policy.decide(&view);
        for o in &orders {
            self.orders_issued += 1;
            if cluster.migrate(o.pid, o.dest).is_err() {
                self.orders_failed += 1;
            }
        }
        orders
    }

    /// Run the cluster for `total`, invoking the policy every period.
    pub fn run(&mut self, cluster: &mut Cluster, total: Duration) {
        let end = cluster.now() + total;
        while cluster.now() < end {
            let slice = self.period.min(end.since(cluster.now()));
            if slice == Duration::ZERO {
                break;
            }
            cluster.run_for(slice);
            self.tick(cluster);
        }
    }
}
