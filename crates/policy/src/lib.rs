//! Migration decision policies.
//!
//! The paper implements the migration *mechanism* and leaves the decision
//! rule open: "designing an efficient and effective decision rule is
//! still an open research topic" (§3.1). It does, however, enumerate what
//! a rule needs — resource-use evaluation, per-processor load assessment,
//! a way to collect that information in one place, an improvement
//! strategy, and "a hysteresis mechanism to keep from incurring the cost
//! of migration more often than justified by the gains" (§3.1) — and
//! motivates three uses: load balancing, moving processes closer to the
//! resources they use most heavily, and evacuating dying processors (§1).
//!
//! This crate implements exactly those three rules as pure functions over
//! a [`ClusterView`] snapshot. They produce [`MigrationOrder`]s; the
//! harness (or a process manager) applies them through the migration
//! mechanism. Policies are deterministic: given the same view and
//! history, they make the same decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Code a protocol handler can reach degrades instead of aborting the kernel
// (DESIGN.md §8, D004/D006); tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// A match over an enum names its variants, so a new variant is a compile
// error at every handler instead of a silent fall-through (D003).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use std::collections::BTreeMap;

use demos_types::{Duration, MachineId, ProcessId, Time};

/// One machine's load, as collected by the process/memory managers
/// ("processor loading and memory demand for each machine is required",
/// §3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineLoad {
    /// The machine.
    pub machine: MachineId,
    /// Run-queue length.
    pub runq: usize,
    /// Resident processes.
    pub nprocs: usize,
    /// CPU utilization over the sampling window, 0..=1.
    pub cpu_util: f64,
    /// Image memory in use, bytes.
    pub mem_used: u64,
    /// Image memory capacity, bytes.
    pub mem_capacity: u64,
    /// Health: 1.0 = nominal, lower = degraded, 0.0 = dead. (The paper's
    /// "failure modes that manifest themselves as gradual degradation".)
    pub health: f64,
}

/// One process's resource profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessInfo {
    /// The process.
    pub pid: ProcessId,
    /// Where it currently runs.
    pub machine: MachineId,
    /// Total CPU consumed.
    pub cpu_used: Duration,
    /// Image size, bytes (the dominant migration cost, §6).
    pub image_len: u64,
    /// System processes are not migrated by automatic policies ("servers
    /// are often tied to unmovable resources", §5).
    pub privileged: bool,
    /// Cumulative bytes sent per destination machine (communication
    /// accounting; "collection of the communication data is beyond the
    /// ability of most current systems", §3.1 — ours collects it).
    pub bytes_sent_to: Vec<(MachineId, u64)>,
}

/// A snapshot of the whole cluster at `at`.
#[derive(Clone, Debug, Default)]
pub struct ClusterView {
    /// Snapshot time.
    pub at: Time,
    /// Per-machine loads (indexed by machine id order).
    pub machines: Vec<MachineLoad>,
    /// Every (migratable-relevant) process.
    pub processes: Vec<ProcessInfo>,
}

impl Default for MachineLoad {
    fn default() -> Self {
        MachineLoad {
            machine: MachineId(0),
            runq: 0,
            nprocs: 0,
            cpu_util: 0.0,
            mem_used: 0,
            mem_capacity: u64::MAX,
            health: 1.0,
        }
    }
}

/// A decision: move `pid` to `dest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationOrder {
    /// Process to move.
    pub pid: ProcessId,
    /// Destination machine.
    pub dest: MachineId,
}

/// A migration decision rule.
pub trait Policy {
    /// Inspect a snapshot and decide which migrations to order now.
    fn decide(&mut self, view: &ClusterView) -> Vec<MigrationOrder>;
}

/// Hysteresis bookkeeping shared by the policies (§3.1: "a hysteresis
/// mechanism to keep from incurring the cost of migration more often than
/// justified by the gains").
#[derive(Clone, Debug)]
pub struct Hysteresis {
    /// Minimum interval between migrations of the *same* process.
    pub per_process: Duration,
    /// Minimum interval between any two orders issued by this policy.
    pub global: Duration,
    last_global: Option<Time>,
    last_per_pid: BTreeMap<ProcessId, Time>,
}

impl Hysteresis {
    /// New hysteresis with the given intervals.
    pub fn new(per_process: Duration, global: Duration) -> Self {
        Hysteresis {
            per_process,
            global,
            last_global: None,
            last_per_pid: BTreeMap::new(),
        }
    }

    /// Disabled hysteresis (every decision allowed).
    pub fn off() -> Self {
        Hysteresis::new(Duration::ZERO, Duration::ZERO)
    }

    /// May the policy act at all right now?
    pub fn global_ok(&self, now: Time) -> bool {
        self.last_global.is_none_or(|t| now.since(t) >= self.global)
    }

    /// May `pid` be moved right now?
    pub fn pid_ok(&self, now: Time, pid: ProcessId) -> bool {
        self.last_per_pid
            .get(&pid)
            .is_none_or(|&t| now.since(t) >= self.per_process)
    }

    /// Record an issued order.
    pub fn note(&mut self, now: Time, pid: ProcessId) {
        self.last_global = Some(now);
        self.last_per_pid.insert(pid, now);
    }
}

/// Threshold load balancing: when the spread between the most and least
/// loaded machines exceeds `imbalance`, move one user process from the
/// hottest machine to the coolest ("distribute the load as evenly as
/// possible across the set of available resources", §1).
#[derive(Debug)]
pub struct LoadBalance {
    /// Minimum run-queue spread (hottest − coolest) to act on.
    pub imbalance: usize,
    /// Maximum orders per decision round.
    pub max_moves: usize,
    /// Hysteresis state.
    pub hysteresis: Hysteresis,
}

impl LoadBalance {
    /// A balancer acting on a run-queue spread of `imbalance`.
    pub fn new(imbalance: usize, hysteresis: Hysteresis) -> Self {
        LoadBalance {
            imbalance: imbalance.max(1),
            max_moves: 1,
            hysteresis,
        }
    }

    fn load_of(m: &MachineLoad) -> usize {
        // Runnable work outweighs mere residency.
        m.runq * 4 + m.nprocs
    }
}

impl Policy for LoadBalance {
    fn decide(&mut self, view: &ClusterView) -> Vec<MigrationOrder> {
        if !self.hysteresis.global_ok(view.at) {
            return Vec::new();
        }
        let mut orders = Vec::new();
        let healthy: Vec<&MachineLoad> = view.machines.iter().filter(|m| m.health > 0.5).collect();
        if healthy.len() < 2 {
            return orders;
        }
        let Some(hottest) = healthy
            .iter()
            .max_by_key(|m| (Self::load_of(m), m.machine.0))
        else {
            return orders;
        };
        let Some(coolest) = healthy
            .iter()
            .min_by_key(|m| (Self::load_of(m), m.machine.0))
        else {
            return orders;
        };
        if hottest.machine == coolest.machine || hottest.runq < coolest.runq + self.imbalance {
            return orders;
        }
        // Pick the cheapest eligible process on the hottest machine
        // (smallest image → smallest relocation cost, §6).
        let mut candidates: Vec<&ProcessInfo> = view
            .processes
            .iter()
            .filter(|p| {
                p.machine == hottest.machine
                    && !p.privileged
                    && self.hysteresis.pid_ok(view.at, p.pid)
            })
            .collect();
        candidates.sort_by_key(|p| (p.image_len, p.pid.local_uid, p.pid.creating_machine.0));
        for p in candidates.into_iter().take(self.max_moves) {
            if coolest.mem_used + p.image_len > coolest.mem_capacity {
                continue;
            }
            self.hysteresis.note(view.at, p.pid);
            orders.push(MigrationOrder {
                pid: p.pid,
                dest: coolest.machine,
            });
        }
        orders
    }
}

/// Communication affinity: move a process next to the machine it sends
/// most of its traffic to ("moving a process closer to the resource it is
/// using most heavily may reduce system-wide communication traffic", §1).
///
/// Works on *deltas* between successive snapshots so old history does not
/// pin a process forever.
#[derive(Debug)]
pub struct CommAffinity {
    /// Act only when the dominant remote destination received at least
    /// this many bytes since the last snapshot.
    pub min_bytes: u64,
    /// Act only when the dominant destination carries at least this
    /// fraction of the process's remote traffic (0..=1).
    pub dominance: f64,
    /// Hysteresis state.
    pub hysteresis: Hysteresis,
    prev: BTreeMap<(ProcessId, MachineId), u64>,
}

impl CommAffinity {
    /// New affinity policy.
    pub fn new(min_bytes: u64, dominance: f64, hysteresis: Hysteresis) -> Self {
        CommAffinity {
            min_bytes,
            dominance,
            hysteresis,
            prev: BTreeMap::new(),
        }
    }
}

impl Policy for CommAffinity {
    fn decide(&mut self, view: &ClusterView) -> Vec<MigrationOrder> {
        let mut orders = Vec::new();
        // Guard against symmetric swaps: if this round already moves some
        // process A→B, a simultaneous B→A move would leave the pair still
        // separated (they would trade places). One mover per machine pair
        // per round; hysteresis keeps the next round from thrashing.
        let mut pair_taken: std::collections::BTreeSet<(MachineId, MachineId)> =
            std::collections::BTreeSet::new();
        for p in &view.processes {
            if p.privileged {
                continue;
            }
            let mut deltas: Vec<(MachineId, u64)> = Vec::new();
            let mut total = 0u64;
            for &(m, bytes) in &p.bytes_sent_to {
                let prev = self.prev.insert((p.pid, m), bytes).unwrap_or(0);
                let d = bytes.saturating_sub(prev);
                if m != p.machine && d > 0 {
                    deltas.push((m, d));
                    total += d;
                }
            }
            if total < self.min_bytes {
                continue;
            }
            let Some(&(dest, top)) = deltas.iter().max_by_key(|&&(m, d)| (d, m.0)) else {
                continue;
            };
            if (top as f64) < self.dominance * total as f64 {
                continue;
            }
            if !self.hysteresis.global_ok(view.at) || !self.hysteresis.pid_ok(view.at, p.pid) {
                continue;
            }
            if pair_taken.contains(&(dest, p.machine)) {
                continue;
            }
            pair_taken.insert((p.machine, dest));
            self.hysteresis.note(view.at, p.pid);
            orders.push(MigrationOrder { pid: p.pid, dest });
        }
        orders
    }
}

/// Evacuation: move every process off machines whose health has fallen
/// below a threshold ("working processes may be migrated from a dying
/// processor — like rats leaving a sinking ship — before it completely
/// fails", §1).
#[derive(Debug)]
pub struct Evacuate {
    /// Health below which a machine is considered dying.
    pub health_threshold: f64,
}

impl Evacuate {
    /// New evacuation policy.
    pub fn new(health_threshold: f64) -> Self {
        Evacuate { health_threshold }
    }
}

impl Policy for Evacuate {
    fn decide(&mut self, view: &ClusterView) -> Vec<MigrationOrder> {
        let mut orders = Vec::new();
        let dying: Vec<MachineId> = view
            .machines
            .iter()
            .filter(|m| m.health < self.health_threshold)
            .map(|m| m.machine)
            .collect();
        if dying.is_empty() {
            return orders;
        }
        // Spread evacuees round-robin over healthy machines, least loaded
        // first.
        let mut healthy: Vec<&MachineLoad> = view
            .machines
            .iter()
            .filter(|m| m.health >= self.health_threshold)
            .collect();
        healthy.sort_by_key(|m| (m.runq, m.nprocs, m.machine.0));
        if healthy.is_empty() {
            return orders;
        }
        let mut k = 0usize;
        for p in &view.processes {
            if dying.contains(&p.machine) {
                let dest = healthy[k % healthy.len()].machine;
                k += 1;
                orders.push(MigrationOrder { pid: p.pid, dest });
            }
        }
        orders
    }
}

/// Cost-aware load balancing: like [`LoadBalance`], but weighs the
/// estimated relocation cost against the expected gain before ordering a
/// move (§3.1: "a strategy for improving the operation of the system
/// considering the appropriate costs"). A process is moved only when the
/// run-queue spread is large enough that the CPU time it stands to gain
/// over `horizon` exceeds the transfer cost expressed in time.
#[derive(Debug)]
pub struct CostAwareBalance {
    /// Underlying threshold balancer.
    pub inner: LoadBalance,
    /// Transfer throughput used to convert bytes to time, bytes/second.
    pub bytes_per_sec: u64,
    /// How far ahead the gain is credited.
    pub horizon: Duration,
}

impl CostAwareBalance {
    /// New cost-aware balancer.
    pub fn new(
        imbalance: usize,
        hysteresis: Hysteresis,
        bytes_per_sec: u64,
        horizon: Duration,
    ) -> Self {
        CostAwareBalance {
            inner: LoadBalance::new(imbalance, hysteresis),
            bytes_per_sec: bytes_per_sec.max(1),
            horizon,
        }
    }

    /// Estimated time to transfer a process of `image_len` bytes.
    fn transfer_time(&self, image_len: u64) -> Duration {
        let bytes = estimate_cost_bytes(250, 600, image_len, 0);
        Duration::from_micros(bytes.saturating_mul(1_000_000) / self.bytes_per_sec)
    }
}

impl Policy for CostAwareBalance {
    fn decide(&mut self, view: &ClusterView) -> Vec<MigrationOrder> {
        let orders = self.inner.decide(view);
        orders
            .into_iter()
            .filter(|o| {
                let Some(p) = view.processes.iter().find(|p| p.pid == o.pid) else {
                    return false;
                };
                let Some(src) = view.machines.iter().find(|m| m.machine == p.machine) else {
                    return false;
                };
                // Expected gain: on the hot machine the process gets
                // ~1/runq of a CPU; on an idle one, ~a full CPU. Credit the
                // difference over the horizon.
                let share_here = 1.0 / (src.runq.max(1) as f64);
                let gain_us = (1.0 - share_here) * self.horizon.as_micros() as f64;
                let cost_us = self.transfer_time(p.image_len).as_micros() as f64;
                gain_us > cost_us
            })
            .collect()
    }
}

/// Estimated cost of moving a process, in message bytes (§6: state
/// transfer dominated by the image for non-trivial processes, plus the
/// nine administrative messages).
pub fn estimate_cost_bytes(resident: u64, swappable: u64, image: u64, queued_msgs: u64) -> u64 {
    const ADMIN: u64 = 9 * 10; // nine messages, ~10-byte payloads
    const PER_MSG_HEADER: u64 = 26;
    resident + swappable + image + ADMIN + queued_msgs * PER_MSG_HEADER
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

    fn machine(m: u16, runq: usize) -> MachineLoad {
        MachineLoad {
            machine: MachineId(m),
            runq,
            nprocs: runq,
            ..Default::default()
        }
    }

    fn process(u: u32, m: u16) -> ProcessInfo {
        ProcessInfo {
            pid: pid(u),
            machine: MachineId(m),
            cpu_used: Duration::ZERO,
            image_len: 1000,
            privileged: false,
            bytes_sent_to: vec![],
        }
    }

    #[test]
    fn load_balance_moves_from_hot_to_cool() {
        let mut p = LoadBalance::new(2, Hysteresis::off());
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 6), machine(1, 0)],
            processes: vec![process(1, 0), process(2, 0)],
        };
        let orders = p.decide(&view);
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].dest, MachineId(1));
    }

    #[test]
    fn load_balance_respects_imbalance_threshold() {
        let mut p = LoadBalance::new(4, Hysteresis::off());
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 3), machine(1, 1)],
            processes: vec![process(1, 0)],
        };
        assert!(p.decide(&view).is_empty(), "spread of 2 below threshold 4");
    }

    #[test]
    fn load_balance_skips_privileged() {
        let mut p = LoadBalance::new(1, Hysteresis::off());
        let mut proc = process(1, 0);
        proc.privileged = true;
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 8), machine(1, 0)],
            processes: vec![proc],
        };
        assert!(p.decide(&view).is_empty());
    }

    #[test]
    fn hysteresis_blocks_rapid_remigration() {
        let h = Hysteresis::new(Duration::from_secs(1), Duration::ZERO);
        let mut p = LoadBalance::new(1, h);
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 8), machine(1, 0)],
            processes: vec![process(1, 0)],
        };
        assert_eq!(p.decide(&view).len(), 1);
        // Same process still "hot" moments later: blocked.
        let view2 = ClusterView {
            at: Time(1000),
            ..view.clone()
        };
        assert!(p.decide(&view2).is_empty());
        // After the interval it may move again.
        let view3 = ClusterView {
            at: Time(2_000_000),
            ..view
        };
        assert_eq!(p.decide(&view3).len(), 1);
    }

    #[test]
    fn affinity_follows_dominant_traffic_delta() {
        let h = Hysteresis::off();
        let mut p = CommAffinity::new(100, 0.6, h);
        let mut proc = process(1, 0);
        proc.bytes_sent_to = vec![(MachineId(1), 1000), (MachineId(2), 50)];
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 0), machine(1, 0), machine(2, 0)],
            processes: vec![proc.clone()],
        };
        let orders = p.decide(&view);
        assert_eq!(
            orders,
            vec![MigrationOrder {
                pid: pid(1),
                dest: MachineId(1)
            }]
        );
        // Unchanged counters → zero delta → no repeat order.
        let view2 = ClusterView {
            at: Time(10),
            machines: view.machines.clone(),
            processes: vec![proc],
        };
        assert!(p.decide(&view2).is_empty());
    }

    #[test]
    fn affinity_ignores_local_traffic() {
        let mut p = CommAffinity::new(10, 0.5, Hysteresis::off());
        let mut proc = process(1, 0);
        proc.bytes_sent_to = vec![(MachineId(0), 100_000)];
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 0), machine(1, 0)],
            processes: vec![proc],
        };
        assert!(p.decide(&view).is_empty());
    }

    #[test]
    fn evacuate_empties_dying_machine() {
        let mut p = Evacuate::new(0.5);
        let mut dying = machine(0, 2);
        dying.health = 0.2;
        let view = ClusterView {
            at: Time(0),
            machines: vec![dying, machine(1, 0), machine(2, 1)],
            processes: vec![process(1, 0), process(2, 0), process(3, 1)],
        };
        let orders = p.decide(&view);
        assert_eq!(orders.len(), 2, "both processes on m0 leave");
        assert!(orders.iter().all(|o| o.dest != MachineId(0)));
        // Round-robin spreads them.
        assert_ne!(orders[0].dest, orders[1].dest);
    }

    #[test]
    fn cost_aware_blocks_moves_that_cannot_pay_off() {
        // A huge process on a barely-loaded machine: the threshold rule
        // would move it, the cost-aware rule refuses.
        let mut naive = LoadBalance::new(2, Hysteresis::off());
        let mut wise = CostAwareBalance::new(
            2,
            Hysteresis::off(),
            1_000_000,                 // 1 MB/s transfer
            Duration::from_millis(10), // short horizon
        );
        let mut huge = process(1, 0);
        huge.image_len = 512 * 1024; // ~0.5 s to move, can't pay off in 10 ms
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 6), machine(1, 0)],
            processes: vec![huge],
        };
        assert_eq!(naive.decide(&view).len(), 1, "threshold rule moves it");
        assert!(wise.decide(&view).is_empty(), "cost-aware rule refuses");
    }

    #[test]
    fn cost_aware_allows_profitable_moves() {
        let mut wise = CostAwareBalance::new(
            2,
            Hysteresis::off(),
            10_000_000,             // 10 MB/s
            Duration::from_secs(2), // long horizon
        );
        let mut small = process(1, 0);
        small.image_len = 16 * 1024;
        let view = ClusterView {
            at: Time(0),
            machines: vec![machine(0, 6), machine(1, 0)],
            processes: vec![small],
        };
        assert_eq!(
            wise.decide(&view).len(),
            1,
            "cheap move with big gain proceeds"
        );
    }

    #[test]
    fn cost_estimate_scales_with_image() {
        let small = estimate_cost_bytes(250, 600, 10_000, 0);
        let big = estimate_cost_bytes(250, 600, 1_000_000, 0);
        assert!(big > small);
        assert_eq!(big - small, 990_000);
        assert!(estimate_cost_bytes(0, 0, 0, 10) > estimate_cost_bytes(0, 0, 0, 0));
    }
}
