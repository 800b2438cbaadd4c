//! `sysproc_ref`: ROADMAP's reference scenario, the realistic mix.
//!
//! 64 machines. `boot_system` puts the switchboard, process manager and
//! memory scheduler on machine 0 and the four file-system processes on
//! machine 1. Two `fs_client`s on each of 16 seeded machines run a closed
//! loop (one operation outstanding, 100 virtual ms think time) with a
//! seeded read/write mix; finite `cpu_burner`s arrive in waves of two on
//! each of four seeded hot machines every 200 virtual ms; and every
//! 20 virtual ms a `LoadBalance` policy with hysteresis looks at a
//! snapshot of the cluster and orders migrations off the hot machines.
//!
//! The policy tick is written out here (`snapshot` → `Policy::decide` →
//! `Cluster::migrate`) rather than left to `PolicyDriver::tick`, so that
//! each of the three gets a span of its own in the traced run; it does
//! exactly what `PolicyDriver::tick` does.
//!
//! Sizing. The file system's bottleneck is its simulated disk (2 virtual
//! ms per block operation, 32-block cache): it saturates near 460
//! operations per virtual second. 32 clients thinking for 100 ms offer
//! about 290, some 60 % of that. A hot machine receives 10 burners per
//! virtual second of 108 ms CPU each, slightly more than it can run, and
//! the balancer (at most one order per tick) is busy on about 60 % of its
//! ticks, so nothing piles up however long the scenario runs.

use demos_kernel::ImageLayout;
use demos_policy::{Hysteresis, LoadBalance, Policy};
use demos_sim::boot::{total_client_errors, total_client_ops};
use demos_sim::programs::{wl, CpuBurner};
use demos_sim::{boot_system, snapshot, BootConfig, Cluster, ClusterBuilder};
use demos_sysproc::FsClient;
use demos_types::{Duration, ProcessId};

use super::{m, run_for, run_quiescent, Scale, Totals};
use crate::digest::Digest;
use crate::harness::{Outcome, Probe, Workload};
use crate::rng::{stratified, Rng};
use crate::spans::Spans;

const MACHINES: usize = 64;
const CLIENT_MACHINES: usize = 16;
const CLIENTS_PER_MACHINE: usize = 2;
const HOT_MACHINES: usize = 4;
const BURNERS_PER_WAVE: usize = 2;
const TICK: Duration = Duration::from_millis(20);
const TICKS_PER_WAVE: usize = 10;
const THINK_US: u32 = 100_000;

/// The generated inputs of one `sysproc_ref` run.
pub struct SysprocRef {
    seed: u64,
    /// `(machine, read percentage)` of each client machine.
    client_machines: Vec<(usize, u8)>,
    /// Machines the burner waves land on.
    hot_machines: Vec<usize>,
    waves: usize,
    ops_per_client: u64,
    burner_iterations: u64,
}

impl SysprocRef {
    /// Draw placement and the read/write mix from `seed`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::new(seed, 0x7379_7370);
        // Machines 0 and 1 hold the system processes; everything else is
        // dealt out by the seed, clients and burner waves on disjoint
        // machines so the balancer's victims are always burners.
        let mut free: Vec<usize> = (2..MACHINES).collect();
        rng.shuffle(&mut free);
        let hot_machines = free.split_off(free.len() - HOT_MACHINES);
        free.truncate(CLIENT_MACHINES);
        // The same multiset of mixes for every seed.
        let mixes = stratified(&mut rng, &[20u8, 50, 80], &[5, 6, 5]);
        SysprocRef {
            seed,
            client_machines: free.into_iter().zip(mixes).collect(),
            hot_machines,
            waves: scale.pick(200, 1) as usize,
            ops_per_client: scale.pick(370, 4),
            burner_iterations: scale.pick(120, 10),
        }
    }

    fn build(&self, spans: &mut Spans) -> (Cluster, Vec<ProcessId>) {
        let mut cluster = spans.scope("sim.build", |_| {
            ClusterBuilder::new(MACHINES)
                .seed(self.seed)
                .no_trace()
                .build()
        });
        let handles = spans.scope("sysproc.boot", |_| {
            let cfg = BootConfig {
                fs_machine: m(1),
                ..BootConfig::default()
            };
            boot_system(&mut cluster, cfg).expect("boot system processes")
        });
        // `spawn_fs_clients` with an operation budget: it spawns clients
        // that never stop, and fixed work needs clients that do.
        let clients = spans.scope("sim.spawn", |_| {
            let mut clients = Vec::new();
            for &(machine, read_pct) in &self.client_machines {
                for i in 0..CLIENTS_PER_MACHINE {
                    let name_seed = (machine * CLIENTS_PER_MACHINE + i) as u32;
                    let state =
                        FsClient::state(name_seed, 2, self.ops_per_client, THINK_US, 128, read_pct);
                    let pid = cluster
                        .spawn(m(machine), FsClient::NAME, &state, ImageLayout::default())
                        .expect("spawn fs_client");
                    let server = cluster.link_to(handles.fs_file).expect("file server");
                    cluster
                        .post(pid, wl::INIT, Vec::new(), vec![server])
                        .expect("post INIT");
                    clients.push(pid);
                }
            }
            clients
        });
        // Warm-up: services registered with the switchboard, every client
        // has created its two files and is in its read/write loop.
        spans.scope("sim.warmup", |_| {
            cluster.run_for(Duration::from_millis(150))
        });
        (cluster, clients)
    }
}

/// What `PolicyDriver` keeps between ticks.
struct Balancer {
    policy: LoadBalance,
    prev_busy: Vec<Duration>,
    last_run_us: u64,
    issued: u64,
    failed: u64,
}

impl Balancer {
    fn tick(&mut self, cluster: &mut Cluster, spans: &mut Spans) {
        let tick = spans.enter("policy.tick");
        let window = Duration::from_micros(cluster.now().as_micros() - self.last_run_us);
        self.last_run_us = cluster.now().as_micros();
        let view = spans.scope("sim.snapshot", |_| {
            snapshot(cluster, &self.prev_busy, window)
        });
        for (i, busy) in self.prev_busy.iter_mut().enumerate() {
            *busy = cluster.cpu_busy(m(i));
        }
        let orders = spans.scope("policy.decide", |_| self.policy.decide(&view));
        for o in &orders {
            self.issued += 1;
            let ordered = spans.scope("core.migrate", |_| cluster.migrate(o.pid, o.dest));
            self.failed += u64::from(ordered.is_err());
        }
        spans.exit(tick);
    }
}

impl Workload for SysprocRef {
    fn rep(&self, probe: &mut Probe) -> Outcome {
        let (mut cluster, clients) = probe.setup(|spans| self.build(spans));
        let before = Totals::of(&cluster);
        let ops_before = total_client_ops(&cluster, &clients);

        let mut balancer = Balancer {
            policy: LoadBalance::new(
                2,
                Hysteresis::new(Duration::from_millis(100), Duration::from_millis(5)),
            ),
            prev_busy: (0..MACHINES).map(|i| cluster.cpu_busy(m(i))).collect(),
            last_run_us: cluster.now().as_micros(),
            issued: 0,
            failed: 0,
        };
        let mut burners = 0u64;
        probe.timed(|spans| {
            for _ in 0..self.waves {
                spans.scope("sim.post", |_| {
                    for &hot in &self.hot_machines {
                        for _ in 0..BURNERS_PER_WAVE {
                            let state = CpuBurner::state(self.burner_iterations, 900, 1_000);
                            cluster
                                .spawn(m(hot), "cpu_burner", &state, ImageLayout::default())
                                .expect("spawn cpu_burner");
                            burners += 1;
                        }
                    }
                });
                for _ in 0..TICKS_PER_WAVE {
                    run_for(&mut cluster, TICK, spans);
                    balancer.tick(&mut cluster, spans);
                }
            }
            run_quiescent(&mut cluster, Duration::from_secs(60), spans);
        });

        probe.post(|_| {
            let after = Totals::of(&cluster);
            let completed = total_client_ops(&cluster, &clients);
            let errors = total_client_errors(&cluster, &clients);
            let attempted = self.ops_per_client * clients.len() as u64;
            let good = completed - errors;
            let mut out = Outcome {
                ops: good - ops_before,
                attempted: attempted + balancer.issued,
                failed: (attempted - good.min(attempted)) + balancer.failed,
                events: after.step.node_visits() - before.step.node_visits(),
                virt_us: after.now_us - before.now_us,
                ..Outcome::default()
            };
            if completed != attempted || errors != 0 {
                out.failures.push(format!(
                    "drain: {attempted} fs operations budgeted, {completed} completed, \
                     {errors} of them errors"
                ));
            }
            if balancer.failed != 0 {
                out.failures.push(format!(
                    "{} of {} policy orders failed to start",
                    balancer.failed, balancer.issued
                ));
            }
            if after.kernel.exited != burners {
                out.failures.push(format!(
                    "{burners} burners were spawned but {} processes exited",
                    after.kernel.exited
                ));
            }
            if after.core.completed_in != after.core.started {
                out.failures.push(format!(
                    "{} migrations started, {} completed",
                    after.core.started, after.core.completed_in
                ));
            }
            let mut d = Digest::default();
            after.digest_into(&mut d);
            d.words([completed, errors, balancer.issued, balancer.failed, burners]);
            out.digest = d.finish();
            after.counters_into(&mut out.counters);
            out.counters.insert("sysproc.fs_ops", completed as f64);
            out.counters.insert("sysproc.fs_errors", errors as f64);
            out.counters
                .insert("policy.orders_issued", balancer.issued as f64);
            out.counters
                .insert("policy.orders_failed", balancer.failed as f64);
            // Not a catalogue counter: the attribution estimate's multiplier.
            let ticks = (self.waves * TICKS_PER_WAVE) as f64;
            out.counters.insert("policy.ticks", ticks);
            out
        })
    }
}
