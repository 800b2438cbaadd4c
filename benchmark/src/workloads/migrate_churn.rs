//! `migrate_churn`: migration and nothing else.
//!
//! 8 machines, 32 inert `cargo` processes (four per machine at the
//! start) with code segments of 4, 64 or 512 KiB. The harness orders one
//! migration per process per wave — all 32 at once, each to a seeded
//! machine other than the one it is on — and runs the wave to quiescence
//! before ordering the next. The processes never send a message, so user
//! messaging is near zero and the cost is `core`'s engine, `kernel`'s
//! move-data streams and image flatten/install.
//!
//! The harness-ordered path costs 7 administrative messages per
//! migration: EXPERIMENTS.md E2's 9 minus the `MigrateRequest` and `Done`
//! that only a process-manager-driven migration sends.

use demos_kernel::ImageLayout;
use demos_sim::programs::Cargo;
use demos_sim::{Cluster, ClusterBuilder};
use demos_types::{Duration, ProcessId};

use super::{m, run_quiescent, Scale, Totals};
use crate::digest::Digest;
use crate::harness::{Outcome, Probe, Workload};
use crate::rng::{stratified, Rng};
use crate::spans::Spans;

const MACHINES: usize = 8;
const PROCS: usize = 32;

/// The generated inputs of one `migrate_churn` run.
pub struct MigrateChurn {
    seed: u64,
    /// Code-segment size of each process, KiB.
    code_kib: Vec<u32>,
    /// `waves[w][p]`: where wave `w` sends process `p`.
    waves: Vec<Vec<usize>>,
}

fn home(p: usize) -> usize {
    p % MACHINES
}

impl MigrateChurn {
    /// Draw image sizes and destinations from `seed`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::new(seed, 0x6368_7572);
        // The same multiset of sizes for every seed, so the bytes moved
        // per wave do not depend on it; the seed decides which process
        // (hence which machine) carries which size, and every route.
        let code_kib = stratified(&mut rng, &[4u32, 64, 512], &[11, 11, 10]);
        let mut at: Vec<usize> = (0..PROCS).map(home).collect();
        let waves = (0..scale.pick(16, 2))
            .map(|_| {
                at.iter_mut()
                    .map(|cur| {
                        *cur = (*cur + 1 + rng.below(MACHINES - 1)) % MACHINES;
                        *cur
                    })
                    .collect()
            })
            .collect();
        MigrateChurn {
            seed,
            code_kib,
            waves,
        }
    }

    fn build(&self, spans: &mut Spans) -> (Cluster, Vec<ProcessId>) {
        let mut cluster = spans.scope("sim.build", |_| {
            ClusterBuilder::new(MACHINES)
                .seed(self.seed)
                .no_trace()
                .build()
        });
        let pids = spans.scope("sim.spawn", |_| {
            self.code_kib
                .iter()
                .enumerate()
                .map(|(p, &kib)| {
                    let layout = ImageLayout {
                        code: kib * 1024,
                        data: 2048,
                        stack: 1024,
                    };
                    cluster
                        .spawn(m(home(p)), "cargo", &Cargo::state(64), layout)
                        .expect("spawn cargo")
                })
                .collect()
        });
        spans.scope("sim.warmup", |_| cluster.run_for(Duration::from_millis(5)));
        (cluster, pids)
    }
}

impl Workload for MigrateChurn {
    fn rep(&self, probe: &mut Probe) -> Outcome {
        let (mut cluster, pids) = probe.setup(|spans| self.build(spans));
        let before = Totals::of(&cluster);

        let (mut refused, mut misplaced) = (0u64, 0u64);
        probe.timed(|spans| {
            for wave in &self.waves {
                for (&pid, &dest) in pids.iter().zip(wave) {
                    let ordered = spans.scope("core.migrate", |_| cluster.migrate(pid, m(dest)));
                    refused += u64::from(ordered.is_err());
                }
                run_quiescent(&mut cluster, Duration::from_secs(60), spans);
                // The next wave's routes assume this one arrived.
                for (&pid, &dest) in pids.iter().zip(wave) {
                    misplaced += u64::from(cluster.where_is(pid) != Some(m(dest)));
                }
            }
        });

        probe.post(|_| {
            let after = Totals::of(&cluster);
            let orders = (self.waves.len() * PROCS) as u64;
            let mut out = Outcome {
                ops: orders - misplaced,
                attempted: orders,
                failed: misplaced,
                events: after.step.node_visits() - before.step.node_visits(),
                virt_us: after.now_us - before.now_us,
                ..Outcome::default()
            };
            if refused != 0 || misplaced != 0 {
                out.failures.push(format!(
                    "{refused} of {orders} migration orders were refused, {misplaced} processes \
                     were not at their ordered destination after their wave"
                ));
            }
            if after.core.completed_in != orders {
                out.failures.push(format!(
                    "bypass: core.completed = {} but {orders} migrations were ordered",
                    after.core.completed_in
                ));
            }
            let mut d = Digest::default();
            after.digest_into(&mut d);
            out.digest = d.finish();
            after.counters_into(&mut out.counters);
            out
        })
    }
}
