//! `idle_scale` and `idle_scale_s2`: many machines, little work.
//!
//! One cross-cluster `pingpong` pair and one timer-driven `cpu_burner` per
//! eight machines; trace and flight recorder off. Almost every event is a
//! cheap one on an otherwise idle machine, so the cost of *finding* the
//! next event dominates: the heap, the runnable set, per-machine state.
//!
//! Pairs and burners get one of 64 slightly different periods each
//! (50–113 virtual µs of CPU per ball, 900–963 µs between ticks). With one
//! period for all, every pair rallies in lockstep on a uniform mesh, each
//! step of the loop serves some 70 events at one instant, and the search
//! for the next event — the thing this workload exists to measure — is
//! amortised away.
//!
//! `idle_scale` runs 1024 machines on the sequential loop.
//! `idle_scale_s2` runs 4096 machines on two shard threads; every pair has
//! one player in each half of the machine range, so the two contiguous
//! shards carry equal load and every rally crosses the shard boundary.

use demos_kernel::ImageLayout;
use demos_sim::programs::{pingpong_rallies, wl, CpuBurner, PingPong};
use demos_sim::{Cluster, ClusterBuilder};
use demos_types::{Duration, MachineId, ProcessId};

use super::{m, run_quiescent, Scale, Totals};
use crate::digest::Digest;
use crate::harness::{Outcome, Probe, Workload};
use crate::rng::Rng;
use crate::spans::Spans;

/// The generated inputs of one `idle_scale*` run.
pub struct IdleScale {
    seed: u64,
    machines: usize,
    shards: usize,
    /// `(low-half machine, high-half machine)` of each pair.
    pairs: Vec<(usize, usize)>,
    /// One burner machine in each block of eight.
    burner_machines: Vec<usize>,
    rallies_per_player: u64,
    burner_iterations: u64,
}

impl IdleScale {
    /// Draw pair and burner placement from `seed`.
    pub fn generate(seed: u64, scale: Scale, machines: usize, shards: usize, rallies: u64) -> Self {
        let mut rng = Rng::new(seed, 0x6964_6c65);
        let half = machines / 2;
        let mut low: Vec<usize> = (0..half).collect();
        let mut high: Vec<usize> = (half..machines).collect();
        rng.shuffle(&mut low);
        rng.shuffle(&mut high);
        let pairs = low.into_iter().zip(high).take(machines / 8).collect();
        let burner_machines = (0..machines / 8).map(|b| 8 * b + rng.below(8)).collect();
        let rallies_per_player = scale.pick(rallies, 6);
        IdleScale {
            seed,
            machines,
            shards,
            pairs,
            burner_machines,
            rallies_per_player,
            burner_iterations: scale.pick(rallies_per_player * 3 / 2, 6),
        }
    }

    fn build(&self, spans: &mut Spans) -> (Cluster, Vec<(MachineId, ProcessId)>) {
        let mut cluster = spans.scope("sim.build", |_| {
            ClusterBuilder::new(self.machines)
                .seed(self.seed)
                .no_trace()
                .recorder_capacity(0)
                .shards(self.shards)
                .build()
        });
        let players = spans.scope("sim.spawn", |_| {
            let mut players = Vec::new();
            for (k, &(a, b)) in self.pairs.iter().enumerate() {
                // 64 different rally periods, so the pairs drift apart
                // instead of rallying in lockstep for the whole run.
                let state = PingPong::state(self.rallies_per_player, 50 + (k % 64) as u32);
                let mut spawn = |at: usize| {
                    cluster
                        .spawn(m(at), "pingpong", &state, ImageLayout::default())
                        .expect("spawn pingpong")
                };
                let (pa, pb) = (spawn(a), spawn(b));
                let la = cluster.link_to(pa).expect("player exists");
                let lb = cluster.link_to(pb).expect("player exists");
                // Payload byte 1: this side serves the first ball.
                cluster
                    .post(pa, wl::INIT, vec![1u8], vec![lb])
                    .expect("post INIT");
                cluster
                    .post(pb, wl::INIT, vec![0u8], vec![la])
                    .expect("post INIT");
                players.extend([(m(a), pa), (m(b), pb)]);
            }
            for (k, &at) in self.burner_machines.iter().enumerate() {
                let state = CpuBurner::state(self.burner_iterations, 120, 900 + (k % 64) as u32);
                cluster
                    .spawn(m(at), "cpu_burner", &state, ImageLayout::default())
                    .expect("spawn cpu_burner");
            }
            players
        });
        spans.scope("sim.warmup", |_| cluster.run_for(Duration::from_millis(2)));
        (cluster, players)
    }
}

fn rallies(cluster: &Cluster, players: &[(MachineId, ProcessId)]) -> u64 {
    players
        .iter()
        .filter_map(|&(machine, pid)| {
            let p = cluster.node(machine).kernel.process(pid)?;
            Some(pingpong_rallies(&p.program.as_ref()?.save()))
        })
        .sum()
}

impl Workload for IdleScale {
    fn rep(&self, probe: &mut Probe) -> Outcome {
        let (mut cluster, players) = probe.setup(|spans| self.build(spans));
        let before = Totals::of(&cluster);
        let rallies_before = rallies(&cluster, &players);

        probe.timed(|spans| run_quiescent(&mut cluster, Duration::from_secs(60), spans));

        probe.post(|_| {
            let after = Totals::of(&cluster);
            let done = rallies(&cluster, &players);
            // The serving side stops one rally short: its partner reaches
            // the limit first and sends nothing back.
            let attempted = self.pairs.len() as u64 * (2 * self.rallies_per_player - 1);
            let mut out = Outcome {
                ops: done - rallies_before,
                attempted,
                failed: attempted - done.min(attempted),
                events: after.step.node_visits() - before.step.node_visits(),
                virt_us: after.now_us - before.now_us,
                ..Outcome::default()
            };
            if done != attempted {
                out.failures.push(format!(
                    "drain: {attempted} rallies expected, {done} played"
                ));
            }
            if after.kernel.exited != self.burner_machines.len() as u64 {
                out.failures.push(format!(
                    "{} burners were spawned but {} finished",
                    self.burner_machines.len(),
                    after.kernel.exited
                ));
            }
            match (self.shards, after.parallel_segments) {
                (1, 0) => {}
                (1, n) => out
                    .failures
                    .push(format!("bypass: sim.parallel_segments = {n}, must be 0")),
                (_, 0) => out
                    .failures
                    .push("bypass: sim.parallel_segments = 0, the sharded loop never ran".into()),
                _ => {}
            }
            let mut d = Digest::default();
            after.digest_into(&mut d);
            d.word(done);
            out.digest = d.finish();
            after.counters_into(&mut out.counters);
            out
        })
    }
}
