//! `forward_chase`: the delivery layer used the other way.
//!
//! 16 machines, 8 small-image `echo_server`s and 32 `client`s (two per
//! machine, four per server). Every 10 virtual ms the harness re-migrates
//! every server to a seeded machine, so the clients' links keep going
//! stale: requests chase the servers through forwarding addresses, each
//! forward sends a link update back, and requests that arrive while a
//! server is frozen are held and forwarded in step 6.
//!
//! Open loop in virtual time, one request per client every 2 virtual ms.
//! A client machine spends 2 × 500 × 200 µs = 20 % of its CPU on its
//! clients and up to 4 × 500 × 100 µs = 20 % on a visiting server, plus
//! the forwards; well below the 60 % ceiling.

use demos_kernel::ImageLayout;
use demos_sim::programs::{Client, EchoServer};
use demos_sim::{Cluster, ClusterBuilder};
use demos_types::{Duration, MachineId, ProcessId};

use super::{client_totals, m, run_for, run_quiescent, start_staggered, Scale, Totals};
use crate::digest::Digest;
use crate::harness::{Outcome, Probe, Workload};
use crate::rng::Rng;
use crate::spans::Spans;

const MACHINES: usize = 16;
const SERVERS: usize = 8;
const CLIENTS: usize = 32;
const PERIOD_US: u32 = 2_000;
const HOP_EVERY_US: u64 = 10_000;
/// A server that is cheap to move: the chase, not the transfer, is the
/// point of this workload.
const SERVER_LAYOUT: ImageLayout = ImageLayout {
    code: 1024,
    data: 512,
    stack: 512,
};

/// The generated inputs of one `forward_chase` run.
pub struct ForwardChase {
    seed: u64,
    /// Which server each client is bound to.
    binding: Vec<usize>,
    /// `hops[k][s]`: where the `k`-th round sends server `s`.
    hops: Vec<Vec<usize>>,
    requests_per_client: u64,
}

impl ForwardChase {
    /// Draw bindings and routes from `seed`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::new(seed, 0x6368_6173);
        let requests_per_client = scale.pick(1_250, 25);
        // Four clients per server for every seed; the seed decides which.
        let mut binding: Vec<usize> = (0..CLIENTS).map(|c| c % SERVERS).collect();
        rng.shuffle(&mut binding);
        let rounds = (requests_per_client * u64::from(PERIOD_US)).div_ceil(HOP_EVERY_US) + 1;
        let mut at: Vec<usize> = (0..SERVERS).map(|s| 2 * s).collect();
        let hops = (0..rounds)
            .map(|_| {
                at.iter_mut()
                    .map(|cur| {
                        *cur = (*cur + 1 + rng.below(MACHINES - 1)) % MACHINES;
                        *cur
                    })
                    .collect()
            })
            .collect();
        ForwardChase {
            seed,
            binding,
            hops,
            requests_per_client,
        }
    }

    #[allow(clippy::type_complexity)]
    fn build(&self, spans: &mut Spans) -> (Cluster, Vec<ProcessId>, Vec<(MachineId, ProcessId)>) {
        let mut cluster = spans.scope("sim.build", |_| {
            ClusterBuilder::new(MACHINES)
                .seed(self.seed)
                .no_trace()
                .build()
        });
        let (servers, clients) = spans.scope("sim.spawn", |_| {
            let servers: Vec<ProcessId> = (0..SERVERS)
                .map(|s| {
                    cluster
                        .spawn(
                            m(2 * s),
                            "echo_server",
                            &EchoServer::state(0),
                            SERVER_LAYOUT,
                        )
                        .expect("spawn echo_server")
                })
                .collect();
            let clients: Vec<(MachineId, ProcessId)> = (0..CLIENTS)
                .map(|c| {
                    let machine = m(c % MACHINES);
                    let state = Client::state(self.requests_per_client, PERIOD_US, 32);
                    let pid = cluster
                        .spawn(machine, "client", &state, ImageLayout::default())
                        .expect("spawn client");
                    (machine, pid)
                })
                .collect();
            // The binding is already a seeded shuffle, so index order is
            // a seeded start order.
            let starts = (0..CLIENTS).map(|c| (clients[c].1, servers[self.binding[c]]));
            start_staggered(&mut cluster, starts, PERIOD_US);
            (servers, clients)
        });
        spans.scope("sim.warmup", |_| {
            cluster.run_for(Duration::from_micros(2 * u64::from(PERIOD_US)))
        });
        (cluster, servers, clients)
    }
}

impl Workload for ForwardChase {
    fn rep(&self, probe: &mut Probe) -> Outcome {
        let (mut cluster, servers, clients) = probe.setup(|spans| self.build(spans));
        let before = Totals::of(&cluster);
        let answered_before = client_totals(&cluster, &clients)[1];

        let mut refused = 0u64;
        probe.timed(|spans| {
            for round in &self.hops {
                for (&pid, &dest) in servers.iter().zip(round) {
                    let ordered = spans.scope("core.migrate", |_| cluster.migrate(pid, m(dest)));
                    refused += u64::from(ordered.is_err());
                }
                run_for(&mut cluster, Duration::from_micros(HOP_EVERY_US), spans);
            }
            run_quiescent(&mut cluster, Duration::from_secs(60), spans);
        });

        probe.post(|_| {
            let after = Totals::of(&cluster);
            let [sent, recv, rtt_sum, rtt_max] = client_totals(&cluster, &clients);
            let attempted = self.requests_per_client * CLIENTS as u64;
            let mut out = Outcome {
                ops: recv - answered_before,
                attempted,
                failed: attempted - recv.min(attempted),
                events: after.step.node_visits() - before.step.node_visits(),
                virt_us: after.now_us - before.now_us,
                ..Outcome::default()
            };
            if sent != attempted || recv != sent {
                out.failures.push(format!(
                    "drain: {attempted} requests budgeted, {sent} sent, {recv} answered"
                ));
            }
            let orders = (self.hops.len() * SERVERS) as u64;
            if refused != 0 || after.core.completed_in != orders {
                out.failures.push(format!(
                    "{refused} of {orders} migration orders were refused, {} completed",
                    after.core.completed_in
                ));
            }
            let last = self.hops.last().expect("at least one round");
            if servers
                .iter()
                .zip(last)
                .any(|(&pid, &dest)| cluster.where_is(pid) != Some(m(dest)))
            {
                out.failures
                    .push("a server is not where its last migration sent it".into());
            }
            if after.kernel.forwarded == 0 || after.kernel.links_patched == 0 {
                out.failures.push(format!(
                    "bypass: kernel.forwarded = {}, kernel.links_patched = {} (both must be > 0)",
                    after.kernel.forwarded, after.kernel.links_patched
                ));
            }
            let mut d = Digest::default();
            after.digest_into(&mut d);
            d.words([sent, recv, rtt_sum, rtt_max]);
            out.digest = d.finish();
            after.counters_into(&mut out.counters);
            out
        })
    }
}
