//! `msg_mesh`: the delivery fast path and nothing else.
//!
//! 16 machines on a lossless full mesh; each hosts one `echo_server` and
//! four `client`s, and every client is bound to a server on another
//! machine, so every request and every reply crosses the network once.
//! Nothing migrates: `core`, move-data and forwarding must stay idle,
//! which the bypass check asserts.
//!
//! Open loop in virtual time: each client sends one request every
//! 2.5 virtual ms whether or not the last was answered. A request costs
//! three activations of 100 virtual µs (send tick, serve, receive reply)
//! and each machine carries 4 clients plus 4 clients' worth of serving,
//! so a CPU is 12 × 400 × 100 µs = 48 % busy — below the 60 % ceiling, so
//! the drain at the end answers everything that was sent.

use demos_kernel::ImageLayout;
use demos_sim::programs::{Client, EchoServer};
use demos_sim::{Cluster, ClusterBuilder};
use demos_types::{Duration, MachineId, ProcessId};

use super::{client_totals, m, run_for, run_quiescent, start_staggered, Scale, Totals};
use crate::digest::Digest;
use crate::harness::{Outcome, Probe, Workload};
use crate::rng::{stratified, Rng};
use crate::spans::Spans;

const MACHINES: usize = 16;
const CLIENTS_PER_MACHINE: usize = 4;
const PERIOD_US: u32 = 2_500;

/// One client's generated inputs.
#[derive(Clone, Copy, Debug)]
struct ClientSpec {
    machine: usize,
    server_machine: usize,
    payload: u32,
}

/// The generated inputs of one `msg_mesh` run.
pub struct MsgMesh {
    seed: u64,
    clients: Vec<ClientSpec>,
    /// The order the clients start in, one 1/64th of a period apart.
    start_order: Vec<usize>,
    requests_per_client: u64,
}

impl MsgMesh {
    /// Draw bindings and payload sizes from `seed`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::new(seed, 0x6d65_7368);
        // One derangement per client slot: every server ends up with
        // exactly four clients, none of them on its own machine, so the
        // CPU sizing above holds for every seed.
        let bindings: Vec<Vec<usize>> = (0..CLIENTS_PER_MACHINE)
            .map(|_| rng.derangement(MACHINES))
            .collect();
        // The same multiset of payload sizes for every seed (22 × 16 B,
        // 21 × 64 B, 21 × 1024 B); the seed decides who gets which.
        let payloads = stratified(&mut rng, &[16u32, 64, 1024], &[22, 21, 21]);
        let clients = (0..MACHINES * CLIENTS_PER_MACHINE)
            .map(|i| ClientSpec {
                machine: i / CLIENTS_PER_MACHINE,
                server_machine: bindings[i % CLIENTS_PER_MACHINE][i / CLIENTS_PER_MACHINE],
                payload: payloads[i],
            })
            .collect();
        let mut start_order: Vec<usize> = (0..MACHINES * CLIENTS_PER_MACHINE).collect();
        rng.shuffle(&mut start_order);
        MsgMesh {
            seed,
            clients,
            start_order,
            requests_per_client: scale.pick(1_600, 20),
        }
    }

    fn build(&self, spans: &mut Spans) -> (Cluster, Vec<(MachineId, ProcessId)>) {
        let mut cluster = spans.scope("sim.build", |_| {
            ClusterBuilder::new(MACHINES)
                .seed(self.seed)
                .no_trace()
                .build()
        });
        let clients = spans.scope("sim.spawn", |_| {
            let servers: Vec<ProcessId> = (0..MACHINES)
                .map(|i| {
                    cluster
                        .spawn(
                            m(i),
                            "echo_server",
                            &EchoServer::state(0),
                            ImageLayout::default(),
                        )
                        .expect("spawn echo_server")
                })
                .collect();
            let clients: Vec<(MachineId, ProcessId)> = self
                .clients
                .iter()
                .map(|c| {
                    let state = Client::state(self.requests_per_client, PERIOD_US, c.payload);
                    let pid = cluster
                        .spawn(m(c.machine), "client", &state, ImageLayout::default())
                        .expect("spawn client");
                    (m(c.machine), pid)
                })
                .collect();
            let starts = self.start_order.iter().map(|&i| {
                let server = servers[self.clients[i].server_machine];
                (clients[i].1, server)
            });
            start_staggered(&mut cluster, starts, PERIOD_US);
            clients
        });
        // Warm-up: INITs delivered, first requests answered, every
        // channel pair has exchanged frames.
        spans.scope("sim.warmup", |_| {
            cluster.run_for(Duration::from_micros(2 * u64::from(PERIOD_US)))
        });
        (cluster, clients)
    }
}

impl Workload for MsgMesh {
    fn rep(&self, probe: &mut Probe) -> Outcome {
        let (mut cluster, clients) = probe.setup(|spans| self.build(spans));
        let before = Totals::of(&cluster);
        let answered_before = client_totals(&cluster, &clients)[1];

        probe.timed(|spans| {
            // Slices only so the trace shows progress; the fixed work is
            // "every client sends its budget and every reply arrives".
            let span_us = self.requests_per_client * u64::from(PERIOD_US);
            for _ in 0..4 {
                run_for(&mut cluster, Duration::from_micros(span_us / 4), spans);
            }
            run_quiescent(&mut cluster, Duration::from_secs(60), spans);
        });

        probe.post(|_| {
            let after = Totals::of(&cluster);
            let [sent, recv, rtt_sum, rtt_max] = client_totals(&cluster, &clients);
            let attempted = self.requests_per_client * clients.len() as u64;
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
            if after.kernel.forwarded != 0 || after.core.started != 0 {
                out.failures.push(format!(
                    "bypass: kernel.forwarded = {}, core.started = {} (both must be 0)",
                    after.kernel.forwarded, after.core.started
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
