//! Kits: each layer's public functions, timed directly from outside.
//!
//! A kit drives one layer the way the layers above it do — `Endpoint`s
//! over a loopback `Phys`, `Kernel`s over a frame pump, a two-machine
//! `Cluster` for a migration — on inputs shaped like the workloads', and
//! reports a unit cost: the median over batches of at least 0.2 s of
//! calls in all. Kits say what a layer costs in isolation; the workload
//! counters say how often a workload pays it.

use std::sync::Arc;

use bytes::Bytes;
use demos_chaos::{run, trace_json_lines, RunConfig, Scenario};
use demos_core::{AcceptPolicy, MigrationConfig};
use demos_kernel::{ImageLayout, Kernel, KernelConfig, MdAction, MoveData, MoveDataConfig, Outbox};
use demos_kernel::{ProcessImage, PullPurpose};
use demos_net::{ChannelConfig, EdgeParams, Endpoint, Frame, Phys, SimNetwork, Topology};
use demos_obs::recorder::{merge, parse_dump};
use demos_obs::{FlightRecorder, Histogram, PhaseTable, Record};
use demos_policy::{Hysteresis, LoadBalance, Policy};
use demos_sim::programs::{self, wl, Cargo, Client, CpuBurner, EchoServer, PingPong};
use demos_sim::{boot_system, snapshot, spans_of, BootConfig, Cluster, ClusterBuilder};
use demos_sysproc::{FsClient, FsMsg};
use demos_types::proto::{AreaSel, LinkMaintMsg, MigrateMsg};
use demos_types::{
    tags, CorrId, Duration, Link, MachineId, Message, MsgFlags, MsgHeader, ProcessAddress,
    ProcessId, Time, Wire,
};
use std::hint::black_box;

use crate::clock::{now_ns, secs_between};
use crate::harness::{timed_pass, Budget};
use crate::stats::median;
use crate::workloads::fault_sweep::{corpus_dir, corpus_files, load_corpus_scenario};
use crate::workloads::idle_scale::IdleScale;
use crate::workloads::{m, Scale};

/// How long kits measure.
#[derive(Clone, Copy)]
struct Timer {
    /// Seconds per batch of calls.
    batch_s: f64,
    /// Batches (samples) per kit.
    batches: usize,
}

impl Timer {
    fn of(scale: Scale) -> Timer {
        match scale {
            Scale::Full => Timer {
                batch_s: 0.02,
                batches: 10,
            },
            Scale::Quick => Timer {
                batch_s: 0.0,
                batches: 1,
            },
        }
    }

    /// Median nanoseconds per call of `f`, over batches sized to last
    /// `batch_s` each.
    fn ns_per_call(self, mut f: impl FnMut()) -> f64 {
        let mut time_calls = |calls: u64| {
            let t0 = now_ns();
            for _ in 0..calls {
                f();
            }
            (now_ns() - t0).max(1) as f64
        };
        // Calibrate: double until a batch is long enough to scale from.
        let mut calls = 1u64;
        let mut ns = time_calls(calls);
        while ns < self.batch_s * 1e9 / 4.0 {
            calls *= 2;
            ns = time_calls(calls);
        }
        let calls = ((calls as f64 * self.batch_s * 1e9 / ns).ceil() as u64).max(1);
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| time_calls(calls) / calls as f64)
            .collect();
        median(&samples).expect("at least one batch")
    }

    /// Median of `samples()` taken `n` times (at least once; once when
    /// quick): for kits that time a region inside a larger call.
    fn median_of(self, n: usize, mut sample: impl FnMut() -> f64) -> f64 {
        let n = if self.batch_s == 0.0 { 1 } else { n.max(1) };
        let samples: Vec<f64> = (0..n).map(|_| sample()).collect();
        median(&samples).expect("at least one sample")
    }
}

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = now_ns();
    f();
    secs_between(t0, now_ns()).max(1e-9)
}

// ----------------------------------------------------------------------
// types
// ----------------------------------------------------------------------

fn user_pid(machine: usize, uid: u32) -> ProcessId {
    ProcessId {
        creating_machine: m(machine),
        local_uid: uid,
    }
}

/// A user message as the workloads' clients send them: no carried links.
fn user_message(src: ProcessId, from: usize, dest: ProcessAddress, payload: usize) -> Message {
    Message {
        header: MsgHeader {
            dest,
            src,
            src_machine: m(from),
            msg_type: wl::REQ,
            flags: MsgFlags::NONE,
            hops: 0,
        },
        links: Vec::new(),
        payload: Bytes::from(vec![0xA5u8; payload]),
        corr: CorrId::NONE,
    }
}

fn types_kits(t: Timer, out: &mut Vec<(&'static str, f64)>) {
    for (payload, enc, dec) in [
        (64, "types.encode_ns_64b", "types.decode_ns_64b"),
        (1024, "types.encode_ns_1k", "types.decode_ns_1k"),
    ] {
        let msg = user_message(user_pid(1, 7), 1, user_pid(1, 7).at(m(2)), payload);
        out.push((enc, t.ns_per_call(|| drop(black_box(msg.to_bytes())))));
        let bytes = msg.to_bytes();
        out.push((
            dec,
            t.ns_per_call(|| drop(black_box(Message::from_bytes(&bytes).expect("decodes")))),
        ));
    }
    let offer = MigrateMsg::Offer {
        ctx: 1,
        pid: user_pid(0, 3),
        resident_len: 250,
        swappable_len: 600,
        image_len: 65_536,
    };
    out.push((
        "types.migrate_msg_codec_ns",
        t.ns_per_call(|| {
            let bytes = offer.to_bytes();
            black_box(MigrateMsg::from_bytes(&bytes).expect("decodes"));
        }),
    ));
}

// ----------------------------------------------------------------------
// net
// ----------------------------------------------------------------------

/// In-memory physical layer: frames queue per destination; optionally
/// every `drop_every`-th data frame is lost.
struct Loopback {
    queues: Vec<Vec<(MachineId, Frame)>>,
    drop_every: u64,
    data_frames: u64,
}

impl Loopback {
    fn new(machines: usize, drop_every: u64) -> Self {
        Loopback {
            queues: (0..machines).map(|_| Vec::new()).collect(),
            drop_every,
            data_frames: 0,
        }
    }

    fn take(&mut self, machine: usize) -> Vec<(MachineId, Frame)> {
        std::mem::take(&mut self.queues[machine])
    }
}

impl Phys for Loopback {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        if !frame.is_ack() {
            self.data_frames += 1;
            if self.drop_every != 0 && self.data_frames.is_multiple_of(self.drop_every) {
                return;
            }
        }
        self.queues[dst.0 as usize].push((src, frame));
    }
}

/// Pump `n` 64-byte messages from endpoint 0 to endpoint 1 with at most
/// 32 in flight; returns the sender's retransmission count. When loss
/// stalls the pipe, virtual time jumps to the sender's retransmission
/// deadline and `on_timeout` resends.
fn pump_channel(n: usize, drop_every: u64) -> u64 {
    let mut a = Endpoint::new(m(0), ChannelConfig::default());
    let mut b = Endpoint::new(m(1), ChannelConfig::default());
    let mut phys = Loopback::new(2, drop_every);
    let msg = Bytes::from(vec![7u8; 64]);
    let mut now = Time::ZERO;
    let (mut sent, mut delivered) = (0usize, 0usize);
    while delivered < n {
        while sent < n && a.in_flight() < 32 {
            a.send(now, m(1), msg.clone(), CorrId::NONE, &mut phys);
            sent += 1;
        }
        let to_b = phys.take(1);
        let stalled = to_b.is_empty();
        for (src, f) in to_b {
            delivered += b.on_frame(now, src, f, &mut phys).len();
        }
        for (src, f) in phys.take(0) {
            a.on_frame(now, src, f, &mut phys);
        }
        // As the kernel does after every event: consult the indexed
        // deadline, which also discards its stale entries.
        let deadline = a.next_timeout_indexed();
        if stalled {
            now = deadline.expect("unacked frames have a deadline");
            a.on_timeout(now, &mut phys);
        }
    }
    a.retransmits()
}

fn net_kits(t: Timer, out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 1_000;
    out.push((
        "net.channel_ns_per_msg",
        t.ns_per_call(|| {
            black_box(pump_channel(N, 0));
        }) / N as f64,
    ));
    out.push((
        "net.channel_ns_per_msg_lossy",
        t.ns_per_call(|| {
            black_box(pump_channel(N, 10));
        }) / N as f64,
    ));
    out.push((
        "net.channel_retx_per_msg_lossy",
        pump_channel(N, 10) as f64 / N as f64,
    ));

    let mut net = SimNetwork::new(Topology::full_mesh(16, EdgeParams::default()), 7);
    let payload = Bytes::from(vec![7u8; 64]);
    let mut now = Time::ZERO;
    out.push((
        "net.simnet_ns_per_frame",
        t.ns_per_call(|| {
            for i in 0..N {
                let frame = Frame::data(i as u64, payload.clone());
                net.transmit(now, m(i % 16), m((i + 1 + i / 16) % 16), frame);
            }
            now += Duration::from_secs(1);
            while let Some(arrival) = net.pop_due(now) {
                black_box(arrival);
            }
        }) / N as f64,
    ));
}

// ----------------------------------------------------------------------
// kernel
// ----------------------------------------------------------------------

/// Kernels over a [`Loopback`], pumped until no frame is in flight.
struct Pump {
    kernels: Vec<Kernel>,
    phys: Loopback,
    out: Outbox,
}

impl Pump {
    fn new(machines: usize) -> Self {
        let registry = programs::registry().into_shared();
        Pump {
            kernels: (0..machines)
                .map(|i| Kernel::new(m(i), KernelConfig::default(), Arc::clone(&registry)))
                .collect(),
            phys: Loopback::new(machines, 0),
            out: Outbox::default(),
        }
    }

    fn spawn_cargo(&mut self, machine: usize) -> ProcessId {
        self.kernels[machine]
            .spawn(
                Time::ZERO,
                "cargo",
                &Cargo::state(64),
                ImageLayout::default(),
                false,
                &mut self.out,
            )
            .expect("spawn cargo")
    }

    fn submit(&mut self, machine: usize, msg: Message) {
        self.kernels[machine].submit(Time::ZERO, msg, &mut self.phys, &mut self.out);
    }

    /// Deliver frames and run activations until everything is idle, the
    /// way the event loop does: frame → `on_frame`, runnable → `run_next`,
    /// then the indexed deadline lookup that follows every event.
    fn settle(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.kernels.len() {
                for (src, frame) in self.phys.take(i) {
                    self.kernels[i].on_frame(Time::ZERO, src, frame, &mut self.phys, &mut self.out);
                    progressed = true;
                }
                while self.kernels[i]
                    .run_next(Time::ZERO, &mut self.phys, &mut self.out)
                    .is_some()
                {
                    progressed = true;
                }
                black_box(self.kernels[i].next_deadline());
            }
            self.out.trace.clear();
            if !progressed {
                return;
            }
        }
    }
}

fn kernel_kits(t: Timer, out: &mut Vec<(&'static str, f64)>) {
    // Local: sender and receiver on one machine.
    let mut p = Pump::new(1);
    let (sender, receiver) = (p.spawn_cargo(0), p.spawn_cargo(0));
    let msg = user_message(sender, 0, receiver.at(m(0)), 64);
    out.push((
        "kernel.local_deliver_ns",
        t.ns_per_call(|| {
            p.submit(0, msg.clone());
            p.settle();
        }),
    ));

    // Remote: one network crossing, data frame there and ack back.
    let mut p = Pump::new(2);
    let (sender, receiver) = (p.spawn_cargo(0), p.spawn_cargo(1));
    let msg = user_message(sender, 0, receiver.at(m(1)), 64);
    out.push((
        "kernel.remote_deliver_ns",
        t.ns_per_call(|| {
            p.submit(0, msg.clone());
            p.settle();
        }),
    ));

    // Forwarded: the message is addressed to machine 1, which holds only
    // a forwarding address for the receiver on machine 2; machine 1
    // resubmits it and sends a link update back to the sender's kernel.
    let mut p = Pump::new(3);
    let (sender, receiver) = (p.spawn_cargo(0), p.spawn_cargo(2));
    p.kernels[1].install_forwarding(receiver, m(2), &mut p.out);
    let msg = user_message(sender, 0, receiver.at(m(1)), 64);
    out.push((
        "kernel.forward_hop_ns",
        t.ns_per_call(|| {
            p.submit(0, msg.clone());
            p.settle();
        }),
    ));
    assert!(
        p.kernels[1].stats().forwarded > 0,
        "the forwarding kit forwards"
    );

    // Link update: the sender holds eight links to a process that keeps
    // moving between machines 2 and 3, so every update patches all eight.
    let mut p = Pump::new(1);
    let holder = p.spawn_cargo(0);
    let migrated = user_pid(1, 7);
    for _ in 0..8 {
        p.kernels[0]
            .install_link(holder, Link::to(migrated.at(m(1))))
            .expect("install link");
    }
    let update = |to: usize| Message {
        header: MsgHeader {
            dest: ProcessAddress::kernel_of(m(0)),
            src: ProcessId::kernel_of(m(1)),
            src_machine: m(1),
            msg_type: tags::LINK_MAINT,
            flags: MsgFlags::FROM_KERNEL,
            hops: 0,
        },
        links: Vec::new(),
        payload: LinkMaintMsg::LinkUpdate {
            sender: holder,
            migrated,
            new_machine: m(to),
        }
        .to_bytes(),
        corr: CorrId::NONE,
    };
    let updates = [update(2), update(3)];
    let mut turn = 0usize;
    out.push((
        "kernel.link_update_ns",
        t.ns_per_call(|| {
            p.submit(0, updates[turn % 2].clone());
            p.out.trace.clear();
            turn += 1;
        }),
    ));
    assert_eq!(
        p.kernels[0].stats().links_patched,
        8 * turn as u64,
        "every update patches every link"
    );

    // Move-data: one 512 KiB kernel pull, reader and server engines wired
    // back to back (data packets one way, acknowledgements the other).
    const LEN: usize = 512 * 1024;
    let data = Bytes::from(vec![0x5Au8; LEN]);
    let ns = t.ns_per_call(|| {
        let mut reader = MoveData::new(MoveDataConfig::default());
        let mut server = MoveData::new(MoveDataConfig::default());
        let purpose = PullPurpose::Kernel { cookie: 1 };
        let (op, _request) = reader.start_pull(purpose, migrated, AreaSel::Image, 0, 0);
        let mut to_reader = server.begin_serve(op, m(0), data.clone());
        let mut done = false;
        while !to_reader.is_empty() {
            let mut to_server = Vec::new();
            for action in to_reader.drain(..) {
                if let MdAction::Send { msg, .. } = action {
                    to_server.extend(reader.on_msg(m(1), msg));
                }
            }
            for action in to_server {
                if let MdAction::Send { msg, .. } = action {
                    to_reader.extend(server.on_msg(m(0), msg));
                } else if let MdAction::PullDone { data, status, .. } = action {
                    assert!(status == 0 && data.len() == LEN, "the pull completes");
                    done = true;
                }
            }
        }
        assert!(done, "the pull completes");
    });
    out.push((
        "kernel.movedata_mib_per_s",
        (LEN as f64 / (1u64 << 20) as f64) / (ns / 1e9),
    ));

    // Image flatten + install, per KiB of a 64 KiB image.
    let layout = ImageLayout {
        code: 64 * 1024,
        data: 2048,
        stack: 1024,
    };
    let image = ProcessImage::build("cargo", &Cargo::state(64), layout);
    let kib = image.total_len() as f64 / 1024.0;
    out.push((
        "kernel.image_flat_ns_per_kib",
        t.ns_per_call(|| {
            let flat = image.to_flat();
            black_box(ProcessImage::from_flat(&flat).expect("round trips"));
        }) / kib,
    ));
}

// ----------------------------------------------------------------------
// core
// ----------------------------------------------------------------------

fn cargo_cluster(code_kib: u32, accept: AcceptPolicy) -> (Cluster, ProcessId) {
    let mut cluster = ClusterBuilder::new(2)
        .no_trace()
        .migration_config(MigrationConfig {
            accept,
            ..MigrationConfig::default()
        })
        .build();
    let layout = ImageLayout {
        code: code_kib * 1024,
        data: 2048,
        stack: 1024,
    };
    let pid = cluster
        .spawn(m(0), "cargo", &Cargo::state(64), layout)
        .expect("spawn cargo");
    cluster.run_for(Duration::from_millis(5));
    (cluster, pid)
}

fn core_kits(t: Timer, out: &mut Vec<(&'static str, f64)>) {
    for (kib, name) in [
        (4, "core.migration_host_us_4k"),
        (64, "core.migration_host_us_64k"),
        (512, "core.migration_host_us_512k"),
    ] {
        // One process bounced between the two machines.
        let (mut cluster, pid) = cargo_cluster(kib, AcceptPolicy::Always);
        let mut at = 0usize;
        out.push((
            name,
            t.ns_per_call(|| {
                at = 1 - at;
                cluster.migrate(pid, m(at)).expect("migration starts");
                cluster.run_quiescent(Duration::from_secs(5));
            }) / 1e3,
        ));
        assert_eq!(
            cluster.where_is(pid),
            Some(m(at)),
            "the migrations complete"
        );
    }
    let (mut cluster, pid) = cargo_cluster(4, AcceptPolicy::Never);
    out.push((
        "core.reject_host_us",
        t.ns_per_call(|| {
            cluster.migrate(pid, m(1)).expect("offer is sent");
            cluster.run_quiescent(Duration::from_secs(5));
        }) / 1e3,
    ));
    assert_eq!(cluster.where_is(pid), Some(m(0)), "every offer is rejected");
    assert!(cluster.node(m(1)).engine.stats().rejected > 0);
}

// ----------------------------------------------------------------------
// sysproc
// ----------------------------------------------------------------------

fn sysproc_kits(t: Timer, scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let write = FsMsg::Write {
        fid: 3,
        off: 256,
        bytes: Bytes::from(vec![9u8; 128]),
    };
    out.push((
        "sysproc.proto_codec_ns",
        t.ns_per_call(|| {
            let bytes = write.to_bytes();
            black_box(FsMsg::from_bytes(&bytes).expect("decodes"));
        }),
    ));

    // Host time of one fs operation, whole simulator included: one client
    // on machine 1, the file system on machine 0, run to completion.
    let ops = scale.pick(200, 4);
    out.push((
        "sysproc.fs_op_host_ns",
        t.median_of(5, || {
            let mut cluster = ClusterBuilder::new(2).no_trace().build();
            let handles = boot_system(&mut cluster, BootConfig::default()).expect("boot");
            let state = FsClient::state(1, 2, ops, 1_000, 128, 50);
            let pid = cluster
                .spawn(m(1), FsClient::NAME, &state, ImageLayout::default())
                .expect("spawn fs_client");
            let server = cluster.link_to(handles.fs_file).expect("file server");
            cluster
                .post(pid, wl::INIT, Vec::new(), vec![server])
                .expect("post INIT");
            secs(|| {
                cluster.run_quiescent(Duration::from_secs(60));
            }) * 1e9
                / ops as f64
        }),
    ));

    out.push((
        "sysproc.boot_host_us",
        t.median_of(20, || {
            let mut cluster = ClusterBuilder::new(4).no_trace().build();
            secs(|| drop(black_box(boot_system(&mut cluster, BootConfig::default())))) * 1e6
        }),
    ));
}

// ----------------------------------------------------------------------
// policy (and the snapshot it decides on)
// ----------------------------------------------------------------------

fn policy_kits(t: Timer, out: &mut Vec<(&'static str, f64)>) {
    // 64 machines, three burners on each of four of them: the shape of a
    // `sysproc_ref` tick just after a wave lands.
    let mut cluster = ClusterBuilder::new(64).no_trace().build();
    for hot in [5, 21, 37, 53] {
        for _ in 0..3 {
            cluster
                .spawn(
                    m(hot),
                    "cpu_burner",
                    &CpuBurner::state(0, 900, 1_000),
                    ImageLayout::default(),
                )
                .expect("spawn cpu_burner");
        }
    }
    cluster.run_for(Duration::from_millis(5));
    let prev_busy = vec![Duration::ZERO; 64];
    let window = Duration::from_millis(5);
    out.push((
        "sim.snapshot_ns_64m",
        t.ns_per_call(|| drop(black_box(snapshot(&cluster, &prev_busy, window)))),
    ));
    let view = snapshot(&cluster, &prev_busy, window);
    // Hysteresis off, so every call does the whole decision.
    let mut policy = LoadBalance::new(1, Hysteresis::off());
    out.push((
        "policy.decide_ns_64m",
        t.ns_per_call(|| drop(black_box(policy.decide(&view)))),
    ));
}

// ----------------------------------------------------------------------
// sim
// ----------------------------------------------------------------------

/// `perf_baseline`'s mostly idle cluster: two message pairs and two timer
/// jobs on a handful of machines, the rest idle.
fn idle_cluster(machines: usize) -> Cluster {
    let mut cluster = ClusterBuilder::new(machines).seed(7).no_trace().build();
    for (a, b) in [(0, 1), (machines / 2, machines / 2 + 1)] {
        let state = PingPong::state(0, 50);
        let pa = cluster
            .spawn(m(a), "pingpong", &state, ImageLayout::default())
            .expect("spawn pingpong");
        let pb = cluster
            .spawn(m(b), "pingpong", &state, ImageLayout::default())
            .expect("spawn pingpong");
        let (la, lb) = (
            cluster.link_to(pa).expect("exists"),
            cluster.link_to(pb).expect("exists"),
        );
        cluster
            .post(pa, wl::INIT, vec![1u8], vec![lb])
            .expect("post INIT");
        cluster
            .post(pb, wl::INIT, vec![0u8], vec![la])
            .expect("post INIT");
    }
    for k in 0..2 {
        cluster
            .spawn(
                m(k),
                "cpu_burner",
                &CpuBurner::state(0, 10, 100),
                ImageLayout::default(),
            )
            .expect("spawn cpu_burner");
    }
    cluster.run_for(Duration::from_millis(5));
    cluster
}

/// A small echo mesh (8 machines, a server and two clients each, one
/// migration half way) run to completion; returns the cluster and the
/// seconds the run took.
fn small_mesh(trace: bool, recorder: Option<usize>, requests: u64) -> (Cluster, f64) {
    let mut builder = ClusterBuilder::new(8).seed(7);
    if !trace {
        builder = builder.no_trace();
    }
    if let Some(capacity) = recorder {
        builder = builder.recorder_capacity(capacity);
    }
    let mut cluster = builder.build();
    let servers: Vec<ProcessId> = (0..8)
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
    for c in 0..16 {
        let pid = cluster
            .spawn(
                m(c % 8),
                "client",
                &Client::state(requests, 2_500, 64),
                ImageLayout::default(),
            )
            .expect("spawn client");
        let link = cluster.link_to(servers[(c + 1) % 8]).expect("exists");
        cluster
            .post(pid, wl::INIT, Vec::new(), vec![link])
            .expect("post INIT");
    }
    let s = secs(|| {
        cluster.run_for(Duration::from_micros(requests * 1_250));
        cluster.migrate(servers[0], m(4)).expect("migration starts");
        cluster.run_quiescent(Duration::from_secs(60));
    });
    (cluster, s)
}

fn sim_kits(t: Timer, scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let mut cluster = idle_cluster(64);
    out.push((
        "sim.step_ns_idle_64m",
        t.ns_per_call(|| {
            black_box(cluster.step());
        }),
    ));
    out.push((
        "sim.build_ms_1024m",
        t.ns_per_call(|| {
            let c = ClusterBuilder::new(1024)
                .no_trace()
                .recorder_capacity(0)
                .build();
            drop(black_box(c));
        }) / 1e6,
    ));

    // On/off ratios: throughput with the instrument on over throughput
    // with it off, the two sides interleaved.
    let requests = scale.pick(400, 10);
    let ratio = |on: &dyn Fn() -> f64, off: &dyn Fn() -> f64| {
        let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
        for _ in 0..scale.pick(7, 1) {
            on_s.push(on());
            off_s.push(off());
        }
        median(&off_s).expect("sampled") / median(&on_s).expect("sampled")
    };
    out.push((
        "sim.trace_on_ratio",
        ratio(&|| small_mesh(true, None, requests).1, &|| {
            small_mesh(false, None, requests).1
        }),
    ));
    out.push((
        "sim.recorder_on_ratio",
        ratio(&|| small_mesh(false, None, requests).1, &|| {
            small_mesh(false, Some(0), requests).1
        }),
    ));

    let (traced, _) = small_mesh(true, None, requests);
    let records = traced.trace().len().max(1) as f64;
    out.push((
        "sim.spans_of_ns_per_record",
        t.ns_per_call(|| drop(black_box(spans_of(traced.trace())))) / records,
    ));
    out.push((
        "sim.export_ns_per_record",
        t.ns_per_call(|| drop(black_box(trace_json_lines(traced.trace())))) / records,
    ));

    // Shard speed-up: the `idle_scale` scenario, shortened, on one and on
    // two shard threads. Above 1 means sharding pays at that size.
    for (machines, rallies, name) in [
        (1024, 100, "sim.shard_speedup_s2_1024m"),
        (4096, 30, "sim.shard_speedup_s2_4096m"),
    ] {
        let timed_s = |shards: usize| {
            let w = IdleScale::generate(7, scale, machines, shards, rallies);
            let budget = Budget {
                seconds: 0.0,
                min_reps: scale.pick(3, 1) as usize,
                warmup_reps: 0,
            };
            let reps: Vec<f64> = timed_pass(&w, budget)
                .reps
                .iter()
                .map(|r| r.timed_s)
                .collect();
            median(&reps).expect("min_reps is at least 1")
        };
        out.push((name, timed_s(1) / timed_s(2)));
    }
}

// ----------------------------------------------------------------------
// obs
// ----------------------------------------------------------------------

fn obs_kits(t: Timer, scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let mut recorder = FlightRecorder::new(0, 4096);
    let mut at = 0u64;
    out.push((
        "obs.recorder_record_ns",
        t.ns_per_call(|| {
            at += 1;
            recorder.record(Record {
                at,
                a: at ^ 0x55,
                b: 7,
                c: 3,
                machine: 0,
                kind: 4,
                arg: 0,
            });
        }),
    ));
    black_box(recorder.len());

    let mut hist = Histogram::new();
    let mut v = 1u64;
    out.push((
        "obs.hist_record_ns",
        t.ns_per_call(|| {
            // A cheap LCG spreads values over many buckets.
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(v >> 40);
        }),
    ));
    black_box(hist.count());

    // A real dump: every machine's ring after a traced mesh run with a
    // migration in it.
    let (cluster, _) = small_mesh(false, None, scale.pick(400, 10));
    let dump = cluster.recorder_dump();
    let mib = dump.len() as f64 / (1u64 << 20) as f64;
    out.push((
        "obs.dump_parse_mib_per_s",
        mib / (t.ns_per_call(|| drop(black_box(parse_dump(&dump).expect("parses")))) / 1e9),
    ));
    let records = merge(&parse_dump(&dump).expect("parses"));
    out.push((
        "obs.phase_table_ns_per_record",
        t.ns_per_call(|| drop(black_box(PhaseTable::from_records(&records))))
            / records.len().max(1) as f64,
    ));
}

// ----------------------------------------------------------------------
// chaos
// ----------------------------------------------------------------------

fn chaos_kits(t: Timer, scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let mut k = 0u64;
    out.push((
        "chaos.generate_us",
        t.ns_per_call(|| {
            k = (k + 1) % 64;
            black_box(Scenario::generate(k));
        }) / 1e3,
    ));
    let set = scale.pick(16, 2);
    for (name, generate) in [
        (
            "chaos.exec_us_classic",
            Scenario::generate as fn(u64) -> Scenario,
        ),
        ("chaos.exec_us_recovery", Scenario::generate_recovery),
    ] {
        let scenarios: Vec<Scenario> = (0..set).map(generate).collect();
        out.push((
            name,
            t.median_of(3, || {
                secs(|| {
                    for sc in &scenarios {
                        assert!(run(sc, &RunConfig::default()).passed());
                    }
                }) * 1e6
                    / set as f64
            }),
        ));
    }
    let mut corpus: Vec<Scenario> = corpus_files(&corpus_dir())
        .iter()
        .map(|p| load_corpus_scenario(p))
        .collect();
    if scale == Scale::Quick {
        corpus.truncate(3);
    }
    out.push((
        "chaos.corpus_replay_s",
        t.median_of(3, || {
            secs(|| {
                for sc in &corpus {
                    assert!(run(sc, &RunConfig::default()).passed());
                }
            })
        }),
    ));
}

/// Run every kit; the result is in catalogue order.
pub fn run_all(scale: Scale) -> Vec<(&'static str, f64)> {
    let t = Timer::of(scale);
    let mut measured = Vec::new();
    types_kits(t, &mut measured);
    net_kits(t, &mut measured);
    kernel_kits(t, &mut measured);
    core_kits(t, &mut measured);
    sysproc_kits(t, scale, &mut measured);
    policy_kits(t, &mut measured);
    sim_kits(t, scale, &mut measured);
    obs_kits(t, scale, &mut measured);
    chaos_kits(t, scale, &mut measured);
    // Catalogue order, and a loud failure if a kit was forgotten.
    crate::catalog::KITS
        .iter()
        .map(|k| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == k.name)
                .unwrap_or_else(|| panic!("no kit measures {}", k.name))
                .1;
            (k.name, value)
        })
        .collect()
}
