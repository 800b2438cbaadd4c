//! Native-mode runtime.
//!
//! The original system ran in two modes: "DEMOS/MP is currently in
//! operation on a network of Z8000 microprocessors, as well as in
//! simulation mode on a DEC VAX running UNIX. … essentially the same
//! software runs on both systems" (§2). This crate is our analogue of the
//! native mode: each machine's [`demos_core::Node`] — the *same* kernel
//! and migration engine the deterministic simulator drives — runs on its
//! own OS thread, with crossbeam channels standing in for the
//! interconnect and wall-clock time for the virtual clock.
//!
//! Native mode trades the simulator's determinism for real concurrency:
//! frames genuinely race, threads genuinely interleave. The integration
//! tests run the same scenarios in both modes, which is exactly how the
//! original project shook out its bugs ("software can be built and tested
//! using UNIX and subsequently compiled and run in native mode").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A match over an enum names its variants, so a new variant is a compile
// error at every handler instead of a silent fall-through (D003).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use demos_core::{MigrationConfig, Node};
use demos_kernel::{ImageLayout, KernelConfig, KernelStats, Outbox, Registry};
use demos_net::{Frame, Phys};
use demos_types::{
    DemosError, Link, MachineId, Message, MsgFlags, MsgHeader, ProcessId, Result, Time,
};

/// A frame in flight between machine threads.
type Wire = (MachineId, Frame);

/// The per-thread physical layer: a channel to every peer.
struct ChannelPhys {
    txs: Vec<Sender<Wire>>,
}

impl Phys for ChannelPhys {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        if let Some(tx) = self.txs.get(dst.0 as usize) {
            // A closed peer (shut down) just drops frames, like a crash.
            let _ = tx.send((src, frame));
        }
    }
}

/// Control-plane commands into a machine thread.
enum Cmd {
    Spawn {
        name: String,
        state: Vec<u8>,
        layout: ImageLayout,
        privileged: bool,
        reply: Sender<Result<ProcessId>>,
    },
    InstallLink {
        pid: ProcessId,
        link: Link,
        reply: Sender<Result<()>>,
    },
    Post {
        msg: Message,
        reply: Sender<()>,
    },
    Migrate {
        pid: ProcessId,
        dest: MachineId,
        reply: Sender<Result<()>>,
    },
    QueryState {
        pid: ProcessId,
        reply: Sender<Option<Vec<u8>>>,
    },
    QueryStats {
        reply: Sender<(KernelStats, usize)>,
    },
    Shutdown,
}

fn spin(node: &mut Node, now: Time, phys: &mut ChannelPhys, out: &mut Outbox) {
    // Run the machine to idle: deliver CPU to every runnable activation.
    while node.has_runnable() {
        if node.run_next(now, phys, out).is_none() {
            break;
        }
    }
    out.trace.clear();
}

fn machine_main(
    mut node: Node,
    epoch: Instant,
    inbox: Receiver<Wire>,
    cmds: Receiver<Cmd>,
    mut phys: ChannelPhys,
) {
    let mut out = Outbox::default();
    let now = |epoch: Instant| Time::from_micros(epoch.elapsed().as_micros() as u64);
    loop {
        let t = now(epoch);
        // Fire due deadlines, run to idle.
        if node.next_timer_at().is_some_and(|d| d <= t) {
            node.on_time(t, &mut phys, &mut out);
        }
        spin(&mut node, t, &mut phys, &mut out);
        // Sleep until the next deadline or an event.
        let wait = node
            .next_timer_at()
            .map(|d| {
                std::time::Duration::from_micros(
                    d.as_micros()
                        .saturating_sub(now(epoch).as_micros())
                        .clamp(50, 5_000),
                )
            })
            .unwrap_or(std::time::Duration::from_millis(5));
        crossbeam::channel::select! {
            recv(inbox) -> f => {
                if let Ok((src, frame)) = f {
                    let t = now(epoch);
                    node.on_frame(t, src, frame, &mut phys, &mut out);
                    // Drain any burst that arrived together.
                    while let Ok((src, frame)) = inbox.try_recv() {
                        node.on_frame(t, src, frame, &mut phys, &mut out);
                    }
                }
            }
            recv(cmds) -> c => {
                let t = now(epoch);
                match c {
                    Ok(Cmd::Spawn { name, state, layout, privileged, reply }) => {
                        let r = node.kernel.spawn(t, &name, &state, layout, privileged, &mut out);
                        let _ = reply.send(r);
                    }
                    Ok(Cmd::InstallLink { pid, link, reply }) => {
                        let _ = reply.send(node.kernel.install_link(pid, link).map(drop));
                    }
                    Ok(Cmd::Post { msg, reply }) => {
                        node.submit(t, msg, &mut phys, &mut out);
                        let _ = reply.send(());
                    }
                    Ok(Cmd::Migrate { pid, dest, reply }) => {
                        let _ = reply.send(node.migrate(t, pid, dest, None, &mut phys, &mut out));
                    }
                    Ok(Cmd::QueryState { pid, reply }) => {
                        let state = node
                            .kernel
                            .process(pid)
                            .and_then(|p| p.program.as_ref().map(|q| q.save()));
                        let _ = reply.send(state);
                    }
                    Ok(Cmd::QueryStats { reply }) => {
                        let _ = reply.send((node.kernel.stats(), node.kernel.nprocs()));
                    }
                    Ok(Cmd::Shutdown) | Err(_) => return,
                }
            }
            default(wait) => {}
        }
    }
}

/// A cluster of machine threads — native mode.
pub struct NativeCluster {
    cmd_txs: Vec<Sender<Cmd>>,
    threads: Vec<JoinHandle<()>>,
    n: usize,
}

impl NativeCluster {
    /// Spin up `n` machines running on real threads.
    pub fn new(n: usize, registry: Registry, kcfg: KernelConfig, mcfg: MigrationConfig) -> Self {
        let registry = registry.into_shared();
        // lint:allow(D002 the native runtime's whole purpose is to map virtual time onto the real wall clock; its epoch is the one sanctioned read)
        let epoch = Instant::now();
        let mut frame_txs = Vec::with_capacity(n);
        let mut frame_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Wire>();
            frame_txs.push(tx);
            frame_rxs.push(rx);
        }
        let mut cmd_txs = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for (i, inbox) in frame_rxs.into_iter().enumerate() {
            let (ctx, crx) = unbounded::<Cmd>();
            cmd_txs.push(ctx);
            let node = Node::new(MachineId(i as u16), kcfg, mcfg, Arc::clone(&registry));
            let phys = ChannelPhys {
                txs: frame_txs.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("demos-m{i}"))
                .spawn(move || machine_main(node, epoch, inbox, crx, phys))
                .expect("spawn machine thread");
            threads.push(handle);
        }
        NativeCluster {
            cmd_txs,
            threads,
            n,
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn cmd<T>(&self, m: MachineId, build: impl FnOnce(Sender<T>) -> Cmd) -> Result<T> {
        let (tx, rx) = bounded(1);
        self.cmd_txs
            .get(m.0 as usize)
            .ok_or(DemosError::NoSuchMachine(m))?
            .send(build(tx))
            .map_err(|_| DemosError::NoSuchMachine(m))?;
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .map_err(|_| DemosError::Internal("machine thread unresponsive"))
    }

    /// Spawn a process on machine `m`.
    pub fn spawn(
        &self,
        m: MachineId,
        name: &str,
        state: &[u8],
        layout: ImageLayout,
    ) -> Result<ProcessId> {
        self.cmd(m, |reply| Cmd::Spawn {
            name: name.to_string(),
            state: state.to_vec(),
            layout,
            privileged: false,
            reply,
        })?
    }

    /// Install a link into a process's table (bootstrap).
    pub fn install_link(&self, m: MachineId, pid: ProcessId, link: Link) -> Result<()> {
        self.cmd(m, |reply| Cmd::InstallLink { pid, link, reply })?
    }

    /// Deliver a message to `pid` believed to be on machine `hint`.
    pub fn post(
        &self,
        hint: MachineId,
        pid: ProcessId,
        msg_type: u16,
        payload: impl Into<bytes::Bytes>,
        links: Vec<Link>,
    ) -> Result<()> {
        let msg = Message {
            header: MsgHeader {
                dest: pid.at(hint),
                src: ProcessId::kernel_of(hint),
                src_machine: hint,
                msg_type,
                flags: MsgFlags::FROM_KERNEL,
                hops: 0,
            },
            links,
            payload: payload.into(),
            corr: demos_types::CorrId::NONE,
        };
        self.cmd(hint, |reply| Cmd::Post { msg, reply })
    }

    /// Start migrating `pid` (currently on `src`) to `dest`.
    pub fn migrate(&self, src: MachineId, pid: ProcessId, dest: MachineId) -> Result<()> {
        self.cmd(src, |reply| Cmd::Migrate { pid, dest, reply })?
    }

    /// Fetch a process's serialized program state from machine `m`, if it
    /// is there.
    pub fn query_state(&self, m: MachineId, pid: ProcessId) -> Result<Option<Vec<u8>>> {
        self.cmd(m, |reply| Cmd::QueryState { pid, reply })
    }

    /// Which machine hosts `pid` right now (polls every machine)?
    pub fn where_is(&self, pid: ProcessId) -> Option<MachineId> {
        (0..self.n as u16)
            .map(MachineId)
            .find(|&m| matches!(self.query_state(m, pid), Ok(Some(_))))
    }

    /// Kernel statistics and process count for machine `m`.
    pub fn stats(&self, m: MachineId) -> Result<(KernelStats, usize)> {
        self.cmd(m, |reply| Cmd::QueryStats { reply })
    }

    /// Stop every machine thread and join them.
    pub fn shutdown(self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for NativeCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeCluster")
            .field("machines", &self.n)
            .finish()
    }
}
