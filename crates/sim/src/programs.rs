//! Workload programs.
//!
//! The paper had no authentic workload either — "in the absence of an
//! authentic workload for our test cases, the decision to move a
//! particular process and the choice of destination were arbitrary"
//! (§3.1) — so these seeded synthetic programs reproduce the *scenarios*
//! its text describes: message-exchanging peers (link update convergence),
//! CPU-bound computation (load balancing), request/reply servers and
//! clients (server migration under fire), pipelines, and inert cargo
//! processes of configurable size (transfer-cost sweeps).
//!
//! Every program serializes its complete state with a hand-rolled compact
//! encoding, so it migrates byte-faithfully. Link *indices* are stored in
//! program state: they remain valid across migration because the link
//! table is transferred whole, indices included.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_kernel::{local_tags, Carry, Ctx, Delivered, Program, Registry};
use demos_types::{tags, Duration, LinkAttrs, LinkIdx};

/// Message types used by the workload programs.
pub mod wl {
    use demos_types::tags::USER_BASE;
    /// Bootstrap: carries configuration links (peer, server, next stage).
    pub const INIT: u16 = USER_BASE;
    /// Ping-pong ball.
    pub const BALL: u16 = USER_BASE + 1;
    /// Client request.
    pub const REQ: u16 = USER_BASE + 2;
    /// Server reply.
    pub const REP: u16 = USER_BASE + 3;
    /// Pipeline token.
    pub const PIPE: u16 = USER_BASE + 4;
}

fn get_u64(b: &mut Bytes) -> u64 {
    if b.remaining() >= 8 {
        b.get_u64()
    } else {
        0
    }
}

fn get_u32(b: &mut Bytes) -> u32 {
    if b.remaining() >= 4 {
        b.get_u32()
    } else {
        0
    }
}

fn opt_link(v: u32) -> Option<LinkIdx> {
    (v != 0).then_some(LinkIdx(v))
}

// ----------------------------------------------------------------------
// PingPong
// ----------------------------------------------------------------------

/// Two of these exchange `BALL` messages over durable links forever (or
/// until `limit` rallies). The canonical sender whose stale links get
/// exercised by migration (experiments E4/E5).
#[derive(Debug, Default)]
pub struct PingPong {
    /// Rallies completed (messages received).
    pub rallies: u64,
    /// Stop after this many (0 = forever).
    pub limit: u64,
    /// Extra CPU per ball, microseconds.
    pub cpu_us: u32,
    /// Durable link to the peer (0 until INIT).
    pub peer: u32,
}

impl PingPong {
    /// Initial state: `limit` rallies, `cpu_us` per ball.
    pub fn state(limit: u64, cpu_us: u32) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(0);
        b.put_u64(limit);
        b.put_u32(cpu_us);
        b.put_u32(0);
        b.to_vec()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        Box::new(PingPong {
            rallies: get_u64(&mut b),
            limit: get_u64(&mut b),
            cpu_us: get_u32(&mut b),
            peer: get_u32(&mut b),
        })
    }
}

impl Program for PingPong {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            wl::INIT => {
                // links[0]: durable link to the peer. The second byte of
                // the payload, if 1, serves the first ball.
                if let Some(&peer) = msg.links.first() {
                    self.peer = peer.0;
                    if msg.payload.first() == Some(&1) {
                        let _ = ctx.send(peer, wl::BALL, Bytes::new(), &[]);
                    }
                }
            }
            wl::BALL => {
                self.rallies += 1;
                if self.cpu_us > 0 {
                    ctx.cpu(Duration::from_micros(self.cpu_us as u64));
                }
                if self.limit == 0 || self.rallies < self.limit {
                    if let Some(peer) = opt_link(self.peer) {
                        let _ = ctx.send(peer, wl::BALL, Bytes::new(), &[]);
                    }
                }
            }
            _ => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(self.rallies);
        b.put_u64(self.limit);
        b.put_u32(self.cpu_us);
        b.put_u32(self.peer);
        b.to_vec()
    }
}

/// Parse a `PingPong` state blob (for harness inspection).
pub fn pingpong_rallies(state: &[u8]) -> u64 {
    let mut b = Bytes::copy_from_slice(state);
    get_u64(&mut b)
}

// ----------------------------------------------------------------------
// CpuBurner
// ----------------------------------------------------------------------

/// Timer-driven CPU-bound job: each tick burns `work_us` of CPU, for
/// `limit` iterations (0 = forever). The unit of offered load in the
/// load-balancing experiments.
#[derive(Debug, Default)]
pub struct CpuBurner {
    /// Iterations completed.
    pub done: u64,
    /// Iterations to run (0 = forever).
    pub limit: u64,
    /// CPU per iteration, microseconds.
    pub work_us: u32,
    /// Tick period, microseconds (0 = back-to-back).
    pub period_us: u32,
}

impl CpuBurner {
    /// Initial state.
    pub fn state(limit: u64, work_us: u32, period_us: u32) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(0);
        b.put_u64(limit);
        b.put_u32(work_us);
        b.put_u32(period_us);
        b.to_vec()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        Box::new(CpuBurner {
            done: get_u64(&mut b),
            limit: get_u64(&mut b),
            work_us: get_u32(&mut b),
            period_us: get_u32(&mut b),
        })
    }

    fn arm(&self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_micros(self.period_us.max(1) as u64), 1);
    }
}

impl Program for CpuBurner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.limit == 0 || self.done < self.limit {
            self.arm(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.done += 1;
        ctx.cpu(Duration::from_micros(self.work_us as u64));
        if self.limit == 0 || self.done < self.limit {
            self.arm(ctx);
        } else {
            ctx.exit();
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {}

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(self.done);
        b.put_u64(self.limit);
        b.put_u32(self.work_us);
        b.put_u32(self.period_us);
        b.to_vec()
    }
}

/// Parse a `CpuBurner` state blob: iterations completed.
pub fn burner_done(state: &[u8]) -> u64 {
    let mut b = Bytes::copy_from_slice(state);
    get_u64(&mut b)
}

// ----------------------------------------------------------------------
// EchoServer
// ----------------------------------------------------------------------

/// Replies to every `REQ` over the carried reply link, echoing the
/// payload; the server process of the migration-under-fire scenario.
#[derive(Debug, Default)]
pub struct EchoServer {
    /// Requests served.
    pub served: u64,
    /// CPU per request, microseconds.
    pub cpu_us: u32,
}

impl EchoServer {
    /// Initial state.
    pub fn state(cpu_us: u32) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(0);
        b.put_u32(cpu_us);
        b.to_vec()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        Box::new(EchoServer {
            served: get_u64(&mut b),
            cpu_us: get_u32(&mut b),
        })
    }
}

impl Program for EchoServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type == wl::REQ {
            self.served += 1;
            if self.cpu_us > 0 {
                ctx.cpu(Duration::from_micros(self.cpu_us as u64));
            }
            if let Some(reply) = msg.reply() {
                let _ = ctx.send(reply, wl::REP, msg.payload.clone(), &[]);
            }
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(self.served);
        b.put_u32(self.cpu_us);
        b.to_vec()
    }
}

/// Parse an `EchoServer` state blob: requests served.
pub fn server_served(state: &[u8]) -> u64 {
    let mut b = Bytes::copy_from_slice(state);
    get_u64(&mut b)
}

// ----------------------------------------------------------------------
// Client
// ----------------------------------------------------------------------

/// Timer-driven request generator: sends `REQ` (with a one-shot reply
/// link and the send timestamp) every `period_us`, records round-trip
/// times.
#[derive(Debug, Default)]
pub struct Client {
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub recv: u64,
    /// Sum of round-trip times, microseconds.
    pub rtt_sum: u64,
    /// Maximum round-trip time, microseconds.
    pub rtt_max: u64,
    /// Requests still to send (0 = unlimited).
    pub limit: u64,
    /// Send period, microseconds.
    pub period_us: u32,
    /// Request payload size.
    pub payload: u32,
    /// Durable link to the server (0 until INIT).
    pub server: u32,
}

impl Client {
    /// Initial state.
    pub fn state(limit: u64, period_us: u32, payload: u32) -> Vec<u8> {
        let c = Client {
            limit,
            period_us,
            payload,
            ..Client::default()
        };
        c.save()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        Box::new(Client {
            sent: get_u64(&mut b),
            recv: get_u64(&mut b),
            rtt_sum: get_u64(&mut b),
            rtt_max: get_u64(&mut b),
            limit: get_u64(&mut b),
            period_us: get_u32(&mut b),
            payload: get_u32(&mut b),
            server: get_u32(&mut b),
        })
    }
}

impl Program for Client {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            wl::INIT => {
                if let Some(&server) = msg.links.first() {
                    self.server = server.0;
                    ctx.set_timer(Duration::from_micros(self.period_us.max(1) as u64), 1);
                }
            }
            wl::REP => {
                self.recv += 1;
                let mut b = msg.payload.clone();
                if b.remaining() >= 8 {
                    let sent_at = b.get_u64();
                    let rtt = ctx.now().as_micros().saturating_sub(sent_at);
                    self.rtt_sum += rtt;
                    self.rtt_max = self.rtt_max.max(rtt);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(server) = opt_link(self.server) else {
            return;
        };
        if self.limit == 0 || self.sent < self.limit {
            let (sent_at, padding) = (ctx.now().as_micros(), self.payload as usize);
            let payload = Bytes::filled(8 + padding, |out| {
                out.put_u64(sent_at);
                out.put_bytes(0, padding);
            });
            if ctx
                .send(server, wl::REQ, payload, &[Carry::New(LinkAttrs::REPLY)])
                .is_ok()
            {
                self.sent += 1;
            }
            if self.limit == 0 || self.sent < self.limit {
                ctx.set_timer(Duration::from_micros(self.period_us.max(1) as u64), 1);
            }
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(self.sent);
        b.put_u64(self.recv);
        b.put_u64(self.rtt_sum);
        b.put_u64(self.rtt_max);
        b.put_u64(self.limit);
        b.put_u32(self.period_us);
        b.put_u32(self.payload);
        b.put_u32(self.server);
        b.to_vec()
    }
}

/// Parsed `Client` statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub recv: u64,
    /// Mean round-trip, microseconds (0 when no replies).
    pub rtt_mean_us: u64,
    /// Worst round-trip, microseconds.
    pub rtt_max_us: u64,
}

/// Parse a `Client` state blob.
pub fn client_stats(state: &[u8]) -> ClientStats {
    let mut b = Bytes::copy_from_slice(state);
    let sent = get_u64(&mut b);
    let recv = get_u64(&mut b);
    let rtt_sum = get_u64(&mut b);
    let rtt_max = get_u64(&mut b);
    ClientStats {
        sent,
        recv,
        rtt_mean_us: rtt_sum.checked_div(recv).unwrap_or(0),
        rtt_max_us: rtt_max,
    }
}

// ----------------------------------------------------------------------
// Stage (pipeline)
// ----------------------------------------------------------------------

/// A pipeline stage: burns CPU per token and forwards it downstream.
#[derive(Debug, Default)]
pub struct Stage {
    /// Tokens processed.
    pub processed: u64,
    /// CPU per token, microseconds.
    pub work_us: u32,
    /// Durable link to the next stage (0 = sink).
    pub next: u32,
}

impl Stage {
    /// Initial state.
    pub fn state(work_us: u32) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(0);
        b.put_u32(work_us);
        b.put_u32(0);
        b.to_vec()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        Box::new(Stage {
            processed: get_u64(&mut b),
            work_us: get_u32(&mut b),
            next: get_u32(&mut b),
        })
    }
}

impl Program for Stage {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            wl::INIT => {
                if let Some(&next) = msg.links.first() {
                    self.next = next.0;
                }
            }
            wl::PIPE => {
                self.processed += 1;
                if self.work_us > 0 {
                    ctx.cpu(Duration::from_micros(self.work_us as u64));
                }
                if let Some(next) = opt_link(self.next) {
                    let _ = ctx.send(next, wl::PIPE, msg.payload.clone(), &[]);
                }
            }
            _ => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(self.processed);
        b.put_u32(self.work_us);
        b.put_u32(self.next);
        b.to_vec()
    }
}

/// Parse a `Stage` state blob: tokens processed.
pub fn stage_processed(state: &[u8]) -> u64 {
    let mut b = Bytes::copy_from_slice(state);
    get_u64(&mut b)
}

// ----------------------------------------------------------------------
// Cargo
// ----------------------------------------------------------------------

/// An inert process whose only purpose is to be migrated: its state is an
/// opaque blob (sized by the caller) and it counts the messages it
/// receives. Used by the transfer-cost sweeps.
#[derive(Debug, Default)]
pub struct Cargo {
    /// Messages received.
    pub received: u64,
    /// Opaque ballast carried in program state.
    pub ballast: Vec<u8>,
}

impl Cargo {
    /// Initial state with `ballast` bytes of payload.
    pub fn state(ballast: usize) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(0);
        b.extend_from_slice(&vec![0xA5u8; ballast]);
        b.to_vec()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let received = get_u64(&mut b);
        Box::new(Cargo {
            received,
            ballast: b.to_vec(),
        })
    }
}

impl Program for Cargo {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Delivered) {
        // Count everything except kernel-local notifications (timers,
        // move-data completions, non-deliverable notices).
        if msg.msg_type >= tags::SYS_BASE || msg.msg_type < local_tags::KERNEL_MGMT {
            self.received += 1;
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u64(self.received);
        b.extend_from_slice(&self.ballast);
        b.to_vec()
    }
}

/// Parse a `Cargo` state blob: messages received.
pub fn cargo_received(state: &[u8]) -> u64 {
    let mut b = Bytes::copy_from_slice(state);
    get_u64(&mut b)
}

// ----------------------------------------------------------------------
// Nomad
// ----------------------------------------------------------------------

/// A process that periodically requests its *own* migration through the
/// process manager (§3.1: "it is of course possible for a process to
/// request its own migration"), hopping around the cluster while doing
/// background work.
#[derive(Debug, Default)]
pub struct Nomad {
    /// Link to the process manager (0 until INIT).
    pub pm: u32,
    /// Machines in the cluster (hop target = (here + 1) % machines).
    pub machines: u16,
    /// Hop period, microseconds.
    pub period_us: u32,
    /// Completed self-migrations (Done status 0 received).
    pub hops: u64,
    /// Failed requests.
    pub failed: u64,
    /// Background work performed.
    pub work: u64,
}

impl Nomad {
    /// Initial state.
    pub fn state(machines: u16, period_us: u32) -> Vec<u8> {
        Nomad {
            machines,
            period_us,
            ..Default::default()
        }
        .save()
    }

    fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        Box::new(Nomad {
            pm: get_u32(&mut b),
            machines: get_u32(&mut b) as u16,
            period_us: get_u32(&mut b),
            hops: get_u64(&mut b),
            failed: get_u64(&mut b),
            work: get_u64(&mut b),
        })
    }
}

impl Program for Nomad {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            wl::INIT => {
                if let Some(&pm) = msg.links.first() {
                    self.pm = pm.0;
                    ctx.set_timer(Duration::from_micros(self.period_us.max(1) as u64), 1);
                }
            }
            tags::MIGRATE => {
                // The Done (#9) notification for our own request.
                if msg.payload.first() == Some(&6) && msg.payload.last() == Some(&0) {
                    self.hops += 1;
                } else {
                    self.failed += 1;
                }
                ctx.set_timer(Duration::from_micros(self.period_us.max(1) as u64), 1);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.work += 1;
        ctx.cpu(Duration::from_micros(50));
        let Some(pm) = opt_link(self.pm) else { return };
        if self.machines < 2 {
            return;
        }
        let dest = demos_types::MachineId((ctx.machine().0 + 1) % self.machines);
        // PmMsg::Migrate { dest } with [reply, self-link] — built by hand
        // to avoid a dependency cycle with demos-sysproc (tag 4 = Migrate).
        let payload = Bytes::filled(3, |out| {
            out.put_u8(4);
            out.put_u16(dest.0);
        });
        let _ = ctx.send(
            pm,
            tags::SYS_BASE + 1, // sys::PROCMGR
            payload,
            &[Carry::New(LinkAttrs::NONE), Carry::New(LinkAttrs::NONE)],
        );
    }

    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u32(self.pm);
        b.put_u32(self.machines as u32);
        b.put_u32(self.period_us);
        b.put_u64(self.hops);
        b.put_u64(self.failed);
        b.put_u64(self.work);
        b.to_vec()
    }
}

/// Parse a `Nomad` state blob: `(hops, failed, work)`.
pub fn nomad_stats(state: &[u8]) -> (u64, u64, u64) {
    let mut b = Bytes::copy_from_slice(state);
    let _pm = get_u32(&mut b);
    let _machines = get_u32(&mut b);
    let _period = get_u32(&mut b);
    (get_u64(&mut b), get_u64(&mut b), get_u64(&mut b))
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

/// Register every workload program (plus the system server processes from
/// `demos-sysproc`) into a fresh registry.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    register(&mut r);
    demos_sysproc::register(&mut r);
    r
}

/// Register the workload programs into an existing registry.
pub fn register(r: &mut Registry) {
    r.register("pingpong", PingPong::restore);
    r.register("cpu_burner", CpuBurner::restore);
    r.register("echo_server", EchoServer::restore);
    r.register("client", Client::restore);
    r.register("stage", Stage::restore);
    r.register("cargo", Cargo::restore);
    r.register("nomad", Nomad::restore);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrips() {
        let p = PingPong::restore(&PingPong::state(10, 5));
        let back = PingPong::restore(&p.save());
        assert_eq!(pingpong_rallies(&back.save()), 0);

        let c = Client::restore(&Client::state(100, 500, 64));
        let s = client_stats(&c.save());
        assert_eq!(s.sent, 0);

        let g = Cargo::restore(&Cargo::state(1024));
        assert_eq!(g.save().len(), 8 + 1024);
        assert_eq!(cargo_received(&g.save()), 0);
    }

    #[test]
    fn registry_has_all() {
        let r = registry();
        for name in [
            "pingpong",
            "cpu_burner",
            "echo_server",
            "client",
            "stage",
            "cargo",
        ] {
            assert!(r.contains(name), "{name} missing");
        }
    }
}
