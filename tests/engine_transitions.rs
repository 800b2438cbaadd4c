//! The migration engine's transition table, one row per (state, event).
//!
//! Each side of a migration is a state machine of its own: a source
//! record is `Offered` from the freeze until it settles, and a
//! destination record goes `Pulling(Resident)` → `Pulling(Swappable)` →
//! `Pulling(Image)` → `Installed` until it commits or fails. Every row puts
//! a real `Kernel` and `MigrationEngine` into a state through the public
//! entry points, feeds one event — a protocol message, a pull completion,
//! the timeout or a dead-peer verdict — and checks three things:
//!
//! * the state each process is in afterwards: its record's
//!   [`MigrationEngine::ownership`] here, and whether the kernel holds it
//!   frozen, live or not at all;
//! * the `MigrationPhase` records traced and the messages sent, in one
//!   sequence: the trace → send → trace order inside a transition is part
//!   of every committed fingerprint.
//!
//! The written-out no-op arms have rows of their own: a duplicate or late
//! pull completion, `Accept`, a message naming a context from another
//! machine or another pid, and the crossing `Abort`s of two migrations
//! that share a context number.

use std::sync::Arc;

use demos_mp::core::{AcceptPolicy, MigrationConfig, MigrationEngine, Ownership, Stage};
use demos_mp::kernel::{
    ImageLayout, Kernel, KernelConfig, KernelPullDone, Outbox, Registry, TraceEvent,
};
use demos_mp::net::{Frame, Phys};
use demos_mp::sim::programs::{self, Cargo};
use demos_mp::types::proto::{AreaSel, LinkMaintMsg, MigrateMsg, MoveDataMsg, RejectReason};
use demos_mp::types::wire::Wire;
use demos_mp::types::{
    tags, CorrId, Link, MachineId, Message, MsgFlags, MsgHeader, ProcessAddress, ProcessId, Time,
};

/// Source of the incoming migration, destination of the outgoing one.
const PEER: MachineId = MachineId(0);
/// The machine under test.
const HERE: MachineId = MachineId(1);
/// A machine party to neither migration.
const STRANGER: MachineId = MachineId(2);
/// Where the requester of both migrations lives: `Done` goes there.
const REQUESTER: MachineId = MachineId(3);
/// The context of both records: the peer's counter and ours start at 1.
const CTX: u16 = 1;

/// Records every frame the kernel puts on the wire.
#[derive(Default)]
struct Tap(Vec<(MachineId, Frame)>);

impl Phys for Tap {
    fn transmit(&mut self, _now: Time, _src: MachineId, dst: MachineId, frame: Frame) {
        self.0.push((dst, frame));
    }
}

/// Which process an event names.
#[derive(Clone, Copy, Debug)]
enum Who {
    /// The process migrating out of this machine.
    Local,
    /// The process migrating in.
    Remote,
    /// A process no record here is about.
    Other,
}

/// The input of a row. A message comes from the row's `from` with
/// context `CTX`; `PeerDead` is the verdict on `from`.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Offer(Who),
    Accept,
    Reject(RejectReason),
    TransferComplete,
    CleanupDone,
    Abort(Who),
    Done,
    /// The pull of `stage` completes with its real bytes (status 0) or
    /// fails (any other status).
    Pulled(Stage, u8),
    /// The image pull completes with bytes that are not an image.
    GarbageImage,
    /// `MigrationConfig::timeout` passes.
    Timeout,
    PeerDead,
}

/// Engine configuration of a row.
#[derive(Clone, Copy, Debug)]
enum Cfg {
    Plain,
    /// `AcceptPolicy::Never`.
    Closed,
}

struct Row {
    /// The outgoing record exists.
    out: bool,
    /// The incoming record's state, if it exists.
    inc: Option<Ownership>,
    /// The process of the live record(s) was killed before the event.
    killed: bool,
    cfg: Cfg,
    from: MachineId,
    ev: Ev,
    /// `"<who> <ownership or -> <frozen | live | gone>"` for the local
    /// process (if the row has one) and the remote one.
    after: &'static [&'static str],
    /// What the event did, in order: `"<who> <phase>"` for a traced
    /// `MigrationPhase`, `"<message>→m<machine>"` for a message sent.
    did: &'static [&'static str],
}

const ROW: Row = Row {
    out: false,
    inc: None,
    killed: false,
    cfg: Cfg::Plain,
    from: PEER,
    ev: Ev::Done,
    after: &[],
    did: &[],
};

const PULLING_R: Option<Ownership> = Some(Ownership::Pulling(Stage::Resident));
const PULLING_S: Option<Ownership> = Some(Ownership::Pulling(Stage::Swappable));
const PULLING_I: Option<Ownership> = Some(Ownership::Pulling(Stage::Image));
const INSTALLED: Option<Ownership> = Some(Ownership::Installed);

#[rustfmt::skip]
const TABLE: &[Row] = &[
    // ---- Source: Offered × every event ----
    // Message #3 is an acknowledgement only; the first pull is the go-ahead.
    Row { out: true, ev: Ev::Accept, after: &["L Offered frozen"], ..ROW },
    Row { out: true, ev: Ev::Reject(RejectReason::Capacity), after: &["L - live"],
          did: &["L Aborted", "L Rejected", "Done(1)→m3"], ..ROW },
    Row { out: true, ev: Ev::Reject(RejectReason::Protocol), after: &["L - live"],
          did: &["L Aborted", "L Rejected", "Done(4)→m3"], ..ROW },
    Row { out: true, ev: Ev::Reject(RejectReason::Policy), after: &["L - live"],
          did: &["L Aborted", "L Rejected", "Done(2)→m3"], ..ROW },
    Row { out: true, ev: Ev::Abort(Who::Local), after: &["L - live"],
          did: &["L Aborted", "Done(200)→m3"], ..ROW },
    // Steps 6–7: forward the (empty) queue, leave the forwarding address.
    Row { out: true, ev: Ev::TransferComplete, after: &["L - gone"],
          did: &["L PendingForwarded", "L CleanedUp", "CleanupDone→m0"], ..ROW },
    // The process was killed mid-migration: the destination drops its copy.
    Row { out: true, killed: true, ev: Ev::TransferComplete, after: &["L - gone"],
          did: &["Abort→m0"], ..ROW },
    Row { out: true, ev: Ev::Timeout, after: &["L - live"],
          did: &["L Aborted", "Abort→m0", "Done(201)→m3"], ..ROW },
    Row { out: true, ev: Ev::PeerDead, after: &["L - live"],
          did: &["L Aborted", "L Aborted", "Done(203)→m3"], ..ROW },
    // Names no live source record: changes nothing.
    Row { out: true, from: STRANGER, ev: Ev::Reject(RejectReason::Policy), after: &["L Offered frozen"], ..ROW },
    Row { out: true, from: STRANGER, ev: Ev::TransferComplete, after: &["L Offered frozen"], ..ROW },
    Row { out: true, from: STRANGER, ev: Ev::Abort(Who::Local), after: &["L Offered frozen"], ..ROW },
    Row { out: true, ev: Ev::Abort(Who::Other), after: &["L Offered frozen"], ..ROW },
    Row { out: true, from: STRANGER, ev: Ev::PeerDead, after: &["L Offered frozen"], ..ROW },
    Row { out: true, ev: Ev::Done, after: &["L Offered frozen"], ..ROW },
    // ---- Destination: no record × Offer ----
    Row { ev: Ev::Offer(Who::Remote), after: &["R Pulling(Resident) gone"],
          did: &["R Allocated", "Accept→m0", "ReadReq(Resident)→m0"], ..ROW },
    Row { cfg: Cfg::Closed, ev: Ev::Offer(Who::Remote), after: &["R - gone"],
          did: &["Reject(Policy)→m0", "R Rejected"], ..ROW },
    // A live (source, context) pair offered again: refused, record kept.
    Row { inc: PULLING_S, ev: Ev::Offer(Who::Other), after: &["R Pulling(Swappable) gone"],
          did: &["Reject(Protocol)→m0", "O Rejected"], ..ROW },
    // ---- Destination: Pulling(stage) × its pull completing ----
    Row { inc: PULLING_R, ev: Ev::Pulled(Stage::Resident, 0), after: &["R Pulling(Swappable) gone"],
          did: &["ReadReq(Swappable)→m0"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::Pulled(Stage::Swappable, 0), after: &["R Pulling(Image) gone"],
          did: &["R StateTransferred", "ReadReq(Image)→m0"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::Pulled(Stage::Image, 0), after: &["R Installed frozen"],
          did: &["R ImageTransferred", "TransferComplete→m0"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::GarbageImage, after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    // ... failing.
    Row { inc: PULLING_R, ev: Ev::Pulled(Stage::Resident, 3), after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::Pulled(Stage::Swappable, 3), after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::Pulled(Stage::Image, 3), after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    // A duplicate or early completion of another stage: nothing to advance.
    Row { inc: PULLING_S, ev: Ev::Pulled(Stage::Resident, 0), after: &["R Pulling(Swappable) gone"], ..ROW },
    Row { inc: PULLING_R, ev: Ev::Pulled(Stage::Image, 0), after: &["R Pulling(Resident) gone"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::Pulled(Stage::Swappable, 3), after: &["R Pulling(Image) gone"], ..ROW },
    // ---- Destination: Pulling × the other events ----
    // Nothing is installed, so the source cannot have cleaned up.
    Row { inc: PULLING_R, ev: Ev::CleanupDone, after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::CleanupDone, after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::CleanupDone, after: &["R - gone"],
          did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_R, ev: Ev::Abort(Who::Remote), after: &["R - gone"], did: &["R Aborted"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::Abort(Who::Remote), after: &["R - gone"], did: &["R Aborted"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::Abort(Who::Remote), after: &["R - gone"], did: &["R Aborted"], ..ROW },
    Row { inc: PULLING_R, ev: Ev::Timeout, after: &["R - gone"], did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::Timeout, after: &["R - gone"], did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::Timeout, after: &["R - gone"], did: &["Abort→m0", "R Aborted"], ..ROW },
    Row { inc: PULLING_R, ev: Ev::PeerDead, after: &["R - gone"], did: &["R Aborted"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::PeerDead, after: &["R - gone"], did: &["R Aborted"], ..ROW },
    Row { inc: PULLING_I, ev: Ev::PeerDead, after: &["R - gone"], did: &["R Aborted"], ..ROW },
    // Addressed to a source record, from another machine, or about
    // another process: changes nothing.
    Row { inc: PULLING_S, ev: Ev::Accept, after: &["R Pulling(Swappable) gone"], ..ROW },
    Row { inc: PULLING_S, from: STRANGER, ev: Ev::CleanupDone, after: &["R Pulling(Swappable) gone"], ..ROW },
    Row { inc: PULLING_S, ev: Ev::Abort(Who::Other), after: &["R Pulling(Swappable) gone"], ..ROW },
    // ---- Destination: Installed × every event ----
    // Step 8: the commit.
    Row { inc: INSTALLED, ev: Ev::CleanupDone, after: &["R - live"],
          did: &["R Restarted", "Done(0)→m3"], ..ROW },
    // The held copy vanished before the commit: nothing left to restart.
    Row { inc: INSTALLED, killed: true, ev: Ev::CleanupDone, after: &["R - gone"],
          did: &["R Aborted"], ..ROW },
    // A late completion after the install.
    Row { inc: INSTALLED, ev: Ev::Pulled(Stage::Image, 0), after: &["R Installed frozen"], ..ROW },
    Row { inc: INSTALLED, ev: Ev::Pulled(Stage::Resident, 3), after: &["R Installed frozen"], ..ROW },
    // From here a failure destroys the installed copy.
    Row { inc: INSTALLED, ev: Ev::Abort(Who::Remote), after: &["R - gone"], did: &["R Aborted"], ..ROW },
    Row { inc: INSTALLED, ev: Ev::Timeout, after: &["R - gone"], did: &["Abort→m0", "R Aborted"], ..ROW },
    // The source is confirmed dead: the installed copy is the last one.
    Row { inc: INSTALLED, ev: Ev::PeerDead, after: &["R - live"],
          did: &["R Restarted", "R Restarted", "Done(0)→m3"], ..ROW },
    Row { inc: INSTALLED, from: STRANGER, ev: Ev::CleanupDone, after: &["R Installed frozen"], ..ROW },
    Row { inc: INSTALLED, from: STRANGER, ev: Ev::Abort(Who::Remote), after: &["R Installed frozen"], ..ROW },
    Row { inc: INSTALLED, from: STRANGER, ev: Ev::PeerDead, after: &["R Installed frozen"], ..ROW },
    Row { inc: INSTALLED, ev: Ev::TransferComplete, after: &["R Installed frozen"], ..ROW },
    // ---- Crossing: both records share context 1 and the peer ----
    Row { out: true, inc: PULLING_R, ev: Ev::Abort(Who::Local),
          after: &["L - live", "R Pulling(Resident) gone"], did: &["L Aborted", "Done(200)→m3"], ..ROW },
    Row { out: true, inc: PULLING_R, ev: Ev::Abort(Who::Remote),
          after: &["L Offered frozen", "R - gone"], did: &["R Aborted"], ..ROW },
    Row { out: true, inc: INSTALLED, ev: Ev::Abort(Who::Remote),
          after: &["L Offered frozen", "R - gone"], did: &["R Aborted"], ..ROW },
    Row { out: true, inc: PULLING_S, ev: Ev::Timeout, after: &["L - live", "R - gone"],
          did: &["L Aborted", "Abort→m0", "Done(201)→m3", "Abort→m0", "R Aborted"], ..ROW },
    Row { out: true, inc: INSTALLED, ev: Ev::PeerDead, after: &["L - live", "R - live"],
          did: &["R Restarted", "R Restarted", "Done(0)→m3", "L Aborted", "L Aborted", "Done(203)→m3"], ..ROW },
    Row { out: true, inc: PULLING_I, ev: Ev::PeerDead, after: &["L - live", "R - gone"],
          did: &["R Aborted", "L Aborted", "L Aborted", "Done(203)→m3"], ..ROW },
];

/// The three state blobs of a real frozen process, as the pulls deliver
/// them.
struct Blobs {
    pid: ProcessId,
    stages: [Vec<u8>; 3],
}

fn registry() -> Arc<Registry> {
    programs::registry().into_shared()
}

fn spawn_cargo(kernel: &mut Kernel) -> ProcessId {
    let state = Cargo::state(3 * 1024);
    let mut out = Outbox::default();
    let layout = ImageLayout::default();
    let spawned = kernel.spawn(Time::ZERO, "cargo", &state, layout, false, &mut out);
    spawned.expect("spawn cargo")
}

fn blobs() -> Blobs {
    let mut kernel = Kernel::new(PEER, KernelConfig::default(), registry());
    let pid = spawn_cargo(&mut kernel);
    let mut out = Outbox::default();
    let frozen = kernel.freeze_for_migration(Time::ZERO, pid, &mut Tap::default(), &mut out);
    frozen.expect("freeze");
    let p = kernel.process(pid).expect("frozen process");
    Blobs {
        pid,
        stages: [
            p.serialize_resident(),
            p.serialize_swappable(),
            p.image.to_flat(),
        ],
    }
}

/// The documented cookie layout: `src ≪ 32 | ctx ≪ 8 | stage`.
fn cookie(stage: Stage) -> u64 {
    (u64::from(PEER.0) << 32) | (u64::from(CTX) << 8) | stage as u64
}

fn requester() -> Link {
    let pid = ProcessId {
        creating_machine: REQUESTER,
        local_uid: 5,
    };
    Link::to(ProcessAddress {
        last_known_machine: REQUESTER,
        pid,
    })
    .reply()
}

/// `msg` from `from`'s kernel to the engine here.
fn migrate_msg(from: MachineId, msg: &MigrateMsg, links: Vec<Link>) -> Message {
    Message {
        header: MsgHeader {
            dest: ProcessAddress::kernel_of(HERE),
            src: ProcessId::kernel_of(from),
            src_machine: from,
            msg_type: tags::MIGRATE,
            flags: MsgFlags::FROM_KERNEL,
            hops: 0,
        },
        links,
        payload: msg.to_bytes(),
        corr: CorrId::NONE,
    }
}

/// One frame as `"<message>→m<machine>"`.
fn describe(to: MachineId, frame: &Frame) -> Option<String> {
    let Frame::Data { payload, .. } = frame else {
        return None;
    };
    let msg = Message::from_bytes(payload).expect("a frame carries one message");
    let what = match msg.header.msg_type {
        tags::MIGRATE => match MigrateMsg::from_bytes(&msg.payload).expect("migrate codec") {
            MigrateMsg::Offer { .. } => "Offer".to_string(),
            MigrateMsg::Accept { .. } => "Accept".to_string(),
            MigrateMsg::Reject { reason, .. } => format!("Reject({reason:?})"),
            MigrateMsg::TransferComplete { .. } => "TransferComplete".to_string(),
            MigrateMsg::CleanupDone { .. } => "CleanupDone".to_string(),
            MigrateMsg::Abort { .. } => "Abort".to_string(),
            MigrateMsg::Done { status, .. } => format!("Done({status})"),
        },
        tags::MOVE_DATA => match MoveDataMsg::from_bytes(&msg.payload).expect("move-data codec") {
            MoveDataMsg::ReadReq { sel, .. } => format!("ReadReq({})", area(sel)),
            other => format!("{other:?}"),
        },
        tags::LINK_MAINT => match LinkMaintMsg::from_bytes(&msg.payload).expect("maint codec") {
            LinkMaintMsg::DeathNotice { .. } => "DeathNotice".to_string(),
            other => format!("{other:?}"),
        },
        other => format!("tag {other}"),
    };
    Some(format!("{what}→m{}", to.0))
}

fn area(sel: AreaSel) -> &'static str {
    match sel {
        AreaSel::Resident => "Resident",
        AreaSel::Swappable => "Swappable",
        AreaSel::Image => "Image",
        AreaSel::LinkArea => "LinkArea",
    }
}

struct Rig {
    kernel: Kernel,
    engine: MigrationEngine,
    cfg: MigrationConfig,
    tap: Tap,
    out: Outbox,
    local: Option<ProcessId>,
    remote: ProcessId,
    /// The row is about an incoming record: it has one, or is offered one.
    incoming: bool,
}

impl Rig {
    fn new(row: &Row, blobs: &Blobs) -> Rig {
        let cfg = match row.cfg {
            Cfg::Plain => MigrationConfig::default(),
            Cfg::Closed => MigrationConfig {
                accept: AcceptPolicy::Never,
                ..MigrationConfig::default()
            },
        };
        let mut rig = Rig {
            kernel: Kernel::new(HERE, KernelConfig::default(), registry()),
            engine: MigrationEngine::new(HERE, cfg),
            cfg,
            tap: Tap::default(),
            out: Outbox::default(),
            local: None,
            remote: blobs.pid,
            incoming: row.inc.is_some() || matches!(row.ev, Ev::Offer(_)),
        };
        if row.out {
            let pid = spawn_cargo(&mut rig.kernel);
            let started = rig.engine.start_migration(
                Time::ZERO,
                &mut rig.kernel,
                pid,
                PEER,
                Some(requester()),
                &mut rig.tap,
                &mut rig.out,
            );
            started.expect("start the outgoing migration");
            rig.local = Some(pid);
        }
        if let Some(state) = row.inc {
            rig.handle(PEER, Ev::Offer(Who::Remote));
            let pulled = match state {
                Ownership::Offered => unreachable!("an incoming record is never Offered"),
                Ownership::Pulling(stage) => stage as usize,
                Ownership::Installed => 3,
            };
            for (i, stage) in [Stage::Resident, Stage::Swappable, Stage::Image]
                .into_iter()
                .enumerate()
                .take(pulled)
            {
                rig.pull_done(stage, 0, blobs.stages[i].clone());
            }
            assert_eq!(rig.engine.ownership(blobs.pid), Some(state), "set-up");
        }
        if row.killed {
            let pid = rig.local.unwrap_or(blobs.pid);
            rig.kernel.kill(Time::ZERO, pid, &mut rig.tap, &mut rig.out);
        }
        rig
    }

    fn pid(&self, who: Who) -> ProcessId {
        match who {
            Who::Local => self.local.expect("the row has an outgoing record"),
            Who::Remote => self.remote,
            Who::Other => ProcessId {
                creating_machine: STRANGER,
                local_uid: 77,
            },
        }
    }

    fn who(&self, pid: ProcessId) -> &'static str {
        if Some(pid) == self.local {
            "L"
        } else if pid == self.remote {
            "R"
        } else {
            "O"
        }
    }

    fn handle(&mut self, from: MachineId, ev: Ev) {
        let (ctx, pid) = (CTX, self.local.unwrap_or(self.remote));
        let msg = match ev {
            Ev::Offer(who) => MigrateMsg::Offer {
                ctx,
                pid: self.pid(who),
                resident_len: 250,
                swappable_len: 600,
                image_len: 8192,
            },
            Ev::Accept => MigrateMsg::Accept {
                ctx,
                slot: 1,
                window: 1024,
            },
            Ev::Reject(reason) => MigrateMsg::Reject { ctx, pid, reason },
            Ev::TransferComplete => MigrateMsg::TransferComplete { ctx, received: 1 },
            Ev::CleanupDone => MigrateMsg::CleanupDone { ctx, forwarded: 0 },
            Ev::Abort(who) => MigrateMsg::Abort {
                ctx,
                pid: self.pid(who),
            },
            Ev::Done => MigrateMsg::Done {
                pid,
                dest: HERE,
                status: 0,
            },
            Ev::Pulled(..) | Ev::GarbageImage | Ev::Timeout | Ev::PeerDead => {
                unreachable!("{ev:?} is not a message")
            }
        };
        // An offer carries the requester's reply link.
        let offer = matches!(ev, Ev::Offer(_));
        let links = if offer { vec![requester()] } else { Vec::new() };
        let msg = migrate_msg(from, &msg, links);
        let (kernel, tap, out) = (&mut self.kernel, &mut self.tap, &mut self.out);
        self.engine.handle(Time::ZERO, kernel, msg, tap, out);
    }

    fn pull_done(&mut self, stage: Stage, status: u8, data: Vec<u8>) {
        let done = KernelPullDone {
            cookie: cookie(stage),
            op: 0,
            data,
            status,
        };
        let (kernel, tap, out) = (&mut self.kernel, &mut self.tap, &mut self.out);
        self.engine.on_pull_done(Time::ZERO, kernel, done, tap, out);
    }

    fn feed(&mut self, row: &Row, blobs: &Blobs) {
        match row.ev {
            Ev::Pulled(stage, status) => {
                let data = blobs.stages[stage as usize].clone();
                self.pull_done(stage, status, data);
            }
            Ev::GarbageImage => self.pull_done(Stage::Image, 0, vec![0xEE; 40]),
            Ev::Timeout => {
                let (kernel, tap, out) = (&mut self.kernel, &mut self.tap, &mut self.out);
                let late = Time::ZERO + self.cfg.timeout;
                self.engine.on_time(late, kernel, tap, out);
            }
            Ev::PeerDead => {
                let (kernel, tap, out) = (&mut self.kernel, &mut self.tap, &mut self.out);
                self.engine
                    .on_peer_dead(Time::ZERO, kernel, row.from, tap, out);
            }
            Ev::Offer(_)
            | Ev::Accept
            | Ev::Reject(_)
            | Ev::TransferComplete
            | Ev::CleanupDone
            | Ev::Abort(_)
            | Ev::Done => self.handle(row.from, row.ev),
        }
    }

    /// Each process's record state here and the kernel's copy of it.
    fn states(&self) -> Vec<String> {
        let remote = self.incoming.then_some(self.remote);
        let pids = self.local.into_iter().chain(remote);
        pids.map(|pid| {
            let state = match self.engine.ownership(pid) {
                Some(Ownership::Pulling(stage)) => format!("Pulling({stage:?})"),
                Some(state) => format!("{state:?}"),
                None => "-".to_string(),
            };
            let copy = match self.kernel.process(pid) {
                Some(p) if p.in_migration => "frozen",
                Some(_) => "live",
                None => "gone",
            };
            format!("{} {state} {copy}", self.who(pid))
        })
        .collect()
    }
}

#[test]
fn every_state_event_pair_moves_as_the_table_says() {
    let blobs = blobs();
    for (i, row) in TABLE.iter().enumerate() {
        let mut rig = Rig::new(row, &blobs);
        let (traced, sent) = (rig.out.trace.len(), rig.tap.0.len());
        rig.feed(row, &blobs);
        let what = format!(
            "row {i}: {:?} from {:?} with out {} inc {:?} killed {} cfg {:?}",
            row.ev, row.from, row.out, row.inc, row.killed, row.cfg
        );
        // Each send traces a `Submitted`; the frame it put on the wire
        // says which message it was.
        let mut frames = rig.tap.0[sent..]
            .iter()
            .filter_map(|(to, frame)| describe(*to, frame));
        let did: Vec<String> = rig.out.trace[traced..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Migration { pid, phase, .. } => {
                    Some(format!("{} {phase:?}", rig.who(*pid)))
                }
                TraceEvent::Submitted { .. } => Some(frames.next().expect("a frame per send")),
                _ => None,
            })
            .collect();
        assert_eq!(frames.next(), None, "{what}: a frame that no send traced");
        assert_eq!(rig.states(), row.after, "{what}: state after");
        assert_eq!(did, row.did, "{what}: phases traced and messages sent");
    }
}

/// The table has a row for every event each side's records can be handed,
/// in every state, with the right sender and context.
#[test]
fn the_table_covers_every_state_and_event() {
    let kind = |ev: Ev| match ev {
        Ev::Offer(_) => "Offer",
        Ev::Accept => "Accept",
        Ev::Reject(_) => "Reject",
        Ev::TransferComplete => "TransferComplete",
        Ev::CleanupDone => "CleanupDone",
        Ev::Abort(_) => "Abort",
        Ev::Done => "Done",
        Ev::Pulled(..) | Ev::GarbageImage => "Pulled",
        Ev::Timeout => "Timeout",
        Ev::PeerDead => "PeerDead",
    };
    let source = [
        "Accept",
        "Reject",
        "TransferComplete",
        "Abort",
        "Timeout",
        "PeerDead",
    ];
    let dest = ["Pulled", "CleanupDone", "Abort", "Timeout", "PeerDead"];
    let pairs = source.iter().map(|&ev| (None, ev));
    let pairs = pairs.chain(
        [PULLING_R, PULLING_S, PULLING_I, INSTALLED]
            .into_iter()
            .flat_map(|state| dest.iter().map(move |&ev| (state, ev))),
    );
    let missing: Vec<String> = pairs
        .filter(|&(state, ev)| {
            !TABLE.iter().any(|row| {
                let at = match state {
                    None => row.out && row.inc.is_none(),
                    Some(_) => !row.out && row.inc == state,
                };
                at && row.from == PEER && kind(row.ev) == ev
            })
        })
        .map(|(state, ev)| {
            format!(
                "{} × {ev}",
                state.map_or("Offered".into(), |s| format!("{s:?}"))
            )
        })
        .collect();
    assert!(missing.is_empty(), "pairs with no row: {missing:#?}");
}
