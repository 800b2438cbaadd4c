//! The migration engine's handlers are total: any message, in any state,
//! from anyone, maps to a defined transition — never a panic, never a
//! leak.
//!
//! Driven like `crates/core/tests/duplicate_offer.rs` (whose case is one
//! row here, so tier-1 fails when that crate-level gate would): a real
//! `Kernel` and `MigrationEngine`, a physical layer that swallows frames.
//! The machine under test has an incoming record in each destination
//! phase (or none) and an outgoing record (or none). The two share their
//! context number and their peer, the worst case for telling them apart.
//! It is then fed
//!
//! * every `MigrateMsg` variant, addressed with the right and a wrong
//!   sender, context and pid;
//! * pull completions for every stage, in every phase, succeeded and
//!   failed, with a stage's real bytes and with garbage;
//! * truncated and arbitrary payloads under `tags::MIGRATE` and
//!   `tags::KERNEL_OP`, and a message under a tag the engine does not own.
//!
//! After the timeout every run must end with nothing in flight, nothing
//! frozen and `mem_used` equal to the images actually resident — no
//! stranded reservation, no double-counted install.

use std::sync::Arc;

use bytes::Bytes;
use demos_mp::core::{MigrationConfig, MigrationEngine};
use demos_mp::kernel::{ImageLayout, Kernel, KernelConfig, KernelPullDone, Outbox, Registry};
use demos_mp::net::{Frame, Phys};
use demos_mp::sim::programs::{self, Cargo};
use demos_mp::types::proto::{KernelOp, MigrateMsg, RejectReason};
use demos_mp::types::wire::Wire;
use demos_mp::types::{
    tags, CorrId, MachineId, Message, MsgFlags, MsgHeader, ProcessAddress, ProcessId, Time,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The peer: source of the incoming migration, destination of the outgoing.
const PEER: MachineId = MachineId(0);
/// The machine under test.
const HERE: MachineId = MachineId(1);
/// A machine party to neither migration.
const STRANGER: MachineId = MachineId(2);
/// The context of both records (the peer's counter and ours both start
/// at 1), and one that names neither.
const CTX: u16 = 1;
const NO_CTX: u16 = 999;

struct Sink;

impl Phys for Sink {
    fn transmit(&mut self, _now: Time, _src: MachineId, _dst: MachineId, _frame: Frame) {}
}

/// Where the incoming record stands when the input arrives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Incoming {
    None,
    PullingResident,
    PullingSwappable,
    PullingImage,
    Installed,
}

const INCOMING: [Incoming; 5] = [
    Incoming::None,
    Incoming::PullingResident,
    Incoming::PullingSwappable,
    Incoming::PullingImage,
    Incoming::Installed,
];

/// The three state blobs of a real frozen process, as the pulls would
/// deliver them.
struct Blobs {
    pid: ProcessId,
    stages: [Vec<u8>; 3],
}

fn registry() -> Arc<Registry> {
    programs::registry().into_shared()
}

fn spawn_cargo(kernel: &mut Kernel) -> ProcessId {
    let state = Cargo::state(3 * 1024);
    let layout = ImageLayout::default();
    kernel
        .spawn(
            Time::ZERO,
            "cargo",
            &state,
            layout,
            false,
            &mut Outbox::default(),
        )
        .expect("spawn cargo")
}

fn blobs() -> Blobs {
    let mut kernel = Kernel::new(PEER, KernelConfig::default(), registry());
    let pid = spawn_cargo(&mut kernel);
    kernel
        .freeze_for_migration(Time::ZERO, pid, &mut Sink, &mut Outbox::default())
        .expect("freeze");
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
fn cookie(src: MachineId, ctx: u16, stage: u64) -> u64 {
    (u64::from(src.0) << 32) | (u64::from(ctx) << 8) | stage
}

fn message(from: MachineId, dest: ProcessAddress, msg_type: u16, payload: Bytes) -> Message {
    Message {
        header: MsgHeader {
            dest,
            src: ProcessId::kernel_of(from),
            src_machine: from,
            msg_type,
            flags: MsgFlags::FROM_KERNEL,
            hops: 0,
        },
        links: vec![],
        payload,
        corr: CorrId::NONE,
    }
}

struct Rig {
    kernel: Kernel,
    engine: MigrationEngine,
    out: Outbox,
    /// The process of the outgoing record, if the rig has one.
    local: Option<ProcessId>,
    what: String,
}

impl Rig {
    fn new(incoming: Incoming, outgoing: bool, blobs: &Blobs) -> Rig {
        let mut rig = Rig {
            kernel: Kernel::new(HERE, KernelConfig::default(), registry()),
            engine: MigrationEngine::new(HERE, MigrationConfig::default()),
            out: Outbox::default(),
            local: None,
            what: format!("incoming {incoming:?}, outgoing {outgoing}"),
        };
        if outgoing {
            let pid = spawn_cargo(&mut rig.kernel);
            rig.engine
                .start_migration(
                    Time::ZERO,
                    &mut rig.kernel,
                    pid,
                    PEER,
                    None,
                    &mut Sink,
                    &mut rig.out,
                )
                .expect("start the outgoing migration");
            rig.local = Some(pid);
        }
        if incoming != Incoming::None {
            let [resident, swappable, image] = &blobs.stages;
            rig.migrate(
                PEER,
                MigrateMsg::Offer {
                    ctx: CTX,
                    pid: blobs.pid,
                    resident_len: resident.len() as u16,
                    swappable_len: swappable.len() as u16,
                    image_len: image.len() as u32,
                },
            );
            let pulled = INCOMING.iter().position(|&p| p == incoming).unwrap() - 1;
            for (stage, data) in blobs.stages.iter().enumerate().take(pulled) {
                rig.pull_done(cookie(PEER, CTX, stage as u64), 0, data.clone());
            }
            let held = rig.kernel.process(blobs.pid).is_some();
            assert_eq!(held, incoming == Incoming::Installed, "{}", rig.what);
        }
        assert_eq!(
            rig.engine.in_flight(),
            usize::from(outgoing) + usize::from(incoming != Incoming::None),
            "{}",
            rig.what
        );
        rig
    }

    fn handle(&mut self, msg: Message) {
        self.engine
            .handle(Time::ZERO, &mut self.kernel, msg, &mut Sink, &mut self.out);
    }

    fn migrate(&mut self, from: MachineId, m: MigrateMsg) {
        self.migrate_bytes(from, m.to_bytes());
    }

    fn migrate_bytes(&mut self, from: MachineId, payload: Bytes) {
        let dest = ProcessAddress::kernel_of(HERE);
        self.handle(message(from, dest, tags::MIGRATE, payload));
    }

    fn pull_done(&mut self, cookie: u64, status: u8, data: Vec<u8>) {
        let done = KernelPullDone {
            cookie,
            op: 0,
            data,
            status,
        };
        self.engine
            .on_pull_done(Time::ZERO, &mut self.kernel, done, &mut Sink, &mut self.out);
    }

    /// `mem_used` against the images actually resident.
    fn assert_memory_accounted(&self, input: &str) {
        let resident: u64 = self
            .kernel
            .pids()
            .filter_map(|pid| self.kernel.process(pid))
            .map(|p| p.image.total_len() as u64)
            .sum();
        assert_eq!(
            self.kernel.mem_used(),
            resident,
            "{}, after {input}: a reservation is stranded or an install double-counted",
            self.what
        );
    }

    /// Let every record that is still live time out, then hold the
    /// machine to "nothing in flight, nothing frozen, nothing leaked".
    fn settle(mut self, input: &str) {
        let late = Time::ZERO + MigrationConfig::default().timeout;
        self.engine
            .on_time(late, &mut self.kernel, &mut Sink, &mut self.out);
        assert_eq!(
            self.engine.in_flight(),
            0,
            "{}, after {input}: a record outlived the timeout",
            self.what
        );
        for pid in self.kernel.pids() {
            let frozen = self.kernel.process(pid).is_some_and(|p| p.in_migration);
            assert!(
                !frozen,
                "{}, after {input}: {pid:?} is left frozen",
                self.what
            );
        }
        self.assert_memory_accounted(input);
    }
}

fn other_pid() -> ProcessId {
    ProcessId {
        creating_machine: STRANGER,
        local_uid: 77,
    }
}

fn offer(ctx: u16, pid: ProcessId) -> MigrateMsg {
    MigrateMsg::Offer {
        ctx,
        pid,
        resident_len: 250,
        swappable_len: 600,
        image_len: 4096,
    }
}

fn cleanup_done() -> MigrateMsg {
    MigrateMsg::CleanupDone {
        ctx: CTX,
        forwarded: 0,
    }
}

/// Every variant, with the given addressing.
fn all_messages(ctx: u16, pid: ProcessId) -> Vec<MigrateMsg> {
    let mut msgs = vec![
        offer(ctx, pid),
        MigrateMsg::Accept {
            ctx,
            slot: 1,
            window: 1024,
        },
        MigrateMsg::TransferComplete {
            ctx,
            received: 4946,
        },
        MigrateMsg::CleanupDone { ctx, forwarded: 0 },
        MigrateMsg::Abort { ctx, pid },
        MigrateMsg::Done {
            pid,
            dest: HERE,
            status: 0,
        },
    ];
    for reason in [
        RejectReason::Capacity,
        RejectReason::Policy,
        RejectReason::DuplicatePid,
        RejectReason::Protocol,
    ] {
        msgs.push(MigrateMsg::Reject { ctx, pid, reason });
    }
    msgs
}

#[test]
fn every_message_in_every_state_settles_clean() {
    let blobs = blobs();
    let mut runs = 0;
    for incoming in INCOMING {
        for outgoing in [false, true] {
            let probe = Rig::new(incoming, outgoing, &blobs);
            let pids = [Some(blobs.pid), probe.local, Some(other_pid())];
            for pid in pids.into_iter().flatten() {
                for (from, ctx) in [
                    (PEER, CTX),
                    (STRANGER, CTX),
                    (PEER, NO_CTX),
                    (STRANGER, NO_CTX),
                ] {
                    for m in all_messages(ctx, pid) {
                        let input = format!("{m:?} from {from:?}");
                        let mut rig = Rig::new(incoming, outgoing, &blobs);
                        rig.migrate(from, m);
                        rig.settle(&input);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert!(runs >= 1000, "the whole matrix ran ({runs} runs)");
}

/// The duplicate-offer row (`crates/core/tests/duplicate_offer.rs`): an
/// offer reusing a live `(source, context)` pair is refused, whatever the
/// phase of the record it would have overwritten, and reserves nothing.
#[test]
fn an_offer_reusing_a_live_context_is_rejected_and_reserves_nothing() {
    let blobs = blobs();
    for incoming in INCOMING.into_iter().skip(1) {
        let mut rig = Rig::new(incoming, false, &blobs);
        let before = rig.kernel.mem_used();
        rig.migrate(PEER, offer(CTX, other_pid()));
        assert_eq!(rig.engine.stats().rejected, 1, "{}", rig.what);
        assert_eq!(rig.engine.in_flight(), 1, "{}", rig.what);
        assert_eq!(rig.kernel.mem_used(), before, "{}", rig.what);
        rig.settle("a duplicate offer");
    }
}

#[test]
fn every_pull_completion_in_every_phase_settles_clean() {
    let blobs = blobs();
    for incoming in INCOMING {
        for outgoing in [false, true] {
            for (src, ctx) in [(PEER, CTX), (STRANGER, CTX), (PEER, NO_CTX)] {
                // Stage byte 7 is not a stage the engine ever asks for.
                for stage in [0u64, 1, 2, 7] {
                    for status in [0u8, 3] {
                        let real = blobs.stages[(stage as usize).min(2)].clone();
                        for data in [real, vec![0xEE; 40], Vec::new()] {
                            let input = format!(
                                "pull done: stage {stage} of ({src:?}, {ctx}), status {status}, {} byte(s)",
                                data.len()
                            );
                            let mut rig = Rig::new(incoming, outgoing, &blobs);
                            rig.pull_done(cookie(src, ctx, stage), status, data);
                            rig.settle(&input);
                        }
                    }
                }
            }
        }
    }
}

/// Trap: a second `Image` completion after the install used to install
/// again, counting the image twice in `mem_used`.
#[test]
fn a_pull_completion_after_the_install_changes_nothing() {
    let blobs = blobs();
    let mut rig = Rig::new(Incoming::Installed, false, &blobs);
    let before = rig.kernel.mem_used();
    rig.pull_done(cookie(PEER, CTX, 2), 0, blobs.stages[2].clone());
    assert_eq!(rig.kernel.mem_used(), before, "no second install");
    assert_eq!(rig.engine.in_flight(), 1, "the record still awaits cleanup");
    rig.migrate(PEER, cleanup_done());
    assert_eq!(rig.engine.stats().completed_in, 1, "and still commits");
    rig.settle("a second image completion, then cleanup");
}

/// Trap: `CleanupDone` for a record with nothing installed used to drop
/// the record and strand its reservation.
#[test]
fn cleanup_done_before_the_install_fails_the_record() {
    let blobs = blobs();
    for incoming in [
        Incoming::PullingResident,
        Incoming::PullingSwappable,
        Incoming::PullingImage,
    ] {
        let mut rig = Rig::new(incoming, false, &blobs);
        rig.migrate(PEER, cleanup_done());
        assert_eq!(rig.engine.in_flight(), 0, "{}", rig.what);
        assert_eq!(rig.engine.stats().aborted, 1, "{}", rig.what);
        assert_eq!(rig.kernel.mem_used(), 0, "{}: reservation freed", rig.what);
        rig.settle("an early CleanupDone");
    }
}

#[test]
fn truncated_and_arbitrary_payloads_never_panic_or_leak() {
    let blobs = blobs();
    for incoming in INCOMING {
        for outgoing in [false, true] {
            let mut rig = Rig::new(incoming, outgoing, &blobs);
            let local = rig.local.unwrap_or_else(other_pid);
            let mut payloads: Vec<Bytes> = Vec::new();
            // Every strict prefix of every well-formed message and op.
            let mut whole: Vec<Bytes> = all_messages(CTX, blobs.pid)
                .iter()
                .map(Wire::to_bytes)
                .collect();
            let request = KernelOp::MigrateRequest {
                dest: PEER,
                flags: 0,
            };
            whole.push(request.to_bytes());
            whole.push(KernelOp::Kill.to_bytes());
            for bytes in &whole {
                payloads.extend((0..bytes.len()).map(|n| bytes.slice(..n)));
            }
            let mut rng = StdRng::seed_from_u64(1983);
            for _ in 0..300 {
                let len = rng.gen_range(0..24);
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                payloads.push(Bytes::from(bytes));
            }
            payloads.extend(whole);
            for payload in payloads {
                for from in [PEER, STRANGER] {
                    rig.migrate_bytes(from, payload.clone());
                    // A control op is addressed to a process: ours, or
                    // one this machine has never heard of.
                    for pid in [local, other_pid()] {
                        let dest = ProcessAddress {
                            last_known_machine: HERE,
                            pid,
                        };
                        rig.handle(message(from, dest, tags::KERNEL_OP, payload.clone()));
                    }
                }
            }
            // A tag the engine does not own is not its message to parse.
            let dest = ProcessAddress::kernel_of(HERE);
            let abort = MigrateMsg::Abort {
                ctx: CTX,
                pid: blobs.pid,
            };
            let before = rig.engine.in_flight();
            rig.handle(message(PEER, dest, tags::MOVE_DATA, abort.to_bytes()));
            assert_eq!(rig.engine.in_flight(), before, "{}", rig.what);
            rig.settle("the garbage sweep");
        }
    }
}
