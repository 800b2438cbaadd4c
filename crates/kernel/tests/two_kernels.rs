//! Kernel-level integration: two kernels driven directly by a minimal
//! frame pump (no simulator) — pinning the delivery-system semantics of
//! §2.2 and §4 at the lowest level they exist.

use bytes::Bytes;
use demos_kernel::{
    local_tags, Carry, Ctx, Delivered, ImageLayout, Kernel, KernelConfig, Outbox, Program, Registry,
};
use demos_net::{Frame, Phys};
use demos_types::proto::{KernelOp, LinkMaintMsg};
use demos_types::wire::Wire;
use demos_types::{
    tags, Link, LinkAttrs, MachineId, Message, MsgFlags, MsgHeader, ProcessId, Time,
};
use std::sync::Arc;

/// In-memory physical layer collecting frames per destination.
#[derive(Default)]
struct Pump {
    queues: Vec<Vec<(MachineId, Frame)>>,
}

impl Pump {
    fn new(n: usize) -> Self {
        Pump {
            queues: (0..n).map(|_| Vec::new()).collect(),
        }
    }
}

impl Phys for Pump {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        self.queues[dst.0 as usize].push((src, frame));
    }
}

/// A recorder program: remembers every (type, payload byte 0) it sees.
#[derive(Default)]
struct Recorder {
    seen: Vec<(u16, u8)>,
}

impl Program for Recorder {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Delivered) {
        self.seen
            .push((msg.msg_type, msg.payload.first().copied().unwrap_or(0xFF)));
    }
    fn save(&self) -> Vec<u8> {
        let mut v = Vec::new();
        for (t, b) in &self.seen {
            v.extend_from_slice(&t.to_be_bytes());
            v.push(*b);
        }
        v
    }
}

/// A responder: replies over the carried reply link, echoing payload+1.
#[derive(Default)]
struct Responder;

impl Program for Responder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if let Some(reply) = msg.reply() {
            let v = msg.payload.first().copied().unwrap_or(0).wrapping_add(1);
            let _ = ctx.send(reply, msg.msg_type, Bytes::from(vec![v]), &[]);
        }
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// A requester: on INIT sends one request with a reply link over links[0].
#[derive(Default)]
struct Requester {
    reply_payload: u8,
    replied: bool,
}

impl Program for Requester {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        const INIT: u16 = tags::USER_BASE;
        if msg.msg_type == INIT {
            if let Some(&server) = msg.links.first() {
                let _ = ctx.send(
                    server,
                    tags::USER_BASE + 2,
                    Bytes::from_static(&[5]),
                    &[Carry::New(LinkAttrs::REPLY)],
                );
            }
        } else {
            self.reply_payload = msg.payload.first().copied().unwrap_or(0);
            self.replied = true;
        }
    }
    fn save(&self) -> Vec<u8> {
        vec![self.reply_payload, self.replied as u8]
    }
}

fn registry() -> Arc<Registry> {
    let mut r = Registry::new();
    r.register("recorder", |_| Box::<Recorder>::default());
    r.register("responder", |_| Box::<Responder>::default());
    r.register("requester", |_| Box::<Requester>::default());
    r.into_shared()
}

fn m(i: u16) -> MachineId {
    MachineId(i)
}

/// Pump frames and run kernels until quiescent.
fn settle(kernels: &mut [Kernel], pump: &mut Pump, out: &mut Outbox) {
    for _round in 0..1000 {
        let mut progressed = false;
        for (i, kernel) in kernels.iter_mut().enumerate() {
            for (src, f) in std::mem::take(&mut pump.queues[i]) {
                kernel.on_frame(Time(1000), src, f, pump, out);
                progressed = true;
            }
            while kernel.run_next(Time(1000), pump, out).is_some() {
                progressed = true;
            }
        }
        if !progressed {
            return;
        }
    }
    panic!("did not settle");
}

fn kernel_msg(
    from: MachineId,
    dest: Link,
    msg_type: u16,
    payload: Bytes,
    links: Vec<Link>,
) -> Message {
    let mut flags = MsgFlags::FROM_KERNEL;
    if dest.is_dtk() {
        flags = flags | MsgFlags::DELIVER_TO_KERNEL;
    }
    Message {
        header: MsgHeader {
            dest: dest.addr,
            src: ProcessId::kernel_of(from),
            src_machine: from,
            msg_type,
            flags,
            hops: 0,
        },
        links,
        payload,
        corr: demos_types::CorrId::NONE,
    }
}

#[test]
fn request_reply_across_kernels() {
    let reg = registry();
    let mut kernels = vec![
        Kernel::new(m(0), KernelConfig::default(), Arc::clone(&reg)),
        Kernel::new(m(1), KernelConfig::default(), reg),
    ];
    let mut pump = Pump::new(2);
    let mut out = Outbox::default();
    let server = kernels[1]
        .spawn(
            Time(0),
            "responder",
            &[],
            ImageLayout::default(),
            false,
            &mut out,
        )
        .unwrap();
    let client = kernels[0]
        .spawn(
            Time(0),
            "requester",
            &[],
            ImageLayout::default(),
            false,
            &mut out,
        )
        .unwrap();
    let init = kernel_msg(
        m(0),
        Link::to(client.at(m(0))),
        tags::USER_BASE,
        Bytes::new(),
        vec![Link::to(server.at(m(1)))],
    );
    kernels[0].submit(Time(0), init, &mut pump, &mut out);
    settle(&mut kernels, &mut pump, &mut out);
    let state = kernels[0]
        .process(client)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    assert_eq!(
        state,
        vec![6, 1],
        "reply 5+1 arrived over the one-shot reply link"
    );
}

#[test]
fn dtk_message_received_by_kernel_not_program() {
    let reg = registry();
    let mut kernels = [Kernel::new(m(0), KernelConfig::default(), reg)];
    let mut pump = Pump::new(1);
    let mut out = Outbox::default();
    let pid = kernels[0]
        .spawn(
            Time(0),
            "recorder",
            &[],
            ImageLayout::default(),
            false,
            &mut out,
        )
        .unwrap();
    // A DTK Suspend: the kernel must act on it; the program never sees it.
    let dtk = kernel_msg(
        m(0),
        Link::deliver_to_kernel(pid.at(m(0))),
        tags::KERNEL_OP,
        KernelOp::Suspend.to_bytes(),
        vec![],
    );
    kernels[0].submit(Time(0), dtk, &mut pump, &mut out);
    settle(&mut kernels, &mut pump, &mut out);
    let proc = kernels[0].process(pid).unwrap();
    assert_eq!(proc.status, demos_kernel::ExecStatus::Suspended);
    assert!(
        proc.program.as_ref().unwrap().save().is_empty(),
        "program saw nothing"
    );
    assert_eq!(kernels[0].stats().kernel_received, 1);
}

#[test]
fn stale_hint_still_delivers_locally_by_pid() {
    // §3.1's delivery rule: "the normal message delivery system tries to
    // find a process when a message arrives for it" — a wrong hint for a
    // local process must not bounce the message around.
    let reg = registry();
    let mut kernels = [Kernel::new(m(0), KernelConfig::default(), reg)];
    let mut pump = Pump::new(1);
    let mut out = Outbox::default();
    let pid = kernels[0]
        .spawn(
            Time(0),
            "recorder",
            &[],
            ImageLayout::default(),
            false,
            &mut out,
        )
        .unwrap();
    // Hint says machine 7; process is right here.
    let msg = kernel_msg(
        m(0),
        Link::to(pid.at(MachineId(7))),
        tags::USER_BASE + 3,
        Bytes::from_static(&[9]),
        vec![],
    );
    kernels[0].submit(Time(0), msg, &mut pump, &mut out);
    settle(&mut kernels, &mut pump, &mut out);
    let state = kernels[0]
        .process(pid)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    assert_eq!(
        state.len(),
        3,
        "one message recorded despite the stale hint"
    );
    assert_eq!(
        kernels[0].stats().transmitted,
        0,
        "never touched the network"
    );
}

#[test]
fn nondeliverable_roundtrip_between_kernels() {
    let reg = registry();
    let mut kernels = vec![
        Kernel::new(m(0), KernelConfig::default(), Arc::clone(&reg)),
        Kernel::new(m(1), KernelConfig::default(), reg),
    ];
    let mut pump = Pump::new(2);
    let mut out = Outbox::default();
    let sender = kernels[0]
        .spawn(
            Time(0),
            "requester",
            &[],
            ImageLayout::default(),
            false,
            &mut out,
        )
        .unwrap();
    // Point the requester at a process that does not exist on m1.
    let ghost = ProcessId {
        creating_machine: m(1),
        local_uid: 42,
    };
    let init = kernel_msg(
        m(0),
        Link::to(sender.at(m(0))),
        tags::USER_BASE,
        Bytes::new(),
        vec![Link::to(ghost.at(m(1)))],
    );
    kernels[0].submit(Time(0), init, &mut pump, &mut out);
    settle(&mut kernels, &mut pump, &mut out);
    // m1 generated a non-deliverable notice; m0's kernel marked the link
    // dead and told the program.
    assert_eq!(kernels[1].stats().nondeliverable, 1);
    let proc = kernels[0].process(sender).unwrap();
    let dead = proc
        .links
        .iter()
        .filter(|(_, l)| l.target() == ghost)
        .all(|(_, l)| {
            l.attrs
                .contains(<LinkAttrs as demos_kernel::LinkAttrsExt>::DEAD)
        });
    assert!(dead);
    // The program received the informational notice.
    let state = proc.program.as_ref().unwrap().save();
    assert_eq!(state[1], 1, "program notified");
}

#[test]
fn link_update_applied_to_sender_table() {
    let reg = registry();
    let mut kernels = [Kernel::new(m(0), KernelConfig::default(), reg)];
    let mut pump = Pump::new(1);
    let mut out = Outbox::default();
    let pid = kernels[0]
        .spawn(
            Time(0),
            "recorder",
            &[],
            ImageLayout::default(),
            false,
            &mut out,
        )
        .unwrap();
    let target = ProcessId {
        creating_machine: m(2),
        local_uid: 9,
    };
    kernels[0]
        .install_link(pid, Link::to(target.at(m(2))))
        .unwrap();
    // A LinkUpdate arrives claiming the target moved to m3.
    let update = Message {
        header: MsgHeader {
            dest: demos_types::ProcessAddress::kernel_of(m(0)),
            src: ProcessId::kernel_of(m(2)),
            src_machine: m(2),
            msg_type: tags::LINK_MAINT,
            flags: MsgFlags::FROM_KERNEL,
            hops: 0,
        },
        links: vec![],
        payload: LinkMaintMsg::LinkUpdate {
            sender: pid,
            migrated: target,
            new_machine: m(3),
        }
        .to_bytes(),
        corr: demos_types::CorrId::NONE,
    };
    kernels[0].submit(Time(0), update, &mut pump, &mut out);
    let proc = kernels[0].process(pid).unwrap();
    for (_, l) in proc.links.iter().filter(|(_, l)| l.target() == target) {
        assert_eq!(l.addr.last_known_machine, m(3));
    }
    assert_eq!(kernels[0].stats().links_patched, 1);
}

#[test]
fn remote_create_process_via_mgmt() {
    let reg = registry();
    let mut kernels = vec![
        Kernel::new(m(0), KernelConfig::default(), Arc::clone(&reg)),
        Kernel::new(m(1), KernelConfig::default(), reg),
    ];
    let mut pump = Pump::new(2);
    let mut out = Outbox::default();
    // A recorder on m0 acts as the "process manager" reply sink.
    let pm = kernels[0]
        .spawn(
            Time(0),
            "recorder",
            &[],
            ImageLayout::default(),
            true,
            &mut out,
        )
        .unwrap();
    let req = demos_kernel::mgmt::KernelMgmt::CreateProcess {
        token: 9,
        name: "recorder".into(),
        state: Bytes::new(),
        layout: ImageLayout::default(),
        privileged: false,
    };
    let msg = Message {
        header: MsgHeader {
            dest: demos_types::ProcessAddress::kernel_of(m(1)),
            src: pm,
            src_machine: m(0),
            msg_type: local_tags::KERNEL_MGMT,
            flags: MsgFlags::NONE,
            hops: 0,
        },
        links: vec![Link::to(pm.at(m(0)))],
        payload: req.to_bytes(),
        corr: demos_types::CorrId::NONE,
    };
    kernels[0].submit(Time(0), msg, &mut pump, &mut out);
    settle(&mut kernels, &mut pump, &mut out);
    assert_eq!(kernels[1].nprocs(), 1, "process created remotely");
    // The reply (with a link to the new process) reached the pm recorder.
    let state = kernels[0]
        .process(pm)
        .unwrap()
        .program
        .as_ref()
        .unwrap()
        .save();
    assert!(!state.is_empty(), "Created reply delivered");
    let proc = kernels[0].process(pm).unwrap();
    assert!(proc
        .links
        .iter()
        .any(|(_, l)| l.addr.last_known_machine == m(1)));
}

/// Reservation slots are a wrapping 16-bit counter. A reservation still
/// live from the previous lap must keep its slot: handing the slot out
/// again overwrote the entry and orphaned its bytes in `mem_used`.
#[test]
fn a_wrapped_slot_counter_skips_a_live_reservation() {
    let mut k = Kernel::new(m(0), KernelConfig::default(), registry());
    let pid = |local_uid| ProcessId {
        creating_machine: m(1),
        local_uid,
    };
    let idle = k.mem_used();
    let held = k.reserve_incoming(pid(1), 4096).unwrap();
    // One full lap of short-lived reservations brings the counter back.
    for _ in 1..u16::MAX {
        let slot = k.reserve_incoming(pid(2), 512).unwrap();
        k.release_reservation(slot);
    }
    let second = k.reserve_incoming(pid(3), 512).unwrap();
    assert_ne!(second, held, "a live slot is not handed out twice");
    k.release_reservation(second);
    k.release_reservation(held);
    assert_eq!(k.mem_used(), idle, "both reservations release their bytes");
}
