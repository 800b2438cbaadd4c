//! §2.4: "Links may be either in some process's link table or in a message
//! that is enroute to a process." Links riding inside messages that get
//! held and forwarded by a migration must still work at the destination —
//! capability passing survives relocation — and a program sees exactly
//! the links its message carried, in order, however the message came:
//! from its own machine, from another, or forwarded from a pending queue
//! in step 6. The kernel reuses link lists between messages, so a list
//! that kept a link of an earlier message would show here.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use demos_mp::kernel::{Carry, Ctx, Delivered, Program};
use demos_mp::sim::prelude::*;
use demos_mp::types::message::MAX_CARRIED_LINKS;
use demos_mp::types::{DemosError, LinkIdx};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

const HANDOFF: u16 = tags::USER_BASE + 20;
const POKE: u16 = tags::USER_BASE + 21;

/// On HANDOFF (carrying a link), immediately sends POKE over that link.
#[derive(Default)]
struct Introducee {
    pokes_sent: u64,
}

impl Program for Introducee {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type == HANDOFF {
            if let Some(&link) = msg.links.first() {
                if ctx.send(link, POKE, Bytes::new(), &[]).is_ok() {
                    self.pokes_sent += 1;
                }
            }
        }
    }
    fn save(&self) -> Vec<u8> {
        self.pokes_sent.to_be_bytes().to_vec()
    }
}

/// Counts POKEs.
#[derive(Default)]
struct Target {
    pokes: u64,
}

impl Program for Target {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type == POKE {
            self.pokes += 1;
        }
    }
    fn save(&self) -> Vec<u8> {
        self.pokes.to_be_bytes().to_vec()
    }
}

/// On GO, sends HANDOFF to the link in slot 0, carrying the link in slot 1.
#[derive(Default)]
struct Introducer {
    to: u32,
    carried: u32,
}

const GO: u16 = tags::USER_BASE + 22;

impl Program for Introducer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            x if x == wl::INIT && msg.links.len() >= 2 => {
                self.to = msg.links[0].0;
                self.carried = msg.links[1].0;
            }
            x if x == GO => {
                let _ = ctx.send(
                    LinkIdx(self.to),
                    HANDOFF,
                    Bytes::new(),
                    &[Carry::Move(LinkIdx(self.carried))],
                );
            }
            _ => {}
        }
    }
    fn save(&self) -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_u32(self.to);
        b.put_u32(self.carried);
        b.to_vec()
    }
}

fn saved(cluster: &Cluster, pid: ProcessId) -> Vec<u8> {
    let machine = cluster.where_is(pid).unwrap();
    let proc = cluster.node(machine).kernel.process(pid).unwrap();
    proc.program.as_ref().unwrap().save()
}

fn counter(cluster: &Cluster, pid: ProcessId) -> u64 {
    Bytes::from(saved(cluster, pid)).get_u64()
}

fn cluster() -> Cluster {
    ClusterBuilder::new(4)
        .register("introducee", |_| Box::<Introducee>::default())
        .register("target", |_| Box::<Target>::default())
        .register("introducer", |_| Box::<Introducer>::default())
        .register("relay", |_| Box::<Relay>::default())
        .register("recorder", |state| Box::new(Recorder::restore(state)))
        .build()
}

#[test]
fn carried_link_survives_hold_and_forward() {
    let mut cluster = cluster();

    // A (introducer, m0) will hand B (introducee, m1) a link to C (target, m2).
    let a = cluster
        .spawn(m(0), "introducer", &[0u8; 8], ImageLayout::default())
        .unwrap();
    let b = cluster
        .spawn(m(1), "introducee", &[0u8; 8], ImageLayout::default())
        .unwrap();
    let c = cluster
        .spawn(m(2), "target", &[0u8; 8], ImageLayout::default())
        .unwrap();
    let lb = cluster.link_to(b).unwrap();
    let lc = cluster.link_to(c).unwrap();
    cluster
        .post(a, wl::INIT, Bytes::new(), vec![lb, lc])
        .unwrap();
    cluster.run_for(Duration::from_millis(20));

    // Freeze B by starting its migration, then fire the handoff so the
    // HANDOFF message (with the link to C inside) lands on B's in-migration
    // queue and is forwarded in step 6.
    cluster.migrate(b, m(3)).unwrap();
    cluster.post(a, GO, Bytes::new(), vec![]).unwrap();
    cluster.run_for(Duration::from_millis(600));

    assert_eq!(cluster.where_is(b), Some(m(3)), "B migrated");
    assert_eq!(
        counter(&cluster, b),
        1,
        "B received the handoff at its new home and used the link"
    );
    assert_eq!(
        counter(&cluster, c),
        1,
        "the carried link worked from the new location"
    );
}

#[test]
fn carried_link_to_a_migrated_target_still_resolves() {
    // The link handed over names C at its OLD machine; C migrates before
    // the link is ever used. First use is forwarded, then updated.
    let mut cluster = cluster();
    let a = cluster
        .spawn(m(0), "introducer", &[0u8; 8], ImageLayout::default())
        .unwrap();
    let b = cluster
        .spawn(m(1), "introducee", &[0u8; 8], ImageLayout::default())
        .unwrap();
    let c = cluster
        .spawn(m(2), "target", &[0u8; 8], ImageLayout::default())
        .unwrap();
    let lb = cluster.link_to(b).unwrap();
    let lc = cluster.link_to(c).unwrap();
    cluster
        .post(a, wl::INIT, Bytes::new(), vec![lb, lc])
        .unwrap();
    cluster.run_for(Duration::from_millis(20));

    // C moves away; A's stored link (and the one it will hand over) is now
    // stale. Context independence (§2.1) says it must still work.
    cluster.migrate(c, m(3)).unwrap();
    cluster.run_for(Duration::from_millis(500));
    cluster.post(a, GO, Bytes::new(), vec![]).unwrap();
    cluster.run_for(Duration::from_millis(300));

    assert_eq!(
        counter(&cluster, c),
        1,
        "poke reached C at its new home via forwarding"
    );
    assert!(cluster.trace().forwards_for(c) >= 1);
    // And B's copy of the link got patched by the update.
    let bm = cluster.where_is(b).unwrap();
    let bp = cluster.node(bm).kernel.process(b).unwrap();
    for (_, l) in bp.links.iter().filter(|(_, l)| l.target() == c) {
        assert_eq!(l.addr.last_known_machine, m(3));
    }
}

// ----------------------------------------------------------------------
// Exactly the links each message carried
// ----------------------------------------------------------------------

const PASS: u16 = tags::USER_BASE + 23;

/// On INIT keeps the link it carries; on PASS sends PASS over it, moving
/// every link the message carried, in order.
#[derive(Default)]
struct Relay {
    to: Option<LinkIdx>,
}

impl Program for Relay {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match (msg.msg_type, self.to) {
            (wl::INIT, None) => self.to = msg.links.first().copied(),
            (PASS, Some(to)) => {
                let carry: Vec<Carry> = msg.links.iter().map(|&l| Carry::Move(l)).collect();
                ctx.send(to, PASS, Bytes::new(), &carry).expect("relayed");
            }
            _ => {}
        }
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Logs the `local_uid` each PASS message's links point at, message by
/// message; the log is its state, so it follows a migration.
#[derive(Default)]
struct Recorder {
    log: Vec<Vec<u32>>,
}

impl Recorder {
    fn restore(mut state: &[u8]) -> Self {
        let mut log = Vec::new();
        while state.has_remaining() {
            let n = state.get_u8();
            log.push((0..n).map(|_| state.get_u32()).collect());
        }
        Recorder { log }
    }
}

impl Program for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type == PASS {
            let uids = msg.links.iter().map(|&l| ctx.link(l).expect("installed"));
            self.log.push(uids.map(|l| l.target().local_uid).collect());
        }
    }
    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        for uids in &self.log {
            b.put_u8(uids.len() as u8);
            uids.iter().for_each(|&uid| b.put_u32(uid));
        }
        b
    }
}

fn log_of(cluster: &Cluster, pid: ProcessId) -> Vec<Vec<u32>> {
    Recorder::restore(&saved(cluster, pid)).log
}

/// `n` links, each to a process no other link of the test names.
fn links(first_uid: u32, n: usize) -> Vec<Link> {
    let pid = |local_uid| ProcessId {
        creating_machine: m(3),
        local_uid,
    };
    let uids = first_uid..first_uid + n as u32;
    uids.map(|uid| Link::to(pid(uid).at(m(3)))).collect()
}

#[test]
fn a_program_sees_exactly_the_links_its_message_carried() {
    let mut cluster = cluster();
    let rx = cluster
        .spawn(m(1), "recorder", &[], ImageLayout::default())
        .unwrap();
    // One relay beside the recorder, one on another machine.
    let near = cluster
        .spawn(m(1), "relay", &[], ImageLayout::default())
        .unwrap();
    let far = cluster
        .spawn(m(0), "relay", &[], ImageLayout::default())
        .unwrap();
    for relay in [near, far] {
        let to = cluster.link_to(rx).unwrap();
        cluster
            .post(relay, wl::INIT, Bytes::new(), vec![to])
            .unwrap();
    }
    cluster.run_for(Duration::from_millis(5));

    // Each round sends messages of 2, 0, 1, 16 and 1 links, every link to
    // a uid of its own.
    let counts = [2, 0, 1, MAX_CARRIED_LINKS, 1];
    let mut expect: Vec<Vec<u32>> = Vec::new();
    let mut round = |cluster: &mut Cluster, relay: ProcessId, base: u32| {
        for (k, &n) in counts.iter().enumerate() {
            let first = base + 100 * k as u32;
            let carried = links(first, n);
            cluster.post(relay, PASS, Bytes::new(), carried).unwrap();
            expect.push((first..first + n as u32).collect());
        }
        expect.clone()
    };

    // Local: relay and recorder share a machine.
    let want = round(&mut cluster, near, 1_000);
    cluster.run_for(Duration::from_millis(20));
    assert_eq!(log_of(&cluster, rx), want, "local");

    // Remote: every message crosses the wire.
    let want = round(&mut cluster, far, 2_000);
    cluster.run_for(Duration::from_millis(20));
    assert_eq!(log_of(&cluster, rx), want, "remote");

    // Pending: the recorder is frozen for migration when the relay's
    // messages reach it; step 6 forwards all five to its new home.
    let want = round(&mut cluster, near, 3_000);
    cluster.migrate(rx, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(600));
    assert_eq!(cluster.where_is(rx), Some(m(2)), "migrated");
    let held = cluster.node(m(1)).engine.stats().pending_forwarded;
    assert_eq!(
        held,
        counts.len() as u64,
        "every message waited on the queue"
    );
    assert_eq!(log_of(&cluster, rx), want, "forwarded in step 6");
}

#[test]
fn a_post_carries_at_most_the_limit_across_a_migration() {
    let mut cluster = cluster();
    let rx = cluster
        .spawn(m(1), "recorder", &[], ImageLayout::default())
        .unwrap();
    cluster.run_for(Duration::from_millis(5));
    cluster.migrate(rx, m(2)).unwrap();

    // One link more than a message can carry could not follow the process
    // over the wire in step 6: refused, not lost.
    let over = cluster.post(rx, PASS, Bytes::new(), links(1, MAX_CARRIED_LINKS + 1));
    assert!(
        matches!(over, Err(DemosError::TooLarge { len, max, .. })
            if len == MAX_CARRIED_LINKS + 1 && max == MAX_CARRIED_LINKS),
        "{over:?}"
    );
    cluster
        .post(rx, PASS, Bytes::new(), links(1, MAX_CARRIED_LINKS))
        .unwrap();
    cluster.run_for(Duration::from_millis(600));
    assert_eq!(cluster.where_is(rx), Some(m(2)), "migrated");
    assert_eq!(cluster.node(m(1)).engine.stats().pending_forwarded, 1);
    let all: Vec<u32> = (1..=MAX_CARRIED_LINKS as u32).collect();
    assert_eq!(log_of(&cluster, rx), vec![all]);
}
