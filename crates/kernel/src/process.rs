//! The process: image, state, link table, message queue (Figure 2-2).
//!
//! DEMOS/MP keeps a *concise process state*: "there is no process state
//! hidden in the various functional modules of the operating system" (§7).
//! Everything the destination kernel needs is in exactly three blobs,
//! matching the three data moves of §3.1 step 4–5 and the sizes §6 reports:
//!
//! * **resident (non-swappable) state** (~250 bytes): execution status,
//!   dispatch information (a saved register area), memory tables, timers,
//!   accounting;
//! * **swappable state** (~600 bytes, scaling with the link table): the
//!   link table, communication accounting, and message-queue header;
//! * the **memory image** (code + data + stack), dominating for
//!   non-trivial processes.
//!
//! The message queue itself is *not* part of the state: queued messages
//! are individually forwarded in migration step 6.

use std::collections::{BTreeMap, VecDeque};

use bytes::{Buf, BufMut, Bytes};
use demos_types::wire::{Wire, WireError};
use demos_types::{wire_enum, DemosError, Duration, MachineId, Message, ProcessId, Time};

use crate::image::{ImageLayout, ProcessImage};
use crate::linktable::LinkTable;
use crate::program::Program;

/// Scheduling status of a process. Deliberately *not* changed by
/// migration: "no change is made to the recorded state of the process …
/// since the process will (at least initially) be in the same state when
/// it reaches its destination processor" (§3.1 step 1). The in-migration
/// condition is a separate flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecStatus {
    /// Runnable: has messages (or a pending start) to process.
    Ready,
    /// Blocked waiting for a message.
    Waiting,
    /// Suspended by a control operation; not scheduled even if messages
    /// arrive.
    Suspended,
}

wire_enum! { ExecStatus: u8 {
    0 => Ready {},
    1 => Waiting {},
    2 => Suspended {},
} }

/// A pending timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerEntry {
    /// When it fires.
    pub at: Time,
    /// Token passed back to the program.
    pub token: u64,
}

/// One entry of a process's queue. A fired timer waits its turn among the
/// messages — same queue, same order, same count — but as the token
/// alone: it never leaves this kernel unless the process migrates with it
/// still queued, and only then is the `TIMER` message built that carries
/// it across (step 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Queued {
    /// A message awaiting the program (or, `DELIVERTOKERNEL` and held
    /// during a migration, the kernel).
    Message(Message),
    /// A fired timer's token, awaiting [`Program::on_timer`].
    Timer(u64),
}

/// Size of the simulated dispatch save area (register file, PSW, kernel
/// context) included in the resident state. The Z8000 context of the
/// original plus kernel bookkeeping; chosen so the resident state lands
/// near the paper's ~250 bytes.
pub const DISPATCH_SAVE_BYTES: usize = 128;

/// Simulated per-segment memory descriptors (base, limit, flags × 3
/// segments) in the resident state's memory tables.
pub const MEMORY_TABLE_BYTES: usize = 27;

/// Simulated I/O-port and kernel-stack context bytes in the resident state.
pub const KERNEL_CONTEXT_BYTES: usize = 40;

/// One process.
pub struct Process {
    /// Immutable system-wide identifier.
    pub pid: ProcessId,
    /// Scheduling status (preserved across migration).
    pub status: ExecStatus,
    /// Whether `on_start` has run.
    pub started: bool,
    /// Scheduling priority (lower runs first within a machine).
    pub priority: u8,
    /// System processes may use privileged kernel operations.
    pub privileged: bool,
    /// Currently being migrated: frozen for execution and normal kernel
    /// receives, while arriving messages accumulate in the queue (§3.1).
    pub in_migration: bool,
    /// Declared segment sizes.
    pub layout: ImageLayout,
    /// Memory image.
    pub image: ProcessImage,
    /// Link table (swappable state).
    pub links: LinkTable,
    /// Incoming queue: messages and fired timers, in arrival order.
    pub queue: VecDeque<Queued>,
    /// Pending timers, unordered (the kernel scans for due entries).
    pub timers: Vec<TimerEntry>,
    /// The running program. `None` transiently while a handler executes,
    /// or after the image arrived but before instantiation.
    pub program: Option<Box<dyn Program>>,
    /// Virtual CPU consumed.
    pub cpu_used: Duration,
    /// Messages handled.
    pub msgs_handled: u64,
    /// Bytes sent per destination machine (communication accounting for
    /// the affinity policy; part of the swappable state).
    pub bytes_sent_to: BTreeMap<MachineId, u64>,
    /// Creation time.
    pub created_at: Time,
    /// Machine this process most recently migrated from — the backward
    /// pointer along the migration path used for forwarding-address
    /// garbage collection (§4).
    pub migrated_from: Option<MachineId>,
    /// Completed migrations.
    pub migrations: u32,
    /// Scheduler bookkeeping: currently enqueued on the run queue
    /// (not process state; never serialized).
    pub in_runq: bool,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("status", &self.status)
            .field("in_migration", &self.in_migration)
            .field("links", &self.links.len())
            .field("queue", &self.queue.len())
            .finish()
    }
}

impl Process {
    /// Create a fresh process running `program` (registered as `name`).
    pub fn new(
        pid: ProcessId,
        name: &str,
        program: Box<dyn Program>,
        layout: ImageLayout,
        privileged: bool,
        now: Time,
    ) -> Self {
        let image = ProcessImage::build(name, &program.save(), layout);
        Process {
            pid,
            status: ExecStatus::Ready,
            started: false,
            priority: 100,
            privileged,
            in_migration: false,
            layout,
            image,
            links: LinkTable::new(),
            queue: VecDeque::new(),
            timers: Vec::new(),
            program: Some(program),
            cpu_used: Duration::ZERO,
            msgs_handled: 0,
            bytes_sent_to: BTreeMap::new(),
            created_at: now,
            migrated_from: None,
            migrations: 0,
            in_runq: false,
        }
    }

    /// Whether the scheduler may run this process now.
    pub fn runnable(&self) -> bool {
        !self.in_migration
            && self.status == ExecStatus::Ready
            && (self.program.is_some())
            && (!self.started || !self.queue.is_empty())
    }

    /// Re-serialize the program state into the data segment — done when
    /// the process is frozen for migration so the image bytes are current.
    pub fn refresh_image(&mut self) {
        if let Some(p) = &self.program {
            let min = self.layout.data as usize;
            self.image.store_state(&p.save(), min);
        }
    }

    /// The most links, timers or accounting entries a state record counts.
    const MAX_RECORD_COUNT: usize = u16::MAX as usize;

    /// The longest resident record a freeze or `Kernel::checkpoint`
    /// writes: what a reader of stored records has to accept.
    pub const MAX_RESIDENT_LEN: usize = Self::resident_len_of(Self::MAX_RECORD_COUNT);

    /// The longest swappable record either writes.
    pub const MAX_SWAPPABLE_LEN: usize =
        Self::swappable_len_of(Self::MAX_RECORD_COUNT, Self::MAX_RECORD_COUNT);

    /// The state records count links, timers and accounting entries in
    /// 16 bits each. A process with more of any cannot be described by
    /// one, so it is not frozen or checkpointed: it stays where it is,
    /// whole, rather than arriving with `count mod 65 536` of them.
    pub(crate) fn check_record_counts(&self) -> demos_types::Result<()> {
        let max = Self::MAX_RECORD_COUNT;
        for (what, len) in [
            ("link table", self.links.len()),
            ("timer list", self.timers.len()),
            ("communication accounting", self.bytes_sent_to.len()),
        ] {
            if len > max {
                return Err(DemosError::TooLarge { what, len, max });
            }
        }
        Ok(())
    }

    const fn resident_len_of(timers: usize) -> usize {
        // In record order, grouped as `from_migrated` checks them: pid;
        // status, started, priority, privileged; layout; cpu, messages,
        // creation time (8 each) and migrations (4); the `migrated_from`
        // flag and machine; the timer count and `(at, token)` pairs; the
        // fixed save areas.
        ProcessId::WIRE_LEN
            + 4
            + ImageLayout::WIRE_LEN
            + 28
            + (1 + MachineId::WIRE_LEN)
            + (2 + timers * 16)
            + (DISPATCH_SAVE_BYTES + MEMORY_TABLE_BYTES + KERNEL_CONTEXT_BYTES)
    }

    /// Exact length of the resident record, computed arithmetically.
    pub fn resident_len(&self) -> usize {
        Self::resident_len_of(self.timers.len())
    }

    /// Write the resident record: [`Process::resident_len`] bytes.
    pub(crate) fn encode_resident(&self, buf: &mut impl BufMut) {
        self.pid.encode(buf);
        self.status.encode(buf);
        buf.put_u8(self.started as u8);
        buf.put_u8(self.priority);
        buf.put_u8(self.privileged as u8);
        self.layout.encode(buf);
        buf.put_u64(self.cpu_used.as_micros());
        buf.put_u64(self.msgs_handled);
        buf.put_u64(self.created_at.as_micros());
        buf.put_u32(self.migrations);
        match self.migrated_from {
            Some(m) => {
                buf.put_u8(1);
                m.encode(buf);
            }
            None => {
                buf.put_u8(0);
                buf.put_u16(0);
            }
        }
        buf.put_u16(self.timers.len() as u16);
        for t in &self.timers {
            buf.put_u64(t.at.as_micros());
            buf.put_u64(t.token);
        }
        // Dispatch save area, memory tables, kernel context: simulated
        // fixed-size regions that make the record faithful in size.
        buf.put_slice(&[0u8; DISPATCH_SAVE_BYTES]);
        buf.put_slice(&[0u8; MEMORY_TABLE_BYTES]);
        buf.put_slice(&[0u8; KERNEL_CONTEXT_BYTES]);
    }

    /// Serialize the non-swappable (resident) state (§6: ~250 bytes),
    /// once, into a buffer of exactly its size.
    pub fn serialize_resident(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.resident_len());
        self.encode_resident(&mut buf);
        buf
    }

    const fn swappable_len_of(links: usize, accounted: usize) -> usize {
        LinkTable::wire_len_of(links) + 2 + accounted * (MachineId::WIRE_LEN + 8) + 2
    }

    /// Exact length of the swappable record, computed arithmetically.
    pub fn swappable_len(&self) -> usize {
        Self::swappable_len_of(self.links.len(), self.bytes_sent_to.len())
    }

    /// Write the swappable record: [`Process::swappable_len`] bytes.
    pub(crate) fn encode_swappable(&self, buf: &mut impl BufMut) {
        self.links.encode(buf);
        buf.put_u16(self.bytes_sent_to.len() as u16);
        for (&m, &bytes) in &self.bytes_sent_to {
            m.encode(buf);
            buf.put_u64(bytes);
        }
        // A header only — the queue itself is forwarded, not recorded.
        buf.put_u16(u16::try_from(self.queue.len()).unwrap_or(u16::MAX));
    }

    /// Serialize the swappable state: link table, communication
    /// accounting, message-queue header (§6: ~600 bytes, "depending on the
    /// size of the link table"), once, into a buffer of exactly its size.
    pub fn serialize_swappable(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.swappable_len());
        self.encode_swappable(&mut buf);
        buf
    }

    /// Rebuild a process from the three migration blobs. The program is
    /// *not* instantiated here (see [`Process::instantiate`]); the caller
    /// supplies the image exactly as transferred, and the two records in
    /// the buffers they arrived in (they are read, not kept).
    pub fn from_migrated(
        resident: Bytes,
        swappable: Bytes,
        image: ProcessImage,
    ) -> Result<Process, WireError> {
        let mut buf = resident;
        let pid = ProcessId::decode(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(WireError::Truncated("resident flags"));
        }
        let status = ExecStatus::decode(&mut buf)?;
        let started = buf.get_u8() != 0;
        let priority = buf.get_u8();
        let privileged = buf.get_u8() != 0;
        let layout = ImageLayout::decode(&mut buf)?;
        if buf.remaining() < 28 {
            return Err(WireError::Truncated("resident accounting"));
        }
        let cpu_used = Duration::from_micros(buf.get_u64());
        let msgs_handled = buf.get_u64();
        let created_at = Time::from_micros(buf.get_u64());
        let migrations = buf.get_u32();
        let has_prev = buf.get_u8() != 0;
        let prev = MachineId::decode(&mut buf)?;
        let migrated_from = has_prev.then_some(prev);
        if buf.remaining() < 2 {
            return Err(WireError::Truncated("resident timers"));
        }
        let n_timers = buf.get_u16() as usize;
        let mut timers = Vec::with_capacity(n_timers);
        for _ in 0..n_timers {
            if buf.remaining() < 16 {
                return Err(WireError::Truncated("timer entry"));
            }
            timers.push(TimerEntry {
                at: Time::from_micros(buf.get_u64()),
                token: buf.get_u64(),
            });
        }
        let fixed = DISPATCH_SAVE_BYTES + MEMORY_TABLE_BYTES + KERNEL_CONTEXT_BYTES;
        if buf.remaining() < fixed {
            return Err(WireError::Truncated("dispatch save area"));
        }
        buf.advance(fixed);
        whole_record("resident record", &buf)?;

        let mut sbuf = swappable;
        let links = LinkTable::decode(&mut sbuf)?;
        if sbuf.remaining() < 2 {
            return Err(WireError::Truncated("swappable comm table"));
        }
        let n_comm = sbuf.get_u16() as usize;
        let mut bytes_sent_to = BTreeMap::new();
        for _ in 0..n_comm {
            let m = MachineId::decode(&mut sbuf)?;
            if sbuf.remaining() < 8 {
                return Err(WireError::Truncated("comm entry"));
            }
            bytes_sent_to.insert(m, sbuf.get_u64());
        }
        if sbuf.remaining() < 2 {
            return Err(WireError::Truncated("swappable queue header"));
        }
        sbuf.advance(2);
        whole_record("swappable record", &sbuf)?;

        Ok(Process {
            pid,
            status,
            started,
            priority,
            privileged,
            in_migration: false,
            layout,
            image,
            links,
            queue: VecDeque::new(),
            timers,
            program: None,
            cpu_used,
            msgs_handled,
            bytes_sent_to,
            created_at,
            migrated_from,
            migrations,
            in_runq: false,
        })
    }

    /// Instantiate the program from the image via the registry — the last
    /// act of migration step 5 / first act of step 8.
    pub fn instantiate(&mut self, registry: &crate::program::Registry) -> demos_types::Result<()> {
        let name = self
            .image
            .program_name()
            .map_err(demos_types::DemosError::Wire)?;
        let state = self
            .image
            .load_state()
            .map_err(demos_types::DemosError::Wire)?;
        self.program = Some(registry.instantiate(&name, &state)?);
        Ok(())
    }

    /// Earliest pending timer.
    pub fn next_timer(&self) -> Option<Time> {
        self.timers.iter().map(|t| t.at).min()
    }

    /// Move all timers due at or before `now` into `due` (cleared first;
    /// the caller keeps the list between firings), in firing order.
    pub fn take_due_timers(&mut self, now: Time, due: &mut Vec<TimerEntry>) {
        due.clear();
        self.timers.retain(|t| {
            if t.at <= now {
                due.push(*t);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|t| (t.at, t.token));
    }
}

/// A record read to its end must have ended: bytes left over mean its
/// writer and this reader disagree about it (a count that wrapped, say),
/// and installing what was understood would install part of a process.
fn whole_record(what: &'static str, rest: &Bytes) -> Result<(), WireError> {
    match rest.remaining() {
        0 => Ok(()),
        len => Err(WireError::BadLength { what, len }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Ctx, Delivered, Registry};
    use demos_types::Link;

    struct Counter(u64);
    impl Program for Counter {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {
            self.0 += 1;
        }
        fn save(&self) -> Vec<u8> {
            self.0.to_be_bytes().to_vec()
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("counter", |state| {
            let mut b = [0u8; 8];
            if state.len() == 8 {
                b.copy_from_slice(state);
            }
            Box::new(Counter(u64::from_be_bytes(b)))
        });
        r
    }

    fn pid() -> ProcessId {
        ProcessId {
            creating_machine: MachineId(0),
            local_uid: 7,
        }
    }

    fn proc_with_links(n: usize) -> Process {
        let mut p = Process::new(
            pid(),
            "counter",
            Box::new(Counter(3)),
            ImageLayout::default(),
            false,
            Time(10),
        );
        for i in 0..n {
            p.links.insert(Link::to(
                ProcessId {
                    creating_machine: MachineId(1),
                    local_uid: i as u32,
                }
                .at(MachineId(1)),
            ));
        }
        p
    }

    #[test]
    fn resident_state_is_about_250_bytes() {
        let p = proc_with_links(0);
        let r = p.serialize_resident();
        // §6: "the non-swappable state uses about 250 bytes".
        assert!(
            (230..=270).contains(&r.len()),
            "resident state was {} bytes, expected ~250",
            r.len()
        );
    }

    #[test]
    fn swappable_state_scales_with_link_table() {
        // §6: "the swappable state uses about 600 bytes (depending on the
        // size of the link table)".
        let small = proc_with_links(0).serialize_swappable().len();
        let typical = proc_with_links(25).serialize_swappable().len();
        let big = proc_with_links(40).serialize_swappable().len();
        assert!(typical > small && big > typical);
        assert!(
            (500..=700).contains(&typical),
            "25-link swappable was {typical} bytes"
        );
        assert_eq!(big - typical, 15 * 22, "each link costs a fixed 22 bytes");
    }

    #[test]
    fn record_lengths_are_arithmetic_and_exact() {
        // What `freeze_for_migration` announces in the offer without
        // serialising anything, and what sizes each record's one buffer.
        for links in [0, 25, 40] {
            for timers in [0u64, 3] {
                for migrated_from in [None, Some(MachineId(2))] {
                    let mut p = proc_with_links(links);
                    p.migrated_from = migrated_from;
                    p.timers = (0..timers)
                        .map(|token| TimerEntry {
                            at: Time(100 + token),
                            token,
                        })
                        .collect();
                    p.bytes_sent_to.insert(MachineId(1), 1234);
                    p.queue.push_back(Queued::Timer(7));
                    let (resident, swappable) = (p.serialize_resident(), p.serialize_swappable());
                    assert_eq!(p.resident_len(), resident.len());
                    assert_eq!(p.swappable_len(), swappable.len());
                    assert_eq!(
                        resident.capacity(),
                        resident.len(),
                        "sized once, never grown"
                    );
                    assert_eq!(swappable.capacity(), swappable.len());
                }
            }
        }
    }

    #[test]
    fn migration_blob_roundtrip_preserves_state() {
        let mut p = proc_with_links(3);
        p.status = ExecStatus::Waiting;
        p.started = true;
        p.cpu_used = Duration::from_millis(5);
        p.msgs_handled = 9;
        p.migrations = 1;
        p.migrated_from = Some(MachineId(2));
        p.timers.push(TimerEntry {
            at: Time(99),
            token: 4,
        });
        p.bytes_sent_to.insert(MachineId(1), 1234);
        p.refresh_image();

        let resident = p.serialize_resident();
        let swappable = p.serialize_swappable();
        let image = p.image.clone();
        let mut q = Process::from_migrated(resident.into(), swappable.into(), image).unwrap();

        assert_eq!(q.pid, p.pid);
        assert_eq!(
            q.status,
            ExecStatus::Waiting,
            "status preserved across migration"
        );
        assert!(q.started);
        assert_eq!(q.links, p.links);
        assert_eq!(q.timers, p.timers);
        assert_eq!(q.bytes_sent_to, p.bytes_sent_to);
        assert_eq!(q.migrated_from, Some(MachineId(2)));
        assert_eq!(q.migrations, 1);

        q.instantiate(&registry()).unwrap();
        assert_eq!(q.program.unwrap().save(), 3u64.to_be_bytes().to_vec());
    }

    #[test]
    fn truncated_blobs_rejected() {
        let p = proc_with_links(2);
        let resident = Bytes::from(p.serialize_resident());
        let swappable = Bytes::from(p.serialize_swappable());
        let (short_r, short_s) = (resident.slice(..20), swappable.slice(..3));
        assert!(Process::from_migrated(short_r, swappable, p.image.clone()).is_err());
        assert!(Process::from_migrated(resident, short_s, p.image.clone()).is_err());
    }

    #[test]
    fn runnable_logic() {
        let mut p = proc_with_links(0);
        assert!(p.runnable(), "fresh process runs on_start");
        p.started = true;
        assert!(!p.runnable(), "no messages, nothing to do");
        p.queue.push_back(Queued::Message(dummy_msg()));
        assert!(p.runnable());
        p.in_migration = true;
        assert!(!p.runnable(), "frozen during migration");
        p.in_migration = false;
        p.status = ExecStatus::Suspended;
        assert!(!p.runnable());
    }

    fn dummy_msg() -> Message {
        Message {
            header: demos_types::MsgHeader {
                dest: pid().at(MachineId(0)),
                src: pid(),
                src_machine: MachineId(0),
                msg_type: 0x1000,
                flags: demos_types::MsgFlags::NONE,
                hops: 0,
            },
            links: vec![],
            payload: Bytes::new(),
            corr: demos_types::CorrId::NONE,
        }
    }

    #[test]
    fn due_timers_extracted_in_order() {
        let mut p = proc_with_links(0);
        p.timers = vec![
            TimerEntry {
                at: Time(30),
                token: 3,
            },
            TimerEntry {
                at: Time(10),
                token: 1,
            },
            TimerEntry {
                at: Time(20),
                token: 2,
            },
            TimerEntry {
                at: Time(99),
                token: 9,
            },
        ];
        let mut due = Vec::new();
        p.take_due_timers(Time(25), &mut due);
        assert_eq!(due.iter().map(|t| t.token).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(p.timers.len(), 2);
        assert_eq!(p.next_timer(), Some(Time(30)));
    }

    #[test]
    fn refresh_image_captures_current_state() {
        let mut p = proc_with_links(0);
        if let Some(prog) = &mut p.program {
            // Simulate progress: counter now at 3 (constructed) — mutate via save/restore.
            let _ = prog;
        }
        p.refresh_image();
        assert_eq!(&p.image.load_state().unwrap()[..], &3u64.to_be_bytes()[..]);
    }
}
