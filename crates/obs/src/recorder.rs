//! The flight recorder: a bounded, allocation-free binary ring of
//! compact kernel events.
//!
//! Full traces grow without bound — no long-running cluster can keep
//! one. The flight recorder is the black box instead: every node owns a
//! fixed-capacity ring of 32-byte [`Record`]s, always on, overwriting
//! the oldest entry once full. When something goes wrong (a chaos
//! invariant trips, a machine is declared dead) the ring is dumped
//! post-mortem; per-node dumps merge by virtual time into one cluster
//! timeline.
//!
//! This crate defines the *format* — the record layout, the kind/phase
//! namespaces, the dump framing — and the one fold that reads migration
//! lifecycles back out of records ([`migration_spans`]), but never sees
//! the kernel's `TraceEvent` type (obs depends only on `demos-types`).
//! The event→record encoder lives in `demos-sim`, which sees both sides.
//!
//! ## Record layout (32 bytes, little-endian)
//!
//! | field     | bytes | meaning                                        |
//! |-----------|-------|------------------------------------------------|
//! | `at`      | 8     | virtual time, microseconds                     |
//! | `a`       | 8     | corr id (message kinds) / packed pid (others)  |
//! | `b`       | 8     | second operand: packed pid, bytes moved, …     |
//! | `c`       | 4     | small operand: msg type, machine, count        |
//! | `machine` | 2     | recording machine                              |
//! | `kind`    | 1     | event kind (see [`kind`])                      |
//! | `arg`     | 2×1   | sub-kind: migration phase, hops, status        |
//!
//! Pids pack as `machine << 32 | local_uid` (48 bits). The encoding is
//! deliberately lossy — program names and log text are dropped — because
//! the recorder's job is bounded cost, not archival; the unbounded
//! [`crate::json`] trace still exists for tests.

use std::collections::BTreeMap;

use demos_types::{Duration, MachineId, ProcessId, Time};

use crate::hist::Histogram;

/// Event-kind namespace. Values are wire format — append, never renumber.
pub mod kind {
    /// Process created.
    pub const SPAWNED: u8 = 1;
    /// Process exited.
    pub const EXITED: u8 = 2;
    /// Message entered the delivery system (corr id assigned).
    pub const SUBMITTED: u8 = 3;
    /// Message enqueued on a local process.
    pub const ENQUEUED: u8 = 4;
    /// Message delivered to a kernel (`DELIVERTOKERNEL`).
    pub const KERNEL_RECEIVED: u8 = 5;
    /// Message hit a forwarding address and was resubmitted (§4).
    pub const FORWARDED: u8 = 6;
    /// Link update sent toward a stale sender (§5).
    pub const LINK_UPDATE_SENT: u8 = 7;
    /// Link update applied (links patched) (§5).
    pub const LINK_UPDATE_APPLIED: u8 = 8;
    /// Message had no destination and no forwarding address.
    pub const NON_DELIVERABLE: u8 = 9;
    /// Migration lifecycle marker; `arg` is a [`super::phase`] constant,
    /// `a` the packed pid, `b` the bytes stamped on transfer phases.
    pub const MIGRATION: u8 = 10;
    /// Forwarding address installed (step 7); `c` is the target machine.
    pub const FORWARDING_INSTALLED: u8 = 11;
    /// Forwarding address garbage-collected.
    pub const FORWARDING_COLLECTED: u8 = 12;
    /// Move-data operation finished; `b` bytes, `arg` status.
    pub const MOVE_DATA_DONE: u8 = 13;
    /// Program log line (text dropped; only the pid survives).
    pub const LOG: u8 = 14;
}

/// Migration-phase namespace for [`kind::MIGRATION`] records, in §3.1
/// step order. Values are wire format — append, never renumber.
pub mod phase {
    /// Step 1: frozen at the source.
    pub const FROZEN: u8 = 0;
    /// Step 2: offered to the destination.
    pub const OFFERED: u8 = 1;
    /// Step 3: allocated at the destination.
    pub const ALLOCATED: u8 = 2;
    /// Offer refused.
    pub const REJECTED: u8 = 3;
    /// Step 4: process state transferred.
    pub const STATE_TRANSFERRED: u8 = 4;
    /// Step 5: memory image transferred.
    pub const IMAGE_TRANSFERRED: u8 = 5;
    /// Step 6: pending messages forwarded.
    pub const PENDING_FORWARDED: u8 = 6;
    /// Step 7: source cleaned up, forwarding address left.
    pub const CLEANED_UP: u8 = 7;
    /// Step 8: restarted at the destination.
    pub const RESTARTED: u8 = 8;
    /// Migration abandoned; process resumed at the source.
    pub const ABORTED: u8 = 9;
}

/// Human name of a [`kind`] constant.
pub fn kind_name(k: u8) -> &'static str {
    match k {
        kind::SPAWNED => "spawned",
        kind::EXITED => "exited",
        kind::SUBMITTED => "submitted",
        kind::ENQUEUED => "enqueued",
        kind::KERNEL_RECEIVED => "kernel_received",
        kind::FORWARDED => "forwarded",
        kind::LINK_UPDATE_SENT => "link_update_sent",
        kind::LINK_UPDATE_APPLIED => "link_update_applied",
        kind::NON_DELIVERABLE => "non_deliverable",
        kind::MIGRATION => "migration",
        kind::FORWARDING_INSTALLED => "forwarding_installed",
        kind::FORWARDING_COLLECTED => "forwarding_collected",
        kind::MOVE_DATA_DONE => "move_data_done",
        kind::LOG => "log",
        _ => "unknown",
    }
}

/// Human name of a [`phase`] constant.
pub fn phase_name(p: u8) -> &'static str {
    match p {
        phase::FROZEN => "frozen",
        phase::OFFERED => "offered",
        phase::ALLOCATED => "allocated",
        phase::REJECTED => "rejected",
        phase::STATE_TRANSFERRED => "state_transferred",
        phase::IMAGE_TRANSFERRED => "image_transferred",
        phase::PENDING_FORWARDED => "pending_forwarded",
        phase::CLEANED_UP => "cleaned_up",
        phase::RESTARTED => "restarted",
        phase::ABORTED => "aborted",
        _ => "unknown",
    }
}

/// [`phase`] constant for a lowercase name (CLI filter syntax).
pub fn phase_by_name(name: &str) -> Option<u8> {
    (0..=phase::ABORTED).find(|&p| phase_name(p).eq_ignore_ascii_case(name))
}

/// Pack a process id (creating machine, local uid) into 48 bits.
pub fn pack_pid(machine: u16, uid: u32) -> u64 {
    (machine as u64) << 32 | uid as u64
}

/// Unpack [`pack_pid`]'s encoding.
pub fn unpack_pid(packed: u64) -> (u16, u32) {
    ((packed >> 32) as u16, packed as u32)
}

/// One fixed-size recorder entry. See the module docs for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Record {
    /// Virtual time, microseconds.
    pub at: u64,
    /// Primary operand: corr id for message kinds, packed pid otherwise.
    pub a: u64,
    /// Secondary operand (packed pid, bytes, …).
    pub b: u64,
    /// Small operand (msg type, machine id, count).
    pub c: u32,
    /// Machine whose kernel recorded the event.
    pub machine: u16,
    /// Event kind (a [`kind`] constant).
    pub kind: u8,
    /// Sub-kind: migration phase, hop count, status.
    pub arg: u8,
}

/// Encoded size of one record.
pub const RECORD_BYTES: usize = 32;

impl Record {
    /// Serialize little-endian into exactly [`RECORD_BYTES`] bytes.
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.at.to_le_bytes());
        out[8..16].copy_from_slice(&self.a.to_le_bytes());
        out[16..24].copy_from_slice(&self.b.to_le_bytes());
        out[24..28].copy_from_slice(&self.c.to_le_bytes());
        out[28..30].copy_from_slice(&self.machine.to_le_bytes());
        out[30] = self.kind;
        out[31] = self.arg;
        out
    }

    /// Deserialize [`to_bytes`](Self::to_bytes)' encoding.
    pub fn from_bytes(b: &[u8; RECORD_BYTES]) -> Record {
        let u64at = |r: std::ops::Range<usize>| {
            let mut x = [0u8; 8];
            x.copy_from_slice(&b[r]);
            u64::from_le_bytes(x)
        };
        Record {
            at: u64at(0..8),
            a: u64at(8..16),
            b: u64at(16..24),
            c: u32::from_le_bytes([b[24], b[25], b[26], b[27]]),
            machine: u16::from_le_bytes([b[28], b[29]]),
            kind: b[30],
            arg: b[31],
        }
    }
}

/// Render one record as a text line (postmortems, `demos-trace`).
pub fn render_record(r: &Record) -> String {
    let pid = |p: u64| {
        let (m, u) = unpack_pid(p);
        format!("p{m}.{u}")
    };
    let corr = |c: u64| {
        if c == 0 {
            "corr:-".to_string()
        } else {
            format!("corr:m{}/{}", c >> 48, c & 0xFFFF_FFFF_FFFF)
        }
    };
    let body = match r.kind {
        kind::MIGRATION => format!("{} {} bytes={}", pid(r.a), phase_name(r.arg), r.b),
        kind::SPAWNED | kind::EXITED | kind::LOG | kind::FORWARDING_COLLECTED => pid(r.a),
        kind::FORWARDING_INSTALLED => format!("{} -> m{}", pid(r.a), r.c),
        kind::MOVE_DATA_DONE => format!("op={} bytes={} status={}", r.a, r.b, r.arg),
        kind::FORWARDED => format!(
            "{} {} -> m{} type={}",
            corr(r.a),
            pid(r.b),
            r.c >> 16,
            r.c & 0xFFFF
        ),
        kind::ENQUEUED => format!(
            "{} {} type={} hops={}",
            corr(r.a),
            pid(r.b & 0xFFFF_FFFF_FFFF),
            r.c & 0xFFFF,
            r.arg
        ),
        kind::LINK_UPDATE_SENT | kind::LINK_UPDATE_APPLIED => {
            format!("{} {} c={}", corr(r.a), pid(r.b), r.c)
        }
        kind::SUBMITTED | kind::KERNEL_RECEIVED | kind::NON_DELIVERABLE => {
            format!("{} {} type={}", corr(r.a), pid(r.b), r.c & 0xFFFF)
        }
        _ => format!("a={:#x} b={:#x} c={}", r.a, r.b, r.c),
    };
    format!(
        "[{:>10}us m{}] {:<20} {}",
        r.at,
        r.machine,
        kind_name(r.kind),
        body
    )
}

/// Dump-section magic: format version 1.
pub const MAGIC: [u8; 8] = *b"DMFR1\0\0\0";

/// Encoded size of one per-node dump header.
pub const HEADER_BYTES: usize = 32;

/// One node's bounded event ring.
///
/// Allocation happens once, in [`new`](Self::new); recording is an index
/// write. A capacity of zero disables the recorder entirely (recording
/// becomes a no-op) — the benchmark's A/B switch.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    machine: u16,
    cap: usize,
    buf: Vec<Record>,
    next: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder for `machine` holding at most `capacity` records.
    pub fn new(machine: u16, capacity: usize) -> Self {
        FlightRecorder {
            machine,
            cap: capacity,
            buf: Vec::with_capacity(capacity),
            next: 0,
            total: 0,
        }
    }

    /// The recording machine.
    pub fn machine(&self) -> u16 {
        self.machine
    }

    /// Ring capacity (zero = disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Record one event, overwriting the oldest once the ring is full.
    pub fn record(&mut self, rec: Record) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
        self.total += 1;
    }

    /// Held records in chronological order (oldest first), unrolling the
    /// ring.
    pub fn records(&self) -> Vec<Record> {
        if self.buf.len() < self.cap || self.cap == 0 {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// The last `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Record> {
        let recs = self.records();
        let skip = recs.len().saturating_sub(n);
        recs[skip..].to_vec()
    }

    /// Append this node's dump section (header + records) to `out`.
    pub fn dump_into(&self, out: &mut Vec<u8>) {
        let recs = self.records();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.machine.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.cap as u64).to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        for r in &recs {
            out.extend_from_slice(&r.to_bytes());
        }
    }

    /// This node's dump as a standalone byte vector.
    pub fn dump(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.len() * RECORD_BYTES);
        self.dump_into(&mut out);
        out
    }
}

/// One parsed per-node dump section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDump {
    /// The recording machine.
    pub machine: u16,
    /// Ring capacity at dump time.
    pub capacity: u64,
    /// Lifetime events recorded (≥ `records.len()`).
    pub total: u64,
    /// Held records, oldest first.
    pub records: Vec<Record>,
}

impl NodeDump {
    /// Events the ring overwrote before the dump.
    pub fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.records.len() as u64)
    }
}

/// Parse a dump: one or more concatenated per-node sections.
pub fn parse_dump(bytes: &[u8]) -> Result<Vec<NodeDump>, String> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_BYTES {
            return Err(format!("truncated header at offset {off}"));
        }
        if rest[0..8] != MAGIC {
            return Err(format!("bad magic at offset {off}"));
        }
        let machine = u16::from_le_bytes([rest[8], rest[9]]);
        let len = u32::from_le_bytes([rest[12], rest[13], rest[14], rest[15]]) as usize;
        let mut x = [0u8; 8];
        x.copy_from_slice(&rest[16..24]);
        let capacity = u64::from_le_bytes(x);
        x.copy_from_slice(&rest[24..32]);
        let total = u64::from_le_bytes(x);
        let body = len
            .checked_mul(RECORD_BYTES)
            .ok_or_else(|| format!("length overflow at offset {off}"))?;
        if rest.len() < HEADER_BYTES + body {
            return Err(format!(
                "truncated records at offset {off}: want {body} bytes"
            ));
        }
        let mut records = Vec::with_capacity(len);
        for i in 0..len {
            let start = HEADER_BYTES + i * RECORD_BYTES;
            let mut rb = [0u8; RECORD_BYTES];
            rb.copy_from_slice(&rest[start..start + RECORD_BYTES]);
            records.push(Record::from_bytes(&rb));
        }
        out.push(NodeDump {
            machine,
            capacity,
            total,
            records,
        });
        off += HEADER_BYTES + body;
    }
    Ok(out)
}

/// Merge per-node dumps into one cluster timeline, ordered by virtual
/// time (ties broken by machine id; each node's own order is preserved —
/// the sort is stable).
pub fn merge(dumps: &[NodeDump]) -> Vec<Record> {
    let mut all: Vec<Record> = dumps
        .iter()
        .flat_map(|d| d.records.iter().copied())
        .collect();
    all.sort_by_key(|r| (r.at, r.machine));
    all
}

/// How a migration lifecycle ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Step 8 reached: the process restarted at the destination.
    Completed,
    /// The destination refused the offer (§3.2).
    Rejected,
    /// Abandoned mid-protocol (timeout, crash); resumed at the source.
    Aborted,
    /// The records ended before the protocol did.
    InFlight,
}

impl MigrationOutcome {
    /// `completed`, `rejected`, `aborted` or `in-flight`.
    pub fn label(self) -> &'static str {
        match self {
            MigrationOutcome::Completed => "completed",
            MigrationOutcome::Rejected => "rejected",
            MigrationOutcome::Aborted => "aborted",
            MigrationOutcome::InFlight => "in-flight",
        }
    }
}

/// One migration of one process, stitched from its [`kind::MIGRATION`]
/// records — §3.1's eight steps plus the §4 residual: how long the
/// forwarding address kept fielding traffic after the process had left.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationSpan {
    /// The migrating process.
    pub pid: ProcessId,
    /// Machine that froze it (from the `Frozen` record).
    pub src: Option<MachineId>,
    /// Machine that took it (from the destination-side records).
    pub dest: Option<MachineId>,
    /// Step 1: removed from execution.
    pub frozen: Option<Time>,
    /// Step 2: offer sent.
    pub offered: Option<Time>,
    /// Step 3: destination allocated.
    pub allocated: Option<Time>,
    /// Step 4 complete: process state arrived.
    pub state_transferred: Option<Time>,
    /// Step 5 complete: image arrived.
    pub image_transferred: Option<Time>,
    /// Step 6: pending messages forwarded.
    pub pending_forwarded: Option<Time>,
    /// Step 7: source cleaned up, forwarding address installed.
    pub cleaned_up: Option<Time>,
    /// Step 8: restarted at the destination.
    pub restarted: Option<Time>,
    /// When a rejection/abort ended the lifecycle instead.
    pub ended: Option<Time>,
    /// How the lifecycle ended.
    pub outcome: MigrationOutcome,
    /// Total size stamped on the offer (resident + swappable + image).
    pub bytes_offered: u64,
    /// State bytes received by step 4's completion.
    pub bytes_state: u64,
    /// Full transferred total stamped at step 5.
    pub bytes_total: u64,
    /// Messages that chased the forwarding address after cleanup (§4).
    pub forwards: u64,
    /// Last time the forwarding address fielded a message.
    pub last_forward: Option<Time>,
    /// When the forwarding address was garbage-collected, if observed.
    pub forwarding_collected: Option<Time>,
}

impl MigrationSpan {
    fn open(pid: ProcessId, src: MachineId, at: Time) -> Self {
        MigrationSpan {
            pid,
            src: Some(src),
            dest: None,
            frozen: Some(at),
            offered: None,
            allocated: None,
            state_transferred: None,
            image_transferred: None,
            pending_forwarded: None,
            cleaned_up: None,
            restarted: None,
            ended: None,
            outcome: MigrationOutcome::InFlight,
            bytes_offered: 0,
            bytes_state: 0,
            bytes_total: 0,
            forwards: 0,
            last_forward: None,
            forwarding_collected: None,
        }
    }

    /// Whether step 8 was reached.
    pub fn completed(&self) -> bool {
        self.outcome == MigrationOutcome::Completed
    }

    /// Steps 1–3: freeze through destination allocation (the offer
    /// negotiation, including the §3.2 policy decision).
    pub fn negotiation(&self) -> Option<Duration> {
        Some(self.allocated?.since(self.frozen?))
    }

    /// Steps 4–5: allocation through image arrival — the state-transfer
    /// window the paper's §6 table prices by image size.
    pub fn transfer(&self) -> Option<Duration> {
        Some(self.image_transferred?.since(self.allocated?))
    }

    /// Step 8: image arrival through restart (cleanup confirmation
    /// round-trip plus scheduling).
    pub fn restart(&self) -> Option<Duration> {
        Some(self.restarted?.since(self.image_transferred?))
    }

    /// The whole off-cpu window: freeze through restart.
    pub fn frozen_total(&self) -> Option<Duration> {
        Some(self.restarted?.since(self.frozen?))
    }

    /// Residual forwarding lifetime (§4): cleanup until the forwarding
    /// address was collected, or until its last observed use.
    pub fn residual(&self) -> Option<Duration> {
        let start = self.cleaned_up?;
        let end = self.forwarding_collected.or(self.last_forward)?;
        Some(end.since(start))
    }
}

/// Stitch every migration lifecycle out of a record stream, in freeze
/// order — the one lifecycle fold every phase view reads: the simulator
/// feeds it a whole trace encoded in trace order, [`PhaseTable`] and
/// `demos-trace` a merged dump.
///
/// The kernel's `AlreadyMigrating` guard means a process has at most one
/// lifecycle open at a time, so a per-pid "open span" map is sound.
/// `Restarted` records with no open lifecycle (checkpoint restores, the
/// engine's duplicate restart marker) are ignored. Residual forwarding
/// records after step 7 are credited to the pid's most recent span.
pub fn migration_spans(records: &[Record]) -> Vec<MigrationSpan> {
    let mut out: Vec<MigrationSpan> = Vec::new();
    // Packed pid → index in `out` of its open / most recent lifecycle.
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    let mut latest: BTreeMap<u64, usize> = BTreeMap::new();
    for r in records {
        let (at, machine) = (Time::from_micros(r.at), MachineId(r.machine));
        match r.kind {
            kind::MIGRATION if r.arg == phase::FROZEN => {
                let (m, uid) = unpack_pid(r.a);
                let pid = ProcessId {
                    creating_machine: MachineId(m),
                    local_uid: uid,
                };
                out.push(MigrationSpan::open(pid, machine, at));
                open.insert(r.a, out.len() - 1);
                latest.insert(r.a, out.len() - 1);
            }
            kind::MIGRATION => {
                let Some(&i) = open.get(&r.a) else { continue };
                let s = &mut out[i];
                match r.arg {
                    phase::OFFERED => {
                        s.offered = s.offered.or(Some(at));
                        s.bytes_offered = s.bytes_offered.max(r.b);
                    }
                    phase::ALLOCATED => {
                        s.allocated = s.allocated.or(Some(at));
                        s.dest = s.dest.or(Some(machine));
                    }
                    phase::STATE_TRANSFERRED => {
                        s.state_transferred = s.state_transferred.or(Some(at));
                        s.bytes_state = s.bytes_state.max(r.b);
                    }
                    phase::IMAGE_TRANSFERRED => {
                        s.image_transferred = s.image_transferred.or(Some(at));
                        s.bytes_total = s.bytes_total.max(r.b);
                        s.dest = s.dest.or(Some(machine));
                    }
                    phase::PENDING_FORWARDED => {
                        s.pending_forwarded = s.pending_forwarded.or(Some(at));
                    }
                    phase::CLEANED_UP => s.cleaned_up = s.cleaned_up.or(Some(at)),
                    phase::RESTARTED => {
                        s.restarted = Some(at);
                        s.dest = s.dest.or(Some(machine));
                        s.outcome = MigrationOutcome::Completed;
                    }
                    phase::REJECTED => {
                        (s.ended, s.outcome) = (Some(at), MigrationOutcome::Rejected)
                    }
                    phase::ABORTED => (s.ended, s.outcome) = (Some(at), MigrationOutcome::Aborted),
                    _ => {}
                }
                if s.outcome != MigrationOutcome::InFlight {
                    open.remove(&r.a);
                }
            }
            kind::FORWARDED => {
                if let Some(&i) = latest.get(&r.b) {
                    let s = &mut out[i];
                    if s.cleaned_up.is_some_and(|c| at >= c) {
                        s.forwards += 1;
                        s.last_forward = Some(at);
                    }
                }
            }
            kind::FORWARDING_INSTALLED => {
                if let Some(&i) = latest.get(&r.a) {
                    out[i].dest = out[i].dest.or(Some(MachineId(r.c as u16)));
                }
            }
            kind::FORWARDING_COLLECTED => {
                if let Some(&i) = latest.get(&r.a) {
                    out[i].forwarding_collected = out[i].forwarding_collected.or(Some(at));
                }
            }
            _ => {}
        }
    }
    out
}

/// Per-phase duration histograms over the lifecycles
/// [`migration_spans`] stitches from a merged timeline — the §6 cost
/// table `demos-trace` prints. All values are microseconds except
/// `bytes`.
#[derive(Debug, Clone, Default)]
pub struct PhaseTable {
    /// Frozen → allocated (steps 1–3): negotiation.
    pub negotiation: Histogram,
    /// Allocated → image transferred (steps 4–5): state+image transfer.
    pub transfer: Histogram,
    /// Image transferred → restarted (step 8): restart.
    pub restart: Histogram,
    /// Frozen → restarted: total freeze time.
    pub total: Histogram,
    /// Bytes stamped on transfer-phase records.
    pub bytes: Histogram,
    /// Completed migrations seen.
    pub completed: u64,
    /// Rejected or aborted migrations seen.
    pub failed: u64,
}

impl PhaseTable {
    /// Build from a time-ordered record slice. Completed lifecycles fill
    /// the histograms (transfer and restart only when both ends of each
    /// were recorded); rejected and aborted ones only count.
    pub fn from_records(records: &[Record]) -> PhaseTable {
        let mut t = PhaseTable::default();
        for s in migration_spans(records) {
            match s.outcome {
                MigrationOutcome::Completed => {
                    if let Some(d) = s.negotiation() {
                        t.negotiation.record_duration(d);
                    }
                    if let (Some(x), Some(r)) = (s.transfer(), s.restart()) {
                        t.transfer.record_duration(x);
                        t.restart.record_duration(r);
                    }
                    if let Some(d) = s.frozen_total() {
                        t.total.record_duration(d);
                    }
                    let bytes = s.bytes_state.max(s.bytes_total);
                    if bytes > 0 {
                        t.bytes.record(bytes);
                    }
                    t.completed += 1;
                }
                MigrationOutcome::Rejected | MigrationOutcome::Aborted => t.failed += 1,
                MigrationOutcome::InFlight => {}
            }
        }
        t
    }

    /// Percentile table, one row per phase — the `demos-trace` output.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "phase", "n", "p50", "p90", "p99", "p999", "max"
        );
        for (name, h) in [
            ("negotiation", &self.negotiation),
            ("transfer", &self.transfer),
            ("restart", &self.restart),
            ("total", &self.total),
            ("bytes", &self.bytes),
        ] {
            s.push_str(&format!(
                "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                name,
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                h.max()
            ));
        }
        s.push_str(&format!(
            "migrations: {} completed, {} rejected/aborted\n",
            self.completed, self.failed
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, machine: u16, kind_: u8, a: u64) -> Record {
        Record {
            at,
            a,
            b: 0,
            c: 0,
            machine,
            kind: kind_,
            arg: 0,
        }
    }

    #[test]
    fn record_roundtrips_through_bytes() {
        let r = Record {
            at: 123_456_789,
            a: pack_pid(3, 42),
            b: u64::MAX - 5,
            c: 0xDEAD_BEEF,
            machine: 7,
            kind: kind::MIGRATION,
            arg: phase::RESTARTED,
        };
        assert_eq!(Record::from_bytes(&r.to_bytes()), r);
    }

    #[test]
    fn pid_packing_roundtrips() {
        for (m, u) in [(0u16, 0u32), (1, 7), (u16::MAX, u32::MAX)] {
            assert_eq!(unpack_pid(pack_pid(m, u)), (m, u));
        }
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut fr = FlightRecorder::new(0, 4);
        for i in 0..10u64 {
            fr.record(rec(i, 0, kind::EXITED, i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.total_recorded(), 10);
        let ats: Vec<u64> = fr.records().iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "oldest overwritten, order kept");
        assert_eq!(fr.tail(2).iter().map(|r| r.at).collect::<Vec<_>>(), [8, 9]);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0, 0);
        fr.record(rec(1, 0, kind::EXITED, 1));
        assert!(fr.is_empty());
        assert_eq!(fr.total_recorded(), 0);
        let parsed = parse_dump(&fr.dump()).unwrap();
        assert_eq!(parsed[0].records.len(), 0);
    }

    #[test]
    fn dump_parse_merge_roundtrip() {
        let mut a = FlightRecorder::new(0, 8);
        let mut b = FlightRecorder::new(1, 8);
        a.record(rec(10, 0, kind::SPAWNED, pack_pid(0, 1)));
        a.record(rec(30, 0, kind::EXITED, pack_pid(0, 1)));
        b.record(rec(20, 1, kind::SPAWNED, pack_pid(1, 1)));
        let mut bytes = a.dump();
        b.dump_into(&mut bytes);
        let dumps = parse_dump(&bytes).unwrap();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].machine, 0);
        assert_eq!(dumps[0].records.len(), 2);
        assert_eq!(dumps[1].machine, 1);
        let merged = merge(&dumps);
        let ats: Vec<u64> = merged.iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![10, 20, 30], "merged by virtual time");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_dump(&[0u8; 10]).is_err(), "truncated header");
        let mut fr = FlightRecorder::new(0, 2);
        fr.record(rec(1, 0, kind::EXITED, 0));
        let mut bytes = fr.dump();
        bytes[0] = b'X';
        assert!(parse_dump(&bytes).is_err(), "bad magic");
        let mut fr2 = FlightRecorder::new(0, 2);
        fr2.record(rec(1, 0, kind::EXITED, 0));
        let mut short = fr2.dump();
        short.truncate(short.len() - 1);
        assert!(parse_dump(&short).is_err(), "truncated records");
    }

    #[test]
    fn dumps_are_deterministic() {
        let build = || {
            let mut fr = FlightRecorder::new(2, 16);
            for i in 0..40u64 {
                fr.record(rec(i * 3, 2, kind::ENQUEUED, i));
            }
            fr.dump()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn phase_table_reconstructs_a_lifecycle() {
        let p = pack_pid(0, 1);
        let mig = |at: u64, ph: u8, b: u64| Record {
            at,
            a: p,
            b,
            c: 0,
            machine: 0,
            kind: kind::MIGRATION,
            arg: ph,
        };
        let recs = vec![
            mig(100, phase::FROZEN, 0),
            mig(110, phase::OFFERED, 4096),
            mig(120, phase::ALLOCATED, 0),
            mig(150, phase::STATE_TRANSFERRED, 1024),
            mig(200, phase::IMAGE_TRANSFERRED, 4096),
            mig(230, phase::RESTARTED, 0),
        ];
        let t = PhaseTable::from_records(&recs);
        assert_eq!(t.completed, 1);
        assert_eq!(t.failed, 0);
        assert_eq!(t.negotiation.count(), 1);
        assert_eq!(t.negotiation.max(), 20);
        assert_eq!(t.transfer.max(), 80);
        assert_eq!(t.restart.max(), 30);
        assert_eq!(t.total.max(), 130);
        assert_eq!(t.bytes.max(), 4096);
        let table = t.render();
        assert!(table.contains("p50"), "{table}");
        assert!(table.contains("p999"), "{table}");
    }

    #[test]
    fn phase_table_counts_failures() {
        let p = pack_pid(0, 2);
        let mig = |at: u64, ph: u8| Record {
            at,
            a: p,
            b: 0,
            c: 0,
            machine: 0,
            kind: kind::MIGRATION,
            arg: ph,
        };
        let t = PhaseTable::from_records(&[
            mig(10, phase::FROZEN),
            mig(20, phase::OFFERED),
            mig(30, phase::REJECTED),
        ]);
        assert_eq!(t.completed, 0);
        assert_eq!(t.failed, 1);
        assert!(t.total.is_empty());
    }

    fn pid(uid: u32) -> ProcessId {
        ProcessId {
            creating_machine: MachineId(0),
            local_uid: uid,
        }
    }

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// A `kind::MIGRATION` record of process `p0.uid`.
    fn mig(at: u64, machine: u16, uid: u32, ph: u8, bytes: u64) -> Record {
        Record {
            at,
            a: pack_pid(0, uid),
            b: bytes,
            c: 0,
            machine,
            kind: kind::MIGRATION,
            arg: ph,
        }
    }

    /// A residual message chasing `p0.uid`'s forwarding address.
    fn forwarded(at: u64, uid: u32) -> Record {
        Record {
            b: pack_pid(0, uid),
            c: 1 << 16 | 42,
            ..rec(at, 0, kind::FORWARDED, 5)
        }
    }

    /// Pid 1 completes a full eight-step migration with residual
    /// forwarding afterwards; pid 2 is rejected; pid 1's second attempt
    /// aborts.
    fn migration_records() -> Vec<Record> {
        vec![
            mig(10, 0, 1, phase::FROZEN, 0),
            mig(12, 0, 1, phase::OFFERED, 900),
            mig(14, 0, 2, phase::FROZEN, 0),
            mig(16, 0, 2, phase::OFFERED, 300),
            mig(20, 1, 1, phase::ALLOCATED, 0),
            mig(22, 1, 2, phase::REJECTED, 0),
            mig(40, 1, 1, phase::STATE_TRANSFERRED, 400),
            mig(55, 1, 1, phase::IMAGE_TRANSFERRED, 900),
            mig(60, 0, 1, phase::PENDING_FORWARDED, 0),
            mig(61, 0, 1, phase::CLEANED_UP, 0),
            Record {
                c: 1,
                ..rec(61, 0, kind::FORWARDING_INSTALLED, pack_pid(0, 1))
            },
            mig(70, 1, 1, phase::RESTARTED, 0),
            forwarded(80, 1),
            forwarded(95, 1),
            rec(120, 0, kind::FORWARDING_COLLECTED, pack_pid(0, 1)),
            mig(200, 1, 1, phase::FROZEN, 0),
            mig(202, 1, 1, phase::OFFERED, 900),
            mig(260, 1, 1, phase::ABORTED, 0),
        ]
    }

    #[test]
    fn migration_spans_golden() {
        let spans = migration_spans(&migration_records());
        assert_eq!(spans.len(), 3, "two p1 attempts + one p2 attempt");

        let done = &spans[0];
        assert_eq!(done.pid, pid(1));
        assert_eq!(done.outcome, MigrationOutcome::Completed);
        assert_eq!(done.src, Some(MachineId(0)));
        assert_eq!(done.dest, Some(MachineId(1)));
        assert_eq!(done.bytes_offered, 900);
        assert_eq!(done.bytes_state, 400);
        assert_eq!(done.bytes_total, 900);
        assert_eq!(done.negotiation(), Some(Duration::from_micros(10)));
        assert_eq!(done.transfer(), Some(Duration::from_micros(35)));
        assert_eq!(done.restart(), Some(Duration::from_micros(15)));
        assert_eq!(done.frozen_total(), Some(Duration::from_micros(60)));
        assert_eq!(done.forwards, 2, "both residual messages credited");
        assert_eq!(done.residual(), Some(Duration::from_micros(59)));

        let rejected = &spans[1];
        assert_eq!(rejected.pid, pid(2));
        assert_eq!(rejected.outcome, MigrationOutcome::Rejected);
        assert_eq!(rejected.ended, Some(t(22)));
        assert_eq!(rejected.negotiation(), None);
        assert_eq!(rejected.frozen_total(), None);

        let aborted = &spans[2];
        assert_eq!(aborted.pid, pid(1));
        assert_eq!(aborted.outcome, MigrationOutcome::Aborted);
        assert_eq!(aborted.ended, Some(t(260)));
        assert_eq!(aborted.forwards, 0, "earlier residuals stay on span 1");

        let table = PhaseTable::from_records(&migration_records());
        assert_eq!((table.completed, table.failed), (1, 2));
        assert_eq!(table.total.max(), 60);
        assert_eq!(table.bytes.max(), 900);
    }

    #[test]
    fn duplicate_restarted_records_are_ignored() {
        // The engine records Restarted on both the kernel and engine
        // paths; checkpoint restores add more. Only an open lifecycle
        // absorbs one.
        let spans = migration_spans(&[
            mig(5, 1, 1, phase::RESTARTED, 0),
            mig(10, 0, 1, phase::FROZEN, 0),
            mig(30, 1, 1, phase::RESTARTED, 0),
            mig(31, 1, 1, phase::RESTARTED, 0),
        ]);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].restarted, Some(t(30)));
        assert_eq!(spans[0].outcome, MigrationOutcome::Completed);
    }

    #[test]
    fn aborted_attempt_interleaved_with_another_pid_then_a_completed_retry() {
        // Pid 1's first attempt aborts after the offer; a second attempt
        // completes. Pid 2's migration is interleaved throughout and must
        // not bleed into pid 1's lifecycles.
        let spans = migration_spans(&[
            mig(10, 0, 1, phase::FROZEN, 0),
            mig(12, 0, 2, phase::FROZEN, 0),
            mig(15, 0, 1, phase::OFFERED, 0),
            mig(18, 0, 2, phase::OFFERED, 0),
            mig(20, 0, 1, phase::ABORTED, 0),
            mig(30, 0, 1, phase::FROZEN, 0),
            mig(32, 0, 1, phase::OFFERED, 0),
            mig(34, 1, 1, phase::ALLOCATED, 0),
            mig(40, 1, 1, phase::STATE_TRANSFERRED, 0),
            mig(55, 1, 1, phase::IMAGE_TRANSFERRED, 0),
            mig(60, 0, 1, phase::PENDING_FORWARDED, 0),
            mig(61, 0, 1, phase::CLEANED_UP, 0),
            mig(62, 0, 2, phase::ABORTED, 0),
            mig(70, 1, 1, phase::RESTARTED, 0),
        ]);
        let of = |uid| spans.iter().filter(move |s| s.pid == pid(uid));
        let mine: Vec<_> = of(1).collect();
        assert_eq!(mine.len(), 2, "two attempts, two lifecycles");
        assert_eq!(mine[0].outcome, MigrationOutcome::Aborted);
        assert_eq!(mine[0].offered, Some(t(15)));
        assert_eq!((mine[0].restarted, mine[0].frozen_total()), (None, None));
        assert!(mine[1].completed(), "second attempt completed");
        assert_eq!(mine[1].frozen, Some(t(30)));
        assert_eq!(mine[1].restarted, Some(t(70)));
        assert_eq!(mine[1].frozen_total(), Some(Duration::from_micros(40)));
        let steps = [
            mine[1].frozen,
            mine[1].offered,
            mine[1].allocated,
            mine[1].state_transferred,
            mine[1].image_transferred,
            mine[1].pending_forwarded,
            mine[1].cleaned_up,
            mine[1].restarted,
        ];
        assert!(steps.iter().all(Option::is_some), "all eight steps");
        let others: Vec<_> = of(2).collect();
        assert_eq!(others.len(), 1);
        assert_eq!(others[0].outcome, MigrationOutcome::Aborted);
        assert_eq!(others[0].frozen, Some(t(12)));
    }

    #[test]
    fn render_record_names_the_kind() {
        let r = Record {
            at: 42,
            a: pack_pid(1, 9),
            b: 2048,
            c: 0,
            machine: 1,
            kind: kind::MIGRATION,
            arg: phase::STATE_TRANSFERRED,
        };
        let line = render_record(&r);
        assert!(line.contains("migration"), "{line}");
        assert!(line.contains("p1.9"), "{line}");
        assert!(line.contains("state_transferred"), "{line}");
        assert!(line.contains("bytes=2048"), "{line}");
    }

    #[test]
    fn phase_names_roundtrip() {
        for p in 0..=phase::ABORTED {
            assert_eq!(phase_by_name(phase_name(p)), Some(p));
        }
        assert_eq!(phase_by_name("nope"), None);
    }
}
