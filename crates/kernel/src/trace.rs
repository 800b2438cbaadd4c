//! Structured event trace.
//!
//! Kernels append [`TraceEvent`]s to their [`crate::Outbox`]; the
//! simulation harness timestamps and collects them. The experiment
//! binaries reconstruct every table of the paper's cost analysis from
//! these events (administrative message counts, forwarding overhead,
//! link-update convergence, migration step timings).

use std::io::Write as _;

use demos_types::{CorrId, MachineId, ProcessId, Time};

/// One traced kernel event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A process was created.
    Spawned {
        /// The new process.
        pid: ProcessId,
        /// Registered program name.
        program: String,
    },
    /// A process terminated.
    Exited {
        /// The process.
        pid: ProcessId,
    },
    /// A message entered the delivery system: the first kernel to see it
    /// stamped it with a fresh correlation id. Every later event carrying
    /// the same id — on any machine — belongs to this message's journey.
    Submitted {
        /// Correlation id assigned at send time.
        corr: CorrId,
        /// Destination process.
        dest: ProcessId,
        /// Message type tag.
        msg_type: u16,
    },
    /// A message was placed on a local process's queue.
    Enqueued {
        /// Correlation id of the message.
        corr: CorrId,
        /// Receiving process.
        pid: ProcessId,
        /// Message type tag.
        msg_type: u16,
        /// Whether the message had been forwarded at least once.
        forwarded: bool,
        /// Forwarding hops the message took.
        hops: u8,
    },
    /// A message was received by the kernel (`DELIVERTOKERNEL`).
    KernelReceived {
        /// Correlation id of the message.
        corr: CorrId,
        /// Process the message was addressed to.
        pid: ProcessId,
        /// Message type tag.
        msg_type: u16,
    },
    /// A message hit a forwarding address and was resubmitted (§4).
    ForwardedMessage {
        /// Correlation id of the chased message.
        corr: CorrId,
        /// The migrated process the message was chasing.
        pid: ProcessId,
        /// Where the forwarding address pointed.
        to: MachineId,
        /// Message type tag.
        msg_type: u16,
    },
    /// A link-update message was sent back to a sender's kernel (§5).
    LinkUpdateSent {
        /// Correlation id of the chased message that triggered the update
        /// (the update inherits it, so the whole repair is one journey).
        corr: CorrId,
        /// Whose links will be patched.
        sender: ProcessId,
        /// The migrated process.
        migrated: ProcessId,
        /// Its new home.
        new_machine: MachineId,
    },
    /// Links were patched on receipt of a link update (§5).
    LinkUpdateApplied {
        /// Correlation id inherited from the chased message.
        corr: CorrId,
        /// Process whose table was patched.
        sender: ProcessId,
        /// The migrated process.
        migrated: ProcessId,
        /// Number of links rewritten.
        patched: usize,
    },
    /// A message could not be delivered (no process, no forwarding
    /// address — or forwarding disabled in the ablation mode, §4).
    NonDeliverable {
        /// Correlation id of the undeliverable message.
        corr: CorrId,
        /// Destination that does not exist here.
        pid: ProcessId,
        /// Message type tag.
        msg_type: u16,
    },
    /// Migration lifecycle marker (steps of §3.1).
    Migration {
        /// The migrating process.
        pid: ProcessId,
        /// Which step (see [`MigrationPhase`]).
        phase: MigrationPhase,
        /// Bytes attributable to the step: total offered size on
        /// `Offered`, state bytes received on `StateTransferred`, the
        /// full transferred total on `ImageTransferred`; zero elsewhere.
        /// The phase profiler turns these into §6's cost-vs-size curves.
        bytes: u64,
    },
    /// A forwarding address was installed (step 7).
    ForwardingInstalled {
        /// The migrated process.
        pid: ProcessId,
        /// Destination it points to.
        to: MachineId,
    },
    /// A forwarding address was garbage-collected after a death notice.
    ForwardingCollected {
        /// The dead process.
        pid: ProcessId,
    },
    /// A move-data operation finished.
    MoveDataDone {
        /// Operation id.
        op: u16,
        /// Bytes moved.
        bytes: u64,
        /// 0 = success.
        status: u8,
    },
    /// Free-form program log line.
    Log {
        /// The process that logged.
        pid: ProcessId,
        /// Message text.
        text: String,
    },
}

impl TraceEvent {
    /// The correlation id this event carries, if it is part of a message
    /// journey. Span reconstruction groups events by this key.
    pub fn corr(&self) -> Option<CorrId> {
        match *self {
            TraceEvent::Submitted { corr, .. }
            | TraceEvent::Enqueued { corr, .. }
            | TraceEvent::KernelReceived { corr, .. }
            | TraceEvent::ForwardedMessage { corr, .. }
            | TraceEvent::LinkUpdateSent { corr, .. }
            | TraceEvent::LinkUpdateApplied { corr, .. }
            | TraceEvent::NonDeliverable { corr, .. } => {
                if corr.is_some() {
                    Some(corr)
                } else {
                    None
                }
            }
            // Listed explicitly (not `_`) so that a new event that *does*
            // carry a correlation id cannot silently vanish from spans.
            TraceEvent::Spawned { .. }
            | TraceEvent::Exited { .. }
            | TraceEvent::Migration { .. }
            | TraceEvent::ForwardingInstalled { .. }
            | TraceEvent::ForwardingCollected { .. }
            | TraceEvent::MoveDataDone { .. }
            | TraceEvent::Log { .. } => None,
        }
    }
}

/// Append each field's `Debug` text (`TraceEvent::write_text`).
trait Text {
    fn put(&self, out: &mut Vec<u8>);
}

/// Append `n` in decimal, as `{n}` writes it.
pub fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

macro_rules! decimal_text {
    ($($int:ty),+) => {$(
        impl Text for $int {
            fn put(&self, out: &mut Vec<u8>) {
                push_decimal(out, *self as u64);
            }
        }
    )+};
}

decimal_text!(u8, u16, u32, u64, usize);

impl Text for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl Text for MachineId {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'm');
        self.0.put(out);
    }
}

impl Text for ProcessId {
    fn put(&self, out: &mut Vec<u8>) {
        if self.is_kernel() {
            out.extend_from_slice(b"kernel(");
            self.creating_machine.put(out);
            out.push(b')');
        } else {
            out.push(b'p');
            self.creating_machine.0.put(out);
            out.push(b'.');
            self.local_uid.put(out);
        }
    }
}

impl Text for CorrId {
    fn put(&self, out: &mut Vec<u8>) {
        if self.is_none() {
            out.extend_from_slice(b"corr:-");
        } else {
            out.extend_from_slice(b"corr:m");
            self.machine().0.put(out);
            out.push(b'/');
            self.seq().put(out);
        }
    }
}

impl Text for MigrationPhase {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(match self {
            MigrationPhase::Frozen => b"Frozen",
            MigrationPhase::Offered => b"Offered",
            MigrationPhase::Allocated => b"Allocated",
            MigrationPhase::Rejected => b"Rejected",
            MigrationPhase::StateTransferred => b"StateTransferred",
            MigrationPhase::ImageTransferred => b"ImageTransferred",
            MigrationPhase::PendingForwarded => b"PendingForwarded",
            MigrationPhase::CleanedUp => b"CleanedUp",
            MigrationPhase::Restarted => b"Restarted",
            MigrationPhase::Aborted => b"Aborted",
        });
    }
}

/// Free text keeps `str`'s `Debug` quoting and escaping, which is the
/// one thing not rewritten here.
impl Text for String {
    fn put(&self, out: &mut Vec<u8>) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{self:?}");
    }
}

/// One `match` arm per variant, each writing the derived `Debug` text
/// `Variant { field: value, … }`. The arms bind every field by name and
/// there is no `_`, so a new variant or field fails to compile here.
macro_rules! variant_text {
    ($event:expr, $out:ident, $($variant:ident { $first:ident $(, $field:ident)* }),+ $(,)?) => {
        match $event {
            $(TraceEvent::$variant { $first $(, $field)* } => {
                $out.extend_from_slice(
                    concat!(stringify!($variant), " { ", stringify!($first), ": ").as_bytes(),
                );
                $first.put($out);
                $(
                    $out.extend_from_slice(concat!(", ", stringify!($field), ": ").as_bytes());
                    $field.put($out);
                )*
                $out.extend_from_slice(b" }");
            })+
        }
    };
}

impl TraceEvent {
    /// Append exactly what `format!("{self:?}")` gives to `out`, without
    /// going through `core::fmt` for anything but the `String` fields of
    /// `Spawned` and `Log`. The trace fingerprint and the JSON-lines
    /// export render every record through this; the derived `Debug` stays
    /// as the reference it is tested against.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        variant_text! {
            self,
            out,
            Spawned { pid, program },
            Exited { pid },
            Submitted { corr, dest, msg_type },
            Enqueued { corr, pid, msg_type, forwarded, hops },
            KernelReceived { corr, pid, msg_type },
            ForwardedMessage { corr, pid, to, msg_type },
            LinkUpdateSent { corr, sender, migrated, new_machine },
            LinkUpdateApplied { corr, sender, migrated, patched },
            NonDeliverable { corr, pid, msg_type },
            Migration { pid, phase, bytes },
            ForwardingInstalled { pid, to },
            ForwardingCollected { pid },
            MoveDataDone { op, bytes, status },
            Log { pid, text },
        }
    }
}

/// The phases of the eight-step migration procedure (§3.1), as observed at
/// either the source or destination kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Step 1 (source): removed from execution, marked "in migration".
    Frozen,
    /// Step 2 (source): offer sent to the destination kernel.
    Offered,
    /// Step 3 (destination): empty process state allocated.
    Allocated,
    /// Destination refused the offer (§3.2).
    Rejected,
    /// Step 4 complete (destination): process state transferred.
    StateTransferred,
    /// Step 5 complete (destination): memory image transferred.
    ImageTransferred,
    /// Step 6 (source): pending messages forwarded.
    PendingForwarded,
    /// Step 7 (source): state reclaimed, forwarding address left.
    CleanedUp,
    /// Step 8 (destination): process restarted.
    Restarted,
    /// Migration abandoned (timeout/crash); process resumed at source.
    Aborted,
}

/// A timestamped trace record as stored by the harness.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: Time,
    /// Machine whose kernel emitted it.
    pub machine: MachineId,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        let pid = ProcessId {
            creating_machine: MachineId(0),
            local_uid: 1,
        };
        let a = TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Frozen,
            bytes: 0,
        };
        let b = TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Frozen,
            bytes: 0,
        };
        assert_eq!(a, b);
        assert_ne!(a, TraceEvent::Exited { pid });
    }
}
