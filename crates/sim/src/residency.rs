//! Where every process lives: the index behind
//! [`Cluster::where_is`](crate::Cluster::where_is). One `(pid, machine)`
//! pair per machine whose process table holds the pid — two between
//! migration steps 5 and 7 — so a lookup walks one pid's pairs instead of
//! visiting every kernel.
//!
//! A process table changes in four places, each reported by a kernel
//! event that [`change`] reads: spawn, kill, `install_image` (migration
//! and checkpoint restore) and `finish_source_side`. The cluster and the
//! shard workers fold them in wherever they drain an outbox. A table that
//! changes any other way — a reboot swaps in an empty kernel, a node
//! handed out by `Cluster::node_mut` may be changed with an outbox of the
//! caller's own — is taken out and read back whole ([`Residency::set_table`]).

use std::collections::BTreeSet;

use demos_kernel::{Kernel, MigrationPhase, TraceEvent};
use demos_types::{MachineId, ProcessId};

/// A process arriving in (`true`) or leaving (`false`) a machine's
/// process table.
pub(crate) type Change = (ProcessId, MachineId, bool);

/// The residency change `ev`, emitted by `machine`'s kernel, reports.
pub(crate) fn change(machine: MachineId, ev: &TraceEvent) -> Option<Change> {
    match *ev {
        TraceEvent::Spawned { pid, .. }
        | TraceEvent::Migration {
            pid,
            phase: MigrationPhase::ImageTransferred,
            ..
        } => Some((pid, machine, true)),
        TraceEvent::Exited { pid }
        | TraceEvent::Migration {
            pid,
            phase: MigrationPhase::CleanedUp,
            ..
        } => Some((pid, machine, false)),
        // Listed, not `_`: a new event that changes a process table must
        // not fall through here unseen.
        TraceEvent::Migration { .. }
        | TraceEvent::Submitted { .. }
        | TraceEvent::Enqueued { .. }
        | TraceEvent::KernelReceived { .. }
        | TraceEvent::ForwardedMessage { .. }
        | TraceEvent::LinkUpdateSent { .. }
        | TraceEvent::LinkUpdateApplied { .. }
        | TraceEvent::NonDeliverable { .. }
        | TraceEvent::ForwardingInstalled { .. }
        | TraceEvent::ForwardingCollected { .. }
        | TraceEvent::MoveDataDone { .. }
        | TraceEvent::Log { .. } => None,
    }
}

/// The `(pid, machine)` pairs of every process table.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    pairs: BTreeSet<(ProcessId, MachineId)>,
}

impl Residency {
    pub(crate) fn apply(&mut self, (pid, machine, arrived): Change) {
        if arrived {
            self.pairs.insert((pid, machine));
        } else {
            self.pairs.remove(&(pid, machine));
        }
    }

    /// Every machine indexed as holding `pid`, ascending.
    pub(crate) fn hosts(&self, pid: ProcessId) -> impl Iterator<Item = MachineId> + '_ {
        self.pairs
            .range((pid, MachineId(0))..=(pid, MachineId(u16::MAX)))
            .map(|&(_, m)| m)
    }

    /// Index (`true`) or forget (`false`) every process in `kernel`'s
    /// table as held by its machine.
    pub(crate) fn set_table(&mut self, kernel: &Kernel, held: bool) {
        for pid in kernel.pids() {
            self.apply((pid, kernel.machine(), held));
        }
    }
}
