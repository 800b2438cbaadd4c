//! Checkpoint/restore: migration from a crashed processor (§1).
//!
//! "The mechanisms used in process migration can also be useful in fault
//! recovery … If the information necessary to transport a process is
//! saved in stable storage, it may be possible to 'migrate' a process
//! from a processor that has crashed to a working one."
//!
//! A [`Checkpoint`] is exactly the three blobs a migration transfers
//! (resident state, swappable state, memory image), wire-encoded so it
//! can live in simulated stable storage. Restoring installs the process
//! on a new machine through the same code path migration uses; writing a
//! forwarding address on the revived (empty) processor afterwards lets
//! stale links chase the process to its new home — "since forwarding
//! addresses are (degenerate) processes, the same recovery mechanism that
//! works for processes works for forwarding addresses" (§4).
//!
//! What a checkpoint does **not** contain: the message queue. Messages in
//! flight or queued at crash time are lost with the processor — exactly
//! the semantics of a real crash; the reliable channel's retransmissions
//! cover only transport-level loss, not application state.

use bytes::{BufMut, Bytes};
use demos_types::wire::{self, Wire, WireError};
use demos_types::{DemosError, MachineId, ProcessId, Result, Time};

use crate::image::ProcessImage;
use crate::kernel::{Kernel, Outbox};
use crate::process::Process;
use crate::trace::{MigrationPhase, TraceEvent};

/// A stable-storage image of one process: the three migration blobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The checkpointed process.
    pub pid: ProcessId,
    /// Machine it lived on when checkpointed.
    pub taken_on: MachineId,
    /// Virtual time of the checkpoint.
    pub taken_at: Time,
    /// Resident (non-swappable) state.
    pub resident: Vec<u8>,
    /// Swappable state (link table, accounting).
    pub swappable: Vec<u8>,
    /// Flattened memory image. A checkpoint taken by
    /// [`Kernel::checkpoint`] shares the live image's buffer; the process
    /// copies on its next write, so the snapshot never changes.
    pub image: Bytes,
}

impl Checkpoint {
    /// Total stable-storage bytes.
    pub fn len(&self) -> usize {
        self.resident.len() + self.swappable.len() + self.image.len()
    }

    /// Whether the checkpoint is empty (never true for real checkpoints).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Wire for Checkpoint {
    fn encode(&self, buf: &mut impl BufMut) {
        self.pid.encode(buf);
        self.taken_on.encode(buf);
        self.taken_at.encode(buf);
        wire::put_bytes(buf, &self.resident);
        wire::put_bytes(buf, &self.swappable);
        wire::put_bytes(buf, &self.image);
    }

    fn wire_len(&self) -> usize {
        ProcessId::WIRE_LEN
            + MachineId::WIRE_LEN
            + self.taken_at.wire_len()
            + wire::bytes_len(self.resident.len())
            + wire::bytes_len(self.swappable.len())
            + wire::bytes_len(self.image.len())
    }

    fn decode(buf: &mut Bytes) -> core::result::Result<Self, WireError> {
        let pid = ProcessId::decode(buf)?;
        let taken_on = MachineId::decode(buf)?;
        let taken_at = Time::decode(buf)?;
        // Whatever `Kernel::checkpoint` admits reads back: the bounds are
        // the records' own arithmetic at the 16-bit count limit.
        let resident =
            wire::get_bytes(buf, "Checkpoint.resident", Process::MAX_RESIDENT_LEN)?.to_vec();
        let swappable =
            wire::get_bytes(buf, "Checkpoint.swappable", Process::MAX_SWAPPABLE_LEN)?.to_vec();
        let image = wire::get_bytes(buf, "Checkpoint.image", 64 << 20)?;
        Ok(Checkpoint {
            pid,
            taken_on,
            taken_at,
            resident,
            swappable,
            image,
        })
    }
}

impl Kernel {
    /// Every refusal of [`Kernel::checkpoint`], without its effects: `Ok`
    /// means a checkpoint of `pid` taken now succeeds. Stable storage
    /// asks first, so that it only lets go of the previous checkpoint
    /// when there will be a new one.
    pub fn checkpointable(&self, pid: ProcessId) -> Result<()> {
        if pid.is_kernel() {
            return Err(DemosError::KernelImmovable(self.machine()));
        }
        self.process(pid)
            .ok_or(DemosError::NoSuchProcess(pid))?
            .check_record_counts()
    }

    /// Take a checkpoint of a local process: refresh its image from the
    /// live program and serialize the three migration blobs. The process
    /// keeps running: the image is shared, not copied, and the process's
    /// next write to it copies on write.
    pub fn checkpoint(&mut self, now: Time, pid: ProcessId) -> Result<Checkpoint> {
        self.checkpointable(pid)?;
        let machine = self.machine();
        let proc = self
            .process_mut(pid)
            .ok_or(DemosError::NoSuchProcess(pid))?;
        proc.refresh_image();
        Ok(Checkpoint {
            pid,
            taken_on: machine,
            taken_at: now,
            resident: proc.serialize_resident(),
            swappable: proc.serialize_swappable(),
            image: proc.image.shared_flat(),
        })
    }

    /// Restore a checkpointed process on *this* machine (which must not
    /// already host it). The process resumes from the checkpointed state;
    /// anything that happened after the checkpoint — including queued
    /// messages — is lost, as in a real crash.
    pub fn restore_checkpoint(
        &mut self,
        now: Time,
        ck: &Checkpoint,
        out: &mut Outbox,
    ) -> Result<ProcessId> {
        let _ = now;
        let image = ProcessImage::from_flat(&ck.image).map_err(DemosError::Wire)?;
        let slot = self.reserve_incoming(ck.pid, image.total_len() as u64)?;
        let (resident, swappable) = (
            Bytes::copy_from_slice(&ck.resident),
            Bytes::copy_from_slice(&ck.swappable),
        );
        let pid = match self.install_image(slot, ck.taken_on, resident, swappable, image, out) {
            Ok(pid) => pid,
            Err(e) => {
                self.release_reservation(slot);
                return Err(e);
            }
        };
        self.restart_migrated(pid, out)?;
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Restarted,
            bytes: 0,
        });
        Ok(pid)
    }

    /// Write a forwarding address by hand — the recovery action a revived
    /// (or surviving) processor takes so stale links can find a process
    /// that was restored elsewhere (§4's recovery remark).
    pub fn install_forwarding(&mut self, pid: ProcessId, to: MachineId, out: &mut Outbox) {
        self.forwarding_insert(pid, to);
        out.trace.push(TraceEvent::ForwardingInstalled { pid, to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Ctx, Delivered, Program, Registry};
    use crate::ImageLayout;
    use std::sync::Arc;

    struct Echo(u64);
    impl Program for Echo {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {
            self.0 += 1;
        }
        fn save(&self) -> Vec<u8> {
            self.0.to_be_bytes().to_vec()
        }
    }

    fn registry() -> Arc<Registry> {
        let mut r = Registry::new();
        r.register("echo", |s| {
            let mut b = [0u8; 8];
            if s.len() == 8 {
                b.copy_from_slice(s);
            }
            Box::new(Echo(u64::from_be_bytes(b)))
        });
        r.into_shared()
    }

    #[test]
    fn checkpoint_roundtrips_on_wire() {
        let reg = registry();
        let mut k = Kernel::new(MachineId(0), crate::KernelConfig::default(), reg);
        let mut out = Outbox::default();
        let pid = k
            .spawn(
                Time(0),
                "echo",
                &7u64.to_be_bytes(),
                ImageLayout::default(),
                false,
                &mut out,
            )
            .unwrap();
        let ck = k.checkpoint(Time(5), pid).unwrap();
        let back = demos_types::wire::roundtrip(&ck).unwrap();
        assert_eq!(back, ck);
        assert!(ck.len() > 250 + 14_000);
        assert!(!ck.is_empty());
    }

    #[test]
    fn restore_on_another_kernel_preserves_program_state() {
        let reg = registry();
        let mut a = Kernel::new(
            MachineId(0),
            crate::KernelConfig::default(),
            Arc::clone(&reg),
        );
        let mut b = Kernel::new(MachineId(1), crate::KernelConfig::default(), reg);
        let mut out = Outbox::default();
        let pid = a
            .spawn(
                Time(0),
                "echo",
                &42u64.to_be_bytes(),
                ImageLayout::default(),
                false,
                &mut out,
            )
            .unwrap();
        let ck = a.checkpoint(Time(1), pid).unwrap();
        // (machine A "crashes" — we simply stop using it.)
        let restored = b.restore_checkpoint(Time(2), &ck, &mut out).unwrap();
        assert_eq!(restored, pid, "identity preserved across crash recovery");
        let p = b.process(pid).unwrap();
        assert_eq!(
            p.program.as_ref().unwrap().save(),
            42u64.to_be_bytes().to_vec()
        );
        assert!(!p.in_migration);
    }

    #[test]
    fn restore_refuses_duplicate() {
        let reg = registry();
        let mut a = Kernel::new(MachineId(0), crate::KernelConfig::default(), reg);
        let mut out = Outbox::default();
        let pid = a
            .spawn(
                Time(0),
                "echo",
                &[0u8; 8],
                ImageLayout::default(),
                false,
                &mut out,
            )
            .unwrap();
        let ck = a.checkpoint(Time(1), pid).unwrap();
        // The process still lives here: restoring on the same kernel fails.
        assert!(a.restore_checkpoint(Time(2), &ck, &mut out).is_err());
    }

    #[test]
    fn kernel_cannot_be_checkpointed() {
        let reg = registry();
        let mut a = Kernel::new(MachineId(0), crate::KernelConfig::default(), reg);
        assert!(a
            .checkpoint(Time(0), ProcessId::kernel_of(MachineId(0)))
            .is_err());
    }
}
