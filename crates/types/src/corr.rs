//! Correlation identifiers for causal message tracing.
//!
//! Every message entering a kernel's delivery system is stamped with a
//! cluster-unique [`CorrId`] at submit time. The id travels *alongside*
//! the message — in the in-memory [`crate::Message`] and in the
//! transport frame metadata — never inside the byte-exact wire
//! encoding, so enabling tracing cannot perturb wire sizes, replay
//! fingerprints, or any of the paper's byte counts. Forwarding hops
//! (§4), pending-queue resubmission (§3.1 step 6), retransmissions and
//! the §5 link-update by-product all preserve the originating id, which
//! is what lets the observability layer reassemble one message's whole
//! journey from the flat event trace.

use core::fmt;

/// A cluster-unique correlation id: the originating machine in the top
/// 16 bits, a per-kernel counter below.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CorrId(pub u64);

impl CorrId {
    /// "Not yet assigned" — messages are built with this and stamped by
    /// the first kernel that submits them.
    pub const NONE: CorrId = CorrId(0);

    /// Construct from originating machine and per-kernel sequence
    /// number (sequence 0 is reserved so no real id equals [`CorrId::NONE`]).
    pub fn new(machine: crate::MachineId, seq: u64) -> CorrId {
        debug_assert!(seq > 0 || machine.0 > 0, "corr id 0 is reserved");
        CorrId((u64::from(machine.0) << 48) | (seq & 0xFFFF_FFFF_FFFF))
    }

    /// Whether this id has not been assigned.
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Whether this id has been assigned.
    pub const fn is_some(self) -> bool {
        self.0 != 0
    }

    /// Machine that assigned the id.
    pub fn machine(self) -> crate::MachineId {
        let [hi, lo, ..] = self.0.to_be_bytes();
        crate::MachineId(u16::from_be_bytes([hi, lo]))
    }

    /// Per-kernel sequence component.
    pub const fn seq(self) -> u64 {
        self.0 & 0xFFFF_FFFF_FFFF
    }
}

impl fmt::Debug for CorrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "corr:-")
        } else {
            write!(f, "corr:m{}/{}", self.machine().0, self.seq())
        }
    }
}

impl fmt::Display for CorrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineId;

    #[test]
    fn components_roundtrip() {
        let c = CorrId::new(MachineId(3), 41);
        assert_eq!(c.machine(), MachineId(3));
        assert_eq!(c.seq(), 41);
        assert!(c.is_some());
        assert!(CorrId::NONE.is_none());
        assert_eq!(format!("{c}"), "corr:m3/41");
        assert_eq!(format!("{}", CorrId::NONE), "corr:-");
    }
}
