//! Kernel management protocol: remote process creation.
//!
//! "The process and memory managers … control processes by sending
//! messages to kernels to manipulate process states" (§2.3). Creation is
//! the one operation that cannot be addressed to a process (it does not
//! exist yet), so it is kernel-addressed: the process manager sends
//! `CreateProcess` to a machine's kernel, which spawns the process and
//! replies over the carried reply link with a fresh link to it.

use bytes::Bytes;
use demos_types::{wire_enum, ProcessId};

use crate::image::ImageLayout;

/// Kernel-addressed management messages (tag
/// [`crate::program::local_tags::KERNEL_MGMT`]).
#[derive(Clone, Debug, PartialEq)]
pub enum KernelMgmt {
    /// Spawn a process running registered program `name` with initial
    /// `state`. Reply link is carried in the message's link slots.
    CreateProcess {
        /// Requester-chosen token echoed in the reply.
        token: u32,
        /// Registered program name.
        name: String,
        /// Initial serialized program state.
        state: Bytes,
        /// Declared segment sizes.
        layout: ImageLayout,
        /// Whether the new process is a system (privileged) process.
        privileged: bool,
    },
    /// Success reply; a link to the new process is carried in the
    /// message's link slots.
    Created {
        /// Echoed request token.
        token: u32,
        /// The new process.
        pid: ProcessId,
    },
    /// Failure reply.
    CreateFailed {
        /// Echoed request token.
        token: u32,
        /// 0 = capacity, 1 = unknown program, 2 = other.
        reason: u8,
    },
}

wire_enum! { KernelMgmt: u8 {
    1 => CreateProcess {
        token: u32,
        name: String[256],
        state: Bytes[1 << 20],
        layout: ImageLayout,
        privileged: bool,
    },
    2 => Created { token: u32, pid: ProcessId },
    3 => CreateFailed { token: u32, reason: u8 },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::wire::roundtrip;
    use demos_types::MachineId;

    #[test]
    fn roundtrips() {
        let msgs = [
            KernelMgmt::CreateProcess {
                token: 7,
                name: "fs".into(),
                state: Bytes::from_static(b"\x01"),
                layout: ImageLayout::default(),
                privileged: true,
            },
            KernelMgmt::Created {
                token: 8,
                pid: ProcessId {
                    creating_machine: MachineId(1),
                    local_uid: 9,
                },
            },
            KernelMgmt::CreateFailed {
                token: 9,
                reason: 1,
            },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }
}
