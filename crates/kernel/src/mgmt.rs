//! Kernel management protocol: remote process creation.
//!
//! "The process and memory managers … control processes by sending
//! messages to kernels to manipulate process states" (§2.3). Creation is
//! the one operation that cannot be addressed to a process (it does not
//! exist yet), so it is kernel-addressed: the process manager sends
//! `CreateProcess` to a machine's kernel, which spawns the process and
//! replies over the carried reply link with a fresh link to it.

use bytes::{Buf, BufMut, Bytes};
use demos_types::wire::{self, Wire, WireError};
use demos_types::ProcessId;

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

impl Wire for KernelMgmt {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            KernelMgmt::CreateProcess {
                token,
                name,
                state,
                layout,
                privileged,
            } => {
                buf.put_u8(1);
                buf.put_u32(*token);
                wire::put_string(buf, name);
                wire::put_bytes(buf, state);
                layout.encode(buf);
                buf.put_u8(*privileged as u8);
            }
            KernelMgmt::Created { token, pid } => {
                buf.put_u8(2);
                buf.put_u32(*token);
                pid.encode(buf);
            }
            KernelMgmt::CreateFailed { token, reason } => {
                buf.put_u8(3);
                buf.put_u32(*token);
                buf.put_u8(*reason);
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            KernelMgmt::CreateProcess {
                name,
                state,
                layout,
                ..
            } => {
                1 + 4
                    + wire::bytes_len(name.len())
                    + wire::bytes_len(state.len())
                    + layout.wire_len()
                    + 1
            }
            KernelMgmt::Created { .. } => 1 + 4 + ProcessId::WIRE_LEN,
            KernelMgmt::CreateFailed { .. } => 1 + 4 + 1,
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("KernelMgmt"));
        }
        match buf.get_u8() {
            1 => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated("CreateProcess.token"));
                }
                let token = buf.get_u32();
                let name = wire::get_string(buf, "CreateProcess.name", 256)?;
                let state = wire::get_bytes(buf, "CreateProcess.state", 1 << 20)?;
                let layout = ImageLayout::decode(buf)?;
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated("CreateProcess.privileged"));
                }
                Ok(KernelMgmt::CreateProcess {
                    token,
                    name,
                    state,
                    layout,
                    privileged: buf.get_u8() != 0,
                })
            }
            2 => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated("Created.token"));
                }
                let token = buf.get_u32();
                Ok(KernelMgmt::Created {
                    token,
                    pid: ProcessId::decode(buf)?,
                })
            }
            3 => {
                if buf.remaining() < 5 {
                    return Err(WireError::Truncated("CreateFailed"));
                }
                Ok(KernelMgmt::CreateFailed {
                    token: buf.get_u32(),
                    reason: buf.get_u8(),
                })
            }
            t => Err(WireError::BadTag {
                what: "KernelMgmt",
                tag: t as u16,
            }),
        }
    }
}

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
