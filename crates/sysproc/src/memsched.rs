//! The memory scheduler: coarse cluster-wide memory accounting (§2.3).
//!
//! "The process and memory managers … allocate and keep track of usage
//! for system resources such as the CPU, real memory, etc." This server
//! tracks a grant ledger per machine; the process manager and policies
//! consult it before placing or migrating processes. (Kernels enforce
//! their own hard capacity independently — this is the advisory,
//! high-level view.)

use bytes::{Buf, BufMut};
use demos_kernel::{Ctx, Delivered, Program};
use demos_types::wire::Wire;
use demos_types::MachineId;

use crate::proto::{sys, MemMsg};

/// The memory-scheduler program.
#[derive(Debug, Default)]
pub struct MemSched {
    /// Capacity per machine, bytes.
    capacity: Vec<u64>,
    /// Granted per machine, bytes.
    granted: Vec<u64>,
    /// Requests served.
    pub requests: u64,
}

impl MemSched {
    /// Program name in the registry.
    pub const NAME: &'static str = "memsched";

    /// Initial state: `machines` machines with `capacity` bytes each.
    pub fn state(machines: u16, capacity: u64) -> Vec<u8> {
        let ms = MemSched {
            capacity: vec![capacity; machines as usize],
            granted: vec![0; machines as usize],
            requests: 0,
        };
        ms.save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = state;
        let mut ms = MemSched::default();
        if b.remaining() >= 10 {
            ms.requests = b.get_u64();
            let n = b.get_u16() as usize;
            for _ in 0..n {
                if b.remaining() < 16 {
                    break;
                }
                ms.capacity.push(b.get_u64());
                ms.granted.push(b.get_u64());
            }
        }
        Box::new(ms)
    }

    fn free(&self, m: MachineId) -> u64 {
        let i = m.0 as usize;
        if i >= self.capacity.len() {
            return 0;
        }
        self.capacity[i].saturating_sub(self.granted[i])
    }
}

impl Program for MemSched {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type != sys::MEMSCHED {
            return;
        }
        let Ok(m) = MemMsg::from_bytes(&msg.payload) else {
            return;
        };
        self.requests += 1;
        match m {
            MemMsg::Reserve { machine, bytes } => {
                let i = machine.0 as usize;
                let ok = i < self.capacity.len() && self.free(machine) >= bytes;
                if ok {
                    self.granted[i] += bytes;
                }
                if let Some(reply) = msg.links.first() {
                    let payload = ctx.encode(&MemMsg::Granted {
                        ok,
                        free: self.free(machine),
                    });
                    let _ = ctx.send(*reply, sys::MEMSCHED, payload, &[]);
                }
            }
            MemMsg::Release { machine, bytes } => {
                let i = machine.0 as usize;
                if i < self.granted.len() {
                    self.granted[i] = self.granted[i].saturating_sub(bytes);
                }
            }
            MemMsg::Query { machine } => {
                if let Some(reply) = msg.links.first() {
                    let payload = ctx.encode(&MemMsg::Granted {
                        ok: true,
                        free: self.free(machine),
                    });
                    let _ = ctx.send(*reply, sys::MEMSCHED, payload, &[]);
                }
            }
            MemMsg::Granted { .. } => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u64(self.requests);
        b.put_u16(self.capacity.len() as u16);
        for i in 0..self.capacity.len() {
            b.put_u64(self.capacity[i]);
            b.put_u64(self.granted[i]);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        let ms = MemSched {
            capacity: vec![100, 200],
            granted: vec![10, 0],
            requests: 3,
        };
        let back = MemSched::restore(&ms.save());
        assert_eq!(back.save(), ms.save());
    }

    #[test]
    fn free_accounting() {
        let ms = MemSched {
            capacity: vec![100],
            granted: vec![30],
            requests: 0,
        };
        assert_eq!(ms.free(MachineId(0)), 70);
        assert_eq!(ms.free(MachineId(9)), 0, "unknown machine has no memory");
    }
}
