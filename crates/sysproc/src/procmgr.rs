//! The process manager.
//!
//! "The process and memory managers handle all the high-level scheduling
//! decisions for processes… They control processes by sending messages to
//! kernels to manipulate process states. For example, although the kernel
//! implements the mechanisms of migrating a process, the process manager
//! makes the decision of when and to where to migrate a process" (§2.3).
//!
//! This implementation offers three services over [`PmMsg`]:
//!
//! * **Spawn** — forwards a `CreateProcess` to the target machine's
//!   kernel and relays the resulting process link to the requester;
//! * **Migrate** — derives a `DELIVERTOKERNEL` link from the carried
//!   process link and sends the kernel a `MigrateRequest` (migration
//!   message #1), passing the requester's reply link along so the
//!   destination kernel's `Done` (#9) reaches the requester directly;
//! * **Kill** — sends `Kill` over a derived `DELIVERTOKERNEL` link.
//!
//! Policy-driven automatic migration (when/where) is the open research
//! question the paper defers; the `demos-policy` crate implements decision
//! rules which harnesses drive against cluster state.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut};
use demos_kernel::mgmt::KernelMgmt;
use demos_kernel::{local_tags, Carry, Ctx, Delivered, Program};
use demos_types::proto::KernelOp;
use demos_types::wire::Wire;
use demos_types::{tags, Link, LinkIdx, MachineId};

use crate::proto::{sys, PmMsg};

/// The process manager program.
#[derive(Debug, Default)]
pub struct ProcMgr {
    /// Number of machines whose kernels we hold links to (installed at
    /// bootstrap as link indices 1..=n in order).
    machines: u16,
    /// Pending spawn requests: kernel-mgmt token → reply link index.
    pending: BTreeMap<u32, u32>,
    next_token: u32,
    /// Processes created (statistics).
    pub created: u64,
}

impl ProcMgr {
    /// Program name in the registry.
    pub const NAME: &'static str = "procmgr";

    /// Initial state for a cluster of `machines` machines. The bootstrap
    /// code must install kernel links for machines 0..n as the *first* n
    /// links in the process's table (indices 1..=n).
    pub fn state(machines: u16) -> Vec<u8> {
        let pm = ProcMgr {
            machines,
            ..ProcMgr::default()
        };
        pm.save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = state;
        let mut pm = ProcMgr::default();
        if b.remaining() >= 14 {
            pm.machines = b.get_u16();
            pm.created = b.get_u64();
            pm.next_token = b.get_u32();
            let n = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n {
                if b.remaining() < 8 {
                    break;
                }
                let tok = b.get_u32();
                let reply = b.get_u32();
                pm.pending.insert(tok, reply);
            }
        }
        Box::new(pm)
    }

    /// Link-table index of machine `m`'s kernel link (bootstrap layout).
    fn kernel_link(&self, m: MachineId) -> Option<LinkIdx> {
        (m.0 < self.machines).then_some(LinkIdx(1 + m.0 as u32))
    }
}

impl Program for ProcMgr {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            sys::PROCMGR => {
                let Ok(m) = PmMsg::from_bytes(&msg.payload) else {
                    return;
                };
                match m {
                    PmMsg::Spawn {
                        machine,
                        program,
                        state,
                        layout,
                        privileged,
                    } => {
                        let Some(reply) = msg.links.first().copied() else {
                            return;
                        };
                        let Some(klink) = self.kernel_link(machine) else {
                            let payload = ctx.encode(&PmMsg::SpawnFailed { reason: 2 });
                            let _ = ctx.send(reply, sys::PROCMGR, payload, &[]);
                            return;
                        };
                        let token = self.next_token;
                        self.next_token = self.next_token.wrapping_add(1);
                        self.pending.insert(token, reply.0);
                        let req = KernelMgmt::CreateProcess {
                            token,
                            name: program,
                            state,
                            layout,
                            privileged,
                        };
                        // Carry a reply link so the kernel's answer comes
                        // back to us.
                        let payload = ctx.encode(&req);
                        let _ = ctx.send(
                            klink,
                            local_tags::KERNEL_MGMT,
                            payload,
                            &[Carry::New(demos_types::LinkAttrs::NONE)],
                        );
                    }
                    PmMsg::Migrate { dest } => {
                        // Slot 0: requester's reply link (gets Done #9);
                        // slot 1: a link to the process to migrate.
                        let (Some(&reply), Some(&proc_link)) =
                            (msg.links.first(), msg.links.get(1))
                        else {
                            return;
                        };
                        if let Ok(dtk) = ctx.dup_as_dtk(proc_link) {
                            let op = KernelOp::MigrateRequest { dest, flags: 0 };
                            let payload = ctx.encode(&op);
                            let _ = ctx.send(dtk, tags::KERNEL_OP, payload, &[Carry::Move(reply)]);
                            let _ = ctx.destroy_link(dtk);
                        }
                        let _ = ctx.destroy_link(proc_link);
                    }
                    PmMsg::Kill => {
                        if let Some(&proc_link) = msg.links.first() {
                            if let Ok(dtk) = ctx.dup_as_dtk(proc_link) {
                                let payload = ctx.encode(&KernelOp::Kill);
                                let _ = ctx.send(dtk, tags::KERNEL_OP, payload, &[]);
                                let _ = ctx.destroy_link(dtk);
                            }
                            let _ = ctx.destroy_link(proc_link);
                        }
                    }
                    // Replies the manager sends, never receives.
                    PmMsg::Spawned { .. } | PmMsg::SpawnFailed { .. } => {}
                }
            }
            local_tags::KERNEL_MGMT => {
                let Ok(m) = KernelMgmt::from_bytes(&msg.payload) else {
                    return;
                };
                match m {
                    KernelMgmt::Created { token, pid } => {
                        if let Some(reply_idx) = self.pending.remove(&token) {
                            self.created += 1;
                            let reply = LinkIdx(reply_idx);
                            // The kernel's reply carried a link to the new
                            // process; pass it through to the requester.
                            let carried = msg.links.first().copied();
                            let payload = ctx.encode(&PmMsg::Spawned {
                                creating_machine: pid.creating_machine,
                                local_uid: pid.local_uid,
                            });
                            match carried {
                                Some(l) => {
                                    let _ =
                                        ctx.send(reply, sys::PROCMGR, payload, &[Carry::Move(l)]);
                                }
                                None => {
                                    let _ = ctx.send(reply, sys::PROCMGR, payload, &[]);
                                }
                            }
                            let _ = ctx.destroy_link(reply);
                        }
                    }
                    KernelMgmt::CreateFailed { token, reason } => {
                        if let Some(reply_idx) = self.pending.remove(&token) {
                            let reply = LinkIdx(reply_idx);
                            let payload = ctx.encode(&PmMsg::SpawnFailed { reason });
                            let _ = ctx.send(reply, sys::PROCMGR, payload, &[]);
                            let _ = ctx.destroy_link(reply);
                        }
                    }
                    KernelMgmt::CreateProcess { .. } => {}
                }
            }
            _ => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u16(self.machines);
        b.put_u64(self.created);
        b.put_u32(self.next_token);
        b.put_u16(self.pending.len() as u16);
        for (tok, reply) in &self.pending {
            b.put_u32(*tok);
            b.put_u32(*reply);
        }
        b
    }
}

/// Bootstrap helper: the links the process manager expects, in order —
/// one kernel link per machine. Install these (via
/// `Kernel::install_link`) immediately after spawning the PM, before it
/// handles any message.
pub fn pm_bootstrap_links(machines: u16) -> Vec<Link> {
    (0..machines)
        .map(|m| Link::to_kernel(MachineId(m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        let mut pm = ProcMgr {
            machines: 4,
            created: 2,
            next_token: 7,
            ..Default::default()
        };
        pm.pending.insert(5, 10);
        let back = ProcMgr::restore(&pm.save());
        assert_eq!(back.save(), pm.save());
    }

    #[test]
    fn kernel_link_layout() {
        let pm = ProcMgr {
            machines: 3,
            ..Default::default()
        };
        assert_eq!(pm.kernel_link(MachineId(0)), Some(LinkIdx(1)));
        assert_eq!(pm.kernel_link(MachineId(2)), Some(LinkIdx(3)));
        assert_eq!(pm.kernel_link(MachineId(3)), None);
    }

    #[test]
    fn bootstrap_links_point_at_kernels() {
        let links = pm_bootstrap_links(2);
        assert_eq!(links.len(), 2);
        assert!(links[0].target().is_kernel());
        assert_eq!(links[1].addr.last_known_machine, MachineId(1));
    }
}
