//! The switchboard: "a server that distributes links by name. It is used
//! by the system and user processes to connect arbitrary processes
//! together" (§2.3).
//!
//! Links registered with the switchboard live in its own link table (as
//! indices in program state), so the whole name service migrates like any
//! other process — one of the demonstrations the examples run.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes};
use demos_kernel::{Carry, Ctx, Delivered, Program};
use demos_types::wire::Wire;
use demos_types::LinkIdx;

use crate::proto::{sys, SbMsg};

/// The switchboard server program.
#[derive(Debug, Default)]
pub struct Switchboard {
    /// name → link-table index of the registered link.
    names: BTreeMap<String, u32>,
    /// Successful lookups served (statistics).
    pub lookups: u64,
}

impl Switchboard {
    /// Program name in the registry.
    pub const NAME: &'static str = "switchboard";

    /// Initial (empty) state.
    pub fn state() -> Vec<u8> {
        Switchboard::default().save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut sb = Switchboard::default();
        if b.remaining() >= 8 {
            sb.lookups = b.get_u64();
            let n = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..n {
                let Ok(name) = demos_types::wire::get_string(&mut b, "sb.name", 128) else {
                    break;
                };
                if b.remaining() < 4 {
                    break;
                }
                sb.names.insert(name, b.get_u32());
            }
        }
        Box::new(sb)
    }
}

impl Program for Switchboard {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        if msg.msg_type != sys::SWITCHBOARD {
            return;
        }
        let Ok(m) = SbMsg::from_bytes(&msg.payload) else {
            return;
        };
        match m {
            SbMsg::Register { name } => {
                // Two links: [reply, target]; one link: [target] (no
                // acknowledgement wanted — bootstrap registrations).
                let (reply_slot, target) = match msg.links.len() {
                    0 => (None, None),
                    1 => (None, msg.links.first().copied()),
                    _ => (msg.links.first().copied(), msg.links.get(1).copied()),
                };
                let ok = target.is_some();
                if let Some(t) = target {
                    // Replacing an old registration: drop the stale link.
                    if let Some(old) = self.names.insert(name, t.0) {
                        let _ = ctx.destroy_link(LinkIdx(old));
                    }
                }
                if let Some(reply) = reply_slot {
                    let payload = ctx.encode(&SbMsg::Registered { ok });
                    let _ = ctx.send(reply, sys::SWITCHBOARD, payload, &[]);
                }
            }
            SbMsg::Lookup { name } => {
                let Some(reply) = msg.links.first().copied() else {
                    return;
                };
                match self.names.get(&name).copied() {
                    Some(idx) => {
                        self.lookups += 1;
                        let payload = ctx.encode(&SbMsg::Found { name });
                        let _ = ctx.send(
                            reply,
                            sys::SWITCHBOARD,
                            payload,
                            &[Carry::Dup(LinkIdx(idx))],
                        );
                    }
                    None => {
                        let payload = ctx.encode(&SbMsg::NotFound { name });
                        let _ = ctx.send(reply, sys::SWITCHBOARD, payload, &[]);
                    }
                }
            }
            // Replies the switchboard sends, never receives.
            SbMsg::Registered { .. } | SbMsg::Found { .. } | SbMsg::NotFound { .. } => {}
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u64(self.lookups);
        b.put_u16(self.names.len() as u16);
        for (name, idx) in &self.names {
            demos_types::wire::put_string(&mut b, name);
            b.put_u32(*idx);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        let mut sb = Switchboard::default();
        sb.names.insert("fs".into(), 3);
        sb.names.insert("pm".into(), 5);
        sb.lookups = 9;
        let back = Switchboard::restore(&sb.save());
        assert_eq!(back.save(), sb.save());
    }

    #[test]
    fn empty_state() {
        let back = Switchboard::restore(&Switchboard::state());
        assert_eq!(back.save(), Switchboard::default().save());
    }
}
