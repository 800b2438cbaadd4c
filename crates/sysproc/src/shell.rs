//! The command interpreter: scripted interactive access (§2.3).
//!
//! "The command interpreter allows interactive access to DEMOS/MP
//! programs." Ours executes a pre-compiled script of timed commands
//! against the process manager: spawn a program somewhere, migrate the
//! n-th process it created, kill it, or log a marker. It exists to drive
//! the runnable examples the way an operator at a terminal would have.

use bytes::{Buf, BufMut, Bytes};
use demos_kernel::{Carry, Ctx, Delivered, ImageLayout, Program};
use demos_types::proto::MigrateMsg;
use demos_types::wire::{self, Wire};
use demos_types::{tags, Duration, LinkAttrs, LinkIdx, MachineId};

use crate::proto::{sys, PmMsg};
use crate::wl_init::INIT;

/// One scripted command.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// Spawn `program` on `machine` with the given initial state.
    Spawn {
        /// Target machine.
        machine: MachineId,
        /// Registered program name.
        program: String,
        /// Initial state blob.
        state: Vec<u8>,
        /// Image layout.
        layout: ImageLayout,
    },
    /// Migrate the `nth` process this shell created to `dest`.
    Migrate {
        /// Index into the shell's creation history.
        nth: u16,
        /// Destination machine.
        dest: MachineId,
    },
    /// Kill the `nth` created process.
    Kill {
        /// Index into the creation history.
        nth: u16,
    },
    /// Emit a trace log line.
    Log(String),
}

/// A script entry: wait `delay_us`, then run the command.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptEntry {
    /// Delay before the command, microseconds.
    pub delay_us: u32,
    /// The command.
    pub cmd: Cmd,
}

/// Encode a script for [`Shell::state`].
pub fn encode_script(entries: &[ScriptEntry]) -> Vec<u8> {
    let mut b = Vec::new();
    b.put_u16(entries.len() as u16);
    for e in entries {
        b.put_u32(e.delay_us);
        match &e.cmd {
            Cmd::Spawn {
                machine,
                program,
                state,
                layout,
            } => {
                b.put_u8(1);
                machine.encode(&mut b);
                wire::put_string(&mut b, program);
                wire::put_bytes(&mut b, state);
                layout.encode(&mut b);
            }
            Cmd::Migrate { nth, dest } => {
                b.put_u8(2);
                b.put_u16(*nth);
                dest.encode(&mut b);
            }
            Cmd::Kill { nth } => {
                b.put_u8(3);
                b.put_u16(*nth);
            }
            Cmd::Log(s) => {
                b.put_u8(4);
                wire::put_string(&mut b, s);
            }
        }
    }
    b
}

fn decode_script(b: &mut Bytes) -> Vec<ScriptEntry> {
    let mut out = Vec::new();
    if b.remaining() < 2 {
        return out;
    }
    let n = b.get_u16() as usize;
    for _ in 0..n {
        if b.remaining() < 5 {
            break;
        }
        let delay_us = b.get_u32();
        let cmd = match b.get_u8() {
            1 => {
                let Ok(machine) = MachineId::decode(b) else {
                    break;
                };
                let Ok(program) = wire::get_string(b, "shell.program", 128) else {
                    break;
                };
                let Ok(state) = wire::get_bytes(b, "shell.state", 1 << 20) else {
                    break;
                };
                let Ok(layout) = ImageLayout::decode(b) else {
                    break;
                };
                Cmd::Spawn {
                    machine,
                    program,
                    state: state.to_vec(),
                    layout,
                }
            }
            2 => {
                if b.remaining() < 4 {
                    break;
                }
                let nth = b.get_u16();
                let Ok(dest) = MachineId::decode(b) else {
                    break;
                };
                Cmd::Migrate { nth, dest }
            }
            3 => {
                if b.remaining() < 2 {
                    break;
                }
                Cmd::Kill { nth: b.get_u16() }
            }
            _ => {
                let Ok(s) = wire::get_string(b, "shell.log", 256) else {
                    break;
                };
                Cmd::Log(s)
            }
        };
        out.push(ScriptEntry { delay_us, cmd });
    }
    out
}

/// The command-interpreter program.
#[derive(Debug, Default)]
pub struct Shell {
    /// Link to the process manager (0 until INIT).
    pm: u32,
    /// The script.
    script: Vec<ScriptEntry>,
    /// Next entry to execute.
    pc: u16,
    /// Links to processes created so far (link-table indices).
    created: Vec<u32>,
    /// Spawn completions observed.
    pub spawned_ok: u64,
    /// Spawn failures observed.
    pub spawn_failed: u64,
    /// Migration completions observed (`Done` status 0).
    pub migrations_ok: u64,
    /// Migration failures observed.
    pub migrations_failed: u64,
}

impl Shell {
    /// Program name in the registry.
    pub const NAME: &'static str = "shell";

    /// Initial state for a script.
    pub fn state(entries: &[ScriptEntry]) -> Vec<u8> {
        let shell = Shell {
            script: decode_script(&mut Bytes::from(encode_script(entries))),
            ..Default::default()
        };
        shell.save()
    }

    /// Restore from serialized state.
    pub fn restore(state: &[u8]) -> Box<dyn Program> {
        let mut b = Bytes::copy_from_slice(state);
        let mut s = Shell::default();
        if b.remaining() >= 4 + 2 + 32 {
            s.pm = b.get_u32();
            s.pc = b.get_u16();
            s.spawned_ok = b.get_u64();
            s.spawn_failed = b.get_u64();
            s.migrations_ok = b.get_u64();
            s.migrations_failed = b.get_u64();
            let nc = if b.remaining() >= 2 { b.get_u16() } else { 0 };
            for _ in 0..nc {
                if b.remaining() < 4 {
                    break;
                }
                s.created.push(b.get_u32());
            }
            s.script = decode_script(&mut b);
        }
        Box::new(s)
    }

    fn arm_next(&self, ctx: &mut Ctx<'_>) {
        if let Some(e) = self.script.get(self.pc as usize) {
            ctx.set_timer(Duration::from_micros(e.delay_us.max(1) as u64), 1);
        }
    }
}

impl Program for Shell {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivered) {
        match msg.msg_type {
            INIT => {
                if let Some(&pm) = msg.links.first() {
                    self.pm = pm.0;
                    self.arm_next(ctx);
                }
            }
            sys::PROCMGR => {
                let Ok(m) = PmMsg::from_bytes(&msg.payload) else {
                    return;
                };
                match m {
                    PmMsg::Spawned { .. } => {
                        self.spawned_ok += 1;
                        if let Some(&l) = msg.links.first() {
                            self.created.push(l.0);
                        }
                    }
                    PmMsg::SpawnFailed { .. } => self.spawn_failed += 1,
                    // Requests to the process manager.
                    PmMsg::Spawn { .. } | PmMsg::Migrate { .. } | PmMsg::Kill => {}
                }
            }
            tags::MIGRATE => {
                if let Ok(MigrateMsg::Done { status, .. }) = MigrateMsg::from_bytes(&msg.payload) {
                    if status == 0 {
                        self.migrations_ok += 1;
                    } else {
                        self.migrations_failed += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(entry) = self.script.get(self.pc as usize).cloned() else {
            return;
        };
        self.pc += 1;
        let pm = (self.pm != 0).then_some(LinkIdx(self.pm));
        match entry.cmd {
            Cmd::Spawn {
                machine,
                program,
                state,
                layout,
            } => {
                if let Some(pm) = pm {
                    let req = PmMsg::Spawn {
                        machine,
                        program,
                        state: Bytes::from(state),
                        layout,
                        privileged: false,
                    };
                    let payload = ctx.encode(&req);
                    let _ = ctx.send(pm, sys::PROCMGR, payload, &[Carry::New(LinkAttrs::NONE)]);
                }
            }
            Cmd::Migrate { nth, dest } => {
                if let (Some(pm), Some(&proc_idx)) = (pm, self.created.get(nth as usize)) {
                    // Slot 0: our reply link (for Done); slot 1: a copy of
                    // the process link.
                    let payload = ctx.encode(&PmMsg::Migrate { dest });
                    let _ = ctx.send(
                        pm,
                        sys::PROCMGR,
                        payload,
                        &[Carry::New(LinkAttrs::NONE), Carry::Dup(LinkIdx(proc_idx))],
                    );
                }
            }
            Cmd::Kill { nth } => {
                if let (Some(pm), Some(&proc_idx)) = (pm, self.created.get(nth as usize)) {
                    let payload = ctx.encode(&PmMsg::Kill);
                    let _ = ctx.send(pm, sys::PROCMGR, payload, &[Carry::Dup(LinkIdx(proc_idx))]);
                }
            }
            Cmd::Log(s) => ctx.log(s),
        }
        self.arm_next(ctx);
    }

    fn save(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u32(self.pm);
        b.put_u16(self.pc);
        b.put_u64(self.spawned_ok);
        b.put_u64(self.spawn_failed);
        b.put_u64(self.migrations_ok);
        b.put_u64(self.migrations_failed);
        b.put_u16(self.created.len() as u16);
        for c in &self.created {
            b.put_u32(*c);
        }
        b.extend_from_slice(&encode_script(&self.script));
        b
    }
}

/// Parse shell counters from a state blob:
/// `(spawned_ok, spawn_failed, migrations_ok, migrations_failed)`.
pub fn shell_stats(state: &[u8]) -> (u64, u64, u64, u64) {
    let mut b = state;
    if b.remaining() < 4 + 2 + 32 {
        return (0, 0, 0, 0);
    }
    b.advance(6);
    (b.get_u64(), b.get_u64(), b.get_u64(), b.get_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script() -> Vec<ScriptEntry> {
        vec![
            ScriptEntry {
                delay_us: 100,
                cmd: Cmd::Spawn {
                    machine: MachineId(1),
                    program: "cargo".into(),
                    state: vec![0; 8],
                    layout: ImageLayout::default(),
                },
            },
            ScriptEntry {
                delay_us: 50,
                cmd: Cmd::Migrate {
                    nth: 0,
                    dest: MachineId(2),
                },
            },
            ScriptEntry {
                delay_us: 10,
                cmd: Cmd::Log("done".into()),
            },
            ScriptEntry {
                delay_us: 10,
                cmd: Cmd::Kill { nth: 0 },
            },
        ]
    }

    #[test]
    fn script_roundtrip() {
        let enc = encode_script(&script());
        let dec = decode_script(&mut Bytes::from(enc));
        assert_eq!(dec, script());
    }

    #[test]
    fn state_roundtrip() {
        let s = Shell {
            pm: 1,
            pc: 2,
            created: vec![5, 9],
            spawned_ok: 2,
            script: script(),
            ..Default::default()
        };
        let back = Shell::restore(&s.save());
        assert_eq!(back.save(), s.save());
        assert_eq!(shell_stats(&s.save()), (2, 0, 0, 0));
    }
}
