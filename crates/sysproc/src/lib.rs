//! DEMOS/MP system server processes (§2.3).
//!
//! "Most of the system functions are implemented in server processes,
//! which are accessed through the communication mechanism." This crate
//! provides the servers the paper names — switchboard, process manager,
//! memory scheduler, the four file-system processes, and the command
//! interpreter — all as ordinary migratable [`demos_kernel::Program`]s,
//! plus the file-system client workload used by the paper's hardest test
//! (migrating a file-system process under active client I/O).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Code a protocol handler can reach degrades instead of aborting the kernel
// (DESIGN.md §8, D004/D006); tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// A match over an enum names its variants, so a new variant is a compile
// error at every handler instead of a silent fall-through (D003).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod fs;
pub mod fsclient;
pub mod memsched;
pub mod procmgr;
pub mod proto;
pub mod shell;
pub mod switchboard;

/// The INIT message tag shared with workload programs (first user tag).
pub mod wl_init {
    /// Bootstrap message carrying configuration links.
    pub const INIT: u16 = demos_types::tags::USER_BASE;
}

pub use fs::{BufferCache, DirServer, DiskServer, FileServer, BLOCK};
pub use fsclient::{fs_client_stats, FsClient, FsClientStats};
pub use memsched::MemSched;
pub use procmgr::{pm_bootstrap_links, ProcMgr};
pub use proto::{sys, FsMsg, MemMsg, PmMsg, SbMsg};
pub use shell::{encode_script, shell_stats, Cmd, ScriptEntry, Shell};
pub use switchboard::Switchboard;

/// Register every system-process program into `r`.
pub fn register(r: &mut demos_kernel::Registry) {
    r.register(Switchboard::NAME, Switchboard::restore);
    r.register(ProcMgr::NAME, ProcMgr::restore);
    r.register(MemSched::NAME, MemSched::restore);
    r.register(DirServer::NAME, DirServer::restore);
    r.register(FileServer::NAME, FileServer::restore);
    r.register(BufferCache::NAME, BufferCache::restore);
    r.register(DiskServer::NAME, DiskServer::restore);
    r.register(FsClient::NAME, FsClient::restore);
    r.register(Shell::NAME, Shell::restore);
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_all() {
        let mut r = demos_kernel::Registry::new();
        super::register(&mut r);
        for name in [
            "switchboard",
            "procmgr",
            "memsched",
            "fs_dir",
            "fs_file",
            "fs_cache",
            "fs_disk",
            "fs_client",
            "shell",
        ] {
            assert!(r.contains(name), "{name} missing");
        }
    }
}
