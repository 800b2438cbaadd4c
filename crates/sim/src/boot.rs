//! Booting the DEMOS/MP system processes onto a cluster.
//!
//! Reproduces the structure of Figure 2-3: a switchboard, a process
//! manager, a memory scheduler, and the four file-system processes, wired
//! together with links and registered by name with the switchboard.

use bytes::Bytes;
use demos_sysproc::{
    encode_script, BufferCache, DirServer, DiskServer, FileServer, FsClient, MemSched, ProcMgr,
    ScriptEntry, Shell, Switchboard,
};
use demos_types::{MachineId, ProcessId, Result};

use crate::cluster::Cluster;
use crate::programs::wl;
use demos_kernel::{ImageLayout, MEM_CAPACITY};

/// Where each system process ended up at boot.
#[derive(Debug, Clone, Copy)]
pub struct SystemHandles {
    /// The switchboard (name service).
    pub switchboard: ProcessId,
    /// The process manager.
    pub procmgr: ProcessId,
    /// The memory scheduler.
    pub memsched: ProcessId,
    /// File-system: directory server.
    pub fs_dir: ProcessId,
    /// File-system: client-facing file server.
    pub fs_file: ProcessId,
    /// File-system: buffer cache.
    pub fs_cache: ProcessId,
    /// File-system: disk server.
    pub fs_disk: ProcessId,
}

/// Simulated disk latency per block operation, microseconds.
const DISK_OP_US: u32 = 2_000;

/// Image layout of every system process.
const SYS_LAYOUT: ImageLayout = ImageLayout {
    code: 16 * 1024,
    data: 8 * 1024,
    stack: 2 * 1024,
};

/// Boot configuration.
#[derive(Debug, Clone, Copy)]
pub struct BootConfig {
    /// Machine hosting switchboard / process manager / memory scheduler.
    pub control_machine: MachineId,
    /// Machine hosting the four file-system processes.
    pub fs_machine: MachineId,
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: u16,
}

impl Default for BootConfig {
    fn default() -> Self {
        BootConfig {
            control_machine: MachineId(0),
            fs_machine: MachineId(0),
            cache_blocks: 32,
        }
    }
}

/// Spawn and wire the system processes (Figure 2-3). Returns their pids.
pub fn boot_system(cluster: &mut Cluster, cfg: BootConfig) -> Result<SystemHandles> {
    let n = cluster.len() as u16;
    let cm = cfg.control_machine;
    let fm = cfg.fs_machine;
    let layout = SYS_LAYOUT;

    let switchboard =
        cluster.spawn_opt(cm, Switchboard::NAME, &Switchboard::state(), layout, true)?;
    let procmgr = cluster.spawn_opt(cm, ProcMgr::NAME, &ProcMgr::state(n), layout, true)?;
    // The PM's bootstrap contract: kernel links for machines 0..n as its
    // first n links.
    for link in demos_sysproc::pm_bootstrap_links(n) {
        cluster.node_mut(cm).kernel.install_link(procmgr, link)?;
    }
    let memsched = cluster.spawn_opt(
        cm,
        MemSched::NAME,
        &MemSched::state(n, MEM_CAPACITY),
        layout,
        true,
    )?;

    let fs_disk = cluster.spawn_opt(
        fm,
        DiskServer::NAME,
        &DiskServer::state(DISK_OP_US),
        layout,
        true,
    )?;
    let fs_cache = cluster.spawn_opt(
        fm,
        BufferCache::NAME,
        &BufferCache::state(cfg.cache_blocks),
        layout,
        true,
    )?;
    let fs_dir = cluster.spawn_opt(fm, DirServer::NAME, &DirServer::state(), layout, true)?;
    let fs_file = cluster.spawn_opt(fm, FileServer::NAME, &FileServer::state(), layout, true)?;

    // Wire: cache → disk; file server → [dir, cache].
    let disk_link = cluster.link_to(fs_disk)?;
    cluster.post(fs_cache, wl::INIT, Bytes::new(), vec![disk_link])?;
    let dir_link = cluster.link_to(fs_dir)?;
    let cache_link = cluster.link_to(fs_cache)?;
    cluster.post(fs_file, wl::INIT, Bytes::new(), vec![dir_link, cache_link])?;

    // Register the public services with the switchboard (bootstrap form:
    // single carried link, no acknowledgement).
    for (name, pid) in [
        ("procmgr", procmgr),
        ("memsched", memsched),
        ("fs", fs_file),
    ] {
        let link = cluster.link_to(pid)?;
        cluster.post(
            switchboard,
            demos_sysproc::sys::SWITCHBOARD,
            demos_types::wire::Wire::to_bytes(&demos_sysproc::SbMsg::Register {
                name: name.to_string(),
            }),
            vec![link],
        )?;
    }

    Ok(SystemHandles {
        switchboard,
        procmgr,
        memsched,
        fs_dir,
        fs_file,
        fs_cache,
        fs_disk,
    })
}

/// Spawn `n` file-system clients on `machine`, wired to the file server.
#[allow(clippy::too_many_arguments)]
pub fn spawn_fs_clients(
    cluster: &mut Cluster,
    handles: &SystemHandles,
    machine: MachineId,
    n: u16,
    nfiles: u16,
    period_us: u32,
    op_bytes: u16,
    read_pct: u8,
) -> Result<Vec<ProcessId>> {
    let mut pids = Vec::with_capacity(n as usize);
    for i in 0..n {
        let seed = (machine.0 as u32) << 16 | i as u32;
        let pid = cluster.spawn(
            machine,
            FsClient::NAME,
            &FsClient::state(seed, nfiles, 0, period_us, op_bytes, read_pct),
            ImageLayout::default(),
        )?;
        let server = cluster.link_to(handles.fs_file)?;
        cluster.post(pid, wl::INIT, Bytes::new(), vec![server])?;
        pids.push(pid);
    }
    Ok(pids)
}

/// Spawn a scripted shell wired to the process manager.
pub fn spawn_shell(
    cluster: &mut Cluster,
    handles: &SystemHandles,
    machine: MachineId,
    script: &[ScriptEntry],
) -> Result<ProcessId> {
    let _ = encode_script(script); // validate encodability
    let pid = cluster.spawn_opt(
        machine,
        Shell::NAME,
        &Shell::state(script),
        ImageLayout::default(),
        true,
    )?;
    let pm = cluster.link_to(handles.procmgr)?;
    cluster.post(pid, wl::INIT, Bytes::new(), vec![pm])?;
    Ok(pid)
}

/// Sum of operations completed by the given fs clients.
pub fn total_client_ops(cluster: &Cluster, clients: &[ProcessId]) -> u64 {
    clients
        .iter()
        .filter_map(|&pid| {
            let m = cluster.where_is(pid)?;
            let p = cluster.node(m).kernel.process(pid)?;
            Some(demos_sysproc::fs_client_stats(&p.program.as_ref()?.save()).ops)
        })
        .sum()
}

/// Sum of errors observed by the given fs clients.
pub fn total_client_errors(cluster: &Cluster, clients: &[ProcessId]) -> u64 {
    clients
        .iter()
        .filter_map(|&pid| {
            let m = cluster.where_is(pid)?;
            let p = cluster.node(m).kernel.process(pid)?;
            Some(demos_sysproc::fs_client_stats(&p.program.as_ref()?.save()).errors)
        })
        .sum()
}
