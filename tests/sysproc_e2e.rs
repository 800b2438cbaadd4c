//! System-process integration: process-manager spawning and migration,
//! scripted shell sessions, memory-scheduler accounting.

use demos_mp::sim::boot::{boot_system, spawn_shell, BootConfig};
use demos_mp::sim::prelude::*;
use demos_mp::sysproc::{shell_stats, Cmd, ScriptEntry};

fn m(i: u16) -> MachineId {
    MachineId(i)
}

fn shell_state(cluster: &Cluster, pid: ProcessId) -> (u64, u64, u64, u64) {
    let machine = cluster.where_is(pid).unwrap();
    let p = cluster.node(machine).kernel.process(pid).unwrap();
    shell_stats(&p.program.as_ref().unwrap().save())
}

#[test]
fn shell_spawns_and_migrates_via_process_manager() {
    let mut cluster = Cluster::mesh(3);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let script = vec![
        ScriptEntry {
            delay_us: 1_000,
            cmd: Cmd::Spawn {
                machine: m(1),
                program: "cargo".into(),
                state: demos_mp::sim::programs::Cargo::state(2048),
                layout: ImageLayout::default(),
            },
        },
        // Give the spawn time to complete before referencing it.
        ScriptEntry {
            delay_us: 50_000,
            cmd: Cmd::Migrate { nth: 0, dest: m(2) },
        },
        ScriptEntry {
            delay_us: 200_000,
            cmd: Cmd::Log("session done".into()),
        },
    ];
    let shell = spawn_shell(&mut cluster, &handles, m(0), &script).unwrap();
    cluster.run_for(Duration::from_secs(1));

    let (spawned_ok, spawn_failed, mig_ok, mig_failed) = shell_state(&cluster, shell);
    assert_eq!(spawned_ok, 1, "PM spawned the process");
    assert_eq!(spawn_failed, 0);
    assert_eq!(
        mig_ok, 1,
        "the Done (#9) notification reached the shell over its reply link"
    );
    assert_eq!(mig_failed, 0);

    // The spawned cargo process really is on m2 now.
    let cargo_pid = cluster.node(m(2)).kernel.pids().find(|p| {
        cluster
            .node(m(2))
            .kernel
            .process(*p)
            .map(|q| !q.privileged)
            .unwrap_or(false)
    });
    assert!(cargo_pid.is_some(), "user process ended up on m2");
    // The script's log line landed in the trace.
    assert!(cluster
        .trace()
        .find(|r| matches!(&r.event, TraceEvent::Log { text, .. } if text == "session done"))
        .is_some());
}

#[test]
fn shell_spawn_unknown_program_fails_gracefully() {
    let mut cluster = Cluster::mesh(2);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let script = vec![ScriptEntry {
        delay_us: 1_000,
        cmd: Cmd::Spawn {
            machine: m(1),
            program: "no_such_program".into(),
            state: vec![],
            layout: ImageLayout::default(),
        },
    }];
    let shell = spawn_shell(&mut cluster, &handles, m(0), &script).unwrap();
    cluster.run_for(Duration::from_millis(300));
    let (ok, failed, _, _) = shell_state(&cluster, shell);
    assert_eq!(ok, 0);
    assert_eq!(failed, 1, "PM relayed the kernel's CreateFailed");
}

#[test]
fn shell_kill_removes_process() {
    let mut cluster = Cluster::mesh(2);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let script = vec![
        ScriptEntry {
            delay_us: 1_000,
            cmd: Cmd::Spawn {
                machine: m(1),
                program: "cargo".into(),
                state: demos_mp::sim::programs::Cargo::state(16),
                layout: ImageLayout::default(),
            },
        },
        ScriptEntry {
            delay_us: 50_000,
            cmd: Cmd::Kill { nth: 0 },
        },
    ];
    spawn_shell(&mut cluster, &handles, m(0), &script).unwrap();
    cluster.run_for(Duration::from_millis(200));
    assert_eq!(
        cluster.node(m(1)).kernel.nprocs(),
        0,
        "cargo was killed via PM → kernel Kill"
    );
    assert_eq!(cluster.node(m(1)).kernel.stats().exited, 1);
}

#[test]
fn migrating_the_process_manager_itself() {
    // "One of our test examples … migrates a file system process"; we go
    // further and move the process manager, then use it again.
    let mut cluster = Cluster::mesh(3);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    cluster.run_for(Duration::from_millis(50));

    cluster.migrate(handles.procmgr, m(2)).unwrap();
    cluster.run_for(Duration::from_millis(500));
    assert_eq!(cluster.where_is(handles.procmgr), Some(m(2)));

    // A shell wired with a *stale* PM link still works: its first message
    // is forwarded, the link updated, and spawning proceeds.
    let script = vec![ScriptEntry {
        delay_us: 1_000,
        cmd: Cmd::Spawn {
            machine: m(1),
            program: "cargo".into(),
            state: demos_mp::sim::programs::Cargo::state(8),
            layout: ImageLayout::default(),
        },
    }];
    // Build the stale link by hand: it claims the PM is still at m0.
    let shell = cluster
        .spawn_opt(
            m(0),
            "shell",
            &demos_mp::sysproc::Shell::state(&script),
            ImageLayout::default(),
            true,
        )
        .unwrap();
    let stale_pm_link = demos_mp::types::Link::to(handles.procmgr.at(m(0)));
    cluster
        .post(shell, wl::INIT, bytes::Bytes::new(), vec![stale_pm_link])
        .unwrap();
    cluster.run_for(Duration::from_millis(400));

    let (ok, failed, _, _) = shell_state(&cluster, shell);
    assert_eq!(
        (ok, failed),
        (1, 0),
        "stale link to migrated PM still functioned"
    );
    assert!(cluster.trace().forwards_for(handles.procmgr) >= 1);
}

#[test]
fn memsched_grants_and_releases() {
    use demos_mp::sysproc::{sys, MemMsg};
    use demos_mp::types::wire::Wire;

    let mut cluster = Cluster::mesh(2);
    let handles = boot_system(&mut cluster, BootConfig::default()).unwrap();
    let probe = cluster
        .spawn(
            m(1),
            "cargo",
            &demos_mp::sim::programs::Cargo::state(0),
            ImageLayout::default(),
        )
        .unwrap();
    let reply = cluster.link_to(probe).unwrap();
    cluster
        .post(
            handles.memsched,
            sys::MEMSCHED,
            MemMsg::Reserve {
                machine: m(1),
                bytes: 4096,
            }
            .to_bytes(),
            vec![reply],
        )
        .unwrap();
    cluster.run_for(Duration::from_millis(100));
    // The probe counted the Granted reply.
    let p = cluster.node(m(1)).kernel.process(probe).unwrap();
    let received = demos_mp::sim::programs::cargo_received(&p.program.as_ref().unwrap().save());
    assert_eq!(received, 1, "Granted reply delivered");
}
