//! Continuous cluster invariants.
//!
//! The harness steps the cluster one virtual-time quantum at a time and
//! runs these checks between quanta — during the migration window, not
//! just at quiescence. Two tiers:
//!
//! * **continuous** — must hold at *every* instant: forwarding chains are
//!   acyclic and bounded, no process vanishes or multiplies beyond the
//!   two-copy migration window, transport counters conserve frames, no
//!   message is delivered twice, nothing goes non-deliverable;
//! * **final** — hold only at quiescence, after faults are lifted and
//!   queues drain: every submitted message was delivered, link hints
//!   converge (chain-reach the true host), workload-level exactly-once
//!   counters match, and the transport is idle.
//!
//! A note on transport sanity: the obvious "retransmits ≥ dup-acks" is
//! *unsound* here — data frames of different sizes overtake each other
//! (transit time is size-dependent), and an overtaken frame produces a
//! dup-ack with zero retransmissions. The sound counterparts checked
//! instead: exact frame conservation (`sent = delivered + dropped +
//! in-flight`), `dedup drops ≤ retransmits` (only retransmission creates
//! duplicates; the network never does), and class totals summing to the
//! whole.

use demos_core::Ownership;
use demos_kernel::LinkAttrsExt;
use demos_sim::cluster::Cluster;
use demos_sim::programs::{cargo_received, client_stats, pingpong_rallies};
use demos_sim::span::LedgerFold;
use demos_types::{LinkAttrs, MachineId, ProcessId};

use crate::scenario::Workload;

/// A detected invariant violation. `Display` gives the one-line verdict
/// the CLI prints; the variant fields carry enough to debug from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Messages submitted but neither delivered nor accounted as failed,
    /// at quiescence.
    Lost {
        /// How many correlation ids were lost.
        count: usize,
        /// Debug rendering of the first few.
        sample: String,
    },
    /// A message was delivered more than once without an intervening
    /// forwarding hop.
    Duplicated {
        /// How many correlation ids were duplicated.
        count: usize,
        /// Debug rendering of the first few.
        sample: String,
    },
    /// A message was returned non-deliverable even though its destination
    /// process exists (the forwarding-disabled ablation trips this).
    NonDeliverable {
        /// Cluster-wide non-deliverable count.
        count: u64,
    },
    /// A forwarding-address walk revisited a machine.
    ForwardingCycle {
        /// The process whose chain cycles.
        pid: ProcessId,
        /// The machines visited, in order.
        chain: Vec<u16>,
    },
    /// A watched process is on no live machine.
    ProcessVanished {
        /// The missing process.
        pid: ProcessId,
    },
    /// A watched process is resident on more than one machine outside the
    /// two-copy migration window.
    ProcessMultiplied {
        /// The multiplied process.
        pid: ProcessId,
        /// How many machines host it.
        count: usize,
    },
    /// A link's location hint does not chain-reach the process's true
    /// host at quiescence.
    LinkDiverged {
        /// Machine holding the stale link.
        machine: u16,
        /// The link's target process.
        pid: ProcessId,
        /// The hint the chain walk started from.
        hint: u16,
    },
    /// Transport counters fail conservation or ordering laws.
    TransportCounters {
        /// Which law broke, with the numbers.
        detail: String,
    },
    /// The cluster failed to drain within the scenario's budget.
    NotQuiescent {
        /// Frames still in flight on the wire.
        in_flight: usize,
    },
    /// A workload-level exactly-once counter came out wrong.
    WorkloadInvariant {
        /// Which workload expectation broke, with the numbers.
        detail: String,
    },
}

impl Violation {
    /// Filename-safe variant slug: repro artifacts of different variants
    /// must never overwrite each other, so the variant is part of the
    /// artifact name when a seed produces more than one.
    pub fn slug(&self) -> &'static str {
        match self {
            Violation::Lost { .. } => "lost",
            Violation::Duplicated { .. } => "duplicated",
            Violation::NonDeliverable { .. } => "nondeliverable",
            Violation::ForwardingCycle { .. } => "fwdcycle",
            Violation::ProcessVanished { .. } => "vanished",
            Violation::ProcessMultiplied { .. } => "multiplied",
            Violation::LinkDiverged { .. } => "linkdiverged",
            Violation::TransportCounters { .. } => "transport",
            Violation::NotQuiescent { .. } => "notquiescent",
            Violation::WorkloadInvariant { .. } => "workload",
        }
    }

    /// Stable small code for the variant (the coverage map's
    /// `VIOLATION` feature operand). Append-only, like wire constants.
    pub fn code(&self) -> u32 {
        match self {
            Violation::Lost { .. } => 0,
            Violation::Duplicated { .. } => 1,
            Violation::NonDeliverable { .. } => 2,
            Violation::ForwardingCycle { .. } => 3,
            Violation::ProcessVanished { .. } => 4,
            Violation::ProcessMultiplied { .. } => 5,
            Violation::LinkDiverged { .. } => 6,
            Violation::TransportCounters { .. } => 7,
            Violation::NotQuiescent { .. } => 8,
            Violation::WorkloadInvariant { .. } => 9,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Lost { count, sample } => {
                write!(f, "{count} message(s) lost (e.g. {sample})")
            }
            Violation::Duplicated { count, sample } => {
                write!(f, "{count} message(s) delivered twice (e.g. {sample})")
            }
            Violation::NonDeliverable { count } => {
                write!(f, "{count} message(s) bounced non-deliverable")
            }
            Violation::ForwardingCycle { pid, chain } => {
                write!(f, "forwarding cycle for {pid:?} via machines {chain:?}")
            }
            Violation::ProcessVanished { pid } => write!(f, "process {pid:?} vanished"),
            Violation::ProcessMultiplied { pid, count } => {
                write!(f, "process {pid:?} resident on {count} machines")
            }
            Violation::LinkDiverged { machine, pid, hint } => write!(
                f,
                "link on m{machine} to {pid:?} hints m{hint}, which does not chain to the host"
            ),
            Violation::TransportCounters { detail } => write!(f, "transport counters: {detail}"),
            Violation::NotQuiescent { in_flight } => {
                write!(f, "cluster failed to drain ({in_flight} frames in flight)")
            }
            Violation::WorkloadInvariant { detail } => write!(f, "workload counters: {detail}"),
        }
    }
}

fn sample_corrs(corrs: &[demos_types::CorrId]) -> String {
    corrs
        .iter()
        .take(3)
        .map(|c| format!("{c:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The checker: knows which processes to watch and which workload-level
/// counters to reconcile at the end.
pub struct Checker {
    /// Processes spawned by the scenario, in slot order.
    pub watched: Vec<ProcessId>,
    /// The workload mix (for final counter reconciliation).
    pub workloads: Vec<Workload>,
    /// User messages posted per slot by burst events (delivery target for
    /// cargo counters).
    pub bursts_posted: Vec<u64>,
    /// Recovery-aware mode: permanent crashes with checkpoint re-homing
    /// are in play, which legalizes states the classic invariants forbid.
    /// A watched process may be *gone* while its machine is dead and its
    /// re-home pending (though never at quiescence), messages addressed
    /// into the crash may bounce non-deliverable or be lost outright, and
    /// restore-from-checkpoint rolls workload counters back (so final
    /// counters become `≤` rather than `==`). Duplicate delivery and
    /// process multiplication remain strictly forbidden — recovery must
    /// never manufacture a second live copy.
    pub recovery: bool,
    /// The delivery ledger of the trace so far. Every check advances it
    /// over the records the last quantum appended, so a run reads its
    /// trace once however many quanta it has.
    pub ledger: LedgerFold,
}

impl Checker {
    /// A checker watching `watched` (slot order) for `workloads`.
    pub fn new(watched: Vec<ProcessId>, workloads: Vec<Workload>) -> Checker {
        let slots = watched.len();
        Checker {
            watched,
            workloads,
            bursts_posted: vec![0; slots],
            recovery: false,
            ledger: LedgerFold::default(),
        }
    }

    /// Switch the checker into (or out of) recovery-aware mode.
    pub fn with_recovery(mut self, on: bool) -> Checker {
        self.recovery = on;
        self
    }

    /// Invariants that must hold at every quantum boundary. Returns the
    /// first violation found.
    pub fn continuous(&mut self, c: &Cluster) -> Option<Violation> {
        self.ledger.advance(c.trace());
        self.check_chains(c)
            .or_else(|| self.check_conservation(c, false))
            .or_else(|| check_transport(c))
            .or_else(|| {
                // Messages addressed into a permanent crash may bounce;
                // with recovery in play that is the expected fate of
                // traffic racing the re-home, not a broken kernel.
                if self.recovery {
                    None
                } else {
                    check_nondeliverable(c)
                }
            })
            .or_else(|| self.check_duplicates())
    }

    /// Invariants that additionally must hold once the cluster is
    /// quiescent and all faults are lifted.
    pub fn final_check(&mut self, c: &Cluster) -> Option<Violation> {
        if let Some(v) = self.continuous(c) {
            return Some(v);
        }
        // Oracle, once per run: folding quantum by quantum gave what one
        // pass from record 0 gives.
        debug_assert_eq!(
            self.ledger,
            LedgerFold::of(c.trace()),
            "ledger fold diverged"
        );
        if !c.transport_quiescent() {
            return Some(Violation::NotQuiescent {
                in_flight: c.net().in_flight(),
            });
        }
        self.check_conservation(c, true)
            .or_else(|| {
                // Messages that died with a crashed machine (or bounced
                // off one) are legitimately undelivered under recovery.
                if self.recovery {
                    None
                } else {
                    self.check_loss()
                }
            })
            .or_else(|| self.check_links(c))
            .or_else(|| self.check_workloads(c))
    }

    /// Duplicate-delivery check over the trace so far.
    fn check_duplicates(&self) -> Option<Violation> {
        let dupes = self.ledger.ledger().duplicates();
        (!dupes.is_empty()).then(|| Violation::Duplicated {
            count: dupes.len(),
            sample: sample_corrs(&dupes),
        })
    }

    /// Loss check (quiescence only — in-flight messages are legitimately
    /// undelivered mid-run).
    fn check_loss(&self) -> Option<Violation> {
        let lost = self.ledger.ledger().undelivered();
        (!lost.is_empty()).then(|| Violation::Lost {
            count: lost.len(),
            sample: sample_corrs(&lost),
        })
    }

    /// Forwarding chains: from every live machine, the walk for every
    /// watched process must terminate without revisiting a machine. A
    /// chain longer than the machine count can only mean a revisit.
    fn check_chains(&self, c: &Cluster) -> Option<Violation> {
        let n = c.len();
        for &pid in &self.watched {
            for m in 0..n as u16 {
                let m = MachineId(m);
                if c.is_crashed(m) {
                    continue;
                }
                if c.forwarding_walk(m, pid).count() > n {
                    return Some(Violation::ForwardingCycle {
                        pid,
                        chain: c.forwarding_walk(m, pid).map(|x| x.0).collect(),
                    });
                }
            }
        }
        None
    }

    /// Process-state conservation. Mid-migration the image legitimately
    /// exists on two machines: frozen at its source (`Offered`) until
    /// cleanup, and held at its destination (`Installed`) from the install.
    /// Two copies are tolerated only while this pid's engines say exactly
    /// that; `strict` (quiescence) demands one.
    ///
    /// In recovery mode a watched process may be absent *mid-run* while
    /// some machine is down — it died with the crash and its re-home
    /// waits on the failure detector. At quiescence (`strict`) the
    /// tolerance ends: the process must be back, which is exactly how the
    /// recovery-disabled ablation is caught. Multiplication is never
    /// tolerated — a re-home that duplicates a live process is a bug in
    /// any mode.
    fn check_conservation(&self, c: &Cluster, strict: bool) -> Option<Violation> {
        let live = || {
            (0..c.len() as u16)
                .map(MachineId)
                .filter(|&m| !c.is_crashed(m))
        };
        let held = |pid, state| live().any(|m| c.node(m).engine.ownership(pid) == Some(state));
        let any_crashed = (0..c.len() as u16).any(|m| c.is_crashed(MachineId(m)));
        for &pid in &self.watched {
            let count = live()
                .filter(|&m| c.node(m).kernel.process(pid).is_some())
                .count();
            if count == 0 {
                if self.recovery && !strict && any_crashed {
                    continue; // crashed away; re-home pending
                }
                return Some(Violation::ProcessVanished { pid });
            }
            let handing_over =
                count == 2 && held(pid, Ownership::Offered) && held(pid, Ownership::Installed);
            if count > 2 || (count == 2 && (strict || !handing_over)) {
                return Some(Violation::ProcessMultiplied { pid, count });
            }
        }
        None
    }

    /// Link convergence at quiescence: every live link addressing a
    /// watched process must chain-reach (via forwarding addresses) the
    /// machine actually hosting it. Lazy link updating means hints may be
    /// stale — §5 only patches links whose traffic got forwarded — but a
    /// stale hint must still *resolve*.
    fn check_links(&self, c: &Cluster) -> Option<Violation> {
        for m in 0..c.len() as u16 {
            let m = MachineId(m);
            if c.is_crashed(m) {
                continue;
            }
            let kernel = &c.node(m).kernel;
            let pids: Vec<ProcessId> = kernel.pids().collect();
            for holder in pids {
                let proc_ = kernel.process(holder)?;
                for (_idx, link) in proc_.links.iter() {
                    if link.attrs.contains(LinkAttrs::DEAD) {
                        continue;
                    }
                    let target = link.target();
                    if !self.watched.contains(&target) {
                        continue;
                    }
                    let hint = link.addr.last_known_machine;
                    if c.is_crashed(hint) {
                        continue; // hint died; nothing to walk
                    }
                    let end = c
                        .forwarding_walk(hint, target)
                        .last()
                        .expect("the walk yields its start");
                    if c.node(end).kernel.process(target).is_none() {
                        return Some(Violation::LinkDiverged {
                            machine: m.0,
                            pid: target,
                            hint: hint.0,
                        });
                    }
                }
            }
        }
        None
    }

    /// Workload-level exactly-once counters at quiescence: ping-pong
    /// rally counts within one of each other, cargo received exactly the
    /// bursts posted with ballast intact, clients got every reply.
    ///
    /// Recovery mode weakens equalities to `≤`: restoring a checkpoint
    /// rolls a counter back to the snapshot instant, and messages that
    /// died with the crash are never re-driven. Overshoot and corruption
    /// stay fatal — rollback can only *lower* a counter, so anything
    /// above the posted/sent totals still means duplicated delivery.
    fn check_workloads(&self, c: &Cluster) -> Option<Violation> {
        let state_of = |pid: ProcessId| -> Option<Vec<u8>> {
            let m = c.where_is(pid)?;
            Some(c.node(m).kernel.process(pid)?.program.as_ref()?.save())
        };
        // Counter relaxations apply only when a rollback could actually
        // have happened: recovery mode *and* a machine really died — it
        // is still down, or a recovery episode re-homed its processes
        // (the machine may have rebooted since, erasing the crash flag).
        // A recovery run whose crashes were all guarded out must satisfy
        // the classic exactly-once equalities.
        let rollback = self.recovery
            && ((0..c.len() as u16).any(|i| c.is_crashed(MachineId(i)))
                || c.recovery().is_some_and(|r| !r.episodes().is_empty()));
        let mut slot = 0usize;
        for w in &self.workloads {
            match *w {
                Workload::PingPong { limit, .. } => {
                    let (pa, pb) = (self.watched[slot], self.watched[slot + 1]);
                    let ra = pingpong_rallies(&state_of(pa)?);
                    let rb = pingpong_rallies(&state_of(pb)?);
                    // A re-homed peer's count rolled back to its last
                    // checkpoint, so lock-step divergence cannot be
                    // demanded after a real crash.
                    if !rollback && ra.abs_diff(rb) > 1 {
                        return Some(Violation::WorkloadInvariant {
                            detail: format!(
                                "pingpong rallies diverged: {ra} vs {rb} (limit {limit})"
                            ),
                        });
                    }
                    if ra.max(rb) > limit {
                        return Some(Violation::WorkloadInvariant {
                            detail: format!("pingpong overshot limit {limit}: {ra}/{rb}"),
                        });
                    }
                    slot += 2;
                }
                Workload::Cargo { ballast, .. } => {
                    let pid = self.watched[slot];
                    let state = state_of(pid)?;
                    let got = cargo_received(&state);
                    let posted = self.bursts_posted[slot];
                    if if rollback {
                        got > posted
                    } else {
                        got != posted
                    } {
                        return Some(Violation::WorkloadInvariant {
                            detail: format!("cargo received {got} of {posted} posted messages"),
                        });
                    }
                    if state.len() != 8 + ballast as usize {
                        return Some(Violation::WorkloadInvariant {
                            detail: format!(
                                "cargo ballast corrupted: {} bytes, expected {}",
                                state.len(),
                                8 + ballast as usize
                            ),
                        });
                    }
                    slot += 1;
                }
                Workload::ClientServer { .. } => {
                    let client = self.watched[slot + 1];
                    let s = client_stats(&state_of(client)?);
                    // After a rollback the client's own counters may have
                    // rewound while replies to pre-rollback requests were
                    // still in flight, so `recv` can land on either side
                    // of `sent`; no sound comparison remains. Duplicate
                    // *delivery* is still caught by the trace ledger.
                    if !rollback && s.recv != s.sent {
                        return Some(Violation::WorkloadInvariant {
                            detail: format!("client got {} replies to {} requests", s.recv, s.sent),
                        });
                    }
                    slot += 2;
                }
            }
        }
        None
    }
}

/// Transport-counter sanity, cluster-wide.
fn check_transport(c: &Cluster) -> Option<Violation> {
    let s = c.net().stats();
    let in_flight = c.net().in_flight() as u64;
    if s.frames_sent != s.frames_delivered + s.frames_dropped + in_flight {
        return Some(Violation::TransportCounters {
            detail: format!(
                "conservation: sent {} != delivered {} + dropped {} + in-flight {}",
                s.frames_sent, s.frames_delivered, s.frames_dropped, in_flight
            ),
        });
    }
    if s.data_frames + s.ack_frames != s.frames_sent {
        return Some(Violation::TransportCounters {
            detail: format!(
                "class split: data {} + ack {} != sent {}",
                s.data_frames, s.ack_frames, s.frames_sent
            ),
        });
    }
    if s.retransmit_frames > s.data_frames {
        return Some(Violation::TransportCounters {
            detail: format!(
                "retransmits {} exceed data frames {}",
                s.retransmit_frames, s.data_frames
            ),
        });
    }
    // Only retransmission manufactures duplicates: each dedup drop needs
    // an extra physical copy of some frame, and extra copies only come
    // from the sender's retransmit path.
    if s.dedup_drops > s.retransmit_frames {
        return Some(Violation::TransportCounters {
            detail: format!(
                "dedup drops {} exceed retransmitted frames {}",
                s.dedup_drops, s.retransmit_frames
            ),
        });
    }
    None
}

/// No message may bounce non-deliverable: every watched process exists
/// for the whole run, and crash events are guarded to machines nothing
/// is addressed to.
fn check_nondeliverable(c: &Cluster) -> Option<Violation> {
    let count: u64 = (0..c.len() as u16)
        .filter(|&m| !c.is_crashed(MachineId(m)))
        .map(|m| c.node(MachineId(m)).kernel.stats().nondeliverable)
        .sum();
    (count > 0).then_some(Violation::NonDeliverable { count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_kernel::TraceEvent;
    use demos_types::{tags, CorrId, Time};

    /// No generated scenario makes a healthy or an ablated kernel deliver
    /// twice, so the duplicate check is driven by hand: records are
    /// appended to a live cluster's trace between checks, the way quanta
    /// append them.
    #[test]
    fn a_duplicate_is_reported_by_the_check_after_the_quantum_it_lands_in() {
        let mut c = Cluster::mesh(2);
        let mut checker = Checker::new(Vec::new(), Vec::new());
        let pid = ProcessId {
            creating_machine: MachineId(0),
            local_uid: 1,
        };
        let msg_type = tags::USER_BASE + 1;
        let enqueued = |n: u64, hops: u8| TraceEvent::Enqueued {
            corr: CorrId::new(MachineId(0), n),
            pid,
            msg_type,
            forwarded: hops > 0,
            hops,
        };
        let mut quantum = |c: &mut Cluster, at: u64, events: Vec<TraceEvent>| {
            c.trace_mut()
                .extend(Time::from_micros(at), MachineId(1), events);
            checker.continuous(c)
        };

        assert_eq!(
            quantum(&mut c, 10, vec![enqueued(1, 0), enqueued(2, 0)]),
            None
        );
        // A second enqueue with more hops is the §3.1 step 6 re-home — the
        // fold remembers the first one's hop count across the quantum.
        assert_eq!(quantum(&mut c, 20, vec![enqueued(1, 1)]), None);
        assert_eq!(quantum(&mut c, 30, vec![]), None);
        // Same hops again: delivered twice, caught by the very next check.
        let v = quantum(&mut c, 40, vec![enqueued(2, 0)]);
        let Some(Violation::Duplicated { count: 1, sample }) = &v else {
            panic!("expected one duplicate, got {v:?}");
        };
        assert_eq!(*sample, format!("{:?}", CorrId::new(MachineId(0), 2)));
        // It stays reported, and a later one adds to the count.
        let v = quantum(&mut c, 50, vec![enqueued(1, 1)]);
        assert!(
            matches!(v, Some(Violation::Duplicated { count: 2, .. })),
            "{v:?}"
        );
    }
}
