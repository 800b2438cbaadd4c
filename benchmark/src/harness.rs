//! Repetitions and passes.
//!
//! A workload is fixed work: one *repetition* builds the scenario from
//! the generated inputs (set-up), runs it to quiescence (the timed
//! region) and reads back what happened. Every repetition of a run does
//! identical work, so its simulated statistics — folded into one
//! `sim_digest` — must be identical too; a mismatch is a failed check.
//!
//! Three passes run the same repetition under different instruments:
//!
//! * **timed** — allocator counting off, spans off: wall-clock samples;
//! * **counted** — one repetition with allocator counting on: exact
//!   allocation counts and the heap high-water mark;
//! * **traced** — repetitions with benchmark-side spans, interleaved with
//!   plain ones so the ratio of the two is the tracing overhead.

use std::collections::BTreeMap;

use crate::alloc;
use crate::clock::{now_ns, secs_between};
use crate::spans::{SpanRec, Spans};

/// Exact per-layer counts read after a repetition, by catalogue name.
pub type Counters = BTreeMap<&'static str, f64>;

/// What one repetition did, read from the program's public statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations completed in the timed region.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (unanswered, errored, misplaced, violated).
    pub failed: u64,
    /// Node visits in the timed region (`StepStats::node_visits` delta);
    /// on `fault_sweep`, where no visit count is exposed, trace records.
    pub events: u64,
    /// Virtual microseconds simulated in the timed region.
    pub virt_us: u64,
    /// One hash over every simulated statistic the workload can read.
    pub digest: u64,
    /// Per-layer workload counters.
    pub counters: Counters,
    /// Correctness and bypass checks that failed, in words.
    pub failures: Vec<String>,
}

/// The instruments a repetition runs under.
pub struct Probe {
    /// Span recorder (off in the timed and counted passes).
    pub spans: Spans,
    rep_start_ns: u64,
    timed_start_ns: u64,
    timed_end_ns: u64,
    alloc_start: alloc::Snapshot,
    alloc_end: alloc::Snapshot,
}

impl Probe {
    fn new(spans: Spans) -> Self {
        Probe {
            spans,
            rep_start_ns: 0,
            timed_start_ns: 0,
            timed_end_ns: 0,
            alloc_start: alloc::Snapshot::default(),
            alloc_end: alloc::Snapshot::default(),
        }
    }

    /// Scenario construction up to the start of the timed region: build,
    /// boot, spawn, warm-up to steady state.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.spans.scope("setup", f)
    }

    /// The timed region: the workload's fixed work, run to quiescence.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.enter("timed");
        self.alloc_start = alloc::snapshot();
        self.timed_start_ns = now_ns();
        let r = f(&mut self.spans);
        self.timed_end_ns = now_ns();
        self.alloc_end = alloc::snapshot();
        self.spans.exit(id);
        r
    }

    /// Reading statistics back, digesting and checking them.
    pub fn post<T>(&mut self, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.spans.scope("post", f)
    }
}

/// A workload: seeded inputs plus the code that runs them once.
pub trait Workload {
    /// Run one repetition under `probe`: call [`Probe::setup`],
    /// [`Probe::timed`] and [`Probe::post`] once each, in that order.
    fn rep(&self, probe: &mut Probe) -> Outcome;
}

/// Wall-clock sample of one repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepTime {
    /// Seconds from scenario construction to the start of the timed region.
    pub setup_s: f64,
    /// Seconds in the timed region.
    pub timed_s: f64,
}

fn run_rep(w: &dyn Workload, probe: &mut Probe, rep: usize) -> (RepTime, Outcome) {
    probe.spans.set_rep(rep);
    let root = probe.spans.enter("rep");
    probe.rep_start_ns = now_ns();
    let outcome = w.rep(probe);
    probe.spans.exit(root);
    let time = RepTime {
        setup_s: secs_between(probe.rep_start_ns, probe.timed_start_ns),
        timed_s: secs_between(probe.timed_start_ns, probe.timed_end_ns),
    };
    (time, outcome)
}

/// Fold a repetition's outcome into the run's reference outcome: the
/// first one is kept, later ones must carry the same digest.
fn reconcile(reference: &mut Option<Outcome>, outcome: Outcome, what: &str) {
    match reference {
        None => *reference = Some(outcome),
        Some(first) if first.digest != outcome.digest => first.failures.push(format!(
            "sim_digest differs between repetitions: {:016x} then {:016x} ({what})",
            first.digest, outcome.digest
        )),
        Some(_) => {}
    }
}

/// How long a pass measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Keep repeating until this many seconds have been measured …
    pub seconds: f64,
    /// … and at least this many repetitions have been taken.
    pub min_reps: usize,
    /// Untimed repetitions first, so caches fill and lazy set-up finishes.
    pub warmup_reps: usize,
}

/// Result of the timed pass.
pub struct Timed {
    /// One sample per timed repetition.
    pub reps: Vec<RepTime>,
    /// The (identical) outcome of every repetition, with any digest
    /// mismatch recorded in its `failures`.
    pub outcome: Outcome,
}

/// Timed pass: allocator counting off, spans off.
pub fn timed_pass(w: &dyn Workload, budget: Budget) -> Timed {
    let mut probe = Probe::new(Spans::off());
    let mut reference = None;
    for _ in 0..budget.warmup_reps {
        let (_, outcome) = run_rep(w, &mut probe, 0);
        reconcile(&mut reference, outcome, "warm-up");
    }
    let mut reps = Vec::new();
    let start = now_ns();
    while reps.len() < budget.min_reps || secs_between(start, now_ns()) < budget.seconds {
        let (time, outcome) = run_rep(w, &mut probe, reps.len());
        reconcile(&mut reference, outcome, "timed pass");
        reps.push(time);
    }
    Timed {
        reps,
        outcome: reference.expect("min_reps is at least 1"),
    }
}

/// Exact allocation figures of one repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllocFigures {
    /// Allocation calls in the timed region.
    pub allocs: u64,
    /// Bytes requested in the timed region.
    pub bytes: u64,
    /// High-water mark of live heap bytes, set-up included.
    pub peak_live_bytes: u64,
}

/// Counted pass: one repetition with allocator counting on.
pub fn counted_pass(w: &dyn Workload) -> (AllocFigures, Outcome) {
    let mut probe = Probe::new(Spans::off());
    alloc::start();
    let (_, outcome) = run_rep(w, &mut probe, 0);
    alloc::stop();
    let figures = AllocFigures {
        allocs: probe.alloc_end.allocs - probe.alloc_start.allocs,
        bytes: probe.alloc_end.bytes - probe.alloc_start.bytes,
        peak_live_bytes: alloc::snapshot().peak_live,
    };
    (figures, outcome)
}

/// Result of the traced pass.
pub struct Traced {
    /// Whole-repetition seconds of the plain (span-free) repetitions.
    pub plain_s: Vec<f64>,
    /// Whole-repetition seconds of the traced repetitions.
    pub traced_s: Vec<f64>,
    /// Every span of every traced repetition.
    pub spans: Vec<SpanRec>,
    /// The (identical) outcome of every repetition.
    pub outcome: Outcome,
}

/// Traced pass: plain and traced repetitions alternate, so drift in the
/// machine's speed hits both sides alike.
pub fn traced_pass(w: &dyn Workload, budget: Budget) -> Traced {
    let mut plain = Probe::new(Spans::off());
    let mut traced = Probe::new(Spans::on());
    let mut reference = None;
    for _ in 0..budget.warmup_reps {
        let (_, outcome) = run_rep(w, &mut plain, 0);
        reconcile(&mut reference, outcome, "warm-up");
    }
    let mut out = Traced {
        plain_s: Vec::new(),
        traced_s: Vec::new(),
        spans: Vec::new(),
        outcome: Outcome::default(),
    };
    let start = now_ns();
    while out.traced_s.len() < budget.min_reps || secs_between(start, now_ns()) < budget.seconds {
        // Alternate which side goes first within a pair as well.
        let traced_first = out.traced_s.len() % 2 == 1;
        for side in [traced_first, !traced_first] {
            let probe = if side { &mut traced } else { &mut plain };
            let (time, outcome) = run_rep(w, probe, out.traced_s.len());
            reconcile(&mut reference, outcome, "traced pass");
            let whole = time.setup_s + time.timed_s;
            if side {
                out.traced_s.push(whole);
            } else {
                out.plain_s.push(whole);
            }
        }
    }
    out.spans = traced.spans.records().to_vec();
    out.outcome = reference.expect("min_reps is at least 1");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose digest is whatever the test says next.
    struct Scripted(std::cell::RefCell<Vec<u64>>);

    impl Workload for Scripted {
        fn rep(&self, probe: &mut Probe) -> Outcome {
            probe.setup(|_| ());
            probe.timed(|s| s.scope("sim.run", |_| std::hint::black_box(vec![0u8; 512])));
            probe.post(|_| ());
            Outcome {
                ops: 1,
                attempted: 1,
                digest: self.0.borrow_mut().pop().unwrap_or(7),
                ..Outcome::default()
            }
        }
    }

    const ONCE: Budget = Budget {
        seconds: 0.0,
        min_reps: 3,
        warmup_reps: 1,
    };

    #[test]
    fn equal_digests_pass_and_a_mismatch_is_a_failed_check() {
        let steady = timed_pass(&Scripted(Default::default()), ONCE);
        assert_eq!(steady.reps.len(), 3);
        assert!(steady.outcome.failures.is_empty());

        // Digests pop from the back: 7 (warm-up), 7, 9, 7.
        let drifting = timed_pass(&Scripted(vec![7, 9, 7, 7].into()), ONCE);
        assert_eq!(drifting.outcome.failures.len(), 1);
        assert!(drifting.outcome.failures[0].contains("sim_digest differs"));
    }

    #[test]
    fn traced_pass_pairs_plain_and_traced_repetitions() {
        let t = traced_pass(&Scripted(Default::default()), ONCE);
        assert_eq!(t.plain_s.len(), 3);
        assert_eq!(t.traced_s.len(), 3);
        let roots = t.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 3, "one root span per traced repetition");
        assert!(t.spans.iter().any(|s| s.name == "sim.run"));
        for rep in 0..3 {
            let sum: f64 = crate::spans::shares(&t.spans, rep)
                .unwrap()
                .iter()
                .map(|(_, v)| v)
                .sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
