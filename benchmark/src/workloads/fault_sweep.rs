//! `fault_sweep`: the simulator's heaviest real consumer.
//!
//! `demos_chaos::run_full` over 64 generated scenarios (chaos seeds
//! 0..64, `Scenario::generate` and `generate_recovery` alternating) plus
//! every committed seed under `tests/corpus`, read-only. Each execution
//! checks every invariant continuously and at quiescence; this is the
//! only workload with lossy links, partitions, crashes, the recovery
//! manager and `Trace` on, and the only one that consumes the ledger and
//! JSON-lines views.
//!
//! The scenario *set* is the same for every `--seed`; the seed decides the
//! order of execution. Scenario cost varies by a factor of several from
//! one chaos seed to the next, so a set drawn from the seed would make two
//! runs with different seeds incomparable — and scenarios per second is
//! only a rate if the scenarios are the same ones.
//!
//! `RunReport` exposes no node-visit count, so on this workload an
//! *event* is one trace record: one line of the JSON-lines export that
//! `run_full` builds anyway.

use std::path::{Path, PathBuf};

use demos_chaos::{run_full, RunConfig, Scenario};

use super::Scale;
use crate::digest::Digest;
use crate::harness::{Outcome, Probe, Workload};
use crate::rng::Rng;

/// One entry of the sweep.
enum Item {
    /// `Scenario::generate(seed)`.
    Classic(u64),
    /// `Scenario::generate_recovery(seed)`.
    Recovery(u64),
    /// A committed corpus file.
    Corpus(PathBuf),
}

/// The generated inputs of one `fault_sweep` run.
pub struct FaultSweep {
    items: Vec<Item>,
    /// Execution order: a seeded permutation of `0..items.len()`.
    order: Vec<usize>,
}

/// `tests/corpus` of the repository this crate sits in.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus")
}

/// Every `*.seed` file under `dir` and `dir/distilled`, sorted.
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for d in [dir.to_path_buf(), dir.join("distilled")] {
        let entries = std::fs::read_dir(&d)
            .unwrap_or_else(|e| panic!("the committed chaos corpus at {}: {e}", d.display()));
        files.extend(
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "seed")),
        );
    }
    files.sort();
    files
}

/// Read and parse one corpus file.
pub fn load_corpus_scenario(path: &Path) -> Scenario {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("corpus file {}: {e}", path.display()));
    Scenario::from_corpus(&text).unwrap_or_else(|e| panic!("corpus file {}: {e}", path.display()))
}

impl FaultSweep {
    /// Fix the set; draw the order from `seed`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let generated = scale.pick(64, 4);
        let mut items: Vec<Item> = (0..generated)
            .map(|k| {
                if k % 2 == 0 {
                    Item::Classic(k)
                } else {
                    Item::Recovery(k)
                }
            })
            .collect();
        let mut corpus = corpus_files(&corpus_dir());
        if scale == Scale::Quick {
            corpus.truncate(3);
        }
        items.extend(corpus.into_iter().map(Item::Corpus));
        let mut order: Vec<usize> = (0..items.len()).collect();
        Rng::new(seed, 0x6661_756c).shuffle(&mut order);
        FaultSweep { items, order }
    }
}

/// What one execution reported.
#[derive(Clone, Copy, Default)]
struct Ran {
    fingerprint: u64,
    end_us: u64,
    applied: u64,
    skipped: u64,
    records: u64,
    segments: u64,
    violated: bool,
}

impl Workload for FaultSweep {
    fn rep(&self, probe: &mut Probe) -> Outcome {
        // Set-up: the corpus is read and parsed; generated scenarios are
        // generated inside the timed region, as a fuzzing run does.
        let mut parsed: Vec<Option<Scenario>> = probe.setup(|spans| {
            spans.scope("chaos.corpus", |_| {
                self.items
                    .iter()
                    .map(|item| match item {
                        Item::Corpus(path) => Some(load_corpus_scenario(path)),
                        Item::Classic(_) | Item::Recovery(_) => None,
                    })
                    .collect()
            })
        });

        let mut ran = vec![Ran::default(); self.items.len()];
        let mut first_violation = None;
        probe.timed(|spans| {
            for &i in &self.order {
                let scenario = match &self.items[i] {
                    Item::Classic(k) => spans.scope("chaos.generate", |_| Scenario::generate(*k)),
                    Item::Recovery(k) => {
                        spans.scope("chaos.generate", |_| Scenario::generate_recovery(*k))
                    }
                    Item::Corpus(_) => parsed[i].take().expect("parsed in set-up"),
                };
                let (report, lines) =
                    spans.scope("chaos.run", |_| run_full(&scenario, &RunConfig::default()));
                ran[i] = Ran {
                    fingerprint: report.fingerprint,
                    end_us: report.end_us,
                    applied: report.events_applied as u64,
                    skipped: report.events_skipped as u64,
                    records: lines.lines().count() as u64,
                    segments: report.parallel_segments,
                    violated: !report.passed(),
                };
                if let (None, Some(v)) = (&first_violation, &report.violation) {
                    first_violation = Some(format!("scenario {i} violated an invariant: {v}"));
                }
            }
        });

        probe.post(|_| {
            let total = |f: fn(&Ran) -> u64| ran.iter().map(f).sum::<u64>();
            let violations = total(|r| u64::from(r.violated));
            let mut out = Outcome {
                ops: ran.len() as u64 - violations,
                attempted: ran.len() as u64,
                failed: violations,
                events: total(|r| r.records),
                virt_us: total(|r| r.end_us),
                ..Outcome::default()
            };
            out.failures.extend(first_violation);
            // Folded in item order, not execution order: the digest says
            // what the sweep computed, and that does not depend on the seed.
            let mut d = Digest::default();
            for r in &ran {
                d.words([r.fingerprint, r.end_us, r.applied, r.skipped, r.records]);
            }
            out.digest = d.finish();
            out.counters
                .insert("chaos.events_applied", total(|r| r.applied) as f64);
            out.counters
                .insert("chaos.events_skipped", total(|r| r.skipped) as f64);
            out.counters.insert("chaos.violations", violations as f64);
            out.counters
                .insert("sim.parallel_segments", total(|r| r.segments) as f64);
            out
        })
    }
}
