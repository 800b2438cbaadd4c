//! The coverage-guided parallel campaign driver.
//!
//! A campaign runs in **rounds**. Each round derives a fixed-size batch
//! of candidate scenarios *sequentially* from the campaign RNG — corpus
//! entries and fresh generator draws at first, pool mutants once the
//! pool has members — then executes the batch across worker threads, and
//! finally folds the results back in candidate order. Because candidate
//! derivation and result folding are both sequential and the executor
//! itself is deterministic, the entire campaign — coverage set, pool
//! contents, bugs found, execution counts — is **byte-identical for any
//! `--jobs` value**. Threads only decide *who* runs a candidate, never
//! *what* runs or in what order results are accounted.
//!
//! Time budgets are enforced by the caller between rounds via the
//! `keep_going` callback (the library itself never reads a wall clock),
//! so a time-boxed run is still deterministic *per round*; determinism
//! claims across machines apply at fixed `--execs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use demos_obs::features::FeatureSet;

use crate::exec::{run_with_coverage, RunConfig, RunReport};
use crate::invariants::Violation;
use crate::mutate::mutate;
use crate::pool::Pool;
use crate::scenario::Scenario;

/// How a campaign draws fresh (non-mutant) scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generator {
    /// [`Scenario::generate`] — the classic fault mix.
    Classic,
    /// [`Scenario::generate_recovery`] — permanent crashes, recovery on.
    Recovery,
    /// [`Scenario::generate_rare`] — the E17 rare-migration regime.
    RareClassic,
    /// [`Scenario::generate_rare_recovery`] — the E17 rare-crash regime.
    RareRecovery,
}

impl Generator {
    /// Draw the scenario for `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Generator::Classic => Scenario::generate(seed),
            Generator::Recovery => Scenario::generate_recovery(seed),
            Generator::RareClassic => Scenario::generate_rare(seed),
            Generator::RareRecovery => Scenario::generate_rare_recovery(seed),
        }
    }
}

/// Percent of post-warmup candidates drawn fresh instead of mutated
/// (exploration floor).
const FRESH_PCT: u64 = 20;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Base seed: fresh draws use `seed + counter`, candidate derivation
    /// a per-round RNG keyed off it.
    pub seed: u64,
    /// Fresh-scenario generator.
    pub generator: Generator,
    /// Ablation flags every execution runs under.
    pub fault: RunConfig,
    /// Worker threads (1 = run in the caller's thread).
    pub jobs: usize,
    /// Candidates per round. Fixed per campaign — the unit determinism
    /// is defined over.
    pub batch: usize,
    /// Hard execution ceiling; `None` = until `keep_going` says stop.
    pub max_execs: Option<u64>,
    /// Initial corpus scenarios, executed before anything else.
    pub corpus: Vec<Scenario>,
    /// Stop at the end of the first fold that found a violation.
    pub stop_on_violation: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0,
            generator: Generator::Classic,
            fault: RunConfig::default(),
            jobs: 1,
            batch: 16,
            max_execs: None,
            corpus: Vec::new(),
            stop_on_violation: false,
        }
    }
}

/// A violating run the campaign surfaced.
#[derive(Clone, Debug)]
pub struct FoundBug {
    /// The violating scenario (pre-shrink).
    pub scenario: Scenario,
    /// What broke.
    pub violation: Violation,
    /// Campaign execution count when it was found (1-based).
    pub execs_at: u64,
    /// Trace fingerprint of the violating run.
    pub fingerprint: u64,
}

/// Everything a finished campaign learned.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Total executions performed.
    pub execs: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Union coverage over every execution.
    pub coverage: FeatureSet,
    /// The corpus pool (clean, feature-novel scenarios).
    pub pool: Pool,
    /// Violations found, in discovery order.
    pub bugs: Vec<FoundBug>,
}

impl CampaignReport {
    /// Deterministic digest of the campaign's observable outcome —
    /// coverage, pool scenarios, bugs. Two campaigns with the same
    /// config and `--execs` must agree on this for every `--jobs`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.coverage.to_text().as_bytes());
        for e in self.pool.entries() {
            eat(e.scenario.to_text().as_bytes());
            eat(&e.fingerprint.to_le_bytes());
        }
        for b in &self.bugs {
            eat(b.scenario.to_text().as_bytes());
            eat(b.violation.slug().as_bytes());
            eat(&b.execs_at.to_le_bytes());
            eat(&b.fingerprint.to_le_bytes());
        }
        eat(&self.execs.to_le_bytes());
        h
    }
}

/// One candidate awaiting execution.
struct Candidate {
    scenario: Scenario,
    origin: String,
}

/// Run a coverage-guided campaign. `keep_going` is polled between
/// rounds; return `false` to stop (the wall-clock budget lives in the
/// caller).
pub fn campaign(cfg: &CampaignConfig, keep_going: &(dyn Fn() -> bool + Sync)) -> CampaignReport {
    let mut pool = Pool::new();
    let mut coverage = FeatureSet::new();
    let mut bugs: Vec<FoundBug> = Vec::new();
    let mut execs = 0u64;
    let mut rounds = 0u64;
    let mut fresh_counter = 0u64;

    'campaign: loop {
        if !keep_going() {
            break;
        }
        let remaining = match cfg.max_execs {
            Some(max) if execs >= max => break,
            Some(max) => (max - execs) as usize,
            None => usize::MAX,
        };

        // --- Derive this round's candidates, sequentially. ---
        let mut rng = StdRng::seed_from_u64(
            cfg.seed ^ rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C0_FFEE_CA4A_16E5,
        );
        let mut cands: Vec<Candidate> = Vec::new();
        if rounds == 0 {
            for sc in &cfg.corpus {
                cands.push(Candidate {
                    scenario: sc.clone(),
                    origin: "corpus".into(),
                });
            }
        }
        while cands.len() < cfg.batch {
            if pool.is_empty() || rng.gen_range(0..100) < FRESH_PCT {
                let sc = cfg.generator.scenario(cfg.seed.wrapping_add(fresh_counter));
                fresh_counter += 1;
                cands.push(Candidate {
                    scenario: sc,
                    origin: "fresh".into(),
                });
            } else {
                let base = pool.select(&mut rng).scenario.clone();
                let donor = if pool.len() > 1 && rng.gen_bool(0.5) {
                    Some(pool.select(&mut rng).scenario.clone())
                } else {
                    None
                };
                let m = mutate(&base, donor.as_ref(), &mut rng);
                cands.push(Candidate {
                    scenario: m,
                    origin: format!("mutant r{rounds}"),
                });
            }
        }
        cands.truncate(remaining);
        if cands.is_empty() {
            break;
        }

        // --- Execute the batch (the only parallel section). ---
        let results = run_batch(&cands, &cfg.fault, cfg.jobs);

        // --- Fold results, sequentially, in candidate order. ---
        for (cand, (report, features)) in cands.into_iter().zip(results) {
            execs += 1;
            coverage.merge(&features);
            match &report.violation {
                Some(v) => bugs.push(FoundBug {
                    scenario: cand.scenario,
                    violation: v.clone(),
                    execs_at: execs,
                    fingerprint: report.fingerprint,
                }),
                None => {
                    pool.offer(cand.scenario, features, report.fingerprint, &cand.origin);
                }
            }
            if cfg.stop_on_violation && !bugs.is_empty() {
                rounds += 1;
                break 'campaign;
            }
        }
        rounds += 1;
    }

    CampaignReport {
        execs,
        rounds,
        coverage,
        pool,
        bugs,
    }
}

/// Execute every candidate, returning results in candidate order.
/// Workers claim indices from a shared counter; each execution is
/// self-contained, so thread assignment cannot affect any result.
fn run_batch(cands: &[Candidate], fault: &RunConfig, jobs: usize) -> Vec<(RunReport, FeatureSet)> {
    if jobs <= 1 || cands.len() <= 1 {
        return cands
            .iter()
            .map(|c| run_with_coverage(&c.scenario, fault))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(RunReport, FeatureSet)>>> =
        cands.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(cands.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cands.len() {
                    break;
                }
                let r = run_with_coverage(&cands[i].scenario, fault);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every candidate index was claimed and filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(jobs: usize) -> CampaignReport {
        campaign(
            &CampaignConfig {
                seed: 42,
                batch: 6,
                jobs,
                max_execs: Some(18),
                ..CampaignConfig::default()
            },
            &|| true,
        )
    }

    #[test]
    fn campaign_is_jobs_invariant() {
        let solo = small(1);
        let quad = small(4);
        assert_eq!(solo.execs, 18);
        assert_eq!(solo.execs, quad.execs);
        assert_eq!(solo.coverage, quad.coverage);
        assert_eq!(solo.pool.len(), quad.pool.len());
        for (a, b) in solo.pool.entries().iter().zip(quad.pool.entries()) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.gain, b.gain);
            assert_eq!(a.origin, b.origin);
        }
        assert_eq!(solo.fingerprint(), quad.fingerprint());
    }

    #[test]
    fn pool_grows_and_coverage_accumulates() {
        let r = small(2);
        assert!(!r.pool.is_empty(), "clean runs with novelty were admitted");
        assert!(r.coverage.len() >= r.pool.coverage().len());
        assert!(r.pool.coverage().is_subset(&r.coverage));
        assert!(r.rounds >= 3, "18 execs / batch 6");
    }

    #[test]
    fn guided_campaign_finds_the_forwarding_ablation() {
        let r = campaign(
            &CampaignConfig {
                seed: 7,
                batch: 8,
                jobs: 2,
                max_execs: Some(64),
                fault: RunConfig {
                    disable_forwarding: true,
                    ..RunConfig::default()
                },
                stop_on_violation: true,
                ..CampaignConfig::default()
            },
            &|| true,
        );
        assert!(!r.bugs.is_empty(), "ablation bug found within 64 execs");
        let bug = &r.bugs[0];
        assert!(bug.execs_at <= r.execs);
        // The violating scenario replays to the same violation variant.
        let replay = crate::exec::run(
            &bug.scenario,
            &RunConfig {
                disable_forwarding: true,
                ..RunConfig::default()
            },
        );
        assert_eq!(
            replay.violation.as_ref().map(|v| v.slug()),
            Some(bug.violation.slug())
        );
    }

    #[test]
    fn corpus_seeds_run_first_and_reach_the_pool() {
        let corpus = vec![Scenario::generate(100), Scenario::generate(101)];
        let r = campaign(
            &CampaignConfig {
                seed: 1,
                batch: 4,
                max_execs: Some(4),
                corpus,
                ..CampaignConfig::default()
            },
            &|| true,
        );
        assert!(
            r.pool.entries().iter().any(|e| e.origin == "corpus"),
            "corpus entries admitted first"
        );
    }

    #[test]
    fn keep_going_false_stops_before_any_round() {
        let r = campaign(&CampaignConfig::default(), &|| false);
        assert_eq!(r.execs, 0);
        assert_eq!(r.rounds, 0);
    }
}
