//! Chaos-harness integration tests:
//!
//! * a proptest sweep feeding random seeds through the full scenario
//!   generator + executor + invariant stack;
//! * replay of the regression corpus under `tests/corpus/`;
//! * determinism — the same seed must yield a byte-identical trace;
//! * the broken-kernel canary — with forwarding addresses disabled (the
//!   paper's rejected design, §4) the harness must find a violating seed
//!   quickly and shrink it to a handful of schedule events.

use demos_chaos::{
    campaign, run, run_full, run_with_coverage, shrink, CampaignConfig, Generator, RunConfig,
    Scenario,
};
use demos_obs::features::{class, feature, unpack, FeatureSet};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated scenario upholds every cluster invariant: exactly-once
    /// delivery, acyclic forwarding chains, process conservation, transport
    /// counter sanity, link convergence at quiescence, and workload counter
    /// reconciliation.
    #[test]
    fn random_scenarios_uphold_invariants(seed in 0u64..1_000_000) {
        let sc = Scenario::generate(seed);
        let report = run(&sc, &RunConfig::default());
        prop_assert!(
            report.passed(),
            "seed {} violated: {}",
            seed,
            report.violation.unwrap()
        );
    }
}

/// Every scenario in `tests/corpus/` replays clean. Drop any shrunk repro
/// (`target/chaos/repro-*.seed`) into that directory to pin a regression.
#[test]
fn corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seed"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "corpus holds the seed regressions");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let sc = Scenario::from_corpus(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = run(&sc, &RunConfig::default());
        assert!(
            report.passed(),
            "{}: {}",
            path.display(),
            report.violation.unwrap()
        );
    }
}

/// Two executions of the same seed produce byte-identical JSON-lines
/// traces — the property that makes every corpus file and every shrunk
/// repro replayable forever. This is the runtime half of the D001/D002
/// lints (`demos-lint`): the static pass bans the nondeterminism sources,
/// this test catches any that slip through a new code path. Exercised on
/// both the plain generator and the crash-heavy recovery generator, whose
/// heartbeat/checkpoint/re-homing machinery is the newest code.
#[test]
fn same_seed_is_byte_identical() {
    for sc in [Scenario::generate(2026), Scenario::generate_recovery(2026)] {
        let (ra, ta) = run_full(&sc, &RunConfig::default());
        let (rb, tb) = run_full(&sc, &RunConfig::default());
        assert_eq!(ra.fingerprint, rb.fingerprint, "trace fingerprints match");
        assert!(ta == tb, "JSON-lines exports are byte-identical");
        assert!(!ta.is_empty(), "the run produced a trace");
        assert_eq!(ra.violation, rb.violation);
    }
}

/// A seed *is* a scenario: every sweep, the guided campaign's digest and
/// the benchmark's `fault_sweep` row are reproducible only while each
/// generator makes the same draws in the same order. FNV-1a over the text
/// form of seeds 0..256 of each of the four; a generator edit that moves
/// one draw moves a hash.
#[test]
fn generated_scenarios_are_pinned() {
    let generators: [fn(u64) -> Scenario; 4] = [
        Scenario::generate,
        Scenario::generate_recovery,
        Scenario::generate_rare,
        Scenario::generate_rare_recovery,
    ];
    let hashes = generators.map(|generate| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..256 {
            for b in generate(seed).to_text().bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    });
    assert_eq!(
        hashes,
        [
            "21c134fa84a0ac0c",
            "37caa1b17eb46ab6",
            "feead227c99029ca",
            "ad24b30f6f0b159d"
        ],
        "generate, generate_recovery, generate_rare, generate_rare_recovery"
    );
}

/// With forwarding disabled the kernel is the paper's rejected design:
/// messages chasing a migrated process bounce. The sweep must catch it
/// within 200 seeds and the shrinker must cut the schedule to at most 10
/// events while the violation still reproduces.
#[test]
fn broken_forwarding_caught_and_shrunk() {
    let cfg = RunConfig {
        disable_forwarding: true,
        ..RunConfig::default()
    };
    let mut caught = None;
    for seed in 0..200 {
        let sc = Scenario::generate(seed);
        if let Some(v) = run(&sc, &cfg).violation {
            caught = Some((seed, sc, v));
            break;
        }
    }
    let (seed, sc, v) = caught.expect("broken kernel caught within 200 seeds");
    let res = shrink(&sc, &cfg, &v, 200);
    assert!(
        res.scenario.events.len() <= 10,
        "seed {seed} shrunk to {} events",
        res.scenario.events.len()
    );
    let again = run(&res.scenario, &cfg).violation;
    assert!(again.is_some(), "shrunk repro still violates");
    // And the healthy kernel passes the very same shrunk scenario.
    assert!(
        run(&res.scenario, &RunConfig::default()).passed(),
        "violation is the ablation's fault, not the scenario's"
    );
}

/// The two handwritten corpus seeds don't just replay clean — each hits
/// the rare interleaving it was written for, visible in its schedule
/// coverage. `crossing-migrations-during-partition` must forward
/// messages for migrated processes (forwarding-depth features), and
/// `recovery-during-recovery` must overlap two recovery episodes
/// (overlap depth 2).
#[test]
fn handwritten_corpus_seeds_hit_their_target_coverage() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let load = |name: &str| {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("corpus seed exists");
        Scenario::from_corpus(&text).expect("corpus seed parses")
    };

    let crossing = load("crossing-migrations-during-partition.seed");
    let (report, cov) = run_with_coverage(&crossing, &RunConfig::default());
    assert!(
        report.passed(),
        "crossing migrations violated: {}",
        report.violation.unwrap()
    );
    assert!(
        cov.iter().any(|f| unpack(f).0 == class::FWD_DEPTH),
        "crossing migrations must exercise forwarded delivery"
    );

    let nested = load("recovery-during-recovery.seed");
    let (report, cov) = run_with_coverage(&nested, &RunConfig::default());
    assert!(
        report.passed(),
        "recovery-during-recovery violated: {}",
        report.violation.unwrap()
    );
    assert!(
        cov.contains(feature(class::RECOVERY_OVERLAP, 2, 0)),
        "the two crashes must produce overlapping recovery episodes"
    );
}

/// The acceptance test for the parallel fuzzer: the same campaign
/// seed produces a byte-identical outcome — report fingerprint AND the
/// repro artifacts written for the bugs it finds — whether it runs on
/// one worker or four. Workers only execute; candidate derivation and
/// result folding are sequential, so thread scheduling cannot leak in.
#[test]
fn campaign_artifacts_are_byte_identical_across_jobs() {
    let run_campaign = |jobs: usize| {
        let cfg = CampaignConfig {
            seed: 7,
            generator: Generator::Classic,
            fault: RunConfig {
                disable_forwarding: true,
                ..RunConfig::default()
            },
            jobs,
            batch: 8,
            max_execs: Some(64),
            stop_on_violation: true,
            ..CampaignConfig::default()
        };
        campaign(&cfg, &|| true)
    };
    let a = run_campaign(1);
    let b = run_campaign(4);
    assert_eq!(a.fingerprint(), b.fingerprint(), "campaign digests match");
    assert_eq!(a.execs, b.execs);
    assert!(!a.bugs.is_empty(), "the forwarding ablation is found");

    // Shrink + emit artifacts from each run into separate directories;
    // every file must be byte-identical.
    let emit = |report: &demos_chaos::CampaignReport, tag: &str| {
        let bug = &report.bugs[0];
        let fault = RunConfig {
            disable_forwarding: true,
            ..RunConfig::default()
        };
        let res = shrink(&bug.scenario, &fault, &bug.violation, 200);
        let (_, trace, flight) = demos_chaos::run_capture(&res.scenario, &fault);
        let dir = std::env::temp_dir().join(format!("demos-chaos-jobs-invariance-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = demos_chaos::write_artifacts(
            &dir,
            &res.scenario,
            &fault,
            &res.violation,
            &trace,
            &flight,
        )
        .expect("artifacts written");
        (dir, paths)
    };
    let (dir_a, paths_a) = emit(&a, "j1");
    let (dir_b, paths_b) = emit(&b, "j4");
    for (pa, pb) in [
        (&paths_a.scenario, &paths_b.scenario),
        (&paths_a.snippet, &paths_b.snippet),
        (&paths_a.trace, &paths_b.trace),
        (&paths_a.flight, &paths_b.flight),
    ] {
        assert_eq!(
            pa.file_name(),
            pb.file_name(),
            "artifact names match across jobs"
        );
        assert_eq!(
            std::fs::read(pa).unwrap(),
            std::fs::read(pb).unwrap(),
            "{} is byte-identical across jobs",
            pa.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The distilled corpus is the campaign's executable summary: replaying
/// `tests/corpus/distilled/` must pass every invariant and re-cover
/// every feature recorded in its `FEATURES.txt` manifest.
#[test]
fn distilled_corpus_recovers_its_manifest() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/distilled");
    let manifest =
        std::fs::read_to_string(format!("{dir}/FEATURES.txt")).expect("FEATURES.txt exists");
    let want = FeatureSet::parse_text(&manifest).expect("manifest parses");
    assert!(!want.is_empty(), "manifest records campaign coverage");

    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus/distilled exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seed"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "distilled corpus is non-empty");

    let mut got = FeatureSet::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable distilled seed");
        let sc = Scenario::from_corpus(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (report, cov) = run_with_coverage(&sc, &RunConfig::default());
        assert!(
            report.passed(),
            "{}: {}",
            path.display(),
            report.violation.unwrap()
        );
        got.merge(&cov);
    }
    assert!(
        want.is_subset(&got),
        "distilled corpus re-covers its manifest ({} of {} features hit)",
        want.iter().filter(|f| got.contains(*f)).count(),
        want.len()
    );
}

/// Crash-heavy recovery scenarios — permanent machine deaths with the
/// heartbeat detector and checkpoint re-homing active — pass the full
/// recovery-aware invariant stack deterministically.
#[test]
fn recovery_scenarios_uphold_invariants() {
    for seed in 0..200 {
        let sc = Scenario::generate_recovery(seed);
        let report = run(&sc, &RunConfig::default());
        assert!(
            report.passed(),
            "recovery seed {seed} violated: {}",
            report.violation.unwrap()
        );
    }
}

/// With the recovery machinery ablated (no detector, no checkpoints, no
/// re-homing) the same crash-heavy scenarios must be caught as a vanished
/// process within a handful of seeds, and the shrinker must reduce the
/// schedule while the healthy stack still passes the shrunk scenario.
#[test]
fn recovery_disabled_ablation_is_caught_and_shrunk() {
    let cfg = RunConfig {
        disable_recovery: true,
        ..RunConfig::default()
    };
    let mut caught = None;
    for seed in 0..50 {
        let sc = Scenario::generate_recovery(seed);
        if let Some(v) = run(&sc, &cfg).violation {
            caught = Some((seed, sc, v));
            break;
        }
    }
    let (seed, sc, v) = caught.expect("recovery ablation caught within 50 seeds");
    assert!(
        matches!(v, demos_chaos::Violation::ProcessVanished { .. }),
        "seed {seed}: the orphaned process is the symptom: {v}"
    );
    let res = shrink(&sc, &cfg, &v, 200);
    assert!(
        res.scenario.events.len() <= 5,
        "seed {seed} shrunk to {} events",
        res.scenario.events.len()
    );
    assert!(
        run(&res.scenario, &cfg).violation.is_some(),
        "shrunk repro still violates"
    );
    assert!(
        run(&res.scenario, &RunConfig::default()).passed(),
        "the recovery stack survives the very same shrunk scenario"
    );
}
