//! `chaos` — scenario fuzzer for the DEMOS/MP cluster.
//!
//! Blind sweeps (the original mode):
//!
//! ```text
//! chaos --seed 42                 # run one seed, print the verdict
//! chaos --iters 200               # sweep seeds 0..200
//! chaos --until-failure           # sweep until a violation (or iter cap)
//! chaos --recovery                # crash-heavy scenarios: permanent
//!                                 # crashes + heartbeat detection +
//!                                 # checkpoint re-homing
//! chaos --fault no-forwarding     # run with the broken-kernel ablation
//! chaos --fault no-recovery       # recovery-machinery ablation
//! ```
//!
//! Coverage-guided campaigns (feedback-driven, multi-threaded):
//!
//! ```text
//! chaos --guided --jobs 4 --execs 800        # fixed-size campaign
//! chaos --guided --jobs 2 --time-budget 60s  # time-boxed (CI smoke)
//! chaos --guided --corpus tests/corpus \
//!       --coverage-report target/coverage.txt \
//!       --corpus-out target/corpus-delta     # seed from + report back
//! chaos --guided --distill target/distilled  # greedy covering corpus
//! ```
//!
//! A campaign's coverage set, corpus pool and bug list are byte-identical
//! for any `--jobs` value at fixed `--execs`; `--time-budget` stops
//! between rounds, so parallelism only changes *how many* rounds fit.
//!
//! Corpus replay gate (CI):
//!
//! ```text
//! chaos --replay tests/corpus --replay tests/corpus/distilled
//! ```
//!
//! On a violation the schedule is shrunk and four artifacts are written
//! (scenario text, Rust test snippet, JSON-lines trace, flight dump);
//! exit code 1. Artifacts never overwrite a different repro that shares
//! a seed — colliding variants get a suffixed name.

use std::path::{Path, PathBuf};
use std::time::Instant;

use demos_chaos::{
    campaign, coverage, run, run_capture, run_with_coverage, shrink, CampaignConfig,
    CampaignReport, Generator, RunConfig, Scenario,
};
use demos_obs::features::FeatureSet;

struct Args {
    seed: u64,
    iters: u64,
    until_failure: bool,
    recovery: bool,
    rare: bool,
    fault: RunConfig,
    out: PathBuf,
    quiet: bool,
    guided: bool,
    jobs: usize,
    execs: Option<u64>,
    time_budget: Option<std::time::Duration>,
    coverage_report: Option<PathBuf>,
    corpus: Vec<PathBuf>,
    corpus_out: Option<PathBuf>,
    distill: Option<PathBuf>,
    replay: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed N] [--iters N] [--until-failure] [--recovery] [--rare]
             [--fault no-forwarding|no-recovery] [--out DIR] [--quiet]
             [--guided] [--jobs N] [--execs N]
             [--time-budget DUR] [--coverage-report FILE]
             [--corpus DIR]... [--corpus-out DIR] [--distill DIR]
             [--replay DIR]...
  --guided           coverage-guided campaign instead of a blind sweep
  --jobs N           worker threads for --guided (default 1)
  --execs N          execution ceiling for --guided
  --time-budget DUR  stop after DUR (e.g. 60s, 500ms, 2m), between rounds
  --rare             rare-interleaving generators (the E17 regime)
  --coverage-report  write the campaign (or replay) coverage report here
  --corpus DIR       seed the campaign from DIR's *.seed files
  --corpus-out DIR   write newly-distilled corpus entries (delta) to DIR
  --distill DIR      write the full distilled covering corpus to DIR
  --shards N         run every cluster event loop on N shard threads
                     (verdicts and fingerprints are identical to N=1)
  --lossless         zero the scenarios' link loss so the sharded
                     executor takes its parallel path (lossy links fall
                     back to the sequential loop)
  --replay DIR       replay DIR's *.seed files and gate on a clean pass"
    );
    std::process::exit(2)
}

fn parse_duration(s: &str) -> Option<std::time::Duration> {
    let s = s.trim();
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.parse().ok().map(std::time::Duration::from_millis);
    }
    if let Some(m) = s.strip_suffix('m') {
        return m
            .parse()
            .ok()
            .map(|v: u64| std::time::Duration::from_secs(v * 60));
    }
    let secs = s.strip_suffix('s').unwrap_or(s);
    secs.parse().ok().map(std::time::Duration::from_secs)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0,
        iters: 1,
        until_failure: false,
        recovery: false,
        rare: false,
        fault: RunConfig::default(),
        out: PathBuf::from("target/chaos"),
        quiet: false,
        guided: false,
        jobs: 1,
        execs: None,
        time_budget: None,
        coverage_report: None,
        corpus: Vec::new(),
        corpus_out: None,
        distill: None,
        replay: Vec::new(),
    };
    let mut explicit_iters = false;
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = next(&mut it).parse().unwrap_or_else(|_| usage()),
            "--iters" => {
                args.iters = next(&mut it).parse().unwrap_or_else(|_| usage());
                explicit_iters = true;
            }
            "--until-failure" => args.until_failure = true,
            "--recovery" => args.recovery = true,
            "--rare" => args.rare = true,
            "--fault" => match next(&mut it).as_str() {
                "no-forwarding" => args.fault.disable_forwarding = true,
                "no-recovery" => {
                    // The ablation only bites on recovery scenarios.
                    args.recovery = true;
                    args.fault.disable_recovery = true;
                }
                _ => usage(),
            },
            "--shards" => args.fault.shards = next(&mut it).parse().unwrap_or_else(|_| usage()),
            "--lossless" => args.fault.lossless = true,
            "--out" => args.out = PathBuf::from(next(&mut it)),
            "--quiet" => args.quiet = true,
            "--guided" => args.guided = true,
            "--jobs" => args.jobs = next(&mut it).parse().unwrap_or_else(|_| usage()),
            "--execs" => args.execs = Some(next(&mut it).parse().unwrap_or_else(|_| usage())),
            "--time-budget" => {
                args.time_budget = Some(parse_duration(&next(&mut it)).unwrap_or_else(|| usage()))
            }
            "--coverage-report" => args.coverage_report = Some(PathBuf::from(next(&mut it))),
            "--corpus" => args.corpus.push(PathBuf::from(next(&mut it))),
            "--corpus-out" => args.corpus_out = Some(PathBuf::from(next(&mut it))),
            "--distill" => args.distill = Some(PathBuf::from(next(&mut it))),
            "--replay" => args.replay.push(PathBuf::from(next(&mut it))),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.jobs == 0 {
        usage();
    }
    if args.until_failure && !explicit_iters {
        args.iters = u64::MAX;
    }
    if args.guided && args.execs.is_none() && args.time_budget.is_none() {
        // A guided run needs *some* stop condition.
        args.execs = Some(512);
    }
    args
}

/// Load every `*.seed` file under `dir` (non-recursive), path-sorted for
/// determinism.
fn load_corpus(dir: &Path) -> Vec<(PathBuf, Scenario)> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "seed"))
            .collect(),
        Err(e) => {
            eprintln!("corpus dir {}: {e}", dir.display());
            std::process::exit(2)
        }
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
                eprintln!("{}: {e}", p.display());
                std::process::exit(2)
            });
            let sc = Scenario::from_corpus(&text).unwrap_or_else(|e| {
                eprintln!("{}: {e}", p.display());
                std::process::exit(2)
            });
            (p, sc)
        })
        .collect()
}

/// `1.20s, 103.4 execs/s` for a summary line: operator-side throughput,
/// printed and nothing else — never part of a report fingerprint or of
/// any seeded decision.
fn throughput(execs: u64, started: Instant) -> String {
    let secs = started.elapsed().as_secs_f64();
    format!("{secs:.2}s, {:.1} execs/s", execs as f64 / secs.max(1e-9))
}

/// Replay-gate mode: every corpus entry must pass every invariant.
fn replay_gate(args: &Args, started: Instant) -> ! {
    let mut union = FeatureSet::new();
    let mut total = 0usize;
    let mut failed = 0usize;
    for dir in &args.replay {
        for (path, sc) in load_corpus(dir) {
            total += 1;
            let (report, cov) = run_with_coverage(&sc, &args.fault);
            union.merge(&cov);
            match report.violation {
                None => {
                    if !args.quiet {
                        println!("{}: ok (fp {:016x})", path.display(), report.fingerprint);
                    }
                }
                Some(v) => {
                    failed += 1;
                    println!("{}: VIOLATION — {v}", path.display());
                }
            }
        }
    }
    if let Some(path) = &args.coverage_report {
        let report = coverage::render_report(&union, total as u64, 0, 0, failed);
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("coverage report {}: {e}", path.display());
            std::process::exit(2)
        }
    }
    println!(
        "replayed {total} corpus entr{} ({} feature(s)) in {}: {}",
        plural_y(total),
        union.len(),
        throughput(total as u64, started),
        if failed == 0 {
            "all clean".to_string()
        } else {
            format!("{failed} FAILED")
        }
    );
    std::process::exit(if failed == 0 { 0 } else { 1 })
}

/// Shrink each campaign bug (first occurrence per violation variant) and
/// write repro artifacts.
fn emit_bug_artifacts(args: &Args, report: &CampaignReport) {
    let mut seen: Vec<&'static str> = Vec::new();
    for bug in &report.bugs {
        if seen.contains(&bug.violation.slug()) {
            continue;
        }
        seen.push(bug.violation.slug());
        println!(
            "bug after {} exec(s): {} (seed {})",
            bug.execs_at, bug.violation, bug.scenario.seed
        );
        let res = shrink(&bug.scenario, &args.fault, &bug.violation, 200);
        println!(
            "  shrunk to {} event(s) / {} workload(s) in {} runs [{}]",
            res.scenario.events.len(),
            res.scenario.workloads.len(),
            res.runs,
            res.steps.join(", ")
        );
        let (final_report, trace, flight) = run_capture(&res.scenario, &args.fault);
        let violation = final_report.violation.unwrap_or(res.violation);
        match demos_chaos::write_artifacts(
            &args.out,
            &res.scenario,
            &args.fault,
            &violation,
            &trace,
            &flight,
        ) {
            Ok(a) => println!("  repro: {}", a.scenario.display()),
            Err(e) => eprintln!("  failed to write artifacts: {e}"),
        }
    }
}

/// Write a distilled corpus (scenario texts + the FEATURES.txt manifest)
/// into `dir`. With `delta_vs`, only entries whose text is not already in
/// that set are written (the corpus-delta artifact).
fn write_distilled(
    dir: &Path,
    report: &CampaignReport,
    delta_vs: Option<&[String]>,
) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0usize;
    for e in report.pool.distill() {
        let text = e.scenario.to_text();
        if delta_vs.is_some_and(|known| known.contains(&text)) {
            continue;
        }
        let name = format!("distilled-{:016x}.seed", e.fingerprint);
        std::fs::write(dir.join(name), &text)?;
        written += 1;
    }
    std::fs::write(dir.join("FEATURES.txt"), report.pool.coverage().to_text())?;
    Ok(written)
}

/// Coverage-guided campaign mode.
fn guided(args: &Args, started: Instant) -> ! {
    let corpus_texts: Vec<String>;
    let corpus: Vec<Scenario> = {
        let mut loaded = Vec::new();
        for dir in &args.corpus {
            loaded.extend(load_corpus(dir).into_iter().map(|(_, sc)| sc));
        }
        corpus_texts = loaded.iter().map(|sc| sc.to_text()).collect();
        loaded
    };
    let generator = match (args.recovery, args.rare) {
        (false, false) => Generator::Classic,
        (true, false) => Generator::Recovery,
        (false, true) => Generator::RareClassic,
        (true, true) => Generator::RareRecovery,
    };
    let cfg = CampaignConfig {
        seed: args.seed,
        generator,
        fault: args.fault,
        jobs: args.jobs,
        max_execs: args.execs,
        corpus,
        stop_on_violation: args.until_failure,
        ..CampaignConfig::default()
    };
    let budget = args.time_budget;
    let keep_going = move || match budget {
        Some(b) => started.elapsed() < b,
        None => true,
    };
    let report = campaign(&cfg, &keep_going);

    println!(
        "campaign: {} exec(s), {} round(s), {} feature(s), pool {}, {} bug(s), digest {:016x}, in {}",
        report.execs,
        report.rounds,
        report.coverage.len(),
        report.pool.len(),
        report.bugs.len(),
        report.fingerprint(),
        throughput(report.execs, started)
    );
    if !args.quiet {
        for (cl, n) in report.coverage.class_counts() {
            println!("  {:<18} {n}", demos_obs::features::class_name(cl));
        }
    }
    if let Some(path) = &args.coverage_report {
        let text = coverage::render_report(
            &report.coverage,
            report.execs,
            report.rounds,
            report.pool.len(),
            report.bugs.len(),
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("coverage report {}: {e}", path.display());
            std::process::exit(2)
        }
        println!("coverage report: {}", path.display());
    }
    if let Some(dir) = &args.distill {
        match write_distilled(dir, &report, None) {
            Ok(n) => println!(
                "distilled corpus: {n} entr{} -> {}",
                plural_y(n),
                dir.display()
            ),
            Err(e) => {
                eprintln!("distill {}: {e}", dir.display());
                std::process::exit(2)
            }
        }
    }
    if let Some(dir) = &args.corpus_out {
        match write_distilled(dir, &report, Some(&corpus_texts)) {
            Ok(n) => println!("corpus delta: {n} entr{} -> {}", plural_y(n), dir.display()),
            Err(e) => {
                eprintln!("corpus delta {}: {e}", dir.display());
                std::process::exit(2)
            }
        }
    }
    emit_bug_artifacts(args, &report);
    std::process::exit(if report.bugs.is_empty() { 0 } else { 1 })
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn main() {
    let args = parse_args();
    // lint:allow(D002 the operator's wall clock: the --time-budget poll between campaign rounds and the seconds / execs-per-second on the summary lines; never read inside the seeded simulation, never part of a report fingerprint)
    let started = Instant::now();
    if !args.replay.is_empty() {
        replay_gate(&args, started);
    }
    if args.guided {
        guided(&args, started);
    }
    let mut passed = 0u64;
    let mut i = 0u64;
    while i < args.iters {
        let seed = args.seed.wrapping_add(i);
        let sc = match (args.recovery, args.rare) {
            (false, false) => Scenario::generate(seed),
            (true, false) => Scenario::generate_recovery(seed),
            (false, true) => Scenario::generate_rare(seed),
            (true, true) => Scenario::generate_rare_recovery(seed),
        };
        let report = run(&sc, &args.fault);
        match report.violation {
            None => {
                passed += 1;
                if !args.quiet {
                    println!(
                        "seed {seed}: ok ({} events, {} skipped, {} us virtual, fp {:016x})",
                        report.events_applied,
                        report.events_skipped,
                        report.end_us,
                        report.fingerprint
                    );
                }
            }
            Some(v) => {
                println!("seed {seed}: VIOLATION — {v}");
                println!("shrinking…");
                let res = shrink(&sc, &args.fault, &v, 200);
                println!(
                    "shrunk to {} event(s) / {} workload(s) in {} runs [{}]: {}",
                    res.scenario.events.len(),
                    res.scenario.workloads.len(),
                    res.runs,
                    res.steps.join(", "),
                    res.violation
                );
                // Re-run the minimized scenario to capture its trace and
                // the machines' flight recorders.
                let (final_report, trace, flight) = run_capture(&res.scenario, &args.fault);
                let violation = final_report.violation.unwrap_or(res.violation);
                match demos_chaos::write_artifacts(
                    &args.out,
                    &res.scenario,
                    &args.fault,
                    &violation,
                    &trace,
                    &flight,
                ) {
                    Ok(a) => {
                        println!("repro scenario: {}", a.scenario.display());
                        println!("repro test:     {}", a.snippet.display());
                        println!("repro trace:    {}", a.trace.display());
                        println!("repro flight:   {}", a.flight.display());
                        println!("--- minimized repro ---");
                        print!(
                            "{}",
                            demos_chaos::rust_snippet(&res.scenario, &args.fault, &violation)
                        );
                    }
                    Err(e) => eprintln!("failed to write artifacts: {e}"),
                }
                std::process::exit(1);
            }
        }
        i += 1;
    }
    println!(
        "{passed}/{} seed(s) passed in {}",
        args.iters,
        throughput(args.iters, started)
    );
}
