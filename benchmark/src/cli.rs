//! The command line.
//!
//! ```text
//! demos-benchmark run [--workload W]… [--seed N] [--seconds S]
//!                     [--trace [0|1]] [--quick] [--out FILE]
//! demos-benchmark agree A.json B.json
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::agree;
use crate::catalog::{DEFAULT_SEED, WORKLOADS};
use crate::harness::Budget;
use crate::json;
use crate::kits;
use crate::measure;
use crate::report::{RunReport, WorkloadReport};
use crate::spans;
use crate::workloads::{self, Scale};

const USAGE: &str = "\
usage: demos-benchmark run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
       demos-benchmark agree A.json B.json

run    measures the named workloads (default: all seven) built from --seed
       (default 1983). Without --trace it takes every pass: timed and
       counted (the end-to-end metrics), traced (span shares, overhead,
       counters) and the kits. `--trace 0` takes only the end-to-end
       passes and `--trace 1` only the traced pass and the kits. Each
       timed or traced pass measures for --seconds (default 5) and for at
       least 11 (timed) or 3 (traced) repetitions. Writes FILE (default
       benchmark/out/result.json) and benchmark/out/trace-<workload>.jsonl,
       prints every metric by name with its unit, and exits non-zero if
       any check failed.
agree  compares two result files against the bounds in BENCHMARK.json and
       exits non-zero if B is worse than A beyond a bound.";

/// Which passes `run` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Passes {
    Both,
    EndToEnd,
    PerLayer,
}

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    passes: Passes,
    quick: bool,
    out: PathBuf,
}

/// This crate's directory: where `out/` lives and where `..` is the
/// repository the benchmark measures.
fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 5.0,
        passes: Passes::Both,
        quick: false,
        out: crate_dir().join("out/result.json"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                parsed.workloads.push(known.name);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                parsed.passes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        Passes::EndToEnd
                    }
                    Some("1") => {
                        it.next();
                        Passes::PerLayer
                    }
                    _ => Passes::PerLayer,
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = PathBuf::from(value("a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().map(|w| w.name).collect();
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &RunArgs) -> Result<RunReport, String> {
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let budget = |min_reps: usize| {
        if args.quick {
            Budget {
                seconds: 0.0,
                min_reps: 1,
                warmup_reps: 0,
            }
        } else {
            Budget {
                seconds: args.seconds,
                min_reps,
                warmup_reps: 1,
            }
        }
    };
    let mut report = RunReport {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        rustc: env!("BENCH_RUSTC_VERSION").to_string(),
        kits: Vec::new(),
        workloads: Vec::new(),
    };
    let mut kit_values = BTreeMap::new();
    if args.passes != Passes::EndToEnd {
        eprintln!("kits ...");
        let measured = kits::run_all(scale);
        report.kits = measured.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        kit_values = measured.into_iter().collect();
    }
    for &name in &args.workloads {
        eprintln!("{name} ...");
        let w = workloads::build(name, args.seed, scale).expect("name was checked");
        let mut wr = WorkloadReport {
            name: name.to_string(),
            sim_digest: 0,
            ops: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            timed_s: Vec::new(),
            traced_reps: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        let mut outcomes = Vec::new();
        if args.passes != Passes::PerLayer {
            let r = measure::end_to_end(w.as_ref(), budget(11));
            wr.timed_s = r.timed_s;
            wr.end_to_end = r.metrics.iter().map(|&(n, s)| (n.to_string(), s)).collect();
            outcomes.push(r.outcome);
        }
        if args.passes != Passes::EndToEnd {
            let r = measure::traced(w.as_ref(), budget(3), &kit_values);
            wr.traced_reps = r.reps;
            wr.per_layer = r.metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect();
            let path = crate_dir().join(format!("out/trace-{name}.jsonl"));
            write_file(&path, &spans::to_json_lines(&r.spans, name))?;
            outcomes.push(r.outcome);
        }
        let first = &outcomes[0];
        (wr.sim_digest, wr.ops) = (first.digest, first.ops);
        (wr.attempted, wr.failed) = (first.attempted, first.failed);
        for o in &outcomes {
            if o.digest != first.digest {
                wr.failures.push(format!(
                    "sim_digest differs between the end-to-end and the traced pass: \
                     {:016x} then {:016x}",
                    first.digest, o.digest
                ));
            }
            wr.failures.extend(o.failures.iter().cloned());
        }
        report.workloads.push(wr);
    }
    Ok(report)
}

fn read_report(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunReport::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn agree_cmd(a: &str, b: &str) -> Result<bool, String> {
    let bench = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let bounds = agree::bounds_of(&json::parse(&text)?)?;
    let (text, ok) = agree::compare(&read_report(a)?, &read_report(b)?, &bounds);
    print!("{text}");
    Ok(ok)
}

/// Run the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|parsed| {
            let report = run(&parsed)?;
            write_file(&parsed.out, &report.to_json().to_pretty())?;
            eprintln!("wrote {}", parsed.out.display());
            print!("{}", report.to_table());
            println!("{}", report.summary_line(parsed.passes == Passes::PerLayer));
            Ok(report.correct())
        }),
        Some((cmd, [a, b])) if cmd == "agree" => agree_cmd(a, b),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}
