//! The experiment suite's one binary: `exp <name>` regenerates one
//! experiment of DESIGN.md's index, `exp all` the whole suite in index
//! order, `exp list` prints the names. An unknown name exits 2.

use std::process::ExitCode;

use demos_bench::experiments::{run_all, EXPERIMENTS};

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("all") => {
            println!("DEMOS/MP process-migration reproduction: full experiment suite");
            println!("(paper: Powell & Miller, 'Process Migration in DEMOS/MP', SOSP 1983)");
            run_all();
        }
        Some("list") => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
        }
        Some(name) => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(),
            None => return usage(&format!("unknown experiment `{name}`")),
        },
        None => return usage("no experiment named"),
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("exp: {problem}");
    eprintln!("usage: exp <name> | all | list, where <name> is one of:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    ExitCode::from(2)
}
