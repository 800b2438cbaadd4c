//! CLI: `demos-lint check [--format human|sarif] [--output PATH]
//! [--root PATH]`.

use std::path::PathBuf;
use std::process::ExitCode;

use demos_lint::{check_workspace, Report};

fn usage() -> ExitCode {
    eprintln!(
        "usage: demos-lint check [--format F] [--output PATH] [--root PATH]\n\
         \n\
         Checks the determinism and protocol rules no clippy lint level\n\
         expresses (D002, D007-D010) over every .rs file under the\n\
         workspace root and its call graph. See DESIGN.md §8 and §12.\n\
         \n\
         options:\n\
         \x20 --format F   human (default) or sarif (for code scanning)\n\
         \x20 --output P   write the report to P instead of stdout\n\
         \x20 --root P     workspace root (default: inferred from the manifest)\n\
         \n\
         exit codes: 0 clean (no findings, no stale allows), 1 findings,\n\
         2 usage/io error"
    );
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // When run via `cargo run -p demos-lint`, the manifest dir is
    // crates/lint; the workspace root is two levels up. Fall back to the
    // current directory for a standalone binary.
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(md);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn emit(report: &Report, sarif: bool, output: Option<&PathBuf>) -> std::io::Result<()> {
    let text = if sarif {
        format!("{}\n", report.to_sarif())
    } else {
        report.render()
    };
    match output {
        Some(path) => std::fs::write(path, text),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut sarif = false;
    let mut output: Option<PathBuf> = None;
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" if !check => check = true,
            "--format" => match it.next().map(String::as_str) {
                Some("human") => sarif = false,
                Some("sarif") => sarif = true,
                _ => return usage(),
            },
            "--output" => match it.next() {
                Some(p) => output = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if !check {
        return usage();
    }
    match check_workspace(&root) {
        Ok(report) => {
            if let Err(e) = emit(&report, sarif, output.as_ref()) {
                eprintln!("demos-lint: cannot write report: {e}");
                return ExitCode::from(2);
            }
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("demos-lint: io error under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
