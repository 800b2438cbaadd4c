//! The `demos-lint` binary as CI runs it: the exit code is the gate, the
//! human report is what a developer reads, and `--format sarif --output`
//! writes the file code scanning uploads. What each rule finds over the
//! fixture tree is pinned finding by finding in the root
//! `tests/lint_clean.rs`; this checks the command line around it.

use std::path::PathBuf;
use std::process::{Command, Output};

use demos_lint::Code;

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn demos_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_demos-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn check_fixtures(extra: &[&str]) -> Output {
    let root = fixtures_root();
    let root = root.to_str().expect("fixture path is UTF-8");
    demos_lint(&[&["check", "--root", root], extra].concat())
}

/// Findings exit 1, and the report names each with its code and span,
/// counts the justified allows and calls out the stale one.
#[test]
fn findings_exit_one_with_a_human_report() {
    let out = check_fixtures(&[]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    for want in [
        "error[D002]",
        "--> crates/kernel/src/d002_pos.rs:4:",
        "warning[stale-allow]: lint:allow(D002)",
        "--> crates/kernel/src/allow_stale.rs:5",
        "13 finding(s), 1 stale allow(s), 4 suppressed by lint:allow",
    ] {
        assert!(text.contains(want), "missing `{want}` in:\n{text}");
    }
    assert!(
        !text.contains("_neg.rs"),
        "negative fixture flagged:\n{text}"
    );
}

/// `--format sarif --output P` writes a SARIF 2.1.0 log to P, with rule
/// metadata and one result per finding, and still exits 1.
#[test]
fn sarif_output_file_has_rules_and_results() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("demos-lint.sarif");
    let _ = std::fs::remove_file(&path);
    let out = check_fixtures(&["--format", "sarif", "--output", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "the report went to the file");
    let text = std::fs::read_to_string(&path).expect("report written");
    assert!(text.contains("\"version\":\"2.1.0\""), "{text}");
    assert!(text.contains("\"name\":\"demos-lint\""), "{text}");
    for code in Code::RULES {
        assert!(
            text.contains(&format!("{{\"id\":\"{code}\"")),
            "missing {code} rule in SARIF:\n{text}"
        );
        assert!(
            text.contains(&format!("\"ruleId\":\"{code}\"")),
            "missing {code} result in SARIF:\n{text}"
        );
    }
    assert!(
        text.contains("\"uri\":\"crates/net/src/d009_pos.rs\""),
        "SARIF result must carry the file URI:\n{text}"
    );
}

/// With no `--root` the workspace is checked, and it is clean: exit 0.
#[test]
fn clean_workspace_exits_zero() {
    let out = demos_lint(&["check"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains(" 0 finding(s), 0 stale allow(s), "), "{text}");
}

/// A missing subcommand, an unknown format and a retired flag are usage
/// errors: exit 2, nothing checked.
#[test]
fn usage_errors_exit_two() {
    for args in [&[][..], &["check", "--format", "json"], &["check", "--fix"]] {
        let out = demos_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
