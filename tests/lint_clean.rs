//! The workspace passes both static checks CI gates, run where tier-1
//! sees them:
//!
//! * clippy with `-D warnings`, which carries the per-site rules (D001,
//!   D003–D006) as lint levels — root `clippy.toml` and the `lib.rs` of
//!   each crate a rule guards;
//! * `demos-lint check`: no finding (D002, D007–D010) and no `lint:allow`
//!   that suppresses nothing — which also notices an allow left pointing
//!   at code that no longer exists.
//!
//! The fixture tree under `crates/lint/fixtures` holds one positive and
//! one negative input per demos-lint rule, plus the `lint:allow` grammar
//! cases; its report is pinned here finding by finding. The binary around
//! it (exit codes, the human report, SARIF to a file) is tested in
//! `crates/lint/tests/cli.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

use demos_lint::check_workspace;
use demos_lint::checks::WIRE_ENUMS;
use demos_lint::engine::load_units;
use demos_lint::symbols::Symbols;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixtures_root() -> PathBuf {
    root().join("crates/lint/fixtures")
}

#[test]
fn workspace_is_clean() {
    let report = check_workspace(root()).expect("workspace is readable");
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report.render()
    );
    assert!(report.checked_files > 50, "walk found the workspace");
}

/// Clippy runs in a target directory of its own, so it never waits on
/// (or invalidates) the build that runs this test.
#[test]
fn clippy_is_clean() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--", "-D", "warnings"])
        .current_dir(root())
        .env("CARGO_TARGET_DIR", root().join("target/clippy"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "clippy reports findings:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The golden report over the fixture tree: every positive fixture once
/// (with its code and line), no negative fixture, each malformed
/// directive a D000, the justified allows suppressed, the stale one
/// called out.
#[test]
fn fixture_tree_golden_findings() {
    let report = check_workspace(&fixtures_root()).expect("fixture tree is readable");
    let got: Vec<(String, &str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.code.to_string(), d.file.as_str(), d.line))
        .collect();
    let want: Vec<(String, &str, u32)> = [
        ("D010", "crates/chaos/src/d010_pos.rs", 23), // lock-order inversion vs :16
        ("D010", "crates/chaos/src/d010_pos.rs", 30), // send while holding `slots`
        ("D010", "crates/chaos/src/d010_pos.rs", 35), // re-lock of `slots`
        ("D002", "crates/kernel/src/allow_block.rs", 16), // past the line pair
        ("D000", "crates/kernel/src/allow_malformed.rs", 5), // no reason
        ("D000", "crates/kernel/src/allow_malformed.rs", 8), // retired code
        ("D000", "crates/kernel/src/allow_malformed.rs", 11), // unknown code
        ("D002", "crates/kernel/src/d002_pos.rs", 4),
        ("D009", "crates/net/src/d009_pos.rs", 11), // Frame::Data without epoch
        ("D008", "crates/sim/src/d008_pos.rs", 10), // taint via tainted::clocked_sum
        ("D002", "crates/tools/src/tainted.rs", 7), // the taint's source
        ("D007", "crates/types/src/d007_wire.rs", 7), // Orphan never constructed
        ("D007", "crates/types/src/d007_wire.rs", 7), // Orphan never matched
    ]
    .into_iter()
    .map(|(c, f, l)| (c.to_string(), f, l))
    .collect();
    assert_eq!(got, want, "full report:\n{}", report.render());
    assert_eq!(
        report.suppressed,
        4,
        "allow_ok, allow_block's block and line pair, d009_allowed:\n{}",
        report.render()
    );
    let stale: Vec<(&str, u32)> = report
        .stale_allows
        .iter()
        .map(|s| (s.file.as_str(), s.line))
        .collect();
    assert_eq!(stale, [("crates/kernel/src/allow_stale.rs", 5)]);
}

/// D007 looks each watched enum up in the parsed workspace and skips a
/// name it cannot find, so a definition the parser cannot see (one moved
/// inside a macro invocation, say) would pass `workspace_is_clean`
/// unjudged. Every watched name must resolve to its definition in
/// `crates/types`.
#[test]
fn every_enum_d007_watches_resolves_to_its_definition() {
    let (units, deps) = load_units(root()).expect("workspace is readable");
    let asts: Vec<_> = units.into_iter().map(|u| u.ast).collect();
    let sym = Symbols::build(&asts, deps);
    for name in WIRE_ENUMS {
        let &(fi, ei) = sym
            .enums
            .get(name)
            .unwrap_or_else(|| panic!("D007 is blind to `{name}`: no definition parsed"));
        assert_eq!(asts[fi].krate, "crates/types", "`{name}` is defined there");
        assert!(
            !asts[fi].enums[ei].variants.is_empty(),
            "`{name}` parsed without variants"
        );
    }
}
