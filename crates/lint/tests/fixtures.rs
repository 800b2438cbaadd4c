//! Fixture-driven tests: one positive and one negative input per rule,
//! laid out as a miniature workspace under `fixtures/` so the path-based
//! scoping of [`demos_lint::scope_for`] is exercised exactly as in a real
//! run. The CLI test drives the compiled `demos-lint` binary end to end.

use std::path::{Path, PathBuf};

use demos_lint::engine::load_units;
use demos_lint::rules_sem::WIRE_ENUMS;
use demos_lint::symbols::Symbols;
use demos_lint::{analyze_source, check_workspace, fix_workspace, scope_for, Code, Diagnostic};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Analyze one fixture with the scope its path would get in a real
/// workspace walk.
fn run_fixture(rel: &str) -> (Vec<Diagnostic>, usize) {
    let src = std::fs::read_to_string(fixtures_root().join(rel)).expect("fixture exists");
    analyze_source(rel, &src, scope_for(rel))
}

fn sole_code(rel: &str) -> Diagnostic {
    let (diags, _) = run_fixture(rel);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one finding in {rel}: {diags:?}"
    );
    diags.into_iter().next().expect("checked len")
}

fn assert_clean(rel: &str) {
    let (diags, _) = run_fixture(rel);
    assert!(diags.is_empty(), "expected no findings in {rel}: {diags:?}");
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_flags_hash_collections_in_sim_visible_code() {
    let d = sole_code("crates/kernel/src/d001_pos.rs");
    assert_eq!(d.code, Code::D001);
    assert_eq!(d.line, 6, "span should point at the HashMap field: {d:?}");
}

#[test]
fn d001_accepts_ordered_collections() {
    assert_clean("crates/kernel/src/d001_neg.rs");
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_flags_wall_clock_reads() {
    let d = sole_code("crates/kernel/src/d002_pos.rs");
    assert_eq!(d.code, Code::D002);
    assert_eq!(d.line, 4, "span should point at Instant::now(): {d:?}");
}

#[test]
fn d002_accepts_virtual_time_and_entropy_in_comments() {
    assert_clean("crates/kernel/src/d002_neg.rs");
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_flags_catch_all_over_protocol_enum() {
    let d = sole_code("crates/kernel/src/d003_pos.rs");
    assert_eq!(d.code, Code::D003);
    assert_eq!(d.line, 7, "span should point at the `_ =>` arm: {d:?}");
}

#[test]
fn d003_accepts_exhaustive_matches_and_unwatched_enums() {
    assert_clean("crates/kernel/src/d003_neg.rs");
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_flags_panicking_paths_in_handlers() {
    let d = sole_code("crates/kernel/src/d004_pos.rs");
    assert_eq!(d.code, Code::D004);
    assert_eq!(d.line, 5, "span should point at .expect(): {d:?}");
}

#[test]
fn d004_accepts_graceful_degradation_and_test_only_unwraps() {
    assert_clean("crates/kernel/src/d004_neg.rs");
}

// ---------------------------------------------------------------- D005

#[test]
fn d005_flags_truncating_casts_in_codecs() {
    let d = sole_code("crates/types/src/d005_pos.rs");
    assert_eq!(d.code, Code::D005);
    assert_eq!(d.line, 5, "span should point at `as u16`: {d:?}");
}

#[test]
fn d005_accepts_checked_conversions() {
    assert_clean("crates/types/src/d005_neg.rs");
}

// ---------------------------------------------------- lint:allow escape

#[test]
fn allow_directive_suppresses_and_is_counted() {
    let (diags, suppressed) = run_fixture("crates/kernel/src/allow_ok.rs");
    assert!(
        diags.is_empty(),
        "allow should suppress the finding: {diags:?}"
    );
    assert_eq!(suppressed, 1);
}

#[test]
fn allow_without_reason_is_rejected_as_d000() {
    let src = "// lint:allow(D002)\nfn f() {}\n";
    let (diags, suppressed) = analyze_source(
        "crates/kernel/src/x.rs",
        src,
        scope_for("crates/kernel/src/x.rs"),
    );
    assert_eq!(suppressed, 0);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::D000);
}

#[test]
fn allow_with_unknown_code_is_rejected_as_d000() {
    let src = "// lint:allow(D099 because)\nfn f() {}\n";
    let (diags, _) = analyze_source(
        "crates/kernel/src/x.rs",
        src,
        scope_for("crates/kernel/src/x.rs"),
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::D000);
}

// ----------------------------------------------------------- end to end

/// D007 looks each watched enum up in the parsed workspace and skips a
/// name it cannot find, so a definition the parser cannot see (one moved
/// inside a macro invocation, say) would pass the workspace check
/// (root `tests/lint_clean.rs`) unjudged.
/// Every watched name must resolve to its definition in `crates/types`.
#[test]
fn every_enum_d007_watches_resolves_to_its_definition() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (units, deps) = load_units(&root).expect("workspace is readable");
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

/// Driving the binary over the fixture tree: nonzero exit, and every
/// positive fixture is reported with its rule code and file:line span.
#[test]
fn cli_reports_each_positive_fixture_with_code_and_span() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_demos-lint"))
        .args(["check", "--root"])
        .arg(fixtures_root())
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "fixture tree must fail the lint: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for (code, span) in [
        ("D001", "crates/kernel/src/d001_pos.rs:6"),
        ("D002", "crates/kernel/src/d002_pos.rs:4"),
        ("D003", "crates/kernel/src/d003_pos.rs:7"),
        ("D004", "crates/kernel/src/d004_pos.rs:5"),
        ("D005", "crates/types/src/d005_pos.rs:5"),
    ] {
        assert!(
            text.contains(&format!("error[{code}]")),
            "missing {code} in CLI output:\n{text}"
        );
        assert!(
            text.contains(span),
            "missing span {span} in CLI output:\n{text}"
        );
    }
    // Negative fixtures must not be reported.
    assert!(
        !text.contains("_neg.rs"),
        "negative fixture flagged:\n{text}"
    );
    // The justified allows (allow_ok.rs D002, d009_allowed.rs D009) are
    // counted as suppressed, and the stale one is called out.
    assert!(
        text.contains("2 suppressed"),
        "missing suppression count:\n{text}"
    );
    assert!(
        text.contains("crates/kernel/src/allow_stale.rs:5"),
        "missing stale-allow warning:\n{text}"
    );
}

// ------------------------------------------- semantic rules (D006–D010)

/// The golden snapshot: the two-phase analyzer over the whole fixture
/// workspace must produce exactly this finding set — every positive
/// fixture once (with its code and line), no negative fixture, the two
/// justified allows suppressed, and the stale allow called out.
#[test]
fn fixture_workspace_golden_findings() {
    let report = check_workspace(&fixtures_root()).expect("fixture tree is readable");
    let got: Vec<(String, String, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (format!("{:?}", d.code), d.file.clone(), d.line))
        .collect();
    let want: Vec<(String, String, u32)> = [
        ("D010", "crates/chaos/src/d010_pos.rs", 23), // lock-order inversion vs :16
        ("D010", "crates/chaos/src/d010_pos.rs", 30), // send while holding `slots`
        ("D010", "crates/chaos/src/d010_pos.rs", 35), // re-lock of `slots`
        ("D001", "crates/kernel/src/d001_pos.rs", 6),
        ("D002", "crates/kernel/src/d002_pos.rs", 4),
        ("D003", "crates/kernel/src/d003_pos.rs", 7),
        ("D004", "crates/kernel/src/d004_pos.rs", 5),
        ("D009", "crates/net/src/d009_pos.rs", 11), // Frame::Data without epoch
        ("D006", "crates/policy/src/helper.rs", 7), // unwrap reachable from on_control
        ("D008", "crates/sim/src/d008_pos.rs", 10), // taint via tainted::order_sensitive_sum
        ("D005", "crates/types/src/d005_pos.rs", 5),
        ("D007", "crates/types/src/d007_wire.rs", 7), // Orphan never constructed
        ("D007", "crates/types/src/d007_wire.rs", 7), // Orphan never matched
    ]
    .into_iter()
    .map(|(c, f, l)| (c.to_string(), f.to_string(), l))
    .collect();
    assert_eq!(got, want, "full report:\n{}", report.render());
    assert_eq!(report.suppressed, 2, "allow_ok D002 + d009_allowed D009");
    let stale: Vec<(String, u32)> = report
        .stale_allows
        .iter()
        .map(|s| (s.file.clone(), s.line))
        .collect();
    assert_eq!(stale, [("crates/kernel/src/allow_stale.rs".to_string(), 5)]);
}

/// D006's message carries the cross-crate evidence: the handler root and
/// the call path that reaches the panic site.
#[test]
fn d006_message_names_the_handler_and_call_path() {
    let report = check_workspace(&fixtures_root()).expect("fixture tree is readable");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::D006)
        .expect("D006 present");
    assert!(d.message.contains("Router::on_control"), "{}", d.message);
    assert!(d.message.contains("decode_strict"), "{}", d.message);
}

/// D007 judges each variant separately: the wired variant (`Resident`,
/// constructed in `default_sel` and matched in `cost`) is never reported.
#[test]
fn d007_wired_variant_is_not_reported() {
    let report = check_workspace(&fixtures_root()).expect("fixture tree is readable");
    assert!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::D007)
            .all(|d| d.message.contains("Orphan")),
        "only the unwired variant may be reported:\n{}",
        report.render()
    );
}

// ------------------------------------------------ lint:allow v2 scoping

/// An allow on the line that opens a block covers the whole block.
#[test]
fn allow_extends_over_the_block_it_opens() {
    let src = "pub fn stage() {\n\
               \x20   // lint:allow(D001 the staging map is drained in sorted order)\n\
               \x20   {\n\
               \x20       let mut m = std::collections::HashMap::new();\n\
               \x20       m.insert(1u32, 2u32);\n\
               \x20   }\n\
               }\n";
    let (diags, suppressed) = analyze_source(
        "crates/kernel/src/x.rs",
        src,
        scope_for("crates/kernel/src/x.rs"),
    );
    assert!(diags.is_empty(), "block-scoped allow must cover: {diags:?}");
    assert_eq!(suppressed, 1);
}

/// Without a block, coverage stops after the next line: a finding two
/// lines down is NOT suppressed.
#[test]
fn allow_does_not_leak_past_its_line_pair() {
    let src = "// lint:allow(D001 covers only the next line)\n\
               pub fn a() {}\n\
               pub fn b(m: std::collections::HashMap<u32, u32>) -> usize { m.len() }\n";
    let (diags, suppressed) = analyze_source(
        "crates/kernel/src/x.rs",
        src,
        scope_for("crates/kernel/src/x.rs"),
    );
    assert_eq!(suppressed, 0);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::D001);
    assert_eq!(diags[0].line, 3);
}

/// Semantic codes take allows too, but a bare one is still malformed.
#[test]
fn allow_on_semantic_code_still_requires_justification() {
    let src = "// lint:allow(D009)\nfn f() {}\n";
    let (diags, _) = analyze_source("crates/net/src/x.rs", src, scope_for("crates/net/src/x.rs"));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::D000);
}

// ------------------------------------------------------------- --fix

/// `fix_workspace` removes stale allows and rewrites flagged hash
/// collections to their ordered counterparts, leaving the tree clean.
#[test]
fn fix_workspace_applies_mechanical_edits() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fixws");
    let src_dir = root.join("crates/kernel/src");
    std::fs::create_dir_all(&src_dir).expect("tmp tree");
    std::fs::write(
        src_dir.join("table.rs"),
        "pub struct T {\n    pub map: std::collections::HashMap<u32, u32>,\n}\n",
    )
    .expect("write");
    std::fs::write(
        src_dir.join("stale.rs"),
        "pub fn f(x: u64) -> u64 {\n    // lint:allow(D002 stale: wall-clock read removed)\n    x + 1\n}\n",
    )
    .expect("write");
    let (report, applied) = fix_workspace(&root).expect("fix runs");
    assert_eq!(applied, 2, "one HashMap rewrite + one stale-allow removal");
    assert!(report.clean(), "post-fix report:\n{}", report.render());
    let table = std::fs::read_to_string(src_dir.join("table.rs")).expect("read back");
    assert!(
        table.contains("BTreeMap") && !table.contains("HashMap"),
        "{table}"
    );
    let stale = std::fs::read_to_string(src_dir.join("stale.rs")).expect("read back");
    assert!(!stale.contains("lint:allow"), "{stale}");
}

// --------------------------------------------------------------- SARIF

/// SARIF mode emits a 2.1.0 log with rule metadata and one result per
/// finding, consumable by code-scanning uploads.
#[test]
fn cli_sarif_mode_has_rules_and_results() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_demos-lint"))
        .args(["check", "--format", "sarif", "--root"])
        .arg(fixtures_root())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"version\":\"2.1.0\""), "{text}");
    assert!(text.contains("\"name\":\"demos-lint\""), "{text}");
    for code in ["D001", "D005", "D006", "D007", "D008", "D009", "D010"] {
        assert!(
            text.contains(&format!("\"ruleId\":\"{code}\"")),
            "missing {code} result in SARIF:\n{text}"
        );
    }
    assert!(
        text.contains("crates/net/src/d009_pos.rs"),
        "SARIF result must carry the file URI:\n{text}"
    );
}

/// JSON mode emits one machine-readable object per finding.
#[test]
fn cli_json_mode_is_parseable_shape() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_demos-lint"))
        .args(["check", "--json", "--root"])
        .arg(fixtures_root())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"code\":\"D001\""), "JSON output:\n{text}");
    assert!(
        text.contains("\"file\":\"crates/types/src/d005_pos.rs\""),
        "JSON output:\n{text}"
    );
    assert!(text.contains("\"line\":5"), "JSON output:\n{text}");
}
