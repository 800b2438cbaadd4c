//! The analysis driver. Two phases:
//!
//! 1. **per-file** — lex, mask test regions, parse `lint:allow`
//!    directives, run the lexical rules (D001–D005) and build the file's
//!    AST;
//! 2. **workspace** — resolve symbols + call graph across every file and
//!    run the semantic rules (D006–D010).
//!
//! Suppression happens once, at the end, over the merged finding set, so
//! one `lint:allow` grammar covers both phases — and any directive that
//! suppressed nothing is itself reported as a stale-allow warning.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::ast::FileAst;
use crate::callgraph::CallGraph;
use crate::diag::{Code, Diagnostic, Report, StaleAllow};
use crate::lexer::{self, Comment, Tok, TokKind};
use crate::parser;
use crate::rules::{self, Scope};
use crate::rules_sem::{self, SemCtx};
use crate::symbols::{self, Symbols};

/// Directory names never descended into. `shims/` holds stand-ins for
/// external crates, which keep those crates' APIs rather than this
/// workspace's rules; `fixtures/` holds this linter's own
/// deliberately-violating test inputs.
const SKIP_DIRS: [&str; 7] = [
    "target",
    ".git",
    "shims",
    "fixtures",
    "corpus",
    "node_modules",
    ".claude",
];

/// Path prefixes (workspace-relative, `/`-separated) that are test or
/// example code: no rules apply there.
const TEST_TREES: [&str; 2] = ["tests/", "examples/"];

/// Crates whose state is visible to the simulation — D001's scope.
const SIM_VISIBLE: [&str; 8] = [
    "crates/types/",
    "crates/net/",
    "crates/kernel/",
    "crates/core/",
    "crates/sim/",
    "crates/chaos/",
    "crates/rt/",
    "crates/policy/",
];

/// Crates whose message-handling paths must not abort — D004's scope.
const NO_PANIC: [&str; 3] = ["crates/kernel/", "crates/net/", "crates/core/"];

/// Decide the lexical rule scope for one workspace-relative path.
pub fn scope_for(rel: &str) -> Scope {
    // Integration tests and examples: out of scope entirely.
    if TEST_TREES.iter().any(|t| rel.starts_with(t))
        || rel.contains("/tests/")
        || rel.contains("/examples/")
    {
        return Scope::none();
    }
    let mut s = Scope {
        d001: SIM_VISIBLE.iter().any(|c| rel.starts_with(c)),
        // No crate is exempt: the wall-clock reads that remain (`rt`'s
        // epoch, the chaos CLI's execs/s, `benchmark/`'s clock) each
        // carry a `lint:allow`.
        d002: true,
        // Bench is exempt from D003: it *queries* traces
        // (filter-for-one-event matches), it does not handle protocol, so
        // catch-alls there are idiomatic.
        d003: !rel.starts_with("crates/bench/"),
        d004: NO_PANIC.iter().any(|c| rel.starts_with(c)),
        d005: rel.starts_with("crates/types/"),
    };
    // The linter does not lint itself for D003 (its rule tables quote the
    // watched enum names as plain identifiers in const arrays, and its own
    // match statements are over lexer tokens, not protocol state).
    if rel.starts_with("crates/lint/") {
        s = Scope {
            d001: false,
            d003: false,
            d004: false,
            d005: false,
            ..s
        };
    }
    s
}

/// A parsed `lint:allow(Dxxx reason…)` directive with its coverage
/// interval and a usage count (zero at the end = stale).
pub struct Allow {
    /// The code this directive suppresses.
    pub code: Code,
    /// Line of the directive comment (start of coverage).
    pub line: u32,
    /// Last covered line: `line + 1`, extended through the matching `}`
    /// when a block opens on a covered line (block-scoped allows).
    pub end: u32,
    /// How many findings this directive suppressed.
    pub used: usize,
}

impl Allow {
    fn covers(&self, line: u32) -> bool {
        line >= self.line && line <= self.end
    }
}

/// Everything phase 1 learns about one file.
pub struct Unit {
    /// Workspace-relative path.
    pub rel: String,
    /// Lexical findings (D000–D005), pre-suppression.
    pub diags: Vec<Diagnostic>,
    /// Parsed allow directives with usage counts.
    pub allows: Vec<Allow>,
    /// The file's AST (empty fns/enums for out-of-scope trees).
    pub ast: FileAst,
    /// Whether this file participates in stale-allow reporting (test
    /// trees do not: nothing can fire there, so every allow is vacuous).
    pub track_stale: bool,
}

/// Phase 1 for one file.
pub fn analyze_file(rel: &str, src: &str, scope: Scope) -> Unit {
    let lexed = lexer::lex(src);
    let mask = test_mask(&lexed.toks);
    let (allows, mut diags) = parse_allows(rel, &lexed.comments, &lexed.toks);
    diags.extend(rules::run(&lexed.toks, &mask, scope, rel));
    let mut ast = parser::parse(rel, &lexed.toks, &mask);
    let out_of_scope = scope == Scope::none();
    if out_of_scope {
        // Test/example trees carry no semantic obligations either.
        ast.fns.clear();
        ast.enums.clear();
    }
    Unit {
        rel: rel.to_string(),
        diags,
        allows,
        ast,
        track_stale: !out_of_scope,
    }
}

/// Analyze one file's source text under `scope`, reporting as `rel`:
/// lexical rules only, suppressions applied. This is the unit the
/// fixture tests drive directly.
pub fn analyze_source(rel: &str, src: &str, scope: Scope) -> (Vec<Diagnostic>, usize) {
    let mut unit = analyze_file(rel, src, scope);
    let mut diags = Vec::new();
    let mut suppressed = 0usize;
    for d in std::mem::take(&mut unit.diags) {
        if suppress(&mut unit.allows, &d) {
            suppressed += 1;
        } else {
            diags.push(d);
        }
    }
    diags.sort_by_key(|d| (d.line, d.col, d.code));
    (diags, suppressed)
}

/// Try to suppress `d` against `allows`; returns true (and bumps the
/// directive's usage count) on a match. D000 is never suppressible: a
/// malformed directive must be fixed, not allowed.
fn suppress(allows: &mut [Allow], d: &Diagnostic) -> bool {
    if d.code == Code::D000 {
        return false;
    }
    for a in allows.iter_mut() {
        if a.code == d.code && a.covers(d.line) {
            a.used += 1;
            return true;
        }
    }
    false
}

/// Parse the `lint:allow` directives out of the comment side-channel.
/// Malformed directives come back as D000 diagnostics. Every directive
/// requires a justification. Coverage is the directive's own line and the
/// next; if a `{` opens on a covered line, coverage extends through the
/// matching `}` (so one justified allow can cover a whole match or fn
/// body without repetition).
fn parse_allows(rel: &str, comments: &[Comment], toks: &[Tok]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // A directive is a whole-comment marker: the comment must *start*
        // with `lint:allow` (prose that merely mentions the syntax — docs,
        // this very file — is ignored).
        let text = c.text.trim_start();
        let Some(rest) = text.strip_prefix("lint:allow") else {
            continue;
        };
        let Some(rest) = rest.trim_start().strip_prefix('(') else {
            diags.push(malformed(rel, c.line, "missing `(Dxxx reason)`"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(malformed(rel, c.line, "unclosed `(`"));
            continue;
        };
        let body = &rest[..close];
        let mut words = body.splitn(2, char::is_whitespace);
        let code = words.next().unwrap_or("");
        let reason = words.next().unwrap_or("").trim();
        match Code::parse(code) {
            Some(Code::D000) | None => diags.push(malformed(
                rel,
                c.line,
                "unknown rule code (expected D001-D010)",
            )),
            Some(code) if !reason.is_empty() => allows.push(Allow {
                code,
                line: c.line,
                end: block_end(toks, c.line).max(c.line + 1),
                used: 0,
            }),
            Some(_) => diags.push(malformed(
                rel,
                c.line,
                "a reason is required: `lint:allow(Dxxx why this is sound)`",
            )),
        }
    }
    (allows, diags)
}

/// If a `{` opens on `line` or `line + 1`, return the line of its
/// matching `}`; otherwise 0. Gives allow directives block scope.
fn block_end(toks: &[Tok], line: u32) -> u32 {
    let open = toks
        .iter()
        .position(|t| t.text == "{" && (t.line == line || t.line == line + 1));
    let Some(open) = open else {
        return 0;
    };
    let mut depth = 0i32;
    for t in &toks[open..] {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return t.line;
                }
            }
            _ => {}
        }
    }
    toks.last().map(|t| t.line).unwrap_or(line)
}

fn malformed(rel: &str, line: u32, why: &str) -> Diagnostic {
    Diagnostic {
        code: Code::D000,
        file: rel.to_string(),
        line,
        col: 1,
        message: format!("malformed lint:allow directive: {why}"),
    }
}

/// Mark tokens inside `#[cfg(test)]`-gated items and `#[test]` functions.
///
/// Heuristic but robust for this codebase's idioms: after an attribute
/// whose bracket group mentions `test`, the next brace-balanced block
/// (with no intervening `;`, which would indicate a braceless item) is
/// masked.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            // Scan the attribute group for the ident `test`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" if toks[j].kind == TokKind::Ident => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test {
                // Find the opening `{` of the annotated item, giving up at
                // a `;` (attribute on a braceless item like `use`).
                let mut k = j;
                let mut pdepth = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" => pdepth += 1,
                        ")" | "]" => pdepth -= 1,
                        ";" if pdepth == 0 => break,
                        "{" if pdepth == 0 => {
                            // Mask from the attribute through the matched
                            // closing brace.
                            let mut depth = 0i32;
                            let mut m = k;
                            while m < toks.len() {
                                match toks[m].text.as_str() {
                                    "{" => depth += 1,
                                    "}" => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                m += 1;
                            }
                            for slot in mask.iter_mut().take(m.min(toks.len() - 1) + 1).skip(i) {
                                *slot = true;
                            }
                            i = m;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Recursively collect `.rs` files under `dir`, skipping [`SKIP_DIRS`].
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Check the whole tree rooted at `root` (the workspace directory):
/// both phases, suppression, stale-allow detection.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let (mut units, deps) = load_units(root)?;
    Ok(finish(&mut units, deps))
}

/// `check` with `--fix`: apply the mechanical fixes (remove stale
/// `lint:allow` directives; swap flagged `HashMap`/`HashSet` idents for
/// their ordered B-tree counterparts), then re-analyze. Returns the
/// post-fix report and the number of edits applied.
pub fn fix_workspace(root: &Path) -> std::io::Result<(Report, usize)> {
    let (mut units, deps) = load_units(root)?;
    let report = finish(&mut units, deps);
    let mut edits: BTreeMap<String, Vec<FixEdit>> = BTreeMap::new();
    for s in &report.stale_allows {
        edits
            .entry(s.file.clone())
            .or_default()
            .push(FixEdit::RemoveAllow { line: s.line });
    }
    for d in &report.diagnostics {
        if d.code == Code::D001 {
            edits
                .entry(d.file.clone())
                .or_default()
                .push(FixEdit::HashToBTree { line: d.line });
        }
    }
    let mut applied = 0usize;
    for (rel, file_edits) in &edits {
        applied += apply_fixes(&root.join(rel), file_edits)?;
    }
    let (mut units, deps) = load_units(root)?;
    Ok((finish(&mut units, deps), applied))
}

enum FixEdit {
    /// Strip a stale `lint:allow` comment from this line (drop the whole
    /// line if nothing but the comment is on it).
    RemoveAllow { line: u32 },
    /// Replace `HashMap`/`HashSet` with `BTreeMap`/`BTreeSet` on this
    /// line (the D001 mechanical fix — same std module, ordered).
    HashToBTree { line: u32 },
}

fn apply_fixes(path: &Path, edits: &[FixEdit]) -> std::io::Result<usize> {
    let src = std::fs::read_to_string(path)?;
    let mut lines: Vec<Option<String>> = src.lines().map(|l| Some(l.to_string())).collect();
    let mut applied = 0usize;
    for e in edits {
        match *e {
            FixEdit::RemoveAllow { line } => {
                let Some(slot) = lines.get_mut(line as usize - 1) else {
                    continue;
                };
                let Some(text) = slot.as_ref() else { continue };
                if let Some(i) = text.find("// lint:allow") {
                    let kept = text[..i].trim_end();
                    *slot = if kept.is_empty() {
                        None
                    } else {
                        Some(kept.to_string())
                    };
                    applied += 1;
                }
            }
            FixEdit::HashToBTree { line } => {
                let Some(slot) = lines.get_mut(line as usize - 1) else {
                    continue;
                };
                let Some(text) = slot.as_ref() else { continue };
                let fixed = text
                    .replace("HashMap", "BTreeMap")
                    .replace("HashSet", "BTreeSet");
                if fixed != *text {
                    *slot = Some(fixed);
                    applied += 1;
                }
            }
        }
    }
    let mut out: String = lines.into_iter().flatten().collect::<Vec<_>>().join("\n");
    if src.ends_with('\n') {
        out.push('\n');
    }
    std::fs::write(path, out)?;
    Ok(applied)
}

/// Crate dependency closure: crate dir → everything it may call into.
pub type DepClosure = BTreeMap<String, std::collections::BTreeSet<String>>;

/// Phase 1 over the whole tree, plus the dependency closure the call
/// graph needs. An empty closure (no manifests under root, e.g. a
/// fixture tree) makes the resolver permissive.
pub fn load_units(root: &Path) -> std::io::Result<(Vec<Unit>, DepClosure)> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    let mut units = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let scope = scope_for(&rel);
        let src = std::fs::read_to_string(path)?;
        units.push(analyze_file(&rel, &src, scope));
    }
    Ok((units, symbols::load_dep_closure(root)))
}

/// Phase 2 + suppression + stale detection over phase-1 units.
fn finish(units: &mut [Unit], deps: DepClosure) -> Report {
    let asts: Vec<FileAst> = units.iter().map(|u| u.ast.clone()).collect();
    let sym = Symbols::build(&asts, deps);
    let graph = CallGraph::build(&asts, &sym);
    let allows_ro: Vec<Vec<(Code, u32, u32)>> = units
        .iter()
        .map(|u| u.allows.iter().map(|a| (a.code, a.line, a.end)).collect())
        .collect();
    let is_allowed = |fi: usize, code: Code, line: u32| -> bool {
        allows_ro[fi]
            .iter()
            .any(|&(c, start, end)| c == code && line >= start && line <= end)
    };
    let sem = rules_sem::run(&SemCtx {
        files: &asts,
        sym: &sym,
        graph: &graph,
        is_allowed: &is_allowed,
    });

    let mut report = Report {
        checked_files: units.len(),
        ..Report::default()
    };
    let idx: BTreeMap<String, usize> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.rel.clone(), i))
        .collect();
    // Merge: per-file lexical diags plus this file's slice of the
    // semantic findings, suppressed against the file's allows.
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    let mut all: Vec<(usize, Diagnostic)> = Vec::new();
    for (i, u) in units.iter_mut().enumerate() {
        for d in std::mem::take(&mut u.diags) {
            all.push((i, d));
        }
    }
    for d in sem {
        if let Some(&i) = idx.get(d.file.as_str()) {
            all.push((i, d));
        }
    }
    for (i, d) in all {
        if suppress(&mut units[i].allows, &d) {
            report.suppressed += 1;
        } else {
            by_file.entry(d.file.clone()).or_default().push(d);
        }
    }
    for (_, mut diags) in by_file {
        diags.sort_by_key(|d| (d.line, d.col, d.code));
        report.diagnostics.extend(diags);
    }
    for u in units.iter() {
        if !u.track_stale {
            continue;
        }
        for a in &u.allows {
            if a.used == 0 {
                report.stale_allows.push(StaleAllow {
                    file: u.rel.clone(),
                    line: a.line,
                    code: a.code,
                });
            }
        }
    }
    report
        .stale_allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}
