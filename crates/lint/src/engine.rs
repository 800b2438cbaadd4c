//! The analysis driver, one pass: lex and parse every file, resolve the
//! workspace call graph, run the checks (D002, D007–D010), then apply
//! the `lint:allow` directives once over the merged findings. A directive
//! that suppressed nothing is itself reported as a stale-allow warning.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::ast::FileAst;
use crate::callgraph::CallGraph;
use crate::checks::{self, Ctx};
use crate::diag::{Code, Diagnostic, Report, StaleAllow};
use crate::lexer::{self, Comment, Tok};
use crate::parser;
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

/// Integration tests and examples (any `tests/` or `examples/` tree)
/// carry no obligations: nothing is checked there.
fn is_test_tree(rel: &str) -> bool {
    let rel = format!("/{rel}");
    rel.contains("/tests/") || rel.contains("/examples/")
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

/// One parsed file.
pub struct Unit {
    /// Workspace-relative path.
    pub rel: String,
    /// Malformed-directive findings (D000).
    pub diags: Vec<Diagnostic>,
    /// Parsed allow directives with usage counts.
    pub allows: Vec<Allow>,
    /// The file's AST (empty fns/enums for test trees).
    pub ast: FileAst,
    /// Whether this file participates in stale-allow reporting (test
    /// trees do not: nothing can fire there, so every allow is vacuous).
    pub track_stale: bool,
}

fn analyze_file(rel: &str, src: &str) -> Unit {
    let lexed = lexer::lex(src);
    let (allows, diags) = parse_allows(rel, &lexed.comments, &lexed.toks);
    let mut ast = parser::parse(rel, &lexed.toks);
    let test_tree = is_test_tree(rel);
    if test_tree {
        ast.fns.clear();
        ast.enums.clear();
    }
    Unit {
        rel: rel.to_string(),
        diags,
        allows,
        ast,
        track_stale: !test_tree,
    }
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
                "unknown or retired rule code (expected D002 or D007-D010)",
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
/// every check, suppression, stale-allow detection.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let (mut units, deps) = load_units(root)?;
    Ok(finish(&mut units, deps))
}

/// Crate dependency closure: crate dir → everything it may call into.
pub type DepClosure = BTreeMap<String, std::collections::BTreeSet<String>>;

/// Parse the whole tree, and load the dependency closure the call graph
/// needs. An empty closure (no manifests under root, e.g. a
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
        let src = std::fs::read_to_string(path)?;
        units.push(analyze_file(&rel, &src));
    }
    Ok((units, symbols::load_dep_closure(root)))
}

/// The checks, suppression and stale detection over parsed units.
fn finish(units: &mut [Unit], deps: DepClosure) -> Report {
    let asts: Vec<FileAst> = units.iter().map(|u| u.ast.clone()).collect();
    let sym = Symbols::build(&asts, deps);
    let graph = CallGraph::build(&asts, &sym);
    let is_allowed = |fi: usize, code: Code, line: u32| -> bool {
        units[fi]
            .allows
            .iter()
            .any(|a| a.code == code && a.covers(line))
    };
    let found = checks::run(&Ctx {
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
    // Merge: per-file directive errors plus this file's slice of the
    // findings, suppressed against the file's allows.
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    let mut all: Vec<(usize, Diagnostic)> = Vec::new();
    for (i, u) in units.iter_mut().enumerate() {
        for d in std::mem::take(&mut u.diags) {
            all.push((i, d));
        }
    }
    for d in found {
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
