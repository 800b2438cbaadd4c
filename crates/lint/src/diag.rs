//! Diagnostics: stable codes, spans, human and SARIF renderings, and
//! stale-`lint:allow` warnings.

use std::fmt;

/// The stable rule codes. The numeric part never changes meaning; retired
/// rules leave holes rather than being reused. D001 and D003–D006 are
/// clippy lint levels now (DESIGN.md §8), so they do not parse: a
/// `lint:allow` naming one is a malformed directive (D000).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Code {
    /// Malformed `lint:allow` directive (missing reason, unknown or
    /// retired code).
    D000,
    /// Wall-clock time / ambient randomness.
    D002,
    /// Wire-enum variant never constructed or never matched by a
    /// consumer outside its codec (dead / half-wired protocol surface).
    D007,
    /// Determinism taint: sim-visible code calls a function that
    /// (transitively) reads wall-clock time or entropy.
    D008,
    /// `Frame::Data`/`Frame::Ack` payloads touched without flowing
    /// through the connection-epoch check.
    D009,
    /// Lock-order inversion, nested same-mutex acquisition, or a
    /// blocking channel op while holding a mutex.
    D010,
}

impl Code {
    /// All enforceable rule codes (excludes the directive-error D000).
    pub const RULES: [Code; 5] = [Code::D002, Code::D007, Code::D008, Code::D009, Code::D010];

    /// Parse `"D002"` → `Code::D002`.
    pub fn parse(s: &str) -> Option<Code> {
        match s {
            "D000" => Some(Code::D000),
            "D002" => Some(Code::D002),
            "D007" => Some(Code::D007),
            "D008" => Some(Code::D008),
            "D009" => Some(Code::D009),
            "D010" => Some(Code::D010),
            _ => None,
        }
    }

    /// Short rule synopsis: the SARIF rule description.
    pub fn synopsis(self) -> &'static str {
        match self {
            Code::D000 => "malformed lint:allow directive",
            Code::D002 => "wall-clock time or ambient randomness breaks seeded replay",
            Code::D007 => "every wire-enum variant must be constructed and consumed somewhere",
            Code::D008 => "determinism taint must not flow into sim-visible code through calls",
            Code::D009 => "frame payload handling must flow through the connection-epoch check",
            Code::D010 => {
                "mutexes need a stable acquisition order; never block on a channel under a lock"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One finding, anchored to a file/line/column.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule code.
    pub code: Code,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Human one-line rendering: `error[D002]: ... --> file:line:col`.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}",
            self.code, self.message, self.file, self.line, self.col
        )
    }
}

/// A `lint:allow` directive that suppressed nothing: almost always a
/// leftover from fixed code, and itself a finding (CI requires zero).
#[derive(Clone, Debug)]
pub struct StaleAllow {
    /// File containing the directive.
    pub file: String,
    /// Line of the directive comment.
    pub line: u32,
    /// The code it names.
    pub code: Code,
}

impl StaleAllow {
    /// Human rendering.
    pub fn render(&self) -> String {
        format!(
            "warning[stale-allow]: lint:allow({}) suppresses nothing — remove it\n  --> {}:{}",
            self.code, self.file, self.line
        )
    }
}

/// The result of a whole-tree check.
#[derive(Default)]
pub struct Report {
    /// Findings in (file, line, col) order.
    pub diagnostics: Vec<Diagnostic>,
    /// `lint:allow` directives that matched no finding.
    pub stale_allows: Vec<StaleAllow>,
    /// Number of `.rs` files analyzed.
    pub checked_files: usize,
    /// Number of findings suppressed by a `lint:allow` directive.
    pub suppressed: usize,
}

impl Report {
    /// True when the tree is clean: no findings *and* no stale allows.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale_allows.is_empty()
    }

    /// SARIF 2.1.0 rendering for GitHub code scanning. Stale allows are
    /// emitted as `warning`-level results under the synthetic rule id
    /// `stale-allow`; rule findings are `error`-level.
    pub fn to_sarif(&self) -> String {
        let mut rules = String::new();
        for (i, c) in Code::RULES.iter().enumerate() {
            if i > 0 {
                rules.push(',');
            }
            rules.push_str(&format!(
                "{{\"id\":\"{c}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                json_escape(c.synopsis())
            ));
        }
        rules.push_str(
            ",{\"id\":\"stale-allow\",\"shortDescription\":{\"text\":\
             \"lint:allow directive that suppresses nothing\"}}",
        );
        let mut results = String::new();
        let mut first = true;
        for d in &self.diagnostics {
            if !first {
                results.push(',');
            }
            first = false;
            results.push_str(&format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
                d.code,
                json_escape(&d.message),
                json_escape(&d.file),
                d.line,
                d.col
            ));
        }
        for s in &self.stale_allows {
            if !first {
                results.push(',');
            }
            first = false;
            results.push_str(&format!(
                "{{\"ruleId\":\"stale-allow\",\"level\":\"warning\",\"message\":{{\"text\":\
                 \"lint:allow({}) suppresses nothing; remove it\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                s.code,
                json_escape(&s.file),
                s.line
            ));
        }
        format!(
            "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
             Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":\
             {{\"driver\":{{\"name\":\"demos-lint\",\"informationUri\":\
             \"https://github.com/demos-mp/demos-mp\",\"version\":\"2.0.0\",\"rules\":[{rules}]}}}},\
             \"results\":[{results}]}}]}}"
        )
    }

    /// Human rendering: every finding plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        for s in &self.stale_allows {
            out.push_str(&s.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "demos-lint: {} file(s) checked, {} finding(s), {} stale allow(s), {} suppressed by lint:allow\n",
            self.checked_files,
            self.diagnostics.len(),
            self.stale_allows.len(),
            self.suppressed
        ));
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
