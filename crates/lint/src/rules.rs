//! The D-rules, implemented over the token stream from [`crate::lexer`].
//!
//! Every rule reports a [`Diagnostic`] with a stable code, an exact span
//! and an actionable message. Findings inside `#[cfg(test)]` regions and
//! `#[test]` functions are skipped — the rules guard *shipping* kernel
//! paths, and tests legitimately panic, sleep and poke at wall clocks.

use crate::diag::{Code, Diagnostic};
use crate::lexer::{Tok, TokKind};

/// Which rules apply to the file being analyzed (decided from its path by
/// the engine; fixture tests force everything on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scope {
    /// D001: ordered collections only.
    pub d001: bool,
    /// D002: no wall-clock / ambient randomness.
    pub d002: bool,
    /// D003: exhaustive matches over watched enums.
    pub d003: bool,
    /// D004: no unwrap/expect/panic in handler paths.
    pub d004: bool,
    /// D005: checked integer conversions in codecs.
    pub d005: bool,
}

impl Scope {
    /// Everything on — used by fixture tests.
    pub fn all() -> Scope {
        Scope {
            d001: true,
            d002: true,
            d003: true,
            d004: true,
            d005: true,
        }
    }

    /// Everything off.
    pub fn none() -> Scope {
        Scope {
            d001: false,
            d002: false,
            d003: false,
            d004: false,
            d005: false,
        }
    }
}

/// Hash-based collection types whose iteration order depends on the
/// hasher (D001). `BTreeMap`/`BTreeSet`/sorted `Vec`s are the sanctioned
/// replacements.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Ambient entropy sources (D002). `Instant` is only flagged as
/// `Instant::now` so type positions (struct fields in the native runtime)
/// still name the type; the *call* is the nondeterminism.
const ENTROPY_IDENTS: [&str; 4] = ["SystemTime", "thread_rng", "OsRng", "from_entropy"];

/// Protocol / engine enums whose matches must stay exhaustive (D003).
/// Adding a variant to any of these must produce a compile error at every
/// handler, never a silent fall-through.
const WATCHED_ENUMS: [&str; 16] = [
    // Wire protocols (§2.2, §3.1, §4-5).
    "KernelOp",
    "MigrateMsg",
    "MoveDataMsg",
    "LinkMaintMsg",
    "KernelMgmt",
    "RejectReason",
    "AreaSel",
    // Transport frames and events.
    "Frame",
    "NetEvent",
    // Engine / migration state machines and the trace-event stream.
    "TraceEvent",
    "MigrationPhase",
    "Stage",
    "ExecStatus",
    "MdAction",
    "PullPurpose",
    // Error taxonomy: every variant must pick its status code consciously.
    "DemosError",
];

/// Macros that abort the kernel (D004).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Integer types a truncating `as` cast can target (D005).
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Run every in-scope rule over `toks`. `test_mask[i]` marks tokens inside
/// test-only regions; `file` is the workspace-relative path used in spans.
pub fn run(toks: &[Tok], test_mask: &[bool], scope: Scope, file: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if scope.d001 {
        d001(toks, test_mask, file, &mut diags);
    }
    if scope.d002 {
        d002(toks, test_mask, file, &mut diags);
    }
    if scope.d003 {
        d003(toks, test_mask, file, &mut diags);
    }
    if scope.d004 {
        d004(toks, test_mask, file, &mut diags);
    }
    if scope.d005 {
        d005(toks, test_mask, file, &mut diags);
    }
    diags.sort_by_key(|d| (d.line, d.col, d.code));
    diags
}

fn push(diags: &mut Vec<Diagnostic>, code: Code, file: &str, t: &Tok, message: String) {
    diags.push(Diagnostic {
        code,
        file: file.to_string(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// D001 — hash collections in sim-visible crates.
fn d001(toks: &[Tok], mask: &[bool], file: &str, diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if HASH_TYPES.contains(&t.text.as_str()) {
            push(
                diags,
                Code::D001,
                file,
                t,
                format!(
                    "`{}` iterates in hasher-dependent order, which breaks seeded replay; \
                     use `BTreeMap`/`BTreeSet` or a sorted `Vec` in sim-visible crates",
                    t.text
                ),
            );
        }
    }
}

/// D002 — wall-clock time / ambient randomness.
fn d002(toks: &[Tok], mask: &[bool], file: &str, diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if ENTROPY_IDENTS.contains(&name) {
            push(
                diags,
                Code::D002,
                file,
                t,
                format!(
                    "`{name}` injects ambient time/entropy; route time through the sim clock \
                     and randomness through the seeded RNG"
                ),
            );
            continue;
        }
        // `Instant::now` — the call, not the type.
        if name == "Instant"
            && toks.get(i + 1).is_some_and(|t| t.text == "::")
            && toks.get(i + 2).is_some_and(|t| t.text == "now")
        {
            push(
                diags,
                Code::D002,
                file,
                t,
                "`Instant::now()` reads the wall clock; sim-visible code must take time \
                 from the simulation clock so identical seeds replay identically"
                    .to_string(),
            );
        }
    }
}

/// D003 — catch-all `_ =>` arms in matches over watched enums.
///
/// A match is "over a watched enum" when any *pattern* (the tokens before
/// an arm's `=>`, including tuple/`Option` wrappers) names
/// `WatchedEnum::Variant`. Matches over integer tags (wire decoders) are
/// untouched: their patterns are literals.
fn d003(toks: &[Tok], mask: &[bool], file: &str, diags: &mut Vec<Diagnostic>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "match" || mask[i] {
            i += 1;
            continue;
        }
        // Find the `{` opening the match body: the first depth-0 `{` after
        // the scrutinee (struct literals are not allowed in scrutinee
        // position without parentheses, so this is unambiguous).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => break, // `match` used as an identifier-ish thing; bail
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i += 1;
            continue;
        };
        // Split the body into arms at depth 0 (relative to the body).
        let mut k = open + 1;
        let mut depth = 0i32;
        let mut pat_start = k;
        let mut in_pattern = true;
        let mut watched = false;
        let mut wildcard: Option<usize> = None;
        while k < toks.len() {
            let txt = toks[k].text.as_str();
            match txt {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    if depth == 0 {
                        break; // end of match body
                    }
                    depth -= 1;
                    // A brace-block arm body just closed at depth 0 →
                    // next token starts a new pattern (optionally after a
                    // comma, handled below).
                    if depth == 0 && !in_pattern {
                        in_pattern = true;
                        pat_start = k + 1;
                    }
                }
                "=>" if depth == 0 && in_pattern => {
                    // Pattern is toks[pat_start..k]; inspect it.
                    let pat = &toks[pat_start..k];
                    if pat_names_watched_enum(pat) {
                        watched = true;
                    }
                    if is_catch_all(pat) {
                        wildcard = Some(pat_start);
                    }
                    in_pattern = false;
                }
                // A depth-0 comma in a match body only ever terminates an
                // arm (patterns never contain bare commas — tuple/slice
                // commas sit inside (), []).
                "," if depth == 0 => {
                    in_pattern = true;
                    pat_start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        if watched {
            if let Some(w) = wildcard {
                push(
                    diags,
                    Code::D003,
                    file,
                    &toks[w],
                    "catch-all `_ =>` in a match over a protocol/engine enum: new variants \
                     would silently fall through here; list every variant (or bind \
                     `other @ ...` per-variant) so additions are compile-visible"
                        .to_string(),
                );
            }
        }
        // Continue scanning *inside* the body too (nested matches are found
        // by the outer while loop since we only advance past the keyword).
        i += 1;
    }
}

/// Does a pattern reference `WatchedEnum::...`?
fn pat_names_watched_enum(pat: &[Tok]) -> bool {
    pat.iter().enumerate().any(|(i, t)| {
        t.kind == TokKind::Ident
            && WATCHED_ENUMS.contains(&t.text.as_str())
            && pat.get(i + 1).is_some_and(|n| n.text == "::")
    })
}

/// Is a pattern a catch-all: `_` or `_ if guard`?
fn is_catch_all(pat: &[Tok]) -> bool {
    match pat {
        [t] => t.text == "_",
        [t, g, ..] => t.text == "_" && g.text == "if",
        _ => false,
    }
}

/// D004 — unwrap/expect/panic in handler paths.
fn d004(toks: &[Tok], mask: &[bool], file: &str, diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // `.unwrap()` / `.expect(` — method position only.
        if (name == "unwrap" || name == "expect")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            push(
                diags,
                Code::D004,
                file,
                t,
                format!(
                    "`.{name}()` can abort a kernel mid-protocol; message-handling paths \
                     must degrade (drop/trace/bounce) instead of dying — restructure with \
                     `let .. else`, `if let`, or propagate a `DemosError`"
                ),
            );
            continue;
        }
        if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|n| n.text == "!") {
            push(
                diags,
                Code::D004,
                file,
                t,
                format!(
                    "`{name}!` aborts the kernel; handler paths must degrade, not die — \
                     trace the anomaly and drop the message, or return a `DemosError`"
                ),
            );
        }
    }
}

/// D005 — `as` integer casts in the `types` codecs.
fn d005(toks: &[Tok], mask: &[bool], file: &str, diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if ty.kind == TokKind::Ident && INT_TYPES.contains(&ty.text.as_str()) {
            push(
                diags,
                Code::D005,
                file,
                t,
                format!(
                    "`as {}` silently truncates/wraps; byte-exact codecs must use \
                     `{}::from` for widening or `{}::try_from` for narrowing so every \
                     lossy conversion is an explicit, handled error",
                    ty.text, ty.text, ty.text
                ),
            );
        }
    }
}
