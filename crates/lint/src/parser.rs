//! Recursive-descent parser: token stream → [`crate::ast`].
//!
//! Parses the item structure (modules, impl blocks, functions, enums)
//! precisely, and recovers from each function body the event stream the
//! semantic rules need. It is *not* a general Rust parser: constructs
//! none of the rules inspect (types, generics, trait bounds, closures'
//! parameter lists) are skipped over by balanced-delimiter scanning, and
//! the parser must never panic on arbitrary input — it runs over fixture
//! files and half-written code.
//!
//! Position discipline: patterns and expressions are distinguished
//! because D007 needs "constructed" (expression position) vs "matched"
//! (pattern position) for enum variants. Pattern contexts are `match`
//! arms up to their `=>` (minus `if` guards), and `let` / `if let` /
//! `while let` bindings up to their `=`.

use crate::ast::{EnumDef, Event, FileAst, FnDef, Span};
use crate::lexer::{Tok, TokKind};

/// Method names that acquire a mutex.
const LOCK_METHODS: [&str; 1] = ["lock"];

/// Method names that are channel endpoint operations (blocking or
/// capacity-bounded: the D010 "no lock held across a send" rule).
const CHANNEL_METHODS: [&str; 4] = ["send", "recv", "recv_timeout", "try_send"];

/// Parse one file. `rel` is the workspace-relative path.
pub fn parse(rel: &str, toks: &[Tok]) -> FileAst {
    let krate = crate_of(rel);
    let mut p = Parser {
        toks,
        out: FileAst {
            rel: rel.to_string(),
            krate,
            fns: Vec::new(),
            enums: Vec::new(),
        },
    };
    p.items(0, toks.len(), &Ctx::default());
    p.out
}

/// `crates/kernel/src/kernel.rs` → `crates/kernel`; anything not under
/// `crates/` gets the empty crate (treated permissively by the graph).
pub fn crate_of(rel: &str) -> String {
    let mut segs = rel.split('/');
    if segs.next() == Some("crates") {
        if let Some(name) = segs.next() {
            return format!("crates/{name}");
        }
    }
    String::new()
}

/// Inherited item context.
#[derive(Clone, Default)]
struct Ctx {
    /// Enclosing impl type (`Kernel`), if any.
    self_ty: String,
    /// Inside a `#[cfg(test)]` module.
    in_test: bool,
}

struct Parser<'a> {
    toks: &'a [Tok],
    out: FileAst,
}

impl<'a> Parser<'a> {
    fn t(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn is(&self, i: usize, text: &str) -> bool {
        self.t(i).is_some_and(|t| t.text == text)
    }

    fn span(&self, i: usize) -> Span {
        let t = &self.toks[i.min(self.toks.len().saturating_sub(1))];
        Span {
            line: t.line,
            col: t.col,
        }
    }

    /// Skip a balanced `(..)`, `[..]` or `{..}` group whose opener is at
    /// `i`; returns the index just past the closer.
    fn skip_group(&self, i: usize, end: usize) -> usize {
        let (open, close) = match self.toks[i].text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return i + 1,
        };
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = &self.toks[j].text;
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Skip a balanced generic argument list `<..>` starting at `i`
    /// (which must be `<`). Best-effort: `->`/`=>` are fused by the
    /// lexer, so stray `>`s from arrows cannot appear; shifts (`>>`) are
    /// two tokens and close two levels, which is exactly right.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match self.toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                "(" | "[" | "{" => {
                    j = self.skip_group(j, end);
                    continue;
                }
                ";" => return j, // malformed; bail without consuming
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Parse items in `toks[i..end]` (a module body or the file).
    fn items(&mut self, mut i: usize, end: usize, ctx: &Ctx) {
        // `#[test]` / `#[cfg(test)]` attribute seen immediately before the
        // upcoming item.
        let mut pending_test = false;
        while i < end {
            let text = self.toks[i].text.clone();
            match text.as_str() {
                "#" => {
                    // Attribute: `#[..]` or `#![..]`; scan an outer one for
                    // the ident `test` inside the bracket group. An inner
                    // one (`#![cfg_attr(not(test), …)]`) describes the
                    // enclosing module, not the next item.
                    let mut j = i + 1;
                    let inner = self.is(j, "!");
                    if inner {
                        j += 1;
                    }
                    if self.is(j, "[") {
                        let past = self.skip_group(j, end);
                        if !inner
                            && self.toks[j..past]
                                .iter()
                                .any(|t| t.kind == TokKind::Ident && t.text == "test")
                        {
                            pending_test = true;
                        }
                        i = past;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                "mod" => {
                    // `mod name { … }` or `mod name;`
                    let mut j = i + 1;
                    while j < end && !self.is(j, "{") && !self.is(j, ";") {
                        j += 1;
                    }
                    if self.is(j, "{") {
                        let past = self.skip_group(j, end);
                        let sub = Ctx {
                            in_test: ctx.in_test || pending_test,
                            ..Ctx::default()
                        };
                        self.items(j + 1, past.saturating_sub(1), &sub);
                        i = past;
                    } else {
                        i = j + 1;
                    }
                    pending_test = false;
                    continue;
                }
                "impl" => {
                    i = self.impl_block(i, end, ctx.in_test || pending_test);
                    pending_test = false;
                    continue;
                }
                "trait" => {
                    // `trait Name { … }` — default method bodies are real
                    // code; parse them with self_ty = trait name.
                    let name = self
                        .t(i + 1)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    let mut j = i + 1;
                    while j < end && !self.is(j, "{") && !self.is(j, ";") {
                        if self.is(j, "<") {
                            j = self.skip_angles(j, end);
                            continue;
                        }
                        j += 1;
                    }
                    if self.is(j, "{") {
                        let past = self.skip_group(j, end);
                        let sub = Ctx {
                            self_ty: name,
                            in_test: ctx.in_test || pending_test,
                        };
                        self.items(j + 1, past.saturating_sub(1), &sub);
                        i = past;
                    } else {
                        i = j + 1;
                    }
                    pending_test = false;
                    continue;
                }
                "enum" => {
                    i = self.enum_item(i, end);
                    pending_test = false;
                    continue;
                }
                "fn" => {
                    i = self.fn_item(i, end, ctx, ctx.in_test || pending_test);
                    pending_test = false;
                    continue;
                }
                "struct" | "union" => {
                    // Skip to `;` (tuple/unit struct) or past the brace
                    // body, whichever comes first.
                    let mut j = i + 1;
                    while j < end && !self.is(j, "{") && !self.is(j, ";") {
                        if self.is(j, "<") {
                            j = self.skip_angles(j, end);
                            continue;
                        }
                        if self.is(j, "(") {
                            j = self.skip_group(j, end);
                            continue;
                        }
                        j += 1;
                    }
                    i = if self.is(j, "{") {
                        self.skip_group(j, end)
                    } else {
                        j + 1
                    };
                    pending_test = false;
                    continue;
                }
                "macro_rules" => {
                    // `macro_rules! name { … }`
                    let mut j = i + 1;
                    while j < end && !self.is(j, "{") {
                        j += 1;
                    }
                    i = self.skip_group(j.min(end.saturating_sub(1)).max(i + 1), end);
                    pending_test = false;
                    continue;
                }
                "use" | "extern" => {
                    while i < end && !self.is(i, ";") {
                        if self.is(i, "{") {
                            i = self.skip_group(i, end);
                            continue;
                        }
                        i += 1;
                    }
                    i += 1;
                    pending_test = false;
                    continue;
                }
                "const" | "static" | "type" => {
                    // `const fn` / `const NAME: T = …;` — only skip when
                    // this is not a qualifier on `fn`.
                    if self.is(i + 1, "fn") {
                        i += 1; // let the `fn` arm handle it
                        continue;
                    }
                    while i < end && !self.is(i, ";") {
                        if self.is(i, "{") || self.is(i, "(") || self.is(i, "[") {
                            i = self.skip_group(i, end);
                            continue;
                        }
                        i += 1;
                    }
                    i += 1;
                    pending_test = false;
                    continue;
                }
                _ => {
                    // Qualifiers (`pub`, `unsafe`, `async`, crate paths in
                    // `pub(crate)`) and anything unrecognized: advance.
                    if text == "(" || text == "[" || text == "{" {
                        i = self.skip_group(i, end);
                    } else {
                        i += 1;
                    }
                    continue;
                }
            }
        }
    }

    /// Parse an `impl` block header and its items.
    fn impl_block(&mut self, i: usize, end: usize, in_test: bool) -> usize {
        let mut j = i + 1;
        if self.is(j, "<") {
            j = self.skip_angles(j, end);
        }
        // Collect the first type path (trait or self type); after `for`
        // comes the self type of a trait impl.
        let mut self_ty = self.type_head(&mut j, end);
        if self.is(j, "for") {
            j += 1;
            self_ty = self.type_head(&mut j, end);
        }
        // Skip where-clauses etc. to the body.
        while j < end && !self.is(j, "{") && !self.is(j, ";") {
            if self.is(j, "<") {
                j = self.skip_angles(j, end);
                continue;
            }
            j += 1;
        }
        if !self.is(j, "{") {
            return j + 1;
        }
        let past = self.skip_group(j, end);
        let ctx = Ctx { self_ty, in_test };
        self.items(j + 1, past.saturating_sub(1), &ctx);
        past
    }

    /// Read the head identifier of a type path at `*j`, advancing past
    /// the whole path (incl. generics): `demos_types::proto::KernelOp<T>`
    /// → `KernelOp`. Leading `&`/`mut`/lifetimes are skipped.
    fn type_head(&self, j: &mut usize, end: usize) -> String {
        while *j < end
            && (self.is(*j, "&")
                || self.is(*j, "mut")
                || self.is(*j, "dyn")
                || self.toks[*j].kind == TokKind::Lifetime)
        {
            *j += 1;
        }
        let mut name = String::new();
        while *j < end {
            if self.toks[*j].kind == TokKind::Ident {
                name = self.toks[*j].text.clone();
                *j += 1;
                if self.is(*j, "::") {
                    *j += 1;
                    continue;
                }
                if self.is(*j, "<") {
                    *j = self.skip_angles(*j, end);
                }
                break;
            }
            break;
        }
        name
    }

    /// Parse `fn name…(params) -> T { body }` starting at the `fn`
    /// keyword; returns the index past the body.
    fn fn_item(&mut self, i: usize, end: usize, ctx: &Ctx, is_test_attr: bool) -> usize {
        let Some(name_tok) = self.t(i + 1) else {
            return i + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return i + 1;
        }
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if self.is(j, "<") {
            j = self.skip_angles(j, end);
        }
        // Parameters.
        let mut is_method = false;
        if self.is(j, "(") {
            let past = self.skip_group(j, end);
            is_method = self.toks[j..past]
                .iter()
                .take(6)
                .any(|t| t.kind == TokKind::Ident && t.text == "self");
            j = past;
        }
        // Return type / where clause up to the body or `;` (trait method
        // signatures without bodies).
        while j < end && !self.is(j, "{") && !self.is(j, ";") {
            if self.is(j, "<") {
                j = self.skip_angles(j, end);
                continue;
            }
            if self.is(j, "(") || self.is(j, "[") {
                j = self.skip_group(j, end);
                continue;
            }
            j += 1;
        }
        if !self.is(j, "{") {
            return j + 1; // bodyless signature
        }
        let past = self.skip_group(j, end);
        let body = self.body(j + 1, past.saturating_sub(1));
        self.out.fns.push(FnDef {
            name,
            self_ty: ctx.self_ty.clone(),
            is_method,
            is_test: ctx.in_test || is_test_attr,
            body,
        });
        past
    }

    /// Parse `enum Name { … }`.
    fn enum_item(&mut self, i: usize, end: usize) -> usize {
        let Some(name_tok) = self.t(i + 1) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let mut j = i + 2;
        while j < end && !self.is(j, "{") && !self.is(j, ";") {
            if self.is(j, "<") {
                j = self.skip_angles(j, end);
                continue;
            }
            j += 1;
        }
        if !self.is(j, "{") {
            return j + 1;
        }
        let past = self.skip_group(j, end);
        let mut variants = Vec::new();
        let mut k = j + 1;
        let body_end = past.saturating_sub(1);
        // At variant level: `Name`, `Name(…)`, `Name { … }`, each
        // separated by `,`; attributes/doc comments may precede.
        let mut at_variant_start = true;
        while k < body_end {
            let t = &self.toks[k];
            match t.text.as_str() {
                "#" => {
                    let mut a = k + 1;
                    if self.is(a, "[") {
                        a = self.skip_group(a, body_end);
                    }
                    k = a;
                }
                "," => {
                    at_variant_start = true;
                    k += 1;
                }
                "(" | "{" | "[" => {
                    k = self.skip_group(k, body_end);
                    at_variant_start = false;
                }
                "=" => {
                    // Discriminant `Name = 3`.
                    k += 1;
                    at_variant_start = false;
                }
                _ => {
                    if at_variant_start && t.kind == TokKind::Ident {
                        variants.push((t.text.clone(), self.span(k)));
                        at_variant_start = false;
                    }
                    k += 1;
                }
            }
        }
        self.out.enums.push(EnumDef { name, variants });
        past
    }

    /// Parse a function body `toks[i..end]` into the event stream.
    fn body(&mut self, start: usize, end: usize) -> Vec<Event> {
        let mut ev: Vec<Event> = Vec::new();
        // Brace depth relative to the body (0 = statement level).
        let mut depth: u32 = 0;
        // Stack of `match` bodies: (body_depth, in_pattern, in_guard,
        // opened). `opened` flips when the body's `{` is reached, so
        // parens inside the scrutinee cannot activate pattern mode.
        let mut matches: Vec<(u32, bool, bool, bool)> = Vec::new();
        // `let` pattern region active (ends at `=`, `else`, or `;`).
        let mut let_pat = false;
        // Current statement began with `let` (guard-binding heuristic).
        let mut stmt_has_let = false;
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            let in_pattern = {
                let arm_pat = matches
                    .last()
                    .is_some_and(|&(d, in_pat, in_guard, opened)| {
                        opened && depth == d && in_pat && !in_guard
                    });
                arm_pat || let_pat
            };
            match t.text.as_str() {
                "{" | "(" | "[" => {
                    depth += 1;
                    if t.text == "{" {
                        if let Some(m) = matches.last_mut() {
                            if !m.3 && depth == m.0 {
                                m.3 = true;
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
                "}" | ")" | "]" => {
                    if t.text == "}" {
                        ev.push(Event::BlockClose {
                            depth: depth.saturating_sub(1),
                        });
                    }
                    depth = depth.saturating_sub(1);
                    while matches.last().is_some_and(|&(d, ..)| depth < d) {
                        matches.pop();
                    }
                    // A `}` closing back to the match-body depth ends a
                    // block-bodied arm (whose trailing `,` is optional):
                    // the next token starts a new pattern.
                    if t.text == "}" {
                        if let Some(m) = matches.last_mut() {
                            if m.3 && depth == m.0 {
                                m.1 = true;
                                m.2 = false;
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
                ";" => {
                    ev.push(Event::StmtEnd { depth });
                    stmt_has_let = false;
                    let_pat = false;
                    i += 1;
                    continue;
                }
                "match" if t.kind == TokKind::Ident => {
                    // Scan the scrutinee (expression events fall out of the
                    // normal loop) and note where the body opens: the next
                    // `{` at this depth.
                    let mut j = i + 1;
                    let mut d = 0i32;
                    while j < end {
                        match self.toks[j].text.as_str() {
                            "(" | "[" => d += 1,
                            ")" | "]" => d -= 1,
                            "{" if d == 0 => break,
                            "{" => d += 1,
                            "}" => d -= 1,
                            ";" if d == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if self.is(j, "{") {
                        // The match body will sit at depth+1 once the loop
                        // processes that `{`; register it now.
                        matches.push((depth + 1, true, false, false));
                    }
                    i += 1;
                    continue;
                }
                "let" if t.kind == TokKind::Ident => {
                    let_pat = true;
                    stmt_has_let = true;
                    i += 1;
                    continue;
                }
                "=" => {
                    // Terminates a `let` pattern (plain `=`; `==`/`=>` are
                    // either fused or doubled and only occur in
                    // expressions).
                    let_pat = false;
                    i += 1;
                    continue;
                }
                "else" => {
                    // `let … else { }` — the pattern ended.
                    let_pat = false;
                    i += 1;
                    continue;
                }
                "=>" => {
                    if let Some(m) = matches.last_mut() {
                        if depth == m.0 {
                            m.1 = false;
                            m.2 = false;
                        }
                    }
                    i += 1;
                    continue;
                }
                "," => {
                    if let Some(m) = matches.last_mut() {
                        if depth == m.0 {
                            m.1 = true;
                            m.2 = false;
                        }
                    }
                    i += 1;
                    continue;
                }
                "if" if t.kind == TokKind::Ident => {
                    // Either an arm guard (pattern → expression until `=>`)
                    // or the start of `if let`.
                    if in_pattern && !let_pat {
                        if let Some(m) = matches.last_mut() {
                            if depth == m.0 && m.1 {
                                m.2 = true;
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }

            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }

            // Method call or field access: ident preceded by `.`.
            if i > start && self.is(i.wrapping_sub(1), ".") {
                let name = t.text.clone();
                let span = self.span(i);
                if self.is(i + 1, "(") {
                    let recv = self.receiver_of(i.wrapping_sub(1), start);
                    if LOCK_METHODS.contains(&name.as_str()) {
                        ev.push(Event::Lock {
                            recv: recv.clone(),
                            depth,
                            held_for_block: stmt_has_let,
                            span,
                        });
                    }
                    if CHANNEL_METHODS.contains(&name.as_str()) {
                        ev.push(Event::ChannelOp {
                            name: name.clone(),
                            span,
                        });
                    }
                    ev.push(Event::Method { name, recv, span });
                } else {
                    ev.push(Event::Field { name, span });
                }
                i += 1;
                continue;
            }

            // Macro invocation: no rule reads the name; its arguments are
            // scanned like any other tokens.
            if self.is(i + 1, "!") && !self.is(i + 2, "=") {
                i += 2;
                continue;
            }

            // Path: collect `a::b::c`.
            let span = self.span(i);
            let mut path = vec![t.text.clone()];
            let mut j = i + 1;
            while self.is(j, "::") && self.t(j + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                path.push(self.toks[j + 1].text.clone());
                j += 2;
            }
            // Turbofish `::<…>` after the path.
            if self.is(j, "::") && self.is(j + 1, "<") {
                j = self.skip_angles(j + 1, end);
            }
            if path.len() == 1 {
                if self.is(j, "(") && !in_pattern {
                    ev.push(Event::Call { path, span });
                } else {
                    ev.push(Event::Ident {
                        name: path.pop().unwrap_or_default(),
                        span,
                    });
                }
            } else if self.is(j, "(") && !in_pattern {
                ev.push(Event::Call { path, span });
            } else {
                ev.push(Event::PathRef {
                    path,
                    in_pattern,
                    span,
                });
            }
            i = j;
        }
        ev
    }

    /// Best-effort receiver of a method call: the nearest identifier
    /// scanning back from the `.` at `dot`, skipping one balanced
    /// index/call group (`slots[i].lock()` → `slots`,
    /// `self.pool.lock()` → `pool`).
    fn receiver_of(&self, dot: usize, floor: usize) -> String {
        let mut k = dot;
        while k > floor {
            k -= 1;
            match self.toks[k].text.as_str() {
                ")" | "]" => {
                    // Scan back over the balanced group.
                    let close = self.toks[k].text.clone();
                    let open = if close == ")" { "(" } else { "[" };
                    let mut d = 0i32;
                    while k > floor {
                        if self.toks[k].text == close {
                            d += 1;
                        } else if self.toks[k].text == open {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        k -= 1;
                    }
                }
                "." => {}
                _ => {
                    if self.toks[k].kind == TokKind::Ident {
                        return self.toks[k].text.clone();
                    }
                    return String::new();
                }
            }
        }
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> FileAst {
        parse("crates/kernel/src/x.rs", &lexer::lex(src).toks)
    }

    #[test]
    fn finds_fns_methods_and_enums() {
        let ast = parse_src(
            "pub enum E { A, B(u8), C { x: u8 } }\n\
             impl K { pub fn on_frame(&mut self, f: u8) { self.helper(f); } fn helper(&self, f: u8) {} }\n\
             fn free() {}",
        );
        assert_eq!(ast.enums.len(), 1);
        assert_eq!(
            ast.enums[0]
                .variants
                .iter()
                .map(|v| v.0.as_str())
                .collect::<Vec<_>>(),
            ["A", "B", "C"]
        );
        let names: Vec<String> = ast.fns.iter().map(|f| f.qual()).collect();
        assert_eq!(names, ["K::on_frame", "K::helper", "free"]);
        assert!(ast.fns[0].is_method);
        assert!(!ast.fns[2].is_method);
    }

    #[test]
    fn trait_impls_record_the_self_type() {
        let ast = parse_src("impl Wire for Frame { fn encode(&self) {} }");
        assert_eq!(ast.fns[0].self_ty, "Frame");
    }

    #[test]
    fn patterns_vs_expressions() {
        let ast = parse_src(
            "fn f(x: E) -> E {\n\
               match x { E::A => E::B, E::B => make(), _ => E::A }\n\
             }",
        );
        let pats: Vec<&Vec<String>> = ast.fns[0]
            .body
            .iter()
            .filter_map(|e| match e {
                Event::PathRef {
                    path,
                    in_pattern: true,
                    ..
                } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(
            pats.len(),
            2,
            "E::A and E::B matched: {:?}",
            ast.fns[0].body
        );
        let exprs: Vec<&Vec<String>> = ast.fns[0]
            .body
            .iter()
            .filter_map(|e| match e {
                Event::PathRef {
                    path,
                    in_pattern: false,
                    ..
                } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(exprs.len(), 2, "E::B and E::A constructed");
    }

    #[test]
    fn if_let_patterns_and_guards() {
        let ast = parse_src(
            "fn f(x: E) {\n\
               if let E::A = x {}\n\
               match x { E::B if check(E::C) => {} _ => {} }\n\
             }",
        );
        let pat_names: Vec<String> = ast.fns[0]
            .body
            .iter()
            .filter_map(|e| match e {
                Event::PathRef {
                    path,
                    in_pattern: true,
                    ..
                } => Some(path.join("::")),
                _ => None,
            })
            .collect();
        assert_eq!(
            pat_names,
            ["E::A", "E::B"],
            "guard expr E::C is not a pattern"
        );
    }

    #[test]
    fn locks_and_sends() {
        let ast = parse_src(
            "fn f(&self) {\n\
               let g = self.slots[i].lock();\n\
               tx.send(1);\n\
             }",
        );
        let body = &ast.fns[0].body;
        assert!(body.iter().any(|e| matches!(
            e,
            Event::Lock { recv, held_for_block: true, .. } if recv == "slots"
        )));
        assert!(body
            .iter()
            .any(|e| matches!(e, Event::ChannelOp { name, .. } if name == "send")));
    }

    #[test]
    fn tuple_variant_in_pattern_is_a_pathref() {
        let ast = parse_src("fn f(x: E) { match x { E::B(v) => {} _ => {} } }");
        assert!(ast.fns[0].body.iter().any(|e| matches!(
            e,
            Event::PathRef { path, in_pattern: true, .. } if path.join("::") == "E::B"
        )));
    }

    #[test]
    fn test_fns_are_marked() {
        let ast = parse_src(
            "#![cfg_attr(not(test), deny(clippy::panic))]\n\
             fn real() {}\n\
             #[cfg(test)] mod tests { fn helper() {} }\n#[test]\nfn t() {}",
        );
        let by_name: std::collections::BTreeMap<&str, bool> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert!(by_name["helper"]);
        assert!(by_name["t"]);
        assert!(!by_name["real"]);
    }
}
