//! Name-based call-graph resolution over the workspace symbol table.
//!
//! Rust's full name resolution needs type inference; a linter that must
//! stay dependency-free approximates it with three conservative layers:
//!
//! 1. **`self.m()`** resolves to methods named `m` on the enclosing impl
//!    type — precise for the intra-type calls that dominate kernel code.
//! 2. **`Type::m()` / `Self::m()`** resolves through the impl type.
//! 3. **`x.m()`** on an arbitrary receiver resolves to *every* workspace
//!    method named `m` — unless `m` collides with a common std method
//!    name (`get`, `insert`, `iter`, …), where resolving by bare name
//!    would wire most of the workspace together spuriously.
//!
//! Every candidate edge is then filtered by the crate dependency closure:
//! code in `crates/types` cannot call into `crates/kernel`, whatever the
//! names say. The result over-approximates real calls slightly (which is
//! what a taint rule wants) without drowning in false edges.

use std::collections::BTreeMap;

use crate::ast::{Event, FileAst};
use crate::symbols::{FnId, Symbols};

/// Method names shared with std collection/iterator/option APIs: a bare
/// `x.get()` is overwhelmingly a std call, so no workspace edge is made
/// for them unless the receiver is `self` (layer 1) or the path is
/// qualified (layer 2).
const STD_AMBIGUOUS: [&str; 58] = [
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "next",
    "clone",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "drain",
    "take",
    "replace",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "and_then",
    "or_else",
    "ok_or",
    "filter",
    "fold",
    "collect",
    "into_iter",
    "to_vec",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "split",
    "join",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "min",
    "max",
    "sum",
    "count",
    "last",
    "first",
    "rev",
    "zip",
    "chain",
    "any",
    "all",
    "find",
    "position",
    "entry",
    "keys",
    "values",
];

/// The resolved graph: `edges[caller] = (callee, event_span)` pairs, in
/// body order, deduplicated per callee.
pub struct CallGraph {
    /// Outgoing edges per function id.
    pub edges: Vec<Vec<(FnId, crate::ast::Span)>>,
}

impl CallGraph {
    /// Resolve every call event in every non-test function.
    pub fn build(files: &[FileAst], sym: &Symbols) -> CallGraph {
        // Impl-type index: self_ty → fn ids (methods and associated fns).
        let mut by_type: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, &(fi, gi)) in sym.fns.iter().enumerate() {
            let f = &files[fi].fns[gi];
            if !f.self_ty.is_empty() {
                by_type.entry(f.self_ty.as_str()).or_default().push(id);
            }
        }

        let mut edges: Vec<Vec<(FnId, crate::ast::Span)>> = vec![Vec::new(); sym.fns.len()];
        for (id, &(fi, gi)) in sym.fns.iter().enumerate() {
            let file = &files[fi];
            let f = &file.fns[gi];
            if f.is_test {
                continue;
            }
            let mut out: Vec<(FnId, crate::ast::Span)> = Vec::new();
            for ev in &f.body {
                match ev {
                    Event::Call { path, span } => {
                        let callees = resolve_path_call(path, fi, &f.self_ty, files, sym, &by_type);
                        for c in callees {
                            out.push((c, *span));
                        }
                    }
                    Event::Method { name, recv, span } => {
                        let callees =
                            resolve_method(name, recv, fi, &f.self_ty, files, sym, &by_type);
                        for c in callees {
                            out.push((c, *span));
                        }
                    }
                    _ => {}
                }
            }
            // Dedup by callee, keeping the first (earliest) span.
            let mut seen = std::collections::BTreeSet::new();
            out.retain(|(c, _)| seen.insert(*c));
            edges[id] = out;
        }
        CallGraph { edges }
    }
}

/// Candidates for `foo(…)` / `Type::foo(…)` / `a::b::foo(…)`.
fn resolve_path_call(
    path: &[String],
    caller_file: usize,
    caller_self_ty: &str,
    files: &[FileAst],
    sym: &Symbols,
    by_type: &BTreeMap<&str, Vec<FnId>>,
) -> Vec<FnId> {
    let Some(name) = path.last() else {
        return Vec::new();
    };
    let Some(cands) = sym.by_name.get(name) else {
        return Vec::new();
    };
    let caller_crate = files[caller_file].krate.clone();
    let dep_ok = |id: &FnId| {
        let (fi, _) = sym.fns[*id];
        sym.can_depend(&caller_crate, &files[fi].krate)
    };
    let not_test = |id: &FnId| {
        let (fi, gi) = sym.fns[*id];
        !files[fi].fns[gi].is_test
    };
    if path.len() == 1 {
        // Bare `foo(…)`: same file first, then same crate; free fns only.
        let free: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|id| {
                let (fi, gi) = sym.fns[*id];
                files[fi].fns[gi].self_ty.is_empty() && !files[fi].fns[gi].is_test
            })
            .collect();
        let same_file: Vec<FnId> = free
            .iter()
            .copied()
            .filter(|id| sym.fns[*id].0 == caller_file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        return free
            .into_iter()
            .filter(|id| {
                let (fi, _) = sym.fns[*id];
                files[fi].krate == caller_crate
            })
            .collect();
    }
    // Qualified: resolve through the second-to-last segment.
    let qual = &path[path.len() - 2];
    let qual = if qual == "Self" {
        caller_self_ty
    } else {
        qual.as_str()
    };
    if by_type.contains_key(qual) {
        return cands
            .iter()
            .copied()
            .filter(|id| {
                let (fi, gi) = sym.fns[*id];
                files[fi].fns[gi].self_ty == qual
            })
            .filter(not_test)
            .filter(dep_ok)
            .collect();
    }
    // Module-qualified free fn (`wire::put_bytes`): match the file stem.
    let stem_matches: Vec<FnId> = cands
        .iter()
        .copied()
        .filter(|id| {
            let (fi, gi) = sym.fns[*id];
            files[fi].fns[gi].self_ty.is_empty()
                && files[fi]
                    .rel
                    .rsplit('/')
                    .next()
                    .is_some_and(|f| f.strip_suffix(".rs") == Some(qual))
        })
        .filter(not_test)
        .filter(dep_ok)
        .collect();
    if !stem_matches.is_empty() {
        return stem_matches;
    }
    // Fall back to any free fn of that name in the dependency closure.
    cands
        .iter()
        .copied()
        .filter(|id| {
            let (fi, gi) = sym.fns[*id];
            files[fi].fns[gi].self_ty.is_empty()
        })
        .filter(not_test)
        .filter(dep_ok)
        .collect()
}

/// Candidates for `recv.name(…)`.
fn resolve_method(
    name: &str,
    recv: &str,
    caller_file: usize,
    caller_self_ty: &str,
    files: &[FileAst],
    sym: &Symbols,
    by_type: &BTreeMap<&str, Vec<FnId>>,
) -> Vec<FnId> {
    let Some(cands) = sym.by_name.get(name) else {
        return Vec::new();
    };
    let caller_crate = files[caller_file].krate.clone();
    let dep_ok = |id: &FnId| {
        let (fi, _) = sym.fns[*id];
        sym.can_depend(&caller_crate, &files[fi].krate)
    };
    let not_test = |id: &FnId| {
        let (fi, gi) = sym.fns[*id];
        !files[fi].fns[gi].is_test
    };
    // `self.m()` → the enclosing impl type's own method, if it has one.
    if recv == "self" && !caller_self_ty.is_empty() {
        if let Some(ids) = by_type.get(caller_self_ty) {
            let own: Vec<FnId> = ids
                .iter()
                .copied()
                .filter(|id| {
                    let (fi, gi) = sym.fns[*id];
                    files[fi].fns[gi].name == name
                })
                .filter(not_test)
                .collect();
            if !own.is_empty() {
                return own;
            }
        }
    }
    // Ambiguous-with-std names never resolve by bare receiver.
    if STD_AMBIGUOUS.contains(&name) {
        return Vec::new();
    }
    cands
        .iter()
        .copied()
        .filter(|id| {
            let (fi, gi) = sym.fns[*id];
            files[fi].fns[gi].is_method
        })
        .filter(not_test)
        .filter(dep_ok)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    fn build(srcs: &[(&str, &str)]) -> (Vec<FileAst>, Symbols, CallGraph) {
        let files: Vec<FileAst> = srcs
            .iter()
            .map(|(rel, src)| parser::parse(rel, &lexer::lex(src).toks))
            .collect();
        let sym = Symbols::build(&files, BTreeMap::new());
        let graph = CallGraph::build(&files, &sym);
        (files, sym, graph)
    }

    fn qual_of(files: &[FileAst], sym: &Symbols, id: FnId) -> String {
        let (fi, gi) = sym.fns[id];
        files[fi].fns[gi].qual()
    }

    #[test]
    fn self_calls_resolve_within_the_impl() {
        let (files, sym, g) = build(&[(
            "crates/kernel/src/a.rs",
            "impl K { fn top(&self) { self.helper(); } fn helper(&self) {} }\n\
             impl Other { fn helper(&self) {} }",
        )]);
        let callees: Vec<String> = g.edges[0]
            .iter()
            .map(|&(c, _)| qual_of(&files, &sym, c))
            .collect();
        assert_eq!(callees, ["K::helper"]);
    }

    #[test]
    fn cross_file_method_calls_resolve() {
        let (files, sym, g) = build(&[
            (
                "crates/kernel/src/a.rs",
                "impl K { fn on_frame(&self, m: M) { m.encode_wire(); } }",
            ),
            (
                "crates/types/src/b.rs",
                "impl M { fn encode_wire(&self) { self.deep(); } fn deep(&self) {} }",
            ),
        ]);
        let callees = |id: FnId| -> Vec<String> {
            g.edges[id]
                .iter()
                .map(|&(c, _)| qual_of(&files, &sym, c))
                .collect()
        };
        assert_eq!(callees(0), ["M::encode_wire"]);
        assert_eq!(callees(sym.by_name["encode_wire"][0]), ["M::deep"]);
    }

    #[test]
    fn std_ambiguous_names_do_not_wire_the_workspace() {
        let (_files, _sym, g) = build(&[
            (
                "crates/kernel/src/a.rs",
                "impl K { fn f(&self, t: T) { t.get(0); } }",
            ),
            (
                "crates/types/src/b.rs",
                "impl T { fn get(&self, i: usize) { panic!(); } }",
            ),
        ]);
        assert!(g.edges[0].is_empty(), "bare .get() must not resolve");
    }
}
