//! The semantic D-rules (D006–D010), run over the whole workspace after
//! every file is parsed and the call graph is resolved.
//!
//! Where the lexical rules (D001–D005) see one token stream at a time,
//! these see *flows*: panic reachability across crates (D006), protocol
//! variants wired end to end (D007), nondeterminism taint propagating
//! through calls (D008), frame handling that bypasses the connection
//! epoch (D009), and lock ordering in the multithreaded campaign driver
//! (D010). The seven recovery-path bugs PR 7's fuzzer found one
//! interleaving at a time are exactly this class — a static pass catches
//! them before a single execution.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Event, FileAst};
use crate::callgraph::CallGraph;
use crate::diag::{Code, Diagnostic};
use crate::symbols::Symbols;

/// Crates whose handler entry points root the D006 reachability scan.
const HANDLER_CRATES: [&str; 4] = [
    "crates/kernel",
    "crates/net",
    "crates/core",
    "crates/sysproc",
];

/// Crates D004 already covers lexically: panic *sites* there are not
/// re-reported by D006 (the reachability rule adds the cross-crate view,
/// not a duplicate of the lexical one).
const D004_CRATES: [&str; 3] = ["crates/kernel", "crates/net", "crates/core"];

/// Handler-shaped function names: message/timer/fault entry points.
const ROOT_PREFIXES: [&str; 2] = ["on_", "handle"];
const ROOT_EXACT: [&str; 6] = ["submit", "run_next", "drain", "kill", "deliver", "poll"];

/// Sim-visible crates (D008's protected scope — mirrors the engine's
/// D001 scope).
const SIM_VISIBLE: [&str; 8] = [
    "crates/types",
    "crates/net",
    "crates/kernel",
    "crates/core",
    "crates/sim",
    "crates/chaos",
    "crates/rt",
    "crates/policy",
];

/// The wire-protocol enums defined in `crates/types` whose variants must
/// be fully wired (D007).
pub const WIRE_ENUMS: [&str; 6] = [
    "KernelOp",
    "MigrateMsg",
    "MoveDataMsg",
    "LinkMaintMsg",
    "RejectReason",
    "AreaSel",
];

/// Panic-inducing macros (shared with the lexical D004).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Ambient-entropy identifiers (shared with the lexical D002).
const ENTROPY_IDENTS: [&str; 4] = ["SystemTime", "thread_rng", "OsRng", "from_entropy"];

/// Context handed to the semantic pass by the engine.
pub struct SemCtx<'a> {
    /// Every parsed file, index-aligned with the symbol table.
    pub files: &'a [FileAst],
    /// Symbols over `files`.
    pub sym: &'a Symbols,
    /// Resolved call graph over `files`.
    pub graph: &'a CallGraph,
    /// Is the site (file index, code, line) suppressed by a
    /// `lint:allow`? Used to keep *sanctioned* sources (the allowed
    /// wall-clock reads) from seeding the D008 taint.
    pub is_allowed: &'a dyn Fn(usize, Code, u32) -> bool,
}

/// Run all five semantic rules; diagnostics come back unsorted (the
/// engine merges and orders them per file).
pub fn run(ctx: &SemCtx) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    d006_panic_reachability(ctx, &mut diags);
    d007_protocol_flow(ctx, &mut diags);
    d008_determinism_taint(ctx, &mut diags);
    d009_epoch_discipline(ctx, &mut diags);
    d010_lock_discipline(ctx, &mut diags);
    diags
}

fn push(
    diags: &mut Vec<Diagnostic>,
    code: Code,
    file: &str,
    span: crate::ast::Span,
    message: String,
) {
    diags.push(Diagnostic {
        code,
        file: file.to_string(),
        line: span.line,
        col: span.col,
        message,
    });
}

/// Is this function a handler root for D006?
fn is_root(f: &crate::ast::FnDef, krate: &str) -> bool {
    if f.is_test || !HANDLER_CRATES.contains(&krate) {
        return false;
    }
    ROOT_PREFIXES.iter().any(|p| f.name.starts_with(p)) || ROOT_EXACT.contains(&f.name.as_str())
}

/// D006 — panic reachability: no path from a handler entry point may
/// reach `unwrap`/`expect`/`panic!` — transitively, across crates, not
/// just lexically (which is all D004 can see).
fn d006_panic_reachability(ctx: &SemCtx, diags: &mut Vec<Diagnostic>) {
    let mut roots: Vec<usize> = Vec::new();
    for (id, &(fi, gi)) in ctx.sym.fns.iter().enumerate() {
        let file = &ctx.files[fi];
        if is_root(&file.fns[gi], &file.krate) {
            roots.push(id);
        }
    }
    if roots.is_empty() {
        return;
    }
    let reach = ctx.graph.reach_from(&roots);
    for &id in reach.keys() {
        let (fi, gi) = ctx.sym.fns[id];
        let file = &ctx.files[fi];
        let f = &file.fns[gi];
        if f.is_test || D004_CRATES.contains(&file.krate.as_str()) {
            // Lexical D004 owns panic sites inside the handler crates
            // themselves; D006 adds the cross-crate view.
            continue;
        }
        for ev in &f.body {
            let (what, span) = match ev {
                Event::Method { name, span, .. } if name == "unwrap" || name == "expect" => {
                    (format!(".{name}()"), *span)
                }
                Event::Macro { name, span } if PANIC_MACROS.contains(&name.as_str()) => {
                    (format!("{name}!"), *span)
                }
                _ => continue,
            };
            let path = ctx.graph.path_to(&reach, id, ctx.files, ctx.sym);
            push(
                diags,
                Code::D006,
                &file.rel,
                span,
                format!(
                    "`{what}` in `{}` can abort a kernel mid-protocol: it is reachable from \
                     handler `{}` (call path {}); degrade gracefully (drop/trace/count) or \
                     propagate a `DemosError` instead",
                    f.qual(),
                    path.first().cloned().unwrap_or_default(),
                    path.join(" -> ")
                ),
            );
        }
    }
}

/// D007 — protocol-flow completeness: every variant of the wire enums in
/// `crates/types` must be constructed somewhere AND matched by some
/// consumer *outside* the defining codec crate. A variant only its own
/// encode/decode tables know about is dead protocol surface.
fn d007_protocol_flow(ctx: &SemCtx, diags: &mut Vec<Diagnostic>) {
    // Usage census outside crates/types, non-test fns only.
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut matched: BTreeSet<(String, String)> = BTreeSet::new();
    for file in ctx.files {
        if file.krate == "crates/types" {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for ev in &f.body {
                let (path, in_pattern) = match ev {
                    Event::PathRef {
                        path, in_pattern, ..
                    } => (path, *in_pattern),
                    Event::Call { path, .. } => (path, false),
                    _ => continue,
                };
                if path.len() < 2 {
                    continue;
                }
                let e = &path[path.len() - 2];
                let v = &path[path.len() - 1];
                if WIRE_ENUMS.contains(&e.as_str()) {
                    if in_pattern {
                        matched.insert((e.clone(), v.clone()));
                    } else {
                        constructed.insert((e.clone(), v.clone()));
                    }
                }
            }
        }
    }
    // Check the definitions.
    for name in WIRE_ENUMS {
        let Some(&(fi, ei)) = ctx.sym.enums.get(name) else {
            continue;
        };
        let file = &ctx.files[fi];
        if file.krate != "crates/types" {
            continue; // a fixture shadowing a real name; judge it there
        }
        let def = &file.enums[ei];
        for (variant, span) in &def.variants {
            let key = (name.to_string(), variant.clone());
            if !constructed.contains(&key) {
                push(
                    diags,
                    Code::D007,
                    &file.rel,
                    *span,
                    format!(
                        "wire variant `{name}::{variant}` is never constructed outside its \
                         codec: dead protocol surface — wire a producer for it or retire the \
                         variant (a tag no sender emits hides protocol drift)"
                    ),
                );
            }
            if !matched.contains(&key) {
                push(
                    diags,
                    Code::D007,
                    &file.rel,
                    *span,
                    format!(
                        "wire variant `{name}::{variant}` is never matched by any consumer \
                         outside its codec: messages carrying it decode and then fall through \
                         unhandled — handle it everywhere the enum is consumed"
                    ),
                );
            }
        }
    }
}

/// D008 — determinism taint: a sim-visible function calling (directly)
/// into a non-sim-visible function that transitively reads the wall
/// clock, ambient entropy, or iterates a hash collection. Direct reads
/// inside sim-visible crates are D001/D002's job; this rule closes the
/// call-graph hole.
fn d008_determinism_taint(ctx: &SemCtx, diags: &mut Vec<Diagnostic>) {
    // 1. Directly-tainted functions (allow-suppressed sites are
    //    sanctioned and do not seed taint).
    let n = ctx.sym.fns.len();
    let mut tainted = vec![false; n];
    let mut taint_why: Vec<String> = vec![String::new(); n];
    for (id, &(fi, gi)) in ctx.sym.fns.iter().enumerate() {
        let file = &ctx.files[fi];
        let f = &file.fns[gi];
        if f.is_test {
            continue;
        }
        for ev in &f.body {
            let (why, code, line) = match ev {
                Event::Ident { name, span } | Event::Field { name, span }
                    if ENTROPY_IDENTS.contains(&name.as_str()) =>
                {
                    (format!("reads `{name}`"), Code::D002, span.line)
                }
                Event::Call { path, span }
                    if path.iter().any(|s| ENTROPY_IDENTS.contains(&s.as_str())) =>
                {
                    (
                        format!("calls `{}`", path.join("::")),
                        Code::D002,
                        span.line,
                    )
                }
                Event::Method { name, span, .. } if name == "from_entropy" => {
                    ("seeds from entropy".to_string(), Code::D002, span.line)
                }
                Event::Call { path, span }
                    if path.len() >= 2
                        && path[path.len() - 2] == "Instant"
                        && path[path.len() - 1] == "now" =>
                {
                    ("reads `Instant::now()`".to_string(), Code::D002, span.line)
                }
                Event::PathRef { path, span, .. }
                    if path.first().is_some_and(|s| s == "Instant")
                        && path.last().is_some_and(|s| s == "now") =>
                {
                    ("reads `Instant::now`".to_string(), Code::D002, span.line)
                }
                Event::Ident { name, span }
                    if (name == "HashMap" || name == "HashSet")
                        && !SIM_VISIBLE.contains(&file.krate.as_str()) =>
                {
                    // Inside sim-visible crates D001 flags the use itself.
                    (
                        format!("iterates a `{name}` (hasher-dependent order)"),
                        Code::D001,
                        span.line,
                    )
                }
                Event::Call { path, span }
                    if path.iter().any(|s| s == "HashMap" || s == "HashSet")
                        && !SIM_VISIBLE.contains(&file.krate.as_str()) =>
                {
                    (
                        "builds a hash collection (hasher-dependent order)".to_string(),
                        Code::D001,
                        span.line,
                    )
                }
                _ => continue,
            };
            if (ctx.is_allowed)(fi, code, line) {
                continue;
            }
            tainted[id] = true;
            taint_why[id] = why;
            break;
        }
    }
    // 2. Propagate backwards: caller of a tainted fn is tainted.
    loop {
        let mut changed = false;
        for id in 0..n {
            if tainted[id] {
                continue;
            }
            for &(callee, _) in &ctx.graph.edges[id] {
                if tainted[callee] {
                    tainted[id] = true;
                    let (cfi, cgi) = ctx.sym.fns[callee];
                    taint_why[id] = format!(
                        "calls `{}` which {}",
                        ctx.files[cfi].fns[cgi].qual(),
                        short_why(&taint_why[callee])
                    );
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // 3. Report the frontier: sim-visible caller → tainted callee in a
    //    non-sim-visible crate.
    for (id, &(fi, gi)) in ctx.sym.fns.iter().enumerate() {
        let file = &ctx.files[fi];
        let f = &file.fns[gi];
        if f.is_test || !SIM_VISIBLE.contains(&file.krate.as_str()) {
            continue;
        }
        for &(callee, span) in &ctx.graph.edges[id] {
            let (cfi, cgi) = ctx.sym.fns[callee];
            let callee_file = &ctx.files[cfi];
            if !tainted[callee] || SIM_VISIBLE.contains(&callee_file.krate.as_str()) {
                continue;
            }
            let cq = callee_file.fns[cgi].qual();
            push(
                diags,
                Code::D008,
                &file.rel,
                span,
                format!(
                    "determinism taint: `{}` calls `{cq}`, which {} — sim-visible code must \
                     take time from the simulation clock, randomness from the seeded RNG and \
                     iteration order from ordered collections",
                    f.qual(),
                    short_why(&taint_why[callee])
                ),
            );
        }
    }
}

/// Trim a nested taint chain explanation to one hop for readability.
fn short_why(why: &str) -> &str {
    match why.find(" which ") {
        Some(i) => &why[..i],
        None => why,
    }
}

/// D009 — epoch discipline: any function destructuring `Frame::Data` /
/// `Frame::Ack` (the payload-bearing frames) must consult the connection
/// epoch, so stale-incarnation frames can never enter the sequence
/// space. The defining codec (`crates/net/src/frame.rs`) is exempt: its
/// accessors *are* the abstraction.
fn d009_epoch_discipline(ctx: &SemCtx, diags: &mut Vec<Diagnostic>) {
    for file in ctx.files {
        if file.rel == "crates/net/src/frame.rs" {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let mut frame_pat: Option<crate::ast::Span> = None;
            let mut mentions_epoch = false;
            for ev in &f.body {
                match ev {
                    Event::PathRef {
                        path,
                        in_pattern: true,
                        span,
                    } if path.len() >= 2
                        && path[path.len() - 2] == "Frame"
                        && (path[path.len() - 1] == "Data" || path[path.len() - 1] == "Ack") =>
                    {
                        frame_pat.get_or_insert(*span);
                    }
                    Event::Ident { name, .. } | Event::Field { name, .. } if name == "epoch" => {
                        mentions_epoch = true;
                    }
                    Event::Method { name, .. } if name == "epoch" || name == "reset_peer" => {
                        mentions_epoch = true;
                    }
                    _ => {}
                }
            }
            if let Some(span) = frame_pat {
                if !mentions_epoch {
                    push(
                        diags,
                        Code::D009,
                        &file.rel,
                        span,
                        format!(
                            "`{}` destructures `Frame::Data`/`Frame::Ack` without consulting \
                             the connection epoch: a straggler frame from a dead incarnation \
                             would enter the current sequence space — compare `Frame::epoch()` \
                             against the channel's epoch (as `Endpoint::on_frame` does) before \
                             touching the payload",
                            f.qual()
                        ),
                    );
                }
            }
        }
    }
}

/// D010 — lock discipline for the multithreaded drivers: a stable total
/// order on mutex acquisition (per crate, keyed by receiver name), no
/// nested acquisition of the same receiver, and no blocking channel op
/// while any guard is held.
fn d010_lock_discipline(ctx: &SemCtx, diags: &mut Vec<Diagnostic>) {
    // (crate, first, second) → earliest occurrence site.
    let mut pairs: BTreeMap<(String, String, String), (String, crate::ast::Span, String)> =
        BTreeMap::new();
    for file in ctx.files {
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            // Held guards: (receiver, depth, held_for_block).
            let mut held: Vec<(String, u32, bool)> = Vec::new();
            for ev in &f.body {
                match ev {
                    Event::Lock {
                        recv,
                        depth,
                        held_for_block,
                        span,
                    } => {
                        for (h, _, _) in &held {
                            if h == recv {
                                push(
                                    diags,
                                    Code::D010,
                                    &file.rel,
                                    *span,
                                    format!(
                                        "`{}` re-acquires mutex `{recv}` while already \
                                         holding it: instant self-deadlock on \
                                         `std::sync::Mutex`",
                                        f.qual()
                                    ),
                                );
                            } else {
                                pairs
                                    .entry((file.krate.clone(), h.clone(), recv.clone()))
                                    .or_insert((file.rel.clone(), *span, f.qual()));
                            }
                        }
                        held.push((recv.clone(), *depth, *held_for_block));
                    }
                    Event::ChannelOp { name, span, .. } if name != "try_send" => {
                        if let Some((h, _, _)) = held.first() {
                            push(
                                diags,
                                Code::D010,
                                &file.rel,
                                *span,
                                format!(
                                    "`{}` performs a blocking channel `{name}` while holding \
                                     mutex `{h}`: if the peer needs that lock to make \
                                     progress the campaign driver deadlocks — drop the guard \
                                     before touching the channel",
                                    f.qual()
                                ),
                            );
                        }
                    }
                    Event::StmtEnd { depth } => {
                        held.retain(|(_, d, for_block)| *for_block || d < depth);
                    }
                    Event::BlockClose { depth } => {
                        held.retain(|(_, d, _)| d <= depth);
                    }
                    _ => {}
                }
            }
        }
    }
    // Lock-order inversions: (A, B) and (B, A) both present in one crate.
    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    for ((krate, a, b), (file, span, fq)) in &pairs {
        if a >= b {
            continue;
        }
        let Some((ofile, ospan, ofq)) = pairs.get(&(krate.clone(), b.clone(), a.clone())) else {
            continue;
        };
        if !reported.insert((krate.clone(), a.clone(), b.clone())) {
            continue;
        }
        // Report at the lexically later of the two sites (deterministic).
        let (rfile, rspan, rfq, other_file, other_span, first, second) =
            if (file, span.line, span.col) > (ofile, ospan.line, ospan.col) {
                (file, *span, fq, ofile, *ospan, a, b)
            } else {
                (ofile, *ospan, ofq, file, *span, b, a)
            };
        push(
            diags,
            Code::D010,
            rfile,
            rspan,
            format!(
                "lock-order inversion in `{rfq}`: mutex `{second}` is acquired while \
                 `{first}` is held here, but `{other_file}:{} acquires them in the opposite \
                 order — pick one total order and keep it",
                other_span.line
            ),
        );
    }
}
