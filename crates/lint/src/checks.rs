//! The checks (D002, D007–D010), run over the whole workspace once every
//! file is parsed and the call graph is resolved.
//!
//! Each sees what no per-file lint can: wall-clock and entropy reads, and
//! the taint they spread through calls into sim-visible code (D002,
//! D008); protocol variants wired end to end (D007); frame handling that
//! bypasses the connection epoch (D009); and lock ordering in the
//! multithreaded campaign driver (D010). The seven recovery-path bugs the
//! fuzzer once found one interleaving at a time are exactly this class —
//! a static pass catches them before a single execution. The rules a
//! lint level expresses (D001, D003–D006) are clippy's (DESIGN.md §8).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Event, FileAst, Span};
use crate::callgraph::CallGraph;
use crate::diag::{Code, Diagnostic};
use crate::symbols::Symbols;

/// Sim-visible crates: D008 protects them from taint.
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

/// Ambient-entropy names (D002): a mention anywhere in a function body is
/// a read. `Instant` is only a source as `Instant::now`, so type
/// positions (the native runtime's struct fields) may still name it.
const ENTROPY_IDENTS: [&str; 4] = ["SystemTime", "thread_rng", "OsRng", "from_entropy"];

/// Context handed to the checks by the engine.
pub(crate) struct Ctx<'a> {
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

/// Run every check; diagnostics come back unsorted (the engine merges
/// and orders them per file).
pub(crate) fn run(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    determinism(ctx, &mut diags);
    d007_protocol_flow(ctx, &mut diags);
    d009_epoch_discipline(ctx, &mut diags);
    d010_lock_discipline(ctx, &mut diags);
    diags
}

fn push(diags: &mut Vec<Diagnostic>, code: Code, file: &str, span: Span, message: String) {
    diags.push(Diagnostic {
        code,
        file: file.to_string(),
        line: span.line,
        col: span.col,
        message,
    });
}

/// D007 — protocol-flow completeness: every variant of the wire enums in
/// `crates/types` must be constructed somewhere AND matched by some
/// consumer *outside* the defining codec crate. A variant only its own
/// encode/decode tables know about is dead protocol surface.
fn d007_protocol_flow(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
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

/// The wall-clock or entropy read an event makes, if any: an
/// [`ENTROPY_IDENTS`] name in any position, or `Instant::now`.
fn entropy_read(ev: &Event) -> Option<(String, Span)> {
    let named = |s: &String| ENTROPY_IDENTS.contains(&s.as_str());
    match ev {
        Event::Ident { name, span }
        | Event::Field { name, span }
        | Event::Method { name, span, .. }
            if named(name) =>
        {
            Some((format!("`{name}`"), *span))
        }
        Event::Call { path, span } | Event::PathRef { path, span, .. } => {
            let now = path.windows(2).any(|w| w[0] == "Instant" && w[1] == "now");
            (now || path.iter().any(named)).then(|| (format!("`{}`", path.join("::")), *span))
        }
        _ => None,
    }
}

/// D002 and D008 — determinism. Every wall-clock or entropy read in a
/// non-test function is a D002 finding at its site. A read no `lint:allow`
/// sanctions also taints its function; taint closes backwards over the
/// call graph, and D008 fires at the frontier: a sim-visible function
/// calling a tainted function in a crate that is not sim-visible.
fn determinism(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    // 1. Report every read; the unsanctioned ones seed the taint.
    let n = ctx.sym.fns.len();
    let mut taint_why: Vec<Option<String>> = vec![None; n];
    for (id, &(fi, gi)) in ctx.sym.fns.iter().enumerate() {
        let file = &ctx.files[fi];
        let f = &file.fns[gi];
        if f.is_test {
            continue;
        }
        for (what, span) in f.body.iter().filter_map(entropy_read) {
            if taint_why[id].is_none() && !(ctx.is_allowed)(fi, Code::D002, span.line) {
                taint_why[id] = Some(format!("reads {what}"));
            }
            push(
                diags,
                Code::D002,
                &file.rel,
                span,
                format!(
                    "{what} reads the wall clock or ambient entropy, which breaks seeded \
                     replay: take time from the simulation clock and randomness from the \
                     seeded RNG"
                ),
            );
        }
    }
    // 2. Propagate backwards: caller of a tainted fn is tainted.
    loop {
        let mut changed = false;
        for id in 0..n {
            if taint_why[id].is_some() {
                continue;
            }
            let Some(&(callee, _)) = ctx.graph.edges[id]
                .iter()
                .find(|&&(c, _)| taint_why[c].is_some())
            else {
                continue;
            };
            let (cfi, cgi) = ctx.sym.fns[callee];
            taint_why[id] = Some(format!(
                "calls `{}` which {}",
                ctx.files[cfi].fns[cgi].qual(),
                short_why(taint_why[callee].as_deref().unwrap_or_default())
            ));
            changed = true;
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
            let Some(why) = &taint_why[callee] else {
                continue;
            };
            if SIM_VISIBLE.contains(&callee_file.krate.as_str()) {
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
                     take time from the simulation clock and randomness from the seeded RNG",
                    f.qual(),
                    short_why(why)
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
fn d009_epoch_discipline(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    for file in ctx.files {
        if file.rel == "crates/net/src/frame.rs" {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let mut frame_pat: Option<Span> = None;
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
fn d010_lock_discipline(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    // (crate, first, second) → earliest occurrence site.
    let mut pairs: BTreeMap<(String, String, String), (String, Span, String)> = BTreeMap::new();
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
