//! demos-lint — workspace-wide determinism & protocol static analysis.
//!
//! Everything the DEMOS/MP reproduction measures (message counts, byte
//! counts, forwarding hops, chaos seeds, recovery timelines) rests on two
//! properties nothing in the type system enforces:
//!
//! 1. **bit-for-bit determinism** — the same seed must replay the same
//!    schedule forever (corpus files, shrunk repros, CI smoke seeds);
//! 2. **byte-exact wire encoding** — §2.1/Fig 2-1 message layouts are
//!    pinned by tests, but a lossy cast or hasher-ordered iteration can
//!    corrupt them silently.
//!
//! This crate enforces both mechanically, in two phases. Phase 1 runs the
//! **lexical** rules over each file's token stream; phase 2 parses every
//! file into a small AST, resolves a workspace-wide call graph and runs
//! the **semantic** rules over flows no single file can show.
//!
//! | code | phase | rule |
//! |------|-------|------|
//! | D001 | lexical  | no `HashMap`/`HashSet` (hasher-ordered iteration) in sim-visible crates |
//! | D002 | lexical  | no `SystemTime`/`Instant::now`/`thread_rng` |
//! | D003 | lexical  | no catch-all `_ =>` in matches over protocol/engine enums |
//! | D004 | lexical  | no `unwrap`/`expect`/`panic!` in kernel/net/core handler paths |
//! | D005 | lexical  | no `as` integer casts in the `types` codecs (checked conversions only) |
//! | D006 | semantic | no panic reachable *transitively* from a protocol handler |
//! | D007 | semantic | every wire-enum variant constructed and consumed outside its codec |
//! | D008 | semantic | no determinism taint flowing into sim-visible code through calls |
//! | D009 | semantic | frame payload handling must consult the connection epoch |
//! | D010 | semantic | stable lock order; never block on a channel under a mutex |
//!
//! Suppress a finding with an inline escape hatch that *requires a
//! justification*: `// lint:allow(D002 native runtime: wall clock IS the
//! time source)`. The directive covers its own line and the next; if a
//! block opens on a covered line, it covers through the matching `}`. A
//! directive that suppresses nothing is reported as a stale-allow
//! warning (and `--fix` removes it) — allows must not outlive the code
//! they excuse.
//!
//! Run as `cargo run -p demos-lint -- check` (human output),
//! `-- check --format json|sarif` (machine output, `--output PATH` to
//! write a file), or `-- check --fix` to apply the mechanical fixes.
//! Exit code 0 = clean (zero findings *and* zero stale allows),
//! 1 = findings, 2 = usage/IO error.

pub mod ast;
pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod rules_sem;
pub mod symbols;

pub use diag::{Code, Diagnostic, Report, StaleAllow};
pub use engine::{analyze_source, check_workspace, fix_workspace, scope_for};
pub use rules::Scope;
