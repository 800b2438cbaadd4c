//! demos-lint — the workspace's determinism & protocol checks that no
//! clippy lint level can express.
//!
//! Everything the DEMOS/MP reproduction measures (message counts, byte
//! counts, forwarding hops, chaos seeds, recovery timelines) rests on
//! **bit-for-bit determinism** — the same seed must replay the same
//! schedule forever (corpus files, shrunk repros, CI smoke seeds) — and
//! on kernels that keep running through a partner's crash.
//!
//! The per-site rules are clippy lint levels on the crates they guard
//! (root `clippy.toml`, each crate's `lib.rs`); CI and tier-1 run clippy
//! with `-D warnings`. This crate keeps the rest, in one pass: it lexes
//! and parses every file into a small AST, resolves a workspace-wide
//! call graph, and checks flows no single site shows.
//!
//! | code | rule | enforced by |
//! |------|------|-------------|
//! | D001 | no hash collections (hasher-ordered iteration) | `clippy::disallowed_types` |
//! | D002 | no `SystemTime`/`Instant::now`/`thread_rng` | demos-lint |
//! | D003 | no catch-all arm over an enum (not through a tuple or `Option`) | `clippy::wildcard_enum_match_arm` |
//! | D004 | no `unwrap`/`expect`/`panic!` in handler crates | `clippy::unwrap_used` & co. |
//! | D005 | no `as` conversions in the `types` codecs | `clippy::as_conversions` |
//! | D006 | no panic reachable from a handler | D004's levels on the handlers' dependency closure |
//! | D007 | every wire-enum variant constructed and consumed outside its codec | demos-lint |
//! | D008 | no determinism taint flowing into sim-visible code through calls | demos-lint |
//! | D009 | frame payload handling must consult the connection epoch | demos-lint |
//! | D010 | stable lock order; never block on a channel under a mutex | demos-lint |
//!
//! Suppress a finding with an inline escape hatch that *requires a
//! justification*: `// lint:allow(D002 native runtime: wall clock IS the
//! time source)`. The directive covers its own line and the next; if a
//! block opens on a covered line, it covers through the matching `}`. A
//! directive that suppresses nothing is reported as a stale-allow
//! warning — allows must not outlive the code they excuse.
//!
//! Run as `cargo run -p demos-lint -- check` (human output) or
//! `-- check --format sarif` (code scanning; `--output PATH` writes a
//! file). Exit code 0 = clean (zero findings *and* zero stale allows),
//! 1 = findings, 2 = usage/IO error.

pub mod ast;
pub mod callgraph;
pub mod checks;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod symbols;

pub use diag::{Code, Diagnostic, Report, StaleAllow};
pub use engine::check_workspace;
