//! The abstract syntax the workspace pass operates on.
//!
//! This is not a full Rust AST: the recursive-descent parser in
//! [`crate::parser`] recovers exactly the structure the semantic rules
//! need — the item tree (functions, impl blocks, enums, modules), and
//! inside every function body a flattened stream of *events* (calls,
//! method calls, path references with pattern/expression position, field
//! accesses, lock acquisitions, channel sends) annotated with enough
//! block structure to reason about guard lifetimes. Everything else (types, generics, expressions that
//! none of the rules inspect) is deliberately skipped over.

/// A source position (1-based line and column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One parsed `.rs` file.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Crate directory the file belongs to (`crates/kernel`), empty for
    /// files outside `crates/`.
    pub krate: String,
    /// Every function in the file, including methods (flattened out of
    /// their impl blocks; [`FnDef::self_ty`] remembers the impl type).
    pub fns: Vec<FnDef>,
    /// Every enum definition in the file.
    pub enums: Vec<EnumDef>,
}

/// An `enum` item.
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// Variant names with their definition sites.
    pub variants: Vec<(String, Span)>,
}

/// A `fn` item (free function or method).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing impl type (`Kernel` for `impl Kernel { fn f… }`), or the
    /// trait-impl target (`Frame` for `impl Wire for Frame`). Empty for
    /// free functions.
    pub self_ty: String,
    /// Whether the first parameter is a form of `self`.
    pub is_method: bool,
    /// True when the function sits inside a `#[cfg(test)]` module or is
    /// itself `#[test]`-annotated: excluded from every semantic rule.
    pub is_test: bool,
    /// Body events in source order.
    pub body: Vec<Event>,
}

impl FnDef {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qual(&self) -> String {
        if self.self_ty.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.self_ty, self.name)
        }
    }
}

/// One interesting thing that happens inside a function body.
#[derive(Clone, Debug)]
pub enum Event {
    /// A call through a path: `foo(…)`, `Type::foo(…)`, `a::b::foo(…)`.
    /// `path` holds the `::`-separated segments.
    Call { path: Vec<String>, span: Span },
    /// A method call `.name(…)`. `recv` is the last identifier of the
    /// receiver expression (`self` for `self.x().name()` chains where the
    /// chain starts at `self`; the nearest ident otherwise), best-effort.
    Method {
        name: String,
        recv: String,
        span: Span,
    },
    /// A `Path::Segment` reference that is *not* a call (no trailing
    /// parens at the path head): enum-variant constructions
    /// (struct-literal or unit form) and pattern references.
    /// `in_pattern` is true inside `match` arm patterns and
    /// `if let`/`while let`/`let … else` patterns.
    PathRef {
        path: Vec<String>,
        in_pattern: bool,
        span: Span,
    },
    /// A field access `.name` (no call parens).
    Field { name: String, span: Span },
    /// A bare identifier mention (used by the determinism and epoch rules
    /// to see locals like `epoch` and names like `SystemTime` in bodies).
    Ident { name: String, span: Span },
    /// `recv.lock()` — a mutex acquisition. `held_for_block` is true when
    /// the guard is bound by a surrounding `let`/`if let` (held to the end
    /// of the enclosing block), false for a temporary (held to the end of
    /// the statement). `depth` is the brace depth at the acquisition.
    Lock {
        recv: String,
        depth: u32,
        held_for_block: bool,
        span: Span,
    },
    /// `recv.send(…)` / `recv.recv()` — a channel endpoint operation.
    ChannelOp { name: String, span: Span },
    /// A block closed (brace depth after closing).
    BlockClose { depth: u32 },
    /// End of a statement (`;` at statement level).
    StmtEnd { depth: u32 },
}
