//! Workspace symbol table: every function and enum across all parsed
//! files, indexed for the call-graph resolver, plus the crate dependency
//! closure used to reject impossible cross-crate edges.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::ast::FileAst;

/// Index of one function: (file index, fn index within the file).
pub type FnId = usize;

/// A resolved view over every parsed file.
pub struct Symbols {
    /// Flat list: `fns[id] = (file_idx, fn_idx)`.
    pub fns: Vec<(usize, usize)>,
    /// Function name → candidate ids.
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// Enum name → (file_idx, enum_idx). First definition wins (enum
    /// names the rules watch are unique across the workspace).
    pub enums: BTreeMap<String, (usize, usize)>,
    /// Crate dir (`crates/kernel`) → transitive dependency closure
    /// (including itself). Empty map = permissive (fixture mode).
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

impl Symbols {
    /// Build the table over `files`. `deps` comes from
    /// [`load_dep_closure`]; pass an empty map to allow every edge.
    pub fn build(files: &[FileAst], deps: BTreeMap<String, BTreeSet<String>>) -> Symbols {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut enums = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let id = fns.len();
                fns.push((fi, gi));
                by_name.entry(f.name.clone()).or_default().push(id);
            }
            for (ei, e) in file.enums.iter().enumerate() {
                enums.entry(e.name.clone()).or_insert((fi, ei));
            }
        }
        Symbols {
            fns,
            by_name,
            enums,
            deps,
        }
    }

    /// May code in `from` (a crate dir) call code in `to`? True when the
    /// dependency map is empty (fixtures), when either crate is unknown
    /// (files outside `crates/`), or when `to` is in `from`'s closure.
    pub fn can_depend(&self, from: &str, to: &str) -> bool {
        if from == to || self.deps.is_empty() || from.is_empty() || to.is_empty() {
            return true;
        }
        match self.deps.get(from) {
            Some(closure) => closure.contains(to),
            None => true,
        }
    }
}

/// Parse `crates/*/Cargo.toml` under `root` for `demos-*` path
/// dependencies and compute each crate's transitive closure. The manifest
/// grammar needed here is one line per dependency mentioning the crate
/// name — exactly how this workspace's manifests are written.
pub fn load_dep_closure(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return BTreeMap::new();
    };
    let mut dirs: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let key = format!("crates/{name}");
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let mut deps = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            // `demos-types.workspace = true` / `demos-types = { path … }`
            if let Some(dep) = line.strip_prefix("demos-") {
                let dep_name: String = dep
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let dep_key = format!("crates/{dep_name}");
                if dep_key != key && !dep_name.is_empty() {
                    deps.insert(dep_key);
                }
            }
        }
        direct.insert(key, deps);
    }
    // Transitive closure (the graph is tiny; iterate to fixpoint).
    let mut closure = direct.clone();
    loop {
        let mut changed = false;
        let keys: Vec<String> = closure.keys().cloned().collect();
        for k in &keys {
            let reach: Vec<String> = closure[k].iter().cloned().collect();
            for r in reach {
                let extra: Vec<String> = closure
                    .get(&r)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                let set = closure.get_mut(k).expect("key exists");
                for e in extra {
                    if e != *k && set.insert(e) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    #[test]
    fn indexes_fns_and_enums() {
        let lexed = lexer::lex("enum E { A } impl K { fn f(&self) {} } fn f() {}");
        let ast = parser::parse("crates/kernel/src/a.rs", &lexed.toks);
        let sym = Symbols::build(std::slice::from_ref(&ast), BTreeMap::new());
        assert_eq!(sym.by_name["f"].len(), 2);
        assert!(sym.enums.contains_key("E"));
        assert!(sym.can_depend("crates/kernel", "crates/types"));
    }

    #[test]
    fn dep_closure_is_transitive_on_real_manifests() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let closure = load_dep_closure(&root);
        if closure.is_empty() {
            return; // standalone checkout without the workspace
        }
        let core = &closure["crates/core"];
        assert!(core.contains("crates/kernel"));
        assert!(core.contains("crates/types"), "transitive via kernel/net");
        assert!(!closure["crates/types"].contains("crates/kernel"));
    }
}
