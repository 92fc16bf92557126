//! Workspace module graph and name-resolved intra-crate call graph.
//!
//! Built on the [`crate::parser`] ASTs for one crate's `src/` tree.
//! Resolution is deliberately best-effort and *deterministic*:
//!
//! - Free-function paths resolve through the file's `use` aliases,
//!   `crate::`/`self::`/`super::` prefixes, glob imports, and the
//!   module hierarchy implied by file layout (`src/foo/bar.rs` →
//!   `foo::bar`; inline `mod` blocks extend the path).
//! - Method calls resolve by receiver when it is `self` or a local
//!   with an inferable type (`let x: Mutex<T>`, `let x = Type::new()`,
//!   a `Type { … }` literal); otherwise a method name that is unique
//!   in the crate resolves to its one definition, and ambiguous names
//!   are dropped rather than over-approximated — edges the panic
//!   ratchet cannot justify are worse than edges it misses.
//! - Cross-crate calls are out of scope.
//!
//! Everything is keyed and ordered with `BTreeMap`/`BTreeSet` so two
//! runs over the same tree produce byte-identical graphs.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::ast::{Expr, File, FnItem, Item, ItemKind, Stmt};
use crate::lexer::{mask, Masked};
use crate::parser::parse_file;

/// One parsed source file of the crate.
pub struct SourceFile {
    /// Path relative to the crate directory, `/`-separated
    /// (`src/engine.rs`).
    pub rel: String,
    /// The masked token streams (for suppression parsing).
    pub masked: Masked,
    /// The original source lines (for finding snippets).
    pub lines: Vec<String>,
    /// The parsed AST.
    pub ast: File,
    /// The module path the file roots (`src/foo/bar.rs` → `foo::bar`).
    pub module: Vec<String>,
}

/// One function in the graph.
pub struct FnNode {
    /// Unique key: `module::Owner::name`, `#line`-suffixed on
    /// collision (cfg-gated duplicates).
    pub key: String,
    /// The function's name.
    pub name: String,
    /// Enclosing impl/trait type name, for associated fns.
    pub owner: Option<String>,
    /// Module path (file module plus inline mods).
    pub module: Vec<String>,
    /// Index into [`CrateGraph::files`].
    pub file: usize,
    /// 0-based first line (attributes included).
    pub line: usize,
    /// 0-based last line.
    pub end_line: usize,
    /// True under `#[test]`, `#[cfg(test)]`, or an ancestor test mod.
    pub is_test: bool,
    /// The parsed function (signature + body).
    pub item: FnItem,
}

/// The per-crate call graph.
pub struct CrateGraph {
    /// The crate's name (workspace unit name, e.g. `qcpa-sim`).
    pub crate_name: String,
    /// Parsed files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Function nodes, in (file, source) order.
    pub fns: Vec<FnNode>,
    /// Key → index into `fns`.
    pub by_key: BTreeMap<String, usize>,
    /// Call edges: `calls[i]` is the set of fns `fns[i]` may call.
    pub calls: Vec<BTreeSet<usize>>,
}

/// Maps a crate-relative file path to its module path.
fn module_path(rel: &str) -> Vec<String> {
    let p = rel.strip_prefix("src/").unwrap_or(rel);
    let mut parts: Vec<&str> = p.split('/').collect();
    let file = parts.pop().unwrap_or("");
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let mut module: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    if !matches!(stem, "lib" | "main" | "mod") {
        module.push(stem.to_string());
    }
    module
}

/// Per-file name-resolution context.
struct FileScope {
    /// `alias → absolute-ish path` from use leaves. Paths starting
    /// with an external crate name stay unresolvable, which is fine.
    aliases: BTreeMap<String, Vec<String>>,
    /// Module paths glob-imported (`use super::*`).
    globs: Vec<Vec<String>>,
}

impl FileScope {
    fn build(file_module: &[String], items: &[Item]) -> FileScope {
        let mut scope = FileScope {
            aliases: BTreeMap::new(),
            globs: Vec::new(),
        };
        collect_uses(items, file_module, &mut scope);
        scope
    }
}

fn collect_uses(items: &[Item], module: &[String], scope: &mut FileScope) {
    for item in items {
        match &item.kind {
            ItemKind::Use { leaves } => {
                for leaf in leaves {
                    let abs = absolutize(&leaf.path, module);
                    if leaf.alias == "*" {
                        scope.globs.push(abs);
                    } else {
                        scope.aliases.insert(leaf.alias.clone(), abs);
                    }
                }
            }
            ItemKind::Mod {
                items: Some(inner),
                name,
            } => {
                let mut sub = module.to_vec();
                sub.push(name.clone());
                collect_uses(inner, &sub, scope);
            }
            _ => {}
        }
    }
}

/// Resolves `crate::`/`self::`/`super::` prefixes against `module`,
/// yielding a crate-root-relative path (external paths pass through).
fn absolutize(path: &[String], module: &[String]) -> Vec<String> {
    let mut out: Vec<String>;
    let mut rest = path;
    match path.first().map(|s| s.as_str()) {
        Some("crate") => {
            out = Vec::new();
            rest = &path[1..];
        }
        Some("self") => {
            out = module.to_vec();
            rest = &path[1..];
        }
        Some("super") => {
            out = module.to_vec();
            while rest.first().is_some_and(|s| s == "super") {
                out.pop();
                rest = &rest[1..];
            }
        }
        _ => out = Vec::new(),
    }
    out.extend(rest.iter().cloned());
    out
}

impl CrateGraph {
    /// Builds the graph for the crate rooted at `dir` (reads
    /// `dir/src/**/*.rs`). Missing `src/` yields an empty graph.
    pub fn load(crate_name: &str, dir: &Path) -> io::Result<CrateGraph> {
        let mut sources = Vec::new();
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut Vec::new(), &mut sources)?;
        }
        let read: Vec<(String, String)> = sources
            .into_iter()
            .map(|rel| {
                let text = fs::read_to_string(dir.join(&rel)).unwrap_or_default();
                (rel, text)
            })
            .collect();
        Ok(Self::build(crate_name, &read))
    }

    /// Builds the graph from in-memory `(relative path, source)`
    /// pairs — the fixture and proptest entry point.
    pub fn build(crate_name: &str, sources: &[(String, String)]) -> CrateGraph {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| {
                let masked = mask(src);
                let ast = parse_file(&masked);
                SourceFile {
                    rel: rel.clone(),
                    lines: src.lines().map(|l| l.to_string()).collect(),
                    masked,
                    ast,
                    module: module_path(rel),
                }
            })
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));

        let mut graph = CrateGraph {
            crate_name: crate_name.to_string(),
            files,
            fns: Vec::new(),
            by_key: BTreeMap::new(),
            calls: Vec::new(),
        };
        for fi in 0..graph.files.len() {
            let module = graph.files[fi].module.clone();
            let items = graph.files[fi].ast.items.clone();
            graph.collect_fns(fi, &items, &module, None, false);
        }
        graph.resolve_calls();
        graph
    }

    fn collect_fns(
        &mut self,
        file: usize,
        items: &[Item],
        module: &[String],
        owner: Option<&str>,
        in_test: bool,
    ) {
        for item in items {
            let test = in_test || item.is_test();
            match &item.kind {
                ItemKind::Fn(func) => {
                    self.push_fn(file, item, func, module, owner, test);
                    if let Some(body) = &func.body {
                        self.collect_block_fns(file, body, module, owner, test);
                    }
                }
                ItemKind::Mod {
                    items: Some(inner),
                    name,
                } => {
                    let mut sub = module.to_vec();
                    sub.push(name.clone());
                    self.collect_fns(file, inner, &sub, owner, test);
                }
                ItemKind::Impl {
                    type_name, items, ..
                } => {
                    self.collect_fns(file, items, module, Some(type_name), test);
                }
                ItemKind::Trait { name, items } => {
                    self.collect_fns(file, items, module, Some(name), test);
                }
                _ => {}
            }
        }
    }

    fn collect_block_fns(
        &mut self,
        file: usize,
        block: &crate::ast::Block,
        module: &[String],
        owner: Option<&str>,
        in_test: bool,
    ) {
        for stmt in &block.stmts {
            if let Stmt::Item(item) = stmt {
                self.collect_fns(file, std::slice::from_ref(item), module, owner, in_test);
            }
        }
    }

    fn push_fn(
        &mut self,
        file: usize,
        item: &Item,
        func: &FnItem,
        module: &[String],
        owner: Option<&str>,
        is_test: bool,
    ) {
        let mut key = String::new();
        for seg in module {
            key.push_str(seg);
            key.push_str("::");
        }
        if let Some(o) = owner {
            key.push_str(o);
            key.push_str("::");
        }
        key.push_str(&func.name);
        if self.by_key.contains_key(&key) {
            key.push('#');
            key.push_str(&(item.line + 1).to_string());
        }
        let idx = self.fns.len();
        self.by_key.insert(key.clone(), idx);
        self.fns.push(FnNode {
            key,
            name: func.name.clone(),
            owner: owner.map(|s| s.to_string()),
            module: module.to_vec(),
            file,
            line: item.line,
            end_line: item.end_line,
            is_test,
            item: func.clone(),
        });
    }

    fn resolve_calls(&mut self) {
        // Lookup tables. Free fns by (module, name); associated fns by
        // (owner, name); method names globally for the unique-name
        // fallback. First definition wins on duplicates (cfg variants)
        // — deterministic because fns are in sorted-file order.
        let mut free: BTreeMap<(Vec<String>, String), usize> = BTreeMap::new();
        let mut assoc: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut by_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            match &f.owner {
                None => {
                    free.entry((f.module.clone(), f.name.clone())).or_insert(i);
                }
                Some(o) => {
                    assoc.entry((o.clone(), f.name.clone())).or_insert(i);
                    by_method.entry(f.name.clone()).or_default().push(i);
                }
            }
        }
        let scopes: Vec<FileScope> = self
            .files
            .iter()
            .map(|f| FileScope::build(&f.module, &f.ast.items))
            .collect();

        let mut calls = vec![BTreeSet::new(); self.fns.len()];
        for (i, node) in self.fns.iter().enumerate() {
            let Some(body) = &node.item.body else {
                continue;
            };
            let scope = &scopes[node.file];
            // Local type hints: `let x: Ty = …` / `let x = Ty::new()` /
            // `let x = Ty { … }` (flat, shadowing ignored).
            let mut local_ty: BTreeMap<String, String> = BTreeMap::new();
            for stmt in &body.stmts {
                if let Stmt::Let {
                    names, ty, init, ..
                } = stmt
                {
                    if let [name] = names.as_slice() {
                        if let Some(t) = ty.as_ref().and_then(|t| last_type_name(t)) {
                            local_ty.insert(name.clone(), t);
                        } else if let Some(t) = init.as_ref().and_then(init_type_name) {
                            local_ty.insert(name.clone(), t);
                        }
                    }
                }
            }
            let edges = &mut calls[i];
            body.walk(&mut |e| match e {
                Expr::Call { callee, .. } => {
                    if let Some(segs) = callee.as_path() {
                        if let Some(t) = self.resolve_path(segs, &node.module, scope, &free, &assoc)
                        {
                            edges.insert(t);
                        }
                    }
                }
                Expr::Path { segs, .. } => {
                    // Fn references passed as values (`map(helper)`).
                    if let Some(t) = self.resolve_path(segs, &node.module, scope, &free, &assoc) {
                        edges.insert(t);
                    }
                }
                Expr::MethodCall { recv, name, .. } => {
                    if let Some(t) = self.resolve_method(
                        recv,
                        name,
                        node.owner.as_deref(),
                        &local_ty,
                        &assoc,
                        &by_method,
                    ) {
                        edges.insert(t);
                    }
                }
                _ => {}
            });
        }
        self.calls = calls;
    }

    fn resolve_path(
        &self,
        segs: &[String],
        module: &[String],
        scope: &FileScope,
        free: &BTreeMap<(Vec<String>, String), usize>,
        assoc: &BTreeMap<(String, String), usize>,
    ) -> Option<usize> {
        if segs.is_empty() {
            return None;
        }
        // Expand a use alias on the head segment.
        let expanded: Vec<String> = match scope.aliases.get(&segs[0]) {
            Some(path) => path.iter().chain(segs[1..].iter()).cloned().collect(),
            None => absolutize(segs, module),
        };
        let (name, prefix) = expanded.split_last()?;
        // Candidate module contexts, most specific first.
        let mut contexts: Vec<Vec<String>> = Vec::new();
        if segs.first().is_some_and(|s| {
            s == "crate" || s == "self" || s == "super" || scope.aliases.contains_key(s)
        }) {
            contexts.push(prefix.to_vec());
        } else {
            // Relative path: current module, then crate root, then
            // glob-imported modules.
            let mut rel = module.to_vec();
            rel.extend(prefix.iter().cloned());
            contexts.push(rel);
            contexts.push(prefix.to_vec());
            for g in &scope.globs {
                let mut p = g.clone();
                p.extend(prefix.iter().cloned());
                contexts.push(p);
            }
        }
        for ctx in &contexts {
            if let Some(&i) = free.get(&(ctx.clone(), name.clone())) {
                return Some(i);
            }
        }
        // `Type::method` — the owner is the path's penultimate segment.
        if let Some(owner) = prefix.last() {
            if let Some(&i) = assoc.get(&(owner.clone(), name.clone())) {
                return Some(i);
            }
        }
        None
    }

    fn resolve_method(
        &self,
        recv: &Expr,
        name: &str,
        cur_owner: Option<&str>,
        local_ty: &BTreeMap<String, String>,
        assoc: &BTreeMap<(String, String), usize>,
        by_method: &BTreeMap<String, Vec<usize>>,
    ) -> Option<usize> {
        // Receiver-directed resolution.
        let owner = match recv {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] if one == "self" => cur_owner.map(|s| s.to_string()),
                [one] => local_ty.get(one).cloned(),
                _ => None,
            },
            Expr::Unary { op, expr, .. } if op == "&" || op == "*" => {
                return self.resolve_method(expr, name, cur_owner, local_ty, assoc, by_method)
            }
            _ => None,
        };
        if let Some(o) = owner {
            if let Some(&i) = assoc.get(&(o, name.to_string())) {
                return Some(i);
            }
        }
        // Unique-in-crate fallback; ambiguous names stay unresolved.
        match by_method.get(name).map(|v| v.as_slice()) {
            Some([only]) => Some(*only),
            _ => None,
        }
    }

    /// All fns reachable from `roots` (inclusive) over call edges.
    pub fn reachable(&self, roots: impl IntoIterator<Item = usize>) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = roots.into_iter().collect();
        while let Some(i) = queue.pop() {
            if !seen.insert(i) {
                continue;
            }
            for &j in &self.calls[i] {
                if !seen.contains(&j) {
                    queue.push(j);
                }
            }
        }
        seen
    }

    /// The innermost fn in `file` whose line range contains `line`
    /// (0-based).
    pub fn fn_at(&self, file: usize, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file == file && f.line <= line && line <= f.end_line {
                let tighter = best.is_none_or(|b| {
                    let bf = &self.fns[b];
                    f.end_line - f.line < bf.end_line - bf.line
                });
                if tighter {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// The last capitalized path segment of a rendered type
/// (`Mutex < Scratch >` → `Scratch`; `& mut Vec < u8 >` → `Vec`).
fn last_type_name(ty: &str) -> Option<String> {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .rfind(|s| s.chars().next().is_some_and(|c| c.is_uppercase()))
        .map(|s| s.to_string())
}

/// A type name inferred from a let initializer: `Type::new(…)` /
/// `Type { … }` forms.
fn init_type_name(init: &Expr) -> Option<String> {
    match init {
        Expr::Call { callee, .. } => {
            let segs = callee.as_path()?;
            let (last, prefix) = segs.split_last()?;
            if matches!(last.as_str(), "new" | "default" | "with_capacity" | "build") {
                prefix
                    .last()
                    .filter(|s| s.chars().next().is_some_and(|c| c.is_uppercase()))
                    .cloned()
            } else {
                None
            }
        }
        Expr::StructLit { path, .. } => path.last().cloned(),
        _ => None,
    }
}

fn collect_rs(dir: &Path, rel: &mut Vec<String>, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        if path.is_dir() {
            rel.push(name);
            collect_rs(&path, rel, out)?;
            rel.pop();
        } else if name.ends_with(".rs") {
            let mut p = String::from("src/");
            for seg in rel.iter() {
                p.push_str(seg);
                p.push('/');
            }
            p.push_str(&name);
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_file_crate() -> CrateGraph {
        let lib = r#"
mod engine;
use engine::step;

pub fn run_open(n: u64) -> u64 {
    let mut total = 0;
    for i in 0..n {
        total += step(i);
    }
    helper(total)
}

fn helper(x: u64) -> u64 { x + 1 }

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() { assert_eq!(run_open(0), 1); }
    fn test_only_helper() { panic!("boom"); }
}
"#;
        let engine = r#"
pub struct Engine { n: u64 }

impl Engine {
    pub fn new(n: u64) -> Engine { Engine { n } }
    pub fn tick(&self) -> u64 { self.n }
}

pub fn step(i: u64) -> u64 {
    let e = Engine::new(i);
    e.tick()
}
"#;
        CrateGraph::build(
            "demo",
            &[
                ("src/lib.rs".to_string(), lib.to_string()),
                ("src/engine.rs".to_string(), engine.to_string()),
            ],
        )
    }

    #[test]
    fn modules_follow_file_layout() {
        assert_eq!(module_path("src/lib.rs"), Vec::<String>::new());
        assert_eq!(module_path("src/foo.rs"), vec!["foo"]);
        assert_eq!(module_path("src/foo/mod.rs"), vec!["foo"]);
        assert_eq!(module_path("src/foo/bar.rs"), vec!["foo", "bar"]);
        assert_eq!(module_path("src/bin/tool.rs"), vec!["bin", "tool"]);
    }

    #[test]
    fn edges_resolve_through_imports_and_impls() {
        let g = two_file_crate();
        let run = g.by_key["run_open"];
        let step = g.by_key["engine::step"];
        let helper = g.by_key["helper"];
        let new = g.by_key["engine::Engine::new"];
        let tick = g.by_key["engine::Engine::tick"];
        assert!(g.calls[run].contains(&step), "use-alias call");
        assert!(g.calls[run].contains(&helper), "same-module call");
        assert!(g.calls[step].contains(&new), "Type::new call");
        assert!(g.calls[step].contains(&tick), "typed-receiver method");
    }

    #[test]
    fn reachability_separates_hot_from_test_only() {
        let g = two_file_crate();
        let run = g.by_key["run_open"];
        let hot = g.reachable([run]);
        assert!(hot.contains(&g.by_key["engine::Engine::tick"]));
        assert!(!hot.contains(&g.by_key["tests::test_only_helper"]));
        assert!(g.fns[g.by_key["tests::test_only_helper"]].is_test);
        assert!(g.fns[g.by_key["tests::t"]].is_test);
        assert!(!g.fns[run].is_test);
    }

    #[test]
    fn fn_at_maps_lines_to_enclosing_fns() {
        let g = two_file_crate();
        let lib = g.files.iter().position(|f| f.rel == "src/lib.rs").unwrap();
        // `panic!("boom")` lives in test_only_helper.
        let line = g.files[lib]
            .lines
            .iter()
            .position(|l| l.contains("boom"))
            .unwrap();
        let f = g.fn_at(lib, line).unwrap();
        assert_eq!(g.fns[f].name, "test_only_helper");
    }

    #[test]
    fn graph_is_deterministic() {
        let a = two_file_crate();
        let b = two_file_crate();
        let keys_a: Vec<&String> = a.fns.iter().map(|f| &f.key).collect();
        let keys_b: Vec<&String> = b.fns.iter().map(|f| &f.key).collect();
        assert_eq!(keys_a, keys_b);
        assert_eq!(a.calls, b.calls);
    }

    #[test]
    fn self_method_calls_resolve_to_own_impl() {
        let src = r#"
pub struct A;
pub struct B;
impl A { pub fn go(&self) { self.inner(); } fn inner(&self) {} }
impl B { fn inner(&self) {} }
"#;
        let g = CrateGraph::build("demo", &[("src/lib.rs".to_string(), src.to_string())]);
        let go = g.by_key["A::go"];
        assert!(g.calls[go].contains(&g.by_key["A::inner"]));
        assert!(!g.calls[go].contains(&g.by_key["B::inner"]));
    }

    #[test]
    fn ambiguous_method_names_are_dropped() {
        let src = r#"
pub struct A;
pub struct B;
impl A { pub fn poke(&self) {} }
impl B { pub fn poke(&self) {} }
pub fn driver(x: &Unknowable) { x.poke(); }
"#;
        let g = CrateGraph::build("demo", &[("src/lib.rs".to_string(), src.to_string())]);
        let driver = g.by_key["driver"];
        assert!(g.calls[driver].is_empty());
    }
}
