//! The four cross-function semantic rules, run over the parsed AST and
//! per-crate call graph.
//!
//! Where the lexical rules ([`crate::rules`]) reject single tokens, the
//! rules here follow values and control flow:
//!
//! - **rng-taint** — every RNG construction must be fed a seed-derived
//!   expression.
//! - **ordered-reduction** — `+=`/`sum()`/`fold()` reductions reachable
//!   from merge/combine/reduce entry points must not iterate
//!   hash-ordered containers.
//! - **env-doc-drift** — the `QCPA_*` keys read in library code and the
//!   knob rows documented in README.md must be a bijection.
//! - **panic-path** — panic sites inside functions reachable from hot
//!   entry points (`run_open*`, `optimize*`, `execute`), ratcheted with
//!   the same per-crate budget as panic-hygiene.
//!
//! All rules under-approximate: an ambiguous method call resolves to no
//! callee, an unshapeable expression is `Expr::Unknown`, and neither
//! produces findings. False silence is possible; false noise is not,
//! which is what lets `cargo test` gate on a clean workspace run.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, Stmt};
use crate::callgraph::{CrateGraph, FnNode};
use crate::lexer::LitKind;
use crate::report::Finding;
use crate::rules::{self, Allow, RuleId};

/// Per-file suppression context for the semantic pass.
pub struct FilePrep {
    /// Parsed `audit:allow` annotations.
    pub allows: Vec<Allow>,
    /// Per-line flag: inside a `#[cfg(test)]` block.
    pub test_lines: Vec<bool>,
}

/// Builds the suppression context for every file of a graph. Malformed
/// annotations were already reported by the lexical pass, so the
/// `allow-syntax` findings are dropped here.
pub fn prep_files(graph: &CrateGraph) -> Vec<FilePrep> {
    graph
        .files
        .iter()
        .map(|f| {
            let raw: Vec<&str> = f.lines.iter().map(String::as_str).collect();
            let (allows, _) = rules::parse_allows(&f.rel, &f.masked, &raw);
            FilePrep {
                allows,
                test_lines: rules::mark_test_lines(&f.masked),
            }
        })
        .collect()
}

/// Builds a finding at `(file, line)` of the graph, applying any
/// covering `audit:allow` annotation.
fn mk_finding(
    rule: RuleId,
    prefix: &str,
    graph: &CrateGraph,
    preps: &[FilePrep],
    file: usize,
    line: usize,
) -> Finding {
    let sf = &graph.files[file];
    let path = if prefix.is_empty() {
        sf.rel.clone()
    } else {
        format!("{prefix}/{}", sf.rel)
    };
    let raw = sf.lines.get(line).map(String::as_str).unwrap_or("");
    let mut f = Finding::new(rule, &path, line, raw);
    if let Some(a) = rules::allow_covering(&preps[file].allows, &sf.masked, rule, line) {
        f.allowed = true;
        f.justification = Some(a.justification.clone());
    }
    f
}

/// Structural walk over every block of a body (the `then` of an `if`,
/// a loop body, … are `Block`s without being `Expr::Block` nodes, so
/// `Expr::walk` cannot surface them).
fn walk_blocks<'a>(b: &'a Block, f: &mut impl FnMut(&'a Block)) {
    f(b);
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init: Some(e), .. } | Stmt::Expr(e) => walk_blocks_expr(e, f),
            _ => {}
        }
    }
}

fn walk_blocks_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Block)) {
    match e {
        Expr::Block(b) => walk_blocks(b, f),
        Expr::If {
            cond, then, els, ..
        } => {
            walk_blocks_expr(cond, f);
            walk_blocks(then, f);
            if let Some(e) = els {
                walk_blocks_expr(e, f);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_blocks_expr(scrutinee, f);
            for arm in arms {
                walk_blocks_expr(&arm.body, f);
            }
        }
        Expr::For { iter, body, .. } => {
            walk_blocks_expr(iter, f);
            walk_blocks(body, f);
        }
        Expr::While { cond, body, .. } => {
            if let Some(c) = cond {
                walk_blocks_expr(c, f);
            }
            walk_blocks(body, f);
        }
        Expr::Closure { body, .. } => walk_blocks_expr(body, f),
        Expr::Call { callee, args, .. } => {
            walk_blocks_expr(callee, f);
            for a in args {
                walk_blocks_expr(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_blocks_expr(recv, f);
            for a in args {
                walk_blocks_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_blocks_expr(recv, f),
        Expr::Index { recv, index, .. } => {
            walk_blocks_expr(recv, f);
            walk_blocks_expr(index, f);
        }
        Expr::Assign { target, value, .. } => {
            walk_blocks_expr(target, f);
            walk_blocks_expr(value, f);
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_blocks_expr(lhs, f);
            walk_blocks_expr(rhs, f);
        }
        Expr::Unary { expr, .. } => walk_blocks_expr(expr, f),
        Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
            for e in elems {
                walk_blocks_expr(e, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, e) in fields {
                walk_blocks_expr(e, f);
            }
        }
        Expr::MacroCall { args, .. } => {
            for a in args {
                walk_blocks_expr(a, f);
            }
        }
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => {}
    }
}

/// Single-name `let` bindings of a body, innermost-last (later
/// bindings shadow earlier ones of the same name, which matches how a
/// depth-limited lookup should resolve).
fn collect_lets(body: &Block) -> BTreeMap<&str, &Expr> {
    let mut lets = BTreeMap::new();
    walk_blocks(body, &mut |b| {
        for stmt in &b.stmts {
            if let Stmt::Let {
                names,
                init: Some(e),
                ..
            } = stmt
            {
                if let [name] = names.as_slice() {
                    lets.insert(name.as_str(), e);
                }
            }
        }
    });
    lets
}

// ---------------------------------------------------------------------
// Rule: rng-taint
// ---------------------------------------------------------------------

/// RNG constructor names whose first argument is the seed expression.
const RNG_CTORS: [&str; 2] = ["seed_from_u64", "from_seed"];

/// Determinism taint: every RNG construction in non-test code must be
/// fed a seed-derived expression.
pub fn rng_taint(prefix: &str, graph: &CrateGraph, preps: &[FilePrep]) -> Vec<Finding> {
    let mut out = Vec::new();
    for node in &graph.fns {
        if node.is_test {
            continue;
        }
        let Some(body) = &node.item.body else {
            continue;
        };
        let lets = collect_lets(body);
        body.walk(&mut |e| {
            let Expr::Call { callee, args, line } = e else {
                return;
            };
            let Some(last) = callee.as_path().and_then(|s| s.last()) else {
                return;
            };
            if !RNG_CTORS.contains(&last.as_str()) {
                return;
            }
            if !args.first().is_some_and(|arg| seed_derived(arg, &lets, 2)) {
                out.push(mk_finding(
                    RuleId::RngTaint,
                    prefix,
                    graph,
                    preps,
                    node.file,
                    *line,
                ));
            }
        });
    }
    out
}

/// True when the expression is visibly seed-derived: it mentions a
/// `seed`-named path/field, calls `stream_seed`, or is a numeric
/// constant (a fixed seed is deterministic by definition). A bare
/// single-name path follows its `let` initializer up to `depth` hops.
fn seed_derived(e: &Expr, lets: &BTreeMap<&str, &Expr>, depth: u32) -> bool {
    let mut ok = false;
    e.walk(&mut |x| match x {
        Expr::Lit { text, .. } if text.starts_with(|c: char| c.is_ascii_digit()) => {
            ok = true;
        }
        Expr::Path { segs, .. } if segs.iter().any(|s| s.to_ascii_lowercase().contains("seed")) => {
            ok = true;
        }
        Expr::Field { name, .. } if name.to_ascii_lowercase().contains("seed") => ok = true,
        _ => {}
    });
    if ok {
        return true;
    }
    if depth > 0 {
        if let Expr::Path { segs, .. } = e {
            if let [name] = segs.as_slice() {
                if let Some(init) = lets.get(name.as_str()) {
                    return seed_derived(init, lets, depth - 1);
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule: ordered-reduction
// ---------------------------------------------------------------------

/// Iterator-producing method names whose receiver decides the order.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "drain",
];

/// Ordered-reduction: in functions reachable from a merge/combine/
/// reduce entry point, a `for` loop accumulating with `+=`/`*=` (or a
/// `sum()`/`product()`/`fold()` chain) must not draw its iterator from
/// a hash-ordered container — float addition is not associative, so
/// hash order changes the result bits.
pub fn ordered_reduction(prefix: &str, graph: &CrateGraph, preps: &[FilePrep]) -> Vec<Finding> {
    let roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            let lc = n.name.to_ascii_lowercase();
            !n.is_test && (lc.contains("merge") || lc.contains("combine") || lc.contains("reduce"))
        })
        .map(|(i, _)| i)
        .collect();
    let reach = graph.reachable(roots);
    let mut out = Vec::new();
    for &i in &reach {
        let node = &graph.fns[i];
        if node.is_test {
            continue;
        }
        let Some(body) = &node.item.body else {
            continue;
        };
        // Parameter and ascribed `let` types, for
        // `fn merge(m: &HashMap<…>)` / `let m: HashMap<…> = …`.
        let mut tys: BTreeMap<&str, &str> = BTreeMap::new();
        for p in &node.item.params {
            tys.insert(p.name.as_str(), p.ty.as_str());
        }
        walk_blocks(body, &mut |b| {
            for stmt in &b.stmts {
                if let Stmt::Let {
                    names, ty: Some(t), ..
                } = stmt
                {
                    if let [name] = names.as_slice() {
                        tys.insert(name.as_str(), t.as_str());
                    }
                }
            }
        });
        body.walk(&mut |e| match e {
            Expr::For {
                iter, body, line, ..
            } if hash_iter(iter, &tys) && has_accum(body) => {
                out.push(mk_finding(
                    RuleId::OrderedReduction,
                    prefix,
                    graph,
                    preps,
                    node.file,
                    *line,
                ));
            }
            Expr::MethodCall {
                recv, name, line, ..
            } if matches!(name.as_str(), "sum" | "product" | "fold") && hash_iter(recv, &tys) => {
                out.push(mk_finding(
                    RuleId::OrderedReduction,
                    prefix,
                    graph,
                    preps,
                    node.file,
                    *line,
                ));
            }
            _ => {}
        });
    }
    out
}

/// True when the expression draws an iterator off a hash-ordered
/// receiver (name or ascribed type mentions `Hash`).
fn hash_iter(e: &Expr, tys: &BTreeMap<&str, &str>) -> bool {
    let mut hit = false;
    e.walk(&mut |x| {
        let Expr::MethodCall { recv, name, .. } = x else {
            return;
        };
        if !ITER_METHODS.contains(&name.as_str()) {
            return;
        }
        let Some(place) = recv.place_text() else {
            return;
        };
        if place.to_ascii_lowercase().contains("hash") {
            hit = true;
            return;
        }
        let root = place.split(['.', '[', ':', '(', ' ']).next().unwrap_or("");
        if tys.get(root).is_some_and(|t| t.contains("Hash")) {
            hit = true;
        }
    });
    hit
}

/// True when the block accumulates with `+=` or `*=`.
fn has_accum(b: &Block) -> bool {
    let mut hit = false;
    b.walk(&mut |e| {
        if let Expr::Assign { op, .. } = e {
            if op == "+=" || op == "*=" {
                hit = true;
            }
        }
    });
    hit
}

// ---------------------------------------------------------------------
// Rule: env-doc-drift
// ---------------------------------------------------------------------

/// Env-surface bijection. `used` comes from string literals in library
/// code (the lexer's literal spans, so comments and doc prose never
/// count); `documented` is any README mention; knob-table rows (lines
/// starting with `|`) additionally assert the key is alive somewhere
/// in the workspace. Returns nothing when README is absent (fixture
/// corpora without docs stay clean).
pub fn env_doc_drift(
    units: &[(String, CrateGraph, Vec<FilePrep>)],
    readme_name: &str,
    readme: Option<&str>,
) -> Vec<Finding> {
    let Some(text) = readme else {
        return Vec::new();
    };
    // key → every literal site: (unit, file, line, in-test).
    let mut used: BTreeMap<String, Vec<(usize, usize, usize, bool)>> = BTreeMap::new();
    for (u, (_, graph, preps)) in units.iter().enumerate() {
        for (fi, sf) in graph.files.iter().enumerate() {
            for lit in &sf.masked.literals {
                if lit.kind != LitKind::Str || !is_qcpa_key(&lit.text) {
                    continue;
                }
                let in_test = preps[fi].test_lines.get(lit.line).copied().unwrap_or(false);
                used.entry(lit.text.clone())
                    .or_default()
                    .push((u, fi, lit.line, in_test));
            }
        }
    }
    let documented = readme_keys(text);
    let mut out = Vec::new();
    for (key, sites) in &used {
        if documented.contains(key) {
            continue;
        }
        // Keys only tests read are not part of the public surface.
        let Some(&(u, fi, line, _)) = sites.iter().find(|s| !s.3) else {
            continue;
        };
        let (prefix, graph, preps) = &units[u];
        out.push(mk_finding(
            RuleId::EnvDocDrift,
            prefix,
            graph,
            preps,
            fi,
            line,
        ));
    }
    // Documented-but-dead: knob-table rows whose key no source (not
    // even a test) reads. README lines carry no Rust comments, so
    // these findings cannot be suppressed inline — delete the row.
    for (line_no, lt) in text.lines().enumerate() {
        if !lt.trim_start().starts_with('|') {
            continue;
        }
        for key in extract_keys(lt) {
            if !used.contains_key(&key) {
                out.push(Finding::new(RuleId::EnvDocDrift, readme_name, line_no, lt));
            }
        }
    }
    out
}

/// True for a complete `QCPA_*` key (not a bare prefix like `QCPA_` or
/// `QCPA_CTRL_`, which code composes with a suffix at run time).
fn is_qcpa_key(s: &str) -> bool {
    s.len() > 5
        && s.starts_with("QCPA_")
        && !s.ends_with('_')
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Every complete `QCPA_*` key mentioned anywhere in the text.
fn readme_keys(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for line in text.lines() {
        for key in extract_keys(line) {
            keys.insert(key);
        }
    }
    keys
}

/// Extracts the complete `QCPA_*` keys appearing in one line.
fn extract_keys(line: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while let Some(found) = line[i..].find("QCPA_") {
        let start = i + found;
        // Must not extend an identifier to the left.
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            i = start + 5;
            continue;
        }
        let mut end = start;
        while end < line.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let key = &line[start..end];
        if is_qcpa_key(key) {
            keys.push(key.to_string());
        }
        i = end.max(start + 5);
    }
    keys
}

// ---------------------------------------------------------------------
// Rule: panic-path
// ---------------------------------------------------------------------

/// Panic-introducing tokens counted on hot lines.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// True when `node` is a hot entry point of the crate.
fn is_entry(node: &FnNode) -> bool {
    !node.is_test
        && (node.name.starts_with("run_open")
            || node.name.starts_with("optimize")
            || node.name == "execute")
}

/// Panic reachability: every panic token inside a function reachable
/// from a hot entry point. Sites are ratcheted with the crate's
/// panic-hygiene budget: `within_budget` marks them baselined (counted,
/// surfaced as `hot_sites`, not a failure); an over-budget crate fails
/// on them just as it fails panic-hygiene. Returns the findings and the
/// total hot-site count (annotated sites included — the metric tracks
/// exposure, not annotation coverage).
pub fn panic_path(
    prefix: &str,
    graph: &CrateGraph,
    preps: &[FilePrep],
    within_budget: bool,
) -> (Vec<Finding>, u32) {
    let entries: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, n)| is_entry(n))
        .map(|(i, _)| i)
        .collect();
    let hot = graph.reachable(entries);
    let mut out = Vec::new();
    let mut count = 0u32;
    for &i in &hot {
        let node = &graph.fns[i];
        if node.is_test {
            continue;
        }
        let sf = &graph.files[node.file];
        let prep = &preps[node.file];
        for line in node.line..=node.end_line {
            if line >= sf.masked.n_lines() {
                break;
            }
            if prep.test_lines.get(line).copied().unwrap_or(false) {
                continue;
            }
            // Lines of a nested fn belong to that fn's own node.
            if graph.fn_at(node.file, line) != Some(i) {
                continue;
            }
            let code = &sf.masked.code[line];
            let hits: u32 = PANIC_TOKENS
                .iter()
                .map(|t| rules::token_hits(code, t).len() as u32)
                .sum();
            if hits == 0 {
                continue;
            }
            count += hits;
            let mut f = mk_finding(RuleId::PanicPath, prefix, graph, preps, node.file, line);
            if !f.allowed {
                f.baselined = within_budget;
            }
            out.push(f);
        }
    }
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> CrateGraph {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| (r.to_string(), s.to_string()))
            .collect();
        CrateGraph::build("t", &sources)
    }

    fn run_rule<F>(files: &[(&str, &str)], f: F) -> Vec<Finding>
    where
        F: Fn(&str, &CrateGraph, &[FilePrep]) -> Vec<Finding>,
    {
        let g = graph_of(files);
        let preps = prep_files(&g);
        f("crates/t", &g, &preps)
    }

    #[test]
    fn rng_from_seed_field_is_clean() {
        let fs = run_rule(
            &[(
                "src/lib.rs",
                "pub fn go(cfg: &Cfg) -> u64 {\n    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 3);\n    rng.next()\n}\n",
            )],
            rng_taint,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn rng_from_wall_clock_fires() {
        let fs = run_rule(
            &[(
                "src/lib.rs",
                "pub fn go() -> u64 {\n    let nonce = now_nanos();\n    let mut rng = ChaCha8Rng::seed_from_u64(nonce);\n    rng.next()\n}\n",
            )],
            rng_taint,
        );
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "rng-taint");
        assert_eq!(fs[0].file, "crates/t/src/lib.rs");
    }

    #[test]
    fn hash_reduction_on_merge_path_fires() {
        let src = "pub fn merge_shards(shards: &HashMap<u64, f64>) -> f64 {\n    let mut total = 0.0;\n    for v in shards.values() {\n        total += v;\n    }\n    total\n}\n";
        let fs = run_rule(&[("src/lib.rs", src)], ordered_reduction);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "ordered-reduction");
    }

    #[test]
    fn btree_reduction_is_clean() {
        let src = "pub fn merge_shards(shards: &BTreeMap<u64, f64>) -> f64 {\n    let mut total = 0.0;\n    for v in shards.values() {\n        total += v;\n    }\n    total\n}\n";
        let fs = run_rule(&[("src/lib.rs", src)], ordered_reduction);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn env_drift_both_directions() {
        let units = vec![(
            "crates/t".to_string(),
            graph_of(&[(
                "src/lib.rs",
                "pub fn knob() -> Option<String> {\n    std::env::var(\"QCPA_UNDOCUMENTED\").ok()\n}\n",
            )]),
            Vec::new(),
        )];
        let units: Vec<_> = units
            .into_iter()
            .map(|(p, g, _): (String, CrateGraph, Vec<FilePrep>)| {
                let preps = prep_files(&g);
                (p, g, preps)
            })
            .collect();
        let readme = "| Knob | Meaning |\n| --- | --- |\n| `QCPA_DEAD_KNOB` | gone |\n";
        let fs = env_doc_drift(&units, "README.md", Some(readme));
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().any(|f| f.snippet.contains("QCPA_UNDOCUMENTED")));
        assert!(fs
            .iter()
            .any(|f| f.file == "README.md" && f.snippet.contains("QCPA_DEAD_KNOB")));
    }

    #[test]
    fn panic_path_separates_hot_from_cold() {
        let src = "pub fn run_open(x: Option<u64>) -> u64 {\n    helper(x)\n}\nfn helper(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\nfn cold(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n";
        let g = graph_of(&[("src/lib.rs", src)]);
        let preps = prep_files(&g);
        let (fs, count) = panic_path("crates/t", &g, &preps, true);
        assert_eq!(count, 1, "{fs:?}");
        assert_eq!(fs.len(), 1);
        assert!(fs[0].baselined);
        let (fs, _) = panic_path("crates/t", &g, &preps, false);
        assert!(fs[0].unsuppressed());
    }
}
