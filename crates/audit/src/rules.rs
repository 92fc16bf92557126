//! The audit rules: what each one scans for, where it applies, and how
//! inline `// audit:allow(<rule>): <justification>` annotations
//! suppress individual findings.
//!
//! Every rule guards a paper-level invariant — see DESIGN.md §11 for
//! the rule table and the rationale linking each rule to the
//! reproducibility claims (bit-identical allocations and fault replays
//! across reruns, Fig. 4 / Eq. 18–19 speedup methodology).

use std::collections::BTreeSet;

use crate::lexer::{LitKind, Masked};
use crate::report::Finding;
use crate::README_FILE;

/// The rules the auditor knows. Kebab-case names (`RuleId::name`) are
/// the vocabulary of allow annotations and the JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `HashMap`/`HashSet`/`RandomState` in any crate but the
    /// auditor: hash iteration order is randomized per process and
    /// leaks into results wherever a map is iterated (a float sum over
    /// hash order changes its bits).
    HashIter,
    /// No `Instant::now`/`SystemTime` outside `obs`/`bench`/`lp::mip`:
    /// simulated time must come from the event clock, or replays
    /// diverge.
    WallClock,
    /// No ambient entropy (`from_entropy`, `thread_rng`, `OsRng`,
    /// `getrandom`): every RNG must be a seed-derived ChaCha8 stream.
    Entropy,
    /// No thread creation (the [`SPAWN_APIS`] of `std::thread`)
    /// anywhere: every workspace computation is serial.
    Spawn,
    /// No `unwrap()`/`expect()` in library non-test code without an
    /// annotation; per-crate counts are ratcheted by the baseline.
    PanicHygiene,
    /// Every `unsafe` carries a nearby `// SAFETY:` comment, and every
    /// lib crate root carries `#![forbid(unsafe_code)]`.
    UnsafeAudit,
    /// Every `env::var` read names a `QCPA_*` key (the documented
    /// config surface) on the same line.
    EnvAccess,
    /// A malformed `audit:allow` annotation (unknown rule or missing
    /// justification) is itself a finding — suppressions must be
    /// auditable.
    AllowSyntax,
    /// Every [`RNG_CTORS`] call in library non-test code is fed a
    /// visibly seed-derived argument list.
    RngTaint,
    /// Every `QCPA_*` key read in library code appears in the README,
    /// and every README knob-table row names a key some library source
    /// reads.
    EnvDocDrift,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 10] = [
    RuleId::HashIter,
    RuleId::WallClock,
    RuleId::Entropy,
    RuleId::Spawn,
    RuleId::PanicHygiene,
    RuleId::UnsafeAudit,
    RuleId::EnvAccess,
    RuleId::AllowSyntax,
    RuleId::RngTaint,
    RuleId::EnvDocDrift,
];

impl RuleId {
    /// The kebab-case rule name used in annotations and reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash-iter",
            RuleId::WallClock => "wall-clock",
            RuleId::Entropy => "entropy",
            RuleId::Spawn => "spawn",
            RuleId::PanicHygiene => "panic-hygiene",
            RuleId::UnsafeAudit => "unsafe-audit",
            RuleId::EnvAccess => "env-access",
            RuleId::AllowSyntax => "allow-syntax",
            RuleId::RngTaint => "rng-taint",
            RuleId::EnvDocDrift => "env-doc-drift",
        }
    }

    /// Parses a rule name as written in an allow annotation.
    pub fn parse(name: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for the human report.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash-ordered collections",
            RuleId::WallClock => "wall-clock reads outside obs/bench/lp::mip",
            RuleId::Entropy => "ambient (non-seed-derived) randomness",
            RuleId::Spawn => "thread creation",
            RuleId::PanicHygiene => "unannotated unwrap()/expect() in library code",
            RuleId::UnsafeAudit => "unsafe without SAFETY comment / missing forbid(unsafe_code)",
            RuleId::EnvAccess => "env reads outside the QCPA_* config surface",
            RuleId::AllowSyntax => "malformed audit:allow annotation",
            RuleId::RngTaint => "RNG constructed from a non-seed-derived expression",
            RuleId::EnvDocDrift => "QCPA_* key undocumented in README (or documented but dead)",
        }
    }
}

/// Which target a source file belongs to; decides rule applicability
/// (panic-hygiene only constrains library code, for example).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `src/` of a crate — library (or binary) code.
    Lib,
    /// An integration test under `tests/`.
    Test,
    /// A criterion-style bench under `benches/`.
    Bench,
    /// A runnable example under `examples/`.
    Example,
}

/// The one crate hash-iter does not scan: the auditor feeds no
/// experiment result, and its report is sorted before it is written.
const HASH_ITER_EXEMPT: &str = "qcpa-audit";

/// Crates allowed to read the wall clock (measurement infrastructure).
const WALL_CLOCK_CRATES: [&str; 2] = ["qcpa-obs", "qcpa-bench"];

/// Files allowed to read the wall clock inside otherwise-deterministic
/// crates: the MIP solver's time-budget cutoff, which affects only how
/// long the solver searches, never the meaning of a found solution.
const WALL_CLOCK_FILES: [&str; 1] = ["crates/lp/src/mip.rs"];

/// The `std::thread` items that create threads; the spawn rule flags
/// each as `thread::<item>`.
pub const SPAWN_APIS: [&str; 3] = ["spawn", "scope", "Builder"];

/// RNG constructors whose argument list is the seed expression.
pub const RNG_CTORS: [&str; 2] = ["seed_from_u64(", "from_seed("];

/// A parsed `audit:allow(<rule>): <justification>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 0-based line the annotation sits on.
    pub line: usize,
    /// The rule it suppresses.
    pub rule: RuleId,
    /// The (non-empty) justification text.
    pub justification: String,
}

/// One file as the rules see it.
pub struct FileCtx<'a> {
    /// Path relative to the audited root, `/`-separated.
    pub rel_path: &'a str,
    /// Owning crate's package name (`qcpa-core`, …, or `qcpa`).
    pub crate_name: &'a str,
    /// Which target the file belongs to.
    pub region: Region,
    /// The masked source.
    pub masked: &'a Masked,
    /// Original source lines (for finding snippets).
    pub raw_lines: &'a [&'a str],
    /// Per-line flag: inside a `#[cfg(test)]` block.
    pub test_lines: &'a [bool],
    /// Parsed allow annotations of this file.
    pub allows: &'a [Allow],
}

/// Extracts every well-formed allow annotation; malformed ones become
/// `allow-syntax` findings (pushed into `findings`).
pub fn parse_allows(
    ctx_path: &str,
    masked: &Masked,
    raw_lines: &[&str],
) -> (Vec<Allow>, Vec<Finding>) {
    const MARKER: &str = "audit:allow";
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (line, comment) in masked.comments.iter().enumerate() {
        // Doc comments are prose: the annotation grammar must be
        // documentable without suppressing (or tripping) anything. The
        // lexer's per-line doc classification covers the continuation
        // lines of multi-line `/** */` / `/*! */` blocks, which a
        // prefix check on the line's own text would misread.
        if masked.doc_comment[line] {
            continue;
        }
        let Some(pos) = comment.find(MARKER) else {
            continue;
        };
        let rest = &comment[pos + MARKER.len()..];
        let parsed = (|| {
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rule = RuleId::parse(rest[..close].trim())?;
            let after = rest[close + 1..].trim_start();
            let justification = after.strip_prefix(':')?.trim();
            if justification.is_empty() {
                return None;
            }
            Some(Allow {
                line,
                rule,
                justification: justification.to_string(),
            })
        })();
        match parsed {
            Some(a) => allows.push(a),
            None => findings.push(Finding::new(
                RuleId::AllowSyntax,
                ctx_path,
                line,
                raw_lines.get(line).copied().unwrap_or(""),
            )),
        }
    }
    (allows, findings)
}

/// True when a finding of `rule` on `line` (0-based) is covered by an
/// annotation: on the same line, or on a run of comment-only lines
/// immediately above it.
fn allow_for<'a>(ctx: &'a FileCtx<'_>, rule: RuleId, line: usize) -> Option<&'a Allow> {
    let hit = |l: usize| ctx.allows.iter().find(|a| a.line == l && a.rule == rule);
    if let Some(a) = hit(line) {
        return Some(a);
    }
    let mut l = line;
    while l > 0 && ctx.masked.is_comment_only(l - 1) {
        l -= 1;
        if let Some(a) = hit(l) {
            return Some(a);
        }
    }
    None
}

/// A finding of `rule` on `line` (0-based), marked allowed when an
/// annotation covers it.
fn finding_at(ctx: &FileCtx<'_>, rule: RuleId, line: usize) -> Finding {
    let mut f = Finding::new(rule, ctx.rel_path, line, ctx.raw_lines[line]);
    if let Some(a) = allow_for(ctx, rule, line) {
        f.allowed = true;
        f.justification = Some(a.justification.clone());
    }
    f
}

/// Marks the lines inside `#[cfg(test)]` blocks by brace matching over
/// the masked code (strings and comments already blanked, so every
/// brace is structural).
pub fn mark_test_lines(masked: &Masked) -> Vec<bool> {
    let mut mask = vec![false; masked.n_lines()];
    let joined = masked.code.join("\n");
    let bytes = joined.as_bytes();
    let mut search_from = 0usize;
    while let Some(found) = joined[search_from..].find("#[cfg(test)]") {
        let start = search_from + found;
        // Scan forward to the block's opening brace, then match it.
        let mut depth = 0usize;
        let mut opened = false;
        let mut end = joined.len();
        for (off, &b) in bytes[start..].iter().enumerate() {
            match b {
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        end = start + off;
                        break;
                    }
                }
                // A `;` before any `{` ends the item (e.g. a
                // `#[cfg(test)] use …;`): nothing to mark.
                b';' if !opened => {
                    end = start + off;
                    break;
                }
                _ => {}
            }
        }
        let first_line = joined[..start].matches('\n').count();
        let last_line = joined[..end].matches('\n').count();
        for flag in mask.iter_mut().take(last_line + 1).skip(first_line) {
            *flag = true;
        }
        search_from = end.max(start + 1);
    }
    mask
}

/// Finds word-bounded occurrences of `token` in `hay` (identifier
/// characters on either side of the match disqualify it).
fn token_hits(hay: &str, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0usize;
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    while let Some(found) = hay[from..].find(token) {
        let at = from + found;
        // Boundary checks only bind where the token itself starts or
        // ends with an identifier character (`.unwrap()` may follow an
        // identifier; `HashMap` must not extend one).
        let first = token.chars().next().unwrap_or(' ');
        let before_ok =
            !ident(first) || at == 0 || !hay[..at].chars().next_back().is_some_and(ident);
        let after = &hay[at + token.len()..];
        let last = token.chars().next_back().unwrap_or(' ');
        let after_ok = !ident(last) || !after.chars().next().is_some_and(ident);
        if before_ok && after_ok {
            hits.push(at);
        }
        from = at + token.len();
    }
    hits
}

/// Pushes one finding per occurrence of any of `tokens` in the masked
/// code of `ctx`, honoring allow annotations.
fn scan_tokens(ctx: &FileCtx<'_>, rule: RuleId, tokens: &[&str], findings: &mut Vec<Finding>) {
    for (line, code) in ctx.masked.code.iter().enumerate() {
        for token in tokens {
            for _ in token_hits(code, token) {
                findings.push(finding_at(ctx, rule, line));
            }
        }
    }
}

/// Runs every per-file rule applicable to `ctx` and returns the
/// findings (panic-hygiene baselining and env-doc-drift happen at the
/// workspace level).
pub fn scan_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();

    if ctx.crate_name != HASH_ITER_EXEMPT {
        scan_tokens(
            ctx,
            RuleId::HashIter,
            &["HashMap", "HashSet", "RandomState"],
            &mut findings,
        );
    }

    let wall_clock_exempt =
        WALL_CLOCK_CRATES.contains(&ctx.crate_name) || WALL_CLOCK_FILES.contains(&ctx.rel_path);
    if !wall_clock_exempt {
        scan_tokens(
            ctx,
            RuleId::WallClock,
            &["Instant::now", "SystemTime"],
            &mut findings,
        );
    }

    scan_tokens(
        ctx,
        RuleId::Entropy,
        &[
            "from_entropy",
            "thread_rng",
            "OsRng",
            "getrandom",
            "rand::random",
        ],
        &mut findings,
    );

    let spawn_tokens = SPAWN_APIS.map(|api| format!("thread::{api}"));
    scan_tokens(
        ctx,
        RuleId::Spawn,
        &spawn_tokens.each_ref().map(String::as_str),
        &mut findings,
    );

    if ctx.region == Region::Lib {
        scan_panic_hygiene(ctx, &mut findings);
        scan_rng_taint(ctx, &mut findings);
    }

    scan_unsafe(ctx, &mut findings);
    scan_env_access(ctx, &mut findings);

    findings
}

/// `.unwrap()` / `.expect(` in non-test library code.
fn scan_panic_hygiene(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (line, code) in ctx.masked.code.iter().enumerate() {
        if ctx.test_lines[line] {
            continue;
        }
        let n = token_hits(code, ".unwrap()").len() + token_hits(code, ".expect(").len();
        for _ in 0..n {
            findings.push(finding_at(ctx, RuleId::PanicHygiene, line));
        }
    }
}

/// An [`RNG_CTORS`] call in non-test library code whose argument list —
/// matched by parentheses over the masked code, so it may span lines —
/// holds neither a numeric literal (a fixed seed) nor an identifier
/// containing `seed` (case-insensitive). A `fn` definition of the same
/// name is not a call.
fn scan_rng_taint(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let joined = ctx.masked.code.join("\n");
    for ctor in RNG_CTORS {
        for at in token_hits(&joined, ctor) {
            let line = joined[..at].matches('\n').count();
            if ctx.test_lines[line] || joined[..at].trim_end().ends_with("fn") {
                continue;
            }
            let args = &joined[at + ctor.len()..];
            let mut depth = 1usize;
            let end = args
                .bytes()
                .position(|b| {
                    match b {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    depth == 0
                })
                .unwrap_or(args.len());
            let seeded = args[..end]
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| {
                    w.starts_with(|c: char| c.is_ascii_digit())
                        || w.to_ascii_lowercase().contains("seed")
                });
            if !seeded {
                findings.push(finding_at(ctx, RuleId::RngTaint, line));
            }
        }
    }
}

/// `unsafe` tokens must carry a `SAFETY:` comment on the same line or
/// within the 5 lines above.
fn scan_unsafe(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (line, code) in ctx.masked.code.iter().enumerate() {
        for _ in token_hits(code, "unsafe") {
            let lo = line.saturating_sub(5);
            let documented = (lo..=line).any(|l| ctx.masked.comments[l].contains("SAFETY:"));
            if !documented {
                findings.push(finding_at(ctx, RuleId::UnsafeAudit, line));
            }
        }
    }
}

/// `env::var` reads must name a `QCPA_*` key in a string literal on the
/// same line (the documented config surface).
fn scan_env_access(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (line, code) in ctx.masked.code.iter().enumerate() {
        for _ in token_hits(code, "env::var") {
            if !ctx.masked.strings[line].contains("QCPA_") {
                findings.push(finding_at(ctx, RuleId::EnvAccess, line));
            }
        }
    }
}

/// The crate-root check: `src/lib.rs` of every library crate must carry
/// `#![forbid(unsafe_code)]`. Suppressible by an annotation in the
/// first 10 lines (a crate that genuinely needs `unsafe` documents why
/// at the top).
pub fn check_forbid_unsafe(
    rel_path: &str,
    masked: &Masked,
    raw_lines: &[&str],
    allows: &[Allow],
) -> Option<Finding> {
    let has = masked
        .code
        .iter()
        .any(|l| l.contains("#![forbid(unsafe_code)]"));
    if has {
        return None;
    }
    let mut f = Finding::new(
        RuleId::UnsafeAudit,
        rel_path,
        0,
        raw_lines.first().copied().unwrap_or(""),
    );
    f.snippet = format!("missing #![forbid(unsafe_code)] — {}", f.snippet);
    if let Some(a) = allows
        .iter()
        .find(|a| a.rule == RuleId::UnsafeAudit && a.line < 10)
    {
        f.allowed = true;
        f.justification = Some(a.justification.clone());
    }
    Some(f)
}

/// One `QCPA_*` key string literal in library code, gathered per file
/// for the workspace-level [`env_doc_drift`] check.
pub struct EnvKeySite {
    /// The complete key, e.g. `QCPA_LOG`.
    pub key: String,
    /// The literal sits inside a `#[cfg(test)]` block.
    pub in_test: bool,
    /// The finding to report should the key turn out undocumented.
    pub finding: Finding,
}

/// Every string literal of `ctx` that is exactly a complete `QCPA_*`
/// key. The lexer's literal spans are the source, so comments and doc
/// prose never count as a read.
pub fn env_key_sites(ctx: &FileCtx<'_>) -> Vec<EnvKeySite> {
    ctx.masked
        .literals
        .iter()
        .filter(|lit| lit.kind == LitKind::Str && is_qcpa_key(&lit.text))
        .map(|lit| EnvKeySite {
            key: lit.text.clone(),
            in_test: ctx.test_lines[lit.line],
            finding: finding_at(ctx, RuleId::EnvDocDrift, lit.line),
        })
        .collect()
}

/// Env-surface bijection over the library key `sites` of the whole
/// workspace and its README. A key read outside tests but mentioned
/// nowhere in the README fires at its first such site; a README
/// knob-table row (a line starting with `|`) naming a key no site
/// reads — not even a test — fires on the README line, which carries
/// no Rust comment and so cannot be suppressed inline: delete the row.
/// Returns nothing when the README is absent.
pub fn env_doc_drift(sites: &[EnvKeySite], readme: Option<&str>) -> Vec<Finding> {
    let Some(text) = readme else {
        return Vec::new();
    };
    let documented: BTreeSet<&str> = text.lines().flat_map(qcpa_keys).collect();
    let used: BTreeSet<&str> = sites.iter().map(|s| s.key.as_str()).collect();
    let mut reported = BTreeSet::new();
    let mut out: Vec<Finding> = sites
        .iter()
        .filter(|s| !s.in_test && !documented.contains(s.key.as_str()))
        .filter(|s| reported.insert(s.key.as_str()))
        .map(|s| s.finding.clone())
        .collect();
    for (line, text_line) in text.lines().enumerate() {
        if text_line.trim_start().starts_with('|') {
            for _ in qcpa_keys(text_line).filter(|k| !used.contains(k)) {
                out.push(Finding::new(
                    RuleId::EnvDocDrift,
                    README_FILE,
                    line,
                    text_line,
                ));
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

/// The complete `QCPA_*` keys among the identifier-like words of a line.
fn qcpa_keys(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| is_qcpa_key(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    /// Lexes `src` and runs `f` over its file context.
    fn with_ctx<T>(
        rel_path: &str,
        crate_name: &str,
        region: Region,
        src: &str,
        f: impl FnOnce(&FileCtx<'_>, Vec<Finding>) -> T,
    ) -> T {
        let masked = mask(src);
        // `lines()` drops a trailing empty line the lexer keeps; pad.
        let mut raw: Vec<&str> = src.lines().collect();
        while raw.len() < masked.n_lines() {
            raw.push("");
        }
        let test_lines = mark_test_lines(&masked);
        let (allows, allow_findings) = parse_allows(rel_path, &masked, &raw);
        let ctx = FileCtx {
            rel_path,
            crate_name,
            region,
            masked: &masked,
            raw_lines: &raw,
            test_lines: &test_lines,
            allows: &allows,
        };
        f(&ctx, allow_findings)
    }

    fn ctx_findings(crate_name: &str, region: Region, src: &str) -> Vec<Finding> {
        with_ctx("x.rs", crate_name, region, src, |ctx, mut findings| {
            findings.extend(scan_file(ctx));
            findings
        })
    }

    fn count(findings: &[Finding], rule: RuleId, allowed: bool) -> usize {
        findings
            .iter()
            .filter(|f| f.rule == rule.name() && f.allowed == allowed)
            .count()
    }

    #[test]
    fn hash_iter_fires_in_every_crate_but_the_audit() {
        let src = "use std::collections::HashMap;\n";
        for krate in ["qcpa-core", "qcpa-workloads", "qcpa-bench", "qcpa"] {
            let f = ctx_findings(krate, Region::Lib, src);
            assert_eq!(count(&f, RuleId::HashIter, false), 1, "{krate}");
        }
        let audit = ctx_findings("qcpa-audit", Region::Lib, src);
        assert_eq!(count(&audit, RuleId::HashIter, false), 0);
    }

    #[test]
    fn hash_iter_ignores_comments_and_strings() {
        let src = "// a HashMap in prose\nlet s = \"HashMap\";\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::HashIter, false), 0);
    }

    #[test]
    fn word_boundary_respected() {
        let src = "struct MyHashMapLike; let x = FooHashMap;\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::HashIter, false), 0);
    }

    #[test]
    fn wall_clock_exempts_mip() {
        let src = "let t = Instant::now();\n";
        for krate in ["qcpa-sim", "qcpa-audit"] {
            let f = ctx_findings(krate, Region::Lib, src);
            assert_eq!(count(&f, RuleId::WallClock, false), 1, "{krate}");
        }
        // Same content under the exempted file path.
        let f = with_ctx(
            "crates/lp/src/mip.rs",
            "qcpa-lp",
            Region::Lib,
            src,
            |ctx, _| scan_file(ctx),
        );
        assert_eq!(count(&f, RuleId::WallClock, false), 0);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src =
            "// audit:allow(wall-clock): measuring real elapsed time\nlet t = Instant::now();\n";
        let f = ctx_findings("qcpa-sim", Region::Lib, src);
        assert_eq!(count(&f, RuleId::WallClock, false), 0);
        assert_eq!(count(&f, RuleId::WallClock, true), 1);
    }

    #[test]
    fn trailing_allow_annotation_suppresses() {
        let src = "let t = Instant::now(); // audit:allow(wall-clock): bench timing\n";
        let f = ctx_findings("qcpa-sim", Region::Lib, src);
        assert_eq!(count(&f, RuleId::WallClock, false), 0);
        assert_eq!(count(&f, RuleId::WallClock, true), 1);
    }

    #[test]
    fn stacked_annotations_walk_up() {
        let src = "// audit:allow(wall-clock): timing\n// audit:allow(panic-hygiene): infallible here\nlet t = Instant::now().elapsed().as_secs_f64().to_string(); t.parse::<f64>().unwrap();\n";
        let f = ctx_findings("qcpa-sim", Region::Lib, src);
        assert_eq!(count(&f, RuleId::WallClock, false), 0);
        assert_eq!(count(&f, RuleId::PanicHygiene, false), 0);
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let src = "// audit:allow(no-such-rule): x\n// audit:allow(spawn)\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::AllowSyntax, false), 2);
    }

    #[test]
    fn panic_hygiene_skips_tests_and_non_lib() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::PanicHygiene, false), 1);
        let f = ctx_findings("qcpa-core", Region::Test, src);
        assert_eq!(count(&f, RuleId::PanicHygiene, false), 0);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "unsafe { do_it() }\n";
        let f = ctx_findings("qcpa-storage", Region::Lib, bad);
        assert_eq!(count(&f, RuleId::UnsafeAudit, false), 1);
        let good = "// SAFETY: the pointer is valid for the call.\nunsafe { do_it() }\n";
        let f = ctx_findings("qcpa-storage", Region::Lib, good);
        assert_eq!(count(&f, RuleId::UnsafeAudit, false), 0);
    }

    #[test]
    fn env_access_requires_qcpa_key() {
        let bad = "let v = std::env::var(\"HOME\");\n";
        let f = ctx_findings("qcpa-core", Region::Lib, bad);
        assert_eq!(count(&f, RuleId::EnvAccess, false), 1);
        let good = "let v = std::env::var(\"QCPA_LOG\");\n";
        let f = ctx_findings("qcpa-core", Region::Lib, good);
        assert_eq!(count(&f, RuleId::EnvAccess, false), 0);
    }

    #[test]
    fn spawn_fires_in_every_crate() {
        let src = "let t = std::thread::Builder::new();\n";
        for krate in ["qcpa-sim", "qcpa-par", "qcpa-bench"] {
            let f = ctx_findings(krate, Region::Lib, src);
            assert_eq!(count(&f, RuleId::Spawn, false), 1, "{krate}");
        }
    }

    #[test]
    fn rng_from_seed_field_is_clean() {
        let src = "pub fn go(cfg: &Cfg) -> u64 {\n    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 3);\n    let mut b = ChaCha8Rng::seed_from_u64(mix(self.seed, id));\n    let mut c = ChaCha8Rng::seed_from_u64(qcpa_par::stream_seed(base, 1));\n    let mut d = ChaCha8Rng::seed_from_u64(0x5A);\n    rng.next()\n}\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0, "{f:?}");
    }

    #[test]
    fn rng_from_wall_clock_fires() {
        let src = "pub fn go() -> u64 {\n    let nonce = now_nanos();\n    let mut rng = ChaCha8Rng::seed_from_u64(nonce);\n    rng.next()\n}\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::RngTaint, false), 1);
        assert_eq!(f[0].line, 3);
        // The same call in a test block, an integration test, or a
        // `fn` definition of the constructor is not checked.
        let test_block = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        let f = ctx_findings("qcpa-core", Region::Lib, &test_block);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0);
        let f = ctx_findings("qcpa-core", Region::Test, src);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0);
        let def = "pub fn from_seed(n: usize) -> Self { todo() }\n";
        let f = ctx_findings("qcpa-sim", Region::Lib, def);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0);
    }

    #[test]
    fn rng_argument_span_crosses_lines() {
        let seeded = "let plan = FaultPlan::from_seed(\n    seed,\n    cluster.len(),\n    DURATION,\n    &cfg,\n);\n";
        let f = ctx_findings("qcpa-bench", Region::Lib, seeded);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0, "{f:?}");
        // Only the balanced span counts: a `seed` after the closing
        // parenthesis does not launder the call.
        let tainted = "let plan = FaultPlan::from_seed(\n    nonce(),\n    n,\n).with(seed);\n";
        let f = ctx_findings("qcpa-bench", Region::Lib, tainted);
        assert_eq!(count(&f, RuleId::RngTaint, false), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn rng_calls_in_strings_and_comments_are_silent() {
        let src = "// ChaCha8Rng::seed_from_u64(nonce) in prose\nlet s = \"from_seed(nonce)\";\n/* seed_from_u64(\n nonce) */\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0);
    }

    #[test]
    fn rng_taint_is_suppressible() {
        let src = "// audit:allow(rng-taint): a fixed nonce is the point here\nlet r = ChaCha8Rng::seed_from_u64(nonce);\n";
        let f = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&f, RuleId::RngTaint, true), 1);
        assert_eq!(count(&f, RuleId::RngTaint, false), 0);
    }

    #[test]
    fn env_drift_both_directions() {
        let src = "pub fn knob() -> Option<String> {\n    std::env::var(\"QCPA_UNDOCUMENTED\").ok()\n}\npub fn log() -> bool {\n    std::env::var(\"QCPA_LOG\").is_ok()\n}\n#[cfg(test)]\nmod tests {\n    const K: &str = \"QCPA_TEST_ONLY\";\n}\n";
        let sites = with_ctx(
            "crates/t/src/lib.rs",
            "qcpa-t",
            Region::Lib,
            src,
            |ctx, _| env_key_sites(ctx),
        );
        assert_eq!(sites.len(), 3);
        let readme = "Set `QCPA_LOG`.\n\n| Knob | Meaning |\n| --- | --- |\n| `QCPA_DEAD_KNOB` | gone |\n| `QCPA_TEST_ONLY` | read by a test |\n";
        let fs = env_doc_drift(&sites, Some(readme));
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs
            .iter()
            .any(|f| f.file == "crates/t/src/lib.rs" && f.snippet.contains("QCPA_UNDOCUMENTED")));
        assert!(fs
            .iter()
            .any(|f| f.file == "README.md" && f.snippet.contains("QCPA_DEAD_KNOB")));
        assert!(env_doc_drift(&sites, None).is_empty());
    }

    #[test]
    fn forbid_check() {
        let with = mask("#![forbid(unsafe_code)]\n");
        let raw = ["#![forbid(unsafe_code)]"];
        assert!(check_forbid_unsafe("a/lib.rs", &with, &raw, &[]).is_none());
        let without = mask("//! docs\n");
        let raw = ["//! docs"];
        let f = check_forbid_unsafe("a/lib.rs", &without, &raw, &[]);
        assert!(f.is_some_and(|f| !f.allowed));
    }

    #[test]
    fn cfg_test_block_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let m = mask(src);
        let marks = mark_test_lines(&m);
        assert_eq!(marks, vec![false, true, true, true, true, false, false]);
    }
}
