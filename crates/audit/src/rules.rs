//! The audit rules: what each one scans for, where it applies, and how
//! inline `// audit:allow(<rule>): <justification>` annotations
//! suppress individual findings.
//!
//! Every rule guards a paper-level invariant — see DESIGN.md §11 for
//! the rule table and the rationale linking each rule to the
//! reproducibility claims (bit-identical allocations and fault replays
//! across reruns, Fig. 4 / Eq. 18–19 speedup methodology).

use crate::lexer::Masked;
use crate::report::Finding;

/// The rules the auditor knows. Kebab-case names (`RuleId::name`) are
/// the vocabulary of allow annotations and the JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `HashMap`/`HashSet`/`RandomState` in the deterministic crates:
    /// hash iteration order is randomized per process and leaks into
    /// results wherever a map is iterated.
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
    /// Semantic: every RNG construction must be fed a seed-derived
    /// expression.
    RngTaint,
    /// Semantic: reductions on merge-reachable paths must not iterate
    /// hash-ordered containers.
    OrderedReduction,
    /// Semantic: every `QCPA_*` key read in library code must appear in
    /// the README, and every README knob-table row must be backed by a
    /// live key in the code.
    EnvDocDrift,
    /// Semantic: panic sites (unwrap/expect/panic!/unreachable!) inside
    /// functions reachable from hot entry points (`run_open*`,
    /// `optimize*`, `execute`) — ratcheted with the per-crate budget.
    PanicPath,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 12] = [
    RuleId::HashIter,
    RuleId::WallClock,
    RuleId::Entropy,
    RuleId::Spawn,
    RuleId::PanicHygiene,
    RuleId::UnsafeAudit,
    RuleId::EnvAccess,
    RuleId::AllowSyntax,
    RuleId::RngTaint,
    RuleId::OrderedReduction,
    RuleId::EnvDocDrift,
    RuleId::PanicPath,
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
            RuleId::OrderedReduction => "ordered-reduction",
            RuleId::EnvDocDrift => "env-doc-drift",
            RuleId::PanicPath => "panic-path",
        }
    }

    /// Parses a rule name as written in an allow annotation.
    pub fn parse(name: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for the human report.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash-ordered collections in deterministic crates",
            RuleId::WallClock => "wall-clock reads outside obs/bench/lp::mip",
            RuleId::Entropy => "ambient (non-seed-derived) randomness",
            RuleId::Spawn => "thread creation",
            RuleId::PanicHygiene => "unannotated unwrap()/expect() in library code",
            RuleId::UnsafeAudit => "unsafe without SAFETY comment / missing forbid(unsafe_code)",
            RuleId::EnvAccess => "env reads outside the QCPA_* config surface",
            RuleId::AllowSyntax => "malformed audit:allow annotation",
            RuleId::RngTaint => "RNG constructed from a non-seed-derived expression",
            RuleId::OrderedReduction => "hash-ordered reduction on a merge-reachable path",
            RuleId::EnvDocDrift => "QCPA_* key undocumented in README (or documented but dead)",
            RuleId::PanicPath => "panic site reachable from a hot entry point",
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

/// Crates whose outputs must be bit-reproducible: the allocator core,
/// its stream-seed mixer, the simulator, the controller, and the
/// matching/LP layers feeding them.
pub const DETERMINISTIC_CRATES: [&str; 6] = [
    "qcpa-core",
    "qcpa-sim",
    "qcpa-par",
    "qcpa-controller",
    "qcpa-matching",
    "qcpa-lp",
];

/// Crates allowed to read the wall clock (measurement infrastructure,
/// plus the audit tool's own per-rule timing instrumentation).
const WALL_CLOCK_CRATES: [&str; 3] = ["qcpa-obs", "qcpa-bench", "qcpa-audit"];

/// Files allowed to read the wall clock inside otherwise-deterministic
/// crates: the MIP solver's time-budget cutoff, which affects only how
/// long the solver searches, never the meaning of a found solution.
const WALL_CLOCK_FILES: [&str; 1] = ["crates/lp/src/mip.rs"];

/// The `std::thread` items that create threads; the spawn rule flags
/// each as `thread::<item>`.
pub const SPAWN_APIS: [&str; 3] = ["spawn", "scope", "Builder"];

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
pub fn allow_for<'a>(ctx: &'a FileCtx<'_>, rule: RuleId, line: usize) -> Option<&'a Allow> {
    allow_covering(ctx.allows, ctx.masked, rule, line)
}

/// [`allow_for`] without a full `FileCtx` — the semantic pass carries
/// allows and masked streams per file but no per-rule context struct.
pub fn allow_covering<'a>(
    allows: &'a [Allow],
    masked: &Masked,
    rule: RuleId,
    line: usize,
) -> Option<&'a Allow> {
    let hit = |l: usize| allows.iter().find(|a| a.line == l && a.rule == rule);
    if let Some(a) = hit(line) {
        return Some(a);
    }
    let mut l = line;
    while l > 0 && masked.is_comment_only(l - 1) {
        l -= 1;
        if let Some(a) = hit(l) {
            return Some(a);
        }
    }
    None
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
pub(crate) fn token_hits(hay: &str, token: &str) -> Vec<usize> {
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
                let mut f = Finding::new(rule, ctx.rel_path, line, ctx.raw_lines[line]);
                if let Some(a) = allow_for(ctx, rule, line) {
                    f.allowed = true;
                    f.justification = Some(a.justification.clone());
                }
                findings.push(f);
            }
        }
    }
}

/// Runs every token rule applicable to `ctx` and returns the findings
/// (panic-hygiene baselining happens at the workspace level).
pub fn scan_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();

    if DETERMINISTIC_CRATES.contains(&ctx.crate_name) {
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
            let mut f = Finding::new(
                RuleId::PanicHygiene,
                ctx.rel_path,
                line,
                ctx.raw_lines[line],
            );
            if let Some(a) = allow_for(ctx, RuleId::PanicHygiene, line) {
                f.allowed = true;
                f.justification = Some(a.justification.clone());
            }
            findings.push(f);
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
            if documented {
                continue;
            }
            let mut f = Finding::new(RuleId::UnsafeAudit, ctx.rel_path, line, ctx.raw_lines[line]);
            if let Some(a) = allow_for(ctx, RuleId::UnsafeAudit, line) {
                f.allowed = true;
                f.justification = Some(a.justification.clone());
            }
            findings.push(f);
        }
    }
}

/// `env::var` reads must name a `QCPA_*` key in a string literal on the
/// same line (the documented config surface).
fn scan_env_access(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (line, code) in ctx.masked.code.iter().enumerate() {
        for _ in token_hits(code, "env::var") {
            if ctx.masked.strings[line].contains("QCPA_") {
                continue;
            }
            let mut f = Finding::new(RuleId::EnvAccess, ctx.rel_path, line, ctx.raw_lines[line]);
            if let Some(a) = allow_for(ctx, RuleId::EnvAccess, line) {
                f.allowed = true;
                f.justification = Some(a.justification.clone());
            }
            findings.push(f);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    fn ctx_findings(crate_name: &str, region: Region, src: &str) -> Vec<Finding> {
        let masked = mask(src);
        let raw_lines: Vec<&str> = src.lines().collect();
        // `lines()` drops a trailing empty line the lexer keeps; pad.
        let mut raw = raw_lines.clone();
        while raw.len() < masked.n_lines() {
            raw.push("");
        }
        let test_lines = mark_test_lines(&masked);
        let (allows, mut findings) = parse_allows("x.rs", &masked, &raw);
        let ctx = FileCtx {
            rel_path: "x.rs",
            crate_name,
            region,
            masked: &masked,
            raw_lines: &raw,
            test_lines: &test_lines,
            allows: &allows,
        };
        findings.extend(scan_file(&ctx));
        findings
    }

    fn count(findings: &[Finding], rule: RuleId, allowed: bool) -> usize {
        findings
            .iter()
            .filter(|f| f.rule == rule.name() && f.allowed == allowed)
            .count()
    }

    #[test]
    fn hash_iter_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        let det = ctx_findings("qcpa-core", Region::Lib, src);
        assert_eq!(count(&det, RuleId::HashIter, false), 1);
        let free = ctx_findings("qcpa-workloads", Region::Lib, src);
        assert_eq!(count(&free, RuleId::HashIter, false), 0);
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
        let f = ctx_findings("qcpa-sim", Region::Lib, src);
        assert_eq!(count(&f, RuleId::WallClock, false), 1);
        // Same content under the exempted file path.
        let masked = mask(src);
        let raw: Vec<&str> = src.lines().collect();
        let test_lines = mark_test_lines(&masked);
        let ctx = FileCtx {
            rel_path: "crates/lp/src/mip.rs",
            crate_name: "qcpa-lp",
            region: Region::Lib,
            masked: &masked,
            raw_lines: &raw,
            test_lines: &test_lines,
            allows: &[],
        };
        assert_eq!(count(&scan_file(&ctx), RuleId::WallClock, false), 0);
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
