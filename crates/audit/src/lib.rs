#![forbid(unsafe_code)]
//! `qcpa-audit` — a std-only static-analysis pass that proves the
//! repo's determinism and safety invariants at the *source* level.
//!
//! The workspace's headline guarantee — allocations and fault/resilience
//! replays are bit-identical across reruns — is enforced
//! dynamically by the conformance proptests, which can only catch a
//! nondeterminism leak on a path they happen to exercise. This crate is
//! the static complement: it lexes every workspace source file (comment/
//! string/raw-string/char-literal aware, no `syn`) and rejects the
//! constructs that make reruns diverge — hash-ordered collections,
//! wall-clock reads outside the measurement layers, ambient entropy,
//! RNGs built from anything but a seed, stray thread spawns — plus the
//! safety hygiene rules (undocumented `unsafe`, unannotated panics, env
//! reads off the `QCPA_*` surface or missing from the README). Every
//! rule is one pass over [`lexer::mask`]'s per-line streams; no parser.
//!
//! Suppression is per-site and auditable: an inline comment of the form
//! `audit:allow(rule-name): justification` on (or directly above) the
//! offending line. Doc comments never count as annotations, so the
//! grammar can be documented without suppressing anything. The
//! panic-hygiene rule is ratcheted instead: `audit.baseline.json` holds
//! the per-crate budget of unannotated `unwrap()`/`expect()` sites,
//! which may only shrink.
//!
//! See DESIGN.md §11 for the rule table and the mapping from each rule
//! to the paper-level invariant it guards.

pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::{Finding, PanicStats, Report};
use rules::{EnvKeySite, FileCtx, Region, RuleId};

/// Name of the panic-hygiene ratchet file at the audited root.
pub const BASELINE_FILE: &str = "audit.baseline.json";

/// The README at the audited root that env-doc-drift checks the
/// `QCPA_*` surface against.
pub const README_FILE: &str = "README.md";

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the audited root when `--root` is not
/// given.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The audit driver: scans every source file of the workspace at
/// `root` and returns the assembled [`Report`].
pub fn run(root: &Path) -> io::Result<Report> {
    let baseline = load_baseline(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut files_scanned = 0u32;
    // crate name → (unannotated, annotated, lib lines); indices into
    // `findings` of that crate's unannotated panic sites, for
    // baselining after the counts are known.
    let mut panic_counts: BTreeMap<String, (u32, u32, u32)> = BTreeMap::new();
    let mut panic_sites: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut env_sites: Vec<EnvKeySite> = Vec::new();

    for unit in workspace_units(root)? {
        for (dir, region) in unit.target_dirs() {
            let abs = root.join(&dir);
            if !abs.is_dir() {
                continue;
            }
            for file in rust_files(&abs)? {
                files_scanned += 1;
                let rel = format!(
                    "{}/{}",
                    dir,
                    file.strip_prefix(&abs)
                        .unwrap_or(&file)
                        .to_string_lossy()
                        .replace('\\', "/")
                );
                let src = fs::read_to_string(&file)?;
                env_sites.extend(scan_one(
                    &unit.crate_name,
                    &rel,
                    region,
                    &src,
                    &mut findings,
                    &mut panic_counts,
                    &mut panic_sites,
                ));
            }
        }
    }

    let readme = fs::read_to_string(root.join(README_FILE)).ok();
    findings.extend(rules::env_doc_drift(&env_sites, readme.as_deref()));

    // Baseline the panic-hygiene findings: a crate at or under budget
    // has its unannotated sites marked `baselined`; a crate over budget
    // keeps them all unsuppressed.
    let mut stats: BTreeMap<String, PanicStats> = BTreeMap::new();
    for (krate, (sites, annotated, lib_lines)) in &panic_counts {
        let budget = baseline.get(krate).copied().unwrap_or(0);
        if *sites <= budget {
            for &i in panic_sites.get(krate).map(Vec::as_slice).unwrap_or(&[]) {
                findings[i].baselined = true;
            }
        }
        let density = if *lib_lines == 0 {
            0.0
        } else {
            let raw = f64::from(sites + annotated) / f64::from(*lib_lines) * 1000.0;
            (raw * 100.0).round() / 100.0
        };
        stats.insert(
            krate.clone(),
            PanicStats {
                sites: *sites,
                annotated: *annotated,
                baseline: budget,
                lib_lines: *lib_lines,
                density_per_kloc: density,
            },
        );
    }

    Ok(Report::assemble(files_scanned, findings, stats))
}

/// Scans one source file, pushing findings and panic accounting;
/// returns the file's `QCPA_*` key sites when it is library code.
fn scan_one(
    crate_name: &str,
    rel: &str,
    region: Region,
    src: &str,
    findings: &mut Vec<Finding>,
    panic_counts: &mut BTreeMap<String, (u32, u32, u32)>,
    panic_sites: &mut BTreeMap<String, Vec<usize>>,
) -> Vec<EnvKeySite> {
    let masked = lexer::mask(src);
    let mut raw_lines: Vec<&str> = src.lines().collect();
    while raw_lines.len() < masked.n_lines() {
        raw_lines.push("");
    }
    let test_lines = rules::mark_test_lines(&masked);
    let (allows, allow_findings) = rules::parse_allows(rel, &masked, &raw_lines);
    findings.extend(allow_findings);
    let ctx = FileCtx {
        rel_path: rel,
        crate_name,
        region,
        masked: &masked,
        raw_lines: &raw_lines,
        test_lines: &test_lines,
        allows: &allows,
    };
    if region == Region::Lib {
        let entry = panic_counts.entry(crate_name.to_string()).or_default();
        entry.2 += masked.n_lines() as u32;
    }
    for f in rules::scan_file(&ctx) {
        if f.rule == RuleId::PanicHygiene.name() {
            let entry = panic_counts.entry(crate_name.to_string()).or_default();
            if f.allowed {
                entry.1 += 1;
            } else {
                entry.0 += 1;
                panic_sites
                    .entry(crate_name.to_string())
                    .or_default()
                    .push(findings.len());
            }
        }
        findings.push(f);
    }
    if region == Region::Lib && rel.ends_with("src/lib.rs") {
        if let Some(f) = rules::check_forbid_unsafe(rel, &masked, &raw_lines, &allows) {
            findings.push(f);
        }
    }
    if region == Region::Lib {
        rules::env_key_sites(&ctx)
    } else {
        Vec::new()
    }
}

/// One crate (or the workspace-root package) to audit.
struct Unit {
    /// Package name (`qcpa-core`, …, or `qcpa` for the root).
    crate_name: String,
    /// Directory relative to root (`crates/core` or `` for the root).
    dir: String,
}

impl Unit {
    /// The cargo target directories of this unit and their regions.
    fn target_dirs(&self) -> Vec<(String, Region)> {
        let join = |sub: &str| {
            if self.dir.is_empty() {
                sub.to_string()
            } else {
                format!("{}/{sub}", self.dir)
            }
        };
        vec![
            (join("src"), Region::Lib),
            (join("tests"), Region::Test),
            (join("benches"), Region::Bench),
            (join("examples"), Region::Example),
        ]
    }
}

/// Enumerates the audited units: every directory under `crates/` (the
/// package name is `qcpa-<dirname>` by workspace convention) plus the
/// root package `qcpa`. `vendor/` stand-ins and `target/` are never
/// walked; fixture corpora live outside target directories.
fn workspace_units(root: &Path) -> io::Result<Vec<Unit>> {
    let mut units = vec![Unit {
        crate_name: "qcpa".to_string(),
        dir: String::new(),
    }];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        for name in names {
            units.push(Unit {
                crate_name: format!("qcpa-{name}"),
                dir: format!("crates/{name}"),
            });
        }
    }
    Ok(units)
}

/// Recursively lists `.rs` files under `dir`, sorted for a
/// deterministic report.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Loads the panic-hygiene baseline (`audit.baseline.json` at the
/// root): a JSON object mapping crate names to budgets. A missing file
/// is an empty baseline; a malformed one is an error (a silently
/// ignored ratchet is no ratchet).
fn load_baseline(root: &Path) -> io::Result<BTreeMap<String, u32>> {
    let path = root.join(BASELINE_FILE);
    if !path.is_file() {
        return Ok(BTreeMap::new());
    }
    let text = fs::read_to_string(&path)?;
    serde_json::from_str(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_root_finds_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = discover_root(here).expect("workspace root above crates/audit");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn units_include_root_and_crates() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = discover_root(here).expect("workspace root");
        let units = workspace_units(&root).expect("units");
        let names: Vec<&str> = units.iter().map(|u| u.crate_name.as_str()).collect();
        assert!(names.contains(&"qcpa"));
        assert!(names.contains(&"qcpa-core"));
        assert!(names.contains(&"qcpa-audit"));
    }
}
