//! Source policies that no clippy lint can state. Library code is every
//! `.rs` file under `src/` and `crates/*/src/`, `#[cfg(test)]` items
//! excluded unless a check says otherwise.
//!
//! * Every crate inherits the workspace lints, and every library crate
//!   root forbids `unsafe` and denies the panic lints.
//! * Every RNG is keyed by a seed: a `seed_from_u64(` / `from_seed(`
//!   call's balanced argument list holds a numeric literal or an
//!   identifier containing `seed`.
//! * The `QCPA_*` env surface matches README.md both ways: each key that
//!   library code names is mentioned there, and each knob-table row
//!   names a key that some library source (tests included) names.
//! * Every `qcpa-bench <name>` / `qcpa-bench -- <name>` invocation in
//!   the docs and `scripts/check.sh` names a row of
//!   `qcpa_bench::COMMANDS`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
/// The files whose `qcpa-bench` invocations must name a command.
const BENCH_DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    "scripts/check.sh",
];
const CRATE_ROOT_ATTRS: [&str; 2] = [
    "#![forbid(unsafe_code)]",
    "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
];

/// The root package and every `crates/*` directory.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(Path::new(ROOT).join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    dirs.sort();
    dirs.insert(0, PathBuf::from(ROOT));
    dirs
}

/// One library source file, masked.
struct Source {
    path: PathBuf,
    code: String,
    /// String literal bodies with their byte offsets.
    strings: Vec<(usize, String)>,
    /// Byte ranges of `#[cfg(test)]` items.
    tests: Vec<(usize, usize)>,
}

impl Source {
    fn in_test(&self, at: usize) -> bool {
        self.tests.iter().any(|&(a, b)| (a..b).contains(&at))
    }

    fn line(&self, at: usize) -> String {
        let line = self.code[..at].matches('\n').count() + 1;
        format!("{}:{line}", self.path.display())
    }
}

fn library_sources() -> Vec<Source> {
    let mut stack: Vec<PathBuf> = crate_dirs().iter().map(|d| d.join("src")).collect();
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let (code, strings) = mask(&fs::read_to_string(&path).unwrap());
                let tests = test_ranges(&code);
                out.push(Source {
                    path,
                    code,
                    strings,
                    tests,
                });
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// Blanks comments and literal bodies to spaces (newlines kept, so
/// offsets and lines survive) and returns that code plus each string
/// literal's body with its byte offset.
fn mask(src: &str) -> (String, Vec<(usize, String)>) {
    let b = src.as_bytes();
    let ident = |i: usize| b[i].is_ascii_alphanumeric() || b[i] == b'_';
    let raw_hashes = |i: usize| {
        let prefix_ok = i == 0 || !ident(i - 1) || (b[i - 1] == b'b' && (i < 2 || !ident(i - 2)));
        let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
        (b[i] == b'r' && prefix_ok && b.get(i + 1 + hashes) == Some(&b'"')).then_some(hashes)
    };
    let (mut code, mut strings) = (b.to_vec(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if b[i..].starts_with(b"//") {
            i += b[i..].iter().take_while(|&&c| c != b'\n').count();
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    (depth, i) = (depth + 1, i + 2);
                } else if b[i..].starts_with(b"*/") {
                    (depth, i) = (depth - 1, i + 2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if let Some(hashes) = raw_hashes(i) {
            let body = i + 2 + hashes;
            let close = format!("\"{}", "#".repeat(hashes));
            let end = src[body..].find(&close).map_or(b.len(), |n| body + n);
            strings.push((start, src[body..end].to_string()));
            i = (end + close.len()).min(b.len());
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            strings.push((start, src[start + 1..i.min(b.len())].to_string()));
            i = (i + 1).min(b.len());
        } else if b[i] == b'\'' && b.get(i + 1) == Some(&b'\\') {
            i += 3 + b[i + 3..].iter().take_while(|&&c| c != b'\'').count() + 1;
        } else if b[i] == b'\'' && src[i + 1..].chars().nth(1) == Some('\'') {
            i += 2 + src[i + 1..].chars().next().map_or(0, char::len_utf8);
        } else {
            i += 1;
            continue;
        }
        let blank = &mut code[start..i.min(b.len())];
        blank
            .iter_mut()
            .filter(|c| **c != b'\n')
            .for_each(|c| *c = b' ');
    }
    (String::from_utf8(code).unwrap(), strings)
}

/// Byte ranges of the `#[cfg(test)]` items of masked code.
fn test_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut from = 0;
    while let Some(n) = code[from..].find("#[cfg(test)]") {
        let (start, mut depth) = (from + n, 0usize);
        let end = code[start..]
            .bytes()
            .position(|c| {
                depth = match c {
                    b'{' => depth + 1,
                    b'}' => depth.saturating_sub(1),
                    _ => depth,
                };
                (c == b'}' || c == b';') && depth == 0
            })
            .map_or(code.len(), |p| start + p + 1);
        ranges.push((start, end));
        from = end;
    }
    ranges
}

/// A complete `QCPA_*` key, not a bare prefix like `QCPA_` that code
/// completes at run time.
fn is_key(s: &str) -> bool {
    s.len() > 5
        && s.starts_with("QCPA_")
        && !s.ends_with('_')
        && s.bytes()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_')
}

fn keys(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| is_key(w))
}

#[test]
fn mask_separates_code_from_comments_and_literals() {
    let src = "let a = '\"'; // seed_from_u64(x)\nlet s = r#\"QCPA_X \"# /* /* b */ c */;\nf::<'a>(\"\\\"QCPA_Y\");\n";
    let (code, strings) = mask(src);
    assert_eq!(code.lines().count(), 3);
    assert!(!code.contains("seed_from_u64") && !code.contains("QCPA") && code.contains("f::<'a>("));
    let bodies: Vec<&str> = strings.iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(bodies, ["QCPA_X ", "\\\"QCPA_Y"]);
    assert_eq!(
        test_ranges("fn a() {}\n#[cfg(test)]\nmod t { fn b() {} }\nfn c() {}"),
        [(10, 42)]
    );
}

#[test]
fn every_crate_inherits_the_workspace_lints() {
    for dir in crate_dirs() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{}: no `[lints] workspace = true`",
            dir.display()
        );
        let lib = fs::read_to_string(dir.join("src/lib.rs")).unwrap();
        for attr in CRATE_ROOT_ATTRS {
            assert!(
                lib.lines().any(|l| l == attr),
                "{}/src/lib.rs lacks {attr}",
                dir.display()
            );
        }
    }
}

#[test]
fn every_rng_is_seeded() {
    let mut unseeded = Vec::new();
    for src in library_sources() {
        for ctor in ["seed_from_u64(", "from_seed("] {
            for (at, _) in src.code.match_indices(ctor) {
                let before = &src.code[..at];
                let is_call = !before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    && !before.trim_end().ends_with("fn");
                if !is_call || src.in_test(at) {
                    continue;
                }
                let mut depth = 1;
                let args: String = src.code[at + ctor.len()..]
                    .chars()
                    .take_while(|&c| {
                        depth += i32::from(c == '(') - i32::from(c == ')');
                        depth > 0
                    })
                    .collect();
                let seeded = args
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .any(|w| {
                        w.starts_with(|c: char| c.is_ascii_digit())
                            || w.to_lowercase().contains("seed")
                    });
                if !seeded {
                    unseeded.push(src.line(at));
                }
            }
        }
    }
    assert!(
        unseeded.is_empty(),
        "RNGs not built from a seed: {unseeded:?}"
    );
}

#[test]
fn env_keys_match_the_readme() {
    let readme = fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();
    let documented: BTreeSet<&str> = readme.lines().flat_map(keys).collect();
    let (mut undocumented, mut named) = (Vec::new(), BTreeSet::new());
    for src in library_sources() {
        for (at, key) in src.strings.iter().filter(|(_, s)| is_key(s)) {
            if !src.in_test(*at) && !documented.contains(key.as_str()) {
                undocumented.push(format!("{key} at {}", src.line(*at)));
            }
            named.insert(key.clone());
        }
    }
    assert!(
        undocumented.is_empty(),
        "keys missing from README.md: {undocumented:?}"
    );
    let dead: Vec<&str> = readme
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .flat_map(keys)
        .filter(|k| !named.contains(*k))
        .collect();
    assert!(
        dead.is_empty(),
        "README knob rows no library source names: {dead:?}"
    );
}

#[test]
fn bench_invocations_name_a_command() {
    let (mut checked, mut unknown) = (0, Vec::new());
    for doc in BENCH_DOCS {
        let text = fs::read_to_string(Path::new(ROOT).join(doc)).unwrap();
        let words: Vec<&str> = text.split_whitespace().collect();
        for i in (0..words.len()).filter(|&i| words[i] == "qcpa-bench") {
            let name = match &words[i + 1..] {
                ["--", name, ..] | [name, ..] => name.trim_end_matches(['`', ',', '.', ')']),
                [] => "",
            };
            // `<name>` and `<id>` are placeholders in prose.
            if !name.starts_with('<') && qcpa_bench::command(name).is_none() {
                unknown.push(format!("{doc}: qcpa-bench {name}"));
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no qcpa-bench invocations found");
    assert!(
        unknown.is_empty(),
        "invocations naming no qcpa_bench::COMMANDS row: {unknown:?}"
    );
}
