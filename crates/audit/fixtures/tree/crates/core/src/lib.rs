// Fixture: one violation per token rule, plus suppression and
// malformed-annotation cases. This file is lexed by the audit tests,
// never compiled. The missing `#![forbid(unsafe_code)]` attribute is
// itself a deliberate unsafe-audit violation.

use std::collections::HashMap;
use std::time::Instant;

pub fn violations() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let _t = Instant::now();
    let mut _rng = rand::thread_rng();
    std::thread::spawn(|| {});
    let _v: Option<u32> = None;
    let _v = _v.unwrap();
    let _home = std::env::var("HOME");
}

// A hot entry point reaching the unwrap above: the panic-path rule
// must separate it from the test-only unwrap below.
pub fn run_open() {
    violations();
}

// audit:allow(hash-iter): fixture demonstrates a suppressed finding
pub type Suppressed = HashMap<String, u32>;

// audit:allow(no-such-rule): unknown rule names are malformed
// audit:allow(hash-iter) missing colon and justification
pub fn negatives() {
    // A HashMap mentioned in prose must not fire.
    let _s = "Instant::now() inside a string literal";
    let _raw = r#"x.unwrap() inside a raw string"#;
    let _ok = std::env::var("QCPA_LOG");
}

/// Doc comments may cite the `audit:allow(hash-iter): why` grammar
/// without being parsed as annotations.
pub struct Documented;

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt_from_panic_hygiene() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
