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

/// rng-taint: the seed expression derives from a length, not a seed.
pub fn taint(len: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(len);
    rng.next_u64()
}

/// rng-taint, suppressed per site.
pub fn taint_allowed(len: u64) -> u64 {
    // audit:allow(rng-taint): fixture demonstrates a suppressed taint
    let mut rng = ChaCha8Rng::seed_from_u64(len);
    rng.next_u64()
}

/// env-doc-drift: the key is read here but absent from README.md.
pub fn secret() -> Option<String> {
    std::env::var("QCPA_FIXTURE_SECRET").ok()
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
    // A seed argument spanning lines is seed-derived.
    let _plan = FaultPlan::from_seed(
        seed,
        4,
    );
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
