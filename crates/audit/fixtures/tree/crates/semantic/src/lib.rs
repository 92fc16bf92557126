// Fixture: one violation per semantic (cross-function) rule, plus a
// suppressed case. Parsed by the audit tests, never compiled. This
// crate is not in DETERMINISTIC_CRATES, so the lexical hash-iter rule
// stays silent and the semantic findings are isolated.
#![forbid(unsafe_code)]

use std::collections::HashMap;

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

/// ordered-reduction: a merge accumulating floats in hash order.
pub fn merge_scores(m: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for v in m.values() {
        total += v;
    }
    total
}

/// env-doc-drift: the key is read here but absent from README.md.
pub fn secret() -> Option<String> {
    std::env::var("QCPA_FIXTURE_SECRET").ok()
}
