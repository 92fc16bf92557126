// Fixture: unsafe-audit cases and a hash-iter case outside the core
// crate. Lexed only, never compiled.
#![forbid(unsafe_code)]

/// Reads a byte through a raw pointer.
pub fn undocumented(p: *const u8) -> u8 {
    unsafe { *p }
}

// SAFETY: caller guarantees `p` is valid for reads; documented unsafe
// blocks are accepted without an annotation.
pub fn documented(p: *const u8) -> u8 {
    unsafe { *p }
}

/// hash-iter covers every crate, not only the allocator's: a float sum
/// in hash order changes its bits from run to run.
pub fn merge_scores(m: &std::collections::HashMap<u64, f64>) -> f64 {
    m.values().sum()
}
