//! # qcpa-par — deterministic RNG stream seeds
//!
//! The memetic allocator draws every offspring from its own RNG stream,
//! seeded from `(seed, generation, index)` by [`stream_seed`], so a
//! run is a pure function of its configuration and the streams of
//! different offspring are statistically independent.
//! [`hardware_parallelism`] reports the host's core count for bench
//! provenance. The crate spawns no threads.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

/// The machine's available hardware parallelism (1 when unknown).
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Mixes a `(seed, stream, index)` triple into an independent 64-bit
/// RNG seed (SplitMix64 finalizer applied to each component).
///
/// Callers use one stream id per draw site and the task index within
/// it, so every task gets a statistically independent, reproducible
/// RNG.
pub fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(stream ^ splitmix(index.wrapping_add(0x9E37_79B9_7F4A_7C15))))
}

/// The SplitMix64 finalizer: a bijective avalanche mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..8u64 {
            for idx in 0..64u64 {
                assert!(seen.insert(stream_seed(1, stream, idx)));
            }
        }
    }

    #[test]
    fn stream_seed_values_are_pinned() {
        // The allocator goldens depend on these exact streams.
        assert_eq!(stream_seed(1, 2, 3), 0x96a4_b3d8_3f4c_cfa4);
        assert_eq!(stream_seed(0xC0FFEE, 0, u64::MAX), 0x6682_8191_af2b_be98);
    }

    #[test]
    fn hardware_parallelism_is_positive() {
        assert!(hardware_parallelism() >= 1);
    }
}
