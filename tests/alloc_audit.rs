//! Heap-allocation audit of the allocator on the benchmark's
//! `scale_alloc` instance, `clustered(512, 2017)` × 64: one
//! `allocate_multilevel` call under the benchmark's optimizer
//! configuration (≈ 76 k `DeltaCost::transfer` probes, none of which
//! may allocate in proportion to classes, backends or orphans), and the
//! top-level `greedy::allocate` the benchmark matches it against.
//! With per-probe `BTreeSet` re-derivation the multilevel call made
//! 3.18 M allocations / 256 MB; with `BTreeSet` fragment sets around a
//! bitset probe, 228 k, of which the coarsest greedy made 139 k. What
//! remains with `FragSet`s is population clones, coarsening and
//! per-level set vectors.
//!
//! Its own test binary so the counting `#[global_allocator]` is private
//! to it, and a single test so no other thread allocates while it
//! counts. Release only: the debug build cross-checks every transfer
//! against a cloned `normalize`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qcpa::core::cluster::ClusterSpec;
use qcpa::core::coarsen::{allocate_multilevel, CoarsenConfig};
use qcpa::core::greedy;
use qcpa::core::memetic::MemeticConfig;
use qcpa::workloads::scale::clustered;

/// Budgets: the counts measured when they were set (87 881 allocations
/// / 20.04 MB and 265 / 0.10 MB), plus at most 10 %.
const MULTILEVEL_CALLS: u64 = 96_000;
const MULTILEVEL_BYTES: u64 = 22_000_000;
const GREEDY_CALLS: u64 = 290;
const GREEDY_BYTES: u64 = 110_000;

/// Counts heap allocations (alloc + realloc calls) and the bytes they
/// request while delegating to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe `GlobalAlloc` trait"
)]
// SAFETY: every method delegates verbatim to the `System` allocator and
// only adds relaxed atomic counter bumps, so the `GlobalAlloc` contract
// (layout handling, pointer validity, thread safety) is exactly
// `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout unchanged to `System.alloc`,
    // whose safety preconditions are identical to this method's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` were produced by `alloc`/`realloc` above,
    // which return `System` pointers, so freeing through `System` is
    // sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same delegation argument as `dealloc` — the pointer came
    // from `System`, and the layout/new_size contract is passed through
    // untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations and bytes it
/// requested.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Prints the count and holds it to `(calls, bytes)`.
fn within(name: &str, (calls, bytes): (u64, u64), (max_calls, max_bytes): (u64, u64)) {
    println!(
        "{name}: {calls} allocations, {:.2} MB requested",
        bytes as f64 / 1e6
    );
    assert!(
        calls <= max_calls,
        "{name}: {calls} heap allocations (budget {max_calls})"
    );
    assert!(
        bytes <= max_bytes,
        "{name}: {bytes} bytes requested (budget {max_bytes})"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug cross-check allocates: release only"
)]
fn allocation_budgets_on_the_benchmark_instance() {
    let w = clustered(512, 2017);
    let (cls, catalog) = (&w.classification, &w.catalog);
    let cluster = ClusterSpec::homogeneous(64);
    let mcfg = MemeticConfig {
        population: 9,
        iterations: 30,
        mutations_per_offspring: 2,
        threads: Some(1),
        ..Default::default()
    };
    let (out, calls, bytes) =
        counted(|| allocate_multilevel(cls, catalog, &cluster, &mcfg, &CoarsenConfig::default()));
    out.alloc
        .validate(cls, &cluster)
        .expect("multilevel is valid");
    within(
        "allocate_multilevel 512 x 64",
        (calls, bytes),
        (MULTILEVEL_CALLS, MULTILEVEL_BYTES),
    );
    let (base, calls, bytes) = counted(|| greedy::allocate(cls, catalog, &cluster));
    base.validate(cls, &cluster).expect("greedy is valid");
    within(
        "greedy::allocate 512 x 64",
        (calls, bytes),
        (GREEDY_CALLS, GREEDY_BYTES),
    );
}
