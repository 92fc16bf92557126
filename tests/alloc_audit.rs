//! Heap-allocation audit of the allocator on the benchmark's
//! `scale_alloc` instance: one `allocate_multilevel` call on
//! `clustered(512, 2017)` × 64 under the benchmark's optimizer
//! configuration runs ≈ 76 k `DeltaCost::transfer` probes, and a probe
//! must not allocate in proportion to classes, backends or orphans.
//! With per-probe `BTreeSet` re-derivation the call made 3.18 M
//! allocations / 256 MB (42 per transfer); what remains is population
//! clones, greedy, coarsening and `BTreeSet` node churn for the
//! fragment bits a transfer actually flips.
//!
//! Its own test binary so the counting `#[global_allocator]` is private
//! to it, and a single test so no other thread allocates while it
//! counts. Release only: the debug build cross-checks every transfer
//! against a cloned `normalize`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qcpa::core::cluster::ClusterSpec;
use qcpa::core::coarsen::{allocate_multilevel, CoarsenConfig};
use qcpa::core::memetic::MemeticConfig;
use qcpa::workloads::scale::clustered;

/// Counts heap allocations (alloc + realloc calls) and the bytes they
/// request while delegating to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

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

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug cross-check allocates: release only"
)]
fn multilevel_allocation_budget_on_the_benchmark_instance() {
    let w = clustered(512, 2017);
    let cluster = ClusterSpec::homogeneous(64);
    let mcfg = MemeticConfig {
        population: 9,
        iterations: 30,
        mutations_per_offspring: 2,
        threads: Some(1),
        ..Default::default()
    };
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = allocate_multilevel(
        &w.classification,
        &w.catalog,
        &cluster,
        &mcfg,
        &CoarsenConfig::default(),
    );
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes;
    out.alloc
        .validate(&w.classification, &cluster)
        .expect("multilevel is valid");
    println!(
        "allocate_multilevel 512 x 64: {calls} allocations, {:.1} MB requested",
        bytes as f64 / 1e6
    );
    assert!(
        calls <= 450_000,
        "{calls} heap allocations (budget 450 000)"
    );
    assert!(
        bytes <= 32_000_000,
        "{bytes} bytes requested (budget 32 MB)"
    );
}
