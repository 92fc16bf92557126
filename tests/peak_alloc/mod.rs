//! A counting global allocator for the peak-heap budget tests: it
//! tracks the bytes currently allocated and their high-water mark while
//! delegating to the system allocator.
//!
//! A test binary installs it with
//! `#[global_allocator] static GLOBAL: PeakAlloc = PeakAlloc;` and holds
//! a single test, so no other thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// See the module docs.
pub struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: u64) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// The bytes allocated now.
pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the bytes allocated now, and returns
/// them.
pub fn reset_peak() -> u64 {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe `GlobalAlloc` trait"
)]
// SAFETY: every method delegates verbatim to the `System` allocator and
// only adds relaxed atomic counter updates, so the `GlobalAlloc`
// contract (layout handling, pointer validity, thread safety) is
// exactly `System`'s.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: forwards the caller's layout unchanged to `System.alloc`,
    // whose safety preconditions are identical to this method's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    // SAFETY: `ptr`/`layout` were produced by `alloc`/`realloc` above,
    // which return `System` pointers, so freeing through `System` is
    // sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: same delegation argument as `dealloc` — the pointer came
    // from `System`, and the layout/new_size contract is passed through
    // untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grow(new_size as u64);
        }
        p
    }
}
