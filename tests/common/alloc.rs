//! The counting global allocator the `alloc_*` tests share. Each of those
//! tests is its own binary and includes this file as a module, so the
//! `#[global_allocator]` is scoped to that binary. Not a test target:
//! cargo only builds `tests/*.rs` (and `tests/*/main.rs`) as tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting the allocations (and reallocations) of
/// whichever thread is inside [`allocations_in`], or of every thread while
/// one is inside [`allocations_in_every_thread`].
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
// `Relaxed` suffices: the counted code reaches its other threads through
// channels or joins, which order the flag's store before their work.
static EVERY_THREAD: AtomicBool = AtomicBool::new(false);

// Only the test thread's allocations count — the libtest harness threads
// allocate at their own pace (progress output, channel bookkeeping) and
// would make the counter flaky. `Cell<bool>` has no destructor, so the
// TLS access inside the allocator cannot itself allocate or recurse.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    EVERY_THREAD.load(Ordering::Relaxed) || COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread performs inside `f`, and what `f`
/// returned.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

/// Heap allocations *every* thread performs while the calling thread is
/// inside `f`, and what `f` returned: for code that hands work to threads
/// of its own. The harness threads count too, so this is exact only in a
/// binary whose one test is the only code running (each `alloc_*` test
/// is); there the harness sits blocked until the test returns.
#[allow(dead_code)] // only the binaries that serve on worker threads use it
pub fn allocations_in_every_thread<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    EVERY_THREAD.store(true, Ordering::Relaxed);
    let r = f();
    EVERY_THREAD.store(false, Ordering::Relaxed);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}
