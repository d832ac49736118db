//! The allocation ledger of a sequential LMSK solve, as a count: a node
//! is one buffer and the box it is queued in, and an expansion makes
//! its include child and nothing else (the exclude child is the
//! expanded node itself). So a solve makes 2 allocations per expanded
//! node, give or take what it makes once — the root, the scratch, the
//! vector the children travel in, the tour's edges — and the queue's
//! sibling groups, which double `O(log n)` times as the queue grows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tsp_app::{solve_sequential, TspInstance};

thread_local! {
    /// Allocations made on this thread, reallocations included.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations, so that
/// the test harness's own threads do not blur the count.
struct Counting;

// SAFETY: every request goes to `System` unchanged, so `Counting` keeps
// `System`'s guarantees. The count is a const-initialised thread-local
// without a destructor: touching it neither allocates nor re-enters the
// allocator, and `try_with` skips it once the thread is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller keeps `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with
        // this `layout`, as the caller promises.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The four sequential pins of `tests/same_tree.rs`.
#[test]
fn a_sequential_expansion_allocates_two_blocks() {
    for seed in [3, 24, 54, 70] {
        let inst = TspInstance::random_euclidean(16, 500, seed);
        let before = allocations();
        let (_, stats) = solve_sequential(&inst);
        let made = allocations() - before;
        let expanded = stats.expanded;
        // What a solve makes once, and a doubling of the queue for every
        // bit of its largest length, which is below `expanded`.
        let once_and_growth = 8 + u64::from(u64::BITS - expanded.leading_zeros());
        assert!(
            made.abs_diff(2 * expanded) <= once_and_growth,
            "seed {seed}: {made} allocations for {expanded} expansions ({:.3} each)",
            made as f64 / expanded as f64
        );
    }
}
