//! The allocation ledger of a sequential LMSK solve, as a count: a node
//! is one buffer and the box it is queued in, and an expansion makes
//! its include child and nothing else (the exclude child is the
//! expanded node itself). A node the search is done with goes back to
//! the calling thread's pool, and a child is built in a pooled node
//! when there is one. So the first solve on a thread makes at most 2
//! allocations per expanded node, and a second solve of the same
//! instance on that thread makes none: each only adds what a solve
//! makes once — the scratch, the vector the children travel in, the
//! root's reduction, the tour's edges — and the queue's sibling groups,
//! which double `O(log n)` times as the queue grows.

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

/// What a solve makes once, and a doubling of the queue for every bit
/// of its largest length, which is below `expanded`.
fn once_and_growth(expanded: u64) -> u64 {
    8 + u64::from(u64::BITS - expanded.leading_zeros())
}

/// Solve `inst` once, returning the allocations the solve made and the
/// nodes it expanded.
fn ledger(inst: &TspInstance) -> (u64, u64) {
    let before = allocations();
    let (_, stats) = solve_sequential(inst);
    (allocations() - before, stats.expanded)
}

/// The four sequential pins of `tests/same_tree.rs`, each `f` on a
/// thread of its own, whose pool starts empty.
fn on_fresh_threads(f: fn(u64, TspInstance)) {
    for seed in [3, 24, 54, 70] {
        let inst = TspInstance::random_euclidean(16, 500, seed);
        std::thread::spawn(move || f(seed, inst)).join().expect("the ledger holds");
    }
}

#[test]
fn a_sequential_expansion_allocates_two_blocks() {
    on_fresh_threads(|seed, inst| {
        let (made, expanded) = ledger(&inst);
        assert!(
            made <= 2 * expanded + once_and_growth(expanded),
            "seed {seed}: {made} allocations for {expanded} expansions ({:.3} each)",
            made as f64 / expanded as f64
        );
    });
}

#[test]
fn a_second_solve_on_the_same_thread_allocates_no_node() {
    on_fresh_threads(|seed, inst| {
        ledger(&inst);
        let (made, expanded) = ledger(&inst);
        assert!(
            made <= once_and_growth(expanded),
            "seed {seed}: {made} allocations for {expanded} expansions of a second solve"
        );
    });
}
