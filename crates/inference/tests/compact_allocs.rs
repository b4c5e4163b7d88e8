//! One `compact()` call's heap traffic must not scale with the belief: it
//! hashes each state's shared head into one vector of hashers, sorts two
//! vectors of index tuples, swaps the members into place and renumbers the
//! states they stand on, so it allocates those four vectors and nothing
//! per member.
//!
//! This test binary installs a counting global allocator (the library
//! crates forbid `unsafe`; an integration test is its own crate). The
//! counter is per thread, so the harness's other threads cannot disturb
//! it.

use augur_elements::{build_model, ModelParams, FIG2_LOSS};
use augur_inference::{Hypothesis, ModelPrior, Population};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a const-initialised
// `Cell<u64>` thread-local: it has no destructor and needs no lazy
// initialisation, so touching it here can neither allocate nor re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `n` members over the small prior's eight networks (four states: its two
/// loss rates share one each), every `(net, meta)` present twice and far
/// from its twin, on three distinct weights.
fn allocations_of_one_compact(n: usize) -> u64 {
    let grid = ModelPrior::small().grid();
    let branches: Vec<Hypothesis<(ModelParams, usize)>> = (0..n)
        .map(|i| {
            let params = grid[i % grid.len()];
            Hypothesis {
                net: build_model(params),
                meta: (params, i % (n / 2)),
                weight: [0.5, 0.25, 0.125][i % 3],
            }
        })
        .collect();
    let mut members = Population::new(branches, Some(FIG2_LOSS));
    assert_eq!(members.state_count(), 4);
    let before = ALLOCATIONS.with(Cell::get);
    let eliminated = members.compact();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!((eliminated, members.len()), (n / 2, n / 2));
    allocations
}

#[test]
fn compact_allocations_do_not_scale_with_branches() {
    let base = allocations_of_one_compact(16);
    assert!(base > 0, "the counting allocator is not installed");
    // The hash-index pairs and the survivor list, whatever the size: not
    // a copy of the members, no merge map, no sort buffer. Sharing states
    // added two: the per-state head hashers, and the state renumbering
    // that drops the states no survivor stands on.
    assert_eq!(base, 2 + 2);
    assert_eq!(allocations_of_one_compact(400), base);
    assert_eq!(allocations_of_one_compact(6_000), base);
}
