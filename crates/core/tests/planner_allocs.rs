//! A decision's heap traffic must not scale with branches × candidates:
//! the planner kernel allocates its three scratch trajectories at the
//! first branch and refills them in place from then on, and sizes its
//! lists of forks left to the idle trajectory and of candidates riding a
//! paused fork for every candidate up front.
//!
//! This test binary installs a counting global allocator (the library
//! crates forbid `unsafe`; an integration test is its own crate). The
//! counter is per thread, so the harness's other threads cannot disturb
//! it.

use augur_core::{decide, DiscountedThroughput, PlannerConfig};
use augur_elements::{build_model, GateSpec, ModelParams, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF};
use augur_inference::{Belief, BeliefConfig, Hypothesis, Population};
use augur_sim::{BitRate, Bits, Dur, FlowId, Ppm};
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

/// A belief of `n` branches cycling through four configurations (busy
/// cross traffic, a lossy last mile, prefilled buffers), so that a longer
/// belief repeats the shapes of a shorter one. With `distinct`, branch `i`
/// gets `i` bits more buffer — less than a packet, so every rollout keeps
/// its shape's size — and no two branches share a rollout.
fn belief(n: usize, distinct: bool) -> Belief<(ModelParams, usize)> {
    let shapes = [
        (12_000, 0.0, 0),
        (10_000, 0.2, 36_000),
        (16_000, 0.1, 96_000),
        (14_000, 0.05, 12_000),
    ];
    let branches: Vec<_> = (0..n)
        .map(|i| {
            let (link_bps, loss, fullness) = shapes[i % shapes.len()];
            let params = ModelParams {
                link_rate: BitRate::from_bps(link_bps),
                cross_rate: BitRate::from_bps(link_bps * 7 / 10),
                gate: GateSpec::AlwaysOn,
                loss: Ppm::from_prob(loss),
                buffer_capacity: Bits::new(96_000 + if distinct { i as u64 } else { 0 }),
                initial_fullness: Bits::new(fullness),
                packet_size: Bits::from_bytes(1_500),
                cross_active: true,
            };
            Hypothesis {
                net: build_model(params).net,
                // The index keeps repeated shapes distinct hypotheses.
                meta: (params, i),
                weight: 1.0,
            }
        })
        .collect();
    Belief::from_population(
        Population::new(branches, Some(FIG2_LOSS)),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        BeliefConfig::default(),
    )
}

fn allocations_of_one_decide(branches: usize, candidates: usize, distinct: bool) -> u64 {
    let belief = belief(branches, distinct);
    let cfg = PlannerConfig {
        delay_grid: (0..candidates as u64)
            .map(|k| Dur::from_millis(k * 4_000 / candidates as u64))
            .collect(),
        ..PlannerConfig::default()
    };
    let utility = DiscountedThroughput::with_alpha(1.0);
    let before = ALLOCATIONS.with(Cell::get);
    let d = decide(
        &belief,
        &cfg,
        &utility,
        FlowId::SELF,
        0,
        Bits::from_bytes(1_500),
    );
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(d.evaluations.len(), 1 + candidates);
    allocations
}

#[test]
fn decide_allocations_do_not_scale_with_branches_or_candidates() {
    let base = allocations_of_one_decide(8, 9, false);
    assert!(base > 0, "the counting allocator is not installed");
    // Eight times the branches, the same four shapes: after the first
    // cycle has sized the scratch, not one allocation more.
    assert_eq!(allocations_of_one_decide(64, 9, false), base);
    // Twice the candidates: the scratch is the same; only a report may
    // cross one more growth step. Per-rollout allocation would add at
    // least one per (branch, extra candidate) — 72 here.
    let doubled = allocations_of_one_decide(8, 18, false);
    eprintln!(
        "one decide: {base} allocations at 8 or 64 branches × 9 candidates, {doubled} at 8 × 18"
    );
    assert!(
        doubled <= base + 4,
        "allocations grew with candidates: {base} for 9, {doubled} for 18"
    );
    // And the whole decision is about a hundred allocations, where the
    // candidate-major planner made about a dozen per rollout. The cap was
    // 100 with two scratch trajectories (73 measured); the third — the
    // candidate compared with the paused fork, cloned and grown like the
    // other two — and its list of riding slots add 34 (107 measured).
    const CAP: u64 = 100 + 34;
    assert!(base < CAP, "{base} allocations in one decide");
    // Every branch its own rollout, a quarter of them (the 96 000-bit
    // prefills, topped up by the first ping) dropping the send now: the
    // groups grow with the branches and the dropped forks fill the list
    // of slots left to the idle trajectory, and still nothing is
    // allocated per group or per dropped fork.
    let distinct = allocations_of_one_decide(8, 9, true);
    assert_eq!(allocations_of_one_decide(64, 9, true), distinct);
    assert!(distinct < CAP, "{distinct} allocations in one decide");
}
