//! The Look→Compute path allocates little: a whole trial of the benchmark's
//! direct shapes, traced into the digest sink every campaign runs, makes at
//! most [`BUDGET_PER_LOOK`] heap allocations per Look.
//!
//! This file holds exactly one test because it swaps the global allocator
//! for a counting wrapper — other tests in the same binary would race the
//! counters.

// Wrapping the system allocator is the one place the workspace needs
// `unsafe`: GlobalAlloc's methods are unsafe by signature. The wrapper only
// counts and delegates.
#![allow(unsafe_code)]

use apf_core::FormPattern;
use apf_scheduler::SchedulerKind;
use apf_sim::{World, WorldConfig};
use apf_trace::HashSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations a trial may make per Look, world construction aside.
const BUDGET_PER_LOOK: f64 = 15.0;

/// Builds the trial `(n, rho, kind)` with geometry seed `seed`: a symmetric
/// start of symmetricity `rho`, or an asymmetric one when `rho` is 1, and a
/// random pattern, traced into a [`HashSink`].
fn trial(n: usize, rho: usize, kind: SchedulerKind, seed: u64) -> World {
    let initial = if rho > 1 {
        apf_patterns::symmetric_configuration(n, rho, seed)
    } else {
        apf_patterns::asymmetric_configuration(n, seed)
    };
    let mut world = World::new(
        initial,
        apf_patterns::random_pattern(n, seed + 1),
        Box::new(FormPattern::new()),
        kind.build(seed),
        WorldConfig::default(),
        seed,
    );
    world.set_sink(Box::new(HashSink::new()));
    world
}

/// Allocations per Look of running `make()`'s world to formation: the
/// smallest count over three identical runs. The counter is process-global,
/// so unrelated allocations (test-harness threads, lazy runtime init) can
/// leak into one measurement; they only ever inflate a count, so the
/// minimum is the run's own.
fn allocations_per_look(make: impl Fn() -> World) -> f64 {
    (0..3)
        .map(|_| {
            let mut world = make();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let outcome = world.run(5_000);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert!(outcome.formed, "the trial forms within its budget");
            allocations as f64 / outcome.metrics.cycles() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn direct_shapes_stay_within_the_allocation_budget_per_look() {
    let election = allocations_per_look(|| trial(12, 4, SchedulerKind::RoundRobin, 1));
    let formation = allocations_per_look(|| trial(20, 1, SchedulerKind::Ssync, 1));
    assert!(
        election <= BUDGET_PER_LOOK && formation <= BUDGET_PER_LOOK,
        "allocations per Look: 12-robot ρ=4 round-robin {election:.2}, 20-robot SSYNC \
         {formation:.2}; budget {BUDGET_PER_LOOK}"
    );
}
