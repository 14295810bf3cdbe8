//! A disabled trace sink must be free: installing [`apf_trace::NullSink`]
//! adds zero events and zero heap allocations to the simulation hot path.
//! And the digest sink every campaign runs must not allocate per event once
//! its line buffer is warm, float fields included.
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
use apf_trace::{HashSink, NullSink, PhaseKind, TraceEvent, TraceSink};
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

fn build_world(seed: u64) -> World {
    World::new(
        apf_patterns::symmetric_configuration(8, 4, 42),
        apf_patterns::random_pattern(8, 43),
        Box::new(FormPattern::new()),
        SchedulerKind::RoundRobin.build(seed),
        WorldConfig::default(),
        seed,
    )
}

/// Runs `world` for `steps` engine steps and returns the allocations the
/// run performed.
fn allocations_during(world: &mut World, steps: usize) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..steps {
        let _ = world.step();
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The smallest allocation count over several identical runs. The counter
/// is process-global, so unrelated allocations (test-harness threads,
/// lazy runtime init) can leak into a single measurement; ambient noise
/// only ever inflates a count, so the minimum converges to the run's true
/// hot-path allocations.
fn min_allocations(with_sink: bool) -> u64 {
    (0..5)
        .map(|_| {
            let mut world = build_world(7);
            if with_sink {
                world.set_sink(Box::new(NullSink));
                // A disabled sink is discarded at installation: no sink is
                // retained, so zero events can ever be recorded.
                assert!(!world.has_sink(), "disabled sinks must be dropped on install");
            }
            allocations_during(&mut world, 500)
        })
        .min()
        .expect("five runs yield a minimum")
}

#[test]
fn disabled_sink_adds_no_events_and_no_allocations() {
    let a = min_allocations(false);
    let b = min_allocations(true);
    assert!(a > 0, "sanity: the simulation allocates (snapshots, analysis)");
    assert_eq!(a, b, "a disabled sink must add zero allocations to the hot path");

    // Float fields are written straight into the digest sink's line buffer:
    // once a first pass has grown that buffer, recording allocates nothing
    // (the minimum of five passes, as in `min_allocations`).
    let events = [
        TraceEvent::MoveSlice {
            step: 12,
            robot: 3,
            advanced: 0.1 + 0.2,
            traveled: 1.0 / 3.0,
            length: 2.5e-7,
            end_phase: false,
            arrived: true,
        },
        TraceEvent::Interrupt { step: 13, robot: 3, traveled: 0.75, length: f64::NAN },
        TraceEvent::Decide {
            step: 14,
            robot: 5,
            phase: PhaseKind::DpfRotate,
            moved: true,
            path_len: 1e-12,
        },
    ];
    let mut sink = HashSink::new();
    events.iter().for_each(|ev| sink.record(ev));
    let warm = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            events.iter().for_each(|ev| sink.record(ev));
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min();
    assert_eq!(warm, Some(0), "a warm HashSink must not allocate");
}
