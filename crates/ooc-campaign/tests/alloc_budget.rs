//! Allocation budget of one campaign run.
//!
//! The `sweep` benchmark runs thousands of short executions, so a heap
//! allocation on a per-event or per-round path costs it throughput. This
//! test counts the allocations and reallocations each [`run_artifact`]
//! call makes over the benchmark's `sweep` set (`grid(alg, 1000)` for
//! every algorithm plus the Off half of the degradation grid at 96 seeds)
//! and holds each algorithm's mean to a budget. A count is exact and
//! repeats run to run, so it shows an allocation that crept back into a
//! hot path without any timing noise.
//!
//! The counters are thread-local, so tests running on other threads do
//! not disturb the count. This binary holds the workspace's only
//! `unsafe`: the library crates keep `#![forbid(unsafe_code)]`.

use ooc_campaign::{degradation_artifacts_with, grid, run_artifact, Algorithm};
use ooc_simnet::ReliabilityPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation made
/// on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are torn down,
    // when nothing is being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-
// initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's guarantees for `new_size` pass
        // through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mean allocations per run of each algorithm over the `sweep` set, in
/// `Algorithm::all()` order.
fn sweep_means() -> Vec<(Algorithm, f64)> {
    let mut artifacts: Vec<_> = Algorithm::all()
        .into_iter()
        .flat_map(|a| grid(a, 1000))
        .collect();
    artifacts.extend(degradation_artifacts_with(96, ReliabilityPolicy::Off));
    Algorithm::all()
        .into_iter()
        .map(|algorithm| {
            let (mut runs, mut total) = (0u64, 0u64);
            for artifact in artifacts.iter().filter(|a| a.algorithm == algorithm) {
                let before = allocations();
                let outcome = run_artifact(artifact);
                total += allocations() - before;
                runs += 1;
                drop(outcome);
            }
            assert!(runs > 0, "{algorithm:?} has runs in the sweep set");
            (algorithm, total as f64 / runs as f64)
        })
        .collect()
}

#[test]
fn sweep_runs_stay_within_their_allocation_budget() {
    let means = sweep_means();
    for (algorithm, mean) in &means {
        println!("{algorithm:?}: {mean:.1} allocations per run");
    }
    for (algorithm, mean) in means {
        // 60% of the 311.3 and 169.4 allocations this test counted for a
        // Raft and a Phase-King run while their per-event and per-round
        // paths still allocated, and 85% of Ben-Or's 73.8.
        let budget = match algorithm {
            Algorithm::Raft => 187.0,
            Algorithm::PhaseKing => 102.0,
            Algorithm::BenOr => 63.0,
        };
        assert!(
            mean <= budget,
            "{algorithm:?} runs allocate {mean:.1} times on average, over the budget of {budget}"
        );
    }
}
