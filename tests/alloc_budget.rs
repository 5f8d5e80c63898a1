//! An allocation budget for one design-space candidate. A counting
//! global allocator counts the heap allocations (and reallocations) the
//! calling thread makes while it compiles googlenet and resnet34 at the
//! Figure-14 point, after a warm-up compile of the same network, and
//! while it runs one googlenet training pass of the performance model.
//! The counts are deterministic, so a per-layer scratch `Vec` put back
//! into a compile phase, or an analysis recomputed per compile, fails
//! the budget.

use scaledeep_arch::DesignPoint;
use scaledeep_compiler::pipeline;
use scaledeep_compiler::CompileOptions;
use scaledeep_dnn::zoo;
use scaledeep_sim::perf::{PerfSim, RunKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the thread that
/// makes it (so the test harness's other threads never perturb a count).
struct Counting;

fn count_one() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn candidate_path_allocation_budget() {
    let node = DesignPoint::figure14_sp().node_config();
    let opts = CompileOptions::default();
    // (network, compile budget): half of each compile's count before the
    // network's analysis was memoized and the mapping phases stopped
    // allocating per layer (googlenet 576, resnet34 452).
    for (name, budget) in [("googlenet", 288), ("resnet34", 226)] {
        let net = zoo::by_name(name).expect("zoo network");
        pipeline::compile(&node, &net, &opts).expect("warm-up compile");
        let (artifact, allocs) = counted(|| pipeline::compile(&node, &net, &opts));
        let artifact = artifact.expect("compiles");
        assert!(
            allocs <= budget,
            "{name}: a compile made {allocs} allocations, over its budget of {budget}"
        );
        if name == "googlenet" {
            let sim = PerfSim::new(&node);
            let (_, run) = counted(|| sim.run_mapped(artifact.mapping(), RunKind::Training));
            assert!(
                run < 147,
                "googlenet: a training run made {run} allocations, not fewer than 147"
            );
        }
    }
}
