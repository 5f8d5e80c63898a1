//! Allocation budgets for one design-space candidate and for one warm
//! artifact load. A counting global allocator counts the heap allocations
//! (and reallocations) the calling thread makes while it compiles
//! googlenet and resnet34 at the Figure-14 point, after a warm-up compile
//! of the same network, while it runs one googlenet training pass of the
//! performance model, and while it loads googlenet's stored artifact.
//! The counts are deterministic, so a per-layer scratch `Vec` put back
//! into a compile phase, an analysis recomputed per compile, or a load
//! that decodes through a JSON tree fails its budget.

use scaledeep_arch::DesignPoint;
use scaledeep_compiler::CompileOptions;
use scaledeep_compiler::{artifact_io, pipeline};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::perf::{PerfSim, RunKind};
use scaledeep_trace::Tracer;
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
            let plan = FaultPlan::none();
            let (_, run) = counted(|| {
                sim.run(
                    artifact.mapping(),
                    RunKind::Training,
                    &plan,
                    &mut Tracer::disabled(),
                    None,
                )
            });
            assert!(
                run < 147,
                "googlenet: a training run made {run} allocations, not fewer than 147"
            );
        }
    }
}

#[test]
fn warm_load_allocation_budget() {
    let node = DesignPoint::figure14_sp().node_config();
    let net = zoo::by_name("googlenet").expect("zoo network");
    let artifact = pipeline::compile(&node, &net, &CompileOptions::default()).expect("compiles");
    let dir = std::env::temp_dir().join(format!("scaledeep-load-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("googlenet.artifact.json");
    artifact_io::save(&artifact, &path).expect("saves");
    artifact_io::load(&path).expect("warm-up load");
    let (loaded, allocs) = counted(|| artifact_io::load(&path));
    std::fs::remove_dir_all(&dir).ok();
    let loaded = loaded.expect("loads");
    assert_eq!(
        artifact_io::to_json(&loaded).render_pretty(),
        artifact_io::to_json(&artifact).render_pretty()
    );
    // The tree-free decoder makes 222 in a release build and 281 in a
    // debug build; decoding through a `Json` tree made 4,406 (a key
    // `String` per field, a value `String` per string, a `Vec` per
    // container).
    assert!(
        allocs <= 300,
        "googlenet: a warm load made {allocs} allocations, over its budget of 300"
    );
}
