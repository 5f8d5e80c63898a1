//! Allocation budgets for one design-space candidate, one warm artifact
//! load and one warm functional training iteration and evaluation. A
//! counting global allocator counts the heap allocations (and
//! reallocations) the calling thread makes while it compiles googlenet
//! and resnet34 at the Figure-14 point, after a warm-up compile of the
//! same network, while it runs one googlenet training pass of the
//! performance model, while it fingerprints a design point and draws a
//! 32-candidate sample, while a second design point of one session
//! compiles alexnet-func, while it loads googlenet's stored artifact, and
//! while it runs one alexnet-func training iteration and one evaluation.
//! The counts are deterministic, so a per-layer scratch `Vec` put back
//! into a compile phase, an analysis recomputed per compile, a
//! fingerprint or label built through a JSON tree or per-part strings,
//! codegen re-run for a design point it does not depend on, a load that
//! decodes through a JSON tree, or a network or program set copied per
//! run fails its budget.

use scaledeep::Session;
use scaledeep_arch::{DesignPoint, Knob, KnobValue, ParamSpace, Precision};
use scaledeep_compiler::CompileOptions;
use scaledeep_compiler::{artifact_io, pipeline};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::func::{CycleCosts, FuncSim, Machine};
use scaledeep_sim::perf::{PerfSim, RunKind};
use scaledeep_tensor::Executor;
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

    // Every candidate's provenance fingerprints its design point. The
    // canonical text streams into the hash and allocates nothing; building
    // and rendering a `Json` tree made 59 allocations.
    let point = DesignPoint::figure14_sp();
    let (_, allocs) = counted(|| point.fingerprint());
    assert_eq!(allocs, 0, "a design fingerprint made {allocs} allocations");

    // perfbench's dse-sweep draws: one label `String` per candidate, plus
    // the index buffer and the result `Vec` (34 for 32 candidates). A
    // `String` per rendered number and per `knob=value` part, joined,
    // made 737.
    let space = perfbench_space();
    let (sample, allocs) = counted(|| space.sample(32, 601));
    assert_eq!(sample.len(), 32);
    assert!(
        allocs <= 40,
        "sample(32) made {allocs} allocations, over its budget of 40"
    );
}

/// The seven-knob space perfbench's dse-sweep draws from.
fn perfbench_space() -> ParamSpace {
    let nums =
        |values: &[f64]| -> Vec<KnobValue> { values.iter().map(|&v| KnobValue::Num(v)).collect() };
    ParamSpace::new(DesignPoint::figure14_sp())
        .axis(Knob::Clusters, nums(&[1.0, 2.0, 4.0, 8.0]))
        .axis(Knob::ConvChips, nums(&[2.0, 4.0, 6.0]))
        .axis(Knob::FrequencyMhz, nums(&[450.0, 600.0, 750.0]))
        .axis(
            Knob::Precision,
            vec![
                KnobValue::Prec(Precision::Single),
                KnobValue::Prec(Precision::Half),
            ],
        )
        .axis(Knob::ConvCols, nums(&[4.0, 8.0, 12.0, 16.0]))
        .axis(
            Knob::ConvMemCapacityBytes,
            nums(&[131_072.0, 262_144.0, 524_288.0]),
        )
        .axis(Knob::RingBw, nums(&[6e9, 12e9, 24e9]))
}

#[test]
fn shared_functional_half_allocation_budget() {
    // A design point's compile of a network another point of the same
    // session already compiled reuses its codegen verdict and lowered
    // programs: it pays for the mapping phases only.
    let net = zoo::alexnet_func();
    let hub = Session::single_precision();
    hub.compile(&net).expect("first point compiles");
    let hp = hub.retarget(
        DesignPoint::figure14_sp()
            .derive_half_precision()
            .node_config(),
    );
    let (artifact, allocs) = counted(|| hp.compile(&net));
    artifact.expect("second point compiles");
    // 51 allocations; the same compile in a fresh session, which runs
    // codegen and lower, makes 9,389.
    assert!(
        allocs <= 100,
        "alexnet-func: a compile sharing its functional half made {allocs} allocations, \
         over its budget of 100"
    );
}

#[test]
fn warm_functional_iteration_allocation_budget() {
    let node = DesignPoint::figure14_sp().node_config();
    let net = zoo::alexnet_func();
    let artifact = pipeline::compile(&node, &net, &CompileOptions::default()).expect("compiles");
    let mut sim = FuncSim::from_artifact(&net, &artifact).expect("functional artifact");
    sim.import_params(&Executor::new(&net, 1).expect("reference executor"))
        .expect("imports");
    let image = vec![0.5f32; net.input().output_shape().elems()];
    let golden_len = net
        .layers()
        .last()
        .expect("a loss head")
        .output_shape()
        .elems();
    let golden = vec![0.25f32; golden_len];
    sim.run_iteration(&image, &golden)
        .expect("warm-up iteration");
    let (stats, iteration) = counted(|| sim.run_iteration(&image, &golden));
    stats.expect("runs");

    // The same dispatch on a bare machine of the same shape: what the
    // machine itself allocates, which this budget does not pin.
    let compiled = artifact.functional().expect("functional artifact");
    let programs = artifact.lowered().expect("lowered programs");
    let mut machine = Machine::new(compiled.mem_tiles, sim.capacity());
    let mut dispatch = || {
        machine.run_lowered(
            programs,
            &compiled.trackers,
            &CycleCosts::default(),
            &FaultPlan::none(),
            &mut Tracer::disabled(),
            None,
        )
    };
    dispatch().expect("warm-up dispatch");
    let (stats, machine_allocs) = counted(&mut dispatch);
    stats.expect("dispatches");

    // The harness that clears and loads buffers around dispatch makes no
    // allocation per layer; cloning the network and the buffer table per
    // iteration made 43.
    let harness = iteration.saturating_sub(machine_allocs);
    assert!(
        harness <= 8,
        "alexnet-func: a warm training iteration made {iteration} allocations, \
         {machine_allocs} of them the machine's dispatch: the harness's {harness} are over its budget of 8"
    );
}

#[test]
fn warm_evaluation_allocation_budget() {
    let node = DesignPoint::figure14_sp().node_config();
    let net = zoo::alexnet_func();
    let artifact = pipeline::compile(&node, &net, &CompileOptions::default()).expect("compiles");
    let mut sim = FuncSim::from_artifact(&net, &artifact).expect("functional artifact");
    sim.import_params(&Executor::new(&net, 1).expect("reference executor"))
        .expect("imports");
    let image = vec![0.5f32; net.input().output_shape().elems()];
    sim.run_evaluation(&image).expect("warm-up evaluation");
    let (stats, evaluation) = counted(|| sim.run_evaluation(&image));
    stats.expect("runs");

    // The same forward programs dispatched on a bare machine of the same
    // shape: what the machine itself allocates.
    let compiled = artifact.functional().expect("functional artifact");
    let forward: Vec<_> = artifact
        .lowered()
        .expect("lowered programs")
        .iter()
        .filter(|p| p.name().ends_with(".FP"))
        .cloned()
        .collect();
    let mut machine = Machine::new(compiled.mem_tiles, sim.capacity());
    let mut dispatch = || {
        machine.run_lowered(
            &forward,
            &compiled.trackers,
            &CycleCosts::default(),
            &FaultPlan::none(),
            &mut Tracer::disabled(),
            None,
        )
    };
    dispatch().expect("warm-up dispatch");
    let (stats, machine_allocs) = counted(&mut dispatch);
    stats.expect("dispatches");

    // The harness picks the forward programs by reference (it makes 2
    // allocations); copying them per evaluation made 1,056.
    let harness = evaluation.saturating_sub(machine_allocs);
    assert!(
        harness <= 8,
        "alexnet-func: a warm evaluation made {evaluation} allocations, \
         {machine_allocs} of them the machine's dispatch: the harness's {harness} are over its budget of 8"
    );
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
