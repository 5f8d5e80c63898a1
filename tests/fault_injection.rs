//! Fault-injection and graceful-degradation validation across the stack:
//!
//! * an **empty** fault plan must leave both simulators bit-identical to
//!   their fault-free entry points (stats, cycles, full memory image) —
//!   the fault machinery is free when unused;
//! * an induced hang must terminate through the typed watchdog error
//!   within the cycle budget;
//! * link-retry latency must be accounted exactly;
//! * a degraded recompile around a dead tile must still reproduce the
//!   reference executor's outputs, errors, and gradients.

use proptest::prelude::*;
use scaledeep::{Observer, Session};
use scaledeep_arch::presets;
use scaledeep_compiler::codegen::{FuncTargetOptions, LayerBuffers};
use scaledeep_compiler::{pipeline, CompileOptions, CompiledArtifact, FailedTiles};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, Network, NetworkBuilder};
use scaledeep_sim::fault::{FaultKind, FaultPlan, LinkFaults};
use scaledeep_sim::func::{FuncSim, RunStats};
use scaledeep_sim::perf::RunKind;
use scaledeep_sim::Error;
use scaledeep_tensor::{Executor, Tensor};
use scaledeep_trace::Tracer;

/// Functional compile through the phase pipeline (healthy layout).
fn compile_functional(
    net: &Network,
    opts: &FuncTargetOptions,
) -> Result<CompiledArtifact, scaledeep_compiler::Error> {
    compile_functional_degraded(net, opts, 1, &[])
}

/// Degraded functional compile through the phase pipeline: the dead
/// MemHeavy tiles enter as the [`FailedTiles`] phase input.
fn compile_functional_degraded(
    net: &Network,
    opts: &FuncTargetOptions,
    minibatch: usize,
    dead_tiles: &[u16],
) -> Result<CompiledArtifact, scaledeep_compiler::Error> {
    let artifact = pipeline::compile(
        &presets::single_precision(),
        net,
        &CompileOptions {
            func: *opts,
            minibatch,
            failed: FailedTiles::from_func_tiles(dead_tiles.iter().copied()),
        },
    )?;
    artifact.functional()?;
    Ok(artifact)
}

fn tiny_net(out_features: usize, neurons: usize) -> Network {
    let mut b = NetworkBuilder::new("fault-net", FeatureShape::new(1, 6, 6));
    let c = b
        .conv(
            "c",
            Conv {
                out_features,
                kernel: 3,
                stride: 1,
                pad: 1,
                groups: 1,
                bias: false,
                activation: Activation::Relu,
            },
        )
        .unwrap();
    let f = b
        .fc_from(
            "f",
            c,
            Fc {
                out_neurons: neurons,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    b.finish_with_loss(f).unwrap()
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

fn io_for(net: &Network, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let in_elems = net.input().output_shape().elems();
    let classifier = net
        .layers()
        .find(|n| matches!(n.layer(), scaledeep_dnn::Layer::Loss))
        .map(|n| n.inputs()[0])
        .expect("training graph has a loss head");
    let n_out = net.node(classifier).output_shape().elems();
    (
        rand_vec(in_elems, seed ^ 0xAAAA),
        rand_vec(n_out, seed ^ 0x5555),
    )
}

/// Every concrete buffer of one layer, for memory-image comparison.
fn buffer_locs(b: &LayerBuffers) -> Vec<scaledeep_compiler::codegen::BufferLoc> {
    [
        b.output,
        b.pre,
        b.err,
        b.dz,
        b.weights,
        b.weights_t,
        b.wgrad,
        b.golden,
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// One unobserved functional iteration under `plan`.
fn iterate(
    sim: &mut FuncSim,
    image: &[f32],
    golden: &[f32],
    plan: &FaultPlan,
) -> Result<RunStats, Error> {
    sim.run_iteration_traced(image, golden, plan, &mut Tracer::disabled(), None)
}

// ---------- empty-plan bit-identity ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Functional simulator: running under `FaultPlan::none()` is
    /// bit-identical to the fault-free entry point — same stats, same
    /// cycles, same full memory image.
    #[test]
    fn empty_plan_is_bit_identical_functionally(
        out_features in 1usize..4,
        neurons in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let net = tiny_net(out_features, neurons);
        let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
        let compiled = artifact.functional().unwrap();
        let reference = Executor::new(&net, seed).unwrap();
        let (image, golden) = io_for(&net, seed);

        let mut clean = FuncSim::from_artifact(&net, &artifact).unwrap();
        clean.import_params(&reference).unwrap();
        let clean_stats = clean.run_iteration(&image, &golden).unwrap();

        let mut faulted = FuncSim::from_artifact(&net, &artifact).unwrap();
        faulted.import_params(&reference).unwrap();
        let faulted_stats = iterate(&mut faulted, &image, &golden, &FaultPlan::none()).unwrap();

        prop_assert_eq!(clean_stats, faulted_stats);
        for layer in &compiled.buffers {
            for loc in buffer_locs(layer) {
                let a = clean.read_buffer(loc);
                let b = faulted.read_buffer(loc);
                prop_assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "memory image diverges at tile {} offset {}", loc.tile, loc.offset
                );
            }
        }
    }

    /// Performance simulator: an empty plan leaves the entire result —
    /// throughput, utilizations, power, per-stage detail — bit-identical.
    #[test]
    fn empty_plan_is_bit_identical_in_perf(net_idx in 0usize..3) {
        let name = ["alexnet", "overfeat-fast", "vgg-a"][net_idx];
        let net = scaledeep_dnn::zoo::by_name(name).unwrap();
        let session = Session::single_precision();
        let mapping = session.compile(&net).unwrap();
        let clean = session.run_mapped(&mapping, RunKind::Training);
        let plan = FaultPlan::none();
        let faulted = session.run_mapped_with(&mapping, RunKind::Training, &plan, Observer::Off).value;
        prop_assert_eq!(clean, faulted);
    }
}

// ---------- watchdog ----------

#[test]
fn watchdog_bounds_an_induced_hang() {
    let net = tiny_net(2, 4);
    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let reference = Executor::new(&net, 3).unwrap();
    let (image, golden) = io_for(&net, 3);

    let mut clean = FuncSim::from_artifact(&net, &artifact).unwrap();
    clean.import_params(&reference).unwrap();
    let clean_cycles = clean.run_iteration(&image, &golden).unwrap().cycles;

    // A watchdog far below the clean runtime converts the (artificially
    // truncated) run into a typed error at the first event past budget.
    let budget = clean_cycles / 10;
    let plan = FaultPlan::seeded(1).with_watchdog(budget);
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    let err = iterate(&mut sim, &image, &golden, &plan).unwrap_err();
    match err {
        Error::Watchdog { stuck, at } => {
            assert!(at > budget, "fires strictly past the budget");
            assert!(
                at < clean_cycles,
                "fires long before the run would finish ({at} vs {clean_cycles})"
            );
            assert!(!stuck.is_empty(), "reports the still-running programs");
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn dropped_wakeup_hang_is_caught_by_the_watchdog() {
    let net = tiny_net(2, 4);
    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let compiled = artifact.functional().unwrap();
    let reference = Executor::new(&net, 5).unwrap();
    let (image, golden) = io_for(&net, 5);

    let mut clean = FuncSim::from_artifact(&net, &artifact).unwrap();
    clean.import_params(&reference).unwrap();
    let clean_cycles = clean.run_iteration(&image, &golden).unwrap().cycles;

    // Drop every wakeup broadcast from cycle 1 on; the dataflow stalls and
    // only the watchdog (or drain-deadlock) can end the run. Either typed
    // error is a graceful, diagnosable exit — never a silent hang.
    let mut plan = FaultPlan::seeded(2).with_watchdog(clean_cycles * 2);
    for tile in 0..compiled.mem_tiles as u16 {
        plan = plan.with_fault(1, FaultKind::DroppedWakeup { tile });
    }
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    match iterate(&mut sim, &image, &golden, &plan) {
        Err(Error::Watchdog { at, .. }) => assert!(at <= clean_cycles * 2 + 1),
        Err(Error::Deadlock { stuck, .. }) => assert!(!stuck.is_empty()),
        other => panic!("expected watchdog or deadlock, got {other:?}"),
    }
}

// ---------- link-retry accounting ----------

#[test]
fn link_retry_latency_is_accounted_exactly() {
    let net = scaledeep_dnn::zoo::alexnet();
    let session = Session::single_precision();
    let mapping = session.compile(&net).unwrap();
    let clean = session.run_mapped(&mapping, RunKind::Training);

    // Certain single retries: every transfer draws exactly one retry of
    // exactly `base_backoff` cycles, so the totals must reconcile.
    let base_backoff = 7;
    let plan = FaultPlan::seeded(9).with_link_faults(LinkFaults {
        prob: 1.0,
        base_backoff,
        max_retries: 1,
    });
    let faulted = session
        .run_mapped_with(&mapping, RunKind::Training, &plan, Observer::Off)
        .value;
    assert!(faulted.faults.link_retries > 0);
    assert_eq!(
        faulted.faults.retry_cycles,
        faulted.faults.link_retries * base_backoff,
        "one retry of base_backoff cycles per transfer"
    );
    assert!(
        faulted.images_per_sec <= clean.images_per_sec,
        "retries must not speed the pipeline up"
    );
}

// ---------- degraded remap correctness ----------

/// The acceptance check: with one MemHeavy tile condemned, the degraded
/// compile must place nothing on it and the functional run must still
/// match the `scaledeep-tensor` reference bit-for-bit (up to f32
/// reassociation noise).
#[test]
fn degraded_remap_matches_reference_executor() {
    let net = tiny_net(3, 5);
    let dead: &[u16] = &[2];
    let opts = FuncTargetOptions::default();
    let artifact = compile_functional_degraded(&net, &opts, 1, dead).unwrap();
    let compiled = artifact.functional().unwrap();
    for layer in &compiled.buffers {
        for loc in buffer_locs(layer) {
            assert!(loc.tile != 2, "buffer placed on the dead tile");
        }
    }

    let mut reference = Executor::new(&net, 77).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    let (image, golden) = io_for(&net, 77);

    let in_shape = net.input().output_shape();
    let x = Tensor::from_vec(in_shape, image.clone()).unwrap();
    let g = Tensor::from_vec(FeatureShape::vector(golden.len()), golden.clone()).unwrap();
    reference.forward(&x).unwrap();
    reference.backward(&g).unwrap();

    sim.clear_gradients();
    sim.run_iteration(&image, &golden).unwrap();

    let tol = 2e-4f32;
    for node in net.layers() {
        let id = node.id();
        if let (Some(a), Some(b)) = (sim.layer_output(id), reference.output(id)) {
            let d = a
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(d <= tol, "{}: output diverges by {d}", node.name());
        }
        if let (Some(a), Some(b)) = (sim.layer_error(id), reference.error(id)) {
            let d = a
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(d <= tol, "{}: error diverges by {d}", node.name());
        }
        if let (Some(a), Some((b, _))) = (sim.layer_wgrad(id), reference.grads(id)) {
            let d = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(d <= tol, "{}: gradient diverges by {d}", node.name());
        }
    }
}

/// End-to-end graceful degradation through the session: a permanent tile
/// failure mid-run leads to a checkpointed retry on the degraded layout,
/// and the retried iteration matches a clean run's instruction count.
#[test]
fn session_retries_on_degraded_layout() {
    let net = tiny_net(2, 4);
    let session = Session::single_precision();
    let clean = session.run_resilient(&net, &FaultPlan::none()).unwrap();
    assert!(!clean.retried);

    let plan = FaultPlan::seeded(13).with_fault(1, FaultKind::TileFailure { tile: 1 });
    let run = session.run_resilient(&net, &plan).unwrap();
    assert!(run.retried);
    assert_eq!(run.dead_tiles, vec![1]);
    assert_eq!(run.stats.instructions, clean.stats.instructions);
}
