//! Minibatch-looped compilation: programs loop over the batch with the
//! scalar ISA (LDRI/SUBRI/BNEZ + register-indirect input addressing) and
//! reuse every intermediate buffer across images; the data-flow trackers'
//! generation-wrap provides the cross-image producer/consumer hand-off.
//! The accumulated gradients must match the reference executor running
//! the same minibatch.

use scaledeep::{seeded_iteration, Session};
use scaledeep_arch::presets;
use scaledeep_compiler::codegen::FuncTargetOptions;
use scaledeep_compiler::{pipeline, CompileOptions, CompiledArtifact};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, Network, NetworkBuilder, Pool};
use scaledeep_isa::{Inst, InstGroup};
use scaledeep_sim::func::FuncSim;
use scaledeep_tensor::{Executor, Tensor};

/// Single-image functional compile through the phase pipeline.
fn compile_functional(
    net: &Network,
    opts: &FuncTargetOptions,
) -> Result<CompiledArtifact, scaledeep_compiler::Error> {
    compile_functional_minibatch(net, opts, 1)
}

/// Minibatch-looped functional compile through the phase pipeline: the
/// artifact, or the codegen verdict when the target cannot loop `net`.
fn compile_functional_minibatch(
    net: &Network,
    opts: &FuncTargetOptions,
    minibatch: usize,
) -> Result<CompiledArtifact, scaledeep_compiler::Error> {
    let artifact = pipeline::compile(
        &presets::single_precision(),
        net,
        &CompileOptions {
            func: *opts,
            minibatch,
            ..CompileOptions::default()
        },
    )?;
    artifact.functional()?;
    Ok(artifact)
}

fn chain_net() -> Network {
    chain(true)
}

/// The conv/pool/conv/fc chain, finished with a loss head (a training
/// graph) or by plain `finish()` (an evaluation graph: no golden buffer).
fn chain(loss: bool) -> Network {
    let mut b = NetworkBuilder::new("chain", FeatureShape::new(1, 10, 10));
    b.conv(
        "c1",
        Conv {
            out_features: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
            bias: false,
            activation: Activation::Relu,
        },
    )
    .unwrap();
    b.pool("s1", Pool::max(2, 2)).unwrap();
    b.conv(
        "c2",
        Conv {
            out_features: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
            bias: false,
            activation: Activation::Tanh,
        },
    )
    .unwrap();
    let f = b
        .fc(
            "f1",
            Fc {
                out_neurons: 5,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    if loss {
        b.finish_with_loss(f)
    } else {
        b.finish()
    }
    .unwrap()
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

#[test]
fn looped_programs_contain_scalar_loops() {
    let net = chain_net();
    let artifact = compile_functional_minibatch(&net, &FuncTargetOptions::default(), 4).unwrap();
    let compiled = artifact.functional().unwrap();
    assert_eq!(compiled.minibatch, 4);
    assert!(compiled.zeros.is_some());
    for p in &compiled.programs {
        let has_loop = p
            .insts()
            .iter()
            .any(|i| matches!(i, Inst::Bnez { offset, .. } if *offset < 0));
        assert!(has_loop, "{} lacks a backward branch", p.name());
        let scalars = p
            .group_histogram()
            .iter()
            .find(|(g, _)| *g == InstGroup::ScalarControl)
            .map(|&(_, n)| n)
            .unwrap();
        assert!(scalars >= 3, "{} lacks loop control", p.name());
    }
    // The first-layer and loss programs use register-indirect addressing.
    let fp1 = compiled.program("L1.FP").expect("c1 FP exists");
    assert!(
        fp1.insts().iter().any(|i| matches!(i, Inst::Addri { .. })),
        "first-layer FP must compute per-image addresses"
    );
}

#[test]
fn minibatch_gradients_match_reference() {
    let net = chain_net();
    let batch = 3;
    let artifact =
        compile_functional_minibatch(&net, &FuncTargetOptions::default(), batch).unwrap();
    let mut reference = Executor::new(&net, 7).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let in_shape = net.input().output_shape();
    let mut images = Vec::new();
    let mut goldens = Vec::new();
    for i in 0..batch as u64 {
        let x = rand_vec(in_shape.elems(), 100 + i);
        let g = rand_vec(5, 200 + i);
        let xt = Tensor::from_vec(in_shape, x.clone()).unwrap();
        let gt = Tensor::from_vec(FeatureShape::vector(5), g.clone()).unwrap();
        reference.forward(&xt).unwrap();
        reference.backward(&gt).unwrap();
        images.extend(x);
        goldens.extend(g);
    }

    let stats = sim.run_minibatch(&images, &goldens).unwrap();
    assert!(
        stats.stalls > 0,
        "cross-image reuse must exercise tracker generation-wrap stalls"
    );

    for name in ["c1", "c2", "f1"] {
        let id = net.node_by_name(name).unwrap().id();
        let (ref_g, _) = reference.grads(id).unwrap();
        let sim_g = sim.layer_wgrad(id).unwrap();
        let max_diff = sim_g
            .iter()
            .zip(ref_g)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-3,
            "{name}: batched gradients diverge by {max_diff}"
        );
    }
    // The final image's forward outputs remain in the reused buffers.
    let f1 = net.node_by_name("f1").unwrap().id();
    let sim_out = sim.layer_output(f1).unwrap();
    let ref_out = reference.output(f1).unwrap();
    for (a, b) in sim_out.iter().zip(ref_out.as_slice()) {
        assert!((a - b).abs() < 2e-4, "last-image output diverges");
    }
}

#[test]
fn looped_and_unrolled_agree() {
    let net = chain_net();
    let batch = 2;
    let looped = compile_functional_minibatch(&net, &FuncTargetOptions::default(), batch).unwrap();
    let unrolled = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let reference = Executor::new(&net, 9).unwrap();

    let mut sim_l = FuncSim::from_artifact(&net, &looped).unwrap();
    let mut sim_u = FuncSim::from_artifact(&net, &unrolled).unwrap();
    sim_l.import_params(&reference).unwrap();
    sim_u.import_params(&reference).unwrap();
    sim_l.clear_gradients();
    sim_u.clear_gradients();

    let in_shape = net.input().output_shape();
    let mut images = Vec::new();
    let mut goldens = Vec::new();
    for i in 0..batch as u64 {
        let x = rand_vec(in_shape.elems(), 300 + i);
        let g = rand_vec(5, 400 + i);
        sim_u.run_iteration(&x, &g).unwrap();
        images.extend(x);
        goldens.extend(g);
    }
    sim_l.run_minibatch(&images, &goldens).unwrap();

    let c1 = net.node_by_name("c1").unwrap().id();
    let gl = sim_l.layer_wgrad(c1).unwrap();
    let gu = sim_u.layer_wgrad(c1).unwrap();
    for (a, b) in gl.iter().zip(&gu) {
        assert!((a - b).abs() < 1e-4, "looped vs unrolled gradients differ");
    }
}

#[test]
fn fan_out_networks_are_rejected_for_looping() {
    let mut b = NetworkBuilder::new("res", FeatureShape::new(2, 6, 6));
    let trunk = b.tail();
    let c1 = b
        .conv(
            "c1",
            Conv {
                out_features: 2,
                kernel: 3,
                stride: 1,
                pad: 1,
                groups: 1,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    let add = b.eltwise_add("add", trunk, c1, Activation::Relu).unwrap();
    let f = b
        .fc_from(
            "f",
            add,
            Fc {
                out_neurons: 2,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    let net = b.finish_with_loss(f).unwrap();
    let err = compile_functional_minibatch(&net, &FuncTargetOptions::default(), 4).unwrap_err();
    assert!(matches!(err, scaledeep_compiler::Error::Codegen { .. }));
    // Batch 1 still compiles (unrolled semantics with host-side zeroing).
    assert!(compile_functional_minibatch(&net, &FuncTargetOptions::default(), 1).is_ok());
}

#[test]
fn mismatched_batch_payloads_are_rejected() {
    let net = chain_net();
    let artifact = compile_functional_minibatch(&net, &FuncTargetOptions::default(), 2).unwrap();
    let reference = Executor::new(&net, 1).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    // One image's worth of data for a 2-image batch: Setup error.
    let err = sim.run_minibatch(&vec![0.0; 100], &[0.0; 5]).unwrap_err();
    assert!(matches!(err, scaledeep_sim::Error::Setup { .. }));
    // run_iteration on a looped net: Setup error.
    let err = sim.run_iteration(&vec![0.0; 100], &[0.0; 5]).unwrap_err();
    assert!(matches!(err, scaledeep_sim::Error::Setup { .. }));
}

#[test]
fn a_network_without_a_loss_head_evaluates_but_does_not_train() {
    // Built by `finish()`: the compiled layout has no golden buffer, so
    // every training entry point fails with a typed setup error.
    let net = chain(false);
    let setup = |r: Result<(), scaledeep_sim::Error>| match r {
        Err(scaledeep_sim::Error::Setup { detail }) => assert!(detail.contains("loss head")),
        other => panic!("expected a setup error, got {other:?}"),
    };
    let looped = compile_functional_minibatch(&net, &FuncTargetOptions::default(), 2).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &looped).unwrap();
    setup(sim.run_minibatch(&vec![0.0; 200], &[0.0; 10]).map(drop));

    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 1).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    let image = rand_vec(100, 5);
    setup(sim.iteration_buffers().map(drop));
    setup(sim.run_iteration(&image, &[0.0; 5]).map(drop));
    setup(seeded_iteration(&net, &artifact).map(drop));
    setup(Session::single_precision().cross_check(&net).map(drop));

    // An evaluation needs only the input buffer, and still matches the
    // reference executor.
    sim.run_evaluation(&image).unwrap();
    let x = Tensor::from_vec(FeatureShape::new(1, 10, 10), image).unwrap();
    let ref_out = reference.forward(&x).unwrap();
    let f1 = net.node_by_name("f1").unwrap().id();
    let out = sim.layer_output(f1).unwrap();
    assert_eq!(out.len(), ref_out.as_slice().len());
    for (a, b) in out.iter().zip(ref_out.as_slice()) {
        assert!((a - b).abs() < 2e-4, "evaluation output diverges");
    }
}
