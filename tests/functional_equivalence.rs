//! End-to-end functional validation: networks compiled to the ScaleDeep
//! ISA and executed on the functional simulator (with MEMTRACK-only
//! synchronization) must reproduce the reference executor's forward
//! outputs, backpropagated errors, and weight gradients bit-for-bit (up to
//! f32 reassociation noise).

use scaledeep_compiler::codegen::FuncTargetOptions;
use scaledeep_compiler::{pipeline, CompileOptions, CompiledArtifact};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, Network, NetworkBuilder, Pool};
use scaledeep_sim::func::FuncSim;
use scaledeep_tensor::{Executor, Tensor};

/// Functional compile through the phase pipeline: the artifact, or the
/// codegen verdict when the functional target cannot express `net`.
fn compile_functional(
    net: &Network,
    opts: &FuncTargetOptions,
) -> Result<CompiledArtifact, scaledeep_compiler::Error> {
    let artifact = pipeline::compile(
        &scaledeep_arch::presets::single_precision(),
        net,
        &CompileOptions {
            func: *opts,
            ..CompileOptions::default()
        },
    )?;
    artifact.functional()?;
    Ok(artifact)
}

fn conv(out: usize, k: usize, pad: usize, act: Activation) -> Conv {
    Conv {
        out_features: out,
        kernel: k,
        stride: 1,
        pad,
        groups: 1,
        bias: false,
        activation: act,
    }
}

fn fc(out: usize, act: Activation) -> Fc {
    Fc {
        out_neurons: out,
        bias: false,
        activation: act,
    }
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    // Deterministic pseudo-random values in [-1, 1).
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

/// Runs one training iteration on both implementations and compares
/// outputs, errors and gradients.
fn check_equivalence(net: &Network, seed: u64, tol: f32) {
    let artifact = compile_functional(net, &FuncTargetOptions::default())
        .expect("functional compilation succeeds");
    let mut reference = Executor::new(net, seed).expect("reference executor builds");
    let mut sim = FuncSim::from_artifact(net, &artifact).expect("simulator builds");
    sim.import_params(&reference).expect("parameters import");

    let in_shape = net.input().output_shape();
    let classifier = net
        .layers()
        .find(|n| matches!(n.layer(), scaledeep_dnn::Layer::Loss))
        .map(|n| n.inputs()[0])
        .expect("training graph has a loss head");
    let n_out = net.node(classifier).output_shape().elems();

    let image = rand_vec(in_shape.elems(), seed ^ 0xAAAA);
    let golden = rand_vec(n_out, seed ^ 0x5555);

    // Reference: FP + BP + WG.
    let x = Tensor::from_vec(in_shape, image.clone()).unwrap();
    let g = Tensor::from_vec(FeatureShape::vector(n_out), golden.clone()).unwrap();
    reference.forward(&x).unwrap();
    reference.backward(&g).unwrap();

    // Simulator: the same, through compiled ISA programs.
    sim.clear_gradients();
    let stats = sim
        .run_iteration(&image, &golden)
        .expect("simulation completes");
    assert!(stats.instructions > 0);

    for node in net.layers() {
        let id = node.id();
        // Forward outputs.
        if let (Some(sim_out), Some(ref_out)) = (sim.layer_output(id), reference.output(id)) {
            let max_diff = sim_out
                .iter()
                .zip(ref_out.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff <= tol,
                "{}: output diverges by {max_diff} (layer {})",
                net.name(),
                node.name()
            );
        }
        // Backward errors.
        if let (Some(sim_err), Some(ref_err)) = (sim.layer_error(id), reference.error(id)) {
            let max_diff = sim_err
                .iter()
                .zip(ref_err.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff <= tol,
                "{}: error diverges by {max_diff} (layer {})",
                net.name(),
                node.name()
            );
        }
        // Weight gradients.
        if let (Some(sim_g), Some((ref_g, _))) = (sim.layer_wgrad(id), reference.grads(id)) {
            let max_diff = sim_g
                .iter()
                .zip(ref_g)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff <= tol,
                "{}: gradient diverges by {max_diff} (layer {})",
                net.name(),
                node.name()
            );
        }
    }
}

#[test]
fn lenet_style_cnn_matches_reference() {
    let mut b = NetworkBuilder::new("lenet-ish", FeatureShape::new(1, 12, 12));
    b.conv("c1", conv(4, 3, 1, Activation::Relu)).unwrap();
    b.pool("s1", Pool::max(2, 2)).unwrap();
    b.conv("c2", conv(6, 3, 1, Activation::Relu)).unwrap();
    b.pool("s2", Pool::avg(2, 2)).unwrap();
    b.fc("f1", fc(10, Activation::Tanh)).unwrap();
    let out = b.fc("f2", fc(4, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();
    check_equivalence(&net, 11, 2e-4);
}

#[test]
fn multichannel_conv_stack_matches_reference() {
    let mut b = NetworkBuilder::new("stack", FeatureShape::new(3, 9, 9));
    b.conv("c1", conv(5, 3, 1, Activation::Sigmoid)).unwrap();
    b.conv("c2", conv(7, 3, 0, Activation::Relu)).unwrap();
    let out = b.fc("f", fc(3, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();
    check_equivalence(&net, 23, 2e-4);
}

#[test]
fn grouped_convolution_matches_reference() {
    let mut b = NetworkBuilder::new("grouped", FeatureShape::new(4, 8, 8));
    b.conv(
        "cg",
        Conv {
            out_features: 6,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 2,
            bias: false,
            activation: Activation::Relu,
        },
    )
    .unwrap();
    let out = b.fc("f", fc(5, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();
    check_equivalence(&net, 31, 2e-4);
}

#[test]
fn residual_block_matches_reference() {
    let mut b = NetworkBuilder::new("res", FeatureShape::new(4, 8, 8));
    let trunk = b.tail();
    let c1 = b.conv("c1", conv(4, 3, 1, Activation::Relu)).unwrap();
    let c2 = b
        .conv_from("c2", c1, conv(4, 3, 1, Activation::None))
        .unwrap();
    let add = b.eltwise_add("add", trunk, c2, Activation::Relu).unwrap();
    let out = b.fc_from("f", add, fc(3, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();
    check_equivalence(&net, 41, 2e-4);
}

#[test]
fn shortcut_projection_matches_reference() {
    // Option-A shortcut: channel growth + spatial stride.
    let mut b = NetworkBuilder::new("proj", FeatureShape::new(2, 8, 8));
    let trunk = b.tail();
    let c1 = b.conv("c1", conv(4, 3, 1, Activation::Relu)).unwrap();
    let p1 = b.pool_from("p1", c1, Pool::max(2, 2)).unwrap();
    let sc = b.shortcut_from("sc", trunk, 2, 4).unwrap();
    let add = b.eltwise_add("add", p1, sc, Activation::None).unwrap();
    let out = b.fc_from("f", add, fc(3, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();
    check_equivalence(&net, 51, 2e-4);
}

#[test]
fn inception_style_concat_matches_reference() {
    let mut b = NetworkBuilder::new("inception", FeatureShape::new(3, 8, 8));
    let root = b.tail();
    let a = b
        .conv_from("a", root, conv(2, 1, 0, Activation::Relu))
        .unwrap();
    let c = b
        .conv_from("c", root, conv(3, 3, 1, Activation::Relu))
        .unwrap();
    let e = b
        .conv_from("e", root, conv(2, 5, 2, Activation::Relu))
        .unwrap();
    let cat = b.concat("cat", &[a, c, e]).unwrap();
    let out = b.fc_from("f", cat, fc(4, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();
    check_equivalence(&net, 61, 2e-4);
}

#[test]
fn multi_iteration_training_tracks_reference() {
    // Three SGD steps: weights must stay in lockstep between the compiled
    // simulation and the reference executor.
    let mut b = NetworkBuilder::new("train3", FeatureShape::new(1, 8, 8));
    b.conv("c1", conv(3, 3, 1, Activation::Relu)).unwrap();
    b.pool("s1", Pool::max(2, 2)).unwrap();
    let out = b.fc("f1", fc(4, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();

    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 77).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let in_shape = net.input().output_shape();
    for step in 0..3 {
        let image = rand_vec(in_shape.elems(), 100 + step);
        let golden = rand_vec(4, 200 + step);
        let x = Tensor::from_vec(in_shape, image.clone()).unwrap();
        let g = Tensor::from_vec(FeatureShape::vector(4), golden.clone()).unwrap();
        reference.forward(&x).unwrap();
        reference.backward(&g).unwrap();
        reference.step(0.05, 1);
        sim.run_iteration(&image, &golden).unwrap();
        sim.apply_sgd(0.05, 1).unwrap();
    }

    // Compare final outputs on a probe image.
    let probe = rand_vec(in_shape.elems(), 999);
    let x = Tensor::from_vec(in_shape, probe.clone()).unwrap();
    let ref_out = reference.forward(&x).unwrap();
    sim.run_evaluation(&probe).unwrap();
    let f1 = net.node_by_name("f1").unwrap().id();
    let sim_out = sim.layer_output(f1).unwrap();
    let max_diff = sim_out
        .iter()
        .zip(ref_out.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_diff < 1e-3,
        "after 3 SGD steps outputs diverge by {max_diff}"
    );
}

#[test]
fn minibatch_gradients_accumulate_like_reference() {
    let mut b = NetworkBuilder::new("batch", FeatureShape::new(1, 6, 6));
    let c1 = b.conv("c1", conv(2, 3, 1, Activation::Relu)).unwrap();
    let out = b.fc_from("f1", c1, fc(3, Activation::None)).unwrap();
    let net = b.finish_with_loss(out).unwrap();

    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 88).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let in_shape = net.input().output_shape();
    for i in 0..4 {
        let image = rand_vec(in_shape.elems(), 300 + i);
        let golden = rand_vec(3, 400 + i);
        let x = Tensor::from_vec(in_shape, image.clone()).unwrap();
        let g = Tensor::from_vec(FeatureShape::vector(3), golden.clone()).unwrap();
        reference.forward(&x).unwrap();
        reference.backward(&g).unwrap();
        sim.run_iteration(&image, &golden).unwrap();
    }
    let c1 = net.node_by_name("c1").unwrap().id();
    let (ref_g, _) = reference.grads(c1).unwrap();
    let sim_g = sim.layer_wgrad(c1).unwrap();
    let max_diff = sim_g
        .iter()
        .zip(ref_g)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_diff < 5e-4,
        "4-image gradient accumulation diverges by {max_diff}"
    );
}
