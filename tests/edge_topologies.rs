//! Edge topologies the benchmark suite doesn't hit: CONV-only networks
//! (no FC side at all), padded pooling in the functional path, and
//! 1×1-convolution-only bottleneck stacks.

use scaledeep::Session;
use scaledeep_compiler::codegen::FuncTargetOptions;
use scaledeep_compiler::{pipeline, CompileOptions, CompiledArtifact};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, NetworkBuilder, Pool, PoolKind};
use scaledeep_sim::func::FuncSim;
use scaledeep_tensor::{Executor, Tensor};

/// Functional compile through the phase pipeline: the artifact, or the
/// codegen verdict when the functional target cannot express `net`.
fn compile_functional(
    net: &scaledeep_dnn::Network,
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

fn conv(out: usize, k: usize, pad: usize) -> Conv {
    Conv {
        out_features: out,
        kernel: k,
        stride: 1,
        pad,
        groups: 1,
        bias: false,
        activation: Activation::Relu,
    }
}

#[test]
fn conv_only_network_maps_and_simulates() {
    // A fully-convolutional classifier: global average pooling instead of
    // FC layers; the FcLayer hub stays empty.
    let mut b = NetworkBuilder::new("fcn", FeatureShape::new(3, 64, 64));
    b.conv("c1", conv(16, 3, 1)).unwrap();
    b.pool("s1", Pool::max(2, 2)).unwrap();
    b.conv("c2", conv(32, 3, 1)).unwrap();
    b.pool("s2", Pool::max(2, 2)).unwrap();
    b.conv("head", conv(10, 1, 0)).unwrap();
    let gap = b.pool("gap", Pool::avg(16, 1)).unwrap();
    let net = b.finish_with_loss(gap).unwrap();

    let session = Session::single_precision();
    let artifact = session.compile(&net).unwrap();
    assert_eq!(
        artifact.mapping().fc_cols_used(),
        0,
        "no FC layers, no hub columns"
    );
    let r = session.train(&net).unwrap();
    assert!(r.images_per_sec > 1_000.0);
    let e = session.evaluate(&net).unwrap();
    assert!(e.images_per_sec >= r.images_per_sec);
}

#[test]
fn padded_pooling_matches_reference() {
    // ResNet-style 3x3/2 pad-1 max pooling through the compiled path.
    let mut b = NetworkBuilder::new("padpool", FeatureShape::new(2, 8, 8));
    b.conv("c1", conv(3, 3, 1)).unwrap();
    b.pool(
        "s1",
        Pool {
            kind: PoolKind::Max,
            window: 3,
            stride: 2,
            pad: 1,
            ceil_mode: false,
        },
    )
    .unwrap();
    let f = b
        .fc(
            "f1",
            Fc {
                out_neurons: 4,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    let net = b.finish_with_loss(f).unwrap();

    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 21).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let image: Vec<f32> = (0..128).map(|i| ((i as f32) * 0.17).sin()).collect();
    let golden = vec![0.3, -0.2, 0.9, 0.0];
    let x = Tensor::from_vec(FeatureShape::new(2, 8, 8), image.clone()).unwrap();
    let g = Tensor::from_vec(FeatureShape::vector(4), golden.clone()).unwrap();
    reference.forward(&x).unwrap();
    reference.backward(&g).unwrap();
    sim.run_iteration(&image, &golden).unwrap();

    let c1 = net.node_by_name("c1").unwrap().id();
    let (rg, _) = reference.grads(c1).unwrap();
    let sg = sim.layer_wgrad(c1).unwrap();
    let d = sg
        .iter()
        .zip(rg)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(d < 1e-4, "padded-pool gradients diverge by {d}");
}

#[test]
fn bottleneck_1x1_stack_matches_reference() {
    // 1x1 convolutions (GoogLeNet reduce layers) exercise the degenerate
    // kernel path end to end.
    let mut b = NetworkBuilder::new("bottleneck", FeatureShape::new(4, 5, 5));
    b.conv("r1", conv(2, 1, 0)).unwrap();
    b.conv("r2", conv(6, 1, 0)).unwrap();
    let f = b
        .fc(
            "f",
            Fc {
                out_neurons: 3,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    let net = b.finish_with_loss(f).unwrap();

    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 33).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let image: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.29).cos()).collect();
    let golden = vec![1.0, 0.0, -1.0];
    let x = Tensor::from_vec(FeatureShape::new(4, 5, 5), image.clone()).unwrap();
    let g = Tensor::from_vec(FeatureShape::vector(3), golden.clone()).unwrap();
    reference.forward(&x).unwrap();
    reference.backward(&g).unwrap();
    sim.run_iteration(&image, &golden).unwrap();

    for name in ["r1", "r2"] {
        let id = net.node_by_name(name).unwrap().id();
        let (rg, _) = reference.grads(id).unwrap();
        let sg = sim.layer_wgrad(id).unwrap();
        let d = sg
            .iter()
            .zip(rg)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(d < 1e-4, "{name}: 1x1 gradients diverge by {d}");
    }
}

#[test]
fn single_layer_network_works_everywhere() {
    // The minimal trainable graph: one FC layer.
    let mut b = NetworkBuilder::new("perceptron", FeatureShape::vector(8));
    let f = b
        .fc(
            "f",
            Fc {
                out_neurons: 2,
                bias: false,
                activation: Activation::Sigmoid,
            },
        )
        .unwrap();
    let net = b.finish_with_loss(f).unwrap();
    let session = Session::single_precision();
    assert!(session.train(&net).unwrap().images_per_sec > 0.0);

    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 2).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();
    let x = vec![0.5; 8];
    let g = vec![1.0, 0.0];
    let xt = Tensor::from_vec(FeatureShape::vector(8), x.clone()).unwrap();
    let gt = Tensor::from_vec(FeatureShape::vector(2), g.clone()).unwrap();
    reference.forward(&xt).unwrap();
    reference.backward(&gt).unwrap();
    sim.run_iteration(&x, &g).unwrap();
    let id = net.node_by_name("f").unwrap().id();
    let (rg, _) = reference.grads(id).unwrap();
    let sg = sim.layer_wgrad(id).unwrap();
    for (a, b) in sg.iter().zip(rg) {
        assert!((a - b).abs() < 1e-5);
    }
}
