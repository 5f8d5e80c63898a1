//! Beyond-CNN topologies (paper §1: RNNs, LSTMs, autoencoders "can be
//! programmed" onto ScaleDeep) and the Winograd extension (§6.1): both
//! must flow through the same compile → simulate → validate pipeline as
//! the CNN suite.

use scaledeep::Session;
use scaledeep_compiler::codegen::FuncTargetOptions;
use scaledeep_compiler::{pipeline, CompileOptions, CompiledArtifact};
use scaledeep_dnn::zoo;
use scaledeep_sim::func::FuncSim;
use scaledeep_sim::perf::PerfOptions;
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

#[test]
fn autoencoder_maps_and_simulates() {
    let net = zoo::autoencoder(&[4096, 1024, 256]);
    let session = Session::single_precision();
    let mapping = session.compile(&net).unwrap().mapping().clone();
    // Pure-FC network: everything lands on the hub chips.
    assert!(mapping.fc_cols_used() > 0);
    let r = session.train(&net).unwrap();
    assert!(r.images_per_sec > 1_000.0, "got {}", r.images_per_sec);
}

#[test]
fn unrolled_rnn_maps_and_simulates() {
    let net = zoo::unrolled_rnn(12, 256, 512, 64);
    let session = Session::single_precision();
    let r = session.train(&net).unwrap();
    assert!(r.images_per_sec > 100.0, "got {}", r.images_per_sec);
    // 13 FC stages: the pipeline depth shows up in the stage list.
    assert_eq!(r.stages.len(), 13);
}

#[test]
fn autoencoder_trains_functionally() {
    // Unsupervised training on the functional simulator: the golden output
    // is the input itself; reconstruction loss must fall.
    let net = zoo::autoencoder(&[36, 12]);
    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let reference = Executor::new(&net, 5).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let image: Vec<f32> = (0..36).map(|i| ((i as f32) / 18.0 - 1.0).sin()).collect();
    let out_id = net.node_by_name("dec1").unwrap().id();
    let loss_of = |sim: &FuncSim| -> f32 {
        sim.layer_output(out_id)
            .unwrap()
            .iter()
            .zip(&image)
            .map(|(a, b)| 0.5 * (a - b) * (a - b))
            .sum()
    };
    sim.run_iteration(&image, &image).unwrap();
    let first = loss_of(&sim);
    sim.apply_sgd(0.1, 1).unwrap();
    for _ in 0..30 {
        sim.run_iteration(&image, &image).unwrap();
        sim.apply_sgd(0.1, 1).unwrap();
    }
    sim.run_iteration(&image, &image).unwrap();
    let last = loss_of(&sim);
    assert!(
        last < first * 0.5,
        "reconstruction loss must fall: {first} -> {last}"
    );
}

#[test]
fn rnn_functional_equivalence() {
    let net = zoo::unrolled_rnn(4, 16, 24, 8);
    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 11).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).cos()).collect();
    let g: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin()).collect();
    let xt = Tensor::from_vec(scaledeep_dnn::FeatureShape::vector(16), x.clone()).unwrap();
    let gt = Tensor::from_vec(scaledeep_dnn::FeatureShape::vector(8), g.clone()).unwrap();
    reference.forward(&xt).unwrap();
    reference.backward(&gt).unwrap();
    sim.run_iteration(&x, &g).unwrap();

    for t in 0..4 {
        let id = net.node_by_name(&format!("step{t}")).unwrap().id();
        let (rg, _) = reference.grads(id).unwrap();
        let sg = sim.layer_wgrad(id).unwrap();
        let d = sg
            .iter()
            .zip(rg)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(d < 1e-4, "step{t} recurrence gradients diverge by {d}");
    }
}

#[test]
fn lstm_maps_and_simulates() {
    let net = zoo::unrolled_lstm(8, 128, 256, 32);
    let session = Session::single_precision();
    let r = session.train(&net).unwrap();
    assert!(r.images_per_sec > 100.0, "got {}", r.images_per_sec);
}

#[test]
fn lstm_functional_equivalence() {
    // The full gated recurrence — sigmoid/tanh gates, Hadamard products,
    // the cell-state tanh — through compiled ISA programs, against the
    // reference executor.
    let net = zoo::unrolled_lstm(3, 10, 12, 5);
    let artifact = compile_functional(&net, &FuncTargetOptions::default()).unwrap();
    let mut reference = Executor::new(&net, 13).unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&reference).unwrap();
    sim.clear_gradients();

    let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.41).sin()).collect();
    let g: Vec<f32> = (0..5).map(|i| (i as f32 * 0.77).cos()).collect();
    let xt = Tensor::from_vec(scaledeep_dnn::FeatureShape::vector(10), x.clone()).unwrap();
    let gt = Tensor::from_vec(scaledeep_dnn::FeatureShape::vector(5), g.clone()).unwrap();
    reference.forward(&xt).unwrap();
    reference.backward(&gt).unwrap();
    sim.run_iteration(&x, &g).unwrap();

    // Gate-weight gradients of every timestep must match.
    for t in 0..3 {
        for gate in ["i", "f", "o", "g"] {
            let id = net.node_by_name(&format!("{gate}{t}")).unwrap().id();
            let (rg, _) = reference.grads(id).unwrap();
            let sg = sim.layer_wgrad(id).unwrap();
            let d = sg
                .iter()
                .zip(rg)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(d < 5e-4, "{gate}{t}: gate gradients diverge by {d}");
        }
    }
    // The final hidden state matches too.
    let h2 = net.node_by_name("h2").unwrap().id();
    let sim_h = sim.layer_output(h2).unwrap();
    let ref_h = reference.output(h2).unwrap();
    for (a, b) in sim_h.iter().zip(ref_h.as_slice()) {
        assert!((a - b).abs() < 1e-4, "hidden state diverges");
    }
}

#[test]
fn winograd_speeds_up_3x3_networks_most() {
    let node = scaledeep_arch::presets::single_precision();
    let base = Session::with_node(node);
    let wino = Session::with_node(node).with_options(PerfOptions {
        winograd: true,
        ..PerfOptions::default()
    });
    // VGG-A: all 3x3 — large benefit. AlexNet: mostly 11x11/5x5 — small.
    let vgg = zoo::vgg_a();
    let alex = zoo::alexnet();
    let vgg_gain =
        wino.train(&vgg).unwrap().images_per_sec / base.train(&vgg).unwrap().images_per_sec;
    let alex_gain =
        wino.train(&alex).unwrap().images_per_sec / base.train(&alex).unwrap().images_per_sec;
    assert!(vgg_gain > 1.3, "VGG Winograd gain {vgg_gain:.2}");
    assert!(
        vgg_gain <= 2.30,
        "gain bounded by the 2.25x multiply reduction"
    );
    assert!(
        vgg_gain > alex_gain,
        "all-3x3 VGG must gain more than AlexNet ({vgg_gain:.2} vs {alex_gain:.2})"
    );
}
