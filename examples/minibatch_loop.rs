//! Minibatch-looped execution: compile a network whose per-tile programs
//! loop over a whole minibatch with the scalar ISA, reusing every buffer
//! across images under MEMTRACK generation-wrap + an epoch-token barrier.
//!
//! ```text
//! cargo run --release --example minibatch_loop
//! ```

use scaledeep_arch::presets;
use scaledeep_compiler::pipeline::{compile, CompileOptions};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, NetworkBuilder, Pool};
use scaledeep_sim::func::FuncSim;
use scaledeep_tensor::Executor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = NetworkBuilder::new("batched", FeatureShape::new(1, 10, 10));
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
    )?;
    b.pool("s1", Pool::max(2, 2))?;
    let out = b.fc(
        "f1",
        Fc {
            out_neurons: 4,
            bias: false,
            activation: Activation::None,
        },
    )?;
    let net = b.finish_with_loss(out)?;

    let batch = 4;
    let artifact = compile(
        &presets::single_precision(),
        &net,
        &CompileOptions {
            minibatch: batch,
            ..CompileOptions::default()
        },
    )?;
    let compiled = artifact.functional()?;
    println!(
        "compiled for a {batch}-image minibatch: {} programs, {} instructions\n",
        compiled.programs.len(),
        compiled.total_insts()
    );
    // Show the scalar loop structure of the first layer's FP program.
    let fp = compiled.program("L1.FP").expect("c1 FP exists");
    println!("{fp}");

    let reference = Executor::new(&net, 17)?;
    let mut sim = FuncSim::from_artifact(&net, &artifact)?;
    sim.import_params(&reference)?;
    sim.clear_gradients();

    // A whole minibatch, concatenated.
    let images: Vec<f32> = (0..batch * 100)
        .map(|i| ((i as f32) * 0.137).sin())
        .collect();
    let goldens: Vec<f32> = (0..batch * 4).map(|i| ((i as f32) * 0.61).cos()).collect();

    let stats = sim.run_minibatch(&images, &goldens)?;
    println!(
        "minibatch ran to completion: {} instructions, {} scheduler rounds, {} tracker stalls",
        stats.instructions, stats.rounds, stats.stalls
    );
    println!(
        "(the stalls are the MEMTRACK generation hand-offs between images — \
         the synchronization the paper builds instead of coherence)"
    );
    sim.apply_sgd(0.05, batch)?;
    println!("applied the end-of-minibatch weight update (gradient aggregation).");
    Ok(())
}
