//! Compiler + functional simulator walkthrough: build a small CNN,
//! compile it to ScaleDeep ISA programs, print the generated code and the
//! data-flow trackers, then *train it for real* on the functional
//! simulator — every FP/BP/WG program running concurrently, ordered only
//! by MEMTRACK.
//!
//! ```text
//! cargo run --release --example compile_inspect
//! ```

use scaledeep_arch::presets;
use scaledeep_compiler::pipeline::{compile, CompileOptions};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, NetworkBuilder, Pool};
use scaledeep_sim::func::FuncSim;
use scaledeep_tensor::{Executor, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A LeNet-style network (bias-free, stride-1 convs: the functional
    // target's contract — see DESIGN.md).
    let mut b = NetworkBuilder::new("lenet-ish", FeatureShape::new(1, 12, 12));
    b.conv(
        "c1",
        Conv {
            out_features: 4,
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

    let artifact = compile(
        &presets::single_precision(),
        &net,
        &CompileOptions::default(),
    )?;
    let compiled = artifact.functional()?;
    println!(
        "compiled {} programs, {} instructions, {} data-flow trackers\n",
        compiled.programs.len(),
        compiled.total_insts(),
        compiled.trackers.len()
    );
    for p in &compiled.programs {
        println!("{p}");
    }
    println!("--- armed trackers (MEMTRACK specs) ---");
    for t in &compiled.trackers {
        println!(
            "M{}:[{}, +{})  updates={}  reads={}",
            t.tile, t.addr, t.len, t.num_updates, t.num_reads
        );
    }

    // Train: the reference executor provides the initial weights; the
    // functional simulator then runs 20 SGD steps through the compiled
    // programs.
    let reference = Executor::new(&net, 42)?;
    let mut sim = FuncSim::from_artifact(&net, &artifact)?;
    sim.import_params(&reference)?;
    sim.clear_gradients();

    let image: Vec<f32> = (0..144)
        .map(|i| ((i * 37 % 100) as f32 / 50.0) - 1.0)
        .collect();
    let golden = vec![1.0, -0.5, 0.25, 0.0];
    let f1 = net.node_by_name("f1").expect("f1 exists").id();

    println!("\n--- training on the functional simulator ---");
    for step in 0..20 {
        let stats = sim.run_iteration(&image, &golden)?;
        let y = sim.layer_output(f1).expect("output available");
        let loss: f32 = y
            .iter()
            .zip(&golden)
            .map(|(a, b)| 0.5 * (a - b) * (a - b))
            .sum();
        if step % 5 == 0 || step == 19 {
            println!(
                "step {step:2}: loss {loss:.5}  ({} instructions, {} tracker stalls)",
                stats.instructions, stats.stalls
            );
        }
        sim.apply_sgd(0.05, 1)?;
    }
    let x = Tensor::from_vec(FeatureShape::new(1, 12, 12), image.clone())?;
    let _ = x;
    println!("\nthe loss above decreased purely through compiled ScaleDeep ISA programs.");
    Ok(())
}
