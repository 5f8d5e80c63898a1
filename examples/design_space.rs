//! Design-space exploration: ScaleDeep's architecture template is
//! parametric — sweep cluster count, wheel size and operating frequency
//! through the typed parameter layer and chart the training-throughput /
//! efficiency frontier on OverFeat-Fast.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use scaledeep::dse::{self, DseConfig};
use scaledeep::Session;
use scaledeep_arch::{DesignPoint, Knob, KnobValue, ParamSpace};
use scaledeep_dnn::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nums = |values: &[f64]| values.iter().copied().map(KnobValue::Num).collect();
    let space = ParamSpace::new(DesignPoint::figure14_sp())
        .axis(Knob::Clusters, nums(&[1.0, 2.0, 4.0]))
        .axis(Knob::ConvChips, nums(&[2.0, 4.0]))
        .axis(Knob::FrequencyMhz, nums(&[450.0, 600.0, 750.0]));

    let cfg = DseConfig {
        suite: "design-space".to_string(),
        ..DseConfig::default()
    };
    let report = dse::run(
        &Session::single_precision(),
        &zoo::overfeat_fast(),
        &space,
        &cfg,
    );

    for (i, p) in report.points.iter().enumerate() {
        println!(
            "{:47} {:>6.0} img/s  {:>6.1} GFLOPs/W  {:.4} J/img{}",
            p.label,
            p.images_per_sec,
            p.gflops_per_watt,
            p.joules_per_image,
            if report.frontier.contains(&(i as u64)) {
                "  <- pareto"
            } else {
                ""
            }
        );
    }
    for inf in &report.infeasible {
        println!("infeasible: {} — {}", inf.label, inf.error);
    }
    println!(
        "\n{} points, {} distinct design points, frontier of {}",
        report.points.len(),
        report.unique_compiles,
        report.frontier.len()
    );
    println!(
        "note: the power model's component watts are calibrated at 600 MHz; rows at other\n\
         frequencies scale compute time only, so treat them as performance-scaling studies."
    );
    Ok(())
}
