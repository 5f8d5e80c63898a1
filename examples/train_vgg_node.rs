//! Multi-cluster training: map VGG-D across the whole node (the paper's
//! largest spatial mapping — 4 chip clusters connected by the ring) and
//! compare the single- and half-precision design points.
//!
//! ```text
//! cargo run --release --example train_vgg_node
//! ```

use scaledeep::Session;
use scaledeep_arch::LinkClass;
use scaledeep_dnn::zoo;
use scaledeep_sim::perf::stage_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = zoo::vgg_d();
    println!(
        "network: {} ({:.1}M weights, {:.1}B connections)",
        net.name(),
        net.analyze().weights() as f64 / 1e6,
        net.analyze().connections() as f64 / 1e9
    );

    for (label, session) in [
        ("single precision", Session::single_precision()),
        ("half precision", Session::half_precision()),
    ] {
        let artifact = session.compile(&net)?;
        let r = session.train(&net)?;
        println!("\n--- {label} ---");
        println!(
            "spans {} ConvLayer chips across {} cluster(s); {} columns",
            artifact.mapping().chips_spanned(),
            artifact.mapping().clusters_spanned(),
            artifact.mapping().conv_cols_used()
        );
        println!(
            "training: {:.0} images/s, utilization {:.2}, {:.0} W, {:.1} GFLOPs/W",
            r.images_per_sec,
            r.pe_utilization,
            r.avg_power.total(),
            r.gflops_per_watt
        );
        println!(
            "ring utilization {:.2} (multi-cluster CONV features ride the ring), arc {:.2}",
            r.link_utilization(LinkClass::Ring),
            r.link_utilization(LinkClass::Arc)
        );
        let bottleneck = r.stages.iter().find(|s| s.bottleneck).expect("has stages");
        println!(
            "pipeline bottleneck: {} ({} cycles/image)",
            stage_name(artifact.mapping(), bottleneck.members.clone()),
            bottleneck.service_cycles
        );
    }
    Ok(())
}
