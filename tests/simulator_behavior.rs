//! Behavioral tests of the performance simulator: responses to minibatch
//! size, frequency, replication and bandwidth knobs must move in the
//! physically sensible direction (the paper's §6 narrative).

use scaledeep::Session;
use scaledeep_arch::presets;
use scaledeep_dnn::zoo;
use scaledeep_sim::perf::PerfOptions;

#[test]
fn larger_minibatches_amortize_sync() {
    // The minibatch-end gradient aggregation is a fixed cost per batch:
    // bigger batches amortize it (paper §3.3 motivates the aggregation).
    let node = presets::single_precision();
    let net = zoo::alexnet();
    let small = Session::with_node(node)
        .with_options(PerfOptions {
            minibatch: 8,
            ..PerfOptions::default()
        })
        .train(&net)
        .unwrap();
    let large = Session::with_node(node)
        .with_options(PerfOptions {
            minibatch: 256,
            ..PerfOptions::default()
        })
        .train(&net)
        .unwrap();
    assert!(
        large.images_per_sec > small.images_per_sec,
        "batch 256 {} vs batch 8 {}",
        large.images_per_sec,
        small.images_per_sec
    );
}

#[test]
fn frequency_scales_compute_bound_throughput() {
    let net = zoo::vgg_a();
    let mut slow = presets::single_precision();
    slow.frequency_mhz = 300.0;
    let mut fast = presets::single_precision();
    fast.frequency_mhz = 600.0;
    let s = Session::with_node(slow).train(&net).unwrap();
    let f = Session::with_node(fast).train(&net).unwrap();
    let ratio = f.images_per_sec / s.images_per_sec;
    // Compute-bound layers scale ~linearly; link-bound phases (fixed
    // bytes/s) scale sub-linearly, so 1 < ratio <= 2.
    assert!(ratio > 1.2 && ratio <= 2.01, "frequency scaling {ratio:.2}");
}

#[test]
fn more_clusters_multiply_small_network_throughput() {
    let net = zoo::alexnet();
    let mut one = presets::single_precision();
    one.clusters = 1;
    let mut four = presets::single_precision();
    four.clusters = 4;
    let r1 = Session::with_node(one).train(&net).unwrap();
    let r4 = Session::with_node(four).train(&net).unwrap();
    let ratio = r4.images_per_sec / r1.images_per_sec;
    assert!(
        ratio > 3.0 && ratio < 4.5,
        "AlexNet fits one chip; 4 clusters should give ~4x ({ratio:.2})"
    );
}

#[test]
fn starving_external_memory_hurts_weight_streaming_layers() {
    // OverFeat-Fast's 146M weights stream from external memory; cutting
    // the FcLayer chip's memory bandwidth must cost throughput.
    let net = zoo::overfeat_fast();
    let base = presets::single_precision();
    let mut starved = base;
    starved.cluster.fc_chip.ext_mem_bw /= 50.0;
    let b = Session::with_node(base).train(&net).unwrap();
    let s = Session::with_node(starved).train(&net).unwrap();
    assert!(
        s.images_per_sec < b.images_per_sec,
        "starved {} vs base {}",
        s.images_per_sec,
        b.images_per_sec
    );
}

#[test]
fn evaluation_never_slower_than_training() {
    let s = Session::single_precision();
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let t = s.train(&net).unwrap();
        let e = s.evaluate(&net).unwrap();
        assert!(
            e.images_per_sec >= t.images_per_sec,
            "{name}: eval {} < train {}",
            e.images_per_sec,
            t.images_per_sec
        );
    }
}

#[test]
fn results_are_deterministic() {
    // The DES is seed-free and deterministic: identical runs, identical
    // numbers (required for the repro harness to be reproducible).
    let s = Session::single_precision();
    let a = s.train(&zoo::googlenet()).unwrap();
    let b = s.train(&zoo::googlenet()).unwrap();
    assert_eq!(a.images_per_sec.to_bits(), b.images_per_sec.to_bits());
    assert_eq!(a.pe_utilization.to_bits(), b.pe_utilization.to_bits());
}

#[test]
fn sequential_ablation_matches_stage_sum() {
    // With pipelining off, per-image time is exactly the stage sum — a
    // white-box check of the A4 ablation path.
    let node = presets::single_precision();
    let net = zoo::alexnet();
    let piped = Session::with_node(node).train(&net).unwrap();
    let seq = Session::with_node(node)
        .with_options(PerfOptions {
            layer_sequential: true,
            ideal_sync: true,
            ..PerfOptions::default()
        })
        .train(&net)
        .unwrap();
    let stage_sum: u64 = piped.stages.iter().map(|s| s.service_cycles).sum();
    let expected = piped.pipelines as f64 * node.frequency_hz() / stage_sum as f64;
    let rel = (seq.images_per_sec - expected).abs() / expected;
    assert!(
        rel < 0.02,
        "sequential throughput off by {:.1}%",
        rel * 100.0
    );
}
