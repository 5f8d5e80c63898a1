//! Streaming-memory sizing (Figure 7a / Figure 14): the paper's 8 KB left
//! SM and 4+4 KB top/bottom SMs are sized so every benchmark layer's
//! working set streams without re-fetch — the 231-element input rows of
//! OverFeat (924 B × 8 array rows = 7.2 KB) just fit the 8 KB left SM.

use scaledeep_arch::presets;
use scaledeep_compiler::Compiler;
use scaledeep_dnn::zoo;

#[test]
fn every_benchmark_layer_fits_the_streaming_memories() {
    let node = presets::single_precision();
    let compiler = Compiler::new(&node);
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let mapping = compiler.map(&net).unwrap();
        for plan in mapping.plans() {
            assert!(
                plan.array.streaming_fits,
                "{name}/{}: working set exceeds the streaming memories",
                mapping.layer_name(plan.id)
            );
        }
    }
}

#[test]
fn oversized_rows_overflow_the_left_sm() {
    // A pathological 4000-wide input row (16 KB) cannot stream through the
    // 8 KB left SM with all 8 rows active: the mapper must flag it.
    use scaledeep_dnn::{Conv, FeatureShape, NetworkBuilder};
    let mut b = NetworkBuilder::new("wide", FeatureShape::new(1, 8, 4000));
    let c = b.conv("c", Conv::relu(4, 3, 1, 1)).unwrap();
    let net = b.finish_with_loss(c).unwrap();
    let node = presets::single_precision();
    let mapping = Compiler::new(&node).map(&net).unwrap();
    let plan = mapping.plan(net.node_by_name("c").unwrap().id());
    assert!(
        !plan.array.streaming_fits,
        "a 16 KB row cannot fit the 8 KB left SM"
    );
}

#[test]
fn overfeat_c1_is_the_tightest_fit() {
    // 231-wide rows x 8 array rows x 4 B = 7392 B of the 8192 B left SM:
    // >90% occupancy, the binding design point.
    let node = presets::single_precision();
    let sm = node.cluster.conv_chip.comp_heavy.left_mem_bytes;
    let rows = node.cluster.conv_chip.comp_heavy.array_rows;
    let need = 231 * 4 * rows;
    assert!(need <= sm, "OverFeat rows must fit ({need} of {sm})");
    assert!(
        need as f64 / sm as f64 > 0.9,
        "the SM is sized to the workload, not padded"
    );
}
