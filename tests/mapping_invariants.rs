//! Compiler workload-mapping invariants across the full benchmark zoo —
//! the structural guarantees STEP 1–6 must uphold for any network.

use scaledeep_arch::presets;
use scaledeep_compiler::{Compiler, Mapping, Placement, Side};
use scaledeep_dnn::{zoo, Network};

fn map(net: &Network) -> Mapping {
    Compiler::new(&presets::single_precision())
        .map(net)
        .expect("benchmark maps")
}

/// Placements on the conv side must tile the used columns: contiguous
/// ranges, no gaps, monotically advancing (layers sharing a column group
/// repeat the same range).
#[test]
fn conv_placements_tile_the_columns() {
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let m = map(&net);
        let mut expected_start = 0usize;
        let mut last_range = None;
        for p in m.conv_plans() {
            let Placement::Conv { first_col, cols } = p.placement else {
                panic!("conv-side plan without conv placement");
            };
            assert!(cols > 0, "{name}/{}: zero columns", m.layer_name(p.id));
            if last_range == Some((first_col, cols)) {
                continue; // shared column group
            }
            assert_eq!(
                first_col,
                expected_start,
                "{name}/{}: gap or overlap in column allocation",
                m.layer_name(p.id)
            );
            expected_start = first_col + cols;
            last_range = Some((first_col, cols));
        }
        assert_eq!(expected_start, m.conv_cols_used(), "{name}");
    }
}

/// Column groups must satisfy the STEP 3a memory floor: the state of the
/// layers sharing a group fits the group's MemHeavy capacity.
#[test]
fn memory_floor_is_respected() {
    let node = presets::single_precision();
    let col_cap = node.cluster.conv_chip.col_mem_capacity() as u64;
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let m = map(&net);
        let mut group_state: u64 = 0;
        let mut last_range = None;
        for p in m.conv_plans() {
            let Placement::Conv { first_col, cols } = p.placement else {
                unreachable!()
            };
            if last_range != Some((first_col, cols)) {
                group_state = 0;
                last_range = Some((first_col, cols));
            }
            group_state += p.state_bytes;
            assert!(
                group_state <= cols as u64 * col_cap,
                "{name}/{}: group state {group_state} exceeds {} columns",
                m.layer_name(p.id),
                cols
            );
        }
    }
}

/// The span never exceeds the node, and spanning rounds to whole clusters
/// beyond one wheel.
#[test]
fn chip_spans_are_deployable() {
    let node = presets::single_precision();
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let m = map(&net);
        let chips = m.chips_spanned();
        assert!(chips >= 1 && chips <= node.clusters * node.cluster.conv_chips);
        if chips > node.cluster.conv_chips {
            assert_eq!(
                chips % node.cluster.conv_chips,
                0,
                "{name}: multi-cluster span must be whole wheels"
            );
        }
        assert!(
            m.conv_cols_used() <= chips * node.cluster.conv_chip.cols,
            "{name}"
        );
    }
}

/// Every layer lands on the side STEP 1 dictates, with sane array plans.
#[test]
fn sides_and_array_plans_are_sane() {
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let m = map(&net);
        for node_ref in net.layers() {
            let plan = m.plan(node_ref.id());
            let u = plan.array.utilization();
            assert!(
                u > 0.0 && u <= 1.0,
                "{name}/{}: array util {u}",
                m.layer_name(plan.id)
            );
            assert!(
                plan.array.batches_per_image >= 1,
                "{name}/{}",
                m.layer_name(plan.id)
            );
            match node_ref.layer().type_tag() {
                "FC" => assert_eq!(
                    plan.placement.side(),
                    Side::Fc,
                    "{name}/{}",
                    m.layer_name(plan.id)
                ),
                "CONV" | "SAMP" | "ELTWISE" | "SHORTCUT" => {
                    assert_eq!(
                        plan.placement.side(),
                        Side::Conv,
                        "{name}/{}",
                        m.layer_name(plan.id)
                    )
                }
                _ => assert_eq!(
                    plan.placement.side(),
                    Side::None,
                    "{name}/{}",
                    m.layer_name(plan.id)
                ),
            }
        }
    }
}

/// Feature distribution never claims more tiles than allocated and covers
/// at least one tile for feature-bearing layers.
#[test]
fn feature_distribution_is_bounded() {
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let m = map(&net);
        for p in m.conv_plans().chain(m.fc_plans()) {
            assert!(
                p.tiles_used <= p.tiles_total,
                "{name}/{}: {} used of {}",
                m.layer_name(p.id),
                p.tiles_used,
                p.tiles_total
            );
            if p.out_features > 0 && p.tiles_total > 0 {
                assert!(p.tiles_used > 0, "{name}/{}", m.layer_name(p.id));
            }
        }
    }
}

/// The half-precision target has more columns per chip and smaller
/// elements, so no network may span more chips than at single precision.
#[test]
fn half_precision_spans_no_more_chips() {
    let hp = Compiler::new(&presets::half_precision());
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let sp_map = map(&net);
        let hp_map = hp.map(&net).expect("maps at HP");
        assert!(
            hp_map.chips_spanned() <= sp_map.chips_spanned(),
            "{name}: HP spans {} vs SP {}",
            hp_map.chips_spanned(),
            sp_map.chips_spanned()
        );
    }
}

/// Networks that cannot fit are rejected with a structured error, not a
/// panic: a node shrunk to one tiny chip cannot hold VGG-E.
#[test]
fn oversized_networks_are_rejected_cleanly() {
    let mut node = presets::single_precision();
    node.clusters = 1;
    node.cluster.conv_chips = 1;
    node.cluster.conv_chip.cols = 2;
    node.cluster.conv_chip.mem_heavy.capacity_bytes = 64 * 1024;
    let err = Compiler::new(&node).map(&zoo::vgg_e()).unwrap_err();
    assert!(matches!(err, scaledeep_compiler::Error::DoesNotFit { .. }));
}
