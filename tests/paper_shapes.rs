//! The repro acceptance suite: the paper's headline quantitative claims,
//! checked end-to-end through the public API. Absolute numbers follow our
//! simulator; each assertion encodes the paper's *shape* — who wins, by
//! roughly what factor, where the crossovers fall (see EXPERIMENTS.md).

use scaledeep::report::geomean;
use scaledeep::Session;
use scaledeep_arch::{presets, LinkClass, PowerModel, UtilizationProfile};
use scaledeep_baselines::{gpu, DaDianNaoModel, GpuFramework};
use scaledeep_dnn::zoo;

/// §1/§5 headline: 7032 tiles, 680 TFLOPS SP / 1.35 PFLOPS HP, 485.7
/// GFLOPs/W peak at 1.4 kW.
#[test]
fn headline_node_numbers() {
    let sp = presets::single_precision();
    assert_eq!(sp.total_tiles(), 7032);
    assert!((sp.peak_flops() / 1e12 - 680.0).abs() < 5.0);
    let peak_power = PowerModel::paper_sp().average_node_power(UtilizationProfile::PEAK);
    let eff = sp.peak_flops() / peak_power.total();
    assert!((eff / 1e9 - 485.7).abs() < 5.0);

    let hp = presets::half_precision();
    assert!((hp.peak_flops() / 1e15 - 1.35).abs() < 0.01);
}

/// §6.1: training runs at thousands of images/second on every benchmark;
/// evaluation exceeds training by a factor marginally over 3x.
#[test]
fn training_and_evaluation_bands() {
    let s = Session::single_precision();
    let mut ratios = Vec::new();
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).unwrap();
        let t = s.train(&net).unwrap();
        let e = s.evaluate(&net).unwrap();
        assert!(t.images_per_sec > 1_000.0, "{name}: {}", t.images_per_sec);
        ratios.push(e.images_per_sec / t.images_per_sec);
    }
    let g = geomean(ratios.iter().copied());
    assert!(g > 2.5 && g < 4.5, "geomean eval/train {g:.2}");
}

/// §6.1: the half-precision design achieves ~1.85x (training) and ~1.82x
/// (evaluation) over single precision.
#[test]
fn half_precision_scaling() {
    let sp = Session::single_precision();
    let hp = Session::half_precision();
    let mut train_speedups = Vec::new();
    let mut eval_speedups = Vec::new();
    for name in ["alexnet", "overfeat-fast", "vgg-a", "googlenet"] {
        let net = zoo::by_name(name).unwrap();
        train_speedups
            .push(hp.train(&net).unwrap().images_per_sec / sp.train(&net).unwrap().images_per_sec);
        eval_speedups.push(
            hp.evaluate(&net).unwrap().images_per_sec / sp.evaluate(&net).unwrap().images_per_sec,
        );
    }
    let t = geomean(train_speedups.iter().copied());
    let e = geomean(eval_speedups.iter().copied());
    assert!(t > 1.3 && t < 2.6, "HP training speedup {t:.2}");
    assert!(e > 1.3 && e < 2.6, "HP evaluation speedup {e:.2}");
}

/// Figure 18: one chip cluster beats every published TitanX stack, with
/// the expected ordering — largest margin over cuDNN-R2, smallest over
/// the Winograd implementations.
#[test]
fn gpu_speedup_ordering() {
    let s = Session::single_precision();
    let mut by_framework = std::collections::BTreeMap::new();
    for name in ["alexnet", "googlenet", "overfeat-fast", "vgg-a"] {
        let net = zoo::by_name(name).unwrap();
        let cluster = s.cluster_train_images_per_sec(&net).unwrap();
        for fw in GpuFramework::ALL {
            let published = gpu::published_training_throughput(name, fw).unwrap();
            by_framework
                .entry(format!("{fw}"))
                .or_insert_with(Vec::new)
                .push(cluster / published);
        }
    }
    let g = |fw: &str| geomean(by_framework[fw].iter().copied());
    let r2 = g("TitanX-cuDNN-R2");
    let wino = g("TitanX-Nervana-Winograd");
    assert!(r2 > 8.0 && r2 < 40.0, "cuDNN-R2 speedup {r2:.1}");
    assert!(wino > 2.0 && wino < 15.0, "Winograd speedup {wino:.1}");
    assert!(r2 > wino, "cuDNN-R2 margin must exceed Winograd margin");
    for ratios in by_framework.values() {
        for &r in ratios {
            assert!(r > 1.0, "the cluster must beat every GPU bar");
        }
    }
}

/// §7: ~5x as many FLOPs as a DaDianNao-style homogeneous node at
/// iso-power.
#[test]
fn dadiannao_iso_power() {
    let node = presets::single_precision();
    let ratio = DaDianNaoModel::published().iso_power_ratio(node.peak_flops(), 1400.0);
    assert!((4.0..7.0).contains(&ratio), "iso-power ratio {ratio:.1}");
}

/// Figure 21's qualitative structure: Comp-Mem dominates on-chip; arcs
/// engage only when CONV spans chips; the ring engages only when the
/// network spans clusters.
#[test]
fn interconnect_structure() {
    let s = Session::single_precision();
    let single_chip = s.train(&zoo::by_name("alexnet").unwrap()).unwrap();
    let multi_cluster = s.train(&zoo::by_name("vgg-e").unwrap()).unwrap();

    assert!(
        single_chip.link_utilization(LinkClass::CompMem)
            > single_chip.link_utilization(LinkClass::MemMem)
    );
    assert!(single_chip.link_utilization(LinkClass::Arc) < 0.05);
    assert!(single_chip.link_utilization(LinkClass::Ring) < 0.05);
    assert!(
        multi_cluster.link_utilization(LinkClass::Arc)
            > single_chip.link_utilization(LinkClass::Arc)
    );
    assert!(
        multi_cluster.link_utilization(LinkClass::Ring)
            > single_chip.link_utilization(LinkClass::Ring)
    );
}

/// Figure 20's structure: memory power constant, total below peak, and
/// average efficiency in the paper's few-hundred-GFLOPs/W regime.
#[test]
fn power_structure() {
    let s = Session::single_precision();
    let mut mem_watts = Vec::new();
    let mut effs = Vec::new();
    for name in ["alexnet", "vgg-a", "googlenet"] {
        let r = s.train(&zoo::by_name(name).unwrap()).unwrap();
        assert!(r.avg_power.total() < 1400.0);
        mem_watts.push(r.avg_power.memory_watts);
        effs.push(r.gflops_per_watt);
    }
    assert!(mem_watts.windows(2).all(|w| (w[0] - w[1]).abs() < 1.0));
    let g = geomean(effs.iter().copied());
    assert!(g > 150.0 && g < 490.0, "efficiency {g:.0} GFLOPs/W");
}

/// Throughput ranking follows network training cost: AlexNet (0.66B
/// connections) is the fastest; VGG-E (19.4B) the slowest.
#[test]
fn throughput_ranking_follows_cost() {
    let s = Session::single_precision();
    let fastest = s.train(&zoo::by_name("alexnet").unwrap()).unwrap();
    let slowest = s.train(&zoo::by_name("vgg-e").unwrap()).unwrap();
    assert!(fastest.images_per_sec > 10.0 * slowest.images_per_sec);
}
