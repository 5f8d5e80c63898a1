//! Workload-analysis experiments: Figures 1, 4, 5 and 15 — pure static
//! analysis over the benchmark zoo, no simulation.

use crate::report::Table;
use scaledeep_dnn::{kernel_summary, layer_class_breakdown, zoo, Kernel, Step};

/// Figure 1: scalar GFLOPs to evaluate one image, per benchmark, in the
/// paper's chronological order (2012 → 2015 entries).
pub fn fig1() -> Table {
    let order = [
        "alexnet",
        "zf",
        "resnet18",
        "googlenet",
        "cnn-s",
        "overfeat-fast",
        "resnet34",
        "overfeat-accurate",
        "vgg-a",
        "vgg-d",
        "vgg-e",
    ];
    let mut t = Table::new("Figure 1: DNN evaluation FLOPs (billions, one image)").headers([
        "network",
        "GFLOPs (FP)",
        "G-MACs",
    ]);
    for name in order {
        let net = zoo::by_name(name).expect("known benchmark");
        let a = net.analyze();
        t.row([
            name.to_string(),
            format!("{:.2}", a.total_flops(Step::Fp) as f64 / 1e9),
            format!("{:.2}", a.connections() as f64 / 1e9),
        ]);
    }
    t
}

/// Figure 4: OverFeat-Fast per-layer-class compute and data breakdown.
pub fn fig4() -> Table {
    let net = zoo::overfeat_fast();
    let a = net.analyze();
    let rows = layer_class_breakdown(&net, a);
    let mut t = Table::new("Figure 4: OverFeat layer-class breakdown").headers([
        "class",
        "layers",
        "feat count",
        "feat size",
        "weights",
        "FLOPs %",
        "B/F (FP+BP)",
        "B/F (WG)",
        "conv/mm %",
        "acc %",
        "act %",
    ]);
    for r in rows {
        let share = |k: Kernel| {
            r.op_split
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|&(_, s)| s * 100.0)
                .unwrap_or(0.0)
        };
        t.row([
            r.class.to_string(),
            r.layers.to_string(),
            format!("{}-{}", r.feature_count.0, r.feature_count.1),
            format!("{}x{0}-{1}x{1}", r.feature_size.0, r.feature_size.1),
            format!(
                "{:.2}M-{:.2}M",
                r.weights.0 as f64 / 1e6,
                r.weights.1 as f64 / 1e6
            ),
            format!("{:.1}", r.flops_share * 100.0),
            format!("{:.3}", r.bf_fp_bp),
            format!("{:.2}", r.bf_wg),
            format!("{:.1}", share(Kernel::NdConv) + share(Kernel::MatMul)),
            format!(
                "{:.1}",
                share(Kernel::NdAccumulate) + share(Kernel::VecEltwiseMul)
            ),
            format!(
                "{:.1}",
                share(Kernel::ActivationFn) + share(Kernel::Sampling)
            ),
        ]);
    }
    t
}

/// Figure 5: kernel-level summary across the 11-network suite.
pub fn fig5() -> Table {
    let suite = zoo::benchmark_suite();
    let rows = kernel_summary(&suite);
    let mut t = Table::new("Figure 5: operations in DNN training (11-network suite)").headers([
        "kernel",
        "FLOPs %",
        "Bytes/FLOP",
    ]);
    for r in rows {
        t.row([
            r.kernel.to_string(),
            format!("{:.2}", r.flops_share * 100.0),
            format!("{:.2}", r.bytes_per_flop),
        ]);
    }
    t
}

/// One Figure 15 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// Network name.
    pub network: String,
    /// (CONV, FC, SAMP) layer counts.
    pub layers: (usize, usize, usize),
    /// Neurons in millions (paper counting convention).
    pub neurons_m: f64,
    /// Weights in millions.
    pub weights_m: f64,
    /// Connections (MAC pairs) in billions.
    pub connections_b: f64,
}

/// Figure 15: the benchmark table.
pub fn fig15() -> (Vec<Fig15Row>, Table) {
    let mut rows = Vec::new();
    let mut t = Table::new("Figure 15: DNN benchmarks").headers([
        "network",
        "layers (CONV/FC/SAMP)",
        "neurons (M)",
        "weights (M)",
        "connections (B)",
    ]);
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).expect("known benchmark");
        let a = net.analyze();
        let row = Fig15Row {
            network: name.to_string(),
            layers: net.layer_counts(),
            neurons_m: zoo::fig15_neurons(&net) as f64 / 1e6,
            weights_m: a.weights() as f64 / 1e6,
            connections_b: a.connections() as f64 / 1e9,
        };
        t.row([
            row.network.clone(),
            format!(
                "{} ({}/{}/{})",
                row.layers.0 + row.layers.1 + row.layers.2,
                row.layers.0,
                row.layers.1,
                row.layers.2
            ),
            format!("{:.2}", row.neurons_m),
            format!("{:.1}", row.weights_m),
            format!("{:.2}", row.connections_b),
        ]);
        rows.push(row);
    }
    (rows, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_lists_all_benchmarks() {
        assert_eq!(fig1().len(), 11);
    }

    #[test]
    fn fig4_has_four_classes() {
        assert_eq!(fig4().len(), 4);
    }

    #[test]
    fn fig5_has_six_kernels() {
        assert_eq!(fig5().len(), 6);
    }

    #[test]
    fn fig15_rows_match_zoo() {
        let (rows, t) = fig15();
        assert_eq!(rows.len(), 11);
        assert_eq!(t.len(), 11);
        let vgg_d = rows.iter().find(|r| r.network == "vgg-d").unwrap();
        assert!((vgg_d.weights_m - 138.4).abs() < 0.5);
    }
}
