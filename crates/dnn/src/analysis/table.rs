//! Layer-class breakdown (paper Figure 4): groups a network's layers into
//! initial CONV / mid CONV / FC / SAMP classes and summarizes compute and
//! data requirements per class.

use super::{Analysis, Kernel, OpBreakdown, Step};
use crate::graph::Network;
use crate::layer::Layer;
use std::fmt;

/// The four layer classes of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerClass {
    /// Initial CONV layers: few, large features (paper: OverFeat C1–C2).
    InitialConv,
    /// Mid CONV layers: many, small features (paper: OverFeat C3–C5).
    MidConv,
    /// Fully-connected layers.
    FullyConnected,
    /// Sampling layers.
    Sampling,
}

impl LayerClass {
    /// All classes in Figure 4's column order.
    pub const ALL: [LayerClass; 4] = [
        LayerClass::InitialConv,
        LayerClass::MidConv,
        LayerClass::FullyConnected,
        LayerClass::Sampling,
    ];
}

impl fmt::Display for LayerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LayerClass::InitialConv => "Initial Conv",
            LayerClass::MidConv => "Mid Conv",
            LayerClass::FullyConnected => "Fully Conn.",
            LayerClass::Sampling => "Sub Samp.",
        })
    }
}

/// Minimum output feature edge length for a CONV layer to be classed as
/// *initial*. The paper's split for OverFeat puts 24×24 outputs in the
/// initial class and 12×12 in the mid class.
const INITIAL_CONV_MIN_EDGE: usize = 20;

/// Classifies one layer, returning `None` for non-CONV/FC/SAMP nodes.
pub(crate) fn classify(net: &Network, id: crate::LayerId) -> Option<LayerClass> {
    let node = net.node(id);
    match node.layer() {
        Layer::Conv(_) => {
            if node.output_shape().height >= INITIAL_CONV_MIN_EDGE {
                Some(LayerClass::InitialConv)
            } else {
                Some(LayerClass::MidConv)
            }
        }
        Layer::Fc(_) => Some(LayerClass::FullyConnected),
        Layer::Pool(_) => Some(LayerClass::Sampling),
        _ => None,
    }
}

/// One row (column, in the paper's transposed layout) of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerClassRow {
    /// The layer class summarized by this row.
    pub class: LayerClass,
    /// Number of layers in the class.
    pub layers: usize,
    /// (min, max) output feature count across the class.
    pub feature_count: (usize, usize),
    /// (min, max) output feature edge length across the class.
    pub feature_size: (usize, usize),
    /// (min, max) learned weights per layer.
    pub weights: (u64, u64),
    /// Share of the network's total training FLOPs, in [0, 1].
    pub flops_share: f64,
    /// Bytes/FLOP over the FP + BP steps.
    pub bf_fp_bp: f64,
    /// Bytes/FLOP over the WG step (0 for SAMP layers, which hold no weights).
    pub bf_wg: f64,
    /// Intra-layer FLOP split by kernel over FP+BP+WG, shares in [0, 1].
    pub op_split: Vec<(Kernel, f64)>,
}

/// Computes the Figure 4 breakdown for a network.
///
/// Classes with no member layers are omitted.
pub fn layer_class_breakdown(net: &Network, analysis: &Analysis) -> Vec<LayerClassRow> {
    let total_flops = analysis.training_flops().max(1) as f64;
    let mut rows = Vec::new();
    for class in LayerClass::ALL {
        let members: Vec<_> = net
            .layers()
            .filter(|n| classify(net, n.id()) == Some(class))
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut fp_bp = OpBreakdown::default();
        let mut wg = OpBreakdown::default();
        let mut feature_count = (usize::MAX, 0);
        let mut feature_size = (usize::MAX, 0);
        let mut weights = (u64::MAX, 0);
        for n in &members {
            let cost = analysis.layer(n.id());
            fp_bp += *cost.step(Step::Fp) + *cost.step(Step::Bp);
            wg += *cost.step(Step::Wg);
            let s = n.output_shape();
            feature_count = (
                feature_count.0.min(s.features),
                feature_count.1.max(s.features),
            );
            feature_size = (feature_size.0.min(s.height), feature_size.1.max(s.height));
            if cost.weights > 0 || class != LayerClass::Sampling {
                weights = (weights.0.min(cost.weights), weights.1.max(cost.weights));
            }
        }
        if weights.0 == u64::MAX {
            weights = (0, 0);
        }
        let total = fp_bp + wg;
        let class_flops = total.total_flops() as f64;
        let op_split = Kernel::ALL
            .iter()
            .map(|&k| (k, total.flops(k) as f64 / class_flops.max(1.0)))
            .filter(|&(_, share)| share > 0.0)
            .collect();
        rows.push(LayerClassRow {
            class,
            layers: members.len(),
            feature_count,
            feature_size,
            weights,
            flops_share: class_flops / total_flops,
            bf_fp_bp: fp_bp.bytes_per_flop(),
            bf_wg: wg.bytes_per_flop(),
            op_split,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn overfeat_classes_match_paper_split() {
        let net = zoo::overfeat_fast();
        let a = net.analyze();
        let rows = layer_class_breakdown(&net, a);
        let initial = rows
            .iter()
            .find(|r| r.class == LayerClass::InitialConv)
            .unwrap();
        let mid = rows
            .iter()
            .find(|r| r.class == LayerClass::MidConv)
            .unwrap();
        // Paper: C1, C2 initial; C3-C5 mid.
        assert_eq!(initial.layers, 2);
        assert_eq!(mid.layers, 3);
        // Paper: initial ≈16% of FLOPs, mid ≈80%, FC ≈4%.
        assert!(initial.flops_share > 0.08 && initial.flops_share < 0.30);
        assert!(mid.flops_share > 0.55 && mid.flops_share < 0.90);
    }

    #[test]
    fn fc_class_has_bf_near_two() {
        let net = zoo::overfeat_fast();
        let a = net.analyze();
        let rows = layer_class_breakdown(&net, a);
        let fc = rows
            .iter()
            .find(|r| r.class == LayerClass::FullyConnected)
            .unwrap();
        assert!(
            fc.bf_fp_bp > 1.5 && fc.bf_fp_bp < 2.5,
            "got {}",
            fc.bf_fp_bp
        );
        assert!(fc.bf_wg > 3.5 && fc.bf_wg < 4.5, "got {}", fc.bf_wg);
    }

    #[test]
    fn sampling_class_has_no_weights() {
        let net = zoo::overfeat_fast();
        let a = net.analyze();
        let rows = layer_class_breakdown(&net, a);
        let samp = rows
            .iter()
            .find(|r| r.class == LayerClass::Sampling)
            .unwrap();
        assert_eq!(samp.weights, (0, 0));
        assert_eq!(samp.bf_wg, 0.0);
    }

    #[test]
    fn conv_classes_dominated_by_convolution() {
        let net = zoo::overfeat_fast();
        let a = net.analyze();
        for row in layer_class_breakdown(&net, a) {
            if matches!(row.class, LayerClass::InitialConv | LayerClass::MidConv) {
                let conv_share = row
                    .op_split
                    .iter()
                    .find(|(k, _)| *k == Kernel::NdConv)
                    .map(|&(_, s)| s)
                    .unwrap();
                // Paper: 98.3% (initial) / 94.6% (mid) of FLOPs in convolution.
                assert!(conv_share > 0.90, "conv share {conv_share} too low");
            }
        }
    }
}
