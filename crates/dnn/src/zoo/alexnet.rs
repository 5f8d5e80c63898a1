//! AlexNet (Krizhevsky et al., NIPS 2012) — ILSVRC 2012 winner.

use crate::builder::NetworkBuilder;
use crate::graph::Network;
use crate::layer::{Conv, Fc, Pool};
use crate::shape::FeatureShape;

/// Builds AlexNet: 5 CONV / 3 FC / 3 SAMP layers, ~0.65M neurons,
/// ~60.9M weights (Figure 15 row 1).
///
/// Uses the original two-tower connection table, modeled as `groups = 2`
/// on C2, C4 and C5 — without it the weight count would overshoot the
/// paper's by ~5%.
pub fn alexnet() -> Network {
    let mut b = NetworkBuilder::new("alexnet", FeatureShape::new(3, 227, 227));
    b.conv("c1", Conv::relu(96, 11, 4, 0)).expect("c1");
    b.pool("s1", Pool::max(3, 2)).expect("s1");
    b.conv("c2", Conv::relu_grouped(256, 5, 1, 2, 2))
        .expect("c2");
    b.pool("s2", Pool::max(3, 2)).expect("s2");
    b.conv("c3", Conv::relu(384, 3, 1, 1)).expect("c3");
    b.conv("c4", Conv::relu_grouped(384, 3, 1, 1, 2))
        .expect("c4");
    b.conv("c5", Conv::relu_grouped(256, 3, 1, 1, 2))
        .expect("c5");
    b.pool("s3", Pool::max(3, 2)).expect("s3");
    b.fc("f6", Fc::relu(4096)).expect("f6");
    b.fc("f7", Fc::relu(4096)).expect("f7");
    let out = b.fc("f8", Fc::linear(1000)).expect("f8");
    b.finish_with_loss(out).expect("alexnet is a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_map_sizes_are_canonical() {
        let net = alexnet();
        let shape = |n: &str| net.node_by_name(n).unwrap().output_shape();
        assert_eq!(shape("c1"), FeatureShape::new(96, 55, 55));
        assert_eq!(shape("s1"), FeatureShape::new(96, 27, 27));
        assert_eq!(shape("c2"), FeatureShape::new(256, 27, 27));
        assert_eq!(shape("c5"), FeatureShape::new(256, 13, 13));
        assert_eq!(shape("s3"), FeatureShape::new(256, 6, 6));
        assert_eq!(shape("f8"), FeatureShape::vector(1000));
    }

    #[test]
    fn weights_are_60_9m() {
        let net = alexnet();
        let a = net.analyze();
        let m = a.weights() as f64 / 1e6;
        assert!((m - 60.9).abs() < 0.3, "got {m}M");
    }

    #[test]
    fn evaluation_costs_about_1_5_gflops() {
        let net = alexnet();
        let a = net.analyze();
        let g = a.total_flops(crate::Step::Fp) as f64 / 1e9;
        assert!(g > 1.0 && g < 2.0, "got {g} GFLOPs");
    }
}
