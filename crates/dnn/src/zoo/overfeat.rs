//! OverFeat (Sermanet et al., 2013) — ILSVRC 2013 localization winner,
//! in its *fast* and *accurate* variants. OverFeat-Fast is the paper's
//! running workload-analysis example (Figure 4).

use crate::builder::NetworkBuilder;
use crate::graph::Network;
use crate::layer::{Conv, Fc, Pool};
use crate::shape::FeatureShape;

/// Builds OverFeat-Fast: 5 CONV / 3 FC / 3 SAMP on 231×231 inputs,
/// ~0.82M neurons, ~145.9M weights (Figure 15 row 4).
pub fn overfeat_fast() -> Network {
    let mut b = NetworkBuilder::new("overfeat-fast", FeatureShape::new(3, 231, 231));
    b.conv("c1", Conv::relu(96, 11, 4, 0)).expect("c1");
    b.pool("s1", Pool::max(2, 2)).expect("s1");
    b.conv("c2", Conv::relu(256, 5, 1, 0)).expect("c2");
    b.pool("s2", Pool::max(2, 2)).expect("s2");
    b.conv("c3", Conv::relu(512, 3, 1, 1)).expect("c3");
    b.conv("c4", Conv::relu(1024, 3, 1, 1)).expect("c4");
    b.conv("c5", Conv::relu(1024, 3, 1, 1)).expect("c5");
    b.pool("s3", Pool::max(2, 2)).expect("s3");
    b.fc("f6", Fc::relu(3072)).expect("f6");
    b.fc("f7", Fc::relu(4096)).expect("f7");
    let out = b.fc("f8", Fc::linear(1000)).expect("f8");
    b.finish_with_loss(out)
        .expect("overfeat-fast is a valid graph")
}

/// Builds OverFeat-Accurate: 6 CONV / 3 FC / 3 SAMP on 221×221 inputs,
/// ~2.05M neurons, ~144.6M weights (Figure 15 row 5).
pub fn overfeat_accurate() -> Network {
    let mut b = NetworkBuilder::new("overfeat-accurate", FeatureShape::new(3, 221, 221));
    b.conv("c1", Conv::relu(96, 7, 2, 0)).expect("c1");
    b.pool("s1", Pool::max(3, 3)).expect("s1");
    b.conv("c2", Conv::relu(256, 7, 1, 0)).expect("c2");
    b.pool("s2", Pool::max(2, 2)).expect("s2");
    b.conv("c3", Conv::relu(512, 3, 1, 1)).expect("c3");
    b.conv("c4", Conv::relu(512, 3, 1, 1)).expect("c4");
    b.conv("c5", Conv::relu(1024, 3, 1, 1)).expect("c5");
    b.conv("c6", Conv::relu(1024, 3, 1, 1)).expect("c6");
    b.pool("s3", Pool::max(3, 3)).expect("s3");
    b.fc("f7", Fc::relu(4096)).expect("f7");
    b.fc("f8", Fc::relu(4096)).expect("f8");
    let out = b.fc("f9", Fc::linear(1000)).expect("f9");
    b.finish_with_loss(out)
        .expect("overfeat-accurate is a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Step;

    #[test]
    fn fast_feature_sizes_match_figure4() {
        let net = overfeat_fast();
        let shape = |n: &str| net.node_by_name(n).unwrap().output_shape();
        // Figure 4: C1/C2 large features (56x56, 24x24), C3-C5 12x12.
        assert_eq!(shape("c1"), FeatureShape::new(96, 56, 56));
        assert_eq!(shape("c2"), FeatureShape::new(256, 24, 24));
        assert_eq!(shape("c3"), FeatureShape::new(512, 12, 12));
        assert_eq!(shape("c5"), FeatureShape::new(1024, 12, 12));
        assert_eq!(shape("s3"), FeatureShape::new(1024, 6, 6));
    }

    #[test]
    fn fast_weights_are_145_9m() {
        let m = overfeat_fast().analyze().weights() as f64 / 1e6;
        assert!((m - 145.9).abs() < 0.5, "got {m}M");
    }

    #[test]
    fn fast_evaluation_is_3_3_gigaops() {
        // Paper §1: ~3.3 giga-operations to evaluate one 231x231 image
        // (counting MACs as 2 ops gives ~5.4 GFLOPs; the paper's 3.3 counts
        // multiply-accumulates once in some tallies — assert the bracket).
        let net = overfeat_fast();
        let a = net.analyze();
        let gops = a.connections() as f64 / 1e9;
        assert!(gops > 2.4 && gops < 3.2, "got {gops} G-MACs");
    }

    #[test]
    fn accurate_weights_are_144_6m() {
        let m = overfeat_accurate().analyze().weights() as f64 / 1e6;
        assert!((m - 144.6).abs() < 1.0, "got {m}M");
    }

    #[test]
    fn accurate_has_more_flops_than_fast() {
        // Figure 15: 5.22B vs 2.66B connections.
        let (fast_net, acc_net) = (overfeat_fast(), overfeat_accurate());
        let (fast, acc) = (fast_net.analyze(), acc_net.analyze());
        assert!(acc.total_flops(Step::Fp) > 3 * fast.total_flops(Step::Fp) / 2);
    }
}
