//! Degradation curve: training throughput under permanently failed tile
//! columns and transiently flaky links (DESIGN.md "Fault model & degraded
//! operation"). Not a paper figure — the paper assumes healthy silicon —
//! but the natural robustness companion to Figure 16's throughput data.

use crate::report::Table;
use crate::{Observer, Session};
use scaledeep_compiler::{CompileOptions, FailedTiles};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::{FaultPlan, LinkFaults};
use scaledeep_sim::perf::RunKind;

/// Fixed seed for the link-fault draws, shared with the CI smoke job so
/// the sweep is replayable.
pub const FAULT_SWEEP_SEED: u64 = 0xFA01;

/// The curve's per-transfer link-fault probabilities.
const LINK_FAULT_PROBS: [f64; 3] = [1e-4, 1e-2, 1e-1];

/// The curve's seeded link-fault plan at probability `prob`.
fn link_fault_plan(prob: f64) -> FaultPlan {
    FaultPlan::seeded(FAULT_SWEEP_SEED).with_link_faults(LinkFaults {
        prob,
        base_backoff: 2_000,
        max_retries: 4,
    })
}

/// One degradation-curve row.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Condemned ConvLayer columns (0 = healthy baseline).
    pub failed_cols: usize,
    /// Per-transfer link-fault probability (0 = clean links).
    pub link_fault_prob: f64,
    /// Training throughput under the fault condition.
    pub images_per_sec: f64,
    /// Throughput relative to the healthy, clean-link baseline.
    pub relative: f64,
    /// Link retries charged during the run.
    pub link_retries: u64,
}

/// The degradation curve: AlexNet training throughput as tile columns are
/// condemned (degraded remap) and as link-fault probability rises
/// (retry/back-off latency).
///
/// Like every `PerfResult`, each row simulates one pipeline replica:
/// replica 0 of the node, on its link-retry salts. The whole node
/// ([`Session::node_outcome`]) max-reduces all 16 replicas at every
/// weight sync, so under link faults its window and retry count are
/// larger, and the link-fault rows understate the node's fault toll.
/// Without faults the two agree exactly. Measured on the curve's plans
/// (window cycles and link retries, curve vs node):
///
/// | net     | prob | window                   | retries      |
/// |---------|------|--------------------------|--------------|
/// | alexnet | 1e-4 | 34,121,208 vs 34,121,208 | 1 vs 3       |
/// | alexnet | 1e-2 | 34,127,208 vs 34,143,208 | 18 vs 330    |
/// | alexnet | 1e-1 | 34,183,208 vs 34,257,208 | 238 vs 3,669 |
///
/// The test `node_outcome_bounds_the_replica_0_curve` checks the bound
/// on alexnet and cnn-s; DESIGN.md's fault-model section explains it.
///
/// # Panics
///
/// Panics when the healthy benchmark fails to map — a programming error,
/// as the zoo networks are validated by the tier-1 tests.
pub fn faults() -> (Vec<FaultRow>, Table) {
    let session = Session::single_precision();
    let net = zoo::alexnet();
    let baseline = session.train(&net).expect("benchmark maps");
    let mut rows = Vec::new();
    let mut t = Table::new("Fault degradation: AlexNet training throughput").headers(vec![
        "failed cols".to_string(),
        "link fault prob".to_string(),
        "images/s".to_string(),
        "relative".to_string(),
        "link retries".to_string(),
    ]);
    let mut push = |failed_cols: usize, prob: f64, images_per_sec: f64, link_retries: u64| {
        let relative = images_per_sec / baseline.images_per_sec;
        t.row(vec![
            failed_cols.to_string(),
            format!("{prob:.0e}"),
            format!("{images_per_sec:.0}"),
            format!("{relative:.3}"),
            link_retries.to_string(),
        ]);
        rows.push(FaultRow {
            failed_cols,
            link_fault_prob: prob,
            images_per_sec,
            relative,
            link_retries,
        });
    };

    // Permanent tile failures: condemn the first k columns of the first
    // rim chip and remap around them.
    for k in [0usize, 1, 2, 4, 8] {
        let opts = CompileOptions::degraded(FailedTiles::from_columns(0..k));
        let artifact = session
            .compile_with(&net, &opts, Observer::Off)
            .expect("degraded remap fits")
            .value;
        let r = session.run_mapped(&artifact, RunKind::Training);
        push(k, 0.0, r.images_per_sec, 0);
    }

    // Transient link faults on the healthy mapping: retry + exponential
    // back-off latency on every pipeline hand-off and minibatch sync.
    let artifact = session.compile(&net).expect("benchmark maps");
    for prob in LINK_FAULT_PROBS {
        let plan = link_fault_plan(prob);
        let r = session
            .run_mapped_with(&artifact, RunKind::Training, &plan, Observer::Off)
            .value;
        push(0, prob, r.images_per_sec, r.faults.link_retries);
    }

    (rows, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_curve_is_monotone_in_failed_columns() {
        let (rows, _) = faults();
        let tile_rows: Vec<&FaultRow> = rows.iter().filter(|r| r.link_fault_prob == 0.0).collect();
        assert_eq!(tile_rows.len(), 5);
        assert!(
            (tile_rows[0].relative - 1.0).abs() < 1e-9,
            "healthy baseline"
        );
        for pair in tile_rows.windows(2) {
            assert!(
                pair[1].images_per_sec <= pair[0].images_per_sec + 1e-9,
                "losing columns must not speed training up: {} -> {}",
                pair[0].images_per_sec,
                pair[1].images_per_sec
            );
        }
    }

    #[test]
    fn flakier_links_cost_more_retries_and_throughput() {
        let (rows, _) = faults();
        let link_rows: Vec<&FaultRow> = rows.iter().filter(|r| r.link_fault_prob > 0.0).collect();
        assert_eq!(link_rows.len(), 3);
        for pair in link_rows.windows(2) {
            assert!(pair[1].link_retries >= pair[0].link_retries);
            assert!(pair[1].images_per_sec <= pair[0].images_per_sec + 1e-9);
        }
        let worst = link_rows.last().unwrap();
        assert!(worst.link_retries > 0, "1e-2 flakiness must draw retries");
        assert!(worst.relative < 1.0);
    }

    /// The curve simulates replica 0 alone; `Session::node_outcome`
    /// max-reduces every replica at each sync. Replica 0 of the node
    /// draws on the curve's salts, and a later sync release can only
    /// delay later completions (max-plus monotonicity), so the node's
    /// window and retries bound the curve's from above, with equality
    /// when no link faults.
    #[test]
    fn node_outcome_bounds_the_replica_0_curve() {
        let session = Session::single_precision();
        for name in ["alexnet", "cnn-s"] {
            let artifact = session
                .compile(&zoo::by_name(name).expect("zoo network"))
                .expect("benchmark maps");
            let plans =
                std::iter::once(FaultPlan::none()).chain(LINK_FAULT_PROBS.map(link_fault_plan));
            for plan in plans {
                let curve = session
                    .run_mapped_with(&artifact, RunKind::Training, &plan, Observer::Off)
                    .value;
                let window = curve.window_cycles;
                let retries = curve.faults.link_retries;
                let node = session.node_outcome(&artifact, RunKind::Training, &plan);
                let prob = plan.link_faults().map_or(0.0, |lf| lf.prob);
                let what = format!(
                    "{name} p={prob:.0e}: window {window} vs node {}, retries {retries} vs node {}",
                    node.window, node.faults.link_retries
                );
                if prob == 0.0 {
                    assert_eq!(node.window, window, "{what}");
                    assert_eq!((retries, node.faults.link_retries), (0, 0), "{what}");
                } else {
                    assert!(node.window >= window, "{what}");
                    assert!(node.faults.link_retries >= retries, "{what}");
                }
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let (a, _) = faults();
        let (b, _) = faults();
        assert_eq!(a, b);
    }
}
