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
    for prob in [1e-4, 1e-2, 1e-1] {
        let plan = FaultPlan::seeded(FAULT_SWEEP_SEED).with_link_faults(LinkFaults {
            prob,
            base_backoff: 2_000,
            max_retries: 4,
        });
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

    #[test]
    fn sweep_is_deterministic() {
        let (a, _) = faults();
        let (b, _) = faults();
        assert_eq!(a, b);
    }
}
