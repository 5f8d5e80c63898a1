//! Figure 19: the utilization waterfall — AlexNet layer-wise analysis and
//! the suite-wide 0.68 → 0.64 → 0.42 → 0.35 cascade — plus the
//! trace-driven per-stage occupancy heatmap (`utilization` experiment).

use crate::attribution::measured_profile;
use crate::report::{geomean, Table};
use crate::{Session, TraceConfig};
use scaledeep_compiler::MappingReport;
use scaledeep_dnn::zoo;
use scaledeep_sim::perf::RunKind;
use scaledeep_trace::busy_cycles_per_track;

/// The Figure 19 data: AlexNet rows plus suite-level cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig19 {
    /// AlexNet per-layer (name, cols, PEs, util after columns / features /
    /// array).
    pub alexnet_rows: Vec<(String, usize, usize, f64, f64, f64)>,
    /// Suite-wide aggregate utilization after (columns, features, array,
    /// instruction overhead).
    pub suite_cascade: [f64; 4],
}

/// Runs the Figure 19 analysis.
pub fn fig19() -> (Fig19, Vec<Table>) {
    let session = Session::single_precision();
    let node = *session.node();

    // --- AlexNet layer-wise table ---
    let net = zoo::alexnet();
    let artifact = session.compile(&net).expect("alexnet maps");
    let report = MappingReport::new(artifact.mapping(), node.cluster.conv_chip);
    let waterfall = report.waterfall();
    let mut alexnet_rows = Vec::new();
    let mut t1 = Table::new("Figure 19: AlexNet layer-wise utilization").headers([
        "layer",
        "cols",
        "2D-PEs",
        "peak util (cols)",
        "after features",
        "after array",
    ]);
    for r in &waterfall.rows {
        alexnet_rows.push((
            r.name.clone(),
            r.cols,
            r.pes,
            r.util_after_columns,
            r.util_after_features,
            r.util_after_array,
        ));
        t1.row([
            r.name.clone(),
            r.cols.to_string(),
            r.pes.to_string(),
            format!("{:.2}", r.util_after_columns),
            format!("{:.2}", r.util_after_features),
            format!("{:.2}", r.util_after_array),
        ]);
    }

    // --- suite-wide cascade ---
    let mut after_cols = Vec::new();
    let mut after_feat = Vec::new();
    let mut after_array = Vec::new();
    let mut achieved = Vec::new();
    for name in zoo::BENCHMARK_NAMES {
        let bench = zoo::by_name(name).expect("known benchmark");
        let m = session.compile(&bench).expect("benchmark maps");
        let w = MappingReport::new(m.mapping(), node.cluster.conv_chip).waterfall();
        after_cols.push(w.after_columns);
        after_feat.push(w.after_features);
        after_array.push(w.after_array);
        let perf = session.train(&bench).expect("benchmark simulates");
        achieved.push(perf.pe_utilization);
    }
    let suite_cascade = [
        geomean(after_cols.iter().copied()),
        geomean(after_feat.iter().copied()),
        geomean(after_array.iter().copied()),
        geomean(achieved.iter().copied()),
    ];
    let mut t2 = Table::new(
        "Figure 19: suite-wide utilization cascade (paper: 0.68 -> 0.64 -> 0.42 -> 0.35)",
    )
    .headers(["stage", "utilization"]);
    t2.row([
        "after column allocation".to_string(),
        format!("{:.2}", suite_cascade[0]),
    ]);
    t2.row([
        "after feature distribution".to_string(),
        format!("{:.2}", suite_cascade[1]),
    ]);
    t2.row([
        "after 2D-array residue".to_string(),
        format!("{:.2}", suite_cascade[2]),
    ]);
    t2.row([
        "achieved (with instruction overhead)".to_string(),
        format!("{:.2}", suite_cascade[3]),
    ]);

    // --- memory-side utilization (Figure 19's right panel: SFU and
    // memory-array usage alongside the 2D-PE waterfall) ---
    let col_cap = node.cluster.conv_chip.col_mem_capacity() as f64;
    let perf = session.train(&net).expect("alexnet simulates");
    let mut t3 = Table::new("Figure 19: AlexNet memory-side utilization").headers([
        "layer",
        "state MB",
        "capacity MB",
        "mem util",
        "tiles used/total",
    ]);
    for plan in artifact.mapping().conv_plans() {
        if plan.placement.cols() == 0 {
            continue;
        }
        let capacity = plan.placement.cols() as f64 * col_cap;
        let state = plan.state_bytes as f64
            + if plan.weights_on_chip {
                2.0 * plan.weight_bytes as f64
            } else {
                0.0
            };
        t3.row([
            plan.name.clone(),
            format!("{:.2}", state / 1e6),
            format!("{:.2}", capacity / 1e6),
            format!("{:.2}", state / capacity),
            format!("{}/{}", plan.tiles_used, plan.tiles_total),
        ]);
    }
    t3.row([
        "SFU utilization (chip)".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}", perf.sfu_utilization),
        String::new(),
    ]);

    (
        Fig19 {
            alexnet_rows,
            suite_cascade,
        },
        vec![t1, t2, t3],
    )
}

/// The trace-driven utilization data: per-track busy fractions measured
/// from the pipeline's stage-occupancy spans (not the analytic model).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTrace {
    /// `(track name, busy cycles, busy fraction of the traced window)`
    /// for every track that recorded at least one span.
    pub rows: Vec<(String, u64, f64)>,
    /// The rendered per-track time-binned heatmap.
    pub heatmap: String,
    /// Cycles the traced window covers.
    pub window: u64,
    /// Achieved processing efficiency at the *measured* utilization
    /// profile ([`scaledeep_arch::PowerModel::node_efficiency`] fed the
    /// profile the trace observed, not the paper's assumed one).
    pub gflops_per_watt: f64,
}

/// Number of time bins in the heatmap rendering.
const HEATMAP_BINS: usize = 64;

/// Runs the `utilization` experiment: traces an AlexNet training run
/// through the performance pipeline and renders where each stage actually
/// spent its cycles — a measured counterpart to Figure 19's analytic
/// waterfall.
pub fn utilization_trace() -> (UtilizationTrace, Vec<Table>) {
    let session = Session::single_precision();
    let traced = session
        .run_traced(&zoo::alexnet(), RunKind::Training, &TraceConfig::default())
        .expect("alexnet maps");
    let trace = &traced.trace;

    let window = trace.events.iter().map(|e| e.at + e.dur).max().unwrap_or(0);
    let busy = busy_cycles_per_track(&trace.events, &trace.tracks);
    let mut rows = Vec::new();
    let mut t1 = Table::new("utilization: traced per-stage occupancy (alexnet, training)")
        .headers(["track", "busy cycles", "busy frac"]);
    for (id, name) in trace.tracks.iter() {
        let cycles = busy[id as usize];
        if cycles == 0 {
            continue;
        }
        let frac = cycles as f64 / window.max(1) as f64;
        t1.row([name.to_string(), cycles.to_string(), format!("{frac:.3}")]);
        rows.push((name.to_string(), cycles, frac));
    }

    // Achieved efficiency at the profile the trace measured — the
    // honest counterpart to Figure 20's assumed-utilization GFLOPS/W.
    let power = session.node().power_model();
    let profile = measured_profile(&traced.perf);
    let gflops_per_watt = power.node_efficiency(traced.perf.achieved_flops, profile) / 1e9;
    t1.row([
        "achieved GFLOPS/W (measured profile)".to_string(),
        String::new(),
        format!("{gflops_per_watt:.1}"),
    ]);

    let heatmap = trace.utilization_report(HEATMAP_BINS);
    let mut t2 = Table::new("utilization: per-stage occupancy heatmap").headers(["timeline"]);
    for line in heatmap.lines() {
        t2.row([line.to_string()]);
    }

    (
        UtilizationTrace {
            rows,
            heatmap,
            window,
            gflops_per_watt,
        },
        vec![t1, t2],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_utilization_covers_every_stage() {
        let (u, tables) = utilization_trace();
        assert!(u.window > 0);
        // AlexNet training has 8 weighted layers -> at least 8 stage
        // tracks recorded spans, plus the sync track.
        assert!(u.rows.len() >= 8, "only {} busy tracks", u.rows.len());
        assert!(u.rows.iter().any(|(name, ..)| name == "sync"));
        for (name, busy, frac) in &u.rows {
            assert!(*busy > 0, "{name}");
            assert!(*frac > 0.0 && *frac <= 1.0, "{name}: {frac}");
        }
        assert_eq!(tables.len(), 2);
        assert!(!tables[1].is_empty());
        // The paper quotes ~486 GFLOPS/W at assumed utilizations; the
        // measured profile lands in the same order of magnitude.
        assert!(
            u.gflops_per_watt > 50.0 && u.gflops_per_watt < 2000.0,
            "measured efficiency {} GFLOPS/W",
            u.gflops_per_watt
        );
    }

    #[test]
    fn cascade_decreases_monotonically() {
        let (f, _) = fig19();
        let c = f.suite_cascade;
        assert!(c[0] >= c[1] && c[1] >= c[2], "{c:?}");
        assert!(c[3] > 0.05, "achieved utilization sane: {c:?}");
    }

    #[test]
    fn cascade_is_in_paper_neighborhood() {
        // Paper: 0.68 / 0.64 / 0.42 / 0.35.
        let (f, _) = fig19();
        let c = f.suite_cascade;
        assert!(c[0] > 0.4 && c[0] <= 1.0, "cols {}", c[0]);
        assert!(c[2] > 0.2 && c[2] < 0.9, "array {}", c[2]);
        assert!(c[3] > 0.15 && c[3] < 0.8, "achieved {}", c[3]);
    }

    #[test]
    fn alexnet_rows_cover_conv_layers() {
        let (f, _) = fig19();
        assert!(f.alexnet_rows.iter().any(|r| r.0 == "c1"));
        assert!(f.alexnet_rows.iter().any(|r| r.0 == "c5"));
    }
}
