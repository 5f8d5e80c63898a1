//! Plain-text table rendering shared by the experiment drivers
//! (the `repro` binary prints these; EXPERIMENTS.md embeds them), plus
//! the versioned `BENCH_<network>.json` benchmark report. A
//! [`BenchReport`] holds a run's sources — the attribution tree, the run
//! record, the design point, the provenance key, the cache ledger and the
//! functional drill — and its render is the only code that knows the
//! document's fields. A committed report is its own regression gate:
//! `repro --check` reads only its header ([`bench_inputs`]), re-runs that
//! network, kind and precision, and requires the fresh document to match
//! the committed bytes
//! ([`check_document`](scaledeep_trace::json::check_document)).
use crate::attribution::Attribution;
use crate::session::CacheStats;
use scaledeep_arch::{DesignPoint, Precision};
use scaledeep_sim::func::RunStats;
use scaledeep_sim::perf::{PerfResult, RunKind};
use scaledeep_trace::json::{self, Json};
use std::fmt;

/// A simple column-aligned text table.
///
/// ```
/// use scaledeep::report::Table;
///
/// let mut t = Table::new("demo").headers(["network", "img/s"]);
/// t.row(["alexnet", "71744"]);
/// assert!(t.to_string().contains("alexnet"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header row.
    pub fn headers<S: Into<String>>(mut self, headers: impl IntoIterator<Item = S>) -> Self {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = w[i]));
            }
            writeln!(f, "{}", line.trim_end())
        };
        if !self.headers.is_empty() {
            print_row(f, &self.headers)?;
            let total: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Geometric mean of a non-empty series (0 for empty input).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Version stamped into every BENCH JSON. Bump on any field change; the
/// gate's header reader ([`bench_inputs`]) accepts the current version
/// only — every committed BENCH document is at it.
///
/// * v1 — perf-model attribution only.
/// * v2 — adds the selected functional execution tier, the host
///   wall-clock split (compile / perf-simulate / functional-simulate),
///   and the functional drill's cycle-accurate statistics.
/// * v3 — adds the parallel node engine's shard count and measured
///   wall-clock scaling (sequential oracle vs 1/2/4/8 shards).
/// * v4 — adds the `design` group: the structural design point the
///   session ran on (the arch design layer's canonical document) plus
///   its fingerprint, so a report names its architecture as data rather
///   than only through the preset that happened to build it.
/// * v5 — drops the host-time groups (`wall` and `par`): every field left
///   is deterministic, so a fresh report renders byte-identically to its
///   committed baseline.
/// * v6 — drops the informational `tier` field: every functional drill
///   runs the compiled tier.
pub const BENCH_SCHEMA_VERSION: u64 = 6;

/// The versioned, machine-readable benchmark report serialized as
/// `BENCH_<network>.json`: a run's measured attribution plus enough
/// provenance to tell whether a diff compares like with like. It holds
/// the document's sources and nothing else; [`BenchReport::to_json`] is
/// the one place that knows the document's fields.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The run's measured per-layer attribution tree.
    pub attribution: Attribution,
    /// The run record; its whole-run scalars fill the `totals` group.
    pub perf: PerfResult,
    /// The design point the session ran on; its fingerprint doubles as
    /// the compile cache's node identity.
    pub design: DesignPoint,
    /// Fault-plan seed of the run (0 for the fault-free path).
    pub seed: u64,
    /// The compile's provenance key, rendered as 16 hex digits (the
    /// trace JSON parser stores numbers as `f64`, which cannot carry a
    /// full 64-bit key).
    pub provenance_key: u64,
    /// The compile cache at report time (session-history dependent; a
    /// fresh session's report, the one the gate re-runs, reads 1 hit
    /// after 1 miss).
    pub cache: CacheStats,
    /// The functional drill — one training iteration on the compiled
    /// tier, cycle-accurate — when the functional target can express the
    /// network; rendered as `null` otherwise.
    pub functional: Option<RunStats>,
}

impl BenchReport {
    /// Renders the report as pretty-printed, deterministic JSON.
    pub fn to_json(&self) -> String {
        let attr = &self.attribution;
        let perf = &self.perf;
        let node = self.design.node_config();
        let count = |n: u64| Json::Num(n as f64);
        let layers = attr
            .layers
            .iter()
            .map(|l| {
                json::obj([
                    ("stage", Json::count(l.stage)),
                    ("name", Json::Str(l.name.clone())),
                    ("busy_cycles", count(l.busy_cycles)),
                    ("service_cycles", count(l.service_cycles)),
                    ("fp_cycles", count(l.passes.fp)),
                    ("bp_cycles", count(l.passes.bp)),
                    ("wg_cycles", count(l.passes.wg)),
                    ("comp_heavy_cycles", count(l.tile_classes.comp_heavy)),
                    ("mem_heavy_cycles", count(l.tile_classes.mem_heavy)),
                    ("grid_bytes", Json::Num(l.tier_bytes.grid)),
                    ("wheel_bytes", Json::Num(l.tier_bytes.wheel)),
                    ("ring_bytes", Json::Num(l.tier_bytes.ring)),
                    ("flops", count(l.flops)),
                    ("bytes_per_flop", Json::Num(l.bytes_per_flop)),
                    ("bound", Json::Str(l.bound.name().to_string())),
                    ("joules_per_image", Json::Num(l.joules_per_image)),
                ])
            })
            .collect();
        let energy = &attr.energy_per_image;
        let occupancy = &attr.occupancy;
        let kind = match attr.kind {
            RunKind::Training => "training",
            RunKind::Evaluation => "evaluation",
        };
        let mut out = json::obj([
            ("schema_version", count(BENCH_SCHEMA_VERSION)),
            ("network", Json::Str(attr.network.clone())),
            ("kind", Json::Str(kind.to_string())),
            ("seed", count(self.seed)),
            (
                "provenance",
                Json::Str(format!("{:016x}", self.provenance_key)),
            ),
            ("precision", Json::Str(node.precision.to_string())),
            ("clusters", Json::count(node.clusters)),
            ("frequency_mhz", Json::Num(node.frequency_mhz)),
            (
                "totals",
                json::obj([
                    ("window_cycles", count(attr.window_cycles)),
                    ("busy_cycles", count(attr.total_busy_cycles)),
                    ("sync_cycles", count(attr.sync_cycles)),
                    ("images_done", count(attr.images_done)),
                    ("images_per_sec", Json::Num(perf.images_per_sec)),
                    ("pe_utilization", Json::Num(perf.pe_utilization)),
                    ("sfu_utilization", Json::Num(perf.sfu_utilization)),
                    ("achieved_flops", Json::Num(perf.achieved_flops)),
                    ("gflops_per_watt", Json::Num(perf.gflops_per_watt)),
                    ("joules_per_image", Json::Num(perf.joules_per_image)),
                ]),
            ),
            (
                "energy",
                json::obj([
                    ("compute_joules", Json::Num(energy.compute_joules)),
                    ("memory_joules", Json::Num(energy.memory_joules)),
                    ("interconnect_joules", Json::Num(energy.interconnect_joules)),
                ]),
            ),
            (
                "occupancy",
                json::obj([
                    ("p50", Json::Num(occupancy.p50)),
                    ("p95", Json::Num(occupancy.p95)),
                    ("p99", Json::Num(occupancy.p99)),
                ]),
            ),
            (
                "cache",
                json::obj([
                    ("hits", count(self.cache.hits)),
                    ("misses", count(self.cache.misses)),
                ]),
            ),
            (
                "functional",
                self.functional.as_ref().map_or(Json::Null, |f| {
                    json::obj([
                        ("cycles", count(f.cycles)),
                        ("instructions", count(f.instructions)),
                        ("stalls", count(f.stalls)),
                    ])
                }),
            ),
            (
                "design",
                json::obj([
                    (
                        "fingerprint",
                        Json::Str(format!("{:016x}", self.design.fingerprint())),
                    ),
                    ("point", self.design.to_json()),
                ]),
            ),
            ("layers", Json::Arr(layers)),
        ])
        .render_pretty();
        out.push('\n');
        out
    }
}

/// What the gate re-runs from a BENCH document: the network, run kind
/// and node precision its header names. Every other field is the
/// re-run's output, compared byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchInputs {
    /// Benchmark network name.
    pub network: String,
    /// Training or evaluation.
    pub kind: RunKind,
    /// Node datapath precision.
    pub precision: Precision,
}

/// Reads a BENCH document's header: the schema version, which must be
/// [`BENCH_SCHEMA_VERSION`], and the [`BenchInputs`] the gate re-runs.
/// The rest of the document is not read: `repro --check` renders a fresh
/// report from these inputs and requires the two to be byte-identical
/// ([`check_document`](scaledeep_trace::json::check_document)).
///
/// # Errors
///
/// Returns a message naming the offending field on malformed JSON, a
/// schema-version mismatch, or a missing or unknown header field.
pub fn bench_inputs(text: &str) -> Result<BenchInputs, String> {
    let v = json::parse(text)?;
    let version: u64 = v.count_field("schema_version")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (reader supports {BENCH_SCHEMA_VERSION})"
        ));
    }
    let kind = match v.str_field("kind")? {
        "training" => RunKind::Training,
        "evaluation" => RunKind::Evaluation,
        other => return Err(format!("unknown run kind `{other}`")),
    };
    let precision = match v.str_field("precision")? {
        "single" => Precision::Single,
        "half" => Precision::Half,
        other => return Err(format!("unknown precision `{other}`")),
    };
    Ok(BenchInputs {
        network: v.str_field("network")?.to_string(),
        kind,
        precision,
    })
}

/// `text` re-rendered with the value at `path` (object keys or array
/// indices, outermost first) replaced by `value`.
#[cfg(test)]
pub(crate) fn with_field(text: &str, path: &[&str], value: Json) -> String {
    let mut doc = json::parse(text).expect("test document parses");
    let mut at = &mut doc;
    for key in path {
        at = match at {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            Json::Arr(items) => key.parse().ok().and_then(|i: usize| items.get_mut(i)),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no value at `{key}`"));
    }
    *at = value;
    doc.render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo").headers(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name    value"));
        assert!(s.contains("longer  22"));
    }

    #[test]
    fn geomean_of_powers_of_two() {
        let g = geomean([2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ignores_nonpositive() {
        assert_eq!(geomean([0.0, -1.0]), 0.0);
        assert!((geomean([0.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(Table::new("t").is_empty());
    }

    fn sample_report() -> BenchReport {
        let session = crate::Session::single_precision();
        session
            .bench_report(&scaledeep_dnn::zoo::alexnet(), RunKind::Training)
            .expect("alexnet benches")
    }

    #[test]
    fn header_reader_decodes_the_rerun_inputs() {
        let inputs = bench_inputs(&sample_report().to_json()).expect("own output parses");
        assert_eq!(
            inputs,
            BenchInputs {
                network: "alexnet".to_string(),
                kind: RunKind::Training,
                precision: Precision::Single,
            }
        );
    }

    #[test]
    fn header_reader_rejects_other_schemas_and_garbage() {
        let text = sample_report().to_json();
        for version in [7.0, 5.0] {
            let other = with_field(&text, &["schema_version"], Json::Num(version));
            let err = bench_inputs(&other).unwrap_err();
            assert!(err.contains(&format!("schema_version {version}")), "{err}");
        }
        // The version is a count: an exact non-negative integer, not a
        // truncated float.
        let fractional = with_field(&text, &["schema_version"], Json::Num(5.5));
        let err = bench_inputs(&fractional).unwrap_err();
        assert!(err.contains("`schema_version`"), "{err}");
        for (key, value) in [("kind", "inference"), ("precision", "quarter")] {
            let unknown = with_field(&text, &[key], Json::Str(value.to_string()));
            let err = bench_inputs(&unknown).unwrap_err();
            assert!(err.contains(&format!("`{value}`")), "{err}");
        }

        assert!(bench_inputs("not json").is_err());
        assert!(bench_inputs("{}").is_err());
    }
}
