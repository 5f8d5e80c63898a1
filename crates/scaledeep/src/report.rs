//! Plain-text table rendering shared by the experiment drivers
//! (the `repro` binary prints these; EXPERIMENTS.md embeds them), plus
//! the versioned `BENCH_<network>.json` benchmark report: the
//! machine-readable serialization of a run's measured attribution. A
//! committed report is its own regression gate: `repro --check` re-runs
//! the report's network, kind and precision and requires the fresh
//! document to match the committed bytes
//! ([`check_document`](scaledeep_trace::json::check_document)).

use crate::attribution::{
    Attribution, LayerAttribution, OccupancyPercentiles, PassSplit, RooflineBound, TierBytes,
    TileClassSplit,
};
use crate::session::CacheStats;
use scaledeep_sim::perf::RunKind;
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
/// reader ([`BenchReport::from_json`]) accepts the current version only —
/// every committed BENCH document is at it.
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

/// Cycle-accurate statistics of the functional drill — one training
/// iteration on the compiled tier (bit-identical to the interpreter
/// oracle by construction), gated byte for byte like every field;
/// `None` when the functional target cannot express the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchFunctional {
    /// Simulated cycles of the iteration.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Tracker-wait stalls.
    pub stalls: u64,
}

/// The design point a BENCH report's session ran on, serialized
/// structurally by the arch design layer. The fingerprint doubles as the
/// compile cache's node identity, so two reports with equal fingerprints
/// measured the same architecture knobs. (v4)
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDesign {
    /// Structural FNV-1a fingerprint of the point, as 16 hex digits.
    pub fingerprint: String,
    /// The design point itself (canonical knob document).
    pub point: scaledeep_arch::DesignPoint,
}

impl BenchDesign {
    /// Describes a node configuration as a report design group.
    pub fn describe(node: &scaledeep_arch::NodeConfig) -> Self {
        let point = scaledeep_arch::DesignPoint::describe(node);
        BenchDesign {
            fingerprint: format!("{:016x}", point.fingerprint()),
            point,
        }
    }
}

/// Whole-run scalars of a BENCH report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchTotals {
    /// Steady-state measurement window in cycles.
    pub window_cycles: u64,
    /// Sum of every stage's measured busy cycles.
    pub busy_cycles: u64,
    /// Cycles spent in minibatch gradient syncs.
    pub sync_cycles: u64,
    /// Images completed inside the window.
    pub images_done: u64,
    /// Node throughput.
    pub images_per_sec: f64,
    /// 2D-PE lane utilization.
    pub pe_utilization: f64,
    /// SFU utilization.
    pub sfu_utilization: f64,
    /// Achieved FLOP/s across the node.
    pub achieved_flops: f64,
    /// Processing efficiency at the measured profile.
    pub gflops_per_watt: f64,
    /// Energy per image in joules.
    pub joules_per_image: f64,
}

/// Energy split of a BENCH report (joules per image, measured profile).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BenchEnergy {
    /// Compute-logic joules.
    pub compute_joules: f64,
    /// Memory joules.
    pub memory_joules: f64,
    /// Interconnect joules.
    pub interconnect_joules: f64,
}

/// One layer group's row in a BENCH report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLayer {
    /// Pipeline stage index.
    pub stage: u64,
    /// Stage name (member layers joined with `+`).
    pub name: String,
    /// Measured busy cycles over the run.
    pub busy_cycles: u64,
    /// Per-image service cycles.
    pub service_cycles: u64,
    /// FP share of the busy cycles.
    pub fp_cycles: u64,
    /// BP share of the busy cycles.
    pub bp_cycles: u64,
    /// WG share of the busy cycles.
    pub wg_cycles: u64,
    /// CompHeavy-tile share of the busy cycles.
    pub comp_heavy_cycles: u64,
    /// MemHeavy-tile share of the busy cycles.
    pub mem_heavy_cycles: u64,
    /// Grid-tier bytes per image.
    pub grid_bytes: f64,
    /// Wheel-tier bytes per image.
    pub wheel_bytes: f64,
    /// Ring-tier bytes per image.
    pub ring_bytes: f64,
    /// Analytic FLOPs per image.
    pub flops: u64,
    /// Analytic Bytes/FLOP.
    pub bytes_per_flop: f64,
    /// Roofline bound (`"compute"` / `"bandwidth"`).
    pub bound: String,
    /// Energy share in joules per image.
    pub joules_per_image: f64,
}

/// The versioned, machine-readable benchmark report serialized as
/// `BENCH_<network>.json` — a run's measured attribution plus enough
/// provenance to tell whether a diff compares like with like.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Benchmark network name.
    pub network: String,
    /// `"training"` or `"evaluation"`.
    pub kind: String,
    /// Fault-plan seed of the run (0 for the fault-free path).
    pub seed: u64,
    /// The compile's provenance fingerprint, as 16 hex digits (the
    /// trace JSON parser stores numbers as `f64`, which cannot carry a
    /// full 64-bit key).
    pub provenance: String,
    /// Node datapath precision (`"single"` / `"half"`).
    pub precision: String,
    /// Clusters on the node ring.
    pub clusters: u64,
    /// Node clock in MHz.
    pub frequency_mhz: f64,
    /// Whole-run scalars.
    pub totals: BenchTotals,
    /// Energy split per image.
    pub energy: BenchEnergy,
    /// Stage-occupancy percentiles (cycles per stage visit).
    pub occupancy: OccupancyPercentiles,
    /// Compile-cache hits at report time (session-history dependent; a
    /// fresh session's report, the one the gate re-runs, reads 1 hit
    /// after 1 miss).
    pub cache_hits: u64,
    /// Compile-cache misses at report time.
    pub cache_misses: u64,
    /// Functional drill statistics, when the network functionally
    /// compiles; cycle-accurate. (v2)
    pub functional: Option<BenchFunctional>,
    /// The design point the session ran on. (v4)
    pub design: BenchDesign,
    /// Per-layer rows, pipeline order.
    pub layers: Vec<BenchLayer>,
}

impl BenchReport {
    /// Assembles a report from a run's attribution and its context.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        attr: &Attribution,
        perf: &scaledeep_sim::perf::PerfResult,
        node: &scaledeep_arch::NodeConfig,
        seed: u64,
        provenance_key: u64,
        cache: CacheStats,
        functional: Option<BenchFunctional>,
    ) -> Self {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            network: attr.network.clone(),
            kind: match attr.kind {
                RunKind::Training => "training".to_string(),
                RunKind::Evaluation => "evaluation".to_string(),
            },
            seed,
            provenance: format!("{provenance_key:016x}"),
            precision: match node.precision {
                scaledeep_arch::Precision::Single => "single".to_string(),
                scaledeep_arch::Precision::Half => "half".to_string(),
            },
            clusters: node.clusters as u64,
            frequency_mhz: node.frequency_mhz,
            totals: BenchTotals {
                window_cycles: attr.window_cycles,
                busy_cycles: attr.total_busy_cycles,
                sync_cycles: attr.sync_cycles,
                images_done: attr.images_done,
                images_per_sec: perf.images_per_sec,
                pe_utilization: perf.pe_utilization,
                sfu_utilization: perf.sfu_utilization,
                achieved_flops: perf.achieved_flops,
                gflops_per_watt: perf.gflops_per_watt,
                joules_per_image: perf.joules_per_image,
            },
            energy: BenchEnergy {
                compute_joules: attr.energy_per_image.compute_joules,
                memory_joules: attr.energy_per_image.memory_joules,
                interconnect_joules: attr.energy_per_image.interconnect_joules,
            },
            occupancy: attr.occupancy,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            functional,
            design: BenchDesign::describe(node),
            layers: attr
                .layers
                .iter()
                .map(BenchLayer::from_attribution)
                .collect(),
        }
    }

    /// Renders the report as pretty-printed, deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = self.to_json_value().render_pretty();
        out.push('\n');
        out
    }

    fn to_json_value(&self) -> Json {
        let layers: Vec<Json> = self
            .layers
            .iter()
            .map(|l| {
                json::obj([
                    ("stage", Json::Num(l.stage as f64)),
                    ("name", Json::Str(l.name.clone())),
                    ("busy_cycles", Json::Num(l.busy_cycles as f64)),
                    ("service_cycles", Json::Num(l.service_cycles as f64)),
                    ("fp_cycles", Json::Num(l.fp_cycles as f64)),
                    ("bp_cycles", Json::Num(l.bp_cycles as f64)),
                    ("wg_cycles", Json::Num(l.wg_cycles as f64)),
                    ("comp_heavy_cycles", Json::Num(l.comp_heavy_cycles as f64)),
                    ("mem_heavy_cycles", Json::Num(l.mem_heavy_cycles as f64)),
                    ("grid_bytes", Json::Num(l.grid_bytes)),
                    ("wheel_bytes", Json::Num(l.wheel_bytes)),
                    ("ring_bytes", Json::Num(l.ring_bytes)),
                    ("flops", Json::Num(l.flops as f64)),
                    ("bytes_per_flop", Json::Num(l.bytes_per_flop)),
                    ("bound", Json::Str(l.bound.clone())),
                    ("joules_per_image", Json::Num(l.joules_per_image)),
                ])
            })
            .collect();
        json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("network", Json::Str(self.network.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("provenance", Json::Str(self.provenance.clone())),
            ("precision", Json::Str(self.precision.clone())),
            ("clusters", Json::Num(self.clusters as f64)),
            ("frequency_mhz", Json::Num(self.frequency_mhz)),
            (
                "totals",
                json::obj([
                    ("window_cycles", Json::Num(self.totals.window_cycles as f64)),
                    ("busy_cycles", Json::Num(self.totals.busy_cycles as f64)),
                    ("sync_cycles", Json::Num(self.totals.sync_cycles as f64)),
                    ("images_done", Json::Num(self.totals.images_done as f64)),
                    ("images_per_sec", Json::Num(self.totals.images_per_sec)),
                    ("pe_utilization", Json::Num(self.totals.pe_utilization)),
                    ("sfu_utilization", Json::Num(self.totals.sfu_utilization)),
                    ("achieved_flops", Json::Num(self.totals.achieved_flops)),
                    ("gflops_per_watt", Json::Num(self.totals.gflops_per_watt)),
                    ("joules_per_image", Json::Num(self.totals.joules_per_image)),
                ]),
            ),
            (
                "energy",
                json::obj([
                    ("compute_joules", Json::Num(self.energy.compute_joules)),
                    ("memory_joules", Json::Num(self.energy.memory_joules)),
                    (
                        "interconnect_joules",
                        Json::Num(self.energy.interconnect_joules),
                    ),
                ]),
            ),
            (
                "occupancy",
                json::obj([
                    ("p50", Json::Num(self.occupancy.p50)),
                    ("p95", Json::Num(self.occupancy.p95)),
                    ("p99", Json::Num(self.occupancy.p99)),
                ]),
            ),
            (
                "cache",
                json::obj([
                    ("hits", Json::Num(self.cache_hits as f64)),
                    ("misses", Json::Num(self.cache_misses as f64)),
                ]),
            ),
            (
                "functional",
                self.functional.map_or(Json::Null, |f| {
                    json::obj([
                        ("cycles", Json::Num(f.cycles as f64)),
                        ("instructions", Json::Num(f.instructions as f64)),
                        ("stalls", Json::Num(f.stalls as f64)),
                    ])
                }),
            ),
            (
                "design",
                json::obj([
                    ("fingerprint", Json::Str(self.design.fingerprint.clone())),
                    ("point", self.design.point.to_json()),
                ]),
            ),
            ("layers", Json::Arr(layers)),
        ])
    }

    /// Parses and validates a BENCH JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on malformed JSON,
    /// a schema-version mismatch, or any missing/mistyped field.
    pub fn from_json(text: &str) -> std::result::Result<Self, String> {
        let v = json::parse(text)?;
        let version = v.count_field("schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (reader supports {BENCH_SCHEMA_VERSION})"
            ));
        }
        // A run without a functional drill writes `null`; the key itself
        // is required.
        let functional = match v.field("functional")? {
            Json::Null => None,
            f => Some(BenchFunctional {
                cycles: f.count_field("cycles")?,
                instructions: f.count_field("instructions")?,
                stalls: f.count_field("stalls")?,
            }),
        };
        let design = {
            let d = v
                .optional("design", Json::field)?
                .ok_or("missing field `design`")?;
            let fingerprint = d.str_field("fingerprint")?.to_string();
            let point = scaledeep_arch::DesignPoint::from_json(d.field("point")?)
                .map_err(|e| format!("design.point: {e}"))?;
            let derived = format!("{:016x}", point.fingerprint());
            if derived != fingerprint {
                return Err(format!(
                    "design fingerprint `{fingerprint}` does not match \
                     the design point (`{derived}`)"
                ));
            }
            BenchDesign { fingerprint, point }
        };
        let totals_v = v.field("totals")?;
        let energy_v = v.field("energy")?;
        let occ_v = v.field("occupancy")?;
        let cache_v = v.field("cache")?;
        let layers_v = v.arr_field("layers")?;
        let mut layers = Vec::with_capacity(layers_v.len());
        for (i, l) in layers_v.iter().enumerate() {
            layers.push(BenchLayer::from_json(l).map_err(|e| format!("layers[{i}]: {e}"))?);
        }
        let provenance = v.str_field("provenance")?.to_string();
        if provenance.len() != 16 || !provenance.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "provenance `{provenance}` is not a 16-hex-digit fingerprint"
            ));
        }
        let kind = v.str_field("kind")?.to_string();
        if kind != "training" && kind != "evaluation" {
            return Err(format!("unknown run kind `{kind}`"));
        }
        let bench = BenchReport {
            schema_version: version,
            network: v.str_field("network")?.to_string(),
            kind,
            seed: v.count_field("seed")?,
            provenance,
            precision: v.str_field("precision")?.to_string(),
            clusters: v.count_field("clusters")?,
            frequency_mhz: v.num_field("frequency_mhz")?,
            totals: BenchTotals {
                window_cycles: totals_v.count_field("window_cycles")?,
                busy_cycles: totals_v.count_field("busy_cycles")?,
                sync_cycles: totals_v.count_field("sync_cycles")?,
                images_done: totals_v.count_field("images_done")?,
                images_per_sec: totals_v.num_field("images_per_sec")?,
                pe_utilization: totals_v.num_field("pe_utilization")?,
                sfu_utilization: totals_v.num_field("sfu_utilization")?,
                achieved_flops: totals_v.num_field("achieved_flops")?,
                gflops_per_watt: totals_v.num_field("gflops_per_watt")?,
                joules_per_image: totals_v.num_field("joules_per_image")?,
            },
            energy: BenchEnergy {
                compute_joules: energy_v.num_field("compute_joules")?,
                memory_joules: energy_v.num_field("memory_joules")?,
                interconnect_joules: energy_v.num_field("interconnect_joules")?,
            },
            occupancy: OccupancyPercentiles {
                p50: occ_v.num_field("p50")?,
                p95: occ_v.num_field("p95")?,
                p99: occ_v.num_field("p99")?,
            },
            cache_hits: cache_v.count_field("hits")?,
            cache_misses: cache_v.count_field("misses")?,
            functional,
            design,
            layers,
        };
        let layer_sum: u64 = bench.layers.iter().map(|l| l.busy_cycles).sum();
        if layer_sum != bench.totals.busy_cycles {
            return Err(format!(
                "per-layer busy cycles sum to {layer_sum}, totals claim {}",
                bench.totals.busy_cycles
            ));
        }
        Ok(bench)
    }
}

impl BenchLayer {
    fn from_attribution(l: &LayerAttribution) -> Self {
        let LayerAttribution {
            stage,
            name,
            busy_cycles,
            service_cycles,
            passes: PassSplit { fp, bp, wg },
            tile_classes:
                TileClassSplit {
                    comp_heavy,
                    mem_heavy,
                },
            tier_bytes: TierBytes { grid, wheel, ring },
            flops,
            bytes_per_flop,
            bound,
            joules_per_image,
        } = l;
        BenchLayer {
            stage: *stage as u64,
            name: name.clone(),
            busy_cycles: *busy_cycles,
            service_cycles: *service_cycles,
            fp_cycles: *fp,
            bp_cycles: *bp,
            wg_cycles: *wg,
            comp_heavy_cycles: *comp_heavy,
            mem_heavy_cycles: *mem_heavy,
            grid_bytes: *grid,
            wheel_bytes: *wheel,
            ring_bytes: *ring,
            flops: *flops,
            bytes_per_flop: *bytes_per_flop,
            bound: bound.name().to_string(),
            joules_per_image: *joules_per_image,
        }
    }

    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        let bound = v.str_field("bound")?.to_string();
        if RooflineBound::parse(&bound).is_none() {
            return Err(format!("unknown roofline bound `{bound}`"));
        }
        let layer = BenchLayer {
            stage: v.count_field("stage")?,
            name: v.str_field("name")?.to_string(),
            busy_cycles: v.count_field("busy_cycles")?,
            service_cycles: v.count_field("service_cycles")?,
            fp_cycles: v.count_field("fp_cycles")?,
            bp_cycles: v.count_field("bp_cycles")?,
            wg_cycles: v.count_field("wg_cycles")?,
            comp_heavy_cycles: v.count_field("comp_heavy_cycles")?,
            mem_heavy_cycles: v.count_field("mem_heavy_cycles")?,
            grid_bytes: v.num_field("grid_bytes")?,
            wheel_bytes: v.num_field("wheel_bytes")?,
            ring_bytes: v.num_field("ring_bytes")?,
            flops: v.count_field("flops")?,
            bytes_per_flop: v.num_field("bytes_per_flop")?,
            bound,
            joules_per_image: v.num_field("joules_per_image")?,
        };
        if layer.fp_cycles + layer.bp_cycles + layer.wg_cycles != layer.busy_cycles {
            return Err(format!(
                "`{}`: pass cycles do not sum to busy_cycles",
                layer.name
            ));
        }
        if layer.comp_heavy_cycles + layer.mem_heavy_cycles != layer.busy_cycles {
            return Err(format!(
                "`{}`: tile-class cycles do not sum to busy_cycles",
                layer.name
            ));
        }
        Ok(layer)
    }
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
    fn bench_json_round_trips() {
        let report = sample_report();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("own output parses");
        assert_eq!(back, report);
        // Serialization is deterministic.
        assert_eq!(back.to_json(), text);

        // A present functional drill round-trips too (the None case above
        // exercises the `null` encoding).
        let mut with_drill = report;
        with_drill.functional = Some(BenchFunctional {
            cycles: 12345,
            instructions: 6789,
            stalls: 42,
        });
        let back = BenchReport::from_json(&with_drill.to_json()).expect("drill parses");
        assert_eq!(back, with_drill);
    }

    #[test]
    fn bench_layers_sum_to_total_busy() {
        let report = sample_report();
        let sum: u64 = report.layers.iter().map(|l| l.busy_cycles).sum();
        assert_eq!(sum, report.totals.busy_cycles);
        assert!(report.totals.busy_cycles > 0);
        assert_eq!(report.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(report.provenance.len(), 16);
    }

    #[test]
    fn reader_rejects_future_schema_and_broken_sums() {
        let report = sample_report();
        let future = report
            .to_json()
            .replacen("\"schema_version\": 6", "\"schema_version\": 7", 1);
        let err = BenchReport::from_json(&future).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let v5 = report
            .to_json()
            .replacen("\"schema_version\": 6", "\"schema_version\": 5", 1);
        let err = BenchReport::from_json(&v5).unwrap_err();
        assert!(err.contains("schema_version 5"), "{err}");

        // Counts must be exact non-negative integers, not truncated or
        // saturated floats.
        let text = report.to_json();
        let version = with_field(&text, &["schema_version"], Json::Num(5.5));
        let err = BenchReport::from_json(&version).unwrap_err();
        assert!(err.contains("`schema_version`"), "{err}");
        let window = with_field(&text, &["totals", "window_cycles"], Json::Num(-1.0));
        let err = BenchReport::from_json(&window).unwrap_err();
        assert!(err.contains("`window_cycles`"), "{err}");

        let mut broken = report.clone();
        broken.layers[0].busy_cycles += 1;
        broken.layers[0].fp_cycles += 1;
        broken.layers[0].comp_heavy_cycles += 1;
        let err = BenchReport::from_json(&broken.to_json()).unwrap_err();
        assert!(err.contains("sum"), "{err}");

        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}").is_err());
    }

    #[test]
    fn reader_rejects_a_null_design() {
        let text = with_field(&sample_report().to_json(), &["design"], Json::Null);
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("`design`"), "{err}");
    }
}
