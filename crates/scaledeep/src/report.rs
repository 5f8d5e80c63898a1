//! Plain-text table rendering shared by the experiment drivers
//! (the `repro` binary prints these; EXPERIMENTS.md embeds them), plus
//! the versioned `BENCH_<network>.json` benchmark report: the
//! machine-readable serialization of a run's measured attribution that
//! every future performance PR is diffed against.

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
pub const BENCH_SCHEMA_VERSION: u64 = 5;

/// Cycle-accurate statistics of the functional drill — one training
/// iteration executed on the selected tier. Both execution tiers are
/// bit-identical by construction, so these fields diff at 0% tolerance
/// across tiers; `None` when the functional target cannot express the
/// network.
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
    /// Compile-cache hits at report time (session-history dependent;
    /// excluded from regression checks).
    pub cache_hits: u64,
    /// Compile-cache misses at report time.
    pub cache_misses: u64,
    /// The functional execution tier the report's session selects
    /// (`"interpreter"` / `"compiled"`). Informational: tiers are
    /// bit-identical, so it never fails a check. (v2)
    pub tier: String,
    /// Functional drill statistics, when the network functionally
    /// compiles; cycle-accurate and checked. (v2)
    pub functional: Option<BenchFunctional>,
    /// The design point the session ran on; `None` only for pre-v4
    /// documents. Its fingerprint is an identity field in checks. (v4)
    pub design: Option<BenchDesign>,
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
        tier: &str,
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
            tier: tier.to_string(),
            functional,
            design: Some(BenchDesign::describe(node)),
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
            ("tier", Json::Str(self.tier.clone())),
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
                self.design.as_ref().map_or(Json::Null, |d| {
                    json::obj([
                        ("fingerprint", Json::Str(d.fingerprint.clone())),
                        ("point", d.point.to_json()),
                    ])
                }),
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
        let version = req_num(&v, "schema_version")? as u64;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (reader supports {BENCH_SCHEMA_VERSION})"
            ));
        }
        let functional = match v.get("functional") {
            None => return Err("missing field `functional`".to_string()),
            Some(Json::Null) => None,
            Some(f) => Some(BenchFunctional {
                cycles: req_num(f, "cycles")? as u64,
                instructions: req_num(f, "instructions")? as u64,
                stalls: req_num(f, "stalls")? as u64,
            }),
        };
        let design = match v.get("design") {
            None => return Err("missing field `design`".to_string()),
            Some(Json::Null) => None,
            Some(d) => {
                let fingerprint = req_str(d, "fingerprint")?;
                let point_v = d.get("point").ok_or("missing field `design.point`")?;
                let point = scaledeep_arch::DesignPoint::from_json(point_v)
                    .map_err(|e| format!("design.point: {e}"))?;
                let derived = format!("{:016x}", point.fingerprint());
                if derived != fingerprint {
                    return Err(format!(
                        "design fingerprint `{fingerprint}` does not match \
                         the design point (`{derived}`)"
                    ));
                }
                Some(BenchDesign { fingerprint, point })
            }
        };
        let totals_v = v.get("totals").ok_or("missing field `totals`")?;
        let energy_v = v.get("energy").ok_or("missing field `energy`")?;
        let occ_v = v.get("occupancy").ok_or("missing field `occupancy`")?;
        let cache_v = v.get("cache").ok_or("missing field `cache`")?;
        let layers_v = v
            .get("layers")
            .and_then(Json::as_arr)
            .ok_or("missing or non-array field `layers`")?;
        let mut layers = Vec::with_capacity(layers_v.len());
        for (i, l) in layers_v.iter().enumerate() {
            layers.push(BenchLayer::from_json(l).map_err(|e| format!("layers[{i}]: {e}"))?);
        }
        let provenance = req_str(&v, "provenance")?;
        if provenance.len() != 16 || !provenance.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "provenance `{provenance}` is not a 16-hex-digit fingerprint"
            ));
        }
        let kind = req_str(&v, "kind")?;
        if kind != "training" && kind != "evaluation" {
            return Err(format!("unknown run kind `{kind}`"));
        }
        let bench = BenchReport {
            schema_version: version,
            network: req_str(&v, "network")?,
            kind,
            seed: req_num(&v, "seed")? as u64,
            provenance,
            precision: req_str(&v, "precision")?,
            clusters: req_num(&v, "clusters")? as u64,
            frequency_mhz: req_num(&v, "frequency_mhz")?,
            totals: BenchTotals {
                window_cycles: req_num(totals_v, "window_cycles")? as u64,
                busy_cycles: req_num(totals_v, "busy_cycles")? as u64,
                sync_cycles: req_num(totals_v, "sync_cycles")? as u64,
                images_done: req_num(totals_v, "images_done")? as u64,
                images_per_sec: req_num(totals_v, "images_per_sec")?,
                pe_utilization: req_num(totals_v, "pe_utilization")?,
                sfu_utilization: req_num(totals_v, "sfu_utilization")?,
                achieved_flops: req_num(totals_v, "achieved_flops")?,
                gflops_per_watt: req_num(totals_v, "gflops_per_watt")?,
                joules_per_image: req_num(totals_v, "joules_per_image")?,
            },
            energy: BenchEnergy {
                compute_joules: req_num(energy_v, "compute_joules")?,
                memory_joules: req_num(energy_v, "memory_joules")?,
                interconnect_joules: req_num(energy_v, "interconnect_joules")?,
            },
            occupancy: OccupancyPercentiles {
                p50: req_num(occ_v, "p50")?,
                p95: req_num(occ_v, "p95")?,
                p99: req_num(occ_v, "p99")?,
            },
            cache_hits: req_num(cache_v, "hits")? as u64,
            cache_misses: req_num(cache_v, "misses")? as u64,
            tier: req_str(&v, "tier")?,
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

    /// Compares `self` (a fresh run) against `baseline` with a per-metric
    /// relative tolerance, returning one message per regression (empty
    /// when the run is within tolerance). Identity fields (network, kind,
    /// schema) must match exactly; cache statistics and the provenance
    /// fingerprint are informational and never fail the check.
    pub fn check_against(&self, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
        let mut fails = Vec::new();
        if self.schema_version != baseline.schema_version {
            fails.push(format!(
                "schema_version {} vs baseline {}",
                self.schema_version, baseline.schema_version
            ));
            return fails;
        }
        for (what, a, b) in [
            ("network", &self.network, &baseline.network),
            ("kind", &self.kind, &baseline.kind),
            ("precision", &self.precision, &baseline.precision),
        ] {
            if a != b {
                fails.push(format!("{what} `{a}` vs baseline `{b}`"));
            }
        }
        // The design fingerprint is identity, not measurement: two runs on
        // different knobs are not comparable. A pre-v4 baseline without
        // the group constrains nothing.
        if let (Some(got), Some(want)) = (&self.design, &baseline.design) {
            if got.fingerprint != want.fingerprint {
                fails.push(format!(
                    "design fingerprint {} vs baseline {}",
                    got.fingerprint, want.fingerprint
                ));
            }
        }
        if !fails.is_empty() {
            return fails;
        }
        let t = (&self.totals, &baseline.totals);
        let scalars = [
            (
                "totals.window_cycles",
                t.0.window_cycles as f64,
                t.1.window_cycles as f64,
            ),
            (
                "totals.busy_cycles",
                t.0.busy_cycles as f64,
                t.1.busy_cycles as f64,
            ),
            (
                "totals.sync_cycles",
                t.0.sync_cycles as f64,
                t.1.sync_cycles as f64,
            ),
            (
                "totals.images_per_sec",
                t.0.images_per_sec,
                t.1.images_per_sec,
            ),
            (
                "totals.pe_utilization",
                t.0.pe_utilization,
                t.1.pe_utilization,
            ),
            (
                "totals.sfu_utilization",
                t.0.sfu_utilization,
                t.1.sfu_utilization,
            ),
            (
                "totals.achieved_flops",
                t.0.achieved_flops,
                t.1.achieved_flops,
            ),
            (
                "totals.gflops_per_watt",
                t.0.gflops_per_watt,
                t.1.gflops_per_watt,
            ),
            (
                "totals.joules_per_image",
                t.0.joules_per_image,
                t.1.joules_per_image,
            ),
            (
                "energy.compute_joules",
                self.energy.compute_joules,
                baseline.energy.compute_joules,
            ),
            (
                "energy.memory_joules",
                self.energy.memory_joules,
                baseline.energy.memory_joules,
            ),
            (
                "energy.interconnect_joules",
                self.energy.interconnect_joules,
                baseline.energy.interconnect_joules,
            ),
            ("occupancy.p50", self.occupancy.p50, baseline.occupancy.p50),
            ("occupancy.p95", self.occupancy.p95, baseline.occupancy.p95),
            ("occupancy.p99", self.occupancy.p99, baseline.occupancy.p99),
        ];
        for (what, got, want) in scalars {
            check_num(&mut fails, tolerance, what, got, want);
        }
        // Functional drill statistics are cycle-accurate and diff exactly
        // across execution tiers; the tier field is informational. A baseline without a drill constrains nothing.
        if let (Some(got), Some(want)) = (&self.functional, &baseline.functional) {
            for (what, g, w) in [
                ("functional.cycles", got.cycles, want.cycles),
                (
                    "functional.instructions",
                    got.instructions,
                    want.instructions,
                ),
                ("functional.stalls", got.stalls, want.stalls),
            ] {
                check_num(&mut fails, tolerance, what, g as f64, w as f64);
            }
        } else if baseline.functional.is_some() {
            fails.push("functional drill missing from the run".to_string());
        }
        for want in &baseline.layers {
            match self.layers.iter().find(|l| l.name == want.name) {
                None => fails.push(format!("layer `{}` missing from the run", want.name)),
                Some(got) => {
                    check_num(
                        &mut fails,
                        tolerance,
                        &format!("layer `{}` busy_cycles", want.name),
                        got.busy_cycles as f64,
                        want.busy_cycles as f64,
                    );
                    check_num(
                        &mut fails,
                        tolerance,
                        &format!("layer `{}` service_cycles", want.name),
                        got.service_cycles as f64,
                        want.service_cycles as f64,
                    );
                    if got.bound != want.bound {
                        fails.push(format!(
                            "layer `{}` roofline bound `{}` vs baseline `{}`",
                            want.name, got.bound, want.bound
                        ));
                    }
                }
            }
        }
        for got in &self.layers {
            if !baseline.layers.iter().any(|l| l.name == got.name) {
                fails.push(format!("layer `{}` absent from the baseline", got.name));
            }
        }
        fails
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
        let bound = req_str(v, "bound")?;
        if RooflineBound::parse(&bound).is_none() {
            return Err(format!("unknown roofline bound `{bound}`"));
        }
        let layer = BenchLayer {
            stage: req_num(v, "stage")? as u64,
            name: req_str(v, "name")?,
            busy_cycles: req_num(v, "busy_cycles")? as u64,
            service_cycles: req_num(v, "service_cycles")? as u64,
            fp_cycles: req_num(v, "fp_cycles")? as u64,
            bp_cycles: req_num(v, "bp_cycles")? as u64,
            wg_cycles: req_num(v, "wg_cycles")? as u64,
            comp_heavy_cycles: req_num(v, "comp_heavy_cycles")? as u64,
            mem_heavy_cycles: req_num(v, "mem_heavy_cycles")? as u64,
            grid_bytes: req_num(v, "grid_bytes")?,
            wheel_bytes: req_num(v, "wheel_bytes")?,
            ring_bytes: req_num(v, "ring_bytes")?,
            flops: req_num(v, "flops")? as u64,
            bytes_per_flop: req_num(v, "bytes_per_flop")?,
            bound,
            joules_per_image: req_num(v, "joules_per_image")?,
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

/// Appends a regression message when `got` strays from `want` by more
/// than the relative `tolerance`.
fn check_num(fails: &mut Vec<String>, tolerance: f64, what: &str, got: f64, want: f64) {
    if rel_delta(got, want) > tolerance {
        fails.push(format!(
            "{what}: {got} vs baseline {want} ({:+.1}%, tolerance {:.1}%)",
            100.0 * (got - want) / want.abs().max(f64::MIN_POSITIVE),
            100.0 * tolerance
        ));
    }
}

/// Relative delta of `got` against `want` (absolute when `want` is 0).
fn rel_delta(got: f64, want: f64) -> f64 {
    let d = (got - want).abs();
    if want.abs() < f64::MIN_POSITIVE {
        d
    } else {
        d / want.abs()
    }
}

fn req_num(v: &Json, key: &str) -> std::result::Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn req_str(v: &Json, key: &str) -> std::result::Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
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
            .replacen("\"schema_version\": 5", "\"schema_version\": 6", 1);
        let err = BenchReport::from_json(&future).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let v4 = report
            .to_json()
            .replacen("\"schema_version\": 5", "\"schema_version\": 4", 1);
        let err = BenchReport::from_json(&v4).unwrap_err();
        assert!(err.contains("schema_version 4"), "{err}");

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
    fn check_compares_designs_only_when_the_baseline_names_one() {
        let report = sample_report();
        // A baseline without the group constrains nothing, but one with
        // different knobs fails the identity check.
        let mut no_design = report.clone();
        no_design.design = None;
        assert!(!report
            .check_against(&no_design, 0.5)
            .iter()
            .any(|f| f.contains("design fingerprint")));
        let mut other_knobs = report.clone();
        other_knobs.design = Some(BenchDesign::describe(
            &scaledeep_arch::presets::half_precision(),
        ));
        assert!(other_knobs
            .check_against(&report, 0.5)
            .iter()
            .any(|f| f.contains("design fingerprint")));
    }

    #[test]
    fn check_flags_functional_drift_exactly() {
        let mut report = sample_report();
        // Full-scale AlexNet has no functional compile; graft drill stats
        // on so the comparison path is exercised either way.
        report.functional = Some(BenchFunctional {
            cycles: 1000,
            instructions: 900,
            stalls: 10,
        });
        let mut drift = report.clone();
        drift.functional.as_mut().unwrap().cycles += 1;
        let fails = drift.check_against(&report, 0.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("functional.cycles"), "{fails:?}");

        let mut none = report.clone();
        none.functional = None;
        let fails = none.check_against(&report, 0.0);
        assert!(
            fails.iter().any(|f| f.contains("functional drill missing")),
            "{fails:?}"
        );
        // The reverse direction constrains nothing.
        assert!(report.check_against(&none, 0.0).is_empty());
    }

    #[test]
    fn check_passes_self_and_flags_perturbation() {
        let report = sample_report();
        assert!(report.check_against(&report, 0.0).is_empty());

        let mut slow = report.clone();
        slow.totals.images_per_sec *= 0.8;
        let fails = slow.check_against(&report, 0.05);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("images_per_sec"), "{fails:?}");
        // A generous tolerance absorbs the same drift.
        assert!(slow.check_against(&report, 0.25).is_empty());
    }

    #[test]
    fn check_flags_layer_set_changes_and_identity_mismatch() {
        let report = sample_report();
        let mut fewer = report.clone();
        let dropped = fewer.layers.pop().expect("report has layers");
        let fails = fewer.check_against(&report, 0.5);
        assert!(fails.iter().any(|f| f.contains(&dropped.name)), "{fails:?}");

        let mut other = report.clone();
        other.network = "vgg".into();
        let fails = other.check_against(&report, 0.5);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("network"));
    }
}
