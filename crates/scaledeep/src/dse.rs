//! Design-space exploration driver: expands a [`ParamSpace`] into
//! candidate design points, runs every feasible point unobserved on an
//! independent [`Session`], and reports the sample plus its Pareto
//! frontier over the paper's three headline objectives — images/second,
//! GFLOPs/W, and joules/image (§6's sensitivity studies, run as one sweep
//! instead of one preset at a time).
//!
//! A point reads only the run's typed record
//! ([`PerfResult`](scaledeep_sim::perf::PerfResult)): its busy and sync
//! cycles are the record's own totals, and its energy split is the
//! record's
//! [`energy_per_image`](scaledeep_sim::perf::PerfResult::energy_per_image),
//! which the per-layer [`Attribution`](crate::Attribution) tree
//! apportions too. The tests check that every point equals the record of
//! a session compile and run of the same design point.
//!
//! Determinism is the contract: every metric in a [`DseReport`] comes
//! from the deterministic performance model, never from host wall-clock,
//! and the worker pool writes results into per-candidate slots so the
//! document is byte-identical across runs and worker counts. The report
//! embeds its own inputs (base point, axes, expansion mode), so a
//! committed `BENCH_dse-<suite>.json` can be re-run and byte-compared by
//! `repro dse --check` with no side channel.
//!
//! Each candidate maps and prices its own point and nothing more, as the
//! paper's compiler maps each design point once (§4, Figure 13): the
//! mapping phases of the pipeline ([`Compiler::map`]), then one
//! unobserved performance run under the hub session's options. No
//! candidate touches the hub's compile cache, generates functional
//! programs or keeps an artifact; two draws of the same point simply map
//! twice.

use crate::pool;
use crate::session::Session;
use scaledeep_arch::{Candidate, DesignPoint, Knob, KnobValue, ParamSpace};
use scaledeep_compiler::Compiler;
use scaledeep_dnn::Network;
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::perf::{PerfOptions, PerfSim, RunKind};
use scaledeep_trace::json::{self, Json};
use scaledeep_trace::Tracer;

/// Version stamped into every DSE JSON document. Bump on any field
/// change; [`DseReport::from_json`] rejects versions it does not know.
pub const DSE_SCHEMA_VERSION: u64 = 1;

/// The most candidates one sweep may expand to: far above every committed
/// and benchmarked sweep (8 points in `BENCH_dse-smoke.json`, 32 in
/// perfbench's dse-sweep), far below what would exhaust memory. The DSE
/// reader and `repro dse` both refuse a larger sweep through
/// [`check_candidates`].
pub const MAX_CANDIDATES: u64 = 1 << 16;

/// Checks that expanding `space` per `expansion` stays within
/// [`MAX_CANDIDATES`].
///
/// # Errors
///
/// Names the sweep's candidate count and the limit.
pub fn check_candidates(space: &ParamSpace, expansion: Expansion) -> Result<(), String> {
    let count = match expansion {
        Expansion::Grid => space.grid_len().and_then(|n| u64::try_from(n).ok()),
        Expansion::Sample { n, .. } => Some(n),
    };
    match count {
        Some(n) if n <= MAX_CANDIDATES => Ok(()),
        _ => Err(format!(
            "the sweep expands to {} candidates, more than the limit of {MAX_CANDIDATES}",
            count.map_or("2^64 or more".to_string(), |n| n.to_string())
        )),
    }
}

/// How a [`ParamSpace`] is expanded into candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expansion {
    /// The full cartesian grid, last axis fastest.
    Grid,
    /// `n` seeded xorshift64* draws ([`ParamSpace::sample`]).
    Sample {
        /// Number of candidates to draw.
        n: u64,
        /// Generator seed (same seed, same draws).
        seed: u64,
    },
}

/// Configuration of one DSE run.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Suite name stamped into the report (`BENCH_dse-<suite>.json`).
    pub suite: String,
    /// Training or evaluation.
    pub kind: RunKind,
    /// Grid or seeded sample.
    pub expansion: Expansion,
    /// Worker threads, the calling thread included (0 = available
    /// cores): up to `workers - 1` persistent pool helpers join the
    /// caller, so 1 runs the sweep on the caller alone. Never affects
    /// results — only wall-clock.
    pub workers: usize,
    /// Ignored: the node model runs single-threaded and nothing reads
    /// this field. It stays only so existing struct literals keep
    /// compiling, and will be removed in the next benchmark change.
    pub shards: usize,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            suite: "dse".to_string(),
            kind: RunKind::Training,
            expansion: Expansion::Grid,
            workers: 0,
            shards: 1,
        }
    }
}

/// One evaluated (feasible) design point: its identity, its derived
/// architectural quantities, and the measured metrics of its run.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Candidate label (`knob=value` pairs, or `base`).
    pub label: String,
    /// Structural design fingerprint ([`DesignPoint::fingerprint`]), 16
    /// hex digits: equal fingerprints are the same design point.
    pub fingerprint: String,
    /// Datapath precision (`"single"` / `"half"`).
    pub precision: String,
    /// Total processing tiles of the point.
    pub total_tiles: u64,
    /// Peak FLOP/s derived from the point.
    pub peak_flops: f64,
    /// Peak node power in watts at the point's precision.
    pub peak_power_watts: f64,
    /// Measured node throughput.
    pub images_per_sec: f64,
    /// Measured 2D-PE lane utilization.
    pub pe_utilization: f64,
    /// Measured SFU utilization.
    pub sfu_utilization: f64,
    /// Measured achieved FLOP/s.
    pub achieved_flops: f64,
    /// Measured processing efficiency (objective 2).
    pub gflops_per_watt: f64,
    /// Measured energy per image (objective 3).
    pub joules_per_image: f64,
    /// Sum of every stage's busy cycles in the run record (the BENCH
    /// document's `totals.busy_cycles`).
    pub busy_cycles: u64,
    /// The run record's minibatch gradient-sync cycles.
    pub sync_cycles: u64,
    /// Compute-logic joules per image from the record's
    /// [`energy_per_image`](scaledeep_sim::perf::PerfResult::energy_per_image).
    pub compute_joules: f64,
    /// Memory joules per image, as [`DsePoint::compute_joules`].
    pub memory_joules: f64,
    /// Interconnect joules per image, as [`DsePoint::compute_joules`].
    pub interconnect_joules: f64,
}

/// A candidate the sweep could not evaluate: the knob combination failed
/// validation, or the point validated but could not map the network.
/// Infeasible corners are data, not errors — the sweep reports them and
/// keeps going.
#[derive(Debug, Clone, PartialEq)]
pub struct DseInfeasible {
    /// Candidate label.
    pub label: String,
    /// Why it could not run.
    pub error: String,
}

/// The deterministic result of one DSE run: the inputs (base point,
/// axes, expansion), every evaluated point in candidate order, the
/// infeasible candidates, and the Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct DseReport {
    /// Schema version ([`DSE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Suite name.
    pub suite: String,
    /// Benchmark network name.
    pub network: String,
    /// Training or evaluation.
    pub kind: RunKind,
    /// How the space was expanded.
    pub expansion: Expansion,
    /// The base design point the axes perturb.
    pub base: DesignPoint,
    /// The swept axes, declaration order.
    pub axes: Vec<(Knob, Vec<KnobValue>)>,
    /// Distinct design fingerprints among the evaluated points: the
    /// number of distinct design points the sweep ran (duplicate sample
    /// draws count once).
    pub unique_compiles: u64,
    /// Evaluated points, candidate order.
    pub points: Vec<DsePoint>,
    /// Candidates that could not run, candidate order.
    pub infeasible: Vec<DseInfeasible>,
    /// Indices into [`DseReport::points`] on the Pareto frontier,
    /// ascending.
    pub frontier: Vec<u64>,
}

/// True when `a` strictly Pareto-dominates `b` over the three
/// objectives: at least as good on all of images/s (higher better),
/// GFLOPs/W (higher better), and J/image (lower better), and strictly
/// better on at least one.
pub fn dominates(a: &DsePoint, b: &DsePoint) -> bool {
    let no_worse = a.images_per_sec >= b.images_per_sec
        && a.gflops_per_watt >= b.gflops_per_watt
        && a.joules_per_image <= b.joules_per_image;
    let better = a.images_per_sec > b.images_per_sec
        || a.gflops_per_watt > b.gflops_per_watt
        || a.joules_per_image < b.joules_per_image;
    no_worse && better
}

/// Indices of the non-dominated points, ascending. Duplicated metric
/// triples never dominate each other, so ties stay on the frontier —
/// keeping the result independent of candidate order.
pub fn pareto_frontier(points: &[DsePoint]) -> Vec<u64> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other, &points[i]))
        })
        .map(|i| i as u64)
        .collect()
}

/// Evaluates one candidate: maps the network onto the point
/// ([`Compiler::map`], the pipeline's phases 1–4), prices the mapping
/// with the performance model under `opts`, unobserved, and reads the
/// point off the run record. A point whose busy or sync cycle count
/// reaches 2^53 is infeasible: a DSE document stores counts exactly only
/// below it.
fn evaluate(
    opts: &PerfOptions,
    net: &Network,
    kind: RunKind,
    candidate: &Candidate,
) -> Result<DsePoint, DseInfeasible> {
    let infeasible = |error: String| DseInfeasible {
        label: candidate.label.clone(),
        error,
    };
    let point = *candidate
        .point
        .as_ref()
        .map_err(|e| infeasible(e.to_string()))?;
    let node = point.node_config();
    // Errors read as `Session::compile` reports them.
    let mapping = Compiler::new(&node)
        .map(net)
        .map_err(|e| infeasible(crate::Error::from(e).to_string()))?;
    let perf = PerfSim::new(&node).with_options(*opts).run(
        &mapping,
        kind,
        &FaultPlan::none(),
        &mut Tracer::disabled(),
    );
    let busy = perf
        .stages
        .iter()
        .try_fold(0u64, |sum, s| sum.checked_add(s.busy_cycles));
    let busy_cycles = storable_count("busy_cycles", busy).map_err(infeasible)?;
    let sync_cycles = storable_count("sync_cycles", Some(perf.sync_cycles)).map_err(infeasible)?;
    let energy = perf.energy_per_image();
    Ok(DsePoint {
        label: candidate.label.clone(),
        fingerprint: format!("{:016x}", point.fingerprint()),
        precision: node.precision.name().to_string(),
        total_tiles: point.total_tiles() as u64,
        peak_flops: point.peak_flops(),
        peak_power_watts: point.peak_power_watts(),
        images_per_sec: perf.images_per_sec,
        pe_utilization: perf.pe_utilization,
        sfu_utilization: perf.sfu_utilization,
        achieved_flops: perf.achieved_flops,
        gflops_per_watt: perf.gflops_per_watt,
        joules_per_image: perf.joules_per_image,
        busy_cycles,
        sync_cycles,
        compute_joules: energy.compute_joules,
        memory_joules: energy.memory_joules,
        interconnect_joules: energy.interconnect_joules,
    })
}

/// A point's cycle count as a DSE document stores it: exactly, so below
/// 2^53 ([`json::exact_u64`]). `None` is a sum that overflowed `u64`.
fn storable_count(field: &str, count: Option<u64>) -> Result<u64, String> {
    match count {
        Some(n) if json::exact_u64(n as f64).is_some() => Ok(n),
        Some(n) => Err(format!(
            "`{field}` = {n} reaches 2^53: a DSE document cannot store it exactly"
        )),
        None => Err(format!("`{field}` overflows a 64-bit count")),
    }
}

/// Runs the sweep: expands `space` per `cfg.expansion`, evaluates every
/// candidate across the persistent worker pool ([`pool::map_ordered`];
/// the calling thread is one of its workers), each mapped and priced on
/// its own under `hub`'s performance options, and assembles the
/// deterministic report. The sweep reads nothing else of `hub` and leaves
/// its compile cache untouched. Worker and shard counts never change the
/// result — candidates write into per-index slots collected in candidate
/// order.
pub fn run(hub: &Session, net: &Network, space: &ParamSpace, cfg: &DseConfig) -> DseReport {
    let candidates = match cfg.expansion {
        Expansion::Grid => space.grid(),
        Expansion::Sample { n, seed } => space.sample(n as usize, seed),
    };
    // Each job owns its inputs: the network clone shares its body, so it
    // costs a reference count.
    let (opts, owned_net, kind) = (*hub.perf_options(), net.clone(), cfg.kind);
    let outcomes = pool::map_ordered(candidates, cfg.workers, move |candidate| {
        evaluate(&opts, &owned_net, kind, candidate)
    });
    let mut points = Vec::new();
    let mut infeasible = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(p) => points.push(p),
            Err(i) => infeasible.push(i),
        }
    }
    let frontier = pareto_frontier(&points);
    let unique_compiles = distinct_fingerprints(&points);
    DseReport {
        schema_version: DSE_SCHEMA_VERSION,
        suite: cfg.suite.clone(),
        network: net.name().to_string(),
        kind: cfg.kind,
        expansion: cfg.expansion,
        base: space.base(),
        axes: space.axes().to_vec(),
        unique_compiles,
        points,
        infeasible,
        frontier,
    }
}

/// Number of distinct design fingerprints among the evaluated points.
fn distinct_fingerprints(points: &[DsePoint]) -> u64 {
    let mut seen: Vec<&str> = points.iter().map(|p| p.fingerprint.as_str()).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len() as u64
}

impl DseReport {
    /// Rebuilds the parameter space this report was swept from — the
    /// re-run input of `repro dse --check`.
    pub fn space(&self) -> ParamSpace {
        let mut space = ParamSpace::new(self.base);
        for (knob, values) in &self.axes {
            space = space.axis(*knob, values.clone());
        }
        space
    }

    /// Renders the report as pretty-printed, deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = self.to_json_value().render_pretty();
        out.push('\n');
        out
    }

    fn to_json_value(&self) -> Json {
        let expansion = match self.expansion {
            Expansion::Grid => json::obj([("mode", Json::Str("grid".to_string()))]),
            Expansion::Sample { n, seed } => json::obj([
                ("mode", Json::Str("sample".to_string())),
                ("n", Json::Num(n as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        };
        let axes: Vec<Json> = self
            .axes
            .iter()
            .map(|(knob, values)| {
                json::obj([
                    ("knob", Json::Str(knob.name().to_string())),
                    (
                        "values",
                        Json::Arr(values.iter().map(knob_value_json).collect()),
                    ),
                ])
            })
            .collect();
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                json::obj([
                    ("label", Json::Str(p.label.clone())),
                    ("fingerprint", Json::Str(p.fingerprint.clone())),
                    ("precision", Json::Str(p.precision.clone())),
                    ("total_tiles", Json::Num(p.total_tiles as f64)),
                    ("peak_flops", Json::Num(p.peak_flops)),
                    ("peak_power_watts", Json::Num(p.peak_power_watts)),
                    ("images_per_sec", Json::Num(p.images_per_sec)),
                    ("pe_utilization", Json::Num(p.pe_utilization)),
                    ("sfu_utilization", Json::Num(p.sfu_utilization)),
                    ("achieved_flops", Json::Num(p.achieved_flops)),
                    ("gflops_per_watt", Json::Num(p.gflops_per_watt)),
                    ("joules_per_image", Json::Num(p.joules_per_image)),
                    ("busy_cycles", Json::Num(p.busy_cycles as f64)),
                    ("sync_cycles", Json::Num(p.sync_cycles as f64)),
                    ("compute_joules", Json::Num(p.compute_joules)),
                    ("memory_joules", Json::Num(p.memory_joules)),
                    ("interconnect_joules", Json::Num(p.interconnect_joules)),
                ])
            })
            .collect();
        let infeasible: Vec<Json> = self
            .infeasible
            .iter()
            .map(|i| {
                json::obj([
                    ("label", Json::Str(i.label.clone())),
                    ("error", Json::Str(i.error.clone())),
                ])
            })
            .collect();
        json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("suite", Json::Str(self.suite.clone())),
            ("network", Json::Str(self.network.clone())),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("expansion", expansion),
            ("base", self.base.to_json()),
            ("axes", Json::Arr(axes)),
            ("unique_compiles", Json::Num(self.unique_compiles as f64)),
            ("points", Json::Arr(points)),
            ("infeasible", Json::Arr(infeasible)),
            (
                "frontier",
                Json::Arr(self.frontier.iter().map(|&i| Json::Num(i as f64)).collect()),
            ),
        ])
    }

    /// Parses and validates a DSE JSON document. Beyond field presence,
    /// the reader recomputes the Pareto frontier and the distinct-
    /// fingerprint count from the stored points and rejects a document
    /// whose stored values disagree — a tampered or hand-edited frontier
    /// cannot pass the gate — and refuses a sweep of more than
    /// [`MAX_CANDIDATES`] candidates, which the gate would re-run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(text: &str) -> std::result::Result<Self, String> {
        let v = json::parse(text)?;
        let version = v.count_field("schema_version")?;
        if version != DSE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (reader supports {DSE_SCHEMA_VERSION})"
            ));
        }
        let kind = RunKind::parse(v.str_field("kind")?)?;
        let exp_v = v.field("expansion")?;
        let expansion = match exp_v.str_field("mode")? {
            "grid" => Expansion::Grid,
            "sample" => Expansion::Sample {
                n: exp_v.count_field("n")?,
                seed: exp_v.count_field("seed")?,
            },
            other => return Err(format!("unknown expansion mode `{other}`")),
        };
        let base = DesignPoint::from_json(v.field("base")?).map_err(|e| format!("base: {e}"))?;
        let mut space = ParamSpace::new(base);
        for (i, a) in v.arr_field("axes")?.iter().enumerate() {
            let knob = Knob::parse(a.str_field("knob").map_err(|e| format!("axes[{i}]: {e}"))?)
                .map_err(|e| format!("axes[{i}]: {e}"))?;
            let values_v = a
                .arr_field("values")
                .map_err(|e| format!("axes[{i}]: {e}"))?;
            let mut values = Vec::with_capacity(values_v.len());
            for (j, value) in values_v.iter().enumerate() {
                values.push(
                    knob_value_from_json(value)
                        .map_err(|e| format!("axes[{i}].values[{j}]: {e}"))?,
                );
            }
            space = space.axis(knob, values);
        }
        check_candidates(&space, expansion)?;
        let points_v = v.arr_field("points")?;
        let mut points = Vec::with_capacity(points_v.len());
        for (i, p) in points_v.iter().enumerate() {
            points.push(DsePoint::from_json(p).map_err(|e| format!("points[{i}]: {e}"))?);
        }
        let infeasible_v = v.arr_field("infeasible")?;
        let mut infeasible = Vec::with_capacity(infeasible_v.len());
        for (i, f) in infeasible_v.iter().enumerate() {
            let text = |key| {
                f.str_field(key)
                    .map(str::to_string)
                    .map_err(|e| format!("infeasible[{i}]: {e}"))
            };
            infeasible.push(DseInfeasible {
                label: text("label")?,
                error: text("error")?,
            });
        }
        let frontier: Vec<u64> = v
            .arr_field("frontier")?
            .iter()
            .map(|f| f.to_count("frontier"))
            .collect::<std::result::Result<_, _>>()?;
        let recomputed = pareto_frontier(&points);
        if frontier != recomputed {
            return Err(format!(
                "stored frontier {frontier:?} does not match the Pareto frontier \
                 recomputed from the points ({recomputed:?})"
            ));
        }
        let unique_compiles = v.count_field("unique_compiles")?;
        if unique_compiles != distinct_fingerprints(&points) {
            return Err(format!(
                "unique_compiles {unique_compiles} does not match the {} distinct \
                 fingerprints among the points",
                distinct_fingerprints(&points)
            ));
        }
        Ok(DseReport {
            schema_version: version,
            suite: v.str_field("suite")?.to_string(),
            network: v.str_field("network")?.to_string(),
            kind,
            expansion,
            base,
            axes: space.axes().to_vec(),
            unique_compiles,
            points,
            infeasible,
            frontier,
        })
    }
}

impl DsePoint {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        let fingerprint = v.str_field("fingerprint")?.to_string();
        if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "fingerprint `{fingerprint}` is not a 16-hex-digit fingerprint"
            ));
        }
        Ok(DsePoint {
            label: v.str_field("label")?.to_string(),
            fingerprint,
            precision: v.str_field("precision")?.to_string(),
            total_tiles: v.count_field("total_tiles")?,
            peak_flops: v.num_field("peak_flops")?,
            peak_power_watts: v.num_field("peak_power_watts")?,
            images_per_sec: v.num_field("images_per_sec")?,
            pe_utilization: v.num_field("pe_utilization")?,
            sfu_utilization: v.num_field("sfu_utilization")?,
            achieved_flops: v.num_field("achieved_flops")?,
            gflops_per_watt: v.num_field("gflops_per_watt")?,
            joules_per_image: v.num_field("joules_per_image")?,
            busy_cycles: v.count_field("busy_cycles")?,
            sync_cycles: v.count_field("sync_cycles")?,
            compute_joules: v.num_field("compute_joules")?,
            memory_joules: v.num_field("memory_joules")?,
            interconnect_joules: v.num_field("interconnect_joules")?,
        })
    }
}

/// Serializes a knob value: numbers as numbers, precisions as their
/// names — the same tokens [`KnobValue::parse`] accepts.
fn knob_value_json(value: &KnobValue) -> Json {
    match value {
        KnobValue::Num(n) => Json::Num(*n),
        KnobValue::Prec(p) => Json::Str(p.to_string()),
    }
}

/// Parses a knob value back from its JSON form.
fn knob_value_from_json(v: &Json) -> std::result::Result<KnobValue, String> {
    match v {
        Json::Num(n) => Ok(KnobValue::Num(*n)),
        Json::Str(s) => KnobValue::parse(s).map_err(|e| e.to_string()),
        other => Err(format!(
            "knob value must be a number or string, got {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::with_field;
    use proptest::prelude::*;
    use scaledeep_arch::Precision;
    use scaledeep_dnn::zoo;

    fn smoke_space() -> ParamSpace {
        ParamSpace::new(DesignPoint::figure14_sp())
            .axis(
                Knob::Clusters,
                vec![KnobValue::Num(2.0), KnobValue::Num(4.0)],
            )
            .axis(
                Knob::FrequencyMhz,
                vec![KnobValue::Num(450.0), KnobValue::Num(600.0)],
            )
    }

    fn smoke_cfg(workers: usize) -> DseConfig {
        DseConfig {
            suite: "test".to_string(),
            workers,
            ..DseConfig::default()
        }
    }

    /// The committed `BENCH_dse-smoke.json` sweep's space.
    fn committed_smoke_space() -> ParamSpace {
        smoke_space().axis(
            Knob::Precision,
            vec![
                KnobValue::Prec(Precision::Single),
                KnobValue::Prec(Precision::Half),
            ],
        )
    }

    /// Sweeps `space` per `cfg` and checks every point's cycle and
    /// energy fields against the record of a session compile and run of
    /// the same design point: [`evaluate`]'s map-and-price path must
    /// agree with [`Session::compile`] plus [`Session::run_mapped`].
    /// Returns the number of points checked.
    fn points_match_the_session_record(
        net: &Network,
        space: &ParamSpace,
        cfg: &DseConfig,
    ) -> usize {
        let hub = Session::single_precision();
        let report = run(&hub, net, space, cfg);
        let candidates = match cfg.expansion {
            Expansion::Grid => space.grid(),
            Expansion::Sample { n, seed } => space.sample(n as usize, seed),
        };
        for p in &report.points {
            let candidate = candidates
                .iter()
                .find(|c| c.label == p.label)
                .expect("every point is a candidate");
            let node = candidate.point.as_ref().expect("a point ran").node_config();
            let session = hub.retarget(node);
            let artifact = session.compile(net).expect("the point compiled once");
            let perf = session.run_mapped(&artifact, cfg.kind);
            let what = format!("{} {:?} {}", net.name(), cfg.kind, p.label);
            assert_eq!(p.busy_cycles, perf.busy_cycles(), "{what}");
            assert_eq!(p.sync_cycles, perf.sync_cycles, "{what}");
            let energy = perf.energy_per_image();
            assert_eq!(p.compute_joules, energy.compute_joules, "{what}");
            assert_eq!(p.memory_joules, energy.memory_joules, "{what}");
            assert_eq!(p.interconnect_joules, energy.interconnect_joules, "{what}");
        }
        report.points.len()
    }

    #[test]
    fn points_equal_the_session_record() {
        let checked = points_match_the_session_record(
            &zoo::alexnet(),
            &committed_smoke_space(),
            &smoke_cfg(0),
        );
        assert_eq!(checked, 8, "the smoke sweep runs every point");

        // A seeded sample over seven knobs on a deeper net, both kinds.
        let nums = |values: &[f64]| values.iter().map(|&v| KnobValue::Num(v)).collect();
        let space = committed_smoke_space()
            .axis(Knob::ConvChips, nums(&[2.0, 4.0, 6.0]))
            .axis(Knob::ConvCols, nums(&[4.0, 8.0, 12.0, 16.0]))
            .axis(
                Knob::ConvMemCapacityBytes,
                nums(&[131_072.0, 262_144.0, 524_288.0]),
            )
            .axis(Knob::RingBw, nums(&[6e9, 12e9, 24e9]));
        for kind in [RunKind::Training, RunKind::Evaluation] {
            let cfg = DseConfig {
                kind,
                expansion: Expansion::Sample { n: 32, seed: 23 },
                ..smoke_cfg(0)
            };
            let checked = points_match_the_session_record(&zoo::googlenet(), &space, &cfg);
            assert!(
                checked >= 16,
                "{kind:?}: only {checked} of 32 sampled points ran"
            );
        }
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts_and_runs() {
        let net = zoo::alexnet();
        let space = smoke_space();
        let hub = Session::single_precision();
        let one = run(&hub, &net, &space, &smoke_cfg(1)).to_json();
        for workers in [2, 4, 0] {
            let many = run(&hub, &net, &space, &smoke_cfg(workers)).to_json();
            assert_eq!(one, many, "worker count {workers} changed the document");
        }
        // A fresh hub reproduces the same bytes too.
        let cold = run(&Session::single_precision(), &net, &space, &smoke_cfg(3));
        assert_eq!(one, cold.to_json());
    }

    #[test]
    fn report_round_trips_and_rebuilds_its_space() {
        let net = zoo::alexnet();
        let space = smoke_space();
        let report = run(&Session::single_precision(), &net, &space, &smoke_cfg(0));
        assert_eq!(report.points.len(), 4);
        assert!(report.infeasible.is_empty());
        assert!(!report.frontier.is_empty());
        assert_eq!(report.unique_compiles, 4);

        let text = report.to_json();
        let back = DseReport::from_json(&text).expect("own output parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);

        // The embedded inputs rebuild the exact same sweep.
        let rebuilt = back.space();
        assert_eq!(rebuilt.base(), space.base());
        assert_eq!(rebuilt.axes(), space.axes());
        let cfg = DseConfig {
            suite: back.suite.clone(),
            kind: back.kind,
            expansion: back.expansion,
            ..smoke_cfg(0)
        };
        let rerun = run(&Session::single_precision(), &net, &rebuilt, &cfg);
        assert_eq!(rerun.to_json(), text);
    }

    #[test]
    fn point_fingerprints_are_their_candidates_design_fingerprints() {
        // A point's fingerprint is its candidate's design fingerprint,
        // which is also the node identity a session compile of that point
        // stamps into its artifact's provenance. The space is the
        // committed `BENCH_dse-smoke.json` sweep's.
        let net = zoo::alexnet();
        let space = committed_smoke_space();
        let report = run(&Session::single_precision(), &net, &space, &smoke_cfg(0));
        let candidates = space.grid();
        assert_eq!(report.points.len(), candidates.len());
        for (p, c) in report.points.iter().zip(&candidates) {
            assert_eq!(p.label, c.label);
            let point = c.point.as_ref().expect("smoke points are valid");
            assert_eq!(p.fingerprint, format!("{:016x}", point.fingerprint()));
            let artifact = Session::with_node(point.node_config())
                .compile(&net)
                .expect("the point compiles");
            let stamp = artifact.provenance().node_fingerprint;
            assert_eq!(p.fingerprint, format!("{stamp:016x}"));
        }
    }

    #[test]
    fn a_sweep_leaves_the_hub_untouched() {
        // Candidates map and price their points on their own: the hub's
        // compile cache sees no hit, no miss and no compile time.
        let hub = Session::single_precision();
        let report = run(
            &hub,
            &zoo::alexnet(),
            &committed_smoke_space(),
            &smoke_cfg(3),
        );
        assert_eq!(report.points.len(), 8);
        assert_eq!(hub.cache_stats(), crate::session::CacheStats::default());
    }

    #[test]
    fn a_sweep_prices_under_the_hubs_options() {
        // A Winograd hub sweeps Winograd: every point equals a session
        // run of its node under the same options, not the defaults.
        let opts = scaledeep_sim::perf::PerfOptions {
            winograd: true,
            ..Default::default()
        };
        let net = zoo::alexnet();
        let space = smoke_space();
        let hub = Session::single_precision().with_options(opts);
        let report = run(&hub, &net, &space, &smoke_cfg(0));
        let default = run(&Session::single_precision(), &net, &space, &smoke_cfg(0));
        assert_ne!(report.points, default.points, "Winograd changes nothing");
        for (p, c) in report.points.iter().zip(space.grid()) {
            let node = c.point.expect("smoke points are valid").node_config();
            let session = Session::with_node(node).with_options(opts);
            let perf =
                session.run_mapped(&session.compile(&net).expect("compiles"), RunKind::Training);
            assert_eq!(p.images_per_sec, perf.images_per_sec, "{}", p.label);
            assert_eq!(p.joules_per_image, perf.joules_per_image, "{}", p.label);
        }
    }

    #[test]
    fn points_past_two_to_the_53_are_infeasible_rows() {
        // `repro dse --net vgg-d --axis spoke-bw=1`: a 1 B/s spoke makes
        // the busy-cycle sum reach 2^53, which a DSE document cannot store
        // exactly. The point is an infeasible row naming the field, and
        // the document still round-trips.
        let space = ParamSpace::new(DesignPoint::figure14_sp())
            .axis(Knob::SpokeBw, vec![KnobValue::Num(1.0)]);
        let report = run(
            &Session::single_precision(),
            &zoo::vgg_d(),
            &space,
            &smoke_cfg(1),
        );
        assert!(report.points.is_empty(), "{:?}", report.points);
        assert_eq!(report.infeasible.len(), 1);
        let row = &report.infeasible[0];
        assert_eq!(row.label, "spoke-bw=1");
        assert!(
            row.error.starts_with("`busy_cycles` = ") && row.error.contains("2^53"),
            "{}",
            row.error
        );
        let back = DseReport::from_json(&report.to_json()).expect("the document parses");
        assert_eq!(back, report);
    }

    #[test]
    fn a_ten_million_column_array_point_completes() {
        // `repro dse --net alexnet --axis conv-array-cols=10000000`: every
        // conv layer scans the array's column/lane splits, which must
        // not walk all ten million candidate column counts.
        let space = ParamSpace::new(DesignPoint::figure14_sp())
            .axis(Knob::ConvArrayCols, vec![KnobValue::Num(1e7)]);
        let report = run(
            &Session::single_precision(),
            &zoo::alexnet(),
            &space,
            &smoke_cfg(1),
        );
        assert_eq!(report.points.len() + report.infeasible.len(), 1);
    }

    #[test]
    fn storable_counts_stop_below_two_to_the_53() {
        let limit = 1u64 << 53;
        assert_eq!(
            storable_count("busy_cycles", Some(limit - 1)),
            Ok(limit - 1)
        );
        let err = storable_count("sync_cycles", Some(limit)).unwrap_err();
        assert!(err.starts_with("`sync_cycles` = 9007199254740992"), "{err}");
        let err = storable_count("busy_cycles", None).unwrap_err();
        assert!(err.contains("`busy_cycles` overflows"), "{err}");
    }

    #[test]
    fn infeasible_corners_are_reported_not_fatal() {
        // clusters=64 validates but AlexNet's FC stage cannot span it;
        // a zero frequency fails validation outright. Both are data.
        let net = zoo::alexnet();
        let space = ParamSpace::new(DesignPoint::figure14_sp()).axis(
            Knob::FrequencyMhz,
            vec![KnobValue::Num(0.0), KnobValue::Num(600.0)],
        );
        let report = run(&Session::single_precision(), &net, &space, &smoke_cfg(0));
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.infeasible.len(), 1);
        assert_eq!(report.infeasible[0].label, "frequency-mhz=0");
        assert_eq!(report.frontier, vec![0]);
        // The document round-trips with the infeasible rows included.
        let back = DseReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn sampled_expansion_is_seed_deterministic_and_collapses_compiles() {
        let net = zoo::alexnet();
        let space = smoke_space();
        let cfg = DseConfig {
            expansion: Expansion::Sample { n: 6, seed: 7 },
            ..smoke_cfg(0)
        };
        let a = run(&Session::single_precision(), &net, &space, &cfg);
        let b = run(&Session::single_precision(), &net, &space, &cfg);
        assert_eq!(a.to_json(), b.to_json());
        // 6 draws from a 4-point grid must repeat at least one point.
        assert_eq!(a.points.len(), 6);
        assert!(a.unique_compiles < 6, "{} unique", a.unique_compiles);
    }

    #[test]
    fn reader_rejects_tampered_documents() {
        let net = zoo::alexnet();
        let report = run(
            &Session::single_precision(),
            &net,
            &smoke_space(),
            &smoke_cfg(0),
        );

        let mut wrong_frontier = report.clone();
        wrong_frontier.frontier = Vec::new();
        let err = DseReport::from_json(&wrong_frontier.to_json()).unwrap_err();
        assert!(err.contains("frontier"), "{err}");

        let mut wrong_compiles = report.clone();
        wrong_compiles.unique_compiles += 1;
        let err = DseReport::from_json(&wrong_compiles.to_json()).unwrap_err();
        assert!(err.contains("unique_compiles"), "{err}");

        let future = report
            .to_json()
            .replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
        let err = DseReport::from_json(&future).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");

        // Counts must be exact non-negative integers, not truncated or
        // saturated floats.
        let text = report.to_json();
        let version = with_field(&text, &["schema_version"], Json::Num(1.5));
        let err = DseReport::from_json(&version).unwrap_err();
        assert!(err.contains("`schema_version`"), "{err}");
        let busy = with_field(&text, &["points", "0", "busy_cycles"], Json::Num(-1.0));
        let err = DseReport::from_json(&busy).unwrap_err();
        assert!(
            err.contains("points[0]") && err.contains("`busy_cycles`"),
            "{err}"
        );

        assert!(DseReport::from_json("not json").is_err());
        assert!(DseReport::from_json("{}").is_err());
    }

    /// The committed smoke sweep's document.
    const SMOKE: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_dse-smoke.json"
    ));

    /// A `{"mode": "sample"}` expansion object.
    fn sample_expansion(n: f64) -> Json {
        json::obj([
            ("mode", Json::Str("sample".to_string())),
            ("n", Json::Num(n)),
            ("seed", Json::Num(0.0)),
        ])
    }

    /// `axes` repeats of a `clusters: [2, 4]` axis.
    fn cluster_axes(axes: usize) -> Json {
        let axis = json::obj([
            ("knob", Json::Str("clusters".to_string())),
            ("values", Json::Arr(vec![Json::Num(2.0), Json::Num(4.0)])),
        ]);
        Json::Arr(vec![axis; axes])
    }

    #[test]
    fn sample_over_an_empty_axis_has_no_candidates() {
        let text = with_field(SMOKE, &["axes", "0", "values"], Json::Arr(Vec::new()));
        let text = with_field(&text, &["expansion"], sample_expansion(1.0));
        let baseline = DseReport::from_json(&text).expect("an empty axis is a valid space");
        assert!(baseline.space().sample(1, 0).is_empty());
        // `dse --check` re-runs the sweep: no candidates, so the re-run
        // fails the byte gate instead of dividing by the empty axis.
        let cfg = DseConfig {
            expansion: baseline.expansion,
            ..smoke_cfg(1)
        };
        let fresh = run(
            &Session::single_precision(),
            &zoo::alexnet(),
            &baseline.space(),
            &cfg,
        );
        assert!(fresh.points.is_empty() && fresh.infeasible.is_empty());
        assert!(json::check_document(&text, &fresh.to_json()).is_err());
    }

    #[test]
    fn reader_refuses_a_sample_beyond_the_candidate_limit() {
        let at_limit = with_field(
            SMOKE,
            &["expansion"],
            sample_expansion(MAX_CANDIDATES as f64),
        );
        assert!(DseReport::from_json(&at_limit).is_ok());
        let huge = with_field(SMOKE, &["expansion"], sample_expansion(1e15));
        let err = DseReport::from_json(&huge).unwrap_err();
        assert!(err.contains("1000000000000000 candidates"), "{err}");
    }

    #[test]
    fn reader_refuses_a_grid_beyond_the_candidate_limit() {
        let err =
            DseReport::from_json(&with_field(SMOKE, &["axes"], cluster_axes(40))).unwrap_err();
        assert!(err.contains("1099511627776 candidates"), "{err}");
        // 2^70 overflows the checked product itself.
        let err =
            DseReport::from_json(&with_field(SMOKE, &["axes"], cluster_axes(70))).unwrap_err();
        assert!(err.contains("2^64 or more candidates"), "{err}");
    }

    #[test]
    fn cli_sample_beyond_the_candidate_limit_is_refused() {
        // `repro dse --sample 1000000000000000 --axis clusters=2,4`.
        let space = ParamSpace::new(DesignPoint::figure14_sp()).axis(
            Knob::Clusters,
            vec![KnobValue::Num(2.0), KnobValue::Num(4.0)],
        );
        let huge = Expansion::Sample {
            n: 1_000_000_000_000_000,
            seed: 0,
        };
        let err = check_candidates(&space, huge).unwrap_err();
        assert!(err.contains(&format!("limit of {MAX_CANDIDATES}")), "{err}");
        assert_eq!(check_candidates(&space, Expansion::Grid), Ok(()));
    }

    #[test]
    fn check_document_names_the_leaf_path() {
        let report = run(
            &Session::single_precision(),
            &zoo::alexnet(),
            &smoke_space(),
            &smoke_cfg(0),
        );
        let text = report.to_json();
        assert_eq!(json::check_document(&text, &text), Ok(()));
        let mut drifted = report;
        drifted.points[2].images_per_sec += 1.0;
        let diff = json::check_document(&text, &drifted.to_json()).unwrap_err();
        assert!(diff.contains("$.points[2].images_per_sec"), "{diff}");
    }

    /// Deterministic metric triples from a seed (proptest drives only
    /// the seed, matching the workspace's shrink-over-structure idiom).
    fn synthetic_points(seed: u64, n: usize) -> Vec<DsePoint> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Small integer grids force plenty of ties and duplicates.
            (state % 5) as f64
        };
        (0..n)
            .map(|i| DsePoint {
                label: format!("p{i}"),
                fingerprint: format!("{i:016x}"),
                precision: "single".to_string(),
                total_tiles: 1,
                peak_flops: 1.0,
                peak_power_watts: 1.0,
                images_per_sec: next(),
                pe_utilization: 0.5,
                sfu_utilization: 0.5,
                achieved_flops: 1.0,
                gflops_per_watt: next(),
                joules_per_image: next(),
                busy_cycles: 1,
                sync_cycles: 0,
                compute_joules: 0.0,
                memory_joules: 0.0,
                interconnect_joules: 0.0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The frontier is sound and complete: non-empty whenever any
        /// point exists, no member is dominated, and every non-member is
        /// dominated by some member.
        #[test]
        fn frontier_is_dominance_checked(seed in any::<u64>(), n in 1usize..24) {
            let points = synthetic_points(seed, n);
            let frontier = pareto_frontier(&points);
            prop_assert!(!frontier.is_empty());
            prop_assert!(frontier.windows(2).all(|w| w[0] < w[1]));
            for &i in &frontier {
                for (j, other) in points.iter().enumerate() {
                    prop_assert!(
                        j as u64 == i || !dominates(other, &points[i as usize]),
                        "frontier member {i} is dominated by {j}"
                    );
                }
            }
            for j in 0..points.len() as u64 {
                if !frontier.contains(&j) {
                    prop_assert!(
                        frontier.iter().any(|&i| dominates(&points[i as usize], &points[j as usize])),
                        "non-member {j} is not dominated by any frontier member"
                    );
                }
            }
        }
    }
}
