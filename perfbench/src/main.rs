//! `perfbench`: the host-performance benchmark of the ScaleDeep
//! reproduction — how fast this system compiles, simulates and serves.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result.json> <result.json>
//! ```
//!
//! A run builds its inputs from the seed, measures the named workload for
//! the given seconds, checks its outputs outside the timed region, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` the run records spans around every call
//! into a layer and reports per-layer metrics instead: the named workload
//! runs untraced for half the time and traced for the other half (the
//! difference is the tracing overhead), then every other workload runs one
//! short traced unit, so each layer is measured on every traced run.
//!
//! Every run leaves a result record under `.perfbench-out/`; `--compare`
//! prints two records side by side and refuses records measured on
//! different hosts.

mod artifact_cache;
mod dse_sweep;
mod func_train;
mod host;
mod rng;
mod serve_mix;
mod spans;
mod stats;

use host::{Digest, Fingerprint};
use scaledeep_trace::json::{self, obj, Json};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Where runs leave result records, span dumps and scratch artifact
/// stores, relative to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench-out";

const USAGE: &str = "usage: perfbench --workload <dse-sweep|func-train|serve-mix|artifact-cache> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --compare <result.json> <result.json>";

/// A measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Digest of the simulated results of a part of the run that does not
    /// depend on host speed: equal digests mean identical simulated results.
    pub digest: Digest,
    /// Seconds taken by each repetition of the workload's program set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident memory, MB, read as the timed region ends: before the
    /// benchmark's own reference computations and checks.
    pub peak_rss_mb: f64,
    /// The workload's headline rate over the whole run; the traced run
    /// compares it with tracing off and on.
    pub work_per_s: f64,
    /// Timings of the workload's primary path, ms (`main_ms_p25`).
    pub main_ms: Vec<f64>,
    /// Timings of its counterpart path, ms (`alt_ms_p25`).
    pub alt_ms: Vec<f64>,
    /// The end-to-end metrics under their workload-specific names.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation, recording `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DseSweep,
    FuncTrain,
    ServeMix,
    ArtifactCache,
}

const WORKLOADS: [Workload; 4] = [
    Workload::DseSweep,
    Workload::FuncTrain,
    Workload::ServeMix,
    Workload::ArtifactCache,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::DseSweep => "dse-sweep",
            Workload::FuncTrain => "func-train",
            Workload::ServeMix => "serve-mix",
            Workload::ArtifactCache => "artifact-cache",
        }
    }

    /// Runs the workload for `budget`, and for at least one unit of work.
    fn run(self, seed: u64, budget: Duration, spans: &mut Spans) -> Result<Report, String> {
        match self {
            Workload::DseSweep => dse_sweep::run(seed, budget, spans),
            Workload::FuncTrain => func_train::run(seed, budget, spans),
            Workload::ServeMix => serve_mix::run(seed, budget, spans),
            Workload::ArtifactCache => artifact_cache::run(seed, budget, spans),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10u64, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    let found = WORKLOADS.into_iter().find(|w| w.name() == value.as_str());
                    workload =
                        Some(found.ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?);
                }
                "--seed" => {
                    let parsed = value.parse::<u64>();
                    seed =
                        Some(parsed.map_err(|_| {
                            format!("--seed takes an unsigned integer, got `{value}`")
                        })?);
                }
                "--seconds" => {
                    seconds = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| {
                            format!("--seconds takes a positive integer, got `{value}`")
                        })?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    };
                }
                _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds,
            trace,
        })
    }
}

/// The workload runs one invocation made, each with its report.
type Runs = Vec<(Workload, Report)>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--compare") => compare(&args[1..]),
        _ => Args::parse(&args).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let host = Fingerprint::detect();
    let budget = Duration::from_secs(args.seconds);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {host}");
    let (runs, metrics) = if args.trace {
        traced(args.workload, args.seed, budget)?
    } else {
        untraced(args.workload, args.seed, budget)?
    };
    let attempted: u64 = runs.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, r)| r.failures.len() as u64).sum();
    if attempted == 0 {
        return Err("the run checked nothing".to_string());
    }
    for (workload, report) in &runs {
        println!("digest {} {}", workload.name(), report.digest.hex());
        for failure in &report.failures {
            println!("FAILED {}: {failure}", workload.name());
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric `{}` was not measured", m.name));
        }
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_ratio {} ({failed} of {attempted} checked operations failed)",
        failed as f64 / attempted as f64
    );
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    );
    let digests = runs
        .iter()
        .map(|(w, r)| {
            Json::Arr(vec![
                Json::Str(w.name().to_string()),
                Json::Str(r.digest.hex()),
            ])
        })
        .collect();
    let record = obj([
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Str(args.seed.to_string())),
        ("trace", Json::Bool(args.trace)),
        ("host", host.to_json()),
        ("digests", Json::Arr(digests)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.clone()),
    ]);
    let path = out_path(&format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ))?;
    std::fs::write(&path, record.render_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("record {}", path.display());
    let last = obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", last.render());
    Ok(())
}

fn out_path(file: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    Ok(PathBuf::from(OUT_DIR).join(file))
}

/// The end-to-end run: the workload alone, tracing off.
fn untraced(
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> Result<(Runs, Vec<Metric>), String> {
    let report = workload.run(seed, budget, &mut Spans::off())?;
    let pct = |samples: &[f64], p: f64| stats::percentile(samples, p).unwrap_or(f64::NAN);
    let metrics = vec![
        Metric::new("setup_s", pct(&report.setup_s, 50.0), "s"),
        Metric::new("peak_rss_mb", report.peak_rss_mb, "MB"),
        Metric::new("main_ms_p25", pct(&report.main_ms, 25.0), "ms"),
        Metric::new("alt_ms_p25", pct(&report.alt_ms, 25.0), "ms"),
    ];
    for m in &report.named {
        println!("e2e {} {} {}", m.name, m.value, m.unit);
    }
    let paths = [
        ("setup_s", &report.setup_s),
        ("main_ms", &report.main_ms),
        ("alt_ms", &report.alt_ms),
    ];
    for (path, samples) in paths {
        let tail = stats::tail(samples).map_or("none".to_string(), |(p, v)| format!("p{p}={v}"));
        println!(
            "samples {path} n={} p50={} iqr={} tail {tail}",
            samples.len(),
            pct(samples, 50.0),
            stats::iqr(samples).unwrap_or(f64::NAN)
        );
    }
    Ok((vec![(workload, report)], metrics))
}

/// The traced run: per-layer metrics, self time per layer and the tracing
/// overhead, with every span written out at the end.
fn traced(workload: Workload, seed: u64, budget: Duration) -> Result<(Runs, Vec<Metric>), String> {
    let half = budget / 2;
    let plain = workload.run(seed, half, &mut Spans::off())?;
    let mut spans = Spans::on();
    let traced = spans.time("bench", workload.name(), |s| workload.run(seed, half, s))?;
    // `work_per_s` is a rate, so a slower traced run reads as a positive overhead.
    let overhead_pct = (plain.work_per_s / traced.work_per_s - 1.0) * 100.0;
    let mut runs = vec![(workload, plain), (workload, traced)];
    for other in WORKLOADS.into_iter().filter(|&w| w != workload) {
        let report = spans.time("bench", other.name(), |s| {
            other.run(seed, Duration::ZERO, s)
        })?;
        runs.push((other, report));
    }
    let mut metrics: Vec<Metric> = runs
        .iter()
        .flat_map(|(_, r)| r.layers.iter().cloned())
        .collect();
    for (layer, ms) in spans.self_ms_by_layer() {
        metrics.push(Metric::new(
            format!("self.{}_ms", layer.replace('.', "_")),
            ms,
            "ms",
        ));
    }
    metrics.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    if let Some(pair) = metrics.windows(2).find(|p| p[0].name == p[1].name) {
        return Err(format!("metric `{}` reported twice", pair[0].name));
    }
    let path = out_path(&format!("spans-{}-seed{seed}.json", workload.name()))?;
    std::fs::write(&path, spans.to_json().render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans {} ({} spans)", path.display(), spans.count());
    Ok((runs, metrics))
}

/// `--compare A B`: two result records side by side. Records measured on
/// different hosts, or of different workloads or modes, are refused.
fn compare(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    let host = |record: &Json, path: &str| -> Result<Fingerprint, String> {
        let v = record
            .get("host")
            .ok_or_else(|| format!("{path}: no host fingerprint"))?;
        Fingerprint::from_json(v).map_err(|e| format!("{path}: {e}"))
    };
    let (ha, hb) = (host(&ra, a)?, host(&rb, b)?);
    if !ha.same_host(&hb) {
        return Err(format!(
            "refusing to compare results from different hosts:\n  {a}: {ha}\n  {b}: {hb}"
        ));
    }
    for key in ["workload", "trace"] {
        if ra.get(key) != rb.get(key) {
            return Err(format!(
                "refusing to compare different runs: `{key}` differs"
            ));
        }
    }
    let metrics = |record: &Json| match record.get("metrics") {
        Some(Json::Obj(m)) => m.clone(),
        _ => Vec::new(),
    };
    let value = |v: &Json| v.get("value").and_then(Json::as_num);
    let (ma, mb) = (metrics(&ra), metrics(&rb));
    println!(
        "{:<44} {:>14} {:>14} {:>9}",
        "metric", "first", "second", "change"
    );
    for (name, va) in &ma {
        let Some(x) = value(va) else { continue };
        let Some(y) = mb
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| value(v))
        else {
            continue;
        };
        println!(
            "{name:<44} {x:>14.4} {y:>14.4} {:>+8.2}%",
            (y / x - 1.0) * 100.0
        );
    }
    println!("revisions {} vs {}", ha.git_rev, hb.git_rev);
    let same = ra.get("digests") == rb.get("digests");
    println!(
        "simulated results: {}",
        if same { "identical" } else { "DIFFER" }
    );
    Ok(())
}
