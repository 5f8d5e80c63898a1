//! `repro` — regenerates every table and figure of the ScaleDeep paper.
//!
//! Run `repro --help` (or see [`USAGE`]) for the full subcommand and
//! gate listing.

use scaledeep::dse::{self, DseConfig, DseReport, Expansion};
use scaledeep::experiments::{run_by_id, EXPERIMENT_IDS};
use scaledeep::pool;
use scaledeep::report::{bench_inputs, Table};
use scaledeep::{Observer, Session, TraceConfig, BENCH_SCHEMA_VERSION};
use scaledeep_arch::{DesignPoint, Knob, KnobValue, ParamSpace, Precision, ALL_KNOBS};
use scaledeep_compiler::codegen::CompiledNetwork;
use scaledeep_compiler::{CompileOptions, FailedTiles};
use scaledeep_dnn::zoo;
use scaledeep_dnn::Layer;
use scaledeep_sim::fault::{FaultPlan, LinkFaults};
use scaledeep_sim::func::{ExecBackend, FuncSim};
use scaledeep_trace::{json, validate_chrome_trace, CategoryMask};

/// The full usage text, printed by `--help`. Every subcommand and every
/// CI gate the binary implements is enumerated here — when a new mode is
/// added, it is added to this listing in the same change.
const USAGE: &str = "\
repro — regenerates every table and figure of the ScaleDeep paper.

Experiments:
  repro                      run every experiment
  repro fig16 fig18          run selected experiments
  repro --list               list experiment ids
  repro --help               this text

Drills:
  repro --net alexnet        drill into one benchmark's mapping & pipeline
  repro --degraded alexnet 2 remap around 2 dead columns and compare
  repro --trace out.json [--trace-net vgg_a] [--trace-filter stage,fault]
                             trace a training run: Chrome JSON + per-cycle CSV
  repro --sweep alexnet      run-kind sweep: compile/simulate split + cache ledger

Benchmark reports and gates (CI):
  repro --bench-json out.json --bench-net alexnet [--bench-kind training]
                             write the measured BENCH report
  repro --check BENCH_alexnet.json
                             gate: re-run the baseline's network, kind and
                             precision and require a byte-identical document
  repro serve-drill --seed 42 [--write-bench BENCH_serve-drill.json] [--summary]
                    [--stats-json stats.json]
                             seeded chaos drill (gate: exits nonzero on violation);
                             --stats-json writes the final server stats snapshot

Design-space exploration:
  repro dse [--net alexnet] [--kind training] [--suite dse]
            [--axis knob=v1,v2]... [--sample N --seed S]
            [--workers N] [--out BENCH_dse-<suite>.json]
                             sweep a parameter grid (or seeded sample) and
                             report the sample + its Pareto frontier
  repro dse --check BENCH_dse-smoke.json [--workers N]
                             gate: re-run the baseline's embedded sweep and
                             require a byte-identical document
  repro dse --knobs          list sweepable knob names

Job server:
  repro serve [--port 7878] [--workers 4] [--queue 16]
                             line-JSON job server over TCP
  repro watch [--port 7878] [--host 127.0.0.1] [--net cnn-s] [--jobs 3]
                             live client: submit watched jobs to a running
                             `repro serve`, stream their progress lines, and
                             finish with a server stats snapshot

Any other `--` flag is rejected. A gate's baseline embeds every input of
its run, so `--check` takes no other flag, and `dse --check` only --workers.
";

/// Every `--` flag any mode accepts. Arguments starting with `--` that
/// are not listed here make `repro` exit 1 before doing any work, so a
/// stale or mistyped flag fails loudly instead of being ignored.
const KNOWN_FLAGS: &[&str] = &[
    "--axis",
    "--bench-json",
    "--bench-kind",
    "--bench-net",
    "--check",
    "--degraded",
    "--help",
    "--host",
    "--jobs",
    "--kind",
    "--knobs",
    "--list",
    "--net",
    "--out",
    "--port",
    "--queue",
    "--sample",
    "--seed",
    "--stats-json",
    "--suite",
    "--summary",
    "--sweep",
    "--trace",
    "--trace-filter",
    "--trace-net",
    "--workers",
    "--write-bench",
];

/// Rejects the first `--` argument not in [`KNOWN_FLAGS`], and in a gate
/// mode every flag the gate would ignore: the baseline embeds every input
/// of its run, so `--check` takes no other flag and `dse --check` only
/// `--workers`.
fn check_flags(args: &[String]) -> Result<(), String> {
    let first_outside = |allowed: &[&str]| {
        args.iter()
            .find(|a| a.starts_with("--") && !allowed.contains(&a.as_str()))
    };
    if let Some(flag) = first_outside(KNOWN_FLAGS) {
        return Err(format!("unknown flag `{flag}` (see --help)"));
    }
    if args.iter().any(|a| a == "--check") {
        let (mode, allowed): (&str, &[&str]) = if args.first().map(String::as_str) == Some("dse") {
            ("dse --check", &["--check", "--workers"])
        } else {
            ("--check", &["--check"])
        };
        if let Some(flag) = first_outside(allowed) {
            return Err(format!(
                "`{flag}` has no effect on `{mode}`: the baseline embeds every input (see --help)"
            ));
        }
    }
    Ok(())
}

/// Runs every experiment in `ids` across the scoped worker pool
/// ([`pool::map_ordered`]). Each experiment's tables are rendered into a
/// private buffer and printed in the original order once all workers
/// join, so the output is byte-identical to a sequential run. Returns
/// `false` when any id is unknown.
fn run_experiments(ids: &[&str]) -> bool {
    let outputs = pool::map_ordered(ids, 0, |id| {
        use std::fmt::Write;
        run_by_id(id).map(|tables| {
            let mut buf = String::new();
            for t in tables {
                writeln!(buf, "{t}").expect("write to String cannot fail");
            }
            buf
        })
    });
    let mut ok = true;
    for (id, output) in ids.iter().zip(outputs) {
        match output {
            Some(buf) => print!("{buf}"),
            None => {
                eprintln!("unknown experiment `{id}` (try --list)");
                ok = false;
            }
        }
    }
    ok
}

fn drill_into(name: &str) -> Result<(), String> {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    println!("{net}");
    let session = Session::single_precision();
    let artifact = session.compile(&net).map_err(|e| e.to_string())?;
    let mapping = artifact.mapping();
    println!(
        "mapping: {} ConvLayer cols on {} chip(s) / {} cluster(s); {} FcLayer cols\n",
        mapping.conv_cols_used(),
        mapping.chips_spanned(),
        mapping.clusters_spanned(),
        mapping.fc_cols_used()
    );
    let r = session.train(&net).map_err(|e| e.to_string())?;
    println!("training pipeline ({} replicas):", r.pipelines);
    for s in &r.stages {
        println!(
            "  {:24} {:>10} cycles/image{}",
            s.name,
            s.service_cycles,
            if s.bottleneck { "  <- bottleneck" } else { "" }
        );
    }
    println!(
        "\n{:.0} images/s, utilization {:.2}, {:.0} W, {:.1} GFLOPs/W",
        r.images_per_sec,
        r.pe_utilization,
        r.avg_power.total(),
        r.gflops_per_watt
    );
    Ok(())
}

/// The dead-column count of `--degraded <net> [count]`: 1 when absent.
fn degraded_count(arg: Option<&String>) -> Result<usize, String> {
    arg.map_or(Ok(1), |s| {
        s.parse()
            .map_err(|_| format!("--degraded count must be a non-negative integer, got `{s}`"))
    })
}

fn degraded_drill(name: &str, dead_cols: usize) -> Result<(), String> {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let session = Session::single_precision();
    let healthy = session.compile(&net).map_err(|e| e.to_string())?;
    let opts = CompileOptions::degraded(FailedTiles::from_columns(0..dead_cols));
    let degraded = session
        .compile_with(&net, &opts, Observer::Off)
        .map_err(|e| e.to_string())?
        .value;
    println!(
        "healthy:  {} cols on {} chip(s)",
        healthy.mapping().conv_cols_used(),
        healthy.mapping().chips_spanned()
    );
    println!(
        "degraded: {} cols on {} chip(s), routing around {:?}",
        degraded.mapping().conv_cols_used(),
        degraded.mapping().chips_spanned(),
        degraded.mapping().failed_cols()
    );
    let base = session.run_mapped(&healthy, scaledeep_sim::perf::RunKind::Training);
    let deg = session.run_mapped(&degraded, scaledeep_sim::perf::RunKind::Training);
    println!(
        "throughput: {:.0} -> {:.0} images/s ({:.1}% retained)",
        base.images_per_sec,
        deg.images_per_sec,
        100.0 * deg.images_per_sec / base.images_per_sec
    );
    // The faulted node drill: both layouts' whole-node models under
    // transient link faults.
    let plan = FaultPlan::seeded(42).with_link_faults(LinkFaults {
        prob: 0.2,
        base_backoff: 16,
        max_retries: 4,
    });
    let kind = scaledeep_sim::perf::RunKind::Training;
    for (label, artifact) in [("healthy", &healthy), ("degraded", &degraded)] {
        let got = session.node_outcome(artifact, kind, &plan);
        println!(
            "{label} fault drill: {} link retries, {} retry cycles",
            got.faults.link_retries, got.faults.retry_cycles
        );
    }
    Ok(())
}

/// Sweeps one benchmark through every run kind of a single session —
/// training, evaluation, and a traced training run — and reports where
/// the wall-clock went: compile time (the phase pipeline, first run only)
/// versus simulate time, plus the session's compile-cache ledger. With
/// the provenance-keyed cache the whole sweep compiles the network
/// exactly once. Ends with the functional drill: the same training
/// iteration on both execution tiers, wall-clocked head to head.
fn sweep(name: &str) -> Result<(), String> {
    use std::time::Instant;
    type RunFn<'a> = &'a dyn Fn() -> Result<f64, String>;
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let session = Session::single_precision();
    let runs: [(&str, RunFn); 3] = [
        ("train", &|| {
            session
                .train(&net)
                .map(|r| r.images_per_sec)
                .map_err(|e| e.to_string())
        }),
        ("evaluate", &|| {
            session
                .evaluate(&net)
                .map(|r| r.images_per_sec)
                .map_err(|e| e.to_string())
        }),
        ("train (traced)", &|| {
            session
                .run_traced(
                    &net,
                    scaledeep_sim::perf::RunKind::Training,
                    &TraceConfig::default(),
                )
                .map(|t| t.perf.images_per_sec)
                .map_err(|e| e.to_string())
        }),
    ];
    let mut total_nanos = 0u64;
    for (kind, run) in runs {
        let started = Instant::now();
        let images_per_sec = run()?;
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        total_nanos += nanos;
        println!("{name}: {kind:<15} {images_per_sec:>10.0} images/s  ({nanos} ns wall)");
    }
    let stats = session.cache_stats();
    let simulate_nanos = total_nanos.saturating_sub(stats.compile_nanos);
    println!(
        "wall-clock split: compile {} ns ({:.1}%), simulate {} ns ({:.1}%)",
        stats.compile_nanos,
        100.0 * stats.compile_nanos as f64 / total_nanos.max(1) as f64,
        simulate_nanos,
        100.0 * simulate_nanos as f64 / total_nanos.max(1) as f64,
    );
    println!(
        "compile cache: {} miss(es), {} hit(s) — {} run kinds, 1 pipeline run",
        stats.misses, stats.hits, 3
    );

    // The whole-node model rides along on every sweep: every replica of
    // the training pipeline, coupled at each minibatch sync.
    let artifact = session.compile(&net).map_err(|e| e.to_string())?;
    let kind = scaledeep_sim::perf::RunKind::Training;
    let node = session.node_outcome(&artifact, kind, &FaultPlan::none());
    println!(
        "node model ({} replicas): makespan {} cycles, {} images, {} syncs",
        node.replicas, node.makespan, node.images_done, node.syncs
    );

    // The functional drill: the same training iteration on the
    // interpreter tier and on the pre-decoded micro-op tier. Full-scale
    // benchmarks that exceed the functional target fall back to their
    // `-func` proxy (same layer cadence at functional scale).
    let func_net = match session.compile(&net) {
        Ok(a) if a.functional().is_ok() => Some(net),
        _ => zoo::by_name(&format!("{name}-func")),
    };
    match func_net {
        Some(func_net) => functional_drill(&func_net),
        None => {
            println!("functional drill: skipped (no functional compile, no `{name}-func` proxy)");
            Ok(())
        }
    }
}

/// Timed iterations per tier in the functional drill — enough that the
/// iteration loop, not simulator setup, dominates the wall-clock. Each
/// tier additionally runs one untimed warm-up iteration first (caches,
/// branch predictors, lazily-grown scratch), which still participates in
/// the cross-tier identity check.
const DRILL_ITERATIONS: u64 = 5;

/// Runs one warm-up plus [`DRILL_ITERATIONS`] timed training iterations
/// of `net` on each execution tier, verifies the tiers' statistics are
/// identical, and reports the per-tier wall-clock and the resulting
/// speedup.
fn functional_drill(net: &scaledeep_dnn::Network) -> Result<(), String> {
    use std::time::Instant;
    let session = Session::single_precision();
    let artifact = session.compile(net).map_err(|e| e.to_string())?;
    let compiled = artifact.functional().map_err(|e| e.to_string())?;
    let (image, golden) = drill_io(net, compiled)?;
    let reference = scaledeep_tensor::Executor::new(net, 0xC0FFEE).map_err(|e| format!("{e:?}"))?;
    let mut walls = [0u64; 2];
    let mut runs = Vec::new();
    for (i, tier) in [ExecBackend::Interpreter, ExecBackend::Compiled]
        .into_iter()
        .enumerate()
    {
        let mut fsim = FuncSim::from_artifact(net, &artifact)
            .map_err(|e| e.to_string())?
            .with_backend(tier);
        fsim.import_params(&reference).map_err(|e| e.to_string())?;
        let mut stats = Vec::new();
        stats.push(
            fsim.run_iteration(&image, &golden)
                .map_err(|e| e.to_string())?,
        );
        let started = Instant::now();
        for _ in 0..DRILL_ITERATIONS {
            stats.push(
                fsim.run_iteration(&image, &golden)
                    .map_err(|e| e.to_string())?,
            );
        }
        walls[i] = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        println!(
            "{}: functional ({:<11}) {:>9} insts  {:>9} cycles  {:>6} stalls  ({} ns wall, {DRILL_ITERATIONS} iterations)",
            net.name(),
            tier.name(),
            stats[0].instructions,
            stats[0].cycles,
            stats[0].stalls,
            walls[i],
        );
        runs.push(stats);
    }
    if runs[0] != runs[1] {
        return Err("execution tiers DIVERGED: per-iteration statistics differ".to_string());
    }
    println!(
        "tiers bit-identical across {DRILL_ITERATIONS} iterations; compiled tier speedup {:.2}x",
        walls[0] as f64 / walls[1].max(1) as f64
    );
    Ok(())
}

/// The constant iteration inputs the drill feeds both tiers: sized from
/// the compiled layout's input and golden buffers (mirrors the session's
/// internal convention; values are arbitrary — cycle counts are
/// data-independent and both tiers see the same words).
fn drill_io(
    net: &scaledeep_dnn::Network,
    compiled: &CompiledNetwork,
) -> Result<(Vec<f32>, Vec<f32>), String> {
    let input_len = compiled.buffers[net.input().id().index()]
        .output
        .map(|loc| loc.len as usize)
        .ok_or("input layer has no output buffer")?;
    let golden_len = net
        .layers()
        .find(|n| matches!(n.layer(), Layer::Loss))
        .and_then(|n| compiled.buffers[n.id().index()].golden)
        .map(|loc| loc.len as usize)
        .ok_or("network has no loss head; a training iteration needs one")?;
    Ok((vec![0.5; input_len], vec![0.0; golden_len]))
}

/// Traces a training run of `name` through the performance pipeline,
/// writing the Chrome/Perfetto JSON to `path` and the per-cycle CSV next
/// to it, then self-validates the JSON and prints the metrics report.
fn trace_run(name: &str, path: &str, filter: CategoryMask) -> Result<(), String> {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let cfg = TraceConfig {
        filter,
        ..TraceConfig::default()
    };
    let session = Session::single_precision();
    let traced = session
        .run_traced(&net, scaledeep_sim::perf::RunKind::Training, &cfg)
        .map_err(|e| e.to_string())?;

    let json = traced.trace.chrome_trace();
    let summary = validate_chrome_trace(&json)
        .map_err(|e| format!("generated trace failed validation: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    let csv_path = csv_sidecar_path(path);
    std::fs::write(&csv_path, traced.trace.cycle_csv())
        .map_err(|e| format!("writing {csv_path}: {e}"))?;

    println!(
        "{name}: {} events on {} tracks ({} spans, {} instants, {} dropped)",
        traced.trace.events.len(),
        summary.tracks,
        summary.spans,
        summary.instants,
        traced.trace.dropped
    );
    println!("wrote {path} (chrome://tracing) and {csv_path}\n");
    println!("{}", traced.trace.metrics_report());
    Ok(())
}

/// The per-cycle CSV always rides next to a `--trace` JSON output:
/// `out.json -> out.csv`, and any other extension just gains `.csv`.
fn csv_sidecar_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.csv"),
        None => format!("{path}.csv"),
    }
}

/// `repro serve`: binds the fault-tolerant job server to a local TCP
/// port and serves the line-delimited JSON protocol until killed. One
/// request object per line in, one typed reply/error object per line
/// out, in order, per connection.
fn serve(port: u16, workers: usize, queue_capacity: usize) -> Result<(), String> {
    use scaledeep_serve::{Server, ServerConfig};
    let cfg = ServerConfig {
        workers,
        queue_capacity,
        ..ServerConfig::default()
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = Server::start(Session::single_precision(), cfg);
    println!(
        "serving on {addr} ({} workers, queue capacity {}, default deadline {} ms)",
        cfg.workers, cfg.queue_capacity, cfg.default_deadline_ms
    );
    println!(r#"example: {{"tenant":"t0","op":"simulate","network":"alexnet","kind":"training"}}"#);
    server.serve_tcp(&listener).map_err(|e| e.to_string())
}

/// `repro watch`: the live telemetry client. Connects to a running
/// `repro serve`, submits `jobs` progress-subscribed simulate jobs (one
/// tenant each from a fixed rotation) plus a final `stats` request, then
/// renders the interleaved per-job progress lines as they arrive, a
/// per-job summary table, and the server-wide stats snapshot.
fn watch(host: &str, port: u16, net: &str, jobs: usize) -> Result<(), String> {
    use scaledeep_serve::protocol::{self, ServerLine};
    use scaledeep_serve::{JobKind, JobRequest, StatValue};
    use std::io::{BufRead, BufReader, Write as _};
    let tenants = ["alpha", "beta", "gamma"];
    let addr = format!("{host}:{port}");
    let stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("connecting {addr} (is `repro serve` running?): {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    for i in 0..jobs {
        let req = JobRequest::new(
            tenants[i % tenants.len()],
            JobKind::Simulate {
                network: net.into(),
                kind: scaledeep_sim::perf::RunKind::Training,
            },
        )
        .with_progress();
        writeln!(writer, "{}", protocol::request_to_json(&req)).map_err(|e| e.to_string())?;
    }
    writeln!(writer, "{}", protocol::stats_request_json()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    println!("watching {addr}: {jobs} `{net}` job(s) + stats");

    // One row per job id, in arrival order.
    let mut table_rows: Vec<WatchRow> = Vec::new();
    let mut finished = 0usize;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("reading {addr}: {e}"))?;
        match protocol::server_line_from_json(&line).map_err(|e| format!("bad line: {e}"))? {
            ServerLine::Progress(ev) => {
                let what = match (ev.label, ev.value) {
                    (Some(label), Some(v)) => format!("{} {label} #{v}", ev.kind),
                    (Some(label), None) => format!("{} {label}", ev.kind),
                    (None, Some(v)) => format!("{} {v}", ev.kind),
                    (None, None) => ev.kind.clone(),
                };
                println!(
                    "  job {} ({:<6}) seq {:>3}  cycle {:>10}  {:<24} syncs={} faults={} retries={}{}",
                    ev.job,
                    ev.tenant,
                    ev.seq,
                    ev.cycle,
                    what,
                    ev.syncs,
                    ev.faults,
                    ev.retries,
                    if ev.dropped > 0 {
                        format!("  ({} dropped)", ev.dropped)
                    } else {
                        String::new()
                    }
                );
                let row = match table_rows.iter_mut().find(|r| r.job == ev.job) {
                    Some(row) => row,
                    None => {
                        table_rows.push(WatchRow::new(ev.job, ev.tenant.clone()));
                        table_rows.last_mut().expect("just pushed")
                    }
                };
                row.updates += 1;
                row.dropped = ev.dropped;
                row.syncs = ev.syncs;
                row.faults = ev.faults;
                row.retries = ev.retries;
            }
            ServerLine::Result(result) => {
                finished += 1;
                let outcome = match &result {
                    Ok(reply) => format!("{reply:?}"),
                    Err(e) => format!("error: {e}"),
                };
                // Responses arrive in submission order; a job that never
                // streamed (e.g. rejected at admission) gets its own row.
                match table_rows.get_mut(finished - 1) {
                    Some(row) => row.outcome = outcome,
                    None => {
                        let mut row = WatchRow::new(0, "?".into());
                        row.outcome = outcome;
                        table_rows.push(row);
                    }
                }
            }
            ServerLine::Stats(snap) => {
                let mut t = Table::new("server stats snapshot")
                    .headers(["metric", "count", "p50", "p99", "value"]);
                for (name, v) in &snap.metrics {
                    match v {
                        StatValue::Counter(c) => t.row([
                            name.clone(),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                            c.to_string(),
                        ]),
                        StatValue::Gauge(g) => t.row([
                            name.clone(),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                            format!("{g:.0}"),
                        ]),
                        StatValue::Hist {
                            count, p50, p99, ..
                        } => t.row([
                            name.clone(),
                            count.to_string(),
                            format!("{p50:.0}"),
                            format!("{p99:.0}"),
                            "-".into(),
                        ]),
                    };
                }
                print_watch_summary(&table_rows);
                print!("{t}");
                return Ok(());
            }
        }
    }
    Err(format!(
        "{addr} closed after {finished} of {jobs} job(s) without answering stats"
    ))
}

/// One `repro watch` summary row: the running progress totals and final
/// outcome of a watched job.
struct WatchRow {
    job: u64,
    tenant: String,
    updates: u64,
    dropped: u64,
    syncs: u64,
    faults: u64,
    retries: u64,
    outcome: String,
}

impl WatchRow {
    fn new(job: u64, tenant: String) -> Self {
        Self {
            job,
            tenant,
            updates: 0,
            dropped: 0,
            syncs: 0,
            faults: 0,
            retries: 0,
            outcome: "…".into(),
        }
    }
}

/// The per-job half of the `repro watch` output.
fn print_watch_summary(rows: &[WatchRow]) {
    let mut t = Table::new("watched jobs").headers([
        "job", "tenant", "updates", "dropped", "syncs", "faults", "retries", "outcome",
    ]);
    for r in rows {
        t.row([
            r.job.to_string(),
            r.tenant.clone(),
            r.updates.to_string(),
            r.dropped.to_string(),
            r.syncs.to_string(),
            r.faults.to_string(),
            r.retries.to_string(),
            r.outcome.clone(),
        ]);
    }
    print!("{t}");
}

/// `repro serve-drill`: runs the seeded chaos drill, prints the
/// degradation table and deterministic verdict, optionally writes the
/// BENCH JSON and/or the final server stats snapshot (the CI artifact),
/// and exits nonzero when any drill invariant is violated.
fn serve_drill(
    seed: u64,
    write_bench: Option<&str>,
    stats_json: Option<&str>,
    summary_only: bool,
) -> Result<(), String> {
    let cfg = scaledeep_serve::DrillConfig {
        seed,
        ..scaledeep_serve::DrillConfig::default()
    };
    let report = scaledeep_serve::run_drill(&cfg);
    if summary_only {
        print!("{}", report.deterministic_summary());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = write_bench {
        let json = report.to_bench_json();
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = stats_json {
        let json = report.stats_json();
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    let violated = report.invariants();
    if violated.is_empty() {
        Ok(())
    } else {
        Err(format!("{} drill invariant(s) violated", violated.len()))
    }
}

/// Parses one `--axis` spec: `knob=v1,v2,...` with kebab-case knob
/// names and `single`/`half` or finite numbers as values.
fn parse_axis(spec: &str) -> Result<(Knob, Vec<KnobValue>), String> {
    let (name, values) = spec
        .split_once('=')
        .ok_or_else(|| format!("--axis expects knob=v1,v2,..., got `{spec}`"))?;
    let knob = Knob::parse(name).map_err(|e| e.to_string())?;
    let parsed: Result<Vec<KnobValue>, String> = values
        .split(',')
        .map(|v| KnobValue::parse(v).map_err(|e| e.to_string()))
        .collect();
    let parsed = parsed?;
    if parsed.is_empty() {
        return Err(format!("--axis {name} needs at least one value"));
    }
    Ok((knob, parsed))
}

/// `repro dse`: expands the requested parameter space around the paper's
/// Figure 14 base point, evaluates every candidate in parallel, prints
/// the sample with its Pareto frontier, and optionally writes the
/// deterministic `BENCH_dse-<suite>.json` document.
fn dse_cmd(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--knobs") {
        for knob in ALL_KNOBS {
            println!("{knob}");
        }
        return Ok(());
    }
    let flag = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
    };
    let workers = match flag("--workers") {
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| format!("--workers requires a non-negative integer, got `{s}`"))?,
        None => 0,
    };
    if let Some(baseline) = flag("--check") {
        return dse_check(baseline, workers);
    }
    let net_name = flag("--net").map(String::as_str).unwrap_or("alexnet");
    let net = zoo::by_name(net_name).ok_or_else(|| format!("unknown benchmark `{net_name}`"))?;
    let kind = parse_kind(flag("--kind").map(String::as_str).unwrap_or("training"))?;
    let suite = flag("--suite").map(String::as_str).unwrap_or("dse");
    let mut space = ParamSpace::new(DesignPoint::figure14_sp());
    for (i, arg) in args.iter().enumerate() {
        if arg == "--axis" {
            let spec = args
                .get(i + 1)
                .ok_or("--axis requires a knob=v1,v2,... spec")?;
            let (knob, values) = parse_axis(spec)?;
            space = space.axis(knob, values);
        }
    }
    let expansion = match flag("--sample") {
        Some(s) => {
            let n = s
                .parse::<u64>()
                .map_err(|_| format!("--sample requires a non-negative integer, got `{s}`"))?;
            let seed = match flag("--seed") {
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| format!("--seed requires a non-negative integer, got `{s}`"))?,
                None => 0,
            };
            Expansion::Sample { n, seed }
        }
        None => Expansion::Grid,
    };
    dse::check_candidates(&space, expansion)?;
    let cfg = DseConfig {
        suite: suite.to_string(),
        kind,
        expansion,
        workers,
        ..DseConfig::default()
    };
    let report = dse::run(&Session::single_precision(), &net, &space, &cfg);
    print_dse(&report);
    if let Some(out) = flag("--out") {
        let text = report.to_json();
        DseReport::from_json(&text)
            .map_err(|e| format!("generated report failed validation: {e}"))?;
        std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out} (schema v{})", report.schema_version);
    }
    Ok(())
}

/// Renders a DSE report as the summary table plus the frontier line.
fn print_dse(report: &DseReport) {
    let mut t = Table::new(format!(
        "dse {} ({}, {}): {} point(s), {} unique compile(s)",
        report.suite,
        report.network,
        report.kind,
        report.points.len(),
        report.unique_compiles
    ))
    .headers(["label", "img/s", "GFLOPs/W", "J/img", "pareto"]);
    for (i, p) in report.points.iter().enumerate() {
        t.row([
            p.label.clone(),
            format!("{:.0}", p.images_per_sec),
            format!("{:.1}", p.gflops_per_watt),
            format!("{:.4}", p.joules_per_image),
            if report.frontier.contains(&(i as u64)) {
                "*".to_string()
            } else {
                String::new()
            },
        ]);
    }
    print!("{t}");
    for inf in &report.infeasible {
        println!("infeasible: {} — {}", inf.label, inf.error);
    }
    println!(
        "frontier: {} of {} point(s) non-dominated",
        report.frontier.len(),
        report.points.len()
    );
}

/// `repro dse --check`: re-runs the baseline's embedded sweep (base
/// point, axes, expansion — no side channel) and requires the fresh
/// document to be byte-identical. On mismatch, fails naming the first
/// differing field.
fn dse_check(path: &str, workers: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline = DseReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let net = zoo::by_name(&baseline.network)
        .ok_or_else(|| format!("{path}: unknown benchmark `{}`", baseline.network))?;
    let cfg = DseConfig {
        suite: baseline.suite.clone(),
        kind: baseline.run_kind()?,
        expansion: baseline.expansion,
        workers,
        ..DseConfig::default()
    };
    let fresh = dse::run(&Session::single_precision(), &net, &baseline.space(), &cfg);
    json::check_document(&text, &fresh.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{}: byte-identical to {path} ({} point(s), frontier of {})",
        baseline.suite,
        baseline.points.len(),
        baseline.frontier.len()
    );
    Ok(())
}

fn parse_kind(s: &str) -> Result<scaledeep_sim::perf::RunKind, String> {
    match s {
        "training" => Ok(scaledeep_sim::perf::RunKind::Training),
        "evaluation" => Ok(scaledeep_sim::perf::RunKind::Evaluation),
        other => Err(format!(
            "unknown run kind `{other}` (expected training|evaluation)"
        )),
    }
}

/// `--bench-json`: runs `name` unobserved, joins the run record with the
/// compile's provenance and the analytic costs into the versioned BENCH
/// report, and writes it to `out`.
fn bench_json(name: &str, kind_str: &str, out: &str) -> Result<(), String> {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let kind = parse_kind(kind_str)?;
    let session = Session::single_precision();
    let report = session
        .bench_report(&net, kind)
        .map_err(|e| e.to_string())?;
    std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;

    let attr = &report.attribution;
    println!(
        "{name} ({kind_str}): {} busy cycles over {} stages, {:.0} images/s, {:.3} J/image",
        attr.total_busy_cycles,
        attr.layers.len(),
        report.perf.images_per_sec,
        report.perf.joules_per_image
    );
    for l in &attr.layers {
        let share = |cycles: u64| 100.0 * cycles as f64 / l.busy_cycles.max(1) as f64;
        println!(
            "  {:24} {:>12} cycles  fp/bp/wg {:>3.0}/{:>2.0}/{:>2.0}%  {:9}-bound  {:.4} J",
            l.name,
            l.busy_cycles,
            share(l.passes.fp),
            share(l.passes.bp),
            share(l.passes.wg),
            l.bound.name(),
            l.joules_per_image
        );
    }
    println!("wrote {out} (schema v{BENCH_SCHEMA_VERSION})");
    Ok(())
}

/// `--check`: reads a committed BENCH report's header, re-runs its
/// network, kind and precision on this tree, and requires the fresh
/// document to be byte-identical. On mismatch, fails naming the first
/// differing field.
fn bench_check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let inputs = bench_inputs(&text).map_err(|e| format!("{path}: {e}"))?;
    let net = zoo::by_name(&inputs.network)
        .ok_or_else(|| format!("{path}: unknown benchmark `{}`", inputs.network))?;
    let session = match inputs.precision {
        Precision::Single => Session::single_precision(),
        Precision::Half => Session::half_precision(),
    };
    let fresh = session
        .bench_report(&net, inputs.kind)
        .map_err(|e| e.to_string())?;
    json::check_document(&text, &fresh.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{}: byte-identical to {path} ({} layers)",
        inputs.network,
        fresh.attribution.layers.len()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = check_flags(&args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    if args.iter().any(|a| a == "--list") {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }
    let flag_value = |args: &[String], flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|p| args.get(p + 1))
            .cloned()
    };
    let parse_or_die = |value: Option<String>, flag: &str, default: u64| -> u64 {
        match value {
            None => default,
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("{flag} requires a non-negative integer, got `{s}`");
                std::process::exit(1);
            }),
        }
    };
    if args.first().map(String::as_str) == Some("serve") {
        let port = parse_or_die(flag_value(&args, "--port"), "--port", 7878);
        let Ok(port) = u16::try_from(port) else {
            eprintln!("--port must fit in 16 bits, got {port}");
            std::process::exit(1);
        };
        let workers = parse_or_die(flag_value(&args, "--workers"), "--workers", 4) as usize;
        let queue = parse_or_die(flag_value(&args, "--queue"), "--queue", 16) as usize;
        if let Err(e) = serve(port, workers.max(1), queue.max(1)) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("watch") {
        let port = parse_or_die(flag_value(&args, "--port"), "--port", 7878);
        let Ok(port) = u16::try_from(port) else {
            eprintln!("--port must fit in 16 bits, got {port}");
            std::process::exit(1);
        };
        let host = flag_value(&args, "--host").unwrap_or_else(|| "127.0.0.1".into());
        let net = flag_value(&args, "--net").unwrap_or_else(|| "cnn-s".into());
        let jobs = parse_or_die(flag_value(&args, "--jobs"), "--jobs", 3) as usize;
        if let Err(e) = watch(&host, port, &net, jobs.max(1)) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("dse") {
        if let Err(e) = dse_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("serve-drill") {
        let seed = parse_or_die(flag_value(&args, "--seed"), "--seed", 0);
        let write_bench = flag_value(&args, "--write-bench");
        let stats_json = flag_value(&args, "--stats-json");
        let summary_only = args.iter().any(|a| a == "--summary");
        if let Err(e) = serve_drill(
            seed,
            write_bench.as_deref(),
            stats_json.as_deref(),
            summary_only,
        ) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench-json") {
        let Some(out) = args.get(pos + 1) else {
            eprintln!("--bench-json requires an output path");
            std::process::exit(1);
        };
        let name = args
            .iter()
            .position(|a| a == "--bench-net")
            .and_then(|p| args.get(p + 1))
            .map(String::as_str)
            .unwrap_or("alexnet");
        let kind = args
            .iter()
            .position(|a| a == "--bench-kind")
            .and_then(|p| args.get(p + 1))
            .map(String::as_str)
            .unwrap_or("training");
        if let Err(e) = bench_json(name, kind, out) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let Some(baseline) = args.get(pos + 1) else {
            eprintln!("--check requires a baseline BENCH json path");
            std::process::exit(1);
        };
        if let Err(e) = bench_check(baseline) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--trace requires an output path");
            std::process::exit(1);
        };
        let name = args
            .iter()
            .position(|a| a == "--trace-net")
            .and_then(|p| args.get(p + 1))
            .map(String::as_str)
            .unwrap_or("alexnet");
        let filter = match args
            .iter()
            .position(|a| a == "--trace-filter")
            .and_then(|p| args.get(p + 1))
        {
            Some(spec) => match CategoryMask::parse_list(spec) {
                Ok(mask) => mask,
                Err(e) => {
                    eprintln!("--trace-filter: {e}");
                    std::process::exit(1);
                }
            },
            None => CategoryMask::all(),
        };
        if let Err(e) = trace_run(name, path, filter) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--sweep") {
        let name = args.get(pos + 1).map(String::as_str).unwrap_or("alexnet");
        if let Err(e) = sweep(name) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--degraded") {
        let name = args.get(pos + 1).map(String::as_str).unwrap_or("alexnet");
        let dead = degraded_count(args.get(pos + 2)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        if let Err(e) = degraded_drill(name, dead) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--net") {
        match args.get(pos + 1) {
            Some(name) => {
                if let Err(e) = drill_into(name) {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("--net requires a benchmark name");
                std::process::exit(1);
            }
        }
        return;
    }
    let ids: Vec<&str> = if args.is_empty() {
        EXPERIMENT_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if !run_experiments(&ids) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_sidecar_replaces_json_extension() {
        assert_eq!(csv_sidecar_path("out.json"), "out.csv");
        assert_eq!(csv_sidecar_path("a/b/trace.json"), "a/b/trace.csv");
    }

    #[test]
    fn csv_sidecar_appends_for_other_extensions() {
        assert_eq!(csv_sidecar_path("out.trace"), "out.trace.csv");
        assert_eq!(csv_sidecar_path("out"), "out.csv");
        // `.json` must be a suffix, not merely present.
        assert_eq!(csv_sidecar_path("out.json.bak"), "out.json.bak.csv");
    }

    #[test]
    fn run_kinds_parse() {
        assert!(parse_kind("training").is_ok());
        assert!(parse_kind("evaluation").is_ok());
        assert!(parse_kind("Training").is_err());
    }

    #[test]
    fn axis_specs_parse() {
        let (knob, values) = parse_axis("clusters=1,2,4").expect("parses");
        assert_eq!(knob, Knob::Clusters);
        assert_eq!(values.len(), 3);
        let (knob, values) = parse_axis("precision=single,half").expect("parses");
        assert_eq!(knob, Knob::Precision);
        assert_eq!(values.len(), 2);
        assert!(parse_axis("clusters").is_err());
        assert!(parse_axis("no-such-knob=1").is_err());
        assert!(parse_axis("clusters=abc").is_err());
    }

    #[test]
    fn dse_refuses_a_sweep_beyond_the_candidate_limit() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let huge = args(&["--sample", "1000000000000000", "--axis", "clusters=2,4"]);
        let err = dse_cmd(&huge).unwrap_err();
        assert!(err.contains("1000000000000000 candidates"), "{err}");
    }

    #[test]
    fn usage_names_every_subcommand_and_gate() {
        for needle in ["serve", "serve-drill", "watch", "dse"] {
            assert!(USAGE.contains(needle), "usage text lacks `{needle}`");
        }
        // The flag table and the usage text name the same flags.
        let mut in_usage: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect();
        in_usage.sort_unstable();
        in_usage.dedup();
        assert_eq!(in_usage, KNOWN_FLAGS, "usage text and KNOWN_FLAGS disagree");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = check_flags(&args(&["--sweep", "alexnet", "--shards", "4"])).unwrap_err();
        assert!(err.contains("`--shards`"), "{err}");
        assert!(check_flags(&args(&["--degraded", "alexnet", "2", "--bogus", "1"])).is_err());
        assert!(check_flags(&args(&["--sweep", "alexnet"])).is_ok());
        assert!(check_flags(&args(&["fig16", "fig18"])).is_ok());
    }

    #[test]
    fn gate_modes_reject_the_flags_they_ignore() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let dse = |extra: &[&str]| {
            let mut a = args(&["dse", "--check", "BENCH_dse-smoke.json"]);
            a.extend(args(extra));
            check_flags(&a)
        };
        assert!(dse(&[]).is_ok());
        assert!(dse(&["--workers", "1"]).is_ok());
        for flag in ["--seed", "--net", "--kind", "--axis", "--sample", "--out"] {
            let err = dse(&[flag, "5"]).unwrap_err();
            assert!(err.contains(&format!("`{flag}`")), "{err}");
            assert!(err.contains("`dse --check`"), "{err}");
        }
        let bench = |extra: &[&str]| {
            let mut a = args(&["--check", "BENCH_cnn-s.json"]);
            a.extend(args(extra));
            check_flags(&a)
        };
        assert!(bench(&[]).is_ok());
        for flag in ["--workers", "--bench-net", "--bench-kind", "--bench-json"] {
            let err = bench(&[flag, "vgg-e"]).unwrap_err();
            assert!(err.contains(&format!("`{flag}`")), "{err}");
        }
        // An unknown flag is still named as unknown.
        let err = bench(&["--tolerance", "0"]).unwrap_err();
        assert!(err.contains("unknown flag `--tolerance`"), "{err}");
        // Outside the gates the flags keep their meaning.
        assert!(check_flags(&args(&["dse", "--seed", "5", "--sample", "4"])).is_ok());
    }

    #[test]
    fn degraded_count_defaults_to_one_and_rejects_garbage() {
        assert_eq!(degraded_count(None), Ok(1));
        assert_eq!(degraded_count(Some(&"0".to_string())), Ok(0));
        assert_eq!(degraded_count(Some(&"3".to_string())), Ok(3));
        for bad in ["banana", "-1", "2.5", ""] {
            let err = degraded_count(Some(&bad.to_string())).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }
}
