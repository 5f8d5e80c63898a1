//! `repro` — regenerates every table and figure of the ScaleDeep paper.
//!
//! Run `repro --help` (or see [`USAGE`]) for the full subcommand and
//! gate listing; [`MODES`] is the one table of what each mode reads.

use scaledeep::dse::{self, DseConfig, DseReport, Expansion};
use scaledeep::experiments::{run_by_id, EXPERIMENT_IDS};
use scaledeep::pool;
use scaledeep::report::{bench_inputs, Table};
use scaledeep::{seeded_iteration, Observer, Session, TraceConfig, BENCH_SCHEMA_VERSION};
use scaledeep_arch::{DesignPoint, Knob, KnobValue, ParamSpace, Precision, ALL_KNOBS};
use scaledeep_compiler::{CompileOptions, FailedTiles};
use scaledeep_dnn::{zoo, Network};
use scaledeep_serve::DrillReport;
use scaledeep_sim::fault::{FaultPlan, LinkFaults};
use scaledeep_sim::perf::{stage_name, RunKind};
use scaledeep_trace::{json, validate_chrome_trace, CategoryMask, MetricsRegistry};
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

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
  repro serve-drill --seed 42 [--write-bench BENCH_serve-drill.json]
                    [--stats-json stats.json]
                             seeded chaos drill (gate: exits nonzero on violation);
                             --write-bench writes its deterministic document,
                             --stats-json the final server stats snapshot

Design-space exploration:
  repro dse [--net alexnet] [--kind training] [--suite dse]
            [--axis knob=v1,v2]... [--sample N [--seed S]]
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

Each line above is one mode, reading only the flags shown with it. Anything
else exits 1 before any work: a flag the mode would ignore, a flag without
its value or given twice (only --axis repeats), an extra argument, or a zero
--workers, --queue or --jobs for serve and watch (dse --workers 0 uses every
core). A gate's baseline embeds every input of its run, so `--check` takes no
other flag, and `dse --check` only --workers.
";

/// One row of [`MODES`].
struct Mode {
    sub: &'static str,
    selector: &'static str,
    flags: &'static str,
    positionals: usize,
    build: for<'a> fn(&Args<'a>) -> Result<Command<'a>, String>,
}

/// A [`MODES`] row, its fields in declaration order.
const fn row(
    sub: &'static str,
    selector: &'static str,
    flags: &'static str,
    positionals: usize,
    build: for<'a> fn(&Args<'a>) -> Result<Command<'a>, String>,
) -> Mode {
    Mode {
        sub,
        selector,
        flags,
        positionals,
        build,
    }
}

/// Every mode `repro` has, one row each: the leading subcommand that
/// picks its group of rows, the flag that selects it within the group
/// (the row without one runs when none is given), the other flags it
/// reads, how many positional arguments it takes, and how its values are
/// typed. An empty string means none. The rows' flags are all the flags
/// there are, and USAGE lists exactly them.
const MODES: &[Mode] = &[
    row("", "", "", usize::MAX, |a| {
        Ok(Command::Experiments(a.positionals.clone()))
    }),
    row("", "--list", "", 0, |_| Ok(Command::List)),
    row("", "--net", "", 0, |a| Ok(Command::Net(a.selected))),
    row("", "--degraded", "", 1, |a| {
        let count = a.positionals.first().copied().unwrap_or("1");
        let bad = |_| format!("--degraded count must be a non-negative integer, got `{count}`");
        Ok(Command::Degraded(a.selected, count.parse().map_err(bad)?))
    }),
    row("", "--trace", "--trace-net --trace-filter", 0, |a| {
        let filter = CategoryMask::parse_list(a.get("--trace-filter", "all"));
        let filter = filter.map_err(|e| format!("--trace-filter: {e}"))?;
        let net = a.get("--trace-net", "alexnet");
        Ok(Command::Trace(net, a.selected, filter))
    }),
    row("", "--sweep", "", 0, |a| Ok(Command::Sweep(a.selected))),
    row("", "--bench-json", "--bench-net --bench-kind", 0, |a| {
        let (net, kind) = (a.get("--bench-net", "alexnet"), a.kind("--bench-kind")?);
        Ok(Command::BenchJson(net, kind, a.selected))
    }),
    row("", "--check", "", 0, |a| Ok(Command::Check(a.selected))),
    row(
        "serve-drill",
        "",
        "--seed --write-bench --stats-json",
        0,
        |a| {
            let (bench, stats) = (a.value("--write-bench"), a.value("--stats-json"));
            Ok(Command::ServeDrill(a.number("--seed", 0)?, bench, stats))
        },
    ),
    row(
        "dse",
        "",
        "--net --kind --suite --axis --sample --seed --workers --out",
        0,
        |a| {
            let expansion = match a.value("--sample") {
                Some(_) => Expansion::Sample {
                    n: a.number("--sample", 0)?,
                    seed: a.number("--seed", 0)?,
                },
                None if a.value("--seed").is_some() => {
                    return Err("`--seed` has no effect on `dse` without --sample".into())
                }
                None => Expansion::Grid,
            };
            let mut space = ParamSpace::new(DesignPoint::figure14_sp());
            for spec in a.values("--axis") {
                let (knob, values) = parse_axis(spec)?;
                space = space.axis(knob, values);
            }
            dse::check_candidates(&space, expansion)?;
            let cfg = DseConfig {
                suite: a.get("--suite", "dse").to_string(),
                kind: a.kind("--kind")?,
                expansion,
                workers: a.number("--workers", 0)?,
                ..DseConfig::default()
            };
            let (net, path) = (a.get("--net", "alexnet"), a.value("--out"));
            Ok(Command::Dse(net, Box::new(space), cfg, path))
        },
    ),
    row("dse", "--check", "--workers", 0, |a| {
        Ok(Command::DseCheck(a.selected, a.number("--workers", 0)?))
    }),
    row("dse", "--knobs", "", 0, |_| Ok(Command::Knobs)),
    row("serve", "", "--port --workers --queue", 0, |a| {
        let (workers, queue) = (a.positive("--workers", 4)?, a.positive("--queue", 16)?);
        Ok(Command::Serve(a.number("--port", 7878)?, workers, queue))
    }),
    row("watch", "", "--port --host --net --jobs", 0, |a| {
        let (host, net) = (a.get("--host", "127.0.0.1"), a.get("--net", "cnn-s"));
        let jobs = a.positive("--jobs", 3)?;
        Ok(Command::Watch(host, a.number("--port", 7878)?, net, jobs))
    }),
];

/// The flags that take no value; every other flag takes exactly one.
const SWITCHES: [&str; 2] = ["--list", "--knobs"];

impl Mode {
    fn reads(&self, flag: &str) -> bool {
        flag == self.selector || self.flags.split(' ').any(|f| f == flag)
    }

    /// The mode as its messages name it.
    fn name(&self) -> String {
        match (self.sub, self.selector) {
            ("", "") => "experiment ids".to_string(),
            (name, "") | ("", name) => name.to_string(),
            (sub, flag) => format!("{sub} {flag}"),
        }
    }

    /// Picks the one mode `argv` selects and checks every argument
    /// against its row, or names the first argument that breaks a rule.
    fn select(argv: &[String]) -> Result<(&'static Mode, Args<'_>), String> {
        let sub = match argv.first() {
            Some(a) if MODES.iter().any(|m| !a.is_empty() && m.sub == a) => a.as_str(),
            _ => "",
        };
        let rest = &argv[usize::from(!sub.is_empty())..];
        let rows = || MODES.iter().filter(|m| m.sub == sub);
        let mut mode = rows().find(|m| m.selector.is_empty()).expect("default row");
        let selected = rest.iter().filter(|a| a.starts_with("--"));
        for row in selected.filter_map(|a| rows().find(|m| m.selector == a)) {
            if !mode.selector.is_empty() && mode.selector != row.selector {
                let (prev, next) = (mode.selector, row.selector);
                return Err(format!("`{prev}` and `{next}` select different modes"));
            }
            mode = row;
        }
        let mut args = Args::default();
        let mut tokens = rest.iter().map(String::as_str).peekable();
        while let Some(arg) = tokens.next() {
            let name = mode.name();
            if !arg.starts_with("--") {
                if args.positionals.len() == mode.positionals {
                    return Err(format!("unexpected argument `{arg}` to `{name}`"));
                }
                args.positionals.push(arg);
            } else if !mode.reads(arg) {
                return Err(if MODES.iter().any(|m| m.reads(arg)) {
                    format!("`{arg}` has no effect on `{name}`")
                } else {
                    format!("unknown flag `{arg}`")
                });
            } else if arg != "--axis" && args.flags.iter().any(|&(f, _)| f == arg) {
                return Err(format!("`{arg}` is given twice"));
            } else if SWITCHES.contains(&arg) {
                args.flags.push((arg, ""));
            } else {
                let value = tokens.next_if(|v| !v.starts_with("--"));
                let value = value.ok_or_else(|| format!("`{arg}` requires a value"))?;
                args.flags.push((arg, value));
                if arg == mode.selector {
                    args.selected = value;
                }
            }
        }
        Ok((mode, args))
    }
}

/// The arguments of one mode, checked against its row: each flag given
/// with its value (empty for a switch), the selector's value, and the
/// positional arguments.
#[derive(Default)]
struct Args<'a> {
    flags: Vec<(&'a str, &'a str)>,
    selected: &'a str,
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Every value of `flag`, in order (only `--axis` may have several).
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags.iter().filter(move |f| f.0 == flag).map(|f| f.1)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next()
    }

    fn get(&self, flag: &str, default: &'a str) -> &'a str {
        self.value(flag).unwrap_or(default)
    }

    /// An unsigned integer value: `--port` must fit in 16 bits, a count
    /// or seed in 64.
    fn number<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        let bits = 8 * std::mem::size_of::<T>();
        self.value(flag).map_or(Ok(default), |s| {
            s.parse().map_err(|_| {
                format!("{flag} requires a non-negative integer of at most {bits} bits, got `{s}`")
            })
        })
    }

    /// A count the mode cannot run with at zero, so zero is refused
    /// rather than silently raised to one.
    fn positive(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.number(flag, default)? {
            0 => Err(format!("{flag} must be at least 1, got `0`")),
            n => Ok(n),
        }
    }

    fn kind(&self, flag: &str) -> Result<RunKind, String> {
        RunKind::parse(self.get(flag, "training"))
            .map_err(|e| format!("{e} (expected training|evaluation)"))
    }
}

/// One invocation: its mode and that mode's typed inputs, in the order
/// its handler takes them.
#[derive(Debug)]
enum Command<'a> {
    Help,
    /// Experiment ids: none runs every experiment.
    Experiments(Vec<&'a str>),
    List,
    Net(&'a str),
    /// `--degraded`: the benchmark and its dead columns.
    Degraded(&'a str, usize),
    /// `--trace`: the benchmark, the output path and the categories.
    Trace(&'a str, &'a str, CategoryMask),
    Sweep(&'a str),
    /// `--bench-json`: the benchmark, the run kind and the output path.
    BenchJson(&'a str, RunKind, &'a str),
    Check(&'a str),
    /// `serve-drill`: the seed, `--write-bench` and `--stats-json`.
    ServeDrill(u64, Option<&'a str>, Option<&'a str>),
    /// `dse`: the benchmark, the design space, the sweep and the output
    /// path.
    Dse(&'a str, Box<ParamSpace>, DseConfig, Option<&'a str>),
    /// `dse --check`: the baseline and the workers.
    DseCheck(&'a str, usize),
    Knobs,
    /// `serve`: the port, the workers and the queue capacity.
    Serve(u16, usize, usize),
    /// `watch`: the host, the port, the benchmark and the jobs.
    Watch(&'a str, u16, &'a str, usize),
}

impl<'a> Command<'a> {
    /// Turns argv into one command, or into one error naming the flag or
    /// argument at fault. `--help` or `-h` anywhere asks for the usage.
    fn parse(argv: &'a [String]) -> Result<Self, String> {
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(Command::Help);
        }
        let (mode, args) = Mode::select(argv)?;
        (mode.build)(&args)
    }

    fn run(self, out: &mut dyn Write) -> Outcome {
        match self {
            Command::Help => Ok(out.write_all(USAGE.as_bytes())?),
            Command::Experiments(ids) if ids.is_empty() => run_experiments(&EXPERIMENT_IDS, out),
            Command::Experiments(ids) => run_experiments(&ids, out),
            Command::List => Ok(writeln!(out, "{}", EXPERIMENT_IDS.join("\n"))?),
            Command::Net(net) => drill_into(net, out),
            Command::Degraded(net, dead_cols) => degraded_drill(net, dead_cols, out),
            Command::Trace(net, path, filter) => trace_run(net, path, filter, out),
            Command::Sweep(net) => sweep(net, out),
            Command::BenchJson(net, kind, path) => bench_json(net, kind, path, out),
            Command::Check(path) => bench_check(path, out),
            Command::ServeDrill(seed, bench, stats) => serve_drill(seed, bench, stats, out),
            Command::Dse(net, space, cfg, path) => dse_sweep(net, &space, &cfg, path, out),
            Command::DseCheck(path, workers) => dse_check(path, workers, out),
            Command::Knobs => Ok(ALL_KNOBS.iter().try_for_each(|k| writeln!(out, "{k}"))?),
            Command::Serve(port, workers, queue) => serve(port, workers, queue, out),
            Command::Watch(host, port, net, jobs) => watch(host, port, net, jobs, out),
        }
    }
}

/// What a mode handler returns. Each handler turns its own failures into
/// messages where they happen, so an [`io::Error`] that reaches `main` is
/// a failed write to stdout.
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Runs every experiment in `ids` across the persistent worker pool
/// ([`pool::map_ordered`]), the calling thread included. Each
/// experiment's tables are rendered into a private buffer and written in
/// the original order once every experiment has finished, so the output
/// is byte-identical to a sequential run. Fails naming every unknown id.
fn run_experiments(ids: &[&str], out: &mut dyn Write) -> Outcome {
    let owned: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
    let outputs = pool::map_ordered(owned, 0, |id| {
        use std::fmt::Write;
        run_by_id(id).map(|tables| {
            let mut buf = String::new();
            for t in tables {
                writeln!(buf, "{t}").expect("write to String cannot fail");
            }
            buf
        })
    });
    let mut unknown = Vec::new();
    for (id, output) in ids.iter().zip(outputs) {
        match output {
            Some(buf) => out.write_all(buf.as_bytes())?,
            None => unknown.push(format!("unknown experiment `{id}` (try --list)")),
        }
    }
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(unknown.join("\n").into())
    }
}

fn drill_into(name: &str, out: &mut dyn Write) -> Outcome {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    writeln!(out, "{net}")?;
    let session = Session::single_precision();
    let artifact = session.compile(&net)?;
    let mapping = artifact.mapping();
    writeln!(
        out,
        "mapping: {} ConvLayer cols on {} chip(s) / {} cluster(s); {} FcLayer cols\n",
        mapping.conv_cols_used(),
        mapping.chips_spanned(),
        mapping.clusters_spanned(),
        mapping.fc_cols_used()
    )?;
    let r = session.train(&net)?;
    writeln!(out, "training pipeline ({} replicas):", r.pipelines)?;
    for s in &r.stages {
        writeln!(
            out,
            "  {:24} {:>10} cycles/image{}",
            stage_name(mapping, s.members.clone()),
            s.service_cycles,
            if s.bottleneck { "  <- bottleneck" } else { "" }
        )?;
    }
    Ok(writeln!(
        out,
        "\n{:.0} images/s, utilization {:.2}, {:.0} W, {:.1} GFLOPs/W",
        r.images_per_sec,
        r.pe_utilization,
        r.avg_power.total(),
        r.gflops_per_watt
    )?)
}

fn degraded_drill(name: &str, dead_cols: usize, out: &mut dyn Write) -> Outcome {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let session = Session::single_precision();
    let healthy = session.compile(&net)?;
    let opts = CompileOptions::degraded(FailedTiles::from_columns(0..dead_cols));
    let degraded = session.compile_with(&net, &opts, Observer::Off)?.value;
    writeln!(
        out,
        "healthy:  {} cols on {} chip(s)",
        healthy.mapping().conv_cols_used(),
        healthy.mapping().chips_spanned()
    )?;
    writeln!(
        out,
        "degraded: {} cols on {} chip(s), routing around {:?}",
        degraded.mapping().conv_cols_used(),
        degraded.mapping().chips_spanned(),
        degraded.mapping().failed_cols()
    )?;
    let base = session.run_mapped(&healthy, RunKind::Training);
    let deg = session.run_mapped(&degraded, RunKind::Training);
    writeln!(
        out,
        "throughput: {:.0} -> {:.0} images/s ({:.1}% retained)",
        base.images_per_sec,
        deg.images_per_sec,
        100.0 * deg.images_per_sec / base.images_per_sec
    )?;
    // The faulted node drill: both layouts' whole-node models under
    // transient link faults.
    let plan = FaultPlan::seeded(42).with_link_faults(LinkFaults {
        prob: 0.2,
        base_backoff: 16,
        max_retries: 4,
    });
    for (label, artifact) in [("healthy", &healthy), ("degraded", &degraded)] {
        let got = session.node_outcome(artifact, RunKind::Training, &plan);
        writeln!(
            out,
            "{label} fault drill: {} link retries, {} retry cycles",
            got.faults.link_retries, got.faults.retry_cycles
        )?;
    }
    Ok(())
}

/// Sweeps one benchmark through every run kind of a single session —
/// training, evaluation, and a traced training run — and reports where
/// the wall-clock went: compile time (the phase pipeline, first run only)
/// versus simulate time, plus the session's compile-cache ledger. With
/// the provenance-keyed cache the whole sweep compiles the network
/// exactly once. Ends with the functional drill: training iterations on
/// the compiled tier, wall-clocked.
fn sweep(name: &str, out: &mut dyn Write) -> Outcome {
    use std::time::Instant;
    type RunFn<'a> = &'a dyn Fn() -> scaledeep::Result<f64>;
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let session = Session::single_precision();
    let runs: [(&str, RunFn); 3] = [
        ("train", &|| session.train(&net).map(|r| r.images_per_sec)),
        ("evaluate", &|| {
            session.evaluate(&net).map(|r| r.images_per_sec)
        }),
        ("train (traced)", &|| {
            let traced = session.run_traced(&net, RunKind::Training, &TraceConfig::default());
            traced.map(|t| t.perf.images_per_sec)
        }),
    ];
    let mut total_nanos = 0u64;
    for (kind, run) in runs {
        let started = Instant::now();
        let images_per_sec = run()?;
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        total_nanos += nanos;
        writeln!(
            out,
            "{name}: {kind:<15} {images_per_sec:>10.0} images/s  ({nanos} ns wall)"
        )?;
    }
    let stats = session.cache_stats();
    let simulate_nanos = total_nanos.saturating_sub(stats.compile_nanos);
    writeln!(
        out,
        "wall-clock split: compile {} ns ({:.1}%), simulate {} ns ({:.1}%)",
        stats.compile_nanos,
        100.0 * stats.compile_nanos as f64 / total_nanos.max(1) as f64,
        simulate_nanos,
        100.0 * simulate_nanos as f64 / total_nanos.max(1) as f64,
    )?;
    writeln!(
        out,
        "compile cache: {} miss(es), {} hit(s) — {} run kinds, 1 pipeline run",
        stats.misses, stats.hits, 3
    )?;

    // The whole-node model rides along on every sweep: every replica of
    // the training pipeline, coupled at each minibatch sync.
    let artifact = session.compile(&net)?;
    let node = session.node_outcome(&artifact, RunKind::Training, &FaultPlan::none());
    writeln!(
        out,
        "node model ({} replicas): makespan {} cycles, {} images, {} syncs",
        node.replicas, node.makespan, node.images_done, node.syncs
    )?;

    // The functional drill: training iterations on the compiled
    // micro-op tier. Full-scale benchmarks that exceed the functional
    // target fall back to their `-func` proxy (same layer cadence at
    // functional scale).
    let func_net = match session.compile(&net) {
        Ok(a) if a.functional().is_ok() => Some(net),
        _ => zoo::by_name(&format!("{name}-func")),
    };
    match func_net {
        Some(func_net) => functional_drill(&func_net, out),
        None => Ok(writeln!(
            out,
            "functional drill: skipped (no functional compile, no `{name}-func` proxy)"
        )?),
    }
}

/// Timed iterations in the functional drill — enough that the iteration
/// loop, not simulator setup, dominates the wall-clock. One untimed
/// warm-up iteration runs first (caches, branch predictors,
/// lazily-grown scratch).
const DRILL_ITERATIONS: u64 = 5;

/// Runs one warm-up plus [`DRILL_ITERATIONS`] timed training iterations
/// of `net` on the compiled tier, set up by the session's
/// [`seeded_iteration`], and reports the warm-up's statistics with the
/// timed loop's wall-clock.
fn functional_drill(net: &Network, out: &mut dyn Write) -> Outcome {
    use std::time::Instant;
    let artifact = Session::single_precision().compile(net)?;
    let (mut fsim, image, golden) = seeded_iteration(net, &artifact)?;
    let stats = fsim.run_iteration(&image, &golden)?;
    let started = Instant::now();
    for _ in 0..DRILL_ITERATIONS {
        fsim.run_iteration(&image, &golden)?;
    }
    let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(writeln!(
        out,
        "{}: functional (compiled) {:>9} insts  {:>9} cycles  {:>6} stalls  ({wall} ns wall, {DRILL_ITERATIONS} iterations)",
        net.name(),
        stats.instructions,
        stats.cycles,
        stats.stalls,
    )?)
}

/// Traces a training run of `name` through the performance pipeline,
/// writing the Chrome/Perfetto JSON to `path` and the per-cycle CSV next
/// to it, then self-validates the JSON and prints the run record's
/// metrics report.
fn trace_run(name: &str, path: &str, filter: CategoryMask, out: &mut dyn Write) -> Outcome {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let cfg = TraceConfig { filter };
    let session = Session::single_precision();
    let traced = session.run_traced(&net, RunKind::Training, &cfg)?;

    let json = traced.trace.chrome_trace();
    let summary = validate_chrome_trace(&json)
        .map_err(|e| format!("generated trace failed validation: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    let csv_path = csv_sidecar_path(path);
    std::fs::write(&csv_path, traced.trace.cycle_csv())
        .map_err(|e| format!("writing {csv_path}: {e}"))?;

    writeln!(
        out,
        "{name}: {} events on {} tracks ({} spans, {} instants)",
        traced.trace.events.len(),
        summary.tracks,
        summary.spans,
        summary.instants,
    )?;
    writeln!(out, "wrote {path} (chrome://tracing) and {csv_path}\n")?;
    let mut metrics = MetricsRegistry::new();
    traced.perf.write_metrics(&mut metrics);
    Ok(writeln!(out, "{}", metrics.report())?)
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
fn serve(port: u16, workers: usize, queue_capacity: usize, out: &mut dyn Write) -> Outcome {
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
    writeln!(
        out,
        "serving on {addr} ({} workers, queue capacity {}, default deadline {} ms)",
        cfg.workers, cfg.queue_capacity, cfg.default_deadline_ms
    )?;
    writeln!(
        out,
        r#"example: {{"tenant":"t0","op":"simulate","network":"alexnet","kind":"training"}}"#
    )?;
    Ok(server.serve_tcp(&listener).map_err(|e| e.to_string())?)
}

/// `repro watch`: the live telemetry client. Connects to a running
/// `repro serve`, submits `jobs` progress-subscribed simulate jobs (one
/// tenant each from a fixed rotation) plus a final `stats` request, then
/// renders the interleaved per-job progress lines as they arrive, a
/// per-job summary table, and the server-wide stats snapshot.
fn watch(host: &str, port: u16, net: &str, jobs: usize, out: &mut dyn Write) -> Outcome {
    use scaledeep_serve::protocol::{self, ServerLine};
    use scaledeep_serve::{JobKind, JobRequest, StatValue};
    use std::io::{BufRead, BufReader};
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
                kind: RunKind::Training,
            },
        )
        .with_progress();
        writeln!(writer, "{}", protocol::request_to_json(&req)).map_err(|e| e.to_string())?;
    }
    writeln!(writer, "{}", protocol::stats_request_json()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    writeln!(out, "watching {addr}: {jobs} `{net}` job(s) + stats")?;

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
                writeln!(
                    out,
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
                )?;
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
                write_watch_summary(&table_rows, out)?;
                write!(out, "{t}")?;
                return Ok(());
            }
        }
    }
    Err(format!("{addr} closed after {finished} of {jobs} job(s) without answering stats").into())
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
fn write_watch_summary(rows: &[WatchRow], out: &mut dyn Write) -> io::Result<()> {
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
    write!(out, "{t}")
}

/// `repro serve-drill`: runs the seeded chaos drill, prints the
/// degradation table and verdict, optionally writes the drill document
/// and/or the final server stats snapshot (the CI artifact), and exits
/// nonzero when any drill invariant is violated.
fn serve_drill(
    seed: u64,
    write_bench: Option<&str>,
    stats_json: Option<&str>,
    out: &mut dyn Write,
) -> Outcome {
    let report = scaledeep_serve::run_drill(seed);
    write!(out, "{}", report.render())?;
    let documents = [
        (write_bench, DrillReport::to_bench_json as fn(&_) -> _),
        (stats_json, DrillReport::stats_json),
    ];
    for (path, render) in documents {
        if let Some(path) = path {
            std::fs::write(path, render(&report)).map_err(|e| format!("writing {path}: {e}"))?;
            writeln!(out, "wrote {path}")?;
        }
    }
    let violated = report.invariants();
    if violated.is_empty() {
        Ok(())
    } else {
        Err(format!("{} drill invariant(s) violated", violated.len()).into())
    }
}

/// Parses one `--axis` spec: `knob=v1,v2,...` with kebab-case knob
/// names and `single`/`half` or finite numbers as values.
fn parse_axis(spec: &str) -> Result<(Knob, Vec<KnobValue>), String> {
    let (name, values) = spec
        .split_once('=')
        .ok_or_else(|| format!("--axis expects knob=v1,v2,..., got `{spec}`"))?;
    let knob = Knob::parse(name).map_err(|e| e.to_string())?;
    let values = values
        .split(',')
        .map(KnobValue::parse)
        .collect::<Result<_, _>>();
    Ok((knob, values.map_err(|e| e.to_string())?))
}

/// `repro dse`: expands the requested parameter space around the paper's
/// Figure 14 base point, evaluates every candidate in parallel, prints
/// the sample with its Pareto frontier, and optionally writes the
/// deterministic `BENCH_dse-<suite>.json` document.
fn dse_sweep(
    name: &str,
    space: &ParamSpace,
    cfg: &DseConfig,
    path: Option<&str>,
    out: &mut dyn Write,
) -> Outcome {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let report = dse::run(&Session::single_precision(), &net, space, cfg);
    write_dse(&report, out)?;
    if let Some(path) = path {
        let text = report.to_json();
        DseReport::from_json(&text)
            .map_err(|e| format!("generated report failed validation: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "wrote {path} (schema v{})", report.schema_version)?;
    }
    Ok(())
}

/// Renders a DSE report as the summary table plus the frontier line.
fn write_dse(report: &DseReport, out: &mut dyn Write) -> io::Result<()> {
    let mut t = Table::new(format!(
        "dse {} ({}, {}): {} point(s), {} distinct design point(s)",
        report.suite,
        report.network,
        report.kind.name(),
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
    write!(out, "{t}")?;
    for inf in &report.infeasible {
        writeln!(out, "infeasible: {} — {}", inf.label, inf.error)?;
    }
    writeln!(
        out,
        "frontier: {} of {} point(s) non-dominated",
        report.frontier.len(),
        report.points.len()
    )
}

/// `repro dse --check`: re-runs the baseline's embedded sweep (base
/// point, axes, expansion — no side channel) and requires the fresh
/// document to be byte-identical. On mismatch, fails naming the first
/// differing field.
fn dse_check(path: &str, workers: usize, out: &mut dyn Write) -> Outcome {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline = DseReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let net = zoo::by_name(&baseline.network)
        .ok_or_else(|| format!("{path}: unknown benchmark `{}`", baseline.network))?;
    let cfg = DseConfig {
        suite: baseline.suite.clone(),
        kind: baseline.kind,
        expansion: baseline.expansion,
        workers,
        ..DseConfig::default()
    };
    let fresh = dse::run(&Session::single_precision(), &net, &baseline.space(), &cfg);
    json::check_document(&text, &fresh.to_json()).map_err(|e| format!("{path}: {e}"))?;
    Ok(writeln!(
        out,
        "{}: byte-identical to {path} ({} point(s), frontier of {})",
        baseline.suite,
        baseline.points.len(),
        baseline.frontier.len()
    )?)
}

/// `--bench-json`: runs `name` unobserved, joins the run record with the
/// compile's provenance and the analytic costs into the versioned BENCH
/// report, and writes it to `path`.
fn bench_json(name: &str, kind: RunKind, path: &str, out: &mut dyn Write) -> Outcome {
    let net = zoo::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let session = Session::single_precision();
    let report = session.bench_report(&net, kind)?;
    std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;

    let attr = &report.attribution;
    writeln!(
        out,
        "{name} ({}): {} busy cycles over {} stages, {:.0} images/s, {:.3} J/image",
        kind.name(),
        report.perf.busy_cycles(),
        attr.layers.len(),
        report.perf.images_per_sec,
        report.perf.joules_per_image
    )?;
    for l in &attr.layers {
        let share = |cycles: u64| 100.0 * cycles as f64 / l.busy_cycles.max(1) as f64;
        writeln!(
            out,
            "  {:24} {:>12} cycles  fp/bp/wg {:>3.0}/{:>2.0}/{:>2.0}%  {:9}-bound  {:.4} J",
            l.name,
            l.busy_cycles,
            share(l.passes.fp),
            share(l.passes.bp),
            share(l.passes.wg),
            l.bound.name(),
            l.joules_per_image
        )?;
    }
    Ok(writeln!(
        out,
        "wrote {path} (schema v{BENCH_SCHEMA_VERSION})"
    )?)
}

/// `--check`: reads a committed BENCH report's header, re-runs its
/// network, kind and precision on this tree, and requires the fresh
/// document to be byte-identical. On mismatch, fails naming the first
/// differing field.
fn bench_check(path: &str, out: &mut dyn Write) -> Outcome {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let inputs = bench_inputs(&text).map_err(|e| format!("{path}: {e}"))?;
    let net = zoo::by_name(&inputs.network)
        .ok_or_else(|| format!("{path}: unknown benchmark `{}`", inputs.network))?;
    let session = match inputs.precision {
        Precision::Single => Session::single_precision(),
        Precision::Half => Session::half_precision(),
    };
    let fresh = session.bench_report(&net, inputs.kind)?;
    json::check_document(&text, &fresh.to_json()).map_err(|e| format!("{path}: {e}"))?;
    Ok(writeln!(
        out,
        "{}: byte-identical to {path} ({} layers)",
        inputs.network,
        fresh.attribution.layers.len()
    )?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let outcome = match Command::parse(&argv) {
        Ok(command) => command.run(&mut out).and_then(|()| Ok(out.flush()?)),
        Err(e) => Err(format!("{e} (see --help)").into()),
    };
    let Err(e) = outcome else {
        return ExitCode::SUCCESS;
    };
    // The reader went away (`repro | head`): nothing is left to say.
    if e.downcast_ref::<io::Error>().map(io::Error::kind) == Some(io::ErrorKind::BrokenPipe) {
        return ExitCode::SUCCESS;
    }
    eprintln!("{e}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// Parses `a`, or returns the parser's one error.
    fn parse(a: &[&str]) -> Result<String, String> {
        Command::parse(&argv(a)).map(|c| format!("{c:?}"))
    }

    /// The Figure 14 point swept along `axes`, each knob over numbers.
    fn space(axes: &[(Knob, &[f64])]) -> ParamSpace {
        let base = ParamSpace::new(DesignPoint::figure14_sp());
        axes.iter().fold(base, |space, &(knob, values)| {
            space.axis(knob, values.iter().map(|&v| KnobValue::Num(v)).collect())
        })
    }

    /// Every flag of the mode table.
    fn table_flags() -> Vec<&'static str> {
        let mut flags: Vec<&str> = MODES
            .iter()
            .flat_map(|m| [m.selector, m.flags])
            .flat_map(|f| f.split(' '))
            .filter(|f| !f.is_empty())
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }

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
        let kind = |k: &str| parse(&["--bench-json", "x.json", "--bench-kind", k]);
        assert!(kind("training").is_ok());
        assert!(kind("evaluation").is_ok());
        assert!(kind("Training").is_err());
        assert!(parse(&["dse", "--kind", "Training"]).is_err());
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
        let huge = [
            "dse",
            "--sample",
            "1000000000000000",
            "--axis",
            "clusters=2,4",
        ];
        let err = parse(&huge).unwrap_err();
        assert!(err.contains("1000000000000000 candidates"), "{err}");
    }

    #[test]
    fn usage_names_every_subcommand_and_gate() {
        for needle in ["serve", "serve-drill", "watch", "dse"] {
            assert!(USAGE.contains(needle), "usage text lacks `{needle}`");
        }
        // The mode table and the usage text name the same flags.
        let mut in_usage: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect();
        in_usage.sort_unstable();
        in_usage.dedup();
        let mut flags = table_flags();
        flags.push("--help");
        flags.sort_unstable();
        assert_eq!(in_usage, flags, "usage text and the mode table disagree");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--sweep", "alexnet", "--shards", "4"]).unwrap_err();
        assert!(err.contains("`--shards`"), "{err}");
        assert!(parse(&["--degraded", "alexnet", "2", "--bogus", "1"]).is_err());
        assert!(parse(&["--sweep", "alexnet"]).is_ok());
        assert!(parse(&["fig16", "fig18"]).is_ok());
    }

    #[test]
    fn gate_modes_reject_the_flags_they_ignore() {
        let dse =
            |extra: &[&str]| parse(&[&["dse", "--check", "BENCH_dse-smoke.json"], extra].concat());
        assert!(dse(&[]).is_ok());
        assert!(dse(&["--workers", "1"]).is_ok());
        for flag in ["--seed", "--net", "--kind", "--axis", "--sample", "--out"] {
            let err = dse(&[flag, "5"]).unwrap_err();
            assert!(err.contains(&format!("`{flag}`")), "{err}");
            assert!(err.contains("`dse --check`"), "{err}");
        }
        let bench = |extra: &[&str]| parse(&[&["--check", "BENCH_cnn-s.json"], extra].concat());
        assert!(bench(&[]).is_ok());
        for flag in ["--workers", "--bench-net", "--bench-kind", "--bench-json"] {
            let err = bench(&[flag, "vgg-e"]).unwrap_err();
            assert!(err.contains(&format!("`{flag}`")), "{err}");
        }
        // An unknown flag is still named as unknown.
        let err = bench(&["--tolerance", "0"]).unwrap_err();
        assert!(err.contains("unknown flag `--tolerance`"), "{err}");
        // Outside the gates the flags keep their meaning.
        assert!(parse(&["dse", "--seed", "5", "--sample", "4"]).is_ok());
    }

    #[test]
    fn degraded_count_defaults_to_one_and_rejects_garbage() {
        let dead = |extra: &[&str]| {
            let a = argv(&[&["--degraded", "alexnet"], extra].concat());
            match Command::parse(&a) {
                Ok(Command::Degraded("alexnet", dead_cols)) => Ok(dead_cols),
                other => Err(format!("{other:?}")),
            }
        };
        assert_eq!(dead(&[]), Ok(1));
        assert_eq!(dead(&["0"]), Ok(0));
        assert_eq!(dead(&["3"]), Ok(3));
        for bad in ["banana", "-1", "2.5", ""] {
            let err = dead(&[bad]).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    /// Each argv used to run while ignoring part of itself, or to clamp a
    /// count; each must now fail naming the flag or argument at fault.
    #[test]
    fn malformed_invocations_fail_naming_the_offender() {
        let cases: &[(&[&str], &str)] = &[
            (&["--trace", "t.json", "--kind", "evaluation"], "`--kind`"),
            (&["--sweep", "alexnet", "--trace", "t.json"], "`--trace`"),
            (&["--sweep", "alexnet", "--net", "vgg-a"], "`--net`"),
            (&["fig16", "--net", "cnn-s"], "`fig16`"),
            (&["--list", "--net", "x"], "`--net`"),
            (&["--net", "alexnet", "--port", "5"], "`--port`"),
            (&["--degraded", "alexnet", "1", "--seed", "99"], "`--seed`"),
            (&["--degraded", "alexnet", "1", "2"], "`2`"),
            (
                &[
                    "--bench-json",
                    "b.json",
                    "--bench-net",
                    "cnn-s",
                    "--trace-net",
                    "vgg-a",
                ],
                "`--trace-net`",
            ),
            (
                &["serve-drill", "--seed", "1", "--workers", "9"],
                "`--workers`",
            ),
            (&["serve-drill", "--summary"], "unknown flag `--summary`"),
            (&["dse", "--workers"], "`--workers`"),
            (&["dse", "--workers", "--sample", "1"], "`--workers`"),
            (&["dse", "--seed", "5"], "`--seed`"),
            (
                &["dse", "--net", "cnn-s", "--net", "vgg-a", "--sample", "1"],
                "`--net`",
            ),
            (
                &[
                    "dse",
                    "--check",
                    "BENCH_dse-smoke.json",
                    "--workers",
                    "1",
                    "--workers",
                    "3",
                ],
                "`--workers`",
            ),
            (&["serve", "--workers", "0"], "--workers"),
            (&["serve", "--queue", "0"], "--queue"),
            (&["watch", "--jobs", "0"], "--jobs"),
            (&["serve", "7878"], "`7878`"),
            (&["serve", "--port", "70000"], "--port"),
            (&["--net"], "`--net`"),
            (&["--check"], "`--check`"),
            (&["dse", "--knobs", "--net", "vgg-a"], "`--net`"),
            (&["--"], "`--`"),
        ];
        for (a, needle) in cases {
            let err = parse(a).expect_err(&format!("{a:?} must be refused"));
            assert!(
                err.contains(needle),
                "{a:?}: `{err}` does not name {needle}"
            );
            assert!(!err.contains('\n'), "{a:?}: one line, got `{err}`");
        }
    }

    /// Every invocation that CI, README.md, EXPERIMENTS.md, USAGE and the
    /// verification notes spell out, with the mode and values it selects.
    #[test]
    fn documented_invocations_parse_to_their_mode_and_values() {
        use Command::*;
        let (training, evaluation) = (RunKind::Training, RunKind::Evaluation);
        let sweep = |suite: &str, expansion, workers| DseConfig {
            suite: suite.to_string(),
            kind: training,
            expansion,
            workers,
            ..DseConfig::default()
        };
        let smoke_space = space(&[
            (Knob::Clusters, &[2.0, 4.0]),
            (Knob::FrequencyMhz, &[450.0, 600.0]),
        ])
        .axis(
            Knob::Precision,
            vec![
                KnobValue::Prec(Precision::Single),
                KnobValue::Prec(Precision::Half),
            ],
        );
        const SMOKE: &str = "BENCH_dse-smoke.json";
        let cases: Vec<(&[&str], Command)> = vec![
            (&[], Experiments(vec![])),
            (&["faults"], Experiments(vec!["faults"])),
            (&["fig16", "fig18"], Experiments(vec!["fig16", "fig18"])),
            (
                &["fig16", "bogus", "fig18"],
                Experiments(vec!["fig16", "bogus", "fig18"]),
            ),
            (&["training-time"], Experiments(vec!["training-time"])),
            (&["--list"], List),
            (&["--help"], Help),
            (&["dse", "-h"], Help),
            (&["--net", "alexnet"], Net("alexnet")),
            (&["--net", "vgg-d"], Net("vgg-d")),
            (&["--net", "nosuchnet"], Net("nosuchnet")),
            (&["--degraded", "alexnet", "2"], Degraded("alexnet", 2)),
            (
                &["--trace", "a.json"],
                Trace("alexnet", "a.json", CategoryMask::all()),
            ),
            (
                &[
                    "--trace",
                    "out.json",
                    "--trace-net",
                    "vgg_a",
                    "--trace-filter",
                    "stage,fault",
                ],
                Trace(
                    "vgg_a",
                    "out.json",
                    CategoryMask::parse_list("stage,fault").expect("categories"),
                ),
            ),
            (&["--sweep", "alexnet"], Sweep("alexnet")),
            (
                &[
                    "--bench-json",
                    "bench_alexnet.json",
                    "--bench-net",
                    "alexnet",
                ],
                BenchJson("alexnet", training, "bench_alexnet.json"),
            ),
            (
                &["--bench-json", "bench_cnn-s.json", "--bench-net", "cnn-s"],
                BenchJson("cnn-s", training, "bench_cnn-s.json"),
            ),
            (
                &["--bench-json", "x.json", "--bench-net", "alexnet-func"],
                BenchJson("alexnet-func", training, "x.json"),
            ),
            (
                &[
                    "--bench-json",
                    "out.json",
                    "--bench-net",
                    "alexnet",
                    "--bench-kind",
                    "training",
                ],
                BenchJson("alexnet", training, "out.json"),
            ),
            (
                &[
                    "--bench-json",
                    "e.json",
                    "--bench-net",
                    "cnn-s",
                    "--bench-kind",
                    "evaluation",
                ],
                BenchJson("cnn-s", evaluation, "e.json"),
            ),
            (
                &["--check", "BENCH_alexnet.json"],
                Check("BENCH_alexnet.json"),
            ),
            (&["--check", "BENCH_cnn-s.json"], Check("BENCH_cnn-s.json")),
            (
                &["--check", "BENCH_alexnet-func.json"],
                Check("BENCH_alexnet-func.json"),
            ),
            (
                &[
                    "serve-drill",
                    "--seed",
                    "42",
                    "--stats-json",
                    "serve_stats.json",
                ],
                ServeDrill(42, None, Some("serve_stats.json")),
            ),
            (
                &[
                    "serve-drill",
                    "--seed",
                    "7",
                    "--write-bench",
                    "drill7a.json",
                ],
                ServeDrill(7, Some("drill7a.json"), None),
            ),
            (&["serve-drill", "--seed", "42"], ServeDrill(42, None, None)),
            (
                &["serve-drill", "--write-bench", "BENCH_serve-drill.json"],
                ServeDrill(0, Some("BENCH_serve-drill.json"), None),
            ),
            (
                &[
                    "serve-drill",
                    "--seed",
                    "42",
                    "--write-bench",
                    "BENCH_serve-drill.json",
                    "--stats-json",
                    "stats.json",
                ],
                ServeDrill(42, Some("BENCH_serve-drill.json"), Some("stats.json")),
            ),
            (
                &[
                    "dse",
                    "--net",
                    "alexnet",
                    "--suite",
                    "smoke",
                    "--axis",
                    "clusters=2,4",
                    "--axis",
                    "frequency-mhz=450,600",
                    "--axis",
                    "precision=single,half",
                    "--out",
                    "dse_smoke.json",
                ],
                Dse(
                    "alexnet",
                    Box::new(smoke_space),
                    sweep("smoke", Expansion::Grid, 0),
                    Some("dse_smoke.json"),
                ),
            ),
            (&["dse", "--check", SMOKE], DseCheck(SMOKE, 0)),
            (
                &["dse", "--check", SMOKE, "--workers", "1"],
                DseCheck(SMOKE, 1),
            ),
            (
                &["dse", "--check", SMOKE, "--workers", "3"],
                DseCheck(SMOKE, 3),
            ),
            (&["dse", "--knobs"], Knobs),
            (
                &["dse", "--axis", "conv-cols=8,12,16,24"],
                Dse(
                    "alexnet",
                    Box::new(space(&[(Knob::ConvCols, &[8.0, 12.0, 16.0, 24.0])])),
                    sweep("dse", Expansion::Grid, 0),
                    None,
                ),
            ),
            (
                &[
                    "dse",
                    "--axis",
                    "clusters=2,4",
                    "--sample",
                    "6",
                    "--seed",
                    "7",
                ],
                Dse(
                    "alexnet",
                    Box::new(space(&[(Knob::Clusters, &[2.0, 4.0])])),
                    sweep("dse", Expansion::Sample { n: 6, seed: 7 }, 0),
                    None,
                ),
            ),
            (
                &[
                    "dse",
                    "--net",
                    "vgg-a",
                    "--kind",
                    "evaluation",
                    "--workers",
                    "2",
                ],
                Dse(
                    "vgg-a",
                    Box::new(space(&[])),
                    DseConfig {
                        kind: evaluation,
                        ..sweep("dse", Expansion::Grid, 2)
                    },
                    None,
                ),
            ),
            (&["serve"], Serve(7878, 4, 16)),
            (
                &["serve", "--port", "7913", "--workers", "2", "--queue", "8"],
                Serve(7913, 2, 8),
            ),
            (
                &["watch", "--port", "7913", "--jobs", "3"],
                Watch("127.0.0.1", 7913, "cnn-s", 3),
            ),
            (
                &[
                    "watch",
                    "--host",
                    "localhost",
                    "--net",
                    "alexnet",
                    "--jobs",
                    "1",
                ],
                Watch("localhost", 7878, "alexnet", 1),
            ),
        ];
        for (a, expected) in cases {
            assert_eq!(parse(a), Ok(format!("{expected:?}")), "{a:?}");
        }
    }

    /// A writer whose reader has gone away, like stdout piped into `head`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_is_an_error_not_a_panic() {
        for command in [
            Command::Help,
            Command::List,
            Command::Knobs,
            Command::Experiments(vec!["fig16"]),
            Command::Net("cnn-s"),
        ] {
            let shown = format!("{command:?}");
            let err = command.run(&mut ClosedPipe).expect_err(&shown);
            let kind = err.downcast_ref::<io::Error>().map(io::Error::kind);
            assert_eq!(kind, Some(io::ErrorKind::BrokenPipe), "{shown}: {err}");
        }
    }

    /// Tokens the property test draws argv from: every subcommand and
    /// flag, experiment ids, and junk.
    fn tokens() -> Vec<&'static str> {
        let mut tokens = table_flags();
        tokens.extend(["serve", "watch", "dse", "serve-drill", "--help", "-h"]);
        tokens.extend([
            "fig16",
            "faults",
            "alexnet",
            "cnn-s",
            "a.json",
            "clusters=2,4",
        ]);
        tokens.extend([
            "0", "1", "-1", "70000", "training", "stage", "", "-", "--", "--bogus",
        ]);
        tokens
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn parser_never_panics_and_accepts_only_its_modes_flags(
            picks in prop::collection::vec(0..tokens().len(), 0..8)
        ) {
            let pool = tokens();
            let a: Vec<String> = picks.iter().map(|&i| pool[i].to_string()).collect();
            let parsed = Command::parse(&a);
            if let Ok((mode, args)) = Mode::select(&a) {
                let rest = &a[usize::from(!mode.sub.is_empty())..];
                for flag in rest.iter().filter(|t| t.starts_with("--")) {
                    prop_assert!(mode.reads(flag), "{a:?}: `{flag}` accepted by `{}`", mode.name());
                }
                prop_assert!(args.positionals.len() <= mode.positionals, "{a:?}");
                prop_assert!(args.flags.iter().all(|&(f, _)| mode.reads(f)), "{a:?}");
                let help = a.iter().any(|t| t == "--help" || t == "-h");
                prop_assert!(help || parsed.is_ok() == (mode.build)(&args).is_ok(), "{a:?}");
            }
        }
    }
}
