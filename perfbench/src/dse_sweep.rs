//! `dse-sweep`: seeded design-space samples swept over four zoo networks,
//! training and evaluation, each sweep on a fresh session. Every distinct
//! design point misses the compile cache, so the time goes to the
//! performance model, the compiler and attribution; infeasible corners take
//! the fast rejection path. No functional simulation runs.

use crate::host::{self, Digest};
use crate::rng::Rng;
use crate::spans::{PhaseClock, Spans};
use crate::{stats, Metric, Report};
use scaledeep::dse::{self, DseConfig, DseReport, Expansion};
use scaledeep::{Attribution, CompileOptions, Session, TraceConfig};
use scaledeep_arch::{DesignPoint, Knob, KnobValue, ParamSpace, Precision};
use scaledeep_compiler::pipeline;
use scaledeep_dnn::{zoo, Network};
use scaledeep_sim::perf::{PerfOptions, RunKind};
use scaledeep_trace::Tracer;
use std::time::Duration;

const NETS: [&str; 4] = ["alexnet", "googlenet", "resnet34", "vgg-d"];
const KINDS: [RunKind; 2] = [RunKind::Training, RunKind::Evaluation];
/// Candidates drawn per sweep: few enough that a 10 s run takes about 90
/// rounds, each a `main_ms` (training) and an `alt_ms` (evaluation) sample.
const POINTS: usize = 32;
/// Points per sweep re-checked against `Session::train`/`evaluate`.
const CHECKED_POINTS: usize = 3;
/// Draws per sweep re-run one layer call at a time when traced (feasible
/// ones, plus the base point), to time compiler phases, the performance
/// model and attribution apart.
const TRACED_POINTS: usize = 8;
const SETUP_REPS: usize = 21;

/// One `dse::run` call and its report.
struct Sweep {
    round: usize,
    net: usize,
    kind: RunKind,
    sample_seed: u64,
    report: DseReport,
}

/// The swept space: seven knobs around the Figure-14 single-precision point.
fn space() -> ParamSpace {
    let nums =
        |values: &[f64]| -> Vec<KnobValue> { values.iter().map(|&v| KnobValue::Num(v)).collect() };
    ParamSpace::new(DesignPoint::figure14_sp())
        .axis(Knob::Clusters, nums(&[1.0, 2.0, 4.0, 8.0]))
        .axis(Knob::ConvChips, nums(&[2.0, 4.0, 6.0]))
        .axis(Knob::FrequencyMhz, nums(&[450.0, 600.0, 750.0]))
        .axis(
            Knob::Precision,
            vec![
                KnobValue::Prec(Precision::Single),
                KnobValue::Prec(Precision::Half),
            ],
        )
        .axis(Knob::ConvCols, nums(&[4.0, 8.0, 12.0, 16.0]))
        .axis(
            Knob::ConvMemCapacityBytes,
            nums(&[131_072.0, 262_144.0, 524_288.0]),
        )
        .axis(Knob::RingBw, nums(&[6e9, 12e9, 24e9]))
}

/// The program set-up: the networks and the space.
fn setup() -> Result<(Vec<Network>, ParamSpace), String> {
    let nets = NETS
        .iter()
        .map(|&n| zoo::by_name(n).ok_or_else(|| format!("unknown network `{n}`")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((nets, space()))
}

pub fn run(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let mut program = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped first, so peak memory holds one.
        drop(program.take());
        let (built, took) = spans.timed("bench", "setup", |_| setup());
        program = Some(built?);
        report.setup_s.push(took.as_secs_f64());
    }
    let (nets, space) = program.expect("SETUP_REPS is positive");

    // The budget counts timed sweeps only; each sweep is checked, untimed,
    // as soon as it ends, and only its digest is kept.
    let per_round = KINDS.len() * NETS.len();
    let mut timed = Duration::ZERO;
    let (mut candidates, mut feasible, mut unique) = (0usize, 0usize, 0u64);
    let mut round = 0;
    while round == 0 || timed < budget {
        for (kind_index, kind) in KINDS.into_iter().enumerate() {
            let mut round_took = Duration::ZERO;
            for (i, net) in nets.iter().enumerate() {
                let position = kind_index * NETS.len() + i;
                let stream = round * per_round + position;
                // DSE reports store the sample seed as a JSON number, which
                // holds integers exactly only up to 2^53.
                let sample_seed = Rng::stream(seed, stream as u64).next_u64() >> 11;
                let cfg = DseConfig {
                    suite: "perfbench".to_string(),
                    kind,
                    expansion: Expansion::Sample {
                        n: POINTS as u64,
                        seed: sample_seed,
                    },
                    workers: 0,
                    shards: 1,
                };
                let hub = Session::single_precision();
                let (out, took) =
                    spans.timed("dse", "dse.run", |_| dse::run(&hub, net, &space, &cfg));
                round_took += took;
                if spans.is_on() {
                    decompose(spans, net, &space, &out, sample_seed, kind)?;
                }
                candidates += out.points.len() + out.infeasible.len();
                feasible += out.points.len();
                let sweep = Sweep {
                    round,
                    net: i,
                    kind,
                    sample_seed,
                    report: out,
                };
                // Reading a report back costs about as much as the sweep, so
                // after round 0 one sweep per round is re-read.
                let reread = round == 0 || position == round % per_round;
                check_sweep(&mut report, &space, net, &sweep, reread);
                if round == 0 {
                    unique += sweep.report.unique_compiles;
                    digest_sweep(&mut report.digest, &sweep.report);
                }
            }
            timed += round_took;
            let ms = round_took.as_secs_f64() * 1e3;
            match kind {
                RunKind::Training => report.main_ms.push(ms),
                RunKind::Evaluation => report.alt_ms.push(ms),
            }
        }
        round += 1;
    }
    report.peak_rss_mb = host::peak_rss_mb();
    report.work_per_s = candidates as f64 / timed.as_secs_f64();
    report.named.push(Metric::new(
        "dse_points_per_s",
        report.work_per_s,
        "points/s",
    ));
    if spans.is_on() {
        let med = |name: &str| stats::median(&spans.durations_us(name)).unwrap_or(f64::NAN);
        for phase in pipeline::PHASES {
            report.layers.push(Metric::new(
                format!("compiler.phase.{}_us", phase.replace('-', "_")),
                med(&format!("compiler.phase.{phase}")),
                "us",
            ));
        }
        let train_us = med("sim.perf.run.training");
        let opts = PerfOptions::default();
        report.layers.extend([
            Metric::new("compiler.compile_us", med("compiler.compile"), "us"),
            Metric::new("sim.perf.run_us.training", train_us, "us"),
            Metric::new(
                "sim.perf.run_us.evaluation",
                med("sim.perf.run.evaluation"),
                "us",
            ),
            Metric::new("sim.perf.traced_run_us", med("sim.perf.run_traced"), "us"),
            Metric::new(
                "sim.perf.ns_per_sim_image",
                train_us * 1e3 / (opts.minibatch * opts.minibatches) as f64,
                "ns",
            ),
            Metric::new("attribution.build_us", med("attribution.build"), "us"),
            Metric::new(
                "dse.feasible_ratio",
                feasible as f64 / candidates as f64,
                "ratio",
            ),
            Metric::new("dse.unique_compiles", unique as f64, "count"),
        ]);
    }
    Ok(report)
}

/// Checks one sweep: when `reread`, its report must survive
/// `DseReport::from_json(to_json())`; and seeded points re-run through
/// `Session::train`/`evaluate` on a retargeted session must reproduce the
/// sweep's numbers exactly.
fn check_sweep(
    report: &mut Report,
    space: &ParamSpace,
    net: &Network,
    sweep: &Sweep,
    reread: bool,
) {
    let what = || {
        format!(
            "{} {:?} sweep of round {}",
            NETS[sweep.net], sweep.kind, sweep.round
        )
    };
    if reread {
        let back = DseReport::from_json(&sweep.report.to_json());
        report.check(back.as_ref() == Ok(&sweep.report), || {
            format!(
                "{}: the report does not survive DseReport::from_json(to_json())",
                what()
            )
        });
    }
    let points = &sweep.report.points;
    if points.is_empty() {
        return;
    }
    let candidates = space.sample(POINTS, sweep.sample_seed);
    let mut pick = Rng::stream(sweep.sample_seed, 1);
    for _ in 0..CHECKED_POINTS {
        let p = &points[pick.below(points.len())];
        let design = candidates
            .iter()
            .find(|c| c.label == p.label)
            .and_then(|c| c.point.as_ref().ok());
        let same = design.is_some_and(|d| {
            let session = Session::single_precision().retarget(d.node_config());
            let result = match sweep.kind {
                RunKind::Training => session.train(net),
                RunKind::Evaluation => session.evaluate(net),
            };
            result.is_ok_and(|r| {
                r.images_per_sec == p.images_per_sec
                    && r.pe_utilization == p.pe_utilization
                    && r.gflops_per_watt == p.gflops_per_watt
                    && r.joules_per_image == p.joules_per_image
            })
        });
        report.check(same, || {
            format!(
                "{}: point `{}` differs from Session::train/evaluate",
                what(),
                p.label
            )
        });
    }
}

/// Re-runs the base point and the feasible ones among a sweep's first
/// draws one layer call at a time, so the trace separates compiler phases,
/// the performance model and attribution.
fn decompose(
    spans: &mut Spans,
    net: &Network,
    space: &ParamSpace,
    swept: &DseReport,
    sample_seed: u64,
    kind: RunKind,
) -> Result<(), String> {
    let err = |e: scaledeep::Error| e.to_string();
    let draws = space.sample(TRACED_POINTS, sample_seed);
    let feasible = draws
        .iter()
        .filter(|c| swept.points.iter().any(|p| p.label == c.label))
        .filter_map(|c| c.point.as_ref().ok().copied());
    for point in std::iter::once(space.base()).chain(feasible) {
        spans.next_run();
        let node = point.node_config();
        spans
            .time("compiler", "compiler.compile", |s| {
                let mut clock = Tracer::new(PhaseClock::start());
                let compiled =
                    pipeline::compile_traced(&node, net, &CompileOptions::default(), &mut clock);
                for &(phase, start, end) in &clock.sink().phases {
                    s.record("compiler", &format!("compiler.phase.{phase}"), start, end);
                }
                compiled.map(drop)
            })
            .map_err(|e| e.to_string())?;
        let session = Session::with_node(node);
        let artifact = spans
            .time("compiler", "session.compile_miss", |_| session.compile(net))
            .map_err(err)?;
        let traced = spans
            .time("sim.perf", "sim.perf.run_traced", |_| {
                session.run_traced(net, kind, &TraceConfig::default())
            })
            .map_err(err)?;
        spans
            .time("attribution", "attribution.build", |_| {
                Attribution::build(&traced, &artifact, net, &node)
            })
            .map_err(err)?;
        for (kind, name) in [
            (RunKind::Training, "sim.perf.run.training"),
            (RunKind::Evaluation, "sim.perf.run.evaluation"),
        ] {
            std::hint::black_box(
                spans.time("sim.perf", name, |_| session.run_mapped(&artifact, kind)),
            );
        }
    }
    Ok(())
}

/// Folds every simulated quantity of a sweep report into the digest.
fn digest_sweep(d: &mut Digest, r: &DseReport) {
    d.u64(r.unique_compiles);
    for p in &r.points {
        d.str(&p.label);
        d.str(&p.fingerprint);
        d.str(&p.precision);
        d.u64(p.total_tiles);
        for v in [
            p.peak_flops,
            p.peak_power_watts,
            p.images_per_sec,
            p.pe_utilization,
            p.sfu_utilization,
            p.achieved_flops,
            p.gflops_per_watt,
            p.joules_per_image,
            p.compute_joules,
            p.memory_joules,
            p.interconnect_joules,
        ] {
            d.f64(v);
        }
        d.u64(p.busy_cycles);
        d.u64(p.sync_cycles);
    }
    for i in &r.infeasible {
        d.str(&i.label);
        d.str(&i.error);
    }
    for &f in &r.frontier {
        d.u64(f);
    }
}
