//! `func-train`: an SGD loop on `alexnet-func` on the session's default
//! execution tier. Each step is one training iteration on a seeded image
//! and golden output; the SGD update and an evaluation pass (forward
//! propagation only) run once per minibatch.
//! Nearly all the time goes to the functional simulator. Training and
//! evaluation use the machine differently — evaluation skips backprop and
//! the small-output/large-kernel weight-gradient convolution — so a kernel
//! change that helps one and costs the other shows up.

use crate::host::{self, Digest};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::{stats, Metric, Report};
use scaledeep::{CompiledArtifact, Session};
use scaledeep_compiler::codegen::conv_weights_to_input_major;
use scaledeep_dnn::{zoo, FeatureShape, Layer, LayerNode, Network};
use scaledeep_sim::func::{Checkpoint, ExecBackend, FuncSim, RunStats};
use scaledeep_tensor::{Executor, Tensor};
use std::fmt::Display;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NET: &str = "alexnet-func";
/// Images per minibatch.
const BATCH: u64 = 4;
/// Minibatches between evaluation passes.
const EVAL_EVERY: u64 = 1;
const LR: f32 = 0.002;
/// The largest weight difference allowed against the reference executor:
/// the tolerance of the functional-equivalence tests.
const TOLERANCE: f32 = 1e-3;
/// The step count at which the simulator's weights are compared with the
/// reference executor's, whatever the run's length: float-order drift
/// between the two grows with the number of steps. Every run trains at
/// least this far.
const CHECKED_STEPS: u64 = 16 * BATCH;
const SETUP_REPS: usize = 5;

fn err(e: impl Display) -> String {
    e.to_string()
}

/// The simulator ready to train, and what it was built from.
struct Program {
    net: Network,
    artifact: Arc<CompiledArtifact>,
    sim: FuncSim,
}

/// The program set-up: initial parameters, compile, load, import.
fn setup(seed: u64, spans: &mut Spans) -> Result<Program, String> {
    let net = zoo::by_name(NET).ok_or_else(|| format!("unknown network `{NET}`"))?;
    let session = Session::single_precision();
    let params = spans
        .time("tensor", "tensor.executor_new", |_| {
            Executor::new(&net, seed)
        })
        .map_err(err)?;
    let artifact = spans
        .time("compiler", "session.compile_miss", |_| {
            session.compile(&net)
        })
        .map_err(err)?;
    let mut sim = spans
        .time("sim.func", "sim.func.from_artifact", |_| {
            FuncSim::from_artifact(&net, &artifact)
        })
        .map_err(err)?;
    sim.set_backend(session.exec_backend());
    spans
        .time("sim.func", "sim.func.import_params", |_| {
            sim.import_params(&params)
        })
        .map_err(err)?;
    Ok(Program { net, artifact, sim })
}

fn train_span(backend: ExecBackend) -> &'static str {
    match backend {
        ExecBackend::Interpreter => "sim.func.train_iter.interpreter",
        ExecBackend::Compiled => "sim.func.train_iter.compiled",
    }
}

fn eval_span(backend: ExecBackend) -> &'static str {
    match backend {
        ExecBackend::Interpreter => "sim.func.eval.interpreter",
        ExecBackend::Compiled => "sim.func.eval.compiled",
    }
}

/// Input sizes: the image, and the golden output the loss compares with.
fn io_lens(net: &Network) -> Result<(usize, usize), String> {
    let loss = net
        .layers()
        .find(|n| matches!(n.layer(), Layer::Loss))
        .ok_or("the network has no loss head")?;
    Ok((
        net.input().output_shape().elems(),
        net.input_shapes(loss.id())[0].elems(),
    ))
}

/// The seeded image (values in [-1, 1)) and golden output (in [0, 1)) of
/// training step `step`.
fn sample(seed: u64, step: u64, (image_len, golden_len): (usize, usize)) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Rng::stream(seed, step);
    let image = (0..image_len).map(|_| rng.unit() * 2.0 - 1.0).collect();
    let golden = (0..golden_len).map(|_| rng.unit()).collect();
    (image, golden)
}

/// A simulator on the `backend` tier, loaded with the same initial
/// parameters as the set-up's.
fn tier(
    net: &Network,
    artifact: &CompiledArtifact,
    seed: u64,
    backend: ExecBackend,
) -> Result<FuncSim, String> {
    let mut sim = FuncSim::from_artifact(net, artifact)
        .map_err(err)?
        .with_backend(backend);
    sim.import_params(&Executor::new(net, seed).map_err(err)?)
        .map_err(err)?;
    Ok(sim)
}

pub fn run(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let mut program = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped first, so peak memory holds one.
        drop(program.take());
        let (built, took) = spans.timed("bench", "setup", |s| setup(seed, s));
        program = Some(built?);
        report.setup_s.push(took.as_secs_f64());
    }
    let Program {
        net,
        artifact,
        mut sim,
    } = program.expect("SETUP_REPS is positive");
    let lens = io_lens(&net)?;
    let backend = sim.backend();
    let other = match backend {
        ExecBackend::Interpreter => ExecBackend::Compiled,
        ExecBackend::Compiled => ExecBackend::Interpreter,
    };
    // Traced runs keep the other tier in lockstep, to time both tiers on
    // the same steps.
    let mut twin = match spans.is_on() {
        true => Some(tier(&net, &artifact, seed, other)?),
        false => None,
    };
    let probe = sample(seed, u64::MAX, lens).0;

    // One untimed minibatch and evaluation first: a fresh machine's first
    // iterations run slow.
    let mut step = 0;
    let mut first: Option<(RunStats, Checkpoint)> = None;
    while step < BATCH {
        let (image, golden) = sample(seed, step, lens);
        let stats = sim.run_iteration(&image, &golden).map_err(err)?;
        if let Some(t) = twin.as_mut() {
            t.run_iteration(&image, &golden).map_err(err)?;
        }
        match &first {
            None => {
                digest_stats(&mut report.digest, &stats);
                first = Some((stats, sim.checkpoint()));
            }
            Some((first_stats, _)) => report.check(stats == *first_stats, || {
                format!("iteration {}: RunStats differ from iteration 1", step + 1)
            }),
        }
        step += 1;
    }
    sim.apply_sgd(LR, BATCH as usize).map_err(err)?;
    let first_eval = sim.run_evaluation(&probe).map_err(err)?;
    if let Some(t) = twin.as_mut() {
        t.apply_sgd(LR, BATCH as usize).map_err(err)?;
        t.run_evaluation(&probe).map_err(err)?;
    }
    digest_stats(&mut report.digest, &first_eval);
    for (node, weights) in sim_weights(&sim, &artifact, &net)? {
        report.digest.str(node.name());
        for w in weights {
            report.digest.u64(u64::from(w.to_bits()));
        }
    }
    let (first_train, first_checkpoint) = first.expect("the warm-up ran iteration 1");

    let mut sim_secs = 0.0;
    let mut instructions = 0u64;
    let mut minibatches = 0;
    let mut checked_weights = None;
    let started = Instant::now();
    while step < CHECKED_STEPS || started.elapsed() < budget {
        host::rotate_cpu(Some(minibatches as usize));
        for _ in 0..BATCH {
            let (image, golden) = sample(seed, step, lens);
            let (stats, took) = spans.timed("sim.func", train_span(backend), |_| {
                sim.run_iteration(&image, &golden)
            });
            let stats = stats.map_err(err)?;
            report.main_ms.push(took.as_secs_f64() * 1e3);
            sim_secs += took.as_secs_f64();
            instructions += stats.instructions;
            report.check(stats == first_train, || {
                format!("iteration {}: RunStats differ from iteration 1", step + 1)
            });
            if let Some(t) = twin.as_mut() {
                spans
                    .time("sim.func", train_span(other), |_| {
                        t.run_iteration(&image, &golden)
                    })
                    .map_err(err)?;
            }
            step += 1;
        }
        spans
            .time("sim.func", "sim.func.apply_sgd", |_| {
                sim.apply_sgd(LR, BATCH as usize)
            })
            .map_err(err)?;
        if let Some(t) = twin.as_mut() {
            t.apply_sgd(LR, BATCH as usize).map_err(err)?;
        }
        if step == CHECKED_STEPS {
            checked_weights = Some(sim_weights(&sim, &artifact, &net)?);
        }
        minibatches += 1;
        if minibatches % EVAL_EVERY == 0 {
            let (stats, took) = spans.timed("sim.func", eval_span(backend), |_| {
                sim.run_evaluation(&probe)
            });
            let stats = stats.map_err(err)?;
            report.alt_ms.push(took.as_secs_f64() * 1e3);
            sim_secs += took.as_secs_f64();
            instructions += stats.instructions;
            report.check(stats == first_eval, || {
                "an evaluation pass's RunStats differ from the first".to_string()
            });
            if let Some(t) = twin.as_mut() {
                spans
                    .time("sim.func", eval_span(other), |_| t.run_evaluation(&probe))
                    .map_err(err)?;
            }
        }
    }

    host::rotate_cpu(None);
    report.peak_rss_mb = host::peak_rss_mb();
    drop(twin);

    // The other tier, from the same parameters, must agree with the default
    // tier on iteration 1.
    let mut twin = tier(&net, &artifact, seed, other)?;
    let (image, golden) = sample(seed, 0, lens);
    let twin_stats = twin.run_iteration(&image, &golden).map_err(err)?;
    let agree = twin_stats == first_train && twin.checkpoint() == first_checkpoint;
    report.check(agree, || {
        format!(
            "the {} and {} tiers disagree on iteration 1",
            backend.name(),
            other.name()
        )
    });

    let checked_weights = checked_weights.expect("every run trains CHECKED_STEPS steps");
    let reference = train_reference(&net, seed, CHECKED_STEPS, lens)?;
    let diff = max_weight_diff(&checked_weights, &reference, &net)?;
    report.check(diff <= TOLERANCE, || {
        format!(
            "after {CHECKED_STEPS} steps the weights differ from the reference executor's by {diff}"
        )
    });

    report.work_per_s = instructions as f64 / sim_secs / 1e3;
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    report.named = vec![
        Metric::new("func_sim_kinst_per_s", report.work_per_s, "kinst/s"),
        Metric::new("func_train_iter_ms_p50", median(&report.main_ms), "ms"),
        Metric::new("func_eval_ms_p50", median(&report.alt_ms), "ms"),
    ];
    if let Some((p, v)) = stats::tail(&report.main_ms) {
        report
            .named
            .push(Metric::new(format!("func_train_iter_ms_p{p}"), v, "ms"));
    }
    if spans.is_on() {
        report.layers = layer_metrics(spans, backend, &first_train);
    }
    Ok(report)
}

fn layer_metrics(spans: &Spans, backend: ExecBackend, first: &RunStats) -> Vec<Metric> {
    let ms = |name: &str| stats::median(&spans.durations_us(name)).unwrap_or(f64::NAN) / 1e3;
    let mut layers = Vec::new();
    for b in [ExecBackend::Interpreter, ExecBackend::Compiled] {
        layers.push(Metric::new(
            format!("sim.func.train_iter_ms.{}", b.name()),
            ms(train_span(b)),
            "ms",
        ));
        layers.push(Metric::new(
            format!("sim.func.eval_ms.{}", b.name()),
            ms(eval_span(b)),
            "ms",
        ));
    }
    layers.extend([
        Metric::new(
            "sim.func.ns_per_inst",
            ms(train_span(backend)) * 1e6 / first.instructions as f64,
            "ns",
        ),
        Metric::new("sim.func.instructions", first.instructions as f64, "count"),
        Metric::new("sim.func.cycles", first.cycles as f64, "count"),
        Metric::new("sim.func.stalls", first.stalls as f64, "count"),
        Metric::new(
            "sim.func.from_artifact_ms",
            ms("sim.func.from_artifact"),
            "ms",
        ),
        Metric::new(
            "sim.func.import_params_ms",
            ms("sim.func.import_params"),
            "ms",
        ),
        Metric::new("sim.func.apply_sgd_ms", ms("sim.func.apply_sgd"), "ms"),
        Metric::new("tensor.executor_new_ms", ms("tensor.executor_new"), "ms"),
    ]);
    layers
}

/// The reference: the tensor executor trained on the same steps. The
/// functional target drops bias terms, so the reference holds its biases
/// at zero to train the same model.
fn train_reference(
    net: &Network,
    seed: u64,
    steps: u64,
    lens: (usize, usize),
) -> Result<Executor, String> {
    let in_shape = net.input().output_shape();
    let mut reference = Executor::new(net, seed).map_err(err)?;
    for step in 0..steps {
        let (image, golden) = sample(seed, step, lens);
        let x = Tensor::from_vec(in_shape, image).map_err(err)?;
        let g = Tensor::from_vec(FeatureShape::vector(lens.1), golden).map_err(err)?;
        reference.forward(&x).map_err(err)?;
        reference.backward(&g).map_err(err)?;
        if (step + 1) % BATCH == 0 {
            reference.step(LR, BATCH as usize);
            for node in net.layers() {
                let id = node.id();
                let Some((w, b)) = reference.params(id) else {
                    continue;
                };
                if b.iter().all(|&v| v == 0.0) {
                    continue;
                }
                let (w, zeros) = (w.to_vec(), vec![0.0; b.len()]);
                reference.set_params(id, &w, &zeros).map_err(err)?;
            }
        }
    }
    Ok(reference)
}

/// Every weighted layer's weights as the simulator holds them (compiled
/// layouts), in network order.
fn sim_weights<'n>(
    sim: &FuncSim,
    artifact: &CompiledArtifact,
    net: &'n Network,
) -> Result<Vec<(&'n LayerNode, Vec<f32>)>, String> {
    let compiled = artifact.functional().map_err(err)?;
    Ok(net
        .layers()
        .filter_map(|n| {
            compiled.buffers[n.id().index()]
                .weights
                .map(|loc| (n, sim.read_buffer(loc)))
        })
        .collect())
}

/// The largest difference between the simulator's weights and the
/// reference executor's, converted to the compiled layouts (NaN counts as
/// infinitely far).
fn max_weight_diff(
    simulated: &[(&LayerNode, Vec<f32>)],
    reference: &Executor,
    net: &Network,
) -> Result<f32, String> {
    let mut worst = 0.0f32;
    for (node, got) in simulated {
        let id = node.id();
        let (w, _) = reference
            .params(id)
            .ok_or_else(|| format!("no reference weights for {}", node.name()))?;
        let expected = match node.layer() {
            Layer::Conv(c) => conv_weights_to_input_major(
                w,
                net.input_shapes(id)[0].features,
                c.out_features,
                c.groups,
                c.kernel,
            ),
            _ => w.to_vec(),
        };
        if got.len() != expected.len() {
            return Err(format!(
                "{}: {} weights simulated, {} in the reference",
                node.name(),
                got.len(),
                expected.len()
            ));
        }
        for (a, b) in got.iter().zip(&expected) {
            let d = (a - b).abs();
            worst = if d.is_nan() {
                f32::INFINITY
            } else {
                worst.max(d)
            };
        }
    }
    Ok(worst)
}

/// Folds an iteration's statistics into the digest.
fn digest_stats(d: &mut Digest, s: &RunStats) {
    for v in [s.instructions, s.rounds, s.stalls, s.cycles, s.faults] {
        d.u64(v);
    }
    for t in &s.per_tile {
        d.u64(t.busy);
        d.u64(t.stalls);
    }
}
