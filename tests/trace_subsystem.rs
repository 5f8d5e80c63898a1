//! End-to-end checks of the `scaledeep-trace` observability subsystem:
//! deterministic exports, trace/stats agreement (per-tile busy spans sum
//! to exactly the stats' busy cycles), validator-clean Chrome traces,
//! category filtering, flight-recorder bounding, the
//! functional registry as a rendering of its run record, and the zero
//! cost of a disabled tracer (timed in release builds only).

use scaledeep::{Observer, ResilientRun, Session, Trace, TraceConfig};
use scaledeep_arch::presets;
use scaledeep_compiler::pipeline::{compile, CompileOptions};
use scaledeep_dnn::{zoo, Activation, Conv, Fc, FeatureShape, Network, NetworkBuilder};
use scaledeep_sim::fault::{FaultKind, FaultPlan};
use scaledeep_sim::func::FuncSim;
use scaledeep_sim::perf::RunKind;
use scaledeep_tensor::Executor;
use scaledeep_trace::{
    fnv1a, validate_chrome_trace, Category, CategoryMask, Event, Fnv1aWriter, MetricsRegistry,
    Payload, TraceSink, Tracer, FNV1A_OFFSET,
};
use std::hint::black_box;
use std::time::Instant;

/// A resilient run observed by a [`TraceConfig`] trace.
fn resilient_traced(
    s: &Session,
    net: &Network,
    plan: &FaultPlan,
    cfg: &TraceConfig,
) -> (ResilientRun, Trace) {
    let run = s
        .run_resilient_with(net, plan, Observer::Trace(*cfg))
        .unwrap();
    (run.value, run.trace.unwrap())
}

fn tiny_training_net() -> Network {
    let mut b = NetworkBuilder::new("traced", FeatureShape::new(1, 6, 6));
    let c = b
        .conv(
            "c",
            Conv {
                out_features: 2,
                kernel: 3,
                stride: 1,
                pad: 1,
                groups: 1,
                bias: false,
                activation: Activation::Relu,
            },
        )
        .unwrap();
    let f = b
        .fc_from(
            "f",
            c,
            Fc {
                out_neurons: 4,
                bias: false,
                activation: Activation::None,
            },
        )
        .unwrap();
    b.finish_with_loss(f).unwrap()
}

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let s = Session::single_precision();
    let net = zoo::alexnet();
    let cfg = TraceConfig::default();
    let a = s.run_traced(&net, RunKind::Training, &cfg).unwrap();
    let b = s.run_traced(&net, RunKind::Training, &cfg).unwrap();
    assert_eq!(a.trace.chrome_trace(), b.trace.chrome_trace());
    assert_eq!(a.trace.cycle_csv(), b.trace.cycle_csv());
    assert_eq!(a.trace.metrics_report(), b.trace.metrics_report());
}

#[test]
fn perf_trace_validates_and_spans_every_stage() {
    let s = Session::single_precision();
    let traced = s
        .run_traced(&zoo::alexnet(), RunKind::Training, &TraceConfig::default())
        .unwrap();
    let summary = validate_chrome_trace(&traced.trace.chrome_trace()).unwrap();
    assert!(summary.spans > 0);
    // One track per weighted layer plus the sync track.
    assert_eq!(summary.tracks as usize, traced.trace.tracks.len());
    assert!(traced.trace.tracks.iter().any(|(_, n)| n == "sync"));
    let csv = traced.trace.cycle_csv();
    assert!(csv.starts_with("cycle,track,category,event,dur,detail"));
    // Stage busy counters in the registry equal the span sums per track.
    for (id, name) in traced.trace.tracks.iter() {
        let Some(rest) = name.strip_prefix("stage ") else {
            continue;
        };
        let stage: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let spans: u64 = traced
            .trace
            .events
            .iter()
            .filter(|e| e.track == id && e.is_span())
            .map(|e| e.dur)
            .sum();
        let counter = traced
            .trace
            .metrics
            .counter_value(&format!("perf.stage.{stage}.busy"))
            .unwrap_or_else(|| panic!("no busy counter for {name}"));
        assert_eq!(spans, counter, "span sum vs registry for {name}");
    }
}

#[test]
fn functional_busy_spans_sum_to_per_tile_stats() {
    let s = Session::single_precision();
    let (run, trace) = resilient_traced(
        &s,
        &tiny_training_net(),
        &FaultPlan::none(),
        &TraceConfig::default(),
    );
    assert!(!run.retried);
    validate_chrome_trace(&trace.chrome_trace()).unwrap();

    // Every retire span on a tile track carries exactly the cycles the
    // machine charged that tile, so the sums must match the stats (and
    // the registry counters the stats were read from) exactly.
    let mut checked = 0;
    for (id, name) in trace.tracks.iter() {
        let Some(idx) = name.strip_prefix("tile ") else {
            continue;
        };
        let tile: usize = idx.trim().parse().unwrap();
        let spans: u64 = trace
            .events
            .iter()
            .filter(|e| e.track == id && e.is_span())
            .map(|e| e.dur)
            .sum();
        let busy = run.stats.per_tile.get(tile).map_or(0, |t| t.busy);
        assert_eq!(spans, busy, "tile {tile} busy spans vs RunStats");
        if busy > 0 {
            checked += 1;
        }
    }
    assert!(checked > 0, "no busy tile tracks recorded");
    // Aggregate counters agree with the stats too.
    assert_eq!(
        trace.metrics.counter_value("func.instructions"),
        Some(run.stats.instructions)
    );
    assert_eq!(
        trace.metrics.counter_value("func.stalls"),
        Some(run.stats.stalls)
    );
    assert_eq!(
        trace.metrics.counter_value("func.cycles"),
        Some(run.stats.cycles)
    );
}

#[test]
fn category_filter_drops_other_categories_without_changing_results() {
    let s = Session::single_precision();
    let net = tiny_training_net();
    let full_cfg = TraceConfig::default();
    let stage_only = TraceConfig {
        filter: CategoryMask::just(Category::Instruction),
        ..TraceConfig::default()
    };
    let (full_run, full) = resilient_traced(&s, &net, &FaultPlan::none(), &full_cfg);
    let (filtered_run, filtered) = resilient_traced(&s, &net, &FaultPlan::none(), &stage_only);
    assert_eq!(
        full_run.stats, filtered_run.stats,
        "filtering is observational"
    );
    assert!(filtered
        .events
        .iter()
        .all(|e| e.payload.category() == Category::Instruction));
    let full_inst = full
        .events
        .iter()
        .filter(|e| e.payload.category() == Category::Instruction)
        .count();
    assert_eq!(filtered.events.len(), full_inst);
    assert!(
        full.events.len() > full_inst,
        "full trace has other categories"
    );
}

#[test]
fn flight_recorder_bounds_retention_and_counts_drops() {
    let s = Session::single_precision();
    let (_, trace) = resilient_traced(
        &s,
        &tiny_training_net(),
        &FaultPlan::none(),
        &TraceConfig::flight_recorder(16),
    );
    assert_eq!(trace.events.len(), 16);
    assert!(trace.dropped > 0);
    // The retained tail is the *end* of the run: its last event must be
    // the run's chronologically last emission (the final retire/wake).
    let max_at = trace.events.iter().map(|e| e.at).max().unwrap();
    assert_eq!(trace.events.last().unwrap().at, max_at);
}

#[test]
fn fault_events_appear_on_the_fault_track() {
    use scaledeep_sim::fault::FaultKind;
    let s = Session::single_precision();
    let plan = FaultPlan::seeded(3).with_fault(
        2,
        FaultKind::BitFlip {
            tile: 0,
            addr: 0,
            bit: 3,
        },
    );
    let (run, trace) = resilient_traced(&s, &tiny_training_net(), &plan, &TraceConfig::default());
    assert!(run.stats.faults > 0);
    let faults: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.payload, Payload::Fault { .. }))
        .collect();
    assert_eq!(faults.len() as u64, run.stats.faults);
    for f in faults {
        assert_eq!(trace.tracks.name(f.track), "faults");
    }
    validate_chrome_trace(&trace.chrome_trace()).unwrap();
}

/// FNV-1a-64 of `text`'s bytes.
fn hash(text: &str) -> u64 {
    fnv1a(FNV1A_OFFSET, text.bytes())
}

/// The exported bytes of recorded performance runs, pinned: the Chrome
/// JSON, the per-cycle CSV and the metrics report of an alexnet training
/// run, fault-free and under seeded link faults (retry instants, sync
/// spans with back-off), plus the progress stream of the faulted run. Any
/// change to the event-ordered drive's emission order, timestamps,
/// payloads or counters changes a hash. The fault-free JSON and CSV are
/// the bytes `repro --trace a.json` writes.
#[test]
fn recorded_trace_bytes_are_pinned() {
    use scaledeep_sim::fault::LinkFaults;
    use scaledeep_trace::progress_channel;
    use std::fmt::Write;
    let s = Session::single_precision();
    let artifact = s.compile(&zoo::alexnet()).unwrap();
    let faulted = FaultPlan::seeded(7).with_link_faults(LinkFaults {
        prob: 0.1,
        base_backoff: 16,
        max_retries: 4,
    });
    let pins = [
        (
            FaultPlan::none(),
            [
                0xf18e_7101_c6d2_c4c7,
                0x81b8_527c_1cc6_d549,
                0xd742_1e08_b18c_104b,
            ],
        ),
        (
            faulted.clone(),
            [
                0xb909_017e_fd5a_c01a,
                0x55f9_a9cb_f783_a388,
                0xb133_fb13_eb8c_281f,
            ],
        ),
    ];
    for (plan, [json, csv, metrics]) in pins {
        let obs = Observer::Trace(TraceConfig::default());
        let run = s.run_mapped_with(&artifact, RunKind::Training, &plan, obs);
        let trace = run.trace.unwrap();
        assert_eq!(trace.dropped, 0);
        let got = [
            hash(&trace.chrome_trace()),
            hash(&trace.cycle_csv()),
            hash(&trace.metrics_report()),
        ];
        assert_eq!(got, [json, csv, metrics], "{plan:?}: {got:#x?}");
    }
    let (tx, rx) = progress_channel(1 << 16);
    s.run_mapped_with(
        &artifact,
        RunKind::Training,
        &faulted,
        Observer::Progress(&tx),
    );
    assert_eq!(rx.dropped(), 0);
    let mut stream = Fnv1aWriter::new();
    for update in rx.drain() {
        writeln!(stream, "{update:?}").unwrap();
    }
    assert_eq!(
        stream.finish(),
        0xda4f_06d7_3145_6795,
        "progress: {:#x}",
        stream.finish()
    );
}

/// Best-of-`n` wall-clock times of two arms, `arm(false)` and
/// `arm(true)`, in nanoseconds per sample. The arms alternate sample by
/// sample, so a stretch of contention (other test binaries sharing the
/// cores) lands on both arms rather than on whichever ran during it. Each
/// sample times `batch` calls, long enough that one preemption does not
/// dominate it.
fn alternating_min_of_n(n: usize, batch: usize, mut arm: impl FnMut(bool)) -> (u128, u128) {
    let mut sample = |second: bool| {
        let start = Instant::now();
        for _ in 0..batch {
            arm(second);
        }
        start.elapsed().as_nanos()
    };
    let (mut best_a, mut best_b) = (u128::MAX, u128::MAX);
    for _ in 0..n {
        best_a = best_a.min(sample(false));
        best_b = best_b.min(sample(true));
    }
    (best_a, best_b)
}

/// A sink that is off through a runtime flag — so, unlike `NullSink`,
/// the compiler cannot fold the instrumentation's guards away — and that
/// fails the test if anything is ever recorded into it.
struct TrippingSink {
    on: bool,
}

impl TraceSink for TrippingSink {
    fn is_active(&self) -> bool {
        self.on
    }

    fn wants(&self, _cat: Category) -> bool {
        self.on
    }

    fn emit(&mut self, ev: Event) {
        panic!("a disabled tracer recorded {ev:?}");
    }
}

/// A disabled tracer costs nothing. Structurally: a functional training
/// iteration under a switched-off [`TrippingSink`] records no event and
/// interns no track, and returns the untraced run's statistics. In time
/// (release builds only): that iteration, whose every instrumentation
/// guard is a runtime branch, costs under 1.5x the untraced
/// `run_iteration`, where `NullSink` folds the guards to constants (min
/// of 20 alternating samples per arm, each a batch of 200 iterations).
#[test]
fn null_sink_tracing_is_free() {
    let net = tiny_training_net();
    let artifact = compile(
        &presets::single_precision(),
        &net,
        &CompileOptions::default(),
    )
    .unwrap();
    let mut sim = FuncSim::from_artifact(&net, &artifact).unwrap();
    sim.import_params(&Executor::new(&net, 1).unwrap()).unwrap();
    let (image, golden) = (vec![0.5f32; 36], vec![0.25f32; 4]);
    let off = || {
        Tracer::new(TrippingSink {
            on: black_box(false),
        })
    };
    let mut tracer = off();
    let stats = sim
        .run_iteration_traced(&image, &golden, &FaultPlan::none(), &mut tracer, None)
        .unwrap();
    assert!(
        tracer.tracks().is_empty(),
        "a disabled tracer interned tracks"
    );
    assert_eq!(stats, sim.run_iteration(&image, &golden).unwrap());
    if cfg!(debug_assertions) {
        return;
    }

    // Warm up before timing.
    for _ in 0..3 {
        sim.run_iteration(&image, &golden).unwrap();
    }
    // One iteration takes about 10 µs; a sample of 200 takes about 2 ms.
    let (baseline, disabled) = alternating_min_of_n(20, 200, |traced| {
        let stats = if traced {
            sim.run_iteration_traced(&image, &golden, &FaultPlan::none(), &mut off(), None)
        } else {
            sim.run_iteration(&image, &golden)
        };
        black_box(stats.unwrap());
    });
    let ratio = disabled as f64 / baseline.max(1) as f64;
    println!("disabled-tracer / baseline min-of-20 ratio: {ratio:.3}");
    assert!(
        ratio < 1.5,
        "disabled tracing regressed the functional sim: {disabled} ns vs {baseline} ns per 200 iterations"
    );
}

/// An observed functional run's registry is the rendering of its typed
/// record: the `func.*` counters and the `func.instruction_cost`
/// histogram, registered in name order, carry exactly the record's
/// values — on a clean run, and on a degraded retry, whose failed first
/// attempt renders nothing.
#[test]
fn functional_registry_renders_the_run_record() {
    let s = Session::single_precision();
    let net = tiny_training_net();
    let kill = FaultPlan::seeded(7).with_fault(1, FaultKind::TileFailure { tile: 0 });
    for (plan, retried) in [(FaultPlan::none(), false), (kill, true)] {
        let (run, trace) = resilient_traced(&s, &net, &plan, &TraceConfig::default());
        assert_eq!(run.retried, retried);
        let mut rendered = MetricsRegistry::new();
        run.stats.write_metrics(&mut rendered);
        assert_eq!(trace.metrics, rendered);

        let stats = &run.stats;
        let mut expected = MetricsRegistry::new();
        for (name, v) in [("func.cycles", stats.cycles), ("func.faults", stats.faults)] {
            let id = expected.counter(name);
            expected.add(id, v);
        }
        let cost = expected.histogram("func.instruction_cost");
        expected.observe_hist(cost, &stats.instruction_cost);
        for (name, v) in [
            ("func.instructions", stats.instructions),
            ("func.rounds", stats.rounds),
            ("func.stalls", stats.stalls),
        ] {
            let id = expected.counter(name);
            expected.add(id, v);
        }
        for (i, t) in stats.per_tile.iter().enumerate() {
            let busy = expected.counter(&format!("func.tile.{i:04}.busy"));
            expected.add(busy, t.busy);
            let stalls = expected.counter(&format!("func.tile.{i:04}.stalls"));
            expected.add(stalls, t.stalls);
        }
        assert_eq!(trace.metrics, expected, "names, values or order moved");
        assert_eq!(stats.instruction_cost.count, stats.instructions);
        assert!(stats.instructions > 0 && !stats.per_tile.is_empty());
    }
}
