//! The end-to-end session API.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::{Error, Result};
use scaledeep_arch::{presets, NodeConfig};
use scaledeep_compiler::artifact_io;
use scaledeep_compiler::pipeline::{self, Provenance};
use scaledeep_compiler::{CompileOptions, CompiledArtifact, FailedTiles};
use scaledeep_dnn::Network;
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::func::{ExecBackend, FuncSim, RunStats};
use scaledeep_sim::perf::{self, NodeOutcome, PerfOptions, PerfResult, PerfSim, RunKind};
use scaledeep_tensor::Executor;
use scaledeep_trace::{
    chrome_trace, cycle_csv, utilization_heatmap, CategoryMask, Event, MetricsRegistry, Payload,
    ProgressSender, ProgressSink, TraceSink, Tracer, TrackTable, VecSink,
};

/// How a traced run records events: which categories pass. A traced
/// run keeps every event that passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-category enable mask (default: all categories).
    pub filter: CategoryMask,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            filter: CategoryMask::all(),
        }
    }
}

/// The observability artifacts of one traced run: the recorded events
/// and the track table naming their timelines. The run's numbers live in
/// its record, which renders its own metrics
/// ([`PerfResult::write_metrics`], [`RunStats::write_metrics`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
    /// Track names for the events' `track` ids.
    pub tracks: TrackTable,
}

impl Trace {
    /// The events rendered as Chrome/Perfetto `trace.json` (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events, &self.tracks)
    }

    /// The events rendered as a SCALE-Sim-style per-cycle CSV.
    pub fn cycle_csv(&self) -> String {
        cycle_csv(&self.events, &self.tracks)
    }

    /// A textual per-track utilization heatmap over `bins` time bins.
    pub fn utilization_report(&self, bins: usize) -> String {
        utilization_heatmap(&self.events, &self.tracks, bins)
    }
}

/// A performance-simulation run plus its trace ([`Session::run_traced`]).
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The simulation result: the typed run record, which
    /// [`PerfResult::write_metrics`] renders under the `perf.*` names.
    pub perf: PerfResult,
    /// The run's observability artifacts.
    pub trace: Trace,
}

/// What a session entry point ([`Session::compile_with`],
/// [`Session::run_mapped_with`], [`Session::run_resilient_with`]) records
/// while it runs. Observing never changes a result: every variant returns
/// exactly what the unobserved run returns.
#[derive(Debug, Clone, Copy)]
pub enum Observer<'a> {
    /// Record nothing.
    Off,
    /// Record a [`Trace`] per the config, returned in [`Observed::trace`].
    Trace(TraceConfig),
    /// Stream live, deterministic, cycle-stamped
    /// [`scaledeep_trace::ProgressUpdate`]s through the sender.
    Progress(&'a ProgressSender),
}

/// A session result plus what its [`Observer`] recorded.
#[derive(Debug, Clone)]
pub struct Observed<T> {
    /// The result, identical under every observer.
    pub value: T,
    /// The recorded trace: `Some` exactly under [`Observer::Trace`].
    pub trace: Option<Trace>,
}

impl<T> Observed<Result<T>> {
    /// Lifts the result's error out; a failed run's trace is dropped.
    fn transpose(self) -> Result<Observed<T>> {
        let trace = self.trace;
        self.value.map(|value| Observed { value, trace })
    }
}

/// Matches an [`Observer`] once into one of the concrete [`Tracer`] types
/// and evaluates `$body` with `$tracer: &mut Tracer<_>` bound, yielding
/// an [`Observed`]. Each arm is monomorphic, so no `dyn` sink ever enters
/// an engine loop.
macro_rules! observe {
    ($obs:expr, |$tracer:ident| $body:expr) => {{
        let (value, trace) = match $obs {
            Observer::Off => {
                let $tracer = &mut Tracer::disabled();
                ($body, None)
            }
            Observer::Progress(tx) => {
                let $tracer = &mut Tracer::new(ProgressSink::new(tx.clone()));
                ($body, None)
            }
            Observer::Trace(cfg) => {
                let mut tracer = Tracer::new(VecSink::masked(cfg.filter));
                let value = {
                    let $tracer = &mut tracer;
                    $body
                };
                (value, Some(into_trace(tracer)))
            }
        };
        Observed { value, trace }
    }};
}

/// Unwraps a recording tracer into a [`Trace`].
fn into_trace(tracer: Tracer<VecSink>) -> Trace {
    let (sink, tracks) = tracer.into_parts();
    Trace {
        events: sink.into_events(),
        tracks,
    }
}

/// Cycle counts from both simulators over the same network, produced by
/// [`Session::cross_check`]: the event-driven functional simulator's
/// cycle-grounded execution of one training image against the analytic
/// performance model's per-image service cycles. The two models share
/// the §3.2 tile parameters, so the counts should agree to within a
/// small factor — a drift flags a regression in either model.
#[derive(Debug, Clone)]
pub struct CycleCrossCheck {
    /// Statistics from the functional simulator's event-driven run of one
    /// full training iteration (FP + BP + WG, single image) on the
    /// compiled tier.
    pub functional: RunStats,
    /// The performance model's per-image service cycles: the sum of every
    /// pipeline stage's service time (the layer-sequential, single-image
    /// interpretation — the same quantity the A4 ablation uses).
    pub perf_per_image_cycles: u64,
    /// The functional run's whole trace; [`CycleCrossCheck::mismatch_report`]
    /// renders its last `CROSS_CHECK_TAIL_EVENTS` events.
    pub trace: Trace,
}

impl CycleCrossCheck {
    /// Functional cycles over perf-model cycles.
    pub fn ratio(&self) -> f64 {
        self.functional.cycles as f64 / self.perf_per_image_cycles.max(1) as f64
    }

    /// True when the two models agree within the expected 2x band.
    pub fn agrees(&self) -> bool {
        let r = self.ratio();
        r > 0.5 && r < 2.0
    }

    /// A diagnostic report when the two models diverge more than 2x:
    /// the cycle counts, the functional run's metrics (its record
    /// rendered through [`RunStats::write_metrics`]), and the trace's
    /// last `CROSS_CHECK_TAIL_EVENTS` events — everything needed to see
    /// where the functional machine spent its final cycles. `None` while
    /// the models agree.
    pub fn mismatch_report(&self) -> Option<String> {
        if self.agrees() {
            return None;
        }
        let mut out = String::new();
        out.push_str(&format!(
            "cycle cross-check mismatch: functional {} vs perf {} cycles (ratio {:.3})\n",
            self.functional.cycles,
            self.perf_per_image_cycles,
            self.ratio()
        ));
        let mut metrics = MetricsRegistry::new();
        self.functional.write_metrics(&mut metrics);
        out.push_str(&format!("\nfunctional metrics:\n{}", metrics.report()));
        let events = &self.trace.events;
        let tail = &events[events.len().saturating_sub(CROSS_CHECK_TAIL_EVENTS)..];
        out.push_str(&format!(
            "\ntrace tail ({} retained, {} dropped):\n{}",
            tail.len(),
            events.len() - tail.len(),
            cycle_csv(tail, &self.trace.tracks)
        ));
        Some(out)
    }
}

/// The outcome of a fault-resilient functional run
/// ([`Session::run_resilient`]): the iteration's statistics plus whether
/// graceful degradation had to kick in.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// Statistics of the (possibly retried) successful iteration.
    pub stats: RunStats,
    /// Whether a permanent tile failure forced a degraded recompile and a
    /// retry from the checkpoint.
    pub retried: bool,
    /// MemHeavy tiles condemned by the fault plan and excluded from the
    /// degraded layout (empty when no retry happened).
    pub dead_tiles: Vec<u16>,
}

/// A snapshot of a session's compile-cache statistics
/// ([`Session::cache_stats`]). Clones of a session share one cache, so
/// the counts aggregate across all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compiles served from the in-memory cache without running the
    /// pipeline.
    pub hits: u64,
    /// Compiles served from the on-disk artifact store
    /// ([`Session::with_artifact_dir`]) without running the pipeline.
    pub disk_hits: u64,
    /// Compiles that ran the pipeline (including ones that erred).
    pub misses: u64,
    /// Stored artifacts that failed to load (torn write, malformed JSON,
    /// key mismatch): each was quarantined and recompiled as a miss.
    pub corrupt: u64,
    /// Total wall-clock nanoseconds spent inside the pipeline, summed
    /// over the misses. Host time, never simulated cycles — report it,
    /// don't trace it.
    pub compile_nanos: u64,
}

/// The shared, lock-free counters behind [`CacheStats`].
#[derive(Debug, Default)]
struct CacheStatsCells {
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    compile_nanos: AtomicU64,
}

/// One provenance key's cache entry: empty until a compile of the key
/// succeeds. The caller that fills it holds its lock for the whole
/// compile, so concurrent callers with the same key wait on the slot and
/// wake to the artifact instead of running the pipeline again.
type Slot = Arc<Mutex<Option<Arc<CompiledArtifact>>>>;

/// A ScaleDeep session: one node configuration plus the performance
/// simulator bound to it and a compile cache keyed on [`Provenance`].
///
/// Every run path compiles through [`Session::compile_with`], the one
/// entry point into the phase pipeline, so an experiment sweep that runs
/// the same network under several run kinds compiles it exactly once.
/// Clones share the cache and its statistics.
#[derive(Debug, Clone)]
pub struct Session {
    node: NodeConfig,
    sim: PerfSim,
    cache: Arc<Mutex<HashMap<u64, Slot>>>,
    stats: Arc<CacheStatsCells>,
    artifact_dir: Option<PathBuf>,
}

impl Session {
    /// The paper's baseline single-precision node (680 TFLOPS, 1.4 kW).
    pub fn single_precision() -> Self {
        Self::with_node(presets::single_precision())
    }

    /// The half-precision design point (1.35 PFLOPS at the same power).
    pub fn half_precision() -> Self {
        Self::with_node(presets::half_precision())
    }

    /// A session over a custom node configuration (design-space studies).
    pub fn with_node(node: NodeConfig) -> Self {
        Self {
            node,
            sim: PerfSim::new(&node),
            cache: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(CacheStatsCells::default()),
            artifact_dir: None,
        }
    }

    /// Re-targets this session onto a different node configuration while
    /// keeping every cache affinity: the in-memory artifact cache, its
    /// statistics cells, the artifact directory and the simulator options
    /// all carry over. Because cache keys include the node's structural
    /// fingerprint, one shared cache serves sessions on *different* design
    /// points correctly. Kept for perfbench, which re-checks DSE points on
    /// retargeted sessions; the DSE driver itself maps each point without
    /// a session.
    pub fn retarget(&self, node: NodeConfig) -> Self {
        Self {
            node,
            sim: PerfSim::new(&node).with_options(*self.sim.options()),
            cache: Arc::clone(&self.cache),
            stats: Arc::clone(&self.stats),
            artifact_dir: self.artifact_dir.clone(),
        }
    }

    /// Backs the compile cache with an on-disk artifact store: every
    /// pipeline run is persisted to `dir` (one JSON file per provenance
    /// key), and a later session — this process or the next — finding a
    /// stored artifact loads it without running a single pipeline phase.
    /// The directory is created on first store.
    pub fn with_artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// The execution tier this session's functional runs use: always
    /// [`ExecBackend::Compiled`], the artifact's pre-decoded micro-op
    /// streams. Kept for perfbench, which selects its tier through it; the
    /// bit-identical interpreter is reached only by the tests and
    /// perfbench.
    pub fn exec_backend(&self) -> ExecBackend {
        ExecBackend::Compiled
    }

    /// Overrides the simulator options (minibatch, ablation knobs, ...).
    /// The compile cache carries over: simulator options do not enter the
    /// pipeline, so cached artifacts stay valid.
    pub fn with_options(mut self, opts: PerfOptions) -> Self {
        self.sim = PerfSim::new(&self.node).with_options(opts);
        self
    }

    /// The session's node configuration.
    pub fn node(&self) -> &NodeConfig {
        &self.node
    }

    /// The simulator options every performance run of this session uses
    /// (the DSE driver prices its candidates under them).
    pub(crate) fn perf_options(&self) -> &PerfOptions {
        self.sim.options()
    }

    /// The file a provenance key's artifact is stored under, when the
    /// session has an artifact directory.
    fn artifact_path(&self, key: u64) -> Option<PathBuf> {
        self.artifact_dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.artifact.json")))
    }

    /// Tries the on-disk artifact store with one read: no file is a plain
    /// miss. A stored artifact is trusted only when it decodes
    /// ([`artifact_io::decode`]) and its provenance re-derives the key it
    /// was filed under; anything else at the path (unreadable, malformed,
    /// mismatched, a directory) is **corrupt** — it is quarantined
    /// (renamed aside for post-mortem), counted, and treated as a plain
    /// miss, so a torn write can degrade a session's cache but never its
    /// correctness.
    fn load_from_disk(&self, key: u64) -> Option<CompiledArtifact> {
        let path = self.artifact_path(key)?;
        let decoded = match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => None,
            Ok(text) => artifact_io::decode(&text).ok(),
        };
        match decoded {
            Some(artifact) if artifact.provenance().cache_key() == key => Some(artifact),
            _ => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                let quarantine = path.with_extension("json.corrupt");
                std::fs::rename(&path, &quarantine).ok();
                None
            }
        }
    }

    /// The session's single compile entry point: runs the phase pipeline
    /// (analyze → allocate-columns → partition-state → assign-compute →
    /// codegen → lower) through the in-session cache, keyed on the
    /// compile's [`Provenance`]. A repeat compile with the same network,
    /// node, and options returns the cached [`CompiledArtifact`] without
    /// touching the pipeline; with an artifact directory configured
    /// ([`Session::with_artifact_dir`]), the store extends across
    /// processes — a repeat *session* loads the stored artifact and runs
    /// zero pipeline phases. A degraded compile is just a compile whose
    /// options carry a non-empty [`FailedTiles`]
    /// ([`CompileOptions::degraded`]). A miss runs all six phases
    /// ([`pipeline::compile_stamped`]). Concurrent callers with the same
    /// key run the pipeline once: the first compiles while the rest wait,
    /// then take its artifact as hits.
    ///
    /// `obs` sees the pipeline phases of a cache miss: under
    /// [`Observer::Progress`] each phase entered becomes a
    /// [`scaledeep_trace::ProgressKind::Phase`] update, under
    /// [`Observer::Trace`] a phase span. Cache hits (memory or disk)
    /// record nothing.
    ///
    /// # Errors
    ///
    /// Propagates mapping-phase failures (including the degraded-specific
    /// `NoCapacity` and `NoRoute` conditions) and artifact-store write
    /// failures. Errors are not cached; a failing compile re-runs (and
    /// re-counts as a miss) on retry.
    pub fn compile_with(
        &self,
        net: &Network,
        opts: &CompileOptions,
        obs: Observer<'_>,
    ) -> Result<Observed<Arc<CompiledArtifact>>> {
        observe!(obs, |tracer| self.compile_observed(net, opts, tracer)).transpose()
    }

    fn compile_observed<S: TraceSink>(
        &self,
        net: &Network,
        opts: &CompileOptions,
        tracer: &mut Tracer<S>,
    ) -> Result<Arc<CompiledArtifact>> {
        let provenance = Provenance::new(&self.node, net, opts);
        let key = provenance.cache_key();
        // The map lock is held only to find the key's slot, so distinct
        // keys never wait on each other. A leader that panics poisons the
        // slot empty; the next waiter takes it over.
        let slot = Arc::clone(
            self.cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default(),
        );
        let mut filled = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = filled.as_ref() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        if let Some(stored) = self.load_from_disk(key) {
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            let artifact = Arc::new(stored);
            *filled = Some(Arc::clone(&artifact));
            return Ok(artifact);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let compiled = pipeline::compile_stamped(net, provenance, tracer);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.compile_nanos.fetch_add(nanos, Ordering::Relaxed);
        let artifact = Arc::new(compiled?);
        if let Some(path) = self.artifact_path(key) {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| Error::Setup {
                    detail: format!("creating artifact dir {}: {e}", dir.display()),
                })?;
            }
            artifact_io::save(&artifact, &path)?;
        }
        *filled = Some(Arc::clone(&artifact));
        Ok(artifact)
    }

    /// Compiles `net` with default options (healthy layout, minibatch 1)
    /// through the session cache.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures (network too large for the node, ...).
    pub fn compile(&self, net: &Network) -> Result<Arc<CompiledArtifact>> {
        Ok(self
            .compile_with(net, &CompileOptions::default(), Observer::Off)?
            .value)
    }

    /// The compile cache's aggregate statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            compile_nanos: self.stats.compile_nanos.load(Ordering::Relaxed),
        }
    }

    /// Simulates training. A plain form of [`Session::run_mapped_with`],
    /// kept for perfbench, which calls it by name.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn train(&self, net: &Network) -> Result<PerfResult> {
        Ok(self.run_mapped(&*self.compile(net)?, RunKind::Training))
    }

    /// Simulates evaluation (inference). A plain form of
    /// [`Session::run_mapped_with`], kept for perfbench, which calls it by
    /// name.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn evaluate(&self, net: &Network) -> Result<PerfResult> {
        Ok(self.run_mapped(&*self.compile(net)?, RunKind::Evaluation))
    }

    /// Simulates an already-compiled artifact. A plain form of
    /// [`Session::run_mapped_with`], kept for perfbench, which calls it by
    /// name.
    pub fn run_mapped(&self, artifact: &CompiledArtifact, kind: RunKind) -> PerfResult {
        self.run_mapped_with(artifact, kind, &FaultPlan::none(), Observer::Off)
            .value
    }

    /// Simulates an already-compiled artifact under a fault plan, observed
    /// by `obs`: transient link errors charge retry/back-off latency,
    /// reported in the result's fault statistics, and the empty plan is
    /// bit-identical to [`Session::run_mapped`]. [`Observer::Trace`]
    /// records the pipeline's stage-occupancy spans, sync spans, and retry
    /// instants; [`Observer::Progress`] streams sync-window completions
    /// and link retries.
    pub fn run_mapped_with(
        &self,
        artifact: &CompiledArtifact,
        kind: RunKind,
        plan: &FaultPlan,
        obs: Observer<'_>,
    ) -> Observed<PerfResult> {
        observe!(obs, |tracer| self.sim.run(
            artifact.mapping(),
            kind,
            plan,
            tracer
        ))
    }

    /// Runs the whole-node model of an already-compiled artifact: every
    /// pipeline replica the mapping runs node-wide, run an epoch at a time
    /// and coupled at each minibatch weight sync by a node-wide max-reduce
    /// (see DESIGN.md §5h).
    pub fn node_outcome(
        &self,
        artifact: &CompiledArtifact,
        kind: RunKind,
        plan: &FaultPlan,
    ) -> NodeOutcome {
        perf::run_node(&self.sim.node_model(artifact.mapping(), kind, plan))
    }

    /// Compiles and simulates `net` with observability: the performance
    /// pipeline's stage-occupancy spans, sync spans, and retry instants
    /// are recorded per `cfg`, and the returned [`TracedRun`] carries the
    /// trace (exportable to Chrome JSON / per-cycle CSV) alongside the
    /// result.
    ///
    /// The compile itself is served from the session cache and stays out
    /// of the run's trace (its spans would differ between a cache miss
    /// and a hit, breaking byte-identical exports); pass
    /// [`Observer::Trace`] to [`Session::compile_with`] to observe the
    /// pipeline's phases, and see [`Session::cache_stats`] for the
    /// hit/miss/wall-clock ledger. A plain form of
    /// [`Session::run_mapped_with`], kept for perfbench, which calls it by
    /// name.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn run_traced(&self, net: &Network, kind: RunKind, cfg: &TraceConfig) -> Result<TracedRun> {
        let artifact = self.compile(net)?;
        let run = self.run_mapped_with(&artifact, kind, &FaultPlan::none(), Observer::Trace(*cfg));
        Ok(TracedRun {
            perf: run.value,
            trace: run.trace.unwrap_or_default(),
        })
    }

    /// Runs one functional training iteration under a fault plan with
    /// graceful degradation: the iteration state is checkpointed up front;
    /// if a permanent tile failure faults the run, the network is
    /// recompiled around the dead tiles, the checkpoint restored into the
    /// degraded layout, and the iteration retried with the permanent
    /// failures dropped from the plan (they are now mapped around). A
    /// plain form of [`Session::run_resilient_with`], kept for perfbench,
    /// which calls it by name.
    ///
    /// # Errors
    ///
    /// Propagates compile errors, non-tile-failure machine faults
    /// (deadlock, watchdog), and degraded-recompile failures (e.g. every
    /// tile dead).
    pub fn run_resilient(&self, net: &Network, plan: &FaultPlan) -> Result<ResilientRun> {
        Ok(self.run_resilient_with(net, plan, Observer::Off)?.value)
    }

    /// [`Session::run_resilient`] observed by `obs`. What is observed is
    /// the *first* attempt — the one the faults hit — plus run-level
    /// instants on the `session` track: [`Payload::Checkpoint`] when the
    /// iteration state is snapshotted and [`Payload::Remap`] when a tile
    /// failure forces the degraded recompile. The degraded retry's events
    /// stay out of the trace (its statistics are the returned ones), so
    /// every track's timeline stays monotone.
    ///
    /// # Errors
    ///
    /// See [`Session::run_resilient`].
    pub fn run_resilient_with(
        &self,
        net: &Network,
        plan: &FaultPlan,
        obs: Observer<'_>,
    ) -> Result<Observed<ResilientRun>> {
        observe!(obs, |tracer| self.run_resilient_impl(net, plan, tracer)).transpose()
    }

    fn run_resilient_impl<S: TraceSink>(
        &self,
        net: &Network,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
    ) -> Result<ResilientRun> {
        let artifact = self.compile(net)?;
        let (mut fsim, image, golden) = seeded_iteration(net, &artifact)?;
        let session_track = if tracer.active() {
            tracer.track("session")
        } else {
            0
        };
        let ckpt = fsim.checkpoint();
        tracer.instant(0, session_track, Payload::Checkpoint);
        match fsim.run_iteration_traced(&image, &golden, plan, tracer) {
            Ok(stats) => Ok(ResilientRun {
                stats,
                retried: false,
                dead_tiles: Vec::new(),
            }),
            Err(Error::TileFailed { .. }) => {
                let dead_tiles = plan.condemned_tiles();
                tracer.instant(
                    0,
                    session_track,
                    Payload::Remap {
                        dead_tiles: dead_tiles.len() as u16,
                    },
                );
                let failed = FailedTiles::from_func_tiles(dead_tiles.iter().copied());
                let degraded = self
                    .compile_with(net, &CompileOptions::degraded(failed), Observer::Off)?
                    .value;
                let mut fsim = FuncSim::from_artifact(net, &degraded)?;
                fsim.restore(&ckpt)?;
                let retry_plan = plan.without_tile_failures();
                // The retry restarts the machine clock at cycle 0; keep
                // its events out of the trace (the tracks would travel
                // back in time).
                let stats = fsim.run_iteration_traced(
                    &image,
                    &golden,
                    &retry_plan,
                    &mut Tracer::disabled(),
                )?;
                Ok(ResilientRun {
                    stats,
                    retried: true,
                    dead_tiles,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `net` through both simulators and returns their cycle counts
    /// for one training image: the functional simulator executes the
    /// compiled micro-op streams event-driven (bit-accurate,
    /// cycle-grounded by the §3.2 cost table), while the performance
    /// model prices the same layers analytically. Both views come from
    /// one [`CompiledArtifact`] — the network is compiled once.
    /// Parameters are seeded deterministically; the input image is an
    /// arbitrary constant (cycle counts are data-independent).
    ///
    /// # Errors
    ///
    /// Propagates functional-compilation and machine faults, and
    /// [`Error::Setup`] when the network has no loss head.
    pub fn cross_check(&self, net: &Network) -> Result<CycleCrossCheck> {
        let artifact = self.compile(net)?;
        let (mut fsim, image, golden) = seeded_iteration(net, &artifact)?;
        // A trace rides along so a divergence can be diagnosed from the
        // run's final events without re-running.
        let mut tracer = Tracer::new(VecSink::new());
        let plan = FaultPlan::none();
        let functional = fsim.run_iteration_traced(&image, &golden, &plan, &mut tracer)?;

        // Per-image service cycles at minibatch 1, so neither batching
        // efficiency nor the pipeline overlap distorts the comparison.
        // The mapping is PerfOptions-independent, so the artifact's
        // mapping is exactly what a minibatch-1 compile would produce.
        let perf = PerfSim::new(&self.node).with_options(PerfOptions {
            minibatch: 1,
            ..PerfOptions::default()
        });
        let result = perf.run(
            artifact.mapping(),
            RunKind::Training,
            &plan,
            &mut Tracer::disabled(),
        );
        let perf_per_image_cycles = result.stages.iter().map(|s| s.service_cycles.max(1)).sum();
        Ok(CycleCrossCheck {
            functional,
            perf_per_image_cycles,
            trace: into_trace(tracer),
        })
    }

    /// Compiles `net`, runs it unobserved, and joins the run record with
    /// the compile's provenance and the analytic per-layer costs into a
    /// versioned [`crate::report::BenchReport`] — the document
    /// `repro --bench-json` serializes and `repro --check` diffs.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn bench_report(&self, net: &Network, kind: RunKind) -> Result<crate::report::BenchReport> {
        let artifact = self.compile(net)?;
        // The run compiles through the cache a second time, like
        // `train`/`evaluate`: the report's cache ledger counts that hit.
        let traced = TracedRun {
            perf: self.run_mapped(&*self.compile(net)?, kind),
            trace: Trace::default(),
        };
        let attribution =
            crate::attribution::Attribution::build(&traced, &artifact, net, &self.node)?;
        // The functional drill: one training iteration, when the
        // functional target can express the network. Its statistics are
        // cycle-accurate, so the BENCH gate pins them byte for byte.
        let functional = match artifact.functional() {
            Err(_) => None,
            Ok(_) => {
                let (mut fsim, image, golden) = seeded_iteration(net, &artifact)?;
                Some(fsim.run_iteration(&image, &golden)?)
            }
        };
        Ok(crate::report::BenchReport {
            attribution,
            perf: traced.perf,
            design: scaledeep_arch::DesignPoint::describe(&self.node),
            seed: FaultPlan::none().seed(),
            provenance_key: artifact.provenance().cache_key(),
            cache: self.cache_stats(),
            functional,
        })
    }

    /// Training throughput of a single chip cluster (the iso-power unit the
    /// paper compares against one GPU card in Figure 18).
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn cluster_train_images_per_sec(&self, net: &Network) -> Result<f64> {
        let r = self.train(net)?;
        Ok(r.images_per_sec / self.node.clusters as f64)
    }
}

/// Trace events [`CycleCrossCheck::mismatch_report`] renders: the last
/// this many of the functional run.
const CROSS_CHECK_TAIL_EVENTS: usize = 256;

/// A functional simulator set up for one seeded training iteration: the
/// artifact's layout, parameters from the deterministic reference seed,
/// and the constant input image (0.5) and golden vector (0.0), sized from
/// [`FuncSim::iteration_buffers`]. Cycle counts and fault behaviour are
/// data-independent; functional correctness is checked against the
/// reference executor on the same constants. Every session-driven
/// functional run and `repro --sweep`'s drill start here.
///
/// # Errors
///
/// Propagates [`FuncSim::from_artifact`]'s errors (the artifact's codegen
/// verdict among them), and [`Error::Setup`] when the network has no loss
/// head.
pub fn seeded_iteration(
    net: &Network,
    artifact: &CompiledArtifact,
) -> Result<(FuncSim, Vec<f32>, Vec<f32>)> {
    let mut fsim = FuncSim::from_artifact(net, artifact)?;
    let (input, golden) = fsim.iteration_buffers()?;
    fsim.import_params(&Executor::new(net, 0xC0FFEE)?)?;
    let image = vec![0.5; input.len as usize];
    Ok((fsim, image, vec![0.0; golden.len as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_dnn::zoo;

    #[test]
    fn session_round_trip() {
        let s = Session::single_precision();
        let a = s.compile(&zoo::alexnet()).unwrap();
        assert!(a.mapping().conv_cols_used() > 0);
        let r = s.train(&zoo::alexnet()).unwrap();
        assert!(r.images_per_sec > 0.0);
    }

    #[test]
    fn sweep_compiles_each_network_exactly_once() {
        // An experiment-style sweep: one network, three run kinds. The
        // first run compiles; every subsequent run hits the cache.
        let s = Session::single_precision();
        let net = zoo::alexnet();
        s.train(&net).unwrap();
        s.evaluate(&net).unwrap();
        s.run_traced(&net, RunKind::Training, &TraceConfig::default())
            .unwrap();
        let stats = s.cache_stats();
        assert_eq!(stats.misses, 1, "one network, one pipeline run");
        assert!(stats.hits >= 2, "repeat runs must hit, got {}", stats.hits);
    }

    #[test]
    fn clones_share_the_cache() {
        let s = Session::single_precision();
        let clone = s.clone();
        s.compile(&zoo::alexnet()).unwrap();
        clone.compile(&zoo::alexnet()).unwrap();
        let stats = s.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(s.cache_stats(), clone.cache_stats());
        assert!(stats.compile_nanos > 0);
    }

    /// Runs `call` on four clones of `s` released together by a barrier.
    fn race<T: Send>(s: &Session, call: impl Fn(&Session) -> T + Sync) -> Vec<T> {
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let (s, barrier, call) = (s.clone(), &barrier, &call);
                    scope.spawn(move || {
                        barrier.wait();
                        call(&s)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_identical_compiles_run_the_pipeline_once() {
        let s = Session::single_precision();
        let net = zoo::alexnet_func();
        let artifacts = race(&s, |s| s.compile(&net).unwrap());
        let stats = s.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 3));
        assert!(artifacts.iter().all(|a| Arc::ptr_eq(a, &artifacts[0])));
    }

    #[test]
    fn concurrent_resilient_runs_compile_once() {
        let s = Session::single_precision();
        let net = zoo::alexnet_func();
        race(&s, |s| s.run_resilient(&net, &FaultPlan::none()).unwrap());
        assert_eq!(s.cache_stats().misses, 1);
    }

    #[test]
    fn only_the_compiling_caller_streams_phases() {
        use scaledeep_trace::progress_channel;
        let s = Session::single_precision();
        let net = zoo::alexnet_func();
        let streams = race(&s, |s| {
            let (tx, rx) = progress_channel(64);
            s.compile_with(&net, &CompileOptions::default(), Observer::Progress(&tx))
                .unwrap();
            rx.drain()
                .iter()
                .filter_map(|u| u.kind.label())
                .collect::<Vec<_>>()
        });
        let leaders: Vec<_> = streams.iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(leaders, [&pipeline::PHASES.to_vec()]);
    }

    #[test]
    fn a_failed_compile_is_not_cached() {
        let mut node = presets::single_precision();
        node.clusters = 1;
        node.cluster.conv_chips = 1;
        node.cluster.conv_chip.cols = 2;
        node.cluster.conv_chip.mem_heavy.capacity_bytes = 64 * 1024;
        let s = Session::with_node(node);
        let net = zoo::vgg_e();
        assert!(s.compile(&net).is_err());
        assert!(s.compile(&net).is_err());
        assert_eq!(s.cache_stats().misses, 2);
    }

    #[test]
    fn degraded_compile_is_its_own_cache_entry() {
        let s = Session::single_precision();
        let net = zoo::alexnet();
        let healthy = s.compile(&net).unwrap();
        let opts = CompileOptions::degraded(FailedTiles::from_columns([3]));
        let degraded = s.compile_with(&net, &opts, Observer::Off).unwrap().value;
        assert!(degraded.is_degraded());
        assert_ne!(
            healthy.provenance().cache_key(),
            degraded.provenance().cache_key()
        );
        // Repeating both compiles hits the cache each time.
        s.compile(&net).unwrap();
        s.compile_with(&net, &opts, Observer::Off).unwrap();
        let stats = s.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 2));
    }

    #[test]
    fn session_stamps_the_provenance_it_keyed_on() {
        // A miss hands its lookup provenance to the pipeline; the stamp
        // must equal a fresh derivation and the standalone compile's.
        let s = Session::single_precision();
        let net = zoo::alexnet();
        for opts in [
            CompileOptions::default(),
            CompileOptions::degraded(FailedTiles::from_columns([3])),
        ] {
            let art = s.compile_with(&net, &opts, Observer::Off).unwrap().value;
            let want = Provenance::new(s.node(), &zoo::alexnet(), &opts);
            assert_eq!(*art.provenance(), want);
            let standalone = pipeline::compile(s.node(), &net, &opts).unwrap();
            assert_eq!(*standalone.provenance(), want);
        }
    }

    #[test]
    fn cluster_rate_is_a_quarter_of_node_rate() {
        let s = Session::single_precision();
        let node = s.train(&zoo::alexnet()).unwrap().images_per_sec;
        let cluster = s.cluster_train_images_per_sec(&zoo::alexnet()).unwrap();
        assert!((node / cluster - 4.0).abs() < 1e-9);
    }

    #[test]
    fn functional_and_perf_cycles_cross_check() {
        use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, NetworkBuilder};
        let mut b = NetworkBuilder::new("xcheck", FeatureShape::new(1, 8, 8));
        let c = b
            .conv(
                "c",
                Conv {
                    out_features: 4,
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
                    out_neurons: 10,
                    bias: false,
                    activation: Activation::None,
                },
            )
            .unwrap();
        let net = b.finish_with_loss(f).unwrap();
        // The functional machine models on-chip execution; lift the
        // wheel-spoke bottleneck (an off-chip link the compiled programs
        // never traverse) so both models price the same work.
        let mut node = presets::single_precision();
        node.cluster.spoke_bw = node.cluster.arc_bw;
        let x = Session::with_node(node).cross_check(&net).unwrap();
        println!(
            "functional {} cycles vs perf {} cycles (ratio {:.3})",
            x.functional.cycles,
            x.perf_per_image_cycles,
            x.ratio()
        );
        assert!(x.functional.cycles > 0);
        assert!(
            x.ratio() > 0.5 && x.ratio() < 2.0,
            "functional {} vs perf {} cycles diverge more than 2x",
            x.functional.cycles,
            x.perf_per_image_cycles
        );
    }

    fn tiny_training_net() -> Network {
        use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, NetworkBuilder};
        let mut b = NetworkBuilder::new("resil", FeatureShape::new(1, 6, 6));
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
    fn clean_plan_runs_without_retry() {
        let s = Session::single_precision();
        let r = s
            .run_resilient(&tiny_training_net(), &FaultPlan::none())
            .unwrap();
        assert!(!r.retried);
        assert!(r.dead_tiles.is_empty());
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn tile_failure_triggers_degraded_retry() {
        use scaledeep_sim::fault::FaultKind;
        let s = Session::single_precision();
        let net = tiny_training_net();
        let clean = s.run_resilient(&net, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::seeded(7).with_fault(1, FaultKind::TileFailure { tile: 0 });
        let r = s.run_resilient(&net, &plan).unwrap();
        assert!(r.retried, "tile failure must force the degraded retry");
        assert_eq!(r.dead_tiles, vec![0]);
        // The retried iteration runs the same programs on the degraded
        // layout — same instruction count, possibly different cycles.
        assert_eq!(r.stats.instructions, clean.stats.instructions);
    }

    #[test]
    fn fault_free_replicas_are_identical() {
        // Under the empty plan every replica of the node walk runs the same
        // dynamics, so the node outcome is the single-replica run scaled
        // by the replica count: equal per-replica makespans, per-stage busy
        // cycles of `replicas ×` the single-replica record's stage busy cycles,
        // and no retries.
        let s = Session::single_precision();
        for name in ["alexnet", "cnn-s", "googlenet"] {
            let net = zoo::by_name(name).unwrap();
            let artifact = s.compile(&net).unwrap();
            for kind in [RunKind::Training, RunKind::Evaluation] {
                let node = s.node_outcome(&artifact, kind, &FaultPlan::none());
                assert!(node.replicas > 1, "{name} {kind:?}");
                let first = node.per_replica_makespan[0];
                assert!(
                    node.per_replica_makespan.iter().all(|&m| m == first),
                    "{name} {kind:?}: replica makespans differ"
                );
                assert_eq!(node.faults.link_retries, 0, "{name} {kind:?}");
                assert_eq!(node.faults.retry_cycles, 0, "{name} {kind:?}");
                let one = s.run_mapped(&artifact, kind);
                for (i, &busy) in node.stage_busy.iter().enumerate() {
                    let single = one
                        .stages
                        .get(i)
                        .unwrap_or_else(|| panic!("{name}: no stage {i} record"))
                        .busy_cycles;
                    assert_eq!(
                        busy,
                        node.replicas as u64 * single,
                        "{name} {kind:?} stage {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn retarget_keeps_the_simulator_options() {
        // A retargeted Winograd session must run Winograd, not the
        // default options.
        let opts = PerfOptions {
            winograd: true,
            ..PerfOptions::default()
        };
        let node = presets::half_precision();
        let retargeted = Session::single_precision()
            .with_options(opts)
            .retarget(node);
        let fresh = Session::with_node(node).with_options(opts);
        let default = Session::with_node(node);
        let net = zoo::alexnet();
        for kind in [RunKind::Training, RunKind::Evaluation] {
            let run = |s: &Session| s.run_mapped(&s.compile(&net).unwrap(), kind);
            let got = run(&retargeted);
            assert_eq!(got, run(&fresh), "{kind:?}");
            assert_ne!(got, run(&default), "{kind:?}: Winograd changes nothing");
        }
    }

    #[test]
    fn half_precision_session_uses_hp_node() {
        let s = Session::half_precision();
        assert_eq!(s.node().precision, scaledeep_arch::Precision::Half);
    }

    #[test]
    fn every_observer_matches_the_unobserved_run() {
        use scaledeep_sim::fault::{FaultKind, LinkFaults};
        use scaledeep_trace::{progress_channel, validate_chrome_trace};
        let s = Session::single_precision();
        let artifact = s.compile(&zoo::alexnet()).unwrap();
        let tiny = tiny_training_net();
        // Link faults charge the performance run; the tile failure forces
        // the resilient run's degraded retry.
        let faulted = FaultPlan::seeded(7)
            .with_link_faults(LinkFaults {
                prob: 0.25,
                base_backoff: 16,
                max_retries: 4,
            })
            .with_fault(1, FaultKind::TileFailure { tile: 0 });
        let (tx, rx) = progress_channel(1 << 16);
        let observers = [
            Observer::Off,
            Observer::Trace(TraceConfig::default()),
            Observer::Progress(&tx),
        ];
        for plan in [FaultPlan::none(), faulted] {
            let faults_on = plan != FaultPlan::none();
            let perf = s
                .run_mapped_with(&artifact, RunKind::Training, &plan, Observer::Off)
                .value;
            let resilient = s.run_resilient(&tiny, &plan).unwrap();
            assert_eq!(perf.faults.link_retries > 0, faults_on);
            assert_eq!(resilient.retried, faults_on);
            for obs in observers {
                let run = s.run_mapped_with(&artifact, RunKind::Training, &plan, obs);
                assert_eq!(run.value, perf, "{obs:?} perturbed {plan:?}");
                let res = s.run_resilient_with(&tiny, &plan, obs).unwrap();
                assert_eq!(
                    res.value.stats, resilient.stats,
                    "{obs:?} perturbed {plan:?}"
                );
                assert_eq!(res.value.dead_tiles, resilient.dead_tiles);
                // A trace is recorded exactly under `Observer::Trace`, and
                // it exports cleanly.
                assert_eq!(run.trace.is_some(), matches!(obs, Observer::Trace(_)));
                assert_eq!(res.trace.is_some(), run.trace.is_some());
                if let Some(trace) = run.trace {
                    assert!(validate_chrome_trace(&trace.chrome_trace()).unwrap().spans > 0);
                }
            }
            // The progress observer streamed under either plan.
            assert!(!rx.drain().is_empty());
        }
    }

    #[test]
    fn metrics_only_trace_matches_the_full_trace() {
        use scaledeep_sim::fault::LinkFaults;
        // Off and an empty-filter trace take the epoch pipeline drive, a
        // full trace the event-ordered one; nothing but the recorded
        // events may differ.
        let s = Session::single_precision();
        let faulted = FaultPlan::seeded(7).with_link_faults(LinkFaults {
            prob: 0.1,
            base_backoff: 16,
            max_retries: 4,
        });
        for net in [zoo::alexnet(), zoo::googlenet()] {
            let artifact = s.compile(&net).unwrap();
            for kind in [RunKind::Training, RunKind::Evaluation] {
                for plan in [FaultPlan::none(), faulted.clone()] {
                    let what = format!("{} {kind:?} {plan:?}", net.name());
                    let run = |obs| s.run_mapped_with(&artifact, kind, &plan, obs);
                    let off = run(Observer::Off);
                    let full = run(Observer::Trace(TraceConfig::default()));
                    let quiet = run(Observer::Trace(TraceConfig {
                        filter: CategoryMask::none(),
                    }));
                    assert_eq!(off.value, full.value, "{what}");
                    assert_eq!(quiet.value, full.value, "{what}");
                    let (full, quiet) = (full.trace.unwrap(), quiet.trace.unwrap());
                    assert!(!full.events.is_empty(), "{what}");
                    assert!(quiet.events.is_empty(), "{what}");
                    assert_eq!(quiet.tracks, full.tracks, "{what}");
                }
            }
        }
    }

    #[test]
    fn resilient_trace_records_checkpoint_and_remap() {
        use scaledeep_sim::fault::FaultKind;
        use scaledeep_trace::Payload;
        let s = Session::single_precision();
        let net = tiny_training_net();
        let plan = FaultPlan::seeded(7).with_fault(1, FaultKind::TileFailure { tile: 0 });
        let obs = Observer::Trace(TraceConfig::default());
        let run = s.run_resilient_with(&net, &plan, obs).unwrap();
        let trace = run.trace.unwrap();
        assert!(run.value.retried);
        let has = |want: fn(&Payload) -> bool| trace.events.iter().any(|e| want(&e.payload));
        assert!(has(|p| matches!(p, Payload::Checkpoint)));
        assert!(has(|p| matches!(p, Payload::Remap { dead_tiles: 1 })));
        assert!(has(|p| matches!(p, Payload::Fault { .. })));
        // Even with the retry's events excluded, the export stays valid.
        scaledeep_trace::validate_chrome_trace(&trace.chrome_trace()).unwrap();
    }

    #[test]
    fn progress_run_streams_deterministically() {
        use scaledeep_trace::progress_channel;
        let s = Session::single_precision();
        let artifact = s.compile(&zoo::alexnet()).unwrap();
        let stream = || {
            let (tx, rx) = progress_channel(4096);
            let plan = FaultPlan::none();
            s.run_mapped_with(&artifact, RunKind::Training, &plan, Observer::Progress(&tx));
            assert_eq!(rx.dropped(), 0);
            rx.drain()
        };
        let updates = stream();
        assert!(!updates.is_empty());
        assert!(
            updates.windows(2).all(|w| w[0].seq < w[1].seq),
            "sequence numbers must be strictly monotonic"
        );
        assert!(updates.iter().any(|u| u.kind.name() == "sync"));
        // Same artifact, same kind, fresh channel: byte-identical stream.
        assert_eq!(updates, stream(), "progress must be seed-stable");
    }

    #[test]
    fn observed_compile_reports_phases_only_on_miss() {
        use scaledeep_trace::progress_channel;
        let s = Session::single_precision();
        let net = zoo::alexnet();
        let opts = CompileOptions::default();
        let (tx, rx) = progress_channel(64);
        s.compile_with(&net, &opts, Observer::Progress(&tx))
            .unwrap();
        let phases: Vec<&str> = rx.drain().iter().filter_map(|u| u.kind.label()).collect();
        assert_eq!(phases, pipeline::PHASES);
        // A repeat compile is a cache hit: no phases run, none reported.
        s.compile_with(&net, &opts, Observer::Progress(&tx))
            .unwrap();
        assert!(rx.is_empty());
        let traced = |s: &Session| {
            let obs = Observer::Trace(TraceConfig::default());
            s.compile_with(&net, &opts, obs).unwrap().trace.unwrap()
        };
        assert!(traced(&s).events.is_empty());
        assert!(!traced(&Session::single_precision()).events.is_empty());
    }

    #[test]
    fn a_retargeted_sessions_miss_reports_all_six_phases() {
        // A retargeted session's compile of a network its hub already
        // compiled on another point is a miss, and its trace is the one a
        // fresh session's compile of that point records: six phase spans.
        let net = zoo::alexnet_func();
        let opts = CompileOptions::default();
        let hub = Session::single_precision();
        let hp = hub.retarget(presets::half_precision());
        let traced = |s: &Session| {
            let obs = Observer::Trace(TraceConfig::default());
            let trace = s.compile_with(&net, &opts, obs).unwrap().trace.unwrap();
            trace.chrome_trace()
        };
        traced(&hub);
        let reused = traced(&hp);
        assert_eq!(reused, traced(&Session::half_precision()));
        assert_eq!(hub.cache_stats().misses, 2);
        let (tx, rx) = scaledeep_trace::progress_channel(64);
        let two = hub.retarget(NodeConfig {
            clusters: 2,
            ..presets::single_precision()
        });
        two.compile_with(&net, &opts, Observer::Progress(&tx))
            .unwrap();
        let phases: Vec<&str> = rx.drain().iter().filter_map(|u| u.kind.label()).collect();
        assert_eq!(phases, pipeline::PHASES);
    }

    #[test]
    fn a_degraded_session_compile_equals_its_standalone_compile() {
        // Dead functional tiles are a codegen input: a degraded compile
        // does not borrow the healthy programs, and equals its own
        // standalone compile.
        let s = Session::single_precision();
        let net = tiny_training_net();
        let healthy = s.compile(&net).unwrap();
        let opts = CompileOptions::degraded(FailedTiles::from_func_tiles([0]));
        let degraded = s.compile_with(&net, &opts, Observer::Off).unwrap().value;
        let (h, d) = (
            healthy.functional().unwrap(),
            degraded.functional().unwrap(),
        );
        assert!(!std::ptr::eq(h, d));
        let fresh = pipeline::compile(&presets::single_precision(), &net, &opts).unwrap();
        assert_eq!(d, fresh.functional().unwrap());
        assert_eq!(degraded.lowered(), fresh.lowered());
        assert_ne!(h.buffers, d.buffers);
    }

    #[test]
    fn resilient_progress_reports_remap() {
        use scaledeep_sim::fault::FaultKind;
        use scaledeep_trace::progress_channel;
        let s = Session::single_precision();
        let net = tiny_training_net();
        let plan = FaultPlan::seeded(7).with_fault(1, FaultKind::TileFailure { tile: 0 });
        let (tx, rx) = progress_channel(1 << 16);
        let run = s
            .run_resilient_with(&net, &plan, Observer::Progress(&tx))
            .unwrap();
        assert!(run.value.retried);
        let updates = rx.drain();
        let saw = |name: &str| updates.iter().any(|u| u.kind.name() == name);
        assert!(saw("checkpoint"));
        assert!(saw("remap"));
        assert!(saw("fault"));
        assert!(saw("cycles"));
    }

    #[test]
    fn artifact_dir_serves_repeat_sessions_without_pipeline_phases() {
        let dir =
            std::env::temp_dir().join(format!("scaledeep-artifact-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let net = zoo::alexnet_func();

        // First session: pipeline runs once, artifact lands on disk.
        let first = Session::single_precision().with_artifact_dir(&dir);
        let a = first.compile(&net).unwrap();
        let s = first.cache_stats();
        assert_eq!((s.misses, s.disk_hits), (1, 0));

        // Second session (fresh in-memory cache, same store): the
        // artifact loads from disk — zero pipeline phases run.
        let second = Session::single_precision().with_artifact_dir(&dir);
        let b = second.compile(&net).unwrap();
        let s = second.cache_stats();
        assert_eq!(
            (s.misses, s.disk_hits, s.hits),
            (0, 1, 0),
            "a repeat session must not touch the pipeline"
        );
        assert_eq!(s.compile_nanos, 0, "no wall-clock spent compiling");
        assert_eq!(a.mapping(), b.mapping());
        assert_eq!(a.provenance(), b.provenance());
        assert_eq!(a.lowered(), b.lowered());

        // Third compile in the second session hits memory, not disk.
        second.compile(&net).unwrap();
        let s = second.cache_stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preset_design_keys_are_stable_across_sessions() {
        // The structural provenance keys of the two presets must re-derive
        // to the same values in a fresh session: a repeat session over the
        // same artifact store takes disk hits for both, proving the
        // design-layer refactor causes no spurious cache invalidation.
        let dir = std::env::temp_dir().join(format!(
            "scaledeep-design-key-stability-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let net = zoo::alexnet_func();

        // One shared cache serves both design points via retarget().
        let sp = Session::single_precision().with_artifact_dir(&dir);
        sp.compile(&net).unwrap();
        let hp = sp.retarget(presets::half_precision());
        assert_eq!(hp.node().precision, scaledeep_arch::Precision::Half);
        hp.compile(&net).unwrap();
        // Stats cells are shared, so the ledger shows both compiles: the
        // two points keyed distinct entries (2 misses, no false sharing).
        let s = hp.cache_stats();
        assert_eq!((s.misses, s.hits, s.disk_hits), (2, 0, 0));

        // Fresh process-equivalent sessions: both keys must find their
        // stored artifacts — zero pipeline phases run.
        let sp2 = Session::single_precision().with_artifact_dir(&dir);
        sp2.compile(&net).unwrap();
        let hp2 = sp2.retarget(presets::half_precision());
        hp2.compile(&net).unwrap();
        let s = hp2.cache_stats();
        assert_eq!(
            (s.misses, s.disk_hits, s.corrupt),
            (0, 2, 0),
            "preset design keys drifted between sessions"
        );

        // Repeat compiles on the retargeted pair stay in memory.
        sp2.compile(&net).unwrap();
        hp2.compile(&net).unwrap();
        assert_eq!(hp2.cache_stats().hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_is_send_and_sync() {
        // The job server shares one Session across a worker pool; any
        // hidden Rc/RefCell/raw-pointer state would surface here at
        // compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<CacheStats>();
        assert_send_sync::<Arc<CompiledArtifact>>();
        assert_send_sync::<scaledeep_sim::perf::PerfSim>();
        assert_send_sync::<FaultPlan>();
    }

    #[test]
    fn corrupt_disk_artifact_is_quarantined_and_recompiled() {
        // A torn write, and a crafted file whose first program's `hex`
        // is four bytes of non-ASCII text (once a loader panic).
        let corrupt = |label: &str, text: &str| match label {
            "torn" => text[..text.len() / 3].to_string(),
            _ => {
                let start = text.find("\"hex\": \"").expect("artifact stores programs") + 8;
                let end = start + text[start..].find('"').expect("closing quote");
                format!("{}aé0{}", &text[..start], &text[end..])
            }
        };
        for label in ["torn", "crafted-hex"] {
            let dir = std::env::temp_dir().join(format!(
                "scaledeep-corrupt-cache-{label}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let net = zoo::alexnet_func();

            // Seed the store with a valid artifact, then corrupt it.
            let first = Session::single_precision().with_artifact_dir(&dir);
            first.compile(&net).unwrap();
            let stored: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect();
            assert_eq!(stored.len(), 1);
            let text = std::fs::read_to_string(&stored[0]).unwrap();
            std::fs::write(&stored[0], corrupt(label, &text)).unwrap();

            // A fresh session must treat the file as a miss: quarantine
            // it, count it, recompile, and republish a loadable artifact.
            let second = Session::single_precision().with_artifact_dir(&dir);
            second.compile(&net).unwrap();
            let s = second.cache_stats();
            assert_eq!(
                (s.misses, s.disk_hits, s.corrupt),
                (1, 0, 1),
                "a {label} artifact must recompile as a miss, got {s:?}"
            );
            let quarantined: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.to_string_lossy().ends_with(".json.corrupt"))
                .collect();
            assert_eq!(quarantined.len(), 1, "{label} file must be quarantined");

            // The republished artifact serves the next session from disk.
            let third = Session::single_precision().with_artifact_dir(&dir);
            third.compile(&net).unwrap();
            let s = third.cache_stats();
            assert_eq!((s.misses, s.disk_hits, s.corrupt), (0, 1, 0), "{label}");

            assert_eq!(second.cache_stats().corrupt, 1, "{label}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_missing_file_is_a_miss_and_a_directory_is_corrupt() {
        let dir =
            std::env::temp_dir().join(format!("scaledeep-store-lookup-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let net = zoo::by_name("cnn-s").expect("zoo has cnn-s");
        let stats = |s: &Session| {
            let c = s.cache_stats();
            (c.misses, c.disk_hits, c.corrupt)
        };
        // No store directory yet, so no file: a plain miss, not corrupt.
        let first = Session::single_precision().with_artifact_dir(&dir);
        first.compile(&net).unwrap();
        assert_eq!(stats(&first), (1, 0, 0));

        // A directory where the artifact belongs cannot be read: corrupt,
        // quarantined, recompiled and republished as a file.
        let key = Provenance::new(first.node(), &net, &CompileOptions::default()).cache_key();
        let path = first.artifact_path(key).expect("the session has a store");
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        let second = Session::single_precision().with_artifact_dir(&dir);
        second.compile(&net).unwrap();
        assert_eq!(stats(&second), (1, 0, 1));
        assert!(path.is_file(), "the artifact is republished");
        assert!(path.with_extension("json.corrupt").is_dir());

        let third = Session::single_precision().with_artifact_dir(&dir);
        third.compile(&net).unwrap();
        assert_eq!(stats(&third), (0, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compiled_backend_session_runs_resilient_paths() {
        use scaledeep_sim::fault::FaultKind;
        let session = Session::single_precision();
        assert_eq!(session.exec_backend(), ExecBackend::Compiled);
        let net = tiny_training_net();
        // The interpreter oracle: the session's seeded iteration on
        // `artifact`, driven on the reference tier under `plan`.
        let oracle = |artifact: &CompiledArtifact, plan: &FaultPlan| {
            let (mut fsim, image, golden) = seeded_iteration(&net, artifact).unwrap();
            fsim.set_backend(ExecBackend::Interpreter);
            fsim.run_iteration_traced(&image, &golden, plan, &mut Tracer::disabled())
                .unwrap()
        };
        let clean = session.run_resilient(&net, &FaultPlan::none()).unwrap();
        let healthy = session.compile(&net).unwrap();
        assert_eq!(
            clean.stats,
            oracle(&healthy, &FaultPlan::none()),
            "clean runs must agree with the interpreter"
        );
        // The degraded retry runs the degraded artifact with the tile
        // failure mapped around; the oracle drives that same iteration.
        let plan = FaultPlan::seeded(7).with_fault(1, FaultKind::TileFailure { tile: 0 });
        let retried = session.run_resilient(&net, &plan).unwrap();
        assert!(retried.retried);
        let failed = FailedTiles::from_func_tiles(plan.condemned_tiles());
        let degraded = session
            .compile_with(&net, &CompileOptions::degraded(failed), Observer::Off)
            .unwrap()
            .value;
        assert_eq!(
            retried.stats,
            oracle(&degraded, &plan.without_tile_failures())
        );
    }

    #[test]
    fn cross_check_carries_a_trace_tail_and_reports_only_on_mismatch() {
        let mut node = presets::single_precision();
        node.cluster.spoke_bw = node.cluster.arc_bw;
        let x = Session::with_node(node)
            .cross_check(&tiny_training_net())
            .unwrap();
        assert!(!x.trace.events.is_empty());
        // Every tile of the functional run did work.
        assert!(!x.functional.per_tile.is_empty());
        for (tile, t) in x.functional.per_tile.iter().enumerate() {
            assert!(t.busy > 0, "tile {tile} recorded no busy cycles");
        }
        if x.agrees() {
            assert!(x.mismatch_report().is_none());
        } else {
            let report = x.mismatch_report().unwrap();
            assert!(report.contains("cycle cross-check mismatch"));
            assert!(report.contains("func.instructions"));
        }
        // A forced mismatch renders the functional record's metrics.
        let forced = CycleCrossCheck {
            perf_per_image_cycles: x.functional.cycles * 4,
            ..x.clone()
        };
        let report = forced.mismatch_report().expect("a 4x gap disagrees");
        let cycles = format!("counter  {}", x.functional.cycles);
        assert!(report
            .lines()
            .any(|l| l.starts_with("func.cycles") && l.ends_with(&cycles)));
        // The report's tail holds at most its bound, ends at the run's
        // last emission, and accounts for every recorded event: on this
        // run, and on one whose trace runs past the bound.
        let mut long = forced.clone();
        let events = x.trace.events.iter().cycle();
        long.trace.events = events.take(CROSS_CHECK_TAIL_EVENTS + 50).copied().collect();
        for check in [&forced, &long] {
            let report = check.mismatch_report().expect("a 4x gap disagrees");
            let recorded = check.trace.events.len();
            let retained = recorded.min(CROSS_CHECK_TAIL_EVENTS);
            assert!(report.contains(&format!(
                "trace tail ({retained} retained, {} dropped):",
                recorded - retained
            )));
            let tail = &check.trace.events[recorded - retained..];
            assert!(report.ends_with(&cycle_csv(tail, &check.trace.tracks)));
            let rows = report
                .rsplit("cycle,track,category,event,dur,detail\n")
                .next();
            assert_eq!(rows.map(|r| r.lines().count()), Some(retained));
        }
    }
}
