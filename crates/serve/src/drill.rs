//! The chaos drill: a scripted storm against a live server, with a
//! deterministic verdict.
//!
//! The drill walks seven phases — nominal load, duplicate-compile
//! dedup, transient faults, panicking attempts, stuck workers,
//! cancellation, and 4× overload — and tallies how every job resolved.
//! The *deterministic* half of the report (per-phase outcome counts, retry
//! totals, recovered panics, compile-cache misses, backoff schedules) is
//! a pure function of the seed and the drill shape, so the same seed
//! replays to the same verdict and CI can gate on it. Wall-clock
//! latencies (queue/service p50/p99 from the log2 histograms) are
//! *informational*: reported, never gated.
//!
//! Determinism holds because nothing in the verdict depends on thread
//! interleaving: chaos travels *inside* jobs (panic/fail/stall
//! directives), the session cache pins the miss count for any
//! interleaving of identical compiles, and the server's queue is paused
//! before queue-shape phases so sheds are exact.

use crate::protocol::{
    ChaosDirective, JobKind, JobReply, JobRequest, JobResult, ServeError, StatsSnapshot,
};
use crate::retry::RetryPolicy;
use crate::server::{install_chaos_panic_hook, JobHandle, Server, ServerConfig};
use scaledeep::{report::Table, CacheStats, Session};
use scaledeep_sim::perf::RunKind;
use scaledeep_trace::json::{obj, Json};
use scaledeep_trace::{fnv1a, MetricsRegistry, ProgressUpdate, FNV1A_OFFSET};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The throughput-suite network the bulk phases exercise (cheap,
/// perf-model only).
const PERF_NET: &str = "cnn-s";
/// A second network for the dedup phase (its first compile must be a
/// fresh miss).
const DEDUP_NET: &str = "alexnet";
/// The functional-scale network the resilient phase degrades around a
/// dead tile.
const FUNC_NET: &str = "alexnet-func";

/// Version stamped into the drill's BENCH JSON. The drill document has
/// its own schema: it keeps its informational `wall` group, so it does
/// not follow the per-network BENCH report's version.
pub const DRILL_SCHEMA_VERSION: u64 = 4;

/// Shape of the drill (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrillConfig {
    /// Seed for the server's deterministic backoff jitter.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Overload multiple: the overload phase submits
    /// `queue_capacity * overload_factor` jobs against a paused pool.
    pub overload_factor: usize,
}

impl Default for DrillConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            workers: 4,
            queue_capacity: 8,
            overload_factor: 4,
        }
    }
}

/// How one phase's jobs resolved, by typed outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Jobs submitted.
    pub submitted: u64,
    /// Resolved `Ok`.
    pub completed: u64,
    /// Shed at admission (`Overloaded`).
    pub shed: u64,
    /// Resolved `DeadlineExceeded`.
    pub deadline: u64,
    /// Resolved `Cancelled`.
    pub cancelled: u64,
    /// Resolved `WorkerLost`.
    pub worker_lost: u64,
    /// Resolved `Rejected`.
    pub rejected: u64,
    /// Resolved `Failed`.
    pub failed: u64,
}

impl PhaseCounts {
    fn absorb(&mut self, result: &JobResult) {
        self.submitted += 1;
        match result {
            Ok(_) => self.completed += 1,
            Err(ServeError::Overloaded { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded { .. }) => self.deadline += 1,
            Err(ServeError::Cancelled) => self.cancelled += 1,
            Err(ServeError::WorkerLost { .. }) => self.worker_lost += 1,
            Err(ServeError::Rejected { .. }) => self.rejected += 1,
            Err(ServeError::Failed { .. }) => self.failed += 1,
        }
    }

    /// Sum of all typed outcomes — equals `submitted` exactly when every
    /// job resolved (the no-hangs invariant).
    pub fn resolved(&self) -> u64 {
        self.completed
            + self.shed
            + self.deadline
            + self.cancelled
            + self.worker_lost
            + self.rejected
            + self.failed
    }
}

/// One watched job's progress-stream summary from the progress phase.
/// Everything here is a pure function of the seed and drill shape, so it
/// belongs to the deterministic half of the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressProbe {
    /// 0-based submission order within the phase.
    pub ordinal: u64,
    /// Updates the stream delivered.
    pub updates: u64,
    /// Updates the bounded channel evicted (must be 0 at drill capacity).
    pub dropped: u64,
    /// Whether sequence numbers were strictly monotonic.
    pub monotonic: bool,
    /// FNV-1a-64 over every update's full field set, in order — the
    /// byte-identity witness same-seed replays must reproduce.
    pub digest: u64,
}

impl ProgressProbe {
    /// Summarizes one drained stream.
    pub fn from_stream(ordinal: u64, updates: &[ProgressUpdate], dropped: u64) -> Self {
        let mix = |d: u64, v: u64| fnv1a(d, v.to_le_bytes());
        let mut digest = FNV1A_OFFSET;
        for u in updates {
            digest = mix(digest, u.seq);
            digest = mix(digest, u.cycle);
            digest = fnv1a(digest, u.kind.name().bytes());
            digest = mix(digest, u.kind.value().unwrap_or(u64::MAX));
            digest = mix(digest, u.syncs);
            digest = mix(digest, u.faults);
            digest = mix(digest, u.retries);
        }
        Self {
            ordinal,
            updates: updates.len() as u64,
            dropped,
            monotonic: updates.windows(2).all(|w| w[0].seq < w[1].seq),
            digest,
        }
    }
}

/// The drill's verdict: deterministic counts plus informational timing.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The seed the drill (and its backoff jitter) ran under.
    pub seed: u64,
    /// The drill shape.
    pub config: DrillConfig,
    /// `(phase name, outcome tally)`, in execution order.
    pub phases: Vec<(&'static str, PhaseCounts)>,
    /// The shared session's compile-cache ledger after the storm
    /// (misses and corrupt are deterministic, and the miss count is the
    /// dedup evidence; hits are informational).
    pub cache: CacheStats,
    /// Panicked attempts the workers recovered in place (== kill-phase
    /// jobs).
    pub worker_restarts: u64,
    /// Total retry attempts charged (transient faults + lost workers).
    pub retries: u64,
    /// Resilient jobs that reported a degraded-recompile retry.
    pub resilient_retried: u64,
    /// Dead tiles reported across resilient jobs.
    pub resilient_dead_tiles: u64,
    /// `(job id, backoff ladder ms)` for the transient-fault jobs: the
    /// seeded schedule same-seed replays must reproduce.
    pub schedules: Vec<(u64, Vec<u64>)>,
    /// Per-watched-job stream summaries from the progress phase.
    pub progress: Vec<ProgressProbe>,
    /// Whether the stuck phase's stalled workers went idle within the
    /// drill's settle bound (5 s). Checked by
    /// [`DrillReport::invariants`]; not part of the summary or document.
    pub stuck_settled: bool,
    /// Final server metrics snapshot (latency histograms live here).
    pub metrics: MetricsRegistry,
}

impl DrillReport {
    /// Totals across all phases.
    pub fn totals(&self) -> PhaseCounts {
        let mut t = PhaseCounts::default();
        for (_, c) in &self.phases {
            t.submitted += c.submitted;
            t.completed += c.completed;
            t.shed += c.shed;
            t.deadline += c.deadline;
            t.cancelled += c.cancelled;
            t.worker_lost += c.worker_lost;
            t.rejected += c.rejected;
            t.failed += c.failed;
        }
        t
    }

    /// The per-phase degradation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("serve-drill graceful degradation").headers([
            "phase",
            "jobs",
            "ok",
            "shed",
            "deadline",
            "cancelled",
            "lost",
            "failed",
        ]);
        for (name, c) in self.phases.iter().chain(Some(&("total", self.totals()))) {
            t.row([
                (*name).to_string(),
                c.submitted.to_string(),
                c.completed.to_string(),
                c.shed.to_string(),
                c.deadline.to_string(),
                c.cancelled.to_string(),
                c.lost_failed_rejected().0.to_string(),
                c.lost_failed_rejected().1.to_string(),
            ]);
        }
        t
    }

    /// The seed-stable portion of the verdict, one fact per line —
    /// byte-identical across same-seed runs (compared by the chaos
    /// test and printable with `--summary`).
    pub fn deterministic_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.seed);
        for (name, c) in &self.phases {
            let _ = writeln!(
                out,
                "phase {name}: submitted={} completed={} shed={} deadline={} \
                 cancelled={} worker_lost={} rejected={} failed={}",
                c.submitted,
                c.completed,
                c.shed,
                c.deadline,
                c.cancelled,
                c.worker_lost,
                c.rejected,
                c.failed
            );
        }
        let _ = writeln!(
            out,
            "cache: misses={} corrupt={}",
            self.cache.misses, self.cache.corrupt
        );
        let _ = writeln!(
            out,
            "recovery: retries={} worker_restarts={} resilient_retried={} \
             resilient_dead_tiles={}",
            self.retries, self.worker_restarts, self.resilient_retried, self.resilient_dead_tiles
        );
        for (id, ladder) in &self.schedules {
            let ms: Vec<String> = ladder.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "backoff job {id}: [{}]", ms.join(", "));
        }
        for p in &self.progress {
            let _ = writeln!(
                out,
                "progress job {}: updates={} dropped={} monotonic={} digest={:016x}",
                p.ordinal, p.updates, p.dropped, p.monotonic, p.digest
            );
        }
        out
    }

    /// The final server metrics as a protocol `stats` line — what a live
    /// `stats` request would have answered at drill end. CI uploads this
    /// as a build artifact.
    pub fn stats_json(&self) -> String {
        crate::protocol::stats_to_json(&StatsSnapshot::from_registry(&self.metrics))
    }

    /// Violated drill invariants (empty = the storm degraded
    /// gracefully). CI exits nonzero on any entry.
    pub fn invariants(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                bad.push(msg);
            }
        };
        for (name, c) in &self.phases {
            check(
                c.resolved() == c.submitted,
                format!(
                    "phase {name}: {} of {} jobs unresolved (hang)",
                    c.submitted - c.resolved().min(c.submitted),
                    c.submitted
                ),
            );
        }
        let by_name = |n: &str| {
            self.phases
                .iter()
                .find(|(p, _)| *p == n)
                .map(|(_, c)| *c)
                .unwrap_or_default()
        };
        let nominal = by_name("nominal");
        check(
            nominal.shed == 0 && nominal.completed == nominal.submitted,
            format!("nominal: expected zero shed and all completed, got {nominal:?}"),
        );
        let dedup = by_name("dedup");
        check(
            dedup.completed == dedup.submitted,
            format!("dedup: expected all completed, got {dedup:?}"),
        );
        // cnn-s + alexnet + alexnet-func + one degraded recompile: the
        // session cache's proof that N concurrent identical compiles
        // cost one pipeline run each.
        check(
            self.cache.misses == 4,
            format!(
                "cache: expected exactly 4 pipeline runs, got {}",
                self.cache.misses
            ),
        );
        let faults = by_name("faults");
        check(
            faults.completed == faults.submitted,
            format!("faults: expected retried-then-completed for all, got {faults:?}"),
        );
        check(
            self.resilient_retried == 3 && self.resilient_dead_tiles == 3,
            format!(
                "resilient: expected 3 degraded retries over 3 dead tiles, got {} / {}",
                self.resilient_retried, self.resilient_dead_tiles
            ),
        );
        let kill = by_name("kill");
        check(
            kill.completed == kill.submitted,
            format!("kill: expected recovery-then-completed for all, got {kill:?}"),
        );
        check(
            self.worker_restarts == kill.submitted,
            format!(
                "kill: expected {} worker restarts, got {}",
                kill.submitted, self.worker_restarts
            ),
        );
        // Serve-level retry charges: the 4 transient-fault jobs (one
        // in-worker retry each) plus one per panicked attempt. Resilient
        // jobs retry *inside* the engine and are counted separately.
        check(
            self.retries == 4 + kill.submitted,
            format!(
                "recovery: expected {} retry charges, got {}",
                4 + kill.submitted,
                self.retries
            ),
        );
        let stuck = by_name("stuck");
        check(
            stuck.deadline == stuck.submitted,
            format!("stuck: expected typed deadline errors for all, got {stuck:?}"),
        );
        check(
            self.stuck_settled,
            "stuck: stalled workers still busy at the settle bound".to_string(),
        );
        let cancel = by_name("cancel");
        check(
            cancel.cancelled == cancel.submitted,
            format!("cancel: expected typed cancels for all, got {cancel:?}"),
        );
        let overload = by_name("overload");
        let cap = self.config.queue_capacity as u64;
        let expect_shed = cap * (self.config.overload_factor as u64 - 1);
        check(
            overload.shed == expect_shed && overload.completed == cap,
            format!(
                "overload: expected exactly {expect_shed} typed sheds and {cap} completions, \
                 got {overload:?}"
            ),
        );
        let watch = by_name("progress");
        check(
            watch.completed == watch.submitted,
            format!("progress: expected all watched jobs completed, got {watch:?}"),
        );
        check(
            self.progress.len() as u64 == watch.submitted,
            format!(
                "progress: expected {} stream probes, got {}",
                watch.submitted,
                self.progress.len()
            ),
        );
        for p in &self.progress {
            check(
                p.updates > 0,
                format!("progress job {}: empty stream", p.ordinal),
            );
            check(
                p.monotonic,
                format!("progress job {}: non-monotonic sequence", p.ordinal),
            );
            check(
                p.dropped == 0,
                format!(
                    "progress job {}: {} updates dropped at drill capacity",
                    p.ordinal, p.dropped
                ),
            );
        }
        check(
            self.progress.windows(2).all(|w| w[0].digest == w[1].digest),
            "progress: identical watched requests produced divergent streams".into(),
        );
        bad
    }

    /// Versioned BENCH JSON: the deterministic `jobs` group CI and
    /// same-seed replays can compare, and an informational `wall` group
    /// (latency percentiles in µs) that varies run to run by design.
    pub fn to_bench_json(&self) -> String {
        let n = |v: u64| Json::Num(v as f64);
        let t = self.totals();
        let pct = |name: &str, p: f64| {
            self.metrics
                .histogram_value(name)
                .map_or(0.0, |h| h.percentile(p))
        };
        let schedules = Json::Obj(
            self.schedules
                .iter()
                .map(|(id, ladder)| {
                    (
                        id.to_string(),
                        Json::Arr(ladder.iter().map(|&ms| n(ms)).collect()),
                    )
                })
                .collect(),
        );
        obj([
            ("schema_version", n(DRILL_SCHEMA_VERSION)),
            ("suite", Json::Str("serve-drill".into())),
            ("seed", n(self.seed)),
            (
                "jobs",
                obj([
                    ("submitted", n(t.submitted)),
                    ("completed", n(t.completed)),
                    ("shed", n(t.shed)),
                    ("deadline", n(t.deadline)),
                    ("cancelled", n(t.cancelled)),
                    ("worker_lost", n(t.worker_lost)),
                    ("rejected", n(t.rejected)),
                    ("failed", n(t.failed)),
                    ("retries", n(self.retries)),
                    ("worker_restarts", n(self.worker_restarts)),
                    ("resilient_retried", n(self.resilient_retried)),
                    ("resilient_dead_tiles", n(self.resilient_dead_tiles)),
                    ("cache_misses", n(self.cache.misses)),
                    ("cache_corrupt", n(self.cache.corrupt)),
                ]),
            ),
            ("backoff_ms", schedules),
            (
                "progress",
                obj([
                    ("jobs", n(self.progress.len() as u64)),
                    (
                        "updates",
                        n(self.progress.iter().map(|p| p.updates).sum::<u64>()),
                    ),
                    (
                        "dropped",
                        n(self.progress.iter().map(|p| p.dropped).sum::<u64>()),
                    ),
                    (
                        "digest",
                        Json::Str(
                            self.progress
                                .first()
                                .map_or_else(|| "-".into(), |p| format!("{:016x}", p.digest)),
                        ),
                    ),
                ]),
            ),
            (
                "wall",
                obj([
                    ("queue_us_p50", Json::Num(pct("serve.queue_us", 50.0))),
                    ("queue_us_p99", Json::Num(pct("serve.queue_us", 99.0))),
                    ("service_us_p50", Json::Num(pct("serve.service_us", 50.0))),
                    ("service_us_p99", Json::Num(pct("serve.service_us", 99.0))),
                ]),
            ),
        ])
        .render_pretty()
    }

    /// The full human-readable drill report: degradation table, the
    /// deterministic summary, and the informational latency lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.table());
        out.push_str(&self.deterministic_summary());
        let _ = writeln!(
            out,
            "cache (informational): hits={} disk_hits={}",
            self.cache.hits, self.cache.disk_hits
        );
        let pct = |name: &str, p: f64| {
            self.metrics
                .histogram_value(name)
                .map_or(0.0, |h| h.percentile(p))
        };
        let _ = writeln!(
            out,
            "latency (informational): queue p50={:.0}us p99={:.0}us, \
             service p50={:.0}us p99={:.0}us",
            pct("serve.queue_us", 50.0),
            pct("serve.queue_us", 99.0),
            pct("serve.service_us", 50.0),
            pct("serve.service_us", 99.0),
        );
        let verdict = self.invariants();
        if verdict.is_empty() {
            let _ = writeln!(out, "verdict: PASS (all drill invariants hold)");
        } else {
            let _ = writeln!(out, "verdict: FAIL");
            for v in &verdict {
                let _ = writeln!(out, "  violated: {v}");
            }
        }
        out
    }
}

impl PhaseCounts {
    fn lost_failed_rejected(&self) -> (u64, u64) {
        (self.worker_lost, self.failed + self.rejected)
    }
}

fn simulate(net: &str) -> JobKind {
    JobKind::Simulate {
        network: net.into(),
        kind: RunKind::Training,
    }
}

fn compile(net: &str) -> JobKind {
    JobKind::Compile {
        network: net.into(),
    }
}

fn wait_all(handles: &[JobHandle], counts: &mut PhaseCounts) -> Vec<JobResult> {
    handles
        .iter()
        .map(|h| {
            let r = h.wait();
            counts.absorb(&r);
            r
        })
        .collect()
}

/// Runs the seeded chaos drill against a fresh in-memory server and
/// returns the verdict. Same seed, same deterministic report.
pub fn run_drill(cfg: &DrillConfig) -> DrillReport {
    install_chaos_panic_hook();
    let server_cfg = ServerConfig {
        workers: cfg.workers.max(2),
        queue_capacity: cfg.queue_capacity.max(2),
        retry: RetryPolicy::default(),
        default_deadline_ms: 60_000,
        seed: cfg.seed,
    };
    let server = Server::start(Session::single_precision(), server_cfg);
    let tenants = ["alpha", "beta", "gamma"];
    let mut phases: Vec<(&'static str, PhaseCounts)> = Vec::new();
    let mut schedules = Vec::new();

    // Phase 1 — nominal: a queue-capacity batch across tenants, workers
    // live. Expect zero shed and full completion.
    let mut counts = PhaseCounts::default();
    let handles: Vec<JobHandle> = (0..server_cfg.queue_capacity)
        .map(|i| {
            let kind = if i % 2 == 0 {
                compile(PERF_NET)
            } else {
                simulate(PERF_NET)
            };
            server.submit(JobRequest::new(tenants[i % tenants.len()], kind))
        })
        .collect();
    wait_all(&handles, &mut counts);
    phases.push(("nominal", counts));

    // Phase 2 — dedup: pile identical compiles of a fresh network onto
    // a paused pool, then release all workers at once. However the race
    // lands (waiters on the first compile vs. later cache hits), the
    // pipeline runs exactly once — the ledger's miss count is the proof.
    let mut counts = PhaseCounts::default();
    server.pause();
    let handles: Vec<JobHandle> = (0..8)
        .map(|_| server.submit(JobRequest::new("dedup", compile(DEDUP_NET))))
        .collect();
    server.resume();
    wait_all(&handles, &mut counts);
    phases.push(("dedup", counts));

    // Phase 3 — faults: transient injected failures retry in-worker
    // under the seeded backoff ladder; tile-failure jobs degrade,
    // recompile, and retry inside the engine. The session cache pins the
    // drill-wide miss count at 4 for any interleaving of the resilient
    // jobs. The first one still runs alone before its two siblings, so
    // the phase keeps the job ids and schedules the committed drill
    // document records.
    let mut counts = PhaseCounts::default();
    let faulty: Vec<JobHandle> = (0..4)
        .map(|i| {
            server.submit(
                JobRequest::new(tenants[i % tenants.len()], simulate(PERF_NET)).with_chaos(
                    ChaosDirective {
                        fail_attempts: 1,
                        ..ChaosDirective::default()
                    },
                ),
            )
        })
        .collect();
    for h in &faulty {
        schedules.push((h.id(), server_cfg.retry.schedule_ms(cfg.seed, h.id())));
    }
    let resilient_kind = || JobKind::Resilient {
        network: FUNC_NET.into(),
        plan_seed: cfg.seed,
        kill_tile: Some(0),
    };
    let warm = server.submit(JobRequest::new("resilient", resilient_kind()));
    let mut resilient_results = vec![warm.wait()];
    counts.absorb(&resilient_results[0]);
    let more: Vec<JobHandle> = (0..2)
        .map(|_| server.submit(JobRequest::new("resilient", resilient_kind())))
        .collect();
    resilient_results.extend(wait_all(&more, &mut counts));
    wait_all(&faulty, &mut counts);
    phases.push(("faults", counts));
    let mut resilient_retried = 0;
    let mut resilient_dead_tiles = 0;
    for r in &resilient_results {
        if let Ok(JobReply::Resilient {
            retried,
            dead_tiles,
            ..
        }) = r
        {
            resilient_retried += u64::from(*retried);
            resilient_dead_tiles += *dead_tiles as u64;
        }
    }

    // Phase 4 — kill: each job's first attempt panics. The worker that
    // ran it catches the panic, charges the attempt, and re-admits the
    // job at the front of its lane; every job completes on retry.
    let mut counts = PhaseCounts::default();
    let handles: Vec<JobHandle> = (0..3)
        .map(|i| {
            server.submit(
                JobRequest::new(tenants[i % tenants.len()], compile(PERF_NET)).with_chaos(
                    ChaosDirective {
                        panic_attempts: 1,
                        ..ChaosDirective::default()
                    },
                ),
            )
        })
        .collect();
    wait_all(&handles, &mut counts);
    phases.push(("kill", counts));

    // Phase 5 — stuck: workers wedge on a stalled dependency far past
    // the job deadline; each client's wait resolves its job at the
    // deadline (a typed deadline error) and the stragglers' late results
    // are discarded.
    let mut counts = PhaseCounts::default();
    let handles: Vec<JobHandle> = (0..2)
        .map(|_| {
            server.submit(
                JobRequest::new("stuck", simulate(PERF_NET))
                    .with_deadline_ms(60)
                    .with_chaos(ChaosDirective {
                        stall_ms: 400,
                        ..ChaosDirective::default()
                    }),
            )
        })
        .collect();
    wait_all(&handles, &mut counts);
    phases.push(("stuck", counts));
    // The stall outlives the deadline by design: the phase ends when the
    // stragglers unwedge, so the full pool is live again for the next.
    let stuck_settled = settle(&server);

    // Phase 6 — cancel: queued jobs cancelled before dispatch resolve
    // typed `Cancelled`, never executing.
    let mut counts = PhaseCounts::default();
    server.pause();
    let handles: Vec<JobHandle> = (0..2)
        .map(|_| server.submit(JobRequest::new("cancel", compile(PERF_NET))))
        .collect();
    for h in &handles {
        h.cancel();
    }
    server.resume();
    wait_all(&handles, &mut counts);
    phases.push(("cancel", counts));

    // Phase 7 — overload: overload_factor × capacity against a paused
    // pool. Exactly `capacity` jobs are admitted; the rest shed with
    // typed `Overloaded` at submit time. On resume the admitted jobs
    // all complete — graceful degradation, not collapse.
    let mut counts = PhaseCounts::default();
    server.pause();
    let handles: Vec<JobHandle> = (0..server_cfg.queue_capacity * cfg.overload_factor.max(2))
        .map(|i| {
            server.submit(JobRequest::new(
                tenants[i % tenants.len()],
                simulate(PERF_NET),
            ))
        })
        .collect();
    server.resume();
    wait_all(&handles, &mut counts);
    phases.push(("overload", counts));

    // Phase 8 — progress: three watched simulate jobs, run one at a
    // time on the warmed compile cache (no fresh pipeline run, so the
    // drill-wide miss count stays pinned). Each stream must be strictly
    // monotonic and drop-free, and — same request against the same
    // engine state — all three must digest identically; the digests
    // land in the deterministic summary, so same-seed replays are held
    // to byte-identical progress.
    let mut counts = PhaseCounts::default();
    let mut progress = Vec::new();
    for ordinal in 0..3u64 {
        let h = server.submit(
            JobRequest::new(
                tenants[ordinal as usize % tenants.len()],
                simulate(PERF_NET),
            )
            .with_progress(),
        );
        counts.absorb(&h.wait());
        let rx = h.progress().expect("watched job has a stream");
        progress.push(ProgressProbe::from_stream(
            ordinal,
            &rx.drain(),
            rx.dropped(),
        ));
    }
    phases.push(("progress", counts));

    let metrics = server.metrics();
    let report = DrillReport {
        seed: cfg.seed,
        config: DrillConfig {
            workers: server_cfg.workers,
            queue_capacity: server_cfg.queue_capacity,
            ..*cfg
        },
        phases,
        cache: server.session().cache_stats(),
        worker_restarts: server.worker_restarts(),
        retries: metrics.counter_value("serve.jobs.retries").unwrap_or(0),
        resilient_retried,
        resilient_dead_tiles,
        schedules,
        progress,
        stuck_settled,
        metrics,
    };
    server.shutdown();
    report
}

/// How long [`settle`] waits for the stalled stuck-phase workers (each
/// stall is 400 ms from its dequeue) before the drill records a violated
/// invariant rather than hang.
const SETTLE_BOUND: Duration = Duration::from_secs(5);

/// Polls until no job is queued and the `serve.jobs.in_flight` gauge
/// reads 0; `false` if that takes longer than [`SETTLE_BOUND`].
fn settle(server: &Server) -> bool {
    let started = Instant::now();
    loop {
        let in_flight = server.metrics().gauge_value("serve.jobs.in_flight");
        if server.queue_len() == 0 && in_flight == Some(0.0) {
            return true;
        }
        if started.elapsed() >= SETTLE_BOUND {
            return false;
        }
        std::thread::sleep(Duration::from_millis(3));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counts_absorb_every_outcome() {
        let mut c = PhaseCounts::default();
        c.absorb(&Ok(JobReply::Compiled {
            provenance: 1,
            conv_cols: 2,
            degraded: false,
        }));
        c.absorb(&Err(ServeError::Overloaded {
            queued: 8,
            capacity: 8,
        }));
        c.absorb(&Err(ServeError::DeadlineExceeded { waited_ms: 5 }));
        c.absorb(&Err(ServeError::Cancelled));
        c.absorb(&Err(ServeError::WorkerLost { attempts: 3 }));
        c.absorb(&Err(ServeError::Rejected { detail: "x".into() }));
        c.absorb(&Err(ServeError::Failed { detail: "y".into() }));
        assert_eq!(c.submitted, 7);
        assert_eq!(c.resolved(), 7);
        assert_eq!((c.completed, c.shed, c.deadline, c.cancelled), (1, 1, 1, 1));
    }

    #[test]
    fn progress_probe_digest_is_field_sensitive() {
        use scaledeep_trace::ProgressKind;
        let mk = |seq, cycle| ProgressUpdate {
            seq,
            cycle,
            kind: ProgressKind::Sync { index: 0 },
            syncs: 1,
            faults: 0,
            retries: 0,
        };
        let a = ProgressProbe::from_stream(0, &[mk(0, 10), mk(1, 20)], 0);
        let b = ProgressProbe::from_stream(0, &[mk(0, 10), mk(1, 20)], 0);
        let c = ProgressProbe::from_stream(0, &[mk(0, 10), mk(1, 21)], 0);
        assert_eq!(a, b, "same stream, same digest");
        assert_ne!(a.digest, c.digest, "one cycle off flips the digest");
        assert!(a.monotonic);
        let d = ProgressProbe::from_stream(0, &[mk(1, 10), mk(1, 20)], 0);
        assert!(!d.monotonic, "equal seqs are not monotonic");
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = DrillReport {
            seed: 3,
            config: DrillConfig::default(),
            phases: vec![("nominal", {
                let mut c = PhaseCounts::default();
                c.absorb(&Err(ServeError::Cancelled));
                c
            })],
            cache: CacheStats::default(),
            worker_restarts: 0,
            retries: 0,
            resilient_retried: 0,
            resilient_dead_tiles: 0,
            schedules: vec![(17, vec![3, 5])],
            progress: vec![ProgressProbe::from_stream(0, &[], 0)],
            stuck_settled: false,
            metrics: MetricsRegistry::new(),
        };
        let text = report.render();
        assert!(text.contains("phase nominal"), "{text}");
        assert!(text.contains("verdict: FAIL"), "{text}");
        assert!(
            report
                .invariants()
                .iter()
                .any(|v| v.contains("settle bound")),
            "an unsettled stuck phase is a violation"
        );
        let json = report.to_bench_json();
        let parsed = scaledeep_trace::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_num),
            Some(DRILL_SCHEMA_VERSION as f64)
        );
        assert!(parsed.get("jobs").is_some());
        assert!(parsed.get("wall").is_some());
        assert_eq!(
            parsed
                .get("progress")
                .and_then(|p| p.get("jobs"))
                .and_then(Json::as_num),
            Some(1.0)
        );
        let stats = report.stats_json();
        assert!(
            crate::protocol::stats_from_json(&stats).is_ok(),
            "stats artifact round-trips as a protocol stats line: {stats}"
        );
        assert_eq!(
            parsed
                .get("backoff_ms")
                .and_then(|b| b.get("17"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
