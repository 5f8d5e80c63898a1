//! The server's wire protocol: line-delimited JSON requests and
//! responses, built on the trace crate's zero-dependency JSON layer.
//!
//! One request per line, one response per line, in order. Every request
//! resolves to exactly one response — an `ok` payload or a **typed**
//! error (`overloaded`, `deadline_exceeded`, `cancelled`, `worker_lost`,
//! `rejected`, `failed`); the server never answers a request with
//! silence. `u64` fields ride as decimal strings (the JSON layer models
//! numbers as `f64`, which cannot represent all of `u64`), the same
//! convention the artifact store uses.

use scaledeep_sim::perf::RunKind;
use scaledeep_trace::json::{self, obj, Json};

/// What one job asks the engine to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Compile `network` through the session's provenance-keyed cache
    /// (concurrent identical compiles run the pipeline once).
    Compile {
        /// Zoo benchmark name.
        network: String,
    },
    /// Compile (cached) and run the performance simulator.
    Simulate {
        /// Zoo benchmark name.
        network: String,
        /// Training or evaluation.
        kind: RunKind,
    },
    /// One functional training iteration under a seeded [`FaultPlan`]
    /// via the `Session::run_resilient` checkpoint/remap/retry path.
    ///
    /// [`FaultPlan`]: scaledeep_sim::fault::FaultPlan
    Resilient {
        /// Zoo benchmark name (must functional-compile).
        network: String,
        /// Fault-plan seed.
        plan_seed: u64,
        /// When set, schedules a permanent failure of this tile at cycle
        /// 1, forcing the degraded recompile + checkpoint retry.
        kill_tile: Option<u16>,
    },
}

impl JobKind {
    /// The benchmark the job targets.
    pub fn network(&self) -> &str {
        match self {
            JobKind::Compile { network }
            | JobKind::Simulate { network, .. }
            | JobKind::Resilient { network, .. } => network,
        }
    }
}

/// A chaos directive riding on a job: the drill's deterministic way of
/// making specific jobs die. The server executes directives faithfully —
/// they model the failures a production fleet would see (a worker OOMing
/// mid-job, a transient backend fault, a hung dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosDirective {
    /// The first `panic_attempts` executions panic mid-job (the worker
    /// must catch the panic and recover the job).
    pub panic_attempts: u32,
    /// The first `fail_attempts` executions die to an injected transient
    /// fault (the worker retries with seeded exponential backoff).
    pub fail_attempts: u32,
    /// Every execution stalls this long before doing work (a stall past
    /// the deadline exercises the client-side deadline path).
    pub stall_ms: u64,
}

impl ChaosDirective {
    /// True when the directive injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// One client request: who is asking, what to do, and how long they are
/// willing to wait.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Tenant identity — the fair scheduler's queueing key.
    pub tenant: String,
    /// The work.
    pub kind: JobKind,
    /// Deadline in milliseconds from admission (server default when
    /// absent). Jobs past their deadline resolve `deadline_exceeded`,
    /// queued or in flight — never a hang.
    pub deadline_ms: Option<u64>,
    /// Optional chaos directive (drills only).
    pub chaos: Option<ChaosDirective>,
    /// When true, the server interleaves [`ProgressEvent`] lines for this
    /// job on the submitting connection, before the terminal response.
    pub progress: bool,
}

impl JobRequest {
    /// A plain request with the server's default deadline and no chaos.
    pub fn new(tenant: impl Into<String>, kind: JobKind) -> Self {
        Self {
            tenant: tenant.into(),
            kind,
            deadline_ms: None,
            chaos: None,
            progress: false,
        }
    }

    /// Sets an explicit deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Attaches a chaos directive.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosDirective) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Subscribes to interleaved progress lines.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }
}

/// A successful job's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum JobReply {
    /// A compile completed (possibly served from the cache).
    Compiled {
        /// The artifact's provenance cache key.
        provenance: u64,
        /// ConvLayer columns the mapping uses.
        conv_cols: usize,
        /// Whether the artifact routes around failed tiles.
        degraded: bool,
    },
    /// A performance simulation completed.
    Simulated {
        /// Training/evaluation throughput.
        images_per_sec: f64,
        /// Pipeline stages simulated.
        stages: usize,
    },
    /// A resilient functional iteration completed.
    Resilient {
        /// Cycle count of the (possibly retried) iteration.
        cycles: u64,
        /// Whether a tile failure forced the degraded recompile + retry.
        retried: bool,
        /// Tiles condemned by the fault plan.
        dead_tiles: usize,
    },
}

/// The typed failure taxonomy — every way a job can resolve other than
/// success. Clients can branch on the kind without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full; the job was shed at admission.
    Overloaded {
        /// Jobs queued at the shed.
        queued: usize,
        /// The queue bound.
        capacity: usize,
    },
    /// The job's deadline passed before it finished (in queue, in
    /// backoff, or in flight on a wedged worker).
    DeadlineExceeded {
        /// Milliseconds from admission to resolution.
        waited_ms: u64,
    },
    /// The client cancelled the job before a worker finished it.
    Cancelled,
    /// The executing worker died (panicked) and the retry budget ran
    /// out before the job completed.
    WorkerLost {
        /// Attempts consumed, including the fatal ones.
        attempts: u32,
    },
    /// The request itself is invalid (unknown benchmark, bad fields).
    Rejected {
        /// Why.
        detail: String,
    },
    /// The engine failed the job with a non-retryable error (compile
    /// failure, simulator fault).
    Failed {
        /// Rendered engine error.
        detail: String,
    },
}

impl ServeError {
    /// Short machine-readable kind tag (the wire `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Cancelled => "cancelled",
            ServeError::WorkerLost { .. } => "worker_lost",
            ServeError::Rejected { .. } => "rejected",
            ServeError::Failed { .. } => "failed",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {queued} queued at capacity {capacity}")
            }
            ServeError::DeadlineExceeded { waited_ms } => {
                write!(f, "deadline exceeded after {waited_ms} ms")
            }
            ServeError::Cancelled => write!(f, "cancelled"),
            ServeError::WorkerLost { attempts } => {
                write!(f, "worker lost after {attempts} attempt(s)")
            }
            ServeError::Rejected { detail } => write!(f, "rejected: {detail}"),
            ServeError::Failed { detail } => write!(f, "failed: {detail}"),
        }
    }
}

/// How a job resolves: payload or typed error.
pub type JobResult = Result<JobReply, ServeError>;

// ------------------------------------------------------------- encoding

/// Renders a request as one JSON line (no trailing newline).
pub fn request_to_json(req: &JobRequest) -> String {
    let mut fields: Vec<(&'static str, Json)> = vec![("tenant", Json::Str(req.tenant.clone()))];
    match &req.kind {
        JobKind::Compile { network } => {
            fields.push(("op", Json::Str("compile".into())));
            fields.push(("network", Json::Str(network.clone())));
        }
        JobKind::Simulate { network, kind } => {
            fields.push(("op", Json::Str("simulate".into())));
            fields.push(("network", Json::Str(network.clone())));
            fields.push(("kind", Json::Str(kind.name().into())));
        }
        JobKind::Resilient {
            network,
            plan_seed,
            kill_tile,
        } => {
            fields.push(("op", Json::Str("resilient".into())));
            fields.push(("network", Json::Str(network.clone())));
            fields.push(("plan_seed", Json::decimal(*plan_seed)));
            fields.push((
                "kill_tile",
                kill_tile.map_or(Json::Null, |t| Json::count(t as usize)),
            ));
        }
    }
    if let Some(ms) = req.deadline_ms {
        fields.push(("deadline_ms", Json::decimal(ms)));
    }
    if let Some(c) = req.chaos {
        fields.push((
            "chaos",
            obj([
                ("panic_attempts", Json::count(c.panic_attempts as usize)),
                ("fail_attempts", Json::count(c.fail_attempts as usize)),
                ("stall_ms", Json::decimal(c.stall_ms)),
            ]),
        ));
    }
    if req.progress {
        fields.push(("progress", Json::Bool(true)));
    }
    obj(fields).render()
}

/// One line a client may send: a job submission or a server-wide stats
/// snapshot request (`{"op": "stats"}` — answered inline on the
/// connection, never queued).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job through the fair queue.
    Job(JobRequest),
    /// Snapshot the server's metrics registry.
    Stats,
}

/// The stats request as one JSON line (no trailing newline).
pub fn stats_request_json() -> String {
    obj([("op", Json::Str("stats".into()))]).render()
}

/// Parses any client line from its one parsed tree: `stats` requests
/// are recognized before job decoding (they carry no
/// `tenant`/`network`).
///
/// # Errors
///
/// Returns a human-readable description of the malformed field; the
/// server answers such lines with [`ServeError::Rejected`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line)?;
    if doc.get("op").and_then(Json::as_str) == Some("stats") {
        return Ok(Request::Stats);
    }
    let tenant = doc.str_field("tenant")?.to_string();
    let network = doc.str_field("network")?.to_string();
    let kind = match doc.str_field("op")? {
        "compile" => JobKind::Compile { network },
        "simulate" => JobKind::Simulate {
            network,
            kind: RunKind::parse(doc.str_field("kind")?)?,
        },
        "resilient" => JobKind::Resilient {
            network,
            plan_seed: doc.decimal_field("plan_seed")?,
            kill_tile: doc.optional("kill_tile", Json::count_field)?,
        },
        other => return Err(format!("unknown op `{other}`")),
    };
    let deadline_ms = doc.optional("deadline_ms", Json::decimal_field)?;
    let chaos = match doc.optional("chaos", Json::field)? {
        None => None,
        Some(c) => Some(ChaosDirective {
            panic_attempts: c.count_field("panic_attempts")?,
            fail_attempts: c.count_field("fail_attempts")?,
            stall_ms: c.decimal_field("stall_ms")?,
        }),
    };
    let progress = doc.optional("progress", Json::bool_field)?.unwrap_or(false);
    Ok(Request::Job(JobRequest {
        tenant,
        kind,
        deadline_ms,
        chaos,
        progress,
    }))
}

/// Renders a result as one JSON line (no trailing newline).
pub fn result_to_json(result: &JobResult) -> String {
    match result {
        Ok(JobReply::Compiled {
            provenance,
            conv_cols,
            degraded,
        }) => obj([(
            "ok",
            obj([
                ("op", Json::Str("compile".into())),
                ("provenance", Json::decimal(*provenance)),
                ("conv_cols", Json::count(*conv_cols)),
                ("degraded", Json::Bool(*degraded)),
            ]),
        )]),
        Ok(JobReply::Simulated {
            images_per_sec,
            stages,
        }) => obj([(
            "ok",
            obj([
                ("op", Json::Str("simulate".into())),
                ("images_per_sec", Json::Num(*images_per_sec)),
                ("stages", Json::count(*stages)),
            ]),
        )]),
        Ok(JobReply::Resilient {
            cycles,
            retried,
            dead_tiles,
        }) => obj([(
            "ok",
            obj([
                ("op", Json::Str("resilient".into())),
                ("cycles", Json::decimal(*cycles)),
                ("retried", Json::Bool(*retried)),
                ("dead_tiles", Json::count(*dead_tiles)),
            ]),
        )]),
        Err(e) => {
            let mut fields: Vec<(&'static str, Json)> = vec![("kind", Json::Str(e.kind().into()))];
            match e {
                ServeError::Overloaded { queued, capacity } => {
                    fields.push(("queued", Json::count(*queued)));
                    fields.push(("capacity", Json::count(*capacity)));
                }
                ServeError::DeadlineExceeded { waited_ms } => {
                    fields.push(("waited_ms", Json::decimal(*waited_ms)));
                }
                ServeError::WorkerLost { attempts } => {
                    fields.push(("attempts", Json::count(*attempts as usize)));
                }
                ServeError::Rejected { detail } | ServeError::Failed { detail } => {
                    fields.push(("detail", Json::Str(detail.clone())));
                }
                ServeError::Cancelled => {}
            }
            obj([("err", obj(fields))])
        }
    }
    .render()
}

/// Parses one response line.
///
/// # Errors
///
/// Returns a description of the malformed field.
pub fn result_from_json(line: &str) -> Result<JobResult, String> {
    let doc = json::parse(line)?;
    if let Some(ok) = doc.get("ok") {
        return Ok(Ok(match ok.str_field("op")? {
            "compile" => JobReply::Compiled {
                provenance: ok.decimal_field("provenance")?,
                conv_cols: ok.count_field("conv_cols")?,
                degraded: ok.bool_field("degraded")?,
            },
            "simulate" => JobReply::Simulated {
                images_per_sec: ok.num_field("images_per_sec")?,
                stages: ok.count_field("stages")?,
            },
            "resilient" => JobReply::Resilient {
                cycles: ok.decimal_field("cycles")?,
                retried: ok.bool_field("retried")?,
                dead_tiles: ok.count_field("dead_tiles")?,
            },
            other => return Err(format!("unknown reply op `{other}`")),
        }));
    }
    let err = doc
        .get("err")
        .ok_or("response has neither `ok` nor `err`")?;
    Ok(Err(match err.str_field("kind")? {
        "overloaded" => ServeError::Overloaded {
            queued: err.count_field("queued")?,
            capacity: err.count_field("capacity")?,
        },
        "deadline_exceeded" => ServeError::DeadlineExceeded {
            waited_ms: err.decimal_field("waited_ms")?,
        },
        "cancelled" => ServeError::Cancelled,
        "worker_lost" => ServeError::WorkerLost {
            attempts: err.count_field("attempts")?,
        },
        "rejected" => ServeError::Rejected {
            detail: err.str_field("detail")?.to_string(),
        },
        "failed" => ServeError::Failed {
            detail: err.str_field("detail")?.to_string(),
        },
        other => return Err(format!("unknown error kind `{other}`")),
    }))
}

// ------------------------------------------------------- progress lines

/// One interleaved progress line: a job's [`ProgressUpdate`], tenant-
/// tagged and annotated with the channel's drop count so a client can
/// tell a quiet stream from a lossy one. Sequence numbers are per-job
/// and strictly monotonic; a gap means the bounded channel evicted
/// updates.
///
/// [`ProgressUpdate`]: scaledeep_trace::ProgressUpdate
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Server-assigned job id.
    pub job: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Per-job emission ordinal (strictly monotonic).
    pub seq: u64,
    /// Stable kind name (`"queued"`, `"attempt"`, `"phase"`, `"sync"`,
    /// `"cycles"`, `"checkpoint"`, `"remap"`, `"fault"`).
    pub kind: String,
    /// Simulation cycle of the underlying event (0 for host-level kinds).
    pub cycle: u64,
    /// Kind-specific numeric detail (attempt number, sync index, retired
    /// count, dead-tile count).
    pub value: Option<u64>,
    /// Kind-specific string detail (phase name, fault kind).
    pub label: Option<String>,
    /// Sync windows completed so far.
    pub syncs: u64,
    /// Faults observed so far.
    pub faults: u64,
    /// Link retries charged so far.
    pub retries: u64,
    /// Updates the bounded channel evicted so far (queue pressure, not
    /// wire loss).
    pub dropped: u64,
}

impl ProgressEvent {
    /// Tags a channel update with its job identity and drop count.
    pub fn from_update(
        job: u64,
        tenant: impl Into<String>,
        update: &scaledeep_trace::ProgressUpdate,
        dropped: u64,
    ) -> Self {
        Self {
            job,
            tenant: tenant.into(),
            seq: update.seq,
            kind: update.kind.name().to_string(),
            cycle: update.cycle,
            value: update.kind.value(),
            label: update.kind.label().map(str::to_string),
            syncs: update.syncs,
            faults: update.faults,
            retries: update.retries,
            dropped,
        }
    }
}

/// Renders a progress event as one JSON line (no trailing newline).
pub fn progress_to_json(ev: &ProgressEvent) -> String {
    obj([(
        "progress",
        obj([
            ("job", Json::decimal(ev.job)),
            ("tenant", Json::Str(ev.tenant.clone())),
            ("seq", Json::decimal(ev.seq)),
            ("kind", Json::Str(ev.kind.clone())),
            ("cycle", Json::decimal(ev.cycle)),
            ("value", ev.value.map_or(Json::Null, Json::decimal)),
            (
                "label",
                ev.label
                    .as_ref()
                    .map_or(Json::Null, |l| Json::Str(l.clone())),
            ),
            ("syncs", Json::decimal(ev.syncs)),
            ("faults", Json::decimal(ev.faults)),
            ("retries", Json::decimal(ev.retries)),
            ("dropped", Json::decimal(ev.dropped)),
        ]),
    )])
    .render()
}

/// Parses one progress line.
///
/// # Errors
///
/// Returns a description of the malformed field.
pub fn progress_from_json(line: &str) -> Result<ProgressEvent, String> {
    let doc = json::parse(line)?;
    let p = doc.get("progress").ok_or("line has no `progress` object")?;
    Ok(ProgressEvent {
        job: p.decimal_field("job")?,
        tenant: p.str_field("tenant")?.to_string(),
        seq: p.decimal_field("seq")?,
        kind: p.str_field("kind")?.to_string(),
        cycle: p.decimal_field("cycle")?,
        value: p.optional("value", Json::decimal_field)?,
        label: p.optional("label", Json::str_field)?.map(str::to_string),
        syncs: p.decimal_field("syncs")?,
        faults: p.decimal_field("faults")?,
        retries: p.decimal_field("retries")?,
        dropped: p.decimal_field("dropped")?,
    })
}

// ---------------------------------------------------------- stats lines

/// One metric's value in a [`StatsSnapshot`]. Wire shapes are
/// distinguished structurally: counters ride as decimal strings, gauges
/// as numbers, histograms as objects.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// Monotonic accumulator.
    Counter(u64),
    /// Last-write-wins value.
    Gauge(f64),
    /// Distribution summary (count plus sum/min/max/mean and the exact
    /// p50/p99 estimates from the log2 buckets).
    Hist {
        /// Number of samples.
        count: u64,
        /// Sum of all samples.
        sum: f64,
        /// Smallest sample (0 when empty).
        min: f64,
        /// Largest sample.
        max: f64,
        /// Mean sample.
        mean: f64,
        /// 50th-percentile estimate.
        p50: f64,
        /// 99th-percentile estimate.
        p99: f64,
    },
}

/// A server-wide metrics snapshot: every registry entry, name-ordered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// `(name, value)` pairs in registry (name) order.
    pub metrics: Vec<(String, StatValue)>,
}

impl StatsSnapshot {
    /// Summarizes a registry: counters/gauges verbatim, histograms
    /// reduced to their wire summary. Order follows the registry's
    /// name-sorted iteration, so same-state snapshots render identically.
    pub fn from_registry(reg: &scaledeep_trace::MetricsRegistry) -> Self {
        use scaledeep_trace::Value;
        let metrics = reg
            .iter()
            .map(|(name, value)| {
                let v = match value {
                    Value::Counter(c) => StatValue::Counter(*c),
                    Value::Gauge(g) => StatValue::Gauge(*g),
                    Value::Histogram(h) => StatValue::Hist {
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0.0 } else { h.min },
                        max: h.max,
                        mean: h.mean(),
                        p50: h.percentile(50.0),
                        p99: h.percentile(99.0),
                    },
                };
                (name.to_string(), v)
            })
            .collect();
        Self { metrics }
    }

    /// The named counter's value, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|(n, v)| match v {
            StatValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// The named gauge's value, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find_map(|(n, v)| match v {
            StatValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// The named histogram's sample count, when present.
    pub fn hist_count(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|(n, v)| match v {
            StatValue::Hist { count, .. } if n == name => Some(*count),
            _ => None,
        })
    }
}

/// Renders a stats snapshot as one JSON response line (no trailing
/// newline): `{"ok": {"op": "stats", "metrics": {...}}}`.
pub fn stats_to_json(snapshot: &StatsSnapshot) -> String {
    let metrics: Vec<(String, Json)> = snapshot
        .metrics
        .iter()
        .map(|(name, v)| {
            let j = match v {
                StatValue::Counter(c) => Json::decimal(*c),
                StatValue::Gauge(g) => Json::Num(*g),
                StatValue::Hist {
                    count,
                    sum,
                    min,
                    max,
                    mean,
                    p50,
                    p99,
                } => obj([
                    ("count", Json::decimal(*count)),
                    ("sum", Json::Num(*sum)),
                    ("min", Json::Num(*min)),
                    ("max", Json::Num(*max)),
                    ("mean", Json::Num(*mean)),
                    ("p50", Json::Num(*p50)),
                    ("p99", Json::Num(*p99)),
                ]),
            };
            (name.clone(), j)
        })
        .collect();
    obj([(
        "ok",
        obj([
            ("op", Json::Str("stats".into())),
            ("metrics", Json::Obj(metrics)),
        ]),
    )])
    .render()
}

/// Parses one stats response line.
///
/// # Errors
///
/// Returns a description of the malformed field.
pub fn stats_from_json(line: &str) -> Result<StatsSnapshot, String> {
    let doc = json::parse(line)?;
    let ok = doc.get("ok").ok_or("line has no `ok` object")?;
    if ok.str_field("op")? != "stats" {
        return Err("`ok.op` is not `stats`".to_string());
    }
    let entries = match ok.get("metrics") {
        Some(Json::Obj(entries)) => entries,
        _ => return Err("missing or non-object `metrics`".to_string()),
    };
    let mut metrics = Vec::with_capacity(entries.len());
    for (name, j) in entries {
        let v = match j {
            Json::Str(_) => StatValue::Counter(j.to_decimal(name)?),
            Json::Num(n) => StatValue::Gauge(*n),
            Json::Obj(_) => StatValue::Hist {
                count: j.decimal_field("count")?,
                sum: j.num_field("sum")?,
                min: j.num_field("min")?,
                max: j.num_field("max")?,
                mean: j.num_field("mean")?,
                p50: j.num_field("p50")?,
                p99: j.num_field("p99")?,
            },
            other => return Err(format!("metric `{name}` has unexpected shape {other:?}")),
        };
        metrics.push((name.clone(), v));
    }
    Ok(StatsSnapshot { metrics })
}

// -------------------------------------------------------- client decode

/// Any line a server may send on a connection: interleaved progress, a
/// stats snapshot, or a terminal job result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerLine {
    /// An interleaved per-job progress event.
    Progress(ProgressEvent),
    /// A stats snapshot (terminal for a `stats` request).
    Stats(StatsSnapshot),
    /// A terminal job result.
    Result(JobResult),
}

/// Parses any server line: progress first (cheap structural check), then
/// stats, then the terminal result taxonomy.
///
/// # Errors
///
/// Returns a description of the malformed field.
pub fn server_line_from_json(line: &str) -> Result<ServerLine, String> {
    let doc = json::parse(line)?;
    if doc.get("progress").is_some() {
        return progress_from_json(line).map(ServerLine::Progress);
    }
    if let Some(ok) = doc.get("ok") {
        if ok.get("op").and_then(Json::as_str) == Some("stats") {
            return stats_from_json(line).map(ServerLine::Stats);
        }
    }
    result_from_json(line).map(ServerLine::Result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a job line; a stats request fails the test.
    fn parse_job(line: &str) -> Result<JobRequest, String> {
        match parse_request(line)? {
            Request::Job(job) => Ok(job),
            Request::Stats => panic!("`{line}` parsed as a stats request"),
        }
    }

    fn round_trip_request(req: JobRequest) {
        let line = request_to_json(&req);
        assert!(!line.contains('\n'), "one request per line: {line}");
        assert_eq!(parse_job(&line).expect(&line), req);
    }

    fn round_trip_result(res: JobResult) {
        let line = result_to_json(&res);
        assert!(!line.contains('\n'), "one response per line: {line}");
        assert_eq!(result_from_json(&line).expect(&line), res);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(JobRequest::new(
            "alice",
            JobKind::Compile {
                network: "alexnet".into(),
            },
        ));
        round_trip_request(
            JobRequest::new(
                "bob",
                JobKind::Simulate {
                    network: "cnn-s".into(),
                    kind: RunKind::Evaluation,
                },
            )
            .with_deadline_ms(1500),
        );
        round_trip_request(
            JobRequest::new(
                "carol",
                JobKind::Resilient {
                    network: "alexnet-func".into(),
                    plan_seed: u64::MAX,
                    kill_tile: Some(3),
                },
            )
            .with_chaos(ChaosDirective {
                panic_attempts: 1,
                fail_attempts: 2,
                stall_ms: 10,
            }),
        );
    }

    #[test]
    fn results_round_trip() {
        round_trip_result(Ok(JobReply::Compiled {
            provenance: u64::MAX - 1,
            conv_cols: 48,
            degraded: true,
        }));
        round_trip_result(Ok(JobReply::Simulated {
            images_per_sec: 71744.5,
            stages: 9,
        }));
        round_trip_result(Ok(JobReply::Resilient {
            cycles: 123456789,
            retried: true,
            dead_tiles: 1,
        }));
        round_trip_result(Err(ServeError::Overloaded {
            queued: 64,
            capacity: 16,
        }));
        round_trip_result(Err(ServeError::DeadlineExceeded { waited_ms: 512 }));
        round_trip_result(Err(ServeError::Cancelled));
        round_trip_result(Err(ServeError::WorkerLost { attempts: 3 }));
        round_trip_result(Err(ServeError::Rejected {
            detail: "unknown benchmark `nope`".into(),
        }));
        round_trip_result(Err(ServeError::Failed {
            detail: "does not fit".into(),
        }));
    }

    #[test]
    fn malformed_lines_are_described_not_panicked() {
        assert!(parse_job("not json").is_err());
        assert!(parse_job("{}").is_err());
        assert!(
            parse_job("{\"tenant\": \"a\", \"op\": \"fry\", \"network\": \"x\"}")
                .unwrap_err()
                .contains("unknown op")
        );
        assert!(result_from_json("{\"err\": {\"kind\": \"mystery\"}}").is_err());
        // A reply flag that is missing or not a bool is an error, never a
        // silent `false`.
        for (op, rest, flag) in [
            (
                "compile",
                "\"provenance\": \"1\", \"conv_cols\": 2",
                "degraded",
            ),
            (
                "resilient",
                "\"cycles\": \"1\", \"dead_tiles\": 0",
                "retried",
            ),
        ] {
            for value in [
                "",
                ", \"FLAG\": 1",
                ", \"FLAG\": \"true\"",
                ", \"FLAG\": null",
            ] {
                let line = format!(
                    "{{\"ok\": {{\"op\": \"{op}\", {rest}{}}}}}",
                    value.replace("FLAG", flag)
                );
                let err = result_from_json(&line).expect_err(&line);
                assert!(err.contains(&format!("`{flag}`")), "{line}: {err}");
            }
            let line = format!("{{\"ok\": {{\"op\": \"{op}\", {rest}, \"{flag}\": false}}}}");
            assert!(result_from_json(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn out_of_range_wire_counts_are_rejected_not_wrapped() {
        let chaos = |panics: &str| {
            parse_job(&format!(
                "{{\"tenant\": \"a\", \"op\": \"compile\", \"network\": \"cnn-s\", \
                 \"chaos\": {{\"panic_attempts\": {panics}, \"fail_attempts\": 0, \
                 \"stall_ms\": \"0\"}}}}"
            ))
        };
        assert_eq!(
            chaos("4294967295").unwrap().chaos.unwrap().panic_attempts,
            u32::MAX
        );
        let err = chaos("4294967296").unwrap_err();
        assert!(
            err.contains("`panic_attempts` = 4294967296 exceeds u32"),
            "{err}"
        );
        for bad in ["-1", "1.5", "9007199254740992", "\"3\""] {
            let err = chaos(bad).unwrap_err();
            assert!(err.contains("`panic_attempts`"), "{bad}: {err}");
        }
        let kill = |tile: &str| {
            parse_job(&format!(
                "{{\"tenant\": \"a\", \"op\": \"resilient\", \"network\": \"cnn-s\", \
                 \"plan_seed\": \"1\", \"kill_tile\": {tile}}}"
            ))
        };
        assert_eq!(
            kill("65535").unwrap().kind,
            JobKind::Resilient {
                network: "cnn-s".into(),
                plan_seed: 1,
                kill_tile: Some(u16::MAX),
            }
        );
        assert!(kill("65536").unwrap_err().contains("exceeds u16"));
        let attempts =
            result_from_json("{\"err\": {\"kind\": \"worker_lost\", \"attempts\": 4294967296}}");
        assert!(attempts.unwrap_err().contains("`attempts`"));
    }

    #[test]
    fn progress_requests_round_trip() {
        let req = JobRequest::new(
            "alice",
            JobKind::Simulate {
                network: "alexnet".into(),
                kind: RunKind::Training,
            },
        )
        .with_progress();
        let line = request_to_json(&req);
        assert!(line.contains("\"progress\":true"));
        round_trip_request(req);
        // A request without the flag stays flag-free on the wire.
        let plain = JobRequest::new(
            "alice",
            JobKind::Compile {
                network: "alexnet".into(),
            },
        );
        assert!(!request_to_json(&plain).contains("progress"));
        round_trip_request(plain);
        assert!(parse_job(
            "{\"tenant\": \"a\", \"op\": \"compile\", \"network\": \"x\", \"progress\": 7}"
        )
        .unwrap_err()
        .contains("progress"));
    }

    #[test]
    fn stats_requests_parse_before_job_fields() {
        assert_eq!(parse_request(&stats_request_json()), Ok(Request::Stats));
        let job = "{\"tenant\": \"a\", \"op\": \"compile\", \"network\": \"x\"}";
        assert!(matches!(parse_request(job), Ok(Request::Job(_))));
        assert!(parse_request("{}").is_err());
    }

    #[test]
    fn progress_events_round_trip() {
        let full = ProgressEvent {
            job: 42,
            tenant: "alice".into(),
            seq: 7,
            kind: "sync".into(),
            cycle: u64::MAX,
            value: Some(3),
            label: None,
            syncs: 4,
            faults: 1,
            retries: 9,
            dropped: 0,
        };
        let line = progress_to_json(&full);
        assert!(!line.contains('\n'));
        assert_eq!(progress_from_json(&line).expect(&line), full);
        let labeled = ProgressEvent {
            kind: "phase".into(),
            value: None,
            label: Some("analyze".into()),
            ..full
        };
        let line = progress_to_json(&labeled);
        assert_eq!(progress_from_json(&line).expect(&line), labeled);
    }

    #[test]
    fn stats_snapshots_round_trip() {
        let snap = StatsSnapshot {
            metrics: vec![
                ("serve.jobs.submitted".into(), StatValue::Counter(12)),
                ("serve.queue.depth".into(), StatValue::Gauge(3.0)),
                (
                    "serve.lat.run_ns".into(),
                    StatValue::Hist {
                        count: 12,
                        sum: 4096.0,
                        min: 128.0,
                        max: 512.0,
                        mean: 341.25,
                        p50: 256.0,
                        p99: 512.0,
                    },
                ),
            ],
        };
        let line = stats_to_json(&snap);
        assert!(!line.contains('\n'));
        assert_eq!(stats_from_json(&line).expect(&line), snap);
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(12));
        assert_eq!(snap.gauge("serve.queue.depth"), Some(3.0));
        assert_eq!(snap.hist_count("serve.lat.run_ns"), Some(12));
        assert_eq!(snap.counter("serve.queue.depth"), None);
    }

    #[test]
    fn stats_snapshot_summarizes_a_registry() {
        let mut reg = scaledeep_trace::MetricsRegistry::new();
        let c = reg.counter("a.count");
        reg.add(c, 5);
        let g = reg.gauge("b.gauge");
        reg.set(g, 2.5);
        let h = reg.histogram("c.hist");
        reg.observe(h, 4.0);
        reg.observe(h, 16.0);
        let snap = StatsSnapshot::from_registry(&reg);
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("b.gauge"), Some(2.5));
        match snap.metrics.iter().find(|(n, _)| n == "c.hist") {
            Some((_, StatValue::Hist { count, sum, .. })) => {
                assert_eq!(*count, 2);
                assert_eq!(*sum, 20.0);
            }
            other => panic!("expected hist, got {other:?}"),
        }
        // Empty hists render a finite min (Infinity has no JSON form).
        let mut reg = scaledeep_trace::MetricsRegistry::new();
        reg.histogram("empty");
        let snap = StatsSnapshot::from_registry(&reg);
        let line = stats_to_json(&snap);
        assert_eq!(stats_from_json(&line).expect(&line), snap);
    }

    #[test]
    fn server_lines_dispatch_by_shape() {
        let progress = progress_to_json(&ProgressEvent {
            job: 1,
            tenant: "t".into(),
            seq: 0,
            kind: "queued".into(),
            cycle: 0,
            value: None,
            label: None,
            syncs: 0,
            faults: 0,
            retries: 0,
            dropped: 0,
        });
        assert!(matches!(
            server_line_from_json(&progress),
            Ok(ServerLine::Progress(_))
        ));
        let stats = stats_to_json(&StatsSnapshot::default());
        assert!(matches!(
            server_line_from_json(&stats),
            Ok(ServerLine::Stats(_))
        ));
        let result = result_to_json(&Ok(JobReply::Compiled {
            provenance: 1,
            conv_cols: 2,
            degraded: false,
        }));
        assert!(matches!(
            server_line_from_json(&result),
            Ok(ServerLine::Result(Ok(JobReply::Compiled { .. })))
        ));
        assert!(server_line_from_json("not json").is_err());
    }

    #[test]
    fn malformed_progress_and_stats_lines_are_described() {
        // Unknown shapes and missing fields come back as typed errors,
        // never panics.
        assert!(progress_from_json("{\"progress\": {}}")
            .unwrap_err()
            .contains("job"));
        assert!(progress_from_json("{\"ok\": {}}").is_err());
        assert!(
            progress_from_json("{\"progress\": {\"job\": 3}}").is_err(),
            "u64 fields must ride as decimal strings"
        );
        assert!(stats_from_json("{\"ok\": {\"op\": \"compile\"}}")
            .unwrap_err()
            .contains("stats"));
        assert!(stats_from_json("{\"ok\": {\"op\": \"stats\"}}")
            .unwrap_err()
            .contains("metrics"));
        assert!(stats_from_json(
            "{\"ok\": {\"op\": \"stats\", \"metrics\": {\"x\": {\"count\": \"1\"}}}}"
        )
        .unwrap_err()
        .contains("sum"));
        assert!(
            stats_from_json("{\"ok\": {\"op\": \"stats\", \"metrics\": {\"x\": true}}}")
                .unwrap_err()
                .contains("unexpected shape")
        );
        // A progress-shaped line with garbage inside never falls through
        // to the result parser.
        assert!(server_line_from_json("{\"progress\": 5}").is_err());
    }
}
