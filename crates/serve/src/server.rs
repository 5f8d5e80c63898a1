//! The job server: a shared [`Session`] behind a bounded fair queue and a
//! worker pool.
//!
//! The layering mirrors the engine/service split: the engine crates stay
//! pure (compile, simulate, deterministic faults), and this module owns
//! every *policy* — admission, deadlines, retry, fairness, and recovery:
//!
//! * **Admission**: [`Server::submit`] validates the request and admits
//!   it into the bounded [`FairQueue`]. A full queue first gives back the
//!   capacity of queued jobs that are resolved or past their deadline,
//!   then sheds with a typed [`ServeError::Overloaded`] instead of
//!   queueing unboundedly.
//! * **Deadlines**: every job carries one, and [`JobHandle::wait`]
//!   resolves it [`ServeError::DeadlineExceeded`] at that deadline
//!   wherever the job is — queued, in backoff, or in flight on a wedged
//!   worker, whose late result is then discarded. A client can never
//!   hang on the server.
//! * **Retry**: attempts that die to transient faults retry in-worker
//!   under the seeded [`retry`] backoff ladder; attempts that panic are
//!   re-admitted at the front of their lane. Both paths share one
//!   attempt budget, [`retry::MAX_ATTEMPTS`].
//! * **Recovery**: a worker runs each job under `catch_unwind`, so a
//!   panicking attempt unwinds to the worker that ran it, which recovers
//!   the job itself and keeps serving — no thread dies, and queued jobs
//!   are never lost.
//! * **Dedup**: the shared [`Session`]'s cache runs one pipeline per
//!   provenance, however many jobs compile it at once.

use crate::protocol::{
    JobKind, JobReply, JobRequest, JobResult, ProgressEvent, Request, ServeError, StatsSnapshot,
};
use crate::queue::FairQueue;
use crate::retry;
use scaledeep::{CompileOptions, CompiledArtifact, Observer, Session};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::{FaultKind, FaultPlan};
use scaledeep_trace::{
    progress_channel, MetricsRegistry, ProgressKind, ProgressReceiver, ProgressSender,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Installs (once, process-wide) a panic hook that silences the
/// intentional `chaos-kill` attempt panics drills inject, forwarding
/// everything else to the previously installed hook. Call before
/// running chaos drills so panicked attempts do not spray backtraces.
pub fn install_chaos_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("chaos-kill") {
                prev(info);
            }
        }));
    });
}

/// Bound on undrained progress updates per job; the channel evicts (and
/// counts) the oldest past this, so a slow client loses history but never
/// stalls a worker.
const PROGRESS_CAPACITY: usize = 1024;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; admissions past it shed `Overloaded`.
    pub queue_capacity: usize,
    /// Deadline for requests that do not set one, in milliseconds.
    pub default_deadline_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 16,
            default_deadline_ms: 30_000,
            seed: 0,
        }
    }
}

/// A job's resolve-exactly-once mailbox. The first resolver wins; late
/// resolutions (a straggling worker finishing a job its client already
/// timed out) are discarded.
struct Ticket {
    state: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, result: JobResult) -> bool {
        self.resolve_with(result, || {})
    }

    /// Resolves with `result`, running `on_win` after the state is set
    /// but before waiters are notified — bookkeeping a winner records is
    /// visible to whoever the notification wakes.
    fn resolve_with(&self, result: JobResult, on_win: impl FnOnce()) -> bool {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if g.is_some() {
            return false;
        }
        *g = Some(result);
        drop(g);
        on_win();
        self.cv.notify_all();
        true
    }

    fn resolved(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    fn wait_until(&self, deadline: Instant) -> Option<JobResult> {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = g.as_ref() {
                return Some(r.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            g = self
                .cv
                .wait_timeout(g, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Milliseconds since `t`, saturating.
fn millis_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// One admitted job.
struct Job {
    id: u64,
    request: JobRequest,
    /// Executions consumed so far (transient retries and panicked
    /// attempts share this budget).
    attempts: u32,
    admitted: Instant,
    deadline: Instant,
    ticket: Arc<Ticket>,
    /// The progress channel's producing half, when the request subscribed
    /// ([`JobRequest::progress`]). A recovered job keeps reporting into
    /// the same stream.
    progress: Option<ProgressSender>,
}

impl Job {
    fn deadline_error(&self) -> ServeError {
        ServeError::DeadlineExceeded {
            waited_ms: millis_since(self.admitted),
        }
    }
}

/// State shared by workers, connection threads, and handles.
struct Shared {
    session: Session,
    cfg: ServerConfig,
    queue: FairQueue<Job>,
    metrics: Mutex<MetricsRegistry>,
    next_id: AtomicU64,
    /// Jobs a worker is running right now.
    in_flight: AtomicU64,
    /// Panicked attempts the workers caught and recovered.
    restarts: AtomicU64,
    started: Instant,
}

impl Shared {
    fn count(&self, name: &str, delta: u64) {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let id = m.counter(name);
        m.add(id, delta);
    }

    fn observe(&self, name: &str, v: f64) {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let id = m.histogram(name);
        m.observe(id, v);
    }

    fn count_outcome(&self, result: &JobResult) {
        match result {
            Ok(_) => self.count("serve.jobs.completed", 1),
            Err(e) => self.count(
                match e {
                    ServeError::Overloaded { .. } => "serve.jobs.shed",
                    ServeError::DeadlineExceeded { .. } => "serve.jobs.deadline",
                    ServeError::Cancelled => "serve.jobs.cancelled",
                    ServeError::WorkerLost { .. } => "serve.jobs.worker_lost",
                    ServeError::Rejected { .. } => "serve.jobs.rejected",
                    ServeError::Failed { .. } => "serve.jobs.failed",
                },
                1,
            ),
        }
    }

    /// Resolves `job` and records the outcome iff this call won the
    /// resolution race, returning whether it won. The outcome counter
    /// lands before waiters wake, so a client that just saw its result
    /// also sees it counted.
    fn finish(&self, job: &Job, result: JobResult) -> bool {
        job.ticket
            .resolve_with(result.clone(), || self.count_outcome(&result))
    }

    /// The one place queue depth is recorded: gauge and histogram update
    /// together, under one registry lock, so the enqueue and drain paths
    /// can never leave the two views skewed.
    fn note_queue_depth(&self) {
        let depth = self.queue.len() as f64;
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let g = m.gauge("serve.queue.depth");
        m.set(g, depth);
        let h = m.histogram("serve.queue.depth.hist");
        m.observe(h, depth);
    }

    /// Snapshots the registry under a short-lived lock (just the clone),
    /// then augments the copy outside it: the atomically-tracked worker
    /// restart counter and jobs-in-flight gauge, and server uptime.
    fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut m = {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        };
        let restarts = m.counter("serve.worker.restarts");
        m.add(restarts, self.restarts.load(Ordering::Relaxed));
        let g = m.gauge("serve.jobs.in_flight");
        m.set(g, self.in_flight.load(Ordering::Relaxed) as f64);
        let up = m.gauge("serve.uptime_ms");
        m.set(up, self.started.elapsed().as_millis() as f64);
        m
    }
}

/// A submitted job: wait on it (deadline-bounded) or cancel it.
pub struct JobHandle {
    id: u64,
    admitted: Instant,
    deadline: Instant,
    ticket: Arc<Ticket>,
    shared: Weak<Shared>,
    /// The progress channel's consuming half, when the request subscribed.
    progress: Option<ProgressReceiver>,
}

impl JobHandle {
    /// The job's server-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's deadline (client-requested or the server default).
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The job's progress stream, when the request subscribed
    /// ([`JobRequest::progress`]). Drain it while polling
    /// [`JobHandle::try_result`]; the channel is bounded, so an undrained
    /// stream loses (and counts) its oldest updates rather than stalling
    /// the worker.
    pub fn progress(&self) -> Option<&ProgressReceiver> {
        self.progress.as_ref()
    }

    /// Blocks until the job resolves. Bounded: at the deadline an
    /// unresolved job is resolved `DeadlineExceeded` by this very call —
    /// waiting can never hang.
    pub fn wait(&self) -> JobResult {
        if let Some(r) = self.ticket.wait_until(self.deadline) {
            return r;
        }
        let err = ServeError::DeadlineExceeded {
            waited_ms: millis_since(self.admitted),
        };
        if self.ticket.resolve(Err(err.clone())) {
            if let Some(s) = self.shared.upgrade() {
                s.count("serve.jobs.deadline", 1);
            }
        }
        // Re-read: a worker may have won the race with a real result.
        self.ticket.wait_until(Instant::now()).unwrap_or(Err(err))
    }

    /// The result, if the job already resolved.
    pub fn try_result(&self) -> Option<JobResult> {
        self.ticket.wait_until(Instant::now())
    }

    /// Cancels the job: it resolves [`ServeError::Cancelled`] unless a
    /// worker already finished it. Returns whether the cancel won.
    pub fn cancel(&self) -> bool {
        let won = self.ticket.resolve(Err(ServeError::Cancelled));
        if won {
            if let Some(s) = self.shared.upgrade() {
                s.count("serve.jobs.cancelled", 1);
            }
        }
        won
    }
}

/// The running server (see module docs). Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` worker threads (at least one) over `session`.
    pub fn start(session: Session, cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            session,
            cfg,
            queue: FairQueue::new(cfg.queue_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            next_id: AtomicU64::new(1),
            in_flight: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            started: Instant::now(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Admits a job. Always returns a handle; an invalid or shed request
    /// comes back with its ticket already resolved (typed `Rejected` /
    /// `Overloaded`), so every submission resolves exactly once.
    pub fn submit(&self, request: JobRequest) -> JobHandle {
        submit_shared(&self.shared, request)
    }

    /// The engine session the workers share (cache ledger access).
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// A snapshot of the server's metrics: counters, gauges (queue depth,
    /// jobs in flight, uptime), and log2 latency histograms (queue/service
    /// microseconds plus queue-wait/compile/run nanoseconds). The registry
    /// lock is held only for the clone; augmentation happens outside it.
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.metrics_snapshot()
    }

    /// Panicked attempts the workers caught and recovered in place.
    pub fn worker_restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Jobs currently queued.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Pauses dispatch: from the moment this returns no queued job
    /// reaches a worker (in-flight jobs finish). Drills use this to build
    /// deterministic queue states.
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Resumes dispatch after [`Server::pause`].
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// Serves the line-delimited JSON protocol on `listener`: one thread
    /// per connection, one response line per request line, in order. A
    /// connection whose thread cannot be spawned is closed unserved and
    /// the loop keeps accepting. Runs until the listener errors (or
    /// forever).
    ///
    /// # Errors
    ///
    /// Propagates `accept` failures.
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        for conn in listener.incoming() {
            let stream = conn?;
            let shared = Arc::clone(&self.shared);
            // A failed spawn drops the closure, and the stream with it.
            std::thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || handle_conn(&shared, stream))
                .ok();
        }
        Ok(())
    }

    /// Stops the server: closes the queue, joins every worker (each
    /// finishes its in-flight job), and resolves everything still queued
    /// with a typed `Cancelled` — shutdown never strands a ticket.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
        for job in self.shared.queue.drain() {
            self.shared.finish(&job, Err(ServeError::Cancelled));
        }
    }
}

fn submit_shared(shared: &Arc<Shared>, request: JobRequest) -> JobHandle {
    let now = Instant::now();
    let deadline_ms = request
        .deadline_ms
        .unwrap_or(shared.cfg.default_deadline_ms);
    let deadline = now + Duration::from_millis(deadline_ms);
    let ticket = Ticket::new();
    let (progress_tx, progress_rx) = if request.progress {
        let (tx, rx) = progress_channel(PROGRESS_CAPACITY);
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    let handle = JobHandle {
        id: shared.next_id.fetch_add(1, Ordering::Relaxed),
        admitted: now,
        deadline,
        ticket: Arc::clone(&ticket),
        shared: Arc::downgrade(shared),
        progress: progress_rx,
    };
    shared.count("serve.jobs.submitted", 1);
    shared.count(&format!("serve.tenant.{}.submitted", request.tenant), 1);
    let progress_ref = progress_tx.clone();
    let job = Job {
        id: handle.id,
        request,
        attempts: 0,
        admitted: now,
        deadline,
        ticket,
        progress: progress_tx,
    };
    if zoo::by_name(job.request.kind.network()).is_none() {
        shared.finish(
            &job,
            Err(ServeError::Rejected {
                detail: format!("unknown benchmark `{}`", job.request.kind.network()),
            }),
        );
        return handle;
    }
    let tenant = job.request.tenant.clone();
    // Admission marker *before* the push: once the job is in the queue a
    // worker may pop it (and report an attempt) immediately, so emitting
    // afterwards would race the stream's ordering. A shed job's stream
    // reads `queued` then the typed `overloaded` terminal.
    if let Some(tx) = &progress_ref {
        tx.push(0, ProgressKind::Queued);
    }
    let mut pushed = shared.queue.push(&tenant, job);
    if let Err(job) = pushed {
        // Full: queued jobs that are resolved or past their deadline give
        // their capacity back before this one is shed.
        let now = Instant::now();
        for stale in shared
            .queue
            .evict(|j| now < j.deadline && !j.ticket.resolved())
        {
            shared.finish(&stale, Err(stale.deadline_error()));
        }
        pushed = shared.queue.push(&tenant, job);
    }
    if let Err(job) = pushed {
        let err = ServeError::Overloaded {
            queued: shared.queue.len(),
            capacity: shared.queue.capacity(),
        };
        shared.finish(&job, Err(err));
        return handle;
    }
    shared.note_queue_depth();
    handle
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.note_queue_depth();
        process_job(shared, job);
    }
}

fn process_job(shared: &Shared, mut job: Job) {
    if job.ticket.resolved() {
        return; // cancelled or timed out while queued
    }
    if Instant::now() >= job.deadline {
        let err = job.deadline_error();
        shared.finish(&job, Err(err));
        return;
    }
    if job.attempts == 0 {
        shared.observe("serve.queue_us", job.admitted.elapsed().as_micros() as f64);
        shared.observe(
            "serve.lat.queue_ns",
            job.admitted.elapsed().as_nanos() as f64,
        );
    }
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    // A panicking attempt (chaos) unwinds to here. Every serve lock is
    // poison-tolerant, so the worker recovers the job and keeps serving.
    let run = catch_unwind(AssertUnwindSafe(|| run_attempts(shared, &mut job)));
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    let Ok(result) = run else {
        recover(shared, job);
        return;
    };
    shared.observe("serve.service_us", started.elapsed().as_micros() as f64);
    // A job resolved elsewhere (cancelled, or timed out by its client)
    // discards the worker's late result.
    if !result.is_some_and(|r| shared.finish(&job, r)) {
        shared.count("serve.worker.abandoned", 1);
    }
}

/// A job whose attempt panicked: charge the fatal attempt, then either
/// re-admit it (front of its lane — it was already admitted once) or
/// resolve it with the typed `WorkerLost`.
fn recover(shared: &Shared, mut job: Job) {
    shared.restarts.fetch_add(1, Ordering::Relaxed);
    if job.ticket.resolved() {
        return;
    }
    job.attempts += 1;
    shared.count("serve.jobs.retries", 1);
    if job.attempts >= retry::MAX_ATTEMPTS || Instant::now() >= job.deadline {
        let err = ServeError::WorkerLost {
            attempts: job.attempts,
        };
        shared.finish(&job, Err(err));
        return;
    }
    shared.count("serve.jobs.requeued", 1);
    let tenant = job.request.tenant.clone();
    shared.queue.push_front(&tenant, job);
}

/// Runs one job to resolution inside a worker: the attempt loop with
/// chaos directives, seeded backoff between attempts, and cooperative
/// deadline/cancellation checks. `None` means the ticket resolved
/// externally (cancel / client deadline) and the outcome is owned
/// elsewhere.
fn run_attempts(shared: &Shared, job: &mut Job) -> Option<JobResult> {
    loop {
        if job.ticket.resolved() {
            return None;
        }
        if job.attempts > 0 {
            let backoff = retry::backoff_ms(shared.cfg.seed, job.id, job.attempts);
            let pause = Duration::from_millis(backoff);
            if Instant::now() + pause >= job.deadline {
                return Some(Err(job.deadline_error()));
            }
            std::thread::sleep(pause);
        }
        let chaos = job.request.chaos.unwrap_or_default();
        if job.attempts < chaos.panic_attempts {
            shared.count("serve.chaos.panics", 1);
            // A real panic: it unwinds to `process_job`, which recovers
            // the job.
            panic!("chaos-kill: job {} attempt {}", job.id, job.attempts);
        }
        if chaos.stall_ms > 0 {
            // A stuck dependency: the worker sits here past any deadline
            // the job carries; the client's wait resolves the job at its
            // deadline, and this worker's late result is discarded.
            std::thread::sleep(Duration::from_millis(chaos.stall_ms));
            if job.ticket.resolved() {
                return None;
            }
        }
        if job.attempts < chaos.fail_attempts {
            job.attempts += 1;
            shared.count("serve.jobs.retries", 1);
            if job.attempts >= retry::MAX_ATTEMPTS {
                return Some(Err(ServeError::Failed {
                    detail: format!("transient faults exhausted {} attempt(s)", job.attempts),
                }));
            }
            continue;
        }
        if Instant::now() >= job.deadline {
            return Some(Err(job.deadline_error()));
        }
        if let Some(tx) = &job.progress {
            tx.push(
                0,
                ProgressKind::Attempt {
                    attempt: job.attempts + 1,
                },
            );
        }
        return Some(execute(shared, job));
    }
}

/// The engine call behind a job, with latency decomposition
/// (`serve.lat.compile_ns` / `serve.lat.run_ns`), and — when the request
/// subscribed — progress-teed engine runs.
fn execute(shared: &Shared, job: &Job) -> JobResult {
    let obs = job
        .progress
        .as_ref()
        .map_or(Observer::Off, Observer::Progress);
    match &job.request.kind {
        JobKind::Compile { network } => {
            let t0 = Instant::now();
            let artifact = compile(shared, network, obs)?;
            shared.observe("serve.lat.compile_ns", t0.elapsed().as_nanos() as f64);
            Ok(JobReply::Compiled {
                provenance: artifact.provenance().cache_key(),
                conv_cols: artifact.mapping().conv_cols_used(),
                degraded: artifact.is_degraded(),
            })
        }
        JobKind::Simulate { network, kind } => {
            let t0 = Instant::now();
            let artifact = compile(shared, network, obs)?;
            shared.observe("serve.lat.compile_ns", t0.elapsed().as_nanos() as f64);
            let t1 = Instant::now();
            let r = shared
                .session
                .run_mapped_with(&artifact, *kind, &FaultPlan::none(), obs)
                .value;
            shared.observe("serve.lat.run_ns", t1.elapsed().as_nanos() as f64);
            Ok(JobReply::Simulated {
                images_per_sec: r.images_per_sec,
                stages: r.stages.len(),
            })
        }
        JobKind::Resilient {
            network,
            plan_seed,
            kill_tile,
        } => {
            let net = lookup(network)?;
            let mut plan = FaultPlan::seeded(*plan_seed);
            if let Some(tile) = kill_tile {
                plan = plan.with_fault(1, FaultKind::TileFailure { tile: *tile });
            }
            let t1 = Instant::now();
            let run = shared
                .session
                .run_resilient_with(&net, &plan, obs)
                .map(|o| o.value);
            shared.observe("serve.lat.run_ns", t1.elapsed().as_nanos() as f64);
            match run {
                Ok(r) => Ok(JobReply::Resilient {
                    cycles: r.stats.cycles,
                    retried: r.retried,
                    dead_tiles: r.dead_tiles.len(),
                }),
                Err(e) => Err(ServeError::Failed {
                    detail: e.to_string(),
                }),
            }
        }
    }
}

fn lookup(network: &str) -> Result<scaledeep_dnn::Network, ServeError> {
    zoo::by_name(network).ok_or_else(|| ServeError::Rejected {
        detail: format!("unknown benchmark `{network}`"),
    })
}

/// Compiles through the shared session's cache. A subscribed job streams
/// per-phase progress only when its compile runs the pipeline; a job that
/// waits on another's compile, or hits the cache, streams nothing, since
/// progress reports work done, not work shared.
fn compile(
    shared: &Shared,
    network: &str,
    obs: Observer<'_>,
) -> Result<Arc<CompiledArtifact>, ServeError> {
    let net = lookup(network)?;
    shared
        .session
        .compile_with(&net, &CompileOptions::default(), obs)
        .map(|o| o.value)
        .map_err(|e| ServeError::Failed {
            detail: e.to_string(),
        })
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    // Replies are whole lines written at once; never hold one back
    // waiting for the client's ACK of the previous.
    stream.set_nodelay(true).ok();
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let reader = BufReader::new(reader_half);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let ok = match crate::protocol::parse_request(&line) {
            Err(detail) => write_line(
                &mut writer,
                &crate::protocol::result_to_json(&Err(ServeError::Rejected { detail })),
            ),
            Ok(Request::Stats) => {
                // Count first so the stats endpoint observes itself in
                // the very snapshot it returns.
                shared.count("serve.stats.requests", 1);
                let snap = StatsSnapshot::from_registry(&shared.metrics_snapshot());
                write_line(&mut writer, &crate::protocol::stats_to_json(&snap))
            }
            Ok(Request::Job(request)) => serve_job(shared, &mut writer, request),
        };
        if !ok {
            return;
        }
    }
}

/// Submits one job and writes its lines: every buffered progress update
/// (one line each, in sequence order) strictly before the single
/// terminal result line.
fn serve_job(shared: &Arc<Shared>, writer: &mut TcpStream, request: JobRequest) -> bool {
    let tenant = request.tenant.clone();
    let handle = submit_shared(shared, request);
    let Some(rx) = handle.progress() else {
        let result = handle.wait();
        return write_line(writer, &crate::protocol::result_to_json(&result));
    };
    let result = loop {
        // Take the result *before* draining: anything the worker pushed
        // before resolving is in the channel by now, so the final drain
        // below still runs and no update can land after the terminal
        // line.
        let done = handle.try_result();
        for update in rx.drain() {
            let ev = ProgressEvent::from_update(handle.id(), tenant.clone(), &update, rx.dropped());
            if !write_line(writer, &crate::protocol::progress_to_json(&ev)) {
                return false;
            }
        }
        if let Some(result) = done {
            break result;
        }
        if Instant::now() >= handle.deadline() {
            break handle.wait();
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    write_line(writer, &crate::protocol::result_to_json(&result))
}

/// Sends `payload` plus its newline as one `write_all`: a `writeln!` then
/// `flush` can leave the stream as two small segments, and on a
/// non-`TCP_NODELAY` socket the second one waits out the peer's delayed
/// ACK.
fn write_line<W: Write>(writer: &mut W, payload: &str) -> bool {
    let mut line = String::with_capacity(payload.len() + 1);
    line.push_str(payload);
    line.push('\n');
    writer.write_all(line.as_bytes()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ChaosDirective;
    use scaledeep_sim::perf::RunKind;

    fn quick_server(cfg: ServerConfig) -> Server {
        Server::start(Session::single_precision(), cfg)
    }

    fn small_cfg() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            default_deadline_ms: 30_000,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn compile_and_simulate_resolve_ok() {
        let server = quick_server(small_cfg());
        let c = server
            .submit(JobRequest::new(
                "a",
                JobKind::Compile {
                    network: "cnn-s".into(),
                },
            ))
            .wait();
        assert!(
            matches!(c, Ok(JobReply::Compiled { conv_cols, .. }) if conv_cols > 0),
            "{c:?}"
        );
        let s = server
            .submit(JobRequest::new(
                "a",
                JobKind::Simulate {
                    network: "cnn-s".into(),
                    kind: RunKind::Training,
                },
            ))
            .wait();
        assert!(
            matches!(s, Ok(JobReply::Simulated { images_per_sec, .. }) if images_per_sec > 0.0),
            "{s:?}"
        );
        // One network, one pipeline run across both jobs.
        assert_eq!(server.session().cache_stats().misses, 1);
        server.shutdown();
    }

    #[test]
    fn unknown_network_is_rejected_before_queueing() {
        let server = quick_server(small_cfg());
        let r = server
            .submit(JobRequest::new(
                "a",
                JobKind::Compile {
                    network: "not-a-net".into(),
                },
            ))
            .wait();
        assert!(matches!(r, Err(ServeError::Rejected { .. })), "{r:?}");
        assert_eq!(server.queue_len(), 0);
        server.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_typed_overloaded() {
        let server = quick_server(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        server.pause();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                server.submit(JobRequest::new(
                    "t",
                    JobKind::Simulate {
                        network: "cnn-s".into(),
                        kind: RunKind::Training,
                    },
                ))
            })
            .collect();
        let shed = handles
            .iter()
            .filter(|h| matches!(h.try_result(), Some(Err(ServeError::Overloaded { .. }))))
            .count();
        assert_eq!(shed, 4, "capacity 2, six submissions, four typed sheds");
        server.resume();
        for h in &handles {
            let r = h.wait();
            assert!(
                matches!(r, Ok(_) | Err(ServeError::Overloaded { .. })),
                "{r:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn cancelled_jobs_resolve_cancelled() {
        let server = quick_server(small_cfg());
        server.pause();
        let h = server.submit(JobRequest::new(
            "a",
            JobKind::Compile {
                network: "cnn-s".into(),
            },
        ));
        assert!(h.cancel());
        server.resume();
        assert_eq!(h.wait(), Err(ServeError::Cancelled));
        server.shutdown();
    }

    #[test]
    fn tight_deadline_resolves_typed_never_hangs() {
        let server = quick_server(ServerConfig {
            workers: 1,
            ..small_cfg()
        });
        // A stalled dependency far past the deadline.
        let h = server.submit(
            JobRequest::new(
                "a",
                JobKind::Simulate {
                    network: "cnn-s".into(),
                    kind: RunKind::Training,
                },
            )
            .with_deadline_ms(40)
            .with_chaos(ChaosDirective {
                stall_ms: 400,
                ..ChaosDirective::default()
            }),
        );
        let started = Instant::now();
        let r = h.wait();
        let Err(ServeError::DeadlineExceeded { waited_ms }) = r else {
            panic!("a job past its deadline must resolve DeadlineExceeded: {r:?}");
        };
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wait must be bounded"
        );
        // `JobHandle::wait` resolved it at the deadline and reported the
        // job's own wait since admission, not the server's default
        // deadline or the time past the deadline.
        assert!(
            (40..5_000).contains(&waited_ms),
            "a 40 ms job reported {waited_ms} ms (default deadline {} ms)",
            small_cfg().default_deadline_ms
        );
        server.shutdown();
    }

    #[test]
    fn admission_sweeps_expired_jobs_out_of_a_full_queue() {
        let server = quick_server(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        server.pause();
        let compile = || {
            JobRequest::new(
                "a",
                JobKind::Compile {
                    network: "cnn-s".into(),
                },
            )
        };
        let stale = server.submit(compile().with_deadline_ms(20));
        std::thread::sleep(Duration::from_millis(40));
        // The queue is full, but its one job is past its deadline: the
        // submit path evicts it instead of shedding the newcomer.
        let fresh = server.submit(compile());
        assert!(fresh.try_result().is_none(), "{:?}", fresh.try_result());
        assert!(
            matches!(
                stale.try_result(),
                Some(Err(ServeError::DeadlineExceeded { waited_ms })) if waited_ms >= 20
            ),
            "{:?}",
            stale.try_result()
        );
        server.resume();
        assert!(matches!(fresh.wait(), Ok(JobReply::Compiled { .. })));
        server.shutdown();
    }

    #[test]
    fn panicked_attempts_are_recovered_in_place_and_retried() {
        install_chaos_panic_hook();
        for workers in [1, 2] {
            let server = quick_server(ServerConfig {
                workers,
                ..small_cfg()
            });
            let compile = || {
                JobRequest::new(
                    "a",
                    JobKind::Compile {
                        network: "cnn-s".into(),
                    },
                )
            };
            let panicking: Vec<_> = (0..2)
                .map(|_| {
                    server.submit(compile().with_chaos(ChaosDirective {
                        panic_attempts: 1,
                        ..ChaosDirective::default()
                    }))
                })
                .collect();
            for h in &panicking {
                let r = h.wait();
                assert!(matches!(r, Ok(JobReply::Compiled { .. })), "{r:?}");
            }
            assert_eq!(server.worker_restarts(), 2, "{workers} worker(s)");
            // Every worker survived its caught panic: further jobs run.
            assert!(server.submit(compile()).wait().is_ok());
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_resolves_everything_queued() {
        let server = quick_server(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        server.pause();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                server.submit(JobRequest::new(
                    "a",
                    JobKind::Compile {
                        network: "cnn-s".into(),
                    },
                ))
            })
            .collect();
        server.shutdown();
        for h in handles {
            assert!(h.try_result().is_some(), "shutdown must strand no ticket");
        }
    }

    #[test]
    fn progress_job_streams_monotonic_deterministic_updates() {
        let server = quick_server(small_cfg());
        // Pre-warm the compile cache so the progress sequence reflects
        // only the (deterministic) simulation, not a first-compile race.
        server
            .submit(JobRequest::new(
                "warm",
                JobKind::Compile {
                    network: "cnn-s".into(),
                },
            ))
            .wait()
            .expect("warm compile");
        let run = || {
            let h = server.submit(
                JobRequest::new(
                    "a",
                    JobKind::Simulate {
                        network: "cnn-s".into(),
                        kind: RunKind::Training,
                    },
                )
                .with_progress(),
            );
            let r = h.wait();
            assert!(matches!(r, Ok(JobReply::Simulated { .. })), "{r:?}");
            let rx = h.progress().expect("subscribed job has a stream");
            let updates = rx.drain();
            assert_eq!(rx.dropped(), 0, "default capacity must not drop");
            updates
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "a simulate job must report progress");
        assert!(
            a.windows(2).all(|w| w[0].seq < w[1].seq),
            "sequence numbers must be strictly monotonic"
        );
        assert_eq!(
            a.first().map(|u| u.kind),
            Some(ProgressKind::Queued),
            "first update is admission"
        );
        // Same request, warmed cache: the engine-derived updates are
        // byte-identical run to run (seqs, cycles, kinds, counters).
        assert_eq!(a, b, "progress sequences must be deterministic");
        server.shutdown();
    }

    #[test]
    fn stats_snapshot_latency_hists_are_consistent_with_job_counts() {
        let server = quick_server(small_cfg());
        for _ in 0..3 {
            let r = server
                .submit(JobRequest::new(
                    "t",
                    JobKind::Simulate {
                        network: "cnn-s".into(),
                        kind: RunKind::Training,
                    },
                ))
                .wait();
            assert!(r.is_ok(), "{r:?}");
        }
        let snap = crate::protocol::StatsSnapshot::from_registry(&server.metrics());
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(3));
        assert_eq!(snap.counter("serve.jobs.completed"), Some(3));
        assert_eq!(snap.counter("serve.tenant.t.submitted"), Some(3));
        // Every completed job passed through the queue and ran exactly
        // once, so the latency decomposition sums to the job count.
        assert_eq!(snap.hist_count("serve.lat.queue_ns"), Some(3));
        assert_eq!(snap.hist_count("serve.lat.compile_ns"), Some(3));
        assert_eq!(snap.hist_count("serve.lat.run_ns"), Some(3));
        assert_eq!(snap.gauge("serve.jobs.in_flight"), Some(0.0));
        assert!(
            snap.gauge("serve.uptime_ms").is_some(),
            "uptime gauge present"
        );
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip_serves_typed_lines() {
        let server = quick_server(small_cfg());
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound addr");
        let shared = Arc::clone(&server.shared);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { return };
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_conn(&shared, stream));
            }
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let req = JobRequest::new(
            "net-tenant",
            JobKind::Simulate {
                network: "cnn-s".into(),
                kind: RunKind::Evaluation,
            },
        );
        writeln!(client, "{}", crate::protocol::request_to_json(&req)).unwrap();
        writeln!(client, "this is not json").unwrap();
        client.flush().unwrap();
        let mut lines = BufReader::new(client).lines();
        let first = lines.next().expect("a response line").expect("readable");
        let parsed = crate::protocol::result_from_json(&first).expect("valid response");
        assert!(
            matches!(parsed, Ok(JobReply::Simulated { .. })),
            "{parsed:?}"
        );
        let second = lines.next().expect("a response line").expect("readable");
        let parsed = crate::protocol::result_from_json(&second).expect("valid response");
        assert!(
            matches!(parsed, Err(ServeError::Rejected { .. })),
            "{parsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn tcp_progress_lines_interleave_before_result_and_stats_round_trips() {
        use crate::protocol::ServerLine;
        let server = quick_server(small_cfg());
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound addr");
        let shared = Arc::clone(&server.shared);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { return };
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_conn(&shared, stream));
            }
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let req = JobRequest::new(
            "watcher",
            JobKind::Simulate {
                network: "cnn-s".into(),
                kind: RunKind::Evaluation,
            },
        )
        .with_progress();
        writeln!(client, "{}", crate::protocol::request_to_json(&req)).unwrap();
        writeln!(client, "{}", crate::protocol::stats_request_json()).unwrap();
        client.flush().unwrap();
        let mut lines = BufReader::new(client).lines();
        let mut progress_seen = 0u64;
        let mut last_seq = None;
        // Job lines: zero-or-more progress, then exactly one result.
        loop {
            let line = lines.next().expect("a line").expect("readable");
            match crate::protocol::server_line_from_json(&line).expect("typed line") {
                ServerLine::Progress(ev) => {
                    assert_eq!(ev.tenant, "watcher");
                    assert!(
                        last_seq.is_none_or(|p| p < ev.seq),
                        "wire sequence must be monotonic"
                    );
                    last_seq = Some(ev.seq);
                    progress_seen += 1;
                }
                ServerLine::Result(r) => {
                    assert!(matches!(r, Ok(JobReply::Simulated { .. })), "{r:?}");
                    break;
                }
                ServerLine::Stats(_) => panic!("stats before the job resolved"),
            }
        }
        assert!(progress_seen > 0, "subscribed job must stream progress");
        // The stats line answers the second request.
        let line = lines.next().expect("a stats line").expect("readable");
        let Ok(ServerLine::Stats(snap)) = crate::protocol::server_line_from_json(&line) else {
            panic!("expected a stats line, got {line}");
        };
        assert_eq!(snap.counter("serve.stats.requests"), Some(1));
        assert_eq!(snap.counter("serve.tenant.watcher.submitted"), Some(1));
        assert_eq!(snap.hist_count("serve.lat.run_ns"), Some(1));
        server.shutdown();
    }

    /// A writer that keeps every `write` call apart.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_line_in_one_write() {
        let mut w = RecordingWriter::default();
        let lines = [
            crate::protocol::stats_request_json(),
            String::new(),
            "x".repeat(64 * 1024),
        ];
        for line in &lines {
            assert!(write_line(&mut w, line));
        }
        assert_eq!(w.writes.len(), lines.len());
        for (sent, line) in w.writes.iter().zip(&lines) {
            assert_eq!(*sent, format!("{line}\n").into_bytes());
        }
    }
}
