//! The job server: a shared [`Session`] behind a bounded fair queue, a
//! worker pool, and a supervisor.
//!
//! The layering mirrors the engine/service split: the engine crates stay
//! pure (compile, simulate, deterministic faults), and this module owns
//! every *policy* — admission, deadlines, retry, fairness, and recovery:
//!
//! * **Admission**: [`Server::submit`] validates the request and admits
//!   it into the bounded [`FairQueue`]; a full queue sheds with a typed
//!   [`ServeError::Overloaded`] instead of queueing unboundedly.
//! * **Deadlines**: every job carries one. Expired jobs resolve
//!   [`ServeError::DeadlineExceeded`] wherever they are — queued (the
//!   supervisor's sweep), in backoff, or in flight (the supervisor
//!   abandons them; the straggling worker's late result is discarded).
//!   [`JobHandle::wait`] is itself deadline-bounded, so a client can
//!   never hang on the server.
//! * **Retry**: attempts that die to transient faults retry in-worker
//!   under the seeded [`RetryPolicy`] backoff ladder; attempts that die
//!   with the worker are re-admitted at the front of their lane by the
//!   supervisor. Both paths share one attempt budget.
//! * **Recovery**: each worker registers its in-flight job in a slot.
//!   The supervisor polls worker liveness; a dead (panicked) worker is
//!   joined, its orphaned job recovered from the slot, and a fresh
//!   worker spawned into the same slot — queued jobs are never lost.
//! * **Dedup**: concurrent compiles of the same provenance collapse to
//!   one pipeline run via [`Singleflight`].

use crate::protocol::{
    JobKind, JobReply, JobRequest, JobResult, ProgressEvent, Request, ServeError, StatsSnapshot,
};
use crate::queue::FairQueue;
use crate::retry::RetryPolicy;
use crate::singleflight::{Flight, Singleflight};
use scaledeep::{CompileOptions, CompiledArtifact, Observer, Provenance, Session};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::{FaultKind, FaultPlan};
use scaledeep_trace::{
    progress_channel, MetricsRegistry, ProgressKind, ProgressReceiver, ProgressSender,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Installs (once, process-wide) a panic hook that silences the
/// intentional `chaos-kill` worker panics drills inject, forwarding
/// everything else to the previously installed hook. Call before
/// running chaos drills so killed workers do not spray backtraces.
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
    /// Retry/backoff policy for transient faults and lost workers.
    pub retry: RetryPolicy,
    /// Deadline for requests that do not set one, in milliseconds.
    pub default_deadline_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Supervisor poll cadence, in milliseconds (worker liveness,
    /// deadline sweeps).
    pub supervisor_poll_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 16,
            retry: RetryPolicy::default(),
            default_deadline_ms: 30_000,
            seed: 0,
            supervisor_poll_ms: 2,
        }
    }
}

/// A job's resolve-exactly-once mailbox. The first resolver wins; late
/// resolutions (a straggling worker finishing an abandoned job) are
/// discarded.
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
            let (guard, out) = self
                .cv
                .wait_timeout(g, left)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            if out.timed_out() && g.is_none() {
                return None;
            }
        }
    }
}

/// One admitted job (cloned into the worker slot for crash recovery).
#[derive(Clone)]
struct Job {
    id: u64,
    request: JobRequest,
    /// Executions consumed so far (in-worker transient retries and
    /// supervisor-recovered worker deaths share this budget).
    attempts: u32,
    admitted: Instant,
    deadline: Instant,
    ticket: Arc<Ticket>,
    /// The progress channel's producing half, when the request subscribed
    /// ([`JobRequest::progress`]). Cloned with the job, so a recovered
    /// orphan keeps reporting into the same stream.
    progress: Option<ProgressSender>,
}

impl Job {
    fn waited_ms(&self) -> u64 {
        u64::try_from(self.admitted.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn deadline_error(&self) -> ServeError {
        ServeError::DeadlineExceeded {
            waited_ms: self.waited_ms(),
        }
    }
}

/// A worker thread's shared slot: its in-flight job (for recovery) and
/// its join handle (for liveness checks and respawn).
struct WorkerSlot {
    current: Mutex<Option<Job>>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// State shared by workers, the supervisor, connection threads, and
/// handles.
struct Shared {
    session: Session,
    cfg: ServerConfig,
    queue: FairQueue<Job>,
    flights: Singleflight<Result<Arc<CompiledArtifact>, ServeError>>,
    metrics: Mutex<MetricsRegistry>,
    slots: Vec<WorkerSlot>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    paused: AtomicBool,
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
    /// resolution race. The outcome counter lands before waiters wake,
    /// so a client that just saw its result also sees it counted.
    fn finish(&self, job: &Job, result: JobResult) {
        job.ticket
            .resolve_with(result.clone(), || self.count_outcome(&result));
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
    /// then augments the copy outside it: atomically-tracked counters
    /// (worker restarts, singleflight), the jobs-in-flight gauge read
    /// from the worker slots, and server uptime.
    fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut m = {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        };
        let restarts = m.counter("serve.worker.restarts");
        m.add(restarts, self.restarts.load(Ordering::Relaxed));
        let (leads, waits) = self.flights.stats();
        let lead_id = m.counter("serve.singleflight.leads");
        m.add(lead_id, leads);
        let wait_id = m.counter("serve.singleflight.waits");
        m.add(wait_id, waits);
        let in_flight = self
            .slots
            .iter()
            .filter(|s| {
                s.current
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
            })
            .count();
        let g = m.gauge("serve.jobs.in_flight");
        m.set(g, in_flight as f64);
        let up = m.gauge("serve.uptime_ms");
        m.set(up, self.started.elapsed().as_millis() as f64);
        m
    }
}

/// A submitted job: wait on it (deadline-bounded) or cancel it.
pub struct JobHandle {
    id: u64,
    deadline: Instant,
    ticket: Arc<Ticket>,
    shared: Weak<Shared>,
    /// Wait slack past the deadline for the supervisor's sweep to land
    /// before the client resolves the timeout itself.
    grace: Duration,
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

    /// Blocks until the job resolves. Bounded: at the deadline (plus a
    /// small supervisor grace) an unresolved job is resolved
    /// `DeadlineExceeded` by this very call — waiting can never hang.
    pub fn wait(&self) -> JobResult {
        if let Some(r) = self.ticket.wait_until(self.deadline + self.grace) {
            return r;
        }
        let err = ServeError::DeadlineExceeded {
            waited_ms: u64::try_from(
                Instant::now()
                    .saturating_duration_since(self.deadline)
                    .as_millis(),
            )
            .unwrap_or(u64::MAX),
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
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` workers and the supervisor over `session`.
    pub fn start(session: Session, cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            session,
            cfg,
            queue: FairQueue::new(cfg.queue_capacity),
            flights: Singleflight::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
            slots: (0..cfg.workers.max(1))
                .map(|_| WorkerSlot {
                    current: Mutex::new(None),
                    handle: Mutex::new(None),
                })
                .collect(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            started: Instant::now(),
        });
        for i in 0..shared.slots.len() {
            let handle = spawn_worker(&shared, i);
            *shared.slots[i]
                .handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(handle);
        }
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || supervisor_loop(&sup_shared))
            .expect("spawning the supervisor thread");
        Self {
            shared,
            supervisor: Some(supervisor),
        }
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

    /// `(leads, waits)` of the compile singleflight table.
    pub fn singleflight_stats(&self) -> (u64, u64) {
        self.shared.flights.stats()
    }

    /// Workers restarted by the supervisor after dying mid-job.
    pub fn worker_restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Jobs currently queued.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Pauses dispatch: workers stop popping (in-flight jobs finish).
    /// Drills use this to build deterministic queue states.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes dispatch after [`Server::pause`].
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
    }

    /// Serves the line-delimited JSON protocol on `listener`: one thread
    /// per connection, one response line per request line, in order.
    /// Runs until the listener errors (or forever).
    ///
    /// # Errors
    ///
    /// Propagates `accept` failures.
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        for conn in listener.incoming() {
            let stream = conn?;
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || handle_conn(&shared, stream))
                .expect("spawning a connection thread");
        }
        Ok(())
    }

    /// Stops the server: closes the queue, joins the supervisor and all
    /// workers, and resolves everything still queued with a typed
    /// `Cancelled` — shutdown never strands a ticket.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.paused.store(false, Ordering::SeqCst);
        self.shared.queue.close();
        if let Some(sup) = self.supervisor.take() {
            sup.join().ok();
        }
        for slot in &self.shared.slots {
            let handle = slot
                .handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(h) = handle {
                h.join().ok();
            }
        }
        // Resolve stragglers: anything still queued or orphaned in a
        // slot by a worker that died during shutdown.
        for job in self.shared.queue.drain() {
            self.shared.finish(&job, Err(ServeError::Cancelled));
        }
        for slot in &self.shared.slots {
            let orphan = slot
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(job) = orphan {
                self.shared.finish(&job, Err(ServeError::Cancelled));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
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
        deadline,
        ticket: Arc::clone(&ticket),
        shared: Arc::downgrade(shared),
        grace: Duration::from_millis(shared.cfg.supervisor_poll_ms * 10 + 200),
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
    if let Err(job) = shared.queue.push(&tenant, job) {
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

fn spawn_worker(shared: &Arc<Shared>, slot: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-worker-{slot}"))
        .spawn(move || worker_loop(&shared, slot))
        .expect("spawning a worker thread")
}

fn worker_loop(shared: &Arc<Shared>, slot: usize) {
    let tick = Duration::from_millis(5);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let Some(job) = shared.queue.pop(tick) else {
            continue;
        };
        if shared.paused.load(Ordering::SeqCst) {
            // Lost the race with a pause that landed mid-pop: put the
            // job back where it came from — nothing dispatches while
            // the server is paused.
            let tenant = job.request.tenant.clone();
            shared.queue.push_front(&tenant, job);
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        shared.note_queue_depth();
        process_job(shared, slot, job);
    }
}

fn process_job(shared: &Arc<Shared>, slot: usize, mut job: Job) {
    if job.ticket.resolved() {
        return; // cancelled or swept while queued
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
    *shared.slots[slot]
        .current
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(job.clone());
    let started = Instant::now();
    // May panic (chaos): the job stays registered in the slot, and the
    // supervisor recovers it from there.
    let result = run_attempts(shared, &mut job);
    *shared.slots[slot]
        .current
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = None;
    shared.observe("serve.service_us", started.elapsed().as_micros() as f64);
    if let Some(result) = result {
        shared.finish(&job, result);
    }
}

/// Runs one job to resolution inside a worker: the attempt loop with
/// chaos directives, seeded backoff between attempts, and cooperative
/// deadline/cancellation checks. `None` means the ticket resolved
/// externally (cancel / abandonment) and the outcome is owned elsewhere.
fn run_attempts(shared: &Arc<Shared>, job: &mut Job) -> Option<JobResult> {
    loop {
        if job.ticket.resolved() {
            return None;
        }
        if job.attempts > 0 {
            let backoff = shared
                .cfg
                .retry
                .backoff_ms(shared.cfg.seed, job.id, job.attempts);
            let pause = Duration::from_millis(backoff);
            if Instant::now() + pause >= job.deadline {
                return Some(Err(job.deadline_error()));
            }
            std::thread::sleep(pause);
        }
        let chaos = job.request.chaos.unwrap_or_default();
        if job.attempts < chaos.panic_attempts {
            shared.count("serve.chaos.panics", 1);
            // A real panic: this worker thread dies with the job still
            // registered in its slot; the supervisor takes it from here.
            panic!("chaos-kill: job {} attempt {}", job.id, job.attempts);
        }
        if chaos.stall_ms > 0 {
            // A stuck dependency: the worker sits here past any deadline
            // the job carries; the supervisor abandons the job and this
            // worker's late result is discarded by the ticket.
            std::thread::sleep(Duration::from_millis(chaos.stall_ms));
            if job.ticket.resolved() {
                return None;
            }
        }
        if job.attempts < chaos.fail_attempts {
            job.attempts += 1;
            shared.count("serve.jobs.retries", 1);
            if job.attempts >= shared.cfg.retry.max_attempts {
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

/// The engine call behind a job, with singleflight-deduped compiles,
/// latency decomposition (`serve.lat.compile_ns` / `serve.lat.run_ns`),
/// and — when the request subscribed — progress-teed engine runs.
fn execute(shared: &Arc<Shared>, job: &Job) -> JobResult {
    let obs = job
        .progress
        .as_ref()
        .map_or(Observer::Off, Observer::Progress);
    match &job.request.kind {
        JobKind::Compile { network } => {
            let t0 = Instant::now();
            let artifact = compile_deduped(shared, network, job, obs)?;
            shared.observe("serve.lat.compile_ns", t0.elapsed().as_nanos() as f64);
            Ok(JobReply::Compiled {
                provenance: artifact.provenance().cache_key(),
                conv_cols: artifact.mapping().conv_cols_used(),
                degraded: artifact.is_degraded(),
            })
        }
        JobKind::Simulate { network, kind } => {
            let t0 = Instant::now();
            let artifact = compile_deduped(shared, network, job, obs)?;
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

/// Compiles through the session cache with concurrent identical misses
/// collapsed: the flight leader runs the pipeline, waiters share its
/// artifact (bounded by `job`'s own deadline, and a waiter that times out
/// reports `job`'s own wait). A subscribed flight leader streams
/// per-phase progress; waiters and cache hits stream nothing — progress
/// reports work actually done, not work shared.
fn compile_deduped(
    shared: &Arc<Shared>,
    network: &str,
    job: &Job,
    obs: Observer<'_>,
) -> Result<Arc<CompiledArtifact>, ServeError> {
    let net = lookup(network)?;
    let opts = CompileOptions::default();
    let key = Provenance::new(shared.session.node(), &net, &opts).cache_key();
    match shared.flights.join(key, job.deadline) {
        Flight::Lead(guard) => {
            let result = shared
                .session
                .compile_with(&net, &opts, obs)
                .map(|o| o.value)
                .map_err(|e| ServeError::Failed {
                    detail: e.to_string(),
                });
            guard.publish(result.clone());
            result
        }
        Flight::Shared(result) => result,
        Flight::TimedOut => Err(job.deadline_error()),
    }
}

fn supervisor_loop(shared: &Arc<Shared>) {
    let poll = Duration::from_millis(shared.cfg.supervisor_poll_ms.max(1));
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        // 1. Deadline sweep over the queue: expired jobs resolve typed
        //    without waiting for a worker.
        for job in shared
            .queue
            .evict(|j| now < j.deadline && !j.ticket.resolved())
        {
            if !job.ticket.resolved() {
                let err = job.deadline_error();
                shared.finish(&job, Err(err));
            }
        }
        // 2. Watchdog over in-flight jobs: a worker stuck past a job's
        //    deadline no longer owns the outcome — abandon the job so
        //    the client resolves now; the straggler's result is
        //    discarded by the ticket when (if) it lands.
        for slot in &shared.slots {
            let stuck = slot
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            if let Some(job) = stuck {
                if now >= job.deadline && !job.ticket.resolved() {
                    shared.count("serve.worker.abandoned", 1);
                    let err = job.deadline_error();
                    shared.finish(&job, Err(err));
                }
            }
        }
        // 3. Liveness: join dead workers, recover their orphaned jobs,
        //    respawn into the same slot.
        for (i, slot) in shared.slots.iter().enumerate() {
            let finished = slot
                .handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
                .is_some_and(JoinHandle::is_finished);
            if !finished || shared.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            let dead = slot
                .handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(h) = dead {
                h.join().ok(); // swallow the chaos panic payload
            }
            shared.restarts.fetch_add(1, Ordering::Relaxed);
            let orphan = slot
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(mut job) = orphan {
                recover_orphan(shared, &mut job, now);
            }
            let fresh = spawn_worker(shared, i);
            *slot.handle.lock().unwrap_or_else(PoisonError::into_inner) = Some(fresh);
        }
        std::thread::sleep(poll);
    }
}

/// A job orphaned by a dead worker: charge the fatal attempt, then
/// either re-admit it (front of its lane — it was already admitted
/// once) or resolve it with the typed `WorkerLost`.
fn recover_orphan(shared: &Arc<Shared>, job: &mut Job, now: Instant) {
    if job.ticket.resolved() {
        return;
    }
    job.attempts += 1;
    shared.count("serve.jobs.retries", 1);
    if job.attempts >= shared.cfg.retry.max_attempts || now >= job.deadline {
        let err = ServeError::WorkerLost {
            attempts: job.attempts,
        };
        shared.finish(job, Err(err));
        return;
    }
    shared.count("serve.jobs.requeued", 1);
    let tenant = job.request.tenant.clone();
    shared.queue.push_front(&tenant, job.clone());
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
        if Instant::now() >= handle.deadline() + handle.grace {
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
        assert!(
            matches!(r, Err(ServeError::DeadlineExceeded { .. })),
            "{r:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wait must be bounded"
        );
        server.shutdown();
    }

    #[test]
    fn a_flight_waiter_past_its_deadline_reports_its_own_wait() {
        // The supervisor polls slowly, so the worker's own singleflight
        // timeout resolves the job, not the supervisor's deadline sweep.
        let server = quick_server(ServerConfig {
            workers: 1,
            supervisor_poll_ms: 500,
            ..small_cfg()
        });
        let net = zoo::by_name("cnn-s").expect("zoo network");
        let key =
            Provenance::new(server.session().node(), &net, &CompileOptions::default()).cache_key();
        let far = Instant::now() + Duration::from_secs(60);
        let Flight::Lead(lead) = server.shared.flights.join(key, far) else {
            panic!("the first join leads");
        };
        let r = server
            .submit(
                JobRequest::new(
                    "a",
                    JobKind::Compile {
                        network: "cnn-s".into(),
                    },
                )
                .with_deadline_ms(50),
            )
            .wait();
        drop(lead);
        let Err(ServeError::DeadlineExceeded { waited_ms }) = r else {
            panic!("a waiter past its deadline must resolve DeadlineExceeded: {r:?}");
        };
        assert!(
            waited_ms < 5_000,
            "a 50 ms job reported {waited_ms} ms (default deadline {} ms)",
            small_cfg().default_deadline_ms
        );
        server.shutdown();
    }

    #[test]
    fn panicked_worker_is_restarted_and_job_retried() {
        install_chaos_panic_hook();
        let server = quick_server(ServerConfig {
            workers: 2,
            ..small_cfg()
        });
        let h = server.submit(
            JobRequest::new(
                "a",
                JobKind::Compile {
                    network: "cnn-s".into(),
                },
            )
            .with_chaos(ChaosDirective {
                panic_attempts: 1,
                ..ChaosDirective::default()
            }),
        );
        let r = h.wait();
        assert!(matches!(r, Ok(JobReply::Compiled { .. })), "{r:?}");
        assert_eq!(server.worker_restarts(), 1);
        // The pool is whole again: further jobs still run.
        let again = server
            .submit(JobRequest::new(
                "a",
                JobKind::Compile {
                    network: "cnn-s".into(),
                },
            ))
            .wait();
        assert!(again.is_ok());
        server.shutdown();
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
