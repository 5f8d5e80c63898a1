//! `serve-mix`: the job server started in-process on a loopback listener
//! and driven over TCP from at most two client connections (never more
//! than the host's cores). An open loop sends a seeded job mix at a fixed
//! offered rate and times every job from the moment it was due; a closed
//! loop then measures capacity. Jobs mostly hit the compile cache and their
//! work is sub-millisecond, so transport, protocol, queueing and hand-off
//! dominate: the cache-hit counterpart of `dse-sweep`'s misses.

use crate::host;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::{stats, Metric, Report};
use scaledeep::Session;
use scaledeep_dnn::{zoo, Network};
use scaledeep_serve::protocol::{
    request_to_json, result_to_json, stats_from_json, stats_request_json,
};
use scaledeep_serve::{
    JobKind, JobReply, JobRequest, Server, ServerConfig, StatValue, StatsSnapshot,
};
use scaledeep_sim::fault::{FaultKind, FaultPlan};
use scaledeep_sim::perf::RunKind;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SIM_NETS: [&str; 5] = ["alexnet", "googlenet", "vgg-a", "resnet18", "cnn-s"];
const FUNC_NET: &str = "alexnet-func";
const PLAN_SEEDS: [u64; 3] = [1, 2, 3];
/// Open-loop offered rate, jobs/s: about a third of the closed-loop
/// capacity measured when the benchmark was introduced (45 jobs/s on two
/// connections), so the open loop builds no backlog there.
const OFFERED_RATE: f64 = 16.0;
/// Share of the run spent in the open loop; the closed loop takes the rest.
const OPEN_SHARE: f64 = 0.7;
const MIN_OPEN_JOBS: u64 = 16;
const MIN_CLOSED: Duration = Duration::from_millis(500);
const MAX_CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const SETUP_REPS: usize = 3;
/// Bound on every wait for a reply, so a stuck server fails the run
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// One job as the client saw it: when its clock started, when its reply
/// ended, and the reply line.
struct Done {
    index: u64,
    start: Instant,
    done: Instant,
    line: String,
}

impl Done {
    fn ms(&self) -> f64 {
        self.done
            .saturating_duration_since(self.start)
            .as_secs_f64()
            * 1e3
    }
}

/// The `index`-th job of the seeded mix. Every block of ten jobs holds, in
/// seeded order, six plain `simulate` jobs, one `simulate` with progress
/// subscribed, one `compile`, and two `resilient` iterations on
/// alexnet-func, one of them with a killed tile. Two resilient jobs per
/// block put the open loop's 90th percentile inside their latencies rather
/// than on the edge between two groups of jobs.
fn job(seed: u64, index: u64) -> JobRequest {
    let mut slots = [0u8, 0, 0, 0, 0, 0, 1, 2, 3, 4];
    Rng::stream(seed, index / 10).shuffle(&mut slots);
    let mut rng = Rng::stream(seed ^ 0x6a6f_6273, index);
    let network = SIM_NETS[rng.below(SIM_NETS.len())].to_string();
    let kind = if rng.below(2) == 0 {
        RunKind::Training
    } else {
        RunKind::Evaluation
    };
    let tenant = format!("tenant{}", rng.below(3));
    let plan_seed = PLAN_SEEDS[rng.below(PLAN_SEEDS.len())];
    match slots[(index % 10) as usize] {
        0 => JobRequest::new(tenant, JobKind::Simulate { network, kind }),
        1 => JobRequest::new(tenant, JobKind::Simulate { network, kind }).with_progress(),
        2 => JobRequest::new(tenant, JobKind::Compile { network }),
        slot => JobRequest::new(
            tenant,
            JobKind::Resilient {
                network: FUNC_NET.to_string(),
                plan_seed,
                kill_tile: (slot == 4).then_some(0),
            },
        ),
    }
}

fn key(kind: &JobKind) -> String {
    format!("{kind:?}")
}

/// Every distinct job's expected reply line, computed in-process on a
/// session of the benchmark's own.
fn expected_replies() -> Result<HashMap<String, String>, String> {
    let err = |e: scaledeep::Error| e.to_string();
    let session = Session::single_precision();
    let mut out = HashMap::new();
    for name in SIM_NETS {
        let net = zoo::by_name(name).ok_or_else(|| format!("unknown network `{name}`"))?;
        let artifact = session.compile(&net).map_err(err)?;
        let compiled = JobReply::Compiled {
            provenance: artifact.provenance().cache_key(),
            conv_cols: artifact.mapping().conv_cols_used(),
            degraded: artifact.is_degraded(),
        };
        let network = name.to_string();
        out.insert(
            key(&JobKind::Compile {
                network: network.clone(),
            }),
            result_to_json(&Ok(compiled)),
        );
        for kind in [RunKind::Training, RunKind::Evaluation] {
            let r = session.run_mapped(&artifact, kind);
            let simulated = JobReply::Simulated {
                images_per_sec: r.images_per_sec,
                stages: r.stages.len(),
            };
            out.insert(
                key(&JobKind::Simulate {
                    network: network.clone(),
                    kind,
                }),
                result_to_json(&Ok(simulated)),
            );
        }
    }
    let net = zoo::by_name(FUNC_NET).ok_or_else(|| format!("unknown network `{FUNC_NET}`"))?;
    for plan_seed in PLAN_SEEDS {
        for kill_tile in [None, Some(0)] {
            let mut plan = FaultPlan::seeded(plan_seed);
            if let Some(tile) = kill_tile {
                plan = plan.with_fault(1, FaultKind::TileFailure { tile });
            }
            let r = session.run_resilient(&net, &plan).map_err(err)?;
            let resilient = JobReply::Resilient {
                cycles: r.stats.cycles,
                retried: r.retried,
                dead_tiles: r.dead_tiles.len(),
            };
            let kind = JobKind::Resilient {
                network: FUNC_NET.to_string(),
                plan_seed,
                kill_tile,
            };
            out.insert(key(&kind), result_to_json(&Ok(resilient)));
        }
    }
    Ok(out)
}

/// A server serving TCP on a loopback port from an accept thread.
struct Running {
    server: Arc<Server>,
    addr: SocketAddr,
    /// A handle on the accept thread's listener (same socket).
    listener: TcpListener,
    acceptor: JoinHandle<()>,
}

/// The program set-up: start the server, warm its compile cache with every
/// network of the mix, and start serving TCP.
fn start(seed: u64) -> Result<Running, String> {
    let cfg = ServerConfig {
        workers: WORKERS,
        queue_capacity: 64,
        seed,
        ..ServerConfig::default()
    };
    let server = Server::start(Session::single_precision(), cfg);
    for name in SIM_NETS.into_iter().chain([FUNC_NET]) {
        let warm = JobRequest::new(
            "warm",
            JobKind::Compile {
                network: name.to_string(),
            },
        );
        server
            .submit(warm)
            .wait()
            .map_err(|e| format!("warming `{name}`: {e}"))?;
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let handle = listener.try_clone().map_err(io_err)?;
    let server = Arc::new(server);
    let serving = Arc::clone(&server);
    let acceptor = std::thread::spawn(move || {
        // Returns once accept fails, which `Running::stop` arranges.
        let _ = serving.serve_tcp(&listener);
    });
    Ok(Running {
        server,
        addr,
        listener: handle,
        acceptor,
    })
}

impl Running {
    /// Stops serving and shuts the server down. `serve_tcp` returns once
    /// accept fails, so the shared listener is made non-blocking and one
    /// connection wakes the blocked accept.
    fn stop(self) -> Result<(), String> {
        let Running {
            server,
            addr,
            listener,
            acceptor,
        } = self;
        listener.set_nonblocking(true).map_err(io_err)?;
        drop(TcpStream::connect(addr));
        acceptor
            .join()
            .map_err(|_| "the accept thread panicked".to_string())?;
        let server =
            Arc::try_unwrap(server).map_err(|_| "the server is still shared".to_string())?;
        server.shutdown();
        Ok(())
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(io_err)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
    Ok(stream)
}

/// One request line, ready to send in a single write.
fn request_line(seed: u64, index: u64) -> String {
    format!("{}\n", request_to_json(&job(seed, index)))
}

/// Reads one job's lines: any progress lines, then its terminal reply.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading a reply: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".to_string());
        }
        if !line.starts_with("{\"progress\"") {
            return Ok(line.trim_end().to_string());
        }
    }
}

/// Sends `jobs` each at its due time, whatever the replies; returns how
/// late the latest send was.
fn send_scheduled(
    mut stream: TcpStream,
    seed: u64,
    jobs: &[u64],
    due: impl Fn(u64) -> Instant,
) -> Result<Duration, String> {
    let mut lag = Duration::ZERO;
    for &index in jobs {
        let line = request_line(seed, index);
        let at = due(index);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lag = lag.max(Instant::now().saturating_duration_since(at));
        stream.write_all(line.as_bytes()).map_err(io_err)?;
    }
    Ok(lag)
}

fn receive(
    mut reader: BufReader<TcpStream>,
    jobs: &[u64],
    due: impl Fn(u64) -> Instant,
) -> Result<Vec<Done>, String> {
    jobs.iter()
        .map(|&index| {
            let line = read_reply(&mut reader)?;
            Ok(Done {
                index,
                start: due(index),
                done: Instant::now(),
                line,
            })
        })
        .collect()
}

/// The open loop: jobs `0..count` at `OFFERED_RATE`, dealt round-robin to
/// `conns` connections, each timed from its due time. Also returns the
/// generator's largest lag behind schedule.
fn open_loop(
    addr: SocketAddr,
    seed: u64,
    count: u64,
    conns: usize,
) -> Result<(Vec<Done>, Duration), String> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = move |index: u64| t0 + Duration::from_secs_f64(index as f64 / OFFERED_RATE);
    std::thread::scope(|s| {
        let mut clients = Vec::new();
        for c in 0..conns {
            let stream = connect(addr)?;
            let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
            let mine: Vec<u64> = (c as u64..count).step_by(conns).collect();
            let theirs = mine.clone();
            let sender = s.spawn(move || send_scheduled(stream, seed, &mine, due));
            let receiver = s.spawn(move || receive(reader, &theirs, due));
            clients.push((sender, receiver));
        }
        let mut done = Vec::new();
        let mut lag = Duration::ZERO;
        for (sender, receiver) in clients {
            let sent = sender
                .join()
                .map_err(|_| "a client thread panicked".to_string())?;
            lag = lag.max(sent?);
            let received = receiver
                .join()
                .map_err(|_| "a client thread panicked".to_string())?;
            done.extend(received?);
        }
        done.sort_by_key(|d: &Done| d.index);
        Ok((done, lag))
    })
}

/// The closed loop: each connection sends its next job as soon as the
/// previous reply arrives, until `span` has passed. Jobs are numbered from
/// `first`; also returns how long the loop took.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    first: u64,
    span: Duration,
    conns: usize,
) -> Result<(Vec<Done>, Duration), String> {
    let next = AtomicU64::new(first);
    let started = Instant::now();
    let end = started + span;
    let done = std::thread::scope(|s| -> Result<Vec<Done>, String> {
        let mut clients = Vec::new();
        for _ in 0..conns {
            let next = &next;
            clients.push(s.spawn(move || -> Result<Vec<Done>, String> {
                let mut stream = connect(addr)?;
                let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
                let mut done = Vec::new();
                while Instant::now() < end {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let line = request_line(seed, index);
                    let start = Instant::now();
                    stream.write_all(line.as_bytes()).map_err(io_err)?;
                    let reply = read_reply(&mut reader)?;
                    done.push(Done {
                        index,
                        start,
                        done: Instant::now(),
                        line: reply,
                    });
                }
                Ok(done)
            }));
        }
        let mut all = Vec::new();
        for client in clients {
            let done = client
                .join()
                .map_err(|_| "a client thread panicked".to_string())?;
            all.extend(done?);
        }
        Ok(all)
    })?;
    Ok((done, started.elapsed()))
}

/// One `stats` request over the wire.
fn server_stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(format!("{}\n", stats_request_json()).as_bytes())
        .map_err(io_err)?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(io_err)?;
    stats_from_json(line.trim_end())
}

fn hist_p50(snap: &StatsSnapshot, name: &str) -> f64 {
    snap.metrics
        .iter()
        .find_map(|(n, v)| match v {
            StatValue::Hist { p50, .. } if n == name => Some(*p50),
            _ => None,
        })
        .unwrap_or(f64::NAN)
}

fn record_jobs(spans: &mut Spans, done: &[Done]) {
    for d in done {
        spans.next_run();
        spans.record("serve", "serve.job", d.start, d.done);
    }
}

pub fn run(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let mut running: Option<Running> = None;
    for _ in 0..SETUP_REPS {
        // The previous server is stopped first, so peak memory holds one.
        if let Some(previous) = running.take() {
            previous.stop()?;
        }
        let (started, took) = spans.timed("bench", "setup", |_| start(seed));
        report.setup_s.push(took.as_secs_f64());
        running = Some(started?);
    }
    let running = running.expect("SETUP_REPS is positive");
    let conns = MAX_CONNECTIONS
        .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    let open_jobs =
        ((budget.as_secs_f64() * OPEN_SHARE * OFFERED_RATE).ceil() as u64).max(MIN_OPEN_JOBS);
    let closed_for = budget.mul_f64(1.0 - OPEN_SHARE).max(MIN_CLOSED);
    let addr = running.addr;
    let (open, lag) = spans.time("bench", "serve.open_loop", |s| {
        let out = open_loop(addr, seed, open_jobs, conns)?;
        record_jobs(s, &out.0);
        Ok::<_, String>(out)
    })?;
    let (closed, closed_took) = spans.time("bench", "serve.closed_loop", |s| {
        let out = closed_loop(addr, seed, open_jobs, closed_for, conns)?;
        record_jobs(s, &out.0);
        Ok::<_, String>(out)
    })?;
    report.peak_rss_mb = host::peak_rss_mb();
    let expected = expected_replies()?;
    for d in open.iter().chain(&closed) {
        let kind = job(seed, d.index).kind;
        let want = expected.get(&key(&kind));
        report.check(want == Some(&d.line), || {
            format!("job {} ({}) got `{}`", d.index, key(&kind), d.line)
        });
    }
    for d in &open {
        report.digest.u64(d.index);
        report.digest.str(&d.line);
    }
    report.main_ms = open.iter().map(Done::ms).collect();
    report.alt_ms = closed.iter().map(Done::ms).collect();
    report.work_per_s = closed.len() as f64 / closed_took.as_secs_f64();
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(f64::NAN);
    report.named = vec![
        Metric::new("serve_job_ms_p50", pct(&report.main_ms, 50.0), "ms"),
        Metric::new("serve_job_ms_p90", pct(&report.main_ms, 90.0), "ms"),
        Metric::new("serve_max_jobs_per_s", report.work_per_s, "jobs/s"),
    ];
    if spans.is_on() {
        report.layers = layer_metrics(spans, &running, &report.main_ms, lag)?;
    }
    running.stop()?;
    Ok(report)
}

/// The serve layers: the server's own latency histograms read through one
/// `stats` request, transport as the client latency those histograms do
/// not explain, and the shared session's cache behaviour.
fn layer_metrics(
    spans: &mut Spans,
    running: &Running,
    open_ms: &[f64],
    lag: Duration,
) -> Result<Vec<Metric>, String> {
    let snap = server_stats(running.addr)?;
    let us = |name: &str| hist_p50(&snap, name) / 1e3;
    let (queue, compile, run) = (
        us("serve.lat.queue_ns"),
        us("serve.lat.compile_ns"),
        us("serve.lat.run_ns"),
    );
    let client = stats::median(open_ms).unwrap_or(f64::NAN) * 1e3;
    let transport = client - queue - compile - run;
    let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let session = running.server.session();
    let cache = session.cache_stats();
    let lookups = cache.hits + cache.disk_hits + cache.misses;
    let nets = SIM_NETS
        .iter()
        .map(|&n| zoo::by_name(n).ok_or_else(|| format!("unknown network `{n}`")))
        .collect::<Result<Vec<Network>, _>>()?;
    for _ in 0..4 {
        for net in &nets {
            spans
                .time("session", "session.compile_hit", |_| session.compile(net))
                .map_err(|e| e.to_string())?;
        }
    }
    let hit_us = stats::median(&spans.durations_us("session.compile_hit")).unwrap_or(f64::NAN);
    Ok(vec![
        Metric::new("serve.lat.queue_us_p50", queue, "us"),
        Metric::new("serve.lat.compile_us_p50", compile, "us"),
        Metric::new("serve.lat.run_us_p50", run, "us"),
        Metric::new("serve.transport_us_p50", transport, "us"),
        Metric::new("serve.transport_share", transport / client, "ratio"),
        Metric::new("serve.gen_lag_ms_max", lag.as_secs_f64() * 1e3, "ms"),
        Metric::new("serve.overloaded", count("serve.jobs.shed"), "count"),
        Metric::new(
            "serve.deadline_exceeded",
            count("serve.jobs.deadline"),
            "count",
        ),
        Metric::new(
            "serve.worker_restarts",
            count("serve.worker.restarts"),
            "count",
        ),
        Metric::new(
            "serve.singleflight.leads",
            count("serve.singleflight.leads"),
            "count",
        ),
        Metric::new(
            "serve.singleflight.waits",
            count("serve.singleflight.waits"),
            "count",
        ),
        Metric::new("session.compile_hit_us", hit_us, "us"),
        Metric::new(
            "session.cache_hit_ratio",
            cache.hits as f64 / lookups as f64,
            "ratio",
        ),
    ])
}
