//! scaledeep-serve: a fault-tolerant multi-session job server over the
//! ScaleDeep engine.
//!
//! The engine crates (compiler, simulators, sessions) are synchronous
//! and policy-free; this crate puts a *service boundary* in front of
//! them for concurrent clients, built entirely on `std` primitives (no
//! async runtime, no external dependencies — the vendored-shim policy):
//!
//! * [`protocol`] — the typed job/reply/error vocabulary and its
//!   line-delimited JSON wire codec. Every error a client can see is a
//!   typed [`protocol::ServeError`]; a submitted job always resolves,
//!   never hangs.
//! * [`queue`] — the bounded tenant-fair admission queue with explicit
//!   load shedding.
//! * [`retry`] — seeded exponential backoff with deterministic jitter
//!   (a pure function of seed, job id, and attempt).
//! * [`singleflight`] — concurrent identical compiles collapse to one
//!   pipeline run; a dead leader hands its flight to a waiter.
//! * [`server`] — the worker pool, per-job deadlines, the supervisor
//!   (dead-worker recovery, stuck-worker abandonment, deadline sweeps),
//!   and the TCP front-end.
//! * [`drill`] — the scripted chaos drill with a seed-deterministic
//!   verdict and CI-gateable invariants.
//!
//! The telemetry plane rides the same boundary: jobs that opt in via
//! [`protocol::JobRequest::progress`] stream bounded, monotonic
//! [`protocol::ProgressEvent`] lines ahead of their terminal reply, and a
//! `stats` request snapshots the server's metrics registry
//! ([`protocol::StatsSnapshot`]) — counters, gauges, and latency
//! histograms — as one wire line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drill;
pub mod protocol;
pub mod queue;
pub mod retry;
pub mod server;
pub mod singleflight;

pub use drill::{
    run_drill, DrillConfig, DrillReport, PhaseCounts, ProgressProbe, DRILL_SCHEMA_VERSION,
};
pub use protocol::{
    ChaosDirective, JobKind, JobReply, JobRequest, JobResult, ProgressEvent, Request, ServeError,
    ServerLine, StatValue, StatsSnapshot,
};
pub use retry::RetryPolicy;
pub use server::{install_chaos_panic_hook, JobHandle, Server, ServerConfig};
