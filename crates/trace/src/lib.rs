//! `scaledeep-trace`: a zero-dependency observability subsystem for the
//! ScaleDeep reproduction — structured, cycle-stamped event tracing, a
//! unified metrics registry, and Perfetto/CSV exporters shared by the
//! functional and performance simulators.
//!
//! # Architecture
//!
//! - **Events** ([`Event`], [`Payload`], [`Category`]): cycle-stamped spans
//!   and instants with typed, allocation-free payloads, organized on named
//!   tracks ([`TrackTable`]).
//! - **Sinks** ([`TraceSink`]): [`NullSink`] is statically free (disabled
//!   tracing compiles to a constant-false branch), [`VecSink`] records
//!   everything, [`RingSink`] keeps a bounded flight-recorder tail with a
//!   drop count, [`FilterSink`] layers a per-category mask over any sink.
//!   Instrumented code talks to a [`Tracer`], which owns the sink and the
//!   track table.
//! - **Progress** ([`ProgressSink`], [`progress_channel`]): a leaf sink
//!   that records no events but folds the stream into bounded,
//!   drop-counted [`ProgressUpdate`]s (phase entered, sync windows
//!   completed, cycles retired, fault/retry counts) for live consumers;
//!   the sender never blocks, so a slow consumer can lose history but
//!   never stall the producer.
//! - **Exporters**: [`chrome_trace`] renders Chrome/Perfetto trace JSON
//!   (tracks as threads, spans as duration events);
//!   [`validate_chrome_trace`] re-parses it with the bundled JSON parser
//!   and checks per-track timestamp monotonicity; [`cycle_csv`] renders
//!   SCALE-Sim-style per-cycle CSV; [`utilization_heatmap`] renders an
//!   ASCII per-track occupancy heatmap. All output is deterministic for a
//!   fixed event stream.
//! - **Metrics** ([`MetricsRegistry`]): named counters, gauges, and log2
//!   histograms with a sorted text report; simulators register metrics
//!   once, update via [`MetricId`] handles in hot loops, and merge
//!   registries upward.
//! - **Hashing** ([`fnv1a`], [`Fnv1aWriter`], [`splitmix64`]): the
//!   FNV-1a-64 content hash behind every provenance key, design
//!   fingerprint and stream digest, and the SplitMix64 counter hash behind
//!   every seeded fault and retry-jitter draw.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod progress;
pub mod sink;

pub use csv::{busy_cycles_per_track, cycle_csv, utilization_heatmap};
pub use event::{Category, CategoryMask, Cycle, Event, Payload, TrackId, TrackTable};
pub use hash::{fnv1a, splitmix64, Fnv1aWriter, FNV1A_OFFSET};
pub use metrics::{Hist, MetricId, MetricsRegistry, Value};
pub use perfetto::{chrome_trace, validate_chrome_trace, TraceSummary};
pub use progress::{
    progress_channel, ProgressKind, ProgressReceiver, ProgressSender, ProgressSink, ProgressUpdate,
};
pub use sink::{FilterSink, NullSink, RingSink, TraceSink, Tracer, VecSink};
