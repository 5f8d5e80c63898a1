//! The ScaleDeep architectural simulators (paper §5).
//!
//! Two simulators share one discrete-event core, [`engine`]: an
//! [`EventQueue`] (time-ordered dispatch with free-list slot recycling
//! and FIFO tie-breaking), a [`WaitMap`] (threads park on tracker
//! address-range conditions and are woken only by the update that
//! satisfies them — never re-polled), and a [`BusyTracker`] (shared
//! resource accounting).
//!
//! * [`perf`] — the **performance simulator**: an event-driven model of the
//!   nested pipeline (paper §3.2.3) over a compiled [`Mapping`]. It models
//!   the events the paper's simulator models — compute operations on the
//!   2D PE arrays and SFUs, on-/off-chip memory accesses, link transfers at
//!   every tier of the grid–wheel–ring interconnect, and minibatch-end
//!   gradient aggregation — and reports throughput (images/second),
//!   per-resource utilization, link utilization per class, and average
//!   power / energy efficiency via the calibrated power model.
//! * [`func`] — the **functional simulator**: a bit-accurate interpreter of
//!   compiled ScaleDeep ISA programs running one thread per CompHeavy tile
//!   program, with real f32 scratchpads and hardware data-flow trackers
//!   enforcing the MEMTRACK synchronization semantics (§3.2.4). Threads
//!   are scheduled event-driven on the shared engine: every instruction
//!   is priced in cycles by the §3.2-derived [`CycleCosts`] table, so a
//!   run yields both the final memory image (validated against the
//!   `scaledeep-tensor` reference executor) and a cycle count
//!   cross-checkable against [`perf`].
//!
//! Both simulators are instrumented with the `scaledeep-trace`
//! observability subsystem: each layer has one run function
//! ([`perf::PerfSim::run`], [`func::Machine::run_lowered`] on the
//! compiled tier) that takes a `Tracer` (cycle-stamped spans/instants on
//! named tracks, exportable to Chrome/Perfetto JSON or per-cycle CSV) and
//! an optional `MetricsRegistry`. Both models return a typed run record
//! ([`RunStats`], [`PerfResult`]) and render it into the registry only
//! when the run is observed; unobserved runs pass a statically-free
//! `NullSink` tracer and touch no registry.
//!
//! [`RunStats`]: func::RunStats
//! [`PerfResult`]: perf::PerfResult
//! [`Mapping`]: scaledeep_compiler::Mapping
//! [`EventQueue`]: engine::EventQueue
//! [`WaitMap`]: engine::WaitMap
//! [`BusyTracker`]: engine::BusyTracker
//! [`CycleCosts`]: func::CycleCosts

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
pub mod fault;
pub mod func;
pub mod perf;

pub use error::{Error, Result};
