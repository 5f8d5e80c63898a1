//! ScaleDeep: a scalable compute architecture for learning and evaluating
//! deep networks — a full reproduction of the ISCA 2017 paper in Rust.
//!
//! This facade crate ties the workspace together:
//!
//! * [`Session`] — the end-to-end API: pick a design point
//!   ([`Session::single_precision`] / [`Session::half_precision`]), compile
//!   any [`scaledeep_dnn::Network`] onto it, and simulate training or
//!   evaluation;
//! * [`experiments`] — one driver per paper figure/table, each regenerating
//!   the corresponding rows (Figures 1, 4, 5, 14–21) plus the ablations
//!   called out in DESIGN.md;
//! * [`report::Table`] — the plain-text table rendering the drivers share.
//!
//! # Quick start
//!
//! ```
//! use scaledeep::Session;
//! use scaledeep_dnn::zoo;
//!
//! # fn main() -> Result<(), scaledeep::Error> {
//! let session = Session::single_precision();
//! let result = session.train(&zoo::alexnet())?;
//! println!(
//!     "AlexNet trains at {:.0} images/s at {:.0} W",
//!     result.images_per_sec,
//!     result.avg_power.total()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod dse;
pub mod experiments;
pub mod pool;
pub mod report;
mod session;

pub use attribution::{Attribution, LayerAttribution, RooflineBound};
pub use dse::{DseConfig, DsePoint, DseReport, Expansion, DSE_SCHEMA_VERSION};
pub use report::{BenchReport, BENCH_SCHEMA_VERSION};
pub use scaledeep_compiler::{CompileOptions, CompiledArtifact, FailedTiles, Provenance};
pub use scaledeep_sim::{Error, Result};
pub use session::{
    CacheStats, CycleCrossCheck, Observed, Observer, ResilientRun, Session, Trace, TraceConfig,
    TracedRun,
};
