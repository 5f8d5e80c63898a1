//! The ScaleDeep compiler front-end (paper §4, Figure 13).
//!
//! Takes a [`scaledeep_dnn::Network`] and a [`scaledeep_arch::NodeConfig`]
//! and produces:
//!
//! * a [`Mapping`] — the result of the workload-mapping phase
//!   (STEP 1–6 of Figure 13): layer → chip-column allocation, network-state
//!   partitioning across MemHeavy tiles, CompHeavy array configuration, and
//!   weight-residency decisions; and
//! * compiled [`scaledeep_isa::Program`]s for the FP/BP/WG CompHeavy tiles
//!   of each allocated column (the code-generation phase), instantiated
//!   from parameterized templates per layer type.
//!
//! The mapping feeds the performance simulator; the programs feed the
//! functional ISA simulator.
//!
//! # Example
//!
//! ```
//! use scaledeep_arch::presets;
//! use scaledeep_compiler::Compiler;
//! use scaledeep_dnn::zoo;
//!
//! # fn main() -> Result<(), scaledeep_compiler::Error> {
//! let net = zoo::alexnet();
//! let node = presets::single_precision();
//! let mapping = Compiler::new(&node).map(&net)?;
//! assert!(mapping.conv_cols_used() > 0);
//! assert!(mapping.chips_spanned() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact_io;
pub mod codegen;
mod error;
mod mapping;
pub mod pipeline;
mod report;

pub use error::{Error, Result};
pub use mapping::{
    ArrayPlan, Compiler, FailedTiles, LayerPlan, Mapping, Placement, Side, StateBudget, TileCoord,
};
pub use pipeline::{CompileOptions, CompiledArtifact, FunctionalMemo, Provenance};
pub use report::{MappingReport, UtilizationWaterfall};
