//! Code generation (paper §4.2): instantiates parameterized templates for
//! the FP / BP / WG steps of every layer into ScaleDeep ISA programs.
//!
//! The functional target compiles a network for the **functional ISA
//! simulator**: every layer's state (features, pre-activations, errors,
//! weights, gradients) is assigned a concrete region in a MemHeavy tile
//! scratchpad, and one program is emitted per (layer, step). All programs
//! run concurrently; ordering is enforced *only* by MEMTRACK data-flow
//! trackers, exactly the paper's synchronization story (§3.2.4):
//!
//! * a consumer's read of a tracked range blocks until the range has
//!   received its declared number of updates;
//! * accumulating writes are commutative, so gradient and partial-feature
//!   accumulations may arrive in any order.
//!
//! Functional-target restrictions (documented in DESIGN.md): convolutions
//! must have stride 1 (the BP transposed convolution is then expressible as
//! `NDCONV` with flipped kernels and complementary padding — pooling layers
//! provide downsampling, as in LeNet-style validation networks), and biases
//! are dropped (the paper's CONV/FC formulation carries no bias term).

mod emit;
mod layout;

pub use emit::{conv_grads_to_output_major, conv_weights_to_input_major, fc_weights_transpose};
// The compile entry points are crate-internal: the codegen phase runs only
// inside the pipeline (`crate::pipeline::compile`), which is the single
// compile entry point of the whole system.
pub(crate) use emit::compile_functional_degraded;
pub use layout::{BufferLoc, LayerBuffers, TrackerSpec};

use scaledeep_isa::Program;

/// Options for the functional compilation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncTargetOptions {
    /// Number of MemHeavy tiles on the (reduced) functional chip.
    pub mem_tiles: usize,
    /// Scratchpad capacity per tile, in f32 elements.
    pub tile_capacity_elems: u32,
}

impl Default for FuncTargetOptions {
    fn default() -> Self {
        Self {
            mem_tiles: 8,
            tile_capacity_elems: 1 << 20,
        }
    }
}

/// A network compiled for the functional simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNetwork {
    /// The source network's name.
    pub net_name: String,
    /// Per-layer buffer assignments, indexed by `LayerId`.
    pub buffers: Vec<LayerBuffers>,
    /// One program per (layer, step) that needs one, named
    /// `"L<idx>.<FP|BP|WG>"`.
    pub programs: Vec<Program>,
    /// Data-flow trackers to arm at program load (the MEMTRACK preamble of
    /// each producer program, collected for the simulator).
    pub trackers: Vec<TrackerSpec>,
    /// MemHeavy tile count of the target.
    pub mem_tiles: usize,
    /// Location of the constants region (holds the -1.0 used by the loss
    /// program's golden-output subtraction).
    pub const_neg_one: BufferLoc,
    /// Number of bias vectors dropped during compilation (the paper's
    /// formulation has no bias term; validation networks use `bias: false`
    /// so this is 0 for exact functional equivalence).
    pub dropped_biases: usize,
    /// Minibatch size the programs loop over (1 = straight-line per-image
    /// programs driven by the host; >1 = scalar-loop programs that walk
    /// the input/golden arrays with register-indirect addressing and rely
    /// on tracker generation-wrap for cross-image buffer reuse).
    pub minibatch: usize,
    /// A zeros region used by self-clearing BP scatter targets in the
    /// minibatch-looped mode.
    pub zeros: Option<BufferLoc>,
}

impl CompiledNetwork {
    /// Looks a program up by name.
    pub fn program(&self, name: &str) -> Option<&Program> {
        self.programs.iter().find(|p| p.name() == name)
    }

    /// Total instruction count across all programs.
    pub fn total_insts(&self) -> usize {
        self.programs.iter().map(|p| p.len()).sum()
    }
}
