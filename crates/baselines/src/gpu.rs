//! GPU baselines: published throughput tables.

mod published;

pub use published::{published_training_throughput, PublishedEntry, PUBLISHED};

use std::fmt;

/// The GPU software stacks the paper charts in Figure 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuFramework {
    /// NVIDIA cuDNN R2 (the 2015-era baseline — Figure 18's tallest bars).
    CudnnR2,
    /// Nervana Neon (hand-tuned SASS kernels).
    NervanaNeon,
    /// Google TensorFlow.
    TensorFlow,
    /// cuDNN with Winograd convolutions (R5-era).
    CudnnWinograd,
    /// Nervana Neon with Winograd convolutions.
    NervanaWinograd,
}

impl GpuFramework {
    /// All frameworks in Figure 18's legend order.
    pub const ALL: [GpuFramework; 5] = [
        GpuFramework::CudnnR2,
        GpuFramework::NervanaNeon,
        GpuFramework::TensorFlow,
        GpuFramework::CudnnWinograd,
        GpuFramework::NervanaWinograd,
    ];
}

impl fmt::Display for GpuFramework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GpuFramework::CudnnR2 => "TitanX-cuDNN-R2",
            GpuFramework::NervanaNeon => "TitanX-Nervana",
            GpuFramework::TensorFlow => "TensorFlow",
            GpuFramework::CudnnWinograd => "TitanX-cuDNN-Winograd",
            GpuFramework::NervanaWinograd => "TitanX-Nervana-Winograd",
        })
    }
}
