//! Comparison baselines for the ScaleDeep evaluation (paper §6.1 and §7,
//! Figure 18).
//!
//! The paper compares one ScaleDeep chip cluster (~325 W) against
//! state-of-the-art GPU training implementations on an NVIDIA Titan X
//! (Maxwell, ~320 W — the iso-power pairing), using *published* throughput
//! numbers from soumith/convnet-benchmarks and the Nervana model zoo
//! (paper references \[4\] and \[9\]). This crate provides:
//!
//! * [`gpu::PUBLISHED`] — the embedded published-throughput dataset for the
//!   four networks the paper charts (AlexNet, GoogLeNet, OverFeat, VGG-A)
//!   across five GPU software stacks;
//! * [`dadiannao`] — a homogeneous accelerator-node model in the spirit of
//!   DaDianNao for the §7 iso-power FLOPs comparison (the paper's "5× as
//!   many FLOPs at iso-power").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dadiannao;
pub mod gpu;

pub use dadiannao::DaDianNaoModel;
pub use gpu::{GpuFramework, PublishedEntry};
