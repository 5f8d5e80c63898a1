//! DNN graph substrate for the ScaleDeep reproduction.
//!
//! This crate models deep neural networks the way the ScaleDeep paper
//! (Venkataramani et al., ISCA 2017) consumes them: as static, layered
//! data-flow graphs whose compute and memory demands can be analyzed ahead of
//! time. It provides:
//!
//! * the layer vocabulary of Section 2 of the paper — convolutional
//!   ([`Conv`]), sampling ([`Pool`]) and fully-connected ([`Fc`]) layers, plus
//!   the auxiliary element-wise add / concatenation nodes required by
//!   GoogLeNet and ResNet topologies;
//! * a directed-acyclic [`Network`] graph with shape inference and
//!   topological iteration;
//! * the workload analysis of Figures 1, 4 and 5 — FLOPs, bytes and
//!   Bytes/FLOP per training step ([`Step::Fp`], [`Step::Bp`], [`Step::Wg`])
//!   and per computational kernel ([`Kernel`]);
//! * a [`zoo`] of all 11 benchmark networks from Figure 15 (AlexNet, ZF,
//!   CNN-S, OverFeat-Fast/-Accurate, GoogLeNet, VGG-A/D/E, ResNet-18/34).
//!
//! # Example
//!
//! ```
//! use scaledeep_dnn::{zoo, Step};
//!
//! let net = zoo::alexnet();
//! let a = net.analyze();
//! // AlexNet evaluates one image in ~1.3 GFLOP and holds ~61M weights.
//! assert!(a.total_flops(Step::Fp) > 1_000_000_000);
//! assert!(a.weights() > 55_000_000 && a.weights() < 65_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod builder;
mod error;
mod graph;
mod layer;
mod shape;
pub mod zoo;

pub use analysis::{
    kernel_summary, layer_class_breakdown, Analysis, Kernel, KernelShare, LayerClass,
    LayerClassRow, LayerCost, OpBreakdown, Step, BYTES_PER_ELEM_HP, BYTES_PER_ELEM_SP,
};
pub use builder::NetworkBuilder;
pub use error::{Error, Result};
pub use graph::{LayerId, LayerNode, Network};
pub use layer::{Activation, Conv, Fc, Layer, Pool, PoolKind};
pub use shape::FeatureShape;
