//! Workload analysis: FLOPs, bytes and Bytes/FLOP per training step and per
//! computational kernel (paper §2.3, Figures 1, 4, 5 and 15).

mod flops;
mod kernels;
mod table;

pub use kernels::{kernel_summary, KernelShare};
pub use table::{layer_class_breakdown, LayerClass, LayerClassRow};

use crate::graph::{LayerId, Network};
use crate::layer::Layer;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::sync::OnceLock;

/// Bytes per element at single precision (FP32).
pub const BYTES_PER_ELEM_SP: u64 = 4;
/// Bytes per element at half precision (FP16).
pub const BYTES_PER_ELEM_HP: u64 = 2;

/// One of the three steps of a training iteration (paper §2.2, Figure 3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Step {
    /// Forward propagation (also the entirety of network evaluation).
    Fp,
    /// Backpropagation of errors.
    Bp,
    /// Weight-gradient computation.
    Wg,
}

impl Step {
    /// All steps, in execution order.
    pub const ALL: [Step; 3] = [Step::Fp, Step::Bp, Step::Wg];
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Step::Fp => "FP",
            Step::Bp => "BP",
            Step::Wg => "WG",
        })
    }
}

/// The six computational kernels the paper identifies in DNN training
/// (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    /// n-dimensional convolution (CONV FP/BP/WG). Compute dominant.
    NdConv,
    /// Vector–matrix multiplication (FC FP/BP). Compute dominant.
    MatMul,
    /// n-dimensional accumulation of partial features (CONV, FC).
    NdAccumulate,
    /// Vector element-wise multiplication (FC WG outer product).
    VecEltwiseMul,
    /// Up/down sampling (SAMP FP/BP).
    Sampling,
    /// Non-linear activation function evaluation.
    ActivationFn,
}

impl Kernel {
    /// All kernels in the paper's Figure 5 order.
    pub const ALL: [Kernel; 6] = [
        Kernel::NdConv,
        Kernel::MatMul,
        Kernel::NdAccumulate,
        Kernel::VecEltwiseMul,
        Kernel::Sampling,
        Kernel::ActivationFn,
    ];

    /// True for the compute-dominant kernels mapped to CompHeavy tiles
    /// (paper §3.1); the remainder run on MemHeavy SFUs.
    pub const fn is_compute_heavy(self) -> bool {
        matches!(self, Kernel::NdConv | Kernel::MatMul)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::NdConv => "nD-Convolution",
            Kernel::MatMul => "Matrix Multiply",
            Kernel::NdAccumulate => "nD-Accumulate",
            Kernel::VecEltwiseMul => "Vector eltwise mul",
            Kernel::Sampling => "Sampling",
            Kernel::ActivationFn => "Activation Fn",
        })
    }
}

/// FLOPs and bytes charged to each kernel within one step of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpBreakdown {
    flops: [u64; 6],
    bytes: [u64; 6],
}

impl OpBreakdown {
    /// Adds `flops` / `bytes` to a kernel's tally.
    pub fn charge(&mut self, kernel: Kernel, flops: u64, bytes: u64) {
        let i = Self::idx(kernel);
        self.flops[i] += flops;
        self.bytes[i] += bytes;
    }

    const fn idx(kernel: Kernel) -> usize {
        match kernel {
            Kernel::NdConv => 0,
            Kernel::MatMul => 1,
            Kernel::NdAccumulate => 2,
            Kernel::VecEltwiseMul => 3,
            Kernel::Sampling => 4,
            Kernel::ActivationFn => 5,
        }
    }

    /// FLOPs charged to one kernel.
    pub fn flops(&self, kernel: Kernel) -> u64 {
        self.flops[Self::idx(kernel)]
    }

    /// Bytes charged to one kernel.
    pub fn bytes(&self, kernel: Kernel) -> u64 {
        self.bytes[Self::idx(kernel)]
    }

    /// Total FLOPs across kernels.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Total bytes across kernels.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// FLOPs on compute-heavy kernels (CompHeavy tile work).
    pub fn compute_heavy_flops(&self) -> u64 {
        Kernel::ALL
            .iter()
            .filter(|k| k.is_compute_heavy())
            .map(|&k| self.flops(k))
            .sum()
    }

    /// FLOPs on memory-dominant kernels (MemHeavy SFU work).
    pub fn mem_heavy_flops(&self) -> u64 {
        self.total_flops() - self.compute_heavy_flops()
    }

    /// Bytes/FLOP of this breakdown (0 when no FLOPs are charged).
    pub fn bytes_per_flop(&self) -> f64 {
        let f = self.total_flops();
        if f == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / f as f64
        }
    }
}

impl Add for OpBreakdown {
    type Output = OpBreakdown;
    fn add(mut self, rhs: OpBreakdown) -> OpBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for OpBreakdown {
    fn add_assign(&mut self, rhs: OpBreakdown) {
        for i in 0..6 {
            self.flops[i] += rhs.flops[i];
            self.bytes[i] += rhs.bytes[i];
        }
    }
}

/// Static cost of a single layer: per-step kernel breakdowns plus structural
/// counts (weights, neurons, connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCost {
    /// Per-step breakdowns, indexed FP/BP/WG.
    steps: [OpBreakdown; 3],
    /// Learned weights held by the layer (including biases).
    pub weights: u64,
    /// Output neurons (CONV/FC only, the paper's Figure 15 convention).
    pub neurons: u64,
    /// Connections = multiply–accumulate pairs per image (CONV/FC).
    pub connections: u64,
}

impl LayerCost {
    const fn step_idx(step: Step) -> usize {
        match step {
            Step::Fp => 0,
            Step::Bp => 1,
            Step::Wg => 2,
        }
    }

    /// The kernel breakdown for one step.
    pub fn step(&self, step: Step) -> &OpBreakdown {
        &self.steps[Self::step_idx(step)]
    }

    pub(crate) fn step_mut(&mut self, step: Step) -> &mut OpBreakdown {
        &mut self.steps[Self::step_idx(step)]
    }

    /// Total FLOPs in one step.
    pub fn flops(&self, step: Step) -> u64 {
        self.step(step).total_flops()
    }

    /// Total FLOPs over a full training iteration (FP+BP+WG).
    pub fn training_flops(&self) -> u64 {
        Step::ALL.iter().map(|&s| self.flops(s)).sum()
    }

    /// Sum of all three step breakdowns.
    pub fn training_breakdown(&self) -> OpBreakdown {
        self.steps[0] + self.steps[1] + self.steps[2]
    }
}

/// Complete static analysis of a [`Network`].
///
/// Produced by [`Network::analyze`]; all quantities are per single input
/// image unless stated otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    name: String,
    elem_bytes: u64,
    costs: Vec<LayerCost>,
}

impl Analysis {
    /// The analyzed network's name.
    pub fn network_name(&self) -> &str {
        &self.name
    }

    /// Bytes per element assumed for byte counts (4 for SP, 2 for HP).
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Cost of a single layer.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network.
    pub fn layer(&self, id: LayerId) -> &LayerCost {
        &self.costs[id.index()]
    }

    /// Total FLOPs of one step across all layers.
    pub fn total_flops(&self, step: Step) -> u64 {
        self.costs.iter().map(|c| c.flops(step)).sum()
    }

    /// Total FLOPs of a full training iteration (one image).
    pub fn training_flops(&self) -> u64 {
        self.costs.iter().map(|c| c.training_flops()).sum()
    }

    /// Total learned weights.
    pub fn weights(&self) -> u64 {
        self.costs.iter().map(|c| c.weights).sum()
    }

    /// Total neurons (CONV + FC outputs).
    pub fn neurons(&self) -> u64 {
        self.costs.iter().map(|c| c.neurons).sum()
    }

    /// Total connections (MAC pairs per image).
    pub fn connections(&self) -> u64 {
        self.costs.iter().map(|c| c.connections).sum()
    }

    /// Aggregate kernel breakdown over a full training iteration.
    pub fn training_breakdown(&self) -> OpBreakdown {
        self.costs
            .iter()
            .map(|c| c.training_breakdown())
            .fold(OpBreakdown::default(), |a, b| a + b)
    }

    /// Total feature bytes that must be storable on chip: outputs of every
    /// layer (features) plus, for training, the same amount again for errors.
    pub fn feature_bytes(&self, net: &Network) -> u64 {
        net.layers()
            .filter(|n| !matches!(n.layer(), Layer::Input(_) | Layer::Loss))
            .map(|n| n.output_shape().elems() as u64 * self.elem_bytes)
            .sum()
    }
}

impl Network {
    /// Analyzes the network at single precision (4 bytes/element).
    pub fn analyze(&self) -> &Analysis {
        self.analyze_with_elem_bytes(BYTES_PER_ELEM_SP)
    }

    /// Analyzes the network with an explicit element size in bytes
    /// (use [`BYTES_PER_ELEM_HP`] for the half-precision design point).
    ///
    /// The analysis depends only on the network and the element size, so
    /// it is computed on the first call per size and memoized, like
    /// [`Network::fingerprint`]: every later compile borrows it. The memo
    /// is invisible to `Debug`, `==` and the fingerprint.
    pub fn analyze_with_elem_bytes(&self, elem_bytes: u64) -> &Analysis {
        self.analyses().get_or_init(elem_bytes, || Analysis {
            name: self.name().to_string(),
            elem_bytes,
            costs: self
                .layers()
                .map(|n| flops::layer_cost(self, n, elem_bytes))
                .collect(),
        })
    }
}

/// A network's memoized analyses, one per element size asked for: an
/// append-only chain of set-once cells. Any size must work (a stored
/// artifact's mapping names its own), so there is no fixed slot per
/// precision. A lookup walks the chain (one or two links in practice); a
/// miss fills the first empty cell, and a caller that loses the race for
/// that cell to another size moves on to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnalysisMemo(OnceLock<Box<MemoLink>>);

#[derive(Debug, Clone)]
struct MemoLink {
    analysis: Analysis,
    next: AnalysisMemo,
}

impl AnalysisMemo {
    fn get_or_init(&self, elem_bytes: u64, compute: impl Fn() -> Analysis) -> &Analysis {
        let mut cell = self;
        loop {
            let link = cell.0.get_or_init(|| {
                Box::new(MemoLink {
                    analysis: compute(),
                    next: AnalysisMemo::default(),
                })
            });
            if link.analysis.elem_bytes == elem_bytes {
                return &link.analysis;
            }
            cell = &link.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::layer::{Conv, Fc, Pool};
    use crate::shape::FeatureShape;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new("tiny", FeatureShape::new(3, 8, 8));
        b.conv("c1", Conv::relu(4, 3, 1, 1)).unwrap();
        b.pool("s1", Pool::max(2, 2)).unwrap();
        let f = b.fc("f1", Fc::linear(10)).unwrap();
        b.finish_with_loss(f).unwrap()
    }

    #[test]
    fn conv_fp_flops_match_closed_form() {
        let net = tiny();
        let a = net.analyze();
        let c1 = net.node_by_name("c1").unwrap();
        let conv_flops = a.layer(c1.id()).step(Step::Fp).flops(Kernel::NdConv);
        // 2 * K*K * Cin * Cout * Hout * Wout
        assert_eq!(conv_flops, 2 * 9 * 3 * 4 * 8 * 8);
    }

    #[test]
    fn fc_weights_count_in_totals() {
        let net = tiny();
        let a = net.analyze();
        // fc: (4*4*4) inputs x 10 + 10 bias; conv: 4*3*9 + 4 bias.
        assert_eq!(a.weights(), (64 * 10 + 10) + (4 * 27 + 4));
    }

    #[test]
    fn training_flops_exceed_fp_flops() {
        let net = tiny();
        let a = net.analyze();
        assert!(a.training_flops() > 2 * a.total_flops(Step::Fp));
    }

    #[test]
    fn half_precision_halves_bytes_not_flops() {
        let net = tiny();
        let sp = net.analyze();
        let hp = net.analyze_with_elem_bytes(BYTES_PER_ELEM_HP);
        assert_eq!(sp.training_flops(), hp.training_flops());
        assert_eq!(
            sp.training_breakdown().total_bytes(),
            2 * hp.training_breakdown().total_bytes()
        );
    }

    #[test]
    fn breakdown_addition_is_componentwise() {
        let mut a = OpBreakdown::default();
        a.charge(Kernel::NdConv, 10, 100);
        let mut b = OpBreakdown::default();
        b.charge(Kernel::NdConv, 5, 50);
        b.charge(Kernel::MatMul, 7, 7);
        let c = a + b;
        assert_eq!(c.flops(Kernel::NdConv), 15);
        assert_eq!(c.bytes(Kernel::NdConv), 150);
        assert_eq!(c.total_flops(), 22);
        assert_eq!(c.compute_heavy_flops(), 22);
        assert_eq!(c.mem_heavy_flops(), 0);
    }

    #[test]
    fn neurons_count_conv_and_fc_only() {
        let net = tiny();
        let a = net.analyze();
        // conv out 4*8*8 = 256, fc out 10. Pool/input/loss excluded.
        assert_eq!(a.neurons(), 256 + 10);
    }
}
