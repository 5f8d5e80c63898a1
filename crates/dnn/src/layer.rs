//! Layer vocabulary: the operations a ScaleDeep network is composed of.

use crate::error::{Error, Result};
use crate::shape::FeatureShape;
use std::fmt;

/// Non-linear activation function applied at the output of CONV / FC layers.
///
/// The MemHeavy tile SFUs support ReLU, tanh and sigmoid (paper §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No activation (identity).
    #[default]
    None,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// FLOPs charged per activated element (1 for any supported function,
    /// 0 when no activation is applied). Matches the paper's accounting where
    /// activation contributes ~0.1% of layer FLOPs.
    pub const fn flops_per_elem(self) -> u64 {
        match self {
            Activation::None => 0,
            _ => 1,
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activation::None => "none",
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
        };
        f.write_str(s)
    }
}

/// Pooling flavor of a sampling (SAMP) layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max-pooling: output is the window maximum.
    Max,
    /// Average-pooling: output is the window mean.
    Avg,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolKind::Max => "max",
            PoolKind::Avg => "avg",
        })
    }
}

/// A convolutional (CONV) layer.
///
/// Produces `out_features` maps by convolving the input maps with
/// `kernel`-sized weight kernels, accumulating across input features,
/// adding an optional bias, and applying an [`Activation`].
/// `groups > 1` models the split-tower connection tables of AlexNet
/// (the paper's "connection table denoting which input and output features
/// are connected").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv {
    /// Number of output feature maps.
    pub out_features: usize,
    /// Kernel height (= width; all benchmark kernels are square).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub pad: usize,
    /// Connection-table groups (1 = dense connectivity).
    pub groups: usize,
    /// Whether a per-output-feature bias is learned.
    pub bias: bool,
    /// Fused output activation.
    pub activation: Activation,
}

impl Conv {
    /// Dense convolution with the given geometry, ReLU activation and bias.
    pub const fn relu(out_features: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            out_features,
            kernel,
            stride,
            pad,
            groups: 1,
            bias: true,
            activation: Activation::Relu,
        }
    }

    /// Same as [`Conv::relu`] but with a connection table of `groups` groups.
    pub const fn relu_grouped(
        out_features: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Self {
        Self {
            out_features,
            kernel,
            stride,
            pad,
            groups,
            bias: true,
            activation: Activation::Relu,
        }
    }

    /// Dense convolution with no activation (used before element-wise adds
    /// in residual blocks).
    pub const fn linear(out_features: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            out_features,
            kernel,
            stride,
            pad,
            groups: 1,
            bias: true,
            activation: Activation::None,
        }
    }

    /// Number of learned weights given `in_features` input maps
    /// (kernel weights plus biases when enabled).
    pub fn weights(&self, in_features: usize) -> u64 {
        let per_out = (in_features / self.groups) * self.kernel * self.kernel;
        let w = (self.out_features as u64) * (per_out as u64);
        if self.bias {
            w + self.out_features as u64
        } else {
            w
        }
    }

    fn validate(&self, name: &str, input: FeatureShape) -> Result<()> {
        if self.kernel == 0 || self.stride == 0 || self.out_features == 0 || self.groups == 0 {
            return Err(Error::InvalidParameter {
                layer: name.to_string(),
                detail: "kernel, stride, out_features and groups must be non-zero".into(),
            });
        }
        if !input.features.is_multiple_of(self.groups)
            || !self.out_features.is_multiple_of(self.groups)
        {
            return Err(Error::InvalidParameter {
                layer: name.to_string(),
                detail: format!(
                    "groups {} must divide in_features {} and out_features {}",
                    self.groups, input.features, self.out_features
                ),
            });
        }
        if input.height + 2 * self.pad < self.kernel || input.width + 2 * self.pad < self.kernel {
            return Err(Error::ShapeMismatch {
                layer: name.to_string(),
                detail: format!(
                    "kernel {} exceeds padded input {}x{}",
                    self.kernel,
                    input.height + 2 * self.pad,
                    input.width + 2 * self.pad
                ),
            });
        }
        Ok(())
    }

    /// Output shape for the given input shape.
    pub fn output_shape(&self, input: FeatureShape) -> FeatureShape {
        let h = (input.height + 2 * self.pad - self.kernel) / self.stride + 1;
        let w = (input.width + 2 * self.pad - self.kernel) / self.stride + 1;
        FeatureShape::new(self.out_features, h, w)
    }
}

/// A sampling (SAMP) layer: down-samples each feature map independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool {
    /// Max or average pooling.
    pub kind: PoolKind,
    /// Pooling window edge length.
    pub window: usize,
    /// Stride between windows.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// When true (the default constructors' choice), partial windows at the
    /// border are kept (Caffe/ceil mode); when false they are dropped
    /// (floor mode, used by e.g. CNN-S).
    pub ceil_mode: bool,
}

impl Pool {
    /// Max-pooling with the given window and stride, no padding, ceil mode.
    pub const fn max(window: usize, stride: usize) -> Self {
        Self {
            kind: PoolKind::Max,
            window,
            stride,
            pad: 0,
            ceil_mode: true,
        }
    }

    /// Average pooling with the given window and stride, no padding,
    /// ceil mode.
    pub const fn avg(window: usize, stride: usize) -> Self {
        Self {
            kind: PoolKind::Avg,
            window,
            stride,
            pad: 0,
            ceil_mode: true,
        }
    }

    /// Returns the same pool in floor mode (partial border windows dropped).
    pub const fn floor_mode(mut self) -> Self {
        self.ceil_mode = false;
        self
    }

    /// Returns the same pool with symmetric padding `pad`.
    pub const fn with_pad(mut self, pad: usize) -> Self {
        self.pad = pad;
        self
    }

    fn validate(&self, name: &str, input: FeatureShape) -> Result<()> {
        if self.window == 0 || self.stride == 0 {
            return Err(Error::InvalidParameter {
                layer: name.to_string(),
                detail: "window and stride must be non-zero".into(),
            });
        }
        if input.height + 2 * self.pad < self.window || input.width + 2 * self.pad < self.window {
            return Err(Error::ShapeMismatch {
                layer: name.to_string(),
                detail: format!(
                    "window {} exceeds padded input {}x{}",
                    self.window,
                    input.height + 2 * self.pad,
                    input.width + 2 * self.pad
                ),
            });
        }
        Ok(())
    }

    /// Output shape for the given input shape. Ceil mode keeps partial
    /// windows at the border (Caffe-style), which several benchmark
    /// topologies rely on (e.g. GoogLeNet 3x3/2 pooling on 28x28 -> 14x14);
    /// floor mode drops them (CNN-S). Delegates per dimension to
    /// [`scaledeep_isa::samp_out`] — the single definition the `NDSUBSAMP`
    /// / `NDUPSAMP` execution semantics share.
    pub fn output_shape(&self, input: FeatureShape) -> FeatureShape {
        let h = scaledeep_isa::samp_out(
            input.height,
            self.window,
            self.stride,
            self.pad,
            self.ceil_mode,
        );
        let w = scaledeep_isa::samp_out(
            input.width,
            self.window,
            self.stride,
            self.pad,
            self.ceil_mode,
        );
        FeatureShape::new(input.features, h, w)
    }
}

/// A fully-connected (FC) layer: `out_neurons` neurons, each connected to all
/// layer inputs through a distinct weight (a vector–matrix multiplication
/// followed by an activation; paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fc {
    /// Number of output neurons.
    pub out_neurons: usize,
    /// Whether a per-neuron bias is learned.
    pub bias: bool,
    /// Fused output activation.
    pub activation: Activation,
}

impl Fc {
    /// FC layer with ReLU activation and bias.
    pub const fn relu(out_neurons: usize) -> Self {
        Self {
            out_neurons,
            bias: true,
            activation: Activation::Relu,
        }
    }

    /// FC layer with no activation (typical final classifier before softmax).
    pub const fn linear(out_neurons: usize) -> Self {
        Self {
            out_neurons,
            bias: true,
            activation: Activation::None,
        }
    }

    /// Number of learned weights given a flattened input of `in_elems`.
    pub fn weights(&self, in_elems: usize) -> u64 {
        let w = (self.out_neurons as u64) * (in_elems as u64);
        if self.bias {
            w + self.out_neurons as u64
        } else {
            w
        }
    }
}

/// One operation in the network graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Layer {
    /// Network input (training images enter here); carries its shape.
    Input(FeatureShape),
    /// Convolutional layer.
    Conv(Conv),
    /// Sampling layer.
    Pool(Pool),
    /// Fully-connected layer.
    Fc(Fc),
    /// Element-wise addition of exactly two equal-shaped inputs, followed by
    /// an activation (residual connections). Executed on MemHeavy SFUs.
    EltwiseAdd(Activation),
    /// Element-wise (Hadamard) product of exactly two equal-shaped inputs,
    /// followed by an activation — LSTM gating. Executed on MemHeavy SFUs
    /// (the paper's Figure 5 "vector element-wise multiply" kernel).
    EltwiseMul(Activation),
    /// A standalone activation over one input (e.g. the tanh on an LSTM
    /// cell state). Executed on MemHeavy SFUs.
    Act(Activation),
    /// Feature-wise concatenation of two or more inputs with equal spatial
    /// extents (inception modules). A pure data-placement operation.
    Concat,
    /// Parameter-free residual shortcut (ResNet "option A"): spatially
    /// subsamples by `stride` and zero-pads the feature count to
    /// `out_features`. Learns no weights, so ResNet-18/34 match the paper's
    /// 11.5M / 21.1M weight counts and 17 / 33 CONV-layer counts exactly.
    Shortcut {
        /// Spatial subsampling factor.
        stride: usize,
        /// Output feature count after zero-padding.
        out_features: usize,
    },
    /// Loss head: compares network output against the golden output `G_LN`
    /// and produces the initial back-propagated error (paper Figure 3a).
    Loss,
}

impl Layer {
    /// Validates arity and parameters and computes the output shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`], [`Error::ShapeMismatch`] or
    /// [`Error::InvalidParameter`] when the inputs are incompatible with the
    /// layer.
    pub fn infer_shape(&self, name: &str, inputs: &[FeatureShape]) -> Result<FeatureShape> {
        let want_one = |n: usize| -> Result<FeatureShape> {
            if n == 1 {
                Ok(inputs[0])
            } else {
                Err(Error::ArityMismatch {
                    layer: name.to_string(),
                    expected: "exactly 1",
                    got: n,
                })
            }
        };
        match self {
            Layer::Input(shape) => {
                if inputs.is_empty() {
                    Ok(*shape)
                } else {
                    Err(Error::ArityMismatch {
                        layer: name.to_string(),
                        expected: "exactly 0",
                        got: inputs.len(),
                    })
                }
            }
            Layer::Conv(c) => {
                let i = want_one(inputs.len())?;
                c.validate(name, i)?;
                Ok(c.output_shape(i))
            }
            Layer::Pool(p) => {
                let i = want_one(inputs.len())?;
                p.validate(name, i)?;
                Ok(p.output_shape(i))
            }
            Layer::Fc(f) => {
                let i = want_one(inputs.len())?;
                if f.out_neurons == 0 {
                    return Err(Error::InvalidParameter {
                        layer: name.to_string(),
                        detail: "out_neurons must be non-zero".into(),
                    });
                }
                let _ = i;
                Ok(FeatureShape::vector(f.out_neurons))
            }
            Layer::EltwiseAdd(_) | Layer::EltwiseMul(_) => {
                if inputs.len() != 2 {
                    return Err(Error::ArityMismatch {
                        layer: name.to_string(),
                        expected: "exactly 2",
                        got: inputs.len(),
                    });
                }
                if inputs[0] != inputs[1] {
                    return Err(Error::ShapeMismatch {
                        layer: name.to_string(),
                        detail: format!("{} vs {}", inputs[0], inputs[1]),
                    });
                }
                Ok(inputs[0])
            }
            Layer::Act(_) => want_one(inputs.len()),
            Layer::Concat => {
                if inputs.len() < 2 {
                    return Err(Error::ArityMismatch {
                        layer: name.to_string(),
                        expected: "2 or more",
                        got: inputs.len(),
                    });
                }
                let (h, w) = (inputs[0].height, inputs[0].width);
                let mut features = 0;
                for s in inputs {
                    if s.height != h || s.width != w {
                        return Err(Error::ShapeMismatch {
                            layer: name.to_string(),
                            detail: format!("spatial extents differ: {} vs {}x{}", s, h, w),
                        });
                    }
                    features += s.features;
                }
                Ok(FeatureShape::new(features, h, w))
            }
            Layer::Shortcut {
                stride,
                out_features,
            } => {
                let i = want_one(inputs.len())?;
                if *stride == 0 {
                    return Err(Error::InvalidParameter {
                        layer: name.to_string(),
                        detail: "stride must be non-zero".into(),
                    });
                }
                if *out_features < i.features {
                    return Err(Error::ShapeMismatch {
                        layer: name.to_string(),
                        detail: format!(
                            "shortcut cannot shrink features: {} -> {}",
                            i.features, out_features
                        ),
                    });
                }
                Ok(FeatureShape::new(
                    *out_features,
                    i.height.div_ceil(*stride),
                    i.width.div_ceil(*stride),
                ))
            }
            Layer::Loss => want_one(inputs.len()),
        }
    }

    /// Short type tag, as used in the paper's tables.
    pub const fn type_tag(&self) -> &'static str {
        match self {
            Layer::Input(_) => "INPUT",
            Layer::Conv(_) => "CONV",
            Layer::Pool(_) => "SAMP",
            Layer::Fc(_) => "FC",
            Layer::EltwiseAdd(_) => "ELTWISE",
            Layer::EltwiseMul(_) => "ELTMUL",
            Layer::Act(_) => "ACT",
            Layer::Concat => "CONCAT",
            Layer::Shortcut { .. } => "SHORTCUT",
            Layer::Loss => "LOSS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_shape_matches_alexnet_c1() {
        // AlexNet C1: 227x227 input, 96 kernels of 11x11, stride 4 -> 55x55.
        let c = Conv::relu(96, 11, 4, 0);
        let out = c.output_shape(FeatureShape::new(3, 227, 227));
        assert_eq!(out, FeatureShape::new(96, 55, 55));
    }

    #[test]
    fn conv_weight_count_includes_bias_and_groups() {
        let c = Conv::relu_grouped(256, 5, 1, 2, 2);
        // 256 outputs x (96/2 inputs) x 5x5 + 256 biases.
        assert_eq!(c.weights(96), 256 * 48 * 25 + 256);
    }

    #[test]
    fn pool_ceil_mode_keeps_partial_windows() {
        // GoogLeNet pool: 28x28, 3x3 window, stride 2 -> 14x14 (ceil mode).
        let p = Pool::max(3, 2);
        let out = p.output_shape(FeatureShape::new(192, 28, 28));
        assert_eq!((out.height, out.width), (14, 14));
    }

    #[test]
    fn conv_rejects_kernel_larger_than_input() {
        let c = Conv::relu(8, 7, 1, 0);
        let err = c.validate("c", FeatureShape::new(3, 5, 5)).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
    }

    #[test]
    fn conv_rejects_bad_groups() {
        let c = Conv::relu_grouped(10, 3, 1, 1, 3);
        let err = c.validate("c", FeatureShape::new(9, 8, 8)).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
    }

    #[test]
    fn eltwise_requires_matching_shapes() {
        let l = Layer::EltwiseAdd(Activation::Relu);
        let a = FeatureShape::new(64, 56, 56);
        let b = FeatureShape::new(64, 28, 28);
        assert!(l.infer_shape("add", &[a, b]).is_err());
        assert_eq!(l.infer_shape("add", &[a, a]).unwrap(), a);
    }

    #[test]
    fn concat_sums_features() {
        let l = Layer::Concat;
        let parts = [
            FeatureShape::new(64, 28, 28),
            FeatureShape::new(128, 28, 28),
            FeatureShape::new(32, 28, 28),
        ];
        assert_eq!(
            l.infer_shape("cat", &parts).unwrap(),
            FeatureShape::new(224, 28, 28)
        );
    }

    #[test]
    fn fc_flattens_any_input() {
        let l = Layer::Fc(Fc::relu(4096));
        let s = l
            .infer_shape("fc6", &[FeatureShape::new(256, 6, 6)])
            .unwrap();
        assert_eq!(s, FeatureShape::vector(4096));
    }
}
