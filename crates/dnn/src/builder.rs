//! Fluent construction of [`Network`] graphs.

use crate::error::Result;
use crate::graph::{LayerId, LayerNode, Network};
use crate::layer::{Activation, Conv, Fc, Layer, Pool};
use crate::shape::FeatureShape;

/// Builds a [`Network`] incrementally.
///
/// Sequential methods ([`conv`](Self::conv), [`pool`](Self::pool),
/// [`fc`](Self::fc)) append to a running "tail" (the most recently added
/// layer), which covers chain topologies like AlexNet or VGG. DAG methods
/// (`*_from`, [`concat`](Self::concat), [`eltwise_add`](Self::eltwise_add))
/// take explicit input ids, which covers GoogLeNet and ResNet.
///
/// ```
/// use scaledeep_dnn::{NetworkBuilder, Conv, Pool, Fc, FeatureShape};
///
/// # fn main() -> Result<(), scaledeep_dnn::Error> {
/// let mut b = NetworkBuilder::new("lenet-ish", FeatureShape::new(1, 28, 28));
/// b.conv("c1", Conv::relu(8, 5, 1, 2))?;
/// b.pool("s1", Pool::max(2, 2))?;
/// b.fc("f1", Fc::linear(10))?;
/// let net = b.finish()?;
/// assert_eq!(net.layer_counts(), (1, 1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    nodes: Vec<LayerNode>,
    tail: LayerId,
    /// The pushed node's input shapes: one buffer for every push, so a
    /// build allocates nothing per node for them.
    in_shapes: Vec<FeatureShape>,
}

impl NetworkBuilder {
    /// Starts a network with the given name and input shape. The input node
    /// is created immediately and becomes the initial tail.
    pub fn new(name: impl Into<String>, input: FeatureShape) -> Self {
        let mut nodes = Vec::new();
        let mut in_shapes = Vec::new();
        let tail = Network::push_node(
            &mut nodes,
            "input".into(),
            Layer::Input(input),
            Vec::new(),
            &mut in_shapes,
        )
        .expect("input node construction cannot fail");
        Self {
            name: name.into(),
            nodes,
            tail,
            in_shapes,
        }
    }

    /// The most recently added layer (next sequential attach point).
    pub fn tail(&self) -> LayerId {
        self.tail
    }

    /// Output shape of an already-added layer.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn shape_of(&self, id: LayerId) -> FeatureShape {
        self.nodes[id.index()].output_shape()
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        inputs: Vec<LayerId>,
    ) -> Result<LayerId> {
        let id = Network::push_node(
            &mut self.nodes,
            name.into(),
            layer,
            inputs,
            &mut self.in_shapes,
        )?;
        self.tail = id;
        Ok(id)
    }

    /// Appends a convolution to the tail.
    ///
    /// # Errors
    ///
    /// Fails when the convolution parameters are invalid for the tail shape.
    pub fn conv(&mut self, name: impl Into<String>, conv: Conv) -> Result<LayerId> {
        let t = self.tail;
        self.conv_from(name, t, conv)
    }

    /// Adds a convolution reading from an explicit layer.
    ///
    /// # Errors
    ///
    /// Fails when the convolution parameters are invalid for the input shape.
    pub fn conv_from(
        &mut self,
        name: impl Into<String>,
        from: LayerId,
        conv: Conv,
    ) -> Result<LayerId> {
        self.push(name, Layer::Conv(conv), vec![from])
    }

    /// Appends a pooling layer to the tail.
    ///
    /// # Errors
    ///
    /// Fails when the pooling window exceeds the input extent.
    pub fn pool(&mut self, name: impl Into<String>, pool: Pool) -> Result<LayerId> {
        let t = self.tail;
        self.pool_from(name, t, pool)
    }

    /// Adds a pooling layer reading from an explicit layer.
    ///
    /// # Errors
    ///
    /// Fails when the pooling window exceeds the input extent.
    pub fn pool_from(
        &mut self,
        name: impl Into<String>,
        from: LayerId,
        pool: Pool,
    ) -> Result<LayerId> {
        self.push(name, Layer::Pool(pool), vec![from])
    }

    /// Appends a fully-connected layer to the tail (input is flattened).
    ///
    /// # Errors
    ///
    /// Fails when the layer parameters are invalid.
    pub fn fc(&mut self, name: impl Into<String>, fc: Fc) -> Result<LayerId> {
        let t = self.tail;
        self.fc_from(name, t, fc)
    }

    /// Adds a fully-connected layer reading from an explicit layer.
    ///
    /// # Errors
    ///
    /// Fails when the layer parameters are invalid.
    pub fn fc_from(&mut self, name: impl Into<String>, from: LayerId, fc: Fc) -> Result<LayerId> {
        self.push(name, Layer::Fc(fc), vec![from])
    }

    /// Adds an element-wise addition of two branches (residual join).
    ///
    /// # Errors
    ///
    /// Fails when the two input shapes differ.
    pub fn eltwise_add(
        &mut self,
        name: impl Into<String>,
        a: LayerId,
        b: LayerId,
        activation: Activation,
    ) -> Result<LayerId> {
        self.push(name, Layer::EltwiseAdd(activation), vec![a, b])
    }

    /// Adds an element-wise (Hadamard) product of two branches
    /// (LSTM gating).
    ///
    /// # Errors
    ///
    /// Fails when the two input shapes differ.
    pub fn eltwise_mul(
        &mut self,
        name: impl Into<String>,
        a: LayerId,
        b: LayerId,
        activation: Activation,
    ) -> Result<LayerId> {
        self.push(name, Layer::EltwiseMul(activation), vec![a, b])
    }

    /// Adds a standalone activation over one layer's output.
    ///
    /// # Errors
    ///
    /// Fails when `from` is not a valid layer id.
    pub fn act_from(
        &mut self,
        name: impl Into<String>,
        from: LayerId,
        activation: Activation,
    ) -> Result<LayerId> {
        self.push(name, Layer::Act(activation), vec![from])
    }

    /// Adds a parameter-free residual shortcut (ResNet option A) reading
    /// from an explicit layer.
    ///
    /// # Errors
    ///
    /// Fails when `stride` is zero or the feature count would shrink.
    pub fn shortcut_from(
        &mut self,
        name: impl Into<String>,
        from: LayerId,
        stride: usize,
        out_features: usize,
    ) -> Result<LayerId> {
        self.push(
            name,
            Layer::Shortcut {
                stride,
                out_features,
            },
            vec![from],
        )
    }

    /// Adds a feature-wise concatenation of two or more branches
    /// (inception join).
    ///
    /// # Errors
    ///
    /// Fails when fewer than two inputs are given or spatial extents differ.
    pub fn concat(&mut self, name: impl Into<String>, inputs: &[LayerId]) -> Result<LayerId> {
        self.push(name, Layer::Concat, inputs.to_vec())
    }

    /// Finishes the network without a loss head (evaluation-only graphs).
    ///
    /// # Errors
    ///
    /// Fails when the graph is empty (cannot happen through this builder).
    pub fn finish(self) -> Result<Network> {
        Network::from_parts(self.name, self.nodes)
    }

    /// Appends a loss head reading from `output` and finishes the network
    /// (training graphs; the loss produces the initial BP error).
    ///
    /// # Errors
    ///
    /// Fails when `output` is not a valid layer id.
    pub fn finish_with_loss(mut self, output: LayerId) -> Result<Network> {
        self.push("loss", Layer::Loss, vec![output])?;
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PoolKind;

    #[test]
    fn sequential_chain_tracks_tail() {
        let mut b = NetworkBuilder::new("t", FeatureShape::new(3, 16, 16));
        let c1 = b.conv("c1", Conv::relu(8, 3, 1, 1)).unwrap();
        assert_eq!(b.tail(), c1);
        let p = b.pool("p1", Pool::max(2, 2)).unwrap();
        assert_eq!(b.tail(), p);
        assert_eq!(b.shape_of(p), FeatureShape::new(8, 8, 8));
    }

    #[test]
    fn residual_block_builds() {
        let mut b = NetworkBuilder::new("res", FeatureShape::new(16, 8, 8));
        let trunk = b.tail();
        let c1 = b.conv("c1", Conv::relu(16, 3, 1, 1)).unwrap();
        let c2 = b.conv_from("c2", c1, Conv::linear(16, 3, 1, 1)).unwrap();
        let add = b.eltwise_add("add", trunk, c2, Activation::Relu).unwrap();
        let net = b.finish_with_loss(add).unwrap();
        let join = net.node_by_name("add").unwrap();
        assert_eq!(join.inputs().len(), 2);
    }

    #[test]
    fn inception_concat_builds() {
        let mut b = NetworkBuilder::new("inc", FeatureShape::new(32, 8, 8));
        let root = b.tail();
        let a = b.conv_from("a", root, Conv::relu(8, 1, 1, 0)).unwrap();
        let c = b.conv_from("c", root, Conv::relu(16, 3, 1, 1)).unwrap();
        let p = b
            .pool_from(
                "p",
                root,
                Pool {
                    ceil_mode: true,
                    kind: PoolKind::Max,
                    window: 3,
                    stride: 1,
                    pad: 1,
                },
            )
            .unwrap();
        let cat = b.concat("cat", &[a, c, p]).unwrap();
        assert_eq!(b.shape_of(cat).features, 8 + 16 + 32);
    }

    #[test]
    fn finish_with_loss_appends_loss() {
        let mut b = NetworkBuilder::new("t", FeatureShape::new(3, 8, 8));
        let f = b.fc("f", Fc::linear(10)).unwrap();
        let net = b.finish_with_loss(f).unwrap();
        let last = net.layers().last().unwrap();
        assert_eq!(last.layer().type_tag(), "LOSS");
    }
}
