//! The network graph: a DAG of layers with inferred shapes.

use crate::analysis::AnalysisMemo;
use crate::error::{Error, Result};
use crate::layer::Layer;
use crate::shape::FeatureShape;
use scaledeep_trace::Fnv1aWriter;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// Identifier of a layer inside a [`Network`].
///
/// Ids are dense indices assigned in insertion order, which is also a valid
/// topological order (a layer may only consume previously added layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub(crate) usize);

impl LayerId {
    /// The dense index of this layer.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from a dense index. Intended for tooling and
    /// tests that fabricate ids; ids obtained this way are only meaningful
    /// against the network that assigned the index.
    pub const fn from_index(index: usize) -> Self {
        LayerId(index)
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One node of the graph: a named [`Layer`] with its inputs and inferred
/// output shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerNode {
    id: LayerId,
    name: String,
    layer: Layer,
    inputs: Vec<LayerId>,
    output: FeatureShape,
    consumers: Vec<LayerId>,
}

impl LayerNode {
    /// The node id.
    pub fn id(&self) -> LayerId {
        self.id
    }

    /// The layer name (unique within the network by convention of the
    /// builder; uniqueness is not enforced here).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation performed by this node.
    pub fn layer(&self) -> &Layer {
        &self.layer
    }

    /// Ids of the nodes whose outputs feed this node.
    pub fn inputs(&self) -> &[LayerId] {
        &self.inputs
    }

    /// Ids of the nodes that consume this node's output.
    pub fn consumers(&self) -> &[LayerId] {
        &self.consumers
    }

    /// Inferred output shape.
    pub fn output_shape(&self) -> FeatureShape {
        self.output
    }
}

/// A deep network: a directed acyclic graph of layers.
///
/// Construct one through [`crate::NetworkBuilder`]. Iteration order (and id
/// order) is topological.
///
/// ```
/// use scaledeep_dnn::{NetworkBuilder, Layer, Conv, Fc, FeatureShape};
///
/// # fn main() -> Result<(), scaledeep_dnn::Error> {
/// let mut b = NetworkBuilder::new("toy", FeatureShape::new(3, 32, 32));
/// let c = b.conv("c1", Conv::relu(16, 3, 1, 1))?;
/// let f = b.fc_from("fc", c, Fc::linear(10))?;
/// let net = b.finish_with_loss(f)?;
/// assert_eq!(net.layers().count(), 4); // input, conv, fc, loss
/// # Ok(())
/// # }
/// ```
///
/// A network is immutable once built, so its [`Network::fingerprint`],
/// its analyses ([`Network::analyze_with_elem_bytes`]) and its layer-name
/// table ([`Network::layer_names`]) are computed on first use and
/// memoized. The memos are invisible: `Debug` renders, and
/// `==` compares, the name and the nodes only. A network is a handle to
/// one shared immutable body: a clone is a reference-count increment
/// that shares the nodes and every memo.
#[derive(Clone)]
pub struct Network {
    body: Arc<Body>,
}

/// The shared body of a [`Network`] and its clones: the structure, and
/// what the network derives from it, each part on first use.
struct Body {
    name: String,
    nodes: Vec<LayerNode>,
    fingerprint: OnceLock<u64>,
    analyses: AnalysisMemo,
    layer_names: OnceLock<Arc<[String]>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.body.name)
            .field("nodes", &self.body.nodes)
            .finish()
    }
}

impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
            || (self.body.name == other.body.name && self.body.nodes == other.body.nodes)
    }
}

impl Eq for Network {}

impl Network {
    pub(crate) fn from_parts(name: String, nodes: Vec<LayerNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(Error::Empty);
        }
        Ok(Self {
            body: Arc::new(Body {
                name,
                nodes,
                fingerprint: OnceLock::new(),
                analyses: AnalysisMemo::default(),
                layer_names: OnceLock::new(),
            }),
        })
    }

    /// FNV-1a-64 of the network's `Debug` rendering — the network half of
    /// a compile's provenance key, and so part of every stored artifact's
    /// file name. Hashed on the first call (streamed: no string is built)
    /// and memoized; equal networks have equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        *self.body.fingerprint.get_or_init(|| {
            let mut h = Fnv1aWriter::new();
            write!(h, "{self:?}").expect("hashing never fails");
            h.finish()
        })
    }

    /// Every layer's name, indexed by [`LayerId`]: one shared table, built
    /// on the first call, so each mapping of the network holds it without
    /// copying a name.
    pub fn layer_names(&self) -> &Arc<[String]> {
        self.body
            .layer_names
            .get_or_init(|| self.body.nodes.iter().map(|n| n.name.clone()).collect())
    }

    /// The memoized analyses ([`Network::analyze_with_elem_bytes`]).
    pub(crate) fn analyses(&self) -> &AnalysisMemo {
        &self.body.analyses
    }

    pub(crate) fn push_node(
        nodes: &mut Vec<LayerNode>,
        name: String,
        layer: Layer,
        inputs: Vec<LayerId>,
        in_shapes: &mut Vec<FeatureShape>,
    ) -> Result<LayerId> {
        in_shapes.clear();
        for &i in &inputs {
            let node = nodes.get(i.0).ok_or(Error::UnknownLayer { id: i.0 })?;
            in_shapes.push(node.output);
        }
        let output = layer.infer_shape(&name, in_shapes)?;
        let id = LayerId(nodes.len());
        for &i in &inputs {
            nodes[i.0].consumers.push(id);
        }
        nodes.push(LayerNode {
            id,
            name,
            layer,
            inputs,
            output,
            consumers: Vec::new(),
        });
        Ok(id)
    }

    /// The network name (e.g. `"alexnet"`).
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// Number of nodes, including input and loss nodes.
    pub fn len(&self) -> usize {
        self.body.nodes.len()
    }

    /// True when the graph holds no layers (never the case for a constructed
    /// network, but part of the collection-like API).
    pub fn is_empty(&self) -> bool {
        self.body.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn node(&self, id: LayerId) -> &LayerNode {
        &self.body.nodes[id.0]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<&LayerNode> {
        self.body.nodes.iter().find(|n| n.name == name)
    }

    /// Iterates over all nodes in topological (= id) order.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = &LayerNode> + '_ {
        self.body.nodes.iter()
    }

    /// The input node (first node; builders always create it first).
    pub fn input(&self) -> &LayerNode {
        &self.body.nodes[0]
    }

    /// The shapes flowing into the given node.
    pub fn input_shapes(&self, id: LayerId) -> Vec<FeatureShape> {
        self.node(id)
            .inputs()
            .iter()
            .map(|&i| self.node(i).output_shape())
            .collect()
    }

    /// Total input feature elements of a node (sum over all inputs). For FC
    /// layers this is the flattened fan-in.
    pub fn fan_in_elems(&self, id: LayerId) -> usize {
        self.node(id)
            .inputs()
            .iter()
            .map(|&i| self.node(i).output_shape().elems())
            .sum()
    }

    /// Counts of (CONV, FC, SAMP) layers, the paper's Figure 15 convention.
    pub fn layer_counts(&self) -> (usize, usize, usize) {
        let mut conv = 0;
        let mut fc = 0;
        let mut samp = 0;
        for n in &self.body.nodes {
            match n.layer() {
                Layer::Conv(_) => conv += 1,
                Layer::Fc(_) => fc += 1,
                Layer::Pool(_) => samp += 1,
                _ => {}
            }
        }
        (conv, fc, samp)
    }

    /// The deepest chain length counting only CONV/FC/SAMP layers; the
    /// paper's "number of layers" for pipeline-depth purposes.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.body.nodes.len()];
        let mut max = 0;
        for n in &self.body.nodes {
            let base = n.inputs().iter().map(|&i| depth[i.0]).max().unwrap_or(0);
            let own = usize::from(matches!(
                n.layer(),
                Layer::Conv(_) | Layer::Fc(_) | Layer::Pool(_)
            ));
            depth[n.id().0] = base + own;
            max = max.max(depth[n.id().0]);
        }
        max
    }
}

impl fmt::Display for Network {
    /// Renders a layer-by-layer summary: id, type, name, output shape.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "network `{}` ({} nodes)",
            self.body.name,
            self.body.nodes.len()
        )?;
        for n in &self.body.nodes {
            writeln!(
                f,
                "  {:>4} {:8} {:20} -> {}",
                n.id().to_string(),
                n.layer().type_tag(),
                n.name(),
                n.output_shape()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::layer::{Conv, Fc};

    fn toy() -> Network {
        let mut b = NetworkBuilder::new("toy", FeatureShape::new(3, 8, 8));
        let c = b.conv("c1", Conv::relu(4, 3, 1, 1)).unwrap();
        let f = b.fc_from("fc", c, Fc::linear(10)).unwrap();
        b.finish_with_loss(f).unwrap()
    }

    #[test]
    fn ids_are_topological() {
        let net = toy();
        for n in net.layers() {
            for &i in n.inputs() {
                assert!(i.0 < n.id().0, "input must precede consumer");
            }
        }
    }

    #[test]
    fn consumers_are_back_edges() {
        let net = toy();
        let input = net.input();
        assert_eq!(input.consumers().len(), 1);
        let conv = net.node(input.consumers()[0]);
        assert_eq!(conv.name(), "c1");
    }

    #[test]
    fn node_by_name_finds_layers() {
        let net = toy();
        assert!(net.node_by_name("fc").is_some());
        assert!(net.node_by_name("nope").is_none());
    }

    #[test]
    fn depth_counts_compute_layers_only() {
        let net = toy();
        assert_eq!(net.depth(), 2); // conv + fc, not input/loss
    }

    #[test]
    fn layer_counts_match() {
        assert_eq!(toy().layer_counts(), (1, 1, 0));
    }

    #[test]
    fn display_summarizes_layers() {
        let s = toy().to_string();
        assert!(s.contains("network `toy`"));
        assert!(s.contains("CONV"));
        assert!(s.contains("c1"));
    }
}
