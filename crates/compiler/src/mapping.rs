//! Workload mapping (paper §4.1, Figure 13 STEP 1–6).

pub(crate) mod arrays;
pub(crate) mod columns;
pub(crate) mod state;

pub use arrays::ArrayPlan;
pub use state::StateBudget;

use crate::error::Result;
use scaledeep_arch::NodeConfig;
use scaledeep_dnn::{Layer, LayerId, Network};
use std::sync::Arc;

/// Which chip family a layer executes on (STEP 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// CONV / SAMP / element-wise layers → ConvLayer chips.
    Conv,
    /// FC layers → the FcLayer hub chip.
    Fc,
    /// Input / loss / pure-placement nodes: no column allocation.
    None,
}

/// The column placement of one layer (STEP 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Columns on the ConvLayer chip sequence. `first_col` is a global
    /// column index across the chips the network spans (column 16 is the
    /// first column of the second rim chip, and so on).
    Conv {
        /// First allocated global column.
        first_col: usize,
        /// Number of allocated columns.
        cols: usize,
    },
    /// Columns on the FcLayer hub chip.
    Fc {
        /// First allocated column on the hub chip.
        first_col: usize,
        /// Number of allocated columns.
        cols: usize,
    },
    /// No dedicated columns (input, loss, concat — pure data placement).
    Inline,
}

impl Placement {
    /// Number of columns allocated (0 for [`Placement::Inline`]).
    pub const fn cols(&self) -> usize {
        match self {
            Placement::Conv { cols, .. } | Placement::Fc { cols, .. } => *cols,
            Placement::Inline => 0,
        }
    }

    /// The side this placement lives on.
    pub const fn side(&self) -> Side {
        match self {
            Placement::Conv { .. } => Side::Conv,
            Placement::Fc { .. } => Side::Fc,
            Placement::Inline => Side::None,
        }
    }
}

/// A concrete MemHeavy tile coordinate within the ConvLayer chip
/// sequence: which rim chip, which column on it, which row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileCoord {
    /// Rim-chip index along the network's span (0-based).
    pub chip: usize,
    /// Column within that chip.
    pub col: usize,
    /// Row within the column.
    pub row: usize,
}

/// The set of permanently failed tiles a degraded compile must route
/// around, expressed at both failure granularities the pipeline knows:
///
/// * whole ConvLayer-chip columns for the workload mapping (a column
///   shares its memory ports and CompHeavy neighbours, so one dead tile
///   condemns its column) — *physical* global indices across the
///   rim-chip sequence, the same numbering [`Placement::Conv`] uses on a
///   healthy node; and
/// * MemHeavy tile indices of the reduced functional chip for the
///   code-generation phase (no buffer is placed on a dead tile).
///
/// Both sets flow through [`crate::pipeline::compile`] as one input, so a
/// degraded recompile is the same pipeline run with a non-empty set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailedTiles {
    cols: std::collections::BTreeSet<usize>,
    func_tiles: std::collections::BTreeSet<u16>,
}

impl FailedTiles {
    /// No failures: the degraded pipeline degenerates to the healthy one.
    pub fn none() -> Self {
        Self::default()
    }

    /// Condemns the given physical global columns.
    pub fn from_columns<I: IntoIterator<Item = usize>>(cols: I) -> Self {
        Self {
            cols: cols.into_iter().collect(),
            func_tiles: std::collections::BTreeSet::new(),
        }
    }

    /// Condemns the columns containing the given tile coordinates.
    pub fn from_coords(coords: &[TileCoord], cols_per_chip: usize) -> Self {
        Self::from_columns(coords.iter().map(|t| t.chip * cols_per_chip.max(1) + t.col))
    }

    /// Condemns MemHeavy tiles of the reduced *functional* chip: the
    /// code-generation phase places no buffer on them. The workload
    /// mapping is unaffected (its failure unit is the column).
    pub fn from_func_tiles<I: IntoIterator<Item = u16>>(tiles: I) -> Self {
        Self {
            cols: std::collections::BTreeSet::new(),
            func_tiles: tiles.into_iter().collect(),
        }
    }

    /// Whether no tiles are condemned at either granularity.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty() && self.func_tiles.is_empty()
    }

    /// Number of condemned columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether a physical global column is condemned.
    pub fn contains(&self, col: usize) -> bool {
        self.cols.contains(&col)
    }

    /// The condemned physical global columns, ascending.
    pub fn columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.cols.iter().copied()
    }

    /// The condemned functional-chip MemHeavy tiles, ascending.
    pub fn func_tiles(&self) -> impl Iterator<Item = u16> + '_ {
        self.func_tiles.iter().copied()
    }

    /// Reassembles a set from both granularities at once
    /// (artifact deserialization — [`crate::artifact_io`]).
    pub(crate) fn from_sets(
        cols: impl IntoIterator<Item = usize>,
        func_tiles: impl IntoIterator<Item = u16>,
    ) -> Self {
        Self {
            cols: cols.into_iter().collect(),
            func_tiles: func_tiles.into_iter().collect(),
        }
    }
}

/// The complete plan for one layer. Its name is the mapping's
/// ([`Mapping::layer_name`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// The planned layer.
    pub id: LayerId,
    /// Chip side and columns (STEP 1 + 3).
    pub placement: Placement,
    /// FLOPs per image on CompHeavy arrays, per step [FP, BP, WG].
    pub comp_flops: [u64; 3],
    /// FLOPs per image on MemHeavy SFUs, per step [FP, BP, WG].
    pub mem_flops: [u64; 3],
    /// On-chip state requirement in bytes (STEP 3a; excludes weights).
    pub state_bytes: u64,
    /// Learned weight bytes (including biases).
    pub weight_bytes: u64,
    /// Whether weights + gradients reside on chip (STEP 6).
    pub weights_on_chip: bool,
    /// MemHeavy tiles available to this layer (cols × rows).
    pub tiles_total: usize,
    /// MemHeavy tiles actually holding features (STEP 4).
    pub tiles_used: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Elements per output feature.
    pub feature_elems: usize,
    /// Bytes read from the previous layer's tiles per image.
    pub in_bytes: u64,
    /// Bytes written to this layer's home tiles per image.
    pub out_bytes: u64,
    /// CompHeavy array configuration and its residue utilization (STEP 5).
    pub array: ArrayPlan,
    /// Kernel edge for CONV layers (None otherwise) — lets the simulator
    /// apply Winograd's 3x3 FLOP reduction (paper §6.1 future work).
    pub conv_kernel: Option<usize>,
}

impl LayerPlan {
    /// Total compute-array FLOPs per image over a full training iteration.
    pub fn comp_flops_training(&self) -> u64 {
        self.comp_flops.iter().sum()
    }

    /// Fraction of the layer's MemHeavy tiles holding features
    /// (Figure 19's second utilization factor).
    pub fn feature_distribution_util(&self) -> f64 {
        if self.tiles_total == 0 {
            1.0
        } else {
            self.tiles_used as f64 / self.tiles_total as f64
        }
    }
}

/// The result of the workload-mapping phase.
///
/// Constructed only by the pipeline's assign-compute phase
/// ([`crate::pipeline`]); every consumer receives it through
/// [`crate::pipeline::compile`] or the [`Compiler`] facade.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    pub(crate) net_name: String,
    /// The network's layer-name table ([`Network::layer_names`]), shared
    /// by every mapping of the network.
    pub(crate) layer_names: Arc<[String]>,
    pub(crate) plans: Vec<LayerPlan>,
    pub(crate) conv_cols_used: usize,
    pub(crate) fc_cols_used: usize,
    pub(crate) chips_spanned: usize,
    pub(crate) clusters_spanned: usize,
    pub(crate) conv_cols_per_chip: usize,
    pub(crate) wheel_batch: usize,
    pub(crate) elem_bytes: u64,
    pub(crate) col_map: Vec<usize>,
    pub(crate) failed_cols: Vec<usize>,
}

impl Mapping {
    /// The mapped network's name.
    pub fn network_name(&self) -> &str {
        &self.net_name
    }

    /// Per-layer plans, indexed by [`LayerId`] order.
    pub fn plans(&self) -> &[LayerPlan] {
        &self.plans
    }

    /// The plan for one layer.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the mapped network.
    pub fn plan(&self, id: LayerId) -> &LayerPlan {
        &self.plans[id.index()]
    }

    /// The name of one layer in the mapped network.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the mapped network.
    pub fn layer_name(&self, id: LayerId) -> &str {
        &self.layer_names[id.index()]
    }

    /// Columns used on the ConvLayer chip sequence.
    pub fn conv_cols_used(&self) -> usize {
        self.conv_cols_used
    }

    /// Columns used on the FcLayer hub chip.
    pub fn fc_cols_used(&self) -> usize {
        self.fc_cols_used
    }

    /// ConvLayer chips the CONV stack spans (1 for networks that fit one
    /// chip; up to 16 for VGG-D/E).
    pub fn chips_spanned(&self) -> usize {
        self.chips_spanned
    }

    /// Chip clusters the network spans.
    pub fn clusters_spanned(&self) -> usize {
        self.clusters_spanned
    }

    /// Concurrent training pipelines per cluster: rim chips divided by the
    /// chips each pipeline occupies.
    pub fn pipelines_per_cluster(&self, conv_chips_per_cluster: usize) -> usize {
        if self.chips_spanned >= conv_chips_per_cluster {
            1
        } else {
            conv_chips_per_cluster / self.chips_spanned
        }
    }

    /// The effective FC input batch aggregated by the wheel: one input per
    /// concurrently running pipeline feeding the hub (reduced when the CONV
    /// stack spans several rim chips — paper §3.3.1), multiplied across
    /// clusters by FC model parallelism (§3.3.2).
    pub fn fc_batch(&self, conv_chips_per_cluster: usize, clusters: usize) -> usize {
        self.pipelines_per_cluster(conv_chips_per_cluster) * clusters
    }

    /// Bytes per element of the mapped precision.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Columns per ConvLayer chip in the target (for chip-boundary math).
    pub fn conv_cols_per_chip(&self) -> usize {
        self.conv_cols_per_chip
    }

    /// ConvLayer chips per cluster wheel in the target.
    pub fn wheel_size(&self) -> usize {
        self.wheel_batch
    }

    /// The physical conv column backing logical column `logical`.
    /// Placements number *logical* columns `0..conv_cols_used`; on a
    /// degraded mapping the indirection skips the failed physical
    /// columns. Identity on a healthy mapping.
    pub fn physical_col(&self, logical: usize) -> usize {
        self.col_map.get(logical).copied().unwrap_or(logical)
    }

    /// The full logical→physical conv-column map (ascending; length is
    /// the live columns within the span).
    pub fn col_map(&self) -> &[usize] {
        &self.col_map
    }

    /// Physical columns within the span condemned by the failed-tile
    /// set this mapping was compiled against (empty when healthy).
    pub fn failed_cols(&self) -> &[usize] {
        &self.failed_cols
    }

    /// Whether this mapping routes around failed tiles.
    pub fn is_degraded(&self) -> bool {
        !self.failed_cols.is_empty()
    }

    /// Iterator over conv-side plans.
    pub fn conv_plans(&self) -> impl Iterator<Item = &LayerPlan> + '_ {
        self.plans
            .iter()
            .filter(|p| p.placement.side() == Side::Conv)
    }

    /// Iterator over FC-side plans.
    pub fn fc_plans(&self) -> impl Iterator<Item = &LayerPlan> + '_ {
        self.plans.iter().filter(|p| p.placement.side() == Side::Fc)
    }

    /// The conv column groups, in plan order, as ranges of plan indices
    /// from a group's first conv plan to one past its last. A group is a
    /// run of conv plans that share one column range: its layers
    /// time-multiplex the same tiles, so they form one pipeline stage.
    /// Inline plans inside a run do not split it (nor are they members);
    /// an FC plan, or a conv plan on other columns, ends it.
    pub fn conv_groups(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let start = from
                + self.plans[from..]
                    .iter()
                    .position(|p| p.placement.side() == Side::Conv)?;
            let columns = self.plans[start].placement;
            let mut end = start + 1;
            for (i, plan) in self.plans.iter().enumerate().skip(end) {
                match plan.placement {
                    Placement::Inline => {}
                    placement if placement == columns => end = i + 1,
                    _ => break,
                }
            }
            from = end;
            Some(start..end)
        })
    }

    /// Checks the mapping's structural invariants: conv-side placements
    /// tile `[0, conv_cols_used)` contiguously (column groups repeat their
    /// range), tile usage stays within each allocation, and the span is
    /// deployable. The compiler upholds these by construction; the check
    /// exists for downstream tools that transform mappings.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Codegen`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> crate::Result<()> {
        let fail = |detail: String| crate::Error::Codegen { detail };
        let mut expected = 0usize;
        let mut last_range = None;
        for p in self.conv_plans() {
            let name = self.layer_name(p.id);
            let Placement::Conv { first_col, cols } = p.placement else {
                return Err(fail(format!("conv-side `{name}` lacks a conv placement")));
            };
            if cols == 0 {
                return Err(fail(format!("`{name}` allocated zero columns")));
            }
            if last_range != Some((first_col, cols)) {
                if first_col != expected {
                    return Err(fail(format!(
                        "`{name}` starts at column {first_col}, expected {expected}"
                    )));
                }
                expected = first_col + cols;
                last_range = Some((first_col, cols));
            }
            if p.tiles_used > p.tiles_total {
                return Err(fail(format!(
                    "`{name}` uses {} of {} tiles",
                    p.tiles_used, p.tiles_total
                )));
            }
        }
        if expected != self.conv_cols_used {
            return Err(fail(format!(
                "placements cover {expected} columns, mapping claims {}",
                self.conv_cols_used
            )));
        }
        if self.chips_spanned * self.conv_cols_per_chip < self.conv_cols_used {
            return Err(fail(format!(
                "{} columns exceed the {}-chip span",
                self.conv_cols_used, self.chips_spanned
            )));
        }
        if self.col_map.len() < self.conv_cols_used {
            return Err(fail(format!(
                "column map covers {} physical columns, {} logical columns placed",
                self.col_map.len(),
                self.conv_cols_used
            )));
        }
        if self.col_map.windows(2).any(|w| w[0] >= w[1]) {
            return Err(fail("column map is not strictly ascending".to_string()));
        }
        if let Some(&c) = self.col_map.iter().find(|c| self.failed_cols.contains(c)) {
            return Err(fail(format!("column map routes through failed column {c}")));
        }
        if let Some(&last) = self.col_map.last() {
            if last >= self.chips_spanned * self.conv_cols_per_chip {
                return Err(fail(format!(
                    "column map reaches physical column {last}, outside the {}-chip span",
                    self.chips_spanned
                )));
            }
        }
        Ok(())
    }
}

/// The ScaleDeep compiler front-end, parameterized by the target node.
///
/// ```
/// use scaledeep_arch::presets;
/// use scaledeep_compiler::Compiler;
/// use scaledeep_dnn::zoo;
///
/// # fn main() -> Result<(), scaledeep_compiler::Error> {
/// let compiler = Compiler::new(&presets::single_precision());
/// let mapping = compiler.map(&zoo::overfeat_fast())?;
/// assert_eq!(mapping.chips_spanned(), 1); // fits one ConvLayer chip
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    node: NodeConfig,
}

impl Compiler {
    /// Creates a compiler for the given node configuration.
    pub fn new(node: &NodeConfig) -> Self {
        Self { node: *node }
    }

    /// The target node configuration.
    pub fn node(&self) -> &NodeConfig {
        &self.node
    }

    /// Runs the workload-mapping phase (STEP 1–6).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::DoesNotFit`] when the per-layer memory floor
    /// exceeds the node's total ConvLayer columns, or validation errors for
    /// malformed configurations.
    pub fn map(&self, net: &Network) -> Result<Mapping> {
        self.map_degraded(net, &FailedTiles::none())
    }

    /// Runs the workload-mapping phase around a set of failed tiles:
    /// column allocation excludes the condemned physical columns and the
    /// resulting mapping carries a logical→physical indirection
    /// ([`Mapping::physical_col`]). With [`FailedTiles::none`] this is
    /// exactly [`Compiler::map`].
    ///
    /// This is a facade over the mapping prefix of the phase pipeline
    /// (analyze → allocate-columns → partition-state → assign-compute);
    /// [`crate::pipeline::compile`] runs the same phases plus code
    /// generation and bundles everything into a
    /// [`crate::pipeline::CompiledArtifact`].
    ///
    /// # Errors
    ///
    /// In addition to [`Compiler::map`]'s errors, returns
    /// [`crate::Error::NoCapacity`] when the surviving columns cannot hold
    /// the memory floor and [`crate::Error::NoRoute`] when an entire rim
    /// chip inside the required span is dead.
    pub fn map_degraded(&self, net: &Network, failed: &FailedTiles) -> Result<Mapping> {
        let untraced = &mut scaledeep_trace::Tracer::disabled();
        crate::pipeline::map_phases(&self.node, net, failed, untraced, 0)
    }
}

/// STEP 1: designate each layer to a chip family.
pub(crate) fn classify(layer: &Layer) -> Side {
    match layer {
        Layer::Conv(_)
        | Layer::Pool(_)
        | Layer::EltwiseAdd(_)
        | Layer::EltwiseMul(_)
        | Layer::Act(_)
        | Layer::Shortcut { .. } => Side::Conv,
        Layer::Fc(_) => Side::Fc,
        _ => Side::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    fn map(name: &str) -> Mapping {
        let net = zoo::by_name(name).unwrap();
        Compiler::new(&presets::single_precision())
            .map(&net)
            .unwrap()
    }

    #[test]
    fn alexnet_fits_one_chip() {
        let m = map("alexnet");
        assert_eq!(m.chips_spanned(), 1);
        assert_eq!(m.conv_cols_used(), 16);
        assert_eq!(m.clusters_spanned(), 1);
        assert_eq!(m.pipelines_per_cluster(4), 4);
    }

    #[test]
    fn vgg_d_spans_multiple_clusters() {
        let m = map("vgg-d");
        assert!(m.chips_spanned() > 4, "chips {}", m.chips_spanned());
        assert!(m.clusters_spanned() >= 2);
        assert_eq!(m.pipelines_per_cluster(4), 1);
    }

    #[test]
    fn conv_layers_go_to_conv_chips() {
        let net = zoo::alexnet();
        let m = Compiler::new(&presets::single_precision())
            .map(&net)
            .unwrap();
        for node in net.layers() {
            let plan = m.plan(node.id());
            let name = m.layer_name(node.id());
            assert_eq!(name, node.name());
            match node.layer().type_tag() {
                "CONV" | "SAMP" => assert_eq!(plan.placement.side(), Side::Conv, "{name}"),
                "FC" => assert_eq!(plan.placement.side(), Side::Fc, "{name}"),
                _ => assert_eq!(plan.placement.side(), Side::None, "{name}"),
            }
        }
    }

    #[test]
    fn fc_batch_shrinks_when_conv_spans_chips() {
        let alexnet = map("alexnet");
        let vgg = map("vgg-d");
        assert!(alexnet.fc_batch(4, 4) > vgg.fc_batch(4, 4));
    }

    #[test]
    fn column_allocation_covers_all_conv_layers() {
        let m = map("overfeat-fast");
        let mut covered = vec![false; m.conv_cols_used()];
        for p in m.conv_plans() {
            if let Placement::Conv { first_col, cols } = p.placement {
                for slot in covered.iter_mut().skip(first_col).take(cols) {
                    *slot = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "all columns owned by a layer");
    }

    #[test]
    fn big_conv_layers_get_more_columns() {
        let net = zoo::overfeat_fast();
        let m = Compiler::new(&presets::single_precision())
            .map(&net)
            .unwrap();
        let c5 = m.plan(net.node_by_name("c5").unwrap().id());
        let s1 = m.plan(net.node_by_name("s1").unwrap().id());
        assert!(
            c5.placement.cols() >= s1.placement.cols(),
            "heavy conv should outrank pooling"
        );
    }

    #[test]
    fn small_conv_weights_live_on_chip_fc_weights_do_not() {
        let net = zoo::alexnet();
        let m = Compiler::new(&presets::single_precision())
            .map(&net)
            .unwrap();
        let f6 = m.plan(net.node_by_name("f6").unwrap().id());
        assert!(
            !f6.weights_on_chip,
            "37M-weight FC layer cannot fit on chip"
        );
    }

    #[test]
    fn all_benchmarks_map_successfully() {
        for name in zoo::BENCHMARK_NAMES {
            let m = map(name);
            assert!(m.conv_cols_used() > 0, "{name}");
            assert!(m.fc_cols_used() > 0, "{name}");
        }
    }

    #[test]
    fn every_benchmark_mapping_validates() {
        for name in zoo::BENCHMARK_NAMES {
            map(name).validate().unwrap();
        }
    }

    #[test]
    fn healthy_mapping_has_identity_column_map() {
        let m = map("alexnet");
        assert!(!m.is_degraded());
        assert!(m.failed_cols().is_empty());
        for logical in 0..m.conv_cols_used() {
            assert_eq!(m.physical_col(logical), logical);
        }
    }

    #[test]
    fn degraded_map_routes_around_a_dead_column() {
        let node = presets::single_precision();
        let net = zoo::alexnet();
        let failed = FailedTiles::from_columns([3]);
        let m = Compiler::new(&node).map_degraded(&net, &failed).unwrap();
        m.validate().unwrap();
        assert!(m.is_degraded());
        assert_eq!(m.failed_cols(), &[3]);
        // Logical columns skip the dead physical column...
        assert!(m.col_map().iter().all(|&c| c != 3));
        assert_eq!(m.physical_col(2), 2);
        assert_eq!(m.physical_col(3), 4);
        // ...and the healthy variant of the same network still fits the
        // span, one live column poorer.
        let healthy = Compiler::new(&node).map(&net).unwrap();
        assert_eq!(m.chips_spanned(), healthy.chips_spanned());
        assert_eq!(m.conv_cols_used(), healthy.conv_cols_used() - 1);
    }

    #[test]
    fn degraded_map_from_tile_coords_condemns_the_column() {
        let node = presets::single_precision();
        let coords = [TileCoord {
            chip: 0,
            col: 5,
            row: 2,
        }];
        let failed = FailedTiles::from_coords(&coords, node.cluster.conv_chip.cols);
        assert!(failed.contains(5));
        assert_eq!(failed.len(), 1);
        let m = Compiler::new(&node)
            .map_degraded(&zoo::alexnet(), &failed)
            .unwrap();
        assert!(m.col_map().iter().all(|&c| c != 5));
    }

    #[test]
    fn degraded_map_grows_the_span_when_failures_crowd_a_chip() {
        let node = presets::single_precision();
        let net = zoo::vgg_a();
        let healthy = Compiler::new(&node).map(&net).unwrap();
        // Kill columns off the end of the healthy span: the remap must
        // still validate (VGG-A needs most of its span's columns, so the
        // allocator either absorbs the loss or widens the span).
        let cols = node.cluster.conv_chip.cols;
        let last_chip = healthy.chips_spanned() - 1;
        let failed = FailedTiles::from_columns([last_chip * cols, last_chip * cols + 1]);
        let m = Compiler::new(&node).map_degraded(&net, &failed).unwrap();
        m.validate().unwrap();
        assert!(m.chips_spanned() >= healthy.chips_spanned());
    }

    #[test]
    fn remap_without_capacity_is_a_typed_error() {
        let node = presets::single_precision();
        let total = node.clusters * node.cluster.conv_chips * node.cluster.conv_chip.cols;
        // Condemn every column but one: VGG-E's memory floor cannot fit.
        let failed = FailedTiles::from_columns(1..total);
        let err = Compiler::new(&node)
            .map_degraded(&zoo::vgg_e(), &failed)
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::NoCapacity { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn fully_dead_rim_chip_breaks_the_route() {
        let node = presets::single_precision();
        let cols = node.cluster.conv_chip.cols;
        // Chip 1 entirely dead; VGG-A spans several chips, so its span
        // includes the dead one.
        let failed = FailedTiles::from_columns(cols..2 * cols);
        let err = Compiler::new(&node)
            .map_degraded(&zoo::vgg_a(), &failed)
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::NoRoute { chip: 1 }),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_failed_set_maps_identically() {
        let node = presets::single_precision();
        let net = zoo::overfeat_fast();
        let healthy = Compiler::new(&node).map(&net).unwrap();
        let degraded = Compiler::new(&node)
            .map_degraded(&net, &FailedTiles::none())
            .unwrap();
        assert_eq!(healthy, degraded);
    }

    #[test]
    fn half_precision_maps_with_fewer_state_bytes() {
        let net = zoo::vgg_a();
        let sp = Compiler::new(&presets::single_precision())
            .map(&net)
            .unwrap();
        let hp = Compiler::new(&presets::half_precision()).map(&net).unwrap();
        assert!(hp.elem_bytes() < sp.elem_bytes());
        // HP chips have 24 columns; spanning should not exceed SP's.
        assert!(hp.chips_spanned() <= sp.chips_spanned());
    }
}
