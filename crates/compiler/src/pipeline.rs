//! The phase-structured compilation pipeline (paper §4, Figure 13 + §4.2).
//!
//! Compilation is one explicit pipeline of six phases, each consuming and
//! producing a typed intermediate artifact:
//!
//! 1. **analyze** — validate the node, borrow the network's FLOP/byte
//!    analysis at the target precision (computed once per network and
//!    element size, [`Network::analyze_with_elem_bytes`]), classify each
//!    layer to a chip family (STEP 1–2) and compute the per-layer memory
//!    floor (STEP 3a), yielding an [`AnalyzedNetwork`];
//! 2. **allocate-columns** — memory floor + load balancing over the
//!    surviving chip columns (STEP 3), yielding a [`ColumnPlan`];
//! 3. **partition-state** — distribute each layer's features over its
//!    columns' MemHeavy tiles (STEP 4) and decide weight residency
//!    (STEP 6), yielding a [`StatePartition`];
//! 4. **assign-compute** — configure the CompHeavy 2D arrays (STEP 5) and
//!    assemble + validate the [`Mapping`];
//! 5. **codegen** — instantiate the per-layer ISA program templates for
//!    the functional target (§4.2);
//! 6. **lower** — pre-decode each generated program into its dense
//!    micro-op stream ([`scaledeep_isa::LoweredProgram`]): operand ranges
//!    resolved to typed locations, geometry unpacked, dispatch costs
//!    pre-classified. This is the compiled execution tier's input — the
//!    per-dispatch decode work the interpreter repeats is paid once here.
//!
//! The pipeline terminates in one [`CompiledArtifact`] bundling the
//! mapping (the performance simulator's input), the functional
//! [`CompiledNetwork`] (the functional simulator's input, or the typed
//! reason it cannot be expressed on the reduced functional chip), and
//! [`Provenance`] — everything that went *into* the compile, which is what
//! session-level caches key on. Degraded recompiles are not a parallel
//! path: a [`FailedTiles`] set is a phase input like any other.
//!
//! Each phase can be traced: [`compile_traced`] emits one
//! [`Payload::Phase`] span per phase on a `"compile"` track, stamped with
//! the phase *ordinal* (compilation happens on the host, outside simulated
//! time, and wall-clock stamps would break byte-identical trace exports).

use crate::codegen::{self, CompiledNetwork, FuncTargetOptions};
use crate::error::{Error, Result};
use crate::mapping::{
    arrays, classify, columns, state, FailedTiles, LayerPlan, Mapping, Placement, Side, StateBudget,
};
use scaledeep_arch::{ChipConfig, DesignPoint, NodeConfig, Precision};
use scaledeep_dnn::{Analysis, Layer, LayerId, Network, Step};
use scaledeep_isa::LoweredProgram;
use scaledeep_trace::{Fnv1aWriter, Payload, TraceSink, Tracer, TrackId};
use std::fmt::Write as _;
use std::sync::Arc;

/// The pipeline's phase names, in execution order (the `phase` field of
/// the [`Payload::Phase`] spans [`compile_traced`] emits).
pub const PHASES: [&str; 6] = [
    "analyze",
    "allocate-columns",
    "partition-state",
    "assign-compute",
    "codegen",
    "lower",
];

/// Everything that parameterizes a compile besides the network and the
/// node: the functional-target geometry, the minibatch the programs loop
/// over, and the failed tiles a degraded compile routes around.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Functional-target geometry (MemHeavy tile count and capacity).
    pub func: FuncTargetOptions,
    /// Minibatch size the functional programs loop over (1 = straight-line
    /// per-image programs).
    pub minibatch: usize,
    /// Failed tiles to route around, at both granularities (mapping
    /// columns and functional-chip tiles). [`FailedTiles::none`] compiles
    /// the healthy layout.
    pub failed: FailedTiles,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            func: FuncTargetOptions::default(),
            minibatch: 1,
            failed: FailedTiles::none(),
        }
    }
}

impl CompileOptions {
    /// Default options with the given failed-tile set.
    pub fn degraded(failed: FailedTiles) -> Self {
        Self {
            failed,
            ..Self::default()
        }
    }
}

/// What went into a compile: the identity a cache may key on and the
/// lineage a stored artifact can be audited against.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The compiled network's name.
    pub network: String,
    /// FNV-1a fingerprint of the network's full structure
    /// ([`Network::fingerprint`]).
    pub net_fingerprint: u64,
    /// Structural FNV-1a fingerprint of the node configuration: hashed
    /// over the design point's canonical JSON rendering, so the key is
    /// stable across builds and across processes (unlike a `Debug`-format
    /// hash) and identical for any two configs with equal knobs.
    pub node_fingerprint: u64,
    /// The node configuration as a design point — the compile input
    /// itself, serialized with the artifact so a stored compile can be
    /// audited (and its key re-derived) without the originating code.
    pub design: DesignPoint,
    /// The node's datapath precision.
    pub precision: Precision,
    /// The failed-tile input the pipeline routed around.
    pub failed: FailedTiles,
    /// The functional-target geometry.
    pub func: FuncTargetOptions,
    /// The functional minibatch size.
    pub minibatch: usize,
}

impl Provenance {
    /// Computes the provenance of a *prospective* compile — exactly what
    /// [`compile`] would stamp into its artifact — so callers can key a
    /// cache without running the pipeline.
    pub fn new(node: &NodeConfig, net: &Network, opts: &CompileOptions) -> Self {
        let design = DesignPoint::describe(node);
        Self {
            network: net.name().to_string(),
            net_fingerprint: net.fingerprint(),
            node_fingerprint: design.fingerprint(),
            design,
            precision: node.precision,
            failed: opts.failed.clone(),
            func: opts.func,
            minibatch: opts.minibatch,
        }
    }

    /// A single fingerprint over every compile input; two compiles with
    /// equal keys produce identical artifacts (the pipeline is
    /// deterministic), which is what [`Provenance`]-keyed caches rely on.
    pub fn cache_key(&self) -> u64 {
        fingerprint(&(
            self.net_fingerprint,
            self.node_fingerprint,
            &self.failed,
            &self.func,
            self.minibatch,
        ))
    }
}

/// FNV-1a over the `Debug` rendering, streamed so nothing is allocated.
/// The key outlives the process: it names stored artifact files and is
/// the BENCH `provenance` field. So the `Debug` shape of every keyed input
/// is part of the artifact-store format; changing one re-keys (orphans)
/// every stored artifact, and the pin tests catch it first.
fn fingerprint<T: std::fmt::Debug>(v: &T) -> u64 {
    let mut h = Fnv1aWriter::new();
    write!(h, "{v:?}").expect("hashing never fails");
    h.finish()
}

/// The pipeline's terminal artifact: one compile, every view of it.
#[derive(Debug)]
pub struct CompiledArtifact {
    mapping: Mapping,
    functional: Functional,
    provenance: Provenance,
}

/// The codegen phase's verdict and, exactly when it succeeded, the lower
/// phase's streams: one value, so an artifact has lowered streams if and
/// only if it has a functional network.
pub(crate) type Functional = std::result::Result<(CompiledNetwork, Vec<LoweredProgram>), Error>;

/// The lower phase: pre-decodes each of a functional network's programs
/// (also how [`crate::artifact_io`] re-derives the streams it does not
/// store).
pub(crate) fn lower(compiled: CompiledNetwork) -> (CompiledNetwork, Vec<LoweredProgram>) {
    let lowered = compiled
        .programs
        .iter()
        .map(scaledeep_isa::micro::lower)
        .collect();
    (compiled, lowered)
}

impl CompiledArtifact {
    /// The workload mapping (the performance simulator's input).
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The functionally compiled network (the functional simulator's
    /// input).
    ///
    /// # Errors
    ///
    /// The functional target cannot express every mappable network
    /// (stride > 1 convolutions, buffers beyond the reduced chip's
    /// scratchpads); the codegen phase's verdict is preserved here, so
    /// mapping-only consumers are unaffected while functional consumers
    /// get the original typed error.
    pub fn functional(&self) -> Result<&CompiledNetwork> {
        self.executable().map(|(compiled, _)| compiled)
    }

    /// The lower phase's micro-op streams — the compiled execution tier's
    /// pre-decoded form of [`CompiledNetwork::programs`], in the same
    /// order. `None` exactly when the artifact has no functional network.
    pub fn lowered(&self) -> Option<&[LoweredProgram]> {
        self.executable().ok().map(|(_, lowered)| lowered)
    }

    /// [`CompiledArtifact::functional`] together with
    /// [`CompiledArtifact::lowered`]: everything a functional simulator
    /// is built from.
    ///
    /// # Errors
    ///
    /// See [`CompiledArtifact::functional`].
    pub fn executable(&self) -> Result<(&CompiledNetwork, &[LoweredProgram])> {
        match &self.functional {
            Ok((compiled, lowered)) => Ok((compiled, lowered)),
            Err(e) => Err(e.clone()),
        }
    }

    /// What went into this compile.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Whether the artifact routes around failed tiles (at either
    /// granularity).
    pub fn is_degraded(&self) -> bool {
        !self.provenance.failed.is_empty()
    }

    /// Assembles an artifact from its parts: the phase outputs plus
    /// their provenance stamp, or serialized parts
    /// ([`crate::artifact_io`]).
    pub(crate) fn from_parts(
        mapping: Mapping,
        functional: Functional,
        provenance: Provenance,
    ) -> Self {
        Self {
            mapping,
            functional,
            provenance,
        }
    }
}

/// Phase-1 output: the validated, analyzed, classified network.
#[derive(Debug)]
pub struct AnalyzedNetwork<'n> {
    net: &'n Network,
    node: NodeConfig,
    elem_bytes: u64,
    analysis: &'n Analysis,
    sides: Vec<Side>,
    budgets: Vec<StateBudget>,
    conv_ids: Vec<LayerId>,
    fc_ids: Vec<LayerId>,
}

impl AnalyzedNetwork<'_> {
    /// The chip family each layer was designated to (STEP 1), indexed by
    /// `LayerId`.
    pub fn sides(&self) -> &[Side] {
        &self.sides
    }

    /// The per-layer state budgets (STEP 3a), indexed by `LayerId`.
    pub fn budgets(&self) -> &[StateBudget] {
        &self.budgets
    }

    fn chip_of(&self, side: Side) -> &ChipConfig {
        match side {
            Side::Fc => &self.node.cluster.fc_chip,
            _ => &self.node.cluster.conv_chip,
        }
    }
}

/// Phase-2 output: the column allocation over the surviving columns.
#[derive(Debug)]
pub struct ColumnPlan {
    alloc: columns::Allocation,
}

impl ColumnPlan {
    /// The column placement of one layer.
    pub fn placement(&self, id: LayerId) -> Placement {
        self.alloc.placement(id)
    }

    /// Columns used on the ConvLayer chip sequence.
    pub fn conv_cols_used(&self) -> usize {
        self.alloc.conv_cols_used
    }
}

/// Phase-3 output: per-layer feature distribution and weight residency.
#[derive(Debug)]
pub struct StatePartition {
    layers: Vec<LayerState>,
}

/// One layer's share of [`StatePartition`].
#[derive(Debug, Clone, Copy)]
struct LayerState {
    tiles_total: usize,
    tiles_used: usize,
    weights_on_chip: bool,
}

/// Phase 1: validate the node, borrow the network's memoized analysis at
/// the target precision, classify layers (STEP 1–2), compute memory
/// floors (STEP 3a).
///
/// # Errors
///
/// Propagates node-configuration validation failures.
pub fn analyze<'n>(node: &NodeConfig, net: &'n Network) -> Result<AnalyzedNetwork<'n>> {
    node.validate()?;
    let elem_bytes = node.precision.elem_bytes();
    let analysis = net.analyze_with_elem_bytes(elem_bytes);
    let conv_chip = &node.cluster.conv_chip;
    let mut sides = Vec::with_capacity(net.len());
    let mut budgets = Vec::with_capacity(net.len());
    let mut conv_ids = Vec::with_capacity(net.len());
    let mut fc_ids = Vec::with_capacity(net.len());
    for n in net.layers() {
        let side = classify(n.layer());
        match side {
            Side::Conv => conv_ids.push(n.id()),
            Side::Fc => fc_ids.push(n.id()),
            Side::None => {}
        }
        sides.push(side);
        budgets.push(state::state_budget(
            net,
            analysis,
            n.id(),
            conv_chip,
            elem_bytes,
        ));
    }
    Ok(AnalyzedNetwork {
        net,
        node: *node,
        elem_bytes,
        analysis,
        sides,
        budgets,
        conv_ids,
        fc_ids,
    })
}

/// Phase 2: allocate chip columns (STEP 3) — memory floor then greedy load
/// balancing — excluding the columns `failed` condemns.
///
/// # Errors
///
/// [`Error::DoesNotFit`] when the memory floor exceeds the node,
/// [`Error::NoCapacity`] when the failures ate the headroom, and
/// [`Error::NoRoute`] when an entire rim chip inside the span is dead.
pub fn allocate_columns(
    analyzed: &AnalyzedNetwork<'_>,
    failed: &FailedTiles,
) -> Result<ColumnPlan> {
    let node = &analyzed.node;
    let alloc = columns::allocate(
        &analyzed.conv_ids,
        &analyzed.fc_ids,
        &analyzed.budgets,
        analyzed.analysis,
        &node.cluster.conv_chip,
        &node.cluster.fc_chip,
        node.cluster.conv_chips,
        node.clusters,
        failed,
    )?;
    Ok(ColumnPlan { alloc })
}

/// Phase 3: distribute each layer's output features over its columns'
/// MemHeavy tiles (STEP 4) and decide weight residency (STEP 6: weights +
/// gradients live on chip when they fit the leftover column capacity).
pub fn partition_state(analyzed: &AnalyzedNetwork<'_>, cols: &ColumnPlan) -> StatePartition {
    let mut layers = Vec::with_capacity(analyzed.net.len());
    for node_ref in analyzed.net.layers() {
        let id = node_ref.id();
        let side = analyzed.sides[id.index()];
        let chip = analyzed.chip_of(side);
        let ncols = cols.placement(id).cols();
        let tiles_total = ncols * chip.rows;
        let (tiles_used, _features_per_tile) =
            state::distribute_features(node_ref.output_shape().features, tiles_total);
        let budget = &analyzed.budgets[id.index()];
        let capacity = ncols as u64 * chip.col_mem_capacity() as u64;
        let weight_and_grad = 2 * budget.weight_bytes;
        let weights_on_chip =
            budget.weight_bytes > 0 && budget.state_bytes + weight_and_grad <= capacity;
        layers.push(LayerState {
            tiles_total,
            tiles_used,
            weights_on_chip,
        });
    }
    StatePartition { layers }
}

/// Phase 4: configure the CompHeavy 2D arrays per layer (STEP 5) and
/// assemble the validated [`Mapping`] — the only place in the codebase a
/// `Mapping` is constructed.
///
/// # Errors
///
/// Propagates [`Mapping::validate`] failures (unreachable for
/// pipeline-built inputs; kept as a structural guarantee).
pub fn assign_compute(
    analyzed: &AnalyzedNetwork<'_>,
    cols: &ColumnPlan,
    partition: &StatePartition,
) -> Result<Mapping> {
    let net = analyzed.net;
    let elem_bytes = analyzed.elem_bytes;
    let mut plans = Vec::with_capacity(net.len());
    for node_ref in net.layers() {
        let id = node_ref.id();
        let side = analyzed.sides[id.index()];
        let cost = analyzed.analysis.layer(id);
        let placement = cols.placement(id);
        let chip = analyzed.chip_of(side);
        let out_shape = node_ref.output_shape();
        let array = arrays::configure(net, node_ref, placement.cols().max(1), chip);
        let comp_flops = [
            cost.step(Step::Fp).compute_heavy_flops(),
            cost.step(Step::Bp).compute_heavy_flops(),
            cost.step(Step::Wg).compute_heavy_flops(),
        ];
        let mem_flops = [
            cost.step(Step::Fp).mem_heavy_flops(),
            cost.step(Step::Bp).mem_heavy_flops(),
            cost.step(Step::Wg).mem_heavy_flops(),
        ];
        let conv_kernel = match node_ref.layer() {
            Layer::Conv(c) => Some(c.kernel),
            _ => None,
        };
        let budget = &analyzed.budgets[id.index()];
        let st = &partition.layers[id.index()];
        plans.push(LayerPlan {
            id,
            placement,
            comp_flops,
            mem_flops,
            state_bytes: budget.state_bytes,
            weight_bytes: budget.weight_bytes,
            weights_on_chip: st.weights_on_chip,
            tiles_total: st.tiles_total,
            tiles_used: st.tiles_used,
            out_features: out_shape.features,
            feature_elems: out_shape.feature_elems(),
            in_bytes: net.fan_in_elems(id) as u64 * elem_bytes,
            out_bytes: out_shape.elems() as u64 * elem_bytes,
            array,
            conv_kernel,
        });
    }
    let mapping = Mapping {
        net_name: net.name().to_string(),
        layer_names: Arc::clone(net.layer_names()),
        plans,
        conv_cols_used: cols.alloc.conv_cols_used,
        fc_cols_used: cols.alloc.fc_cols_used,
        chips_spanned: cols.alloc.chips_spanned,
        clusters_spanned: cols.alloc.clusters_spanned,
        conv_cols_per_chip: analyzed.node.cluster.conv_chip.cols,
        wheel_batch: analyzed.node.cluster.conv_chips,
        elem_bytes,
        col_map: cols.alloc.col_map.clone(),
        failed_cols: cols.alloc.failed_cols.clone(),
    };
    mapping.validate()?;
    Ok(mapping)
}

/// Runs the full pipeline: analyze → allocate-columns → partition-state →
/// assign-compute → codegen → lower. This is the single compile entry
/// point; every
/// run path (perf, functional, traced, degraded) consumes its
/// [`CompiledArtifact`].
///
/// # Errors
///
/// Propagates mapping-phase failures ([`Error::DoesNotFit`],
/// [`Error::NoCapacity`], [`Error::NoRoute`], validation errors). A
/// *codegen* failure is not an error here: the functional target is a
/// reduced chip that cannot express every mappable network, so its verdict
/// is preserved inside the artifact (see [`CompiledArtifact::functional`]).
pub fn compile(
    node: &NodeConfig,
    net: &Network,
    opts: &CompileOptions,
) -> Result<CompiledArtifact> {
    compile_traced(node, net, opts, &mut Tracer::disabled())
}

/// [`compile`] with per-phase observability: one [`Payload::Phase`] span
/// per phase lands on the tracer's `"compile"` track, stamped with the
/// phase ordinal (0–5) so same-input compiles export byte-identically.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_traced<S: TraceSink>(
    node: &NodeConfig,
    net: &Network,
    opts: &CompileOptions,
    tracer: &mut Tracer<S>,
) -> Result<CompiledArtifact> {
    let (mapping, functional) =
        run_phases(node, net, &opts.failed, &opts.func, opts.minibatch, tracer)?;
    // Derived after the last phase span, so a phase clock charges none
    // of it to a phase.
    let provenance = Provenance::new(node, net, opts);
    Ok(CompiledArtifact::from_parts(
        mapping, functional, provenance,
    ))
}

/// [`compile_traced`] for a caller that already derived the compile's
/// provenance (to key a cache): the inputs are read off `provenance` (its
/// design point is the node; its failed tiles, functional geometry and
/// minibatch are the options), and that same value is stamped into the
/// artifact, so it is derived once per compile. `provenance` must be
/// `Provenance::new(node, net, opts)` for this `net`.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_stamped<S: TraceSink>(
    net: &Network,
    provenance: Provenance,
    tracer: &mut Tracer<S>,
) -> Result<CompiledArtifact> {
    debug_assert_eq!(provenance.network, net.name());
    debug_assert_eq!(provenance.net_fingerprint, net.fingerprint());
    let (mapping, functional) = run_phases(
        provenance.design.node(),
        net,
        &provenance.failed,
        &provenance.func,
        provenance.minibatch,
        tracer,
    )?;
    Ok(CompiledArtifact::from_parts(
        mapping, functional, provenance,
    ))
}

/// Closes phase `ordinal`'s span on the compile track.
fn phase_done<S: TraceSink>(tracer: &mut Tracer<S>, track: TrackId, ordinal: u64) {
    tracer.span(
        ordinal,
        1,
        track,
        Payload::Phase {
            phase: PHASES[ordinal as usize],
        },
    );
}

/// The pipeline's one phase body, shared by [`compile_traced`] and
/// [`compile_stamped`]: the mapping phases, then codegen for the
/// functional target and lowering of each generated program.
fn run_phases<S: TraceSink>(
    node: &NodeConfig,
    net: &Network,
    failed: &FailedTiles,
    func: &FuncTargetOptions,
    minibatch: usize,
    tracer: &mut Tracer<S>,
) -> Result<(Mapping, Functional)> {
    let track = if tracer.active() {
        tracer.track("compile")
    } else {
        0
    };
    let mapping = map_phases(node, net, failed, tracer, track)?;
    let dead_tiles: Vec<u16> = failed.func_tiles().collect();
    let functional = codegen::compile_functional_degraded(net, func, minibatch, &dead_tiles);
    phase_done(tracer, track, 4);
    let functional = functional.map(lower);
    phase_done(tracer, track, 5);
    Ok((mapping, functional))
}

/// The mapping prefix of the pipeline (phases 1–4), each phase closing
/// its span on `track`: [`run_phases`]'s first half, and what the
/// [`crate::Compiler`] facade runs untraced.
pub(crate) fn map_phases<S: TraceSink>(
    node: &NodeConfig,
    net: &Network,
    failed: &FailedTiles,
    tracer: &mut Tracer<S>,
    track: TrackId,
) -> Result<Mapping> {
    let analyzed = analyze(node, net)?;
    phase_done(tracer, track, 0);
    let cols = allocate_columns(&analyzed, failed)?;
    phase_done(tracer, track, 1);
    let partition = partition_state(&analyzed, &cols);
    phase_done(tracer, track, 2);
    let mapping = assign_compute(&analyzed, &cols, &partition)?;
    phase_done(tracer, track, 3);
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;
    use scaledeep_trace::{Category, VecSink};

    #[test]
    fn artifact_bundles_both_views_with_provenance() {
        let node = presets::single_precision();
        let net = zoo::alexnet();
        let art = compile(&node, &net, &CompileOptions::default()).unwrap();
        assert_eq!(art.mapping().network_name(), "alexnet");
        assert!(art.mapping().conv_cols_used() > 0);
        // AlexNet's stride-4 c1 is outside the functional target; the
        // artifact preserves the typed verdict instead of failing.
        assert!(!art.is_degraded());
        assert_eq!(art.provenance().network, "alexnet");
        assert_eq!(art.provenance().precision, Precision::Single);
    }

    #[test]
    fn pipeline_mapping_matches_the_compiler_facade() {
        let node = presets::single_precision();
        for name in ["alexnet", "overfeat-fast", "vgg-a"] {
            let net = zoo::by_name(name).unwrap();
            let art = compile(&node, &net, &CompileOptions::default()).unwrap();
            let facade = crate::Compiler::new(&node).map(&net).unwrap();
            assert_eq!(*art.mapping(), facade, "{name}");
        }
    }

    #[test]
    fn same_inputs_same_cache_key_different_inputs_differ() {
        let node = presets::single_precision();
        let net = zoo::alexnet();
        let a = compile(&node, &net, &CompileOptions::default()).unwrap();
        let b = compile(&node, &net, &CompileOptions::default()).unwrap();
        assert_eq!(a.provenance().cache_key(), b.provenance().cache_key());
        let degraded = compile(
            &node,
            &net,
            &CompileOptions::degraded(FailedTiles::from_columns([3])),
        )
        .unwrap();
        assert_ne!(
            a.provenance().cache_key(),
            degraded.provenance().cache_key()
        );
        let hp = compile(&presets::half_precision(), &net, &CompileOptions::default()).unwrap();
        assert_ne!(a.provenance().cache_key(), hp.provenance().cache_key());
        let other = compile(&node, &zoo::vgg_a(), &CompileOptions::default()).unwrap();
        assert_ne!(a.provenance().cache_key(), other.provenance().cache_key());
    }

    #[test]
    fn node_fingerprint_is_structural() {
        // The node fingerprint is derived from the design point's
        // canonical JSON, so it matches a fingerprint computed directly on
        // the design layer — and stays put for both presets regardless of
        // how the structs Debug-format.
        let net = zoo::alexnet();
        for node in [presets::single_precision(), presets::half_precision()] {
            let p = Provenance::new(&node, &net, &CompileOptions::default());
            assert_eq!(
                p.node_fingerprint,
                scaledeep_arch::DesignPoint::describe(&node).fingerprint()
            );
            assert_eq!(p.design.node_config(), node);
        }
    }

    #[test]
    fn traced_compile_emits_one_span_per_phase_in_order() {
        let node = presets::single_precision();
        let net = zoo::alexnet();
        let mut tracer = Tracer::new(VecSink::new());
        compile_traced(&node, &net, &CompileOptions::default(), &mut tracer).unwrap();
        let (sink, tracks) = tracer.into_parts();
        let events = sink.events();
        assert_eq!(events.len(), PHASES.len());
        for (i, (ev, want)) in events.iter().zip(PHASES).enumerate() {
            assert_eq!(ev.at, i as u64);
            assert_eq!(ev.dur, 1);
            assert_eq!(ev.payload.category(), Category::Compile);
            assert_eq!(tracks.name(ev.track), "compile");
            match ev.payload {
                Payload::Phase { phase } => assert_eq!(phase, want),
                _ => panic!("unexpected payload {:?}", ev.payload),
            }
        }
    }

    #[test]
    fn degraded_func_tiles_reach_the_codegen_phase() {
        use scaledeep_dnn::{Activation, Fc, FeatureShape, NetworkBuilder};
        let mut b = NetworkBuilder::new("tiny", FeatureShape::vector(8));
        let f = b
            .fc(
                "f",
                Fc {
                    out_neurons: 4,
                    bias: false,
                    activation: Activation::None,
                },
            )
            .unwrap();
        let net = b.finish_with_loss(f).unwrap();
        let node = presets::single_precision();
        let healthy = compile(&node, &net, &CompileOptions::default()).unwrap();
        let degraded = compile(
            &node,
            &net,
            &CompileOptions::degraded(FailedTiles::from_func_tiles([0])),
        )
        .unwrap();
        // Mapping is untouched (func tiles are not mapping columns)...
        assert_eq!(healthy.mapping(), degraded.mapping());
        assert!(degraded.is_degraded());
        // The lower phase ran on the functional programs.
        let lowered = degraded.lowered().expect("functional compile lowers");
        assert_eq!(lowered.len(), degraded.functional().unwrap().programs.len());
        // ...but no functional buffer lands on the dead tile.
        let compiled = degraded.functional().unwrap();
        for lb in &compiled.buffers {
            let locs = [
                lb.output,
                lb.pre,
                lb.err,
                lb.dz,
                lb.weights,
                lb.weights_t,
                lb.wgrad,
                lb.golden,
            ];
            for loc in locs.into_iter().flatten() {
                assert_ne!(loc.tile, 0, "buffer placed on dead tile 0");
            }
        }
    }
}
