//! Functional ISA simulator: executes compiled ScaleDeep programs
//! bit-accurately, one thread per compiled per-layer program,
//! synchronized purely by hardware data-flow trackers (paper §3.2.4).
//!
//! Scheduling runs on the shared discrete-event engine
//! ([`crate::engine`]): each instruction dispatch is an event priced by
//! the [`CycleCosts`] table (derived from the §3.2 tile parameters), so a
//! run yields a cycle count ([`RunStats::cycles`]) alongside the
//! bit-accurate memory state. A thread whose operands fail the MEMTRACK
//! readiness check parks once on the awaited address ranges and is
//! re-dispatched only by the tracker update that touches them — there is
//! no polling. The retired round-robin scheduler survives as
//! [`Machine::run_round_robin`], a timing-free oracle used by the
//! schedule-independence tests.

mod cost;
mod exec;
mod machine;
mod tracker;

pub use cost::CycleCosts;
pub use machine::{Machine, RunStats, TileStats};
pub use tracker::{Tracker, TrackerTable};

use crate::error::{Error, Result};
use crate::fault::FaultPlan;
use scaledeep_trace::{MetricsRegistry, TraceSink, Tracer};

use scaledeep_compiler::codegen::{
    conv_grads_to_output_major, conv_weights_to_input_major, fc_weights_transpose, BufferLoc,
    CompiledNetwork,
};
use scaledeep_compiler::CompiledArtifact;
use scaledeep_dnn::{Layer, LayerId, Network};
use scaledeep_isa::LoweredProgram;
use scaledeep_tensor::Executor;

/// Which execution tier dispatches a [`FuncSim`] run.
///
/// Both tiers share the event-driven scheduler, the tracker semantics and
/// the arithmetic kernels, so results, [`RunStats`] and trace events are
/// bit-identical; they differ only in per-dispatch decode work. The
/// compiled tier is the one every library path runs; the interpreter is
/// the oracle it is checked against, reached only by the tests and
/// perfbench naming it through [`FuncSim::with_backend`] or
/// [`FuncSim::set_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// Re-decode each [`scaledeep_isa::Inst`] on every dispatch (the
    /// original tier; bit-identity oracle).
    Interpreter,
    /// Dispatch pre-lowered micro-op streams
    /// ([`scaledeep_isa::LoweredProgram`]) produced by the compiler's
    /// `lower` phase.
    #[default]
    Compiled,
}

impl ExecBackend {
    /// Stable lowercase name (`"interpreter"` / `"compiled"`).
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Interpreter => "interpreter",
            ExecBackend::Compiled => "compiled",
        }
    }
}

/// A host-side snapshot of the learning state: per-layer weights, FC
/// weight transposes, and accumulated weight gradients, in their *raw*
/// compiled layouts.
///
/// Those layouts (input-major CONV kernels, row-major FC + transpose) are
/// a property of the network, not of the tile placement — a degraded
/// recompile moves buffers to different tiles/offsets but never changes
/// their element order. A checkpoint taken on one [`FuncSim`] therefore
/// restores onto a simulator built from a *different* (remapped) compile
/// of the same network, which is exactly the failure-recovery path:
/// checkpoint, remap around the dead tile, rebuild, restore, retry.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    layers: Vec<LayerCheckpoint>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct LayerCheckpoint {
    weights: Option<Vec<f32>>,
    weights_t: Option<Vec<f32>>,
    wgrad: Option<Vec<f32>>,
}

/// Host harness around the [`Machine`]: loads a [`CompiledNetwork`],
/// manages per-image buffer hygiene (zeroing error/gradient state the way
/// the host runtime would), imports parameters from a reference
/// [`Executor`], and applies the end-of-minibatch SGD update.
///
/// ```no_run
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use scaledeep_arch::presets;
/// use scaledeep_compiler::pipeline::{compile, CompileOptions};
/// use scaledeep_dnn::{Conv, Fc, FeatureShape, NetworkBuilder, Activation};
/// use scaledeep_sim::func::FuncSim;
/// use scaledeep_tensor::{Executor, Tensor};
///
/// let mut b = NetworkBuilder::new("toy", FeatureShape::new(1, 6, 6));
/// let c = b.conv("c", Conv { out_features: 2, kernel: 3, stride: 1, pad: 1,
///     groups: 1, bias: false, activation: Activation::Relu })?;
/// let f = b.fc_from("f", c, Fc { out_neurons: 3, bias: false,
///     activation: Activation::None })?;
/// let net = b.finish_with_loss(f)?;
///
/// let node = presets::single_precision();
/// let artifact = compile(&node, &net, &CompileOptions::default())?;
/// let reference = Executor::new(&net, 7)?;
/// let mut sim = FuncSim::from_artifact(&net, &artifact)?;
/// sim.import_params(&reference)?;
/// let x = Tensor::zeros(FeatureShape::new(1, 6, 6));
/// let golden = Tensor::zeros(FeatureShape::vector(3));
/// sim.run_iteration(x.as_slice(), golden.as_slice())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FuncSim {
    net: Network,
    compiled: CompiledNetwork,
    lowered: Vec<LoweredProgram>,
    backend: ExecBackend,
    machine: Machine,
    capacity: u32,
}

impl FuncSim {
    /// Builds the simulator from a pipeline [`CompiledArtifact`] — its
    /// one construction path: sessions compile once and every consumer
    /// (perf, functional, traced) reads the same artifact. The artifact's
    /// own lower-phase micro-op streams are executed; nothing is lowered
    /// again. Scratchpads are sized to fit the compiled layout.
    ///
    /// # Errors
    ///
    /// Propagates the artifact's codegen-phase verdict when the network
    /// has no functional compilation (as [`Error::Compiler`]); returns
    /// [`Error::Setup`] when the compiled layout is inconsistent with the
    /// network.
    pub fn from_artifact(net: &Network, artifact: &CompiledArtifact) -> Result<Self> {
        let (compiled, lowered) = artifact.executable().map_err(Error::Compiler)?;
        if compiled.buffers.len() != net.len() {
            return Err(Error::Setup {
                detail: format!(
                    "compiled network has {} layers, graph has {}",
                    compiled.buffers.len(),
                    net.len()
                ),
            });
        }
        // Capacity: the highest end offset across all buffers.
        let mut capacity: u32 = 1;
        let mut scan = |b: Option<BufferLoc>| {
            if let Some(b) = b {
                capacity = capacity.max(b.offset + b.len);
            }
        };
        for lb in &compiled.buffers {
            scan(lb.output);
            scan(lb.pre);
            scan(lb.err);
            scan(lb.dz);
            scan(lb.weights);
            scan(lb.weights_t);
            scan(lb.wgrad);
            scan(lb.golden);
        }
        scan(Some(compiled.const_neg_one));
        scan(compiled.zeros);
        // The looped target's epoch token and scratch are single elements
        // allocated right after the zeros region; covering two extra slots
        // on every tile keeps them in range regardless of rotation.
        capacity += 2;
        let machine = Machine::new(compiled.mem_tiles, capacity);
        let mut sim = Self {
            net: net.clone(),
            compiled: compiled.clone(),
            lowered: lowered.to_vec(),
            backend: ExecBackend::default(),
            machine,
            capacity,
        };
        sim.write_buffer(compiled.const_neg_one, &[-1.0])?;
        Ok(sim)
    }

    /// Selects the execution tier for subsequent runs. Every simulator
    /// starts on [`ExecBackend::Compiled`]; naming
    /// [`ExecBackend::Interpreter`] here is how the tests' oracle checks
    /// and perfbench reach the reference tier. No library path does.
    /// Kept for perfbench, which calls it by name.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// Builder-style [`FuncSim::set_backend`]. Kept for perfbench, which
    /// calls it by name.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The currently selected execution tier.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Scratchpad capacity per tile, in elements.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Writes raw data into a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Setup`] on length mismatch.
    pub fn write_buffer(&mut self, loc: BufferLoc, data: &[f32]) -> Result<()> {
        if data.len() != loc.len as usize {
            return Err(Error::Setup {
                detail: format!("buffer length {} != data length {}", loc.len, data.len()),
            });
        }
        self.machine.mem_mut(loc.tile)[loc.offset as usize..(loc.offset + loc.len) as usize]
            .copy_from_slice(data);
        Ok(())
    }

    /// Reads a buffer's contents.
    pub fn read_buffer(&self, loc: BufferLoc) -> Vec<f32> {
        self.machine.mem(loc.tile)[loc.offset as usize..(loc.offset + loc.len) as usize].to_vec()
    }

    /// Imports weights from the reference executor, converting to the
    /// compiled layouts (input-major CONV kernels, FC row-major + its
    /// transpose).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Setup`] when a parameterized layer lacks reference
    /// parameters.
    pub fn import_params(&mut self, reference: &Executor) -> Result<()> {
        let ids: Vec<LayerId> = self.net.layers().map(|n| n.id()).collect();
        for id in ids {
            let node = self.net.node(id).clone();
            let buffers = self.compiled.buffers[id.index()];
            match node.layer() {
                Layer::Conv(c) => {
                    let (w, _) = reference.params(id).ok_or_else(|| Error::Setup {
                        detail: format!("no reference params for {}", node.name()),
                    })?;
                    let in_shape = self.net.input_shapes(id)[0];
                    let im = conv_weights_to_input_major(
                        w,
                        in_shape.features,
                        c.out_features,
                        c.groups,
                        c.kernel,
                    );
                    let loc = buffers.weights.expect("conv weights allocated");
                    self.write_buffer(loc, &im)?;
                }
                Layer::Fc(f) => {
                    let (w, _) = reference.params(id).ok_or_else(|| Error::Setup {
                        detail: format!("no reference params for {}", node.name()),
                    })?;
                    let n_in = self.net.fan_in_elems(id);
                    self.write_buffer(buffers.weights.expect("fc weights"), w)?;
                    let wt = fc_weights_transpose(w, n_in, f.out_neurons);
                    self.write_buffer(buffers.weights_t.expect("fc weights_t"), &wt)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Zeroes the per-image state: error and dz buffers (errors accumulate
    /// from multiple consumers) and shortcut outputs (whose padding
    /// features must read as zero).
    fn clear_image_state(&mut self) {
        let Self {
            net,
            compiled,
            machine,
            ..
        } = self;
        for node in net.layers() {
            let b = &compiled.buffers[node.id().index()];
            let shortcut_out = match node.layer() {
                Layer::Shortcut { .. } => b.output,
                _ => None,
            };
            for loc in [b.err, b.dz, shortcut_out].into_iter().flatten() {
                zero(machine, loc);
            }
        }
    }

    /// Zeroes all weight-gradient accumulators (start of a minibatch).
    pub fn clear_gradients(&mut self) {
        for loc in self.compiled.buffers.iter().filter_map(|b| b.wgrad) {
            zero(&mut self.machine, loc);
        }
    }

    /// Runs one full training iteration (FP + BP + WG) for one image:
    /// loads the image and golden output, arms the data-flow trackers,
    /// launches every compiled program concurrently and runs to
    /// completion. Weight gradients accumulate across calls. A plain form
    /// of [`FuncSim::run_iteration_traced`], kept for perfbench, which
    /// calls it by name.
    ///
    /// # Errors
    ///
    /// Propagates machine faults ([`Error::Deadlock`],
    /// [`Error::OutOfBounds`], ...).
    pub fn run_iteration(&mut self, image: &[f32], golden: &[f32]) -> Result<RunStats> {
        self.run_iteration_traced(
            image,
            golden,
            &FaultPlan::none(),
            &mut Tracer::disabled(),
            None,
        )
    }

    /// Where a training iteration's data goes in the compiled layout: the
    /// input layer's output buffer (which receives the image, or the
    /// whole looped minibatch) and the loss head's golden buffer, in that
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Setup`] when the input layer has no output buffer
    /// or the network has no loss head (see [`FuncSim::run_evaluation`]).
    pub fn iteration_buffers(&self) -> Result<(BufferLoc, BufferLoc)> {
        let (input, golden) = self.io_buffers()?;
        let golden = golden.ok_or_else(|| Error::Setup {
            detail: "network has no loss head; a training iteration needs one".into(),
        })?;
        Ok((input, golden))
    }

    /// The one lookup behind [`FuncSim::iteration_buffers`]: the input
    /// buffer, and the loss head's golden buffer if there is one (an
    /// evaluation needs only the input).
    fn io_buffers(&self) -> Result<(BufferLoc, Option<BufferLoc>)> {
        let buffers = &self.compiled.buffers;
        let input = buffers[self.net.input().id().index()]
            .output
            .ok_or_else(|| Error::Setup {
                detail: "input layer has no output buffer".into(),
            })?;
        let golden = self
            .net
            .layers()
            .find(|n| matches!(n.layer(), Layer::Loss))
            .and_then(|n| buffers[n.id().index()].golden);
        Ok((input, golden))
    }

    /// Shared per-iteration setup: clears per-image state and loads the
    /// image and golden output into their compiled buffers.
    fn prepare_iteration(&mut self, image: &[f32], golden: &[f32]) -> Result<()> {
        if self.compiled.minibatch != 1 {
            return Err(Error::Setup {
                detail: "network compiled for a looped minibatch; use run_minibatch".into(),
            });
        }
        let (input_loc, golden_loc) = self.iteration_buffers()?;
        self.clear_image_state();
        self.write_buffer(input_loc, image)?;
        self.write_buffer(golden_loc, golden)
    }

    /// Dispatches the compiled programs through the selected
    /// [`ExecBackend`]: every program, or with `fp_only` just the
    /// forward (`.FP`) ones.
    fn dispatch_all<S: TraceSink>(
        &mut self,
        fp_only: bool,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: Option<&mut MetricsRegistry>,
    ) -> Result<RunStats> {
        let costs = CycleCosts::default();
        let specs = &self.compiled.trackers;
        let selected = |name: &str| !fp_only || name.ends_with(".FP");
        match self.backend {
            ExecBackend::Interpreter => {
                let programs = self.compiled.programs.iter().filter(|p| selected(p.name()));
                self.machine
                    .run_traced(programs, specs, &costs, plan, tracer, reg)
            }
            ExecBackend::Compiled => {
                let programs = self.lowered.iter().filter(|p| selected(p.name()));
                self.machine
                    .run_lowered(programs, specs, &costs, plan, tracer, reg)
            }
        }
    }

    /// [`FuncSim::run_iteration`] under a [`FaultPlan`] and with
    /// observability: dispatches through [`Machine::run_lowered`] on the
    /// compiled tier (see [`Machine::run_traced`] for the fault
    /// semantics, the track layout and the metric names),
    /// emitting retire/park/wake/fault events into `tracer` and, when
    /// `reg` is given, rendering the run's [`RunStats`] into it. With the
    /// empty plan, a disabled tracer and no registry this is
    /// `run_iteration`.
    ///
    /// # Errors
    ///
    /// See [`FuncSim::run_iteration`], plus [`Error::TileFailed`] and
    /// [`Error::Watchdog`] from injected faults.
    pub fn run_iteration_traced<S: TraceSink>(
        &mut self,
        image: &[f32],
        golden: &[f32],
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: Option<&mut MetricsRegistry>,
    ) -> Result<RunStats> {
        self.prepare_iteration(image, golden)?;
        self.dispatch_all(false, plan, tracer, reg)
    }

    /// Snapshots the learning state (weights, FC transposes, gradient
    /// accumulators) in layout-invariant raw form; see [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        let layers = self
            .compiled
            .buffers
            .iter()
            .map(|b| LayerCheckpoint {
                weights: b.weights.map(|loc| self.read_buffer(loc)),
                weights_t: b.weights_t.map(|loc| self.read_buffer(loc)),
                wgrad: b.wgrad.map(|loc| self.read_buffer(loc)),
            })
            .collect();
        Checkpoint { layers }
    }

    /// Restores a [`Checkpoint`] into this simulator's buffers — which
    /// may live at different tiles/offsets than where the snapshot was
    /// taken (degraded recompile).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Setup`] when the checkpoint's shape does not
    /// match this simulator's network (different layer count or buffer
    /// lengths).
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<()> {
        if ckpt.layers.len() != self.compiled.buffers.len() {
            return Err(Error::Setup {
                detail: format!(
                    "checkpoint has {} layers, network has {}",
                    ckpt.layers.len(),
                    self.compiled.buffers.len()
                ),
            });
        }
        for (i, layer) in ckpt.layers.iter().enumerate() {
            let b = self.compiled.buffers[i];
            for (loc, data) in [
                (b.weights, &layer.weights),
                (b.weights_t, &layer.weights_t),
                (b.wgrad, &layer.wgrad),
            ] {
                match (loc, data) {
                    (Some(loc), Some(data)) => self.write_buffer(loc, data)?,
                    (None, None) => {}
                    _ => {
                        return Err(Error::Setup {
                            detail: format!("checkpoint/layout mismatch at layer {i}"),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one full minibatch through programs compiled with a
    /// minibatch size of two or more (see
    /// [`scaledeep_compiler::pipeline::CompileOptions`]): the
    /// scalar loops inside each program iterate over the images, walking
    /// the input/golden arrays with register-indirect addressing, while
    /// the data-flow trackers' generation-wrap hands each reused buffer
    /// from producer to consumer image after image. Weight gradients
    /// accumulate across the whole batch.
    ///
    /// `images` and `goldens` hold the whole batch, concatenated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Setup`] on length mismatches or when the network
    /// was compiled for single-image (unrolled) execution; propagates
    /// machine faults.
    pub fn run_minibatch(&mut self, images: &[f32], goldens: &[f32]) -> Result<RunStats> {
        let batch = self.compiled.minibatch;
        if batch < 2 {
            return Err(Error::Setup {
                detail: "network compiled for single images; use run_iteration".into(),
            });
        }
        let (input_loc, golden_loc) = self.iteration_buffers()?;
        if images.len() != input_loc.len as usize {
            return Err(Error::Setup {
                detail: format!(
                    "expected {} input elements ({} images), got {}",
                    input_loc.len,
                    batch,
                    images.len()
                ),
            });
        }
        if goldens.len() != golden_loc.len as usize {
            return Err(Error::Setup {
                detail: format!(
                    "expected {} golden elements ({} images), got {}",
                    golden_loc.len,
                    batch,
                    goldens.len()
                ),
            });
        }
        self.write_buffer(input_loc, images)?;
        self.write_buffer(golden_loc, goldens)?;
        self.dispatch_all(false, &FaultPlan::none(), &mut Tracer::disabled(), None)
    }

    /// Runs forward propagation only (network evaluation): executes the FP
    /// programs, skipping BP/WG and the loss head.
    ///
    /// # Errors
    ///
    /// Propagates machine faults.
    pub fn run_evaluation(&mut self, image: &[f32]) -> Result<RunStats> {
        let (input_loc, _) = self.io_buffers()?;
        self.clear_image_state();
        self.write_buffer(input_loc, image)?;
        // The full-training tracker specs also serve FP-only runs: reads
        // become ready once all updates land, and within a single image no
        // buffer needs the (never-arriving) BP/WG reads before being
        // rewritten.
        self.dispatch_all(true, &FaultPlan::none(), &mut Tracer::disabled(), None)
    }

    /// The post-activation output of a layer after a run.
    pub fn layer_output(&self, id: LayerId) -> Option<Vec<f32>> {
        self.compiled.buffers[id.index()]
            .output
            .map(|loc| self.read_buffer(loc))
    }

    /// The accumulated error at a layer's output after a run.
    pub fn layer_error(&self, id: LayerId) -> Option<Vec<f32>> {
        self.compiled.buffers[id.index()]
            .err
            .map(|loc| self.read_buffer(loc))
    }

    /// The accumulated weight gradients of a layer, converted back to the
    /// reference executor's layout.
    pub fn layer_wgrad(&self, id: LayerId) -> Option<Vec<f32>> {
        let node = self.net.node(id);
        let loc = self.compiled.buffers[id.index()].wgrad?;
        let raw = self.read_buffer(loc);
        match node.layer() {
            Layer::Conv(c) => {
                let in_shape = self.net.input_shapes(id)[0];
                Some(conv_grads_to_output_major(
                    &raw,
                    in_shape.features,
                    c.out_features,
                    c.groups,
                    c.kernel,
                ))
            }
            _ => Some(raw),
        }
    }

    /// Applies the end-of-minibatch SGD update host-side (the paper
    /// distributes updated weights over the wheel arcs / ring after
    /// aggregating gradients): `w -= lr/batch * grad`, refreshing the FC
    /// transposed copies, then clears the gradients.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Setup`] if buffers are missing.
    pub fn apply_sgd(&mut self, lr: f32, batch: usize) -> Result<()> {
        let ids: Vec<LayerId> = self.net.layers().map(|n| n.id()).collect();
        for id in ids {
            let node = self.net.node(id).clone();
            let b = self.compiled.buffers[id.index()];
            let (Some(w_loc), Some(g_loc)) = (b.weights, b.wgrad) else {
                continue;
            };
            let mut w = self.read_buffer(w_loc);
            let g = self.read_buffer(g_loc);
            let scale = lr / batch as f32;
            for (wv, gv) in w.iter_mut().zip(&g) {
                *wv -= scale * gv;
            }
            self.write_buffer(w_loc, &w)?;
            if let Layer::Fc(f) = node.layer() {
                let n_in = self.net.fan_in_elems(id);
                let wt = fc_weights_transpose(&w, n_in, f.out_neurons);
                self.write_buffer(b.weights_t.expect("fc weights_t"), &wt)?;
            }
        }
        self.clear_gradients();
        Ok(())
    }
}

/// Zeroes one buffer in machine memory.
fn zero(machine: &mut Machine, loc: BufferLoc) {
    machine.mem_mut(loc.tile)[loc.offset as usize..(loc.offset + loc.len) as usize].fill(0.0);
}
