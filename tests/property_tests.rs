//! Property-based tests over the core invariants: ISA encode/decode
//! round-trips, data-flow tracker semantics under arbitrary interleavings,
//! shape-inference consistency between the analyzer and the reference
//! kernels, and compiler/functional-simulator equivalence on randomly
//! generated networks.

use proptest::prelude::*;
use scaledeep_compiler::codegen::FuncTargetOptions;
use scaledeep_compiler::{pipeline, CompileOptions, CompiledArtifact};
use scaledeep_dnn::{Activation, Conv, Fc, FeatureShape, NetworkBuilder, Pool, PoolKind};
use scaledeep_isa::{Inst, MemRef, Program, Reg, TileRef};
use scaledeep_sim::func::FuncSim;
use scaledeep_tensor::ops::{pool_forward, PoolOutput};
use scaledeep_tensor::{Executor, Tensor};

/// Functional compile through the phase pipeline: the artifact, or the
/// codegen verdict when the functional target cannot express `net`.
fn compile_functional(
    net: &scaledeep_dnn::Network,
    opts: &FuncTargetOptions,
) -> Result<CompiledArtifact, scaledeep_compiler::Error> {
    let artifact = pipeline::compile(
        &scaledeep_arch::presets::single_precision(),
        net,
        &CompileOptions {
            func: *opts,
            ..CompileOptions::default()
        },
    )?;
    artifact.functional()?;
    Ok(artifact)
}

// ---------- strategies ----------

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..64).prop_map(Reg::new)
}

fn memref_strategy() -> impl Strategy<Value = MemRef> {
    (0u16..32, 0u32..1_000_000).prop_map(|(t, a)| MemRef::at(TileRef(t), a))
}

/// A representative instruction from every group, with fuzzed operands.
fn inst_strategy() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (reg_strategy(), any::<i64>()).prop_map(|(rd, value)| Inst::Ldri { rd, value }),
        (reg_strategy(), any::<i32>()).prop_map(|(rs, offset)| Inst::Bnez { rs, offset }),
        Just(Inst::Halt),
        (
            (memref_strategy(), 1u16..64, 1u16..64),
            (memref_strategy(), 1u8..8, 1u8..4, 0u8..4, 1u8..8),
            (memref_strategy(), 1u16..64, 1u16..64),
            (any::<bool>(), any::<bool>()),
        )
            .prop_map(
                |(
                    (input, in_h, in_w),
                    (kernel, k, stride, pad, lanes),
                    (output, out_h, out_w),
                    (accumulate, flip),
                )| {
                    Inst::NdConv {
                        input,
                        in_h,
                        in_w,
                        kernel,
                        k,
                        stride,
                        pad,
                        lanes,
                        output,
                        out_h,
                        out_w,
                        accumulate,
                        flip,
                    }
                }
            ),
        (
            memref_strategy(),
            memref_strategy(),
            1u32..1_000_000,
            any::<bool>()
        )
            .prop_map(|(src, dst, len, accumulate)| Inst::DmaLoad {
                src,
                dst,
                len,
                accumulate
            }),
        (
            0u16..32,
            0u32..1_000_000,
            1u32..1_000_000,
            0u16..512,
            0u16..512
        )
            .prop_map(|(tile, addr, len, num_updates, num_reads)| Inst::MemTrack {
                tile: TileRef(tile),
                addr,
                len,
                num_updates,
                num_reads
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- ISA ----------

    #[test]
    fn any_program_encodes_and_decodes_identically(insts in prop::collection::vec(inst_strategy(), 0..40)) {
        let prog = Program::new("fuzz", insts);
        let bytes = prog.encode();
        let back = Program::decode("fuzz", &bytes).expect("own encoding decodes");
        prop_assert_eq!(prog, back);
    }

    #[test]
    fn truncation_never_panics(insts in prop::collection::vec(inst_strategy(), 1..10), cut in 1usize..16) {
        let bytes = Program::new("t", insts).encode();
        let cut = cut.min(bytes.len());
        // Decoding a truncated stream must fail cleanly, not panic.
        let _ = Program::decode("t", &bytes[..bytes.len() - cut]);
    }

    // ---------- shape inference vs reference kernels ----------

    #[test]
    fn pool_shape_matches_reference_kernel(
        h in 2usize..24, w in 2usize..24, feats in 1usize..4,
        window in 1usize..4, stride in 1usize..4, ceil in any::<bool>(), avg in any::<bool>()
    ) {
        prop_assume!(window <= h && window <= w);
        let p = Pool {
            kind: if avg { PoolKind::Avg } else { PoolKind::Max },
            window,
            stride,
            pad: 0,
            ceil_mode: ceil,
        };
        let in_shape = FeatureShape::new(feats, h, w);
        let declared = p.output_shape(in_shape);
        let input = Tensor::zeros(in_shape);
        let PoolOutput { output, .. } = pool_forward(&p, in_shape, &input).expect("pool runs");
        prop_assert_eq!(output.shape(), declared);
    }

    #[test]
    fn conv_shape_matches_paper_formula(
        h in 3usize..32, w in 3usize..32, k in 1usize..6,
        stride in 1usize..4, pad in 0usize..3, out in 1usize..8
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let c = Conv::relu(out, k, stride, pad);
        let shape = c.output_shape(FeatureShape::new(3, h, w));
        prop_assert_eq!(shape.height, (h + 2 * pad - k) / stride + 1);
        prop_assert_eq!(shape.width, (w + 2 * pad - k) / stride + 1);
        prop_assert_eq!(shape.features, out);
    }

    // ---------- analyzer invariants ----------

    #[test]
    fn training_flops_dominate_evaluation_flops(
        feats in 1usize..6, h in 4usize..12, out in 1usize..6, k in 1usize..4
    ) {
        prop_assume!(h >= k);
        let mut b = NetworkBuilder::new("t", FeatureShape::new(feats, h, h));
        b.conv("c", Conv::relu(out, k, 1, 0)).unwrap();
        let f = b.fc("f", Fc::linear(3)).unwrap();
        let net = b.finish_with_loss(f).unwrap();
        let a = net.analyze();
        let fp = a.total_flops(scaledeep_dnn::Step::Fp);
        prop_assert!(a.training_flops() >= 2 * fp);
        prop_assert!(a.training_flops() <= 4 * fp);
    }

    #[test]
    fn halving_precision_halves_bytes(
        feats in 1usize..5, h in 4usize..10, out in 1usize..5
    ) {
        let mut b = NetworkBuilder::new("t", FeatureShape::new(feats, h, h));
        b.conv("c", Conv::relu(out, 3, 1, 1)).unwrap();
        let f = b.fc("f", Fc::linear(2)).unwrap();
        let net = b.finish_with_loss(f).unwrap();
        let sp = net.analyze_with_elem_bytes(4).training_breakdown().total_bytes();
        let hp = net.analyze_with_elem_bytes(2).training_breakdown().total_bytes();
        prop_assert_eq!(sp, 2 * hp);
    }
}

// ---------- randomized functional equivalence ----------

/// Network-shape parameters drawn by proptest; the network itself is built
/// deterministically from them.
#[derive(Debug, Clone)]
struct RandomNetSpec {
    in_feats: usize,
    in_edge: usize,
    conv1_out: usize,
    conv1_k: usize,
    use_pool: bool,
    pool_avg: bool,
    conv2_out: Option<usize>,
    act1: Activation,
    fc_out: usize,
    /// Append an LSTM-style gated tail (two FC gates joined by an
    /// element-wise product and a standalone tanh).
    gated_tail: bool,
}

fn random_net_strategy() -> impl Strategy<Value = RandomNetSpec> {
    (
        1usize..3,
        6usize..11,
        1usize..5,
        prop_oneof![Just(1usize), Just(3usize)],
        any::<bool>(),
        any::<bool>(),
        prop::option::of(1usize..4),
        prop_oneof![
            Just(Activation::Relu),
            Just(Activation::Tanh),
            Just(Activation::Sigmoid),
            Just(Activation::None)
        ],
        1usize..5,
        any::<bool>(),
    )
        .prop_map(
            |(
                in_feats,
                in_edge,
                conv1_out,
                conv1_k,
                use_pool,
                pool_avg,
                conv2_out,
                act1,
                fc_out,
                gated_tail,
            )| {
                RandomNetSpec {
                    in_feats,
                    in_edge,
                    conv1_out,
                    conv1_k,
                    use_pool,
                    pool_avg,
                    conv2_out,
                    act1,
                    fc_out,
                    gated_tail,
                }
            },
        )
}

fn build_random_net(spec: &RandomNetSpec) -> scaledeep_dnn::Network {
    let mut b = NetworkBuilder::new(
        "random",
        FeatureShape::new(spec.in_feats, spec.in_edge, spec.in_edge),
    );
    b.conv(
        "c1",
        Conv {
            out_features: spec.conv1_out,
            kernel: spec.conv1_k,
            stride: 1,
            pad: spec.conv1_k / 2,
            groups: 1,
            bias: false,
            activation: spec.act1,
        },
    )
    .expect("c1 valid");
    if spec.use_pool {
        let p = if spec.pool_avg {
            Pool::avg(2, 2)
        } else {
            Pool::max(2, 2)
        };
        b.pool("s1", p).expect("pool valid");
    }
    if let Some(out2) = spec.conv2_out {
        b.conv(
            "c2",
            Conv {
                out_features: out2,
                kernel: 3,
                stride: 1,
                pad: 1,
                groups: 1,
                bias: false,
                activation: Activation::Relu,
            },
        )
        .expect("c2 valid");
    }
    let tail = if spec.gated_tail {
        let trunk = b.tail();
        let gate = |act: Activation| Fc {
            out_neurons: 6,
            bias: false,
            activation: act,
        };
        let a = b
            .fc_from("gate_a", trunk, gate(Activation::Sigmoid))
            .expect("gate a");
        let v = b
            .fc_from("gate_v", trunk, gate(Activation::Tanh))
            .expect("gate v");
        let m = b
            .eltwise_mul("gate_m", a, v, Activation::None)
            .expect("gate product");
        b.act_from("gate_t", m, Activation::Tanh)
            .expect("gate tanh")
    } else {
        b.tail()
    };
    let f = b
        .fc_from(
            "f",
            tail,
            Fc {
                out_neurons: spec.fc_out,
                bias: false,
                activation: Activation::None,
            },
        )
        .expect("fc valid");
    b.finish_with_loss(f).expect("valid graph")
}

fn pseudo_random(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 12) as f64 / (1u64 << 52) as f64 - 1.0) as f32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_networks_match_reference_executor(spec in random_net_strategy(), seed in 0u64..10_000) {
        let net = build_random_net(&spec);
        let artifact = compile_functional(&net, &FuncTargetOptions::default())
            .expect("random nets respect the functional-target contract");
        let mut reference = Executor::new(&net, seed).expect("executor builds");
        let mut sim = FuncSim::from_artifact(&net, &artifact).expect("sim builds");
        sim.import_params(&reference).expect("params import");
        sim.clear_gradients();

        let in_shape = net.input().output_shape();
        let image = pseudo_random(in_shape.elems(), seed ^ 1);
        let golden = pseudo_random(spec.fc_out, seed ^ 2);

        let x = Tensor::from_vec(in_shape, image.clone()).unwrap();
        let g = Tensor::from_vec(FeatureShape::vector(spec.fc_out), golden.clone()).unwrap();
        reference.forward(&x).unwrap();
        reference.backward(&g).unwrap();
        sim.run_iteration(&image, &golden).expect("simulation completes");

        for node in net.layers() {
            if let (Some(sv), Some(rv)) = (sim.layer_output(node.id()), reference.output(node.id())) {
                for (a, b) in sv.iter().zip(rv.as_slice()) {
                    prop_assert!((a - b).abs() < 3e-4, "output diverges at {}", node.name());
                }
            }
            if let (Some(sg), Some((rg, _))) = (sim.layer_wgrad(node.id()), reference.grads(node.id())) {
                for (a, b) in sg.iter().zip(rg) {
                    prop_assert!((a - b).abs() < 3e-3, "gradient diverges at {}", node.name());
                }
            }
        }
    }
}
