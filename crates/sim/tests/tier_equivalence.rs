//! Tier-equivalence property: random *executable* programs covering all
//! 28 instruction forms must be bit-identical across execution tiers —
//! the interpreter ([`Machine::run`]) and the compiled tier
//! ([`Machine::run_lowered`]) must produce the same memory images (to
//! the bit, including NaN payloads) and the same [`RunStats`]
//! (instructions, stalls, cycles, per-tile split).
//!
//! Programs are assembled from self-contained *blocks*, one generator
//! per instruction form, so every case exercises the full ISA: scalar
//! ALU ops on scratch registers, bounded countdown loops and forward
//! skips for the branches, geometry-valid in-bounds data instructions
//! (including register-indirect addressing and external-memory DMA),
//! and benign runtime tracker arming. Blocks are shuffled and split
//! across two concurrent programs so the event-driven scheduler
//! interleaves them; scheduling is deterministic, so any divergence is
//! a tier bug, not a race.

use proptest::prelude::*;
use scaledeep_isa::{micro, ActKind, Addr, Inst, MemRef, PoolMode, Program, Reg, TileRef};
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::func::{CycleCosts, Machine};
use scaledeep_trace::Tracer;

const TILES: u16 = 2;
const CAPACITY: u32 = 1024;
const EXT_CAPACITY: usize = 256;

/// Deterministic operand source: proptest drives only `(seed, extras,
/// split)`, so a failing case shrinks over structure while operand
/// values stay reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value in `0..n` (`n` ≥ 1).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform value in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A scratch ALU register (r0..r15): written and read freely by the
/// scalar blocks; wrapping arithmetic means any value is safe.
fn alu_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.below(16) as u8)
}

/// An address register (r16..r23): only ever written by a `Ldri` with a
/// small non-negative value immediately before the indirect use, so
/// register-indirect operands always resolve in bounds.
fn addr_reg(rng: &mut Rng) -> Reg {
    Reg::new(16 + rng.below(8) as u8)
}

/// A loop-counter register (r24..r31): private to one branch block.
fn loop_reg(rng: &mut Rng) -> Reg {
    Reg::new(24 + rng.below(8) as u8)
}

fn tile(rng: &mut Rng) -> TileRef {
    TileRef(rng.below(u64::from(TILES)) as u16)
}

/// A direct tile reference at a small address: every data region starts
/// below 64 and the largest generated access is under 192 elements, so
/// all ranges sit comfortably inside the 1024-word scratchpads.
fn mem_at(rng: &mut Rng) -> MemRef {
    MemRef {
        tile: tile(rng),
        addr: Addr::Imm(rng.below(64) as u32),
    }
}

/// A DMA-side reference: one in four points at external memory.
fn dma_mem(rng: &mut Rng) -> MemRef {
    if rng.below(4) == 0 {
        MemRef {
            tile: TileRef(u16::MAX),
            addr: Addr::Imm(rng.below(64) as u32),
        }
    } else {
        mem_at(rng)
    }
}

fn act_kind(rng: &mut Rng) -> ActKind {
    match rng.below(3) {
        0 => ActKind::Relu,
        1 => ActKind::Tanh,
        _ => ActKind::Sigmoid,
    }
}

fn pool_mode(rng: &mut Rng) -> PoolMode {
    if rng.below(2) == 0 {
        PoolMode::Max
    } else {
        PoolMode::Avg
    }
}

/// One executable block for instruction form `form` (0..28). Each block
/// is self-contained: it sets up any registers it depends on, keeps all
/// memory accesses in bounds, and terminates (loops count down from a
/// small constant).
fn block(form: usize, rng: &mut Rng) -> Vec<Inst> {
    let imm = |rng: &mut Rng| rng.range(0, 200) as i64 - 100;
    match form {
        // -------- scalar control (14) --------
        0 => vec![Inst::Ldri {
            rd: alu_reg(rng),
            value: imm(rng),
        }],
        1 => vec![Inst::Mov {
            rd: alu_reg(rng),
            rs: alu_reg(rng),
        }],
        2 => vec![Inst::Addr {
            rd: alu_reg(rng),
            rs1: alu_reg(rng),
            rs2: alu_reg(rng),
        }],
        3 => vec![Inst::Addri {
            rd: alu_reg(rng),
            rs: alu_reg(rng),
            imm: imm(rng),
        }],
        4 => vec![Inst::Subr {
            rd: alu_reg(rng),
            rs1: alu_reg(rng),
            rs2: alu_reg(rng),
        }],
        5 => vec![Inst::Subri {
            rd: alu_reg(rng),
            rs: alu_reg(rng),
            imm: imm(rng),
        }],
        6 => vec![Inst::Mulr {
            rd: alu_reg(rng),
            rs1: alu_reg(rng),
            rs2: alu_reg(rng),
        }],
        7 => vec![Inst::Inv {
            rd: alu_reg(rng),
            rs: alu_reg(rng),
        }],
        8 => {
            // Bounded countdown loop: Ldri n; Subri 1; Bnez -2.
            let r = loop_reg(rng);
            vec![
                Inst::Ldri {
                    rd: r,
                    value: rng.range(1, 3) as i64,
                },
                Inst::Subri {
                    rd: r,
                    rs: r,
                    imm: 1,
                },
                Inst::Bnez { rs: r, offset: -2 },
            ]
        }
        9 => {
            // Forward skip over a Nop, taken or not.
            let r = loop_reg(rng);
            vec![
                Inst::Ldri {
                    rd: r,
                    value: rng.below(2) as i64,
                },
                Inst::Beqz { rs: r, offset: 1 },
                Inst::Nop,
            ]
        }
        10 => {
            let r = loop_reg(rng);
            vec![
                Inst::Ldri {
                    rd: r,
                    value: rng.range(0, 2) as i64 - 1,
                },
                Inst::Bgtz { rs: r, offset: 1 },
                Inst::Nop,
            ]
        }
        11 => vec![Inst::Branch { offset: 1 }, Inst::Nop],
        12 => vec![], // Halt: appended once per program.
        13 => vec![Inst::Nop],
        // -------- coarse-grained data (2) --------
        14 => {
            // Geometry-valid convolution: ih,iw ≥ 3 and k ≤ 3 keep the
            // output dims positive for any stride/pad in range.
            let (ih, iw) = (rng.range(3, 6), rng.range(3, 6));
            let k = rng.range(1, 3);
            let stride = rng.range(1, 2);
            let pad = rng.below(k);
            let lanes = rng.range(1, 2);
            let oh = (ih + 2 * pad - k) / stride + 1;
            let ow = (iw + 2 * pad - k) / stride + 1;
            vec![Inst::NdConv {
                input: mem_at(rng),
                in_h: ih as u16,
                in_w: iw as u16,
                kernel: mem_at(rng),
                k: k as u8,
                stride: stride as u8,
                pad: pad as u8,
                lanes: lanes as u8,
                output: mem_at(rng),
                out_h: oh as u16,
                out_w: ow as u16,
                accumulate: rng.below(2) == 0,
                flip: rng.below(2) == 0,
            }]
        }
        15 => vec![Inst::MatMul {
            input: mem_at(rng),
            n_in: rng.range(1, 8) as u32,
            matrix: mem_at(rng),
            rows: rng.range(1, 8) as u32,
            output: mem_at(rng),
            accumulate: rng.below(2) == 0,
        }],
        // -------- MemHeavy offload (6) --------
        16 => {
            // Half the time, address the source indirectly so the
            // compiled tier's register resolution is exercised.
            let len = rng.range(1, 64) as u32;
            let src = if rng.below(2) == 0 {
                let r = addr_reg(rng);
                let a = rng.below(64);
                return vec![
                    Inst::Ldri {
                        rd: r,
                        value: a as i64,
                    },
                    Inst::NdActFn {
                        kind: act_kind(rng),
                        src: MemRef {
                            tile: tile(rng),
                            addr: Addr::Reg(r),
                        },
                        len,
                        dst: mem_at(rng),
                    },
                ];
            } else {
                mem_at(rng)
            };
            vec![Inst::NdActFn {
                kind: act_kind(rng),
                src,
                len,
                dst: mem_at(rng),
            }]
        }
        17 => vec![Inst::NdActBwd {
            kind: act_kind(rng),
            pre: mem_at(rng),
            err: mem_at(rng),
            len: rng.range(1, 64) as u32,
            dst: mem_at(rng),
        }],
        18 => vec![Inst::NdSubsamp {
            mode: pool_mode(rng),
            src: mem_at(rng),
            in_h: rng.range(3, 6) as u16,
            in_w: rng.range(3, 6) as u16,
            window: rng.range(1, 3) as u8,
            stride: rng.range(1, 2) as u8,
            pad: rng.below(2) as u8,
            ceil: rng.below(2) == 0,
            dst: mem_at(rng),
        }],
        19 => vec![Inst::NdUpsamp {
            mode: pool_mode(rng),
            err: mem_at(rng),
            fwd: mem_at(rng),
            in_h: rng.range(3, 6) as u16,
            in_w: rng.range(3, 6) as u16,
            window: rng.range(1, 3) as u8,
            stride: rng.range(1, 2) as u8,
            pad: rng.below(2) as u8,
            ceil: rng.below(2) == 0,
            dst: mem_at(rng),
        }],
        20 => vec![Inst::NdAcc {
            dst: mem_at(rng),
            src: mem_at(rng),
            len: rng.range(1, 64) as u32,
        }],
        21 => vec![Inst::VecScaleAcc {
            src: mem_at(rng),
            len: rng.range(1, 32) as u32,
            scalar: mem_at(rng),
            dst: mem_at(rng),
            elementwise: rng.below(2) == 0,
        }],
        // -------- MemHeavy data transfer (4) --------
        22 => vec![Inst::DmaLoad {
            src: dma_mem(rng),
            dst: dma_mem(rng),
            len: rng.range(1, 64) as u32,
            accumulate: rng.below(2) == 0,
        }],
        23 => vec![Inst::DmaStore {
            src: dma_mem(rng),
            dst: dma_mem(rng),
            len: rng.range(1, 64) as u32,
            accumulate: rng.below(2) == 0,
        }],
        24 => vec![Inst::Prefetch {
            src: dma_mem(rng),
            dst: dma_mem(rng),
            len: rng.range(1, 64) as u32,
        }],
        25 => vec![Inst::PassBuff {
            src: dma_mem(rng),
            dst: dma_mem(rng),
            len: rng.range(1, 64) as u32,
        }],
        // -------- data-flow track (2) --------
        // Fixed regions well above the data area, zero counts: armed but
        // never gating (0 updates → complete; 0 reads → unrestricted),
        // and every re-arm is spec-identical, hence idempotent.
        26 => vec![Inst::MemTrack {
            tile: tile(rng),
            addr: 800,
            len: 16,
            num_updates: 0,
            num_reads: 0,
        }],
        27 => vec![Inst::DmaMemTrack {
            tile: tile(rng),
            addr: 832,
            len: 16,
            num_updates: 0,
            num_reads: 0,
        }],
        _ => unreachable!("28 forms"),
    }
}

/// Builds the two concurrent programs for one case: a full pass over all
/// 28 forms plus `extras`, shuffled, split at `split` blocks.
fn build_programs(seed: u64, extras: &[usize], split: usize) -> Vec<Program> {
    let mut rng = Rng(seed | 1);
    let mut blocks: Vec<Vec<Inst>> = (0..28).map(|f| block(f, &mut rng)).collect();
    blocks.extend(extras.iter().map(|&f| block(f % 28, &mut rng)));
    // Fisher–Yates with the same deterministic source.
    for i in (1..blocks.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        blocks.swap(i, j);
    }
    let split = split.min(blocks.len());
    let mut progs = Vec::new();
    for (name, range) in [("alpha", 0..split), ("beta", split..blocks.len())] {
        let mut insts: Vec<Inst> = blocks[range].iter().flatten().copied().collect();
        insts.push(Inst::Halt);
        progs.push(Program::new(name, insts));
    }
    progs
}

/// Seeds a machine's memories with a mix of ordinary values and the
/// specials that expose ordering or copy-vs-recompute differences.
fn init_machine(seed: u64) -> Machine {
    let mut m = Machine::new(TILES as usize, CAPACITY);
    m.set_ext_capacity(EXT_CAPACITY);
    let mut rng = Rng(seed.rotate_left(17) | 1);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-30];
    for t in 0..TILES {
        let mem = m.mem_mut(t);
        for v in mem.iter_mut().take(256) {
            *v = (rng.below(2000) as f32) / 7.0 - 140.0;
        }
        for (i, &s) in specials.iter().enumerate() {
            mem[(rng.below(200) as usize) + i] = s;
        }
    }
    for v in m.ext_mem_mut().iter_mut().take(192) {
        *v = (rng.below(2000) as f32) / 9.0 - 110.0;
    }
    m
}

fn bits(mem: &[f32]) -> Vec<u32> {
    mem.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random executable programs over the whole ISA: interpreter and
    /// compiled tier agree bit-for-bit on memory and exactly on stats.
    #[test]
    fn random_programs_are_bit_identical_across_tiers(
        seed in any::<u64>(),
        extras in prop::collection::vec(0usize..28, 0..20),
        split in 0usize..48,
    ) {
        let programs = build_programs(seed, &extras, split);

        let mut interp = init_machine(seed);
        let a = interp.run(&programs, &[]).expect("interpreter runs");

        let lowered: Vec<_> = programs.iter().map(micro::lower).collect();
        let mut compiled = init_machine(seed);
        let b = compiled
            .run_lowered(
                &lowered,
                &[],
                &CycleCosts::default(),
                &FaultPlan::none(),
                &mut Tracer::disabled(),
            )
            .expect("compiled tier runs");

        prop_assert_eq!(a, b, "RunStats diverged across tiers");
        for t in 0..TILES {
            prop_assert_eq!(
                bits(interp.mem(t)),
                bits(compiled.mem(t)),
                "tile {} memory diverged", t
            );
        }
        prop_assert_eq!(
            bits(interp.ext_mem()),
            bits(compiled.ext_mem()),
            "external memory diverged"
        );
    }
}

/// The block table covers every instruction form exactly once in its
/// canonical pass — a compile-time-adjacent guard that a new form added
/// to the ISA forces this test to grow with it.
#[test]
fn block_table_covers_every_form() {
    assert_eq!(Inst::COUNT, 28, "block() matches forms 0..28");
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    // Every non-Halt form must emit its own opcode somewhere in the block.
    for form in 0..28 {
        let insts = block(form, &mut rng);
        if form == 12 {
            assert!(insts.is_empty(), "Halt is appended per program");
        } else {
            assert!(!insts.is_empty(), "form {form} generated no code");
        }
    }
}
