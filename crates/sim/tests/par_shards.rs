//! Shard-count invariance properties of the `par` subsystem: random
//! workloads through the sequential engines (the bit-identity oracles)
//! and their sharded counterparts must agree exactly.
//!
//! Two engines, two generators:
//!
//! * **Functional machine** — random programs confined to random tile
//!   pairs (so the machine splits into several connected components,
//!   occasionally re-joined through external memory), under random fault
//!   plans (bit-flips, dropped wakeups, tile failures, transient link
//!   faults). [`run_func_sharded`] must produce bit-identical
//!   [`RunStats`] and memory images at every shard count when the
//!   sequential run succeeds, and must fail whenever it fails.
//! * **Whole-node model** — random stage costs, replica counts, image
//!   streams and sync latencies, with and without link faults.
//!   [`run_node_sharded`] must reproduce [`run_node_sequential`]'s
//!   [`NodeOutcome`] exactly.
//!
//! Both properties additionally assert same-seed determinism: the
//! sharded engines run twice at shard counts 2 and 4 and must reproduce
//! themselves bit for bit (thread scheduling must never leak into
//! results).

use proptest::prelude::*;
use scaledeep_compiler::codegen::TrackerSpec;
use scaledeep_dnn::LayerId;
use scaledeep_isa::{ActKind, Addr, Inst, MemRef, Program, TileRef, EXT_MEM_TILE};
use scaledeep_sim::fault::{FaultKind, FaultPlan, LinkFaults};
use scaledeep_sim::func::{CycleCosts, Machine};
use scaledeep_sim::par::{run_func_sharded, run_node_sequential, run_node_sharded, NodeModel};
use scaledeep_sim::perf::StageCost;
use scaledeep_trace::{MetricsRegistry, Tracer};

const CAPACITY: u32 = 256;
const EXT_CAPACITY: usize = 128;

/// Deterministic operand source (xorshift), same idiom as
/// `tier_equivalence.rs`: proptest drives only the seed, so a failing
/// case shrinks over structure while values stay reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// A direct reference into one of the pair's two tiles, at a small
/// address so every generated access (len ≤ 32) stays in bounds.
fn pair_mem(rng: &mut Rng, a: u16, b: u16) -> MemRef {
    MemRef {
        tile: TileRef(if rng.chance(2) { a } else { b }),
        addr: Addr::Imm(rng.below(64) as u32),
    }
}

/// One random data instruction confined to tiles `a`/`b` (with an
/// occasional external-memory DMA when `ext` is allowed — that joins the
/// pair's component with every other ext-touching pair).
fn pair_inst(rng: &mut Rng, a: u16, b: u16, ext: bool) -> Inst {
    let len = rng.range(1, 32) as u32;
    match rng.below(6) {
        0 => Inst::NdAcc {
            dst: pair_mem(rng, a, b),
            src: pair_mem(rng, a, b),
            len,
        },
        1 => Inst::NdActFn {
            kind: match rng.below(3) {
                0 => ActKind::Relu,
                1 => ActKind::Tanh,
                _ => ActKind::Sigmoid,
            },
            src: pair_mem(rng, a, b),
            len,
            dst: pair_mem(rng, a, b),
        },
        2 => Inst::VecScaleAcc {
            src: pair_mem(rng, a, b),
            len,
            scalar: pair_mem(rng, a, b),
            dst: pair_mem(rng, a, b),
            elementwise: rng.chance(2),
        },
        3 => Inst::DmaStore {
            src: pair_mem(rng, a, b),
            dst: if ext && rng.chance(3) {
                MemRef {
                    tile: EXT_MEM_TILE,
                    addr: Addr::Imm(rng.below(64) as u32),
                }
            } else {
                pair_mem(rng, a, b)
            },
            len: len.min(32),
            accumulate: rng.chance(2),
        },
        4 => Inst::Ldri {
            rd: scaledeep_isa::Reg::new(rng.below(16) as u8),
            value: rng.range(0, 200) as i64 - 100,
        },
        _ => Inst::DmaLoad {
            src: pair_mem(rng, a, b),
            dst: pair_mem(rng, a, b),
            len,
            accumulate: rng.chance(2),
        },
    }
}

/// Builds one case's workload: `pairs` tile pairs, each carrying one or
/// two programs over its own tiles, some tracked, some streaming through
/// external memory.
fn build_workload(seed: u64, pairs: usize) -> (Vec<Program>, Vec<TrackerSpec>) {
    let mut rng = Rng(seed | 1);
    let mut programs = Vec::new();
    let mut specs = Vec::new();
    for i in 0..pairs {
        let (a, b) = ((2 * i) as u16, (2 * i + 1) as u16);
        let ext = rng.chance(3);
        for p in 0..rng.range(1, 2) {
            let mut insts: Vec<Inst> = (0..rng.range(1, 4))
                .map(|_| pair_inst(&mut rng, a, b, ext))
                .collect();
            insts.push(Inst::Halt);
            programs.push(Program::new(format!("p{i}_{p}"), insts));
        }
        if rng.chance(2) {
            // Armed but never gating (0 updates → complete, 0 reads →
            // unrestricted): arming order still matters for stats.
            specs.push(TrackerSpec {
                tile: a,
                addr: 128,
                len: 16,
                num_updates: 0,
                num_reads: 0,
            });
        }
    }
    (programs, specs)
}

/// A random fault plan over `tiles` tiles: scheduled events (bit-flips,
/// dropped wakeups, rarely a tile failure), sometimes a transient
/// link-fault model, always a generous watchdog.
fn build_plan(seed: u64, tiles: u16) -> FaultPlan {
    let mut rng = Rng(seed.rotate_left(23) | 1);
    let mut plan = FaultPlan::seeded(seed);
    for _ in 0..rng.below(4) {
        let at = rng.below(50);
        let tile = rng.below(u64::from(tiles) + 2) as u16; // sometimes untouched/OOB
        let kind = match rng.below(8) {
            0 => FaultKind::DroppedWakeup { tile },
            1 => FaultKind::TileFailure { tile },
            _ => FaultKind::BitFlip {
                tile,
                addr: rng.below(u64::from(CAPACITY)) as u32,
                bit: rng.below(32) as u8,
            },
        };
        plan = plan.with_fault(at, kind);
    }
    if rng.chance(3) {
        plan = plan.with_link_faults(LinkFaults {
            prob: 0.2,
            base_backoff: 4,
            max_retries: 3,
        });
    }
    plan
}

fn seeded_machine(seed: u64, tiles: usize) -> Machine {
    let mut m = Machine::new(tiles, CAPACITY);
    m.set_ext_capacity(EXT_CAPACITY);
    let mut rng = Rng(seed.rotate_left(41) | 1);
    let specials = [f32::NAN, f32::NEG_INFINITY, -0.0, 1e-30];
    for t in 0..tiles {
        let mem = m.mem_mut(t as u16);
        for v in mem.iter_mut() {
            *v = (rng.below(2000) as f32) / 7.0 - 140.0;
        }
        for (i, &s) in specials.iter().enumerate() {
            mem[(rng.below(100) as usize) + i] = s;
        }
    }
    for v in m.ext_mem_mut().iter_mut() {
        *v = (rng.below(2000) as f32) / 9.0 - 110.0;
    }
    m
}

fn memory_bits(tiles: usize, m: &Machine) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = (0..tiles)
        .map(|t| m.mem(t as u16).iter().map(|v| v.to_bits()).collect())
        .collect();
    out.push(m.ext_mem().iter().map(|v| v.to_bits()).collect());
    out
}

/// One random whole-node model. Partial tail minibatches, single-replica
/// and sync-free (evaluation) shapes all fall out of the ranges.
fn build_node_model(seed: u64) -> NodeModel {
    let mut rng = Rng(seed.rotate_left(7) | 1);
    let stages = (0..rng.range(1, 5))
        .map(|s| StageCost {
            id: LayerId::from_index(s as usize),
            name: format!("s{s}"),
            service_cycles: rng.range(1, 60),
            useful_lane_cycles: 0.0,
            useful_sfu_cycles: 0.0,
            traffic: [0.0; 7],
            links: [0.0; 7],
        })
        .collect();
    NodeModel {
        stages,
        replicas: rng.range(1, 12) as usize,
        images: rng.range(2, 40) as usize,
        minibatch: rng.range(1, 9) as usize,
        sync: rng.below(400),
        barrier: !rng.chance(4),
        seed,
        link: if rng.chance(2) {
            Some(LinkFaults {
                prob: 0.3,
                base_backoff: 8,
                max_retries: 4,
            })
        } else {
            None
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random component-structured workloads under random fault plans:
    /// the sharded functional engine reproduces the sequential oracle's
    /// stats and memories bit for bit at every shard count (and agrees
    /// on failure when the oracle fails).
    #[test]
    fn func_sharding_matches_the_sequential_oracle(seed in any::<u64>(), pairs in 1usize..6) {
        let tiles = pairs * 2;
        let (programs, specs) = build_workload(seed, pairs);
        let plan = build_plan(seed, tiles as u16);
        let costs = CycleCosts::default();

        let mut seq = seeded_machine(seed, tiles);
        let want = seq.run_traced(&programs, &specs, &costs, &plan, &mut Tracer::disabled(), &mut MetricsRegistry::new());

        for shards in [1usize, 2, 4, 8] {
            let mut m = seeded_machine(seed, tiles);
            let got = run_func_sharded(&mut m, &programs, &specs, &costs, &plan, shards);
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert_eq!(w, g, "RunStats diverged at {} shards", shards);
                    prop_assert_eq!(
                        memory_bits(tiles, &seq),
                        memory_bits(tiles, &m),
                        "memory diverged at {} shards", shards
                    );
                }
                (Err(_), Err(_)) => {}
                (w, g) => prop_assert!(
                    false,
                    "oracle {:?} vs {} shards {:?}",
                    w.as_ref().map(|_| "ok"), shards, g.as_ref().map(|_| "ok")
                ),
            }
        }

        // Same-seed determinism: the sharded engine reproduces itself.
        for shards in [2usize, 4] {
            let mut m1 = seeded_machine(seed, tiles);
            let r1 = run_func_sharded(&mut m1, &programs, &specs, &costs, &plan, shards);
            let mut m2 = seeded_machine(seed, tiles);
            let r2 = run_func_sharded(&mut m2, &programs, &specs, &costs, &plan, shards);
            match (r1, r2) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a, b, "same-seed stats differ at {} shards", shards);
                    prop_assert_eq!(memory_bits(tiles, &m1), memory_bits(tiles, &m2));
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "same-seed runs disagree on failure at {} shards", shards),
            }
        }
    }

    /// Random whole-node models: the sharded node engine reproduces the
    /// sequential oracle's outcome exactly at every shard count, and
    /// reproduces itself run over run.
    #[test]
    fn node_sharding_matches_the_sequential_oracle(seed in any::<u64>()) {
        let model = build_node_model(seed);
        let oracle = run_node_sequential(&model);
        for shards in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                &run_node_sharded(&model, shards),
                &oracle,
                "NodeOutcome diverged at {} shards", shards
            );
        }
        for shards in [2usize, 4] {
            prop_assert_eq!(
                run_node_sharded(&model, shards),
                run_node_sharded(&model, shards),
                "same-seed node runs differ at {} shards", shards
            );
        }
    }
}
