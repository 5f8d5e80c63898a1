//! Functional-machine sharding by tile connectivity.
//!
//! # Why sharding is exact here
//!
//! Tile threads interact only through the scratchpads they touch:
//! tracker readiness, wake broadcasts, DMA and accumulation all key on a
//! `(tile, range)`. Every operand's **tile is static in the ISA** (only
//! the address within a tile can be register-indirect), so a single pass
//! over the instruction stream computes each program's exact tile
//! footprint — no execution needed. Union-find over those footprints
//! (with external memory as one extra node) partitions the machine into
//! **connected components that share no state whatsoever**: programs in
//! different components can never wake, block, overwrite or observe each
//! other. Running each component group on its own forked [`Machine`]
//! therefore produces bit-identical memories and per-tile stats to the
//! single-queue run by construction; the global counters merge as sums
//! (instructions, rounds, stalls, faults) and a max (cycles), because
//! the sequential event queue simply interleaves the components'
//! dispatches without ever letting them interact.
//!
//! # Fault plans
//!
//! Scheduled faults target a tile, so each event belongs to exactly one
//! component and ships with its shard. The sequential engine applies
//! event `i` immediately before the first dispatch at or after
//! `events[i].at`; since only component dispatches can observe a tile's
//! fault, applying it before the first *component* dispatch at or after
//! that cycle is observationally identical — which is exactly what the
//! shard's own fault cursor does. Events whose cycle falls after their
//! shard went quiet (but not after the last dispatch anywhere — the
//! sequential cursor stops advancing then) are applied to the merged
//! state post-join: by then no thread can observe anything but the
//! memory effect, which for a bit-flip is position-independent.
//!
//! # Divergences (error paths only)
//!
//! Successful runs are bit-identical. Failing runs agree on *whether*
//! they fail, not necessarily on the error's kind or diagnostics:
//! the fuel budget is enforced per shard and re-checked globally after
//! the merge (the culprit program named can differ), watchdog and
//! deadlock diagnostics list only the offending shard's threads, and
//! when several shards fail the lowest shard index wins rather than the
//! earliest simulated cycle.

use crate::engine::Cycle;
use crate::error::{Error, Result};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::func::{CycleCosts, Machine, RunStats};
use scaledeep_compiler::codegen::TrackerSpec;
use scaledeep_isa::{Inst, Program, TileRef};
use scaledeep_trace::{MetricsRegistry, Tracer};

/// Union-find node index for one shareable resource: tile `t` maps to
/// node `t`, external memory and all out-of-range tile references get
/// the two trailing nodes (an out-of-range access faults the run, so all
/// such programs are grouped together and fault shard-locally).
fn node_of(tile: TileRef, tiles: usize) -> usize {
    if tile.is_ext_mem() {
        tiles
    } else if (tile.0 as usize) < tiles {
        tile.0 as usize
    } else {
        tiles + 1
    }
}

/// Appends every tile reference of `inst` to `out`. Scalar-control
/// instructions touch no memory; everything else names its tiles
/// statically (see the module docs).
fn inst_tiles(inst: &Inst, out: &mut Vec<TileRef>) {
    match *inst {
        Inst::NdConv {
            input,
            kernel,
            output,
            ..
        } => out.extend([input.tile, kernel.tile, output.tile]),
        Inst::MatMul {
            input,
            matrix,
            output,
            ..
        } => out.extend([input.tile, matrix.tile, output.tile]),
        Inst::NdActFn { src, dst, .. } => out.extend([src.tile, dst.tile]),
        Inst::NdActBwd { pre, err, dst, .. } => out.extend([pre.tile, err.tile, dst.tile]),
        Inst::NdSubsamp { src, dst, .. } => out.extend([src.tile, dst.tile]),
        Inst::NdUpsamp { err, fwd, dst, .. } => out.extend([err.tile, fwd.tile, dst.tile]),
        Inst::NdAcc { dst, src, .. } => out.extend([dst.tile, src.tile]),
        Inst::VecScaleAcc {
            src, scalar, dst, ..
        } => out.extend([src.tile, scalar.tile, dst.tile]),
        Inst::DmaLoad { src, dst, .. }
        | Inst::DmaStore { src, dst, .. }
        | Inst::Prefetch { src, dst, .. }
        | Inst::PassBuff { src, dst, .. } => out.extend([src.tile, dst.tile]),
        Inst::MemTrack { tile, .. } | Inst::DmaMemTrack { tile, .. } => out.push(tile),
        Inst::Ldri { .. }
        | Inst::Mov { .. }
        | Inst::Addr { .. }
        | Inst::Addri { .. }
        | Inst::Subr { .. }
        | Inst::Subri { .. }
        | Inst::Mulr { .. }
        | Inst::Inv { .. }
        | Inst::Bnez { .. }
        | Inst::Beqz { .. }
        | Inst::Bgtz { .. }
        | Inst::Branch { .. }
        | Inst::Halt
        | Inst::Nop => {}
    }
}

/// Plain array-based union-find with path halving.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Self((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// The static partition of one workload: which shard group each program,
/// tracker spec, tile and fault event belongs to.
struct Partition {
    groups: usize,
    /// Group index per program.
    program_group: Vec<usize>,
    /// Group index per tracker spec.
    spec_group: Vec<usize>,
    /// Group owning each tile's final memory image (`None`: untouched).
    tile_group: Vec<Option<usize>>,
    /// Group owning external memory, if any program touches it.
    ext_group: Option<usize>,
    /// Fault-event indices per group, in plan order.
    event_idx: Vec<Vec<usize>>,
    /// Fault events no group's tiles cover (applied post-merge only).
    orphan_events: Vec<usize>,
}

fn partition(
    machine: &Machine,
    programs: &[Program],
    specs: &[TrackerSpec],
    plan: &FaultPlan,
    shards: usize,
) -> Partition {
    let tiles = machine.tiles();
    let ext = tiles;
    let mut dsu = Dsu::new(tiles + 2);
    let mut footprints: Vec<Vec<usize>> = Vec::with_capacity(programs.len());
    let mut scratch = Vec::new();
    for p in programs {
        scratch.clear();
        for inst in p.insts() {
            inst_tiles(inst, &mut scratch);
        }
        let mut nodes: Vec<usize> = scratch.iter().map(|&t| node_of(t, tiles)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for w in nodes.windows(2) {
            dsu.union(w[0], w[1]);
        }
        footprints.push(nodes);
    }
    // Components touched by at least one program, keyed by root, in
    // first-touch order so the grouping is deterministic.
    let mut roots: Vec<usize> = Vec::new();
    let component_of = |dsu: &mut Dsu, node: usize, roots: &mut Vec<usize>| {
        let r = dsu.find(node);
        roots.iter().position(|&x| x == r).unwrap_or_else(|| {
            roots.push(r);
            roots.len() - 1
        })
    };
    let mut program_component: Vec<Option<usize>> = Vec::with_capacity(programs.len());
    for nodes in &footprints {
        program_component.push(
            nodes
                .first()
                .map(|&n| component_of(&mut dsu, n, &mut roots)),
        );
    }
    // Pack components round-robin into at most `shards` groups, then
    // distribute memory-less programs (pure scalar work: they can run
    // anywhere) the same way for balance.
    let groups = shards.clamp(1, roots.len().max(1));
    let group_of_component = |c: usize| c % groups;
    let mut program_group = Vec::with_capacity(programs.len());
    for (i, comp) in program_component.iter().enumerate() {
        program_group.push(match comp {
            Some(c) => group_of_component(*c),
            None => i % groups,
        });
    }
    // Every live component's tiles map to its group; trailing nodes
    // (ext, out-of-range) resolve the same way.
    let live_group = |dsu: &mut Dsu, node: usize| -> Option<usize> {
        let r = dsu.find(node);
        roots.iter().position(|&x| x == r).map(group_of_component)
    };
    let tile_group: Vec<Option<usize>> = (0..tiles).map(|t| live_group(&mut dsu, t)).collect();
    let ext_group = live_group(&mut dsu, ext);
    // Specs arm trackers on their tile's group. A spec on a tile no
    // program touches still has to be armed somewhere — arming can fail
    // (and the sequential run fails before its first dispatch), so group
    // 0 takes it; an armed-but-never-touched tracker affects nothing.
    let spec_group: Vec<usize> = specs
        .iter()
        .map(|s| {
            tile_group
                .get(s.tile as usize)
                .copied()
                .flatten()
                .unwrap_or(0)
        })
        .collect();
    let mut event_idx: Vec<Vec<usize>> = vec![Vec::new(); groups];
    let mut orphan_events = Vec::new();
    for (i, e) in plan.events().iter().enumerate() {
        let tile = match e.kind {
            FaultKind::TileFailure { tile }
            | FaultKind::BitFlip { tile, .. }
            | FaultKind::DroppedWakeup { tile } => tile,
        };
        match tile_group.get(tile as usize).copied().flatten() {
            Some(g) => event_idx[g].push(i),
            None => orphan_events.push(i),
        }
    }
    Partition {
        groups,
        program_group,
        spec_group,
        tile_group,
        ext_group,
        event_idx,
        orphan_events,
    }
}

/// Rebuilds a [`FaultPlan`] carrying only `events` (already in plan
/// order — `with_fault` keeps ties in insertion order, so the shard's
/// cursor walks them exactly as the sequential cursor would).
fn subplan(plan: &FaultPlan, events: &[FaultEvent]) -> FaultPlan {
    let mut p = FaultPlan::seeded(plan.seed());
    if let Some(lf) = plan.link_faults() {
        p = p.with_link_faults(*lf);
    }
    if let Some(w) = plan.watchdog() {
        p = p.with_watchdog(w);
    }
    for e in events {
        p = p.with_fault(e.at, e.kind);
    }
    p
}

/// Replays one post-quiescence fault event on the merged machine: the
/// only observable left is a bit-flip's memory effect (dead tiles and
/// dropped wakeups have no one left to bite), mirroring the sequential
/// engine's in-flight application bit for bit.
fn apply_leftover(machine: &mut Machine, e: &FaultEvent) {
    if let FaultKind::BitFlip { tile, addr, bit } = e.kind {
        if (tile as usize) < machine.tiles() {
            if let Some(cell) = machine.mem_mut(tile).get_mut(addr as usize) {
                *cell = f32::from_bits(cell.to_bits() ^ (1 << (bit % 32)));
            }
        }
    }
}

/// [`Machine::run_traced`] split across `shards` OS threads by tile
/// connectivity — the functional half of the `par` subsystem.
///
/// On success, `machine`'s scratchpads and external memory hold the
/// exact state the sequential run would leave, and the returned
/// [`RunStats`] (including the per-tile breakdown) is bit-identical —
/// both properties are enforced against the sequential oracle by
/// `tests/par_shards.rs` and the CI `par-check` job. `shards` is a
/// ceiling: at most one thread per connected component is spawned, and
/// `shards <= 1` still runs the whole partition-merge path on a single
/// group. On failure the machine's memory is unspecified (exactly as
/// for a failed sequential run) and only the *fact* of failure matches
/// the oracle (see the module docs).
///
/// # Errors
///
/// See [`Machine::run_traced`]; the first failing shard (by index)
/// wins, and a run whose shards together exceed the fuel budget fails
/// with the sequential engine's fuel [`Error::ControlFault`].
pub fn run_func_sharded(
    machine: &mut Machine,
    programs: &[Program],
    specs: &[TrackerSpec],
    costs: &CycleCosts,
    plan: &FaultPlan,
    shards: usize,
) -> Result<RunStats> {
    // The whole run, or one shard of it, on one unobserved machine.
    let run = |m: &mut Machine, programs: &[Program], specs: &[TrackerSpec], plan: &FaultPlan| {
        let (mut tracer, mut reg) = (Tracer::disabled(), MetricsRegistry::new());
        m.run_traced(programs, specs, costs, plan, &mut tracer, &mut reg)
    };
    if programs.is_empty() {
        return run(machine, programs, specs, plan);
    }
    let part = partition(machine, programs, specs, plan, shards);
    let plan_events = plan.events();
    let mut shard_inputs: Vec<(Vec<Program>, Vec<TrackerSpec>, FaultPlan)> = (0..part.groups)
        .map(|g| {
            let evs: Vec<FaultEvent> = part.event_idx[g].iter().map(|&i| plan_events[i]).collect();
            (Vec::new(), Vec::new(), subplan(plan, &evs))
        })
        .collect();
    for (p, &g) in programs.iter().zip(&part.program_group) {
        shard_inputs[g].0.push(p.clone());
    }
    for (s, &g) in specs.iter().zip(&part.spec_group) {
        shard_inputs[g].1.push(*s);
    }
    let results: Vec<Result<(Machine, RunStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_inputs
            .iter()
            .map(|(progs, specs, plan)| {
                let mut fork = machine.fork();
                scope.spawn(move || {
                    let stats = run(&mut fork, progs, specs, plan)?;
                    Ok((fork, stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let mut shard_outs = Vec::with_capacity(results.len());
    for r in results {
        shard_outs.push(r?);
    }
    // Merge: each group owns the final image of its components' tiles
    // (and ext, if its component includes it); the counters are sums and
    // the clock is the max, because the sequential queue would have
    // interleaved exactly these dispatches without interaction.
    let mut merged = RunStats {
        per_tile: vec![Default::default(); machine.tiles()],
        ..Default::default()
    };
    for (_, stats) in &shard_outs {
        merged.instructions += stats.instructions;
        merged.rounds += stats.rounds;
        merged.stalls += stats.stalls;
        merged.faults += stats.faults;
        merged.cycles = merged.cycles.max(stats.cycles);
        for (acc, t) in merged.per_tile.iter_mut().zip(&stats.per_tile) {
            acc.busy += t.busy;
            acc.stalls += t.stalls;
        }
    }
    if merged.instructions > machine.fuel() {
        return Err(Error::ControlFault {
            program: programs[0].name().to_string(),
            detail: format!("fuel exhausted after {} instructions", machine.fuel()),
        });
    }
    for (tile, group) in part.tile_group.iter().enumerate() {
        if let Some(g) = group {
            let src = shard_outs[*g].0.mem(tile as u16).to_vec();
            machine.mem_mut(tile as u16).copy_from_slice(&src);
        }
    }
    if let Some(g) = part.ext_group {
        let src = shard_outs[g].0.ext_mem().to_vec();
        machine.ext_mem_mut().clear();
        machine.ext_mem_mut().extend_from_slice(&src);
    }
    // Events past their shard's quiescence (or in no shard at all) are
    // still applied by the sequential cursor as long as *some* dispatch
    // happens at or after their cycle — replay them on the merged state.
    if merged.rounds > 0 {
        let global_end: Cycle = merged.cycles;
        for (g, (_, stats)) in shard_outs.iter().enumerate() {
            let applied = usize::try_from(stats.faults).unwrap_or(usize::MAX);
            for &i in part.event_idx[g].iter().skip(applied) {
                if plan_events[i].at <= global_end {
                    apply_leftover(machine, &plan_events[i]);
                    merged.faults += 1;
                }
            }
        }
        for &i in &part.orphan_events {
            if plan_events[i].at <= global_end {
                apply_leftover(machine, &plan_events[i]);
                merged.faults += 1;
            }
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_isa::MemRef;

    /// The sequential oracle: one unobserved machine run.
    fn sequential(
        m: &mut Machine,
        programs: &[Program],
        specs: &[TrackerSpec],
        costs: &CycleCosts,
        plan: &FaultPlan,
    ) -> Result<RunStats> {
        let (mut tracer, mut reg) = (Tracer::disabled(), MetricsRegistry::new());
        m.run_traced(programs, specs, costs, plan, &mut tracer, &mut reg)
    }

    /// `count` disjoint producer/consumer pairs: pair `i` lives on tiles
    /// `2i` / `2i+1`, so the machine splits into `count` components.
    fn pair_workload(count: usize) -> (Vec<Program>, Vec<TrackerSpec>) {
        let mut programs = Vec::new();
        let mut specs = Vec::new();
        for i in 0..count {
            let a = TileRef((2 * i) as u16);
            let b = TileRef((2 * i + 1) as u16);
            programs.push(Program::new(
                format!("producer{i}"),
                vec![
                    Inst::DmaLoad {
                        src: MemRef::at(a, 8),
                        dst: MemRef::at(a, 0),
                        len: 4,
                        accumulate: false,
                    },
                    Inst::Halt,
                ],
            ));
            programs.push(Program::new(
                format!("consumer{i}"),
                vec![
                    Inst::NdAcc {
                        dst: MemRef::at(b, 0),
                        src: MemRef::at(a, 0),
                        len: 4,
                    },
                    Inst::Halt,
                ],
            ));
            specs.push(TrackerSpec {
                tile: a.0,
                addr: 0,
                len: 4,
                num_updates: 1,
                num_reads: 1,
            });
        }
        (programs, specs)
    }

    fn seeded_machine(tiles: usize) -> Machine {
        let mut m = Machine::new(tiles, 16);
        for t in 0..tiles {
            for a in 0..16 {
                m.mem_mut(t as u16)[a] = (t * 31 + a) as f32 * 0.5 - 3.0;
            }
        }
        m
    }

    fn assert_identical(tiles: usize, a: &Machine, b: &Machine) {
        for t in 0..tiles {
            assert_eq!(
                a.mem(t as u16)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.mem(t as u16)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "tile {t} image diverged"
            );
        }
        assert_eq!(
            a.ext_mem().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.ext_mem().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sharded_matches_sequential_across_shard_counts() {
        let (programs, specs) = pair_workload(6);
        let costs = CycleCosts::default();
        let mut seq = seeded_machine(12);
        let want = sequential(&mut seq, &programs, &specs, &costs, &FaultPlan::none()).unwrap();
        for shards in [1, 2, 4, 8] {
            let mut m = seeded_machine(12);
            let got = run_func_sharded(
                &mut m,
                &programs,
                &specs,
                &costs,
                &FaultPlan::none(),
                shards,
            )
            .unwrap();
            assert_eq!(got, want, "stats at {shards} shards");
            assert_identical(12, &m, &seq);
        }
    }

    #[test]
    fn faults_ride_with_their_component() {
        let (programs, specs) = pair_workload(4);
        let costs = CycleCosts::default();
        // A bit-flip in component 1 mid-run, plus one far beyond every
        // dispatch (never applied — the sequential cursor dies with the
        // queue) and one on an untouched tile inside the run window
        // (applied post-merge).
        let plan = FaultPlan::seeded(3)
            .with_fault(
                1,
                FaultKind::BitFlip {
                    tile: 2,
                    addr: 0,
                    bit: 7,
                },
            )
            .with_fault(
                1,
                FaultKind::BitFlip {
                    tile: 9,
                    addr: 3,
                    bit: 1,
                },
            )
            .with_fault(
                1_000_000,
                FaultKind::BitFlip {
                    tile: 0,
                    addr: 0,
                    bit: 0,
                },
            );
        let mut seq = seeded_machine(12);
        let want = sequential(&mut seq, &programs, &specs, &costs, &plan).unwrap();
        assert_eq!(want.faults, 2, "the far-future flip never applies");
        for shards in [1, 2, 3] {
            let mut m = seeded_machine(12);
            let got = run_func_sharded(&mut m, &programs, &specs, &costs, &plan, shards).unwrap();
            assert_eq!(got, want, "stats at {shards} shards");
            assert_identical(12, &m, &seq);
        }
    }

    #[test]
    fn failures_agree_with_the_oracle() {
        let (programs, specs) = pair_workload(3);
        let costs = CycleCosts::default();
        let plan = FaultPlan::none().with_fault(0, FaultKind::TileFailure { tile: 2 });
        let mut seq = seeded_machine(6);
        assert!(sequential(&mut seq, &programs, &specs, &costs, &plan).is_err());
        let mut m = seeded_machine(6);
        assert!(run_func_sharded(&mut m, &programs, &specs, &costs, &plan, 3).is_err());
    }

    #[test]
    fn scalar_only_programs_run_anywhere() {
        let mut programs = pair_workload(2).0;
        programs.push(Program::new(
            "scalar",
            vec![
                Inst::Ldri {
                    rd: scaledeep_isa::Reg::R0,
                    value: 3,
                },
                Inst::Subri {
                    rd: scaledeep_isa::Reg::R0,
                    rs: scaledeep_isa::Reg::R0,
                    imm: 1,
                },
                Inst::Bnez {
                    rs: scaledeep_isa::Reg::R0,
                    offset: -2,
                },
                Inst::Halt,
            ],
        ));
        let costs = CycleCosts::default();
        let mut seq = seeded_machine(4);
        let want = sequential(&mut seq, &programs, &[], &costs, &FaultPlan::none()).unwrap();
        let mut m = seeded_machine(4);
        let got = run_func_sharded(&mut m, &programs, &[], &costs, &FaultPlan::none(), 2).unwrap();
        assert_eq!(got, want);
        assert_identical(4, &m, &seq);
    }

    #[test]
    fn global_fuel_budget_still_binds() {
        // Each shard alone fits the budget; together they exceed it — the
        // sequential engine errors, so the sharded one must too.
        let (programs, specs) = pair_workload(4);
        let costs = CycleCosts::default();
        let mut seq = seeded_machine(8);
        seq.set_fuel(5);
        assert!(sequential(&mut seq, &programs, &specs, &costs, &FaultPlan::none()).is_err());
        let mut m = seeded_machine(8);
        m.set_fuel(5);
        assert!(
            run_func_sharded(&mut m, &programs, &specs, &costs, &FaultPlan::none(), 4).is_err()
        );
    }

    #[test]
    fn ext_memory_joins_one_component() {
        use scaledeep_isa::EXT_MEM_TILE;
        // Two otherwise-disjoint pairs both stream through ext memory:
        // they must land in one shard and still match the oracle.
        let mk = |name: &str, tile: u16, off: u32| {
            Program::new(
                name,
                vec![
                    Inst::DmaStore {
                        src: MemRef::at(TileRef(tile), 0),
                        dst: MemRef::at(EXT_MEM_TILE, off),
                        len: 2,
                        accumulate: false,
                    },
                    Inst::DmaLoad {
                        src: MemRef::at(EXT_MEM_TILE, off),
                        dst: MemRef::at(TileRef(tile), 4),
                        len: 2,
                        accumulate: false,
                    },
                    Inst::Halt,
                ],
            )
        };
        let programs = vec![mk("a", 0, 0), mk("b", 1, 8)];
        let costs = CycleCosts::default();
        let mut seq = seeded_machine(2);
        seq.set_ext_capacity(16);
        let want = sequential(&mut seq, &programs, &[], &costs, &FaultPlan::none()).unwrap();
        let mut m = seeded_machine(2);
        m.set_ext_capacity(16);
        let got = run_func_sharded(&mut m, &programs, &[], &costs, &FaultPlan::none(), 2).unwrap();
        assert_eq!(got, want);
        assert_identical(2, &m, &seq);
    }
}
