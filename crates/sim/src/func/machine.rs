//! The tile machine: one thread per compiled program, scheduled by the
//! shared discrete-event engine and synchronized only by the data-flow
//! trackers.
//!
//! [`Machine::run`] dispatches threads from an [`EventQueue`]: each
//! executed instruction reschedules its thread one [`CycleCosts`]-priced
//! cost later, and a thread whose operand ranges are not tracker-ready
//! parks exactly once in a [`WaitMap`] — it is revisited only when a
//! tracker update touches an awaited range, never re-polled. The old
//! round-robin scheduler survives as [`Machine::run_round_robin`], a
//! validation oracle for schedule-independence tests.

use super::cost::CycleCosts;
use super::exec::{self, MemView, Range, ScalarOutcome, Scratch};
use super::tracker::TrackerTable;
use crate::engine::{Cycle, EventQueue, WaitMap, Watchdog};
use crate::error::{Error, Result};
use crate::fault::{FaultKind, FaultPlan};
use scaledeep_compiler::codegen::TrackerSpec;
use scaledeep_isa::micro::CostClass;
use scaledeep_isa::{Inst, InstGroup, Loc, LoweredProgram, MicroOp, Program, NUM_REGS};
use scaledeep_trace::{Hist, MetricsRegistry, Payload, TraceSink, Tracer, TrackId};

/// Default instruction budget per [`Machine::run`] call — a backstop
/// against runaway control flow, far above any compiled program's needs.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// Busy/stall accounting for one MemHeavy tile over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Cycles spent executing instructions whose destination lives on
    /// this tile.
    pub busy: u64,
    /// Times a thread parked waiting for a tracker range on this tile.
    pub stalls: u64,
}

/// Statistics from one machine run: the typed run record, accumulated
/// directly by the run loop. [`RunStats::write_metrics`] renders it into
/// a [`MetricsRegistry`] when the caller observes the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Instructions executed (completed, not counting blocked attempts).
    pub instructions: u64,
    /// Scheduler dispatches: events processed in event-driven mode,
    /// polling rounds in [`Machine::run_round_robin`].
    pub rounds: u64,
    /// Genuine waits: times a thread parked on a not-yet-ready tracker
    /// range (event-driven), or blocked polls (round-robin oracle) — the
    /// synchronization traffic MEMTRACK absorbs.
    pub stalls: u64,
    /// Simulated cycles to completion (0 in the round-robin oracle,
    /// which has no timing model).
    pub cycles: Cycle,
    /// Per-tile busy/stall breakdown, indexed by MemHeavy tile id
    /// (empty in the round-robin oracle).
    pub per_tile: Vec<TileStats>,
    /// Fault events applied from the run's [`FaultPlan`] (always 0 on the
    /// fault-free path, so stats stay bit-identical under an empty plan).
    pub faults: u64,
    /// Distribution of the [`CycleCosts`] price of every executed
    /// instruction (empty in the round-robin oracle).
    pub instruction_cost: Hist,
}

impl RunStats {
    /// Utilization of `tile` over the run window: busy cycles over total
    /// cycles, 0 for unknown tiles or an empty window. Comparable to the
    /// performance simulator's per-resource utilizations.
    pub fn tile_utilization(&self, tile: u16) -> f64 {
        let busy = self.per_tile.get(tile as usize).map_or(0, |t| t.busy);
        if self.cycles == 0 {
            0.0
        } else {
            busy as f64 / self.cycles as f64
        }
    }

    /// Renders the record into `reg` as the `func.*` counters, the
    /// `func.instruction_cost` histogram and one `func.tile.NNNN.busy` /
    /// `.stalls` counter pair per tile. Counters add and the histogram
    /// merges, so a retried run's record folds into the first attempt's
    /// registry.
    pub fn write_metrics(&self, reg: &mut MetricsRegistry) {
        let mut run = MetricsRegistry::new();
        for (name, v) in [
            ("func.instructions", self.instructions),
            ("func.rounds", self.rounds),
            ("func.stalls", self.stalls),
            ("func.faults", self.faults),
            ("func.cycles", self.cycles),
        ] {
            let id = run.counter(name);
            run.add(id, v);
        }
        let cost = run.histogram("func.instruction_cost");
        run.observe_hist(cost, &self.instruction_cost);
        for (i, t) in self.per_tile.iter().enumerate() {
            let busy = run.counter(&format!("func.tile.{i:04}.busy"));
            run.add(busy, t.busy);
            let stalls = run.counter(&format!("func.tile.{i:04}.stalls"));
            run.add(stalls, t.stalls);
        }
        reg.merge(&run);
    }
}

struct Thread<'a, C> {
    code: &'a C,
    pc: usize,
    regs: [i64; NUM_REGS],
    halted: bool,
}

impl<'a, C: Code> Thread<'a, C> {
    fn new(code: &'a C) -> Self {
        let halted = code.is_empty();
        Self {
            code,
            pc: 0,
            regs: [0; NUM_REGS],
            halted,
        }
    }
}

/// An executable program form — what a tile thread steps through. The two
/// implementations are the execution tiers: [`Program`] is the
/// interpreter (re-derives operand ranges and costs every dispatch, the
/// bit-identity oracle), [`LoweredProgram`] is the compiled tier
/// (pre-decoded micro-ops, specialized dispatch, and a restructured —
/// but bit-identical — convolution kernel). Both drive the same
/// event-driven run loop, so they differ only in per-step decode work
/// and kernel loop structure, never in results.
trait Code: Sized {
    /// The program's name (used in diagnostics and errors).
    fn name(&self) -> &str;
    /// True when the program has no instructions (the thread starts
    /// halted).
    fn is_empty(&self) -> bool;
    /// Executes one instruction of `t`, mutating thread and machine
    /// state.
    #[allow(clippy::too_many_arguments)]
    fn step(
        t: &mut Thread<'_, Self>,
        mems: &mut [Vec<f32>],
        ext: &mut Vec<f32>,
        trackers: &mut TrackerTable,
        costs: &CycleCosts,
        dead: &[bool],
        now: Cycle,
        scratch: &mut Scratch,
    ) -> Result<StepOutcome>;
}

/// The functional machine: MemHeavy scratchpads, an external memory, the
/// tracker table, and a set of tile threads.
#[derive(Debug)]
pub struct Machine {
    mems: Vec<Vec<f32>>,
    ext: Vec<f32>,
    trackers: TrackerTable,
    fuel: u64,
}

impl Machine {
    /// A machine with `tiles` scratchpads of `capacity` f32 elements each.
    pub fn new(tiles: usize, capacity: u32) -> Self {
        Self {
            mems: vec![vec![0.0; capacity as usize]; tiles],
            ext: Vec::new(),
            trackers: TrackerTable::new(tiles),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Overrides the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Number of MemHeavy tile scratchpads.
    pub fn tiles(&self) -> usize {
        self.mems.len()
    }

    /// Sizes the external memory (elements).
    pub fn set_ext_capacity(&mut self, elems: usize) {
        self.ext.resize(elems, 0.0);
    }

    /// Read access to one tile's scratchpad.
    ///
    /// # Panics
    ///
    /// Panics when `tile` does not exist.
    pub fn mem(&self, tile: u16) -> &[f32] {
        &self.mems[tile as usize]
    }

    /// Mutable access to one tile's scratchpad (host-side setup).
    ///
    /// # Panics
    ///
    /// Panics when `tile` does not exist.
    pub fn mem_mut(&mut self, tile: u16) -> &mut [f32] {
        &mut self.mems[tile as usize]
    }

    /// External memory view.
    pub fn ext_mem(&self) -> &[f32] {
        &self.ext
    }

    /// Mutable external memory view.
    pub fn ext_mem_mut(&mut self) -> &mut Vec<f32> {
        &mut self.ext
    }

    fn arm_from_specs(&mut self, specs: &[TrackerSpec]) -> Result<()> {
        self.trackers.clear();
        for s in specs {
            self.trackers
                .arm(s.tile, s.addr, s.len, s.num_updates, s.num_reads)?;
        }
        Ok(())
    }

    /// Runs the given programs to completion with the default
    /// (Figure 14 ConvLayer chip) cycle-cost table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Deadlock`] when no thread can progress,
    /// [`Error::ControlFault`] on fuel exhaustion or control-flow faults,
    /// and memory/tracker errors from instruction execution.
    pub fn run(&mut self, programs: &[Program], specs: &[TrackerSpec]) -> Result<RunStats> {
        self.run_traced(
            programs,
            specs,
            &CycleCosts::default(),
            &FaultPlan::none(),
            &mut Tracer::disabled(),
            None,
        )
    }

    /// Runs the given programs to completion, event-driven, under a
    /// [`FaultPlan`] and with observability: trackers are re-armed from
    /// `specs` (the host pre-arm; program MEMTRACK preambles then
    /// re-execute as no-ops), every thread is seeded into the event queue
    /// at cycle 0, and each executed instruction reschedules its thread
    /// `costs.cost(inst)` cycles later. A thread whose operands are not
    /// tracker-ready parks once and is re-dispatched only by the tracker
    /// update that touches an awaited range.
    ///
    /// Every dispatch accumulates into the returned [`RunStats`] record.
    /// When `reg` is given, a successful run renders that record into it
    /// ([`RunStats::write_metrics`]; a failed attempt renders nothing, so
    /// retries never double-count), and `tracer` receives cycle-stamped
    /// events:
    /// instruction-retire spans on per-tile tracks (their durations sum
    /// exactly to the per-tile busy cycles), park/wake instants on
    /// per-thread tracks, and fault instants on a `faults` track. With a
    /// disabled tracer the event calls compile down to constant-false
    /// branches; [`Machine::run`] delegates here with the empty plan and
    /// a [`scaledeep_trace::NullSink`], so it is bit-identical to
    /// pre-fault, pre-trace behavior by construction.
    ///
    /// Scheduled faults apply immediately before the first dispatch at or
    /// after their cycle, and the plan's watchdog (if armed) bounds
    /// simulation time. Fault semantics:
    ///
    /// * [`FaultKind::TileFailure`] — the tile is marked dead; the next
    ///   instruction touching its scratchpad (or arming a tracker on it)
    ///   fails the run with [`Error::TileFailed`] so the host can remap.
    /// * [`FaultKind::BitFlip`] — one bit of the stored f32 flips in
    ///   place, silently (no tracker traffic, no wakeups: pure data
    ///   corruption, observable only in the memory image).
    /// * [`FaultKind::DroppedWakeup`] — the next tracker wake broadcast
    ///   on the tile is lost; threads parked on it stay parked unless a
    ///   later update touches their ranges. Without a watchdog this
    ///   surfaces as [`Error::Deadlock`] at drain; with one, as
    ///   [`Error::Watchdog`] mid-flight.
    ///
    /// # Errors
    ///
    /// See [`Machine::run`], plus [`Error::TileFailed`] and
    /// [`Error::Watchdog`] as above.
    pub fn run_traced<'p, S: TraceSink>(
        &mut self,
        programs: impl IntoIterator<Item = &'p Program>,
        specs: &[TrackerSpec],
        costs: &CycleCosts,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: Option<&mut MetricsRegistry>,
    ) -> Result<RunStats> {
        self.run_generic(programs, specs, costs, plan, tracer, reg)
    }

    /// The compiled tier's one run: [`Machine::run_traced`] over
    /// pre-lowered micro-op streams, with full fault-plan and
    /// observability support. Same scheduling, tracker semantics and
    /// arithmetic as the interpreter — the lowered form removes
    /// per-dispatch decode work and swaps in a restructured (but
    /// FP-order-preserving) convolution kernel — so results, [`RunStats`]
    /// and trace events are bit-identical to interpreting the source
    /// programs.
    ///
    /// # Errors
    ///
    /// See [`Machine::run_traced`].
    pub fn run_lowered<'p, S: TraceSink>(
        &mut self,
        programs: impl IntoIterator<Item = &'p LoweredProgram>,
        specs: &[TrackerSpec],
        costs: &CycleCosts,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: Option<&mut MetricsRegistry>,
    ) -> Result<RunStats> {
        self.run_generic(programs, specs, costs, plan, tracer, reg)
    }

    #[allow(clippy::too_many_lines)]
    fn run_generic<'p, C: Code + 'p, S: TraceSink>(
        &mut self,
        programs: impl IntoIterator<Item = &'p C>,
        specs: &[TrackerSpec],
        costs: &CycleCosts,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: Option<&mut MetricsRegistry>,
    ) -> Result<RunStats> {
        self.arm_from_specs(specs)?;
        let mut threads: Vec<Thread<C>> = programs.into_iter().map(Thread::new).collect();
        let mut stats = RunStats {
            per_tile: vec![TileStats::default(); self.mems.len()],
            ..RunStats::default()
        };
        // Track interning is skipped wholesale (names never formatted)
        // when the tracer records nothing.
        let (tile_tracks, thread_tracks, fault_track): (Vec<TrackId>, Vec<TrackId>, TrackId) =
            if tracer.active() {
                (
                    (0..self.mems.len())
                        .map(|i| tracer.track(&format!("tile {i:04}")))
                        .collect(),
                    threads
                        .iter()
                        .map(|t| tracer.track(&format!("thread {}", t.code.name())))
                        .collect(),
                    tracer.track("faults"),
                )
            } else {
                (vec![0; self.mems.len()], vec![0; threads.len()], 0)
            };
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut waits = WaitMap::new();
        let watchdog = plan
            .watchdog()
            .map_or_else(Watchdog::unarmed, Watchdog::armed);
        let fault_events = plan.events();
        let mut next_fault = 0usize;
        let mut dead: Vec<bool> = vec![false; self.mems.len()];
        let mut scratch = Scratch::default();
        // Tiles whose next tracker wake broadcast is scheduled to vanish.
        let mut pending_drops: Vec<u16> = Vec::new();
        for (i, t) in threads.iter().enumerate() {
            if !t.halted {
                queue.push(0, i);
            }
        }
        while let Some((now, tid)) = queue.pop() {
            if watchdog.expired(now) {
                return Err(Error::Watchdog {
                    stuck: Self::stuck_diagnostics(&threads, &waits, &self.trackers),
                    at: now,
                });
            }
            while let Some(e) = fault_events.get(next_fault).filter(|e| e.at <= now) {
                match e.kind {
                    FaultKind::TileFailure { tile } => {
                        if let Some(d) = dead.get_mut(tile as usize) {
                            *d = true;
                        }
                    }
                    FaultKind::BitFlip { tile, addr, bit } => {
                        if let Some(cell) = self
                            .mems
                            .get_mut(tile as usize)
                            .and_then(|m| m.get_mut(addr as usize))
                        {
                            *cell = f32::from_bits(cell.to_bits() ^ (1 << (bit % 32)));
                        }
                    }
                    FaultKind::DroppedWakeup { tile } => pending_drops.push(tile),
                }
                // Faults apply at the dispatch that first observes them,
                // so the instant is stamped `now` (keeps per-track
                // timestamps monotone even for backdated plan entries).
                tracer.instant(
                    now,
                    fault_track,
                    Payload::Fault {
                        kind: fault_kind_name(&e.kind),
                        tile: fault_kind_tile(&e.kind),
                    },
                );
                stats.faults += 1;
                next_fault += 1;
            }
            stats.rounds += 1;
            let t = &mut threads[tid];
            match C::step(
                t,
                &mut self.mems,
                &mut self.ext,
                &mut self.trackers,
                costs,
                &dead,
                now,
                &mut scratch,
            )? {
                StepOutcome::Executed {
                    cost,
                    busy_tile,
                    touched,
                } => {
                    stats.instructions += 1;
                    if stats.instructions > self.fuel {
                        return Err(Error::ControlFault {
                            program: t.code.name().to_string(),
                            detail: format!("fuel exhausted after {} instructions", self.fuel),
                        });
                    }
                    stats.instruction_cost.observe_n(cost as f64, 1);
                    if let Some(tile) = busy_tile {
                        stats.per_tile[tile as usize].busy += cost;
                        tracer.span(
                            now,
                            cost,
                            tile_tracks[tile as usize],
                            Payload::Retire {
                                thread: tid as u16,
                                cost,
                            },
                        );
                    }
                    queue.push_after(cost, tid);
                    // The instruction's tracker records may have made
                    // ranges readable/overwritable: re-dispatch every
                    // waiter parked on a touched range (in id order).
                    for (tile, addr, len) in touched {
                        if let Some(pos) = pending_drops.iter().position(|&d| d == tile) {
                            // The injected fault eats this broadcast:
                            // waiters stay parked as if the signal never
                            // left the tracker.
                            pending_drops.swap_remove(pos);
                            continue;
                        }
                        for waiter in waits.wake_overlapping(tile, addr, len) {
                            tracer.instant(
                                now,
                                thread_tracks[waiter],
                                Payload::Wake {
                                    thread: waiter as u16,
                                    tile,
                                },
                            );
                            queue.push(now, waiter);
                        }
                    }
                }
                StepOutcome::Blocked { awaited } => {
                    stats.stalls += 1;
                    if let Some(&(tile, addr, len)) = awaited.first() {
                        if let Some(t) = stats.per_tile.get_mut(tile as usize) {
                            t.stalls += 1;
                        }
                        tracer.instant(
                            now,
                            thread_tracks[tid],
                            Payload::Park {
                                thread: tid as u16,
                                tile,
                                addr,
                                len,
                            },
                        );
                    }
                    waits.park(tid, awaited);
                }
                StepOutcome::Halted => {}
            }
        }
        stats.cycles = queue.now();
        if threads.iter().all(|t| t.halted) {
            if let Some(reg) = reg {
                stats.write_metrics(reg);
            }
            Ok(stats)
        } else {
            Err(Error::Deadlock {
                stuck: Self::stuck_diagnostics(&threads, &waits, &self.trackers),
                at: queue.now(),
            })
        }
    }

    /// Names each non-halted thread, the tracker ranges it is parked on,
    /// and the nearest tracker's satisfaction watermark, e.g.
    /// `"L0.BP awaiting M2[0..512) (updates 3/4, reads 0/1)"`.
    fn stuck_diagnostics<C: Code>(
        threads: &[Thread<'_, C>],
        waits: &WaitMap,
        trackers: &TrackerTable,
    ) -> Vec<String> {
        threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.halted)
            .map(|(i, t)| {
                let ranges: Vec<String> = waits
                    .entries()
                    .filter(|&&(_, waiter)| waiter == i)
                    .map(|&((tile, addr, len), _)| {
                        let span = format!("M{tile}[{addr}..{})", u64::from(addr) + u64::from(len));
                        match trackers.nearest_watermark(tile, addr, len) {
                            Some(mark) => format!("{span} ({mark})"),
                            None => span,
                        }
                    })
                    .collect();
                if ranges.is_empty() {
                    t.code.name().to_string()
                } else {
                    format!("{} awaiting {}", t.code.name(), ranges.join(", "))
                }
            })
            .collect()
    }

    /// The pre-event-queue scheduler, kept as a validation oracle: polls
    /// every thread each round and counts every blocked poll as a stall.
    /// Produces no timing ([`RunStats::cycles`] stays 0) but must reach
    /// bit-identical memory state to [`Machine::run`] — the trackers, not
    /// the schedule, order the computation.
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    pub fn run_round_robin(
        &mut self,
        programs: &[Program],
        specs: &[TrackerSpec],
    ) -> Result<RunStats> {
        self.arm_from_specs(specs)?;
        let costs = CycleCosts::default();
        let mut scratch = Scratch::default();
        let mut threads: Vec<Thread<Program>> = programs.iter().map(Thread::new).collect();
        let mut stats = RunStats::default();
        loop {
            if threads.iter().all(|t| t.halted) {
                return Ok(stats);
            }
            stats.rounds += 1;
            let mut progressed = false;
            for t in &mut threads {
                if t.halted {
                    continue;
                }
                match Program::step(
                    t,
                    &mut self.mems,
                    &mut self.ext,
                    &mut self.trackers,
                    &costs,
                    &[],
                    0,
                    &mut scratch,
                )? {
                    StepOutcome::Executed { .. } => {
                        progressed = true;
                        stats.instructions += 1;
                        if stats.instructions > self.fuel {
                            return Err(Error::ControlFault {
                                program: t.code.name().to_string(),
                                detail: format!("fuel exhausted after {} instructions", self.fuel),
                            });
                        }
                    }
                    StepOutcome::Blocked { .. } => stats.stalls += 1,
                    StepOutcome::Halted => {
                        progressed = true;
                    }
                }
            }
            if !progressed {
                let stuck = threads
                    .iter()
                    .filter(|t| !t.halted)
                    .map(|t| t.code.name().to_string())
                    .collect();
                // The oracle has no timing model, so detection time is 0.
                return Err(Error::Deadlock { stuck, at: 0 });
            }
        }
    }
}

impl Code for Program {
    fn name(&self) -> &str {
        Program::name(self)
    }

    fn is_empty(&self) -> bool {
        Program::is_empty(self)
    }

    /// The interpreter tier: re-fetches the [`Inst`], re-derives its
    /// operand ranges and re-prices its cost on every dispatch.
    fn step(
        t: &mut Thread<'_, Self>,
        mems: &mut [Vec<f32>],
        ext: &mut Vec<f32>,
        trackers: &mut TrackerTable,
        costs: &CycleCosts,
        dead: &[bool],
        now: Cycle,
        _scratch: &mut Scratch,
    ) -> Result<StepOutcome> {
        let name = t.code.name().to_string();
        let Some(&inst) = t.code.insts().get(t.pc) else {
            return Err(Error::ControlFault {
                program: name,
                detail: format!("fell off program end at pc {}", t.pc),
            });
        };
        match inst.group() {
            InstGroup::ScalarControl => {
                match exec::execute_scalar(&inst, t.pc, &mut t.regs, &name)? {
                    ScalarOutcome::Next(pc) => {
                        if pc > t.code.len() {
                            return Err(Error::ControlFault {
                                program: name,
                                detail: format!("branch target {pc} out of range"),
                            });
                        }
                        t.pc = pc;
                        Ok(StepOutcome::Executed {
                            cost: costs.cost(&inst),
                            busy_tile: None,
                            touched: Vec::new(),
                        })
                    }
                    ScalarOutcome::Halt => {
                        t.halted = true;
                        Ok(StepOutcome::Halted)
                    }
                }
            }
            InstGroup::DataFlowTrack => {
                let (tile, addr, len, updates, reads) = match inst {
                    Inst::MemTrack {
                        tile,
                        addr,
                        len,
                        num_updates,
                        num_reads,
                    }
                    | Inst::DmaMemTrack {
                        tile,
                        addr,
                        len,
                        num_updates,
                        num_reads,
                    } => (tile, addr, len, num_updates, num_reads),
                    _ => unreachable!("group covers exactly the two track insts"),
                };
                if dead.get(tile.0 as usize).copied().unwrap_or(false) {
                    return Err(Error::TileFailed {
                        program: name,
                        tile: tile.0,
                        at: now,
                    });
                }
                trackers.arm(tile.0, addr, len, updates, reads)?;
                t.pc += 1;
                Ok(StepOutcome::Executed {
                    cost: costs.cost(&inst),
                    busy_tile: None,
                    touched: Vec::new(),
                })
            }
            _ => {
                let access = exec::accesses(&inst, &t.regs, &name)?
                    .expect("data groups always resolve accesses");
                // External-memory ranges are host-managed and untracked.
                let tracked = |r: &Range| r.0.tile().map(|tile| (tile, r.1, r.2));
                if let Some((tile, _, _)) = access
                    .reads
                    .iter()
                    .chain(access.writes.iter())
                    .filter_map(tracked)
                    .find(|&(tile, _, _)| dead.get(tile as usize).copied().unwrap_or(false))
                {
                    return Err(Error::TileFailed {
                        program: name,
                        tile,
                        at: now,
                    });
                }
                let ready = access
                    .reads
                    .iter()
                    .filter_map(tracked)
                    .all(|(tile, addr, len)| trackers.read_ready(tile, addr, len))
                    && access
                        .writes
                        .iter()
                        .filter_map(tracked)
                        .all(|(tile, addr, len)| trackers.write_ready(tile, addr, len));
                if !ready {
                    // Park on every tracked operand range: whichever
                    // tracker record arrives first re-checks the lot.
                    let awaited: Vec<(u16, u32, u32)> = access
                        .reads
                        .iter()
                        .chain(access.writes.iter())
                        .filter_map(tracked)
                        .collect();
                    return Ok(StepOutcome::Blocked { awaited });
                }
                {
                    let mut view = MemView { tiles: mems, ext };
                    exec::execute(&inst, &t.regs, &mut view, &name)?;
                }
                // Wake on the full extents of the trackers each record
                // touched: a tracker can span more than the accessed
                // range, and its readiness flips as a whole.
                let mut touched: Vec<(u16, u32, u32)> = Vec::new();
                for &(loc, addr, len) in &access.reads {
                    if let Loc::Tile(tile) = loc {
                        for (t_addr, t_len) in trackers.record_read(tile, addr, len) {
                            touched.push((tile, t_addr, t_len));
                        }
                    }
                }
                let mut busy_tile = None;
                for &(loc, addr, len) in &access.writes {
                    if let Loc::Tile(tile) = loc {
                        for (t_addr, t_len) in trackers.record_write(tile, addr, len) {
                            touched.push((tile, t_addr, t_len));
                        }
                        busy_tile.get_or_insert(tile);
                    }
                }
                t.pc += 1;
                Ok(StepOutcome::Executed {
                    cost: costs.cost(&inst),
                    busy_tile,
                    touched,
                })
            }
        }
    }
}

impl Code for LoweredProgram {
    fn name(&self) -> &str {
        LoweredProgram::name(self)
    }

    fn is_empty(&self) -> bool {
        LoweredProgram::is_empty(self)
    }

    /// The compiled tier: dispatches pre-decoded micro-ops. Operand
    /// locations, lengths, geometry and cost class were fixed at
    /// lowering; only register-indirect addresses are resolved here, and
    /// the hot path performs no heap allocation (read operands go through
    /// the run loop's [`Scratch`] buffers, and the blocked/touched lists
    /// only materialize when trackers are actually involved).
    fn step(
        t: &mut Thread<'_, Self>,
        mems: &mut [Vec<f32>],
        ext: &mut Vec<f32>,
        trackers: &mut TrackerTable,
        costs: &CycleCosts,
        dead: &[bool],
        now: Cycle,
        scratch: &mut Scratch,
    ) -> Result<StepOutcome> {
        let Thread {
            code,
            pc,
            regs,
            halted,
        } = t;
        let Some(op) = code.ops().get(*pc) else {
            return Err(Error::ControlFault {
                program: code.name().to_string(),
                detail: format!("fell off program end at pc {pc}"),
            });
        };
        match op {
            MicroOp::Scalar(inst) => match exec::execute_scalar(inst, *pc, regs, code.name())? {
                ScalarOutcome::Next(next) => {
                    if next > code.len() {
                        return Err(Error::ControlFault {
                            program: code.name().to_string(),
                            detail: format!("branch target {next} out of range"),
                        });
                    }
                    *pc = next;
                    Ok(StepOutcome::Executed {
                        cost: costs.class_cost(CostClass::Scalar),
                        busy_tile: None,
                        touched: Vec::new(),
                    })
                }
                ScalarOutcome::Halt => {
                    *halted = true;
                    Ok(StepOutcome::Halted)
                }
            },
            &MicroOp::Track {
                tile,
                addr,
                len,
                num_updates,
                num_reads,
            } => {
                if dead.get(tile as usize).copied().unwrap_or(false) {
                    return Err(Error::TileFailed {
                        program: code.name().to_string(),
                        tile,
                        at: now,
                    });
                }
                trackers.arm(tile, addr, len, num_updates, num_reads)?;
                *pc += 1;
                Ok(StepOutcome::Executed {
                    cost: costs.class_cost(CostClass::Track),
                    busy_tile: None,
                    touched: Vec::new(),
                })
            }
            MicroOp::Data(op) => {
                // Resolve register-indirect addresses in the same
                // reads-then-write order as the interpreter's access
                // derivation, so faults surface identically.
                let mut read_addrs = [0u32; 2];
                for (i, r) in op.reads.iter().enumerate() {
                    read_addrs[i] = exec::spec_addr(r.addr, regs, code.name())?;
                }
                let write_addr = exec::spec_addr(op.write.addr, regs, code.name())?;
                for r in op.reads.iter().chain(std::iter::once(&op.write)) {
                    if let Loc::Tile(tile) = r.loc {
                        if dead.get(tile as usize).copied().unwrap_or(false) {
                            return Err(Error::TileFailed {
                                program: code.name().to_string(),
                                tile,
                                at: now,
                            });
                        }
                    }
                }
                let ready = op
                    .reads
                    .iter()
                    .zip(read_addrs)
                    .all(|(r, addr)| match r.loc {
                        Loc::Tile(tile) => trackers.read_ready(tile, addr, r.len),
                        Loc::External => true,
                    })
                    && match op.write.loc {
                        Loc::Tile(tile) => trackers.write_ready(tile, write_addr, op.write.len),
                        Loc::External => true,
                    };
                if !ready {
                    let awaited: Vec<(u16, u32, u32)> = op
                        .reads
                        .iter()
                        .zip(read_addrs)
                        .filter_map(|(r, addr)| r.loc.tile().map(|tile| (tile, addr, r.len)))
                        .chain(
                            op.write
                                .loc
                                .tile()
                                .map(|tile| (tile, write_addr, op.write.len)),
                        )
                        .collect();
                    return Ok(StepOutcome::Blocked { awaited });
                }
                {
                    let mut view = MemView { tiles: mems, ext };
                    exec::execute_data(
                        op,
                        &read_addrs[..op.reads.len()],
                        write_addr,
                        &mut view,
                        scratch,
                        code.name(),
                    )?;
                }
                let mut touched: Vec<(u16, u32, u32)> = Vec::new();
                for (r, addr) in op.reads.iter().zip(read_addrs) {
                    if let Loc::Tile(tile) = r.loc {
                        for (t_addr, t_len) in trackers.record_read(tile, addr, r.len) {
                            touched.push((tile, t_addr, t_len));
                        }
                    }
                }
                let mut busy_tile = None;
                if let Loc::Tile(tile) = op.write.loc {
                    for (t_addr, t_len) in trackers.record_write(tile, write_addr, op.write.len) {
                        touched.push((tile, t_addr, t_len));
                    }
                    busy_tile = Some(tile);
                }
                *pc += 1;
                Ok(StepOutcome::Executed {
                    cost: costs.class_cost(op.cost),
                    busy_tile,
                    touched,
                })
            }
        }
    }
}

/// Stable trace-payload name for a fault kind.
fn fault_kind_name(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::TileFailure { .. } => "tile_failure",
        FaultKind::BitFlip { .. } => "bit_flip",
        FaultKind::DroppedWakeup { .. } => "dropped_wakeup",
    }
}

/// The tile a fault kind targets.
fn fault_kind_tile(kind: &FaultKind) -> u16 {
    match kind {
        FaultKind::TileFailure { tile }
        | FaultKind::BitFlip { tile, .. }
        | FaultKind::DroppedWakeup { tile } => *tile,
    }
}

/// Result of one thread step. Touched/awaited ranges are always
/// tracker-relevant, so they carry the bare tile index (external-memory
/// operands never appear here).
enum StepOutcome {
    Executed {
        cost: Cycle,
        busy_tile: Option<u16>,
        touched: Vec<(u16, u32, u32)>,
    },
    Blocked {
        awaited: Vec<(u16, u32, u32)>,
    },
    Halted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_isa::{Inst, MemRef, Reg, TileRef};

    fn prog(name: &str, insts: Vec<Inst>) -> Program {
        Program::new(name, insts)
    }

    #[test]
    fn single_thread_runs_to_halt() {
        let mut m = Machine::new(1, 16);
        m.mem_mut(0)[0] = 5.0;
        let p = prog(
            "t",
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 0),
                    dst: MemRef::at(TileRef(0), 1),
                    len: 1,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let stats = m.run(&[p], &[]).unwrap();
        assert_eq!(m.mem(0)[1], 5.0);
        assert_eq!(stats.instructions, 1);
        assert!(stats.cycles >= 1, "dispatch must advance time");
        assert_eq!(stats.per_tile[0].busy, 1);
        let u = stats.tile_utilization(0);
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
        assert_eq!(stats.tile_utilization(9), 0.0, "unknown tile");
    }

    #[test]
    fn trackers_order_producer_consumer() {
        // Producer writes [0,4) in two chunks; consumer copies [0,4) to
        // [4,8) but must observe both chunks (tracker updates=2).
        let mut m = Machine::new(1, 16);
        let producer = prog(
            "producer",
            vec![
                // Scalar detour so the consumer polls first in round 1.
                Inst::Nop,
                Inst::Nop,
                Inst::Ldri {
                    rd: Reg::R0,
                    value: 8,
                },
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 8),
                    dst: MemRef::at(TileRef(0), 0),
                    len: 2,
                    accumulate: false,
                },
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 10),
                    dst: MemRef::at(TileRef(0), 2),
                    len: 2,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let consumer = prog(
            "consumer",
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 0),
                    dst: MemRef::at(TileRef(0), 4),
                    len: 4,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        m.mem_mut(0)[8..12].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 4,
            num_updates: 2,
            num_reads: 1,
        }];
        let stats = m.run(&[consumer, producer], &specs).unwrap();
        assert_eq!(&m.mem(0)[4..8], &[1.0, 2.0, 3.0, 4.0]);
        assert!(stats.stalls > 0, "consumer must have parked at least once");
        assert_eq!(stats.per_tile[0].stalls, stats.stalls);
    }

    #[test]
    fn blocked_thread_parks_exactly_once_per_wait() {
        // The consumer waits behind a producer burning many scalar cycles;
        // a polling scheduler would re-check every round, the event-driven
        // one parks once (a single stall) until the producer's write.
        let mut m = Machine::new(1, 16);
        let mut producer_insts = vec![Inst::Nop; 50];
        producer_insts.push(Inst::DmaLoad {
            src: MemRef::at(TileRef(0), 4),
            dst: MemRef::at(TileRef(0), 0),
            len: 1,
            accumulate: false,
        });
        producer_insts.push(Inst::Halt);
        let producer = prog("producer", producer_insts);
        let consumer = prog(
            "consumer",
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 0),
                    dst: MemRef::at(TileRef(0), 8),
                    len: 1,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 1,
            num_updates: 1,
            num_reads: 1,
        }];
        let stats = m.run(&[consumer, producer], &specs).unwrap();
        assert_eq!(stats.stalls, 1, "exactly one park for one wait");
    }

    #[test]
    fn deadlock_names_the_awaited_range() {
        // Consumer waits for an update that never comes.
        let mut m = Machine::new(1, 8);
        let consumer = prog(
            "starved",
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 0),
                    dst: MemRef::at(TileRef(0), 4),
                    len: 2,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 2,
            num_updates: 1,
            num_reads: 1,
        }];
        let err = m.run(&[consumer], &specs).unwrap_err();
        match err {
            Error::Deadlock { stuck, at } => {
                assert_eq!(stuck.len(), 1);
                assert!(
                    stuck[0].starts_with("starved"),
                    "diagnostic names the thread: {}",
                    stuck[0]
                );
                assert!(
                    stuck[0].contains("M0[0..2)"),
                    "diagnostic names the awaited range: {}",
                    stuck[0]
                );
                assert!(
                    stuck[0].contains("updates 0/1, reads 0/1"),
                    "diagnostic carries the tracker watermark: {}",
                    stuck[0]
                );
                // Lone thread parks on its first dispatch, so detection
                // happens when the queue drains at cycle 0.
                assert_eq!(at, 0);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn round_robin_oracle_matches_event_driven_state() {
        let mk_writer = |name: &str, src: u32| {
            prog(
                name,
                vec![
                    Inst::DmaStore {
                        src: MemRef::at(TileRef(0), src),
                        dst: MemRef::at(TileRef(0), 0),
                        len: 1,
                        accumulate: true,
                    },
                    Inst::Halt,
                ],
            )
        };
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 1,
            num_updates: 2,
            num_reads: 0,
        }];
        let progs = [mk_writer("w1", 1), mk_writer("w2", 2)];
        let mut event = Machine::new(1, 8);
        event.mem_mut(0)[1] = 1.5;
        event.mem_mut(0)[2] = 2.5;
        event.run(&progs, &specs).unwrap();
        let mut rr = Machine::new(1, 8);
        rr.mem_mut(0)[1] = 1.5;
        rr.mem_mut(0)[2] = 2.5;
        rr.run_round_robin(&progs, &specs).unwrap();
        assert_eq!(event.mem(0), rr.mem(0));
    }

    #[test]
    fn missing_halt_is_a_control_fault() {
        let mut m = Machine::new(1, 8);
        let p = prog("nohalt", vec![Inst::Nop]);
        let err = m.run(&[p], &[]).unwrap_err();
        assert!(matches!(err, Error::ControlFault { .. }));
    }

    #[test]
    fn accumulating_writers_commute() {
        // Two writers accumulate into the same range in either order; a
        // reader waits for both. Result independent of scheduling order.
        let mk_writer = |name: &str, src: u32| {
            prog(
                name,
                vec![
                    Inst::DmaStore {
                        src: MemRef::at(TileRef(0), src),
                        dst: MemRef::at(TileRef(0), 0),
                        len: 1,
                        accumulate: true,
                    },
                    Inst::Halt,
                ],
            )
        };
        let reader = prog(
            "reader",
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 0),
                    dst: MemRef::at(TileRef(0), 3),
                    len: 1,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 1,
            num_updates: 2,
            num_reads: 1,
        }];
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut m = Machine::new(1, 8);
            m.mem_mut(0)[1] = 10.0;
            m.mem_mut(0)[2] = 32.0;
            let progs = [mk_writer("w1", 1), mk_writer("w2", 2), reader.clone()];
            let ordered: Vec<Program> = order.iter().map(|&i| progs[i].clone()).collect();
            m.run(&ordered, &specs).unwrap();
            assert_eq!(m.mem(0)[3], 42.0, "order {order:?}");
        }
    }

    #[test]
    fn lowered_tier_matches_interpreter_bit_for_bit() {
        // Producer/consumer with trackers, scalar loops and a mix of data
        // forms: the compiled tier must reproduce the interpreter's
        // memory image AND its RunStats (instructions, stalls, cycles,
        // per-tile busy/stall split) exactly.
        let producer = prog(
            "producer",
            vec![
                Inst::Ldri {
                    rd: Reg::R0,
                    value: 2,
                },
                Inst::Subri {
                    rd: Reg::R0,
                    rs: Reg::R0,
                    imm: 1,
                },
                Inst::Bnez {
                    rs: Reg::R0,
                    offset: -2,
                },
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 8),
                    dst: MemRef::at(TileRef(0), 0),
                    len: 4,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let consumer = prog(
            "consumer",
            vec![
                Inst::NdActFn {
                    kind: scaledeep_isa::ActKind::Relu,
                    src: MemRef::at(TileRef(0), 0),
                    len: 4,
                    dst: MemRef::at(TileRef(1), 0),
                },
                Inst::Halt,
            ],
        );
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 4,
            num_updates: 1,
            num_reads: 1,
        }];
        let programs = [consumer, producer];
        let init = [-1.0f32, 2.0, -3.0, 4.0];

        let mut interp = Machine::new(2, 16);
        interp.mem_mut(0)[8..12].copy_from_slice(&init);
        let a = interp.run(&programs, &specs).unwrap();

        let lowered: Vec<LoweredProgram> =
            programs.iter().map(scaledeep_isa::micro::lower).collect();
        let mut compiled = Machine::new(2, 16);
        compiled.mem_mut(0)[8..12].copy_from_slice(&init);
        let b = compiled
            .run_lowered(
                &lowered,
                &specs,
                &CycleCosts::default(),
                &FaultPlan::none(),
                &mut Tracer::disabled(),
                None,
            )
            .unwrap();

        assert_eq!(a, b, "RunStats must be bit-identical across tiers");
        assert_eq!(interp.mem(0), compiled.mem(0));
        assert_eq!(interp.mem(1), compiled.mem(1));
        assert!(a.stalls > 0, "the consumer parked in both tiers");
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let mut m = Machine::new(1, 8);
        m.set_fuel(10);
        let p = prog("spin", vec![Inst::Branch { offset: -1 }]);
        let err = m.run(&[p], &[]).unwrap_err();
        assert!(matches!(err, Error::ControlFault { .. }));
    }

    fn copy_prog(name: &str, src: u32, dst: u32) -> Program {
        prog(
            name,
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), src),
                    dst: MemRef::at(TileRef(0), dst),
                    len: 1,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        )
    }

    /// An unobserved run under `plan` with the default cost table.
    fn run_plan(
        m: &mut Machine,
        programs: &[Program],
        specs: &[TrackerSpec],
        plan: &FaultPlan,
    ) -> Result<RunStats> {
        let costs = CycleCosts::default();
        m.run_traced(programs, specs, &costs, plan, &mut Tracer::disabled(), None)
    }

    #[test]
    fn empty_plan_matches_fault_free_run_exactly() {
        let mk = || {
            let mut m = Machine::new(1, 16);
            m.mem_mut(0)[0] = 3.0;
            m
        };
        let mut plain = mk();
        let a = plain.run(&[copy_prog("t", 0, 1)], &[]).unwrap();
        let mut faulted = mk();
        let b = run_plan(
            &mut faulted,
            &[copy_prog("t", 0, 1)],
            &[],
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(a, b, "stats must be bit-identical");
        assert_eq!(plain.mem(0), faulted.mem(0), "memory image identical");
        assert_eq!(b.faults, 0);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let mut m = Machine::new(1, 16);
        m.mem_mut(0)[5] = 1.0;
        // Flip the top mantissa bit of M0:5 before the first dispatch.
        let plan = FaultPlan::none().with_fault(
            0,
            FaultKind::BitFlip {
                tile: 0,
                addr: 5,
                bit: 22,
            },
        );
        let stats = run_plan(&mut m, &[copy_prog("t", 5, 6)], &[], &plan).unwrap();
        assert_eq!(stats.faults, 1);
        let expected = f32::from_bits(1.0f32.to_bits() ^ (1 << 22));
        assert_eq!(m.mem(0)[5], expected);
        assert_eq!(m.mem(0)[6], expected, "copy propagated the corruption");
    }

    #[test]
    fn tile_failure_faults_the_next_access() {
        let mut m = Machine::new(2, 16);
        let plan = FaultPlan::none().with_fault(0, FaultKind::TileFailure { tile: 0 });
        let err = run_plan(&mut m, &[copy_prog("t", 0, 1)], &[], &plan).unwrap_err();
        match err {
            Error::TileFailed { program, tile, .. } => {
                assert_eq!(program, "t");
                assert_eq!(tile, 0);
            }
            other => panic!("expected TileFailed, got {other}"),
        }
    }

    #[test]
    fn dropped_wakeup_strands_the_consumer() {
        // Producer satisfies the tracker, but the wake broadcast is lost:
        // the parked consumer never reruns and the drain reports deadlock
        // even though the data is actually ready.
        let mut m = Machine::new(1, 16);
        m.mem_mut(0)[4] = 9.0;
        let producer = prog(
            "producer",
            vec![
                Inst::DmaLoad {
                    src: MemRef::at(TileRef(0), 4),
                    dst: MemRef::at(TileRef(0), 0),
                    len: 1,
                    accumulate: false,
                },
                Inst::Halt,
            ],
        );
        let consumer = copy_prog("consumer", 0, 8);
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 1,
            num_updates: 1,
            num_reads: 1,
        }];
        let plan = FaultPlan::none().with_fault(0, FaultKind::DroppedWakeup { tile: 0 });
        let err = run_plan(&mut m, &[consumer, producer], &specs, &plan).unwrap_err();
        match err {
            Error::Deadlock { stuck, .. } => {
                assert_eq!(stuck.len(), 1);
                assert!(stuck[0].starts_with("consumer"), "stuck: {}", stuck[0]);
                assert!(
                    stuck[0].contains("updates 1/1"),
                    "watermark shows the data was ready: {}",
                    stuck[0]
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn watchdog_converts_hang_into_typed_error() {
        // Same lost-wakeup hang, but the producer keeps spinning so the
        // queue never drains — only the watchdog terminates the run.
        let mut m = Machine::new(1, 16);
        let spinner = prog("spinner", vec![Inst::Branch { offset: -1 }]);
        let consumer = copy_prog("consumer", 0, 8);
        let specs = [TrackerSpec {
            tile: 0,
            addr: 0,
            len: 1,
            num_updates: 1,
            num_reads: 1,
        }];
        let plan = FaultPlan::none().with_watchdog(500);
        let err = run_plan(&mut m, &[consumer, spinner], &specs, &plan).unwrap_err();
        match err {
            Error::Watchdog { stuck, at } => {
                assert!(at > 500, "fires strictly past the budget, got {at}");
                assert!(
                    stuck.iter().any(|s| s.starts_with("consumer")),
                    "parked consumer reported: {stuck:?}"
                );
                assert!(
                    stuck.iter().any(|s| s.starts_with("spinner")),
                    "live spinner reported: {stuck:?}"
                );
            }
            other => panic!("expected watchdog, got {other}"),
        }
    }
}
