//! The ScaleDeep instruction set (paper §3.2.2, Figure 8).
//!
//! Each CompHeavy tile runs a single thread whose program is stored in its
//! instruction memory. The ISA has 28 instructions in 5 groups:
//!
//! 1. **Scalar control** — register loads, ALU ops and branches executed on
//!    the tile's in-order scalar PE (loop tests, pointer arithmetic).
//! 2. **Coarse-grained data** — `NDCONV` / `MATMUL`, executed on the 2D PE
//!    array.
//! 3. **MemHeavy offload** — high Bytes/FLOP operations (activation
//!    functions, sampling, accumulation, the FC weight-gradient
//!    scale-accumulate) dispatched to a connected MemHeavy tile's SFUs.
//! 4. **MemHeavy data transfer** — DMA between MemHeavy tiles and external
//!    memory, prefetches, and neighbor FIFO passes.
//! 5. **Data-flow tracking** — `MEMTRACK` arming of hardware access-sequence
//!    trackers, ScaleDeep's synchronization primitive (§3.2.4).
//!
//! Since ScaleDeep targets static data flow, data instructions carry their
//! geometry as immediates resolved by the compiler's workload-mapping phase;
//! addresses may still be register-indirect ([`Addr::Reg`]) for loop-carried
//! address arithmetic.
//!
//! # Example
//!
//! ```
//! use scaledeep_isa::{Inst, Program, Reg};
//!
//! let prog = Program::new(
//!     "demo",
//!     vec![
//!         Inst::Ldri { rd: Reg::R0, value: 3 },
//!         Inst::Subri { rd: Reg::R0, rs: Reg::R0, imm: 1 },
//!         Inst::Bnez { rs: Reg::R0, offset: -1 },
//!         Inst::Halt,
//!     ],
//! );
//! let bytes = prog.encode();
//! let back = Program::decode("demo", &bytes)?;
//! assert_eq!(prog, back);
//! # Ok::<(), scaledeep_isa::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disasm;
mod encode;
mod error;
mod inst;
pub mod micro;
mod program;
mod reg;

pub use error::{Error, Result};
pub use inst::{ActKind, Addr, DmaDir, Inst, InstGroup, MemRef, PoolMode, TileRef, EXT_MEM_TILE};
pub use micro::{samp_out, Loc, LoweredProgram, MicroOp};
pub use program::Program;
pub use reg::{Reg, NUM_REGS};
