//! Sharded conservative parallel discrete-event engine.
//!
//! The paper's full node is 20 chips / ~7,000 tiles in 4 ring clusters,
//! and both simulators run it on a single event queue. This module
//! partitions that work into **event shards** that run the existing
//! sequential engine cores on their own threads, synchronized only at
//! the boundaries where the architecture itself synchronizes:
//!
//! * [`node`] — the node-level performance engine. Each concurrent
//!   pipeline replica (chip/cluster group) is an event shard built on
//!   the same [`ReplicaCore`](crate::perf) state machine and the same
//!   image-major walk the single-replica performance model uses. Replicas couple **only** at minibatch
//!   weight syncs (wheel-arc + ring reductions, paper §3.3) whose fixed
//!   latencies define the conservative lookahead window, so the engine
//!   runs barrier-per-window: every shard drains one whole minibatch
//!   epoch, a node barrier max-reduces the epoch close time, and all
//!   shards resume at the common post-sync cycle. Because the pipeline
//!   fully drains at every sync, the barrier is not merely conservative
//!   but *exact* — same-seed runs are bit-identical to the sequential
//!   oracle [`node::run_node_sequential`].
//! * [`func`] — the functional machine sharded by tile connectivity.
//!   Threads interact only through the scratchpads they touch (tracker
//!   wakes, DMA, accumulation), and every operand's tile is static in
//!   the ISA, so an exact static footprint scan partitions the machine
//!   into connected components that share no state at all. Each
//!   component group runs the unmodified sequential engine on its own
//!   thread; the merge re-assembles bit-identical `RunStats` and memory
//!   images, with the unsharded [`Machine`](crate::func::Machine) as
//!   the oracle.
//!
//! In both engines the sequential core **is** the parallel core — the
//! shards run the same state machines on the same salts and the same
//! fault plans, so bit-identity is by construction, enforced by oracle
//! tests and the CI `par-check` job rather than by hope.

pub mod func;
pub mod node;

pub use func::run_func_sharded;
pub use node::{run_node_sequential, run_node_sharded, NodeModel, NodeOutcome};

/// The automatic shard count: the cores available to this process, the
/// default wherever `--shards 0`/"auto" is selected.
pub fn available_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
