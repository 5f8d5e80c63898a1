//! The live-progress plane: a bounded, non-blocking channel of
//! [`ProgressUpdate`]s harvested from the event stream by a [`ProgressSink`].
//!
//! The sink is a leaf: it records no events, only folds the progress
//! categories into rare updates — phase entered, sync window completed,
//! cycles retired (one update per 4096 retire events), fault/retry
//! counts — and pushes them through a [`ProgressSender`] that **never
//! blocks**: when the bounded queue is full the oldest update is dropped
//! and counted, so a slow consumer can only lose history, never stall the
//! producer.

use crate::event::{Category, Cycle, Event, Payload};
use crate::sink::TraceSink;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What a [`ProgressUpdate`] reports. Every variant is `Copy`; the string
/// payloads are `'static` names from the instrumentation, so building an
/// update never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressKind {
    /// The job was admitted to a queue (host-level; emitted by the server,
    /// not the sink).
    Queued,
    /// An execution attempt started (host-level).
    Attempt {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A compilation-pipeline phase was entered.
    Phase {
        /// Stable phase name (`"analyze"`, `"codegen"`, ...).
        phase: &'static str,
    },
    /// A minibatch sync window completed.
    Sync {
        /// Barrier index within the run.
        index: u32,
    },
    /// Instructions retired so far (one update per 4096 retire events).
    Cycles {
        /// Cumulative retired-instruction count at this point.
        retired: u64,
    },
    /// The host snapshotted learning state.
    Checkpoint,
    /// The host recompiled around dead tiles.
    Remap {
        /// Tiles excluded from the degraded layout.
        dead_tiles: u16,
    },
    /// An injected fault struck.
    Fault {
        /// Stable fault-kind name.
        kind: &'static str,
    },
}

impl ProgressKind {
    /// Short, stable wire name.
    pub const fn name(&self) -> &'static str {
        match self {
            ProgressKind::Queued => "queued",
            ProgressKind::Attempt { .. } => "attempt",
            ProgressKind::Phase { .. } => "phase",
            ProgressKind::Sync { .. } => "sync",
            ProgressKind::Cycles { .. } => "cycles",
            ProgressKind::Checkpoint => "checkpoint",
            ProgressKind::Remap { .. } => "remap",
            ProgressKind::Fault { .. } => "fault",
        }
    }

    /// The kind's numeric detail, when it has one (attempt number, sync
    /// index, retired count, dead-tile count).
    pub const fn value(&self) -> Option<u64> {
        match self {
            ProgressKind::Attempt { attempt } => Some(*attempt as u64),
            ProgressKind::Sync { index } => Some(*index as u64),
            ProgressKind::Cycles { retired } => Some(*retired),
            ProgressKind::Remap { dead_tiles } => Some(*dead_tiles as u64),
            _ => None,
        }
    }

    /// The kind's string detail, when it has one (phase name, fault kind).
    pub const fn label(&self) -> Option<&'static str> {
        match self {
            ProgressKind::Phase { phase } => Some(phase),
            ProgressKind::Fault { kind } => Some(kind),
            _ => None,
        }
    }
}

/// One progress point: a sequence-numbered, cycle-stamped [`ProgressKind`]
/// plus a snapshot of the cumulative sync/fault/retry counters at emission
/// time. Sequence numbers are per-channel and strictly monotonic; a gap
/// means updates were dropped by the bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressUpdate {
    /// Channel-wide emission ordinal (starts at 0, strictly increasing).
    pub seq: u64,
    /// Simulation cycle of the underlying event (0 for host-level kinds).
    pub cycle: Cycle,
    /// What happened.
    pub kind: ProgressKind,
    /// Sync windows completed so far.
    pub syncs: u64,
    /// Faults observed so far.
    pub faults: u64,
    /// Link retries charged so far.
    pub retries: u64,
}

/// Shared state behind a progress channel.
#[derive(Debug)]
struct Shared {
    queue: Mutex<VecDeque<ProgressUpdate>>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    syncs: AtomicU64,
    faults: AtomicU64,
    retries: AtomicU64,
}

/// The producing half of a progress channel. Cloneable (host and sink can
/// both hold one); every method is non-blocking and lock-light.
#[derive(Debug, Clone)]
pub struct ProgressSender {
    shared: Arc<Shared>,
}

/// The consuming half of a progress channel.
#[derive(Debug, Clone)]
pub struct ProgressReceiver {
    shared: Arc<Shared>,
}

/// Creates a bounded progress channel. `capacity` bounds the number of
/// undrained updates; when full, the **oldest** update is evicted (and
/// counted) so the queue always holds the freshest view. A zero capacity
/// drops everything.
pub fn progress_channel(capacity: usize) -> (ProgressSender, ProgressReceiver) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        capacity,
        seq: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        syncs: AtomicU64::new(0),
        faults: AtomicU64::new(0),
        retries: AtomicU64::new(0),
    });
    (
        ProgressSender {
            shared: Arc::clone(&shared),
        },
        ProgressReceiver { shared },
    )
}

impl ProgressSender {
    /// Emits one update: assigns the next sequence number, snapshots the
    /// cumulative counters, and enqueues. Never blocks; evicts the oldest
    /// queued update (counting it dropped) when the queue is full.
    pub fn push(&self, cycle: Cycle, kind: ProgressKind) {
        let s = &self.shared;
        let seq = s.seq.fetch_add(1, Ordering::Relaxed);
        let update = ProgressUpdate {
            seq,
            cycle,
            kind,
            syncs: s.syncs.load(Ordering::Relaxed),
            faults: s.faults.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
        };
        let mut q = s.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if s.capacity == 0 {
            s.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if q.len() == s.capacity {
            q.pop_front();
            s.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(update);
    }

    /// Counts a completed sync window.
    pub fn count_sync(&self) {
        self.shared.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an observed fault.
    pub fn count_fault(&self) {
        self.shared.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` link retries.
    pub fn count_retries(&self, n: u64) {
        self.shared.retries.fetch_add(n, Ordering::Relaxed);
    }
}

impl ProgressReceiver {
    /// Removes and returns every queued update, oldest first.
    pub fn drain(&self) -> Vec<ProgressUpdate> {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.drain(..).collect()
    }

    /// True when no update is queued.
    pub fn is_empty(&self) -> bool {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }

    /// Updates evicted by the bounded queue so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Total updates ever emitted (drained, queued, or dropped).
    pub fn emitted(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }
}

/// One cycles update per this many retire events.
const RETIRE_SAMPLE: u64 = 4096;

/// The progress sink: folds the event stream into [`ProgressUpdate`]s and
/// records nothing else. It wants only the progress categories, so every
/// other event is skipped at its call site.
#[derive(Debug)]
pub struct ProgressSink {
    sender: ProgressSender,
    retired: u64,
}

impl ProgressSink {
    /// A sink reporting through `sender`.
    pub fn new(sender: ProgressSender) -> Self {
        Self { sender, retired: 0 }
    }
}

impl TraceSink for ProgressSink {
    #[inline]
    fn wants(&self, cat: Category) -> bool {
        matches!(
            cat,
            Category::Session
                | Category::Compile
                | Category::Fault
                | Category::Link
                | Category::Instruction
        )
    }

    fn emit(&mut self, ev: Event) {
        match ev.payload {
            Payload::Sync { index } => {
                self.sender.count_sync();
                self.sender
                    .push(ev.at + ev.dur, ProgressKind::Sync { index });
            }
            Payload::Retire { .. } => {
                self.retired += 1;
                // The 1st, the (N+1)th, the (2N+1)th, ... retire event.
                if self.retired % RETIRE_SAMPLE == 1 {
                    self.sender.push(
                        ev.at + ev.dur,
                        ProgressKind::Cycles {
                            retired: self.retired,
                        },
                    );
                }
            }
            Payload::Retry { retries, .. } => {
                self.sender.count_retries(u64::from(retries));
            }
            Payload::Fault { kind, .. } => {
                self.sender.count_fault();
                self.sender.push(ev.at, ProgressKind::Fault { kind });
            }
            Payload::Phase { phase } => {
                self.sender.push(ev.at, ProgressKind::Phase { phase });
            }
            Payload::Checkpoint => {
                self.sender.push(ev.at, ProgressKind::Checkpoint);
            }
            Payload::Remap { dead_tiles } => {
                self.sender.push(ev.at, ProgressKind::Remap { dead_tiles });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync(i: u32, at: Cycle) -> Event {
        Event::span(at, 10, 0, Payload::Sync { index: i })
    }

    #[test]
    fn channel_assigns_monotonic_seq_and_snapshots_counters() {
        let (tx, rx) = progress_channel(16);
        tx.count_sync();
        tx.push(5, ProgressKind::Checkpoint);
        tx.count_sync();
        tx.count_retries(3);
        tx.push(9, ProgressKind::Queued);
        let got = rx.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 0);
        assert_eq!(got[1].seq, 1);
        assert_eq!(got[0].syncs, 1);
        assert_eq!(got[1].syncs, 2);
        assert_eq!(got[1].retries, 3);
        assert_eq!(rx.emitted(), 2);
        assert!(rx.is_empty());
    }

    #[test]
    fn full_channel_evicts_oldest_and_counts_drops() {
        let (tx, rx) = progress_channel(2);
        for i in 0..5u32 {
            tx.push(u64::from(i), ProgressKind::Sync { index: i });
        }
        assert_eq!(rx.dropped(), 3);
        let kept: Vec<u64> = rx.drain().iter().map(|u| u.seq).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(rx.emitted(), 5);
    }

    #[test]
    fn zero_capacity_channel_drops_everything() {
        let (tx, rx) = progress_channel(0);
        tx.push(0, ProgressKind::Checkpoint);
        assert_eq!(rx.dropped(), 1);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn sink_reports_every_sync_and_counts_all() {
        let (tx, rx) = progress_channel(64);
        let mut s = ProgressSink::new(tx);
        for i in 0..7u32 {
            s.emit(sync(i, u64::from(i) * 100));
        }
        let got = rx.drain();
        let indices: Vec<u64> = got.iter().filter_map(|u| u.kind.value()).collect();
        assert_eq!(indices, (0..7).collect::<Vec<u64>>());
        // the final update reports every completed window.
        assert_eq!(got.last().map(|u| u.syncs), Some(7));
        // sync cycle stamps the window END (at + dur).
        assert_eq!(got[0].cycle, 10);
    }

    #[test]
    fn sink_subsamples_retires_with_cumulative_totals() {
        let (tx, rx) = progress_channel(64);
        let mut s = ProgressSink::new(tx);
        for i in 0..8193u64 {
            s.emit(Event::span(i, 1, 0, Payload::Retire { thread: 0, cost: 1 }));
        }
        let retired: Vec<u64> = rx.drain().iter().filter_map(|u| u.kind.value()).collect();
        assert_eq!(retired, vec![1, 4097, 8193]);
    }

    #[test]
    fn faults_and_retries_feed_counters() {
        let (tx, rx) = progress_channel(64);
        let mut s = ProgressSink::new(tx);
        s.emit(Event::instant(
            7,
            0,
            Payload::Retry {
                retries: 2,
                cost: 40,
            },
        ));
        s.emit(Event::instant(
            9,
            0,
            Payload::Fault {
                kind: "bit_flip",
                tile: 3,
            },
        ));
        let got = rx.drain();
        assert_eq!(got.len(), 1); // retries count but don't emit updates
        assert_eq!(got[0].kind.name(), "fault");
        assert_eq!(got[0].kind.label(), Some("bit_flip"));
        assert_eq!(got[0].retries, 2);
        assert_eq!(got[0].faults, 1);
    }

    #[test]
    fn kind_accessors_are_stable() {
        assert_eq!(ProgressKind::Queued.name(), "queued");
        assert_eq!(ProgressKind::Attempt { attempt: 2 }.value(), Some(2));
        assert_eq!(
            ProgressKind::Phase { phase: "analyze" }.label(),
            Some("analyze")
        );
        assert_eq!(ProgressKind::Checkpoint.value(), None);
        assert_eq!(ProgressKind::Remap { dead_tiles: 4 }.value(), Some(4));
    }
}
