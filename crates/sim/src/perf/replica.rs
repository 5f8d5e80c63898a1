//! The pipeline replica core.
//!
//! [`ReplicaCore`] is the sequential heart of the inter-layer pipeline
//! DES. The core owns all replica state — per-stage backlog, the
//! minibatch admission gate, completion counters, and the salt-keyed
//! link-retry draws — but performs no I/O of its own: hosts decide what
//! to do with each [`Step`] (push queue events, emit trace spans, mirror
//! registry counters). Two drives share it:
//!
//! * **Event-ordered**: every transition is popped off an
//!   [`EventQueue`](crate::engine::EventQueue). The single-replica host
//!   in [`super::pipeline`] uses it whenever pipeline events are recorded
//!   (exporters write events in emission order), and the node-level
//!   oracle in the [`super::node`] tests interleaves all replicas on one
//!   queue.
//! * **Image-major**: [`ReplicaCore::drain`] walks each image through
//!   every stage before admitting the next, with no queue at all. The
//!   single-replica host uses it whenever no pipeline event is recorded,
//!   and so does [`super::node::run_node`] for every replica.
//!
//! Both drives visit the same transitions with the same values, which is
//! what lets the dynamics run byte-identically under a tracer, inside a
//! global event queue, or fast-forwarded replica by replica.

use super::stage::StageCost;
use crate::engine::Cycle;
use crate::fault::LinkFaults;

/// Events of the pipeline simulation, shared by every host loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Try to admit the next image into stage 0.
    Admit,
    /// Image `img` finished stage `stage`.
    StageDone { stage: usize, img: usize },
    /// A minibatch's gradient aggregation + weight distribution completed.
    SyncDone,
}

/// Salt tag for minibatch-sync retry draws. Bit 62 keeps sync draws
/// disjoint from every stage salt.
pub(crate) const SYNC_SALT: u64 = 1 << 62;

/// Salt for the stage hand-off admitting `img` into `stage`: image index
/// in the low 32 bits, stage in bits 32..44.
pub(crate) fn stage_salt(stage: usize, img: usize) -> u64 {
    ((stage as u64) << 32) | img as u64
}

/// Per-replica salt base for node-level runs: replica index in bits
/// 44..62, so replica stage draws never collide with each other or with
/// the node-wide [`SYNC_SALT`] draws. Replica 0 reproduces the classic
/// single-replica salts exactly.
pub(crate) fn replica_salt_base(replica: usize) -> u64 {
    (replica as u64) << 44
}

/// A stage admission decided by the core: the host turns this into a
/// queue event (and, when tracing, a span plus registry counters).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageStart {
    /// Stage entered.
    pub stage: usize,
    /// Image admitted.
    pub img: usize,
    /// Cycle the stage actually starts serving (backlog-delayed).
    pub start: Cycle,
    /// Service cycles charged (≥ 1).
    pub service: Cycle,
    /// Link retries drawn for this hand-off.
    pub retries: u32,
    /// Back-off cycles those retries cost.
    pub toll: Cycle,
    /// Completion cycle (`start + service + toll`).
    pub fin: Cycle,
}

/// Outcome of one core transition.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// An image entered a stage; the host schedules its completion.
    Start(StageStart),
    /// Nothing to do: images are exhausted, or admission is blocked on a
    /// minibatch sync (the core remembers and [`ReplicaCore::sync_completed`]
    /// reports whether to re-admit).
    Gated,
    /// An image left the last stage. `batch_done` carries the sync index
    /// when this completion closed a minibatch under barrier mode.
    Done {
        /// Sync index (0-based) the completed minibatch starts, if any.
        batch_done: Option<u64>,
    },
}

/// The sequential engine core for one pipeline replica. See the module
/// docs for the host contract.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaCore<'a> {
    stages: &'a [StageCost],
    images: usize,
    minibatch: usize,
    barrier: bool,
    seed: u64,
    link: Option<&'a LinkFaults>,
    salt_base: u64,
    stage_free: Vec<Cycle>,
    next_admit: usize,
    completed: usize,
    syncs_completed: usize,
    syncs_started: u64,
    waiting_for_sync: bool,
    first_done: Cycle,
    last_done: Cycle,
    stage_admissions: Vec<u64>,
    retries: u64,
    retry_cycles: u64,
}

impl<'a> ReplicaCore<'a> {
    /// A fresh replica. `salt_base` namespaces this replica's link-retry
    /// draws (0 for the classic single-replica host).
    ///
    /// # Panics
    ///
    /// Panics when `stages` is empty or `images == 0`.
    pub(crate) fn new(
        stages: &'a [StageCost],
        images: usize,
        minibatch: usize,
        barrier: bool,
        seed: u64,
        link: Option<&'a LinkFaults>,
        salt_base: u64,
    ) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert!(images > 0, "need at least one image");
        let n = stages.len();
        Self {
            stages,
            images,
            minibatch: minibatch.max(1),
            barrier,
            seed,
            link,
            salt_base,
            stage_free: vec![0; n],
            next_admit: 0,
            completed: 0,
            syncs_completed: 0,
            syncs_started: 0,
            waiting_for_sync: false,
            first_done: 0,
            last_done: 0,
            stage_admissions: vec![0; n],
            retries: 0,
            retry_cycles: 0,
        }
    }

    /// Retry `(count, back-off cycles)` of the transfer identified by
    /// `salt`, accumulated into the core's counters. Draws are pure in
    /// `(seed, salt)`, so call order never matters.
    fn penalty(&mut self, salt: u64) -> (u32, Cycle) {
        let Some(lf) = self.link else { return (0, 0) };
        let retries = lf.retries(self.seed, self.salt_base | salt);
        if retries == 0 {
            return (0, 0);
        }
        let cost = lf.backoff_cycles(retries);
        self.retries += u64::from(retries);
        self.retry_cycles += cost;
        (retries, cost)
    }

    fn start_stage(&mut self, s: usize, img: usize, now: Cycle) -> StageStart {
        let start = self.stage_free[s].max(now);
        let service = self.stages[s].service_cycles.max(1);
        let (retries, toll) = self.penalty(stage_salt(s, img));
        let fin = start + service + toll;
        self.stage_free[s] = fin;
        self.stage_admissions[s] += 1;
        StageStart {
            stage: s,
            img,
            start,
            service,
            retries,
            toll,
            fin,
        }
    }

    /// Tries to admit the next image into stage 0 at `now`.
    pub(crate) fn admit(&mut self, now: Cycle) -> Step {
        if self.next_admit >= self.images {
            return Step::Gated;
        }
        let batch = self.next_admit / self.minibatch;
        if self.barrier && batch > self.syncs_completed {
            self.waiting_for_sync = true;
            return Step::Gated;
        }
        let img = self.next_admit;
        self.next_admit += 1;
        Step::Start(self.start_stage(0, img, now))
    }

    /// Advances `img` past `stage` at `now`: either hands it to the next
    /// stage or records its completion.
    pub(crate) fn stage_done(&mut self, now: Cycle, stage: usize, img: usize) -> Step {
        if stage + 1 < self.stages.len() {
            Step::Start(self.start_stage(stage + 1, img, now))
        } else {
            self.completed += 1;
            if self.completed == 1 {
                self.first_done = now;
            }
            self.last_done = now;
            let batch_done =
                (self.barrier && self.completed.is_multiple_of(self.minibatch)).then(|| {
                    let b = self.syncs_started;
                    self.syncs_started += 1;
                    b
                });
            Step::Done { batch_done }
        }
    }

    /// Drains this replica to quiescence for the current epoch, admitting
    /// at cycle `resume` (the post-sync release cycle, or 0 for the first
    /// epoch). Returns the cycle the epoch's minibatch closed, or 0 when
    /// no minibatch closed (evaluation, a partial tail, or no images left).
    ///
    /// The drive is image-major: admit an image, then walk it through
    /// every stage by feeding each completion straight back in. Service
    /// is at least one cycle, so each stage finishes images in admission
    /// order at strictly increasing cycles; every stage therefore sees
    /// the same arrivals in the same order as under the event-ordered
    /// drive and computes the same `max(stage_free, arrival)` fixed
    /// point, with zero queue traffic. Admission gates on the next sync,
    /// so one epoch closes at most one minibatch.
    pub(crate) fn drain(&mut self, resume: Cycle) -> Cycle {
        let mut close: Cycle = 0;
        while let Step::Start(st) = self.admit(resume) {
            let (mut stage, mut at) = (st.stage, st.fin);
            loop {
                match self.stage_done(at, stage, st.img) {
                    Step::Start(next) => (stage, at) = (next.stage, next.fin),
                    Step::Done { batch_done } => {
                        if batch_done.is_some() {
                            close = at;
                        }
                        break;
                    }
                    Step::Gated => unreachable!("stage_done never gates"),
                }
            }
        }
        close
    }

    /// Draws the retry penalty for sync `index` and prices its total
    /// delay over the base `sync` cost. Only the single-replica host in
    /// [`super::pipeline`] uses this; node-level hosts draw one node-wide
    /// penalty per barrier instead (see [`super::node`]).
    pub(crate) fn sync_penalty(&mut self, index: u64, sync: Cycle) -> (u32, Cycle, Cycle) {
        let (retries, toll) = self.penalty(SYNC_SALT | index);
        (retries, toll, sync.max(1) + toll)
    }

    /// Records a completed sync; returns whether admission was parked on
    /// it (the host then re-queues an admit).
    pub(crate) fn sync_completed(&mut self) -> bool {
        self.syncs_completed += 1;
        std::mem::take(&mut self.waiting_for_sync)
    }

    /// Images that completed all stages.
    pub(crate) fn completed(&self) -> usize {
        self.completed
    }

    /// Syncs this replica's completions have started.
    pub(crate) fn syncs_started(&self) -> u64 {
        self.syncs_started
    }

    /// Completion cycle of the first image (0 before any completion).
    pub(crate) fn first_done(&self) -> Cycle {
        self.first_done
    }

    /// Completion cycle of the latest image.
    pub(crate) fn last_done(&self) -> Cycle {
        self.last_done
    }

    /// Per-stage admission counts. Stage service times are constant, so
    /// `admissions[s] * service_cycles[s]` reconstructs busy cycles
    /// exactly — the identity the node-level merge relies on.
    pub(crate) fn stage_admissions(&self) -> &[u64] {
        &self.stage_admissions
    }

    /// Total link retries drawn on stage hand-offs (plus the sync draws
    /// of [`ReplicaCore::sync_penalty`], when a host uses it).
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Back-off cycles those retries cost.
    pub(crate) fn retry_cycles(&self) -> u64 {
        self.retry_cycles
    }
}
