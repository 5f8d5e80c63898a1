//! The pipeline replica core.
//!
//! [`ReplicaCore`] is the sequential heart of the inter-layer pipeline
//! DES. The core owns all replica state — per-stage backlog, the
//! minibatch admission gate, completion counters, and the salt-keyed
//! link-retry draws — but performs no I/O of its own: the two drives in
//! [`super::node`] decide what to do with each [`Step`]. Both run every
//! replica of a [`NodeModel`]:
//!
//! * **Image-major** ([`super::node::run_node`]): [`ReplicaCore::drain`]
//!   walks each image through every stage before admitting the next,
//!   with no queue at all, one minibatch epoch per call.
//! * **Event-ordered** ([`super::node::run_node_event_ordered`]): every
//!   transition of every replica is popped off one
//!   [`EventQueue`](crate::engine::EventQueue), and each stage admission
//!   becomes a trace span. Recorded runs take it, because the exporters
//!   write events in emission order.
//!
//! Both drives visit the same transitions with the same values, so each
//! is the other's oracle. Minibatch syncs are node-wide and priced by the
//! drives, not by the core.

use super::node::NodeModel;
use crate::engine::Cycle;

/// Salt tag for minibatch-sync retry draws. Bit 62 keeps sync draws
/// disjoint from every stage salt.
pub(crate) const SYNC_SALT: u64 = 1 << 62;

/// Salt for the stage hand-off admitting `img` into `stage`: image index
/// in the low 32 bits, stage in bits 32..44.
fn stage_salt(stage: usize, img: usize) -> u64 {
    ((stage as u64) << 32) | img as u64
}

/// A stage admission decided by the core: the drive turns this into a
/// queue event (and, when recording, a span).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageStart {
    /// Stage entered.
    pub stage: usize,
    /// Image admitted.
    pub img: usize,
    /// Cycle the stage actually starts serving (backlog-delayed).
    pub start: Cycle,
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
    /// An image entered a stage; the drive schedules its completion.
    Start(StageStart),
    /// Nothing to do: images are exhausted, or admission is blocked on a
    /// minibatch sync (the core remembers and [`ReplicaCore::sync_completed`]
    /// reports whether to re-admit).
    Gated,
    /// An image left the last stage.
    Done {
        /// Whether this completion closed a minibatch under barrier mode.
        closes_batch: bool,
    },
}

/// The sequential engine core for one pipeline replica. See the module
/// docs for the drive contract.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaCore<'a> {
    model: &'a NodeModel,
    minibatch: usize,
    salt_base: u64,
    stage_free: Vec<Cycle>,
    next_admit: usize,
    completed: usize,
    syncs_completed: usize,
    waiting_for_sync: bool,
    first_done: Cycle,
    last_done: Cycle,
    stage_admissions: Vec<u64>,
    retries: u64,
    retry_cycles: u64,
}

impl<'a> ReplicaCore<'a> {
    /// Replica `replica` of `model`, fresh. The replica index lands in
    /// bits 44..62 of every link-retry salt, so replica stage draws never
    /// collide with each other or with the node-wide [`SYNC_SALT`] draws;
    /// replica 0 draws on the bare stage salts.
    ///
    /// # Panics
    ///
    /// Panics when the model has no stages or no images.
    pub(crate) fn new(model: &'a NodeModel, replica: usize) -> Self {
        assert!(
            !model.stages.is_empty(),
            "pipeline needs at least one stage"
        );
        assert!(model.images > 0, "need at least one image");
        let n = model.stages.len();
        Self {
            model,
            minibatch: model.minibatch.max(1),
            salt_base: (replica as u64) << 44,
            stage_free: vec![0; n],
            next_admit: 0,
            completed: 0,
            syncs_completed: 0,
            waiting_for_sync: false,
            first_done: 0,
            last_done: 0,
            stage_admissions: vec![0; n],
            retries: 0,
            retry_cycles: 0,
        }
    }

    /// Retry `(count, back-off cycles)` of the hand-off identified by
    /// `salt`, accumulated into the core's counters. Draws are pure in
    /// `(seed, salt)`, so call order never matters.
    fn penalty(&mut self, salt: u64) -> (u32, Cycle) {
        let Some(lf) = &self.model.link else {
            return (0, 0);
        };
        let retries = lf.retries(self.model.seed, self.salt_base | salt);
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
        let service = self.model.stages[s].service_cycles.max(1);
        let (retries, toll) = self.penalty(stage_salt(s, img));
        let fin = start + service + toll;
        self.stage_free[s] = fin;
        self.stage_admissions[s] += 1;
        StageStart {
            stage: s,
            img,
            start,
            retries,
            toll,
            fin,
        }
    }

    /// Tries to admit the next image into stage 0 at `now`.
    pub(crate) fn admit(&mut self, now: Cycle) -> Step {
        if self.next_admit >= self.model.images {
            return Step::Gated;
        }
        let batch = self.next_admit / self.minibatch;
        if self.model.barrier && batch > self.syncs_completed {
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
        if stage + 1 < self.model.stages.len() {
            Step::Start(self.start_stage(stage + 1, img, now))
        } else {
            self.completed += 1;
            if self.completed == 1 {
                self.first_done = now;
            }
            self.last_done = now;
            Step::Done {
                closes_batch: self.model.barrier && self.completed.is_multiple_of(self.minibatch),
            }
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
                    Step::Done { closes_batch } => {
                        if closes_batch {
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

    /// Records a completed sync; returns whether admission was parked on
    /// it (the drive then re-queues an admit).
    pub(crate) fn sync_completed(&mut self) -> bool {
        self.syncs_completed += 1;
        std::mem::take(&mut self.waiting_for_sync)
    }

    /// Images that completed all stages.
    pub(crate) fn completed(&self) -> usize {
        self.completed
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

    /// Total link retries drawn on this replica's stage hand-offs.
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Back-off cycles those retries cost.
    pub(crate) fn retry_cycles(&self) -> u64 {
        self.retry_cycles
    }
}
