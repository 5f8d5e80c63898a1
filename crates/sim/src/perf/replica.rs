//! The pipeline replica core.
//!
//! [`ReplicaCore`] is the sequential heart of the inter-layer pipeline
//! DES. The core owns all replica state — per-stage backlog, the
//! minibatch admission gate, completion counters, and the salt-keyed
//! link-retry draws — but performs no I/O of its own: the two drives in
//! [`super::node`] decide what to do with each [`Step`]. Both run every
//! replica of a [`NodeModel`]:
//!
//! * **Epoch at a time** ([`super::node::run_node`]): [`ReplicaCore::drain`]
//!   settles one minibatch epoch per call, with no queue at all. A
//!   fault-free epoch is a tandem line with constant service times, so
//!   its whole state follows in closed form from one pass over the
//!   stages (image `i` leaves stage `k` at `r + S_k + i·M_k`; see
//!   `closed_form_epoch`). Under link faults every hand-off draws its own
//!   toll, and the epoch is walked image by image instead: each image
//!   through every stage before the next is admitted.
//! * **Event-ordered** ([`super::node::run_node_event_ordered`]): every
//!   transition of every replica is popped off one
//!   [`EventQueue`](crate::engine::EventQueue), and each stage admission
//!   becomes a trace span. Recorded runs take it, because the exporters
//!   write events in emission order.
//!
//! Both drives leave the same replica state, so the event-ordered drive
//! is the oracle of the closed form and of the walk alike. Minibatch
//! syncs are node-wide and priced by the drives, not by the core.

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
    /// A fault-free epoch is computed in closed form in one pass over the
    /// stages ([`ReplicaCore::closed_form_epoch`]); under link faults each
    /// hand-off draws its own toll, and the epoch is walked image by image
    /// ([`ReplicaCore::walk_epoch`]). Admission gates on the next sync, so
    /// one epoch closes at most one minibatch.
    pub(crate) fn drain(&mut self, resume: Cycle) -> Cycle {
        if self.model.link.is_some() {
            self.walk_epoch(resume)
        } else {
            self.closed_form_epoch(resume)
        }
    }

    /// The fault-free epoch in closed form. The epoch admits `B` images at
    /// cycle `r` into an empty pipeline (every `stage_free ≤ r`). Image
    /// `i` leaves stage `k` at `C(i, k) = max(C(i, k−1), C(i−1, k)) + s_k`
    /// with `s_k = max(service_cycles, 1)`: `r` plus the heaviest monotone
    /// lattice path from `(0, 0)` to `(i, k)`. Every such path visits each
    /// stage up to `k` and makes `i` extra visits; the heaviest makes them
    /// all on the slowest stage, so `C(i, k) = r + S_k + i·M_k`, where `S_k`
    /// and `M_k` are the prefix sum and prefix max of `s`. The method leaves exactly the state
    /// [`ReplicaCore::walk_epoch`] would.
    ///
    /// The pipeline is empty at every epoch start: the first epoch starts
    /// at 0 on a fresh core, and each later one at the sync release
    /// `G_b = S_b + delay ≥ S_b + 1`, after every replica's last image
    /// left its last stage.
    fn closed_form_epoch(&mut self, r: Cycle) -> Cycle {
        debug_assert!(
            self.stage_free.iter().all(|&free| free <= r),
            "an epoch starts on an empty pipeline"
        );
        let images = self.model.images;
        let admissible = if self.model.barrier {
            images.min(self.minibatch * (self.syncs_completed + 1))
        } else {
            images
        };
        let batch = admissible.saturating_sub(self.next_admit);
        self.next_admit += batch;
        // The walk's next admit parks on the sync gate unless the images
        // are exhausted.
        self.waiting_for_sync = self.model.barrier && self.next_admit < images;
        if batch == 0 {
            return 0;
        }
        let extra = batch as Cycle - 1;
        let (mut sum, mut max) = (r, 0);
        for ((free, admissions), st) in self
            .stage_free
            .iter_mut()
            .zip(&mut self.stage_admissions)
            .zip(&self.model.stages)
        {
            let service = st.service_cycles.max(1);
            sum += service;
            max = max.max(service);
            *free = sum + extra * max;
            *admissions += batch as u64;
        }
        let before = self.completed;
        self.completed += batch;
        if before == 0 {
            self.first_done = sum;
        }
        self.last_done = sum + extra * max;
        // The last minibatch boundary this epoch crossed, if any.
        let boundary = self.completed / self.minibatch * self.minibatch;
        if self.model.barrier && boundary > before {
            sum + (boundary - before - 1) as Cycle * max
        } else {
            0
        }
    }

    /// The image-major epoch walk: admit an image, then walk it through
    /// every stage by feeding each completion straight back in. Service
    /// is at least one cycle, so each stage finishes images in admission
    /// order at strictly increasing cycles; every stage therefore sees
    /// the same arrivals in the same order as under the event-ordered
    /// drive and computes the same `max(stage_free, arrival)` fixed
    /// point, with zero queue traffic.
    fn walk_epoch(&mut self, resume: Cycle) -> Cycle {
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
