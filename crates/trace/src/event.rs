//! The cycle-stamped event model: categories, typed payloads, spans and
//! instants, and the track table that names timelines.

/// Simulation time in cycles (layout-compatible with the simulator
/// engine's `Cycle`; this crate is dependency-free by design).
pub type Cycle = u64;

/// Identifies one timeline (a tile, a pipeline stage, a thread, ...) in a
/// [`TrackTable`].
pub type TrackId = u32;

/// Coarse event classes, used by the filtering layer's enable mask and by
/// the exporters' `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Category {
    /// Instruction retirement in the functional machine.
    Instruction = 0,
    /// Tracker synchronization: park/wake decisions of the engine.
    Tracker = 1,
    /// Link-transfer retries.
    Link = 2,
    /// Pipeline stage occupancy (one span per image per stage).
    Stage = 3,
    /// Injected faults and their consequences.
    Fault = 4,
    /// Host-level session events: checkpoint, remap, sync barriers.
    Session = 5,
    /// Compilation-pipeline phases (analyze → allocate-columns →
    /// partition-state → assign-compute → codegen).
    Compile = 6,
}

/// Number of categories.
pub const N_CATEGORIES: usize = 7;

impl Category {
    /// Every category, in discriminant order.
    pub const ALL: [Category; N_CATEGORIES] = [
        Category::Instruction,
        Category::Tracker,
        Category::Link,
        Category::Stage,
        Category::Fault,
        Category::Session,
        Category::Compile,
    ];

    /// The category's bit in a [`CategoryMask`].
    pub const fn bit(self) -> u16 {
        1 << self as u8
    }

    /// Short, stable name (used by `--trace-filter` and the exporters).
    pub const fn name(self) -> &'static str {
        match self {
            Category::Instruction => "inst",
            Category::Tracker => "tracker",
            Category::Link => "link",
            Category::Stage => "stage",
            Category::Fault => "fault",
            Category::Session => "session",
            Category::Compile => "compile",
        }
    }

    /// Parses a category from its [`Category::name`].
    pub fn parse(s: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// A per-category enable mask for the filtering layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(u16);

impl Default for CategoryMask {
    fn default() -> Self {
        Self::all()
    }
}

impl CategoryMask {
    /// Every category enabled.
    pub const fn all() -> Self {
        Self((1 << N_CATEGORIES as u16) - 1)
    }

    /// Nothing enabled.
    pub const fn none() -> Self {
        Self(0)
    }

    /// Exactly one category enabled.
    pub const fn just(cat: Category) -> Self {
        Self(cat.bit())
    }

    /// This mask with `cat` additionally enabled.
    #[must_use]
    pub const fn with(self, cat: Category) -> Self {
        Self(self.0 | cat.bit())
    }

    /// True when `cat` is enabled.
    pub const fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Parses a comma-separated category list (`"inst,link"`); the words
    /// `all` and `none` are accepted anywhere in the list.
    ///
    /// # Errors
    ///
    /// Returns the offending token when a name is unknown.
    pub fn parse_list(list: &str) -> Result<Self, String> {
        let mut mask = Self::none();
        for tok in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match tok {
                "all" => mask = Self::all(),
                "none" => mask = Self::none(),
                _ => match Category::parse(tok) {
                    Some(c) => mask = mask.with(c),
                    None => {
                        let known: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
                        return Err(format!(
                            "unknown trace category `{tok}` (expected one of: {}, all, none)",
                            known.join(", ")
                        ));
                    }
                },
            }
        }
        Ok(mask)
    }
}

/// The typed content of one event. Every variant is `Copy`, so emitting an
/// event never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// An instruction retired; as a span it covers the priced busy time.
    Retire {
        /// Index of the executing thread.
        thread: u16,
        /// The instruction's priced cost in cycles.
        cost: Cycle,
    },
    /// A thread parked on a not-yet-ready tracker range.
    Park {
        /// The parked thread.
        thread: u16,
        /// Tile of the (first) awaited range.
        tile: u16,
        /// Start address of the awaited range.
        addr: u32,
        /// Length of the awaited range.
        len: u32,
    },
    /// A parked thread was re-dispatched by a tracker update.
    Wake {
        /// The woken thread.
        thread: u16,
        /// Tile whose tracker update triggered the wake.
        tile: u16,
    },
    /// A link transfer suffered transient-fault retries.
    Retry {
        /// Number of retries charged.
        retries: u32,
        /// Total back-off cycles charged.
        cost: Cycle,
    },
    /// One image occupying one pipeline stage (span).
    Stage {
        /// Stage index in the pipeline.
        stage: u16,
        /// Image index.
        image: u32,
    },
    /// A minibatch gradient-aggregation barrier (span).
    Sync {
        /// Barrier index within the run.
        index: u32,
    },
    /// An injected fault struck.
    Fault {
        /// Stable fault-kind name (e.g. `"tile_failure"`).
        kind: &'static str,
        /// Tile the fault targets.
        tile: u16,
    },
    /// The host snapshotted the learning state.
    Checkpoint,
    /// The host recompiled around dead tiles and restored the checkpoint.
    Remap {
        /// Number of tiles excluded from the degraded layout.
        dead_tiles: u16,
    },
    /// One compilation-pipeline phase ran (span; the timestamp is the
    /// phase's ordinal, not a machine cycle — compilation happens on the
    /// host, outside simulated time).
    Phase {
        /// Stable phase name (`"analyze"`, `"allocate-columns"`, ...).
        phase: &'static str,
    },
}

impl Payload {
    /// The category this payload belongs to.
    pub const fn category(&self) -> Category {
        match self {
            Payload::Retire { .. } => Category::Instruction,
            Payload::Park { .. } | Payload::Wake { .. } => Category::Tracker,
            Payload::Retry { .. } => Category::Link,
            Payload::Stage { .. } => Category::Stage,
            Payload::Fault { .. } => Category::Fault,
            Payload::Sync { .. } | Payload::Checkpoint | Payload::Remap { .. } => Category::Session,
            Payload::Phase { .. } => Category::Compile,
        }
    }

    /// Short, stable event name (the exporters' `name` field).
    pub const fn name(&self) -> &'static str {
        match self {
            Payload::Retire { .. } => "retire",
            Payload::Park { .. } => "park",
            Payload::Wake { .. } => "wake",
            Payload::Retry { .. } => "retry",
            Payload::Stage { .. } => "stage",
            Payload::Sync { .. } => "sync",
            Payload::Fault { .. } => "fault",
            Payload::Checkpoint => "checkpoint",
            Payload::Remap { .. } => "remap",
            Payload::Phase { .. } => "phase",
        }
    }
}

/// One cycle-stamped event on one track: a span when `dur > 0`, an
/// instant when `dur == 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Start cycle.
    pub at: Cycle,
    /// Duration in cycles; `0` marks an instant.
    pub dur: Cycle,
    /// The timeline this event belongs to.
    pub track: TrackId,
    /// Typed content.
    pub payload: Payload,
}

impl Event {
    /// A duration event.
    pub const fn span(at: Cycle, dur: Cycle, track: TrackId, payload: Payload) -> Self {
        Self {
            at,
            dur,
            track,
            payload,
        }
    }

    /// A zero-duration event.
    pub const fn instant(at: Cycle, track: TrackId, payload: Payload) -> Self {
        Self {
            at,
            dur: 0,
            track,
            payload,
        }
    }

    /// True for duration events.
    pub const fn is_span(&self) -> bool {
        self.dur > 0
    }
}

/// Maps track names to dense [`TrackId`]s; the exporters read names back
/// for the Perfetto thread-name metadata and the CSV `track` column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackTable {
    names: Vec<String>,
}

impl TrackTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, registering it on first use. Ids are
    /// assigned in registration order, so a deterministic instrumentation
    /// order yields deterministic ids.
    pub fn track(&mut self, name: &str) -> TrackId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as TrackId;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as TrackId
    }

    /// The name of `id` (`"?"` for unknown ids).
    pub fn name(&self, id: TrackId) -> &str {
        self.names.get(id as usize).map_or("?", String::as_str)
    }

    /// Number of registered tracks.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no track is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TrackId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as TrackId, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.name()), Some(c));
        }
        assert_eq!(Category::parse("bogus"), None);
    }

    #[test]
    fn mask_parses_lists() {
        let m = CategoryMask::parse_list("inst, link").unwrap();
        assert!(m.contains(Category::Instruction));
        assert!(m.contains(Category::Link));
        assert!(!m.contains(Category::Stage));
        assert_eq!(
            CategoryMask::parse_list("all").unwrap(),
            CategoryMask::all()
        );
        assert_eq!(CategoryMask::parse_list("").unwrap(), CategoryMask::none());
        assert!(CategoryMask::parse_list("inst,nope").is_err());
    }

    #[test]
    fn payload_categories_are_stable() {
        assert_eq!(
            Payload::Retire { thread: 0, cost: 1 }.category(),
            Category::Instruction
        );
        assert_eq!(Payload::Checkpoint.category(), Category::Session);
        assert_eq!(
            Payload::Fault {
                kind: "bit_flip",
                tile: 3
            }
            .name(),
            "fault"
        );
    }

    #[test]
    fn track_table_interns_names() {
        let mut t = TrackTable::new();
        let a = t.track("tile0");
        let b = t.track("tile1");
        assert_ne!(a, b);
        assert_eq!(t.track("tile0"), a);
        assert_eq!(t.name(b), "tile1");
        assert_eq!(t.name(99), "?");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn spans_and_instants() {
        let s = Event::span(10, 5, 0, Payload::Sync { index: 0 });
        assert!(s.is_span());
        let i = Event::instant(10, 0, Payload::Checkpoint);
        assert!(!i.is_span());
    }
}
