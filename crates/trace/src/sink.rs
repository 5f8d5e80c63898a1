//! Sinks consume [`Event`]s: the no-op [`NullSink`] and the recording
//! [`VecSink`] with its category mask. The [`Tracer`] front-end owns a
//! sink plus the track table and is what instrumented code talks to.

use crate::event::{Category, CategoryMask, Cycle, Event, Payload, TrackId, TrackTable};

/// A consumer of trace events.
///
/// Implementations should keep [`TraceSink::wants`] cheap: instrumented hot
/// loops call it before building payloads, so a sink that statically returns
/// `false` (see [`NullSink`]) makes disabled tracing free.
pub trait TraceSink {
    /// True when this sink records anything at all. Call sites may use this
    /// to skip work (e.g. track-name formatting) wholesale.
    #[inline]
    fn is_active(&self) -> bool {
        true
    }

    /// True when events of `cat` should be built and emitted.
    fn wants(&self, cat: Category) -> bool;

    /// Records one event. Only called for categories where
    /// [`TraceSink::wants`] returned `true` (call sites guard), but
    /// implementations must tolerate any event.
    fn emit(&mut self, ev: Event);
}

/// A sink that records nothing; `wants` is statically `false`, so guarded
/// call sites compile down to a branch on a constant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn is_active(&self) -> bool {
        false
    }

    #[inline]
    fn wants(&self, _cat: Category) -> bool {
        false
    }

    #[inline]
    fn emit(&mut self, _ev: Event) {}
}

/// The recording sink: an unbounded in-memory event list behind a
/// per-category mask. Events of a category outside the mask are never
/// built or kept; every other event is. The sink counts as active for
/// any mask, so a tracer interns its tracks whatever the mask.
#[derive(Debug, Clone, PartialEq)]
pub struct VecSink {
    events: Vec<Event>,
    mask: CategoryMask,
}

impl Default for VecSink {
    fn default() -> Self {
        Self::masked(CategoryMask::all())
    }
}

impl VecSink {
    /// An empty sink recording every category.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink recording only the categories in `mask`.
    pub fn masked(mask: CategoryMask) -> Self {
        Self {
            events: Vec::new(),
            mask,
        }
    }

    /// The recorded events in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, returning its events in emission order.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn wants(&self, cat: Category) -> bool {
        self.mask.contains(cat)
    }

    #[inline]
    fn emit(&mut self, ev: Event) {
        if self.mask.contains(ev.payload.category()) {
            self.events.push(ev);
        }
    }
}

/// The front-end instrumented code holds: a sink plus the [`TrackTable`]
/// naming its timelines.
#[derive(Debug)]
pub struct Tracer<S> {
    sink: S,
    tracks: TrackTable,
}

impl Tracer<NullSink> {
    /// A tracer that records nothing; the zero-cost default for untraced
    /// runs.
    pub fn disabled() -> Self {
        Self::new(NullSink)
    }
}

impl<S: TraceSink> Tracer<S> {
    /// Wraps `sink` with an empty track table.
    pub fn new(sink: S) -> Self {
        Self {
            sink,
            tracks: TrackTable::new(),
        }
    }

    /// True when the sink records anything; use to skip setup work (track
    /// naming, payload derivation) wholesale.
    #[inline]
    pub fn active(&self) -> bool {
        self.sink.is_active()
    }

    /// True when `cat` events should be built and emitted.
    #[inline]
    pub fn wants(&self, cat: Category) -> bool {
        self.sink.wants(cat)
    }

    /// Interns a track name. Returns track `0` without touching the table
    /// when the tracer is inactive, so call sites can name tracks
    /// unconditionally without paying for string formatting... provided
    /// they build the name lazily (`tracer.active()` guard) — this method
    /// merely avoids growing the table.
    pub fn track(&mut self, name: &str) -> TrackId {
        if !self.sink.is_active() {
            return 0;
        }
        self.tracks.track(name)
    }

    /// Emits a duration event.
    #[inline]
    pub fn span(&mut self, at: Cycle, dur: Cycle, track: TrackId, payload: Payload) {
        if self.sink.wants(payload.category()) {
            self.sink.emit(Event::span(at, dur, track, payload));
        }
    }

    /// Emits a zero-duration event.
    #[inline]
    pub fn instant(&mut self, at: Cycle, track: TrackId, payload: Payload) {
        if self.sink.wants(payload.category()) {
            self.sink.emit(Event::instant(at, track, payload));
        }
    }

    /// Read access to the track table (exporters).
    pub fn tracks(&self) -> &TrackTable {
        &self.tracks
    }

    /// Read access to the sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the tracer, returning `(sink, tracks)`.
    pub fn into_parts(self) -> (S, TrackTable) {
        (self.sink, self.tracks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat_payload: Payload) -> Event {
        Event::instant(1, 0, cat_payload)
    }

    #[test]
    fn null_sink_is_inactive() {
        let t = Tracer::disabled();
        assert!(!t.active());
        assert!(!t.wants(Category::Instruction));
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut t = Tracer::new(VecSink::new());
        let tr = t.track("tile0");
        t.span(5, 3, tr, Payload::Retire { thread: 0, cost: 3 });
        t.instant(9, tr, Payload::Wake { thread: 0, tile: 0 });
        let (sink, tracks) = t.into_parts();
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[0].at, 5);
        assert_eq!(tracks.name(tr), "tile0");
    }

    #[test]
    fn filter_masks_categories() {
        let mask = CategoryMask::just(Category::Link);
        let mut f = VecSink::masked(mask);
        assert!(f.is_active());
        assert!(f.wants(Category::Link));
        assert!(!f.wants(Category::Instruction));
        f.emit(ev(Payload::Retry {
            retries: 1,
            cost: 8,
        }));
        f.emit(ev(Payload::Retire { thread: 0, cost: 1 }));
        assert_eq!(f.into_events().len(), 1);
        // An empty mask records nothing but still counts as active.
        assert!(VecSink::masked(CategoryMask::none()).is_active());
    }

    #[test]
    fn inactive_tracer_does_not_intern_tracks() {
        let mut t = Tracer::disabled();
        assert_eq!(t.track("whatever"), 0);
        assert!(t.tracks().is_empty());
    }
}
