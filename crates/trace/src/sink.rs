//! Sinks consume [`Event`]s: the no-op [`NullSink`], an unbounded
//! [`VecSink`], a bounded [`RingSink`], and the [`FilterSink`] category
//! mask. The [`Tracer`] front-end owns a sink plus the
//! track table and is what instrumented code talks to.

use crate::event::{Category, CategoryMask, Cycle, Event, Payload, TrackId, TrackTable};
use std::collections::VecDeque;

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

/// An unbounded in-memory sink; the default when exporting full traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn wants(&self, _cat: Category) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// A bounded sink keeping the most recent `capacity` events and counting
/// what it dropped. Useful for "flight recorder" tails in mismatch reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSink {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (a zero capacity drops
    /// everything).
    pub fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// The retained (most recent) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events evicted (or refused, for zero capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning `(retained events oldest-first, dropped
    /// count)`.
    pub fn into_parts(self) -> (Vec<Event>, u64) {
        (self.events.into_iter().collect(), self.dropped)
    }
}

impl TraceSink for RingSink {
    #[inline]
    fn wants(&self, _cat: Category) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, ev: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// A per-category enable mask over another sink: events of a category
/// outside the mask never reach the wrapped sink; every other event does.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSink<S> {
    inner: S,
    mask: CategoryMask,
}

impl<S: TraceSink> FilterSink<S> {
    /// Wraps `inner`, passing only categories in `mask`.
    pub fn new(inner: S, mask: CategoryMask) -> Self {
        Self { inner, mask }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the filter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for FilterSink<S> {
    #[inline]
    fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    #[inline]
    fn wants(&self, cat: Category) -> bool {
        self.mask.contains(cat) && self.inner.wants(cat)
    }

    #[inline]
    fn emit(&mut self, ev: Event) {
        if self.mask.contains(ev.payload.category()) {
            self.inner.emit(ev);
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
    fn ring_sink_drops_oldest() {
        let mut r = RingSink::new(2);
        for i in 0..5u32 {
            r.emit(Event::instant(u64::from(i), 0, Payload::Sync { index: i }));
        }
        assert_eq!(r.dropped(), 3);
        let kept: Vec<_> = r.events().map(|e| e.at).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn ring_sink_zero_capacity_counts_refusals() {
        let mut r = RingSink::new(0);
        r.emit(ev(Payload::Checkpoint));
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn filter_masks_categories() {
        let mask = CategoryMask::just(Category::Link);
        let mut f = FilterSink::new(VecSink::new(), mask);
        assert!(f.wants(Category::Link));
        assert!(!f.wants(Category::Instruction));
        f.emit(ev(Payload::Retry {
            retries: 1,
            cost: 8,
        }));
        f.emit(ev(Payload::Retire { thread: 0, cost: 1 }));
        assert_eq!(f.into_inner().events().len(), 1);
    }

    #[test]
    fn inactive_tracer_does_not_intern_tracks() {
        let mut t = Tracer::disabled();
        assert_eq!(t.track("whatever"), 0);
        assert!(t.tracks().is_empty());
    }
}
