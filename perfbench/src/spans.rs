//! The traced run's span recorder. Spans wrap calls into each layer's
//! public functions from the benchmark's side; they are kept in memory and
//! written out when the run ends.

use scaledeep_trace::json::{obj, Json};
use scaledeep_trace::{Category, Event, Payload, TraceSink};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every layer spans are recorded on; each traced run reports a self time
/// for each of them.
pub const LAYERS: [&str; 11] = [
    "bench",
    "dse",
    "compiler",
    "sim.perf",
    "attribution",
    "session",
    "sim.func",
    "tensor",
    "compiler.artifact",
    "trace.json",
    "serve",
];

/// One timed call: the layer it entered, its name, when it ran (since the
/// recorder started), the span that caused it, and its unit of work.
struct Span {
    layer: &'static str,
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    run: u64,
}

/// Records spans when on; when off, [`Spans::time`] only runs its closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Spans {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Starts the next unit of work: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span `name` on `layer`; spans `f` opens are its
    /// children.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// [`Spans::time`] that also returns how long `f` took, traced or not.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Duration) {
        let started = Instant::now();
        let out = self.time(layer, name, f);
        (out, started.elapsed())
    }

    /// Records a span timed elsewhere (a client thread, a trace sink) as a
    /// child of the innermost open span.
    pub fn record(&mut self, layer: &'static str, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            layer,
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| micros(s.end.saturating_sub(s.start)))
            .collect()
    }

    /// Self time per layer in ms: each span's duration less the part of it
    /// its child spans cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let own = s
                .end
                .saturating_sub(s.start)
                .saturating_sub(covered(kids, s.start, s.end));
            *out.entry(s.layer).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("layer", Json::Str(s.layer.to_string())),
                        ("name", Json::Str(s.name.clone())),
                        ("start_us", Json::Num(micros(s.start))),
                        ("end_us", Json::Num(micros(s.end))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("run", Json::Num(s.run as f64)),
                    ])
                })
                .collect(),
        )
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A trace sink that stamps host time on compile-phase spans as they
/// arrive from `pipeline::compile_traced`: each phase ends when its span is
/// emitted and starts where the previous phase ended.
pub struct PhaseClock {
    last: Instant,
    pub phases: Vec<(&'static str, Instant, Instant)>,
}

impl PhaseClock {
    /// A clock whose first phase starts now.
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
            phases: Vec::new(),
        }
    }
}

impl TraceSink for PhaseClock {
    fn wants(&self, cat: Category) -> bool {
        cat == Category::Compile
    }

    fn emit(&mut self, ev: Event) {
        if let Payload::Phase { phase } = ev.payload {
            let now = Instant::now();
            self.phases.push((phase, self.last, now));
            self.last = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn covered_merges_overlapping_children_and_clips_to_the_parent() {
        let mut kids = vec![
            (ms(2), ms(5)),
            (ms(1), ms(3)),
            (ms(7), ms(8)),
            (ms(9), ms(12)),
        ];
        assert_eq!(covered(&mut kids, ms(0), ms(10)), ms(6));
        assert_eq!(covered(&mut [], ms(0), ms(10)), Duration::ZERO);
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut spans = Spans::on();
        spans.time("bench", "outer", |s| {
            s.time("compiler", "inner", |_| std::thread::sleep(ms(20)));
        });
        let by_layer = spans.self_ms_by_layer();
        assert!(by_layer["compiler"] >= 20.0);
        assert!(by_layer["bench"] < by_layer["compiler"]);
        assert_eq!(by_layer["serve"], 0.0);
        assert_eq!(spans.durations_us("inner").len(), 1);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut spans = Spans::off();
        assert_eq!(spans.time("bench", "x", |_| 7), 7);
        spans.record("serve", "job", Instant::now(), Instant::now());
        assert_eq!(spans.count(), 0);
    }
}
