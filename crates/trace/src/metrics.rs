//! A unified registry of named counters, gauges, and histograms — the
//! single source for the scalar statistics that the simulators previously
//! plumbed through ad-hoc struct fields.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Dense handle to a registered metric; obtained once (outside hot loops)
/// from [`MetricsRegistry::counter`] / [`MetricsRegistry::gauge`] /
/// [`MetricsRegistry::histogram`] and used for O(1) updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

/// Log2-bucketed histogram of non-negative samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// `buckets[i]` counts samples with `floor(log2(v)) == i - 1`
    /// (`buckets[0]` counts zeros).
    pub buckets: [u64; 65],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`0.0` when empty).
    pub max: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }
}

impl Hist {
    fn bucket(v: f64) -> usize {
        if v < 1.0 {
            0
        } else {
            // floor(log2(v)) + 1, clamped into the table.
            ((v.log2().floor() as i64).clamp(0, 63) + 1) as usize
        }
    }

    fn observe(&mut self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` samples of value `v` at once (no-op when `n == 0`).
    /// Equals `n` calls to `observe(v)` whenever `v` is integer-valued and
    /// the running sum stays below 2^53, where every partial sum is exact.
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let v = if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        self.buckets[Self::bucket(v)] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the observed samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `p`-th percentile (0–100) from the log2 buckets.
    ///
    /// The rank-`ceil(p/100 · count)` sample's bucket is located by a
    /// cumulative walk; the estimate interpolates linearly inside the
    /// bucket's `[2^(i-1), 2^i)` value range and is clamped to the
    /// observed `[min, max]`, so single-valued distributions (and the
    /// `p = 0` / `p = 100` edges) are exact. Returns `0.0` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.min;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        // The first and last order statistics are tracked exactly —
        // this also keeps the saturation bucket (values >= 2^63, whose
        // true spread the buckets cannot resolve) anchored to reality.
        if rank >= self.count {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen < rank {
                continue;
            }
            if i == 0 {
                return 0.0;
            }
            // Bucket i covers [2^(i-1), 2^i); interpolate by the rank's
            // position among the bucket's samples.
            let lo = 2f64.powi(i as i32 - 1);
            let hi = 2f64.powi(i as i32);
            let into = (rank - (seen - n)) as f64 / n as f64;
            let v = lo + (hi - lo) * into;
            return v.clamp(self.min, self.max);
        }
        self.max
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Monotonic u64 accumulator.
    Counter(u64),
    /// Last-write-wins f64.
    Gauge(f64),
    /// Log2-bucketed distribution. Boxed so that the common
    /// counter/gauge entries stay 16 bytes instead of carrying the
    /// 65-bucket table inline.
    Histogram(Box<Hist>),
}

impl Value {
    /// Short kind name (`"counter"` / `"gauge"` / `"hist"`).
    pub const fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "hist",
        }
    }
}

/// A registry of named metrics. Names are dotted paths
/// (`"func.tile.0003.busy"`); registration interns the name once and
/// returns a [`MetricId`] for cheap updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    names: Vec<String>,
    values: Vec<Value>,
    index: BTreeMap<String, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &str, fresh: Value) -> MetricId {
        if let Some(&i) = self.index.get(name) {
            return MetricId(i);
        }
        let i = self.values.len();
        self.names.push(name.to_string());
        self.values.push(fresh);
        self.index.insert(name.to_string(), i);
        MetricId(i)
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, Value::Counter(0))
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, Value::Gauge(0.0))
    }

    /// Registers (or finds) the histogram `name`.
    pub fn histogram(&mut self, name: &str) -> MetricId {
        self.register(name, Value::Histogram(Box::default()))
    }

    /// Adds `delta` to a counter (no-op on non-counters).
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        if let Some(Value::Counter(c)) = self.values.get_mut(id.0) {
            *c = c.saturating_add(delta);
        }
    }

    /// Sets a gauge (no-op on non-gauges).
    #[inline]
    pub fn set(&mut self, id: MetricId, v: f64) {
        if let Some(Value::Gauge(g)) = self.values.get_mut(id.0) {
            *g = v;
        }
    }

    /// Records a histogram sample (no-op on non-histograms).
    #[inline]
    pub fn observe(&mut self, id: MetricId, v: f64) {
        if let Some(Value::Histogram(h)) = self.values.get_mut(id.0) {
            h.observe(v);
        }
    }

    /// Records `n` samples of value `v` in one step (no-op on
    /// non-histograms and at `n == 0`). Sanitizes like
    /// [`MetricsRegistry::observe`], and equals `n` calls to it for
    /// integer-valued `v` while the histogram's sum stays below 2^53.
    #[inline]
    pub fn observe_n(&mut self, id: MetricId, v: f64, n: u64) {
        if let Some(Value::Histogram(h)) = self.values.get_mut(id.0) {
            h.observe_n(v, n);
        }
    }

    /// Folds every sample of `h` into a histogram (no-op on
    /// non-histograms): the bucket counts, count and sum add, min and max
    /// widen, so folding into an empty histogram reproduces `h` exactly.
    #[inline]
    pub fn observe_hist(&mut self, id: MetricId, h: &Hist) {
        if let Some(Value::Histogram(mine)) = self.values.get_mut(id.0) {
            mine.merge(h);
        }
    }

    /// Looks a counter up by name (`None` when absent or not a counter).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.index.get(name).map(|&i| &self.values[i]) {
            Some(Value::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Looks a gauge up by name (`None` when absent or not a gauge).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.index.get(name).map(|&i| &self.values[i]) {
            Some(Value::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Looks a histogram up by name.
    pub fn histogram_value(&self, name: &str) -> Option<&Hist> {
        match self.index.get(name).map(|&i| &self.values[i]) {
            Some(Value::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.index
            .iter()
            .map(|(n, &i)| (n.as_str(), &self.values[i]))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges overwrite,
    /// histograms merge. On a kind mismatch the incoming value wins.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, val) in other.iter() {
            match val {
                Value::Counter(c) => {
                    let id = self.counter(name);
                    match self.values.get_mut(id.0) {
                        Some(Value::Counter(mine)) => *mine = mine.saturating_add(*c),
                        Some(slot) => *slot = val.clone(),
                        None => {}
                    }
                }
                Value::Gauge(_) => {
                    let id = self.gauge(name);
                    if let Some(slot) = self.values.get_mut(id.0) {
                        *slot = val.clone();
                    }
                }
                Value::Histogram(h) => {
                    let id = self.histogram(name);
                    match self.values.get_mut(id.0) {
                        Some(Value::Histogram(mine)) => mine.merge(h),
                        Some(slot) => *slot = val.clone(),
                        None => {}
                    }
                }
            }
        }
    }

    /// Renders a sorted text report: one line per metric, histograms as
    /// `count/mean/min/max`.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let width = self.names.iter().map(String::len).max().unwrap_or(0);
        for (name, val) in self.iter() {
            let _ = match val {
                Value::Counter(c) => {
                    writeln!(out, "{name:<width$}  counter  {c}")
                }
                Value::Gauge(g) => {
                    writeln!(out, "{name:<width$}  gauge    {g:.6}")
                }
                Value::Histogram(h) => writeln!(
                    out,
                    "{name:<width$}  hist     n={} mean={:.3} min={} max={}",
                    h.count,
                    h.mean(),
                    if h.count == 0 { 0.0 } else { h.min },
                    h.max,
                ),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        let id = r.counter("a.b");
        r.add(id, 3);
        r.add(id, 4);
        assert_eq!(r.counter_value("a.b"), Some(7));
        assert_eq!(r.counter_value("missing"), None);
        // Re-registration returns the same id.
        assert_eq!(r.counter("a.b"), id);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        let id = r.gauge("g");
        r.set(id, 1.5);
        r.set(id, 2.5);
        assert_eq!(r.gauge_value("g"), Some(2.5));
    }

    #[test]
    fn bulk_observe_equals_the_loop() {
        let samples = [
            (0.0, 3),
            (1.0, 1),
            (7.0, 0),
            (4096.0, 17),
            (f64::NAN, 2),
            (-5.0, 4),
            (f64::INFINITY, 1),
            (123_456.0, 1000),
        ];
        let (mut bulk, mut looped) = (Hist::default(), Hist::default());
        for &(v, n) in &samples {
            bulk.observe_n(v, n);
            for _ in 0..n {
                looped.observe(v);
            }
        }
        assert_eq!(bulk, looped);
        // n == 0 leaves an empty histogram untouched (min stays infinite).
        let mut empty = Hist::default();
        empty.observe_n(9.0, 0);
        assert_eq!(empty, Hist::default());
        let mut r = MetricsRegistry::new();
        let id = r.histogram("h");
        r.observe_n(id, 4096.0, 17);
        assert_eq!(r.histogram_value("h").map(|h| h.count), Some(17));
    }

    #[test]
    fn folding_a_histogram_into_an_empty_one_reproduces_it() {
        let mut h = Hist::default();
        h.observe_n(3.0, 5);
        h.observe_n(70_000.0, 2);
        let mut r = MetricsRegistry::new();
        let id = r.histogram("h");
        r.observe_hist(id, &h);
        assert_eq!(r.histogram_value("h"), Some(&h));
        r.observe_hist(id, &Hist::default());
        assert_eq!(r.histogram_value("h"), Some(&h), "an empty fold is a no-op");
    }

    #[test]
    fn histograms_bucket_by_log2() {
        let mut r = MetricsRegistry::new();
        let id = r.histogram("h");
        for v in [0.0, 1.0, 2.0, 3.0, 1000.0] {
            r.observe(id, v);
        }
        let h = r.histogram_value("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1000.0);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1.0
        assert_eq!(h.buckets[2], 2); // 2.0, 3.0
    }

    #[test]
    fn merge_combines_kinds() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("c");
        a.add(c, 5);
        let g = a.gauge("g");
        a.set(g, 1.0);

        let mut b = MetricsRegistry::new();
        let c2 = b.counter("c");
        b.add(c2, 7);
        let g2 = b.gauge("g");
        b.set(g2, 9.0);
        let h2 = b.histogram("h");
        b.observe(h2, 4.0);

        a.merge(&b);
        assert_eq!(a.counter_value("c"), Some(12));
        assert_eq!(a.gauge_value("g"), Some(9.0));
        assert_eq!(a.histogram_value("h").unwrap().count, 1);
    }

    #[test]
    fn report_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        let z = r.counter("z");
        r.add(z, 1);
        let a = r.counter("a");
        r.add(a, 2);
        let rep = r.report();
        let first = rep.lines().next().unwrap();
        assert!(first.starts_with('a'), "{rep}");
        assert_eq!(r.report(), rep);
    }

    #[test]
    fn wrong_kind_updates_are_noops() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        r.set(c, 9.0);
        r.observe(c, 9.0);
        assert_eq!(r.counter_value("c"), Some(0));
    }

    fn hist_of(samples: &[f64]) -> Hist {
        let mut r = MetricsRegistry::new();
        let id = r.histogram("h");
        for &v in samples {
            r.observe(id, v);
        }
        r.histogram_value("h").unwrap().clone()
    }

    #[test]
    fn percentile_empty_is_zero() {
        let h = Hist::default();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(100.0), 0.0);
    }

    #[test]
    fn percentile_single_value_is_exact() {
        let h = hist_of(&[42.0; 100]);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42.0, "p{p}");
        }
    }

    #[test]
    fn percentile_edges_hit_min_and_max() {
        let h = hist_of(&[1.0, 8.0, 64.0, 512.0]);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 512.0);
        // Out-of-range p clamps rather than panicking.
        assert_eq!(h.percentile(-5.0), 1.0);
        assert_eq!(h.percentile(250.0), 512.0);
    }

    #[test]
    fn percentile_uniform_is_within_bucket_resolution() {
        // 1..=1024 uniformly: a log2-bucketed estimate can be off by at
        // most a factor of 2 from the true percentile.
        let samples: Vec<f64> = (1..=1024).map(|v| v as f64).collect();
        let h = hist_of(&samples);
        for (p, truth) in [(50.0, 512.0), (95.0, 973.0), (99.0, 1014.0)] {
            let est = h.percentile(p);
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "p{p}: est {est} vs true {truth}"
            );
        }
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let samples: Vec<f64> = (0..500).map(|v| (v * v) as f64).collect();
        let h = hist_of(&samples);
        let mut last = h.percentile(0.0);
        for p in 1..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn percentile_zeros_bucket() {
        let h = hist_of(&[0.0, 0.0, 0.0, 16.0]);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.percentile(100.0), 16.0);
    }

    #[test]
    fn percentile_saturation_bucket_clamps_to_max() {
        // Values past 2^63 all land in the saturation bucket; the
        // estimate must stay clamped to the observed max instead of
        // extrapolating the bucket's nominal 2^64 upper edge.
        let h = hist_of(&[1e300, 2e300]);
        assert_eq!(h.percentile(99.0), 2e300);
        assert_eq!(h.percentile(1.0), 1e300);
    }

    #[test]
    fn merge_is_bucket_wise_for_histograms() {
        let mut a = MetricsRegistry::new();
        let ha = a.histogram("h");
        for v in [1.0, 2.0, 1000.0] {
            a.observe(ha, v);
        }
        let mut b = MetricsRegistry::new();
        let hb = b.histogram("h");
        for v in [0.0, 3.0] {
            b.observe(hb, v);
        }
        let expect = hist_of(&[1.0, 2.0, 1000.0, 0.0, 3.0]);
        a.merge(&b);
        let merged = a.histogram_value("h").unwrap();
        assert_eq!(merged.buckets, expect.buckets);
        assert_eq!(merged.count, expect.count);
        assert_eq!(merged.sum, expect.sum);
        assert_eq!(merged.min, expect.min);
        assert_eq!(merged.max, expect.max);
    }

    #[test]
    fn merge_kind_collision_incoming_wins() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("x");
        a.add(c, 5);
        let mut b = MetricsRegistry::new();
        let g = b.gauge("x");
        b.set(g, 2.5);
        a.merge(&b);
        assert_eq!(a.gauge_value("x"), Some(2.5));
        assert_eq!(a.counter_value("x"), None);

        // And the reverse: counter replaces gauge.
        let mut c1 = MetricsRegistry::new();
        let g1 = c1.gauge("y");
        c1.set(g1, 7.0);
        let mut c2 = MetricsRegistry::new();
        let id = c2.counter("y");
        c2.add(id, 3);
        c1.merge(&c2);
        assert_eq!(c1.counter_value("y"), Some(3));
    }

    #[test]
    fn merge_into_empty_copies_everything() {
        let mut src = MetricsRegistry::new();
        let c = src.counter("c");
        src.add(c, 11);
        let g = src.gauge("g");
        src.set(g, 0.25);
        let h = src.histogram("h");
        src.observe(h, 9.0);

        let mut dst = MetricsRegistry::new();
        dst.merge(&src);
        assert_eq!(dst.counter_value("c"), Some(11));
        assert_eq!(dst.gauge_value("g"), Some(0.25));
        assert_eq!(dst.histogram_value("h"), src.histogram_value("h"));
    }

    #[test]
    fn merge_saturates_counters() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("c");
        a.add(c, u64::MAX - 1);
        let mut b = MetricsRegistry::new();
        let c2 = b.counter("c");
        b.add(c2, 10);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), Some(u64::MAX));
    }
}
