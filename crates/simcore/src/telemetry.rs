//! Deterministic, near-zero-overhead metrics: counters, gauges,
//! histograms and wall-clock spans.
//!
//! The observability layer follows the same determinism contract as the
//! campaign result pipeline: every simulator component records into a
//! [`MetricsRegistry`] it **owns privately** (one per run, living inside
//! the run's `Net`/world, never a global), and campaign workers merge
//! per-run registries back **in descriptor order** — so the rendered
//! metrics document is byte-identical at any worker-thread count,
//! exactly like the query TSV.
//!
//! Two kinds of measurements coexist and are flagged apart:
//!
//! * **Deterministic** metrics (counters, gauges, histograms of samples
//!   and virtual durations) depend only on the simulated trajectory. They render
//!   through [`MetricsRegistry::render_rows`] with `include_wall =
//!   false` and are what the conformance suite byte-compares.
//! * **Wall-clock** metrics (wall-time spans, queue-wait gauges) vary
//!   run to run; they are rendered only when a caller explicitly asks
//!   for them (`include_wall = true`, stderr diagnostics) and are never
//!   part of a byte-compared document.
//!
//! Recording allocates only on a metric name's first touch: after it,
//! counters and gauges update in place, and histograms amortize through
//! the bounded [`stats::SummaryAcc`] buffer (exact below its cap,
//! deterministic sketch above) — steady-state recording on the hot path
//! stays allocation-free.
//!
//! Registries start enabled. One gate exists, benchmarked in
//! `bench_tcpsim`: [`MetricsRegistry::set_enabled`] (or
//! [`MetricsRegistry::with_enabled`]) switches recording per registry.
//!
//! The gate may not change simulated behaviour: the registry is
//! observe-only (it draws no randomness and schedules nothing), so
//! golden traces are byte-identical with telemetry enabled or
//! disabled.

use crate::time::SimDuration;
use stats::SummaryAcc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Histogram buffer cap: exact (bit-reproducible vs batch helpers)
/// below, deterministic sketch above. Sized for per-run span counts of
/// typical campaigns.
pub const HIST_CAP: usize = 4096;

/// Column header of the per-run metrics TSV (`metrics.tsv`). Rows are
/// produced by [`MetricsRegistry::render_rows`], one per metric, with
/// `-` for cells a kind does not define.
pub const METRICS_TSV_HEADER: &str = "run\tmetric\tkind\tcount\tvalue\tmin\tp50\tp95\tmax\n";

/// The value payload of one named metric.
#[derive(Clone, Debug)]
enum Value {
    /// Monotone event count.
    Counter(u64),
    /// Last-written value plus the high-water mark of all writes.
    Gauge { last: f64, max: f64 },
    /// Distribution of observed samples.
    Hist(SummaryAcc),
}

/// One named metric: its payload plus the deterministic/wall flag.
#[derive(Clone, Debug)]
struct Metric {
    value: Value,
    /// True for wall-clock measurements (excluded from deterministic
    /// rendering and byte-comparison).
    wall: bool,
}

/// An in-flight wall-clock span: closed with
/// [`MetricsRegistry::end_wall`], recording elapsed wall milliseconds
/// into a wall-flagged histogram.
#[derive(Clone, Copy, Debug)]
pub struct WallSpan {
    name: &'static str,
    start: Instant,
}

/// A registry of named counters, gauges and histograms.
///
/// Names are `&'static str` (instrumentation sites name their metrics
/// in code); storage is a name-ordered map, so rendering and merging
/// are deterministic by construction. All record methods are no-ops
/// when the registry is disabled.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty, enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_enabled(true)
    }

    /// An empty registry with the recording gate set explicitly.
    pub fn with_enabled(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            metrics: BTreeMap::new(),
        }
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the runtime recording gate (already-recorded metrics are
    /// kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Moves the recorded metrics out, leaving an empty registry with
    /// the same gate — how runners harvest a component's registry at
    /// quiescence.
    pub fn take(&mut self) -> MetricsRegistry {
        MetricsRegistry {
            enabled: self.enabled,
            metrics: std::mem::take(&mut self.metrics),
        }
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of recorded metric names.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    fn record(&mut self, name: &'static str, wall: bool, f: impl FnOnce(&mut Value), init: Value) {
        if !self.enabled {
            return;
        }
        let m = self
            .metrics
            .entry(name)
            .or_insert(Metric { value: init, wall });
        debug_assert_eq!(m.wall, wall, "metric {name:?} redefined with a new class");
        f(&mut m.value);
    }

    /// Increments the counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.record(
            name,
            false,
            |v| match v {
                Value::Counter(c) => *c += n,
                _ => panic!("metric {name:?} is not a counter"),
            },
            Value::Counter(0),
        );
    }

    fn gauge_impl(&mut self, name: &'static str, wall: bool, x: f64) {
        self.record(
            name,
            wall,
            |v| match v {
                Value::Gauge { last, max } => {
                    *last = x;
                    *max = max.max(x);
                }
                _ => panic!("metric {name:?} is not a gauge"),
            },
            Value::Gauge { last: x, max: x },
        );
    }

    /// Sets the deterministic gauge `name` (tracks last value and
    /// high-water mark).
    pub fn set_gauge(&mut self, name: &'static str, x: f64) {
        self.gauge_impl(name, false, x);
    }

    /// Sets the wall-clock gauge `name` (excluded from deterministic
    /// rendering).
    pub fn set_wall_gauge(&mut self, name: &'static str, x: f64) {
        self.gauge_impl(name, true, x);
    }

    fn observe_impl(&mut self, name: &'static str, wall: bool, x: f64) {
        self.record(
            name,
            wall,
            |v| match v {
                Value::Hist(h) => h.push(x),
                _ => panic!("metric {name:?} is not a histogram"),
            },
            Value::Hist(SummaryAcc::with_cap(HIST_CAP)),
        );
        // The init value above is empty; push the first sample too.
        // (record() runs `f` on both the fresh and the existing entry,
        // so the sample lands exactly once either way.)
    }

    /// Folds one sample into the deterministic histogram `name`.
    pub fn observe(&mut self, name: &'static str, x: f64) {
        self.observe_impl(name, false, x);
    }

    /// Folds one wall-clock sample (milliseconds) into the wall
    /// histogram `name`.
    pub fn observe_wall_ms(&mut self, name: &'static str, ms: f64) {
        self.observe_impl(name, true, ms);
    }

    /// Folds a virtual duration (as milliseconds) into the
    /// deterministic histogram `name`.
    pub fn observe_virt(&mut self, name: &'static str, d: SimDuration) {
        self.observe(name, d.as_millis_f64());
    }

    /// Opens a wall-clock span. Close with
    /// [`MetricsRegistry::end_wall`] (or use the [`span!`](crate::span)
    /// macro around a block).
    pub fn wall_span(&self, name: &'static str) -> WallSpan {
        WallSpan {
            name,
            start: Instant::now(),
        }
    }

    /// Closes a wall-clock span, recording elapsed milliseconds into a
    /// wall-flagged histogram.
    pub fn end_wall(&mut self, span: WallSpan) {
        self.observe_wall_ms(span.name, span.start.elapsed().as_secs_f64() * 1e3);
    }

    /// Merges `other` into `self`, name by name. The caller fixes the
    /// merge order (campaigns merge per-run registries in descriptor
    /// order); same-name metrics must agree on kind and class.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, m) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name, m.clone());
                }
                Some(mine) => {
                    assert_eq!(
                        mine.wall, m.wall,
                        "metric {name:?} merged across det/wall classes"
                    );
                    match (&mut mine.value, &m.value) {
                        (Value::Counter(a), Value::Counter(b)) => *a += b,
                        (Value::Gauge { last, max }, Value::Gauge { last: l2, max: m2 }) => {
                            *last = *l2;
                            *max = max.max(*m2);
                        }
                        (Value::Hist(a), Value::Hist(b)) => a.merge(b),
                        _ => panic!("metric {name:?} merged across kinds"),
                    }
                }
            }
        }
    }

    /// The counter `name`'s total, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)?.value {
            Value::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// The gauge `name` as `(last, max)`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<(f64, f64)> {
        match self.metrics.get(name)?.value {
            Value::Gauge { last, max } => Some((last, max)),
            _ => None,
        }
    }

    /// The histogram `name`'s sample count, if it exists.
    pub fn hist_count(&self, name: &str) -> Option<u64> {
        match &self.metrics.get(name)?.value {
            Value::Hist(h) => Some(h.count()),
            _ => None,
        }
    }

    /// The histogram `name`'s summary, if it exists and is non-empty.
    pub fn hist_summary(&self, name: &str) -> Option<stats::Summary> {
        match &self.metrics.get(name)?.value {
            Value::Hist(h) => h.summary(),
            _ => None,
        }
    }

    /// Recorded metric names, in render (lexicographic) order.
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.keys().copied().collect()
    }

    /// Appends one TSV row per metric to `out`, prefixed with the `run`
    /// label, in name order. With `include_wall = false` only
    /// deterministic metrics render — the byte-comparable document; with
    /// `true`, wall-clock metrics follow too (kinds `wall_gauge` /
    /// `wall_hist`), for stderr diagnostics only.
    pub fn render_rows(&self, run: &str, include_wall: bool, out: &mut String) {
        use std::fmt::Write;
        for (name, m) in &self.metrics {
            if m.wall && !include_wall {
                continue;
            }
            match &m.value {
                Value::Counter(c) => {
                    writeln!(out, "{run}\t{name}\tcounter\t-\t{c}\t-\t-\t-\t-").unwrap();
                }
                Value::Gauge { last, max } => {
                    let kind = if m.wall { "wall_gauge" } else { "gauge" };
                    writeln!(
                        out,
                        "{run}\t{name}\t{kind}\t-\t{last:.3}\t-\t-\t-\t{max:.3}"
                    )
                    .unwrap();
                }
                Value::Hist(h) => {
                    let kind = if m.wall { "wall_hist" } else { "hist" };
                    match h.summary() {
                        Some(s) => writeln!(
                            out,
                            "{run}\t{name}\t{kind}\t{}\t-\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                            h.count(),
                            s.min,
                            s.median,
                            s.p95,
                            s.max
                        )
                        .unwrap(),
                        None => writeln!(out, "{run}\t{name}\t{kind}\t0\t-\t-\t-\t-").unwrap(),
                    }
                }
            }
        }
    }

    /// The registry as a standalone metrics TSV document (header plus
    /// deterministic rows for the pseudo-run label `all`).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(METRICS_TSV_HEADER);
        self.render_rows("all", false, &mut out);
        out
    }
}

/// Times a block against a wall-clock span:
/// `span!(registry, "tcp.handshake", { body })` evaluates the body,
/// records its wall duration into the registry's `"tcp.handshake"`
/// histogram, and yields the body's value.
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:literal, $body:expr) => {{
        let __span = $reg.wall_span($name);
        let __out = $body;
        $reg.end_wall(__span);
        __out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let mut m = MetricsRegistry::new();
        m.inc("a.count");
        m.add("a.count", 4);
        m.set_gauge("b.gauge", 3.0);
        m.set_gauge("b.gauge", 2.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.observe("c.hist", x);
        }
        assert_eq!(m.counter("a.count"), Some(5));
        assert_eq!(m.gauge("b.gauge"), Some((2.0, 3.0)));
        assert_eq!(m.hist_count("c.hist"), Some(4));
        let s = m.hist_summary("c.hist").unwrap();
        assert_eq!((s.min, s.max), (1.0, 4.0));
        assert_eq!(m.names(), vec!["a.count", "b.gauge", "c.hist"]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::with_enabled(false);
        m.inc("x");
        m.observe("y", 1.0);
        m.set_gauge("z", 2.0);
        assert!(m.is_empty());
        assert_eq!(m.to_tsv(), METRICS_TSV_HEADER);
        m.set_enabled(true);
        m.inc("x");
        assert!(!m.is_empty());
    }

    #[test]
    fn merge_is_by_name_and_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("n");
        b.add("n", 2);
        b.inc("only_b");
        a.set_gauge("g", 1.0);
        b.set_gauge("g", 5.0);
        a.observe("h", 1.0);
        b.observe("h", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.counter("only_b"), Some(2 - 1));
        assert_eq!(a.gauge("g"), Some((5.0, 5.0)));
        assert_eq!(a.hist_count("h"), Some(2));
    }

    #[test]
    fn virt_and_wall_spans_record() {
        let mut m = MetricsRegistry::new();
        m.observe_virt("virt.ms", SimDuration::from_millis(25));
        let out = span!(m, "wall.ms", { 7 * 6 });
        assert_eq!(out, 42);
        assert_eq!(m.hist_count("virt.ms"), Some(1));
        let s = m.hist_summary("virt.ms").unwrap();
        assert_eq!(s.min, 25.0);
        // Wall histograms exist but stay out of the deterministic TSV.
        assert_eq!(m.hist_count("wall.ms"), Some(1));
        assert!(!m.to_tsv().contains("wall.ms"));
        let mut all = String::new();
        m.render_rows("r", true, &mut all);
        assert!(all.contains("wall.ms"));
    }

    #[test]
    fn render_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.observe("m.mid", 2.5);
        let tsv = m.to_tsv();
        let lines: Vec<&str> = tsv.lines().skip(1).collect();
        assert!(lines[0].starts_with("all\ta.first\tcounter"));
        assert!(lines[1].starts_with("all\tm.mid\thist\t1"));
        assert!(lines[2].starts_with("all\tz.last\tcounter"));
    }

    #[test]
    fn take_leaves_empty_registry_with_same_gate() {
        let mut m = MetricsRegistry::with_enabled(false);
        m.set_enabled(true);
        m.inc("x");
        let taken = m.take();
        assert!(m.is_empty());
        assert_eq!(taken.counter("x"), Some(1));
        assert!(m.is_enabled());
    }
}
