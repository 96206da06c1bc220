//! Live metrics: named counters, gauges, and rolling-window histograms
//! with Prometheus text exposition.
//!
//! Where the trace recorder in the crate root answers *post-hoc* questions
//! ("what did this run spend its time on?"), a [`MetricsRegistry`] answers
//! *live* ones ("what is the p95 right now?"). It is deliberately
//! per-instance rather than process-global: a server owns its registry, a
//! test (or a bench running two servers in one process) owns one each, and
//! disabling metrics is simply not constructing one — no enabled-flag on
//! the hot path.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones registered once by name and then recorded to lock-free; the
//! registry mutex is only taken at registration and render time. Labels
//! are embedded in the registered name Prometheus-style —
//! `dagmap_lib_requests_total{lib="lib2"}` — and [`render_prometheus`]
//! groups series of the same base name under one `# TYPE` line.
//! Histograms render as summaries (quantile series + `_sum`/`_count`)
//! computed from their rolling window, so a scrape's p99 covers the last
//! N seconds, not the process lifetime.
//!
//! [`render_prometheus`]: MetricsRegistry::render_prometheus

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::window::RollingLog2Histogram;

/// A monotonically increasing `u64` (scrape mirrors may also `set` it).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`.
    pub fn inc(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value — for mirroring an externally maintained
    /// counter (e.g. a cache's own atomics) into the registry at scrape.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, utilization).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A rolling-window log2 histogram rendered as a Prometheus summary.
#[derive(Clone)]
pub struct Histogram(Arc<RollingLog2Histogram>);

impl Histogram {
    /// Records one observation at the current wall clock.
    pub fn observe(&self, value: u64) {
        self.0.record(value);
    }

    /// Records one observation at an explicit monotonic timestamp
    /// (deterministic tests).
    pub fn observe_at(&self, now_ns: u64, value: u64) {
        self.0.record_at(now_ns, value);
    }

    /// Snapshot of the live window as a plain [`crate::hist::Log2Histogram`].
    pub fn snapshot(&self) -> crate::hist::Log2Histogram {
        self.0.snapshot()
    }

    /// Snapshot at an explicit monotonic timestamp.
    pub fn snapshot_at(&self, now_ns: u64) -> crate::hist::Log2Histogram {
        self.0.snapshot_at(now_ns)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The quantiles every histogram exposes; 1.0 renders the window max.
const SUMMARY_QUANTILES: [(f64, &str); 5] = [
    (0.5, "0.5"),
    (0.9, "0.9"),
    (0.95, "0.95"),
    (0.99, "0.99"),
    (1.0, "1"),
];

/// A named collection of live metrics. See the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it at 0 on
    /// first use. Labels go in the name: `reqs_total{lib="lib2"}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Returns the gauge registered under `name`, creating it at 0 on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Returns the rolling-window histogram registered under `name`,
    /// creating it with `windows x window_ns` of span on first use (the
    /// ring shape of an existing histogram is kept).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, windows: usize, window_ns: u64) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        match inner.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(RollingLog2Histogram::new(
                windows, window_ns,
            ))))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Renders every metric in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`), sorted by name, with one `# TYPE`
    /// line per base name. Histograms render as summaries over their
    /// current rolling window.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in inner.iter() {
            let (base, labels) = split_labels(name);
            if base != last_base {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "summary",
                };
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (q, qs) in SUMMARY_QUANTILES {
                        let series = with_label(base, labels, &format!("quantile=\"{qs}\""));
                        out.push_str(&format!("{series} {}\n", snap.quantile_upper(q)));
                    }
                    let sum = if labels.is_empty() {
                        format!("{base}_sum")
                    } else {
                        format!("{base}_sum{{{labels}}}")
                    };
                    let count = if labels.is_empty() {
                        format!("{base}_count")
                    } else {
                        format!("{base}_count{{{labels}}}")
                    };
                    out.push_str(&format!("{sum} {}\n", snap.sum()));
                    out.push_str(&format!("{count} {}\n", snap.count()));
                }
            }
        }
        out
    }
}

/// Splits `name{labels}` into `(name, labels-without-braces)`; labels are
/// empty when the name has none.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Rebuilds a series name from a base, its original labels, and one extra
/// label (the summary quantile).
fn with_label(base: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{base}{{{extra}}}")
    } else {
        format!("{base}{{{labels},{extra}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_sorted_with_type_lines() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").inc(3);
        reg.gauge("a_depth").set(-2);
        reg.counter("b_total").inc(1);
        let text = reg.render_prometheus();
        assert_eq!(
            text,
            "# TYPE a_depth gauge\na_depth -2\n# TYPE b_total counter\nb_total 4\n"
        );
    }

    #[test]
    fn labeled_series_share_one_type_line() {
        let reg = MetricsRegistry::new();
        reg.counter("hits_total{lib=\"a\"}").inc(1);
        reg.counter("hits_total{lib=\"b\"}").inc(2);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE hits_total counter").count(),
            1,
            "same base name must emit exactly one TYPE line:\n{text}"
        );
        assert!(text.contains("hits_total{lib=\"a\"} 1\n"));
        assert!(text.contains("hits_total{lib=\"b\"} 2\n"));
    }

    #[test]
    fn histograms_render_as_rolling_summaries() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us{kind=\"first\"}", 4, u64::MAX / 8);
        for v in [10, 20, 30, 1000] {
            h.observe(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_us summary"));
        assert!(text.contains("lat_us{kind=\"first\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_us{kind=\"first\",quantile=\"1\"} 1000\n"));
        assert!(text.contains("lat_us_sum{kind=\"first\"} 1060\n"));
        assert!(text.contains("lat_us_count{kind=\"first\"} 4\n"));
    }

    #[test]
    fn handles_are_shared_per_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc(5);
        assert_eq!(b.get(), 5);
        b.set(7);
        assert_eq!(a.get(), 7);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
