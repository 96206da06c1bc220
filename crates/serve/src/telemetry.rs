//! Server-side telemetry: the live metrics registry, structured JSONL
//! request logging, and tail-based trace sampling.
//!
//! The registry is always on: it is the daemon's only store of request,
//! error, busy and remap counts. The request log and tail sampling are
//! optional per [`crate::ServeConfig`]. None of it can move a byte of
//! mapped output: recording happens strictly around the mapping calls,
//! never inside them.

use std::collections::{HashSet, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dagmap_core::MapReport;
use dagmap_obs::hist::Log2Histogram;
use dagmap_obs::json::escape;
use dagmap_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Rolling-window shape of every latency/phase summary: 12 x 5 s, so a
/// scrape's quantiles cover the last minute.
const LATENCY_WINDOWS: usize = 12;
const LATENCY_WINDOW_NS: u64 = 5_000_000_000;

/// A tail-sampling class histogram must hold this many samples before the
/// quantile threshold is trusted; earlier requests are never kept.
const TAIL_MIN_SAMPLES: u64 = 8;

/// Cap on the first-seen request-hash set; beyond it new circuits still
/// classify as first-seen, they are just no longer remembered.
const SEEN_CAP: usize = 1 << 20;

/// Tail-based trace sampling configuration.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Directory the kept Chrome traces are written into (created at
    /// startup).
    pub dir: PathBuf,
    /// Keep a request's trace when its latency exceeds this rolling
    /// quantile of its class (first/repeat/remap). `<= 0` keeps every
    /// trace — useful for tests and short captures.
    pub quantile: f64,
    /// Most traces kept on disk; the oldest is removed beyond this.
    pub keep: usize,
}

impl TailConfig {
    /// Tail sampling into `dir` with the defaults: p99 threshold, 16
    /// traces retained.
    pub fn new(dir: PathBuf) -> TailConfig {
        TailConfig {
            dir,
            quantile: 0.99,
            keep: 16,
        }
    }
}

/// Escapes a value for use inside a Prometheus label: `foo` in
/// `name{lib="foo"}`.
fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The server's live metrics: one registry plus pre-registered handles for
/// every hot-path series (per-library series are get-or-created on first
/// use, which is a brief registry lock per *new* label only).
pub(crate) struct Telemetry {
    pub registry: MetricsRegistry,
    // Bumped where the event happens.
    pub requests_total: Counter,
    pub remaps_total: Counter,
    pub errors_total: Counter,
    pub busy_rejects_total: Counter,
    pub tail_traces_kept_total: Counter,
    pub reply_cache_hits: Counter,
    pub reply_cache_misses: Counter,
    pub reply_cache_evictions: Counter,
    pub workers_busy: Gauge,
    // Set at scrape time from the queue, the admission count, the
    // retained-run map and the reply cache.
    pub queue_depth: Gauge,
    pub inflight: Gauge,
    pub retained_runs: Gauge,
    pub reply_cache_bytes: Gauge,
    latency_first: Histogram,
    latency_repeat: Histogram,
    latency_remap: Histogram,
    latency_cached: Histogram,
    phase_parse: Histogram,
    phase_decompose: Histogram,
    phase_label: Histogram,
    phase_cover: Histogram,
    phase_verify: Histogram,
    phase_writeback: Histogram,
    /// Fold hashes ([`crate::cache::request_hash`]) of `(lib, blif)` pairs
    /// already served, for the first-seen vs repeated latency split and
    /// the reply cache's admission.
    seen: Mutex<HashSet<u64>>,
}

impl Telemetry {
    pub fn new(workers: usize) -> Telemetry {
        let registry = MetricsRegistry::new();
        let hist = |name: &str| registry.histogram(name, LATENCY_WINDOWS, LATENCY_WINDOW_NS);
        registry.gauge("dagmap_workers").set(workers as i64);
        Telemetry {
            requests_total: registry.counter("dagmap_requests_total"),
            remaps_total: registry.counter("dagmap_remaps_total"),
            errors_total: registry.counter("dagmap_errors_total"),
            busy_rejects_total: registry.counter("dagmap_busy_rejects_total"),
            queue_depth: registry.gauge("dagmap_queue_depth"),
            inflight: registry.gauge("dagmap_inflight"),
            retained_runs: registry.gauge("dagmap_retained_runs"),
            workers_busy: registry.gauge("dagmap_workers_busy"),
            tail_traces_kept_total: registry.counter("dagmap_tail_traces_kept_total"),
            reply_cache_hits: registry.counter("dagmap_reply_cache_hits_total"),
            reply_cache_misses: registry.counter("dagmap_reply_cache_misses_total"),
            reply_cache_evictions: registry.counter("dagmap_reply_cache_evictions_total"),
            reply_cache_bytes: registry.gauge("dagmap_reply_cache_bytes"),
            latency_first: hist("dagmap_request_latency_us{kind=\"first\"}"),
            latency_repeat: hist("dagmap_request_latency_us{kind=\"repeat\"}"),
            latency_remap: hist("dagmap_request_latency_us{kind=\"remap\"}"),
            latency_cached: hist("dagmap_request_latency_us{kind=\"cached\"}"),
            phase_parse: hist("dagmap_phase_parse_us"),
            phase_decompose: hist("dagmap_phase_decompose_us"),
            phase_label: hist("dagmap_phase_label_us"),
            phase_cover: hist("dagmap_phase_cover_us"),
            phase_verify: hist("dagmap_phase_verify_us"),
            phase_writeback: hist("dagmap_phase_writeback_us"),
            seen: Mutex::new(HashSet::new()),
            registry,
        }
    }

    /// The latency summary for a request class
    /// (`first`/`repeat`/`remap`/`cached`).
    pub fn latency_hist(&self, kind: &str) -> &Histogram {
        match kind {
            "repeat" => &self.latency_repeat,
            "remap" => &self.latency_remap,
            "cached" => &self.latency_cached,
            _ => &self.latency_first,
        }
    }

    /// Records the phases of a request that ran the pipeline.
    pub fn observe_phases(&self, p: &Phases) {
        self.phase_parse.observe(p.parse_us);
        self.phase_decompose.observe(p.decompose_us);
        self.phase_label.observe(p.label_us);
        self.phase_cover.observe(p.cover_us);
        self.phase_verify.observe(p.verify_us);
        self.phase_writeback.observe(p.writeback_us);
    }

    /// Classifies a request by the fold hash of its `(lib, blif)` pair as
    /// first-seen (true) or repeated, remembering it for next time.
    pub fn first_seen(&self, h: u64) -> bool {
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        if seen.contains(&h) {
            return false;
        }
        if seen.len() < SEEN_CAP {
            seen.insert(h);
        }
        true
    }

    /// Per-library admitted-requests counter.
    pub fn lib_requests(&self, lib: &str) -> Counter {
        self.registry.counter(&format!(
            "dagmap_lib_requests_total{{lib=\"{}\"}}",
            label_escape(lib)
        ))
    }

    /// Per-library queued-or-executing gauge.
    pub fn lib_pending(&self, lib: &str) -> Gauge {
        self.registry.gauge(&format!(
            "dagmap_lib_pending{{lib=\"{}\"}}",
            label_escape(lib)
        ))
    }
}

/// Microseconds a request spent in each phase of the serve pipeline. The
/// decompose, label, cover and recovery times are its report's.
#[derive(Clone, Copy)]
pub(crate) struct Phases {
    pub parse_us: u64,
    pub decompose_us: u64,
    pub label_us: u64,
    pub cover_us: u64,
    pub recovery_us: u64,
    pub verify_us: u64,
    pub writeback_us: u64,
}

impl Phases {
    /// Parse, verify and writeback as timed by the pipeline; the rest
    /// from the report.
    pub fn new(report: &MapReport, parse_us: u64, verify_us: u64, writeback_us: u64) -> Phases {
        let us = |s: f64| (s * 1e6).max(0.0) as u64;
        Phases {
            parse_us,
            decompose_us: us(report.decompose_seconds),
            label_us: us(report.label_seconds),
            cover_us: us(report.cover_seconds),
            recovery_us: us(report.area_recovery_seconds),
            verify_us,
            writeback_us,
        }
    }
}

/// Everything one request contributes to telemetry, filled in as the
/// request progresses (by its worker, or by its connection's reader for
/// a reply-cache hit) and consumed once the reply has been written.
pub(crate) struct RequestEvent {
    pub op: &'static str,
    pub id: Option<String>,
    /// Resolved (registered) library name, once known.
    pub lib: Option<String>,
    /// `ok`, an error kind, or `panic`.
    pub outcome: &'static str,
    /// Latency class: `first`, `repeat`, `remap` or `cached`.
    pub kind: &'static str,
    pub blif_bytes: usize,
    pub out_bytes: usize,
    pub latency_us: u64,
    /// The mapping report of a successful request — the record its reply
    /// and log line read. A hit carries the report of the run that stored
    /// its reply.
    pub report: Option<MapReport>,
    /// Where a request that ran the pipeline spent its time; `None` for a
    /// hit, a refusal or a failure.
    pub phases: Option<Phases>,
    /// The request's finished obs trace, present only when tail sampling
    /// is on (serialized to Chrome JSON only if actually kept).
    pub trace: Option<dagmap_obs::Trace>,
}

impl RequestEvent {
    /// A fresh event for `op` (`map` or `remap`). A map starts in the
    /// `first` class until the worker sees whether it is a repeat.
    pub fn new(op: &'static str, id: Option<String>) -> RequestEvent {
        RequestEvent {
            op,
            id,
            lib: None,
            outcome: "ok",
            kind: if op == "remap" { "remap" } else { "first" },
            blif_bytes: 0,
            out_bytes: 0,
            latency_us: 0,
            report: None,
            phases: None,
            trace: None,
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let id = match &self.id {
            Some(id) => format!("\"{}\"", escape(id)),
            None => "null".to_owned(),
        };
        let lib = match &self.lib {
            Some(lib) => format!("\"{}\"", escape(lib)),
            None => "null".to_owned(),
        };
        let phases = self.phases.map_or(String::new(), |p| {
            format!(
                concat!(
                    "\"parse_us\":{},\"decompose_us\":{},\"label_us\":{},\"cover_us\":{},",
                    "\"recovery_us\":{},\"verify_us\":{},\"writeback_us\":{}"
                ),
                p.parse_us,
                p.decompose_us,
                p.label_us,
                p.cover_us,
                p.recovery_us,
                p.verify_us,
                p.writeback_us,
            )
        });
        let (delay, num_cells, matches_enumerated, labels_reused) =
            self.report.as_ref().map_or((0.0, 0, 0, 0), |r| {
                (r.delay, r.num_cells, r.matches_enumerated, r.labels_reused)
            });
        format!(
            concat!(
                "{{\"ts_ms\":{},\"op\":\"{}\",\"id\":{},\"lib\":{},\"outcome\":\"{}\",",
                "\"kind\":\"{}\",\"blif_bytes\":{},\"out_bytes\":{},\"latency_us\":{},",
                "\"first_seen\":{},\"delay\":{},\"num_cells\":{},\"phases\":{{{}}},",
                "\"counters\":{{\"matches_enumerated\":{},\"labels_reused\":{}}}}}"
            ),
            ts_ms,
            self.op,
            id,
            lib,
            self.outcome,
            self.kind,
            self.blif_bytes,
            self.out_bytes,
            self.latency_us,
            self.kind == "first",
            crate::protocol::format_f64(delay),
            num_cells,
            phases,
            matches_enumerated,
            labels_reused,
        )
    }
}

/// The `--log-requests` JSONL sink: one line per finished (or rejected)
/// request, flushed per line so a tailing observer is never a buffer
/// behind.
pub(crate) struct RequestLog {
    file: Mutex<BufWriter<File>>,
}

impl RequestLog {
    pub fn open(path: &PathBuf) -> io::Result<RequestLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        Ok(RequestLog {
            file: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    pub fn write(&self, ev: &RequestEvent) {
        let line = ev.to_jsonl();
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
    }
}

/// Tail-based trace sampler: keeps the Chrome traces of requests slower
/// than their class's rolling quantile, in a bounded on-disk ring.
pub(crate) struct TailState {
    dir: PathBuf,
    quantile: f64,
    keep: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<PathBuf>>,
}

impl TailState {
    pub fn new(config: &TailConfig) -> io::Result<TailState> {
        std::fs::create_dir_all(&config.dir)?;
        Ok(TailState {
            dir: config.dir.clone(),
            quantile: config.quantile,
            keep: config.keep.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        })
    }

    /// Whether a request at `latency_us` should keep its trace, judged
    /// against the rolling histogram of its class *before* this request
    /// is recorded into it (a request must not raise the bar for itself).
    pub fn should_keep(&self, latency_us: u64, class_before: &Log2Histogram) -> bool {
        if self.quantile <= 0.0 {
            return true;
        }
        if class_before.count() < TAIL_MIN_SAMPLES {
            return false;
        }
        latency_us > class_before.quantile_upper(self.quantile)
    }

    /// Writes a kept trace into the ring, evicting the oldest file beyond
    /// the cap. Returns the path it landed at.
    pub fn store(&self, trace: &dagmap_obs::Trace, latency_us: u64) -> Option<PathBuf> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("tail-{seq:06}-{latency_us}us.json"));
        if std::fs::write(&path, trace.to_chrome_json()).is_err() {
            return None;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.push_back(path.clone());
        while ring.len() > self.keep {
            if let Some(old) = ring.pop_front() {
                let _ = std::fs::remove_file(old);
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_seen_classifies_by_lib_and_content() {
        let t = Telemetry::new(2);
        let seen = |lib, blif| t.first_seen(crate::cache::request_hash(lib, blif));
        assert!(seen("lib2", ".model a"));
        assert!(!seen("lib2", ".model a"), "repeat of the same pair");
        assert!(seen("other", ".model a"), "same blif, new lib");
        assert!(seen("lib2", ".model b"), "same lib, new blif");
    }

    #[test]
    fn request_events_render_valid_jsonl() {
        let mut ev = RequestEvent::new("map", Some("r\"1".into()));
        ev.lib = Some("lib2".into());
        ev.kind = "repeat";
        ev.latency_us = 1234;
        let v = dagmap_obs::json::parse(&ev.to_jsonl()).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("map"));
        assert_eq!(v.get("id").unwrap().as_str(), Some("r\"1"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("repeat"));
        assert_eq!(v.get("latency_us").unwrap().as_num(), Some(1234.0));
        assert_eq!(
            v.get("first_seen"),
            Some(&dagmap_obs::json::Value::Bool(false))
        );
        // No pipeline ran, so no phase is reported.
        assert_eq!(v.get("phases").unwrap().as_obj().map(|o| o.len()), Some(0));
        ev.phases = Some(Phases {
            parse_us: 1,
            decompose_us: 2,
            label_us: 3,
            cover_us: 4,
            recovery_us: 0,
            verify_us: 5,
            writeback_us: 6,
        });
        let v = dagmap_obs::json::parse(&ev.to_jsonl()).unwrap();
        let phases = v.get("phases").unwrap();
        for (key, us) in [("parse_us", 1.0), ("label_us", 3.0), ("writeback_us", 6.0)] {
            assert_eq!(phases.get(key).unwrap().as_num(), Some(us), "{key}");
        }
    }

    #[test]
    fn tail_threshold_arms_after_min_samples() {
        let cfg = TailConfig {
            dir: std::env::temp_dir(),
            quantile: 0.95,
            keep: 4,
        };
        let tail = TailState::new(&cfg).unwrap();
        let mut class = Log2Histogram::new();
        // Cold class: nothing is kept, no matter how slow.
        assert!(!tail.should_keep(u64::MAX, &class));
        for _ in 0..100 {
            class.record(100);
        }
        // Armed: only latencies beyond the class p95 keep their trace.
        assert!(!tail.should_keep(100, &class));
        assert!(tail.should_keep(100_000, &class));
        // quantile <= 0 keeps everything from the first request.
        let all = TailState::new(&TailConfig {
            quantile: 0.0,
            ..cfg
        })
        .unwrap();
        assert!(all.should_keep(1, &Log2Histogram::new()));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(label_escape("lib2"), "lib2");
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
