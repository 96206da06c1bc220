#![warn(missing_docs)]
//! Structured tracing and phase metrics for the dagmap pipeline.
//!
//! The crate provides three things, all dependency-free:
//!
//! * **RAII spans** ([`span`]) recorded into lock-free thread-local event
//!   buffers. A worker thread touches no shared state while recording; its
//!   buffer is *stitched* into the global collector exactly once, when the
//!   thread exits (scoped workers stitch at `thread::scope` join via the
//!   thread-local destructor) or when [`flush_thread`] is called. Buffers
//!   carry the session *epoch* they were opened under, so events from a
//!   thread that outlives its session are discarded instead of polluting
//!   the next session.
//! * **Typed counters** ([`count`]) and **log2-bucket histograms**
//!   ([`sample`], [`hist::Log2Histogram`]) — these subsume the scattered
//!   `matches_enumerated`/`matches_pruned` style fields with
//!   one namespace (`match.enumerated`, `match.pruned`, …).
//! * **Exporters**: Chrome trace-event JSON ([`Trace::to_chrome_json`],
//!   loadable in `chrome://tracing` and Perfetto, one track per worker
//!   lane) and a human-readable phase report ([`report::render`]) with a
//!   self/total time tree, per-level wavefront occupancy and match-kernel
//!   hit rates.
//!
//! # Sessions
//!
//! Two session kinds share one recording fast path: the process-global
//! [`Session`] ([`start`]) used by the CLI — strictly sequential, stitching
//! every thread's buffer into one trace — and the thread-scoped
//! [`ScopedSession`] ([`start_scoped`]) used by the serve daemon, which
//! captures only what its owning thread records so concurrent requests
//! produce disjoint traces.
//!
//! # Disabled cost
//!
//! Recording is off unless a [`Session`] (global or scoped) is active. Every recording entry
//! point starts with
//!
//! ```ignore
//! if !enabled() { return; }
//! ```
//!
//! where [`enabled`] is an inlined `Relaxed` load of a static
//! `AtomicBool` — a single branch on a static, no thread-local access, no
//! allocation, no syscall. The `obsperf` benchmark in `dagmap-bench`
//! measures the residual overhead on the labeling hot loop (see
//! `BENCH_obs.json`); it is within run-to-run noise.
//!
//! # Determinism
//!
//! Tracing is purely observational: instrumented code never branches on
//! [`enabled`] to choose *what* to compute, only whether to record. Mapped
//! netlists, labels and retiming results are byte-identical with tracing
//! on or off — the differential fuzz harness and the tier-1 smoke step
//! assert this. Span *structure* on the session lane (names, nesting,
//! counts — not timestamps) is deterministic across runs; see
//! [`Trace::span_signature`].
//!
//! # Example
//!
//! ```
//! let session = dagmap_obs::start();
//! {
//!     let mut s = dagmap_obs::span("phase");
//!     s.set_u64("items", 3);
//!     dagmap_obs::count("work.done", 3);
//!     dagmap_obs::sample("work.size", 17);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.counter("work.done"), 3);
//! assert!(trace.to_chrome_json().contains("\"ph\":\"X\""));
//! ```

pub mod hist;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod window;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hist::Log2Histogram;
pub use trace::{SpanRec, Trace};

/// Global recording switch — the "static" in branch-on-static.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Session epoch: bumped by every [`start`], compared by thread buffers.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Lane allocator, reset per session; lane 0 is the session thread.
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

/// The collector owning stitched buffers while a session is active.
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

/// Number of live thread-scoped sessions ([`start_scoped`]) across the
/// process. `ENABLED` is the OR of "global session active" and "any scoped
/// session active"; transitions recompute it under the `COLLECTOR` lock so
/// concurrent starts/finishes cannot leave the switch stale-off while a
/// session is live.
static SCOPED_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Monotonic time anchor shared by every thread; timestamps are nanoseconds
/// since the first observation ever made in the process.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds on the process-wide monotonic anchor (the same clock span
/// timestamps use). Public so the rolling-window metrics in
/// [`window`]/[`metrics`] share one time base with the trace recorder.
pub fn monotonic_ns() -> u64 {
    now_ns()
}

/// Whether a recording session is active. Inlined single load; the fast
/// path every instrumentation site pays when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An argument value attached to a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
}

/// Per-thread event buffer. Recording only ever touches this (through a
/// `thread_local`), never a lock; the whole buffer is appended to the
/// global collector at stitch time.
struct LocalBuf {
    /// The session epoch this buffer was opened under.
    epoch: u64,
    /// This thread's lane (track) id within the session.
    lane: u32,
    /// Captured thread name, if any, for the exporter's track labels.
    thread_name: Option<String>,
    /// Current span nesting depth on this thread.
    depth: u32,
    spans: Vec<SpanRec>,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Log2Histogram)>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        LocalBuf {
            epoch: 0,
            lane: 0,
            thread_name: None,
            depth: 0,
            spans: Vec::new(),
            counters: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Re-arms the buffer for the current epoch, discarding anything a
    /// finished session left behind on this thread.
    fn rearm(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        self.thread_name = std::thread::current().name().map(str::to_owned);
        self.depth = 0;
        self.spans.clear();
        self.counters.clear();
        self.hists.clear();
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        // Few distinct names per thread; linear scan beats hashing here and
        // `&'static str` comparison is a pointer check in the common case.
        for (n, v) in &mut self.counters {
            if std::ptr::eq(*n, name) || *n == name {
                *v += delta;
                return;
            }
        }
        self.counters.push((name, delta));
    }

    fn add_sample(&mut self, name: &'static str, value: u64) {
        for (n, h) in &mut self.hists {
            if std::ptr::eq(*n, name) || *n == name {
                h.record(value);
                return;
            }
        }
        let mut h = Log2Histogram::new();
        h.record(value);
        self.hists.push((name, h));
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }
}

/// Wrapper whose `Drop` stitches the buffer into the collector — the
/// backstop that flushes exiting threads. Note that `std::thread::scope`
/// joins when the closure returns, which can be *before* this destructor
/// runs; workers that must not lose events call [`flush_thread`] at the
/// end of their closure.
struct StitchOnDrop(RefCell<LocalBuf>);

impl Drop for StitchOnDrop {
    fn drop(&mut self) {
        stitch(&mut self.0.borrow_mut());
    }
}

thread_local! {
    static BUF: StitchOnDrop = StitchOnDrop(RefCell::new(LocalBuf::new()));
    /// Buffer of the thread-scoped session bound to this thread, if any.
    /// Scoped buffers never stitch into the global collector — they are
    /// drained directly by [`ScopedSession::finish`] on the owning thread.
    static SCOPED: RefCell<Option<ScopedState>> = const { RefCell::new(None) };
}

/// In-flight state of a [`ScopedSession`], held in thread-local storage so
/// recording stays lock-free on the owning thread.
struct ScopedState {
    buf: LocalBuf,
    start_ns: u64,
}

/// Runs `f` against the recording buffer this thread routes to: the
/// thread-scoped session's buffer when one is bound here, otherwise the
/// process-global session's thread-local buffer (re-armed if the session
/// epoch advanced since it was last used).
fn with_buf(f: impl FnOnce(&mut LocalBuf)) {
    let mut f = Some(f);
    let scoped = SCOPED
        .try_with(|s| match s.borrow_mut().as_mut() {
            Some(state) => {
                (f.take().expect("with_buf closure available"))(&mut state.buf);
                true
            }
            None => false,
        })
        .unwrap_or(false);
    if scoped {
        return;
    }
    let f = f.expect("with_buf closure not consumed");
    // Accessing a TLS key during thread teardown can fail; recording is
    // best-effort observation, so silently drop the event in that case.
    let _ = BUF.try_with(|b| {
        let mut b = b.0.borrow_mut();
        let cur = EPOCH.load(Ordering::Relaxed);
        if b.epoch != cur {
            b.rearm(cur);
        }
        f(&mut b);
    });
}

/// Appends a local buffer's content to the collector if (and only if) the
/// buffer belongs to the currently active session.
fn stitch(buf: &mut LocalBuf) {
    if buf.is_empty() {
        return;
    }
    if let Ok(mut guard) = COLLECTOR.lock() {
        if let Some(c) = guard.as_mut() {
            if c.epoch == buf.epoch {
                c.absorb(buf);
                return;
            }
        }
    }
    // No matching session: discard so the next session starts clean.
    buf.spans.clear();
    buf.counters.clear();
    buf.hists.clear();
}

/// Flushes the *current thread's* buffer into the active session.
///
/// Needed only for long-lived threads that record while a session finishes
/// on another thread; scoped workers and the session thread flush
/// automatically.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| stitch(&mut b.0.borrow_mut()));
}

/// The stitched, in-flight recording of one session.
struct Collector {
    epoch: u64,
    start_ns: u64,
    spans: Vec<SpanRec>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Log2Histogram>,
    lanes: BTreeMap<u32, String>,
}

impl Collector {
    fn absorb(&mut self, buf: &mut LocalBuf) {
        self.spans.append(&mut buf.spans);
        for (n, v) in buf.counters.drain(..) {
            *self.counters.entry(n.to_owned()).or_insert(0) += v;
        }
        for (n, h) in buf.hists.drain(..) {
            self.hists.entry(n.to_owned()).or_default().merge(&h);
        }
        self.lanes.entry(buf.lane).or_insert_with(|| {
            buf.thread_name.clone().unwrap_or_else(|| {
                if buf.lane == 0 {
                    "main".to_owned()
                } else {
                    format!("worker-{}", buf.lane)
                }
            })
        });
    }
}

/// Handle to an active recording session; dropping it without calling
/// [`Session::finish`] discards the recording.
#[must_use = "finish() the session to obtain the trace"]
pub struct Session {
    epoch: u64,
}

/// Starts a recording session and enables the fast-path switch.
///
/// # Panics
///
/// Panics if a session is already active — sessions are process-global and
/// strictly sequential (drive them from one coordinating thread).
pub fn start() -> Session {
    let mut guard = COLLECTOR.lock().expect("obs collector lock");
    assert!(
        guard.is_none(),
        "an obs session is already active; sessions cannot nest"
    );
    let epoch = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    NEXT_LANE.store(0, Ordering::Relaxed);
    *guard = Some(Collector {
        epoch,
        start_ns: now_ns(),
        spans: Vec::new(),
        counters: BTreeMap::new(),
        hists: BTreeMap::new(),
        lanes: BTreeMap::new(),
    });
    drop(guard);
    ENABLED.store(true, Ordering::Release);
    // Claim lane 0 for the session thread before any worker can race for it.
    with_buf(|_| {});
    Session { epoch }
}

impl Session {
    /// Stops recording, stitches the session thread's buffer, and returns
    /// the finished [`Trace`].
    pub fn finish(self) -> Trace {
        flush_thread();
        let mut guard = COLLECTOR.lock().expect("obs collector lock");
        let collector = guard.take().expect("session collector present");
        // Recording stays on while thread-scoped sessions are live; events
        // other threads still record toward the *global* lane after this
        // point are discarded at stitch time by the epoch check.
        ENABLED.store(SCOPED_ACTIVE.load(Ordering::Relaxed) > 0, Ordering::Release);
        drop(guard);
        debug_assert_eq!(collector.epoch, self.epoch);
        let mut spans = collector.spans;
        // Deterministic presentation order: by lane, then start time, then
        // depth (a parent and child can share a start timestamp).
        spans.sort_by_key(|s| (s.lane, s.start_ns, s.depth));
        Trace {
            start_ns: collector.start_ns,
            end_ns: now_ns(),
            spans,
            counters: collector.counters,
            histograms: collector.hists,
            lanes: collector.lanes.into_iter().collect(),
        }
    }
}

/// Handle to a *thread-scoped* recording session started with
/// [`start_scoped`]; dropping it without calling
/// [`ScopedSession::finish`] discards the recording and unbinds the
/// thread.
#[must_use = "finish() the scoped session to obtain the trace"]
pub struct ScopedSession {
    // Thread-bound by construction: the buffer lives in this thread's TLS.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Starts a recording session scoped to the *current thread*.
///
/// Unlike the process-global [`start`], any number of scoped sessions may
/// be live at once — one per thread — and they may coexist with a global
/// session on other threads. Everything the owning thread records while
/// the scoped session is live goes to the scoped trace (and only there);
/// other threads are unaffected. This is what a server uses to collect a
/// per-request trace from the worker executing that request without
/// interleaving frames from concurrent requests.
///
/// The returned handle is `!Send`: it must be finished on the thread that
/// started it.
///
/// # Panics
///
/// Panics if a scoped session is already bound to this thread.
pub fn start_scoped() -> ScopedSession {
    let start_ns = now_ns();
    SCOPED.with(|s| {
        let mut slot = s.borrow_mut();
        assert!(
            slot.is_none(),
            "a scoped obs session is already active on this thread"
        );
        let mut buf = LocalBuf::new();
        buf.thread_name = std::thread::current().name().map(str::to_owned);
        *slot = Some(ScopedState { buf, start_ns });
    });
    let _guard = COLLECTOR.lock().expect("obs collector lock");
    SCOPED_ACTIVE.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
    ScopedSession {
        _not_send: std::marker::PhantomData,
    }
}

impl ScopedSession {
    /// Stops this thread's scoped recording and returns its [`Trace`].
    /// Spans land on lane 0 of the scoped trace (one request, one track).
    pub fn finish(self) -> Trace {
        std::mem::forget(self);
        let end_ns = now_ns();
        let state = SCOPED
            .with(|s| s.borrow_mut().take())
            .expect("scoped session state bound to this thread");
        {
            let guard = COLLECTOR.lock().expect("obs collector lock");
            SCOPED_ACTIVE.fetch_sub(1, Ordering::Relaxed);
            ENABLED.store(
                guard.is_some() || SCOPED_ACTIVE.load(Ordering::Relaxed) > 0,
                Ordering::Release,
            );
        }
        let mut buf = state.buf;
        let mut spans = std::mem::take(&mut buf.spans);
        spans.sort_by_key(|s| (s.lane, s.start_ns, s.depth));
        let mut counters = BTreeMap::new();
        for (n, v) in buf.counters.drain(..) {
            *counters.entry(n.to_owned()).or_insert(0) += v;
        }
        let mut histograms: BTreeMap<String, Log2Histogram> = BTreeMap::new();
        for (n, h) in buf.hists.drain(..) {
            histograms.entry(n.to_owned()).or_default().merge(&h);
        }
        let lane_name = buf
            .thread_name
            .clone()
            .unwrap_or_else(|| "request".to_owned());
        Trace {
            start_ns: state.start_ns,
            end_ns,
            spans,
            counters,
            histograms,
            lanes: vec![(0, lane_name)],
        }
    }
}

impl Drop for ScopedSession {
    fn drop(&mut self) {
        // Only reached when the handle is dropped without `finish` (which
        // forgets `self`): discard the recording and unbind the thread.
        let still_bound = SCOPED
            .try_with(|s| s.borrow_mut().take().is_some())
            .unwrap_or(false);
        if still_bound {
            let guard = COLLECTOR.lock().expect("obs collector lock");
            SCOPED_ACTIVE.fetch_sub(1, Ordering::Relaxed);
            ENABLED.store(
                guard.is_some() || SCOPED_ACTIVE.load(Ordering::Relaxed) > 0,
                Ordering::Release,
            );
        }
    }
}

/// An RAII span: records a complete event (name, lane, depth, start,
/// duration, args) on the current thread when dropped.
///
/// Created disabled ([`span`] while no session is active), it is fully
/// inert — no buffer access on creation or drop.
pub struct Span {
    name: &'static str,
    start_ns: u64,
    active: bool,
    args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Attaches an integer argument (no-op when inert).
    pub fn set_u64(&mut self, key: &'static str, value: u64) {
        if self.active {
            self.args.push((key, ArgValue::U64(value)));
        }
    }

    /// Attaches a float argument (no-op when inert).
    pub fn set_f64(&mut self, key: &'static str, value: f64) {
        if self.active {
            self.args.push((key, ArgValue::F64(value)));
        }
    }

    /// Whether this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        let name = self.name;
        let start_ns = self.start_ns;
        let args = std::mem::take(&mut self.args);
        with_buf(|b| {
            // `saturating_sub` guards a span that outlived its session into
            // a freshly re-armed buffer.
            b.depth = b.depth.saturating_sub(1);
            b.spans.push(SpanRec {
                name,
                lane: b.lane,
                depth: b.depth,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                args,
            });
        });
    }
}

/// Opens a span named `name` on the current thread.
///
/// When no session is active this is a single branch: the returned guard
/// is inert and its drop is a branch too.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start_ns: 0,
            active: false,
            args: Vec::new(),
        };
    }
    with_buf(|b| b.depth += 1);
    Span {
        name,
        start_ns: now_ns(),
        active: true,
        args: Vec::new(),
    }
}

/// Adds `delta` to the typed counter `name` (single branch when disabled).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_buf(|b| b.add_counter(name, delta));
}

/// Records `value` into the log2-bucket histogram `name` (single branch
/// when disabled).
#[inline]
pub fn sample(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_buf(|b| b.add_sample(name, value));
}

/// Runs `f` under a span named `name`, returning its result and the
/// measured wall-clock seconds. The measurement is taken whether or not a
/// session is active, so phase reports (e.g. `MapReport`) get real
/// durations even with tracing off; the span itself is only recorded when
/// enabled.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let guard = span(name);
    let result = f();
    drop(guard);
    (result, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sessions are process-global; every test that starts one must hold
    // this lock so `cargo test`'s parallel runner cannot interleave them.
    pub(crate) fn session_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = session_lock();
        assert!(!enabled());
        let mut s = span("nothing");
        s.set_u64("k", 1);
        assert!(!s.is_recording());
        drop(s);
        count("c", 5);
        sample("h", 9);
        // A later session must not see any of it.
        let trace = start().finish();
        assert!(trace.spans.is_empty());
        assert!(trace.counters.is_empty());
        assert!(trace.histograms.is_empty());
    }

    #[test]
    fn session_records_spans_counters_and_hists() {
        let _guard = session_lock();
        let session = start();
        {
            let mut outer = span("outer");
            outer.set_u64("n", 2);
            for i in 0..2u64 {
                let _inner = span("inner");
                count("items", 1);
                sample("size", 1 << i);
            }
        }
        let trace = session.finish();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.counter("items"), 2);
        let h = &trace.histograms["size"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3);
        // Nesting depths: outer at 0, inners at 1, all on lane 0.
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((outer.lane, outer.depth), (0, 0));
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.lane == 0 && s.depth == 1));
    }

    #[test]
    fn worker_buffers_stitch_at_scope_join() {
        let _guard = session_lock();
        let session = start();
        let _root = span("root");
        std::thread::scope(|scope| {
            for w in 0..3 {
                scope.spawn(move || {
                    {
                        let mut s = span("worker");
                        s.set_u64("w", w);
                        count("worker.events", 1);
                    }
                    // `scope` only waits for the closure, not for TLS
                    // destructors, so flush deterministically before join.
                    flush_thread();
                });
            }
        });
        drop(_root);
        let trace = session.finish();
        assert_eq!(trace.counter("worker.events"), 3);
        let lanes: std::collections::BTreeSet<u32> = trace
            .spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| s.lane)
            .collect();
        assert_eq!(lanes.len(), 3, "one lane per worker");
        assert!(!lanes.contains(&0), "lane 0 belongs to the session thread");
        // Every recorded lane has a track name for the exporter.
        for lane in &lanes {
            assert!(trace.lanes.iter().any(|(l, _)| l == lane));
        }
    }

    #[test]
    fn events_from_a_dead_session_never_leak_into_the_next() {
        let _guard = session_lock();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let session = start();
        // A thread records under session 1 but only exits (and stitches)
        // after session 2 began: its buffer's epoch mismatches, so session 2
        // must not contain the stale span.
        let handle = std::thread::spawn(move || {
            let _s = span("stale");
            count("stale.count", 1);
            drop(_s);
            done_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        done_rx.recv().unwrap();
        let first = session.finish();
        assert_eq!(first.counter("stale.count"), 0, "thread never flushed");
        let session2 = start();
        tx.send(()).unwrap();
        handle.join().unwrap();
        let second = session2.finish();
        assert!(second.spans.iter().all(|s| s.name != "stale"));
        assert_eq!(second.counter("stale.count"), 0);
    }

    #[test]
    fn explicit_flush_makes_a_live_thread_visible() {
        let _guard = session_lock();
        let session = start();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                count("flushed", 7);
                flush_thread();
            });
        });
        let trace = session.finish();
        assert_eq!(trace.counter("flushed"), 7);
    }

    #[test]
    fn concurrent_scoped_sessions_do_not_mix_frames() {
        // Scoped sessions flip the process-global ENABLED switch, so they
        // serialize against global-session tests like any other.
        let _guard = session_lock();
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let run = |tag: &'static str, counter: &'static str, n: u64| {
                let barrier = &barrier;
                move || {
                    let scoped = start_scoped();
                    // Both requests record while the other is provably live.
                    barrier.wait();
                    for _ in 0..n {
                        let _s = span(tag);
                        count(counter, 1);
                        sample("req.size", n);
                    }
                    barrier.wait();
                    scoped.finish()
                }
            };
            let ha = scope.spawn(run("req-a", "a.events", 2));
            let hb = scope.spawn(run("req-b", "b.events", 5));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a.spans.len(), 2);
        assert!(a.spans.iter().all(|s| s.name == "req-a"));
        assert_eq!(a.counter("a.events"), 2);
        assert_eq!(a.counter("b.events"), 0);
        assert_eq!(a.histograms["req.size"].count(), 2);
        assert_eq!(b.spans.len(), 5);
        assert!(b.spans.iter().all(|s| s.name == "req-b"));
        assert_eq!(b.counter("b.events"), 5);
        assert_eq!(b.counter("a.events"), 0);
        assert_eq!(b.histograms["req.size"].count(), 5);
        assert!(!enabled(), "all sessions finished");
    }

    #[test]
    fn scoped_sessions_coexist_with_a_global_session() {
        let _guard = session_lock();
        let session = start();
        count("global.events", 1);
        let scoped_trace = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let scoped = start_scoped();
                    count("request.events", 3);
                    let trace = scoped.finish();
                    // After the scoped session ends, this thread records
                    // toward the global session again.
                    count("global.events", 1);
                    flush_thread();
                    trace
                })
                .join()
                .unwrap()
        });
        count("global.events", 1);
        let global_trace = session.finish();
        assert_eq!(scoped_trace.counter("request.events"), 3);
        assert_eq!(scoped_trace.counter("global.events"), 0);
        assert_eq!(global_trace.counter("global.events"), 3);
        assert_eq!(
            global_trace.counter("request.events"),
            0,
            "per-request frames must not leak into the process-global trace"
        );
        assert!(!enabled());
    }

    #[test]
    fn dropping_a_scoped_session_discards_and_disables() {
        let _guard = session_lock();
        let scoped = start_scoped();
        count("dropped.events", 1);
        assert!(enabled());
        drop(scoped);
        assert!(!enabled());
        // Nothing leaks into a later scoped session on the same thread.
        let scoped = start_scoped();
        let trace = scoped.finish();
        assert_eq!(trace.counter("dropped.events"), 0);
    }

    #[test]
    fn timed_measures_with_and_without_a_session() {
        let _guard = session_lock();
        let ((), secs) = timed("off", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        let session = start();
        let ((), secs) = timed("on", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        let trace = session.finish();
        let rec = trace.spans.iter().find(|s| s.name == "on").unwrap();
        assert!(rec.dur_ns >= 1_000_000);
        assert!(trace.spans.iter().all(|s| s.name != "off"));
    }
}
