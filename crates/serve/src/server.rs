//! The daemon: listeners, connection readers, the worker pool, and the
//! per-library shared state they all map through.
//!
//! # Threading model
//!
//! One thread per listener (TCP and/or unix socket, and the optional
//! metrics HTTP endpoint) blocks in `accept`. Each accepted connection gets
//! a *reader* thread that parses frames and answers cheap ops (`ping`,
//! `metrics`, `shutdown`) inline, and so is a `map` the reply cache already
//! holds; every other `map` and `remap` goes through admission control and
//! onto the shared [`JobQueue`], where a fixed pool of *worker* threads
//! drains them. A pool of one worker per CPU the process may use (the
//! default size) pins each worker to its own CPU on Linux, so two cold
//! maps never share a CPU while the other serves hits. Responses are
//! written under a per-connection mutex, so pipelined requests from one
//! client may complete out of order — the `id` echo is the correlation
//! mechanism.
//!
//! # The reply cache
//!
//! A `map` reply is a pure function of the library, the algorithm,
//! `recover` and the BLIF, so the daemon keeps the encoded replies of
//! repeated requests in a byte-bounded LRU (the crate's private `cache`
//! module). A reply is stored on the second sighting of its
//! `(library, BLIF)` pair and answers every later identical request on
//! the reader thread, byte for byte, with `"cached":true` after the
//! echoed id. `trace` and `retain` maps, every `remap`, and error replies
//! neither read nor write it.
//!
//! # Shared per-library state
//!
//! Each library the daemon serves is parsed and indexed once at startup and
//! shared behind an [`Arc`]: the [`Library`] itself, with its patterns,
//! the automaton whose transition table every worker grows and reads, and
//! any supergate extension the caller applied before startup. A served
//! request maps exactly as a one-shot run of the same BLIF does; what the
//! daemon saves is the library build and the process start.
//!
//! # Shutdown
//!
//! A `shutdown` frame (or [`Server::request_shutdown`]) flips one flag,
//! closes the queue and connects once to every listener, which wakes its
//! accept to see the flag. Listeners stop accepting, readers refuse new
//! maps (cached or not) with `shutting_down`, workers drain everything
//! already admitted, and only then are connections torn down — so every
//! accepted request gets its reply. [`Server::wait`] blocks through that
//! whole sequence.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dagmap_core::{verify, MapOptions, Mapper, RetainedLabels};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, SubjectGraph};

use crate::affinity;
use crate::cache::{request_hash, CachedReply, ReplyCache, ReplyKey, REPLY_CACHE_BYTES};
use crate::protocol::{self, ErrorKind, MapRequest, RemapRequest, Request};
use crate::queue::JobQueue;
pub use crate::telemetry::TailConfig;
use crate::telemetry::{Phases, RequestEvent, RequestLog, TailState, Telemetry};

/// Bound on the connection that wakes a TCP accept loop at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Seed for the per-request equivalence check (same as `dagmap map`).
const VERIFY_SEED: u64 = 0xC11;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Mapping worker threads.
    pub workers: usize,
    /// Admission limit on map requests queued or executing; `0` means
    /// unlimited. Requests beyond the limit are refused with a `busy`
    /// frame instead of queuing without bound.
    pub max_inflight: usize,
    /// Verify every mapped netlist against its subject graph by random
    /// simulation before replying.
    pub verify: bool,
    /// Most retained labeling runs (`options.retain`) kept for `remap`;
    /// the oldest handle is evicted beyond this. `0` disables retention.
    pub retain_cap: usize,
    /// Additionally serve the live metrics registry as plain HTTP
    /// (`GET /metrics`, Prometheus text exposition) on this address, e.g.
    /// `127.0.0.1:9464`. The `metrics` op serves it either way.
    pub metrics_addr: Option<String>,
    /// Write one JSONL event per request (outcome, sizes, phase timings,
    /// match counters) to this path.
    pub log_requests: Option<PathBuf>,
    /// Tail-based trace sampling: requests slower than their class's
    /// rolling quantile keep their Chrome trace in a bounded on-disk
    /// ring.
    pub tail: Option<TailConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_inflight: 256,
            verify: true,
            retain_cap: 64,
            metrics_addr: None,
            log_requests: None,
            tail: None,
        }
    }
}

/// Where the daemon listens. Either or both; at least one is required.
#[derive(Debug, Clone, Default)]
pub struct Endpoints {
    /// TCP bind address, e.g. `127.0.0.1:0`.
    pub tcp: Option<String>,
    /// Unix-domain socket path (created at bind, removed after
    /// [`Server::wait`]).
    #[cfg(unix)]
    pub unix: Option<PathBuf>,
}

/// One library's immutable shared state.
#[derive(Debug)]
pub struct LibState {
    /// The library (with any supergate extension already applied).
    pub library: Library,
}

/// A serialized writer over one connection, cloned into every job from
/// that connection.
#[derive(Clone)]
struct ConnWriter {
    sink: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl ConnWriter {
    fn new(w: Box<dyn Write + Send>) -> ConnWriter {
        ConnWriter {
            sink: Arc::new(Mutex::new(w)),
        }
    }

    fn send(&self, payload: &str) -> io::Result<()> {
        self.send_reply("", payload)
    }

    /// Sends one frame whose payload is `head` then `body`.
    fn send_reply(&self, head: &str, body: &str) -> io::Result<()> {
        let mut w = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        protocol::write_frame_parts(&mut *w, head, body)
    }
}

/// A queued map or remap request.
struct Job {
    req: MapJob,
    /// The fold hash of a map's `(library, BLIF)` pair, computed once by
    /// the reader when the library resolved.
    hash: Option<u64>,
    writer: ConnWriter,
    /// The per-library pending gauge this job incremented at admission;
    /// the worker decrements it when the reply is out.
    pending: Option<dagmap_obs::metrics::Gauge>,
}

enum MapJob {
    Map(Box<MapRequest>),
    Remap(Box<RemapRequest>),
}

impl MapJob {
    fn id(&self) -> Option<&str> {
        match self {
            MapJob::Map(r) => r.id.as_deref(),
            MapJob::Remap(r) => r.id.as_deref(),
        }
    }

    /// A fresh telemetry event for this request.
    fn event(&self) -> RequestEvent {
        let (op, id, blif) = match self {
            MapJob::Map(r) => ("map", &r.id, &r.blif),
            MapJob::Remap(r) => ("remap", &r.id, &r.blif),
        };
        let mut ev = RequestEvent::new(op, id.clone());
        ev.blif_bytes = blif.len();
        ev
    }
}

/// One retained labeling run. The mapping configuration rides along: a
/// remap names only its handle and re-labels under the configuration the
/// labels were computed with (under any other, nothing would be reused).
struct RetainedEntry {
    lib: String,
    algo: String,
    recover: bool,
    labels: Arc<RetainedLabels>,
    /// Insertion counter for oldest-first eviction.
    seq: u64,
}

/// Whether a map may read and write the reply cache: a traced reply
/// carries its own trace and a retaining one a fresh handle.
fn cacheable(req: &MapRequest) -> bool {
    !req.trace && !req.retain
}

/// Raw handles kept so shutdown can unblock reader threads parked in
/// `read`.
enum ConnHandle {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ConnHandle {
    fn force_close(&self) {
        match self {
            ConnHandle::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            ConnHandle::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

struct Inner {
    libs: BTreeMap<String, Arc<LibState>>,
    default_lib: String,
    queue: JobQueue<Job>,
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    max_inflight: usize,
    workers: usize,
    verify: bool,
    retained: Mutex<BTreeMap<String, RetainedEntry>>,
    retain_cap: usize,
    retain_seq: AtomicU64,
    conns: Mutex<Vec<ConnHandle>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Where each listener accepts, for the wake-up at shutdown.
    listen_addrs: Vec<ListenAddr>,
    reply_cache: ReplyCache,
    telemetry: Telemetry,
    request_log: Option<RequestLog>,
    tail: Option<TailState>,
}

impl Inner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Queued jobs keep draining; new pushes fail from here on.
        self.queue.close();
        // Each accept loop blocks in `accept`; a connection of our own
        // returns it to see the flag.
        for addr in &self.listen_addrs {
            addr.wake();
        }
    }

    fn send_error(&self, writer: &ConnWriter, id: Option<&str>, kind: ErrorKind, msg: &str) {
        self.telemetry.errors_total.inc(1);
        if kind == ErrorKind::Busy {
            self.telemetry.busy_rejects_total.inc(1);
        }
        let _ = writer.send(&protocol::error_frame(id, kind, msg));
    }

    /// Sets the gauges read from daemon state (queue, admission count,
    /// retained runs), then renders the Prometheus exposition.
    fn render_metrics(&self) -> String {
        let tel = &self.telemetry;
        tel.queue_depth.set(self.queue.len() as i64);
        tel.inflight
            .set(self.inflight.load(Ordering::Relaxed) as i64);
        let retained = self
            .retained
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        tel.retained_runs.set(retained as i64);
        tel.reply_cache_bytes.set(self.reply_cache.bytes() as i64);
        for name in self.libs.keys() {
            // Ensure every served library has a requests/pending series
            // even before its first request, so dashboards list them all.
            tel.lib_requests(name);
            tel.lib_pending(name);
        }
        tel.registry.render_prometheus()
    }

    /// The registered name of the library a queued job will map with
    /// (`None` when it will fail resolution — the worker reports that).
    fn job_lib_name(&self, req: &MapJob) -> Option<String> {
        match req {
            MapJob::Map(r) => {
                let wanted = r.lib.as_deref().unwrap_or(&self.default_lib);
                resolve_lib(self, wanted)
                    .ok()
                    .map(|(name, _)| name.to_owned())
            }
            MapJob::Remap(r) => {
                let retained = self.retained.lock().unwrap_or_else(|e| e.into_inner());
                retained.get(&r.handle).map(|e| e.lib.clone())
            }
        }
    }

    /// Records a request the admission path refused (busy / shutting
    /// down) into the JSONL log, so rejections are observable per event
    /// and not only as a counter.
    fn log_reject(&self, req: &MapJob, kind: ErrorKind) {
        let Some(log) = &self.request_log else { return };
        let mut ev = req.event();
        ev.outcome = kind.as_str();
        log.write(&ev);
    }

    /// Handles one parsed-or-not frame; `false` ends the connection.
    fn handle_frame(self: &Arc<Inner>, writer: &ConnWriter, payload: &str) -> bool {
        let req = match protocol::parse_request(payload) {
            Ok(req) => req,
            Err(msg) => {
                // Malformed frames answer on the same connection and keep
                // it alive; only transport-level errors end it.
                self.send_error(writer, None, ErrorKind::BadRequest, &msg);
                return true;
            }
        };
        match req {
            Request::Ping => writer.send(&protocol::pong_frame()).is_ok(),
            Request::Metrics => writer
                .send(&protocol::metrics_frame(&self.render_metrics()))
                .is_ok(),
            Request::Shutdown => {
                let ok = writer.send(&protocol::shutdown_ack_frame()).is_ok();
                self.begin_shutdown();
                ok
            }
            Request::Map(_) | Request::Remap(_) => {
                let req = match req {
                    Request::Map(r) => MapJob::Map(r),
                    Request::Remap(r) => MapJob::Remap(r),
                    _ => unreachable!(),
                };
                let id = req.id().map(str::to_owned);
                if self.shutdown.load(Ordering::SeqCst) {
                    self.log_reject(&req, ErrorKind::ShuttingDown);
                    self.send_error(
                        writer,
                        id.as_deref(),
                        ErrorKind::ShuttingDown,
                        "daemon is draining toward exit",
                    );
                    return true;
                }
                let lib = self.job_lib_name(&req);
                let mut hash = None;
                if let (MapJob::Map(r), Some(lib)) = (&req, &lib) {
                    let h = request_hash(lib, &r.blif);
                    if cacheable(r) {
                        if let Some(sent) = self.answer_cached(writer, r, lib, h) {
                            return sent;
                        }
                    }
                    hash = Some(h);
                }
                // Admission: count this request in, then check the limit.
                // The increment-first order makes the limit exact even with
                // several reader threads racing here.
                let inflight = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
                if self.max_inflight > 0 && inflight > self.max_inflight {
                    self.inflight.fetch_sub(1, Ordering::AcqRel);
                    self.log_reject(&req, ErrorKind::Busy);
                    self.send_error(
                        writer,
                        id.as_deref(),
                        ErrorKind::Busy,
                        &format!(
                            "{} requests inflight >= limit {}",
                            inflight, self.max_inflight
                        ),
                    );
                    return true;
                }
                let pending = lib.map(|lib| {
                    self.telemetry.lib_requests(&lib).inc(1);
                    let gauge = self.telemetry.lib_pending(&lib);
                    gauge.add(1);
                    gauge
                });
                let job = Job {
                    req,
                    hash,
                    writer: writer.clone(),
                    pending,
                };
                match self.queue.push(job) {
                    Ok(()) => self.telemetry.requests_total.inc(1),
                    Err(job) => {
                        self.inflight.fetch_sub(1, Ordering::AcqRel);
                        if let Some(gauge) = &job.pending {
                            gauge.add(-1);
                        }
                        self.log_reject(&job.req, ErrorKind::ShuttingDown);
                        self.send_error(
                            writer,
                            id.as_deref(),
                            ErrorKind::ShuttingDown,
                            "daemon is draining toward exit",
                        );
                    }
                }
                true
            }
        }
    }

    /// Answers a cacheable map from the reply cache on the reader thread:
    /// no queue, no admission slot, no pipeline. `None` when the cache
    /// holds no reply for the request; otherwise whether the reply was
    /// written.
    fn answer_cached(
        &self,
        writer: &ConnWriter,
        req: &MapRequest,
        lib: &str,
        hash: u64,
    ) -> Option<bool> {
        let t0 = Instant::now();
        let tel = &self.telemetry;
        let key = ReplyKey {
            lib,
            algo: &req.algo,
            recover: req.recover,
            blif: &req.blif,
        };
        let Some(reply) = self.reply_cache.get(hash, &key) else {
            tel.reply_cache_misses.inc(1);
            return None;
        };
        tel.reply_cache_hits.inc(1);
        tel.requests_total.inc(1);
        tel.lib_requests(lib).inc(1);
        // Under tail sampling a hit is traced like any request: one span.
        let scoped = self.tail.is_some().then(dagmap_obs::start_scoped);
        let span = dagmap_obs::span("serve.cached");
        let head = protocol::reply_head(req.id.as_deref(), true);
        let sent = writer.send_reply(&head, &reply.body).is_ok();
        drop(span);
        let mut ev = RequestEvent::new("map", req.id.clone());
        ev.lib = Some(lib.to_owned());
        ev.kind = "cached";
        ev.blif_bytes = req.blif.len();
        ev.out_bytes = reply.out_bytes;
        ev.report = Some(reply.report.clone());
        ev.trace = scoped.map(|s| s.finish());
        ev.latency_us = t0.elapsed().as_micros() as u64;
        self.finish_request_telemetry(ev);
        dagmap_obs::flush_thread();
        Some(sent)
    }

    fn worker_loop(self: Arc<Inner>) {
        let tel = &self.telemetry;
        while let Some(job) = self.queue.pop() {
            // The request's one latency stamp: from its worker picking it
            // up until its reply is written.
            let t0 = Instant::now();
            tel.workers_busy.add(1);
            let mut ev = job.req.event();
            let outcome = catch_unwind(AssertUnwindSafe(|| match &job.req {
                MapJob::Map(req) => process_map(&self, req, job.hash, &mut ev),
                MapJob::Remap(req) => process_remap(&self, req, &mut ev),
            }));
            let (head, body) = match outcome {
                Ok(Ok(body)) => (protocol::reply_head(job.req.id(), false), body),
                Ok(Err((kind, msg))) => {
                    tel.errors_total.inc(1);
                    ev.outcome = kind.as_str();
                    (
                        String::new(),
                        protocol::error_frame(job.req.id(), kind, &msg),
                    )
                }
                // The request died; the worker and its queue slot did not.
                Err(_) => {
                    tel.errors_total.inc(1);
                    ev.outcome = "panic";
                    let msg = "worker panicked while serving this request";
                    (
                        String::new(),
                        protocol::error_frame(job.req.id(), ErrorKind::Internal, msg),
                    )
                }
            };
            let _ = job.writer.send_reply(&head, &body);
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            ev.latency_us = t0.elapsed().as_micros() as u64;
            self.finish_request_telemetry(ev);
            if let Some(gauge) = &job.pending {
                gauge.add(-1);
            }
            tel.workers_busy.add(-1);
            // Hand this worker's buffered obs frames to any global session
            // (e.g. `dagmap serve --trace`) at a request boundary.
            dagmap_obs::flush_thread();
        }
    }

    /// Consumes a finished request's telemetry: the JSONL log line, the
    /// tail-sampling decision (judged against the class histogram *before*
    /// this request is recorded into it), the rolling latency observation,
    /// the phase observations of a request that ran the pipeline and the
    /// `serve.latency_us` obs sample.
    fn finish_request_telemetry(&self, ev: RequestEvent) {
        if let Some(log) = &self.request_log {
            log.write(&ev);
        }
        let tel = &self.telemetry;
        let class = tel.latency_hist(ev.kind);
        if let (Some(tail), Some(trace)) = (&self.tail, &ev.trace) {
            if tail.should_keep(ev.latency_us, &class.snapshot())
                && tail.store(trace, ev.latency_us).is_some()
            {
                tel.tail_traces_kept_total.inc(1);
            }
        }
        class.observe(ev.latency_us);
        dagmap_obs::sample("serve.latency_us", ev.latency_us);
        if let Some(phases) = &ev.phases {
            tel.observe_phases(phases);
        }
    }
}

/// Canonicalizes a library name for alias lookup: `-` folds to `_` and a
/// trailing `_like` (the built-in libraries' naming convention) is dropped.
fn lib_alias(name: &str) -> String {
    let folded = name.replace('-', "_");
    folded
        .strip_suffix("_like")
        .map_or(folded.clone(), str::to_owned)
}

/// Resolves a library by exact name first, then an alias form so clients
/// may say `44-3` for a library registered as `44_3_like` (`-`/`_` fold,
/// `_like` optional). Returns the *registered* name with the state, so the
/// request log, the per-library series and the reply name the library the
/// same way no matter how the client spelled it.
fn resolve_lib<'a>(
    inner: &'a Inner,
    lib_name: &str,
) -> Result<(&'a str, &'a Arc<LibState>), (ErrorKind, String)> {
    let found = inner.libs.get_key_value(lib_name).or_else(|| {
        let wanted = lib_alias(lib_name);
        inner
            .libs
            .iter()
            .find(|(name, _)| lib_alias(name) == wanted)
    });
    found
        .map(|(name, state)| (name.as_str(), state))
        .ok_or_else(|| {
            let known: Vec<&str> = inner.libs.keys().map(String::as_str).collect();
            (
                ErrorKind::BadRequest,
                format!(
                    "unknown library `{lib_name}` (serving: {})",
                    known.join(", ")
                ),
            )
        })
}

/// The mapping options a request's algorithm string selects: the same
/// options `dagmap map --algo` picks, so a served map is a one-shot map.
fn serve_options(algo: &str, recover: bool) -> Result<MapOptions, (ErrorKind, String)> {
    let mut opts = match algo {
        "dag" => MapOptions::dag(),
        "tree" => MapOptions::tree(),
        "dag-extended" => MapOptions::dag_extended(),
        other => {
            return Err((
                ErrorKind::BadRequest,
                format!("unknown algorithm `{other}`"),
            ));
        }
    };
    if recover {
        opts = opts.with_area_recovery();
    }
    Ok(opts)
}

/// Stores (or refreshes) a retained labeling run under `handle`, evicting
/// the oldest entry beyond the cap.
fn store_retained(inner: &Inner, handle: &str, entry: RetainedEntry) {
    if inner.retain_cap == 0 {
        return;
    }
    let mut retained = inner.retained.lock().unwrap_or_else(|e| e.into_inner());
    retained.insert(handle.to_owned(), entry);
    while retained.len() > inner.retain_cap {
        let oldest = retained
            .iter()
            .min_by_key(|(_, e)| e.seq)
            .map(|(k, _)| k.clone());
        match oldest {
            Some(k) => {
                retained.remove(&k);
            }
            None => break,
        }
    }
}

/// One `map` or `remap` request, with its library and (for `remap`) its
/// retained run resolved — everything [`run_pipeline`] needs.
struct PipelineJob<'a> {
    op: &'static str,
    blif: &'a str,
    lib_name: &'a str,
    state: &'a LibState,
    algo: &'a str,
    recover: bool,
    trace: bool,
    /// The run a `remap` relabels against; `None` maps cold.
    retained: Option<&'a RetainedLabels>,
    /// Handle to retain the fresh run under (`None`: keep nothing).
    retain_as: Option<&'a str>,
}

/// The one request pipeline behind `map` and `remap`: parse, decomposition,
/// map (cold or incremental), verify,
/// writeback, retention and the reply body (the frame after its
/// [`protocol::reply_head`]). A `trace` request (or tail
/// sampling) records into a thread-scoped obs session: concurrent requests
/// on other workers never mix frames into it, and it coexists with a
/// process-global session owned by a harness. A success leaves the report
/// its reply was built from, and the time each phase took, in `ev`.
fn run_pipeline(
    inner: &Inner,
    job: &PipelineJob<'_>,
    ev: &mut RequestEvent,
) -> Result<String, (ErrorKind, String)> {
    let want_tail = inner.tail.is_some();
    let scoped = (job.trace || want_tail).then(dagmap_obs::start_scoped);
    let micros = |t: Instant| t.elapsed().as_micros() as u64;
    let result = (|| {
        let t = Instant::now();
        let net =
            blif::parse(job.blif).map_err(|e| (ErrorKind::BadRequest, format!("blif: {e}")))?;
        let parse_us = micros(t);
        let subject = SubjectGraph::from_network(&net)
            .map_err(|e| (ErrorKind::BadRequest, format!("subject graph: {e}")))?;
        let opts = serve_options(job.algo, job.recover)?;
        let mapper = Mapper::new(&job.state.library);
        let (mapped, report, snapshot) = match (job.retained, job.retain_as) {
            (Some(retained), _) => mapper.map_incremental(&subject, opts, retained, None),
            (None, Some(_)) => mapper.map_with_report_retaining(&subject, opts, None),
            (None, None) => mapper
                .map_with_report(&subject, opts)
                .map(|(mapped, report)| (mapped, report, None)),
        }
        .map_err(|e| (ErrorKind::BadRequest, e.to_string()))?;
        let t = Instant::now();
        if inner.verify {
            verify::check(&mapped, &subject, VERIFY_SEED)
                .map_err(|e| (ErrorKind::Internal, format!("verification failed: {e}")))?;
        }
        let verify_us = micros(t);
        let t = Instant::now();
        let out = mapped
            .to_network()
            .and_then(|n| blif::to_string(&n))
            .map_err(|e| (ErrorKind::Internal, format!("netlist writeback: {e}")))?;
        let phases = Phases::new(&report, parse_us, verify_us, micros(t));
        Ok((report, phases, out, snapshot))
    })();
    // Close the scoped session on both paths so the worker thread is clean
    // for its next request.
    let trace = scoped.map(|s| s.finish());
    let trace_chrome = match (&trace, job.trace) {
        (Some(t), true) => Some(t.to_chrome_json()),
        _ => None,
    };
    if want_tail {
        ev.trace = trace;
    }
    let (report, phases, out_blif, snapshot) = result?;
    let stored = match (snapshot, job.retain_as) {
        (Some(labels), Some(handle)) => {
            store_retained(
                inner,
                handle,
                RetainedEntry {
                    lib: job.lib_name.to_owned(),
                    algo: job.algo.to_owned(),
                    recover: job.recover,
                    labels: Arc::new(labels),
                    seq: inner.retain_seq.fetch_add(1, Ordering::Relaxed),
                },
            );
            true
        }
        _ => false,
    };
    // A remap answers under its handle even when the edited design could
    // not be snapshotted: the prior run stays retained.
    let handle = job.retain_as.filter(|_| stored || job.retained.is_some());
    if job.retained.is_some() {
        inner.telemetry.remaps_total.inc(1);
    }
    let body = protocol::map_reply_body(
        job.op,
        job.lib_name,
        &report,
        &out_blif,
        handle,
        trace_chrome.as_deref(),
    );
    ev.out_bytes = out_blif.len();
    ev.report = Some(report);
    ev.phases = Some(phases);
    Ok(body)
}

/// Maps one request through [`run_pipeline`], retaining the labeling run
/// under the request id when asked to, and stores a cacheable reply on the
/// second sighting of its `(library, BLIF)` pair: traffic without repeats
/// stores nothing. `hash` is the pair's fold hash when the reader computed
/// it.
fn process_map(
    inner: &Inner,
    req: &MapRequest,
    hash: Option<u64>,
    ev: &mut RequestEvent,
) -> Result<String, (ErrorKind, String)> {
    let wanted = req.lib.as_deref().unwrap_or(&inner.default_lib);
    let (lib_name, state) = resolve_lib(inner, wanted)?;
    ev.lib = Some(lib_name.to_owned());
    let hash = hash.unwrap_or_else(|| request_hash(lib_name, &req.blif));
    let seen_before = !inner.telemetry.first_seen(hash);
    ev.kind = if seen_before { "repeat" } else { "first" };
    let retain = req.retain && inner.retain_cap > 0;
    let job = PipelineJob {
        op: "map",
        blif: &req.blif,
        lib_name,
        state,
        algo: &req.algo,
        recover: req.recover,
        trace: req.trace,
        retained: None,
        // `retain` requires an id at parse time, so the handle is there.
        retain_as: req.id.as_deref().filter(|_| retain),
    };
    let body = run_pipeline(inner, &job, ev)?;
    if let (true, Some(report)) = (seen_before && cacheable(req), &ev.report) {
        let key = ReplyKey {
            lib: lib_name,
            algo: &req.algo,
            recover: req.recover,
            blif: &req.blif,
        };
        let reply = CachedReply {
            body: body.clone(),
            report: report.clone(),
            out_bytes: ev.out_bytes,
        };
        let evicted = inner.reply_cache.insert(hash, &key, reply);
        inner.telemetry.reply_cache_evictions.inc(evicted as u64);
    }
    Ok(body)
}

/// Incrementally re-maps an edited network against a retained labeling
/// run: only the region whose strash signatures changed is re-labeled, and
/// the reply is byte-identical to a cold map of the same BLIF. The fresh
/// snapshot replaces the retained one, so successive edits chain.
fn process_remap(
    inner: &Inner,
    req: &RemapRequest,
    ev: &mut RequestEvent,
) -> Result<String, (ErrorKind, String)> {
    let (lib, algo, recover, labels) = {
        let retained = inner.retained.lock().unwrap_or_else(|e| e.into_inner());
        let entry = retained.get(&req.handle).ok_or_else(|| {
            (
                ErrorKind::BadRequest,
                format!("unknown retain handle `{}`", req.handle),
            )
        })?;
        (
            entry.lib.clone(),
            entry.algo.clone(),
            entry.recover,
            Arc::clone(&entry.labels),
        )
    };
    let (lib_name, state) = resolve_lib(inner, &lib)?;
    ev.lib = Some(lib_name.to_owned());
    let job = PipelineJob {
        op: "remap",
        blif: &req.blif,
        lib_name,
        state,
        algo: &algo,
        recover,
        trace: req.trace,
        retained: Some(&labels),
        retain_as: Some(&req.handle),
    };
    run_pipeline(inner, &job, ev)
}

fn spawn_reader(inner: &Arc<Inner>, conn: ConnHandle) {
    let (writer, make_reader): (
        ConnWriter,
        Box<dyn FnOnce() -> Box<dyn io::Read + Send> + Send>,
    ) = match &conn {
        ConnHandle::Tcp(s) => {
            let Ok(w) = s.try_clone() else { return };
            let Ok(r) = s.try_clone() else { return };
            (ConnWriter::new(Box::new(w)), Box::new(move || Box::new(r)))
        }
        #[cfg(unix)]
        ConnHandle::Unix(s) => {
            let Ok(w) = s.try_clone() else { return };
            let Ok(r) = s.try_clone() else { return };
            (ConnWriter::new(Box::new(w)), Box::new(move || Box::new(r)))
        }
    };
    {
        let mut conns = inner.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.push(conn);
    }
    let reader_inner = Arc::clone(inner);
    let handle = thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || {
            let inner = reader_inner;
            let mut reader = BufReader::new(make_reader());
            loop {
                match protocol::read_frame(&mut reader) {
                    Ok(Some(payload)) => {
                        if !inner.handle_frame(&writer, &payload) {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        // Framing itself broke (bad header / truncation):
                        // reply once, then drop the connection — byte
                        // positions are no longer trustworthy.
                        inner.send_error(
                            &writer,
                            None,
                            ErrorKind::BadRequest,
                            &format!("framing: {e}"),
                        );
                        break;
                    }
                    Err(_) => break,
                }
            }
        });
    if let Ok(handle) = handle {
        let mut readers = inner.readers.lock().unwrap_or_else(|e| e.into_inner());
        readers.push(handle);
    }
}

/// A bound listener, before its accept thread starts.
enum Listener {
    /// The protocol over TCP.
    Tcp(TcpListener),
    /// The protocol over a unix socket.
    #[cfg(unix)]
    Unix(UnixListener),
    /// `--metrics-addr`: plain-HTTP metrics scrapes.
    MetricsHttp(TcpListener),
}

/// Where a listener accepts: what shutdown connects to.
enum ListenAddr {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl ListenAddr {
    /// Connects once, to return the listener's blocking `accept`. A failure
    /// means the loop is gone already.
    fn wake(&self) {
        match self {
            ListenAddr::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
            }
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

impl Listener {
    fn addr(&self) -> io::Result<ListenAddr> {
        match self {
            Listener::Tcp(l) | Listener::MetricsHttp(l) => {
                let mut addr = l.local_addr()?;
                // A wildcard bind accepts on loopback too.
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Ok(ListenAddr::Tcp(addr))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map(|p| ListenAddr::Unix(p.to_path_buf()))
                .ok_or_else(|| io::Error::other("unix listener has no path")),
        }
    }

    fn thread_name(&self) -> &'static str {
        match self {
            Listener::Tcp(_) => "serve-accept-tcp",
            #[cfg(unix)]
            Listener::Unix(_) => "serve-accept-unix",
            Listener::MetricsHttp(_) => "serve-metrics-http",
        }
    }

    /// Accepts until shutdown. Metrics scrapes are answered inline — they
    /// are cheap and infrequent — so a stalled scraper delays the next by
    /// at most its 2 s read timeout.
    fn run(self, inner: &Arc<Inner>) {
        match self {
            Listener::Tcp(l) => accept_until_shutdown(
                inner,
                || l.accept().map(|(s, _)| s),
                |s| {
                    let _ = s.set_nodelay(true);
                    spawn_reader(inner, ConnHandle::Tcp(s));
                },
            ),
            #[cfg(unix)]
            Listener::Unix(l) => accept_until_shutdown(
                inner,
                || l.accept().map(|(s, _)| s),
                |s| spawn_reader(inner, ConnHandle::Unix(s)),
            ),
            Listener::MetricsHttp(l) => accept_until_shutdown(
                inner,
                || l.accept().map(|(s, _)| s),
                |s| serve_http_scrape(inner, s),
            ),
        }
    }
}

/// Blocks in `accept` and serves each connection, until a connection
/// arrives after the shutdown flag is set — the wake-up
/// [`Inner::begin_shutdown`] sends, or a client racing it — which is
/// dropped unserved.
fn accept_until_shutdown<S>(
    inner: &Inner,
    mut accept: impl FnMut() -> io::Result<S>,
    mut serve: impl FnMut(S),
) {
    loop {
        match accept() {
            Ok(_) if inner.shutdown.load(Ordering::SeqCst) => break,
            Ok(stream) => serve(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => break,
        }
    }
}

/// Removes the unix socket file when dropped. Created immediately after
/// the bind succeeds, so the file is cleaned up on *every* exit from that
/// point on — normal drain, an error later in startup, or a panic — not
/// just the happy path through [`Server::wait`].
#[cfg(unix)]
struct SocketGuard {
    path: PathBuf,
}

#[cfg(unix)]
impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Answers one plain-HTTP metrics scrape on an accepted connection:
/// `GET /metrics` (or `/`) returns the Prometheus text exposition.
fn serve_http_scrape(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 8192];
    let mut n = 0;
    // Read until the end of the request head; scrapers send no body.
    loop {
        if n == buf.len() {
            return;
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) | Err(_) => {
                if n == 0 {
                    return;
                }
                break;
            }
            Ok(k) => n += k,
        }
        if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..n]);
    let mut line = head.lines().next().unwrap_or("").split_whitespace();
    let method = line.next().unwrap_or("");
    let path = line.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        )
    } else if path == "/metrics" || path == "/" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            inner.render_metrics(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (try /metrics)\n".to_owned(),
        )
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

/// A running daemon. Dropping it without [`Server::wait`] leaks threads;
/// call `request_shutdown` + `wait` (or send a `shutdown` frame) to stop
/// it cleanly.
pub struct Server {
    inner: Arc<Inner>,
    listeners: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tcp_addr: Option<std::net::SocketAddr>,
    metrics_http_addr: Option<std::net::SocketAddr>,
    #[cfg(unix)]
    _unix_guard: Option<SocketGuard>,
}

impl Server {
    /// Binds the endpoints, indexes the libraries, and starts the worker
    /// pool. Returns once the daemon is accepting connections.
    ///
    /// Library names must be unique; the first library is the default for
    /// requests that name none.
    ///
    /// # Errors
    ///
    /// Bind failures, no endpoint given, no library given, or duplicate
    /// library names.
    pub fn start(
        config: &ServeConfig,
        libraries: Vec<Library>,
        endpoints: &Endpoints,
    ) -> io::Result<Server> {
        if libraries.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one library is required",
            ));
        }
        let default_lib = libraries[0].name().to_owned();
        let mut libs = BTreeMap::new();
        for library in libraries {
            let name = library.name().to_owned();
            if libs
                .insert(name.clone(), Arc::new(LibState { library }))
                .is_some()
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate library name `{name}`"),
                ));
            }
        }
        // Bind every listener before any thread starts, so shutdown knows
        // each address it must wake.
        let mut bound = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &endpoints.tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            bound.push(Listener::Tcp(listener));
        }
        #[cfg(unix)]
        let mut unix_guard = None;
        #[cfg(unix)]
        if let Some(path) = &endpoints.unix {
            // A stale socket file from a crashed daemon would fail the
            // bind; remove it first (errors surface from bind itself).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            // From here the file exists on disk; the guard removes it on
            // any exit — including a panic or error below — not just a
            // clean `wait()`.
            unix_guard = Some(SocketGuard { path: path.clone() });
            bound.push(Listener::Unix(listener));
        }
        if bound.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no endpoint to listen on (need --tcp and/or --unix)",
            ));
        }
        let mut metrics_http_addr = None;
        if let Some(addr) = &config.metrics_addr {
            let listener = TcpListener::bind(addr)?;
            metrics_http_addr = Some(listener.local_addr()?);
            bound.push(Listener::MetricsHttp(listener));
        }
        let listen_addrs = bound
            .iter()
            .map(Listener::addr)
            .collect::<io::Result<Vec<_>>>()?;

        let telemetry = Telemetry::new(config.workers.max(1));
        let request_log = match &config.log_requests {
            Some(path) => Some(RequestLog::open(path)?),
            None => None,
        };
        let tail = match &config.tail {
            Some(tail) => Some(TailState::new(tail)?),
            None => None,
        };
        let inner = Arc::new(Inner {
            libs,
            default_lib,
            queue: JobQueue::new(),
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            workers: config.workers.max(1),
            verify: config.verify,
            retained: Mutex::new(BTreeMap::new()),
            retain_cap: config.retain_cap,
            retain_seq: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            listen_addrs,
            reply_cache: ReplyCache::new(REPLY_CACHE_BYTES),
            telemetry,
            request_log,
            tail,
        });
        let listeners = bound
            .into_iter()
            .map(|listener| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(listener.thread_name().into())
                    .spawn(move || listener.run(&inner))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let allowed = affinity::allowed_cpus();
        let workers = (0..inner.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let cpu = affinity::worker_cpu(i, inner.workers, &allowed);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        if let Some(cpu) = cpu {
                            affinity::pin_current_thread(cpu);
                        }
                        inner.worker_loop()
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Server {
            inner,
            listeners,
            workers,
            tcp_addr,
            metrics_http_addr,
            #[cfg(unix)]
            _unix_guard: unix_guard,
        })
    }

    /// The bound TCP address, when a TCP endpoint was configured (useful
    /// with port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_addr
    }

    /// The bound `--metrics-addr` HTTP address, when one was configured
    /// (useful with port 0).
    pub fn metrics_http_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_http_addr
    }

    /// Initiates the same graceful shutdown a `shutdown` frame does.
    pub fn request_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Blocks until the daemon has shut down: listeners stopped, every
    /// admitted request answered, workers exited, connections closed.
    ///
    /// # Errors
    ///
    /// Currently infallible at the I/O level (teardown errors are
    /// swallowed); the signature leaves room for stricter reporting.
    pub fn wait(self) -> io::Result<()> {
        // Listeners exit once shutdown has set the flag and woken them.
        for l in self.listeners {
            let _ = l.join();
        }
        // Workers exit when the closed queue runs dry — this is the drain.
        for w in self.workers {
            let _ = w.join();
        }
        // Every admitted request has been answered; now unblock readers
        // still parked in read() on idle connections.
        let conns = {
            let mut conns = self.inner.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *conns)
        };
        for conn in &conns {
            conn.force_close();
        }
        let readers = {
            let mut readers = self.inner.readers.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *readers)
        };
        for r in readers {
            let _ = r.join();
        }
        // The unix socket file is removed by the guard's Drop as `self`
        // goes out of scope here.
        Ok(())
    }
}
