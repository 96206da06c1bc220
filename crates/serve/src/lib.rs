#![warn(missing_docs)]
//! `dagmap serve` — a long-lived batch-mapping daemon.
//!
//! One-shot `dagmap map` pays the full setup bill on every invocation:
//! start a process, parse the genlib, build the pattern index and extend
//! supergates. For workloads that map many circuits against a few
//! libraries — regression farms, synthesis sweeps, the paper's own
//! Table 2/3 style experiments — that bill dominates. This crate keeps it
//! paid in one process, and a served map then costs what a one-shot map of
//! the same BLIF costs, plus I/O:
//!
//! * per-library immutable state behind `Arc` — the parsed [`Library`]
//!   (including any supergate extension applied at startup) with its
//!   subtree automaton, whose transition table warms across requests.
//!   Each request maps through the same calls as one-shot `dagmap map`,
//!   so served results are **bit-identical** to it;
//! * a threaded accept loop (TCP and unix-socket) feeding a fixed worker
//!   pool through an MPMC [`queue::JobQueue`] — parallelism is across
//!   requests, each map itself runs serial; a pool of one worker per CPU
//!   (the default) pins each worker to its own CPU on Linux;
//! * a reply cache: a `map` reply is a pure function of library,
//!   algorithm, `recover` and BLIF, so from the second sighting of a
//!   `(library, BLIF)` pair on, an identical request is answered on its
//!   connection's reader thread with the stored reply bytes, never
//!   reaching the worker queue; the cache holds at most 32 MiB, least
//!   recently used first out;
//! * a length-prefixed line-JSON protocol ([`protocol`]) with per-request
//!   error isolation (a malformed request answers with an error frame and
//!   never kills a worker or connection), `busy` backpressure past
//!   `--max-inflight`, and graceful drain on `shutdown`;
//! * incremental re-mapping: a `map` request with `options.retain`
//!   snapshots the run's labels server-side and returns a `handle`; a
//!   later `remap` request with that handle and an edited BLIF relabels
//!   only the dirty region (clean nodes are recognized by strash
//!   signature and their labels copied), still bit-identical to a cold
//!   map of the edited netlist;
//! * observability: a request's match traffic surfaces through the label
//!   pass's `dagmap-obs` counters (`match.enumerated` / `match.pruned`),
//!   its latency through the `serve.latency_us` histogram, and any
//!   request may ask for its own
//!   Chrome trace via `options.trace` (recorded in a thread-scoped obs
//!   session, isolated from concurrent requests);
//! * live telemetry: one always-on metrics registry per server — the
//!   daemon's only store of request, error, busy and remap counts — with
//!   queue depth, worker utilization, rolling-window latency quantiles
//!   split first-seen vs repeated vs cached, reply-cache hits, misses,
//!   evictions and resident bytes, and per-library request counts, served
//!   as a `metrics` protocol frame and optionally as plain HTTP
//!   (`--metrics-addr`, `GET /metrics`, Prometheus text format); JSONL
//!   request logging (`--log-requests`); and tail-based trace sampling —
//!   requests slower than their class's rolling quantile keep their Chrome
//!   trace in a bounded on-disk ring. Each request's latency is stamped
//!   once and its [`MapReport`] is the one record its reply, log line and
//!   phase histograms read. All of it is byte-neutral to the mapped
//!   output.
//!
//! [`MapReport`]: dagmap_core::MapReport
//!
//! [`Library`]: dagmap_genlib::Library

mod affinity;
mod cache;
pub mod client;
pub mod dash;
pub mod protocol;
pub mod queue;
pub mod server;
mod telemetry;

pub use client::{map_request, remap_request, Client, Endpoint, MapCall};
pub use protocol::{ErrorKind, MapRequest, RemapRequest, Request};
pub use server::{Endpoints, LibState, ServeConfig, Server, TailConfig};
