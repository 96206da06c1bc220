//! `serve_mixed`: the daemon in-process under closed-loop mixed traffic.
//!
//! The server runs with `ServeConfig::default()` (workers = nproc, metrics
//! and verification on) on a unix socket in the working directory. Two
//! client connections each run one session at a time and wait for every
//! reply before sending the next request — the edit-loop caller of
//! `map{retain}` → `remap` chains. Traffic comes in rounds of identical
//! composition (92 requests, seeded order):
//!
//! * 64 warm maps (70%): each of the 8 hot designs under each library four
//!   times. The hot set is mapped once before timing, so the shared match
//!   store answers them through strash-id hits.
//! * 14 first-seen maps (15%) of fresh seeded 400-gate random designs,
//!   which write to the store (misses, inserts, rotation) while the other
//!   worker reads it.
//! * 2 remap chains (15%), one per library: `map{retain}` of a fresh
//!   design, then 4–8 single-XOR-patch `remap`s (12 per round),
//!   exercising incremental relabeling.
//!
//! Both clients finish a round before the next starts; between rounds the
//! set-up is timed (the libraries built and a second daemon answering a
//! ping). Every reply is checked against the in-process
//! one-shot mapping of the same BLIF and library. The traced run replays
//! the sent sequence in process, in send order, through the calls
//! `process_map` and `process_remap` make — once through those entry
//! points and once split per layer.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dagmap_benchgen as benchgen;
use dagmap_core::{
    label_with_shared_store, relabel_incremental, verify, MapOptions, Mapper, RetainedLabels,
    SharedMatchStore,
};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, NetEdit, Network, NodeFn, SubjectGraph};
use dagmap_rng::StdRng;
use dagmap_serve::{
    map_request, remap_request, Client, Endpoint, Endpoints, MapCall, ServeConfig, Server,
};

use crate::check::{digest, OpOutput, Reference};
use crate::oneshot::{cover, run_op, traced_head, traced_tail, writeback, VERIFY_SEED};
use crate::report::RunResult;
use crate::trace::{Layer, Ledger};
use crate::workload::{design, Design, Engine, Workload};
use crate::{stats, LayerReport, Round, RunOptions, ServeStats, Setup, SETUP_REPS_PER_ROUND};

/// Closed-loop client connections (the reference host's CPU count).
const CLIENTS: usize = 2;
/// Traffic is generated for this many requests per second of budget —
/// about twice what the daemon reaches on the reference host — so a run
/// does not run out of rounds.
const MAX_RATE: f64 = 300.0;
/// Cone-class budget of the replay's stores: the daemon's default.
const MEMO_CAP: usize = 1 << 16;
/// Libraries the daemon serves (lib2 and 44-3).
const LIBS: usize = 2;
/// Per round: maps of each hot (design, library) pair.
const WARM_PER_PAIR: usize = 4;
/// Per round and library: first-seen maps.
const FIRST_PER_LIB: usize = 7;
/// Per round: remaps over the round's two chains.
const REMAPS_PER_ROUND: usize = 12;
/// Requests per round: warm maps of the 8 hot designs, first-seen maps,
/// and one retaining map plus the remaps per chain.
const REQUESTS_PER_ROUND: usize =
    8 * LIBS * WARM_PER_PAIR + LIBS * FIRST_PER_LIB + LIBS + REMAPS_PER_ROUND;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A map of a hot design.
    Warm,
    /// A map of a design seen for the first time.
    First,
    /// The first-seen `map{retain}` that opens a remap chain.
    Retain,
    /// An incremental `remap` against the chain's retained labels.
    Remap,
}

impl Kind {
    /// The latency class the request reports under.
    fn class(self) -> &'static str {
        match self {
            Kind::Warm => "repeat",
            Kind::First | Kind::Retain => "first",
            Kind::Remap => "remap",
        }
    }
}

/// One request of a session: a payload, its library, and what to do.
#[derive(Debug, Clone, Copy)]
struct Req {
    payload: usize,
    lib: usize,
    kind: Kind,
}

/// The generated traffic: BLIF payloads and the sessions that send them.
struct Traffic {
    payloads: Vec<Design>,
    sessions: Vec<Vec<Req>>,
    /// Session ranges of the rounds.
    rounds: Vec<Range<usize>>,
    /// Payloads `0..hot` are the hot set.
    hot: usize,
}

/// One request as sent and answered.
struct Record {
    /// Send order across both clients.
    order: usize,
    session: usize,
    /// Round of the request; `None` for the untimed warm-up.
    round: Option<usize>,
    req: Req,
    latency_ms: f64,
    encode_us: f64,
    decode_us: f64,
    /// Labeling threads the daemon reports for the request.
    threads: usize,
    /// Digest of the reply's BLIF and its delay, or why there is none.
    reply: Result<(u64, f64), String>,
}

fn hot_designs(smoke: bool) -> Vec<Design> {
    let mut hot = vec![
        design("alu8", &benchgen::alu(8)),
        design("cmp16", &benchgen::comparator(16)),
    ];
    if !smoke {
        hot.extend([
            design("ks16", &benchgen::kogge_stone_adder(16)),
            design("mult8", &benchgen::array_multiplier(8)),
            design("bshift16", &benchgen::barrel_shifter(16)),
            design("c2670", &benchgen::c2670_like()),
            design("c3540", &benchgen::c3540_like()),
            design("c5315", &benchgen::c5315_like()),
        ]);
    }
    hot
}

/// A fresh 400-gate random design.
fn fresh_design(rng: &mut StdRng) -> Network {
    benchgen::random_network_with(&benchgen::RandomNetSpec {
        inputs: 32,
        gates: 400,
        seed: rng.next_u64(),
        ..benchgen::RandomNetSpec::default()
    })
}

/// XORs a fresh input into a seeded choice of output: a small local edit
/// that leaves most strash signatures intact.
fn patch(net: &mut Network, rng: &mut StdRng, step: usize) {
    let out = &net.outputs()[rng.random_range(0..net.outputs().len())];
    let (name, old) = (out.name.clone(), out.driver);
    let created = net
        .apply_edits(vec![
            NetEdit::AddInput {
                name: format!("patch{step}"),
            },
            NetEdit::AddNode {
                func: NodeFn::Xor,
                fanins: vec![old, old],
                name: None,
            },
        ])
        .expect("patch edits are well-formed");
    let (patch_in, xor) = (
        created[0].expect("input created"),
        created[1].expect("gate created"),
    );
    net.replace_fanin(xor, 1, patch_in)
        .expect("fresh gate has pin 1");
    net.apply_edits(vec![NetEdit::SetOutputDriver {
        output: name,
        driver: xor,
    }])
    .expect("output exists");
}

/// Appends one round's sessions, in seeded order.
fn round(rng: &mut StdRng, payloads: &mut Vec<Design>, hot: usize, smoke: bool) -> Vec<Vec<Req>> {
    let (warm_reps, firsts) = if smoke {
        (1, 1)
    } else {
        (WARM_PER_PAIR, FIRST_PER_LIB)
    };
    let mut sessions = Vec::new();
    for payload in 0..hot {
        for lib in 0..LIBS {
            for _ in 0..warm_reps {
                sessions.push(vec![Req {
                    payload,
                    lib,
                    kind: Kind::Warm,
                }]);
            }
        }
    }
    for lib in 0..LIBS {
        for _ in 0..firsts {
            payloads.push(design("fresh", &fresh_design(rng)));
            sessions.push(vec![Req {
                payload: payloads.len() - 1,
                lib,
                kind: Kind::First,
            }]);
        }
    }
    let first_len = if smoke {
        1
    } else {
        rng.random_range(4..9usize)
    };
    let lens = if smoke {
        [1, 1]
    } else {
        [first_len, REMAPS_PER_ROUND - first_len]
    };
    for (lib, remaps) in lens.into_iter().enumerate() {
        let mut net = fresh_design(rng);
        let mut chain = Vec::new();
        for step in 0..=remaps {
            if step > 0 {
                patch(&mut net, rng, step);
            }
            payloads.push(design("chain", &net));
            chain.push(Req {
                payload: payloads.len() - 1,
                lib,
                kind: if step == 0 { Kind::Retain } else { Kind::Remap },
            });
        }
        sessions.push(chain);
    }
    for i in (1..sessions.len()).rev() {
        sessions.swap(i, rng.random_range(0..i + 1));
    }
    sessions
}

/// Generates `rounds` rounds of traffic from `seed`.
fn traffic(seed: u64, rounds: usize, smoke: bool) -> Traffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut payloads = hot_designs(smoke);
    let hot = payloads.len();
    let mut sessions = Vec::new();
    let mut ranges = Vec::new();
    for _ in 0..rounds {
        let start = sessions.len();
        sessions.extend(round(&mut rng, &mut payloads, hot, smoke));
        ranges.push(start..sessions.len());
    }
    Traffic {
        payloads,
        sessions,
        rounds: ranges,
        hot,
    }
}

fn handle(session: usize) -> String {
    format!("h{session}")
}

/// What every client thread shares: the traffic, the library names and
/// the send-order counter.
struct Load<'a> {
    traffic: &'a Traffic,
    lib_names: &'a [String],
    order: &'a AtomicUsize,
}

impl Load<'_> {
    /// Sends one request and waits for its reply. The latency runs from
    /// the BLIF text handed to the payload encoder to the BLIF text taken
    /// out of the decoded reply.
    fn call(
        &self,
        client: &mut Client,
        session: usize,
        step: usize,
        req: Req,
        round: Option<usize>,
    ) -> std::io::Result<Record> {
        let blif = &self.traffic.payloads[req.payload].blif;
        let handle = handle(session);
        let id = if req.kind == Kind::Retain {
            handle.clone()
        } else {
            format!("r{session}.{step}")
        };
        let t0 = Instant::now();
        let payload = match req.kind {
            Kind::Remap => remap_request(blif, &handle, Some(&id), false),
            Kind::Warm | Kind::First | Kind::Retain => map_request(
                blif,
                &MapCall {
                    id: Some(&id),
                    lib: Some(&self.lib_names[req.lib]),
                    retain: req.kind == Kind::Retain,
                    ..MapCall::default()
                },
            ),
        };
        let encode = t0.elapsed();
        let order = self.order.fetch_add(1, Ordering::SeqCst);
        client.send(&payload)?;
        let raw = client.recv_raw()?;
        let t1 = Instant::now();
        let reply = dagmap_obs::json::parse(&raw);
        let text = reply
            .as_ref()
            .ok()
            .and_then(|r| r.get("blif"))
            .and_then(|b| b.as_str());
        let latency = t0.elapsed();
        let decode = t1.elapsed();
        // Replies are matched to requests by id; everything from here on
        // is bookkeeping outside the latency.
        let outcome = match (&reply, text) {
            (Err(e), _) => Err(format!("reply is not JSON: {e}")),
            (Ok(r), _) if r.get("id").and_then(|v| v.as_str()) != Some(id.as_str()) => {
                Err(format!("reply does not carry id `{id}`: {}", clip(&raw)))
            }
            (Ok(r), Some(text)) => match r.get("delay").and_then(|v| v.as_num()) {
                Some(delay) => Ok((digest(text), delay)),
                None => Err("reply carries no delay".into()),
            },
            (Ok(_), None) => Err(format!("error reply: {}", clip(&raw))),
        };
        let threads = reply
            .as_ref()
            .ok()
            .and_then(|r| r.get("phases")?.get("label_threads")?.as_num())
            .map_or(0, |n| n as usize);
        Ok(Record {
            order,
            session,
            round,
            req,
            latency_ms: latency.as_secs_f64() * 1e3,
            encode_us: encode.as_secs_f64() * 1e6,
            decode_us: decode.as_secs_f64() * 1e6,
            threads,
            reply: outcome,
        })
    }
}

fn clip(text: &str) -> &str {
    let end = text.char_indices().nth(160).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

/// Each sent `(payload, library)` pair's reference, ordered so that
/// aggregates over it repeat exactly.
type References = BTreeMap<(usize, usize), Result<Reference, String>>;

/// The reference of every `(payload, library)` pair sent: the in-process
/// one-shot mapping, validated by simulation. Computed after the load
/// stops, on `CLIENTS` threads.
fn references(traffic: &Traffic, libs: &[Library], records: &[Record]) -> References {
    let mut pairs: Vec<(usize, usize)> =
        records.iter().map(|r| (r.req.payload, r.req.lib)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let pairs = &pairs;
                s.spawn(move || {
                    pairs
                        .iter()
                        .skip(w)
                        .step_by(CLIENTS)
                        .map(|&(p, l)| ((p, l), reference(&traffic.payloads[p].blif, &libs[l])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

fn reference(text: &str, lib: &Library) -> Result<Reference, String> {
    let input = blif::parse(text).map_err(|e| format!("payload does not parse: {e}"))?;
    let (out, info) = run_op(text, Engine::Dag, lib)?;
    Reference::validate(&input, &out, info.nodes)
}

fn verdict(refs: &References, req: Req, reply: Result<(u64, f64), String>) -> Result<(), String> {
    let (got, delay) = reply?;
    let reference = refs
        .get(&(req.payload, req.lib))
        .expect("every sent pair has a reference")
        .as_ref()
        .map_err(|e| format!("one-shot reference failed: {e}"))?;
    if got != reference.digest {
        return Err("reply bytes differ from the in-process one-shot mapping".into());
    }
    if delay != reference.delay {
        return Err(format!(
            "reply delay {delay} differs from the one-shot reference {}",
            reference.delay
        ));
    }
    Ok(())
}

/// Per-library stores and retained runs of one in-process replay.
struct ReplayState {
    stores: Vec<SharedMatchStore>,
    retained: HashMap<usize, RetainedLabels>,
}

impl ReplayState {
    fn new(libs: &[Library]) -> ReplayState {
        ReplayState {
            stores: libs
                .iter()
                .map(|l| {
                    SharedMatchStore::for_library(l, SharedMatchStore::DEFAULT_SHARDS, MEMO_CAP)
                })
                .collect(),
            retained: HashMap::new(),
        }
    }

    /// Files a chain's refreshed snapshot (or drops the handle when the
    /// subject could not be snapshotted, as the daemon does).
    fn keep(&mut self, session: usize, snapshot: Option<RetainedLabels>) {
        match snapshot {
            Some(s) => self.retained.insert(session, s),
            None => self.retained.remove(&session),
        };
    }

    fn retained(&self, session: usize) -> Result<&RetainedLabels, String> {
        self.retained
            .get(&session)
            .ok_or_else(|| format!("unknown retain handle `{}`", handle(session)))
    }
}

/// The daemon's mapping options: `dag` with the memo forced on.
fn serve_options() -> MapOptions {
    MapOptions::dag().with_match_memo(true)
}

/// One request in process through the entry points `process_map` and
/// `process_remap` call.
fn replay_plain(
    text: &str,
    rec: &Record,
    libs: &[Library],
    state: &mut ReplayState,
) -> Result<OpOutput, String> {
    let net = blif::parse(text).map_err(|e| format!("parse: {e}"))?;
    let subject = SubjectGraph::from_network(&net).map_err(|e| format!("decompose: {e}"))?;
    let mapper = Mapper::new(&libs[rec.req.lib]);
    let store = &state.stores[rec.req.lib];
    let (mapped, snapshot) = match rec.req.kind {
        Kind::Warm | Kind::First => mapper
            .map_with_report_shared(&subject, serve_options(), store)
            .map(|(m, _)| (m, None)),
        Kind::Retain => mapper
            .map_with_report_retaining(&subject, serve_options(), Some(store))
            .map(|(m, _, snapshot)| (m, Some(snapshot))),
        Kind::Remap => mapper
            .map_incremental(
                &subject,
                serve_options(),
                state.retained(rec.session)?,
                Some(store),
            )
            .map(|(m, _, snapshot)| (m, Some(snapshot))),
    }
    .map_err(|e| format!("map: {e}"))?;
    if let Some(snapshot) = snapshot {
        state.keep(rec.session, snapshot);
    }
    verify::check(&mapped, &subject, VERIFY_SEED).map_err(|e| format!("verify: {e}"))?;
    writeback(&mapped)
}

/// The same request as [`replay_plain`], split into the public calls
/// behind those entry points, each timed into `ledger`.
fn replay_traced(
    text: &str,
    rec: &Record,
    libs: &[Library],
    state: &mut ReplayState,
    ledger: &mut Ledger,
) -> Result<OpOutput, String> {
    let t0 = Instant::now();
    let result = (|| {
        let subject = traced_head(text, ledger)?;
        let nodes = subject.network().num_nodes();
        let lib = &libs[rec.req.lib];
        let opts = serve_options();
        let store = &state.stores[rec.req.lib];
        let (labels, snapshot) = match rec.req.kind {
            Kind::Warm | Kind::First | Kind::Retain => {
                let labels = ledger
                    .time(Layer::Label, || {
                        label_with_shared_store(
                            &subject,
                            lib,
                            opts.match_mode,
                            opts.objective,
                            opts.match_config(),
                            store,
                        )
                    })
                    .map_err(|e| format!("map: {e}"))?;
                ledger.counters.add_labels(nodes, &labels);
                let snapshot = (rec.req.kind == Kind::Retain).then(|| {
                    ledger.time(Layer::Incremental, || {
                        RetainedLabels::from_labels(&subject, &labels)
                    })
                });
                (labels, snapshot)
            }
            Kind::Remap => {
                let retained = state.retained(rec.session)?;
                let (labels, inc) = ledger
                    .time(Layer::Incremental, || {
                        relabel_incremental(
                            &subject,
                            lib,
                            opts.match_mode,
                            opts.objective,
                            opts.match_config(),
                            retained,
                            Some(store),
                        )
                    })
                    .map_err(|e| format!("map: {e}"))?;
                let c = &mut ledger.counters;
                c.reused += inc.reused;
                c.relabeled += inc.relabeled;
                c.memo_lookups += labels.memo_lookups;
                c.memo_hits += labels.memo_hits;
                c.memo_id_hits += labels.memo_id_hits;
                let snapshot = ledger.time(Layer::Incremental, || {
                    RetainedLabels::from_labels(&subject, &labels)
                });
                (labels, Some(snapshot))
            }
        };
        if let Some(snapshot) = snapshot {
            state.keep(rec.session, snapshot);
        }
        let mapped = cover(&Mapper::new(lib), &subject, labels, ledger)?;
        traced_tail(mapped, subject, ledger)
    })();
    ledger.op_s += t0.elapsed().as_secs_f64();
    ledger.ops += 1;
    result
}

/// Starts a daemon on `socket` and waits for its answer to a ping.
fn start(libs: Vec<Library>, socket: &Path) -> (Server, Client) {
    let server = Server::start(
        &ServeConfig::default(),
        libs,
        &Endpoints {
            unix: Some(socket.to_path_buf()),
            ..Endpoints::default()
        },
    )
    .expect("daemon starts");
    let mut client =
        Client::connect(&Endpoint::Unix(socket.to_path_buf())).expect("client connects");
    client.ping().expect("daemon answers a ping");
    (server, client)
}

fn stop(server: Server, mut control: Client) {
    control.shutdown().expect("daemon acknowledges shutdown");
    server.wait().expect("daemon drains");
}

/// One set-up repetition on a second socket: the libraries built and a
/// daemon answering a ping.
fn setup_rep(socket: &Path) -> Setup {
    let t0 = Instant::now();
    let libs = Workload::ServeMixed.libraries();
    let genlib_seconds = t0.elapsed().as_secs_f64();
    let (server, control) = start(libs, socket);
    let seconds = t0.elapsed().as_secs_f64();
    stop(server, control);
    Setup {
        seconds,
        genlib_seconds,
    }
}

/// The closed-loop load: untimed warm-up, then rounds until the budget is
/// spent. Returns every record (in send order), the timed rounds, and the
/// requests lost to a failed connection (the load stops after one).
fn drive(
    opts: &RunOptions,
    traffic: &Traffic,
    libs: &[Library],
) -> (Vec<Record>, Vec<Round>, Vec<String>) {
    // Relative to the working directory: the run reads and writes only
    // there, and short relative paths stay within the socket-path limit.
    let socket = PathBuf::from(format!("e2e-serve-{}.sock", std::process::id()));
    let setup_socket = PathBuf::from(format!("e2e-setup-{}.sock", std::process::id()));
    let lib_names: Vec<String> = libs.iter().map(|l| l.name().to_owned()).collect();
    let (server, control) = start(Workload::ServeMixed.libraries(), &socket);
    let endpoint = Endpoint::Unix(socket.clone());
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&endpoint).expect("client connects"))
        .collect();
    let order = AtomicUsize::new(0);
    let load = Load {
        traffic,
        lib_names: &lib_names,
        order: &order,
    };

    // Warm-up, untimed: every hot design under every library once.
    let mut records = Vec::new();
    let warm_session = traffic.sessions.len();
    for payload in 0..traffic.hot {
        for lib in 0..libs.len() {
            let req = Req {
                payload,
                lib,
                kind: Kind::Warm,
            };
            let step = payload * libs.len() + lib;
            let rec = load
                .call(&mut clients[0], warm_session, step, req, None)
                .expect("warm-up request round-trips");
            records.push(rec);
        }
    }

    let mut rounds = Vec::new();
    let mut lost = Vec::new();
    let started = Instant::now();
    for (r, range) in traffic.rounds.iter().enumerate() {
        if !opts.smoke && r > 0 && started.elapsed() >= opts.load_budget() {
            break;
        }
        let setups = (0..SETUP_REPS_PER_ROUND)
            .map(|_| setup_rep(&setup_socket))
            .collect();
        let next = AtomicUsize::new(range.start);
        let cpu0 = stats::process_cpu_seconds();
        let t0 = Instant::now();
        // Each client returns its records and, if its connection failed,
        // the transport error of the request it could not complete.
        type ClientRun = (Vec<Record>, Option<std::io::Error>);
        let per_client: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let (load, next) = (&load, &next);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let session = next.fetch_add(1, Ordering::SeqCst);
                            if session >= range.end {
                                return (mine, None);
                            }
                            for (step, &req) in load.traffic.sessions[session].iter().enumerate() {
                                match load.call(client, session, step, req, Some(r)) {
                                    Ok(rec) => mine.push(rec),
                                    Err(e) => return (mine, Some(e)),
                                }
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let seconds = t0.elapsed().as_secs_f64();
        let cpu_seconds = match (cpu0, stats::process_cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => seconds,
        };
        let mut round = Round {
            seconds,
            cpu_seconds,
            setups,
            ..Round::default()
        };
        let lost_before = lost.len();
        for (recs, error) in per_client {
            round.latencies_ms.extend(recs.iter().map(|r| r.latency_ms));
            records.extend(recs);
            lost.extend(error.map(|e| format!("connection lost: {e}")));
        }
        rounds.push(round);
        if lost.len() > lost_before {
            break;
        }
    }
    if !opts.smoke && rounds.len() == traffic.rounds.len() {
        eprintln!("  serve: generated traffic ran out before the budget");
    }
    drop(clients);
    stop(server, control);
    records.sort_by_key(|r| r.order);
    (records, rounds, lost)
}

/// Runs `serve_mixed`.
pub fn run(opts: &RunOptions, result: &mut RunResult) {
    let libs = Workload::ServeMixed.libraries();
    let planned = if opts.smoke {
        1
    } else {
        (MAX_RATE * opts.load_budget().as_secs_f64() / REQUESTS_PER_ROUND as f64).ceil() as usize
            + 1
    };
    let traffic = traffic(opts.seed, planned, opts.smoke);
    let (records, mut rounds, lost) = drive(opts, &traffic, &libs);
    for error in lost {
        result.record(Err(error));
    }

    let refs = references(&traffic, &libs, &records);
    for rec in &records {
        result.threads_used = result.threads_used.max(rec.threads);
        result.record(verdict(&refs, rec.req, rec.reply.clone()));
        if let (Some(r), Some(Ok(reference))) =
            (rec.round, refs.get(&(rec.req.payload, rec.req.lib)))
        {
            if let Some(round) = rounds.get_mut(r) {
                round.nodes += reference.nodes;
            }
        }
    }
    let timed: Vec<&Record> = records.iter().filter(|r| r.round.is_some()).collect();

    if !opts.trace {
        crate::push_round_metrics(result, &rounds);
        // Quality over the fixed hot set, so it does not depend on the seed.
        let hot: Vec<&Reference> = refs
            .iter()
            .filter(|((p, _), _)| *p < traffic.hot)
            .filter_map(|(_, r)| r.as_ref().ok())
            .collect();
        let delays: Vec<f64> = hot.iter().map(|r| r.delay).collect();
        let areas: Vec<f64> = hot.iter().map(|r| r.area).collect();
        result.push(
            "delay_geomean",
            stats::geomean(&delays).unwrap_or(0.0),
            "delay",
        );
        result.push(
            "area_geomean",
            stats::geomean(&areas).unwrap_or(0.0),
            "area",
        );
        for (class, lat) in class_latencies(&timed) {
            eprintln!(
                "  {class:7} {:5} requests  p50 {:8.3} ms  p95 {:8.3} ms",
                lat.len(),
                pct(&lat, 50.0),
                pct(&lat, 95.0)
            );
        }
        return;
    }

    // Traced run: replay the whole sequence in process twice, each time
    // from fresh stores — once through the entry points, once split per
    // layer. The warm-up requests replay first, outside the totals.
    let text = |rec: &Record| traffic.payloads[rec.req.payload].blif.as_str();
    let mut state = ReplayState::new(&libs);
    let mut untraced_s = 0.0;
    for rec in &records {
        let t = Instant::now();
        let out = replay_plain(text(rec), rec, &libs, &mut state);
        if rec.round.is_some() {
            untraced_s += t.elapsed().as_secs_f64();
        }
        result.record(check_replay(&refs, rec, out));
    }
    drop(state);
    let mut state = ReplayState::new(&libs);
    let (mut ledger, mut warm_ledger) = (Ledger::new(), Ledger::new());
    for rec in &records {
        let into = if rec.round.is_some() {
            &mut ledger
        } else {
            &mut warm_ledger
        };
        let out = replay_traced(text(rec), rec, &libs, &mut state, into);
        result.record(check_replay(&refs, rec, out));
    }
    result.threads_used = result.threads_used.max(ledger.counters.threads_used);

    let classes = class_latencies(&timed);
    let class_pct = |name: &str, p: f64| classes.get(name).map_or(0.0, |l| pct(l, p));
    let n = timed.len().max(1) as f64;
    let mean = |f: fn(&Record) -> f64| timed.iter().map(|r| f(r)).sum::<f64>() / n;
    let serve = ServeStats {
        first_p50_ms: class_pct("first", 50.0),
        first_p95_ms: class_pct("first", 95.0),
        repeat_p50_ms: class_pct("repeat", 50.0),
        repeat_p95_ms: class_pct("repeat", 95.0),
        remap_p50_ms: class_pct("remap", 50.0),
        remap_p95_ms: class_pct("remap", 95.0),
        encode_us: mean(|r| r.encode_us),
        decode_us: mean(|r| r.decode_us),
        overhead_ms_per_op: mean(|r| r.latency_ms) - ledger.op_s * 1e3 / ledger.ops.max(1) as f64,
    };
    crate::push_setup_layer_metrics(result, &rounds);
    crate::push_layer_metrics(
        result,
        &LayerReport {
            evictions: state.stores.iter().map(SharedMatchStore::evictions).sum(),
            resident_classes: state
                .stores
                .iter()
                .map(SharedMatchStore::resident_classes)
                .sum(),
            serve,
            ..LayerReport::new(&ledger, untraced_s)
        },
    );
}

fn check_replay(
    refs: &References,
    rec: &Record,
    out: Result<OpOutput, String>,
) -> Result<(), String> {
    verdict(refs, rec.req, out.map(|o| (digest(&o.blif), o.delay)))
        .map_err(|e| format!("in-process replay: {e}"))
}

/// Client latencies by class.
fn class_latencies(records: &[&Record]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut classes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in records {
        classes
            .entry(r.req.kind.class())
            .or_default()
            .push(r.latency_ms);
    }
    classes
}

fn pct(samples: &[f64], p: f64) -> f64 {
    stats::percentile(samples, p).map_or(0.0, |(v, _)| v)
}
