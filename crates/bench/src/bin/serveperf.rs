//! Traffic-driven latency benchmark for the `dagmap serve` daemon.
//!
//! Starts an in-process server on a temp unix socket serving two libraries,
//! replays a seeded hot-set-skewed request stream (see
//! `dagmap_benchgen::request_stream`) from several pipelined client
//! connections, and reports throughput and server-side latency percentiles
//! to `BENCH_serve.json`.
//!
//! The stream is replayed against two server configurations, each with an
//! HTTP `/metrics` listener scraped concurrently while traffic runs:
//!
//! * `metrics` — the product default (the registry is always on),
//! * `full` — plus `--log-requests` JSONL logging and tail-based trace
//!   sampling.
//!
//! Usage: `serveperf [--quick] [--requests N] [--clients N] [--workers N]
//! [--out PATH] [--profile]`
//!
//! Invariants asserted every run:
//! * zero error frames and zero busy rejects (admission is unlimited here),
//! * the `/metrics` endpoint answers live mid-traffic and its final
//!   `dagmap_requests_total` equals the stream length,
//! * the request log holds exactly one JSONL line per request,
//! * a spot check of one reply per distinct (circuit, library) pair is
//!   byte-identical to a one-shot `Mapper::map`, and the `full` pass
//!   serves the same bytes as the `metrics` pass.

#[cfg(unix)]
mod imp {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use std::io::{Read as _, Write as _};
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use dagmap_benchgen::{request_stream, RequestStreamSpec};
    use dagmap_core::{MapOptions, Mapper};
    use dagmap_genlib::Library;
    use dagmap_netlist::{blif, SubjectGraph};
    use dagmap_serve::dash::{self, Sample};
    use dagmap_serve::{
        map_request, Client, Endpoint, Endpoints, MapCall, ServeConfig, Server, TailConfig,
    };

    /// Max in-flight frames per client connection before reading replies.
    const PIPELINE_WINDOW: usize = 16;

    struct Args {
        quick: bool,
        requests: Option<usize>,
        clients: usize,
        workers: Option<usize>,
        out: String,
        profile: bool,
    }

    fn parse_args() -> Args {
        let mut parsed = Args {
            quick: false,
            requests: None,
            clients: 4,
            workers: None,
            out: String::from("BENCH_serve.json"),
            profile: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut num = |flag: &str| {
                args.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("{flag} needs a positive integer"))
            };
            match a.as_str() {
                "--quick" => parsed.quick = true,
                "--requests" => parsed.requests = Some(num("--requests")),
                "--clients" => parsed.clients = num("--clients").max(1),
                "--workers" => parsed.workers = Some(num("--workers").max(1)),
                "--out" => parsed.out = args.next().expect("--out needs a path"),
                "--profile" => parsed.profile = true,
                other => panic!("unknown argument `{other}`"),
            }
        }
        parsed
    }

    /// Everything one replay of the stream produced.
    struct PassResult {
        wall_s: f64,
        /// First reply BLIF per distinct (circuit, lib) pair.
        kept: BTreeMap<(String, usize), String>,
        lat_first: Vec<u64>,
        lat_repeat: Vec<u64>,
        /// The daemon's exposition after every reply is in.
        samples: Vec<Sample>,
        trace: dagmap_obs::Trace,
        /// Successful mid-traffic HTTP scrapes.
        scrapes: usize,
        log_lines: usize,
        tail_files: usize,
    }

    /// One plain-HTTP GET against the daemon's metrics listener; returns
    /// the response body.
    fn http_get_metrics(addr: SocketAddr) -> std::io::Result<String> {
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: serveperf\r\nConnection: close\r\n\r\n")?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_owned())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))
    }

    /// Replays `stream` once against a fresh server — with JSONL logging
    /// and tail sampling on top of the registry when `full` — and tears
    /// everything down again.
    #[allow(clippy::too_many_lines)]
    fn run_pass(
        label: &str,
        full: bool,
        workers: usize,
        clients: usize,
        libraries: &[Library],
        stream: &[dagmap_benchgen::ServeRequest],
        profile: bool,
    ) -> PassResult {
        let lib_names: Vec<String> = libraries.iter().map(|l| l.name().to_owned()).collect();
        let lib_names = &lib_names;
        let scratch =
            std::env::temp_dir().join(format!("dagmap-serveperf-{}-{label}", std::process::id()));
        let socket = scratch.with_extension("sock");
        let log_path = scratch.with_extension("jsonl");
        let tail_dir = scratch.with_extension("tail");
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&log_path);
        let _ = std::fs::remove_dir_all(&tail_dir);

        let config = ServeConfig {
            workers,
            // Unlimited admission: this bench measures the mapping pipeline,
            // not the backpressure path, and asserts zero busy rejects.
            max_inflight: 0,
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            log_requests: full.then(|| log_path.clone()),
            tail: full.then(|| TailConfig::new(tail_dir.clone())),
            ..ServeConfig::default()
        };
        let endpoints = Endpoints {
            unix: Some(socket.clone()),
            ..Endpoints::default()
        };

        // Global obs session: workers flush per-request latency samples into
        // it; finished only after the server fully drains.
        let session = dagmap_obs::start();
        let server = Server::start(&config, libraries.to_vec(), &endpoints).expect("server starts");
        let endpoint = Endpoint::Unix(socket.clone());

        // Scrape the HTTP endpoint concurrently with the traffic: the
        // counter sequence must be non-decreasing and reach the stream
        // length by the final (post-drain, pre-shutdown) scrape.
        let http_addr = server.metrics_http_addr().expect("metrics listener bound");
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: Vec<f64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(body) = http_get_metrics(http_addr) {
                        if let Ok(samples) = dash::parse_exposition(&body) {
                            if let Some(v) = dash::find(&samples, "dagmap_requests_total", &[]) {
                                seen.push(v);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                seen
            })
        };

        // Partition the stream round-robin across client threads. Each
        // client pipelines up to PIPELINE_WINDOW frames and keeps the first
        // reply BLIF per distinct (circuit, lib) pair for the bit-identity
        // spot check.
        let t0 = Instant::now();
        #[allow(clippy::type_complexity)]
        let replies: Vec<(BTreeMap<(String, usize), String>, usize, Vec<u64>, Vec<u64>)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let my: Vec<_> = stream.iter().skip(c).step_by(clients).cloned().collect();
                        let endpoint = endpoint.clone();
                        s.spawn(move || {
                            let mut client = Client::connect(&endpoint).expect("client connects");
                            let mut kept: BTreeMap<(String, usize), String> = BTreeMap::new();
                            let mut errors = 0usize;
                            // Per-request server-side map time (the sum of
                            // the reply's phase seconds — free of client
                            // pipelining and queueing), split into
                            // first-seen circuits (cold caches) and
                            // repeats of the hot set (warm caches).
                            let mut lat_first: Vec<u64> = Vec::new();
                            let mut lat_repeat: Vec<u64> = Vec::new();
                            // With several workers, pipelined replies can
                            // arrive out of order: each request carries an
                            // id, and its reply is matched back by that id.
                            let mut outstanding: BTreeMap<String, (String, usize, bool)> =
                                BTreeMap::new();
                            let drain =
                                |client: &mut Client,
                                 outstanding: &mut BTreeMap<String, (String, usize, bool)>,
                                 kept: &mut BTreeMap<(String, usize), String>,
                                 errors: &mut usize,
                                 lat_first: &mut Vec<u64>,
                                 lat_repeat: &mut Vec<u64>| {
                                    let reply = client.recv().expect("reply");
                                    let (circuit, lib_index, repeat) = reply
                                        .get("id")
                                        .and_then(|v| v.as_str())
                                        .and_then(|id| outstanding.remove(id))
                                        .expect("reply carries the id of an outstanding request");
                                    if let Some(phases) = reply.get("phases") {
                                        let sec = |k: &str| {
                                            phases.get(k).and_then(|v| v.as_num()).unwrap_or(0.0)
                                        };
                                        let us = ((sec("decompose_seconds")
                                            + sec("label_seconds")
                                            + sec("cover_seconds")
                                            + sec("area_recovery_seconds"))
                                            * 1e6)
                                            as u64;
                                        if repeat {
                                            lat_repeat.push(us);
                                        } else {
                                            lat_first.push(us);
                                        }
                                    }
                                    if reply.get("error").is_some() {
                                        *errors += 1;
                                        return;
                                    }
                                    kept.entry((circuit, lib_index)).or_insert_with(|| {
                                        reply
                                            .get("blif")
                                            .and_then(|b| b.as_str())
                                            .expect("ok reply carries blif")
                                            .to_owned()
                                    });
                                };
                            for (seq, req) in my.iter().enumerate() {
                                if outstanding.len() >= PIPELINE_WINDOW {
                                    drain(
                                        &mut client,
                                        &mut outstanding,
                                        &mut kept,
                                        &mut errors,
                                        &mut lat_first,
                                        &mut lat_repeat,
                                    );
                                }
                                let id = format!("c{c}-{seq}");
                                let payload = map_request(
                                    &req.blif,
                                    &MapCall {
                                        id: Some(&id),
                                        lib: Some(&lib_names[req.lib_index]),
                                        ..MapCall::default()
                                    },
                                );
                                client.send(&payload).expect("send");
                                outstanding
                                    .insert(id, (req.circuit.clone(), req.lib_index, req.repeat));
                            }
                            while !outstanding.is_empty() {
                                drain(
                                    &mut client,
                                    &mut outstanding,
                                    &mut kept,
                                    &mut errors,
                                    &mut lat_first,
                                    &mut lat_repeat,
                                );
                            }
                            (kept, errors, lat_first, lat_repeat)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let wall_s = t0.elapsed().as_secs_f64();

        // Every reply is in: the endpoint must already account for the
        // whole stream while the server is still up.
        stop.store(true, Ordering::Relaxed);
        let seen = scraper.join().expect("scraper thread");
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "{label}: scraped requests_total went backwards: {seen:?}"
        );
        let scrapes = seen.len();
        let body = http_get_metrics(http_addr).expect("final http scrape");
        let scraped = dash::parse_exposition(&body).expect("exposition parses");
        let total = dash::find(&scraped, "dagmap_requests_total", &[]).unwrap_or(-1.0);
        assert_eq!(
            total as usize,
            stream.len(),
            "{label}: live endpoint disagrees with the stream length"
        );

        // Server-side counters before shutdown, from the metrics frame.
        let mut control = Client::connect(&endpoint).expect("control client");
        let exposition = control.metrics().expect("metrics frame");
        let samples = dash::parse_exposition(&exposition).expect("frame exposition parses");
        control.shutdown().expect("shutdown ack");
        server.wait().expect("clean drain");
        let trace = session.finish();
        if profile {
            // Aggregate server-side phase report over the whole stream:
            // shows where worker time went (parse, decompose, label, export)
            // across all requests, not just the percentile summary.
            eprint!("{}", dagmap_obs::report::render(&trace));
        }

        let log_lines = std::fs::read_to_string(&log_path)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        let tail_files = std::fs::read_dir(&tail_dir).map_or(0, |d| d.count());
        let _ = std::fs::remove_file(&log_path);
        let _ = std::fs::remove_dir_all(&tail_dir);

        let client_errors: usize = replies.iter().map(|(_, e, ..)| *e).sum();
        assert_eq!(client_errors, 0, "{label}: client observed error frames");

        let mut kept: BTreeMap<(String, usize), String> = BTreeMap::new();
        let mut lat_first = Vec::new();
        let mut lat_repeat = Vec::new();
        for (k, _, f, r) in replies {
            for (key, text) in k {
                kept.entry(key).or_insert(text);
            }
            lat_first.extend(f);
            lat_repeat.extend(r);
        }
        lat_first.sort_unstable();
        lat_repeat.sort_unstable();
        PassResult {
            wall_s,
            kept,
            lat_first,
            lat_repeat,
            samples,
            trace,
            scrapes,
            log_lines,
            tail_files,
        }
    }

    /// A counter from a pass's exposition, summed over its label sets.
    fn total(samples: &[Sample], name: &str) -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    pub fn main() {
        let args = parse_args();
        let libraries = vec![Library::lib2_like(), Library::lib_44_3_like()];
        let lib_names: Vec<String> = libraries.iter().map(|l| l.name().to_owned()).collect();
        let num_requests = args.requests.unwrap_or(if args.quick { 120 } else { 1000 });
        let spec = RequestStreamSpec {
            num_requests,
            num_libs: libraries.len(),
            ..RequestStreamSpec::default()
        };
        let stream = request_stream(&spec);
        let repeats = stream.iter().filter(|r| r.repeat).count();

        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = args.workers.unwrap_or(nproc);

        println!(
            "serveperf: {} requests ({} repeats) over {} libraries, {} workers, {} clients",
            stream.len(),
            repeats,
            libraries.len(),
            workers,
            args.clients
        );

        // One unmeasured warmup slice first: the very first pass pays
        // one-time costs (page cache, allocator growth, CPU ramp) that
        // would otherwise be billed to whichever configuration runs first.
        let warmup_len = stream.len().min(100);
        let _ = run_pass(
            "warmup",
            false,
            workers,
            args.clients,
            &libraries,
            &stream[..warmup_len],
            false,
        );

        // Replay the stream under each telemetry level.
        let run = |label: &str, full: bool, profile: bool| {
            let r = run_pass(
                label,
                full,
                workers,
                args.clients,
                &libraries,
                &stream,
                profile,
            );
            println!(
                "  pass {label:8} {:.2} s ({:.1} req/s)",
                r.wall_s,
                stream.len() as f64 / r.wall_s
            );
            r
        };
        let metrics_a = run("metrics", false, args.profile);
        let full = run("full", true, false);
        let wall_metrics = metrics_a.wall_s;

        // Per-pass server-side invariants.
        for (label, pass) in [("metrics", &metrics_a), ("full", &full)] {
            let served = total(&pass.samples, "dagmap_requests_total");
            let busy = total(&pass.samples, "dagmap_busy_rejects_total");
            let errors = total(&pass.samples, "dagmap_errors_total");
            assert_eq!(errors as u64, 0, "{label}: server counted error frames");
            assert_eq!(
                busy as u64, 0,
                "{label}: busy rejects with unlimited admission"
            );
            assert_eq!(
                served as usize,
                stream.len(),
                "{label}: server served every request"
            );
        }
        assert!(
            metrics_a.scrapes > 0,
            "no live HTTP scrape succeeded mid-traffic"
        );
        assert_eq!(
            full.log_lines,
            stream.len(),
            "request log must hold one line per request"
        );

        // Headline numbers come from the product-default configuration.
        let headline = &metrics_a;
        let served = total(&headline.samples, "dagmap_requests_total");
        let busy = total(&headline.samples, "dagmap_busy_rejects_total");
        let server_errors = total(&headline.samples, "dagmap_errors_total");

        // Bit-identity spot check: one served reply per distinct
        // (circuit, lib) pair vs a one-shot mapping of the same BLIF text —
        // and the full pass's replies against the headline's.
        let mut checked = 0usize;
        let mut identical = true;
        for ((circuit, lib_index), served_blif) in &headline.kept {
            let req = stream
                .iter()
                .find(|r| &r.circuit == circuit && r.lib_index == *lib_index)
                .expect("pair came from the stream");
            let net = blif::parse(&req.blif).expect("stream blif parses");
            let subject = SubjectGraph::from_network(&net).expect("decomposes");
            let mapped = Mapper::new(&libraries[*lib_index])
                .map(&subject, MapOptions::dag())
                .expect("one-shot maps");
            let reference =
                blif::to_string(&mapped.to_network().expect("netlist exports")).expect("blif");
            checked += 1;
            if *served_blif != reference {
                identical = false;
                eprintln!("MISMATCH: {circuit} under {}", lib_names[*lib_index]);
            }
            if full.kept.get(&(circuit.clone(), *lib_index)) != Some(served_blif) {
                identical = false;
                eprintln!(
                    "MISMATCH vs full pass: {circuit} under {}",
                    lib_names[*lib_index]
                );
            }
        }

        let hist = headline.trace.histograms.get("serve.latency_us");
        let (p50, p95, p99) = hist.map_or((0, 0, 0), |h| {
            (
                h.quantile_upper(0.5),
                h.quantile_upper(0.95),
                h.quantile_upper(0.99),
            )
        });
        let pct = |sorted: &[u64], q: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        let lat_first = &headline.lat_first;
        let lat_repeat = &headline.lat_repeat;
        let (first_p50, first_p99) = (pct(lat_first, 0.5), pct(lat_first, 0.99));
        let (rep_p50, rep_p99) = (pct(lat_repeat, 0.5), pct(lat_repeat, 0.99));
        let throughput = stream.len() as f64 / wall_metrics;
        println!(
            "  {:.1} req/s over {:.2} s; latency p50 <= {} us, p95 <= {} us, p99 <= {} us",
            throughput, wall_metrics, p50, p95, p99
        );
        println!(
            "  per-request map time: first-seen p50 {first_p50} us / p99 {first_p99} us ({} reqs), \
             repeated p50 {rep_p50} us / p99 {rep_p99} us ({} reqs)",
            lat_first.len(),
            lat_repeat.len(),
        );
        println!(
            "  errors {server_errors:.0}, busy {busy:.0}; bit-identity {checked} pairs identical={identical}"
        );
        println!(
            "  telemetry: pipelined walls metrics {wall_metrics:.2} s / full {:.2} s; \
             {} live scrapes, {} log lines, {} tail traces",
            full.wall_s, metrics_a.scrapes, full.log_lines, full.tail_files,
        );

        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"bench\": \"serveperf\",");
        let _ = writeln!(json, "  \"quick\": {},", args.quick);
        let _ = writeln!(json, "  \"requests\": {},", stream.len());
        let _ = writeln!(json, "  \"repeats\": {repeats},");
        let _ = writeln!(
            json,
            "  \"libraries\": [{}],",
            lib_names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(json, "  \"nproc\": {nproc},");
        let _ = writeln!(json, "  \"workers\": {workers},");
        // False on 1-CPU hosts where one worker serializes the pool; lets
        // consumers (tier1.sh) skip parallel-shape assertions.
        let _ = writeln!(json, "  \"parallel_engaged\": {},", workers > 1);
        let _ = writeln!(json, "  \"clients\": {},", args.clients);
        let _ = writeln!(json, "  \"pipeline_window\": {PIPELINE_WINDOW},");
        let _ = writeln!(json, "  \"wall_s\": {wall_metrics:.6},");
        let _ = writeln!(json, "  \"throughput_rps\": {throughput:.2},");
        let _ = writeln!(
            json,
            "  \"latency_us\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}},"
        );
        let _ = writeln!(
            json,
            "  \"latency_split_us\": {{\"first_seen\": {{\"p50\": {first_p50}, \"p99\": {first_p99}, \
             \"n\": {}}}, \"repeated\": {{\"p50\": {rep_p50}, \"p99\": {rep_p99}, \"n\": {}}}}},",
            lat_first.len(),
            lat_repeat.len(),
        );
        let _ = writeln!(
            json,
            "  \"telemetry\": {{\"wall_metrics_s\": {wall_metrics:.6}, \"wall_full_s\": {:.6}, \
             \"http_scrapes\": {}, \"request_log_lines\": {}, \"tail_traces_kept\": {}}},",
            full.wall_s, metrics_a.scrapes, full.log_lines, full.tail_files,
        );
        let _ = writeln!(json, "  \"served\": {served:.0},");
        let _ = writeln!(json, "  \"errors\": {:.0},", server_errors);
        let _ = writeln!(json, "  \"busy_rejects\": {busy:.0},");
        let _ = writeln!(json, "  \"bit_identity_pairs\": {checked},");
        let _ = writeln!(json, "  \"bit_identical\": {identical}");
        json.push_str("}\n");
        std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
        println!("wrote {}", args.out);

        assert!(
            checked > 0 && identical,
            "served BLIF diverged from one-shot mapping"
        );
    }
}

#[cfg(unix)]
fn main() {
    imp::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("serveperf requires unix sockets; skipping");
}
