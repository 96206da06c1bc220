//! Integration tests of the serve daemon over real sockets: roundtrips,
//! bit-identity against one-shot mapping, error isolation, backpressure,
//! per-request trace isolation, the reply cache, prompt accepts, and
//! drain-on-shutdown.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, Network, SubjectGraph};
use dagmap_obs::json::Value;
use dagmap_serve::dash::{self, Sample};
use dagmap_serve::{map_request, Client, Endpoint, Endpoints, MapCall, ServeConfig, Server};

#[cfg(unix)]
fn unique_socket_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-{tag}-{seq}.sock",
        std::process::id()
    ))
}

#[cfg(unix)]
fn start_unix(tag: &str, config: &ServeConfig) -> (Server, Endpoint) {
    let path = unique_socket_path(tag);
    let endpoints = Endpoints {
        tcp: None,
        unix: Some(path.clone()),
    };
    let server = Server::start(
        config,
        vec![Library::lib2_like(), Library::lib_44_3_like()],
        &endpoints,
    )
    .expect("server starts");
    (server, Endpoint::Unix(path))
}

/// The daemon's live counters, parsed from its `metrics` frame.
#[cfg(unix)]
fn scrape(client: &mut Client) -> Vec<Sample> {
    let exposition = client.metrics().unwrap();
    dash::parse_exposition(&exposition)
        .unwrap_or_else(|e| panic!("exposition must parse: {e}\n{exposition}"))
}

/// What one-shot `dagmap map` would produce for this BLIF text and library
/// (default options: delay-objective DAG cover). Starts from the same BLIF
/// text the daemon receives, because parsing BLIF is part of the pipeline
/// whose output must be byte-identical.
fn one_shot_blif(input: &str, library: &Library) -> String {
    one_shot_blif_with(input, library, MapOptions::dag())
}

/// [`one_shot_blif`] under explicit options.
fn one_shot_blif_with(input: &str, library: &Library, opts: MapOptions) -> String {
    let net = blif::parse(input).unwrap();
    let subject = SubjectGraph::from_network(&net).unwrap();
    let mapped = Mapper::new(library).map(&subject, opts).unwrap();
    blif::to_string(&mapped.to_network().unwrap()).unwrap()
}

#[cfg(unix)]
#[test]
fn roundtrip_is_bit_identical_to_one_shot_mapping() {
    let (server, endpoint) = start_unix("roundtrip", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();

    for (lib, libname) in [
        (Library::lib2_like(), "lib2"),
        (Library::lib_44_3_like(), "44-3"),
    ] {
        let net = dagmap_benchgen::ripple_adder(4);
        let input = blif::to_string(&net).unwrap();
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some("r"),
                    lib: Some(lib.name()),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(
            reply.get("error"),
            None,
            "map failed for {libname}: {reply:?}"
        );
        let served = reply.get("blif").unwrap().as_str().unwrap();
        assert_eq!(served, one_shot_blif(&input, &lib), "library {libname}");
        assert!(reply.get("delay").unwrap().as_num().unwrap() > 0.0);
        assert!(reply.get("phases").unwrap().get("label_seconds").is_some());
        assert!(reply
            .get("counters")
            .unwrap()
            .get("matches_enumerated")
            .is_some());
    }

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn malformed_requests_answer_with_errors_and_spare_the_connection() {
    let (server, endpoint) = start_unix("malformed", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    // Payload-level garbage: the frame parses, the JSON does not. The
    // connection must answer and stay alive.
    for bad in [
        "this is not json",
        "{\"op\":\"transmogrify\"}",
        "{\"op\":\"map\"}",
        "{\"op\":\"map\",\"blif\":\"x\",\"options\":{\"algo\":\"magic\"}}",
    ] {
        let reply = client.call(bad).unwrap();
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
            .unwrap_or_else(|| panic!("expected an error reply for `{bad}`, got {reply:?}"));
        assert_eq!(kind, "bad_request");
    }
    client.ping().expect("connection survives bad payloads");

    // A BLIF body the mapper rejects is also a per-request error: `z` is
    // driven by an undefined signal.
    let broken = ".model broken\n.inputs a\n.outputs z\n.names a ghost z\n11 1\n.end\n";
    let reply = client
        .call(&map_request(broken, &MapCall::default()))
        .unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_request")
    );
    client.ping().expect("connection survives a failed map");

    // Workers must also survive: a good request after the failures works.
    let net = dagmap_benchgen::parity_tree(5);
    let input = blif::to_string(&net).unwrap();
    let reply = client
        .call(&map_request(&input, &MapCall::default()))
        .unwrap();
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&input, &Library::lib2_like())
    );

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn concurrent_clients_all_get_bit_identical_results() {
    let (server, endpoint) = start_unix(
        "concurrent",
        &ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );

    // Expected outputs computed one-shot, up front.
    let circuits: Vec<Network> = vec![
        dagmap_benchgen::ripple_adder(3),
        dagmap_benchgen::comparator(4),
        dagmap_benchgen::parity_tree(6),
        dagmap_benchgen::mux_tree(2),
    ];
    let libs = [Library::lib2_like(), Library::lib_44_3_like()];
    let inputs: Vec<String> = circuits
        .iter()
        .map(|net| blif::to_string(net).unwrap())
        .collect();
    let expected: Vec<Vec<String>> = inputs
        .iter()
        .map(|input| libs.iter().map(|l| one_shot_blif(input, l)).collect())
        .collect();

    thread::scope(|scope| {
        for worker in 0..4 {
            let endpoint = endpoint.clone();
            let inputs = &inputs;
            let expected = &expected;
            let libs = &libs;
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                // Each client walks the circuit x library matrix several
                // times from a different offset, so first-seen and repeat
                // requests interleave across the workers.
                for round in 0..3 {
                    for i in 0..inputs.len() {
                        let c = (i + worker) % inputs.len();
                        let l = (i + round) % libs.len();
                        let id = format!("w{worker}-r{round}-{c}-{l}");
                        let reply = client
                            .call(&map_request(
                                &inputs[c],
                                &MapCall {
                                    id: Some(&id),
                                    lib: Some(libs[l].name()),
                                    ..MapCall::default()
                                },
                            ))
                            .unwrap();
                        assert_eq!(
                            reply.get("id").unwrap().as_str(),
                            Some(id.as_str()),
                            "reply correlates to its request"
                        );
                        assert_eq!(
                            reply.get("blif").unwrap().as_str().unwrap(),
                            expected[c][l],
                            "request {id} must be bit-identical to one-shot"
                        );
                    }
                }
            });
        }
    });

    // Every request was served, none failed.
    let mut client = Client::connect(&endpoint).unwrap();
    let samples = scrape(&mut client);
    assert_eq!(
        dash::find(&samples, "dagmap_requests_total", &[]),
        Some(48.0)
    );
    assert_eq!(dash::find(&samples, "dagmap_errors_total", &[]), Some(0.0));
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn shutdown_drains_admitted_requests_before_exit() {
    let (server, endpoint) = start_unix(
        "drain",
        &ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let net = dagmap_benchgen::array_multiplier(6);
    let input = blif::to_string(&net).unwrap();

    // Pipeline several requests without reading any reply...
    let mut pipelined = Client::connect(&endpoint).unwrap();
    const N: usize = 5;
    for i in 0..N {
        let id = format!("drain-{i}");
        pipelined
            .send(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
    }

    // ...wait until the daemon has admitted all of them...
    let mut control = Client::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let admitted = dash::find(&scrape(&mut control), "dagmap_requests_total", &[]).unwrap();
        if admitted as usize >= N {
            break;
        }
        assert!(Instant::now() < deadline, "requests were never admitted");
        thread::sleep(Duration::from_millis(5));
    }

    // ...then shut down. Every admitted request must still be answered
    // with a real result, not an error.
    control.shutdown().unwrap();
    for _ in 0..N {
        let reply = pipelined.recv().expect("drained reply");
        assert_eq!(reply.get("error"), None, "drained requests map normally");
        assert!(reply.get("blif").is_some());
    }
    server.wait().unwrap();

    // New connections are refused once the daemon is gone.
    assert!(Client::connect(&endpoint).is_err());
}

#[cfg(unix)]
#[test]
fn backpressure_rejects_with_busy_frames_past_max_inflight() {
    let (server, endpoint) = start_unix(
        "busy",
        &ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );
    // One request big enough to hold the single worker for a while...
    let big = blif::to_string(&dagmap_benchgen::array_multiplier(10)).unwrap();
    let small = blif::to_string(&dagmap_benchgen::ripple_adder(2)).unwrap();

    let mut client = Client::connect(&endpoint).unwrap();
    client
        .send(&map_request(
            &big,
            &MapCall {
                id: Some("big"),
                ..MapCall::default()
            },
        ))
        .unwrap();
    // ...then a burst past the inflight limit while it runs. The reader
    // thread rejects these inline, long before the worker finishes.
    const BURST: usize = 10;
    for i in 0..BURST {
        let id = format!("burst-{i}");
        client
            .send(&map_request(
                &small,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
    }

    let (mut ok, mut busy) = (0, 0);
    for _ in 0..(1 + BURST) {
        let reply = client.recv().unwrap();
        match reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
        {
            None => ok += 1,
            Some("busy") => busy += 1,
            Some(other) => panic!("unexpected error kind {other}"),
        }
    }
    assert!(ok >= 1, "the admitted request completes");
    assert!(busy >= 1, "the burst past the limit is refused as busy");
    assert_eq!(ok + busy, 1 + BURST);

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn per_request_traces_are_isolated_between_concurrent_requests() {
    let (server, endpoint) = start_unix(
        "trace",
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let input = blif::to_string(&dagmap_benchgen::array_multiplier(6)).unwrap();

    // Two concurrent traced requests: each reply must carry a valid Chrome
    // trace containing exactly its own mapping run (one "map" span), even
    // though both workers record simultaneously.
    thread::scope(|scope| {
        for worker in 0..2 {
            let endpoint = endpoint.clone();
            let input = &input;
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                let id = format!("traced-{worker}");
                let reply = client
                    .call(&map_request(
                        input,
                        &MapCall {
                            id: Some(&id),
                            trace: true,
                            ..MapCall::default()
                        },
                    ))
                    .unwrap();
                assert_eq!(reply.get("error"), None, "{reply:?}");
                let trace = reply.get("trace").unwrap().as_str().unwrap();
                let summary = dagmap_obs::trace::validate_chrome(trace)
                    .expect("per-request trace is a valid Chrome trace");
                assert!(summary.spans > 0);
                let doc = dagmap_obs::json::parse(trace).unwrap();
                let map_spans = doc
                    .get("traceEvents")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .iter()
                    .filter(|e| {
                        e.get("name").and_then(|n| n.as_str()) == Some("map")
                            && e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    })
                    .count();
                assert_eq!(
                    map_spans, 1,
                    "each trace holds exactly its own request's map span"
                );
            });
        }
    });

    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    let endpoints = Endpoints {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..Endpoints::default()
    };
    let server = Server::start(
        &ServeConfig::default(),
        vec![Library::lib2_like()],
        &endpoints,
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
    client.ping().unwrap();
    let net = dagmap_benchgen::ripple_adder(3);
    let input = blif::to_string(&net).unwrap();
    let reply = client
        .call(&map_request(&input, &MapCall::default()))
        .unwrap();
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&input, &Library::lib2_like())
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Applies a small local edit to a parsed network: a fresh input XORed
/// into one primary output's driver. Mirrors the edit used by the core
/// incremental tests so most strash signatures survive.
#[cfg(unix)]
fn edited_blif(input: &str) -> String {
    use dagmap_netlist::{NetEdit, NodeFn};
    let mut net = blif::parse(input).unwrap();
    let out_name = net.outputs().first().unwrap().name.clone();
    let old_driver = net.outputs().first().unwrap().driver;
    let created = net
        .apply_edits(vec![
            NetEdit::AddInput {
                name: "serve_patch".into(),
            },
            NetEdit::AddNode {
                func: NodeFn::Xor,
                fanins: vec![old_driver, old_driver],
                name: None,
            },
        ])
        .unwrap();
    let (patch_in, xor) = (created[0].unwrap(), created[1].unwrap());
    net.replace_fanin(xor, 1, patch_in).unwrap();
    net.apply_edits(vec![NetEdit::SetOutputDriver {
        output: out_name,
        driver: xor,
    }])
    .unwrap();
    blif::to_string(&net).unwrap()
}

#[cfg(unix)]
#[test]
fn retain_then_remap_is_bit_identical_and_reuses_labels() {
    let (server, endpoint) = start_unix("remap", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let lib = Library::lib_44_3_like();
    let input = blif::to_string(&dagmap_benchgen::alu(6)).unwrap();
    let reply = client
        .call(&dagmap_serve::map_request(
            &input,
            &MapCall {
                id: Some("base"),
                lib: Some(lib.name()),
                retain: true,
                ..MapCall::default()
            },
        ))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    let handle = reply
        .get("handle")
        .and_then(|h| h.as_str())
        .expect("retaining map returns a handle")
        .to_owned();

    // Remap the edited circuit through the retained labels: byte-identical
    // to a cold one-shot of the edited BLIF, with most labels reused.
    let edited = edited_blif(&input);
    let reply = client
        .call(&dagmap_serve::remap_request(
            &edited,
            &handle,
            Some("e1"),
            false,
        ))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    assert_eq!(reply.get("op").and_then(|o| o.as_str()), Some("remap"));
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&edited, &lib),
        "incremental remap diverged from a cold map of the edited netlist"
    );
    let reused = reply
        .get("counters")
        .and_then(|c| c.get("labels_reused"))
        .and_then(|v| v.as_num())
        .unwrap();
    assert!(reused > 0.0, "a local edit must leave labels reusable");

    // The refreshed snapshot chains: a second edit remaps against the
    // first edit's labels, still bit-identical.
    let edited2 = edited_blif(&edited);
    let reply = client
        .call(&dagmap_serve::remap_request(
            &edited2,
            &handle,
            Some("e2"),
            false,
        ))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&edited2, &lib)
    );

    // Unknown handles answer with a per-request error, not a dead worker.
    let reply = client
        .call(&dagmap_serve::remap_request(
            &edited,
            "no-such-handle",
            None,
            false,
        ))
        .unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_request")
    );
    client.ping().unwrap();

    // The daemon's metrics expose the remap traffic.
    let samples = scrape(&mut client);
    assert!(dash::find(&samples, "dagmap_remaps_total", &[]).unwrap() >= 2.0);
    assert!(dash::find(&samples, "dagmap_retained_runs", &[]).unwrap() >= 1.0);

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn metrics_frame_exposes_live_counters_and_stays_byte_neutral() {
    let (server, endpoint) = start_unix("metrics", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let net = dagmap_benchgen::ripple_adder(4);
    let input = blif::to_string(&net).unwrap();
    let mut served = Vec::new();
    for i in 0..3 {
        let id = format!("m{i}");
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(reply.get("error"), None, "{reply:?}");
        served.push(reply.get("blif").unwrap().as_str().unwrap().to_owned());
    }
    // Telemetry enabled (the default) must not move a byte.
    let oneshot = one_shot_blif(&input, &Library::lib2_like());
    for blif in &served {
        assert_eq!(blif, &oneshot);
    }

    let samples = scrape(&mut client);
    let find = |name: &str| dash::find(&samples, name, &[]);
    assert_eq!(find("dagmap_requests_total"), Some(3.0));
    assert_eq!(find("dagmap_errors_total"), Some(0.0));
    assert!(find("dagmap_workers").unwrap() >= 1.0);
    // The first request was first-seen, the second a repeat that stored
    // its reply, and the third was answered from the reply cache.
    for kind in ["first", "repeat", "cached"] {
        assert_eq!(
            dash::find(
                &samples,
                "dagmap_request_latency_us_count",
                &[("kind", kind)]
            ),
            Some(1.0),
            "{kind}"
        );
    }
    assert_eq!(find("dagmap_reply_cache_hits_total"), Some(1.0));
    assert_eq!(find("dagmap_reply_cache_misses_total"), Some(2.0));
    assert_eq!(find("dagmap_reply_cache_evictions_total"), Some(0.0));
    assert!(find("dagmap_reply_cache_bytes").unwrap() > 0.0);
    // Per-library series carry the registered library name.
    assert_eq!(
        dash::find(
            &samples,
            "dagmap_lib_requests_total",
            &[("lib", "lib2_like")]
        ),
        Some(3.0)
    );
    // The daemon keeps no cone memo, so it exports no memo series.
    assert!(
        samples.iter().all(|s| !s.name.starts_with("dagmap_memo_")),
        "memo series exported"
    );

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn http_metrics_endpoint_serves_prometheus_text() {
    use std::io::{Read as _, Write as _};

    let config = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("httpmetrics", &config);
    let addr = server.metrics_http_addr().expect("http endpoint bound");
    let mut client = Client::connect(&endpoint).unwrap();
    let net = dagmap_benchgen::ripple_adder(3);
    let input = blif::to_string(&net).unwrap();
    let reply = client
        .call(&map_request(&input, &MapCall::default()))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");

    let http_get = |path: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    let response = http_get("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let samples = dash::parse_exposition(body).unwrap();
    assert_eq!(
        dash::find(&samples, "dagmap_requests_total", &[]),
        Some(1.0)
    );
    assert!(http_get("/nope").starts_with("HTTP/1.1 404"), "404 path");

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn request_log_writes_one_jsonl_event_per_request() {
    let log_path = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-reqlog.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        log_requests: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("reqlog", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let net = dagmap_benchgen::ripple_adder(4);
    let input = blif::to_string(&net).unwrap();
    for i in 0..2 {
        let id = format!("L{i}");
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(reply.get("error"), None, "{reply:?}");
    }
    // A failing request logs too, with its outcome.
    let reply = client.call(&map_request(
        "not blif",
        &MapCall {
            id: Some("L2"),
            ..MapCall::default()
        },
    ));
    assert!(reply.unwrap().get("error").is_some());
    client.shutdown().unwrap();
    server.wait().unwrap();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one event per request:\n{text}");
    // A worker logs after it replies, so with two workers the next
    // request's line can land first: order the events by id.
    let mut events: Vec<_> = lines
        .iter()
        .map(|l| dagmap_obs::json::parse(l).expect("every line is valid JSON"))
        .collect();
    events.sort_by_key(|e| e.get("id").and_then(|v| v.as_str()).map(str::to_owned));
    assert_eq!(events[0].get("op").unwrap().as_str(), Some("map"));
    assert_eq!(events[0].get("outcome").unwrap().as_str(), Some("ok"));
    assert_eq!(events[0].get("kind").unwrap().as_str(), Some("first"));
    assert_eq!(events[1].get("kind").unwrap().as_str(), Some("repeat"));
    assert!(events[0].get("latency_us").unwrap().as_num().unwrap() > 0.0);
    assert!(events[0].get("phases").unwrap().get("label_us").is_some());
    assert_eq!(
        events[2].get("outcome").unwrap().as_str(),
        Some("bad_request")
    );
    let _ = std::fs::remove_file(&log_path);
}

/// The request log agrees with the metrics: an aliased library logs (and
/// is answered and counted) under its registered name, and a `remap`
/// refused while the daemon drains logs as a remap, not a first-seen map.
#[cfg(unix)]
#[test]
fn request_log_names_registered_libraries_and_refused_remaps() {
    let log_path = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-names.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        log_requests: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("names", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::ripple_adder(3)).unwrap();
    let call = MapCall {
        id: Some("alias"),
        lib: Some("44-3"),
        ..MapCall::default()
    };
    let reply = client.call(&map_request(&input, &call)).unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    assert_eq!(reply.get("lib").and_then(|v| v.as_str()), Some("44_3_like"));
    let samples = scrape(&mut client);
    let lib_requests =
        |lib: &str| dash::find(&samples, "dagmap_lib_requests_total", &[("lib", lib)]);
    assert_eq!(lib_requests("44_3_like"), Some(1.0));
    assert_eq!(lib_requests("44-3"), None);

    // The connection stays open until `wait`, so a request sent after the
    // shutdown is refused by the draining daemon.
    server.request_shutdown();
    let refused = client
        .call(&dagmap_serve::remap_request(
            &input,
            "alias",
            Some("late"),
            false,
        ))
        .unwrap();
    assert_eq!(
        refused
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("shutting_down")
    );
    server.wait().unwrap();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<_> = text
        .lines()
        .map(|l| dagmap_obs::json::parse(l).expect("every line is valid JSON"))
        .collect();
    assert_eq!(events.len(), 2, "{text}");
    // The worker logs after it replies, so order the events by op.
    let field = |op: &str, key: &str| {
        let event = events
            .iter()
            .find(|e| e.get("op").and_then(|v| v.as_str()) == Some(op))
            .unwrap_or_else(|| panic!("no {op} event:\n{text}"));
        event.get(key).cloned()
    };
    let text_of = |s: &str| Some(dagmap_obs::json::Value::Str(s.to_owned()));
    assert_eq!(field("map", "lib"), text_of("44_3_like"), "{text}");
    assert_eq!(
        field("remap", "outcome"),
        text_of("shutting_down"),
        "{text}"
    );
    assert_eq!(field("remap", "kind"), text_of("remap"), "{text}");
    assert_eq!(
        field("remap", "first_seen"),
        Some(dagmap_obs::json::Value::Bool(false)),
        "{text}"
    );
    let _ = std::fs::remove_file(&log_path);
}

#[cfg(unix)]
#[test]
fn logged_map_and_remap_time_their_decomposition() {
    let log_path = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-decompose.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        log_requests: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("decompose", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::comparator(16)).unwrap();
    let map = client
        .call(&map_request(
            &input,
            &MapCall {
                id: Some("base"),
                retain: true,
                ..MapCall::default()
            },
        ))
        .unwrap();
    assert_eq!(map.get("error"), None, "{map:?}");
    let edited = edited_blif(&input);
    let request = dagmap_serve::remap_request(&edited, "base", Some("edit"), false);
    let remap = client.call(&request).unwrap();
    assert_eq!(remap.get("error"), None, "{remap:?}");
    for reply in [&map, &remap] {
        let secs = reply.get("phases").and_then(|p| p.get("decompose_seconds"));
        assert!(secs.and_then(|v| v.as_num()).unwrap() > 0.0, "{reply:?}");
    }
    client.shutdown().unwrap();
    server.wait().unwrap();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<_> = text
        .lines()
        .map(|l| dagmap_obs::json::parse(l).expect("every line is valid JSON"))
        .collect();
    assert_eq!(events.len(), 2, "{text}");
    for op in ["map", "remap"] {
        let event = events
            .iter()
            .find(|e| e.get("op").and_then(|v| v.as_str()) == Some(op))
            .unwrap_or_else(|| panic!("no {op} event:\n{text}"));
        let us = event.get("phases").and_then(|p| p.get("decompose_us"));
        assert!(us.and_then(|v| v.as_num()).unwrap() > 0.0, "{op}: {text}");
    }
    let _ = std::fs::remove_file(&log_path);
}

#[cfg(unix)]
#[test]
fn tail_sampling_keeps_bounded_valid_traces() {
    let tail_dir =
        std::env::temp_dir().join(format!("dagmap-serve-test-{}-tail", std::process::id()));
    let _ = std::fs::remove_dir_all(&tail_dir);
    let keep = 3;
    let config = ServeConfig {
        tail: Some(dagmap_serve::TailConfig {
            dir: tail_dir.clone(),
            // quantile <= 0 keeps every trace: deterministic for the test
            // and useful for short captures.
            quantile: 0.0,
            keep,
        }),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("tail", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let net = dagmap_benchgen::ripple_adder(4);
    let input = blif::to_string(&net).unwrap();
    let oneshot = one_shot_blif(&input, &Library::lib2_like());
    for i in 0..6 {
        let id = format!("t{i}");
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(reply.get("error"), None, "{reply:?}");
        // Tail tracing on: output still byte-identical, and no trace in
        // the reply (the client did not ask for one).
        assert_eq!(reply.get("blif").unwrap().as_str().unwrap(), oneshot);
        assert_eq!(reply.get("trace"), None);
    }
    // A worker stores the trace after it replies: wait for the last one.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let kept = loop {
        let kept = dash::find(&scrape(&mut client), "dagmap_tail_traces_kept_total", &[]);
        if kept == Some(6.0) || std::time::Instant::now() > deadline {
            break kept;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(kept, Some(6.0), "quantile 0 keeps every trace");
    client.shutdown().unwrap();
    server.wait().unwrap();

    // The on-disk ring is bounded to `keep`, and every kept file is a
    // valid Chrome trace.
    let mut files: Vec<_> = std::fs::read_dir(&tail_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), keep, "ring bounded to {keep}: {files:?}");
    for f in &files {
        let text = std::fs::read_to_string(f).unwrap();
        dagmap_obs::trace::validate_chrome(&text)
            .unwrap_or_else(|e| panic!("{}: invalid chrome trace: {e}", f.display()));
    }
    let _ = std::fs::remove_dir_all(&tail_dir);
}

#[cfg(unix)]
#[test]
fn unix_socket_file_is_removed_even_without_wait() {
    let path = unique_socket_path("guard");
    let endpoints = Endpoints {
        tcp: None,
        unix: Some(path.clone()),
    };
    let server = Server::start(
        &ServeConfig::default(),
        vec![Library::lib2_like()],
        &endpoints,
    )
    .unwrap();
    assert!(path.exists(), "socket file exists while running");
    server.request_shutdown();
    // Dropping the server without the graceful wait() — as a panicking
    // caller would — must still remove the socket file (RAII guard).
    drop(server);
    assert!(!path.exists(), "socket file removed on drop");
}

/// A megabyte of `[` is a valid frame whose JSON nests far past anything
/// the protocol uses. The parser bounds its nesting depth, so the reader
/// thread answers `bad_request` naming the byte where the bound was hit,
/// instead of recursing until its stack overflows; the same connection
/// then maps like a one-shot run.
#[cfg(unix)]
#[test]
fn deeply_nested_frame_is_a_bad_request_and_spares_the_connection() {
    let (server, endpoint) = start_unix("nesting", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let reply = client.call(&"[".repeat(1 << 20)).unwrap();
    let error = reply
        .get("error")
        .unwrap_or_else(|| panic!("expected an error reply, got {reply:?}"));
    assert_eq!(
        error.get("kind").and_then(|k| k.as_str()),
        Some("bad_request")
    );
    let message = error.get("message").and_then(|m| m.as_str()).unwrap();
    assert!(message.contains("at byte 128"), "{message}");

    let input = blif::to_string(&dagmap_benchgen::ripple_adder(4)).unwrap();
    let reply = client
        .call(&map_request(&input, &MapCall::default()))
        .unwrap();
    assert_eq!(
        reply.get("blif").and_then(|b| b.as_str()),
        Some(one_shot_blif(&input, &Library::lib2_like()).as_str()),
        "{reply:?}"
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// With room for one retained run, retaining `b` evicts `a`: a remap of
/// `a` is refused with a `bad_request` naming it, the connection keeps
/// serving, and a remap of `b` is still byte-identical to a one-shot map
/// of the edited BLIF.
#[cfg(unix)]
#[test]
fn remap_of_an_evicted_handle_is_refused_and_the_survivor_remaps() {
    let config = ServeConfig {
        retain_cap: 1,
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("evict", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::alu(4)).unwrap();
    for handle in ["a", "b"] {
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(handle),
                    retain: true,
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(
            reply.get("handle").and_then(|h| h.as_str()),
            Some(handle),
            "{reply:?}"
        );
    }

    let edited = edited_blif(&input);
    let reply = client
        .call(&dagmap_serve::remap_request(
            &edited,
            "a",
            Some("ra"),
            false,
        ))
        .unwrap();
    let error = reply
        .get("error")
        .unwrap_or_else(|| panic!("an evicted handle must be refused: {reply:?}"));
    assert_eq!(
        error.get("kind").and_then(|k| k.as_str()),
        Some("bad_request")
    );
    let message = error.get("message").and_then(|m| m.as_str()).unwrap();
    assert!(message.contains("`a`"), "{message}");
    client
        .ping()
        .expect("connection survives the refused remap");

    let reply = client
        .call(&dagmap_serve::remap_request(
            &edited,
            "b",
            Some("rb"),
            false,
        ))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    assert_eq!(
        reply.get("blif").and_then(|b| b.as_str()),
        Some(one_shot_blif(&edited, &Library::lib2_like()).as_str())
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A successful reply frame after its `"ok":true` (and a hit's
/// `"cached":true`): the bytes the reply cache stores and replays.
fn reply_body(raw: &str) -> &str {
    let at = raw.find("\"ok\":true").expect("a successful reply");
    let rest = &raw[at + "\"ok\":true".len()..];
    rest.strip_prefix(",\"cached\":true").unwrap_or(rest)
}

fn is_cached(reply: &Value) -> bool {
    reply.get("cached") == Some(&Value::Bool(true))
}

fn error_kind(reply: &Value) -> Option<&str> {
    reply.get("error")?.get("kind")?.as_str()
}

/// k identical requests give k − 2 hits: the first sighting stores
/// nothing, the second stores its reply, and every later one replays it.
/// Every reply carries its own id and the one-shot BLIF, and every hit is
/// the storing reply byte for byte.
#[cfg(unix)]
#[test]
fn identical_requests_after_the_second_are_answered_from_the_cache() {
    let (server, endpoint) = start_unix("cachehits", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::comparator(8)).unwrap();
    const K: usize = 6;
    let raws: Vec<String> = (0..K)
        .map(|i| {
            let id = format!("k{i}");
            let call = MapCall {
                id: Some(&id),
                ..MapCall::default()
            };
            client.call_raw(&map_request(&input, &call)).unwrap()
        })
        .collect();
    let oneshot = one_shot_blif(&input, &Library::lib2_like());
    let first = dagmap_obs::json::parse(&raws[0]).unwrap();
    for (i, raw) in raws.iter().enumerate() {
        let reply = dagmap_obs::json::parse(raw).unwrap();
        assert_eq!(
            reply.get("id").and_then(Value::as_str),
            Some(format!("k{i}").as_str())
        );
        assert_eq!(reply.get("blif").and_then(Value::as_str), Some(&*oneshot));
        assert_eq!(reply.get("delay"), first.get("delay"));
        assert_eq!(is_cached(&reply), i >= 2, "reply {i}");
        if i >= 2 {
            assert_eq!(reply_body(raw), reply_body(&raws[1]), "reply {i}");
        }
    }

    let samples = scrape(&mut client);
    let find = |name: &str| dash::find(&samples, name, &[]);
    assert_eq!(find("dagmap_reply_cache_hits_total"), Some((K - 2) as f64));
    assert_eq!(find("dagmap_reply_cache_misses_total"), Some(2.0));
    assert_eq!(find("dagmap_requests_total"), Some(K as f64));
    let lib_requests = dash::find(
        &samples,
        "dagmap_lib_requests_total",
        &[("lib", "lib2_like")],
    );
    assert_eq!(lib_requests, Some(K as f64));
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Hits are exact on every configuration a map can ask for: hot designs
/// under both libraries, every algorithm, with and without area recovery.
#[cfg(unix)]
#[test]
fn cached_replies_match_one_shot_mapping_in_every_configuration() {
    let (server, endpoint) = start_unix("cachematrix", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let designs = [
        dagmap_benchgen::alu(4),
        dagmap_benchgen::comparator(6),
        dagmap_benchgen::mux_tree(3),
    ];
    let algos = [
        ("dag", MapOptions::dag()),
        ("tree", MapOptions::tree()),
        ("dag-extended", MapOptions::dag_extended()),
    ];
    for (d, net) in designs.iter().enumerate() {
        let input = blif::to_string(net).unwrap();
        for lib in [Library::lib2_like(), Library::lib_44_3_like()] {
            for (algo, options) in algos {
                for recover in [false, true] {
                    let opts = if recover {
                        options.with_area_recovery()
                    } else {
                        options
                    };
                    let expected = one_shot_blif_with(&input, &lib, opts);
                    let call = MapCall {
                        lib: Some(lib.name()),
                        algo,
                        recover,
                        ..MapCall::default()
                    };
                    let what = format!("design {d} {} {algo} recover={recover}", lib.name());
                    let replies: Vec<Value> = (0..3)
                        .map(|_| client.call(&map_request(&input, &call)).unwrap())
                        .collect();
                    for reply in &replies {
                        let served = reply.get("blif").and_then(Value::as_str);
                        assert_eq!(served, Some(&*expected), "{what}: {reply:?}");
                    }
                    assert!(is_cached(&replies[2]), "{what}: third request is a hit");
                }
            }
        }
    }
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A first sighting stores nothing, and traced, retaining and remap
/// requests neither read nor write the cache.
#[cfg(unix)]
#[test]
fn first_sightings_store_nothing_and_bypassing_requests_never_hit() {
    let (server, endpoint) = start_unix("cachebypass", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::alu(4)).unwrap();
    let counts = |client: &mut Client| {
        let samples = scrape(client);
        let find = |name: &str| dash::find(&samples, name, &[]).unwrap();
        (
            find("dagmap_reply_cache_hits_total"),
            find("dagmap_reply_cache_misses_total"),
            find("dagmap_reply_cache_bytes"),
        )
    };
    let plain = map_request(&input, &MapCall::default());
    assert!(!is_cached(&client.call(&plain).unwrap()));
    assert_eq!(counts(&mut client), (0.0, 1.0, 0.0), "first sighting");
    assert!(!is_cached(&client.call(&plain).unwrap()));
    let (_, _, stored) = counts(&mut client);
    assert!(stored > 0.0, "the second sighting stores its reply");

    let traced = client
        .call(&map_request(
            &input,
            &MapCall {
                trace: true,
                ..MapCall::default()
            },
        ))
        .unwrap();
    assert!(traced.get("trace").is_some() && !is_cached(&traced));
    let retained = client
        .call(&map_request(
            &input,
            &MapCall {
                id: Some("h"),
                retain: true,
                ..MapCall::default()
            },
        ))
        .unwrap();
    assert!(retained.get("handle").is_some() && !is_cached(&retained));
    let remapped = client
        .call(&dagmap_serve::remap_request(&input, "h", None, false))
        .unwrap();
    assert_eq!(error_kind(&remapped), None, "{remapped:?}");
    assert!(!is_cached(&remapped));
    assert_eq!(counts(&mut client), (0.0, 2.0, stored), "bypasses");

    assert!(is_cached(&client.call(&plain).unwrap()));
    assert_eq!(counts(&mut client), (1.0, 2.0, stored));
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A request the cache could answer is refused like any map while the
/// daemon drains.
#[cfg(unix)]
#[test]
fn a_hit_arriving_while_the_daemon_drains_is_refused() {
    let (server, endpoint) = start_unix("cachedrain", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::ripple_adder(4)).unwrap();
    let plain = map_request(&input, &MapCall::default());
    for _ in 0..3 {
        assert_eq!(error_kind(&client.call(&plain).unwrap()), None);
    }
    server.request_shutdown();
    let refused = client.call(&plain).unwrap();
    assert_eq!(error_kind(&refused), Some("shutting_down"), "{refused:?}");
    server.wait().unwrap();
}

/// A cold map logs and observes its parse, verify and writeback times
/// next to the report's phases; a hit records no phase at all.
#[cfg(unix)]
#[test]
fn cold_maps_time_every_phase_and_hits_time_none() {
    let log_path = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-phases.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        log_requests: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("phases", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let input = blif::to_string(&dagmap_benchgen::comparator(16)).unwrap();
    for i in 0..3 {
        let id = format!("p{i}");
        let call = MapCall {
            id: Some(&id),
            ..MapCall::default()
        };
        let reply = client.call(&map_request(&input, &call)).unwrap();
        assert_eq!(is_cached(&reply), i == 2);
    }
    // A worker records a request's phases right after writing its reply,
    // writeback last, so the second cold map's may land after the hit.
    let count = |samples: &[Sample], phase: &str| {
        dash::find(samples, &format!("dagmap_phase_{phase}_us_count"), &[])
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut samples = scrape(&mut client);
    while count(&samples, "writeback") < Some(2.0) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
        samples = scrape(&mut client);
    }
    for phase in [
        "parse",
        "decompose",
        "label",
        "cover",
        "verify",
        "writeback",
    ] {
        assert_eq!(count(&samples, phase), Some(2.0), "{phase}");
    }
    client.shutdown().unwrap();
    server.wait().unwrap();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let events: BTreeMap<String, Value> = text
        .lines()
        .map(|l| {
            let event = dagmap_obs::json::parse(l).expect("every line is valid JSON");
            let id = event.get("id").and_then(Value::as_str).unwrap().to_owned();
            (id, event)
        })
        .collect();
    assert_eq!(events.len(), 3, "{text}");
    let phases = |id: &str| events[id].get("phases").and_then(Value::as_obj).unwrap();
    for id in ["p0", "p1"] {
        for key in [
            "parse_us",
            "decompose_us",
            "label_us",
            "verify_us",
            "writeback_us",
        ] {
            let us = phases(id).get(key).and_then(Value::as_num);
            assert!(us.unwrap_or(0.0) > 0.0, "{id} {key}: {text}");
        }
    }
    assert_eq!(
        events["p2"].get("kind").and_then(Value::as_str),
        Some("cached")
    );
    assert!(phases("p2").is_empty(), "a hit runs no phase: {text}");
    assert_eq!(events["p2"].get("delay"), events["p0"].get("delay"));
    let _ = std::fs::remove_file(&log_path);
}

/// A daemon that has idled accepts a fresh connection at once: the median
/// connect-and-ping round trip after 50 ms of quiet is well under the
/// 20 ms an accept loop polling a non-blocking listener could add.
#[cfg(unix)]
#[test]
fn fresh_connections_to_an_idle_daemon_are_accepted_promptly() {
    let (server, endpoint) = start_unix("idle", &ServeConfig::default());
    let mut round_trips: Vec<Duration> = (0..7)
        .map(|_| {
            thread::sleep(Duration::from_millis(50));
            let t0 = Instant::now();
            Client::connect(&endpoint).unwrap().ping().unwrap();
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    assert!(round_trips[3] < Duration::from_millis(5), "{round_trips:?}");
    server.request_shutdown();
    server.wait().unwrap();
}

/// Shutdown races a cold map in flight and a client that keeps connecting:
/// the cold map is answered with its one-shot BLIF, every request the
/// daemon admitted is answered, `wait` returns and the socket file is gone.
#[cfg(unix)]
#[test]
fn shutdown_racing_a_cold_map_and_a_connecting_client_answers_every_admitted_request() {
    let log_path = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-race.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        workers: 1,
        log_requests: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("race", &config);
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    let cold = blif::to_string(&dagmap_benchgen::array_multiplier(8)).unwrap();
    let small = blif::to_string(&dagmap_benchgen::ripple_adder(3)).unwrap();
    let mut mapper = Client::connect(&endpoint).unwrap();
    let call = MapCall {
        id: Some("cold"),
        ..MapCall::default()
    };
    mapper.send(&map_request(&cold, &call)).unwrap();
    let mut control = Client::connect(&endpoint).unwrap();
    while dash::find(&scrape(&mut control), "dagmap_requests_total", &[]) < Some(1.0) {
        thread::yield_now();
    }

    let start = Barrier::new(2);
    let racer_ok = thread::scope(|scope| {
        let racer = scope.spawn(|| {
            start.wait();
            let mut ok = 0;
            for i in 0..50 {
                let Ok(mut client) = Client::connect(&endpoint) else {
                    break;
                };
                let id = format!("race{i}");
                let call = MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                };
                // A connection accepted after the flag closes unanswered:
                // its request was never admitted.
                let Ok(reply) = client.call(&map_request(&small, &call)) else {
                    continue;
                };
                match error_kind(&reply) {
                    None => ok += 1,
                    Some(kind) => assert_eq!(kind, "shutting_down", "{reply:?}"),
                }
            }
            ok
        });
        start.wait();
        control.shutdown().unwrap();
        racer.join().unwrap()
    });
    let reply = mapper.recv().expect("the admitted cold map is answered");
    assert_eq!(
        reply.get("blif").and_then(Value::as_str),
        Some(one_shot_blif(&cold, &Library::lib2_like()).as_str()),
        "{reply:?}"
    );
    server.wait().unwrap();
    assert!(!path.exists(), "socket file removed");

    // Every request logged as served was answered: the cold map and each
    // success the racing client read.
    let text = std::fs::read_to_string(&log_path).unwrap();
    let served = text.lines().filter(|l| l.contains("\"outcome\":\"ok\""));
    assert_eq!(served.count(), 1 + racer_ok, "{text}");
    let _ = std::fs::remove_file(&log_path);
}

/// A client that leaves mid-frame, and one that leaves before its reply is
/// written, cost the daemon nothing: the next connection pings and maps.
#[cfg(unix)]
#[test]
fn a_client_disconnecting_mid_request_spares_the_daemon() {
    use std::io::Write as _;

    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("disconnect", &config);
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        stream
            .write_all(b"1000\n{\"op\":\"map\",\"blif\":\".mod")
            .unwrap();
    }
    let cold = blif::to_string(&dagmap_benchgen::array_multiplier(6)).unwrap();
    Client::connect(&endpoint)
        .unwrap()
        .send(&map_request(&cold, &MapCall::default()))
        .unwrap();

    // One worker serves in order, so this reply comes after the worker
    // wrote the abandoned one into a closed connection.
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();
    let input = blif::to_string(&dagmap_benchgen::ripple_adder(3)).unwrap();
    let reply = client
        .call(&map_request(&input, &MapCall::default()))
        .unwrap();
    assert_eq!(
        reply.get("blif").and_then(Value::as_str),
        Some(one_shot_blif(&input, &Library::lib2_like()).as_str()),
        "{reply:?}"
    );
    let samples = scrape(&mut client);
    assert_eq!(
        dash::find(&samples, "dagmap_requests_total", &[]),
        Some(2.0)
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// One plain-HTTP scrape of the metrics listener.
fn http_scrape(addr: std::net::SocketAddr) -> Vec<Sample> {
    use std::io::{Read as _, Write as _};

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let body = response.split_once("\r\n\r\n").unwrap().1;
    dash::parse_exposition(body).unwrap()
}

/// A skewed stream over two libraries from four pipelining clients, with
/// every telemetry layer on and the metrics listener scraped throughout:
/// no error or busy frame, a request counter that never decreases and
/// ends at the stream length (hits included), one log line per request,
/// and every distinct (circuit, library) reply byte-identical to a
/// one-shot map.
#[cfg(unix)]
#[test]
fn a_pipelined_request_stream_is_served_exactly_with_live_telemetry() {
    use dagmap_benchgen::{request_stream, RequestStreamSpec};

    const CLIENTS: usize = 4;
    const WINDOW: usize = 16;
    let base =
        std::env::temp_dir().join(format!("dagmap-serve-test-{}-stream", std::process::id()));
    let log_path = base.with_extension("jsonl");
    let tail_dir = base.with_extension("tail");
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_dir_all(&tail_dir);
    let config = ServeConfig {
        workers: 2,
        // Unlimited admission: the stream must see no busy frame.
        max_inflight: 0,
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        log_requests: Some(log_path.clone()),
        tail: Some(dagmap_serve::TailConfig::new(tail_dir.clone())),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("stream", &config);
    let http = server.metrics_http_addr().unwrap();
    let libs = [Library::lib2_like(), Library::lib_44_3_like()];
    let stream = request_stream(&RequestStreamSpec {
        num_requests: 120,
        num_libs: libs.len(),
        ..RequestStreamSpec::default()
    });

    let stop = AtomicBool::new(false);
    let start = Barrier::new(CLIENTS + 1);
    let (scraped, replies) = thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            start.wait();
            let mut seen = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                seen.push(dash::find(&http_scrape(http), "dagmap_requests_total", &[]).unwrap());
            }
            seen
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (endpoint, stream, libs, start) = (&endpoint, &stream, &libs, &start);
                scope.spawn(move || {
                    let mut client = Client::connect(endpoint).unwrap();
                    let mine: Vec<_> = stream.iter().skip(c).step_by(CLIENTS).collect();
                    let mut replies = Vec::new();
                    let mut outstanding = BTreeMap::new();
                    let mut recv = |client: &mut Client, outstanding: &mut BTreeMap<_, _>| {
                        let reply = client.recv().unwrap();
                        let id = reply.get("id").and_then(Value::as_str).unwrap().to_owned();
                        let req: &&dagmap_benchgen::ServeRequest =
                            &outstanding.remove(&id).unwrap();
                        replies.push((req.circuit.clone(), req.lib_index, reply));
                    };
                    start.wait();
                    for (seq, req) in mine.iter().enumerate() {
                        if outstanding.len() >= WINDOW {
                            recv(&mut client, &mut outstanding);
                        }
                        let id = format!("c{c}-{seq}");
                        let call = MapCall {
                            id: Some(&id),
                            lib: Some(libs[req.lib_index].name()),
                            ..MapCall::default()
                        };
                        client.send(&map_request(&req.blif, &call)).unwrap();
                        outstanding.insert(id, *req);
                    }
                    while !outstanding.is_empty() {
                        recv(&mut client, &mut outstanding);
                    }
                    replies
                })
            })
            .collect();
        let replies: Vec<_> = clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        stop.store(true, Ordering::SeqCst);
        (scraper.join().unwrap(), replies)
    });

    assert_eq!(replies.len(), stream.len());
    assert!(!scraped.is_empty(), "no scrape ran during the traffic");
    assert!(
        scraped.windows(2).all(|w| w[0] <= w[1]),
        "requests_total went backwards: {scraped:?}"
    );
    let samples = http_scrape(http);
    let find = |name: &str| dash::find(&samples, name, &[]).unwrap();
    assert_eq!(find("dagmap_requests_total"), stream.len() as f64);
    assert_eq!(find("dagmap_errors_total"), 0.0);
    assert_eq!(find("dagmap_busy_rejects_total"), 0.0);
    assert!(
        find("dagmap_reply_cache_hits_total") > 0.0,
        "the hot set hits"
    );

    let mut checked = BTreeMap::new();
    for (circuit, lib, reply) in &replies {
        assert_eq!(error_kind(reply), None, "{reply:?}");
        let served = reply.get("blif").and_then(Value::as_str).unwrap();
        let expected = checked.entry((circuit.clone(), *lib)).or_insert_with(|| {
            let req = stream
                .iter()
                .find(|r| &r.circuit == circuit && r.lib_index == *lib)
                .unwrap();
            one_shot_blif(&req.blif, &libs[*lib])
        });
        assert_eq!(served, expected.as_str(), "{circuit} under lib {lib}");
    }
    let mut control = Client::connect(&endpoint).unwrap();
    control.shutdown().unwrap();
    server.wait().unwrap();
    let logged = std::fs::read_to_string(&log_path).unwrap();
    assert_eq!(logged.lines().count(), stream.len());
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_dir_all(&tail_dir);
}
