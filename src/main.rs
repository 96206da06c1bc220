//! `dagmap` — command-line front end to the DAG-covering technology mapper.
//!
//! ```text
//! dagmap map    <in.blif> [--builtin lib2|44-1|44-3|minimal | --lib <f.genlib>]
//!               [--algo dag|tree|dag-extended|boolean|hybrid] [--objective delay|area]
//!               [--recover] [--buffer <max_load>] [--out <f.blif>]
//!               [--verilog <f.v>] [--no-verify] [--trace <t.json>] [--profile]
//! dagmap luts   <in.blif> [-k <k>] [--out <f.blif>]
//! dagmap retime <in.blif> [--builtin ... | --lib <f.genlib>] [--tol <t>]
//! dagmap stats  <in.blif>
//! dagmap lib    (--builtin <name> | <f.genlib>)
//! dagmap profile <in.blif> [--runs <n>]
//! dagmap trace-check <trace.json>
//! dagmap gen    <c2670|c3540|c5315|c6288|c7552|add<N>|mul<N>|alu<N>> [--out <f.blif>]
//! ```

use std::error::Error;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use dagmap::boolmatch;
use dagmap::core::{load, verify, verilog, MapOptions, MapReport, Mapper, Objective};
use dagmap::genlib::Library;
use dagmap::matching::MatchMode;
use dagmap::netlist::{blif, Network, SubjectGraph};
use dagmap::retime::{min_cycle_period, minimize_period, SeqGraph};
use dagmap::serve::{Endpoints, ServeConfig, Server};
use dagmap::supergate::{extend_library, SupergateOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("map") => cmd_map(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("luts") => cmd_luts(&args[1..]),
        Some("retime") => cmd_retime(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("lib") => cmd_lib(&args[1..]),
        Some("supergen") => cmd_supergen(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("--help" | "-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`; try --help").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "\
dagmap — delay-optimal technology mapping by DAG covering (DAC 1998)

usage:
  dagmap map      <in.blif> [options]   map against a gate library
  dagmap serve    [options]             long-lived mapping daemon with warm
                                        libraries (TCP/unix socket)
  dagmap client   [options] [in.blif]   talk to a running daemon
  dagmap top      [options]             live refreshing terminal dashboard
                                        for a running daemon
  dagmap luts     <in.blif> [-k <k>]    FlowMap k-LUT mapping
  dagmap retime   <in.blif> [options]   minimum clock period (retime + map)
  dagmap stats    <in.blif> [--builtin <name> | --lib <f.genlib>]
                                        network and subject-graph statistics
                                        (with a library: match census and
                                        phase timings)
  dagmap lib      <f.genlib>|--builtin  library statistics
  dagmap supergen [options]             extend a library with supergates
  dagmap fuzz     [options]             differential fuzzing of the mapper
  dagmap profile  <in.blif> [options]   map repeatedly and print aggregated
                                        per-phase statistics
  dagmap trace-check <trace.json>       validate a Chrome trace-event file
                                        produced by --trace
  dagmap gen      <name> [--out f]      emit a generated benchmark as BLIF

files ending in .aag are read/written as ASCII AIGER; everything else is
BLIF.

observability options (map, luts, retime, stats, supergen, fuzz, profile):
  --trace <out.json>                  record the run as Chrome trace-event
                                      JSON (open in Perfetto or
                                      chrome://tracing). Results are
                                      bit-identical with tracing on or off.
  --profile                           print the phase report — self/total
                                      time tree, per-level wavefront
                                      occupancy, match-kernel hit rates —
                                      to stderr

map options:
  --builtin lib2|44-1|44-3|minimal    built-in library (default lib2)
  --lib <f.genlib>                    library from a genlib file
  --algo dag|tree|dag-extended|boolean|hybrid  covering algorithm (default dag)
  -k <n>                              priority-cut width for --algo
                                      boolean/hybrid (default 4, max 6)
  --objective delay|area              optimization goal (default delay)
  --recover                           slack-driven area recovery
  --buffer <max_load>                 bound fanout loads with buffers
  --supergates <depth>                extend the library with supergates up
                                      to <depth> composed gate levels first
  --no-accel                          disable the automaton candidate filter
                                      (results are bit-identical; only speed
                                      changes)
  --out <f.blif>                      write the mapped netlist as BLIF
  --verilog <f.v>                     write structural Verilog
  --report-path                       print the critical path
  --no-verify                         skip the equivalence check
  --json                              print the map report as one JSON
                                      object (the serve protocol's report
                                      shape) instead of the human summary

serve options:
  --tcp <addr>                        listen on a TCP address (e.g.
                                      127.0.0.1:7433)
  --unix <path>                       listen on a unix-domain socket
  --libs <a,b,...>                    libraries to serve: builtin names
                                      and/or .genlib paths (default lib2);
                                      the first is the default for requests
                                      that name none
  --supergates <depth>                extend every served library with
                                      supergates first
  --workers <n>                       mapping worker threads (default: all
                                      hardware threads)
  --max-inflight <n>                  admission limit before `busy` replies
                                      (default 256, 0 = unlimited)
  --no-verify                         skip per-request equivalence checks
  --metrics-addr <addr>               also serve the metrics as plain HTTP
                                      (GET /metrics, Prometheus text format)
  --log-requests <f.jsonl>            append one JSON line per finished
                                      request (latency, phases, match counts)
  --tail-traces <dir>                 tail-based trace sampling: requests
                                      slower than their class's rolling
                                      latency quantile keep their Chrome
                                      trace in a bounded on-disk ring
  --tail-quantile <q>                 tail threshold quantile (default
                                      0.99; 0 keeps every trace)
  --tail-keep <n>                     tail traces retained on disk
                                      (default 16)

client options:
  --tcp <addr> | --unix <path>        where the daemon listens (required)
  --ping | --shutdown                 control ops (otherwise maps in.blif)
  --metrics                           print the daemon's live metrics as
                                      Prometheus text exposition (`dagmap
                                      top --once` prints them as a table)
  --lib <name>                        served library to map against
  --algo dag|tree|dag-extended        covering algorithm (default dag)
  --recover                           slack-driven area recovery
  --repeat <n>                        send the map request n times,
                                      pipelined; --out and the summary use
                                      the last reply
  --json                              print the raw reply JSON
  --out <f.blif>                      write the mapped netlist as BLIF

top options:
  --tcp <addr> | --unix <path>        where the daemon listens (required)
  --interval <secs>                   refresh period (default 2)
  --once                              print one snapshot and exit (no
                                      screen clearing)

retime options:
  --builtin/--lib                     as for map
  --tol <t>                           period search tolerance (default 1e-3)

lib options:
  --gates                             also print per-gate pattern statistics

supergen options:
  --builtin/--lib                     base library (default lib2)
  --depth <d>                         max composed gate levels (default 2)
  --max-inputs <n>                    supergate input budget, 2..=6 (default 4)
  --max-count <c>                     max supergates emitted (default 64)
  --max-pool <p>                      candidate pool cap (default 128)
  --threads <n>                       worker threads (output is bit-identical
                                      for every thread count)
  --out <f.genlib>                    write the extended library as genlib

fuzz options:
  --seed <n>                          master seed (default 1)
  --cases <n>                         generated cases (default 100)
  --max-gates <n>                     gate-count ceiling per case (default 60)
  --corpus <dir>                      where minimized repros are written
                                      (default tests/corpus)
  --no-supergates                     skip supergate-extended library variants
  --no-retime                         skip the sequential min-period search
  --no-shrink                         keep failing cases full-size

profile options:
  --builtin/--lib                     as for map
  --runs <n>                          mapping repetitions to aggregate
                                      (default 5)
  --trace <out.json>                  also write the last run's trace
";

type CmdResult = Result<(), Box<dyn Error>>;

/// Pulls the value following a flag out of `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, Box<dyn Error>> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value").into());
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Removes a boolean flag, reporting whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn load_library(args: &mut Vec<String>) -> Result<Library, Box<dyn Error>> {
    let builtin = take_value(args, "--builtin")?;
    let file = take_value(args, "--lib")?;
    match (builtin.as_deref(), file) {
        (Some(_), Some(_)) => Err("--builtin and --lib are mutually exclusive".into()),
        (Some("lib2") | None, None) => Ok(Library::lib2_like()),
        (Some("44-1"), None) => Ok(Library::lib_44_1_like()),
        (Some("44-3"), None) => Ok(Library::lib_44_3_like()),
        (Some("minimal"), None) => Ok(Library::minimal()),
        (Some(other), None) => Err(format!("unknown builtin library `{other}`").into()),
        (None, Some(path)) => {
            let text = fs::read_to_string(&path)?;
            Ok(Library::from_genlib_named(&path, &text)?)
        }
    }
}

fn read_network(path: &str) -> Result<Network, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    if path.ends_with(".aag") {
        Ok(dagmap::netlist::aiger::parse_ascii(&text)?)
    } else {
        Ok(blif::parse(&text)?)
    }
}

fn write_network(path: &str, net: &Network) -> Result<(), Box<dyn Error>> {
    let text = if path.ends_with(".aag") {
        dagmap::netlist::aiger::to_ascii(net)?
    } else {
        blif::to_string(net)?
    };
    fs::write(path, text)?;
    Ok(())
}

/// Removes and returns the first positional (non-flag) argument.
fn take_positional(args: &mut Vec<String>, what: &str) -> Result<String, Box<dyn Error>> {
    match args.iter().position(|a| !a.starts_with('-')) {
        Some(pos) => Ok(args.remove(pos)),
        None => Err(format!("missing {what}").into()),
    }
}

/// Every command calls this after consuming its known flags and
/// positionals: anything left is either an unknown flag or a stray
/// argument, and both are hard errors.
fn reject_leftovers(args: &[String]) -> CmdResult {
    match args.first() {
        None => Ok(()),
        Some(flag) if flag.starts_with('-') => {
            Err(format!("unknown flag `{flag}`; try --help").into())
        }
        Some(stray) => Err(format!("unexpected argument `{stray}`").into()),
    }
}

/// The flags shared by every pipeline command, parsed in exactly one
/// place: the two observability switches.
struct CliCommon {
    /// `--trace <out.json>`: write a Chrome trace-event file of the run.
    trace: Option<String>,
    /// `--profile`: print the phase report to stderr after the run.
    profile: bool,
}

impl CliCommon {
    fn parse(args: &mut Vec<String>) -> Result<CliCommon, Box<dyn Error>> {
        let trace = take_value(args, "--trace")?;
        let profile = take_flag(args, "--profile");
        Ok(CliCommon { trace, profile })
    }

    /// Starts an obs session iff `--trace` or `--profile` was given. With
    /// neither flag, recording stays globally disabled and every
    /// instrumentation site in the pipeline costs one predicted branch.
    fn begin(&self) -> Option<dagmap::obs::Session> {
        (self.trace.is_some() || self.profile).then(dagmap::obs::start)
    }

    /// Finishes the session (if any) and runs the exporters. Both go to
    /// stderr / a side file, never stdout, so command output is identical
    /// with observability on or off.
    fn end(&self, session: Option<dagmap::obs::Session>) -> CmdResult {
        let Some(session) = session else {
            return Ok(());
        };
        let trace = session.finish();
        if let Some(path) = &self.trace {
            fs::write(path, trace.to_chrome_json())?;
            eprintln!("trace: wrote {path}");
        }
        if self.profile {
            eprint!("{}", dagmap::obs::report::render(&trace));
        }
        Ok(())
    }
}

/// The per-phase duration line `map` and `stats` print from a
/// [`MapReport`].
fn print_phases(report: &MapReport) {
    println!(
        "phases: decompose {:.1} ms, label {:.1} ms ({} levels), cover {:.1} ms, area recovery {:.1} ms",
        report.decompose_seconds * 1e3,
        report.label_seconds * 1e3,
        report.levels,
        report.cover_seconds * 1e3,
        report.area_recovery_seconds * 1e3,
    );
}

fn cmd_map(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let mut library = load_library(&mut args)?;
    let supergates: Option<u32> = take_value(&mut args, "--supergates")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--supergates needs a depth (gate levels)")?;
    let algo = take_value(&mut args, "--algo")?.unwrap_or_else(|| "dag".into());
    let objective = take_value(&mut args, "--objective")?.unwrap_or_else(|| "delay".into());
    let recover = take_flag(&mut args, "--recover");
    let buffer: Option<f64> = take_value(&mut args, "--buffer")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--buffer needs a number")?;
    let out = take_value(&mut args, "--out")?;
    let vout = take_value(&mut args, "--verilog")?;
    let no_verify = take_flag(&mut args, "--no-verify");
    let report_path = take_flag(&mut args, "--report-path");
    let no_accel = take_flag(&mut args, "--no-accel");
    let json = take_flag(&mut args, "--json");
    let k: usize = take_value(&mut args, "-k")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "-k needs an integer")?
        .unwrap_or(4);
    let input = take_positional(&mut args, "input BLIF file")?;
    reject_leftovers(&args)?;

    let session = common.begin();
    let result = (|| -> CmdResult {
        if let Some(depth) = supergates {
            let ext = extend_library(
                &library,
                &SupergateOptions {
                    max_depth: depth,
                    ..SupergateOptions::default()
                },
            )?;
            println!(
                "supergates: {} -> `{}` (+{} cells from {} candidates, depth <= {})",
                library.name(),
                ext.library.name(),
                ext.report.supergates,
                ext.report.candidates,
                ext.report.rounds,
            );
            library = ext.library;
        }
        let net = read_network(&input)?;
        let subject = SubjectGraph::from_network(&net)?;
        // Boolean and hybrid matching feed the same labeling DP through the
        // `MatchSource` seam, so every pipeline flag — recovery, objective,
        // --json — means the same thing for them.
        let mut opts = match algo.as_str() {
            "dag" | "boolean" | "hybrid" => MapOptions::dag(),
            "tree" => MapOptions::tree(),
            "dag-extended" => MapOptions::dag_extended(),
            other => return Err(format!("unknown algorithm `{other}`").into()),
        };
        opts.objective = match objective.as_str() {
            "delay" => Objective::Delay,
            "area" => Objective::Area,
            other => return Err(format!("unknown objective `{other}`").into()),
        };
        if recover {
            opts = opts.with_area_recovery();
        }
        if no_accel {
            opts = opts.with_match_acceleration(false);
        }
        let (mut mapped, report, bool_report) = match algo.as_str() {
            "boolean" => {
                let (m, r, b) = boolmatch::map_boolean_with_options(&subject, &library, k, opts)?;
                (m, r, Some(b))
            }
            "hybrid" => {
                let (m, r, b) = boolmatch::map_hybrid_with_options(&subject, &library, k, opts)?;
                (m, r, Some(b))
            }
            _ => {
                let (m, r) = Mapper::new(&library).map_with_report(&subject, opts)?;
                (m, r, None)
            }
        };
        if let Some(max_load) = buffer {
            mapped = load::insert_buffers(&mapped, &library, max_load)?;
        }
        if !no_verify {
            verify::check(&mapped, &subject, 0xC11)?;
        }
        if json {
            // The one JSON object on stdout IS the output; everything else
            // (file-write notices) goes to stderr. The report shape is the
            // serve protocol's, rendered by the same serializer.
            println!("{}", dagmap::serve::protocol::map_report_json(&report));
            if let Some(path) = &out {
                write_network(path, &mapped.to_network()?)?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = &vout {
                fs::write(path, verilog::to_verilog(&mapped))?;
                eprintln!("wrote {path}");
            }
            return Ok(());
        }
        println!(
            "{}: {} subject gates -> {} cells, delay {:.3}, area {:.1} ({} algorithm, {} matches, {} duplicated)",
            net.name(),
            subject.num_gates(),
            mapped.num_cells(),
            mapped.delay(),
            mapped.area(),
            report.algorithm,
            report.matches_enumerated,
            mapped.duplicated_subject_nodes(),
        );
        let kernel = if report.match_words > 0 {
            format!(
                ", {} words ({:.1}% occupancy)",
                report.match_words,
                100.0 * report.match_candidate_bits as f64 / (report.match_words * 64) as f64
            )
        } else {
            String::new()
        };
        println!(
            "matching: {} enumerated, {} candidates pruned{kernel}",
            report.matches_enumerated, report.matches_pruned
        );
        if let Some(b) = &bool_report {
            println!(
                "boolean: k={}, {} priority cuts, {} examined, {} matches ({} P + {} NPN), \
                 classes {} -> {} (P -> NPN), {} gates indexed",
                b.k,
                b.cuts_enumerated,
                b.cuts_examined,
                b.matches_found,
                b.p_matches,
                b.npn_matches,
                b.p_classes_matched,
                b.npn_classes_matched,
                b.gates_indexed,
            );
        }
        if report.strash_raw_nodes > 0 {
            println!(
                "strash: {} constructions -> {} nodes ({:.2}x dedup, {} hits)",
                report.strash_raw_nodes,
                report.strash_unique_nodes,
                report.strash_raw_nodes as f64 / report.strash_unique_nodes.max(1) as f64,
                report.strash_dedup_hits,
            );
        }
        print_phases(&report);
        for (gate, count) in mapped.gate_histogram() {
            println!("  {gate:<12} x{count}");
        }
        if report_path {
            println!("critical path (input side first):");
            for &c in &mapped.critical_path() {
                println!(
                    "  {:<12} arrival {:>8.3}",
                    mapped.kind_of(c).name,
                    mapped.cell_arrival(c)
                );
            }
        }
        if buffer.is_some() {
            let timing = load::analyze(&mapped);
            println!("load-aware delay: {:.3}", timing.delay);
        }
        if let Some(path) = &out {
            write_network(path, &mapped.to_network()?)?;
            println!("wrote {path}");
        }
        if let Some(path) = &vout {
            fs::write(path, verilog::to_verilog(&mapped))?;
            println!("wrote {path}");
        }
        Ok(())
    })();
    common.end(session)?;
    result
}

/// Parses `--libs a,b,c` (builtin names and/or .genlib paths) into
/// libraries, defaulting to lib2.
fn load_served_libraries(spec: Option<&str>) -> Result<Vec<Library>, Box<dyn Error>> {
    let spec = spec.unwrap_or("lib2");
    let mut libraries = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let library = match item {
            "lib2" => Library::lib2_like(),
            "44-1" => Library::lib_44_1_like(),
            "44-3" => Library::lib_44_3_like(),
            "minimal" => Library::minimal(),
            path if path.ends_with(".genlib") => {
                let text = fs::read_to_string(path)?;
                Library::from_genlib_named(path, &text)?
            }
            other => return Err(format!("unknown library `{other}` in --libs").into()),
        };
        libraries.push(library);
    }
    if libraries.is_empty() {
        return Err("--libs names no libraries".into());
    }
    Ok(libraries)
}

fn cmd_serve(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let tcp = take_value(&mut args, "--tcp")?;
    let unix = take_value(&mut args, "--unix")?;
    let libs_spec = take_value(&mut args, "--libs")?;
    let supergates: Option<u32> = take_value(&mut args, "--supergates")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--supergates needs a depth (gate levels)")?;
    let mut config = ServeConfig::default();
    if let Some(n) = take_value(&mut args, "--workers")? {
        let n: usize = n.parse().map_err(|_| "--workers needs an integer")?;
        config.workers = n.max(1);
    }
    if let Some(n) = take_value(&mut args, "--max-inflight")? {
        config.max_inflight = n.parse().map_err(|_| "--max-inflight needs an integer")?;
    }
    config.verify = !take_flag(&mut args, "--no-verify");
    config.metrics_addr = take_value(&mut args, "--metrics-addr")?;
    config.log_requests = take_value(&mut args, "--log-requests")?.map(Into::into);
    let tail_quantile = take_value(&mut args, "--tail-quantile")?;
    let tail_keep = take_value(&mut args, "--tail-keep")?;
    if let Some(dir) = take_value(&mut args, "--tail-traces")? {
        let mut tail = dagmap::serve::TailConfig::new(dir.into());
        if let Some(q) = tail_quantile {
            tail.quantile = q.parse().map_err(|_| "--tail-quantile needs a number")?;
        }
        if let Some(n) = tail_keep {
            tail.keep = n.parse().map_err(|_| "--tail-keep needs an integer")?;
        }
        config.tail = Some(tail);
    } else if tail_quantile.is_some() || tail_keep.is_some() {
        return Err("--tail-quantile/--tail-keep need --tail-traces <dir>".into());
    }
    reject_leftovers(&args)?;

    let mut libraries = load_served_libraries(libs_spec.as_deref())?;
    if let Some(depth) = supergates {
        // Supergate extension is part of the warm startup state: pay for it
        // once here, never per request.
        for library in &mut libraries {
            let ext = extend_library(
                library,
                &SupergateOptions {
                    max_depth: depth,
                    ..SupergateOptions::default()
                },
            )?;
            eprintln!(
                "supergates: {} -> `{}` (+{} cells)",
                library.name(),
                ext.library.name(),
                ext.report.supergates,
            );
            *library = ext.library;
        }
    }
    let names: Vec<String> = libraries.iter().map(|l| l.name().to_owned()).collect();
    let endpoints = Endpoints {
        tcp: tcp.clone(),
        #[cfg(unix)]
        unix: unix.clone().map(Into::into),
    };
    #[cfg(not(unix))]
    if unix.is_some() {
        return Err("--unix is not supported on this platform".into());
    }
    // With --trace/--profile the daemon records globally for its whole
    // lifetime; workers flush per-request frames into this session.
    let session = common.begin();
    let server = Server::start(&config, libraries, &endpoints)?;
    if let Some(addr) = server.tcp_addr() {
        eprintln!("serving on tcp {addr}");
    }
    if let Some(path) = &unix {
        eprintln!("serving on unix {path}");
    }
    if let Some(addr) = server.metrics_http_addr() {
        eprintln!("metrics on http://{addr}/metrics");
    }
    eprintln!(
        "libraries: {} ({} workers, max {} inflight); send {{\"op\":\"shutdown\"}} to stop",
        names.join(", "),
        config.workers,
        config.max_inflight,
    );
    server.wait()?;
    eprintln!("serve: drained and stopped");
    common.end(session)
}

fn client_endpoint(args: &mut Vec<String>) -> Result<dagmap::serve::Endpoint, Box<dyn Error>> {
    let tcp = take_value(args, "--tcp")?;
    let unix = take_value(args, "--unix")?;
    match (tcp, unix) {
        (Some(addr), None) => Ok(dagmap::serve::Endpoint::Tcp(addr)),
        #[cfg(unix)]
        (None, Some(path)) => Ok(dagmap::serve::Endpoint::Unix(path.into())),
        (Some(_), Some(_)) => Err("--tcp and --unix are mutually exclusive".into()),
        _ => Err("client needs --tcp <addr> or --unix <path>".into()),
    }
}

fn cmd_client(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let endpoint = client_endpoint(&mut args)?;
    let ping = take_flag(&mut args, "--ping");
    let metrics = take_flag(&mut args, "--metrics");
    let shutdown = take_flag(&mut args, "--shutdown");
    let lib = take_value(&mut args, "--lib")?;
    let algo = take_value(&mut args, "--algo")?.unwrap_or_else(|| "dag".into());
    let recover = take_flag(&mut args, "--recover");
    let repeat: usize = take_value(&mut args, "--repeat")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--repeat needs an integer")?
        .unwrap_or(1)
        .max(1);
    let json = take_flag(&mut args, "--json");
    let out = take_value(&mut args, "--out")?;

    let mut client = dagmap::serve::Client::connect(&endpoint)?;
    if ping {
        reject_leftovers(&args)?;
        client.ping()?;
        println!("pong");
        return Ok(());
    }
    if metrics {
        reject_leftovers(&args)?;
        print!("{}", client.metrics()?);
        return Ok(());
    }
    if shutdown {
        reject_leftovers(&args)?;
        // The acknowledgement is small; print it verbatim.
        println!("{}", client.call_raw("{\"op\":\"shutdown\"}")?);
        return Ok(());
    }
    let input = take_positional(&mut args, "input BLIF file")?;
    reject_leftovers(&args)?;
    // .aag inputs are converted to the BLIF the wire protocol speaks.
    let net = read_network(&input)?;
    let text = blif::to_string(&net)?;
    // With --repeat the requests are pipelined: keep a bounded window in
    // flight so a long run never buffers every reply at once.
    const WINDOW: usize = 16;
    let started = Instant::now();
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut raw_text = String::new();
    while received < repeat {
        while sent < repeat && sent - received < WINDOW {
            let id = format!("cli-{sent}");
            let payload = dagmap::serve::map_request(
                &text,
                &dagmap::serve::MapCall {
                    id: Some(&id),
                    lib: lib.as_deref(),
                    algo: &algo,
                    recover,
                    trace: false,
                    retain: false,
                },
            );
            client.send(&payload)?;
            sent += 1;
        }
        raw_text = client.recv_raw()?;
        received += 1;
        let reply = dagmap::obs::json::parse(&raw_text)
            .map_err(|e| format!("reply is not valid JSON: {e}"))?;
        if let Some(err) = reply.get("error") {
            let kind = err.get("kind").and_then(|k| k.as_str()).unwrap_or("?");
            let msg = err.get("message").and_then(|m| m.as_str()).unwrap_or("?");
            return Err(format!("server replied {kind}: {msg}").into());
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let raw =
        dagmap::obs::json::parse(&raw_text).map_err(|e| format!("reply is not valid JSON: {e}"))?;
    if repeat > 1 {
        println!(
            "{repeat} requests in {elapsed:.3}s ({:.1} req/s)",
            repeat as f64 / elapsed.max(1e-9)
        );
    }
    if json {
        println!("{raw_text}");
    } else {
        let delay = raw
            .get("delay")
            .and_then(|v| v.as_num())
            .unwrap_or(f64::NAN);
        let area = raw.get("area").and_then(|v| v.as_num()).unwrap_or(f64::NAN);
        let cells = raw
            .get("num_cells")
            .and_then(|v| v.as_num())
            .unwrap_or(f64::NAN);
        let served_lib = raw.get("lib").and_then(|v| v.as_str()).unwrap_or("?");
        println!(
            "{input}: mapped against `{served_lib}`: delay {delay:.3}, area {area:.1}, {cells} cells"
        );
    }
    if let Some(path) = &out {
        let served = raw
            .get("blif")
            .and_then(|v| v.as_str())
            .ok_or("reply carries no blif")?;
        fs::write(path, served)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> CmdResult {
    use std::io::{IsTerminal, Write};

    let mut args = args.to_vec();
    let endpoint = client_endpoint(&mut args)?;
    let interval: f64 = take_value(&mut args, "--interval")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--interval needs seconds")?
        .unwrap_or(2.0);
    let once = take_flag(&mut args, "--once");
    reject_leftovers(&args)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err("--interval must be a positive number of seconds".into());
    }

    let mut client = dagmap::serve::Client::connect(&endpoint)?;
    // Clear-and-redraw only when refreshing on a real terminal; piped
    // output (and --once) stays plain text.
    let clear = !once && std::io::stdout().is_terminal();
    let mut prev: Option<(Vec<dagmap::serve::dash::Sample>, Instant)> = None;
    loop {
        let text = client.metrics()?;
        let samples = dagmap::serve::dash::parse_exposition(&text)
            .map_err(|e| format!("bad metrics exposition: {e}"))?;
        let dashboard = dagmap::serve::dash::render_dashboard(
            &samples,
            prev.as_ref()
                .map(|(s, t)| (s.as_slice(), t.elapsed().as_secs_f64())),
        );
        let mut stdout = std::io::stdout().lock();
        if clear {
            stdout.write_all(b"\x1b[2J\x1b[H")?;
        }
        stdout.write_all(dashboard.as_bytes())?;
        stdout.flush()?;
        drop(stdout);
        if once {
            return Ok(());
        }
        prev = Some((samples, Instant::now()));
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

fn cmd_luts(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let k: usize = take_value(&mut args, "-k")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "-k needs an integer")?
        .unwrap_or(6);
    let out = take_value(&mut args, "--out")?;
    let input = take_positional(&mut args, "input BLIF file")?;
    reject_leftovers(&args)?;
    let session = common.begin();
    let result = (|| -> CmdResult {
        let net = read_network(&input)?;
        let subject = SubjectGraph::from_network(&net)?.into_network();
        let labels = dagmap::flowmap::label_network(&subject, k)?;
        let mapping = dagmap::flowmap::map_luts(&subject, &labels)?;
        println!(
            "{}: optimal {k}-LUT depth {}, {} LUTs",
            net.name(),
            mapping.depth(),
            mapping.num_luts()
        );
        if let Some(path) = &out {
            write_network(path, &mapping.to_network(&subject)?)?;
            println!("wrote {path}");
        }
        Ok(())
    })();
    common.end(session)?;
    result
}

fn cmd_retime(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let library = load_library(&mut args)?;
    let tol: f64 = take_value(&mut args, "--tol")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--tol needs a number")?
        .unwrap_or(1e-3);
    let input = take_positional(&mut args, "input BLIF file")?;
    reject_leftovers(&args)?;
    let session = common.begin();
    let result = (|| -> CmdResult {
        let net = read_network(&input)?;
        let subject = SubjectGraph::from_network(&net)?;

        let graph = SeqGraph::from_network(subject.network(), |_| 1.0)?;
        let before = graph.clock_period()?;
        let pure = minimize_period(&graph)?;
        println!(
            "unit-delay subject graph: period {before:.2} as built, {:.2} after retiming",
            pure.period
        );

        let mapped = min_cycle_period(&subject, &library, MatchMode::Standard, tol)?;
        println!(
            "with mapping into `{}`: minimum clock period {:.3}",
            library.name(),
            mapped.period
        );
        Ok(())
    })();
    common.end(session)?;
    result
}

fn cmd_stats(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let wants_library = args.iter().any(|a| a == "--builtin" || a == "--lib");
    let library = if wants_library {
        Some(load_library(&mut args)?)
    } else {
        None
    };
    let input = take_positional(&mut args, "input BLIF file")?;
    reject_leftovers(&args)?;
    let session = common.begin();
    let result = (|| -> CmdResult {
        let net = read_network(&input)?;
        println!(
            "{}: {} inputs, {} outputs, {} latches, {} internal nodes, {} edges",
            net.name(),
            net.inputs().len(),
            net.outputs().len(),
            net.num_latches(),
            net.num_internal(),
            net.num_edges()
        );
        let subject = SubjectGraph::from_network(&net)?;
        println!(
            "subject graph: {} NAND/INV nodes, depth {}, {} multi-fanout points",
            subject.num_gates(),
            subject.depth(),
            subject.num_multi_fanout()
        );
        let strash = subject.strash_stats();
        println!(
            "strash: {} constructions -> {} nodes ({:.2}x dedup, {} hits, {} folded)",
            strash.raw,
            strash.unique,
            strash.raw as f64 / strash.unique.max(1) as f64,
            strash.dedup_hits,
            strash.folded,
        );
        if let Some(library) = library {
            // Full match census under standard semantics: how much pattern
            // matching this subject costs against the library, and how much
            // of it the automaton prunes.
            use dagmap::matching::{MatchStats, Matcher};
            let matcher = Matcher::new(&library);
            let mut scratch = matcher.scratch_for(&subject);
            let mut stats = MatchStats::default();
            for id in subject.network().node_ids() {
                stats.absorb(matcher.for_each_match_at(
                    &subject,
                    id,
                    MatchMode::Standard,
                    &mut scratch,
                    &mut |_| {},
                ));
            }
            println!(
                "matching vs `{}` (standard): {} matches, {} candidates pruned",
                library.name(),
                stats.enumerated,
                stats.pruned
            );
            // One reference mapping run so the per-phase durations the
            // MapReport carries are part of the statistics readout.
            let (_, report) = Mapper::new(&library).map_with_report(&subject, MapOptions::dag())?;
            print_phases(&report);
        }
        Ok(())
    })();
    common.end(session)?;
    result
}

fn cmd_lib(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let per_gate = take_flag(&mut args, "--gates");
    let library = if args.iter().any(|a| a == "--builtin") {
        load_library(&mut args)?
    } else {
        let path = take_positional(&mut args, "genlib file")?;
        let text = fs::read_to_string(&path)?;
        Library::from_genlib_named(&path, &text)?
    };
    reject_leftovers(&args)?;
    println!(
        "library `{}`: {} gates, {} expanded patterns, p = {} pattern nodes, max {} inputs, delay-mappable: {}",
        library.name(),
        library.gates().len(),
        library.patterns().len(),
        library.total_pattern_nodes(),
        library.max_gate_inputs(),
        library.is_delay_mappable()
    );

    // Pattern-graph statistics, so base and supergate-extended libraries can
    // be compared from the CLI.
    let mut input_histogram: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    for gate in library.gates() {
        *input_histogram.entry(gate.num_pins()).or_insert(0) += 1;
    }
    let histogram: Vec<String> = input_histogram
        .iter()
        .map(|(k, n)| format!("{k}-input: {n}"))
        .collect();
    println!("input-count histogram: {}", histogram.join(", "));
    println!(
        "max pattern depth: {} NAND/INV levels",
        library
            .patterns()
            .iter()
            .map(|p| p.depth)
            .max()
            .unwrap_or(0)
    );
    if per_gate {
        println!(
            "{:<16} {:>6} {:>8} {:>9} {:>9} {:>9}",
            "gate", "pins", "patterns", "max depth", "area", "max delay"
        );
        for (i, gate) in library.gates().iter().enumerate() {
            let pats: Vec<_> = library
                .patterns()
                .iter()
                .filter(|p| p.gate.index() == i)
                .collect();
            println!(
                "{:<16} {:>6} {:>8} {:>9} {:>9.1} {:>9.2}",
                gate.name(),
                gate.num_pins(),
                pats.len(),
                pats.iter().map(|p| p.depth).max().unwrap_or(0),
                gate.area(),
                gate.max_delay(),
            );
        }
    }
    Ok(())
}

fn cmd_supergen(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let library = load_library(&mut args)?;
    let mut opts = SupergateOptions::default();
    if let Some(d) = take_value(&mut args, "--depth")? {
        opts.max_depth = d.parse().map_err(|_| "--depth needs an integer")?;
    }
    if let Some(n) = take_value(&mut args, "--max-inputs")? {
        opts.max_inputs = n.parse().map_err(|_| "--max-inputs needs an integer")?;
    }
    if let Some(c) = take_value(&mut args, "--max-count")? {
        opts.max_count = c.parse().map_err(|_| "--max-count needs an integer")?;
    }
    if let Some(p) = take_value(&mut args, "--max-pool")? {
        opts.max_pool = p.parse().map_err(|_| "--max-pool needs an integer")?;
    }
    if let Some(t) = take_value(&mut args, "--threads")? {
        let n = t.parse::<usize>().ok().filter(|&n| n >= 1);
        opts.num_threads = Some(n.ok_or("--threads needs a positive integer")?);
    }
    let out = take_value(&mut args, "--out")?;
    reject_leftovers(&args)?;

    let session = common.begin();
    let result = (|| -> CmdResult {
        let ext = extend_library(&library, &opts)?;
        let r = &ext.report;
        println!(
            "supergen `{}` -> `{}`: {} base gates + {} supergates ({} candidates over {} rounds, pool {}, {} threads)",
            library.name(),
            ext.library.name(),
            r.base_gates,
            r.supergates,
            r.candidates,
            r.rounds,
            r.pool_size,
            r.threads,
        );
        println!(
            "extended: {} patterns, p = {} pattern nodes, max {} inputs",
            ext.library.patterns().len(),
            ext.library.total_pattern_nodes(),
            ext.library.max_gate_inputs(),
        );
        for sg in &r.gates {
            println!(
                "  {:<6} {} inputs, depth {}, area {:.0}, delay {:.2}: {}",
                sg.name, sg.inputs, sg.depth, sg.area, sg.max_delay, sg.expr
            );
        }
        if let Some(path) = &out {
            fs::write(path, ext.library.to_genlib_string())?;
            println!("wrote {path}");
        }
        Ok(())
    })();
    common.end(session)?;
    result
}

fn cmd_fuzz(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let mut opts = dagmap::fuzz::FuzzOptions::default();
    if let Some(s) = take_value(&mut args, "--seed")? {
        opts.seed = s.parse().map_err(|_| "--seed needs an integer")?;
    }
    if let Some(c) = take_value(&mut args, "--cases")? {
        opts.cases = c.parse().map_err(|_| "--cases needs an integer")?;
    }
    if let Some(g) = take_value(&mut args, "--max-gates")? {
        opts.max_gates = g.parse().map_err(|_| "--max-gates needs an integer")?;
    }
    opts.supergates = !take_flag(&mut args, "--no-supergates");
    opts.check_retime = !take_flag(&mut args, "--no-retime");
    opts.shrink = !take_flag(&mut args, "--no-shrink");
    let corpus = take_value(&mut args, "--corpus")?.unwrap_or_else(|| "tests/corpus".into());
    opts.corpus_dir = Some(corpus.into());
    reject_leftovers(&args)?;

    let session = common.begin();
    let result = (|| -> CmdResult {
        let report = dagmap::fuzz::run(&opts).map_err(|e| e as Box<dyn Error>)?;
        let libs =
            dagmap::fuzz::libraries_under_test(opts.supergates).map_err(|e| e as Box<dyn Error>)?;
        println!(
            "fuzz: seed {}, {} cases x {} libraries, {} mapper runs, {} failure(s)",
            opts.seed,
            report.cases,
            report.libraries,
            report.maps,
            report.failures.len(),
        );
        for f in &report.failures {
            let lib_name = libs
                .get(f.violation.library)
                .map_or("?", |l| l.name.as_str());
            println!(
                "  case {} (seed {:#x}, {}): {:?} violated on `{}` under {}",
                f.case, f.case_seed, f.generator, f.violation.kind, lib_name, f.violation.config,
            );
            println!("    {}", f.violation.detail);
            println!(
                "    shrunk {} -> {} nodes{}",
                f.original_nodes,
                f.minimized_nodes,
                f.repro_path
                    .as_deref()
                    .map(|p| format!(", repro at {}", p.display()))
                    .unwrap_or_default(),
            );
        }
        if report.failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} invariant violation(s); minimized repros in the corpus",
                report.failures.len()
            )
            .into())
        }
    })();
    common.end(session)?;
    result
}

fn cmd_profile(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let common = CliCommon::parse(&mut args)?;
    let library = load_library(&mut args)?;
    let runs: usize = take_value(&mut args, "--runs")?
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--runs needs an integer")?
        .unwrap_or(5)
        .max(1);
    let input = take_positional(&mut args, "input BLIF file")?;
    reject_leftovers(&args)?;

    // Each repetition runs under its own obs session (including BLIF parse
    // and decomposition), and the traces are folded into one aggregate.
    let mut accum = dagmap::obs::report::ProfileAccum::new();
    let mut last_trace = None;
    let text = fs::read_to_string(&input)?;
    for _ in 0..runs {
        let session = dagmap::obs::start();
        let run = (|| -> CmdResult {
            let net = if input.ends_with(".aag") {
                dagmap::netlist::aiger::parse_ascii(&text)?
            } else {
                blif::parse(&text)?
            };
            let subject = SubjectGraph::from_network(&net)?;
            let _ = Mapper::new(&library).map_with_report(&subject, MapOptions::dag())?;
            Ok(())
        })();
        let trace = session.finish();
        run?;
        accum.add(&trace);
        last_trace = Some(trace);
    }
    print!("{}", accum.render());
    if let Some(path) = &common.trace {
        if let Some(trace) = &last_trace {
            fs::write(path, trace.to_chrome_json())?;
            eprintln!("trace: wrote {path} (last run)");
        }
    }
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let input = take_positional(&mut args, "trace JSON file")?;
    reject_leftovers(&args)?;
    let text = fs::read_to_string(&input)?;
    let summary = dagmap::obs::trace::validate_chrome(&text)
        .map_err(|e| format!("{input}: invalid trace: {e}"))?;
    println!(
        "{input}: valid Chrome trace ({} events: {} spans across {} tracks and {} names, {} counters)",
        summary.events, summary.spans, summary.tracks, summary.names, summary.counters
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> CmdResult {
    let mut args = args.to_vec();
    let out = take_value(&mut args, "--out")?;
    let name = take_positional(&mut args, "benchmark name")?;
    reject_leftovers(&args)?;
    let net = generate(&name)?;
    match out {
        Some(path) => {
            write_network(&path, &net)?;
            println!("wrote {path}");
        }
        None => print!("{}", blif::to_string(&net)?),
    }
    Ok(())
}

fn generate(name: &str) -> Result<Network, Box<dyn Error>> {
    let parse_width =
        |prefix: &str| -> Option<usize> { name.strip_prefix(prefix).and_then(|w| w.parse().ok()) };
    Ok(match name {
        "c2670" => dagmap::benchgen::c2670_like(),
        "c3540" => dagmap::benchgen::c3540_like(),
        "c5315" => dagmap::benchgen::c5315_like(),
        "c6288" => dagmap::benchgen::c6288_like(),
        "c7552" => dagmap::benchgen::c7552_like(),
        _ => {
            if let Some(w) = parse_width("add") {
                dagmap::benchgen::ripple_adder(w)
            } else if let Some(w) = parse_width("mul") {
                dagmap::benchgen::array_multiplier(w)
            } else if let Some(w) = parse_width("alu") {
                dagmap::benchgen::alu(w)
            } else if let Some(w) = parse_width("cmp") {
                dagmap::benchgen::comparator(w)
            } else if let Some(w) = parse_width("acc") {
                dagmap::benchgen::accumulator(w)
            } else {
                return Err(format!(
                    "unknown benchmark `{name}` (try c6288, add32, mul8, alu8, cmp16, acc8)"
                )
                .into());
            }
        }
    })
}
