//! Observability overhead micro-benchmark.
//!
//! Times the full mapping pipeline (decompose + label + cover) with the obs
//! layer disabled (no session — every instrumentation site is one predicted
//! branch) and enabled (a session recording spans, counters and histograms),
//! checks the mapped results are bit-identical either way, measures the cost
//! of a single *disabled* span call, and writes everything to
//! `BENCH_obs.json` (hand-rolled JSON — the workspace is dependency-free).
//!
//! Usage: `obsperf [--quick] [--out PATH]`
//!
//! `--quick` shrinks the circuit set and repetition count (the tier-1 smoke
//! run). The headline number is `overhead_pct`: how much slower a mapping
//! run gets when a trace session is active. The disabled state is the
//! default everywhere, so `disabled_span_ns` is the price every pipeline
//! call pays when nobody is observing.

use std::fmt::Write as _;
use std::time::Instant;

use dagmap_bench::harness::{best_of, mapped_blif};
use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::SubjectGraph;

struct CircuitResult {
    name: String,
    subject_nodes: usize,
    disabled_s: f64,
    enabled_s: f64,
    trace_spans: usize,
    identical: bool,
}

/// One full pipeline run; returns (elapsed seconds, delay bits, mapped BLIF).
fn run_pipeline(net: &dagmap_netlist::Network, lib: &Library) -> (f64, u64, String) {
    let t = Instant::now();
    let subject = SubjectGraph::from_network(net).expect("benchgen circuits decompose");
    let mapped = Mapper::new(lib)
        .map(&subject, MapOptions::dag())
        .expect("maps");
    let elapsed = t.elapsed().as_secs_f64();
    (elapsed, mapped.delay().to_bits(), mapped_blif(&mapped))
}

/// Cost of one span call with no session active: a relaxed atomic load and
/// a branch. Measured over enough iterations to resolve sub-nanosecond
/// costs through timer noise.
fn disabled_span_ns(iters: u64) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        let span = dagmap_obs::span("obsperf.disabled");
        std::hint::black_box(&span);
        drop(span);
        std::hint::black_box(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Cost of one live-metrics counter increment: a relaxed atomic add.
fn counter_inc_ns(iters: u64) -> f64 {
    let registry = dagmap_obs::metrics::MetricsRegistry::new();
    let counter = registry.counter("obsperf_counter_total");
    let t = Instant::now();
    for i in 0..iters {
        counter.inc(1);
        std::hint::black_box(i);
    }
    let elapsed = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    std::hint::black_box(counter.get());
    elapsed
}

/// Cost of recording one sample into a rolling-window log2 histogram —
/// the hot path behind every served request's latency quantiles: a clock
/// read, an epoch check and two relaxed atomic adds.
fn hist_record_ns(iters: u64) -> f64 {
    let registry = dagmap_obs::metrics::MetricsRegistry::new();
    let hist = registry.histogram("obsperf_latency_us", 12, 5_000_000_000);
    let t = Instant::now();
    for i in 0..iters {
        hist.observe(i & 0xffff);
        std::hint::black_box(i);
    }
    let elapsed = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    std::hint::black_box(hist.snapshot().count());
    elapsed
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_obs.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let reps = if quick { 3 } else { 7 };
    let span_iters: u64 = if quick { 5_000_000 } else { 50_000_000 };

    let circuits: Vec<(String, dagmap_netlist::Network)> = if quick {
        vec![
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("mult8".into(), dagmap_benchgen::array_multiplier(8)),
        ]
    } else {
        vec![
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("c2670_like".into(), dagmap_benchgen::c2670_like()),
            ("c3540_like".into(), dagmap_benchgen::c3540_like()),
            ("mult12".into(), dagmap_benchgen::array_multiplier(12)),
            ("c6288_like".into(), dagmap_benchgen::c6288_like()),
        ]
    };
    let lib = Library::lib2_like();

    let span_ns = disabled_span_ns(span_iters);
    let metrics_iters = span_iters / 5;
    let counter_ns = counter_inc_ns(metrics_iters);
    let hist_ns = hist_record_ns(metrics_iters);
    println!(
        "obsperf: disabled span call costs {span_ns:.2} ns ({span_iters} iters); \
         metrics counter inc {counter_ns:.2} ns, rolling-histogram record {hist_ns:.2} ns \
         ({metrics_iters} iters); timing mapping with tracing off vs on ({reps} reps)"
    );

    let mut results = Vec::new();
    for (name, net) in circuits {
        // Reference run, no session: this is the product configuration.
        let (_, base_delay, base_blif) = run_pipeline(&net, &lib);
        let disabled_s = best_of(reps, || run_pipeline(&net, &lib).0);

        // Traced runs: each repetition records into its own session so the
        // measured cost includes buffer stitching and trace assembly.
        let mut trace_spans = 0usize;
        let mut identical = true;
        let enabled_s = best_of(reps, || {
            let session = dagmap_obs::start();
            let (elapsed, delay, blif) = run_pipeline(&net, &lib);
            let trace = session.finish();
            trace_spans = trace.spans.len();
            identical &= delay == base_delay && blif == base_blif;
            elapsed
        });

        let nodes = SubjectGraph::from_network(&net)
            .expect("decomposes")
            .network()
            .num_nodes();
        println!(
            "  {name:12} {nodes:>6} nodes: disabled {:>8.2} ms, enabled {:>8.2} ms \
             ({:>5} spans), overhead {:+.2}%, identical={identical}",
            disabled_s * 1e3,
            enabled_s * 1e3,
            trace_spans,
            100.0 * (enabled_s / disabled_s - 1.0),
        );
        results.push(CircuitResult {
            name,
            subject_nodes: nodes,
            disabled_s,
            enabled_s,
            trace_spans,
            identical,
        });
    }

    let all_identical = results.iter().all(|r| r.identical);
    let total_disabled: f64 = results.iter().map(|r| r.disabled_s).sum();
    let total_enabled: f64 = results.iter().map(|r| r.enabled_s).sum();
    let overhead_pct = 100.0 * (total_enabled / total_disabled - 1.0);
    println!(
        "overall: disabled {:.2} ms, enabled {:.2} ms, overhead {overhead_pct:+.2}%",
        total_disabled * 1e3,
        total_enabled * 1e3
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"obsperf\",");
    let _ = writeln!(json, "  \"library\": \"{}\",", lib.name());
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"disabled_span_ns\": {span_ns:.4},");
    let _ = writeln!(json, "  \"disabled_span_iters\": {span_iters},");
    let _ = writeln!(json, "  \"metrics_counter_inc_ns\": {counter_ns:.4},");
    let _ = writeln!(json, "  \"metrics_hist_record_ns\": {hist_ns:.4},");
    let _ = writeln!(json, "  \"metrics_iters\": {metrics_iters},");
    let _ = writeln!(json, "  \"all_identical\": {all_identical},");
    let _ = writeln!(json, "  \"total_disabled_s\": {total_disabled:.6},");
    let _ = writeln!(json, "  \"total_enabled_s\": {total_enabled:.6},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    json.push_str("  \"circuits\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"subject_nodes\": {}, \"disabled_s\": {:.6}, \
             \"enabled_s\": {:.6}, \"overhead_pct\": {:.3}, \"trace_spans\": {}, \
             \"identical\": {}}}{sep}",
            r.name,
            r.subject_nodes,
            r.disabled_s,
            r.enabled_s,
            100.0 * (r.enabled_s / r.disabled_s - 1.0),
            r.trace_spans,
            r.identical,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_obs.json");
    println!("wrote {out}");
    assert!(all_identical, "tracing changed the mapped result");
}
