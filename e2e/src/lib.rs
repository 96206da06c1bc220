//! `e2e`: the end-to-end benchmark of the dagmap mapper.
//!
//! Every op goes from BLIF text handed over to BLIF text received. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) of the same workload and seed runs the same ops untraced
//! and then traced, timing each call into a layer's public function from
//! this crate, and reports per-layer self time, shares, counters, the
//! unattributed remainder and the tracing overhead. Every op's output is
//! checked outside the timed region. See `README.md` for the workloads and
//! metric tables.

pub mod check;
pub mod compare;
pub mod oneshot;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use std::time::Duration;

use report::RunResult;
use trace::{Layer, Ledger};
use workload::Workload;

/// How one run is asked to behave.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One small design per workload and one pass or round (the
    /// test-suite size).
    pub smoke: bool,
}

impl RunOptions {
    /// How long the load runs. A traced run first repeats the untraced
    /// load on part of the budget, then replays exactly those ops traced;
    /// the daemon's in-process replays run on one thread, so it keeps a
    /// smaller share.
    pub fn load_budget(&self) -> Duration {
        let share = match (self.trace, self.workload) {
            (false, _) => 1.0,
            (true, Workload::ServeMixed) => 1.0 / 3.0,
            (true, _) => 0.5,
        };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Client-side numbers of the daemon workload (zero elsewhere).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Client latency percentiles of first-seen maps.
    pub first_p50_ms: f64,
    /// See [`ServeStats::first_p50_ms`].
    pub first_p95_ms: f64,
    /// Client latency percentiles of warm maps of the hot set.
    pub repeat_p50_ms: f64,
    /// See [`ServeStats::repeat_p50_ms`].
    pub repeat_p95_ms: f64,
    /// Client latency percentiles of remaps.
    pub remap_p50_ms: f64,
    /// See [`ServeStats::remap_p50_ms`].
    pub remap_p95_ms: f64,
    /// Mean time to build a request payload (`map_request`).
    pub encode_us: f64,
    /// Mean time to parse a reply (`obs::json::parse` of `recv_raw`).
    pub decode_us: f64,
    /// Mean client latency minus mean traced in-process service time.
    pub overhead_ms_per_op: f64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Clone)]
pub struct LayerReport<'a> {
    /// The traced phase.
    pub ledger: &'a Ledger,
    /// Time the same ops took untraced.
    pub untraced_s: f64,
    /// Shared-store evictions (serve replay only).
    pub evictions: u64,
    /// Shared-store resident classes (serve replay only).
    pub resident_classes: usize,
    /// Client-side serve numbers.
    pub serve: ServeStats,
}

impl<'a> LayerReport<'a> {
    /// A report over `ledger`, whose ops took `untraced_s` untraced.
    pub fn new(ledger: &'a Ledger, untraced_s: f64) -> LayerReport<'a> {
        LayerReport {
            ledger,
            untraced_s,
            evictions: 0,
            resident_classes: 0,
            serve: ServeStats::default(),
        }
    }
}

/// Set-up repetitions timed before each round: a few per round keep the
/// median steady on workloads with few rounds.
pub const SETUP_REPS_PER_ROUND: usize = 3;

/// One timed set-up repetition.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// The whole set-up, in seconds.
    pub seconds: f64,
    /// Of which building the libraries.
    pub genlib_seconds: f64,
}

/// One round of load. Every round of a workload does the same mix of work.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Latency of each op of the round, in ms.
    pub latencies_ms: Vec<f64>,
    /// Subject-graph nodes the round's ops mapped.
    pub nodes: usize,
    /// Duration of the round in seconds.
    pub seconds: f64,
    /// Process CPU seconds spent during the round.
    pub cpu_seconds: f64,
    /// Set-up repetitions timed just before the round.
    pub setups: Vec<Setup>,
}

/// Pushes the timing end-to-end metrics over `rounds`: set-up time (the
/// median of the repetitions timed before each round, which spread the
/// set-up samples over the whole run), latency percentiles, throughput and
/// CPU.
pub fn push_round_metrics(result: &mut RunResult, rounds: &[Round]) {
    let setups: Vec<f64> = setups(rounds).map(|s| s.seconds).collect();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let seconds: f64 = rounds.iter().map(|r| r.seconds).sum();
    let cpu: f64 = rounds.iter().map(|r| r.cpu_seconds).sum();
    let nodes: usize = rounds.iter().map(|r| r.nodes).sum();
    let ops = latencies.len() as f64;
    result.push("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    for (name, p) in [
        ("latency_p50_ms", 50.0),
        ("latency_p95_ms", 95.0),
        ("latency_p99_ms", 99.0),
    ] {
        let value = stats::percentile(&latencies, p).map_or(0.0, |(v, _)| v);
        result.push(name, value, "ms");
    }
    result.push("throughput_ops_per_s", ratio(ops, seconds), "ops/s");
    result.push(
        "throughput_knodes_per_s",
        ratio(nodes as f64 / 1e3, seconds),
        "knodes/s",
    );
    result.push("cpu_ms_per_op", ratio(cpu * 1e3, ops), "ms");
}

fn setups(rounds: &[Round]) -> impl Iterator<Item = &Setup> {
    rounds.iter().flat_map(|r| &r.setups)
}

/// The `genlib.build` per-layer metrics: the median library build time of
/// the set-up repetitions, and its share of the median set-up.
pub fn push_setup_layer_metrics(result: &mut RunResult, rounds: &[Round]) {
    let median = |f: fn(&Setup) -> f64| {
        stats::median(&setups(rounds).map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let (genlib, setup) = (median(|s| s.genlib_seconds), median(|s| s.seconds));
    result.push("genlib.build.ms_per_op", genlib * 1e3, "ms");
    result.push("genlib.build.share", ratio(genlib, setup), "share");
}

/// `a / b`, or 0 when nothing was measured (a layer a workload bypasses).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Pushes every per-layer metric. Each layer's `ms_per_op` and `share`
/// come first; the layer shares plus `unattributed.share` sum to 1.
pub fn push_layer_metrics(result: &mut RunResult, r: &LayerReport<'_>) {
    let l = r.ledger;
    let c = &l.counters;
    let ops = l.ops as f64;
    for layer in Layer::ALL {
        let s = l.seconds(layer);
        result.push(
            format!("{}.ms_per_op", layer.name()),
            ratio(s * 1e3, ops),
            "ms",
        );
        result.push(format!("{}.share", layer.name()), ratio(s, l.op_s), "share");
    }
    let secs = |layer| l.seconds(layer);
    result.push(
        "netlist.parse.mb_per_s",
        ratio(c.bytes_parsed as f64 / 1e6, secs(Layer::Parse)),
        "MB/s",
    );
    result.push(
        "netlist.decompose.ns_per_node",
        ratio(secs(Layer::Decompose) * 1e9, c.nodes as f64),
        "ns/node",
    );
    result.push(
        "netlist.decompose.strash_dedup_ratio",
        ratio(c.strash_raw as f64, c.strash_unique as f64),
        "ratio",
    );
    result.push(
        "core.label.ns_per_node",
        ratio(secs(Layer::Label) * 1e9, c.label_nodes as f64),
        "ns/node",
    );
    result.push(
        "core.label.matches_per_node",
        ratio(c.label_matches as f64, c.label_nodes as f64),
        "matches/node",
    );
    result.push(
        "core.label.pruned_per_node",
        ratio(c.label_pruned as f64, c.label_nodes as f64),
        "prunes/node",
    );
    result.push("core.label.threads_used", c.threads_used as f64, "threads");
    result.push(
        "matching.memo.lookups_per_op",
        ratio(c.memo_lookups as f64, ops),
        "lookups/op",
    );
    result.push(
        "matching.memo.hit_ratio",
        ratio(c.memo_hits as f64, c.memo_lookups as f64),
        "ratio",
    );
    result.push(
        "matching.memo.id_hit_ratio",
        ratio(c.memo_id_hits as f64, c.memo_lookups as f64),
        "ratio",
    );
    result.push("matching.memo.evictions", r.evictions as f64, "count");
    result.push(
        "matching.memo.resident_classes",
        r.resident_classes as f64,
        "count",
    );
    result.push(
        "core.verify.ns_per_node",
        ratio(secs(Layer::Verify) * 1e9, c.nodes as f64),
        "ns/node",
    );
    result.push(
        "netlist.writeback.mb_per_s",
        ratio(c.bytes_written as f64 / 1e6, secs(Layer::Writeback)),
        "MB/s",
    );
    result.push(
        "boolmatch.label.matches_per_node",
        ratio(c.bool_matches as f64, c.bool_nodes as f64),
        "matches/node",
    );
    result.push(
        "core.incremental.labels_reused_share",
        ratio(c.reused as f64, (c.reused + c.relabeled) as f64),
        "share",
    );
    let s = &r.serve;
    for (name, value) in [
        ("serve.first.p50_ms", s.first_p50_ms),
        ("serve.first.p95_ms", s.first_p95_ms),
        ("serve.repeat.p50_ms", s.repeat_p50_ms),
        ("serve.repeat.p95_ms", s.repeat_p95_ms),
        ("serve.remap.p50_ms", s.remap_p50_ms),
        ("serve.remap.p95_ms", s.remap_p95_ms),
        ("serve.overhead_ms_per_op", s.overhead_ms_per_op),
    ] {
        result.push(name, value, "ms");
    }
    result.push("serve.codec.encode_us", s.encode_us, "us");
    result.push("serve.codec.decode_us", s.decode_us, "us");
    result.push(
        "unattributed.share",
        ratio(l.unattributed_s(), l.op_s),
        "share",
    );
    result.push(
        "trace.overhead_pct",
        100.0 * (ratio(l.op_s, r.untraced_s) - 1.0),
        "%",
    );
}

/// Runs one workload and returns its checked result.
pub fn run_workload(opts: &RunOptions) -> RunResult {
    let mut result = RunResult::default();
    match workload::oneshot_jobs(opts.workload, opts.smoke) {
        Some(jobs) => oneshot::run(opts, &jobs, &mut result),
        None => serve::run(opts, &mut result),
    }
    if !opts.trace {
        result.push("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
    }
    result
}
