//! The one-shot workloads: BLIF text in → `blif::parse` →
//! `SubjectGraph::from_network` → map → `verify::check` → BLIF text out,
//! driven from one thread, one op at a time.

use std::time::{Duration, Instant};

use dagmap_boolmatch::{BoolSource, HybridSource, LibraryIndex};
use dagmap_core::{
    label_with_config, label_with_source, verify, Labels, MapOptions, MappedNetlist, Mapper,
    MatchSource, Objective,
};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, SubjectGraph};
use dagmap_rng::StdRng;

use crate::check::{Checker, OpOutput, Reference};
use crate::report::RunResult;
use crate::trace::{Layer, Ledger};
use crate::workload::{Engine, Job, BOOL_K};
use crate::{stats, LayerReport, Round, RunOptions, Setup, SETUP_REPS_PER_ROUND};

/// Seed of the mapper's own `verify::check` (the one `dagmap map` and the
/// daemon use).
pub const VERIFY_SEED: u64 = 0xC11;

/// What an untraced op reports besides its output.
pub struct OpInfo {
    /// Subject-graph nodes of the input.
    pub nodes: usize,
    /// Labeling threads the op used.
    pub threads: usize,
}

fn options(engine: Engine) -> MapOptions {
    match engine {
        Engine::DagRecover => MapOptions::dag().with_area_recovery(),
        Engine::Dag | Engine::Boolean | Engine::Hybrid => MapOptions::dag(),
    }
}

/// `MappedNetlist::to_network` + `blif::to_string`.
pub(crate) fn writeback(mapped: &MappedNetlist) -> Result<OpOutput, String> {
    let net = mapped.to_network().map_err(|e| format!("writeback: {e}"))?;
    let text = blif::to_string(&net).map_err(|e| format!("writeback: {e}"))?;
    Ok(OpOutput {
        blif: text,
        delay: mapped.delay(),
        area: mapped.area(),
    })
}

/// One op through the entry points a user calls (`Mapper::map_with_report`,
/// `map_boolean_with_options`, `map_hybrid_with_options`).
///
/// # Errors
///
/// Any error along the pipeline, as text.
pub fn run_op(text: &str, engine: Engine, lib: &Library) -> Result<(OpOutput, OpInfo), String> {
    let net = blif::parse(text).map_err(|e| format!("parse: {e}"))?;
    let subject = SubjectGraph::from_network(&net).map_err(|e| format!("decompose: {e}"))?;
    let opts = options(engine);
    let (mapped, report) = match engine {
        Engine::Dag | Engine::DagRecover => Mapper::new(lib).map_with_report(&subject, opts),
        Engine::Boolean => dagmap_boolmatch::map_boolean_with_options(&subject, lib, BOOL_K, opts)
            .map(|(m, r, _)| (m, r)),
        Engine::Hybrid => dagmap_boolmatch::map_hybrid_with_options(&subject, lib, BOOL_K, opts)
            .map(|(m, r, _)| (m, r)),
    }
    .map_err(|e| format!("map: {e}"))?;
    verify::check(&mapped, &subject, VERIFY_SEED).map_err(|e| format!("verify: {e}"))?;
    let out = writeback(&mapped)?;
    Ok((
        out,
        OpInfo {
            nodes: subject.network().num_nodes(),
            threads: report.label_threads,
        },
    ))
}

/// Parse and decompose, timed; the parsed network is dropped inside the
/// decompose call, its last user.
pub(crate) fn traced_head(text: &str, ledger: &mut Ledger) -> Result<SubjectGraph, String> {
    let net = ledger
        .time(Layer::Parse, || blif::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    ledger.counters.bytes_parsed += text.len();
    let subject = ledger
        .time(Layer::Decompose, || {
            let subject = SubjectGraph::from_network(&net);
            drop(net);
            subject
        })
        .map_err(|e| format!("decompose: {e}"))?;
    let strash = subject.strash_stats();
    ledger.counters.nodes += subject.network().num_nodes();
    ledger.counters.strash_raw += strash.raw;
    ledger.counters.strash_unique += strash.unique;
    Ok(subject)
}

/// Verify and write back, timed; each call drops what it used last.
pub(crate) fn traced_tail(
    mapped: MappedNetlist,
    subject: SubjectGraph,
    ledger: &mut Ledger,
) -> Result<OpOutput, String> {
    ledger
        .time(Layer::Verify, || {
            let checked = verify::check(&mapped, &subject, VERIFY_SEED);
            drop(subject);
            checked
        })
        .map_err(|e| format!("verify: {e}"))?;
    let out = ledger.time(Layer::Writeback, || {
        let out = writeback(&mapped);
        drop(mapped);
        out
    })?;
    ledger.counters.bytes_written += out.blif.len();
    Ok(out)
}

/// `Mapper::realize` over the labels' best matches, charged to
/// [`Layer::Cover`]; the labels are dropped inside the timed call.
pub(crate) fn cover(
    mapper: &Mapper<'_>,
    subject: &SubjectGraph,
    labels: Labels,
    ledger: &mut Ledger,
) -> Result<MappedNetlist, String> {
    ledger
        .time(Layer::Cover, || {
            let mapped = mapper.realize(subject, &labels.best);
            drop(labels);
            mapped
        })
        .map_err(|e| format!("cover: {e}"))
}

/// Boolean / hybrid labeling through `source`, charged to
/// [`Layer::BoolLabel`]; the source is dropped inside the timed call.
fn bool_label<S: MatchSource>(
    subject: &SubjectGraph,
    source: S,
    ledger: &mut Ledger,
) -> Result<Labels, String> {
    let labels = ledger
        .time(Layer::BoolLabel, || {
            let labels = label_with_source(subject, &source, Objective::Delay, None);
            drop(source);
            labels
        })
        .map_err(|e| format!("map: {e}"))?;
    let c = &mut ledger.counters;
    c.bool_nodes += subject.network().num_nodes();
    c.bool_matches += labels.matches_enumerated;
    c.threads_used = c.threads_used.max(labels.threads_used);
    Ok(labels)
}

/// Splits a source's construction time into the library index (as probed)
/// and the rest.
fn charge_prepare(ledger: &mut Ledger, built: Duration, index_probe: Duration) {
    let index = index_probe.min(built);
    ledger.add(Layer::BoolIndex, index.as_secs_f64());
    ledger.add(Layer::BoolPrepare, (built - index).as_secs_f64());
}

/// The same op as [`run_op`], split into the public calls behind those
/// entry points, each timed into `ledger`. The output is byte-identical.
///
/// # Errors
///
/// As for [`run_op`].
pub fn run_op_traced(job: &Job, lib: &Library, ledger: &mut Ledger) -> Result<OpOutput, String> {
    // `BoolSource::new` builds a `LibraryIndex` internally. Its share is
    // estimated by an identical standalone build made before the op clock
    // starts, and subtracted from the source's construction time.
    let index_probe = match job.engine {
        Engine::Boolean | Engine::Hybrid => {
            let t = Instant::now();
            std::hint::black_box(LibraryIndex::build(lib, BOOL_K));
            t.elapsed()
        }
        Engine::Dag | Engine::DagRecover => Duration::ZERO,
    };
    let t0 = Instant::now();
    let result = traced_pipeline(job, lib, ledger, index_probe);
    ledger.op_s += t0.elapsed().as_secs_f64();
    ledger.ops += 1;
    result
}

fn traced_pipeline(
    job: &Job,
    lib: &Library,
    ledger: &mut Ledger,
    index_probe: Duration,
) -> Result<OpOutput, String> {
    let subject = traced_head(&job.blif, ledger)?;
    let nodes = subject.network().num_nodes();
    let opts = options(job.engine);
    let mapper = Mapper::new(lib);
    let mapped = match job.engine {
        Engine::Dag => {
            let labels = ledger
                .time(Layer::Label, || {
                    label_with_config(
                        &subject,
                        lib,
                        opts.match_mode,
                        opts.objective,
                        opts.num_threads,
                        opts.match_config(),
                    )
                })
                .map_err(|e| format!("map: {e}"))?;
            ledger.counters.add_labels(nodes, &labels);
            cover(&mapper, &subject, labels, ledger)?
        }
        Engine::DagRecover => {
            // Area recovery has no public entry point of its own: it is the
            // recovering `map_with_report` call minus the label and cover
            // time that call reports.
            let t = Instant::now();
            let (mapped, report) = mapper
                .map_with_report(&subject, opts)
                .map_err(|e| format!("map: {e}"))?;
            let total = t.elapsed().as_secs_f64();
            ledger.add(Layer::Label, report.label_seconds);
            ledger.add(Layer::Cover, report.cover_seconds);
            ledger.add(
                Layer::AreaRecovery,
                total - report.label_seconds - report.cover_seconds,
            );
            ledger.counters.add_report(nodes, &report);
            mapped
        }
        Engine::Boolean | Engine::Hybrid => {
            let t = Instant::now();
            let labels = if job.engine == Engine::Boolean {
                let source = BoolSource::new(&subject, lib, BOOL_K);
                charge_prepare(ledger, t.elapsed(), index_probe);
                bool_label(&subject, source, ledger)?
            } else {
                let source = HybridSource::new(&subject, lib, BOOL_K);
                charge_prepare(ledger, t.elapsed(), index_probe);
                bool_label(&subject, source, ledger)?
            };
            cover(&mapper, &subject, labels, ledger)?
        }
    };
    traced_tail(mapped, subject, ledger)
}

/// The job order of pass `pass`: a seeded shuffle.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

/// Runs a one-shot workload over `jobs`: an untimed warm-up pass whose
/// validated outputs become each job's reference, then timed passes until
/// the load budget is spent (and, when tracing, the same passes again
/// through the traced pipeline). Each pass first times the set-up — the
/// workload's libraries built afresh — outside the ops' clocks.
pub fn run(opts: &RunOptions, jobs: &[Job], result: &mut RunResult) {
    let workload = opts.workload;
    let budget = opts.load_budget().as_secs_f64();
    let libs = workload.libraries();
    let mut refs: Vec<Option<Reference>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let made = run_op(&job.blif, job.engine, &libs[job.lib])
            .and_then(|(out, info)| Reference::validate(&job.input, &out, info.nodes))
            .map_err(|e| format!("{}: {e}", job.name));
        refs.push(made.as_ref().ok().cloned());
        result.record(made.map(|_| ()));
    }
    let mut checker = Checker::new();
    let mut check = |i: usize, out: Result<OpOutput, String>| {
        let job = &jobs[i];
        let verdict = match (&refs[i], out) {
            (Some(reference), Ok(out)) => checker.check(reference, &job.input, &out),
            (None, _) => Err("job has no valid reference".into()),
            (_, Err(e)) => Err(e),
        };
        verdict.map_err(|e| format!("{}: {e}", job.name))
    };

    let mut rounds: Vec<Round> = Vec::new();
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let started = Instant::now();
    // A pass is only started when it is expected to end closer to the
    // budget than stopping now would (passes of the large workload take
    // seconds each).
    let more = |rounds: &[Round]| match rounds.last() {
        None => true,
        Some(last) => !opts.smoke && started.elapsed().as_secs_f64() + last.seconds / 2.0 < budget,
    };
    while more(&rounds) {
        let mut round = Round::default();
        for _ in 0..SETUP_REPS_PER_ROUND {
            let t = Instant::now();
            std::hint::black_box(workload.libraries());
            let seconds = t.elapsed().as_secs_f64();
            round.setups.push(Setup {
                seconds,
                genlib_seconds: seconds,
            });
        }
        let cpu0 = stats::process_cpu_seconds();
        for i in pass_order(jobs.len(), opts.seed, rounds.len()) {
            let t = Instant::now();
            let out = run_op(&jobs[i].blif, jobs[i].engine, &libs[jobs[i].lib]);
            let seconds = t.elapsed().as_secs_f64();
            round.seconds += seconds;
            round.latencies_ms.push(seconds * 1e3);
            per_job[i].push(seconds * 1e3);
            round.nodes += refs[i].as_ref().map_or(0, |r| r.nodes);
            if let Ok((_, info)) = &out {
                result.threads_used = result.threads_used.max(info.threads);
            }
            result.record(check(i, out.map(|(o, _)| o)));
        }
        // Checking sits between ops, outside their clocks, but inside the
        // CPU window; it is a digest comparison unless an output differs.
        round.cpu_seconds = match (cpu0, stats::process_cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => round.seconds,
        };
        rounds.push(round);
    }

    if !opts.trace {
        for (job, ms) in jobs.iter().zip(&per_job) {
            let median = stats::median(ms).unwrap_or(0.0);
            eprintln!(
                "  {:32} {:4} ops  median {median:10.3} ms",
                job.name,
                ms.len()
            );
        }
        crate::push_round_metrics(result, &rounds);
        let delays: Vec<f64> = refs.iter().flatten().map(|r| r.delay).collect();
        let areas: Vec<f64> = refs.iter().flatten().map(|r| r.area).collect();
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
        return;
    }

    // Traced phase: the same passes, in the same order, through the split
    // pipeline.
    let mut ledger = Ledger::new();
    for pass in 0..rounds.len() {
        for i in pass_order(jobs.len(), opts.seed, pass) {
            let out = run_op_traced(&jobs[i], &libs[jobs[i].lib], &mut ledger);
            result.record(check(i, out));
        }
    }
    let untraced_s = rounds.iter().map(|r| r.seconds).sum();
    result.threads_used = result.threads_used.max(ledger.counters.threads_used);
    crate::push_setup_layer_metrics(result, &rounds);
    crate::push_layer_metrics(result, &LayerReport::new(&ledger, untraced_s));
}
