//! Command line of the `e2e` benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <file>] [--smoke]
//! e2e compare <parent_dir> <change_dir>
//! ```
//!
//! A run prints a human-readable summary on standard error and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--out` also writes the result with its run
//! parameters (the files `compare` reads).

use std::path::Path;
use std::process::ExitCode;

use dagmap_e2e::workload::Workload;
use dagmap_e2e::{compare, run_workload, RunOptions};

const USAGE: &str =
    "usage: e2e --workload <oneshot_iscas|oneshot_large|oneshot_boolean|serve_mixed> \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--out <file>] [--smoke]\n       \
e2e compare <parent_dir> <change_dir>";

fn parse_args(args: &[String]) -> Result<(RunOptions, Option<String>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => out = Some(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((
        RunOptions {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            smoke,
        },
        out,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(
            Path::new(parent),
            Path::new(change),
            Path::new("BENCHMARK.json"),
        ) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (opts, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "e2e: {} seed {} {}{} ({} s, nproc {nproc})",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        if opts.smoke { " smoke" } else { "" },
        opts.seconds
    );
    let result = run_workload(&opts);
    for m in &result.metrics {
        eprintln!("  {:40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &result.failures {
        eprintln!("  FAILED: {f}");
    }
    eprintln!(
        "  {} of {} ops failed; labeling threads used: {}",
        result.failed, result.attempted, result.threads_used
    );
    let line = result.to_json();
    if let Some(path) = out {
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"smoke\": {}, \"nproc\": {nproc}, \"threads_used\": {}, \"result\": {line}}}\n",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            opts.trace,
            opts.smoke,
            result.threads_used
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("e2e: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
