//! Labeling micro-benchmark.
//!
//! Times `dagmap_core::label_with_config` over the benchgen circuits under
//! lib2 and writes the numbers to `BENCH_label.json` (hand-rolled JSON —
//! the workspace is dependency-free).
//!
//! Usage: `labelperf [--quick] [--out PATH]`
//!
//! `--quick` shrinks the circuit set and repetition count (the tier-1 smoke
//! run).
//!
//! The binary also runs under a counting global allocator wired into
//! `dagmap_core::allocmeter`, and asserts the flat kernel's steady-state
//! zero-allocation contract on every circuit's reference run.

use std::fmt::Write as _;
use std::time::Instant;

use dagmap_bench::harness::{best_of, Counting, ALLOCS};
use dagmap_core::{label_with_config, Labels, MatchMode, Objective};
use dagmap_genlib::Library;
use dagmap_match::MatchConfig;
use dagmap_netlist::SubjectGraph;

#[global_allocator]
static COUNTING: Counting = Counting;

struct CircuitResult {
    name: String,
    subject_nodes: usize,
    levels: usize,
    max_width: usize,
    matches_enumerated: usize,
    matches_pruned: usize,
    match_words: usize,
    wave_allocs: usize,
    serial_s: f64,
}

fn label(subject: &SubjectGraph, lib: &Library) -> Labels {
    label_with_config(
        subject,
        lib,
        MatchMode::Standard,
        Objective::Delay,
        None,
        MatchConfig::default(),
    )
    .expect("labels")
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_label.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Best-of-N timing: the container the benches run in is noisy and
    // shared, so the minimum over more repetitions is the better estimate
    // of the kernel's actual cost.
    let reps = if quick { 1 } else { 7 };
    dagmap_core::allocmeter::install(&ALLOCS);

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

    println!("labelperf: {available} CPUs, best of {reps} reps");
    let mut results = Vec::new();
    for (name, net) in circuits {
        let subject = SubjectGraph::from_network(&net).expect("benchgen circuits decompose");
        let flat = subject.flat();
        let num_levels = flat.num_levels();
        let max_width = (0..num_levels)
            .map(|l| flat.level_group(l).len())
            .max()
            .unwrap_or(0);
        let serial = label(&subject, &lib);
        let wave_allocs: usize = serial.wave_allocs.iter().sum();
        assert_eq!(
            wave_allocs, 0,
            "{name}: steady-state waves allocated ({:?})",
            serial.wave_allocs
        );
        let serial_s = best_of(reps, || {
            let t = Instant::now();
            let labels = label(&subject, &lib);
            std::hint::black_box(labels.matches_enumerated);
            t.elapsed().as_secs_f64()
        });
        println!(
            "  {name:12} {:>6} nodes {:>4} levels (width {:>4}): serial {:>8.2} ms, wave_allocs={wave_allocs}",
            subject.network().num_nodes(),
            num_levels,
            max_width,
            serial_s * 1e3,
        );
        results.push(CircuitResult {
            name,
            subject_nodes: subject.network().num_nodes(),
            levels: num_levels,
            max_width,
            matches_enumerated: serial.matches_enumerated,
            matches_pruned: serial.matches_pruned,
            match_words: serial.match_words,
            wave_allocs,
            serial_s,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"labelperf\",");
    let _ = writeln!(json, "  \"library\": \"{}\",", lib.name());
    let _ = writeln!(json, "  \"nproc\": {available},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"circuits\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"subject_nodes\": {}, \"levels\": {}, \"max_width\": {}, \
             \"matches_enumerated\": {}, \"matches_pruned\": {}, \
             \"match_words\": {}, \"wave_allocs\": {}, \
             \"serial_s\": {:.6}, \"matches_per_sec_serial\": {:.0}}}{sep}",
            r.name,
            r.subject_nodes,
            r.levels,
            r.max_width,
            r.matches_enumerated,
            r.matches_pruned,
            r.match_words,
            r.wave_allocs,
            r.serial_s,
            r.matches_enumerated as f64 / r.serial_s,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_label.json");
    println!("wrote {out}");
}
