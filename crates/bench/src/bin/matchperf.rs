//! Match-acceleration micro-benchmark: the naive full-scan matcher vs the
//! automaton-filtered matcher (the default of every mapping run).
//!
//! Times serial `dagmap_core::label_with_config` under the two
//! configurations over the benchgen ISCAS-like suite crossed with the
//! builtin libraries (plus a depth-2 supergate extension of 44-1), asserts
//! the labels — and, on the smallest circuit, the mapped BLIF — are
//! bit-identical across configurations, and writes the numbers to
//! `BENCH_match.json` (hand-rolled JSON — the workspace is dependency-free).
//!
//! Usage: `matchperf [--quick] [--out PATH]`
//!
//! `--quick` shrinks the circuit set and repetition count (the tier-1 smoke
//! run).

use std::fmt::Write as _;
use std::time::Instant;

use dagmap_bench::harness::{best_of, mapped_blif};
use dagmap_core::{label_with_config, MapOptions, Mapper, MatchMode, Objective};
use dagmap_genlib::Library;
use dagmap_match::MatchConfig;
use dagmap_netlist::SubjectGraph;
use dagmap_supergate::{extend_library, SupergateOptions};

const BASELINE: MatchConfig = MatchConfig { index: false };
// The default: candidates and partial bindings filtered by the library's
// tree automaton.
const AUTOMATON: MatchConfig = MatchConfig { index: true };

struct Row {
    circuit: String,
    library: String,
    subject_nodes: usize,
    matches_enumerated: usize,
    pruned_baseline: usize,
    pruned_automaton: usize,
    baseline_s: f64,
    automaton_s: f64,
    identical: bool,
}

fn time_config(subject: &SubjectGraph, lib: &Library, config: MatchConfig, reps: usize) -> f64 {
    best_of(reps, || {
        let t = Instant::now();
        let labels = label_with_config(
            subject,
            lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
            config,
        )
        .expect("labels");
        std::hint::black_box(labels.matches_enumerated);
        t.elapsed().as_secs_f64()
    })
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_match.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let reps = if quick { 1 } else { 3 };

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

    let mut libraries: Vec<Library> = vec![Library::lib2_like(), Library::lib_44_1_like()];
    if !quick {
        libraries.push(Library::lib_44_3_like());
        let ext = extend_library(
            &Library::lib_44_1_like(),
            &SupergateOptions {
                max_depth: 2,
                num_threads: Some(1),
                ..SupergateOptions::default()
            },
        )
        .expect("supergate extension");
        libraries.push(ext.library);
    }

    println!(
        "matchperf: {} circuits x {} libraries, serial labeling, {} reps",
        circuits.len(),
        libraries.len(),
        reps
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("benchgen circuits decompose");
        for lib in &libraries {
            let run = |config| {
                label_with_config(
                    &subject,
                    lib,
                    MatchMode::Standard,
                    Objective::Delay,
                    Some(1),
                    config,
                )
                .expect("labels")
            };
            let base = run(BASELINE);
            let auto = run(AUTOMATON);
            let identical = base.arrival == auto.arrival
                && base.best == auto.best
                && base.matches_enumerated == auto.matches_enumerated;
            assert!(
                identical,
                "{name}/{}: accelerated labels diverged",
                lib.name()
            );
            let baseline_s = time_config(&subject, lib, BASELINE, reps);
            let automaton_s = time_config(&subject, lib, AUTOMATON, reps);
            println!(
                "  {name:12} {:12} {:>6} nodes: baseline {:>8.2} ms, automaton {:>8.2} ms ({:.2}x)",
                lib.name(),
                subject.network().num_nodes(),
                baseline_s * 1e3,
                automaton_s * 1e3,
                baseline_s / automaton_s,
            );
            rows.push(Row {
                circuit: name.clone(),
                library: lib.name().to_owned(),
                subject_nodes: subject.network().num_nodes(),
                matches_enumerated: base.matches_enumerated,
                pruned_baseline: base.matches_pruned,
                pruned_automaton: auto.matches_pruned,
                baseline_s,
                automaton_s,
                identical,
            });
        }
    }

    // Mapped-netlist byte identity on the smallest circuit of the suite,
    // against every library in the run.
    let (small_name, small_net) = &circuits[0];
    let small = SubjectGraph::from_network(small_net).expect("subject");
    for lib in &libraries {
        let mapper = Mapper::new(lib);
        let on = mapper.map(&small, MapOptions::dag()).expect("map");
        let off = mapper
            .map(&small, MapOptions::dag().with_match_acceleration(false))
            .expect("map");
        assert_eq!(
            mapped_blif(&on),
            mapped_blif(&off),
            "{small_name}/{}: mapped BLIF diverged",
            lib.name()
        );
    }
    println!("mapped BLIF byte-identical on {small_name} across all libraries");

    let speedups_443: Vec<f64> = rows
        .iter()
        .filter(|r| r.library == "44_3_like")
        .map(|r| r.baseline_s / r.automaton_s)
        .collect();
    let geo_443 = geomean(&speedups_443);
    let geo_all = geomean(
        &rows
            .iter()
            .map(|r| r.baseline_s / r.automaton_s)
            .collect::<Vec<_>>(),
    );
    println!(
        "geo-mean speedup (baseline -> automaton): {:.2}x overall{}",
        geo_all,
        if speedups_443.is_empty() {
            String::new()
        } else {
            format!(", {geo_443:.2}x on 44_3_like")
        },
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"matchperf\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"all_identical\": true,");
    let _ = writeln!(json, "  \"geomean_speedup_automaton\": {geo_all:.3},");
    let _ = writeln!(
        json,
        "  \"geomean_speedup_automaton_44_3_like\": {geo_443:.3},"
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"library\": \"{}\", \"subject_nodes\": {}, \
             \"matches_enumerated\": {}, \"pruned_baseline\": {}, \"pruned_automaton\": {}, \
             \"baseline_s\": {:.6}, \"automaton_s\": {:.6}, \"speedup_automaton\": {:.3}, \
             \"identical\": {}}}{sep}",
            r.circuit,
            r.library,
            r.subject_nodes,
            r.matches_enumerated,
            r.pruned_baseline,
            r.pruned_automaton,
            r.baseline_s,
            r.automaton_s,
            r.baseline_s / r.automaton_s,
            r.identical,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_match.json");
    println!("wrote {out}");
}
