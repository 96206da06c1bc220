//! Boolean-matching benchmark: structural vs Boolean vs hybrid mapping
//! across the benchgen suite, against `lib2`.
//!
//! Three mapped columns per circuit, all through the same labeling DP:
//!
//! * **structural** — the paper's pattern matcher (`Mapper::map`);
//! * **boolean** — priority-cut NPN Boolean matching
//!   (`map_boolean_with_options`, k = 4);
//! * **hybrid** — the union of both candidate sets
//!   (`map_hybrid_with_options`).
//!
//! Asserts the orderings the pipeline guarantees — hybrid delay never
//! worse than structural or Boolean alone, NPN class reach ≥ P class
//! reach on every circuit and strictly wider on at least one — plus byte
//! determinism: mapping twice yields bit-identical BLIF for both the
//! Boolean and hybrid engines. Writes `BENCH_bool.json`.
//!
//! Usage: `boolperf [--quick] [--out PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use dagmap_bench::harness::{best_of, mapped_blif};
use dagmap_boolmatch::{map_boolean_with_options, map_hybrid_with_options};
use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{Network, SubjectGraph};

const K: usize = 4;

struct Row {
    circuit: String,
    subject_nodes: usize,
    structural_delay: f64,
    boolean_delay: f64,
    hybrid_delay: f64,
    structural_s: f64,
    boolean_s: f64,
    hybrid_s: f64,
    p_matches: usize,
    npn_matches: usize,
    p_classes: usize,
    npn_classes: usize,
    boolean_gap_pct: f64,
    hybrid_gain_pct: f64,
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_bool.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let reps = if quick { 1 } else { 3 };

    let circuits: Vec<(String, Network)> = if quick {
        vec![
            ("add8".into(), dagmap_benchgen::ripple_adder(8)),
            ("alu4".into(), dagmap_benchgen::alu(4)),
            ("cmp8".into(), dagmap_benchgen::comparator(8)),
        ]
    } else {
        vec![
            ("add16".into(), dagmap_benchgen::ripple_adder(16)),
            ("ks16".into(), dagmap_benchgen::kogge_stone_adder(16)),
            ("csel16".into(), dagmap_benchgen::carry_select_adder(16)),
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("cmp16".into(), dagmap_benchgen::comparator(16)),
            ("parity16".into(), dagmap_benchgen::parity_tree(16)),
            ("mux5".into(), dagmap_benchgen::mux_tree(5)),
            ("bshift16".into(), dagmap_benchgen::barrel_shifter(16)),
            ("c3540_like".into(), dagmap_benchgen::c3540_like()),
            ("mult8".into(), dagmap_benchgen::array_multiplier(8)),
        ]
    };
    let lib = Library::lib2_like();
    let mapper = Mapper::new(&lib);
    let opts = MapOptions::dag();

    println!(
        "boolperf: {} circuits vs `{}`, k={K}, {} reps (best-of)",
        circuits.len(),
        lib.name(),
        reps
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("benchgen circuits decompose");

        let structural = mapper.map(&subject, opts).expect("structural map");
        let structural_s = best_of(reps, || {
            let t = Instant::now();
            let m = mapper.map(&subject, opts).expect("map");
            std::hint::black_box(m.num_cells());
            t.elapsed().as_secs_f64()
        });

        let (boolean, _, breport) =
            map_boolean_with_options(&subject, &lib, K, opts).expect("boolean map");
        // Byte determinism: an identical second run may not move a byte.
        let (boolean2, _, breport2) =
            map_boolean_with_options(&subject, &lib, K, opts).expect("boolean map");
        assert_eq!(
            mapped_blif(&boolean),
            mapped_blif(&boolean2),
            "{name}: boolean mapping is not byte-deterministic"
        );
        assert_eq!(breport, breport2, "{name}: boolean report diverged");
        let boolean_s = best_of(reps, || {
            let t = Instant::now();
            let (m, ..) = map_boolean_with_options(&subject, &lib, K, opts).expect("map");
            std::hint::black_box(m.num_cells());
            t.elapsed().as_secs_f64()
        });

        let (hybrid, _, _) = map_hybrid_with_options(&subject, &lib, K, opts).expect("hybrid map");
        let (hybrid2, _, _) = map_hybrid_with_options(&subject, &lib, K, opts).expect("hybrid map");
        assert_eq!(
            mapped_blif(&hybrid),
            mapped_blif(&hybrid2),
            "{name}: hybrid mapping is not byte-deterministic"
        );
        let hybrid_s = best_of(reps, || {
            let t = Instant::now();
            let (m, ..) = map_hybrid_with_options(&subject, &lib, K, opts).expect("map");
            std::hint::black_box(m.num_cells());
            t.elapsed().as_secs_f64()
        });

        // The provable orderings: hybrid minimizes over a superset of each
        // individual candidate set. Boolean alone may lose to structural
        // (priority cuts prune), which is exactly the gap the table shows.
        let eps = 1e-9;
        assert!(
            hybrid.delay() <= structural.delay() + eps,
            "{name}: hybrid {} worse than structural {}",
            hybrid.delay(),
            structural.delay()
        );
        assert!(
            hybrid.delay() <= boolean.delay() + eps,
            "{name}: hybrid {} worse than boolean {}",
            hybrid.delay(),
            boolean.delay()
        );
        assert!(
            breport.npn_classes_matched >= breport.p_classes_matched,
            "{name}: NPN reach shrank below P: {breport:?}"
        );

        let boolean_gap_pct =
            100.0 * (boolean.delay() - structural.delay()) / structural.delay().max(eps);
        let hybrid_gain_pct =
            100.0 * (structural.delay() - hybrid.delay()) / structural.delay().max(eps);
        println!(
            "  {name:12} {:>6} nodes: structural {:>7.3} ({:>7.2} ms), boolean {:>7.3} \
             ({:>7.2} ms, gap {:+.1}%), hybrid {:>7.3} ({:>7.2} ms, gain {:.1}%), \
             classes P {} -> NPN {}",
            subject.flat().num_nodes(),
            structural.delay(),
            structural_s * 1e3,
            boolean.delay(),
            boolean_s * 1e3,
            boolean_gap_pct,
            hybrid.delay(),
            hybrid_s * 1e3,
            hybrid_gain_pct,
            breport.p_classes_matched,
            breport.npn_classes_matched,
        );

        rows.push(Row {
            circuit: name.clone(),
            subject_nodes: subject.flat().num_nodes(),
            structural_delay: structural.delay(),
            boolean_delay: boolean.delay(),
            hybrid_delay: hybrid.delay(),
            structural_s,
            boolean_s,
            hybrid_s,
            p_matches: breport.p_matches,
            npn_matches: breport.npn_matches,
            p_classes: breport.p_classes_matched,
            npn_classes: breport.npn_classes_matched,
            boolean_gap_pct,
            hybrid_gain_pct,
        });
    }

    let strictly_wider = rows.iter().filter(|r| r.npn_classes > r.p_classes).count();
    assert!(
        strictly_wider > 0,
        "NPN canonicalization must reach strictly more cone classes than \
         P-only on at least one circuit"
    );
    println!(
        "NPN reached strictly more cone classes than P on {strictly_wider}/{} circuits",
        rows.len()
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"boolperf\",");
    let _ = writeln!(json, "  \"library\": \"{}\",", lib.name());
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"deterministic\": true,");
    let _ = writeln!(json, "  \"npn_strictly_wider_on\": {strictly_wider},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"subject_nodes\": {}, \
             \"structural_delay\": {:.6}, \"boolean_delay\": {:.6}, \
             \"hybrid_delay\": {:.6}, \"structural_s\": {:.6}, \
             \"boolean_s\": {:.6}, \"hybrid_s\": {:.6}, \"p_matches\": {}, \
             \"npn_matches\": {}, \"p_classes\": {}, \"npn_classes\": {}, \
             \"boolean_gap_pct\": {:.3}, \"hybrid_gain_pct\": {:.3}}}{sep}",
            r.circuit,
            r.subject_nodes,
            r.structural_delay,
            r.boolean_delay,
            r.hybrid_delay,
            r.structural_s,
            r.boolean_s,
            r.hybrid_s,
            r.p_matches,
            r.npn_matches,
            r.p_classes,
            r.npn_classes,
            r.boolean_gap_pct,
            r.hybrid_gain_pct,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
