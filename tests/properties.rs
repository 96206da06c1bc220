//! Property-based tests over random circuits: the invariants the paper's
//! algorithm promises hold on *every* input, not just the benchmark suite.
//!
//! The workspace builds with no external dependencies, so instead of a
//! property-testing framework these run each invariant over a deterministic
//! sweep of seeded random networks ([`dagmap::benchgen::random_network`]
//! draws shape *and* structure from the seed). Failures print the offending
//! seed, which reproduces the case exactly.

use dagmap::core::{verify, MapOptions, Mapper};
use dagmap::flowmap::{cuts, label_network, map_luts};
use dagmap::genlib::Library;
use dagmap::netlist::{sim, Network, SubjectGraph};
use dagmap::rng::StdRng;

const CASES: u64 = 24;

/// A deterministic sweep of random networks, mirroring the old proptest
/// strategy `(2..9 inputs, 5..70 gates, any seed)`.
fn sweep(salt: u64) -> impl Iterator<Item = (u64, Network)> {
    (0..CASES).map(move |case| {
        let mut rng = StdRng::seed_from_u64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
        let inputs = rng.random_range(2usize..9);
        let gates = rng.random_range(5usize..70);
        let seed = rng.next_u64();
        (seed, dagmap::benchgen::random_network(inputs, gates, seed))
    })
}

/// Decomposition always preserves function.
#[test]
fn decomposition_preserves_function() {
    for (seed, net) in sweep(1) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        assert!(
            sim::equivalent_random(&net, subject.network(), 8, 0xD).expect("comparable"),
            "seed={seed}"
        );
    }
}

/// Every mapping is functionally equivalent, timing-consistent, and DAG
/// never loses to tree.
#[test]
fn mapping_invariants() {
    let library = Library::lib_44_1_like();
    let mapper = Mapper::new(&library);
    for (seed, net) in sweep(2) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let tree = mapper.map(&subject, MapOptions::tree()).expect("tree maps");
        let dag = mapper.map(&subject, MapOptions::dag()).expect("dag maps");
        assert!(dag.delay() <= tree.delay() + 1e-9, "seed={seed}");
        verify::check(&tree, &subject, 0x7E57).expect("tree verifies");
        verify::check(&dag, &subject, 0x7E57).expect("dag verifies");
    }
}

/// Extended matches never hurt.
#[test]
fn extended_no_worse_than_standard() {
    let library = Library::lib2_like();
    let mapper = Mapper::new(&library);
    for (seed, net) in sweep(3) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let std = mapper.map(&subject, MapOptions::dag()).expect("maps");
        let ext = mapper
            .map(&subject, MapOptions::dag_extended())
            .expect("maps");
        assert!(ext.delay() <= std.delay() + 1e-9, "seed={seed}");
    }
}

/// Area recovery is delay-safe and area-monotone.
#[test]
fn area_recovery_is_safe() {
    let library = Library::lib2_like();
    let mapper = Mapper::new(&library);
    for (seed, net) in sweep(4) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let plain = mapper.map(&subject, MapOptions::dag()).expect("maps");
        let rec = mapper
            .map(&subject, MapOptions::dag().with_area_recovery())
            .expect("maps");
        assert!(rec.delay() <= plain.delay() + 1e-9, "seed={seed}");
        assert!(rec.area() <= plain.area() + 1e-9, "seed={seed}");
        verify::check(&rec, &subject, 0xACE).expect("recovered mapping verifies");
    }
}

/// FlowMap's flow-based labels equal the exhaustive-cut oracle.
#[test]
fn flowmap_is_optimal() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF10F_F10F ^ case);
        let inputs = rng.random_range(2usize..7);
        let gates = rng.random_range(5usize..35);
        let seed = rng.next_u64();
        let net = dagmap::benchgen::random_network(inputs, gates, seed);
        let subject = SubjectGraph::from_network(&net)
            .expect("decomposes")
            .into_network();
        for k in [3usize, 4] {
            let labels = label_network(&subject, k).expect("labels");
            let oracle = cuts::depth_via_cuts(&subject, k).expect("oracle");
            for id in subject.node_ids() {
                assert_eq!(
                    labels.label[id.index()],
                    oracle[id.index()],
                    "seed={seed} k={k} node={id}"
                );
            }
        }
    }
}

/// LUT covers stay functionally equivalent.
#[test]
fn lut_mapping_preserves_function() {
    for (seed, net) in sweep(5) {
        let subject = SubjectGraph::from_network(&net)
            .expect("decomposes")
            .into_network();
        let labels = label_network(&subject, 4).expect("labels");
        let mapping = map_luts(&subject, &labels).expect("maps");
        let lowered = mapping.to_network(&subject).expect("lowers");
        assert!(
            sim::equivalent_random(&subject, &lowered, 8, 0x10).expect("comparable"),
            "seed={seed}"
        );
    }
}

/// BLIF round-trips preserve function on arbitrary circuits.
#[test]
fn blif_round_trips() {
    for (seed, net) in sweep(6) {
        let text = dagmap::netlist::blif::to_string(&net).expect("serializes");
        let back = dagmap::netlist::blif::parse(&text).expect("parses");
        assert!(
            sim::equivalent_random(&net, &back, 8, 0xB).expect("comparable"),
            "seed={seed}"
        );
    }
}

/// AIGER round-trips preserve function on arbitrary circuits.
#[test]
fn aiger_round_trips() {
    for (seed, net) in sweep(7) {
        let text = dagmap::netlist::aiger::to_ascii(&net).expect("serializes");
        let back = dagmap::netlist::aiger::parse_ascii(&text).expect("parses");
        assert!(
            sim::equivalent_random(&net, &back, 8, 0xA).expect("comparable"),
            "seed={seed}"
        );
    }
}

/// Verilog export of a mapping re-imports equivalently.
#[test]
fn verilog_round_trips() {
    use dagmap::core::verilog;
    let library = Library::lib2_like();
    for (seed, net) in sweep(8) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let mapped = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .expect("maps");
        let text = verilog::to_verilog(&mapped);
        let back = verilog::parse_verilog(&text, &library).expect("parses");
        assert!(
            sim::equivalent_random(&net, &back, 8, 0x7).expect("comparable"),
            "seed={seed}"
        );
    }
}

/// Boolean matching maps arbitrary circuits equivalently.
#[test]
fn boolean_matching_is_sound() {
    let library = Library::lib_44_1_like();
    for (_seed, net) in sweep(9) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let (mapped, _, _) =
            dagmap::boolmatch::map_boolean_with_options(&subject, &library, 4, MapOptions::dag())
                .expect("maps");
        verify::check(&mapped, &subject, 0xB7).expect("verifies");
    }
}
