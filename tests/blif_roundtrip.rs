//! BLIF interchange round-trips across the whole pipeline: generated
//! circuits, subject graphs, and mapped netlists all survive serialization.

use dagmap::core::{MapOptions, Mapper};
use dagmap::genlib::Library;
use dagmap::netlist::{blif, sim, SubjectGraph};

#[test]
fn generated_circuits_round_trip() {
    for (name, net) in [
        ("adder", dagmap::benchgen::ripple_adder(6)),
        ("alu", dagmap::benchgen::alu(4)),
        ("mult", dagmap::benchgen::array_multiplier(3)),
        ("rand", dagmap::benchgen::random_network(6, 50, 4)),
    ] {
        let text = blif::to_string(&net).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = blif::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            sim::equivalent_random(&net, &back, 16, 0xB11F).expect("comparable"),
            "{name} changed function through BLIF"
        );
    }
}

/// Parities wider than 16 inputs are written as 2-input XOR trees (a cube
/// cover would need 2^(n-1) cubes); the c7552 analogue has 34-input ones.
#[test]
fn wide_parities_round_trip() {
    use dagmap::netlist::{Network, NodeFn};
    let wide = |func: NodeFn| {
        let mut net = Network::new("wide");
        let ins: Vec<_> = (0..40).map(|i| net.add_input(format!("x{i}"))).collect();
        let f = net.add_node(func, ins).expect("n-ary parity");
        net.add_output("f", f);
        net
    };
    for net in [
        wide(NodeFn::Xor),
        wide(NodeFn::Xnor),
        dagmap::benchgen::c7552_like(),
    ] {
        let text = blif::to_string(&net).expect("serializes");
        let back = blif::parse(&text).expect("parses");
        assert!(
            sim::equivalent_random(&net, &back, 16, 0x7552).expect("comparable"),
            "{} changed function through BLIF",
            net.name()
        );
    }
}

#[test]
fn subject_graphs_round_trip_and_stay_subject_graphs() {
    let net = dagmap::benchgen::comparator(6);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let text = blif::to_string(subject.network()).expect("serializes");
    let back = blif::parse(&text).expect("parses");
    assert!(sim::equivalent_random(subject.network(), &back, 16, 1).expect("comparable"));
}

#[test]
fn mapped_netlists_export_as_blif() {
    let net = dagmap::benchgen::alu(4);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let mapped = Mapper::new(&Library::lib2_like())
        .map(&subject, MapOptions::dag())
        .expect("maps");
    let lowered = mapped.to_network().expect("lowers");
    let text = blif::to_string(&lowered).expect("serializes");
    let back = blif::parse(&text).expect("parses");
    assert!(sim::equivalent_random(&net, &back, 16, 2).expect("comparable"));
}

#[test]
fn sequential_circuits_round_trip() {
    for net in [
        dagmap::benchgen::counter(5),
        dagmap::benchgen::shift_register(4),
        dagmap::benchgen::lfsr(5),
        dagmap::benchgen::accumulator(4),
    ] {
        let text = blif::to_string(&net).expect("serializes");
        let back = blif::parse(&text).expect("parses");
        assert!(
            sim::equivalent_random_sequential(&net, &back, 12, 8, 3).expect("comparable"),
            "{} changed behaviour through BLIF",
            net.name()
        );
    }
}

#[test]
fn genlib_round_trips_preserve_mapping_results() {
    // Serialize the rich library, re-parse it, and confirm an identical
    // mapping outcome — pattern generation must be deterministic.
    let lib = Library::lib_44_1_like();
    let back = Library::from_genlib_named(lib.name(), &lib.to_genlib_string()).expect("parses");
    let net = dagmap::benchgen::ripple_adder(8);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let a = Mapper::new(&lib)
        .map(&subject, MapOptions::dag())
        .expect("maps");
    let b = Mapper::new(&back)
        .map(&subject, MapOptions::dag())
        .expect("maps");
    assert_eq!(a.delay(), b.delay());
    assert_eq!(a.area(), b.area());
    assert_eq!(a.num_cells(), b.num_cells());
}
