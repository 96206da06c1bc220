//! End-to-end pipeline tests: generator -> subject graph -> mapper ->
//! verification, across circuits, libraries and algorithms.

use dagmap::core::{verify, MapOptions, Mapper};
use dagmap::genlib::Library;
use dagmap::netlist::SubjectGraph;

fn circuits() -> Vec<(&'static str, dagmap::netlist::Network)> {
    vec![
        ("ripple8", dagmap::benchgen::ripple_adder(8)),
        ("ks8", dagmap::benchgen::kogge_stone_adder(8)),
        ("csel8", dagmap::benchgen::carry_select_adder(8)),
        ("mul4", dagmap::benchgen::array_multiplier(4)),
        ("cmp8", dagmap::benchgen::comparator(8)),
        ("alu4", dagmap::benchgen::alu(4)),
        ("parity9", dagmap::benchgen::parity_tree(9)),
        ("dec4", dagmap::benchgen::decoder(4)),
        ("mux8", dagmap::benchgen::mux_tree(3)),
        ("barrel8", dagmap::benchgen::barrel_shifter(8)),
        ("prio8", dagmap::benchgen::priority_encoder(8)),
        ("rand0", dagmap::benchgen::random_network(7, 80, 0)),
        ("rand1", dagmap::benchgen::random_network(9, 120, 1)),
    ]
}

#[test]
fn every_circuit_maps_and_verifies_under_every_library() {
    for (name, net) in circuits() {
        let subject = SubjectGraph::from_network(&net)
            .unwrap_or_else(|e| panic!("{name}: decomposition failed: {e}"));
        for library in [
            Library::minimal(),
            Library::lib2_like(),
            Library::lib_44_1_like(),
        ] {
            let mapper = Mapper::new(&library);
            for opts in [
                MapOptions::tree(),
                MapOptions::dag(),
                MapOptions::dag_extended(),
            ] {
                let mapped = mapper
                    .map(&subject, opts)
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", library.name()));
                verify::check(&mapped, &subject, 0xE2E)
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", library.name()));
            }
        }
    }
}

#[test]
fn delay_ordering_tree_standard_extended() {
    // Labels can only improve as match semantics get stronger:
    // exact (tree) >= standard (dag) >= extended.
    for (name, net) in circuits() {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let library = Library::lib2_like();
        let mapper = Mapper::new(&library);
        let tree = mapper.map(&subject, MapOptions::tree()).expect("maps");
        let dag = mapper.map(&subject, MapOptions::dag()).expect("maps");
        let ext = mapper
            .map(&subject, MapOptions::dag_extended())
            .expect("maps");
        assert!(dag.delay() <= tree.delay() + 1e-9, "{name}");
        assert!(ext.delay() <= dag.delay() + 1e-9, "{name}");
    }
}

#[test]
fn tree_mapping_never_duplicates_dag_may() {
    let net = dagmap::benchgen::c2670_like();
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let library = Library::lib_44_1_like();
    let mapper = Mapper::new(&library);
    let (_, tree_rep) = mapper
        .map_with_report(&subject, MapOptions::tree())
        .expect("maps");
    let (_, dag_rep) = mapper
        .map_with_report(&subject, MapOptions::dag())
        .expect("maps");
    assert_eq!(tree_rep.duplicated_subject_nodes, 0);
    assert!(dag_rep.duplicated_subject_nodes > 0);
}

#[test]
fn area_recovery_keeps_delay_and_saves_area() {
    for (name, net) in circuits().into_iter().take(6) {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let library = Library::lib2_like();
        let mapper = Mapper::new(&library);
        let plain = mapper.map(&subject, MapOptions::dag()).expect("maps");
        let rec = mapper
            .map(&subject, MapOptions::dag().with_area_recovery())
            .expect("maps");
        assert!(rec.delay() <= plain.delay() + 1e-9, "{name}");
        assert!(rec.area() <= plain.area() + 1e-9, "{name}");
        verify::check(&rec, &subject, 0xA3EA).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn predicted_delay_always_equals_realized() {
    for (name, net) in circuits() {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let library = Library::lib_44_1_like();
        let mapper = Mapper::new(&library);
        for opts in [MapOptions::tree(), MapOptions::dag()] {
            let (_, rep) = mapper.map_with_report(&subject, opts).expect("maps");
            assert!(
                (rep.delay - rep.predicted_delay).abs() < 1e-9,
                "{name}: labeling predicted {} but cover realized {}",
                rep.predicted_delay,
                rep.delay
            );
        }
    }
}

#[test]
fn minimal_library_reproduces_the_subject_graph() {
    // With only unit-delay inv/nand2 the optimal mapping is the subject
    // graph itself: delay equals unit depth and cell count equals the
    // number of live subject gates.
    let net = dagmap::benchgen::alu(4);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let library = Library::minimal();
    let mapped = Mapper::new(&library)
        .map(&subject, MapOptions::dag())
        .expect("maps");
    assert_eq!(mapped.delay(), f64::from(subject.depth()));
}

/// The subject graph records its own construction time, and every mapping
/// path reports it — no caller has to time decomposition and patch it in.
#[test]
fn reports_carry_the_subjects_decomposition_time() {
    let net = dagmap::benchgen::comparator(16);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    assert!(subject.decompose_seconds() > 0.0);
    let lib = Library::lib2_like();
    let (_, structural) = Mapper::new(&lib)
        .map_with_report(&subject, MapOptions::dag())
        .expect("maps");
    let (_, boolean, _) =
        dagmap::boolmatch::map_boolean_with_options(&subject, &lib, 4, MapOptions::dag())
            .expect("maps");
    // Phase durations are measured whether or not a trace session is
    // active; decompose is the subject's own construction time, and area
    // recovery reads 0 when the pass is off.
    for report in [structural, boolean] {
        assert_eq!(report.decompose_seconds, subject.decompose_seconds());
        assert!(report.label_seconds >= 0.0 && report.cover_seconds >= 0.0);
        assert_eq!(report.area_recovery_seconds, 0.0);
    }
}
