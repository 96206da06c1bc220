//! Integration: mapping under a supergate-extended library is functionally
//! correct and never slower than the base library — the extension only adds
//! patterns, so the labeling optimum can only improve.

use dagmap_core::{verify, MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::SubjectGraph;
use dagmap_supergate::{extend_library, SupergateOptions};

fn opts() -> SupergateOptions {
    SupergateOptions {
        max_inputs: 4,
        max_depth: 2,
        max_count: 24,
        max_pool: 48,
        num_threads: Some(1),
    }
}

fn circuits() -> Vec<(&'static str, dagmap_netlist::Network)> {
    vec![
        ("add16", dagmap_benchgen::ripple_adder(16)),
        ("alu4", dagmap_benchgen::alu(4)),
        ("mult6", dagmap_benchgen::array_multiplier(6)),
    ]
}

#[test]
fn extended_mapping_verifies_and_never_regresses() {
    let base = Library::lib_44_1_like();
    let ext = extend_library(&base, &opts()).unwrap().library;
    let mut improved = false;
    for (name, net) in circuits() {
        let subject = SubjectGraph::from_network(&net).unwrap();
        let base_mapped = Mapper::new(&base).map(&subject, MapOptions::dag()).unwrap();
        let ext_mapped = Mapper::new(&ext).map(&subject, MapOptions::dag()).unwrap();
        verify::check(&ext_mapped, &subject, 0xda6_5eed).unwrap();
        assert!(
            ext_mapped.delay() <= base_mapped.delay() + 1e-9,
            "{name}: extended delay {} > base {}",
            ext_mapped.delay(),
            base_mapped.delay()
        );
        improved |= ext_mapped.delay() < base_mapped.delay() - 1e-9;
    }
    assert!(improved, "no circuit improved under the extended library");
}

#[test]
fn tree_mapping_also_accepts_the_extension() {
    let base = Library::lib_44_1_like();
    let ext = extend_library(&base, &opts()).unwrap().library;
    let net = dagmap_benchgen::ripple_adder(8);
    let subject = SubjectGraph::from_network(&net).unwrap();
    let base_tree = Mapper::new(&base)
        .map(&subject, MapOptions::tree())
        .unwrap();
    let ext_tree = Mapper::new(&ext).map(&subject, MapOptions::tree()).unwrap();
    verify::check(&ext_tree, &subject, 0x07ee_5eed).unwrap();
    assert!(ext_tree.delay() <= base_tree.delay() + 1e-9);
}

#[test]
fn extended_genlib_roundtrips_through_text() {
    // `supergen --out` persists the extension; parse(write(ext)) must keep
    // every cell's name, area, pin delays and function.
    let base = Library::lib_44_1_like();
    let ext = extend_library(&base, &opts()).unwrap().library;
    let text = ext.to_genlib_string();
    let back = Library::from_genlib_named(ext.name(), &text).unwrap();
    assert_eq!(back.gates().len(), ext.gates().len());
    for (a, b) in ext.gates().iter().zip(back.gates()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.area(), b.area());
        assert_eq!(a.num_pins(), b.num_pins());
        for p in 0..a.num_pins() {
            assert_eq!(a.pin_delay(p), b.pin_delay(p), "{} pin {p}", a.name());
        }
        let vars: Vec<String> = a.expr().vars();
        assert_eq!(
            a.expr().truth_table(&vars).unwrap(),
            b.expr().truth_table(&vars).unwrap(),
            "{} function changed",
            a.name()
        );
    }
}
