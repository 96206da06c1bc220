//! Incremental re-mapping: after a netlist edit, `map_incremental` must
//! produce byte-identical output to a cold full mapping of the edited
//! network while re-evaluating only the dirty region.

use dagmap_core::{
    label_with_config, relabel_incremental, MapOptions, Mapper, Objective, RetainedLabels,
};
use dagmap_genlib::Library;
use dagmap_match::{MatchConfig, MatchMode, SharedMatchStore};
use dagmap_netlist::{blif, NetEdit, Network, NodeFn, SubjectGraph};

fn mapped_blif(mapped: &dagmap_core::MappedNetlist) -> String {
    blif::to_string(&mapped.to_network().expect("lower")).expect("blif")
}

/// Applies a small local edit to `net`: a fresh input XORed into the
/// driver of one primary output. The rest of the circuit is untouched,
/// so most signatures — and therefore most labels — survive.
fn edit_one_output(net: &mut Network) {
    let out_name = net.outputs().first().expect("has outputs").name.clone();
    let old_driver = net.outputs().first().unwrap().driver;
    let created = net
        .apply_edits(vec![
            NetEdit::AddInput {
                name: "inc_patch".into(),
            },
            NetEdit::AddNode {
                func: NodeFn::Xor,
                fanins: vec![old_driver, old_driver],
                name: None,
            },
        ])
        .expect("edits apply");
    let patch_in = created[0].unwrap();
    let xor = created[1].unwrap();
    net.replace_fanin(xor, 1, patch_in).expect("rewire");
    net.apply_edits(vec![NetEdit::SetOutputDriver {
        output: out_name,
        driver: xor,
    }])
    .expect("redirect output");
}

/// Maps `subject` incrementally against `retained` and cold, asserts the
/// two agree byte for byte, and returns the number of labels reused and
/// the refreshed snapshot.
fn remap_matches_cold(
    subject: &SubjectGraph,
    lib: &Library,
    opts: MapOptions,
    retained: &RetainedLabels,
    shared: Option<&SharedMatchStore>,
) -> (usize, Option<RetainedLabels>) {
    let mapper = Mapper::new(lib);
    let (inc, report, next) = mapper
        .map_incremental(subject, opts, retained, shared)
        .expect("incremental remap");
    let (cold, _) = mapper.map_with_report(subject, opts).expect("cold map");
    assert_eq!(inc.delay().to_bits(), cold.delay().to_bits());
    assert_eq!(mapped_blif(&inc), mapped_blif(&cold));
    (report.labels_reused, next)
}

/// The snapshot of a cold map of `subject`.
fn snapshot(
    subject: &SubjectGraph,
    lib: &Library,
    opts: MapOptions,
    shared: Option<&SharedMatchStore>,
) -> RetainedLabels {
    let (_, report, retained) = Mapper::new(lib)
        .map_with_report_retaining(subject, opts, shared)
        .expect("cold map");
    assert!(report.labels_reused == 0, "a cold run reuses nothing");
    retained.expect("strashed subjects have injective signatures")
}

#[test]
fn incremental_remap_is_byte_identical_and_reuses_labels() {
    let lib = Library::lib_44_3_like();
    let opts = MapOptions::dag();

    for (name, mut net) in [
        ("alu8", dagmap_benchgen::alu(8)),
        ("ks16", dagmap_benchgen::kogge_stone_adder(16)),
    ] {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let retained = snapshot(&subject, &lib, opts, None);
        edit_one_output(&mut net);
        let edited = SubjectGraph::from_network(&net).expect("edited decomposes");
        let (reused, next) = remap_matches_cold(&edited, &lib, opts, &retained, None);
        assert!(
            reused > 0,
            "{name}: a local edit leaves most labels reusable"
        );
        assert!(
            reused + 8 < edited.flat().num_nodes(),
            "{name}: the edited region must actually be re-evaluated"
        );
        // The snapshot returned by the incremental pass seeds the next round:
        // re-mapping the unchanged netlist reuses every gate label.
        let next = next.expect("edited subject stays injective");
        let (again, _) = remap_matches_cold(&edited, &lib, opts, &next, None);
        assert_eq!(again, edited.num_gates(), "{name}: no-op remap reuses all");
    }
}

#[test]
fn incremental_remap_matches_through_a_shared_store() {
    // The store is the retired memo's inert handle: the calls that take it
    // must still remap like a cold map.
    let lib = Library::lib2_like();
    let opts = MapOptions::dag();
    let mut net = dagmap_benchgen::ripple_adder(8);
    let shared = SharedMatchStore::for_library(&lib, 4, 1 << 12);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let retained = snapshot(&subject, &lib, opts, Some(&shared));
    edit_one_output(&mut net);
    let edited = SubjectGraph::from_network(&net).expect("decomposes");
    let (reused, _) = remap_matches_cold(&edited, &lib, opts, &retained, Some(&shared));
    assert!(reused > 0);
}

#[test]
fn retained_labels_refuse_non_injective_subjects() {
    // `from_subject_network` does not strash, so a second NAND over the
    // fanins of an existing one duplicates its signature.
    let strashed = SubjectGraph::from_network(&dagmap_benchgen::alu(4)).expect("decomposes");
    let mut raw = strashed.into_network();
    let nand = raw
        .node_ids()
        .find(|&id| matches!(raw.node(id).func(), NodeFn::Nand))
        .expect("alu has NANDs");
    let fanins = raw.node(nand).fanins().to_vec();
    let twin = raw.add_node(NodeFn::Nand, fanins).expect("nand2");
    let out = raw.add_node(NodeFn::Not, vec![twin]).expect("inv");
    raw.add_output("twin", out);
    let duplicated = SubjectGraph::from_subject_network(raw.clone()).expect("subject form");
    assert!(!duplicated.signatures().is_injective());

    let (lib, opts) = (Library::lib_44_1_like(), MapOptions::dag());
    let (_, _, none) = Mapper::new(&lib)
        .map_with_report_retaining(&duplicated, opts, None)
        .expect("map");
    assert!(none.is_none(), "no snapshot of a non-injective subject");
    let (mode, config) = (MatchMode::Standard, MatchConfig::default());
    let labels = label_with_config(&duplicated, &lib, mode, Objective::Delay, Some(1), config)
        .expect("labels");
    assert!(RetainedLabels::from_labels(&duplicated, &labels).is_none());

    // A snapshot of the strashed original, which merges the twin NAND,
    // must not be applied to the duplicated subject.
    let original = SubjectGraph::from_network(&raw).expect("decomposes");
    let retained = snapshot(&original, &lib, opts, None);
    let (reused, next) = remap_matches_cold(&duplicated, &lib, opts, &retained, None);
    assert_eq!(reused, 0);
    assert!(next.is_none());
}

/// A 44-3 `dag` snapshot of alu8, for the basis-mismatch cases below.
fn alu8_dag_snapshot() -> (SubjectGraph, RetainedLabels) {
    let subject = SubjectGraph::from_network(&dagmap_benchgen::alu(8)).expect("decomposes");
    let retained = snapshot(&subject, &Library::lib_44_3_like(), MapOptions::dag(), None);
    (subject, retained)
}

#[test]
fn snapshots_are_not_reused_under_another_match_mode() {
    let (subject, retained) = alu8_dag_snapshot();
    let lib = Library::lib_44_3_like();
    let (same, _) = remap_matches_cold(&subject, &lib, MapOptions::dag(), &retained, None);
    assert_eq!(same, subject.num_gates(), "an equal basis reuses all");
    let (tree, _) = remap_matches_cold(&subject, &lib, MapOptions::tree(), &retained, None);
    assert_eq!(tree, 0);
}

#[test]
fn snapshots_are_not_reused_under_another_objective() {
    let (subject, retained) = alu8_dag_snapshot();
    let lib = Library::lib_44_3_like();
    let (mode, config, area) = (MatchMode::Standard, MatchConfig::default(), Objective::Area);
    let (inc, stats) =
        relabel_incremental(&subject, &lib, mode, area, config, &retained, None).expect("relabel");
    let cold = label_with_config(&subject, &lib, mode, area, Some(1), config).expect("labels");
    assert_eq!((stats.reused, stats.relabeled), (0, subject.num_gates()));
    assert_eq!(inc.arrival, cold.arrival);
    assert_eq!(inc.area_flow, cold.area_flow);
    assert_eq!(inc.best, cold.best);
}

#[test]
fn snapshots_are_not_reused_under_another_library() {
    // Reusing 44-3 gate ids under lib2 used to index past lib2's gates.
    let (subject, retained) = alu8_dag_snapshot();
    let lib = Library::lib2_like();
    let (reused, _) = remap_matches_cold(&subject, &lib, MapOptions::dag(), &retained, None);
    assert_eq!(reused, 0);
}

#[test]
fn incremental_passes_are_traced_like_cold_ones() {
    let lib = Library::lib_44_3_like();
    let opts = MapOptions::dag();
    let mut net = dagmap_benchgen::alu(8);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let retained = snapshot(&subject, &lib, opts, None);
    edit_one_output(&mut net);
    let edited = SubjectGraph::from_network(&net).expect("decomposes");

    // The incremental pass is serial, so a session scoped to this thread
    // sees all of it.
    let session = dagmap_obs::start_scoped();
    let (_, report, _) = Mapper::new(&lib)
        .map_incremental(&edited, opts, &retained, None)
        .expect("incremental");
    let trace = session.finish();

    let signature = trace.span_signature();
    let count = |path: &str| signature.iter().find(|(p, _)| p == path).map(|(_, n)| *n);
    assert_eq!(count("map/label"), Some(1), "{signature:?}");
    let waves = count("map/label/label.wave");
    assert_eq!(waves, Some(edited.flat().num_levels()), "{signature:?}");
    let label = trace
        .spans
        .iter()
        .find(|s| s.name == "label")
        .expect("label span");
    assert_eq!(label.arg_u64("reused"), Some(report.labels_reused as u64));
    assert!(report.labels_reused > 0, "labels were reused");
    let enumerated = trace.counter("match.enumerated");
    assert_eq!(enumerated, report.matches_enumerated as u64);
    assert_eq!(trace.counter("match.pruned"), report.matches_pruned as u64);
}
