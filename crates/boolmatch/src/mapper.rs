//! The Boolean and hybrid mappers: thin entry points that build a
//! [`BoolSource`]/[`HybridSource`] and hand it to `dagmap_core`'s shared
//! labeling DP, cover construction and area recovery via
//! [`Mapper::map_with_source`]. Everything the structural mapper offers —
//! area recovery, delay targets, observability spans, the full
//! [`MapReport`] — works for these mappers too, because the pipeline is
//! literally the same code.

use dagmap_core::{MapError, MapOptions, MapReport, MappedNetlist, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::SubjectGraph;

use crate::index::LibraryIndex;
use crate::source::{BoolSource, HybridSource};
use crate::tt::TruthTable;

/// Statistics of one Boolean-matching run.
#[derive(Debug, Clone, PartialEq)]
pub struct BoolMapReport {
    /// Cut width bound actually used: requests are clamped to
    /// `2..=`[`crate::MAX_INPUTS`], not rejected.
    pub k: usize,
    /// Priority cuts kept across all nodes (≤ `CUT_CAP` per node).
    pub cuts_enumerated: usize,
    /// Cuts whose cone function was extracted and looked up.
    pub cuts_examined: usize,
    /// Matches produced by index lookups (`p_matches + npn_matches`).
    pub matches_found: usize,
    /// Matches found by the plain P-class lookup (no polarity work).
    pub p_matches: usize,
    /// Matches only reachable through NPN canonicalization (input/output
    /// polarity fixups composed from the two recorded transforms).
    pub npn_matches: usize,
    /// Distinct cone classes (P-canonical keys, the same key space for
    /// both counters) matched by the P lookup alone — the pre-NPN
    /// engine's reach.
    pub p_classes_matched: usize,
    /// Distinct cone classes matched by the full engine; ≥
    /// `p_classes_matched` by construction, strictly greater whenever NPN
    /// rescued a cone P-matching missed.
    pub npn_classes_matched: usize,
    /// Gates of the library that participated in the index.
    pub gates_indexed: usize,
}

fn report_of(source: &BoolSource<'_>) -> BoolMapReport {
    BoolMapReport {
        k: source.index().max_inputs(),
        cuts_enumerated: source.cuts_enumerated(),
        cuts_examined: source.cuts_examined(),
        matches_found: source.p_matches() + source.npn_matches(),
        p_matches: source.p_matches(),
        npn_matches: source.npn_matches(),
        p_classes_matched: source.p_classes_matched(),
        npn_classes_matched: source.npn_classes_matched(),
        gates_indexed: source.index().num_indexed(),
    }
}

/// Maps `subject` by Boolean matching over `k`-input priority cuts, with
/// the same delay-optimal dynamic program and cover construction as the
/// structural mapper. See the [crate docs](crate). `options` controls the
/// objective, area recovery and delay target exactly as for
/// [`Mapper::map`]; the structural acceleration switches are ignored
/// (Boolean matching has its own engine). Returns the mapped netlist, the
/// shared [`MapReport`] (algorithm `"boolean"`) and the Boolean-matching
/// statistics.
///
/// # Errors
///
/// Fails when the indexed library cannot cover some node (an inverter-
/// and a NAND2-class gate guarantee coverage) or on substrate errors.
pub fn map_boolean_with_options(
    subject: &SubjectGraph,
    library: &Library,
    k: usize,
    options: MapOptions,
) -> Result<(MappedNetlist, MapReport, BoolMapReport), MapError> {
    let source = BoolSource::new(subject, library, k);
    let (mapped, report) =
        Mapper::new(library).map_with_source(subject, options, &source, "boolean")?;
    // The DP's arrival prediction must agree with the realized timing —
    // this cross-checks the NPN pin-alignment math.
    debug_assert!(dagmap_core::verify::timing_consistent(&mapped));
    Ok((mapped, report, report_of(&source)))
}

/// Maps `subject` with the *union* of structural (standard) and Boolean
/// matches — since the delay DP minimizes over the candidate set, the
/// hybrid provably dominates both individual matchers on delay. Options
/// as for [`map_boolean_with_options`]. The [`MapReport`] carries
/// algorithm `"hybrid"`; the [`BoolMapReport`] counts only the Boolean
/// half's work.
///
/// # Errors
///
/// As for [`map_boolean_with_options`].
pub fn map_hybrid_with_options(
    subject: &SubjectGraph,
    library: &Library,
    k: usize,
    options: MapOptions,
) -> Result<(MappedNetlist, MapReport, BoolMapReport), MapError> {
    let source = HybridSource::new(subject, library, k);
    let (mapped, report) =
        Mapper::new(library).map_with_source(subject, options, &source, "hybrid")?;
    debug_assert!(dagmap_core::verify::timing_consistent(&mapped));
    Ok((mapped, report, report_of(source.boolean())))
}

/// Convenience: confirm the library contains the two classes that
/// guarantee Boolean coverage of any subject graph (inverter and NAND2 —
/// the fanin cut of every subject node then always matches). Libraries
/// failing this may still map when NPN polarity fixups happen to cover
/// every node, so [`map_boolean_with_options`] does not gate on it.
///
/// # Errors
///
/// Returns [`MapError::UnmappableLibrary`] when either class is missing.
pub fn check_coverable(library: &Library, k: usize) -> Result<(), MapError> {
    let index = LibraryIndex::build(library, k);
    let inv = TruthTable::from_fn(1, |m| m == 0).p_canonical().0;
    let nand2 = TruthTable::from_fn(2, |m| m != 0b11).p_canonical().0;
    if index.lookup(&inv).is_empty() || index.lookup(&nand2).is_empty() {
        return Err(MapError::UnmappableLibrary {
            library: library.name().to_owned(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_core::verify;
    use dagmap_netlist::{Network, NodeFn};

    /// Boolean DAG mapping at cut width `k`: the netlist and the counters.
    fn boolean_dag(
        subject: &SubjectGraph,
        library: &Library,
        k: usize,
    ) -> Result<(MappedNetlist, BoolMapReport), MapError> {
        map_boolean_with_options(subject, library, k, MapOptions::dag()).map(|(m, _, r)| (m, r))
    }

    #[test]
    fn maps_and_verifies_benchmarks() {
        for (name, net) in [
            ("adder", dagmap_benchgen::ripple_adder(6)),
            ("alu", dagmap_benchgen::alu(4)),
            ("cmp", dagmap_benchgen::comparator(6)),
            ("rand", dagmap_benchgen::random_network(6, 60, 3)),
        ] {
            let subject = SubjectGraph::from_network(&net).expect("decomposes");
            for library in [Library::lib2_like(), Library::lib_44_1_like()] {
                let (mapped, _) =
                    boolean_dag(&subject, &library, 4).unwrap_or_else(|e| panic!("{name}: {e}"));
                verify::check(&mapped, &subject, 0xB001)
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", library.name()));
            }
        }
    }

    #[test]
    fn beats_structural_matching_on_skewed_subjects() {
        // A chain-shaped AND tree: the balanced and4/nand4 patterns do not
        // match it structurally beyond 2 levels, but Boolean matching sees
        // the 4-input cone's function regardless of shape.
        let mut net = Network::new("skew");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let e = net.add_input("e");
        let mut cur = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        for x in [c, d, e] {
            cur = net.add_node(NodeFn::And, vec![cur, x]).unwrap();
        }
        net.add_output("f", cur);
        let subject = SubjectGraph::from_network(&net).unwrap();
        // Balanced-only patterns make the structural mapper blind to the
        // chain; Boolean matching is shape-independent.
        let library = Library::new_with_shapes(
            "bal",
            Library::lib_44_1_like().gates().to_vec(),
            &[dagmap_genlib::TreeShape::Balanced],
        )
        .unwrap();
        let structural = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .unwrap();
        let (boolean, _) = boolean_dag(&subject, &library, 4).unwrap();
        verify::check(&boolean, &subject, 7).unwrap();
        assert!(
            boolean.delay() <= structural.delay() + 1e-9,
            "boolean {} vs structural {}",
            boolean.delay(),
            structural.delay()
        );
    }

    #[test]
    fn hybrid_dominates_both_matchers() {
        for (name, net) in [
            ("adder", dagmap_benchgen::ripple_adder(8)),
            ("ks", dagmap_benchgen::kogge_stone_adder(8)),
            ("cmp", dagmap_benchgen::comparator(8)),
            ("rand", dagmap_benchgen::random_network(7, 80, 11)),
        ] {
            let subject = SubjectGraph::from_network(&net).expect("decomposes");
            let library = Library::lib2_like();
            let structural = Mapper::new(&library)
                .map(&subject, MapOptions::dag())
                .expect("maps");
            let (boolean, _) = boolean_dag(&subject, &library, 4).expect("maps");
            let (hybrid, _, _) =
                map_hybrid_with_options(&subject, &library, 4, MapOptions::dag()).expect("maps");
            verify::check(&hybrid, &subject, 0x487).expect("hybrid verifies");
            assert!(
                hybrid.delay() <= structural.delay() + 1e-9
                    && hybrid.delay() <= boolean.delay() + 1e-9,
                "{name}: hybrid {} vs structural {} / boolean {}",
                hybrid.delay(),
                structural.delay(),
                boolean.delay()
            );
        }
    }

    #[test]
    fn missing_primitives_are_reported() {
        use dagmap_genlib::Gate;
        let library = Library::new(
            "only_nor",
            vec![Gate::uniform("nor2", 2.0, "O", "!(a+b)", 1.0).unwrap()],
        )
        .unwrap();
        assert!(check_coverable(&library, 4).is_err());
    }

    #[test]
    fn report_counts_are_sane() {
        let net = dagmap_benchgen::ripple_adder(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib2_like();
        let (_, report) = boolean_dag(&subject, &library, 4).unwrap();
        assert!(report.cuts_enumerated > 0);
        assert!(report.cuts_examined > 0);
        assert!(report.matches_found > 0);
        assert_eq!(report.matches_found, report.p_matches + report.npn_matches);
        assert!(report.npn_classes_matched >= report.p_classes_matched);
        assert!(report.gates_indexed > 10);
        assert_eq!(report.k, 4);
    }

    #[test]
    fn reports_count_the_labeling_pass_only() {
        // Area recovery re-enumerates matches through the same source; the
        // Boolean report, like `MapReport::matches_enumerated`, counts the
        // labeling pass.
        let subject = SubjectGraph::from_network(&dagmap_benchgen::alu(8)).unwrap();
        let library = Library::lib2_like();
        type Entry = fn(
            &SubjectGraph,
            &Library,
            usize,
            MapOptions,
        ) -> Result<(MappedNetlist, MapReport, BoolMapReport), MapError>;
        for (name, entry) in [
            ("boolean", map_boolean_with_options as Entry),
            ("hybrid", map_hybrid_with_options as Entry),
        ] {
            let (_, plain, bool_plain) = entry(&subject, &library, 4, MapOptions::dag()).unwrap();
            let (_, recovered, bool_recovered) = entry(
                &subject,
                &library,
                4,
                MapOptions::dag().with_area_recovery(),
            )
            .unwrap();
            assert_eq!(
                plain.matches_enumerated, recovered.matches_enumerated,
                "{name}"
            );
            assert_eq!(bool_plain, bool_recovered, "{name}");
        }
    }

    #[test]
    fn xor_cones_map_to_xor_gates() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        net.add_output("f", f);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib2_like();
        let (mapped, _) = boolean_dag(&subject, &library, 4).unwrap();
        verify::check(&mapped, &subject, 3).unwrap();
        assert_eq!(mapped.num_cells(), 1);
        assert_eq!(mapped.kind_of(0).name, "xor2");
    }

    // ---- satellite regressions -------------------------------------

    #[test]
    fn overwide_k_requests_map_without_panicking() {
        // Regression: a library with >6-input gates used to panic the
        // index (`assert!` on width), and a k wider than MAX_INPUTS would
        // have panicked `exhaustive_word`. Both now clamp.
        use dagmap_genlib::Gate;
        let mut gates = Library::lib2_like().gates().to_vec();
        gates.push(Gate::uniform("and7", 7.0, "O", "a*b*c*d*e*f*g", 1.0).unwrap());
        let library = Library::new("wide", gates).unwrap();
        assert!(library.max_gate_inputs() >= 7);
        let net = dagmap_benchgen::ripple_adder(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let (mapped, report) = boolean_dag(&subject, &library, library.max_gate_inputs()).unwrap();
        verify::check(&mapped, &subject, 0x7173).unwrap();
        assert_eq!(report.k, crate::MAX_INPUTS);
    }

    #[test]
    fn narrow_k_requests_map_as_k_two() {
        // Regression: k = 0 or 1 built a 1-input index (inverters only)
        // under 2-input cuts, so every NAND node went unmatched.
        let net = dagmap_benchgen::alu(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib2_like();
        let blif_at = |k: usize| {
            let (mapped, report) = boolean_dag(&subject, &library, k).unwrap();
            assert_eq!(report.k, 2, "k={k}");
            let net = mapped.to_network().expect("lowers");
            dagmap_netlist::blif::to_string(&net).expect("writes")
        };
        let at_two = blif_at(2);
        for k in [0, 1] {
            assert_eq!(blif_at(k), at_two, "k={k} maps like k=2");
        }
    }

    #[test]
    fn npn_matching_borrows_inverters_for_negated_pins() {
        // r = nand(inv(nand(a,b)), c) computes ¬(ab) ∨ ¬c — an OR of one
        // positive and one negated signal. P-matching sees only nand2/inv
        // shapes; NPN matching recognizes the or2 gate with an input
        // polarity fixup, borrowing the live inverter on c (kept alive by
        // its own output, at a level below r).
        use dagmap_genlib::Gate;
        let library = Library::new(
            "npn",
            vec![
                Gate::uniform("inv", 1.0, "O", "!a", 1.0).unwrap(),
                Gate::uniform("nand2", 1.0, "O", "!(a*b)", 1.0).unwrap(),
                Gate::uniform("or2", 1.5, "O", "a+b", 0.5).unwrap(),
            ],
        )
        .unwrap();
        let mut net = Network::new("npn");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        let ig = net.add_node(NodeFn::Not, vec![g]).unwrap();
        let r = net.add_node(NodeFn::Nand, vec![ig, c]).unwrap();
        let ic = net.add_node(NodeFn::Not, vec![c]).unwrap();
        net.add_output("f", r);
        net.add_output("nc", ic); // keeps the inverter on c alive
        let subject = SubjectGraph::from_network(&net).unwrap();

        let (mapped, report) = boolean_dag(&subject, &library, 4).unwrap();
        verify::check(&mapped, &subject, 0x11).unwrap();
        assert!(report.npn_matches > 0, "no NPN match fired: {report:?}");
        assert!(
            report.npn_classes_matched > report.p_classes_matched,
            "the or-class cone is reachable only via NPN: {report:?}"
        );
        let kinds: Vec<&str> = (0..mapped.num_cells())
            .map(|i| mapped.kind_of(i).name.as_str())
            .collect();
        assert!(kinds.contains(&"or2"), "or2 not used: {kinds:?}");
        // or2 path: max(arrival(nand)=1.0, arrival(inv c)=1.0) + 0.5.
        assert!(
            mapped.delay() <= 1.5 + 1e-9,
            "delay {} — NPN or2 shortcut not taken",
            mapped.delay()
        );
    }

    #[test]
    fn npn_widens_class_coverage_beyond_p() {
        // lib 44-1 has nand2..4 and nor2..4 but no or/and gates: every
        // or-function cone is reachable only through NPN polarity fixups,
        // so the class counters must separate strictly.
        let net = dagmap_benchgen::alu(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib_44_1_like();
        let (mapped, report) = boolean_dag(&subject, &library, 4).unwrap();
        verify::check(&mapped, &subject, 0x44).unwrap();
        assert!(
            report.npn_classes_matched > report.p_classes_matched,
            "NPN should reach strictly more cone classes: {report:?}"
        );
        assert!(report.npn_matches > 0);
    }

    #[test]
    fn area_recovery_composes_with_boolean_matching() {
        let net = dagmap_benchgen::alu(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib2_like();
        let (plain, _) = boolean_dag(&subject, &library, 4).unwrap();
        let (recovered, report, _) = map_boolean_with_options(
            &subject,
            &library,
            4,
            MapOptions::dag().with_area_recovery(),
        )
        .unwrap();
        verify::check(&recovered, &subject, 0xAEA).unwrap();
        assert_eq!(report.algorithm, "boolean");
        assert!(recovered.delay() <= plain.delay() + 1e-9);
        assert!(recovered.area() <= plain.area() + 1e-9);
    }
}
