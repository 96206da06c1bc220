//! The symmetry marks of the expanded pattern set (`LibPattern::symmetric`)
//! may only drop pin permutations of matches the matcher still returns;
//! they may never move a label.
//!
//! The marks need interchangeable pins to carry equal `PinTiming`, so a
//! copy of a library whose pins differ only in `input_load` has none —
//! and `input_load` is invisible to labeling. Each builtin library is
//! compared against such a copy: labels must be bit-identical, and every
//! match of the unmarked copy must have a match of the marked library
//! with the same gate and leaf multiset.

use std::collections::HashSet;

use dagmap_benchgen::{alu, array_multiplier, comparator};
use dagmap_core::{label_with_config, MatchMode, Objective};
use dagmap_genlib::{Gate, GateId, Library, PinTiming};
use dagmap_match::{MatchConfig, Matcher};
use dagmap_netlist::{NodeId, SubjectGraph};

const MODES: [MatchMode; 3] = [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended];

fn builtin_libraries() -> [Library; 4] {
    [
        Library::minimal(),
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ]
}

/// `lib` with every pin's `input_load` made distinct, so no two pins share
/// a timing record and no NAND is marked. Everything labeling reads
/// (areas, block delays, patterns) is unchanged.
fn without_marks(lib: &Library) -> Library {
    let gates = lib
        .gates()
        .iter()
        .map(|g| {
            let pins = g.pins().iter().enumerate().map(|(i, (name, t))| {
                let timing = PinTiming {
                    input_load: t.input_load + 1.0 + i as f64,
                    ..*t
                };
                (name.clone(), timing)
            });
            Gate::new(
                g.name(),
                g.area(),
                g.output(),
                g.expr().clone(),
                pins.collect(),
            )
            .unwrap()
        })
        .collect();
    let copy = Library::new(lib.name(), gates).unwrap();
    assert_eq!(
        copy.digest(),
        lib.digest(),
        "{}: labels read the same",
        lib.name()
    );
    assert!(copy.patterns().iter().all(|p| !p.symmetric.contains(&true)));
    copy
}

fn subjects() -> Vec<(&'static str, SubjectGraph)> {
    [
        ("alu4", alu(4)),
        ("cmp8", comparator(8)),
        ("mult4", array_multiplier(4)),
    ]
    .into_iter()
    .map(|(name, net)| (name, SubjectGraph::from_network(&net).unwrap()))
    .collect()
}

#[test]
fn marks_never_move_a_label() {
    for lib in builtin_libraries() {
        assert!(
            lib.patterns().iter().any(|p| p.symmetric.contains(&true)),
            "{}: some pattern has interchangeable pins",
            lib.name()
        );
        let unmarked = without_marks(&lib);
        for (name, subject) in subjects() {
            for mode in MODES {
                for objective in [Objective::Delay, Objective::Area] {
                    let label = |l: &Library| {
                        label_with_config(
                            &subject,
                            l,
                            mode,
                            objective,
                            None,
                            MatchConfig::default(),
                        )
                        .unwrap()
                    };
                    let (marked, reference) = (label(&lib), label(&unmarked));
                    let at = format!("{} {name} {mode:?} {objective:?}", lib.name());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&marked.arrival), bits(&reference.arrival), "{at}");
                    assert_eq!(bits(&marked.area_flow), bits(&reference.area_flow), "{at}");
                    assert_eq!(marked.best, reference.best, "{at}");
                    assert!(
                        marked.matches_enumerated <= reference.matches_enumerated,
                        "{at}"
                    );
                }
            }
        }
    }
}

/// The (gate, sorted leaves) keys of every match at `node`.
fn multisets(
    matcher: &Matcher<'_>,
    subject: &SubjectGraph,
    node: NodeId,
    mode: MatchMode,
) -> HashSet<(GateId, Vec<NodeId>)> {
    matcher
        .matches_at(subject, node, mode)
        .into_iter()
        .map(|m| {
            let mut leaves = m.leaves;
            leaves.sort();
            (m.gate, leaves)
        })
        .collect()
}

#[test]
fn every_skipped_match_is_a_permutation_of_a_returned_one() {
    for lib in builtin_libraries() {
        let unmarked = without_marks(&lib);
        let (with, without) = (Matcher::new(&lib), Matcher::new(&unmarked));
        for (name, subject) in subjects() {
            for mode in MODES {
                for node in subject.network().node_ids() {
                    let returned = multisets(&with, &subject, node, mode);
                    let reference = multisets(&without, &subject, node, mode);
                    assert_eq!(
                        returned,
                        reference,
                        "{} {name} {mode:?} {node:?}",
                        lib.name()
                    );
                }
            }
        }
    }
}

#[test]
fn extended_enumeration_on_alu8_under_44_3_stays_bounded() {
    // Enumerating every pin permutation, this case returned 58,211
    // matches; the marks bring it to a few thousand. The bound keeps the
    // permutation blow-up from coming back.
    let subject = SubjectGraph::from_network(&alu(8)).unwrap();
    let lib = Library::lib_44_3_like();
    let labels = label_with_config(
        &subject,
        &lib,
        MatchMode::Extended,
        Objective::Delay,
        None,
        MatchConfig::default(),
    )
    .unwrap();
    assert!(
        labels.matches_enumerated <= 3_000,
        "{} matches enumerated",
        labels.matches_enumerated
    );
}
