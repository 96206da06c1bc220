//! Bit-identity of the match acceleration: the automaton index may only
//! change how much work the matcher performs, never what it returns.
//! Labels (arrivals, area flows, selected matches), mapped netlists and
//! critical delays must agree bit for bit with the index on and off, across
//! every library and match semantics.

use dagmap_benchgen::random_network;
use dagmap_core::{
    label_with_config, label_with_shared_store, MapOptions, Mapper, MatchMode, Objective,
    SharedMatchStore,
};
use dagmap_genlib::Library;
use dagmap_match::MatchConfig;
use dagmap_netlist::SubjectGraph;

const MODES: [MatchMode; 3] = [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended];

/// The index off and on, baseline first.
fn configs() -> [MatchConfig; 2] {
    [MatchConfig::baseline(), MatchConfig::default()]
}

fn builtin_libraries() -> [Library; 4] {
    [
        Library::minimal(),
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ]
}

#[test]
fn labels_are_bit_identical_across_configs_libraries_and_modes() {
    let net = dagmap_benchgen::ripple_adder(6);
    let subject = SubjectGraph::from_network(&net).expect("adder subject");
    for lib in &builtin_libraries() {
        for mode in MODES {
            let reference = label_with_config(
                &subject,
                lib,
                mode,
                Objective::Delay,
                Some(1),
                MatchConfig::baseline(),
            )
            .expect("baseline labels");
            for config in configs() {
                let l = label_with_config(&subject, lib, mode, Objective::Delay, Some(1), config)
                    .expect("accelerated labels");
                let tag = format!("lib={} mode={mode:?} config={config:?}", lib.name());
                assert_eq!(l.arrival, reference.arrival, "{tag}");
                assert_eq!(l.area_flow, reference.area_flow, "{tag}");
                assert_eq!(l.best, reference.best, "{tag}");
                assert_eq!(l.matches_enumerated, reference.matches_enumerated, "{tag}");
                assert_eq!(
                    l.critical_delay(&subject).to_bits(),
                    reference.critical_delay(&subject).to_bits(),
                    "{tag}"
                );
                // The index can only add to the pruned count.
                if config.index {
                    assert!(l.matches_pruned >= reference.matches_pruned, "{tag}");
                } else {
                    assert_eq!(l.matches_pruned, reference.matches_pruned, "{tag}");
                }
                // The retired memo's store call labels as the plain call
                // does, and its counters read 0.
                let store = SharedMatchStore::for_library(lib, 16, 1 << 16);
                let s =
                    label_with_shared_store(&subject, lib, mode, Objective::Delay, config, &store)
                        .expect("labels through the store call");
                assert_eq!(s.arrival, l.arrival, "{tag}");
                assert_eq!(s.best, l.best, "{tag}");
                assert_eq!(s.matches_pruned, l.matches_pruned, "{tag}");
                assert_eq!(
                    (s.memo_lookups, s.memo_hits, s.memo_id_hits),
                    (0, 0, 0),
                    "{tag}"
                );
            }
        }
    }
}

#[test]
fn mapped_netlists_are_byte_identical_with_acceleration_on_or_off() {
    let net = dagmap_benchgen::alu(4);
    let subject = SubjectGraph::from_network(&net).expect("alu subject");
    for lib in &builtin_libraries() {
        let mapper = Mapper::new(lib);
        for base in [
            MapOptions::dag(),
            MapOptions::tree(),
            MapOptions::dag_extended(),
            MapOptions::dag().with_area_recovery(),
        ] {
            let on = mapper.map(&subject, base).expect("accelerated map");
            let off = mapper
                .map(&subject, base.with_match_acceleration(false))
                .expect("baseline map");
            let blif_on =
                dagmap_netlist::blif::to_string(&on.to_network().expect("lower")).expect("blif");
            let blif_off =
                dagmap_netlist::blif::to_string(&off.to_network().expect("lower")).expect("blif");
            assert_eq!(
                blif_on,
                blif_off,
                "lib={} algo={}",
                lib.name(),
                base.algorithm_name()
            );
            assert_eq!(on.delay().to_bits(), off.delay().to_bits());
            assert_eq!(on.area().to_bits(), off.area().to_bits());
        }
    }
}

#[test]
fn seeded_random_dags_label_identically_under_every_acceleration() {
    let libs = builtin_libraries();
    for seed in 0..8u64 {
        let net = random_network(5 + seed as usize % 4, 45 + 18 * seed as usize, seed);
        let subject = SubjectGraph::from_network(&net).expect("random nets are acyclic");
        let lib = &libs[seed as usize % libs.len()];
        let mode = MODES[seed as usize % MODES.len()];
        for objective in [Objective::Delay, Objective::Area] {
            let reference = label_with_config(
                &subject,
                lib,
                mode,
                objective,
                Some(1),
                MatchConfig::baseline(),
            )
            .expect("baseline labels");
            for config in configs() {
                let l = label_with_config(&subject, lib, mode, objective, Some(1), config)
                    .expect("accelerated labels");
                let tag = format!(
                    "seed={seed} lib={} mode={mode:?} obj={objective:?} config={config:?}",
                    lib.name()
                );
                assert_eq!(l.arrival, reference.arrival, "{tag}");
                assert_eq!(l.best, reference.best, "{tag}");
                assert_eq!(l.matches_enumerated, reference.matches_enumerated, "{tag}");
            }
        }
    }
}

/// The designs where the automaton prunes most: the c3540 and c6288
/// analogues under 44-3, in all three match modes. Labels equal the
/// reference scan's in every field the mapping reads, and prune at least as
/// much.
#[test]
fn automaton_labels_the_44_3_iscas_analogues_like_the_reference_scan() {
    let lib = Library::lib_44_3_like();
    for net in [dagmap_benchgen::c3540_like(), dagmap_benchgen::c6288_like()] {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        for mode in MODES {
            let label = |config| {
                label_with_config(&subject, &lib, mode, Objective::Delay, None, config)
                    .expect("labels")
            };
            let (reference, l) = (
                label(MatchConfig::baseline()),
                label(MatchConfig::default()),
            );
            let tag = format!("{} mode={mode:?}", subject.network().name());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&l.arrival), bits(&reference.arrival), "{tag}");
            assert_eq!(bits(&l.area_flow), bits(&reference.area_flow), "{tag}");
            assert_eq!(l.best, reference.best, "{tag}");
            assert_eq!(l.matches_enumerated, reference.matches_enumerated, "{tag}");
            assert!(l.matches_pruned >= reference.matches_pruned, "{tag}");
        }
    }
}
