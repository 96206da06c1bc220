//! Determinism of the parallel wavefront labeling engine: on random subject
//! graphs, any thread count must reproduce the serial labels bit for bit —
//! arrivals, area flows, selected matches and critical delay — for every
//! match semantics and both objectives.

use dagmap_benchgen::random_network;
use dagmap_core::{label_with_config, MapOptions, Mapper, MatchMode, Objective};
use dagmap_genlib::Library;
use dagmap_match::MatchConfig;
use dagmap_netlist::SubjectGraph;

#[test]
fn parallel_labeling_is_bit_identical_to_serial() {
    // On single-CPU hosts the engine would decline the worker pool; the
    // point here is to exercise it, so override the hardware heuristic.
    std::env::set_var("DAGMAP_LABEL_FORCE_PARALLEL", "1");
    let lib = Library::lib2_like();
    for seed in 0..6u64 {
        let net = random_network(6 + seed as usize % 4, 60 + 25 * seed as usize, seed);
        let subject = SubjectGraph::from_network(&net).expect("random nets are acyclic");
        for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
            for objective in [Objective::Delay, Objective::Area] {
                let label = |threads| {
                    let config = MatchConfig::default();
                    label_with_config(&subject, &lib, mode, objective, threads, config)
                };
                let serial = label(Some(1)).expect("serial labels");
                for nt in 2..=8usize {
                    let par = label(Some(nt)).expect("parallel labels");
                    assert_eq!(par.threads_used, nt);
                    // Bit-identical, not approximately equal: the parallel
                    // engine performs the same float operations in the same
                    // per-node order.
                    assert_eq!(
                        par.arrival, serial.arrival,
                        "seed={seed} mode={mode:?} obj={objective:?} nt={nt}"
                    );
                    assert_eq!(par.area_flow, serial.area_flow);
                    assert_eq!(par.best, serial.best);
                    assert_eq!(par.matches_enumerated, serial.matches_enumerated);
                    assert_eq!(par.matches_pruned, serial.matches_pruned);
                    assert_eq!(
                        par.critical_delay(&subject).to_bits(),
                        serial.critical_delay(&subject).to_bits()
                    );
                }
            }
        }
    }
}

#[test]
fn threaded_map_report_matches_serial_end_to_end() {
    std::env::set_var("DAGMAP_LABEL_FORCE_PARALLEL", "1");
    let lib = Library::lib_44_1_like();
    let net = random_network(8, 120, 7);
    let subject = SubjectGraph::from_network(&net).expect("acyclic");
    let mapper = Mapper::new(&lib);
    let (_, serial) = mapper
        .map_with_report(&subject, MapOptions::dag().with_num_threads(1))
        .expect("serial map");
    let (_, par) = mapper
        .map_with_report(&subject, MapOptions::dag().with_num_threads(4))
        .expect("parallel map");
    assert_eq!(serial.label_threads, 1);
    assert_eq!(par.label_threads, 4);
    assert_eq!(par.delay.to_bits(), serial.delay.to_bits());
    assert_eq!(par.area.to_bits(), serial.area.to_bits());
    assert_eq!(par.num_cells, serial.num_cells);
    assert_eq!(par.matches_enumerated, serial.matches_enumerated);
    assert_eq!(par.matches_pruned, serial.matches_pruned);
    assert_eq!(par.levels, serial.levels);

    // Acceleration changes how much is pruned, never what is produced: the
    // threaded no-accel run still lands on the serial accelerated answer.
    let (_, plain) = mapper
        .map_with_report(
            &subject,
            MapOptions::dag()
                .with_num_threads(4)
                .with_match_acceleration(false),
        )
        .expect("no-accel map");
    assert_eq!(plain.delay.to_bits(), serial.delay.to_bits());
    assert_eq!(plain.area.to_bits(), serial.area.to_bits());
    assert_eq!(plain.num_cells, serial.num_cells);
    assert_eq!(plain.matches_enumerated, serial.matches_enumerated);
    // Phase durations are measured whether or not a trace session is
    // active; decompose is the subject's own construction time.
    assert!(serial.label_seconds >= 0.0 && serial.cover_seconds >= 0.0);
    assert_eq!(serial.decompose_seconds, subject.decompose_seconds());
    assert_eq!(serial.area_recovery_seconds, 0.0);
}
