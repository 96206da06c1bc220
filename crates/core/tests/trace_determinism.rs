//! Trace-structure determinism: the observability layer must describe the
//! *algorithm*, not the schedule. The session-lane span structure and the
//! deterministic counters have to come out identical across runs and
//! acceleration settings — and recording must not perturb the mapping
//! itself (bit-identical BLIF and delay with tracing on).
//!
//! This lives in its own integration-test file on purpose: obs sessions are
//! process-global, and sibling `#[test]`s running instrumented code on other
//! threads of the same test binary would stitch their spans and counters
//! into an active session. A dedicated binary gives the session a quiet
//! process. Keep this file to a single `#[test]`.

use dagmap_benchgen::random_network;
use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, SubjectGraph};

/// Counters whose values are part of the mapper's deterministic contract:
/// invariant across acceleration settings. `match.pruned` legitimately
/// varies with acceleration (the automaton index prunes candidates
/// earlier), so it is deliberately absent here.
const INVARIANT_COUNTERS: &[&str] = &[
    "decompose.gates",
    "decompose.multi_fanout",
    "decompose.levels",
    "label.nodes",
    "match.enumerated",
];

#[test]
fn trace_structure_is_invariant_across_runs_and_acceleration() {
    let lib = Library::lib2_like();
    let net = random_network(8, 140, 11);

    // One full traced pipeline run: decompose, map, lower to BLIF.
    let run = |accel: bool| {
        let session = dagmap_obs::start();
        let subject = SubjectGraph::from_network(&net).expect("random nets are acyclic");
        let mut opts = MapOptions::dag();
        if !accel {
            opts = opts.with_match_acceleration(false);
        }
        let (mapped, _) = Mapper::new(&lib)
            .map_with_report(&subject, opts)
            .expect("maps");
        let text = blif::to_string(&mapped.to_network().expect("lowers")).expect("serializes");
        let delay = mapped.delay().to_bits();
        (session.finish(), text, delay)
    };

    let (base_trace, base_blif, base_delay) = run(true);
    let base_sig = base_trace.span_signature();
    assert!(
        base_sig.iter().any(|(p, _)| p.ends_with("label.wave")),
        "signature must see the per-level wavefront spans: {base_sig:?}"
    );
    assert!(
        base_sig.iter().any(|(p, _)| p == "map/cover"),
        "{base_sig:?}"
    );
    for name in INVARIANT_COUNTERS {
        assert!(
            base_trace.counter(name) > 0,
            "baseline run must emit counter `{name}`"
        );
    }

    for accel in [true, false] {
        let (trace, text, delay) = run(accel);
        let cfg = format!("accel={accel}");

        // Observability must be inert: the mapped netlist is bit-identical.
        assert_eq!(text, base_blif, "mapped BLIF drifted under {cfg}");
        assert_eq!(delay, base_delay, "critical delay drifted under {cfg}");

        // The session-lane span tree is the same shape with the same
        // multiplicities: same phases, same number of level spans.
        assert_eq!(
            trace.span_signature(),
            base_sig,
            "span structure drifted under {cfg}"
        );

        for name in INVARIANT_COUNTERS {
            assert_eq!(
                trace.counter(name),
                base_trace.counter(name),
                "counter `{name}` drifted under {cfg}"
            );
        }
    }
}
