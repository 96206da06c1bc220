//! Smoke test of the benchmark at `--smoke` size (one small design per
//! workload, one pass): every workload reports exactly the metrics
//! `BENCHMARK.json` lists, all finite, with no failed op; traced runs
//! account for the whole op time; and the output checker rejects a wrong
//! output.

use std::path::Path;

use dagmap_e2e::check::{Checker, OpOutput, Reference};
use dagmap_e2e::oneshot::run_op;
use dagmap_e2e::workload::{Engine, Workload};
use dagmap_e2e::{run_workload, RunOptions};
use dagmap_genlib::Library;
use dagmap_netlist::blif;
use dagmap_obs::json::{parse, Value};

/// Metric names of one list (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn listed(list: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric has a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_workload_reports_the_listed_metrics_without_failures() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = run_workload(&RunOptions {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                smoke: true,
            });
            let what = format!("{} trace={trace}", workload.name());
            assert!(result.correct(), "{what}: {:?}", result.failures);
            assert_eq!(result.failed, 0, "{what}");
            let mut reported: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
            let mut expected: Vec<&str> = if trace { &per_layer } else { &end_to_end }
                .iter()
                .map(String::as_str)
                .collect();
            reported.sort_unstable();
            expected.sort_unstable();
            assert_eq!(
                reported, expected,
                "{what}: reported metrics differ from BENCHMARK.json"
            );
            for m in &result.metrics {
                assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
            }
            if trace {
                let shares: f64 = result
                    .metrics
                    .iter()
                    .filter(|m| m.name.ends_with(".share") && !m.name.starts_with("genlib."))
                    .map(|m| m.value)
                    .sum();
                assert!(
                    (shares - 1.0).abs() < 1e-9,
                    "{what}: layer shares plus unattributed sum to {shares}"
                );
            }
        }
    }
}

#[test]
fn checker_flags_a_mapping_of_a_different_design() {
    let lib = Library::lib2_like();
    let text = blif::to_string(&dagmap_benchgen::ripple_adder(8)).unwrap();
    let other = blif::to_string(&dagmap_benchgen::comparator(8)).unwrap();
    let input = blif::parse(&text).unwrap();
    let (out, info) = run_op(&text, Engine::Dag, &lib).unwrap();
    let reference = Reference::validate(&input, &out, info.nodes).unwrap();
    let mut checker = Checker::new();
    assert_eq!(checker.check(&reference, &input, &out), Ok(()));

    let (wrong, _) = run_op(&other, Engine::Dag, &lib).unwrap();
    assert!(checker.check(&reference, &input, &wrong).is_err());
    // With the reference's delay, only simulation can tell it apart.
    let disguised = OpOutput {
        delay: reference.delay,
        ..wrong
    };
    let err = checker.check(&reference, &input, &disguised).unwrap_err();
    assert!(err.starts_with("output"), "{err}");
}
