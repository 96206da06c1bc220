//! Replays every minimized fuzzer repro in `tests/corpus/` through the full
//! invariant battery, turning each past violation into a permanent
//! regression test, and checks the shrinker end to end through the
//! `dagmap::fuzz` facade.

use std::fs;
use std::path::Path;

use dagmap::fuzz::{check_network, libraries_under_test, shrink, Matrix};
use dagmap::netlist::{blif, sim, Network, NodeFn};

/// Every corpus repro must map cleanly under the whole configuration
/// matrix. A failure here means a previously-fixed bug regressed.
#[test]
fn corpus_repros_stay_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut repros: Vec<_> = match fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "blif"))
            .collect(),
        // No corpus directory at all is fine: nothing to replay.
        Err(_) => return,
    };
    repros.sort();

    let libs = libraries_under_test(true).expect("libraries build");
    let matrix = Matrix {
        check_retime: true,
        check_boolean: true,
    };
    for path in repros {
        let text = fs::read_to_string(&path).expect("corpus file reads");
        let net = blif::parse(&text).expect("corpus file parses as BLIF");
        let outcome = check_network(&net, &libs, &matrix).expect("repro maps");
        assert!(
            outcome.violations.is_empty(),
            "regression: {} violates {:?}",
            path.display(),
            outcome.violations,
        );
    }
}

/// End-to-end shrinker check through the facade: plant an inequivalence
/// (one gate function flipped) and confirm `shrink::minimize` preserves the
/// violated invariant while getting the repro small.
#[test]
fn shrinker_preserves_planted_inequivalence() {
    fn with_first_and_flipped(net: &Network) -> Option<Network> {
        let mut out = Network::new(net.name());
        let mut remap = vec![None; net.num_nodes()];
        let mut flipped = false;
        for &pi in net.inputs() {
            remap[pi.index()] = Some(out.add_input(net.node(pi).name().unwrap()));
        }
        for id in net.topo_order().ok()? {
            if remap[id.index()].is_some() {
                continue;
            }
            let node = net.node(id);
            let fanins: Vec<_> = node
                .fanins()
                .iter()
                .map(|f| remap[f.index()].unwrap())
                .collect();
            let func = match node.func() {
                NodeFn::And if !flipped => {
                    flipped = true;
                    NodeFn::Or
                }
                f => f.clone(),
            };
            remap[id.index()] = Some(out.add_node(func, fanins).ok()?);
        }
        for o in net.outputs() {
            out.add_output(&o.name, remap[o.driver.index()].unwrap());
        }
        flipped.then_some(out)
    }

    let net = dagmap::benchgen::random_network(7, 90, 11);
    let inequivalent = |n: &Network| {
        with_first_and_flipped(n)
            .is_some_and(|m| !sim::equivalent_random(n, &m, 8, 3).unwrap_or(true))
    };
    assert!(inequivalent(&net), "the planted flip changes the function");

    let min = shrink::minimize(&net, &mut |n| inequivalent(n));
    assert!(
        inequivalent(&min),
        "the violated invariant survives shrinking"
    );
    assert!(
        min.num_nodes() <= 25,
        "a planted single-gate bug shrinks to a tiny repro, got {} nodes",
        min.num_nodes()
    );
    min.validate().expect("the shrunk network is well-formed");
}
