//! Optimality cross-checks: the paper claims the DAG labels are *optimal*
//! arrivals; these tests corner that claim from several independent sides.

use dagmap::core::{
    label_with_config, relabel_incremental, Labels, MapOptions, Mapper, Objective, RetainedLabels,
};
use dagmap::flowmap::{cuts, label_network};
use dagmap::genlib::{Gate, Library};
use dagmap::matching::{MatchConfig, MatchMode};
use dagmap::netlist::SubjectGraph;

/// A library of unit-delay gates whose patterns are exactly the k-feasible
/// cones of NAND/INV logic... not constructible in general; instead this
/// compares against FlowMap on the *minimal* relationship that does hold:
/// under a unit-delay inverter+nand2 library the optimal mapped delay is
/// exactly the subject depth.
#[test]
fn minimal_library_delay_is_subject_depth() {
    for seed in 0..8 {
        let net = dagmap::benchgen::random_network(6, 90, seed);
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let mapped = Mapper::new(&Library::minimal())
            .map(&subject, MapOptions::dag())
            .expect("maps");
        assert_eq!(mapped.delay(), f64::from(subject.depth()), "seed {seed}");
    }
}

/// Monotonicity in the library: adding gates can only improve the optimum.
/// `44-3` is a strict superset of `44-1`, so its DAG delay is never worse.
#[test]
fn superset_library_never_hurts() {
    let small = Library::lib_44_1_like();
    let rich = Library::lib_44_3_like();
    for (name, net) in [
        ("adder", dagmap::benchgen::ripple_adder(12)),
        ("alu", dagmap::benchgen::alu(6)),
        ("mult", dagmap::benchgen::array_multiplier(5)),
        ("rand", dagmap::benchgen::random_network(8, 150, 9)),
    ] {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let d_small = Mapper::new(&small)
            .map(&subject, MapOptions::dag())
            .expect("maps")
            .delay();
        let d_rich = Mapper::new(&rich)
            .map(&subject, MapOptions::dag())
            .expect("maps")
            .delay();
        assert!(d_rich <= d_small + 1e-9, "{name}: {d_rich} vs {d_small}");
    }
}

/// Brute-force oracle on tiny subject graphs: enumerate *every* cover by
/// recursion over match choices and check the DP found the true optimum.
/// The incremental pass (the same DP given a snapshot) is held to the same
/// oracle on an edited copy.
#[test]
fn exhaustive_cover_oracle_on_tiny_graphs() {
    use dagmap::matching::Matcher;
    use dagmap::netlist::{NetEdit, NodeFn, NodeId};

    fn oracle_arrival(
        subject: &SubjectGraph,
        library: &Library,
        matcher: &Matcher,
        node: NodeId,
        memo: &mut std::collections::HashMap<NodeId, f64>,
    ) -> f64 {
        if let Some(&v) = memo.get(&node) {
            return v;
        }
        let net = subject.network();
        let v = match net.node(node).func() {
            NodeFn::Input | NodeFn::Const(_) | NodeFn::Latch => 0.0,
            _ => {
                let mut best = f64::INFINITY;
                for m in matcher.matches_at(subject, node, MatchMode::Standard) {
                    let gate = library.gate(m.gate);
                    let mut t: f64 = 0.0;
                    for (pin, leaf) in m.leaves.iter().enumerate() {
                        t = t.max(
                            oracle_arrival(subject, library, matcher, *leaf, memo)
                                + gate.pin_delay(pin),
                        );
                    }
                    best = best.min(t);
                }
                best
            }
        };
        memo.insert(node, v);
        v
    }

    // The oracle above IS the DP (memoized); the point of this test is the
    // recursion order independence: it computes demand-driven from outputs,
    // while the mapper labels bottom-up. Equality over every PO confirms
    // the label table is self-consistent with the optimality recurrence.
    let library = Library::lib2_like();
    let matcher = Matcher::new(&library);
    let label = |subject: &SubjectGraph| {
        let (mode, config) = (MatchMode::Standard, MatchConfig::default());
        label_with_config(subject, &library, mode, Objective::Delay, Some(1), config)
            .expect("labels")
    };
    let check = |subject: &SubjectGraph, labels: &Labels, what: &str| {
        let mut memo = std::collections::HashMap::new();
        for out in subject.network().outputs() {
            let want = oracle_arrival(subject, &library, &matcher, out.driver, &mut memo);
            let got = labels.arrival_of(out.driver);
            assert!(
                (want - got).abs() < 1e-9,
                "{what} output {}: oracle {want} vs label {got}",
                out.name
            );
        }
    };
    for seed in 0..6 {
        let mut net = dagmap::benchgen::random_network(5, 25, seed);
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let labels = label(&subject);
        check(&subject, &labels, &format!("seed {seed} cold"));

        // XOR a fresh input into the first output's driver, then relabel
        // the edited copy against the cold run's snapshot.
        let retained = RetainedLabels::from_labels(&subject, &labels).expect("injective");
        let first = net.outputs()[0].clone();
        let patch = net.add_input("patch");
        let xor = net
            .add_node(NodeFn::Xor, vec![first.driver, patch])
            .expect("xor");
        net.apply_edits(vec![NetEdit::SetOutputDriver {
            output: first.name,
            driver: xor,
        }])
        .expect("redirect");
        let edited = SubjectGraph::from_network(&net).expect("decomposes");
        let (incremental, stats) = relabel_incremental(
            &edited,
            &library,
            MatchMode::Standard,
            Objective::Delay,
            MatchConfig::default(),
            &retained,
            None,
        )
        .expect("relabels");
        assert!(
            stats.reused > 0,
            "seed {seed}: the edit leaves labels to reuse"
        );
        check(&edited, &incremental, &format!("seed {seed} incremental"));
        let cold = label(&edited);
        assert_eq!(incremental.arrival, cold.arrival, "seed {seed}");
        assert_eq!(incremental.area_flow, cold.area_flow, "seed {seed}");
        assert_eq!(incremental.best, cold.best, "seed {seed}");
    }
}

/// FlowMap's own optimality: flow-based labels equal the exhaustive-cut
/// oracle on mid-size subject graphs (beyond the unit tests' tiny cases).
#[test]
fn flowmap_labels_match_cut_oracle_on_benchmarks() {
    let net = dagmap::benchgen::comparator(6);
    let subject = SubjectGraph::from_network(&net)
        .expect("decomposes")
        .into_network();
    for k in [3usize, 4] {
        let labels = label_network(&subject, k).expect("labels");
        let oracle = cuts::depth_via_cuts(&subject, k).expect("oracle");
        for id in subject.node_ids() {
            assert_eq!(labels.label[id.index()], oracle[id.index()], "k={k} {id}");
        }
    }
}

/// Truly independent oracle: enumerate EVERY cover (the cartesian product
/// of per-node match choices), realize each, and take the minimum delay.
/// The DP must find the same optimum — this does not share the DP's
/// recurrence, only the cover-construction code.
#[test]
fn exhaustive_all_covers_oracle() {
    use dagmap::core::verify;
    use dagmap::matching::{Match, Matcher};
    use dagmap::netlist::{Network, NodeFn};
    use dagmap_rng::StdRng;

    // Small library so the product of choices stays tractable.
    let library = Library::new(
        "tiny",
        vec![
            Gate::uniform("inv", 1.0, "O", "!a", 1.0).expect("gate"),
            Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).expect("gate"),
            Gate::uniform("and2", 3.0, "O", "a*b", 1.6).expect("gate"),
            Gate::uniform("aoi21", 3.0, "O", "!(a*b+c)", 1.4).expect("gate"),
        ],
    )
    .expect("library");

    // Tiny random NAND/INV subjects: 4-6 internal nodes.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(format!("tiny{seed}"));
        let mut pool = vec![net.add_input("a"), net.add_input("b"), net.add_input("c")];
        let n_nodes = rng.random_range(4..7usize);
        for _ in 0..n_nodes {
            let x = pool[rng.random_range(0..pool.len())];
            let node = if rng.random_bool(0.7) {
                let y = pool[rng.random_range(0..pool.len())];
                if x == y {
                    net.add_node(NodeFn::Not, vec![x]).expect("arity")
                } else {
                    net.add_node(NodeFn::Nand, vec![x, y]).expect("arity")
                }
            } else {
                net.add_node(NodeFn::Not, vec![x]).expect("arity")
            };
            pool.push(node);
        }
        let last = *pool.last().expect("nonempty");
        net.add_output("f", last);
        let Ok(subject) = SubjectGraph::from_subject_network(net) else {
            continue;
        };

        // Per-node match lists (standard mode).
        let matcher = Matcher::new(&library);
        let snet = subject.network();
        let internal: Vec<_> = snet
            .node_ids()
            .filter(|&id| matches!(snet.node(id).func(), NodeFn::Nand | NodeFn::Not))
            .collect();
        let per_node: Vec<Vec<Match>> = internal
            .iter()
            .map(|&id| matcher.matches_at(&subject, id, MatchMode::Standard))
            .collect();
        if per_node.iter().any(Vec::is_empty) {
            continue; // unreachable dead node without matches
        }

        // Enumerate the full product of choices (bounded by construction).
        let mapper = Mapper::new(&library);
        let total: usize = per_node.iter().map(Vec::len).product();
        assert!(total <= 1 << 20, "seed {seed}: oracle blowup {total}");
        let mut best = f64::INFINITY;
        let mut selection: Vec<Option<Match>> = vec![None; snet.num_nodes()];
        fn recurse(
            idx: usize,
            internal: &[dagmap::netlist::NodeId],
            per_node: &[Vec<Match>],
            selection: &mut Vec<Option<Match>>,
            subject: &SubjectGraph,
            mapper: &Mapper,
            best: &mut f64,
        ) {
            if idx == internal.len() {
                let mapped = mapper
                    .realize(subject, selection)
                    .expect("every selection realizes");
                *best = best.min(mapped.delay());
                return;
            }
            for m in &per_node[idx] {
                selection[internal[idx].index()] = Some(m.clone());
                recurse(
                    idx + 1,
                    internal,
                    per_node,
                    selection,
                    subject,
                    mapper,
                    best,
                );
            }
            selection[internal[idx].index()] = None;
        }
        recurse(
            0,
            &internal,
            &per_node,
            &mut selection,
            &subject,
            &mapper,
            &mut best,
        );

        let mapped = mapper.map(&subject, MapOptions::dag()).expect("maps");
        verify::check(&mapped, &subject, seed).expect("verifies");
        assert!(
            (mapped.delay() - best).abs() < 1e-9,
            "seed {seed}: DP delay {} vs exhaustive optimum {best}",
            mapped.delay()
        );
    }
}

/// A hand-built worked example with a known optimum: chain of 6 NANDs,
/// library with nand2 (delay 1) and a "super gate" covering three levels at
/// delay 1.5 — optimal arrival alternates accordingly.
#[test]
fn worked_example_has_the_predicted_optimum() {
    use dagmap::netlist::{Network, NodeFn};
    let mut net = Network::new("chain6");
    let mut cur = net.add_input("x0");
    for i in 0..6 {
        let y = net.add_input(format!("y{i}"));
        cur = net.add_node(NodeFn::Nand, vec![cur, y]).expect("arity");
    }
    net.add_output("f", cur);
    let subject = SubjectGraph::from_subject_network(net).expect("valid");

    // nand2: delay 1. chain3 = !(!(!(a*b)*c)*d): covers three chained NANDs
    // at delay 1.5.
    let library = Library::new(
        "worked",
        vec![
            Gate::uniform("inv", 1.0, "O", "!a", 1.0).expect("gate"),
            Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).expect("gate"),
            Gate::uniform("chain3", 5.0, "O", "!(!(!(a*b)*c)*d)", 1.5).expect("gate"),
        ],
    )
    .expect("library");
    let mapped = Mapper::new(&library)
        .map(&subject, MapOptions::dag())
        .expect("maps");
    // Optimal: two chain3 gates back to back: 1.5 + 1.5 = 3.0
    // (six nand2 levels would cost 6.0).
    assert_eq!(mapped.delay(), 3.0);
}

/// The area estimate of `Objective::Area` with exact matches is claimed to
/// be exact on pure trees: verify against brute force over all exact-match
/// covers of small random *tree* subjects.
#[test]
fn tree_area_objective_is_optimal_on_trees() {
    use dagmap::matching::{Match, Matcher};
    use dagmap::netlist::{Network, NodeFn};
    use dagmap_rng::StdRng;

    let library = Library::new(
        "area_tiny",
        vec![
            Gate::uniform("inv", 1.0, "O", "!a", 1.0).expect("gate"),
            Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).expect("gate"),
            Gate::uniform("and2", 2.5, "O", "a*b", 1.6).expect("gate"),
            Gate::uniform("nand3", 3.5, "O", "!(a*b*c)", 1.3).expect("gate"),
        ],
    )
    .expect("library");

    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random NAND/INV *tree*: every node used at most once.
        let mut net = Network::new(format!("tree{seed}"));
        let mut frontier: Vec<dagmap::netlist::NodeId> =
            (0..5).map(|i| net.add_input(format!("x{i}"))).collect();
        for _ in 0..rng.random_range(3..7usize) {
            let a = frontier.swap_remove(rng.random_range(0..frontier.len()));
            let node = if frontier.len() > 1 && rng.random_bool(0.7) {
                let b = frontier.swap_remove(rng.random_range(0..frontier.len()));
                net.add_node(NodeFn::Nand, vec![a, b]).expect("arity")
            } else {
                net.add_node(NodeFn::Not, vec![a]).expect("arity")
            };
            frontier.push(node);
        }
        // Single output = the last node, so the subject is one tree.
        let root = *frontier.last().expect("nonempty");
        net.add_output("f", root);
        let subject = SubjectGraph::from_subject_network(net).expect("valid");

        // Brute force: every exact-match cover, minimum total area.
        let matcher = Matcher::new(&library);
        let snet = subject.network();
        let internal: Vec<_> = snet
            .node_ids()
            .filter(|&id| matches!(snet.node(id).func(), NodeFn::Nand | NodeFn::Not))
            .collect();
        let per_node: Vec<Vec<Match>> = internal
            .iter()
            .map(|&id| matcher.matches_at(&subject, id, MatchMode::Exact))
            .collect();
        let mapper = Mapper::new(&library);
        let mut best = f64::INFINITY;
        let mut selection: Vec<Option<Match>> = vec![None; snet.num_nodes()];
        fn recurse(
            idx: usize,
            internal: &[dagmap::netlist::NodeId],
            per_node: &[Vec<Match>],
            selection: &mut Vec<Option<Match>>,
            subject: &SubjectGraph,
            mapper: &Mapper,
            best: &mut f64,
        ) {
            if idx == internal.len() {
                let mapped = mapper
                    .realize(subject, selection)
                    .expect("every selection realizes");
                *best = best.min(mapped.area());
                return;
            }
            for m in &per_node[idx] {
                selection[internal[idx].index()] = Some(m.clone());
                recurse(
                    idx + 1,
                    internal,
                    per_node,
                    selection,
                    subject,
                    mapper,
                    best,
                );
            }
            selection[internal[idx].index()] = None;
        }
        recurse(
            0,
            &internal,
            &per_node,
            &mut selection,
            &subject,
            &mapper,
            &mut best,
        );

        let mapped = mapper.map(&subject, MapOptions::tree_area()).expect("maps");
        assert!(
            (mapped.area() - best).abs() < 1e-9,
            "seed {seed}: DP area {} vs exhaustive optimum {best}",
            mapped.area()
        );
    }
}
