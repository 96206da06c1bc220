use dagmap_genlib::Library;
use dagmap_match::Match;
use dagmap_netlist::{NodeFn, NodeId, SubjectGraph};

use crate::mapped::{Cell, KindTable, MappedNetlist, Signal};
use crate::MapError;

/// Constructs the mapped netlist from per-node selected matches
/// (Section 3.3 of the paper).
///
/// A work queue starts at the primary-output drivers (and latch data
/// inputs); each popped node instantiates its selected gate, and the gate's
/// leaves are scheduled in turn unless already available. Subject logic
/// covered *inside* two different matches is implicitly duplicated — the
/// mechanism of Figure 2 — while nodes used as leaves by several matches are
/// shared.
pub(crate) fn construct(
    subject: &SubjectGraph,
    library: &Library,
    selected: &[Option<Match>],
) -> Result<MappedNetlist, MapError> {
    let net = subject.network();
    // Dense per-node tables (the subject's node ids are contiguous): the
    // resolved signal of every node reachable so far, and the DFS pending
    // marker. These replace hash containers on the hot construction path.
    let mut memo: Vec<Option<Signal>> = vec![None; net.num_nodes()];
    let mut inputs = Vec::new();
    for (i, &pi) in net.inputs().iter().enumerate() {
        memo[pi.index()] = Some(Signal::Input(
            u32::try_from(i).expect("input count fits u32"),
        ));
        inputs.push(
            net.node(pi)
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("pi_{i}")),
        );
    }
    // Latches break cycles: assign their signals up front, resolve data last.
    let mut latch_nodes = Vec::new();
    for id in net.node_ids() {
        match net.node(id).func() {
            NodeFn::Latch => {
                let idx = u32::try_from(latch_nodes.len()).expect("latch count fits u32");
                memo[id.index()] = Some(Signal::Latch(idx));
                latch_nodes.push(id);
            }
            NodeFn::Const(v) => {
                memo[id.index()] = Some(Signal::Const(*v));
            }
            _ => {}
        }
    }

    enum Task {
        Visit(NodeId),
        Emit(NodeId),
    }
    let mut cells: Vec<Cell> = Vec::new();
    let mut kinds = KindTable::new(library);
    let mut pending: Vec<bool> = vec![false; net.num_nodes()];
    let mut stack: Vec<Task> = Vec::new();

    let mut roots: Vec<NodeId> = net.outputs().iter().map(|o| o.driver).collect();
    roots.extend(latch_nodes.iter().map(|&l| net.node(l).fanins()[0]));
    for root in roots {
        stack.push(Task::Visit(root));
    }
    while let Some(task) = stack.pop() {
        match task {
            Task::Visit(n) => {
                if memo[n.index()].is_some() || std::mem::replace(&mut pending[n.index()], true) {
                    continue;
                }
                let m = selected[n.index()]
                    .as_ref()
                    .ok_or(MapError::NoMatch { node: n })?;
                stack.push(Task::Emit(n));
                for &leaf in &m.leaves {
                    stack.push(Task::Visit(leaf));
                }
            }
            Task::Emit(n) => {
                let m = selected[n.index()]
                    .as_ref()
                    .expect("emit follows a successful visit");
                let fanins: Vec<Signal> = m
                    .leaves
                    .iter()
                    .map(|l| memo[l.index()].expect("leaves resolve before their consumer emits"))
                    .collect();
                let idx = u32::try_from(cells.len()).expect("cell count fits u32");
                cells.push(Cell {
                    kind: kinds.intern(m.gate),
                    fanins,
                    subject_root: n,
                    covered: m.covered.clone(),
                });
                memo[n.index()] = Some(Signal::Cell(idx));
            }
        }
    }

    let gate_kinds = kinds.into_kinds();
    // Timing: cells are emitted fanins-first, so one forward pass suffices.
    let mut arrivals = vec![0.0f64; cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        let kind = &gate_kinds[cell.kind as usize];
        let mut t: f64 = 0.0;
        for (pin, &f) in cell.fanins.iter().enumerate() {
            let base = match f {
                Signal::Cell(c) => arrivals[c as usize],
                _ => 0.0,
            };
            t = t.max(base + kind.pin_delays[pin]);
        }
        arrivals[i] = t;
    }
    let area = cells.iter().map(|c| gate_kinds[c.kind as usize].area).sum();

    let outputs: Vec<(String, Signal)> = net
        .outputs()
        .iter()
        .map(|o| {
            (
                o.name.clone(),
                memo[o.driver.index()].expect("output drivers were roots"),
            )
        })
        .collect();
    let latches: Vec<(String, Signal)> = latch_nodes
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let name = net
                .node(l)
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("latch_{i}"));
            let data = net.node(l).fanins()[0];
            (
                name,
                memo[data.index()].expect("latch data inputs were roots"),
            )
        })
        .collect();

    let signal_arrival = |s: Signal| -> f64 {
        match s {
            Signal::Cell(c) => arrivals[c as usize],
            _ => 0.0,
        }
    };
    let mut delay: f64 = 0.0;
    for (_, s) in &outputs {
        delay = delay.max(signal_arrival(*s));
    }
    for (_, s) in &latches {
        delay = delay.max(signal_arrival(*s));
    }

    Ok(MappedNetlist {
        name: net.name().to_owned(),
        gate_kinds,
        cells,
        inputs,
        latches,
        outputs,
        arrivals,
        delay,
        area,
        lowered: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use crate::{verify, MapOptions, Mapper, Signal};
    use dagmap_genlib::Library;
    use dagmap_netlist::{Network, NodeFn, SubjectGraph};

    fn map(net: &Network) -> crate::MappedNetlist {
        let subject = SubjectGraph::from_network(net).expect("decomposes");
        let mapped = Mapper::new(&Library::lib2_like())
            .map(&subject, MapOptions::dag())
            .expect("maps");
        verify::check(&mapped, &subject, 0xC0E).expect("verifies");
        mapped
    }

    #[test]
    fn constant_outputs_become_const_signals() {
        let mut net = Network::new("k");
        let a = net.add_input("a");
        let k1 = net.add_node(NodeFn::Const(true), vec![]).unwrap();
        let z = net.add_node(NodeFn::Nand, vec![a, k1]).unwrap(); // folds to !a
        let gated = net.add_node(NodeFn::And, vec![k1, k1]).unwrap(); // folds to const 1
        net.add_output("one", gated);
        net.add_output("na", z);
        let mapped = map(&net);
        let (name, sig) = &mapped.outputs()[0];
        assert_eq!(name, "one");
        assert_eq!(*sig, Signal::Const(true));
        // The folded !a still maps to a real inverter cell.
        assert!(matches!(mapped.outputs()[1].1, Signal::Cell(_)));
    }

    #[test]
    fn shared_output_drivers_share_one_cell() {
        let mut net = Network::new("share");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        net.add_output("f", g);
        net.add_output("g", g);
        let mapped = map(&net);
        assert_eq!(mapped.outputs()[0].1, mapped.outputs()[1].1);
        assert_eq!(mapped.num_cells(), 1);
    }

    #[test]
    fn latch_data_and_output_share_logic() {
        let mut net = Network::new("mixed");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let l = net.add_node(NodeFn::Latch, vec![g]).unwrap();
        net.set_node_name(l, "q");
        net.add_output("comb", g); // the same cone drives a PO and a latch
        net.add_output("state", l);
        let mapped = map(&net);
        assert_eq!(mapped.latches().len(), 1);
        // One AND cell serves both sinks.
        assert_eq!(mapped.num_cells(), 1);
        assert_eq!(mapped.latches()[0].1, mapped.outputs()[0].1);
    }

    #[test]
    fn cells_are_emitted_in_topological_order() {
        let net = dagmap_benchgen::alu(4);
        let mapped = map(&net);
        for (i, cell) in mapped.cells().iter().enumerate() {
            for f in &cell.fanins {
                if let Signal::Cell(c) = f {
                    assert!((*c as usize) < i, "cell {i} consumes later cell {c}");
                }
            }
        }
    }

    #[test]
    fn unreferenced_selected_matches_are_not_emitted() {
        // A cone absorbed entirely by a bigger match leaves its own best
        // match unused; the cover must not materialize it.
        let mut net = Network::new("absorb");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::And, vec![g, c]).unwrap();
        net.add_output("f", h);
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let library = Library::lib_44_3_like();
        let mapped = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .expect("maps");
        // and3 covers everything: exactly one cell.
        assert_eq!(mapped.num_cells(), 1);
    }
}
