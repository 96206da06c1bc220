//! Independent checks on mapped netlists.
//!
//! Every experiment in the repository funnels its mappings through these:
//! functional equivalence against the subject graph by seeded word-parallel
//! random simulation, and timing consistency between the arrivals stored at
//! construction time and a from-scratch recomputation.

use std::fmt;

use dagmap_netlist::{sim, Network, SubjectGraph};

use crate::{MapError, MappedNetlist};

/// Absolute floor of the closeness tolerance.
const ABS_TOL: f64 = 1e-9;
/// Relative component: arrivals accumulated over hundreds of gate delays
/// (supergate-priced libraries especially), and area flows summed over
/// thousands of cells, drift by a few ULPs per addition when two sums
/// associate their terms differently.
const REL_TOL: f64 = 1e-12;

/// Mixed absolute/relative closeness, `|a − b| ≤ 1e-9 + 1e-12·max(|a|, |b|)`:
/// an absolute epsilon alone trips spuriously once the magnitudes grow
/// past ~1e3. The timing check compares arrivals through it, and the
/// labeler and area recovery rank candidates through it (the tie rule,
/// `label::tie_cmp`), so one tolerance decides what "equal" means
/// everywhere.
pub(crate) fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ABS_TOL + REL_TOL * a.abs().max(b.abs())
}

/// One invariant violation found by [`report`], machine-readable so the
/// differential fuzzer can classify, minimize and replay it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A cell's stored arrival disagrees with the from-scratch recomputation
    /// beyond the mixed absolute/relative tolerance.
    TimingDrift {
        /// Index of the offending cell.
        cell: usize,
        /// Arrival recorded at construction time.
        stored: f64,
        /// Independently recomputed arrival.
        recomputed: f64,
    },
    /// The mapped netlist computes a different function than the golden
    /// network on at least one simulated vector.
    NotEquivalent {
        /// Seed of the random simulation that exposed the mismatch.
        seed: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TimingDrift {
                cell,
                stored,
                recomputed,
            } => write!(
                f,
                "cell {cell}: stored arrival {stored} disagrees with recomputation {recomputed}"
            ),
            Violation::NotEquivalent { seed } => {
                write!(
                    f,
                    "mapped netlist is not equivalent to its subject graph (sim seed {seed})"
                )
            }
        }
    }
}

/// Checks the mapped netlist against a golden network (the subject graph or
/// the pre-decomposition network) on `rounds * 64` random vectors.
///
/// The netlist is lowered once and the lowering cached in it, so a later
/// [`MappedNetlist::to_network`] (writeback) copies it instead of lowering
/// again.
///
/// # Errors
///
/// Fails if the netlists' interfaces cannot be paired by name or either is
/// cyclic.
pub fn equivalent(
    mapped: &MappedNetlist,
    golden: &Network,
    rounds: usize,
    seed: u64,
) -> Result<bool, MapError> {
    let lowered = mapped.lowered()?;
    if golden.num_latches() > 0 {
        Ok(sim::equivalent_random_sequential(
            golden, lowered, 16, rounds, seed,
        )?)
    } else {
        Ok(sim::equivalent_random(golden, lowered, rounds, seed)?)
    }
}

/// Checks that the stored arrival times match an independent recomputation
/// under the mixed absolute/relative tolerance.
pub fn timing_consistent(mapped: &MappedNetlist) -> bool {
    timing_violations(mapped).is_empty()
}

/// Every cell whose stored arrival drifted from the recomputation.
pub fn timing_violations(mapped: &MappedNetlist) -> Vec<Violation> {
    mapped
        .recompute_arrivals()
        .iter()
        .enumerate()
        .filter(|&(i, &t)| !close(t, mapped.cell_arrival(i)))
        .map(|(i, &t)| Violation::TimingDrift {
            cell: i,
            stored: mapped.cell_arrival(i),
            recomputed: t,
        })
        .collect()
}

/// Runs the full battery and returns *every* violation found, rather than
/// erroring on the first: the fuzzer wants the complete picture per case.
///
/// # Errors
///
/// Fails only on substrate errors (unpairable interfaces, cyclic netlists) —
/// an invariant *violation* is data, not an error.
pub fn report(
    mapped: &MappedNetlist,
    subject: &SubjectGraph,
    seed: u64,
) -> Result<Vec<Violation>, MapError> {
    let _span = dagmap_obs::span("verify");
    let mut violations = timing_violations(mapped);
    if !equivalent(mapped, subject.network(), 32, seed)? {
        violations.push(Violation::NotEquivalent { seed });
    }
    Ok(violations)
}

/// Runs the full battery: equivalence against the subject graph and timing
/// consistency.
///
/// # Errors
///
/// Returns a descriptive [`MapError::Netlist`] wrapping the first failed
/// check.
pub fn check(mapped: &MappedNetlist, subject: &SubjectGraph, seed: u64) -> Result<(), MapError> {
    match report(mapped, subject, seed)?.into_iter().next() {
        None => Ok(()),
        Some(v) => Err(MapError::Netlist(dagmap_netlist::NetlistError::Invariant(
            v.to_string(),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapOptions, Mapper};
    use dagmap_genlib::Library;
    use dagmap_netlist::{Network, NodeFn};

    #[test]
    fn full_check_passes_for_all_modes() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        let y = net.add_node(NodeFn::And, vec![x, c]).unwrap();
        let z = net.add_node(NodeFn::Or, vec![x, y]).unwrap();
        net.add_output("f", z);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let mapper = Mapper::new(&lib);
        for opts in [
            MapOptions::dag(),
            MapOptions::tree(),
            MapOptions::dag_extended(),
            MapOptions::dag().with_area_recovery(),
        ] {
            let mapped = mapper.map(&subject, opts).unwrap();
            check(&mapped, &subject, 17).unwrap();
        }
    }

    #[test]
    fn deep_supergate_chain_stays_timing_consistent() {
        // A long NAND chain mapped with a library whose gates carry
        // non-representable delays (0.1 + 1/3): arrivals accumulate to the
        // hundreds, where the old absolute-only 1e-9 epsilon sat within
        // float reassociation noise. The mixed tolerance must not trip.
        use dagmap_genlib::Gate;
        let mut net = Network::new("chain");
        let mut cur = net.add_input("x0");
        for i in 0..400 {
            let y = net.add_input(format!("y{i}"));
            cur = net.add_node(NodeFn::Nand, vec![cur, y]).unwrap();
        }
        net.add_output("f", cur);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let awkward = 0.1 + 1.0 / 3.0;
        let library = Library::new(
            "awkward",
            vec![
                Gate::uniform("inv", 1.0, "O", "!a", awkward).unwrap(),
                Gate::uniform("nand2", 2.0, "O", "!(a*b)", awkward).unwrap(),
                Gate::uniform("chain3", 5.0, "O", "!(!(!(a*b)*c)*d)", 2.5 * awkward).unwrap(),
            ],
        )
        .unwrap();
        let mapped = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .unwrap();
        assert!(mapped.delay() > 50.0, "chain is deep enough to stress sums");
        assert!(
            timing_violations(&mapped).is_empty(),
            "mixed tolerance must absorb reassociation noise: {:?}",
            timing_violations(&mapped).first()
        );
    }

    #[test]
    fn mixed_tolerance_still_rejects_real_drift() {
        assert!(close(1234.5, 1234.5 + 5e-10));
        assert!(close(1e6, 1e6 * (1.0 + 1e-13)));
        assert!(!close(10.0, 10.1));
        assert!(!close(1e6, 1e6 + 1.0));
    }

    #[test]
    fn swapping_a_cell_gate_is_not_equivalent() {
        use crate::mapped::{gate_kind_of, Signal};
        let net = dagmap_benchgen::c3540_like();
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let mut mapped = Mapper::new(&lib).map(&subject, MapOptions::dag()).unwrap();
        assert!(report(&mapped, &subject, 3).unwrap().is_empty());
        // Re-point the cell driving the first output at another gate of the
        // same arity that computes a different function.
        let Signal::Cell(c) = mapped.outputs[0].1 else {
            panic!("the first output is driven by a cell")
        };
        let kind = &mapped.gate_kinds[mapped.cells[c as usize].kind as usize];
        let function = kind.expr.truth_table(&kind.pin_names).unwrap();
        let other = lib
            .gate_ids()
            .find(|&id| {
                let swap = gate_kind_of(id, lib.gate(id));
                swap.pin_names.len() == kind.pin_names.len()
                    && swap.expr.truth_table(&swap.pin_names).unwrap() != function
            })
            .expect("lib2 has another gate of the same arity");
        mapped.gate_kinds.push(gate_kind_of(other, lib.gate(other)));
        mapped.cells[c as usize].kind = (mapped.gate_kinds.len() - 1) as u32;
        // The first report cached the lowering of the unedited netlist.
        mapped.clear_lowering();
        let violations = report(&mapped, &subject, 3).unwrap();
        assert!(
            violations.contains(&Violation::NotEquivalent { seed: 3 }),
            "{violations:?}"
        );
    }

    #[test]
    fn verification_lowers_once_for_writeback() {
        let subject = SubjectGraph::from_network(&dagmap_benchgen::c2670_like()).unwrap();
        let mapped = Mapper::new(&Library::lib2_like())
            .map(&subject, MapOptions::dag())
            .unwrap();
        let fresh = dagmap_netlist::blif::to_string(&mapped.to_network().unwrap()).unwrap();
        assert_eq!(
            format!("{:?}", mapped.lowered),
            "empty",
            "lowering alone caches nothing"
        );
        check(&mapped, &subject, 7).unwrap();
        assert_eq!(
            format!("{:?}", mapped.lowered),
            "cached",
            "verification caches its lowering"
        );
        let cached = dagmap_netlist::blif::to_string(&mapped.to_network().unwrap()).unwrap();
        assert_eq!(fresh, cached);
        assert!(format!("{mapped:?}").contains("lowered: cached"));
        let clone = mapped.clone();
        assert_eq!(
            format!("{:?}", clone.lowered),
            "empty",
            "a clone lowers afresh"
        );
    }

    #[test]
    fn sequential_mapping_checks_out() {
        let mut net = Network::new("seq");
        let a = net.add_input("a");
        let l = net.add_node(NodeFn::Latch, vec![a]).unwrap();
        net.set_node_name(l, "q");
        let x = net.add_node(NodeFn::Xor, vec![l, a]).unwrap();
        net.add_output("f", x);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let mapped = Mapper::new(&lib).map(&subject, MapOptions::dag()).unwrap();
        check(&mapped, &subject, 5).unwrap();
    }
}
