//! Depth-preserving LUT-count reduction — the FPGA-side area/depth
//! tradeoff of Cong & Ding that the paper's conclusion points to as the
//! model for its own (library-side) future work.
//!
//! FlowMap's labels fix the optimal depth; off-critical nodes have slack in
//! their *required* depth, which this pass trades for area: each needed
//! node picks, among a priority list of k-feasible cuts (the labeling cut
//! always included, so feasibility is guaranteed), the one minimizing
//! area flow subject to its depth budget.

use std::collections::HashSet;

use dagmap_netlist::{Network, NodeFn, NodeId};

use crate::label::{FlowMapError, LutLabels};
use crate::map::{Lut, LutMapping};

fn is_source(net: &Network, id: NodeId) -> bool {
    matches!(
        net.node(id).func(),
        NodeFn::Input | NodeFn::Const(_) | NodeFn::Latch
    )
}

/// One candidate cut with its precomputed scores.
#[derive(Debug, Clone)]
struct Cut {
    leaves: Vec<NodeId>,
    /// `max(label(leaf)) + 1`.
    depth: u32,
    /// Estimated LUT count to produce this node through this cut.
    area_flow: f64,
}

/// Builds at most `limit` priority cuts per node (by area flow), always
/// including the depth-optimal labeling cut.
fn priority_cuts(
    net: &Network,
    labels: &LutLabels,
    limit: usize,
) -> Result<Vec<Vec<Cut>>, FlowMapError> {
    let order = net.topo_order().map_err(FlowMapError::Netlist)?;
    let k = labels.k;
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); net.num_nodes()];
    let mut best_af = vec![0.0f64; net.num_nodes()];
    for &id in &order {
        if is_source(net, id) {
            cuts[id.index()] = vec![Cut {
                leaves: vec![id],
                depth: 0,
                area_flow: 0.0,
            }];
            continue;
        }
        let fanins = net.node(id).fanins();
        // Merge one cut per fanin (sources contribute their trivial cut;
        // internal fanins contribute their kept cuts plus their trivial
        // cut, so the plain `fanins(id)` cut always exists).
        let mut candidates: Vec<Vec<NodeId>> = vec![Vec::new()];
        for f in fanins {
            let mut options: Vec<Vec<NodeId>> =
                cuts[f.index()].iter().map(|c| c.leaves.clone()).collect();
            if !is_source(net, *f) {
                options.push(vec![*f]);
            }
            let mut next = Vec::new();
            for base in &candidates {
                for opt in &options {
                    let mut u = base.clone();
                    for &x in opt {
                        if !u.contains(&x) {
                            u.push(x);
                        }
                    }
                    if u.len() <= k {
                        next.push(u);
                    }
                }
            }
            candidates = next;
        }
        // The labeling cut is feasibility insurance.
        candidates.push(labels.cut[id.index()].clone());
        let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
        let mut scored: Vec<Cut> = Vec::new();
        for mut leaves in candidates {
            leaves.sort_unstable();
            if leaves.is_empty() || !seen.insert(leaves.clone()) {
                continue;
            }
            let depth = leaves
                .iter()
                .map(|x| labels.label[x.index()])
                .max()
                .expect("cuts are nonempty")
                + 1;
            let area_flow = 1.0
                + leaves
                    .iter()
                    .map(|x| best_af[x.index()] / net.node(*x).fanout_count().max(1) as f64)
                    .sum::<f64>();
            scored.push(Cut {
                leaves,
                depth,
                area_flow,
            });
        }
        scored.sort_by(|a, b| {
            a.area_flow
                .partial_cmp(&b.area_flow)
                .expect("area flows are finite")
                .then(a.depth.cmp(&b.depth))
        });
        // Keep the cheapest `limit` cuts, but never drop the labeling cut.
        let label_cut = {
            let mut lc = labels.cut[id.index()].clone();
            lc.sort_unstable();
            lc
        };
        let mut kept: Vec<Cut> = Vec::with_capacity(limit + 1);
        for c in scored {
            if kept.len() < limit || c.leaves == label_cut {
                kept.push(c);
            }
        }
        if !kept.iter().any(|c| c.leaves == label_cut) {
            // The labeling cut scored outside the window; re-add it.
            let depth = label_cut
                .iter()
                .map(|x| labels.label[x.index()])
                .max()
                .expect("cuts are nonempty")
                + 1;
            let area_flow = 1.0
                + label_cut
                    .iter()
                    .map(|x| best_af[x.index()] / net.node(*x).fanout_count().max(1) as f64)
                    .sum::<f64>();
            kept.push(Cut {
                leaves: label_cut,
                depth,
                area_flow,
            });
        }
        best_af[id.index()] = kept
            .iter()
            .map(|c| c.area_flow)
            .fold(f64::INFINITY, f64::min);
        cuts[id.index()] = kept;
    }
    Ok(cuts)
}

/// Builds a LUT cover that preserves the optimal depth of `labels` while
/// spending slack on LUT-count reduction (priority-cut area flow,
/// `cuts_per_node` candidates kept per node).
///
/// # Errors
///
/// Propagates substrate failures; depth feasibility cannot fail because the
/// labeling cut of every node is always a candidate.
pub fn map_luts_area(
    net: &Network,
    labels: &LutLabels,
    cuts_per_node: usize,
) -> Result<LutMapping, FlowMapError> {
    map_luts_area_relaxed(net, labels, cuts_per_node, 0)
}

/// The full area/depth tradeoff of Cong & Ding: like
/// [`map_luts_area`] but with the depth budget relaxed to
/// `optimal + extra_depth`, buying further LUT-count reduction. The
/// reported depth of the result is its true realized depth.
///
/// # Errors
///
/// As for [`map_luts_area`].
pub fn map_luts_area_relaxed(
    net: &Network,
    labels: &LutLabels,
    cuts_per_node: usize,
    extra_depth: u32,
) -> Result<LutMapping, FlowMapError> {
    let order = net.topo_order().map_err(FlowMapError::Netlist)?;
    let cuts = priority_cuts(net, labels, cuts_per_node.max(1))?;
    let target = labels.depth(net) + extra_depth;

    let mut req = vec![u32::MAX; net.num_nodes()];
    let mut needed = vec![false; net.num_nodes()];
    let constrain = |id: NodeId, value: u32, req: &mut Vec<u32>, needed: &mut Vec<bool>| {
        if !is_source(net, id) {
            req[id.index()] = req[id.index()].min(value);
            needed[id.index()] = true;
        }
    };
    for out in net.outputs() {
        constrain(out.driver, target, &mut req, &mut needed);
    }
    for id in net.node_ids() {
        if matches!(net.node(id).func(), NodeFn::Latch) {
            constrain(net.node(id).fanins()[0], target, &mut req, &mut needed);
        }
    }

    let mut luts = Vec::new();
    for &id in order.iter().rev() {
        if !needed[id.index()] || is_source(net, id) {
            continue;
        }
        let budget = req[id.index()];
        let chosen = cuts[id.index()]
            .iter()
            .filter(|c| c.depth <= budget)
            .min_by(|a, b| {
                a.area_flow
                    .partial_cmp(&b.area_flow)
                    .expect("area flows are finite")
            })
            .expect("the labeling cut always meets the budget");
        for &leaf in &chosen.leaves {
            if !is_source(net, leaf) {
                req[leaf.index()] = req[leaf.index()].min(budget - 1);
                needed[leaf.index()] = true;
            }
        }
        luts.push(Lut {
            root: id,
            inputs: chosen.leaves.clone(),
        });
    }
    // The realized depth may undershoot the budget; measure it.
    let mut level = vec![0u32; net.num_nodes()];
    let mut position = vec![0usize; net.num_nodes()];
    for (i, id) in order.iter().enumerate() {
        position[id.index()] = i;
    }
    let mut sorted: Vec<&Lut> = luts.iter().collect();
    sorted.sort_by_key(|l| position[l.root.index()]);
    let mut realized = 0;
    for lut in sorted {
        let d = lut
            .inputs
            .iter()
            .map(|x| level[x.index()])
            .max()
            .expect("cuts are nonempty")
            + 1;
        level[lut.root.index()] = d;
        realized = realized.max(d);
    }
    // Area flow is a heuristic: at zero relaxation, keep whichever of
    // {recovered, plain} cover actually uses fewer LUTs (same depth).
    if extra_depth == 0 {
        let plain = crate::map::map_luts(net, labels)?;
        if plain.num_luts() < luts.len() {
            return Ok(plain);
        }
    }
    Ok(LutMapping::from_parts(labels.k, luts, realized))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{label_network, map_luts};
    use dagmap_netlist::{sim, SubjectGraph};

    fn subject(netgen: fn() -> Network) -> Network {
        SubjectGraph::from_network(&netgen())
            .expect("decomposes")
            .into_network()
    }

    #[test]
    fn preserves_depth_and_saves_luts() {
        let net = subject(|| dagmap_benchgen::alu(8));
        for k in [4usize, 5] {
            let labels = label_network(&net, k).expect("labels");
            let plain = map_luts(&net, &labels).expect("maps");
            let area = map_luts_area(&net, &labels, 8).expect("maps");
            assert_eq!(area.depth(), plain.depth(), "k={k}");
            assert!(
                area.num_luts() <= plain.num_luts(),
                "k={k}: {} vs {}",
                area.num_luts(),
                plain.num_luts()
            );
            let lowered = area.to_network(&net).expect("lowers");
            assert!(sim::equivalent_random(&net, &lowered, 16, 0xAF).expect("comparable"));
        }
    }

    #[test]
    fn random_networks_stay_equivalent() {
        for seed in 0..4 {
            let net = SubjectGraph::from_network(&dagmap_benchgen::random_network(6, 70, seed))
                .expect("decomposes")
                .into_network();
            let labels = label_network(&net, 4).expect("labels");
            let area = map_luts_area(&net, &labels, 6).expect("maps");
            let lowered = area.to_network(&net).expect("lowers");
            assert!(sim::equivalent_random(&net, &lowered, 8, seed).expect("comparable"));
            assert_eq!(area.depth(), labels.depth(&net));
        }
    }

    #[test]
    fn relaxation_respects_budgets_and_never_pays_luts() {
        // On these circuits the area-flow floor is typically reached at
        // zero relaxation already; the contract is that extra depth budget
        // is never *worse* and all covers stay correct.
        let net = subject(|| dagmap_benchgen::alu(8));
        let labels = label_network(&net, 4).expect("labels");
        let optimal = labels.depth(&net);
        let baseline = map_luts_area(&net, &labels, 8).expect("maps").num_luts();
        for extra in [1u32, 2, 4] {
            let m = map_luts_area_relaxed(&net, &labels, 8, extra).expect("maps");
            assert!(m.depth() <= optimal + extra);
            assert!(m.num_luts() <= baseline, "extra {extra}");
            let lowered = m.to_network(&net).expect("lowers");
            assert!(sim::equivalent_random(&net, &lowered, 8, 0xDE).expect("comparable"));
        }
    }

    #[test]
    fn single_candidate_degenerates_to_label_cuts() {
        let net = subject(|| dagmap_benchgen::ripple_adder(4));
        let labels = label_network(&net, 4).expect("labels");
        let area = map_luts_area(&net, &labels, 1).expect("maps");
        assert_eq!(area.depth(), labels.depth(&net));
        let lowered = area.to_network(&net).expect("lowers");
        assert!(sim::equivalent_random(&net, &lowered, 8, 1).expect("comparable"));
    }
}
