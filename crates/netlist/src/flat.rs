//! A flat, cache-friendly CSR view of a subject graph.
//!
//! [`crate::Network`] is flat too — one function array, a fanin arena with
//! per-node offsets, fanout counts and a name table — but it is shaped for
//! building and editing: its functions are full [`NodeFn`] values, its
//! fanins can be rewired in place, and it has no levels. The labeling
//! dynamic program and the match kernel walk the same few arrays millions
//! of times per mapping, so they want compact kind codes and the level
//! structure next to the adjacency: structure-of-arrays, contiguous,
//! u32-indexed.
//!
//! [`FlatNet`] is that layout. It is derived once from a finished subject
//! graph (the network is NAND2/INV and never mutated afterwards) and holds:
//!
//! * a per-node **kind code** (`0` source, `1` inverter, `2` NAND — the
//!   same depth-0 codes the fingerprint module uses),
//! * per-node **topological level**,
//! * **fanin adjacency** in compressed-sparse-row form, copied from the
//!   network's fanin arena,
//! * per-node **fanout counts**, one per consuming *edge* as in
//!   [`crate::Node::fanout_count`], so a consumer using a node twice counts
//!   twice (exact-match semantics count edges, not nodes),
//! * the **level wavefronts** as one more CSR: the concatenation of the
//!   level groups, which is also a topological order of the whole graph.
//!   This is the subject graph's one level structure.
//!
//! Everything is index arithmetic over seven flat vectors; no traversal of
//! a `FlatNet` ever touches the [`crate::Network`].

use crate::{NetlistError, Network, NodeFn, NodeId};

/// Kind code of a source node (input, constant or latch output).
pub const KIND_SOURCE: u8 = 0;
/// Kind code of an inverter.
pub const KIND_INV: u8 = 1;
/// Kind code of a two-input NAND.
pub const KIND_NAND: u8 = 2;

/// Structure-of-arrays view of a NAND2/INV network (see module docs).
///
/// Node identity is shared with the originating [`Network`]: the same
/// [`NodeId`] indexes both representations, so results computed over the
/// flat view (labels, covers) can be reported against the network without
/// any translation.
#[derive(Debug, Clone)]
pub struct FlatNet {
    /// Per-node kind code (`KIND_SOURCE` / `KIND_INV` / `KIND_NAND`).
    kind: Vec<u8>,
    /// Per-node topological level (sources at 0).
    level: Vec<u32>,
    /// Fanin CSR offsets; `fanin_off[i]..fanin_off[i+1]` indexes `fanin`.
    fanin_off: Vec<u32>,
    /// Concatenated fanin lists, in the network's fanin order.
    fanin: Vec<NodeId>,
    /// Per-node fanout edge count.
    fanout_count: Vec<u32>,
    /// Level CSR offsets; `level_off[l]..level_off[l+1]` indexes
    /// `level_nodes`.
    level_off: Vec<u32>,
    /// Nodes grouped by level, ascending id within a level — the
    /// concatenation is a topological order.
    level_nodes: Vec<NodeId>,
}

fn kind_of(func: &NodeFn) -> u8 {
    match func {
        NodeFn::Not => KIND_INV,
        NodeFn::Nand => KIND_NAND,
        _ => KIND_SOURCE,
    }
}

impl FlatNet {
    /// Flattens a NAND2/INV network (plus sources) into CSR form and
    /// computes its topological levels: inputs, constants and latches (whose
    /// data fanin is consumed at the end of the cycle) at 0, every gate one
    /// past its deepest fanin. Every fanin of a level-`l` gate sits below
    /// `l`, so each level's gates are independent labeling subproblems, and
    /// the groups, ascending ids within each, form a topological order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the latch-free part
    /// of the network is cyclic.
    pub fn build(net: &Network) -> Result<FlatNet, NetlistError> {
        let n = net.num_nodes();
        let mut kind = Vec::with_capacity(n);
        let mut fanout_count = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin = Vec::with_capacity(net.num_edges());
        fanin_off.push(0);
        for id in net.node_ids() {
            let node = net.node(id);
            kind.push(kind_of(node.func()));
            fanout_count.push(node.fanout_count() as u32);
            fanin.extend_from_slice(node.fanins());
            fanin_off.push(fanin.len() as u32);
        }

        let mut level = vec![0u32; n];
        let mut deepest = 0u32;
        for id in net.topo_order()? {
            let node = net.node(id);
            if !node.func().is_combinational() || node.fanins().is_empty() {
                continue;
            }
            let l = 1 + node
                .fanins()
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0);
            level[id.index()] = l;
            deepest = deepest.max(l);
        }
        let num_levels = if n == 0 { 0 } else { deepest as usize + 1 };
        // Counting sort by level; ascending ids fill each group in order.
        let mut level_off = vec![0u32; num_levels + 1];
        for &l in &level {
            level_off[l as usize + 1] += 1;
        }
        for l in 0..num_levels {
            level_off[l + 1] += level_off[l];
        }
        let mut fill = level_off.clone();
        let mut level_nodes = vec![NodeId::from_index(0); n];
        for id in net.node_ids() {
            let slot = &mut fill[level[id.index()] as usize];
            level_nodes[*slot as usize] = id;
            *slot += 1;
        }
        Ok(FlatNet {
            kind,
            level,
            fanin_off,
            fanin,
            fanout_count,
            level_off,
            level_nodes,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Kind code of a node (`KIND_SOURCE` / `KIND_INV` / `KIND_NAND`).
    #[inline]
    pub fn kind(&self, id: NodeId) -> u8 {
        self.kind[id.index()]
    }

    /// Per-node kind codes, indexed by [`NodeId::index`].
    #[inline]
    pub fn kinds(&self) -> &[u8] {
        &self.kind
    }

    /// True for NAND and inverter nodes.
    #[inline]
    pub fn is_gate(&self, id: NodeId) -> bool {
        self.kind[id.index()] != KIND_SOURCE
    }

    /// Topological level of a node (sources at 0).
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// Fanins of a node, in the network's fanin order.
    #[inline]
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanin[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// Number of fanout edges of a node — one per consuming edge, as in
    /// [`crate::Node::fanout_count`].
    #[inline]
    pub fn fanout_count(&self, id: NodeId) -> usize {
        self.fanout_count[id.index()] as usize
    }

    /// Number of distinct levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_off.len() - 1
    }

    /// The nodes of level `l`, ascending by id.
    #[inline]
    pub fn level_group(&self, l: usize) -> &[NodeId] {
        &self.level_nodes[self.level_off[l] as usize..self.level_off[l + 1] as usize]
    }

    /// All nodes in level order — a topological order of the graph.
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.level_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubjectGraph;

    /// The flat view of a hand-built NAND2/INV network.
    fn flat_of(net: Network) -> FlatNet {
        SubjectGraph::from_subject_network(net)
            .unwrap()
            .flat()
            .clone()
    }

    #[test]
    fn flat_view_round_trips_the_network() {
        let mut net = Network::new("flat");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::And, vec![g, c]).unwrap();
        let q = net.add_node(NodeFn::Latch, vec![h]).unwrap();
        let k = net.add_node(NodeFn::Or, vec![q, a]).unwrap();
        net.add_output("f", h);
        net.add_output("s", k);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let (net, flat) = (subject.network(), subject.flat());
        assert_eq!(flat.num_nodes(), net.num_nodes());
        assert_eq!(flat.topo_order().len(), net.num_nodes());
        for id in net.node_ids() {
            let node = net.node(id);
            assert_eq!(flat.kind(id), kind_of(node.func()), "kind of {id}");
            assert_eq!(flat.fanins(id), node.fanins(), "fanins of {id}");
            assert_eq!(
                flat.fanout_count(id),
                node.fanout_count(),
                "fanouts of {id}"
            );
        }
        for l in 0..flat.num_levels() {
            assert!(flat
                .level_group(l)
                .iter()
                .all(|&id| flat.level(id) == l as u32));
        }
    }

    #[test]
    fn levels_respect_fanin_order() {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
        let k = net.add_node(NodeFn::Nand, vec![g, h]).unwrap();
        net.add_output("f", k);
        let flat = flat_of(net);
        for id in [g, h, k] {
            for &f in flat.fanins(id) {
                assert!(flat.level(f) < flat.level(id), "fanin {f} of {id}");
            }
        }
        // The reconvergent NAND sees g (level 1) and h (level 2): level 3.
        assert_eq!(flat.level(k), 3);
    }

    #[test]
    fn sources_sit_at_level_zero() {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let k = net.add_node(NodeFn::Const(true), vec![]).unwrap();
        let g = net.add_node(NodeFn::Nand, vec![a, a]).unwrap();
        let latch = net.add_node(NodeFn::Latch, vec![g]).unwrap();
        let h = net.add_node(NodeFn::Nand, vec![latch, k]).unwrap();
        net.add_output("q", h);
        let flat = flat_of(net);
        assert_eq!(flat.level(a), 0, "inputs are sources");
        assert_eq!(flat.level(k), 0, "constants are sources");
        assert_eq!(flat.level(latch), 0, "latches are sources");
        assert_eq!(flat.level(h), 1, "consumers of latches start at 1");
        assert!(flat.level_group(0).contains(&latch));
    }

    #[test]
    fn level_count_is_longest_path_plus_one() {
        let mut net = Network::new("chain");
        let mut cur = net.add_input("a");
        for _ in 0..5 {
            cur = net.add_node(NodeFn::Not, vec![cur]).unwrap();
        }
        net.add_output("f", cur);
        let flat = flat_of(net);
        assert_eq!(flat.num_levels(), 6);
        assert!((0..6).all(|l| flat.level_group(l).len() == 1));
    }

    #[test]
    fn groups_partition_nodes_in_id_order() {
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::Not, vec![a]).unwrap();
        net.add_output("f", g);
        net.add_output("g", h);
        let flat = flat_of(net);
        let total: usize = (0..flat.num_levels())
            .map(|l| flat.level_group(l).len())
            .sum();
        assert_eq!(total, flat.num_nodes());
        for l in 0..flat.num_levels() {
            let group = flat.level_group(l);
            assert!(group.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        }
        assert_eq!(flat.level_group(1), &[g, h]);
    }

    #[test]
    fn cyclic_networks_are_rejected() {
        // A latch-free cycle can only be fabricated through the placeholder
        // patch API.
        let mut net = Network::new("cyc");
        let a = net.add_input("a");
        let g = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
        net.replace_single_fanin(g, h);
        net.add_output("f", h);
        assert!(matches!(
            SubjectGraph::from_subject_network(net),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn empty_network_has_no_levels() {
        let flat = flat_of(Network::new("empty"));
        assert_eq!(flat.num_levels(), 0);
        assert!(flat.topo_order().is_empty());
    }
}
