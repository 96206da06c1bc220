//! Bounded-depth cone fingerprints of subject-graph nodes.
//!
//! A canonical serialization of the full cone of logic under a node,
//! truncated at the library's maximum pattern depth. Two nodes with equal
//! serializations present *identical* structure to the backtracking matcher
//! (same kinds, same sharing, same fanout counts where requested), so one
//! node's match enumeration can be replayed verbatim onto the other — the
//! cone classes of `dagmap-match`'s match store, which retiming's match
//! cache uses.
//!
//! Cones are read off the subject's [`FlatNet`], its only cone view; nodes
//! are sources (input / constant / latch), inverters or two-input NANDs.

use crate::{FlatNet, NodeId, KIND_INV, KIND_NAND};

/// Parameters of a bounded-depth cone extraction.
///
/// `max_depth` is the library's maximum pattern depth: nothing deeper can
/// influence a match rooted at the cone root. `record_fanouts` must be set
/// for `Exact`-mode matching, whose fanout-equality checks observe the
/// fanout counts of internal nodes; `fanout_cap` bounds the recorded counts
/// (any count at or above the largest fanout a pattern can require behaves
/// identically, so capping improves sharing without changing semantics).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct ConeSpec {
    /// Depth at which the cone is truncated.
    pub max_depth: u32,
    /// Record per-node fanout counts (needed by exact-match semantics).
    pub record_fanouts: bool,
    /// Saturation value for recorded fanout counts.
    pub fanout_cap: u32,
}

/// Serialization token values. `REF_BASE + i` references the node first
/// visited at local index `i`; `FANOUT_BASE + c` records a capped fanout
/// count. The ranges cannot collide: fanout caps are small and local
/// indices are dense cone positions, far below `REF_BASE - FANOUT_BASE`.
const TOK_BOUNDARY: u32 = 0;
const TOK_INV: u32 = 1;
const TOK_NAND: u32 = 2;
const FANOUT_BASE: u32 = 8;
const REF_BASE: u32 = 1 << 20;

/// Reusable buffers for [`extract_cone`]; keep one per thread.
///
/// Node → slot lookups run on every visit of every extraction, so they use
/// epoch-stamped dense arrays indexed by `NodeId` instead of a hash map:
/// bumping the epoch invalidates the whole table in O(1) and a lookup is
/// two array reads.
#[derive(Debug, Default, Clone)]
pub struct ConeScratch {
    /// Per network node: epoch at which the node was last given a slot.
    stamp: Vec<u32>,
    /// Per network node: slot handed out in the stamped epoch.
    node_slot: Vec<u32>,
    /// Current extraction epoch; entries with `stamp != epoch` are stale.
    epoch: u32,
    /// Per slot: minimum depth of the node from the root.
    min_depth: Vec<u32>,
    /// Per slot: local index assigned by the serialization pass, if visited.
    local_slot: Vec<Option<u32>>,
    /// BFS worklist.
    queue: Vec<(NodeId, u32)>,
    /// Local index → concrete node, in canonical (first-visit DFS) order.
    locals: Vec<NodeId>,
    /// The canonical token stream.
    key: Vec<u32>,
}

impl ConeScratch {
    /// Creates an empty scratch.
    pub fn new() -> ConeScratch {
        ConeScratch::default()
    }

    /// Pre-sizes every buffer for a graph of `num_nodes` nodes and cones
    /// truncated at `max_depth`, so subsequent extractions allocate
    /// nothing. The per-slot buffers are bounded by the widest possible
    /// binary cone, `2^(max_depth+1)` nodes.
    pub fn prepare(&mut self, num_nodes: usize, max_depth: u32) {
        if self.stamp.len() < num_nodes {
            self.stamp.resize(num_nodes, 0);
            self.node_slot.resize(num_nodes, 0);
        }
        let cone_bound = 2usize << max_depth.min(20);
        self.min_depth.reserve(cone_bound);
        self.local_slot.reserve(cone_bound);
        self.queue.reserve(cone_bound);
        self.locals.reserve(cone_bound);
        // Kind token + optional fanout token per node.
        self.key.reserve(2 * cone_bound);
    }

    /// The canonical token stream of the last extracted cone.
    pub fn key(&self) -> &[u32] {
        &self.key
    }

    /// Local index → concrete node map of the last extracted cone. Two
    /// cones with equal [`ConeScratch::key`] streams assign corresponding
    /// nodes the same local indices — the isomorphism match replay uses.
    pub fn locals(&self) -> &[NodeId] {
        &self.locals
    }

    /// Looks up the local index of a node of the last extracted cone.
    pub fn local_of(&self, id: NodeId) -> Option<u32> {
        let slot = self.slot_of(id)?;
        self.local_slot[slot as usize]
    }

    /// Slot of a node in the current epoch, if it was visited.
    fn slot_of(&self, id: NodeId) -> Option<u32> {
        let i = id.index();
        (i < self.stamp.len() && self.stamp[i] == self.epoch).then(|| self.node_slot[i])
    }

    /// Stamps a node with a fresh slot in the current epoch.
    fn assign_slot(&mut self, id: NodeId, slot: u32) {
        let i = id.index();
        self.stamp[i] = self.epoch;
        self.node_slot[i] = slot;
    }
}

/// Extracts the canonical bounded-depth cone of `root`, filling
/// `scratch.key()` and `scratch.locals()`.
///
/// Every node the backtracking matcher can *touch* while matching a
/// pattern of depth at most `spec.max_depth` at `root` receives a local
/// index: internal pattern nodes only ever bind at depth `< max_depth`
/// (every internal node has a leaf strictly below it), so gate nodes at
/// that depth are expanded — kind, fanin structure, sharing and (when
/// requested) capped fanout counts all enter the token stream — while
/// frontier nodes (sources anywhere, gates first reachable exactly at
/// `max_depth`) appear as opaque boundary tokens whose identity is still
/// tracked through back-references. Equal token streams therefore drive
/// `try_bind` through the *same* branch sequence on both cones, which is
/// the soundness argument for replaying memoized matches.
pub fn extract_cone(flat: &FlatNet, root: NodeId, spec: ConeSpec, scratch: &mut ConeScratch) {
    if scratch.stamp.len() < flat.num_nodes() {
        scratch.stamp.resize(flat.num_nodes(), 0);
        scratch.node_slot.resize(flat.num_nodes(), 0);
    }
    scratch.epoch = scratch.epoch.wrapping_add(1);
    if scratch.epoch == 0 {
        // Wrapped: stale entries could alias the restarted epoch counter.
        scratch.stamp.fill(u32::MAX);
        scratch.epoch = 1;
    }
    scratch.min_depth.clear();
    scratch.local_slot.clear();
    scratch.queue.clear();
    scratch.locals.clear();
    scratch.key.clear();

    // Breadth-first pass: first visit = minimum depth, since the frontier
    // expands in nondecreasing depth order.
    scratch.assign_slot(root, 0);
    scratch.min_depth.push(0);
    scratch.queue.push((root, 0));
    let mut head = 0;
    while head < scratch.queue.len() {
        let (id, d) = scratch.queue[head];
        head += 1;
        let expand = d < spec.max_depth && flat.is_gate(id);
        if !expand {
            continue;
        }
        for &f in flat.fanins(id) {
            if scratch.slot_of(f).is_some() {
                continue;
            }
            let slot = scratch.min_depth.len() as u32;
            scratch.assign_slot(f, slot);
            scratch.min_depth.push(d + 1);
            scratch.queue.push((f, d + 1));
        }
    }
    scratch.local_slot.resize(scratch.min_depth.len(), None);

    // Depth-first serialization in fanin order: the canonical stream.
    serialize(flat, root, spec, scratch, true);
}

fn serialize(flat: &FlatNet, id: NodeId, spec: ConeSpec, scratch: &mut ConeScratch, is_root: bool) {
    let slot = scratch
        .slot_of(id)
        .expect("serialized nodes were visited by BFS") as usize;
    if let Some(local) = scratch.local_slot[slot] {
        scratch.key.push(REF_BASE + local);
        return;
    }
    let local = scratch.locals.len() as u32;
    scratch.local_slot[slot] = Some(local);
    scratch.locals.push(id);

    let kind = flat.kind(id);
    let expand = scratch.min_depth[slot] < spec.max_depth && flat.is_gate(id);
    if !expand {
        scratch.key.push(TOK_BOUNDARY);
        return;
    }
    scratch.key.push(match kind {
        KIND_INV => TOK_INV,
        KIND_NAND => TOK_NAND,
        _ => unreachable!("only gates are expanded"),
    });
    if spec.record_fanouts && !is_root {
        let fo = (flat.fanout_count(id) as u32).min(spec.fanout_cap);
        scratch.key.push(FANOUT_BASE + fo);
    }
    let fanins: [Option<NodeId>; 2] = {
        let f = flat.fanins(id);
        [f.first().copied(), f.get(1).copied()]
    };
    for f in fanins.into_iter().flatten() {
        serialize(flat, f, spec, scratch, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetlistError, Network, NodeFn, SubjectGraph};

    /// Wraps a hand-built NAND2/INV network so its flat view can be read.
    fn subject(net: Network) -> Result<SubjectGraph, NetlistError> {
        SubjectGraph::from_subject_network(net)
    }

    fn xor_cone(net: &mut Network, a: NodeId, b: NodeId) -> NodeId {
        let na = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let nb = net.add_node(NodeFn::Not, vec![b]).unwrap();
        let l = net.add_node(NodeFn::Nand, vec![a, nb]).unwrap();
        let r = net.add_node(NodeFn::Nand, vec![na, b]).unwrap();
        net.add_node(NodeFn::Nand, vec![l, r]).unwrap()
    }

    #[test]
    fn cone_keys_agree_exactly_on_isomorphic_cones() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let x = xor_cone(&mut net, a, b);
        let y = xor_cone(&mut net, c, d);
        net.add_output("x", x);
        net.add_output("y", y);
        let spec = ConeSpec {
            max_depth: 3,
            record_fanouts: false,
            fanout_cap: 4,
        };
        let subject = subject(net)?;
        let mut s1 = ConeScratch::new();
        let mut s2 = ConeScratch::new();
        extract_cone(subject.flat(), x, spec, &mut s1);
        extract_cone(subject.flat(), y, spec, &mut s2);
        assert_eq!(s1.key(), s2.key());
        assert_eq!(s1.locals().len(), s2.locals().len());
        // Corresponding locals: roots first, then DFS order.
        assert_eq!(s1.locals()[0], x);
        assert_eq!(s2.locals()[0], y);
        Ok(())
    }

    #[test]
    fn sharing_is_distinguished_from_tree_structure() -> Result<(), NetlistError> {
        // nand(inv(g), inv(g)) over a shared g vs nand(inv(g1), inv(g2))
        // over distinct (but isomorphic) fanins: the REF token separates
        // them — the matcher behaves differently on the two.
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let u = net.add_node(NodeFn::Not, vec![g])?;
        let v = net.add_node(NodeFn::Not, vec![g])?;
        let shared = net.add_node(NodeFn::Nand, vec![u, v])?;
        let g1 = net.add_node(NodeFn::Nand, vec![a, b])?;
        let g2 = net.add_node(NodeFn::Nand, vec![b, a])?;
        let u1 = net.add_node(NodeFn::Not, vec![g1])?;
        let v1 = net.add_node(NodeFn::Not, vec![g2])?;
        let split = net.add_node(NodeFn::Nand, vec![u1, v1])?;
        net.add_output("s", shared);
        net.add_output("t", split);
        let spec = ConeSpec {
            max_depth: 3,
            record_fanouts: false,
            fanout_cap: 4,
        };
        let subject = subject(net)?;
        let mut s1 = ConeScratch::new();
        let mut s2 = ConeScratch::new();
        extract_cone(subject.flat(), shared, spec, &mut s1);
        extract_cone(subject.flat(), split, spec, &mut s2);
        assert_ne!(s1.key(), s2.key());
        Ok(())
    }

    #[test]
    fn fanout_recording_separates_exact_classes() -> Result<(), NetlistError> {
        // Same cone shape, one internal node with an extra consumer: keys
        // agree without fanouts, differ with them.
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        let g2 = net.add_node(NodeFn::Nand, vec![a, b])?;
        // Force distinct nodes: from_subject_network isn't strashed here.
        let h2 = net.add_node(NodeFn::Not, vec![g2])?;
        let extra = net.add_node(NodeFn::Not, vec![g2])?;
        net.add_output("h", h);
        net.add_output("h2", h2);
        net.add_output("e", extra);
        let subject = subject(net)?;
        for (record, want_equal) in [(false, true), (true, false)] {
            let spec = ConeSpec {
                max_depth: 2,
                record_fanouts: record,
                fanout_cap: 4,
            };
            let mut s1 = ConeScratch::new();
            let mut s2 = ConeScratch::new();
            extract_cone(subject.flat(), h, spec, &mut s1);
            extract_cone(subject.flat(), h2, spec, &mut s2);
            assert_eq!(s1.key() == s2.key(), want_equal, "record_fanouts={record}");
        }
        Ok(())
    }

    #[test]
    fn truncation_hides_deep_structure_only() -> Result<(), NetlistError> {
        // Below the horizon the cones differ (inv vs input); at max_depth 1
        // both serialize as nand(boundary, boundary).
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let na = net.add_node(NodeFn::Not, vec![a])?;
        let deep = net.add_node(NodeFn::Nand, vec![na, b])?;
        let flat = net.add_node(NodeFn::Nand, vec![a, b])?;
        net.add_output("d", deep);
        net.add_output("f", flat);
        let subject = subject(net)?;
        let mut s1 = ConeScratch::new();
        let mut s2 = ConeScratch::new();
        for (depth, want_equal) in [(1u32, true), (2, false)] {
            let spec = ConeSpec {
                max_depth: depth,
                record_fanouts: false,
                fanout_cap: 4,
            };
            extract_cone(subject.flat(), deep, spec, &mut s1);
            extract_cone(subject.flat(), flat, spec, &mut s2);
            assert_eq!(s1.key() == s2.key(), want_equal, "depth={depth}");
        }
        Ok(())
    }
}
