//! Bounded priority-cut enumeration over the flat subject kernel.
//!
//! Exhaustive k-feasible cut enumeration is exponential in reconvergent
//! regions; the classical remedy (Mishchenko et al., "Combinational and
//! sequential mapping with priority cuts") keeps only a bounded, ranked
//! subset per node. Each gate's cut set is the pairwise merge of its
//! fanins' kept cuts (plus the fanin singletons), ranked by a proxy for
//! arrival — deepest leaf level first, then width, then lexicographic
//! leaves — and truncated to [`CUT_CAP`]. The fanin cut (the node's own
//! immediate fanins) is always retained inside the cap, which guarantees
//! every gate keeps at least one cut matchable by the base primitives and
//! keeps the downstream labeling DP total.
//!
//! Cuts are stored in one flat arena (`SmallCut` is `Copy`, leaves inline)
//! so the per-node scratch is reused across the whole pass and the steady
//! state allocates nothing once the arena reaches its high-water mark.

use dagmap_netlist::{FlatNet, NodeId};

use crate::MAX_INPUTS;

/// Maximum cuts kept per node. 24 is generous for k ≤ 6: the classical
/// priority-cut papers report diminishing returns past 8–16.
pub(crate) const CUT_CAP: usize = 24;

/// One k-feasible cut, leaves stored inline (k ≤ [`MAX_INPUTS`] = 6).
/// Leaves are sorted ascending; `sig` is a 64-bit Bloom signature used to
/// cheapen dedup and merge-subsumption tests.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SmallCut {
    leaves: [NodeId; MAX_INPUTS],
    len: u8,
    sig: u64,
    /// Deepest leaf level — the ranking proxy for arrival time.
    max_level: u32,
}

impl SmallCut {
    fn singleton(id: NodeId, level: u32) -> Self {
        let mut leaves = [NodeId::from_index(0); MAX_INPUTS];
        leaves[0] = id;
        SmallCut {
            leaves,
            len: 1,
            sig: sig_bit(id),
            max_level: level,
        }
    }

    pub(crate) fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Ranking key: shallower deepest-leaf first (better arrival), then
    /// narrower (cheaper), then lexicographic leaves for determinism.
    fn rank_key(&self) -> (u32, u8, &[NodeId]) {
        (self.max_level, self.len, self.leaves())
    }

    fn same_leaves(&self, other: &SmallCut) -> bool {
        self.sig == other.sig && self.leaves() == other.leaves()
    }
}

fn sig_bit(id: NodeId) -> u64 {
    1u64 << (id.index() % 64)
}

/// Sorted-merge of two cuts; `None` if the union exceeds `k` leaves.
fn merge(a: &SmallCut, b: &SmallCut, k: usize, level: u32) -> Option<SmallCut> {
    let (la, lb) = (a.leaves(), b.leaves());
    let mut leaves = [NodeId::from_index(0); MAX_INPUTS];
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < la.len() || j < lb.len() {
        let next = match (la.get(i), lb.get(j)) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    i += 1;
                    x
                } else if y < x {
                    j += 1;
                    y
                } else {
                    i += 1;
                    j += 1;
                    x
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if n == k {
            return None;
        }
        leaves[n] = next;
        n += 1;
    }
    Some(SmallCut {
        leaves,
        len: n as u8,
        sig: a.sig | b.sig,
        max_level: level,
    })
}

/// Per-node bounded cut sets over a [`FlatNet`], stored in a flat arena.
pub(crate) struct CutSet {
    /// Per node: `[start, end)` range into `cuts`.
    bounds: Vec<(u32, u32)>,
    cuts: Vec<SmallCut>,
}

impl CutSet {
    /// The ranked cuts of `id` (best first). Sources hold exactly their
    /// trivial singleton cut; gates always include their fanin cut.
    pub(crate) fn cuts_of(&self, id: NodeId) -> &[SmallCut] {
        let (s, e) = self.bounds[id.index()];
        &self.cuts[s as usize..e as usize]
    }

    /// Total cuts stored across all nodes.
    pub(crate) fn total(&self) -> usize {
        self.cuts.len()
    }
}

/// Enumerates priority cuts for every node of `flat`, keeping at most
/// [`CUT_CAP`] per node, each with at most `k` leaves. `k` must lie in
/// `2..=MAX_INPUTS` (`BoolSource::new` clamps it): the lower bound keeps
/// the fanin cut of a two-input gate representable, the upper bound
/// matches the truth-table width.
pub(crate) fn enumerate(flat: &FlatNet, k: usize) -> CutSet {
    debug_assert!((2..=MAX_INPUTS).contains(&k), "cut width {k} out of range");
    let n = flat.num_nodes();
    let mut bounds = vec![(0u32, 0u32); n];
    let mut cuts: Vec<SmallCut> = Vec::with_capacity(n * 4);
    // Scratch reused across nodes: candidate cuts and fanin-option ranges.
    let mut cand: Vec<SmallCut> = Vec::with_capacity(CUT_CAP * CUT_CAP + 8);
    let mut opts_a: Vec<SmallCut> = Vec::with_capacity(CUT_CAP + 1);
    let mut opts_b: Vec<SmallCut> = Vec::with_capacity(CUT_CAP + 1);

    for &id in flat.topo_order() {
        let start = cuts.len() as u32;
        if !flat.is_gate(id) {
            cuts.push(SmallCut::singleton(id, flat.level(id)));
            bounds[id.index()] = (start, cuts.len() as u32);
            continue;
        }
        let level = flat.level(id);
        let fanins = flat.fanins(id);
        debug_assert!(matches!(fanins.len(), 1 | 2), "flat kernel is INV/NAND");

        // Options per fanin: its kept cuts plus the fanin singleton. The
        // singleton may duplicate a kept cut; dedup below removes it.
        let fill = |buf: &mut Vec<SmallCut>, f: NodeId, src: &CutSlices| {
            buf.clear();
            buf.extend_from_slice(src.of(f));
            buf.push(SmallCut::singleton(f, flat.level(f)));
        };
        let slices = CutSlices {
            bounds: &bounds,
            cuts: &cuts,
        };
        fill(&mut opts_a, fanins[0], &slices);
        cand.clear();
        if fanins.len() == 1 {
            // An inverter's cuts are its fanin's options verbatim: same
            // leaves, same deepest level.
            cand.extend_from_slice(&opts_a);
        } else {
            fill(&mut opts_b, fanins[1], &slices);
            for a in &opts_a {
                for b in &opts_b {
                    // Bloom pre-check: the popcount of the union signature
                    // lower-bounds the union width, so a wide union can be
                    // rejected without the sorted merge.
                    if (a.sig | b.sig).count_ones() as usize > k {
                        continue;
                    }
                    if let Some(u) = merge(a, b, k, a.max_level.max(b.max_level)) {
                        cand.push(u);
                    }
                }
            }
        }

        // Rank, dedup (equal cuts sort adjacent), and truncate — but
        // reserve a slot for the fanin cut *before* truncation (this is
        // the cap-overflow fix: the old code truncated first and appended
        // the fanin cut after, overshooting the cap).
        cand.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
        cand.dedup_by(|a, b| a.same_leaves(b));

        let fanin_cut = fanin_cut_of(fanins, level);
        let pos = cand.iter().position(|c| c.same_leaves(&fanin_cut));
        debug_assert!(pos.is_some(), "fanin cut is always a merge candidate");
        match pos {
            Some(p) if p < CUT_CAP => cand.truncate(CUT_CAP),
            _ => {
                // Fanin cut would be evicted (or missing): keep CAP-1 best
                // and append it so every gate stays primitive-matchable.
                cand.truncate(CUT_CAP - 1);
                cand.push(fanin_cut);
            }
        }
        debug_assert!(cand.len() <= CUT_CAP, "cut cap overflow");

        cuts.extend_from_slice(&cand);
        bounds[id.index()] = (start, cuts.len() as u32);
    }
    CutSet { bounds, cuts }
}

/// Borrow helper so `fill` can read already-committed cuts while the arena
/// is still being extended.
struct CutSlices<'a> {
    bounds: &'a [(u32, u32)],
    cuts: &'a [SmallCut],
}

impl CutSlices<'_> {
    fn of(&self, id: NodeId) -> &[SmallCut] {
        let (s, e) = self.bounds[id.index()];
        &self.cuts[s as usize..e as usize]
    }
}

fn fanin_cut_of(fanins: &[NodeId], level: u32) -> SmallCut {
    let mut sorted = [NodeId::from_index(0); MAX_INPUTS];
    let mut n = 0usize;
    for &f in fanins {
        sorted[n] = f;
        n += 1;
    }
    sorted[..n].sort_unstable();
    let mut m = 1usize;
    for i in 1..n {
        if sorted[i] != sorted[m - 1] {
            sorted[m] = sorted[i];
            m += 1;
        }
    }
    let mut sig = 0u64;
    for &f in &sorted[..m] {
        sig |= sig_bit(f);
    }
    SmallCut {
        leaves: sorted,
        len: m as u8,
        sig,
        max_level: level.saturating_sub(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::{Network, NodeFn, SubjectGraph};

    fn flat_of(net: &Network) -> SubjectGraph {
        SubjectGraph::from_network(net).expect("decomposes")
    }

    #[test]
    fn sources_get_their_trivial_cut() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        net.add_output("f", g);
        let subject = flat_of(&net);
        let flat = subject.flat();
        let cs = enumerate(flat, 4);
        for &id in flat.topo_order() {
            if !flat.is_gate(id) {
                let cuts = cs.cuts_of(id);
                assert_eq!(cuts.len(), 1);
                assert_eq!(cuts[0].leaves(), &[id]);
            }
        }
    }

    #[test]
    fn every_gate_keeps_its_fanin_cut_within_the_cap() {
        // A wide reconvergent mesh produces far more than CUT_CAP candidate
        // cuts per node; the fanin cut must survive the truncation and the
        // per-node count must respect the cap. (Regression: the old
        // enumerator truncated to the cap and then pushed the fanin cut,
        // overshooting it.)
        let net = dagmap_benchgen::random_network(16, 160, 7);
        let subject = flat_of(&net);
        let flat = subject.flat();
        let cs = enumerate(flat, 6);
        let mut saw_full_node = false;
        for &id in flat.topo_order() {
            if !flat.is_gate(id) {
                continue;
            }
            let cuts = cs.cuts_of(id);
            assert!(cuts.len() <= CUT_CAP, "node holds {} cuts", cuts.len());
            saw_full_node |= cuts.len() == CUT_CAP;
            let mut fanins: Vec<NodeId> = flat.fanins(id).to_vec();
            fanins.sort_unstable();
            fanins.dedup();
            assert!(
                cuts.iter().any(|c| c.leaves() == fanins.as_slice()),
                "fanin cut evicted at {id:?}"
            );
        }
        assert!(saw_full_node, "bench too small to exercise the cap");
    }

    #[test]
    fn cuts_are_ranked_and_bounded_by_k() {
        let net = dagmap_benchgen::alu(4);
        let subject = flat_of(&net);
        let flat = subject.flat();
        for k in 2..=6usize {
            let cs = enumerate(flat, k);
            for &id in flat.topo_order() {
                let cuts = cs.cuts_of(id);
                for c in cuts {
                    assert!(c.leaves().len() <= k);
                    assert!(c.leaves().windows(2).all(|w| w[0] < w[1]), "sorted+unique");
                }
                for w in cuts.windows(2) {
                    assert!(w[0].rank_key() <= w[1].rank_key(), "ranked order");
                }
            }
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let net = dagmap_benchgen::comparator(8);
        let subject = flat_of(&net);
        let flat = subject.flat();
        let a = enumerate(flat, 5);
        let b = enumerate(flat, 5);
        assert_eq!(a.total(), b.total());
        for &id in flat.topo_order() {
            let (ca, cb) = (a.cuts_of(id), b.cuts_of(id));
            assert_eq!(ca.len(), cb.len());
            for (x, y) in ca.iter().zip(cb) {
                assert_eq!(x.leaves(), y.leaves());
            }
        }
    }
}
