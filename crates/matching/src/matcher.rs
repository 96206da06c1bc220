use dagmap_genlib::{
    GateId, LibPattern, Library, PatternId, PatternNode, SubjectStates, LEAF_SUBTREE,
};
use dagmap_netlist::fingerprint::{extract_cone, ConeScratch};
use dagmap_netlist::{FlatNet, NodeId, SubjectGraph, KIND_INV, KIND_NAND};

use crate::store::{ClassId, ConeKey, MatchStore};

/// Which match semantics to enforce (Definitions 1–3 of the paper).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// One-to-one embedding preserving edges and in-degrees; covered nodes
    /// may still fan out to uncovered logic (Definition 1).
    Standard,
    /// Standard plus fanout-count equality on internal nodes, so covered
    /// logic never escapes the match (Definition 2) — the tree-covering
    /// notion.
    Exact,
    /// Standard without the one-to-one requirement; the pattern may unfold
    /// reconvergent subject structure (Definition 3).
    Extended,
}

/// One successful match of a library gate rooted at a subject node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// The gate this match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match; `None` for matches
    /// found by non-structural means (Boolean matching).
    pub pattern: Option<PatternId>,
    /// Subject node bound to each gate pin, in canonical pin order.
    /// Extended matches may bind the same node to several pins.
    pub leaves: Vec<NodeId>,
    /// Distinct subject nodes bound to internal pattern nodes (the logic the
    /// gate replaces), root included.
    pub covered: Vec<NodeId>,
}

/// A borrowed view of one match, valid only inside the enumeration
/// callback of [`Matcher::for_each_match_at`].
///
/// The leaf and covered slices point into the caller's [`MatchScratch`], so
/// consuming a match costs nothing; call [`MatchView::to_match`] only when
/// the match must outlive the callback.
#[derive(Debug, Copy, Clone)]
pub struct MatchView<'a> {
    /// The gate this match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match.
    pub pattern: PatternId,
    /// Subject node bound to each gate pin, in canonical pin order.
    pub leaves: &'a [NodeId],
    /// Distinct subject nodes bound to internal pattern nodes, root included.
    pub covered: &'a [NodeId],
}

impl MatchView<'_> {
    /// Materializes an owned [`Match`].
    pub fn to_match(&self) -> Match {
        Match {
            gate: self.gate,
            pattern: Some(self.pattern),
            leaves: self.leaves.to_vec(),
            covered: self.covered.to_vec(),
        }
    }
}

/// Counters of one enumeration call.
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Distinct matches reported (after per-node dedup). Pin permutations
    /// across a symmetric pattern NAND count once, not once per order (see
    /// [`Matcher::for_each_match_at`]).
    pub enumerated: usize,
    /// Rooted pattern candidates skipped without any search: those outside
    /// the node's automaton state when the index is on, those failing the
    /// depth pre-filter when it is off. The count therefore depends on the
    /// [`MatchConfig`]; it measures avoided work, while `enumerated` and the
    /// match sequence itself are configuration-independent.
    pub pruned: usize,
    /// 64-wide candidate words evaluated by the batched kernel.
    pub words: usize,
    /// Set bits across the evaluated candidate words — together with
    /// `words` this yields the kernel's batch occupancy.
    pub candidate_bits: usize,
}

impl MatchStats {
    /// Accumulates another call's counters.
    pub fn absorb(&mut self, other: MatchStats) {
        self.enumerated += other.enumerated;
        self.pruned += other.pruned;
        self.words += other.words;
        self.candidate_bits += other.candidate_bits;
    }
}

/// The match-acceleration switch. The automaton index defaults on and
/// preserves the exact match sequence (and therefore every downstream
/// label, tie-break and mapped netlist) of the naive full scan.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct MatchConfig {
    /// Stage 1: filter candidates through the library's tree automaton
    /// ([`dagmap_genlib::Automaton`]). Only patterns whose root subtree is
    /// in the node's state are attempted, and the search abandons any
    /// partial binding whose pattern subtree is not in its subject node's
    /// state. Off, the matcher runs the reference scan: every rooted
    /// pattern the depth pre-filter admits, searched without the filter.
    pub index: bool,
}

impl Default for MatchConfig {
    fn default() -> MatchConfig {
        MatchConfig { index: true }
    }
}

impl MatchConfig {
    /// The index off: the naive full scan (the reference behavior).
    pub fn baseline() -> MatchConfig {
        MatchConfig { index: false }
    }
}

/// Reusable buffers for allocation-free match enumeration.
///
/// The matcher's hot loop used to build a fresh `HashMap` owner table,
/// `HashSet` dedup set and `Vec<Match>` per node per pattern attempt; with a
/// `MatchScratch` every table is a plain reused `Vec`:
///
/// * `binding` — pattern-node → subject-node table, reset per pattern (its
///   length is the pattern size, a handful of entries),
/// * `owned` — subject-node membership flags for the one-to-one rule,
///   restored exactly by the backtracking search, so it is never cleared,
/// * `seen_keys`/`seen_leaves` — a flat arena of (gate, leaf-slice) keys for
///   per-node dedup, replacing the hashing of owned `Vec<NodeId>` keys,
/// * `leaves_buf`/`covered_buf` — the current match's pin binding, bounded
///   by the widest gate of the library.
///
/// One scratch per thread is the intended usage; a `dagmap-core`
/// labeling pass keeps one for the whole pass.
///
/// The scratch also embeds a [`ConeScratch`] used by [`Matcher::class_at`]
/// to canonicalize the bounded-depth cone of the queried node, and the
/// automaton states of the subject it was last used on, keyed by
/// [`SubjectGraph::uid`] and the library's automaton: a scratch used on
/// another subject recomputes them on first use ([`Matcher::scratch_for`]
/// computes them up front).
#[derive(Debug, Default, Clone)]
pub struct MatchScratch {
    bufs: EnumBufs,
    cone: ConeScratch,
    states: SubjectStates,
}

/// The enumeration-only buffers, split out so the cone scratch can be
/// borrowed independently while a class is recorded.
#[derive(Debug, Default, Clone)]
struct EnumBufs {
    binding: Vec<Option<NodeId>>,
    owned: Vec<bool>,
    seen_keys: Vec<(GateId, u32, u32)>,
    seen_leaves: Vec<NodeId>,
    leaves_buf: Vec<NodeId>,
    covered_buf: Vec<NodeId>,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow to steady-state on first use.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    /// The cone locals of the last [`Matcher::class_at`] query: local index
    /// `i` of any match template of the returned class stands for concrete
    /// subject node `cone_locals()[i]`.
    pub fn cone_locals(&self) -> &[NodeId] {
        self.cone.locals()
    }

    /// Pre-sizes every buffer for enumerating `library`'s patterns over a
    /// subject graph of `num_nodes` nodes, so steady-state enumeration
    /// performs no heap allocation. The pattern-shaped buffers have exact
    /// bounds; the per-node dedup arena is sized from a per-pattern
    /// embedding estimate with generous headroom.
    fn prepare(&mut self, library: &Library, num_nodes: usize) {
        let bufs = &mut self.bufs;
        if bufs.owned.len() < num_nodes {
            bufs.owned.resize(num_nodes, false);
        }
        let mut max_len = 0usize;
        let mut max_internal = 0usize;
        let mut embeddings = 0usize;
        for p in library.patterns() {
            let g = &p.graph;
            max_len = max_len.max(g.len());
            let internal = g.num_internal();
            max_internal = max_internal.max(internal);
            // Each internal NAND at most doubles the pin-order branching.
            embeddings += 1usize << internal.min(8);
        }
        bufs.binding.reserve(max_len);
        bufs.leaves_buf.reserve(library.max_gate_inputs());
        bufs.covered_buf.reserve(max_internal);
        bufs.seen_keys.reserve(embeddings);
        bufs.seen_leaves
            .reserve(embeddings * library.max_gate_inputs());
        self.cone.prepare(num_nodes, library.max_pattern_depth());
    }
}

/// Backtracking state shared across the recursive search.
struct State<'a> {
    binding: &'a mut Vec<Option<NodeId>>,
    owned: &'a mut Vec<bool>,
    /// The subject's automaton states, when the index filters the search.
    states: Option<&'a SubjectStates>,
}

/// Enumerates matches of a library's expanded pattern set at subject nodes.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy)]
pub struct Matcher<'a> {
    library: &'a Library,
    config: MatchConfig,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher over `library`'s expanded pattern set with the
    /// default (fully accelerated) [`MatchConfig`].
    pub fn new(library: &'a Library) -> Self {
        Matcher::with_config(library, MatchConfig::default())
    }

    /// Creates a matcher with an explicit acceleration configuration.
    pub fn with_config(library: &'a Library, config: MatchConfig) -> Self {
        Matcher { library, config }
    }

    /// The library being matched against.
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The acceleration configuration in effect.
    pub fn config(&self) -> MatchConfig {
        self.config
    }

    /// A scratch sized for enumerating this matcher's library over
    /// `subject`, with the subject's automaton states computed (when the
    /// index is on), so enumeration over it allocates nothing in steady
    /// state. This takes the library's transition-table lock once.
    pub fn scratch_for(&self, subject: &SubjectGraph) -> MatchScratch {
        let mut scratch = MatchScratch::new();
        scratch.prepare(self.library, subject.flat().num_nodes());
        self.states_for(subject, &mut scratch.states);
        scratch
    }

    /// The automaton states of `subject` in `states`, computed first when
    /// they are another subject's or another library's; `None` with the
    /// index off.
    fn states_for<'s>(
        &self,
        subject: &SubjectGraph,
        states: &'s mut SubjectStates,
    ) -> Option<&'s SubjectStates> {
        if !self.config.index {
            return None;
        }
        let automaton = self.library.automaton();
        if !states.is_for(subject, automaton) {
            automaton.run(subject, states);
        }
        Some(states)
    }

    /// Enumerates all distinct matches rooted at `node`, invoking `f` once
    /// per match with a zero-copy [`MatchView`] into `scratch`.
    ///
    /// Two matches are the same when they instantiate the same gate with the
    /// same pin binding (different internal routes or pattern shapes do not
    /// multiply results). Pin permutations are not all distinct matches:
    /// at a NAND the library marks [symmetric](dagmap_genlib::LibPattern::symmetric)
    /// only the first fanin order is tried, so a binding that merely swaps
    /// two interchangeable subtrees of an earlier one is never produced.
    /// Every match it stands for has the same gate, leaf multiset, arrival
    /// and pin count as one that is. Inputs, constants and latches have no
    /// matches.
    ///
    /// With the index on (see [`MatchConfig::index`]) only patterns whose
    /// root subtree is in the node's automaton state are attempted, and the
    /// search prunes partial bindings the automaton rules out; the states
    /// are computed on the scratch's first use on `subject`. With it off,
    /// patterns whose NAND/INV depth exceeds the node's topological level
    /// (every pattern edge descends at least one subject level) are the
    /// only ones skipped. [`MatchStats::pruned`] counts the skipped
    /// patterns. Either way the surviving candidates are tried in ascending
    /// pattern order, so the match sequence is identical to the full scan.
    /// Each call records its match count in the `match.per_node` obs
    /// histogram.
    pub fn for_each_match_at(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        scratch: &mut MatchScratch,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        let states = self.states_for(subject, &mut scratch.states);
        let stats = self.enumerate(subject, node, mode, &mut scratch.bufs, states, f);
        dagmap_obs::sample("match.per_node", stats.enumerated as u64);
        stats
    }

    /// The enumeration core, operating on the split-out buffers so
    /// [`Matcher::class_at`] can hold the cone scratch alongside.
    ///
    /// Candidates are evaluated in 64-wide batches: the candidate row —
    /// the node's automaton state row with `states`, the depth-eligibility
    /// row of its level without — gives one word per 64 rooted patterns,
    /// whose set bits, walked in ascending order so the enumeration
    /// sequence is that of the plain candidate-list scan, drive the
    /// backtracking search. Pruning therefore costs one popcount per word
    /// instead of a branch per pattern. (A pattern whose root subtree
    /// embeds at a node has its depth in levels below it, so the state row
    /// needs no depth row.)
    fn enumerate(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        bufs: &mut EnumBufs,
        states: Option<&SubjectStates>,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        let flat = subject.flat();
        let (all, masks) = match flat.kind(node) {
            KIND_NAND => (
                self.library.patterns_rooted_nand(),
                self.library.nand_masks(),
            ),
            KIND_INV => (self.library.patterns_rooted_inv(), self.library.inv_masks()),
            _ => return MatchStats::default(),
        };
        let mut stats = MatchStats::default();
        let row = match states {
            Some(states) => states.row(node),
            None => masks.depth_row(flat.level(node)),
        };

        if bufs.owned.len() < flat.num_nodes() {
            bufs.owned.resize(flat.num_nodes(), false);
        }
        bufs.seen_keys.clear();
        bufs.seen_leaves.clear();

        let EnumBufs {
            binding,
            owned,
            seen_keys,
            seen_leaves,
            leaves_buf,
            covered_buf,
        } = bufs;

        let mut live = 0usize;
        for (wi, mut word) in row[..masks.words()].iter().copied().enumerate() {
            stats.words += 1;
            live += word.count_ones() as usize;
            while word != 0 {
                let pos = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let pid = all[pos];
                let lp = self.library.pattern(pid);
                let graph = &lp.graph;
                binding.clear();
                binding.resize(graph.len(), None);
                let mut st = State {
                    binding,
                    owned,
                    states,
                };
                try_bind(flat, lp, mode, graph.root(), node, &mut st, &mut |st| {
                    // Complete binding: extract the pin assignment and the
                    // covered internal nodes into the reused buffers.
                    leaves_buf.clear();
                    leaves_buf.resize(graph.num_pins(), NodeId::from_index(0));
                    covered_buf.clear();
                    for (i, pn) in graph.nodes().iter().enumerate() {
                        let s = st.binding[i].expect("complete matches bind every node");
                        match pn {
                            PatternNode::Leaf { pin } => leaves_buf[*pin] = s,
                            _ => {
                                if !covered_buf.contains(&s) {
                                    covered_buf.push(s);
                                }
                            }
                        }
                    }
                    // Dedup against earlier matches at this node: linear scan of
                    // the flat key arena (match counts per node are small).
                    let duplicate = seen_keys.iter().any(|&(g, off, len)| {
                        g == lp.gate
                            && &seen_leaves[off as usize..(off + len) as usize]
                                == leaves_buf.as_slice()
                    });
                    if !duplicate {
                        let off = u32::try_from(seen_leaves.len()).expect("arena fits u32");
                        let len = u32::try_from(leaves_buf.len()).expect("pin count fits u32");
                        seen_leaves.extend_from_slice(leaves_buf);
                        seen_keys.push((lp.gate, off, len));
                        stats.enumerated += 1;
                        f(MatchView {
                            gate: lp.gate,
                            pattern: pid,
                            leaves: leaves_buf,
                            covered: covered_buf,
                        });
                    }
                });
            }
        }
        // Everything the candidate words masked off was skipped without
        // any search.
        stats.candidate_bits = live;
        stats.pruned = all.len() - live;
        stats
    }

    /// Enumerates all distinct matches rooted at `node` as owned values.
    ///
    /// A convenience wrapper for callers that are not on a hot path; it
    /// allocates a fresh scratch and one `Match` per result. It runs the
    /// unfiltered reference scan, which finds the same matches in the same
    /// order without computing the whole subject's automaton states for one
    /// node.
    pub fn matches_at(&self, subject: &SubjectGraph, node: NodeId, mode: MatchMode) -> Vec<Match> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.enumerate(subject, node, mode, &mut scratch.bufs, None, &mut |mv| {
            out.push(mv.to_match());
        });
        out
    }

    /// Counts distinct matches at one node via the enumeration callback,
    /// without materializing any `Match` value (the reference scan, as for
    /// [`Matcher::matches_at`]).
    pub fn count_matches_at(&self, subject: &SubjectGraph, node: NodeId, mode: MatchMode) -> usize {
        let mut scratch = MatchScratch::new();
        self.enumerate(subject, node, mode, &mut scratch.bufs, None, &mut |_| {})
            .enumerated
    }

    /// Resolves the cone class of `node` in `store`, enumerating and
    /// recording its matches as templates on a miss.
    ///
    /// Returns `None` for nodes that can never match (inputs, constants,
    /// latches). On return, `scratch.cone_locals()` maps the class's local
    /// indices to this node's concrete cone members; the returned stats are
    /// those of a fresh enumeration (`enumerated` = template count,
    /// `pruned` = the recorded run's pruned count).
    ///
    /// Soundness: the class key is the canonical serialization of the
    /// depth-`D` cone (`D` = the library's maximum pattern depth) together
    /// with the mode and the node's level capped at `D`. Within depth `D`
    /// every binding decision of `try_bind` — kind checks, fanin-order
    /// branching, sharing via re-bound pattern nodes, the exact-mode
    /// fanout test (fanout counts are part of the key precisely when
    /// `mode == Exact`) — is a function of that serialization, and so is
    /// the candidate filter: the depth pre-filter reads the capped level,
    /// and an automaton decision about a pattern node of subtree depth `d`
    /// at a subject node reads only the subject within `d` levels below it,
    /// which lies inside the cone. Equal keys therefore yield isomorphic
    /// enumerations in identical order, with equal pruned counts.
    pub fn class_at(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        scratch: &mut MatchScratch,
        store: &mut MatchStore,
    ) -> (Option<ClassId>, MatchStats) {
        let bounds = store.bounds();
        bounds.check(self.library);
        let flat = subject.flat();
        if !flat.is_gate(node) {
            return (None, MatchStats::default());
        }
        let MatchScratch { bufs, cone, states } = scratch;
        let states = self.states_for(subject, states);
        extract_cone(flat, node, bounds.cone_spec(mode), cone);
        let key = ConeKey::new(mode, flat.level(node).min(bounds.max_depth), cone.key());
        let class = match store.probe(&key) {
            Some(class) => class,
            None => self.record_class(subject, node, mode, bufs, states, cone, store, &key),
        };
        let stats = MatchStats {
            enumerated: store.num_templates(class),
            pruned: store.pruned_of(class),
            ..MatchStats::default()
        };
        (Some(class), stats)
    }

    /// The miss step of [`Matcher::class_at`]: enumerates `node` fresh and
    /// records its matches into `store` as the templates of a new class
    /// under `key`, with leaves and covered nodes as cone-local indices.
    #[allow(clippy::too_many_arguments)]
    fn record_class(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        bufs: &mut EnumBufs,
        states: Option<&SubjectStates>,
        cone: &ConeScratch,
        store: &mut MatchStore,
        key: &ConeKey<'_>,
    ) -> ClassId {
        let class = store.begin_class(key);
        let run = self.enumerate(subject, node, mode, bufs, states, &mut |mv| {
            store.push_template(
                class,
                mv.gate,
                mv.pattern,
                mv.leaves
                    .iter()
                    .map(|&id| cone.local_of(id).expect("match leaf inside cone")),
                mv.covered
                    .iter()
                    .map(|&id| cone.local_of(id).expect("covered node inside cone")),
            );
        });
        store.set_pruned(class, run.pruned);
        class
    }
}

/// Attempts to bind pattern node `p` to subject node `s`, invoking `cont`
/// for every consistent completion of the remaining obligations and undoing
/// the binding afterwards. With automaton states in `st`, an internal
/// pattern node whose subtree does not embed at `s` even under the
/// automaton's relaxed match is rejected before any binding, which cuts
/// only branches that could never complete.
fn try_bind(
    flat: &FlatNet,
    lp: &LibPattern,
    mode: MatchMode,
    p: usize,
    s: NodeId,
    st: &mut State,
    cont: &mut dyn FnMut(&mut State),
) {
    let pattern = &lp.graph;
    // A shared pattern node (leaf-DAG / DAG patterns) may be reached twice;
    // the second visit must agree with the first.
    if let Some(bound) = st.binding[p] {
        if bound == s {
            cont(st);
        }
        return;
    }
    if let Some(states) = st.states {
        let t = lp.subtree[p];
        if t != LEAF_SUBTREE && !states.contains(s, t) {
            return;
        }
    }
    let kind = flat.kind(s);
    let pn = pattern.node(p);
    let is_leaf = matches!(pn, PatternNode::Leaf { .. });
    // Condition 2 (function / in-degree compatibility; subject NANDs have
    // exactly two fanins by the subject-graph invariant).
    match pn {
        PatternNode::Leaf { .. } => {}
        PatternNode::Inv { .. } => {
            if kind != KIND_INV {
                return;
            }
        }
        PatternNode::Nand { .. } => {
            if kind != KIND_NAND {
                return;
            }
        }
    }
    // One-to-one requirement of standard and exact matches.
    if mode != MatchMode::Extended && st.owned[s.index()] {
        return;
    }
    // Condition 3 of exact matches: internal nodes must not fan out beyond
    // the pattern.
    if mode == MatchMode::Exact
        && !is_leaf
        && p != pattern.root()
        && flat.fanout_count(s) as u32 != pattern.fanout_count(p)
    {
        return;
    }

    st.binding[p] = Some(s);
    if mode != MatchMode::Extended {
        st.owned[s.index()] = true;
    }

    match pn {
        PatternNode::Leaf { .. } => cont(st),
        PatternNode::Inv { fanin } => {
            let target = flat.fanins(s)[0];
            try_bind(flat, lp, mode, fanin, target, st, cont);
        }
        PatternNode::Nand { fanins: [c0, c1] } => {
            let f = flat.fanins(s);
            let (f0, f1) = (f[0], f[1]);
            // Both fanin orders: this is where input permutations of the
            // original gate are explored. At a symmetric NAND the second
            // order only permutes pins of equal timing in a binding the
            // first order already produced (DESIGN.md §4.3), so it is
            // skipped.
            for (x, y) in [(f0, f1), (f1, f0)] {
                try_bind(flat, lp, mode, c0, x, st, &mut |st| {
                    try_bind(flat, lp, mode, c1, y, st, &mut |st| cont(st));
                });
                if c0 == c1 || f0 == f1 || lp.symmetric[p] {
                    break; // the other order explores nothing new
                }
            }
        }
    }

    st.binding[p] = None;
    if mode != MatchMode::Extended {
        st.owned[s.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_genlib::Gate;
    use dagmap_netlist::{NetlistError, Network, NodeFn};
    use std::collections::HashSet;

    fn lib(gates: &[(&str, &str)]) -> Library {
        Library::new(
            "test",
            gates
                .iter()
                .map(|(n, e)| Gate::uniform(*n, 1.0, "O", e, 1.0).expect("test gate"))
                .collect(),
        )
        .expect("test library")
    }

    /// Subject graph wrapping hand-built NAND/INV structure (no strash).
    fn wrap(net: Network) -> SubjectGraph {
        SubjectGraph::from_subject_network(net).expect("valid subject")
    }

    fn gate_names(lib: &Library, matches: &[Match]) -> Vec<String> {
        let mut v: Vec<String> = matches
            .iter()
            .map(|m| lib.gate(m.gate).name().to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn nand2_matches_bare_nand() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        net.add_output("f", g);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)")]);
        let m = Matcher::new(&l).matches_at(&subject, g, MatchMode::Standard);
        // nand2's pins share one timing, so its root is symmetric: the
        // binding (b,a) only permutes (a,b) and is not enumerated.
        assert_eq!(gate_names(&l, &m), ["nand2"]);
        assert_eq!(m[0].leaves, [a, b]);
        Ok(())
    }

    #[test]
    fn and2_matches_inv_over_nand() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let m = Matcher::new(&l).matches_at(&subject, h, MatchMode::Standard);
        // Both the inverter (covering h only) and and2 (covering h+g) match.
        let names = gate_names(&l, &m);
        assert!(names.contains(&"inv".to_owned()));
        assert!(names.contains(&"and2".to_owned()));
        Ok(())
    }

    #[test]
    fn figure1_extended_but_not_standard() -> Result<(), NetlistError> {
        // Subject: top = nand(inv(n), inv(n)) with two *distinct* inverters
        // over the same NAND n — the reconvergent structure of Figure 1.
        let mut net = Network::new("fig1");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n = net.add_node(NodeFn::Nand, vec![a, b])?;
        let u = net.add_node(NodeFn::Not, vec![n])?;
        let v = net.add_node(NodeFn::Not, vec![n])?;
        let top = net.add_node(NodeFn::Nand, vec![u, v])?;
        net.add_output("f", top);
        let subject = wrap(net);
        // The balanced nand4 pattern is nand(inv(nand(x,y)), inv(nand(z,w))):
        // m and m' are its two inner NANDs, which must both bind n.
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("nand4", "!(a*b*c*d)")]);
        let matcher = Matcher::new(&l);
        let std_names = gate_names(&l, &matcher.matches_at(&subject, top, MatchMode::Standard));
        let ext_names = gate_names(&l, &matcher.matches_at(&subject, top, MatchMode::Extended));
        assert!(!std_names.contains(&"nand4".to_owned()), "{std_names:?}");
        assert!(ext_names.contains(&"nand4".to_owned()), "{ext_names:?}");
        Ok(())
    }

    #[test]
    fn exact_match_rejects_escaping_fanout() -> Result<(), NetlistError> {
        // g = nand(a,b) fans out to BOTH inv(h) and an extra consumer:
        // and2 (= inv over nand) is a standard match at h but not exact.
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        let extra = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        net.add_output("e", extra);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let matcher = Matcher::new(&l);
        let std_names = gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Standard));
        let exact_names = gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Exact));
        assert!(std_names.contains(&"and2".to_owned()));
        assert!(!exact_names.contains(&"and2".to_owned()));
        assert!(exact_names.contains(&"inv".to_owned()));
        Ok(())
    }

    #[test]
    fn exact_and_standard_agree_without_fanout() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let matcher = Matcher::new(&l);
        assert_eq!(
            gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Standard)),
            gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Exact)),
        );
        Ok(())
    }

    #[test]
    fn xor_leaf_dag_matches_xor_structure() {
        // Build via decomposition so the subject uses the SOP xor shape.
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        net.add_output("f", f);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("xor2", "a*!b + !a*b")]);
        let root = subject.network().outputs()[0].driver;
        let m = Matcher::new(&l).matches_at(&subject, root, MatchMode::Standard);
        assert!(gate_names(&l, &m).contains(&"xor2".to_owned()));
        // All leaves of the xor match are the primary inputs.
        let xm = m
            .iter()
            .find(|m| l.gate(m.gate).name() == "xor2")
            .expect("xor matched");
        let mut leaves = xm.leaves.clone();
        leaves.sort();
        let mut pis = subject.network().inputs().to_vec();
        pis.sort();
        assert_eq!(leaves, pis);
    }

    #[test]
    fn permutations_of_asymmetric_patterns_are_found() -> Result<(), NetlistError> {
        // aoi21 = !(a*b + c): subject built with c in either fanin position.
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("aoi21", "!(a*b+c)")]);
        for swap in [false, true] {
            let mut net = Network::new("n");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let c = net.add_input("c");
            // !(ab + c) decomposes (balanced, after folding) into
            // inv(nand(nand(a,b), inv(c))).
            let nab = net.add_node(NodeFn::Nand, vec![a, b])?;
            let nc = net.add_node(NodeFn::Not, vec![c])?;
            let or = if swap {
                net.add_node(NodeFn::Nand, vec![nc, nab])?
            } else {
                net.add_node(NodeFn::Nand, vec![nab, nc])?
            };
            let top = net.add_node(NodeFn::Not, vec![or])?;
            net.add_output("f", top);
            let subject = wrap(net);
            let m = Matcher::new(&l).matches_at(&subject, top, MatchMode::Standard);
            assert!(
                gate_names(&l, &m).contains(&"aoi21".to_owned()),
                "swap={swap}"
            );
        }
        Ok(())
    }

    #[test]
    fn no_matches_at_inputs() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let g = net.add_node(NodeFn::Not, vec![a])?;
        net.add_output("f", g);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)")]);
        assert!(Matcher::new(&l)
            .matches_at(&subject, a, MatchMode::Standard)
            .is_empty());
        Ok(())
    }

    #[test]
    fn extended_subsumes_standard() -> Result<(), NetlistError> {
        // On a reconvergent structure, every standard match must also be
        // found in extended mode.
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n = net.add_node(NodeFn::Nand, vec![a, b])?;
        let u = net.add_node(NodeFn::Not, vec![n])?;
        let v = net.add_node(NodeFn::Not, vec![n])?;
        let top = net.add_node(NodeFn::Nand, vec![u, v])?;
        net.add_output("f", top);
        let subject = wrap(net);
        let l = lib(&[
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("nand4", "!(a*b*c*d)"),
            ("and2", "a*b"),
        ]);
        let matcher = Matcher::new(&l);
        for node in [n, u, v, top] {
            let std: HashSet<(GateId, Vec<NodeId>)> = matcher
                .matches_at(&subject, node, MatchMode::Standard)
                .into_iter()
                .map(|m| (m.gate, m.leaves))
                .collect();
            let ext: HashSet<(GateId, Vec<NodeId>)> = matcher
                .matches_at(&subject, node, MatchMode::Extended)
                .into_iter()
                .map(|m| (m.gate, m.leaves))
                .collect();
            assert!(std.is_subset(&ext));
        }
        Ok(())
    }

    #[test]
    fn covered_nodes_are_the_internal_binding() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        let subject = wrap(net);
        let l = lib(&[("and2", "a*b"), ("inv", "!a"), ("nand2", "!(a*b)")]);
        let m = Matcher::new(&l).matches_at(&subject, h, MatchMode::Standard);
        let and_match = m
            .iter()
            .find(|m| l.gate(m.gate).name() == "and2")
            .expect("and2 matches");
        let mut covered = and_match.covered.clone();
        covered.sort();
        let mut want = vec![g, h];
        want.sort();
        assert_eq!(covered, want);
        Ok(())
    }

    #[test]
    fn scratch_reuse_across_nodes_and_subjects_is_clean() {
        // One scratch driven over every node of two different subjects must
        // give exactly what fresh-scratch enumeration gives.
        let l = lib(&[
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("and2", "a*b"),
            ("nand4", "!(a*b*c*d)"),
        ]);
        let matcher = Matcher::new(&l);
        let mut shared = MatchScratch::new();
        for seed_shape in 0..2 {
            let mut net = Network::new("s");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
            let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
            let top = if seed_shape == 0 {
                let k = net.add_node(NodeFn::Nand, vec![h, a]).unwrap();
                net.add_node(NodeFn::Not, vec![k]).unwrap()
            } else {
                net.add_node(NodeFn::Nand, vec![h, b]).unwrap()
            };
            net.add_output("f", top);
            let subject = wrap(net);
            for node in subject.network().node_ids() {
                for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                    let mut via_shared = Vec::new();
                    matcher.for_each_match_at(&subject, node, mode, &mut shared, &mut |mv| {
                        via_shared.push(mv.to_match());
                    });
                    let fresh = matcher.matches_at(&subject, node, mode);
                    assert_eq!(via_shared, fresh);
                }
            }
        }
    }

    #[test]
    fn count_matches_agrees_with_enumeration() {
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let matcher = Matcher::new(&l);
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
        net.add_output("f", h);
        let subject = wrap(net);
        for node in subject.network().node_ids() {
            for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                assert_eq!(
                    matcher.count_matches_at(&subject, node, mode),
                    matcher.matches_at(&subject, node, mode).len()
                );
            }
        }
    }

    /// A subject with many isomorphic cones: a ladder of and2 cells
    /// (`h_i = not(nand(h_{i-1}, a_i))`) plus a reconvergent tail.
    fn ladder(n: usize) -> SubjectGraph {
        let mut net = Network::new("ladder");
        let mut prev = net.add_input("x");
        for i in 0..n {
            let a = net.add_input(format!("a{i}"));
            let g = net.add_node(NodeFn::Nand, vec![prev, a]).unwrap();
            prev = net.add_node(NodeFn::Not, vec![g]).unwrap();
        }
        let u = net.add_node(NodeFn::Not, vec![prev]).unwrap();
        let v = net.add_node(NodeFn::Not, vec![prev]).unwrap();
        let top = net.add_node(NodeFn::Nand, vec![u, v]).unwrap();
        net.add_output("f", top);
        wrap(net)
    }

    fn rich_lib() -> Library {
        lib(&[
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("and2", "a*b"),
            ("nand3", "!(a*b*c)"),
            ("nand4", "!(a*b*c*d)"),
            ("aoi21", "!(a*b+c)"),
            ("xor2", "a*!b + !a*b"),
        ])
    }

    const ALL_MODES: [MatchMode; 3] = [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended];

    /// Every node's full match sequence and count under the automaton
    /// equal the reference scan's; the automaton prunes at least as much.
    fn assert_automaton_equals_full_scan(l: &Library, subject: &SubjectGraph) -> bool {
        let base = Matcher::with_config(l, MatchConfig::baseline());
        let automaton = Matcher::with_config(l, MatchConfig { index: true });
        let mut sb = MatchScratch::new();
        let mut si = automaton.scratch_for(subject);
        let mut any_pruned = false;
        for node in subject.network().node_ids() {
            for mode in ALL_MODES {
                let mut a = Vec::new();
                let sa = base.for_each_match_at(subject, node, mode, &mut sb, &mut |mv| {
                    a.push(mv.to_match());
                });
                let mut b = Vec::new();
                let sc = automaton.for_each_match_at(subject, node, mode, &mut si, &mut |mv| {
                    b.push(mv.to_match());
                });
                // The sequences (not just the sets) must be identical.
                assert_eq!(a, b, "{}: node {node:?} mode {mode:?}", l.name());
                assert_eq!(sa.enumerated, sc.enumerated);
                assert!(sc.pruned >= sa.pruned, "the automaton never prunes less");
                any_pruned |= sc.pruned > sa.pruned;
            }
        }
        any_pruned
    }

    #[test]
    fn automaton_enumeration_equals_full_scan() {
        let l = rich_lib();
        assert!(
            assert_automaton_equals_full_scan(&l, &ladder(4)),
            "the automaton pruned something somewhere"
        );
        // The rich builtin library over real structure: XOR leaf-DAGs,
        // reconvergence and every pattern depth.
        let l = Library::lib_44_3_like();
        for net in [
            dagmap_benchgen::alu(4),
            dagmap_benchgen::array_multiplier(4),
        ] {
            let subject = SubjectGraph::from_network(&net).unwrap();
            assert!(assert_automaton_equals_full_scan(&l, &subject));
        }
    }

    #[test]
    fn one_scratch_on_two_subjects_of_equal_size_matches_like_fresh_ones() {
        // Two subjects with the same node count whose nodes differ in kind
        // at equal indices: states kept from the first would hand the
        // second inverter rows for NANDs. The scratch must recompute.
        let build = |inv_first: bool| {
            let mut net = Network::new("s");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let (x, y) = if inv_first {
                let x = net.add_node(NodeFn::Not, vec![a]).unwrap();
                (x, net.add_node(NodeFn::Nand, vec![x, b]).unwrap())
            } else {
                let x = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
                (x, net.add_node(NodeFn::Not, vec![x]).unwrap())
            };
            let top = net.add_node(NodeFn::Nand, vec![y, x]).unwrap();
            net.add_output("f", top);
            wrap(net)
        };
        let (first, second) = (build(true), build(false));
        assert_eq!(first.network().num_nodes(), second.network().num_nodes());
        let l = rich_lib();
        let matcher = Matcher::new(&l);
        let mut reused = matcher.scratch_for(&first);
        for subject in [&first, &second, &first] {
            let mut fresh = matcher.scratch_for(subject);
            for node in subject.network().node_ids() {
                for mode in ALL_MODES {
                    let run = |scratch: &mut MatchScratch| {
                        let mut out = Vec::new();
                        let stats =
                            matcher.for_each_match_at(subject, node, mode, scratch, &mut |mv| {
                                out.push(mv.to_match());
                            });
                        (out, stats)
                    };
                    let (want, want_stats) = run(&mut fresh);
                    let (got, got_stats) = run(&mut reused);
                    assert_eq!(got, want, "node {node:?} mode {mode:?}");
                    assert_eq!(got_stats, want_stats, "node {node:?} mode {mode:?}");
                    assert_eq!(want, matcher.matches_at(subject, node, mode));
                }
            }
        }
    }

    #[test]
    fn class_replay_is_order_identical_and_recurs_across_subjects() {
        let l = rich_lib();
        let matcher = Matcher::new(&l);
        let mut store = MatchStore::for_library(&l);
        let mut s_direct = MatchScratch::new();
        let mut s_class = MatchScratch::new();
        let mut lookups = 0;
        // One store across two subjects of different sizes: node ids differ
        // but cone classes recur, so the second subject mostly finds them.
        for n in [3usize, 6] {
            let subject = ladder(n);
            for node in subject.network().node_ids() {
                for mode in ALL_MODES {
                    let mut direct = Vec::new();
                    let sd =
                        matcher.for_each_match_at(&subject, node, mode, &mut s_direct, &mut |mv| {
                            direct.push(mv.to_match())
                        });
                    let (class, sc) =
                        matcher.class_at(&subject, node, mode, &mut s_class, &mut store);
                    let Some(class) = class else {
                        assert!(direct.is_empty());
                        continue;
                    };
                    lookups += 1;
                    let locals = s_class.cone_locals();
                    let replayed: Vec<Match> = store
                        .templates(class)
                        .map(|t| Match {
                            gate: t.gate,
                            pattern: Some(t.pattern),
                            leaves: t.leaves.iter().map(|&x| locals[x as usize]).collect(),
                            covered: t.covered.iter().map(|&x| locals[x as usize]).collect(),
                        })
                        .collect();
                    assert_eq!(direct, replayed, "node {node:?} mode {mode:?}");
                    assert_eq!(sd.enumerated, sc.enumerated);
                    assert_eq!(sd.pruned, sc.pruned);
                }
            }
        }
        assert!(
            store.num_classes() < lookups,
            "fewer classes than lookups: {} vs {lookups}",
            store.num_classes(),
        );
    }

    #[test]
    fn class_at_is_none_off_gates_and_consistent_on_gates() {
        let l = rich_lib();
        let matcher = Matcher::new(&l);
        let mut store = MatchStore::for_library(&l);
        let mut scratch = MatchScratch::new();
        let subject = ladder(2);
        let net = subject.network();
        for node in net.node_ids() {
            let (class, stats) = matcher.class_at(
                &subject,
                node,
                MatchMode::Standard,
                &mut scratch,
                &mut store,
            );
            match net.node(node).func() {
                NodeFn::Nand | NodeFn::Not => {
                    let class = class.expect("gate nodes get a class");
                    assert_eq!(stats.enumerated, store.num_templates(class));
                    // Every template local resolves through the cone.
                    let locals = scratch.cone_locals();
                    for t in store.templates(class) {
                        for &x in t.leaves.iter().chain(t.covered) {
                            assert!((x as usize) < locals.len());
                        }
                    }
                }
                _ => {
                    assert!(class.is_none());
                    assert_eq!(stats, MatchStats::default());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different library")]
    fn store_rejects_foreign_library() {
        let l1 = lib(&[("inv", "!a"), ("nand2", "!(a*b)")]);
        let l2 = rich_lib();
        let mut store = MatchStore::for_library(&l1);
        let matcher = Matcher::new(&l2);
        let subject = ladder(1);
        let root = subject.network().outputs()[0].driver;
        let mut scratch = MatchScratch::new();
        matcher.class_at(
            &subject,
            root,
            MatchMode::Standard,
            &mut scratch,
            &mut store,
        );
    }

    #[test]
    fn depth_prefilter_prunes_without_changing_results() {
        // nand4's balanced pattern has depth 3; at the level-1 bare NAND it
        // must be pruned up front, while everything that can match still
        // does.
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("nand4", "!(a*b*c*d)")]);
        let matcher = Matcher::new(&l);
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        net.add_output("f", g);
        let subject = wrap(net);
        let mut scratch = MatchScratch::new();
        let mut n = 0usize;
        let stats =
            matcher.for_each_match_at(&subject, g, MatchMode::Standard, &mut scratch, &mut |_| {
                n += 1;
            });
        assert_eq!(n, 1, "nand2 still matches, in its one symmetric order");
        assert_eq!(stats.enumerated, 1);
        // Depth-3 nand4 patterns (both shapes) were pruned at level 1.
        assert!(stats.pruned >= 1, "{stats:?}");
    }
}
