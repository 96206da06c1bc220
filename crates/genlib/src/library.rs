use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{Automaton, Gate, GateId, GenlibError, PatternGraph, PatternNode, TreeShape};

/// Identifier of an expanded pattern inside a [`Library`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(u32);

impl PatternId {
    /// Dense index into [`Library::patterns`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        PatternId(u32::try_from(index).expect("pattern index overflows u32"))
    }
}

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One entry of the expanded pattern set: a gate together with one of its
/// structural decompositions.
#[derive(Debug, Clone)]
pub struct LibPattern {
    /// Owning gate.
    pub gate: GateId,
    /// Decomposition shape that produced this pattern.
    pub shape: TreeShape,
    /// The NAND2/INV pattern graph.
    pub graph: PatternGraph,
    /// Cached [`PatternGraph::depth`] — a match rooted at a subject node is
    /// only possible when the node's topological level is at least this, the
    /// invariant the matcher's depth pre-filter prunes on.
    pub depth: u32,
    /// Per pattern node: true at a NAND whose two fanin subtrees are
    /// interchangeable. Both are private trees (every node under them has
    /// one consumer, so they bind disjoint pins), they are isomorphic up
    /// to fanin order, and corresponding pins have equal
    /// [`PinTiming`](crate::PinTiming). Binding them the other way round
    /// permutes pins of equal timing, which changes neither the match's
    /// arrival nor its pin count nor its leaf multiset, so the matcher
    /// tries only the first fanin order at a marked node.
    pub symmetric: Vec<bool>,
    /// Per pattern node: the id of the subtree it roots in the library's
    /// [`Automaton`] (every leaf is [`crate::LEAF_SUBTREE`]). Equal
    /// subtrees of different patterns share one id.
    pub subtree: Vec<u32>,
}

/// 64-wide depth-filter bitmasks over one root kind's rooted pattern list:
/// the candidate rows of the matcher's unfiltered reference scan (its
/// `MatchConfig::index` off).
///
/// Bit `i` of a row refers to position `i` of the corresponding rooted
/// pattern list ([`Library::patterns_rooted_nand`] /
/// [`Library::patterns_rooted_inv`]), so iterating set bits in ascending
/// order visits candidates in ascending [`PatternId`] order — the same
/// enumeration order as walking the list itself. There is one row per
/// topological level up to the library's maximum pattern depth; bit `i` is
/// set when the pattern's depth fits a node at that level. The automaton's
/// candidate rows ([`crate::SubjectStates::row`]) use the same layout.
#[derive(Debug, Clone)]
pub struct RootMasks {
    /// Rooted-list length the rows cover.
    len: usize,
    /// Words per row (`len.div_ceil(64)`).
    words: usize,
    /// Depth-row clamp: levels at or above this see every pattern.
    max_depth: u32,
    /// `max_depth + 1` rows of `words` words each; row `d` has bit `i` set
    /// when pattern `i`'s depth is at most `d`.
    depth_rows: Vec<u64>,
}

impl RootMasks {
    fn build(patterns: &[LibPattern], rooted: &[PatternId], max_depth: u32) -> RootMasks {
        let len = rooted.len();
        let words = len.div_ceil(64);
        let mut depth_rows = vec![0u64; (max_depth as usize + 1) * words];
        for (pos, &pid) in rooted.iter().enumerate() {
            for d in patterns[pid.index()].depth..=max_depth {
                depth_rows[d as usize * words + pos / 64] |= 1u64 << (pos % 64);
            }
        }
        RootMasks {
            len,
            words,
            max_depth,
            depth_rows,
        }
    }

    /// Number of rooted patterns the rows cover.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the root kind has no patterns at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words per row.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The candidate row of one topological level (clamped to the maximum
    /// pattern depth — deeper levels admit every pattern).
    pub fn depth_row(&self, level: u32) -> &[u64] {
        let start = level.min(self.max_depth) as usize * self.words;
        &self.depth_rows[start..start + self.words]
    }
}

/// A gate library with its expanded pattern set.
///
/// Construction eagerly decomposes every gate into NAND2/INV pattern graphs
/// — one per [`TreeShape`], deduplicated — mirroring the "expanded pattern
/// graphs" whose total node count `p` governs the paper's matching cost.
/// Degenerate patterns (constants, wires such as a `buf` cell) are kept out
/// of the matcher's index but their gates remain listed.
///
/// ```
/// use dagmap_genlib::Library;
///
/// let lib = Library::lib_44_1_like();
/// assert_eq!(lib.gates().len(), 7); // inv + nand2..4 + nor2..4
/// assert!(lib.is_delay_mappable());
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    gates: Vec<Gate>,
    patterns: Vec<LibPattern>,
    rooted_nand: Vec<PatternId>,
    rooted_inv: Vec<PatternId>,
    /// The candidate filter over the hash-consed pattern subtrees. Clones
    /// share it, transition table included: their patterns are equal.
    automaton: Arc<Automaton>,
    /// Bitmask rows over `rooted_nand` (see [`RootMasks`]).
    masks_nand: RootMasks,
    /// Bitmask rows over `rooted_inv` (see [`RootMasks`]).
    masks_inv: RootMasks,
    max_pattern_depth: u32,
    max_pattern_fanout: u32,
    /// See [`Library::digest`].
    digest: u64,
}

impl Library {
    /// Builds a library and its expanded pattern set (all [`TreeShape`]s).
    ///
    /// # Errors
    ///
    /// Fails on duplicate gate names, gates wider than 16 inputs, or
    /// expressions that cannot be decomposed.
    pub fn new(name: impl Into<String>, gates: Vec<Gate>) -> Result<Library, GenlibError> {
        Library::new_with_shapes(name, gates, &TreeShape::ALL)
    }

    /// Like [`Library::new`] but restricting the decomposition shapes used
    /// to expand patterns — shrinking `shapes` shrinks the matcher's search
    /// (the paper's `p`) at the cost of coverage, which the ablation harness
    /// measures.
    ///
    /// # Errors
    ///
    /// As for [`Library::new`].
    pub fn new_with_shapes(
        name: impl Into<String>,
        gates: Vec<Gate>,
        shapes: &[TreeShape],
    ) -> Result<Library, GenlibError> {
        let name = name.into();
        let mut seen = HashSet::new();
        for g in &gates {
            if !seen.insert(g.name().to_owned()) {
                return Err(GenlibError::Validate(format!(
                    "duplicate gate name `{}`",
                    g.name()
                )));
            }
            if g.num_pins() > 16 {
                return Err(GenlibError::Validate(format!(
                    "gate `{}` has {} inputs; at most 16 are supported",
                    g.name(),
                    g.num_pins()
                )));
            }
        }
        let mut patterns = Vec::new();
        let mut rooted_nand = Vec::new();
        let mut rooted_inv = Vec::new();
        for (gi, gate) in gates.iter().enumerate() {
            let pins: Vec<String> = gate.pins().iter().map(|(n, _)| n.clone()).collect();
            let mut shapes_seen: Vec<PatternGraph> = Vec::new();
            for &shape in shapes {
                let Some(graph) = PatternGraph::from_expr(gate.expr(), &pins, shape)? else {
                    continue;
                };
                if graph.is_trivial() || shapes_seen.contains(&graph) {
                    continue;
                }
                let id = PatternId::from_index(patterns.len());
                match graph.node(graph.root()) {
                    PatternNode::Nand { .. } => rooted_nand.push(id),
                    PatternNode::Inv { .. } => rooted_inv.push(id),
                    PatternNode::Leaf { .. } => unreachable!("trivial patterns were skipped"),
                }
                shapes_seen.push(graph.clone());
                let depth = graph.depth();
                let symmetric = symmetric_nands(&graph, gate);
                patterns.push(LibPattern {
                    gate: GateId::from_index(gi),
                    shape,
                    graph,
                    depth,
                    symmetric,
                    subtree: Vec::new(),
                });
            }
        }
        let automaton = Arc::new(Automaton::build(&mut patterns, &rooted_nand, &rooted_inv));
        let max_pattern_depth = patterns.iter().map(|p| p.depth).max().unwrap_or(0);
        let max_pattern_fanout = patterns
            .iter()
            .flat_map(|p| (0..p.graph.len()).map(|i| p.graph.fanout_count(i)))
            .max()
            .unwrap_or(0);
        let masks_nand = RootMasks::build(&patterns, &rooted_nand, max_pattern_depth);
        let masks_inv = RootMasks::build(&patterns, &rooted_inv, max_pattern_depth);
        let digest = content_digest(&gates, &patterns);
        Ok(Library {
            name,
            gates,
            patterns,
            rooted_nand,
            rooted_inv,
            automaton,
            masks_nand,
            masks_inv,
            max_pattern_depth,
            max_pattern_fanout,
            digest,
        })
    }

    /// A digest of everything the labeling pass reads from the library:
    /// gate areas, pin delays and the expanded patterns. Two libraries with
    /// equal digests label every subject identically, so a snapshot of
    /// labels is reusable exactly under a library with the same digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// A gate by id.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different library.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All gate ids, in [`Library::gates`] order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// Looks a gate up by name.
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.gates
            .iter()
            .position(|g| g.name() == name)
            .map(GateId::from_index)
    }

    /// The expanded pattern set.
    pub fn patterns(&self) -> &[LibPattern] {
        &self.patterns
    }

    /// A pattern by id.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different library.
    pub fn pattern(&self, id: PatternId) -> &LibPattern {
        &self.patterns[id.index()]
    }

    /// Patterns whose root is a NAND (candidates at subject NAND nodes).
    pub fn patterns_rooted_nand(&self) -> &[PatternId] {
        &self.rooted_nand
    }

    /// Patterns whose root is an inverter (candidates at subject INV nodes).
    pub fn patterns_rooted_inv(&self) -> &[PatternId] {
        &self.rooted_inv
    }

    /// The library's tree automaton over its hash-consed pattern subtrees:
    /// the structural matcher's candidate filter (see [`Automaton`]).
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// Depth-filter bitmask rows over the NAND-rooted pattern list.
    pub fn nand_masks(&self) -> &RootMasks {
        &self.masks_nand
    }

    /// Depth-filter bitmask rows over the inverter-rooted pattern list.
    pub fn inv_masks(&self) -> &RootMasks {
        &self.masks_inv
    }

    /// Maximum NAND/INV depth over the expanded pattern set. Subject logic
    /// deeper than this below a node can never influence a match rooted
    /// there — the truncation horizon of the cone-class match store.
    pub fn max_pattern_depth(&self) -> u32 {
        self.max_pattern_depth
    }

    /// Saturation bound for subject fanout counts as observed by
    /// exact-match semantics: every pattern-internal fanout requirement is
    /// below this, so larger subject counts are interchangeable.
    pub fn pattern_fanout_cap(&self) -> u32 {
        self.max_pattern_fanout + 1
    }

    /// True when every subject node can be covered: the pattern set contains
    /// a bare inverter and a bare two-input NAND.
    pub fn is_delay_mappable(&self) -> bool {
        let bare_inv = self.rooted_inv.iter().any(|&p| {
            let g = &self.patterns[p.index()].graph;
            g.num_internal() == 1
        });
        let bare_nand = self.rooted_nand.iter().any(|&p| {
            let g = &self.patterns[p.index()].graph;
            g.num_internal() == 1
        });
        bare_inv && bare_nand
    }

    /// Total node count over the expanded pattern set — the paper's `p`.
    pub fn total_pattern_nodes(&self) -> usize {
        self.patterns.iter().map(|p| p.graph.len()).sum()
    }

    /// The largest gate input count.
    pub fn max_gate_inputs(&self) -> usize {
        self.gates.iter().map(Gate::num_pins).max().unwrap_or(0)
    }

    /// Parses genlib text (see the [`parser`](crate::GenlibError) grammar)
    /// into a library named `"genlib"`.
    ///
    /// # Errors
    ///
    /// Reports parse failures with line numbers and library validation
    /// errors.
    pub fn from_genlib(text: &str) -> Result<Library, GenlibError> {
        crate::parser::parse("genlib", text)
    }

    /// Like [`Library::from_genlib`] with an explicit library name.
    ///
    /// # Errors
    ///
    /// Reports parse failures with line numbers and library validation
    /// errors.
    pub fn from_genlib_named(name: &str, text: &str) -> Result<Library, GenlibError> {
        crate::parser::parse(name, text)
    }

    /// Serializes the library to genlib text.
    pub fn to_genlib_string(&self) -> String {
        crate::writer::to_string(self)
    }
}

/// See [`Library::digest`]; `DefaultHasher::new` is stable in a process.
fn content_digest(gates: &[Gate], patterns: &[LibPattern]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for gate in gates {
        gate.area().to_bits().hash(&mut h);
        for pin in 0..gate.num_pins() {
            gate.pin_delay(pin).to_bits().hash(&mut h);
        }
    }
    for p in patterns {
        p.gate.hash(&mut h);
        p.graph.hash(&mut h);
    }
    h.finish()
}

/// The [`LibPattern::symmetric`] marks of one pattern of `gate`, in one
/// bottom-up pass. Each node whose subtree is a private tree gets an
/// integer code, interned so that two such subtrees get equal codes
/// exactly when they are isomorphic up to fanin order with pins of equal
/// timing in corresponding positions. A NAND is marked when both fanins
/// carry a code and the codes agree.
fn symmetric_nands(graph: &PatternGraph, gate: &Gate) -> Vec<bool> {
    let pins = gate.pins();
    // A pin's timing class: the first pin with equal timing.
    let timing_class = |pin: usize| {
        let timing = &pins[pin].1;
        pins.iter().position(|(_, t)| t == timing).unwrap_or(pin) as u32
    };
    let mut interned: Vec<(u8, u32, u32)> = Vec::new();
    let mut intern = |key: (u8, u32, u32)| match interned.iter().position(|&k| k == key) {
        Some(code) => code as u32,
        None => {
            interned.push(key);
            interned.len() as u32 - 1
        }
    };
    let mut code: Vec<Option<u32>> = Vec::with_capacity(graph.len());
    let mut marks = vec![false; graph.len()];
    for (i, node) in graph.nodes().iter().enumerate() {
        let key = match *node {
            PatternNode::Leaf { pin } => Some((0, timing_class(pin), 0)),
            PatternNode::Inv { fanin } => code[fanin].map(|c| (1, c, 0)),
            PatternNode::Nand { fanins: [a, b] } => match (code[a], code[b]) {
                (Some(x), Some(y)) => {
                    marks[i] = x == y;
                    Some((2, x.min(y), x.max(y)))
                }
                _ => None,
            },
        };
        // Only a node with one consumer keeps its subtree private.
        code.push(key.filter(|_| graph.fanout_count(i) == 1).map(&mut intern));
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, PinTiming};

    fn tiny() -> Library {
        Library::new(
            "tiny",
            vec![
                Gate::uniform("inv", 1.0, "O", "!a", 1.0).unwrap(),
                Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).unwrap(),
                Gate::uniform("nand4", 4.0, "O", "!(a*b*c*d)", 2.0).unwrap(),
                Gate::uniform("buf", 1.0, "O", "a", 1.0).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_pattern_index() {
        let lib = tiny();
        assert!(lib.is_delay_mappable());
        // inv -> 1 pattern (inv-rooted); nand2 -> 1; nand4 -> 2 shapes;
        // buf -> trivial, skipped.
        assert_eq!(lib.patterns_rooted_inv().len(), 1);
        assert_eq!(lib.patterns_rooted_nand().len(), 3);
        assert_eq!(lib.patterns().len(), 4);
        assert!(lib.total_pattern_nodes() > 0);
    }

    #[test]
    fn digest_follows_what_labeling_reads() {
        let renamed = Library::new("other", tiny().gates().to_vec()).unwrap();
        assert_eq!(renamed.digest(), tiny().digest(), "names are not read");
        let mut gates = tiny().gates().to_vec();
        gates[1] = Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.5).unwrap();
        let slower = Library::new("tiny", gates).unwrap();
        assert_ne!(slower.digest(), tiny().digest(), "pin delays are read");
    }

    #[test]
    fn narrow_gates_get_one_shape() {
        let lib = tiny();
        let nand2 = lib.find_gate("nand2").unwrap();
        let count = lib.patterns().iter().filter(|p| p.gate == nand2).count();
        assert_eq!(count, 1, "both shapes of a 2-input gate coincide");
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Library::new(
            "dup",
            vec![
                Gate::uniform("inv", 1.0, "O", "!a", 1.0).unwrap(),
                Gate::uniform("inv", 1.0, "O", "!b", 1.0).unwrap(),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, GenlibError::Validate(_)));
    }

    #[test]
    fn incomplete_libraries_are_flagged() {
        let lib = Library::new(
            "no_inv",
            vec![Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).unwrap()],
        )
        .unwrap();
        assert!(!lib.is_delay_mappable());
    }

    #[test]
    fn lookup_by_name() {
        let lib = tiny();
        let id = lib.find_gate("nand4").unwrap();
        assert_eq!(lib.gate(id).name(), "nand4");
        assert!(lib.find_gate("zzz").is_none());
    }

    #[test]
    fn depth_rows_follow_the_depth_filter() {
        for lib in [tiny(), Library::lib2_like(), Library::lib_44_3_like()] {
            for (masks, rooted) in [
                (lib.nand_masks(), lib.patterns_rooted_nand()),
                (lib.inv_masks(), lib.patterns_rooted_inv()),
            ] {
                assert_eq!(masks.len(), rooted.len());
                assert_eq!(masks.words(), rooted.len().div_ceil(64));
                for level in 0..=lib.max_pattern_depth() + 2 {
                    let row = masks.depth_row(level);
                    for (pos, &pid) in rooted.iter().enumerate() {
                        let bit = row[pos / 64] >> (pos % 64) & 1 == 1;
                        assert_eq!(
                            bit,
                            lib.pattern(pid).depth <= level,
                            "{}: depth row {level} bit {pos}",
                            lib.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equal_subtrees_share_an_id_and_leaves_are_wildcards() {
        for lib in [tiny(), Library::lib2_like(), Library::lib_44_3_like()] {
            // Two pattern nodes get one id exactly when the trees they
            // unfold to are equal up to NAND fanin order, leaves as one
            // wildcard: compare the canonical unfolded text.
            let mut text_of: std::collections::HashMap<u32, String> = Default::default();
            for p in lib.patterns() {
                assert_eq!(p.subtree.len(), p.graph.len());
                for (i, node) in p.graph.nodes().iter().enumerate() {
                    let text = unfold(&p.graph, i);
                    if matches!(node, PatternNode::Leaf { .. }) {
                        assert_eq!(p.subtree[i], crate::LEAF_SUBTREE);
                    }
                    let prev = text_of.entry(p.subtree[i]).or_insert_with(|| text.clone());
                    assert_eq!(*prev, text, "{}: subtree {}", lib.name(), p.subtree[i]);
                }
            }
            let distinct: HashSet<&String> = text_of.values().collect();
            assert_eq!(
                distinct.len(),
                text_of.len(),
                "{}: one id per tree",
                lib.name()
            );
            assert_eq!(
                lib.automaton().num_subtrees(),
                text_of.len(),
                "{}",
                lib.name()
            );
        }
    }

    /// The canonical text of the tree pattern node `i` unfolds to.
    fn unfold(graph: &PatternGraph, i: usize) -> String {
        match graph.node(i) {
            PatternNode::Leaf { .. } => "_".to_owned(),
            PatternNode::Inv { fanin } => format!("i({})", unfold(graph, fanin)),
            PatternNode::Nand { fanins: [a, b] } => {
                let (x, y) = (unfold(graph, a), unfold(graph, b));
                format!("n({},{})", x.clone().min(y.clone()), x.max(y))
            }
        }
    }

    /// The NAND nodes of `gate`'s `shape` pattern, each with its mark.
    fn nand_marks(gate: Gate, shape: TreeShape) -> Vec<(PatternNode, bool)> {
        let name = gate.name().to_owned();
        let lib = Library::new_with_shapes("marks", vec![gate], &[shape]).unwrap();
        let [p] = lib.patterns() else {
            panic!("{name}: expected one pattern");
        };
        p.graph
            .nodes()
            .iter()
            .zip(&p.symmetric)
            .filter(|(n, _)| matches!(n, PatternNode::Nand { .. }))
            .map(|(&n, &mark)| (n, mark))
            .collect()
    }

    fn uniform_marks(expr: &str, shape: TreeShape) -> Vec<(PatternNode, bool)> {
        nand_marks(Gate::uniform("g", 1.0, "O", expr, 1.0).unwrap(), shape)
    }

    fn leaf_children(graph: &PatternGraph, node: PatternNode) -> bool {
        let PatternNode::Nand { fanins } = node else {
            return false;
        };
        fanins
            .iter()
            .all(|&c| matches!(graph.node(c), PatternNode::Leaf { .. }))
    }

    #[test]
    fn nand2_root_is_symmetric() {
        let marks = uniform_marks("!(a*b)", TreeShape::Balanced);
        assert_eq!(marks.len(), 1);
        assert!(marks[0].1, "{marks:?}");
    }

    #[test]
    fn balanced_nand4_marks_root_and_both_inner_nands() {
        // nand(inv(nand(a,b)), inv(nand(c,d))): three NANDs, all symmetric.
        let marks = uniform_marks("!(a*b*c*d)", TreeShape::Balanced);
        assert_eq!(marks.len(), 3);
        assert!(marks.iter().all(|&(_, m)| m), "{marks:?}");
    }

    #[test]
    fn aoi21_marks_only_the_and_term() {
        // !(a*b + c): the root's fanins (a NAND and an inverter) differ;
        // only nand(a,b) has interchangeable children.
        let e = Expr::parse("!(a*b + c)").unwrap();
        let graph = PatternGraph::from_expr(&e, &e.vars(), TreeShape::Balanced)
            .unwrap()
            .unwrap();
        let marks = uniform_marks("!(a*b + c)", TreeShape::Balanced);
        let marked: Vec<PatternNode> = marks.iter().filter(|m| m.1).map(|m| m.0).collect();
        assert_eq!(marked.len(), 1, "{marks:?}");
        assert!(leaf_children(&graph, marked[0]), "{marks:?}");
        assert!(marks.len() > 1);
    }

    #[test]
    fn xor2_shares_its_leaves_and_marks_nothing() {
        // nand(nand(a,!b), nand(!a,b)): every pin feeds two consumers, so
        // no subtree is private.
        for shape in TreeShape::ALL {
            let marks = uniform_marks("a*!b + !a*b", shape);
            assert!(marks.iter().all(|&(_, m)| !m), "{shape:?}: {marks:?}");
        }
    }

    #[test]
    fn unequal_pin_timing_marks_nothing() {
        let pin = |name: &str, delay: f64| (name.to_owned(), PinTiming::uniform(delay));
        let nand2 = Gate::new(
            "nand2",
            2.0,
            "O",
            Expr::parse("!(a*b)").unwrap(),
            vec![pin("a", 1.0), pin("b", 2.0)],
        )
        .unwrap();
        let marks = nand_marks(nand2, TreeShape::Balanced);
        assert!(marks.len() == 1 && !marks[0].1, "{marks:?}");
        // Equal delays but different input loads: still unequal timing.
        let loads = (1..=4).map(|i| {
            let mut t = PinTiming::uniform(1.0);
            t.input_load = f64::from(i);
            (["a", "b", "c", "d"][i as usize - 1].to_owned(), t)
        });
        let nand4 = Gate::new(
            "nand4",
            4.0,
            "O",
            Expr::parse("!(a*b*c*d)").unwrap(),
            loads.collect(),
        )
        .unwrap();
        let marks = nand_marks(nand4, TreeShape::Balanced);
        assert!(marks.iter().all(|&(_, m)| !m), "{marks:?}");
        // Marks compare timing pin by pin: with a,b fast and c,d slow the
        // inner NANDs stay symmetric, but swapping the halves would not.
        let nand4 = Gate::new(
            "nand4",
            4.0,
            "O",
            Expr::parse("!(a*b*c*d)").unwrap(),
            vec![pin("a", 1.0), pin("b", 1.0), pin("c", 2.0), pin("d", 2.0)],
        )
        .unwrap();
        let marks = nand_marks(nand4, TreeShape::Balanced);
        let flags: Vec<bool> = marks.iter().map(|m| m.1).collect();
        assert_eq!(flags, [true, true, false], "{marks:?}");
    }

    #[test]
    fn depth_and_fanout_bounds_cover_the_pattern_set() {
        let lib = Library::lib_44_3_like();
        assert!(lib.max_pattern_depth() >= 1);
        assert!(lib.pattern_fanout_cap() >= 1);
        for p in lib.patterns() {
            assert!(p.depth <= lib.max_pattern_depth());
            for i in 0..p.graph.len() {
                assert!(p.graph.fanout_count(i) < lib.pattern_fanout_cap());
            }
        }
    }
}
