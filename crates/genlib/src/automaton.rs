//! A bottom-up tree automaton over a library's hash-consed pattern
//! subtrees: the candidate filter of the structural matcher.
//!
//! Every internal pattern node roots a *subtree* — the tree its pattern
//! unfolds to below it, with leaves as wildcards. The library hash-conses
//! those subtrees once (`Inv(child)`, `Nand(min, max)` over child ids, every
//! leaf one wildcard id), so equal subtrees of different patterns share one
//! id. The *state* of a subject node is the set of subtrees that embed at
//! it under a relaxed match: kinds must agree, both NAND fanin orders are
//! allowed, leaves bind anything, and shared pattern nodes are unfolded. A
//! state is a function of the node's kind and its fanins' states, so a
//! whole subject is labeled bottom-up with one table lookup per node.
//!
//! The relaxation only drops conditions of the real search (one-to-one
//! binding, consistent sharing, exact-mode fanout, the symmetric-order
//! skip), so every binding the search completes passes it: a pattern whose
//! root subtree is not in a node's state cannot match there, and a partial
//! binding of a pattern node whose subtree is not in its subject node's
//! state cannot complete. The matcher prunes exactly those, which changes
//! how much it searches but never what it finds or in which order.
//!
//! States are interned in one transition table per library, grown lazily
//! and shared by every pass and thread through one lock taken once per
//! pass ([`Automaton::run`]). Each pass copies the states its subject uses
//! into a [`SubjectStates`], so the matcher reads them without a lock and
//! state numbering never reaches a match.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dagmap_netlist::strash::SeededBuildHasher;
use dagmap_netlist::{NodeId, SubjectGraph, KIND_INV, KIND_NAND, KIND_SOURCE};

use crate::{LibPattern, PatternId, PatternNode};

/// The subtree id every pattern leaf gets: a wildcard that embeds at any
/// subject node, so it is never stored in a state.
pub const LEAF_SUBTREE: u32 = 0;

/// Bound on the states a transition table keeps before it is cleared (see
/// [`Automaton::run`]).
const MAX_STATES: usize = 1 << 12;

/// Bound on the NAND transitions a table keeps before it is cleared: new
/// pairs of known states add transitions without adding states.
const MAX_NAND_TRANSITIONS: usize = 1 << 16;

/// No transition recorded yet.
const NONE: u32 = u32::MAX;

/// A process-unique automaton identity.
fn next_uid() -> u64 {
    static NEXT_UID: AtomicU64 = AtomicU64::new(1);
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// One hash-consed subtree; NAND children are stored sorted.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
enum Subtree {
    Leaf,
    Inv(u32),
    Nand(u32, u32),
}

/// Assigns every node of `patterns` its subtree id (see
/// [`LibPattern::subtree`]) and returns the distinct subtrees, id order.
fn hash_cons(patterns: &mut [LibPattern]) -> Vec<Subtree> {
    let mut defs = vec![Subtree::Leaf];
    let mut ids: HashMap<Subtree, u32> = HashMap::from([(Subtree::Leaf, LEAF_SUBTREE)]);
    for lp in patterns {
        let mut subtree = Vec::with_capacity(lp.graph.len());
        for node in lp.graph.nodes() {
            let def = match *node {
                PatternNode::Leaf { .. } => Subtree::Leaf,
                PatternNode::Inv { fanin } => Subtree::Inv(subtree[fanin]),
                PatternNode::Nand { fanins: [a, b] } => {
                    let (x, y): (u32, u32) = (subtree[a], subtree[b]);
                    Subtree::Nand(x.min(y), x.max(y))
                }
            };
            let id = *ids.entry(def).or_insert_with(|| {
                defs.push(def);
                defs.len() as u32 - 1
            });
            subtree.push(id);
        }
        lp.subtree = subtree;
    }
    defs
}

/// The library's automaton: its subtree table plus the lazily grown
/// transition table.
#[derive(Debug)]
pub struct Automaton {
    /// Identity of this automaton, for [`SubjectStates`] keying.
    uid: u64,
    defs: Vec<Subtree>,
    /// Child → parent lists (CSR): the subtrees that have subtree `t` as a
    /// child are `parents[parent_off[t]..parent_off[t + 1]]`.
    parent_off: Vec<u32>,
    parents: Vec<u32>,
    /// Root subtree per position of `Library::patterns_rooted_nand`.
    nand_roots: Vec<u32>,
    /// Root subtree per position of `Library::patterns_rooted_inv`.
    inv_roots: Vec<u32>,
    /// Words of a membership bitset over subtree ids.
    member_words: usize,
    /// Words of a candidate row (the longer rooted list's).
    row_words: usize,
    table: Mutex<Table>,
}

impl Automaton {
    /// Hash-conses the subtrees of `patterns` (filling each pattern's
    /// [`LibPattern::subtree`]) and starts an empty transition table.
    pub(crate) fn build(
        patterns: &mut [LibPattern],
        rooted_nand: &[PatternId],
        rooted_inv: &[PatternId],
    ) -> Automaton {
        let defs = hash_cons(patterns);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); defs.len()];
        for (t, def) in defs.iter().enumerate() {
            match *def {
                Subtree::Leaf => {}
                Subtree::Inv(c) => lists[c as usize].push(t as u32),
                Subtree::Nand(a, b) => {
                    lists[a as usize].push(t as u32);
                    if a != b {
                        lists[b as usize].push(t as u32);
                    }
                }
            }
        }
        let mut parent_off = Vec::with_capacity(defs.len() + 1);
        let mut parents = Vec::new();
        parent_off.push(0);
        for list in &lists {
            parents.extend_from_slice(list);
            parent_off.push(parents.len() as u32);
        }
        let root_of = |pid: &PatternId| {
            let lp = &patterns[pid.index()];
            lp.subtree[lp.graph.root()]
        };
        let nand_roots: Vec<u32> = rooted_nand.iter().map(root_of).collect();
        let inv_roots: Vec<u32> = rooted_inv.iter().map(root_of).collect();
        let member_words = defs.len().div_ceil(64);
        let row_words = nand_roots.len().max(inv_roots.len()).div_ceil(64);
        Automaton {
            uid: next_uid(),
            table: Mutex::new(Table::new(member_words, row_words)),
            defs,
            parent_off,
            parents,
            nand_roots,
            inv_roots,
            member_words,
            row_words,
        }
    }

    fn parents_of(&self, t: u32) -> &[u32] {
        let t = t as usize;
        &self.parents[self.parent_off[t] as usize..self.parent_off[t + 1] as usize]
    }

    /// Number of distinct subtrees, the wildcard leaf included.
    #[cfg(test)]
    pub(crate) fn num_subtrees(&self) -> usize {
        self.defs.len()
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(|poisoned| {
            // A pass that panicked mid-update may have left a state half
            // interned; an empty table is always consistent.
            let mut table = poisoned.into_inner();
            table.clear();
            self.table.clear_poison();
            table
        })
    }

    /// Computes the state of every node of `subject` into `out`, taking the
    /// table's lock once. A table that reached its state or transition cap
    /// is cleared first, so it holds at most the caps plus one subject's
    /// additions.
    pub fn run(&self, subject: &SubjectGraph, out: &mut SubjectStates) {
        self.run_capped(subject, out, MAX_STATES);
    }

    /// [`Automaton::run`] against a table cleared once it holds
    /// `max_states` states, so tests can drive a table past its cap.
    fn run_capped(&self, subject: &SubjectGraph, out: &mut SubjectStates, max_states: usize) {
        let flat = subject.flat();
        let n = flat.num_nodes();
        out.key = None;
        out.node_state.clear();
        out.node_state.resize(n, 0);
        let mut table = self.lock();
        if table.len() >= max_states || table.nand.len() >= MAX_NAND_TRANSITIONS {
            table.clear();
        }
        for l in 0..flat.num_levels() {
            for &id in flat.level_group(l) {
                let f = flat.fanins(id);
                let state = match flat.kind(id) {
                    KIND_INV => table.inv_state(self, out.node_state[f[0].index()]),
                    KIND_NAND => table.nand_state(
                        self,
                        out.node_state[f[0].index()],
                        out.node_state[f[1].index()],
                    ),
                    _ => SOURCE_STATE,
                };
                out.node_state[id.index()] = state;
            }
        }
        // Copy the states this subject uses, renumbered densely in first-use
        // order, so the matcher reads them without the lock.
        let (mw, rw) = (self.member_words, self.row_words);
        out.member_words = mw;
        out.row_words = rw;
        out.members.clear();
        out.rows.clear();
        let mut local = vec![NONE; table.len()];
        let mut next = 0u32;
        for s in &mut out.node_state {
            let g = *s as usize;
            if local[g] == NONE {
                local[g] = next;
                next += 1;
                out.members
                    .extend_from_slice(&table.members[g * mw..(g + 1) * mw]);
                out.rows
                    .extend_from_slice(&table.rows[g * rw..(g + 1) * rw]);
            }
            *s = local[g];
        }
        out.key = Some((subject.uid(), self.uid));
    }
}

/// The sources' state: only the wildcard leaf embeds at an input, a
/// constant or a latch.
const SOURCE_STATE: u32 = 0;

/// The transition table: interned states with their membership bitsets and
/// candidate rows, and the transitions found so far.
#[derive(Debug)]
struct Table {
    member_words: usize,
    row_words: usize,
    /// INV transitions, indexed by the fanin's state.
    inv: Vec<u32>,
    /// NAND transitions, keyed by the unordered pair of fanin states.
    nand: HashMap<u64, u32, SeededBuildHasher>,
    /// `(kind, members)` → state.
    interned: HashMap<Box<[u64]>, u32>,
    /// Per state: which subtrees embed (bit per subtree id).
    members: Vec<u64>,
    /// Per state: which patterns of its root kind's rooted list have their
    /// root subtree in it (bit per rooted position).
    rows: Vec<u64>,
}

impl Table {
    fn new(member_words: usize, row_words: usize) -> Table {
        let mut table = Table {
            member_words,
            row_words,
            inv: Vec::new(),
            nand: HashMap::default(),
            interned: HashMap::new(),
            members: Vec::new(),
            rows: Vec::new(),
        };
        table.clear();
        table
    }

    fn len(&self) -> usize {
        self.inv.len()
    }

    /// Drops every state but the sources' and every transition.
    fn clear(&mut self) {
        self.inv.clear();
        self.nand.clear();
        self.interned.clear();
        self.members.clear();
        self.rows.clear();
        let source = vec![0u64; self.member_words];
        let state = self.intern_members(KIND_SOURCE, source, &[]);
        debug_assert_eq!(state, SOURCE_STATE);
    }

    fn contains(&self, state: u32, t: u32) -> bool {
        t == LEAF_SUBTREE || member_bit(&self.members, self.member_words, state, t)
    }

    fn inv_state(&mut self, auto: &Automaton, a: u32) -> u32 {
        let known = self.inv[a as usize];
        if known != NONE {
            return known;
        }
        let mut members = vec![0u64; self.member_words];
        self.for_each_member(a, |x| {
            for &t in auto.parents_of(x) {
                if auto.defs[t as usize] == Subtree::Inv(x) {
                    set_bit(&mut members, t);
                }
            }
        });
        let state = self.intern_members(KIND_INV, members, &auto.inv_roots);
        self.inv[a as usize] = state;
        state
    }

    fn nand_state(&mut self, auto: &Automaton, a: u32, b: u32) -> u32 {
        let key = (u64::from(a.min(b)) << 32) | u64::from(a.max(b));
        if let Some(&state) = self.nand.get(&key) {
            return state;
        }
        // `Nand(u, v)` embeds when one child embeds at one fanin and the
        // other at the other, in either order: walk the parents of every
        // subtree at fanin `a` and test the sibling at fanin `b`.
        let mut members = vec![0u64; self.member_words];
        self.for_each_member(a, |x| {
            for &t in auto.parents_of(x) {
                if let Subtree::Nand(u, v) = auto.defs[t as usize] {
                    let sibling = if u == x { v } else { u };
                    if self.contains(b, sibling) {
                        set_bit(&mut members, t);
                    }
                }
            }
        });
        let state = self.intern_members(KIND_NAND, members, &auto.nand_roots);
        self.nand.insert(key, state);
        state
    }

    /// Calls `f` on the wildcard leaf and on every subtree in `state`.
    fn for_each_member(&self, state: u32, mut f: impl FnMut(u32)) {
        f(LEAF_SUBTREE);
        let start = state as usize * self.member_words;
        for (wi, &word) in self.members[start..start + self.member_words]
            .iter()
            .enumerate()
        {
            let mut w = word;
            while w != 0 {
                f((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// The state of `(kind, members)`, interning it (with its candidate row
    /// over `roots`) when it is new.
    fn intern_members(&mut self, kind: u8, members: Vec<u64>, roots: &[u32]) -> u32 {
        let mut key = members;
        key.push(u64::from(kind));
        if let Some(&state) = self.interned.get(key.as_slice()) {
            return state;
        }
        let state = self.len() as u32;
        key.pop();
        let mut row = vec![0u64; self.row_words];
        for (pos, &root) in roots.iter().enumerate() {
            if member_bit(&key, self.member_words, 0, root) {
                row[pos / 64] |= 1u64 << (pos % 64);
            }
        }
        self.members.extend_from_slice(&key);
        self.rows.extend_from_slice(&row);
        self.inv.push(NONE);
        key.push(u64::from(kind));
        self.interned.insert(key.into_boxed_slice(), state);
        state
    }
}

fn member_bit(members: &[u64], words: usize, state: u32, t: u32) -> bool {
    let t = t as usize;
    members[state as usize * words + t / 64] >> (t % 64) & 1 != 0
}

fn set_bit(words: &mut [u64], t: u32) {
    words[t as usize / 64] |= 1u64 << (t % 64);
}

/// The automaton's states for the nodes of one subject graph, copied out of
/// the library's table by [`Automaton::run`]. The matcher keeps one per
/// scratch and reads it lock-free.
#[derive(Debug, Default, Clone)]
pub struct SubjectStates {
    /// `(subject uid, automaton uid)` the states were computed for.
    key: Option<(u64, u64)>,
    /// Per subject node: its state, numbered densely for this subject.
    node_state: Vec<u32>,
    member_words: usize,
    row_words: usize,
    /// Per local state: its membership bitset.
    members: Vec<u64>,
    /// Per local state: its candidate row.
    rows: Vec<u64>,
}

impl SubjectStates {
    /// Whether these are the states of `subject` under `automaton`.
    pub fn is_for(&self, subject: &SubjectGraph, automaton: &Automaton) -> bool {
        self.key == Some((subject.uid(), automaton.uid))
    }

    /// Whether subtree `t` embeds at `node`.
    #[inline]
    pub fn contains(&self, node: NodeId, t: u32) -> bool {
        member_bit(
            &self.members,
            self.member_words,
            self.node_state[node.index()],
            t,
        )
    }

    /// The candidate row of `node`: bit `i` is set when pattern `i` of the
    /// rooted list of `node`'s kind has its root subtree in the state.
    #[inline]
    pub fn row(&self, node: NodeId) -> &[u64] {
        let start = self.node_state[node.index()] as usize * self.row_words;
        &self.rows[start..start + self.row_words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Library;
    use dagmap_netlist::{FlatNet, Network, NodeFn};

    /// The relaxed embedding, by direct recursion: the definition the
    /// states must agree with.
    fn embeds(auto: &Automaton, t: u32, flat: &FlatNet, node: NodeId) -> bool {
        let f = flat.fanins(node);
        match auto.defs[t as usize] {
            Subtree::Leaf => true,
            Subtree::Inv(c) => flat.kind(node) == KIND_INV && embeds(auto, c, flat, f[0]),
            Subtree::Nand(a, b) => {
                flat.kind(node) == KIND_NAND
                    && ((embeds(auto, a, flat, f[0]) && embeds(auto, b, flat, f[1]))
                        || (embeds(auto, a, flat, f[1]) && embeds(auto, b, flat, f[0])))
            }
        }
    }

    /// A seeded random NAND2/INV subject with shared and reconvergent logic.
    fn random_subject(seed: u64, gates: usize) -> SubjectGraph {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut net = Network::new("random");
        let mut nodes: Vec<NodeId> = (0..4).map(|i| net.add_input(format!("i{i}"))).collect();
        for _ in 0..gates {
            let a = nodes[next(nodes.len())];
            let node = if next(3) == 0 {
                net.add_node(NodeFn::Not, vec![a])
            } else {
                let b = nodes[next(nodes.len())];
                net.add_node(NodeFn::Nand, vec![a, b])
            };
            nodes.push(node.expect("gate arity"));
        }
        for (i, &n) in nodes.iter().rev().take(4).enumerate() {
            net.add_output(format!("o{i}"), n);
        }
        SubjectGraph::from_subject_network(net).expect("random subject")
    }

    fn builtin_libraries() -> [Library; 4] {
        [
            Library::minimal(),
            Library::lib2_like(),
            Library::lib_44_1_like(),
            Library::lib_44_3_like(),
        ]
    }

    #[test]
    fn states_hold_exactly_the_subtrees_that_embed() {
        for lib in builtin_libraries() {
            let auto = lib.automaton();
            let mut states = SubjectStates::default();
            for seed in 1..=6 {
                let subject = random_subject(seed, 60);
                auto.run(&subject, &mut states);
                assert!(states.is_for(&subject, auto));
                let flat = subject.flat();
                for node in subject.network().node_ids() {
                    for t in 1..auto.num_subtrees() as u32 {
                        assert_eq!(
                            states.contains(node, t),
                            embeds(auto, t, flat, node),
                            "{}: seed {seed} node {node:?} subtree {t}",
                            lib.name()
                        );
                    }
                    // The candidate row marks the rooted patterns whose root
                    // subtree embeds.
                    let rooted = match flat.kind(node) {
                        KIND_NAND => lib.patterns_rooted_nand(),
                        KIND_INV => lib.patterns_rooted_inv(),
                        _ => continue,
                    };
                    let row = states.row(node);
                    for (pos, &pid) in rooted.iter().enumerate() {
                        let lp = lib.pattern(pid);
                        let root = lp.subtree[lp.graph.root()];
                        assert_eq!(
                            row[pos / 64] >> (pos % 64) & 1 == 1,
                            embeds(auto, root, flat, node),
                            "{}: seed {seed} node {node:?} pattern {pid}",
                            lib.name()
                        );
                    }
                }
            }
        }
    }

    /// A table cleared because a pass started at its cap hands the matcher
    /// exactly the states a table that never filled does: the same state
    /// per node, membership bitsets and candidate rows, so every match and
    /// label is the same.
    #[test]
    fn a_table_driven_past_its_cap_hands_out_the_same_states() {
        for lib in builtin_libraries() {
            let auto = lib.automaton();
            for seed in 1..=6 {
                let subject = random_subject(seed, 60);
                let mut warm = SubjectStates::default();
                auto.run(&subject, &mut warm);
                // Every pass leaves more than two states, so a cap of two
                // clears the table before this pass starts.
                let mut cleared = SubjectStates::default();
                auto.run_capped(&subject, &mut cleared, 2);
                let local_states = cleared.members.len() / auto.member_words;
                assert_eq!(
                    auto.lock().len(),
                    local_states,
                    "{}: seed {seed}: the pass started from an empty table",
                    lib.name()
                );
                assert!(cleared.is_for(&subject, auto));
                assert_eq!(cleared.node_state, warm.node_state, "{}", lib.name());
                assert_eq!(cleared.members, warm.members, "{}", lib.name());
                assert_eq!(cleared.rows, warm.rows, "{}", lib.name());
            }
        }
    }
}
