//! Structural hashing (strashing) and global value numbering for subject
//! graphs.
//!
//! Two layers live here:
//!
//! 1. [`StrashArena`] — the hash-consing construction arena. Every NAND2 /
//!    INV is normalized (commutative inputs sorted, constants folded,
//!    `inv(inv(x))` collapsed, `nand(x, x)` reduced) and deduplicated
//!    against a table, so structurally identical subterms collapse to one
//!    node id at build time. [`crate::SubjectGraph`]'s decomposition builder
//!    is a thin wrapper over this arena; [`StrashStats`] reports how much
//!    the dedup bought.
//!
//! 2. [`Signatures`] — per-node 128-bit Merkle *value numbers* over a
//!    finished subject network: `sig(nand(a, b)) = H(NAND, sig a, sig b)`,
//!    `sig(inv(a)) = H(INV, sig a)`, sources keyed by their kind and name.
//!    Children hash in physical fanin order (the arena already normalized
//!    commutative inputs to one representative). A node's signature is a
//!    content address of its entire transitive fanin cone *including fanin
//!    order*, so equal signatures mean identically-serialized cones — and
//!    therefore identical canonical cone keys and identical match
//!    enumeration order — across one subject graph, and across
//!    independently built subject graphs in different requests. That is
//!    what lets incremental re-mapping recognize the untouched region of
//!    an edited network and copy its labels.
//!
//! Signature equality is probabilistic (128-bit universe, split-mix style
//!    mixing per lane). Within one subject graph, [`Signatures::is_injective`]
//! detects any collision exactly and every signature consumer falls back to
//! canonical cone keys when it is false; a *cross*-graph collision is not
//! detectable and is accepted at ~2^-128 odds, the same bar content-addressed
//! stores set everywhere else.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::{NetlistError, Network, NodeFn, NodeId};

/// A 128-bit structural value number: the content address of a node's whole
/// transitive fanin cone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sig(u128);

const TAG_CONST0: u64 = 0x100;
const TAG_CONST1: u64 = 0x101;
const TAG_INPUT: u64 = 0x102;
const TAG_LATCH: u64 = 0x103;
const TAG_INV: u64 = 0x104;
const TAG_NAND: u64 = 0x105;
/// Fallback for node kinds that never appear in subject graphs; keyed by
/// the function name so [`signatures`] is total over any acyclic network.
const TAG_OTHER: u64 = 0x1FF;

/// Hasher for maps keyed by [`Sig`]. A signature is already a uniform
/// 128-bit hash, so re-mixing it through SipHash buys nothing and costs enough to
/// show up when every node of a remapped subject is looked up by
/// signature. This hasher folds the raw words instead. Key *equality* still
/// compares the full key, so a fold collision costs one extra probe, never
/// correctness.
#[derive(Default)]
pub struct SigHasher(u64);

impl std::hash::Hasher for SigHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("SigHasher accepts Sig keys only");
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = self.0.rotate_left(31) ^ (v as u64) ^ ((v >> 64) as u64);
    }
}

/// [`std::hash::BuildHasher`] plugging [`SigHasher`] into `HashMap`.
pub type SigBuildHasher = std::hash::BuildHasherDefault<SigHasher>;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Sig {
    /// The raw 128-bit value (stable across processes — it is pure
    /// arithmetic over the cone structure, no addresses or RNG involved).
    pub fn raw(self) -> u128 {
        self.0
    }

    fn lanes(self) -> (u64, u64) {
        (self.0 as u64, (self.0 >> 64) as u64)
    }

    fn from_lanes(lo: u64, hi: u64) -> Sig {
        Sig(((hi as u128) << 64) | lo as u128)
    }

    /// Hashes a tag plus child signatures into a new signature. Children
    /// are mixed in order, so callers normalize commutative operands first.
    fn node(tag: u64, children: &[Sig]) -> Sig {
        let mut lo = splitmix(tag);
        let mut hi = splitmix(tag.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ !tag);
        for c in children {
            let (clo, chi) = c.lanes();
            lo = splitmix(lo ^ clo) ^ chi.rotate_left(17);
            hi = splitmix(hi ^ chi.rotate_left(29)) ^ clo.rotate_left(43);
        }
        Sig::from_lanes(lo, hi)
    }

    /// Hashes a tag plus a name (sources are keyed by interface name, not
    /// structure — a primary input *is* its name).
    fn named(tag: u64, name: &str) -> Sig {
        let mut lo = splitmix(tag ^ 0xA076_1D64_78BD_642F);
        let mut hi = splitmix(tag.wrapping_add(0xE703_7ED1_A0B4_28DB));
        for chunk in name.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(w);
            lo = splitmix(lo ^ w);
            hi = splitmix(hi.wrapping_add(w ^ 0x2545_F491_4F6C_DD1D));
        }
        Sig::from_lanes(lo ^ name.len() as u64, hi)
    }
}

/// How much structural hashing compressed a construction.
///
/// `raw` counts every NAND2/INV construction *request*; `unique` counts the
/// nodes actually materialized. The difference splits into `folded`
/// (requests answered by constant folding, `inv(inv(x))` collapse or the
/// `nand(x, x)` reduction, without touching the table) and `dedup_hits`
/// (requests answered by an existing structurally identical node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrashStats {
    /// NAND2/INV construction requests (what a naive builder would emit).
    pub raw: usize,
    /// Requests resolved by algebraic rewrites before the table was asked.
    pub folded: usize,
    /// Requests answered by an existing node in the strash table.
    pub dedup_hits: usize,
    /// Gate nodes actually created.
    pub unique: usize,
}

impl StrashStats {
    /// `raw / unique` — how many times each materialized gate was requested
    /// on average (1.0 when nothing deduplicated).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique == 0 {
            1.0
        } else {
            self.raw as f64 / self.unique as f64
        }
    }
}

#[derive(PartialEq, Eq)]
enum StrashKey {
    Nand(NodeId, NodeId),
    Inv(NodeId),
}

impl Hash for StrashKey {
    /// One packed word per key. An inverter and a NAND may pack alike; that
    /// costs a probe, never a wrong answer, since the table compares keys.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(match *self {
            StrashKey::Nand(a, b) => ((a.index() as u64) << 32) ^ b.index() as u64,
            StrashKey::Inv(a) => !(a.index() as u64),
        });
    }
}

/// Hasher for maps keyed by one packed `u64` whose keys follow from input
/// structure (the strash table, the automaton's transition table): one
/// folded 64×64→128-bit multiply under a per-map seed. SipHash made the
/// strash table the largest cost of decomposition; the daemon decomposes
/// client BLIF, so the seed is drawn from [`RandomState`] once per map
/// rather than fixed, and colliding keys cannot be precomputed.
#[derive(Clone, Debug)]
pub struct SeededBuildHasher {
    seed: u64,
}

impl SeededBuildHasher {
    /// A hasher with a fresh random seed.
    pub fn new() -> SeededBuildHasher {
        SeededBuildHasher {
            seed: RandomState::new().hash_one(0x5EED_u64),
        }
    }
}

impl Default for SeededBuildHasher {
    fn default() -> SeededBuildHasher {
        SeededBuildHasher::new()
    }
}

impl BuildHasher for SeededBuildHasher {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher(self.seed)
    }
}

/// The [`Hasher`] of [`SeededBuildHasher`]; accepts `write_u64` only.
pub struct SeededHasher(u64);

impl Hasher for SeededHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("SeededHasher hashes packed u64 keys only");
    }

    fn write_u64(&mut self, v: u64) {
        let m = u128::from(v ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// A hash-consing NAND2/INV construction arena.
///
/// All structural normalization lives here: constant folding, double-
/// inversion elimination, `nand(x, x) = inv(x)`, commutative input ordering
/// and table-based deduplication. The subject-graph decomposition builder
/// composes its n-ary reductions out of these two primitives, so every
/// decomposition path shares one dedup domain.
///
/// With `strash` disabled (the tree-covering ablation) the algebraic
/// rewrites still run but the table is bypassed, so equal subterms stay
/// duplicated.
pub struct StrashArena {
    net: Network,
    table: HashMap<StrashKey, NodeId, SeededBuildHasher>,
    consts: [Option<NodeId>; 2],
    strash: bool,
    stats: StrashStats,
}

impl StrashArena {
    /// An empty arena for a network called `name`.
    pub fn new(name: &str, strash: bool) -> StrashArena {
        StrashArena {
            net: Network::new(name),
            table: HashMap::with_hasher(SeededBuildHasher::new()),
            consts: [None, None],
            strash,
            stats: StrashStats::default(),
        }
    }

    /// The network under construction.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access for interface construction (inputs, outputs, latch
    /// patching). Gate nodes must go through [`StrashArena::nand2`] /
    /// [`StrashArena::inv`] so the table stays authoritative.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Finishes construction, returning the network and the dedup stats.
    pub fn into_parts(self) -> (Network, StrashStats) {
        (self.net, self.stats)
    }

    /// The dedup statistics so far.
    pub fn stats(&self) -> &StrashStats {
        &self.stats
    }

    /// Adds (or returns the existing) constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        if let Some(id) = self.consts[v as usize] {
            return id;
        }
        let id = self
            .net
            .add_node(NodeFn::Const(v), [])
            .expect("constants are nullary");
        self.consts[v as usize] = Some(id);
        id
    }

    /// The value of a constant node, `None` for anything else.
    pub fn const_value(&self, id: NodeId) -> Option<bool> {
        match self.net.node(id).func() {
            NodeFn::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Hash-consed inverter with constant folding and `inv(inv(x)) = x`.
    pub fn inv(&mut self, a: NodeId) -> NodeId {
        self.stats.raw += 1;
        if let Some(v) = self.const_value(a) {
            self.stats.folded += 1;
            return self.constant(!v);
        }
        if matches!(self.net.node(a).func(), NodeFn::Not) {
            self.stats.folded += 1;
            return self.net.node(a).fanins()[0];
        }
        if self.strash {
            if let Some(&id) = self.table.get(&StrashKey::Inv(a)) {
                self.stats.dedup_hits += 1;
                return id;
            }
        }
        let id = self
            .net
            .add_node(NodeFn::Not, [a])
            .expect("inverter arity is 1");
        self.stats.unique += 1;
        if self.strash {
            self.table.insert(StrashKey::Inv(a), id);
        }
        id
    }

    /// Hash-consed two-input NAND with constant folding, the `nand(x, x)`
    /// reduction and commutative input normalization.
    pub fn nand2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.stats.raw += 1;
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => {
                self.stats.folded += 1;
                return self.constant(true);
            }
            (Some(true), _) => {
                self.stats.raw -= 1; // the inv below re-counts the request
                self.stats.folded += 1;
                return self.inv(b);
            }
            (_, Some(true)) => {
                self.stats.raw -= 1;
                self.stats.folded += 1;
                return self.inv(a);
            }
            _ => {}
        }
        if a == b {
            self.stats.raw -= 1;
            self.stats.folded += 1;
            return self.inv(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if self.strash {
            if let Some(&id) = self.table.get(&StrashKey::Nand(a, b)) {
                self.stats.dedup_hits += 1;
                return id;
            }
        }
        let id = self
            .net
            .add_node(NodeFn::Nand, [a, b])
            .expect("nand2 arity is 2");
        self.stats.unique += 1;
        if self.strash {
            self.table.insert(StrashKey::Nand(a, b), id);
        }
        id
    }
}

/// Per-node structural value numbers of one finished network, plus the
/// reverse index used for O(1) signature lookups.
#[derive(Debug, Clone)]
pub struct Signatures {
    sigs: Vec<Sig>,
    index: HashMap<Sig, NodeId, SigBuildHasher>,
    injective: bool,
}

impl Signatures {
    /// The signature of one node.
    pub fn sig_of(&self, id: NodeId) -> Sig {
        self.sigs[id.index()]
    }

    /// All signatures, indexed by [`NodeId::index`].
    pub fn sigs(&self) -> &[Sig] {
        &self.sigs
    }

    /// The node carrying `sig`, when one exists.
    pub fn lookup(&self, sig: Sig) -> Option<NodeId> {
        self.index.get(&sig).copied()
    }

    /// Whether the signature map is injective on this network — no two
    /// distinct nodes share a signature. A fully strashed subject graph is
    /// injective unless a 128-bit hash collision occurred (or construction
    /// bypassed the strash table); every signature-keyed fast path checks
    /// this flag and falls back to canonical cone keys when it is false.
    pub fn is_injective(&self) -> bool {
        self.injective
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the network was empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

/// Computes the Merkle value number of every node of an acyclic network.
///
/// Sources are keyed by identity, not structure: primary inputs and latches
/// hash their interface name (a latch output is a sequential source — its
/// *combinational* behavior is opaque, so its data cone does not participate),
/// constants are fixed tags. Gates hash their kind over their children's
/// signatures in physical fanin order — deliberately not commutatively, so
/// that sig equality pins the cone serialization bit-for-bit (see the NAND
/// arm below).
///
/// # Panics
///
/// Panics on cyclic networks (subject graphs are validated acyclic before
/// this runs).
pub fn signatures(net: &Network) -> Signatures {
    let order = net
        .topo_order()
        .expect("signatures need an acyclic network");
    let mut sigs = vec![Sig(0); net.num_nodes()];
    for id in order {
        let node = net.node(id);
        let sig = match node.func() {
            NodeFn::Const(false) => Sig::node(TAG_CONST0, &[]),
            NodeFn::Const(true) => Sig::node(TAG_CONST1, &[]),
            NodeFn::Input => Sig::named(TAG_INPUT, node.name().unwrap_or("")),
            NodeFn::Latch => Sig::named(TAG_LATCH, node.name().unwrap_or("")),
            NodeFn::Not => Sig::node(TAG_INV, &[sigs[node.fanins()[0].index()]]),
            NodeFn::Nand if node.fanins().len() == 2 => {
                // Children hash in PHYSICAL fanin order, deliberately not
                // commutatively: the signature consumer (incremental
                // label reuse) needs sig equality to imply an
                // *identical* canonical cone serialization and match
                // enumeration order, and those observe the fanin order.
                // Commutative variants of one term never coexist anyway —
                // the construction arena normalizes them to a single node —
                // so within a subject this costs nothing; across subjects
                // it only declines unsound merges (two builds that ordered
                // the same fanins differently fall back to cone keys).
                let a = sigs[node.fanins()[0].index()];
                let b = sigs[node.fanins()[1].index()];
                Sig::node(TAG_NAND, &[a, b])
            }
            other => {
                // Never reached from subject graphs; keyed by kind name and
                // ordered children so the function is total regardless.
                let children: Vec<Sig> = node.fanins().iter().map(|f| sigs[f.index()]).collect();
                let base = Sig::named(TAG_OTHER, other.name());
                let mut all = Vec::with_capacity(children.len() + 1);
                all.push(base);
                all.extend(children);
                Sig::node(TAG_OTHER, &all)
            }
        };
        sigs[id.index()] = sig;
    }
    let mut index = HashMap::with_capacity_and_hasher(sigs.len(), SigBuildHasher::default());
    let mut injective = true;
    for id in net.node_ids() {
        if index.insert(sigs[id.index()], id).is_some() {
            injective = false;
        }
    }
    Signatures {
        sigs,
        index,
        injective,
    }
}

/// Re-strashes a network that is already in subject (NAND2/INV) form:
/// rebuilds it through the hash-consing arena so duplicated subterms merge,
/// constants fold and double inversions collapse. The interface (input
/// order and names, output order and names, latch names) is preserved.
///
/// This is how externally produced netlists (AIGER, BLIF read-back) get the
/// same dedup guarantees as internally decomposed ones.
///
/// # Errors
///
/// Propagates decomposition errors (cyclic networks, illegal node kinds in
/// the general decomposition path).
pub fn strash_network(net: &Network) -> Result<(Network, StrashStats), NetlistError> {
    let subject = crate::SubjectGraph::from_network(net)?;
    let stats = *subject.strash_stats();
    Ok((subject.into_network(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_folds_constants_and_double_inversion() {
        let mut a = StrashArena::new("t", true);
        let x = a.network_mut().add_input("x");
        let t = a.constant(true);
        let f = a.constant(false);
        // nand(x, 0) = 1, nand(x, 1) = !x, inv(inv(x)) = x, nand(x, x) = !x
        assert_eq!(a.nand2(x, f), t);
        let nx = a.nand2(x, t);
        assert_eq!(a.inv(nx), x);
        assert_eq!(a.nand2(x, x), nx);
        let (_, stats) = a.into_parts();
        assert_eq!(stats.unique, 1, "only one inverter materialized");
        assert!(stats.folded >= 3);
    }

    #[test]
    fn arena_dedups_commutatively() {
        let mut a = StrashArena::new("t", true);
        let x = a.network_mut().add_input("x");
        let y = a.network_mut().add_input("y");
        let n1 = a.nand2(x, y);
        let n2 = a.nand2(y, x);
        assert_eq!(n1, n2);
        assert_eq!(a.stats().dedup_hits, 1);
        assert_eq!(a.stats().unique, 1);
        assert!(a.stats().dedup_ratio() > 1.9);
    }

    #[test]
    fn unstrashed_arena_duplicates() {
        let mut a = StrashArena::new("t", false);
        let x = a.network_mut().add_input("x");
        let y = a.network_mut().add_input("y");
        let n1 = a.nand2(x, y);
        let n2 = a.nand2(y, x);
        assert_ne!(n1, n2);
        assert_eq!(a.stats().unique, 2);
        assert_eq!(a.stats().dedup_hits, 0);
    }

    #[test]
    fn signatures_are_order_sensitive_and_name_keyed() {
        use crate::NodeFn;
        let mut n1 = Network::new("a");
        let x = n1.add_input("x");
        let y = n1.add_input("y");
        let g1 = n1.add_node(NodeFn::Nand, vec![x, y]).unwrap();
        n1.add_output("f", g1);

        let mut n2 = Network::new("b");
        let y2 = n2.add_input("y"); // declaration order differs
        let x2 = n2.add_input("x");
        let g2 = n2.add_node(NodeFn::Nand, vec![x2, y2]).unwrap();
        n2.add_output("f", g2);

        let s1 = signatures(&n1);
        let s2 = signatures(&n2);
        assert!(s1.is_injective() && s2.is_injective());
        // Same structure, same names, same fanin order: identical value
        // numbers across two independently built networks — the
        // cross-request property. Declaration order is irrelevant.
        assert_eq!(s1.sig_of(g1), s2.sig_of(g2));
        assert_eq!(s1.sig_of(x), s2.sig_of(x2));
        // Lookup round-trips.
        assert_eq!(s2.lookup(s1.sig_of(g1)), Some(g2));

        // Swapped fanin order is a *different* signature: reused labels
        // carry matches whose pin order observes the fanin order, so a
        // commutative merge here would not be bit-identical.
        let mut n3 = Network::new("c");
        let x3 = n3.add_input("x");
        let y3 = n3.add_input("y");
        let g3 = n3.add_node(NodeFn::Nand, vec![y3, x3]).unwrap();
        n3.add_output("f", g3);
        let s3 = signatures(&n3);
        assert_ne!(s1.sig_of(g1), s3.sig_of(g3));
    }

    #[test]
    fn duplicate_structure_defeats_injectivity() {
        use crate::NodeFn;
        let mut net = Network::new("dup");
        let x = net.add_input("x");
        let a = net.add_node(NodeFn::Not, vec![x]).unwrap();
        let b = net.add_node(NodeFn::Not, vec![x]).unwrap();
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        net.add_output("f", g);
        let s = signatures(&net);
        assert!(!s.is_injective(), "two identical inverters share a sig");
    }

    #[test]
    fn strash_network_shrinks_redundant_subject_form() {
        use crate::NodeFn;
        let mut net = Network::new("red");
        let x = net.add_input("x");
        let y = net.add_input("y");
        let a = net.add_node(NodeFn::Nand, vec![x, y]).unwrap();
        let b = net.add_node(NodeFn::Nand, vec![y, x]).unwrap();
        let na = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let nna = net.add_node(NodeFn::Not, vec![na]).unwrap();
        let g = net.add_node(NodeFn::Nand, vec![nna, b]).unwrap();
        net.add_output("f", g);
        let (strashed, stats) = strash_network(&net).unwrap();
        assert!(strashed.num_internal() < net.num_internal());
        assert!(stats.dedup_ratio() > 1.0);
        assert!(crate::sim::equivalent_random(&net, &strashed, 8, 3).unwrap());
        let s = signatures(&strashed);
        assert!(s.is_injective());
    }
}
