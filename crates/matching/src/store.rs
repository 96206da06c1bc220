//! Cone-class match templates: one recorded enumeration per bounded-depth
//! cone class.
//!
//! Regular subject graphs (the c6288-like array multiplier is thousands of
//! isomorphic full-adder cones) make the matcher redo identical
//! backtracking searches at node after node. A [`MatchStore`] keys each
//! enumeration by the *canonical bounded-depth cone* of its root (see
//! [`dagmap_netlist::fingerprint`]): two nodes whose cones serialize
//! identically — same kinds, same sharing, same capped fanout counts when
//! exact semantics ask for them, same depth-capped topological level —
//! drive the backtracking matcher through the same branch sequence, so the
//! first node's match list can be replayed verbatim onto the second
//! through the cone isomorphism (local index → concrete node).
//!
//! Matches are stored as flat *(gate, pattern, leaf-locals, covered-locals)*
//! templates in arena vectors; replay materializes nothing and preserves
//! the enumeration order exactly, which keeps every label, tie-break and
//! mapped netlist bit-identical to the unmemoized scan.
//!
//! A store is subject-graph independent (keys never contain `NodeId`s), so
//! one store serves every node of a subject, and other subjects too, as
//! long as the library is the same; [`MatchStore::for_library`] captures
//! the library's pattern-set signature and every use asserts it still
//! matches. Mapping runs do not memoize: with the automaton filtering
//! candidates, a fresh enumeration is cheaper than a probe. The store is
//! kept for callers that keep the templates themselves, through
//! [`crate::Matcher::class_at`] (retiming's per-node match cache).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_netlist::fingerprint::ConeSpec;

use crate::matcher::MatchMode;

/// One probe's key — `(mode, capped level, cone)` — together with its
/// FNV-1a digest, which the index map uses as the hash. FNV mixes 32-bit
/// tokens well enough for a table whose collisions are resolved by full
/// key compare anyway.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConeKey<'a> {
    hash: u64,
    head: [u32; 2],
    cone: &'a [u32],
}

impl<'a> ConeKey<'a> {
    pub(crate) fn new(mode: MatchMode, level_cap: u32, cone: &'a [u32]) -> ConeKey<'a> {
        let head = [mode_code(mode), level_cap];
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in head.iter().chain(cone) {
            hash ^= u64::from(w);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        ConeKey { hash, head, cone }
    }

    /// The key's FNV-1a digest.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    fn len(&self) -> usize {
        self.head.len() + self.cone.len()
    }

    fn equals(&self, stored: &[u32]) -> bool {
        stored.len() == self.len() && stored[..2] == self.head && stored[2..] == *self.cone
    }
}

/// The library facts a store is bound to: the pattern-set signature every
/// use asserts, and the cone bounds every probe reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LibraryBounds {
    num_patterns: usize,
    num_gates: usize,
    /// The cone truncation depth (the library's maximum pattern depth).
    pub(crate) max_depth: u32,
    /// The fanout saturation bound recorded in exact-mode cone keys.
    fanout_cap: u32,
}

impl LibraryBounds {
    pub(crate) fn of(library: &Library) -> LibraryBounds {
        LibraryBounds {
            num_patterns: library.patterns().len(),
            num_gates: library.gates().len(),
            max_depth: library.max_pattern_depth(),
            fanout_cap: library.pattern_fanout_cap(),
        }
    }

    /// Asserts the bounds were captured from `library` (pattern-set
    /// signature match). Guards against replaying one library's matches
    /// under another.
    pub(crate) fn check(&self, library: &Library) {
        assert!(
            *self == LibraryBounds::of(library),
            "match store used with a different library than it was built for"
        );
    }

    /// The cone extraction spec of a probe in `mode`.
    pub(crate) fn cone_spec(&self, mode: MatchMode) -> ConeSpec {
        ConeSpec {
            max_depth: self.max_depth,
            record_fanouts: mode == MatchMode::Exact,
            fanout_cap: self.fanout_cap,
        }
    }
}

/// The map key is already an FNV digest; feeding it through SipHash again
/// would only burn cycles. This hasher passes the `u64` straight through.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only accepts u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Identifier of one cone class inside a [`MatchStore`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// Dense index of the class (classes are numbered in discovery order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One memoized match template, borrowed from the store's arenas: leaf and
/// covered entries are *local indices* into the cone of the class, to be
/// mapped through a member node's concrete locals.
#[derive(Debug, Copy, Clone)]
pub struct TemplateRef<'a> {
    /// The gate the match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match.
    pub pattern: PatternId,
    /// Cone-local index bound to each gate pin, in canonical pin order.
    pub leaves: &'a [u32],
    /// Cone-local indices of the covered internal nodes, root included.
    pub covered: &'a [u32],
}

#[derive(Debug, Clone)]
struct Template {
    gate: GateId,
    pattern: PatternId,
    leaves: (u32, u32),
    covered: (u32, u32),
}

/// The memoization table. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct MatchStore {
    /// Library bounds captured at construction; uses assert against them.
    bounds: LibraryBounds,
    /// Key hash → class candidates (collisions resolved by full compare).
    index: HashMap<u64, Vec<u32>, BuildHasherDefault<IdentityHasher>>,
    /// Per class: range of its full key inside `key_data`.
    class_key: Vec<(u32, u32)>,
    key_data: Vec<u32>,
    /// Per class: range of its templates inside `templates`.
    class_tpl: Vec<(u32, u32)>,
    /// Per class: the `MatchStats::pruned` count of the recorded run.
    class_pruned: Vec<u32>,
    templates: Vec<Template>,
    locals: Vec<u32>,
}

fn mode_code(mode: MatchMode) -> u32 {
    match mode {
        MatchMode::Standard => 0,
        MatchMode::Exact => 1,
        MatchMode::Extended => 2,
    }
}

impl MatchStore {
    /// Creates an empty store bound to `library`'s pattern set.
    pub fn for_library(library: &Library) -> MatchStore {
        MatchStore {
            bounds: LibraryBounds::of(library),
            index: HashMap::default(),
            class_key: Vec::new(),
            key_data: Vec::new(),
            class_tpl: Vec::new(),
            class_pruned: Vec::new(),
            templates: Vec::new(),
            locals: Vec::new(),
        }
    }

    /// The library bounds the store was built for.
    pub(crate) fn bounds(&self) -> LibraryBounds {
        self.bounds
    }

    /// Number of distinct cone classes discovered so far.
    pub fn num_classes(&self) -> usize {
        self.class_key.len()
    }

    /// Stored pruned-count of a class (skipped pattern attempts of the
    /// recorded enumeration — identical for every member by construction).
    pub fn pruned_of(&self, class: ClassId) -> usize {
        self.class_pruned[class.index()] as usize
    }

    /// Number of match templates of a class.
    pub fn num_templates(&self, class: ClassId) -> usize {
        let (_, len) = self.class_tpl[class.index()];
        len as usize
    }

    /// Iterates the templates of a class in the recorded enumeration order.
    pub fn templates(&self, class: ClassId) -> impl Iterator<Item = TemplateRef<'_>> {
        let (off, len) = self.class_tpl[class.index()];
        self.templates[off as usize..(off + len) as usize]
            .iter()
            .map(|t| TemplateRef {
                gate: t.gate,
                pattern: t.pattern,
                leaves: &self.locals[t.leaves.0 as usize..(t.leaves.0 + t.leaves.1) as usize],
                covered: &self.locals[t.covered.0 as usize..(t.covered.0 + t.covered.1) as usize],
            })
    }

    /// Probes for an existing class under `key`.
    pub(crate) fn probe(&self, key: &ConeKey<'_>) -> Option<ClassId> {
        let cands = self.index.get(&key.hash())?;
        cands
            .iter()
            .copied()
            .find(|&c| {
                let (off, len) = self.class_key[c as usize];
                key.equals(&self.key_data[off as usize..(off + len) as usize])
            })
            .map(ClassId)
    }

    /// Opens a new class under `key` (which a probe just missed).
    pub(crate) fn begin_class(&mut self, key: &ConeKey<'_>) -> ClassId {
        let id = u32::try_from(self.class_key.len()).expect("class count fits u32");
        let off = u32::try_from(self.key_data.len()).expect("key arena fits u32");
        let len = u32::try_from(key.len()).expect("key fits u32");
        self.key_data.extend_from_slice(&key.head);
        self.key_data.extend_from_slice(key.cone);
        self.class_key.push((off, len));
        let tpl_off = u32::try_from(self.templates.len()).expect("template arena fits u32");
        self.class_tpl.push((tpl_off, 0));
        self.class_pruned.push(0);
        self.index.entry(key.hash()).or_default().push(id);
        ClassId(id)
    }

    /// Appends one match template to the (still open, last-begun) class.
    pub(crate) fn push_template(
        &mut self,
        class: ClassId,
        gate: GateId,
        pattern: PatternId,
        leaf_locals: impl Iterator<Item = u32>,
        covered_locals: impl Iterator<Item = u32>,
    ) {
        debug_assert_eq!(class.index() + 1, self.class_key.len(), "class is open");
        let l_off = u32::try_from(self.locals.len()).expect("locals arena fits u32");
        self.locals.extend(leaf_locals);
        let l_len = u32::try_from(self.locals.len()).expect("locals arena fits u32") - l_off;
        let c_off = u32::try_from(self.locals.len()).expect("locals arena fits u32");
        self.locals.extend(covered_locals);
        let c_len = u32::try_from(self.locals.len()).expect("locals arena fits u32") - c_off;
        self.templates.push(Template {
            gate,
            pattern,
            leaves: (l_off, l_len),
            covered: (c_off, c_len),
        });
        let (_, len) = &mut self.class_tpl[class.index()];
        *len += 1;
    }

    /// Records the pruned count of the recorded run of a class.
    pub(crate) fn set_pruned(&mut self, class: ClassId, pruned: usize) {
        self.class_pruned[class.index()] = u32::try_from(pruned).expect("pruned fits u32");
    }
}
