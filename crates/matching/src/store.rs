//! Cone-class match memoization: stage 2 of the match accelerator.
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
//! one store serves a whole mapping run — labeling, the area-recovery
//! rounds, even different circuits — as long as the library is the same;
//! [`MatchStore::for_library`] captures the library's pattern-set signature
//! and every use asserts it still matches. Mapping runs memoize through
//! [`crate::SharedMatchStore`], whose shards are generations of
//! `MatchStore`s; [`crate::Matcher::class_at`] resolves classes in a bare
//! store for callers that keep the templates themselves.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_netlist::fingerprint::ConeSpec;
use dagmap_netlist::strash::SigBuildHasher;
use dagmap_netlist::Sig;

use crate::matcher::MatchMode;

/// One memo probe's key — `(mode, capped level, cone)` — together with its
/// FNV-1a digest. The digest is computed once per probe and serves every
/// use of the key: shard selection in the sharded store, and the hash-map
/// probe of each generation looked at. FNV mixes 32-bit tokens well enough
/// for a table whose collisions are resolved by full key compare anyway.
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
/// use asserts, and the cone bounds every probe reads. Plain `Copy` data,
/// so the sharded store answers both without taking a lock.
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

/// One strash-id fast-path entry: a structural signature resolved straight
/// to its cone class, with the class's cone locals recorded as *signatures*
/// so any probing subject can rebind them to its own node ids without
/// extracting the cone. The entry *references* the class rather than
/// holding a copy: `home` names the shard of the sharded store the class
/// lives in and `stamp` the home's rotation stamp at registration — a
/// stamp mismatch means the home rotated since and the reference is
/// stale, so the prober falls back to cone keys and re-registers. Copying
/// classes here instead was measurably worse: every distinct subject would
/// duplicate its whole cone-class working set into the sig-addressed
/// shards, flooding the LRU and evicting the shared canonical classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdEntry {
    class: u32,
    locals: (u32, u32),
    home: u32,
    stamp: u64,
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
    /// `(match mode, strash signature)` → cone class, the O(1) warm path
    /// that skips cone extraction entirely. Registered lazily the first
    /// time a class is resolved at a node whose subject carries injective
    /// signatures. The mode is part of the key because each mode
    /// enumerates a different match set over the same cone.
    id_index: HashMap<(u32, Sig), IdEntry, SigBuildHasher>,
    /// Arena of the id entries' cone-local signatures.
    id_sig_locals: Vec<Sig>,
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
        MatchStore::with_bounds(LibraryBounds::of(library))
    }

    /// An empty store bound to `bounds` — also what a shard of the bounded
    /// cross-request store rotates in when a generation fills up.
    pub(crate) fn with_bounds(bounds: LibraryBounds) -> MatchStore {
        MatchStore {
            bounds,
            index: HashMap::default(),
            class_key: Vec::new(),
            key_data: Vec::new(),
            class_tpl: Vec::new(),
            class_pruned: Vec::new(),
            templates: Vec::new(),
            locals: Vec::new(),
            id_index: HashMap::default(),
            id_sig_locals: Vec::new(),
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

    /// Looks up the strash-id entry of `sig`, if one was registered: the
    /// cone class, the class's cone locals as signatures (for the caller
    /// to rebind against its subject's signature index), and the entry's
    /// `(home, stamp)` reference.
    pub(crate) fn id_entry(
        &self,
        mode: MatchMode,
        sig: Sig,
    ) -> Option<(ClassId, &[Sig], u32, u64)> {
        let e = self.id_index.get(&(mode_code(mode), sig))?;
        let (off, len) = e.locals;
        Some((
            ClassId(e.class),
            &self.id_sig_locals[off as usize..(off + len) as usize],
            e.home,
            e.stamp,
        ))
    }

    /// Number of registered id entries, for rotation pressure accounting.
    pub(crate) fn id_count(&self) -> usize {
        self.id_index.len()
    }

    /// Registers the id fast path for `sig` → `class`-in-`home`-at-`stamp`,
    /// recording the class's cone locals as signatures. Re-registration
    /// overwrites: a differing entry means the previous reference went
    /// stale (its home rotated), and the superseded locals bytes simply
    /// age out of the arena with this generation.
    pub(crate) fn register_id(
        &mut self,
        mode: MatchMode,
        sig: Sig,
        class: ClassId,
        locals: impl Iterator<Item = Sig>,
        home: u32,
        stamp: u64,
    ) {
        let key = (mode_code(mode), sig);
        if let Some(e) = self.id_index.get(&key) {
            if e.class == class.0 && e.home == home && e.stamp == stamp {
                return;
            }
        }
        let off = u32::try_from(self.id_sig_locals.len()).expect("sig arena fits u32");
        self.id_sig_locals.extend(locals);
        let len = u32::try_from(self.id_sig_locals.len()).expect("sig arena fits u32") - off;
        self.id_index.insert(
            key,
            IdEntry {
                class: class.0,
                locals: (off, len),
                home,
                stamp,
            },
        );
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

    /// Copies one whole class (templates, pruned count) out of `other`
    /// into this store under `key` — the promotion step of the
    /// two-generation bounded store. The caller found `class` in `other`
    /// under the same key, so the copy replays exactly like the original
    /// recording.
    pub(crate) fn copy_class_from(
        &mut self,
        other: &MatchStore,
        class: ClassId,
        key: &ConeKey<'_>,
    ) -> ClassId {
        debug_assert_eq!(other.probe(key), Some(class), "promotion key must match");
        let new = self.begin_class(key);
        for t in other.templates(class) {
            // Iterating `other` while pushing into `self`: disjoint stores.
            self.push_template(
                new,
                t.gate,
                t.pattern,
                t.leaves.iter().copied(),
                t.covered.iter().copied(),
            );
        }
        self.set_pruned(new, other.pruned_of(class));
        new
    }
}
