//! Boolean match sources for the shared labeling DP.
//!
//! [`BoolSource`] plugs priority-cut NPN Boolean matching into
//! `dagmap_core`'s [`MatchSource`] seam: the labeling DP, area recovery
//! and cover construction all consume it exactly as they consume the
//! structural matcher. [`HybridSource`] emits the structural matches first
//! and the Boolean matches after, so the hybrid candidate set is a superset
//! of both and its delay provably bounds either alone.
//!
//! # Match derivation
//!
//! For each ranked cut of a node the cone function `F` is extracted by
//! 64-lane simulation, support-reduced, and looked up two ways:
//!
//! * **P**: gates whose P-canonical table equals the cut's bind directly —
//!   canonical input `i` names gate pin `permG[i]` and cut leaf
//!   `permF[i]`, so pin `permG[i]` reads leaf `permF[i]`.
//! * **NPN**: with cut transform `tF` and gate transform `tG` mapping both
//!   onto one canonical table, gate pin `tG.perm[i]` must carry the value
//!   of leaf `tF.perm[i]` XOR `(tF.input_neg ^ tG.input_neg)` bit `i`, and
//!   the polarities compose at the root only when
//!   `tF.output_neg == tG.output_neg`. A negated pin is realized either by
//!   absorbing an inverter leaf (the leaf *is* an INV node — bind its
//!   fanin and cover the inverter) or by borrowing an existing inverter
//!   on the leaf ([`BoolSource`] records the smallest-id INV per node).
//!   The borrowed inverter must sit at a strictly lower level than the
//!   root so the level-order pass has already labeled it. Otherwise the
//!   gate is skipped.
//!
//! Emission order is a pure function of the subject and library (ranked
//! cuts; P entries then NPN entries, each in gate-insertion order), which
//! is what makes the Boolean and hybrid mappers byte-deterministic.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};

use dagmap_core::{MatchSource, SourceMatch, StructuralKit, StructuralSource};
use dagmap_genlib::{GateId, Library};
use dagmap_match::{MatchConfig, MatchMode, MatchStats};
use dagmap_netlist::{sim, NodeId, SubjectGraph, KIND_INV, KIND_SOURCE};

use crate::cuts::{self, CutSet};
use crate::tt::{NpnTransform, TruthTable};
use crate::LibraryIndex;

/// A [`MatchSource`] that finds gates by Boolean function, not structure.
///
/// Built once per subject (the cut sets are per-node). All mutable match
/// state lives in the per-pass [`BoolKit`]. The class counters sit in
/// cells: one pass on one thread uses a source, so they take no lock, and
/// `RefCell` keeps the type `!Sync`, so sharing it would not compile.
pub struct BoolSource<'a> {
    library: &'a Library,
    index: LibraryIndex,
    cuts: CutSet,
    /// Smallest-id inverter driven by each node, for borrowing negations.
    inv_of: Vec<Option<NodeId>>,
    levels: Vec<u32>,
    cuts_examined: Cell<usize>,
    p_matches: Cell<usize>,
    npn_matches: Cell<usize>,
    /// P-canonical cone classes that found a gate through the plain
    /// P-class lookup (the pre-NPN engine's reach).
    p_classes: RefCell<HashSet<TruthTable>>,
    /// P-canonical cone classes that found any gate at all — the same key
    /// space as `p_classes` (cone functions modulo input permutation), so
    /// the two counts compare directly; keying by NPN class would collapse
    /// e.g. or-cones into the nand-cone class and hide NPN's extra reach.
    npn_classes: RefCell<HashSet<TruthTable>>,
}

impl<'a> BoolSource<'a> {
    /// Builds the function index and per-node priority cuts for `subject`.
    /// `k` is clamped to the representable width at the index boundary
    /// (this is the fix for the former width-`assert!` panic: wider
    /// requests degrade to 6-input matching instead of aborting).
    pub fn new(subject: &SubjectGraph, library: &'a Library, k: usize) -> BoolSource<'a> {
        let index = LibraryIndex::build(library, k.max(1));
        let flat = subject.flat();
        let cuts = cuts::enumerate(flat, index.max_inputs());
        let n = flat.num_nodes();
        let mut inv_of: Vec<Option<NodeId>> = vec![None; n];
        let mut levels = vec![0u32; n];
        for &id in flat.topo_order() {
            levels[id.index()] = flat.level(id);
            if flat.kind(id) == KIND_INV {
                let f = flat.fanins(id)[0].index();
                if inv_of[f].is_none_or(|w| id < w) {
                    inv_of[f] = Some(id);
                }
            }
        }
        BoolSource {
            library,
            index,
            cuts,
            inv_of,
            levels,
            cuts_examined: Cell::new(0),
            p_matches: Cell::new(0),
            npn_matches: Cell::new(0),
            p_classes: RefCell::new(HashSet::new()),
            npn_classes: RefCell::new(HashSet::new()),
        }
    }

    /// The function-indexed library view in use.
    pub fn index(&self) -> &LibraryIndex {
        &self.index
    }

    /// Total priority cuts kept across all nodes.
    pub fn cuts_enumerated(&self) -> usize {
        self.cuts.total()
    }

    /// Cuts whose cone function was extracted and looked up so far.
    pub fn cuts_examined(&self) -> usize {
        self.cuts_examined.get()
    }

    /// Matches emitted through the P-class lookup so far.
    pub fn p_matches(&self) -> usize {
        self.p_matches.get()
    }

    /// Matches emitted through the NPN lookup (polarity fixups) so far.
    pub fn npn_matches(&self) -> usize {
        self.npn_matches.get()
    }

    /// Distinct P-canonical cone classes matched by the P lookup alone.
    pub fn p_classes_matched(&self) -> usize {
        self.p_classes.borrow().len()
    }

    /// Distinct P-canonical cone classes matched by the full engine
    /// (P + NPN); ≥ [`BoolSource::p_classes_matched`] by construction.
    pub fn npn_classes_matched(&self) -> usize {
        self.npn_classes.borrow().len()
    }
}

/// Per-pass scratch for [`BoolSource`]: stamped simulation values, DFS
/// stack, binding buffers and canonicalization caches. No allocation in
/// steady state once the caches are warm and the buffers reach their
/// high-water marks.
pub struct BoolKit {
    vals: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    dfs: Vec<NodeId>,
    covered: Vec<NodeId>,
    cover_out: Vec<NodeId>,
    leaves_red: Vec<NodeId>,
    by_pin: Vec<NodeId>,
    canon_p: HashMap<TruthTable, (TruthTable, Vec<usize>)>,
    canon_npn: HashMap<TruthTable, (TruthTable, NpnTransform)>,
    /// Per-node emitted (gate, binding) pairs, for dedup across cuts.
    seen: Vec<(GateId, Vec<NodeId>)>,
    /// Per-node class keys, merged into the source's sets once per node.
    p_hits: Vec<TruthTable>,
    npn_hits: Vec<TruthTable>,
}

impl BoolKit {
    fn for_subject(subject: &SubjectGraph) -> BoolKit {
        let n = subject.flat().num_nodes();
        BoolKit {
            vals: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            dfs: Vec::with_capacity(64),
            covered: Vec::with_capacity(64),
            cover_out: Vec::with_capacity(64),
            leaves_red: Vec::with_capacity(8),
            by_pin: Vec::with_capacity(8),
            canon_p: HashMap::new(),
            canon_npn: HashMap::new(),
            seen: Vec::with_capacity(32),
            p_hits: Vec::with_capacity(8),
            npn_hits: Vec::with_capacity(8),
        }
    }

    /// Simulates the cone of `root` above `leaves`, returning the 64-lane
    /// cone function word and filling `self.covered` with the interior
    /// gate nodes (root included, deterministic DFS completion order).
    fn eval_cone(
        &mut self,
        flat: &dagmap_netlist::FlatNet,
        root: NodeId,
        leaves: &[NodeId],
    ) -> Option<u64> {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let e = self.epoch;
        for (i, &l) in leaves.iter().enumerate() {
            // Guaranteed by the index-boundary clamp: cuts never exceed
            // MAX_INPUTS leaves, so every lane exists.
            self.vals[l.index()] =
                sim::exhaustive_word(i).expect("cut width clamped to MAX_INPUTS at the index");
            self.stamp[l.index()] = e;
        }
        self.covered.clear();
        self.dfs.clear();
        self.dfs.push(root);
        while let Some(&n) = self.dfs.last() {
            let i = n.index();
            if self.stamp[i] == e {
                self.dfs.pop();
                continue;
            }
            if flat.kind(n) == KIND_SOURCE {
                // The cut does not separate this cone (unreachable for
                // merge-derived cuts, kept as a safety net).
                return None;
            }
            let fanins = flat.fanins(n);
            let mut ready = true;
            for &f in fanins {
                if self.stamp[f.index()] != e {
                    self.dfs.push(f);
                    ready = false;
                }
            }
            if !ready {
                continue;
            }
            self.vals[i] = match flat.kind(n) {
                KIND_INV => !self.vals[fanins[0].index()],
                _ => !(self.vals[fanins[0].index()] & self.vals[fanins[1].index()]),
            };
            self.stamp[i] = e;
            self.covered.push(n);
            self.dfs.pop();
        }
        Some(self.vals[root.index()])
    }
}

impl MatchSource for BoolSource<'_> {
    type Kit = BoolKit;

    fn library(&self) -> &Library {
        self.library
    }

    fn mode(&self) -> MatchMode {
        MatchMode::Standard
    }

    fn make_kit(&self, subject: &SubjectGraph) -> BoolKit {
        BoolKit::for_subject(subject)
    }

    fn for_each_match(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        kit: &mut BoolKit,
        f: &mut dyn FnMut(SourceMatch<'_>),
    ) -> MatchStats {
        let flat = subject.flat();
        let mut stats = MatchStats::default();
        if !flat.is_gate(node) {
            return stats;
        }
        let root_level = self.levels[node.index()];
        kit.seen.clear();
        kit.p_hits.clear();
        kit.npn_hits.clear();
        let mut examined = 0usize;
        let (mut p_emitted, mut npn_emitted) = (0usize, 0usize);

        let num_cuts = self.cuts.cuts_of(node).len();
        for ci in 0..num_cuts {
            let cut = &self.cuts.cuts_of(node)[ci];
            let leaves = cut.leaves();
            examined += 1;
            let Some(word) = kit.eval_cone(flat, node, leaves) else {
                continue;
            };
            let tt = TruthTable::from_bits(leaves.len(), word);
            let (red, support) = tt.reduce_support();
            if red.num_inputs() == 0 || red.is_constant() {
                continue;
            }
            kit.leaves_red.clear();
            for &j in &support {
                kit.leaves_red.push(leaves[j]);
            }
            let n = red.num_inputs();
            let (ncanon, t_cut) = kit
                .canon_npn
                .entry(red)
                .or_insert_with(|| red.npn_canonical())
                .clone();
            let cut_p_before = p_emitted;

            // P lookup: direct bindings, no polarity work.
            let (pcanon, perm_cut) = kit
                .canon_p
                .entry(red)
                .or_insert_with(|| red.p_canonical())
                .clone();
            for (gate, perm_gate) in self.index.lookup(&pcanon) {
                kit.by_pin.clear();
                kit.by_pin.resize(n, NodeId::from_index(0));
                for i in 0..n {
                    kit.by_pin[perm_gate[i]] = kit.leaves_red[perm_cut[i]];
                }
                if kit.seen.iter().any(|(g, b)| g == gate && *b == kit.by_pin) {
                    continue;
                }
                kit.seen.push((*gate, kit.by_pin.clone()));
                p_emitted += 1;
                stats.enumerated += 1;
                f(SourceMatch {
                    gate: *gate,
                    pattern: None,
                    leaves: &kit.by_pin,
                    covered: &kit.covered,
                });
            }
            if p_emitted > cut_p_before {
                kit.p_hits.push(pcanon);
                kit.npn_hits.push(pcanon);
            }

            // NPN lookup: polarity-composing bindings.
            'gates: for (gate, t_gate) in self.index.npn_lookup(&ncanon) {
                if t_gate.output_neg != t_cut.output_neg {
                    // The root polarity cannot be fixed up in place.
                    continue;
                }
                kit.by_pin.clear();
                kit.by_pin.resize(n, NodeId::from_index(0));
                kit.cover_out.clear();
                kit.cover_out.extend_from_slice(&kit.covered);
                for i in 0..n {
                    let leaf = kit.leaves_red[t_cut.perm[i]];
                    let negate = ((t_cut.input_neg ^ t_gate.input_neg) >> i) & 1 == 1;
                    let bound = if !negate {
                        leaf
                    } else if flat.kind(leaf) == KIND_INV {
                        // Absorb the inverter: the gate re-creates it.
                        kit.cover_out.push(leaf);
                        flat.fanins(leaf)[0]
                    } else if let Some(inv) = self.inv_of[leaf.index()] {
                        // Borrow an existing inverter — only if the
                        // level-order pass has already labeled it.
                        if self.levels[inv.index()] < root_level {
                            inv
                        } else {
                            continue 'gates;
                        }
                    } else {
                        continue 'gates;
                    };
                    kit.by_pin[t_gate.perm[i]] = bound;
                }
                if kit.seen.iter().any(|(g, b)| g == gate && *b == kit.by_pin) {
                    continue;
                }
                kit.seen.push((*gate, kit.by_pin.clone()));
                npn_emitted += 1;
                stats.enumerated += 1;
                if kit.npn_hits.last() != Some(&pcanon) {
                    kit.npn_hits.push(pcanon);
                }
                f(SourceMatch {
                    gate: *gate,
                    pattern: None,
                    leaves: &kit.by_pin,
                    covered: &kit.cover_out,
                });
            }
        }

        self.cuts_examined.set(self.cuts_examined.get() + examined);
        self.p_matches.set(self.p_matches.get() + p_emitted);
        self.npn_matches.set(self.npn_matches.get() + npn_emitted);
        self.p_classes.borrow_mut().extend(&kit.p_hits);
        self.npn_classes.borrow_mut().extend(&kit.npn_hits);
        stats
    }
}

/// A [`MatchSource`] emitting the structural matcher's matches first and
/// [`BoolSource`]'s after. The candidate set is a superset of both, and
/// the DP's strict-improvement rule breaks ties toward the structural
/// match, so hybrid delay ≤ min(structural, boolean) delay per node.
pub struct HybridSource<'a> {
    structural: StructuralSource<'a>,
    boolean: BoolSource<'a>,
}

impl<'a> HybridSource<'a> {
    /// Builds both engines over the same subject and library.
    pub fn new(subject: &SubjectGraph, library: &'a Library, k: usize) -> HybridSource<'a> {
        HybridSource {
            structural: StructuralSource::new(
                library,
                MatchMode::Standard,
                MatchConfig::default(),
                None,
            ),
            boolean: BoolSource::new(subject, library, k),
        }
    }

    /// The Boolean half, for its counters.
    pub fn boolean(&self) -> &BoolSource<'a> {
        &self.boolean
    }
}

/// Per-pass scratch for [`HybridSource`].
pub struct HybridKit {
    structural: StructuralKit,
    boolean: BoolKit,
}

impl MatchSource for HybridSource<'_> {
    type Kit = HybridKit;

    fn library(&self) -> &Library {
        self.boolean.library
    }

    fn mode(&self) -> MatchMode {
        MatchMode::Standard
    }

    fn make_kit(&self, subject: &SubjectGraph) -> HybridKit {
        HybridKit {
            structural: self.structural.make_kit(subject),
            boolean: self.boolean.make_kit(subject),
        }
    }

    fn for_each_match(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        kit: &mut HybridKit,
        f: &mut dyn FnMut(SourceMatch<'_>),
    ) -> MatchStats {
        let mut stats = self
            .structural
            .for_each_match(subject, node, &mut kit.structural, f);
        stats.absorb(self.boolean.for_each_match(subject, node, &mut kit.boolean, f));
        stats
    }
}
