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
//! 64-lane simulation and support-reduced. The kit records each distinct
//! reduced function once — both canonical forms with their witnesses and
//! the library classes they resolve to — so a repeated function costs one
//! hash probe. `F` is then matched two ways:
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
use crate::tt::{Canonical, TruthTable, MAX_INPUTS};
use crate::LibraryIndex;

/// A [`MatchSource`] that finds gates by Boolean function, not structure.
///
/// Built once per subject (the cut sets are per-node). All mutable match
/// state lives in the per-pass [`BoolKit`]. The class counters sit in
/// cells: one pass on one thread uses a source, so they take no lock, and
/// `RefCell` keeps the type `!Sync`, so sharing it would not compile.
///
/// The counters describe the source's first pass only — the labeling
/// pass every mapper runs first. Later passes over the same source (area
/// recovery re-enumerates matches) do not count, just as
/// `MapReport::matches_enumerated` counts labeling's matches only.
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
    /// Whether the first kit, whose pass alone is counted, was made.
    first_kit_made: Cell<bool>,
}

impl<'a> BoolSource<'a> {
    /// Builds the function index and per-node priority cuts for `subject`.
    /// `k` is clamped once to `2..=MAX_INPUTS`, and the index and the cut
    /// enumerator both use that width: below 2 the fanin cut of a NAND2
    /// has no gate to match, above [`MAX_INPUTS`] a function no longer
    /// fits one truth-table word (wider requests degrade to 6-input
    /// matching instead of aborting).
    pub fn new(subject: &SubjectGraph, library: &'a Library, k: usize) -> BoolSource<'a> {
        let k = k.clamp(2, MAX_INPUTS);
        let index = LibraryIndex::build(library, k);
        let flat = subject.flat();
        let cuts = cuts::enumerate(flat, k);
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
            first_kit_made: Cell::new(false),
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
/// stack, cover buffers, the emitted-binding log and one record per
/// distinct cut function. Labeling allocates only when a new function
/// grows the records or a buffer passes its high-water mark.
pub struct BoolKit {
    vals: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    dfs: Vec<NodeId>,
    covered: Vec<NodeId>,
    cover_out: Vec<NodeId>,
    /// Support-reduced cut function → its record in `functions`.
    function_ids: HashMap<TruthTable, u32>,
    functions: Vec<CutFunction>,
    /// Per-node emitted (gate, binding) pairs, for dedup across cuts;
    /// bindings are padded with `NodeId` 0 past the gate's pin count.
    seen: Vec<(GateId, [NodeId; MAX_INPUTS])>,
    /// Whether this pass updates the source's counters (the first pass).
    counted: bool,
}

/// What matching needs to know about one support-reduced cut function,
/// worked out the first time the function appears in a pass.
#[derive(Clone, Copy)]
struct CutFunction {
    canon: Canonical,
    /// The library's P and NPN classes of the canonical forms.
    p_class: Option<u32>,
    npn_class: Option<u32>,
    /// Whether `canon.p` is already in the source's P / NPN reach sets;
    /// they only grow, so each function inserts at most once per pass.
    in_p_reach: bool,
    in_npn_reach: bool,
}

impl BoolKit {
    fn for_subject(subject: &SubjectGraph, counted: bool) -> BoolKit {
        let n = subject.flat().num_nodes();
        BoolKit {
            vals: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            dfs: Vec::with_capacity(64),
            covered: Vec::with_capacity(64),
            cover_out: Vec::with_capacity(64),
            function_ids: HashMap::new(),
            functions: Vec::new(),
            seen: Vec::with_capacity(32),
            counted,
        }
    }

    /// The record of `red`, created on first sight: one hash probe when
    /// the function has been seen before.
    fn function_of(&mut self, red: TruthTable, index: &LibraryIndex) -> usize {
        let next = self.functions.len();
        let id = *self
            .function_ids
            .entry(red)
            .or_insert(u32::try_from(next).expect("fewer than 2^32 cut functions"))
            as usize;
        if id == next {
            let canon = red.canonical();
            self.functions.push(CutFunction {
                p_class: index.p_class_id(&canon.p),
                npn_class: index.npn_class_id(&canon.npn),
                canon,
                in_p_reach: false,
                in_npn_reach: false,
            });
        }
        id
    }

    /// Logs `(gate, by_pin)` for this node; false if it was already
    /// emitted from an earlier cut.
    fn first_emission(&mut self, gate: GateId, by_pin: [NodeId; MAX_INPUTS]) -> bool {
        if self.seen.iter().any(|&(g, b)| g == gate && b == by_pin) {
            return false;
        }
        self.seen.push((gate, by_pin));
        true
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
        let first = !self.first_kit_made.replace(true);
        BoolKit::for_subject(subject, first)
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
        let cuts = self.cuts.cuts_of(node);
        let (mut p_emitted, mut npn_emitted) = (0usize, 0usize);

        for cut in cuts {
            let leaves = cut.leaves();
            let Some(word) = kit.eval_cone(flat, node, leaves) else {
                continue;
            };
            let (red, support) = TruthTable::from_bits(leaves.len(), word).shrink_support();
            let n = red.num_inputs();
            if n == 0 {
                continue; // a constant cone
            }
            let mut leaves_red = [NodeId::from_index(0); MAX_INPUTS];
            for (slot, &j) in leaves_red.iter_mut().zip(&support[..n]) {
                *slot = leaves[usize::from(j)];
            }
            let fi = kit.function_of(red, &self.index);
            let func = kit.functions[fi];
            let c = &func.canon;
            let (p_before, npn_before) = (p_emitted, npn_emitted);

            // P lookup: direct bindings, no polarity work.
            let p_gates = func.p_class.map_or(&[][..], |id| self.index.p_class(id));
            for (gate, perm_gate) in p_gates {
                let mut by_pin = [NodeId::from_index(0); MAX_INPUTS];
                for i in 0..n {
                    by_pin[perm_gate[i]] = leaves_red[usize::from(c.p_perm[i])];
                }
                if !kit.first_emission(*gate, by_pin) {
                    continue;
                }
                p_emitted += 1;
                stats.enumerated += 1;
                f(SourceMatch {
                    gate: *gate,
                    pattern: None,
                    leaves: &by_pin[..n],
                    covered: &kit.covered,
                });
            }

            // NPN lookup: polarity-composing bindings. `cover_out` is the
            // cone plus the inverters one gate's binding absorbs.
            let npn_gates = func
                .npn_class
                .map_or(&[][..], |id| self.index.npn_class(id));
            kit.cover_out.clear();
            kit.cover_out.extend_from_slice(&kit.covered);
            'gates: for (gate, t_gate) in npn_gates {
                if t_gate.output_neg != c.output_neg {
                    // The root polarity cannot be fixed up in place.
                    continue;
                }
                let mut by_pin = [NodeId::from_index(0); MAX_INPUTS];
                kit.cover_out.truncate(kit.covered.len());
                for i in 0..n {
                    let leaf = leaves_red[usize::from(c.npn_perm[i])];
                    let negate = ((c.input_neg ^ t_gate.input_neg) >> i) & 1 == 1;
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
                    by_pin[t_gate.perm[i]] = bound;
                }
                if !kit.first_emission(*gate, by_pin) {
                    continue;
                }
                npn_emitted += 1;
                stats.enumerated += 1;
                f(SourceMatch {
                    gate: *gate,
                    pattern: None,
                    leaves: &by_pin[..n],
                    covered: &kit.cover_out,
                });
            }

            // Class reach is keyed by the P-canonical form: P reach counts
            // cuts that emitted a P match, NPN reach cuts that emitted any.
            let p_hit = p_emitted > p_before;
            if kit.counted && p_hit && !func.in_p_reach {
                self.p_classes.borrow_mut().insert(c.p);
                kit.functions[fi].in_p_reach = true;
            }
            if kit.counted && (p_hit || npn_emitted > npn_before) && !func.in_npn_reach {
                self.npn_classes.borrow_mut().insert(c.p);
                kit.functions[fi].in_npn_reach = true;
            }
        }

        if kit.counted {
            self.cuts_examined
                .set(self.cuts_examined.get() + cuts.len());
            self.p_matches.set(self.p_matches.get() + p_emitted);
            self.npn_matches.set(self.npn_matches.get() + npn_emitted);
        }
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
            structural: StructuralSource::new(library, MatchMode::Standard, MatchConfig::default()),
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
        stats.absorb(
            self.boolean
                .for_each_match(subject, node, &mut kit.boolean, f),
        );
        stats
    }
}
