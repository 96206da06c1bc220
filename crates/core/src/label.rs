use std::cmp::Ordering;

use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_match::{Match, MatchConfig, MatchMode, MatchStats, SharedMatchStore};
use dagmap_netlist::{FlatNet, NodeId, SubjectGraph, KIND_SOURCE};

use crate::incremental::{IncrementalStats, Recall, RetainedLabels};
use crate::source::{MatchSource, SourceMatch, StructuralSource};
use crate::verify::close;
use crate::{allocmeter, MapError, Objective};

/// The tie rule of every label comparison: orders two label quantities
/// (arrivals, area flows, recovery costs) but reads values within the
/// mixed tolerance of [`close`] as equal, so the incumbent — the first of
/// equal candidates — stays.
///
/// The tolerance must scale with the magnitude. Two pin permutations of
/// one match tie exactly on arrival but sum their leaves' area flows in a
/// different order, and at area flows of ~10⁶ (mult64 under lib2) those
/// sums differ by a few ULPs, which is more than any fixed 1e-9. The
/// matcher enumerates only the first permutation of a symmetric binding;
/// under an absolute tolerance a later, unenumerated one could have won.
pub(crate) fn tie_cmp(a: f64, b: f64) -> Ordering {
    if close(a, b) {
        Ordering::Equal
    } else if a < b {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// Result of the labeling pass: per subject node, the arrival time and
/// estimated area of the selected match.
///
/// This is the FlowMap-style dynamic program of Section 3.1 with k-cut
/// enumeration replaced by library pattern matching: nodes are visited in
/// topological order, so when a node is labeled, the optimal arrivals of its
/// whole transitive fanin are known, and
///
/// ```text
/// arrival(n) = min over matches m at n of
///              max over pins i of ( arrival(leaf_i(m)) + pin_delay_i(gate(m)) )
/// ```
///
/// satisfies the principle of optimality. Under [`Objective::Delay`] the
/// labels are provably optimal arrivals (the paper's theorem); under
/// [`Objective::Area`] the same machinery minimizes an area estimate that
/// is exact for tree covering and an area-flow heuristic for DAG covering.
///
/// The pass walks the level groups of the [`FlatNet`] CSR view in order:
/// every fanin of a level-`l` node sits at a level strictly below `l`, so
/// level order is a topological order. One loop on the calling thread
/// labels cold and incremental passes alike.
#[derive(Debug, Clone)]
pub struct Labels {
    /// Arrival of the selected match per subject node (sources are 0).
    pub arrival: Vec<f64>,
    /// Estimated area of producing each node with its selected match.
    pub area_flow: Vec<f64>,
    /// The selected match per internal node.
    pub best: Vec<Option<Match>>,
    /// Total matches enumerated (a proxy for the paper's `O(s·p)` cost).
    /// Pin permutations across a symmetric pattern NAND are enumerated
    /// once, not once per fanin order (see `MatchStats::enumerated`).
    pub matches_enumerated: usize,
    /// Rooted pattern candidates skipped without search — those outside the
    /// node's automaton state with the index on, those failing the depth
    /// pre-filter with it off.
    pub matches_pruned: usize,
    /// Always 0: the cone-class memo is retired, since a fresh enumeration
    /// through the automaton costs less than a probe. The field keeps its
    /// place for report consumers.
    pub memo_lookups: usize,
    /// Always 0, as [`Labels::memo_lookups`].
    pub memo_hits: usize,
    /// Always 0, as [`Labels::memo_lookups`].
    pub memo_id_hits: usize,
    /// 64-wide candidate words the batched match kernel evaluated.
    pub match_words: usize,
    /// Set bits across the evaluated candidate words; together with
    /// [`Labels::match_words`] this gives the kernel's batch occupancy.
    pub match_candidate_bits: usize,
    /// Topological levels of the subject graph (the level groups the pass
    /// visits).
    pub levels: usize,
    /// Threads the pass ran on. Always 1: labeling is one serial pass on
    /// the calling thread. The field keeps its place for report consumers.
    pub threads_used: usize,
    /// Heap allocations observed per level, recorded only when a counting
    /// allocator is registered through [`crate::allocmeter`] (empty
    /// otherwise). The steady-state contract: every entry is 0 — all
    /// per-wave scratch lives in arenas sized up front.
    pub wave_allocs: Vec<usize>,
    /// What the labels were computed under (see [`RetainedLabels`]).
    pub(crate) basis: LabelBasis,
}

/// What labels depend on besides the subject graph. The match
/// configuration is absent: no acceleration stage moves a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LabelBasis {
    library: u64,
    source: &'static str,
    mode: MatchMode,
    objective: Objective,
}

impl Labels {
    /// Arrival of one node.
    pub fn arrival_of(&self, node: NodeId) -> f64 {
        self.arrival[node.index()]
    }

    /// Worst arrival over primary outputs and latch data inputs. Under
    /// [`Objective::Delay`] this is the provably minimum circuit delay for
    /// this subject graph, library and match semantics.
    pub fn critical_delay(&self, subject: &SubjectGraph) -> f64 {
        dagmap_netlist::sta::critical_delay(subject.network(), &self.arrival)
    }
}

/// Arrival of a gate instantiated with `leaves` as its pin binding.
pub(crate) fn arrival_of_leaves(
    library: &Library,
    arrival: &[f64],
    gate: GateId,
    leaves: &[NodeId],
) -> f64 {
    let gate = library.gate(gate);
    let mut t: f64 = 0.0;
    for (pin, leaf) in leaves.iter().enumerate() {
        t = t.max(arrival[leaf.index()] + gate.pin_delay(pin));
    }
    t
}

/// Estimated area of realizing a match. For exact (tree) matches the
/// estimate is exact: a multi-fanout leaf is a shared tree root whose cost
/// is accounted once at that root, so it contributes 0 here. For
/// standard/extended matches sharing is approximated by dividing each
/// leaf's cost by its fanout count (area flow).
fn area_of_leaves(
    flat: &FlatNet,
    library: &Library,
    area_flow: &[f64],
    gate: GateId,
    leaves: &[NodeId],
    mode: MatchMode,
) -> f64 {
    let mut a = library.gate(gate).area();
    for leaf in leaves {
        let fanouts = flat.fanout_count(*leaf);
        let contribution = match mode {
            MatchMode::Exact => {
                if fanouts > 1 {
                    0.0
                } else {
                    area_flow[leaf.index()]
                }
            }
            MatchMode::Standard | MatchMode::Extended => {
                area_flow[leaf.index()] / fanouts.max(1) as f64
            }
        };
        a += contribution;
    }
    a
}

/// Largest internal-node count over the library's expanded patterns — the
/// per-match bound on `covered.len()`.
fn max_pattern_internal(library: &Library) -> usize {
    library
        .patterns()
        .iter()
        .map(|p| p.graph.num_internal())
        .max()
        .unwrap_or(0)
}

/// Reusable incumbent of one node's match selection. The leaf/covered
/// buffers are sized once from the library's pattern bounds, so keeping a
/// better match is a couple of `memcpy`s — never an allocation. This
/// replaces the former per-improvement [`MatchView::to_match`] call, which
/// allocated two `Vec`s every time the incumbent changed.
pub(crate) struct ChosenBuf {
    pub(crate) t: f64,
    pub(crate) af: f64,
    pins: usize,
    pub(crate) sel: Option<(GateId, Option<PatternId>)>,
    pub(crate) leaves: Vec<NodeId>,
    pub(crate) covered: Vec<NodeId>,
}

impl ChosenBuf {
    pub(crate) fn new(library: &Library) -> ChosenBuf {
        ChosenBuf {
            t: 0.0,
            af: 0.0,
            pins: 0,
            sel: None,
            leaves: Vec::with_capacity(library.max_gate_inputs()),
            covered: Vec::with_capacity(max_pattern_internal(library)),
        }
    }

    fn clear(&mut self) {
        self.sel = None;
    }

    /// Makes `sm` the incumbent if it strictly beats the current one under
    /// `objective`: lexicographically on the objective's quantity, then the
    /// other one, then fewer pins, each compared by [`tie_cmp`]. A
    /// candidate equal to the incumbent on all three loses.
    fn offer(&mut self, objective: Objective, t: f64, af: f64, sm: &SourceMatch<'_>) {
        if self.sel.is_some() {
            let (time, area) = (tie_cmp(t, self.t), tie_cmp(af, self.af));
            let rank = match objective {
                Objective::Delay => time.then(area),
                Objective::Area => area.then(time),
            };
            if rank.then(sm.leaves.len().cmp(&self.pins)) != Ordering::Less {
                return;
            }
        }
        self.keep(t, af, sm);
    }

    fn keep(&mut self, t: f64, af: f64, sm: &SourceMatch<'_>) {
        self.t = t;
        self.af = af;
        self.pins = sm.leaves.len();
        self.sel = Some((sm.gate, sm.pattern));
        self.leaves.clear();
        self.leaves.extend_from_slice(sm.leaves);
        self.covered.clear();
        self.covered.extend_from_slice(sm.covered);
    }

    /// Makes a retained label the incumbent, mapping its node ids through
    /// `translate`. Returns false, leaving no incumbent, when some id does
    /// not translate.
    pub(crate) fn recall(
        &mut self,
        t: f64,
        af: f64,
        m: &Match,
        translate: impl Fn(NodeId) -> Option<NodeId>,
    ) -> bool {
        let into = |ids: &[NodeId], out: &mut Vec<NodeId>| {
            out.clear();
            ids.iter()
                .all(|&id| translate(id).map(|n| out.push(n)).is_some())
        };
        let translated = into(&m.leaves, &mut self.leaves) && into(&m.covered, &mut self.covered);
        (self.t, self.af, self.pins) = (t, af, m.leaves.len());
        self.sel = translated.then_some((m.gate, m.pattern));
        translated
    }
}

/// Per-run selection storage: one `(gate, pattern)` plus leaf/covered
/// ranges per node, backed by two pools with exact upfront capacity (every
/// gate commits at most once, bounded by the library's pattern sizes).
/// Committing a selection is therefore allocation-free; the public
/// `Vec<Option<Match>>` shape of [`Labels::best`] is materialized once at
/// the end of the pass.
pub(crate) struct SelectionArena {
    sel: Vec<Option<(GateId, Option<PatternId>)>>,
    leaf_range: Vec<(u32, u32)>,
    cov_range: Vec<(u32, u32)>,
    leaves: Vec<NodeId>,
    covered: Vec<NodeId>,
}

impl SelectionArena {
    pub(crate) fn new(library: &Library, flat: &FlatNet) -> SelectionArena {
        let n = flat.num_nodes();
        let gates = flat.kinds().iter().filter(|&&k| k != KIND_SOURCE).count();
        SelectionArena {
            sel: vec![None; n],
            leaf_range: vec![(0, 0); n],
            cov_range: vec![(0, 0); n],
            leaves: Vec::with_capacity(gates * library.max_gate_inputs()),
            covered: Vec::with_capacity(gates * max_pattern_internal(library)),
        }
    }

    pub(crate) fn commit(
        &mut self,
        id: NodeId,
        sel: (GateId, Option<PatternId>),
        leaves: &[NodeId],
        covered: &[NodeId],
    ) {
        let i = id.index();
        self.sel[i] = Some(sel);
        let ls = self.leaves.len() as u32;
        self.leaves.extend_from_slice(leaves);
        self.leaf_range[i] = (ls, self.leaves.len() as u32);
        let cs = self.covered.len() as u32;
        self.covered.extend_from_slice(covered);
        self.cov_range[i] = (cs, self.covered.len() as u32);
    }

    pub(crate) fn into_best(self) -> Vec<Option<Match>> {
        let SelectionArena {
            sel,
            leaf_range,
            cov_range,
            leaves,
            covered,
        } = self;
        sel.into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.map(|(gate, pattern)| {
                    let (ls, le) = leaf_range[i];
                    let (cs, ce) = cov_range[i];
                    Match {
                        gate,
                        pattern,
                        leaves: leaves[ls as usize..le as usize].to_vec(),
                        covered: covered[cs as usize..ce as usize].to_vec(),
                    }
                })
            })
            .collect()
    }
}

/// The per-node step of the dynamic program: enumerate matches rooted at
/// `id` through the source and keep the winner in `chosen` (left unset
/// when nothing matches).
///
/// Reads only `arrival`/`area_flow` of match leaves, which sit at lower
/// levels and are therefore committed before the level-order pass reaches
/// `id`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_node<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    arrival: &[f64],
    area_flow: &[f64],
    id: NodeId,
    kit: &mut S::Kit,
    chosen: &mut ChosenBuf,
) -> MatchStats {
    let flat = subject.flat();
    let library = source.library();
    let mode = source.mode();
    chosen.clear();
    let mut on_match = |sm: SourceMatch<'_>| {
        let t = arrival_of_leaves(library, arrival, sm.gate, sm.leaves);
        let af = area_of_leaves(flat, library, area_flow, sm.gate, sm.leaves, mode);
        chosen.offer(objective, t, af, &sm);
    };
    source.for_each_match(subject, id, kit, &mut on_match)
}

/// Runs the labeling pass over the subject graph with an explicit
/// match-acceleration configuration.
///
/// The thread-count argument is ignored: labeling is one serial pass on
/// the calling thread, whatever is asked, and [`Labels::threads_used`]
/// reads 1. The argument keeps the signature callers already use.
///
/// Every configuration produces bit-identical labels; the index only
/// changes how much search the matcher performs (visible in
/// [`Labels::matches_pruned`]).
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] for the first internal node, in level
/// order, that has no match — i.e. the library lacks a bare inverter or
/// NAND2.
pub fn label_with_config(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    objective: Objective,
    _num_threads: Option<usize>,
    config: MatchConfig,
) -> Result<Labels, MapError> {
    let source = StructuralSource::new(library, mode, config);
    label_with_source(subject, &source, objective, None)
}

/// [`label_with_config`] under the signature that used to carry a
/// cross-request memo. The [`SharedMatchStore`] is the inert handle of
/// the retired memo and is ignored: this labels exactly as
/// [`label_with_config`] does.
pub fn label_with_shared_store(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    objective: Objective,
    config: MatchConfig,
    _shared: &SharedMatchStore,
) -> Result<Labels, MapError> {
    label_with_config(subject, library, mode, objective, None, config)
}

/// Runs the labeling pass over an arbitrary [`MatchSource`] — the entry
/// point Boolean matching (`dagmap-boolmatch`) feeds. The `label` obs span
/// and the match counters behave exactly as for the structural source.
/// The thread-count argument is ignored, as for [`label_with_config`].
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if the source reports no match for some
/// internal node.
pub fn label_with_source<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    _num_threads: Option<usize>,
) -> Result<Labels, MapError> {
    label_pass(subject, source, objective, None).map(|(labels, _)| labels)
}

/// The labeling pass behind every entry point: cold without a snapshot,
/// incremental with one. One [`LabelState::label_group`] step per level,
/// in level order; a snapshot-driven pass copies every label the clean
/// rule of [`crate::incremental`] admits. Both open the same spans and
/// counters, and their labels are bit-identical.
pub(crate) fn label_pass<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    retained: Option<&RetainedLabels>,
) -> Result<(Labels, IncrementalStats), MapError> {
    let flat = subject.flat();
    let library = source.library();
    let mappable = flat.kinds().iter().filter(|&&k| k != KIND_SOURCE).count();
    let mut obs_span = dagmap_obs::span("label");
    if obs_span.is_recording() {
        obs_span.set_u64("levels", flat.num_levels() as u64);
        obs_span.set_u64("mappable", mappable as u64);
    }
    let basis = LabelBasis {
        library: library.digest(),
        source: std::any::type_name::<S>(),
        mode: source.mode(),
        objective,
    };
    let mut recall = retained.and_then(|r| Recall::new(r, subject, basis));
    let mut state = LabelState::new(library, flat);
    let mut kit = source.make_kit(subject);
    let mut chosen = ChosenBuf::new(library);
    for l in 0..flat.num_levels() {
        let _wave = wave_span(flat, l);
        let before = allocmeter::reading();
        state
            .label_group(
                subject,
                source,
                objective,
                flat.level_group(l),
                &mut kit,
                &mut chosen,
                recall.as_mut(),
            )
            .map_err(|node| MapError::NoMatch { node })?;
        state.meter_wave(before);
    }
    let labels = state.into_labels(flat.num_levels(), basis);
    let reused = recall.map_or(0, |r| r.reused);
    let relabeled = mappable - reused;
    if retained.is_some() && obs_span.is_recording() {
        obs_span.set_u64("reused", reused as u64);
        obs_span.set_u64("relabeled", relabeled as u64);
    }
    if dagmap_obs::enabled() {
        dagmap_obs::count("label.nodes", mappable as u64);
        dagmap_obs::count("match.enumerated", labels.matches_enumerated as u64);
        dagmap_obs::count("match.pruned", labels.matches_pruned as u64);
        dagmap_obs::count("match.words", labels.match_words as u64);
        dagmap_obs::count("match.candidate_bits", labels.match_candidate_bits as u64);
    }
    Ok((labels, IncrementalStats { reused, relabeled }))
}

/// Opens the `label.wave` span of level `l`, with the level and its
/// mappable-node count as arguments.
fn wave_span(flat: &FlatNet, l: usize) -> dagmap_obs::Span {
    let mut wave = dagmap_obs::span("label.wave");
    if wave.is_recording() {
        let nodes = flat.level_group(l).iter().filter(|&&id| flat.is_gate(id));
        wave.set_u64("level", l as u64);
        wave.set_u64("nodes", nodes.count() as u64);
    }
    wave
}

/// The dynamic program's tables and counters, from which [`Labels`] is
/// assembled at the end of the pass.
struct LabelState {
    arrival: Vec<f64>,
    area_flow: Vec<f64>,
    arena: SelectionArena,
    stats: MatchStats,
    wave_allocs: Vec<usize>,
}

impl LabelState {
    fn new(library: &Library, flat: &FlatNet) -> LabelState {
        let n = flat.num_nodes();
        let metered = if allocmeter::installed() {
            flat.num_levels()
        } else {
            0
        };
        LabelState {
            arrival: vec![0.0; n],
            area_flow: vec![0.0; n],
            arena: SelectionArena::new(library, flat),
            stats: MatchStats::default(),
            wave_allocs: Vec::with_capacity(metered),
        }
    }

    /// The per-level step of the pass: recall or evaluate each gate of
    /// `group` in id order and commit it. Returns the first gate with no
    /// match.
    #[allow(clippy::too_many_arguments)]
    fn label_group<S: MatchSource>(
        &mut self,
        subject: &SubjectGraph,
        source: &S,
        objective: Objective,
        group: &[NodeId],
        kit: &mut S::Kit,
        chosen: &mut ChosenBuf,
        mut recall: Option<&mut Recall<'_>>,
    ) -> Result<(), NodeId> {
        let flat = subject.flat();
        for &id in group {
            let recalled = recall
                .as_deref_mut()
                .is_some_and(|r| r.recall(flat, id, chosen));
            if !flat.is_gate(id) {
                continue;
            }
            if !recalled {
                self.stats.absorb(evaluate_node(
                    subject,
                    source,
                    objective,
                    &self.arrival,
                    &self.area_flow,
                    id,
                    kit,
                    chosen,
                ));
            }
            let Some(sel) = chosen.sel else {
                return Err(id);
            };
            self.arrival[id.index()] = chosen.t;
            self.area_flow[id.index()] = chosen.af;
            self.arena.commit(id, sel, &chosen.leaves, &chosen.covered);
        }
        Ok(())
    }

    /// Records the allocations of the level that began at reading `before`.
    fn meter_wave(&mut self, before: Option<usize>) {
        if let (Some(b), Some(a)) = (before, allocmeter::reading()) {
            self.wave_allocs.push(a - b);
        }
    }

    fn into_labels(self, levels: usize, basis: LabelBasis) -> Labels {
        let stats = self.stats;
        Labels {
            arrival: self.arrival,
            area_flow: self.area_flow,
            best: self.arena.into_best(),
            matches_enumerated: stats.enumerated,
            matches_pruned: stats.pruned,
            memo_lookups: 0,
            memo_hits: 0,
            memo_id_hits: 0,
            match_words: stats.words,
            match_candidate_bits: stats.candidate_bits,
            levels,
            threads_used: 1,
            wave_allocs: self.wave_allocs,
            basis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapOptions, Mapper};
    use dagmap_netlist::{Network, NodeFn};

    /// Labels with the default acceleration configuration.
    fn label(
        subject: &SubjectGraph,
        lib: &Library,
        mode: MatchMode,
        objective: Objective,
    ) -> Result<Labels, MapError> {
        label_with_config(subject, lib, mode, objective, None, MatchConfig::default())
    }

    fn chain_subject(n: usize) -> SubjectGraph {
        let mut net = Network::new("chain");
        let mut cur = net.add_input("a");
        let b = net.add_input("b");
        for i in 0..n {
            cur = if i % 2 == 0 {
                net.add_node(NodeFn::Nand, vec![cur, b]).unwrap()
            } else {
                net.add_node(NodeFn::Not, vec![cur]).unwrap()
            };
        }
        net.add_output("f", cur);
        SubjectGraph::from_subject_network(net).unwrap()
    }

    #[test]
    fn minimal_library_labels_equal_weighted_depth() {
        let subject = chain_subject(6);
        let lib = Library::minimal();
        let labels = label(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap();
        // With only inv/nand2 (delay 1 each), arrival = unit depth.
        assert_eq!(labels.critical_delay(&subject), 6.0);
        assert_eq!(labels.threads_used, 1);
        assert_eq!(labels.levels, 7, "six gates + the source level");

        // A subject with thousands of mappable gates: whatever thread count
        // is asked for, labeling runs the one serial pass, reports one
        // thread and yields the same labels.
        let wide = SubjectGraph::from_network(&dagmap_benchgen::c6288_like()).unwrap();
        assert!(wide.num_gates() >= 256);
        let config = MatchConfig::default();
        let (mode, objective) = (MatchMode::Standard, Objective::Delay);
        let serial = label_with_config(&wide, &lib, mode, objective, Some(1), config).unwrap();
        assert_eq!(serial.critical_delay(&wide), f64::from(wide.depth()));
        for threads in [None, Some(4)] {
            let labels = label_with_config(&wide, &lib, mode, objective, threads, config).unwrap();
            assert_eq!(labels.threads_used, 1, "{threads:?}");
            assert_eq!(labels.arrival, serial.arrival, "{threads:?}");
            assert_eq!(labels.area_flow, serial.area_flow, "{threads:?}");
            assert_eq!(labels.best, serial.best, "{threads:?}");
            let opts = MapOptions {
                num_threads: threads,
                ..MapOptions::dag()
            };
            let (_, report) = Mapper::new(&lib).map_with_report(&wide, opts).unwrap();
            assert_eq!(report.label_threads, 1, "{threads:?}");
        }
    }

    #[test]
    fn monotone_in_match_strength() {
        // Standard matches can only improve on exact matches.
        let subject = chain_subject(5);
        let lib = Library::lib2_like();
        let exact = label(&subject, &lib, MatchMode::Exact, Objective::Delay).unwrap();
        let std = label(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap();
        let ext = label(&subject, &lib, MatchMode::Extended, Objective::Delay).unwrap();
        assert!(std.critical_delay(&subject) <= exact.critical_delay(&subject) + 1e-9);
        assert!(ext.critical_delay(&subject) <= std.critical_delay(&subject) + 1e-9);
    }

    #[test]
    fn missing_inverter_is_reported() {
        use dagmap_genlib::Gate;
        let subject = chain_subject(3);
        let lib = Library::new(
            "no_inv",
            vec![Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).unwrap()],
        )
        .unwrap();
        let err = label(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap_err();
        assert!(matches!(err, MapError::NoMatch { .. }));
    }

    #[test]
    fn counts_enumerated_matches() {
        let subject = chain_subject(4);
        let lib = Library::lib2_like();
        let labels = label(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap();
        assert!(labels.matches_enumerated >= 4);
        // The batched kernel evaluated at least one candidate word per
        // mappable node. Candidate bits are surviving *patterns*, each of
        // which may bind several ways, so they bound the words, not the
        // match count.
        assert!(labels.match_words >= 4);
        assert!(labels.match_candidate_bits > 0);
        assert!(labels.match_candidate_bits <= labels.match_words * 64);
    }

    #[test]
    fn area_flows_a_few_ulps_apart_tie_and_the_first_stays() {
        // Node 6170 of c6288 × 44-3 × hybrid: two pin permutations of one
        // ao43 match, equal in arrival and pin count, whose area flows sum
        // the same terms in different orders and end 2 ULPs (1.86e-9)
        // apart. They tie; the first one enumerated must stay.
        let first = f64::from_bits(0x4153_bc0a_5f4f_beed);
        let later = f64::from_bits(0x4153_bc0a_5f4f_beeb);
        assert!(first - later > 1e-9, "the gap exceeds an absolute 1e-9");
        let lib = Library::minimal();
        let gate = lib.gate_ids().next().unwrap();
        let (a, b) = (NodeId::from_index(1), NodeId::from_index(2));
        let (ab, ba, covered) = ([a, b], [b, a], [NodeId::from_index(3)]);
        let sm = |leaves| SourceMatch {
            gate,
            pattern: None,
            leaves,
            covered: &covered,
        };
        for objective in [Objective::Delay, Objective::Area] {
            let mut chosen = ChosenBuf::new(&lib);
            chosen.offer(objective, 7.0, first, &sm(&ab));
            chosen.offer(objective, 7.0, later, &sm(&ba));
            assert_eq!(chosen.af.to_bits(), first.to_bits(), "{objective:?}");
            assert_eq!(chosen.leaves, ab, "{objective:?}");
            // A real difference still wins.
            chosen.offer(objective, 7.0, first - 1.0, &sm(&ba));
            assert_eq!(chosen.leaves, ba, "{objective:?}");
        }
    }

    #[test]
    fn area_objective_prefers_smaller_covers() {
        // A chain of ANDs: the delay objective may pick fast wide gates;
        // the area objective must end at or below its area estimate.
        let mut net = Network::new("a");
        let mut cur = net.add_input("x");
        for i in 0..6 {
            let y = net.add_input(format!("y{i}"));
            cur = net.add_node(NodeFn::And, vec![cur, y]).unwrap();
        }
        net.add_output("f", cur);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let delay_l = label(&subject, &lib, MatchMode::Exact, Objective::Delay).unwrap();
        let area_l = label(&subject, &lib, MatchMode::Exact, Objective::Area).unwrap();
        let root = subject.network().outputs()[0].driver;
        assert!(area_l.area_flow[root.index()] <= delay_l.area_flow[root.index()] + 1e-9);
        assert!(delay_l.arrival_of(root) <= area_l.arrival_of(root) + 1e-9);
    }
}
