use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_match::{Match, MatchConfig, MatchMode, MatchStats, SharedMatchStore};
use dagmap_netlist::{FlatNet, NodeId, SubjectGraph, KIND_SOURCE};

use crate::incremental::{IncrementalStats, Recall, RetainedLabels};
use crate::source::{MatchSource, SourceMatch, StructuralSource};
use crate::{allocmeter, MapError, Objective};

/// Tie-breaking tolerance of the label comparisons.
const EPS: f64 = 1e-9;

/// Auto mode ([`label_with_config`] with `num_threads = None`) stays serial
/// below this many mappable nodes — thread startup and barrier traffic
/// dominate on small circuits.
const PARALLEL_THRESHOLD: usize = 256;

/// Waves with fewer mappable nodes than this are labeled by the coordinator
/// itself even when the parallel engine is running: handing a handful of
/// nodes to workers costs more in barrier and lock traffic than the work is
/// worth, and narrow waves dominate the tail of most level profiles.
const NARROW_WAVE_WIDTH: usize = 32;

/// Environment switch that makes explicit `--threads N` requests spin up
/// the parallel engine even on single-CPU hosts (where they would otherwise
/// fall back to serial). Used by the determinism test suite, which needs
/// the worker path exercised regardless of the machine it runs on.
const FORCE_PARALLEL_ENV: &str = "DAGMAP_LABEL_FORCE_PARALLEL";

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
/// The pass runs level-synchronized over the [`FlatNet`] CSR view: every
/// fanin of a level-`l` node sits at a level strictly below `l`, so once
/// levels `0..l` are labeled, all level-`l` nodes are independent
/// subproblems. [`label_with_config`] exploits this as a parallel wavefront;
/// the result is bit-identical to the serial pass because each node's
/// candidate enumeration and tie-breaking never observe same-level work.
#[derive(Debug, Clone)]
pub struct Labels {
    /// Arrival of the selected match per subject node (sources are 0).
    pub arrival: Vec<f64>,
    /// Estimated area of producing each node with its selected match.
    pub area_flow: Vec<f64>,
    /// The selected match per internal node.
    pub best: Vec<Option<Match>>,
    /// Total matches enumerated (a proxy for the paper's `O(s·p)` cost).
    pub matches_enumerated: usize,
    /// Pattern attempts skipped without search — by the depth pre-filter
    /// and, when the fingerprint index is on, by the shape-class buckets.
    pub matches_pruned: usize,
    /// Cone-class lookups into the match memo (0 when the memo is off).
    pub memo_lookups: usize,
    /// Memo lookups that replayed a stored enumeration instead of
    /// searching. With multiple workers each worker fills its own store,
    /// so this can be lower than the serial count; the labels themselves
    /// are bit-identical regardless.
    pub memo_hits: usize,
    /// Memo hits resolved by strash signature alone (no cone extraction);
    /// a subset of [`Labels::memo_hits`]. Zero when strash-id keying is
    /// disabled, the mode is exact, or the subject's signature map is not
    /// injective.
    pub memo_id_hits: usize,
    /// 64-wide candidate words the batched match kernel evaluated (memo
    /// replays evaluate none, so this counts performed kernel work).
    pub match_words: usize,
    /// Set bits across the evaluated candidate words; together with
    /// [`Labels::match_words`] this gives the kernel's batch occupancy.
    pub match_candidate_bits: usize,
    /// Topological levels of the subject graph (wavefront count).
    pub levels: usize,
    /// Worker threads the pass actually used (1 = serial).
    pub threads_used: usize,
    /// Heap allocations observed per wave, recorded only when a counting
    /// allocator is registered through [`crate::allocmeter`] (empty
    /// otherwise). The steady-state contract: with the memo off, every
    /// entry is 0 — all per-wave scratch lives in arenas sized up front.
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
/// Reads only `arrival`/`area_flow` of strict fanins (all at lower levels),
/// which is what makes whole levels independently computable.
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
        let pins = sm.leaves.len();
        let better = match chosen.sel {
            None => true,
            Some(_) => {
                let (bt, ba, bp) = (chosen.t, chosen.af, chosen.pins);
                match objective {
                    Objective::Delay => {
                        t < bt - EPS
                            || (t < bt + EPS && af < ba - EPS)
                            || (t < bt + EPS && (af - ba).abs() <= EPS && pins < bp)
                    }
                    Objective::Area => {
                        af < ba - EPS
                            || (af < ba + EPS && t < bt - EPS)
                            || (af < ba + EPS && (t - bt).abs() <= EPS && pins < bp)
                    }
                }
            }
        };
        if better {
            chosen.keep(t, af, &sm);
        }
    };
    source.for_each_match(subject, id, kit, &mut on_match)
}

/// Worker-thread count the pass actually runs with. Pure so the policy is
/// unit-testable: explicit single-thread requests and auto-mode small
/// circuits stay serial, and requests for parallelism on a single-CPU host
/// are declined unless `force` (the `DAGMAP_LABEL_FORCE_PARALLEL=1` escape
/// hatch) is set.
fn resolve_threads(
    requested: usize,
    auto: bool,
    available: usize,
    mappable: usize,
    force: bool,
) -> usize {
    if requested <= 1 {
        return 1;
    }
    if auto && mappable < PARALLEL_THRESHOLD {
        return 1;
    }
    if available <= 1 && !force {
        return 1;
    }
    requested
}

fn force_parallel() -> bool {
    std::env::var_os(FORCE_PARALLEL_ENV).is_some_and(|v| v == "1")
}

/// Runs the labeling pass over the level wavefronts of the subject graph,
/// optionally in parallel, with an explicit match-acceleration
/// configuration.
///
/// `num_threads = None` picks [`std::thread::available_parallelism`] (falling
/// back to serial on small circuits); `Some(1)` forces the serial pass;
/// `Some(n)` asks for `n` workers — granted only when the host actually has
/// more than one CPU (spawning barrier-synchronized workers on a single-CPU
/// machine only adds overhead; set `DAGMAP_LABEL_FORCE_PARALLEL=1` to
/// override, as the determinism tests do). Every choice produces
/// bit-identical [`Labels`] — see [`FlatNet::build`] for the level
/// structure and DESIGN.md for the determinism argument.
///
/// Every configuration produces bit-identical labels too; the stages only
/// change how much search the matcher performs (visible in
/// [`Labels::matches_pruned`] and the memo counters). Each worker memoizes
/// into its own private store, so memo hit counts (but nothing else)
/// depend on the thread count.
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if some internal node has no match — i.e.
/// the library lacks a bare inverter or NAND2; the reported node is the
/// same (earliest commit-order failure) however many threads run.
pub fn label_with_config(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    objective: Objective,
    num_threads: Option<usize>,
    config: MatchConfig,
) -> Result<Labels, MapError> {
    let source = StructuralSource::new(library, mode, config, None);
    label_with_source(subject, &source, objective, num_threads)
}

/// [`label_with_config`] variant memoizing through a cross-request
/// [`SharedMatchStore`] instead of a run-private store — the serve
/// daemon's path. Always serial: the daemon's parallelism is *across*
/// requests (one worker per request), so per-request wavefront workers
/// would only fight those workers for cores. Labels are bit-identical to
/// every other configuration; only the memo counters differ.
pub fn label_with_shared_store(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    objective: Objective,
    config: MatchConfig,
    shared: &SharedMatchStore,
) -> Result<Labels, MapError> {
    let source = StructuralSource::new(library, mode, config, Some(shared));
    label_with_source(subject, &source, objective, Some(1))
}

/// Runs the labeling pass over an arbitrary [`MatchSource`] — the entry
/// point Boolean matching (`dagmap-boolmatch`) feeds. Thread resolution,
/// the wavefront engine, the `label` obs span and the match counters all
/// behave exactly as for the structural source; bit-identity across thread
/// counts holds for any source meeting the trait's determinism contract.
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if the source reports no match for some
/// internal node.
pub fn label_with_source<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    num_threads: Option<usize>,
) -> Result<Labels, MapError> {
    label_pass(subject, source, objective, num_threads, None).map(|(labels, _)| labels)
}

/// The labeling pass behind every entry point: cold without a snapshot,
/// incremental with one. A snapshot-driven pass is serial (an edit's
/// fanout cone is too little work for the wavefront workers) and copies
/// every label the clean rule of [`crate::incremental`] admits. It opens
/// the same spans and counters as a cold pass, and its labels are
/// bit-identical to one.
pub(crate) fn label_pass<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    num_threads: Option<usize>,
    retained: Option<&RetainedLabels>,
) -> Result<(Labels, IncrementalStats), MapError> {
    let flat = subject.flat();
    let mappable = flat.kinds().iter().filter(|&&k| k != KIND_SOURCE).count();
    let requested = retained.map_or(num_threads, |_| Some(1));
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nt = resolve_threads(
        requested.unwrap_or(available),
        requested.is_none(),
        available,
        mappable,
        force_parallel(),
    );
    let mut obs_span = dagmap_obs::span("label");
    if obs_span.is_recording() {
        obs_span.set_u64("threads", nt as u64);
        obs_span.set_u64("levels", flat.num_levels() as u64);
        obs_span.set_u64("mappable", mappable as u64);
    }
    let basis = LabelBasis {
        library: source.library().digest(),
        source: std::any::type_name::<S>(),
        mode: source.mode(),
        objective,
    };
    let mut recall = retained.and_then(|r| Recall::new(r, subject, basis));
    let state = if nt == 1 {
        label_serial(subject, source, objective, recall.as_mut())
    } else {
        label_parallel(subject, source, objective, nt)
    };
    let labels = state
        .map_err(|node| MapError::NoMatch { node })?
        .into_labels(flat.num_levels(), nt, basis);
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
        dagmap_obs::count("match.memo_lookups", labels.memo_lookups as u64);
        dagmap_obs::count("match.memo_hits", labels.memo_hits as u64);
        dagmap_obs::count("match.memo_id_hits", labels.memo_id_hits as u64);
        dagmap_obs::count("match.words", labels.match_words as u64);
        dagmap_obs::count("match.candidate_bits", labels.match_candidate_bits as u64);
    }
    Ok((labels, IncrementalStats { reused, relabeled }))
}

/// Mappable-node count of one level group (the `nodes` argument of the
/// `label.wave` / `label.worker.wave` spans, and the narrow-wave gate).
fn wave_width(flat: &FlatNet, group: &[NodeId]) -> usize {
    group.iter().filter(|&&id| flat.is_gate(id)).count()
}

/// Opens the session-lane `label.wave` span of level `l` — the same name,
/// level and node count whichever engine labels the level.
fn wave_span(flat: &FlatNet, l: usize) -> dagmap_obs::Span {
    let mut wave = dagmap_obs::span("label.wave");
    if wave.is_recording() {
        wave.set_u64("level", l as u64);
        wave.set_u64("nodes", wave_width(flat, flat.level_group(l)) as u64);
    }
    wave
}

/// The dynamic program's tables and counters. Both engines fill one, and
/// [`Labels`] is assembled from it in one place.
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

    /// The per-group step of the serial pass and of the coordinator's
    /// narrow waves: recall or evaluate each gate of `group` in commit
    /// order and commit it. Returns the first gate with no match.
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

    /// Records the allocations of the wave that began at reading `before`.
    fn meter_wave(&mut self, before: Option<usize>) {
        if let (Some(b), Some(a)) = (before, allocmeter::reading()) {
            self.wave_allocs.push(a - b);
        }
    }

    fn into_labels(self, levels: usize, threads_used: usize, basis: LabelBasis) -> Labels {
        let stats = self.stats;
        Labels {
            arrival: self.arrival,
            area_flow: self.area_flow,
            best: self.arena.into_best(),
            matches_enumerated: stats.enumerated,
            matches_pruned: stats.pruned,
            memo_lookups: stats.memo_lookups,
            memo_hits: stats.memo_hits,
            memo_id_hits: stats.memo_id_hits,
            match_words: stats.words,
            match_candidate_bits: stats.candidate_bits,
            levels,
            threads_used,
            wave_allocs: self.wave_allocs,
            basis,
        }
    }
}

/// The serial pass: one [`LabelState::label_group`] step per level, in
/// level order. Returns the first gate with no match on failure.
fn label_serial<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    mut recall: Option<&mut Recall<'_>>,
) -> Result<LabelState, NodeId> {
    let flat = subject.flat();
    let library = source.library();
    let mut state = LabelState::new(library, flat);
    let mut kit = source.make_kit(subject);
    let mut chosen = ChosenBuf::new(library);
    for l in 0..flat.num_levels() {
        let _wave = wave_span(flat, l);
        let before = allocmeter::reading();
        state.label_group(
            subject,
            source,
            objective,
            flat.level_group(l),
            &mut kit,
            &mut chosen,
            recall.as_deref_mut(),
        )?;
        state.meter_wave(before);
    }
    Ok(state)
}

/// One worker's outcome for one node, pointing into the lane's pools.
struct LaneResult {
    /// Index within the level group — the serial commit order, used to pick
    /// the deterministic failure node.
    pos: u32,
    id: NodeId,
    /// `(arrival, area, gate, pattern, leaf range, covered range)`.
    sel: Option<(f64, f64, GateId, Option<PatternId>, (u32, u32), (u32, u32))>,
    stats: MatchStats,
}

/// A worker's per-wave output buffer: results plus leaf/covered pools, all
/// sized once from the widest level so steady-state waves never allocate.
struct WorkerLane {
    results: Vec<LaneResult>,
    leaves: Vec<NodeId>,
    covered: Vec<NodeId>,
}

impl WorkerLane {
    fn new(library: &Library, max_assigned: usize) -> WorkerLane {
        WorkerLane {
            results: Vec::with_capacity(max_assigned),
            leaves: Vec::with_capacity(max_assigned * library.max_gate_inputs()),
            covered: Vec::with_capacity(max_assigned * max_pattern_internal(library)),
        }
    }

    fn clear(&mut self) {
        self.results.clear();
        self.leaves.clear();
        self.covered.clear();
    }

    fn push(&mut self, pos: u32, id: NodeId, chosen: &ChosenBuf, stats: MatchStats) {
        let sel = chosen.sel.map(|(gate, pattern)| {
            let ls = self.leaves.len() as u32;
            self.leaves.extend_from_slice(&chosen.leaves);
            let cs = self.covered.len() as u32;
            self.covered.extend_from_slice(&chosen.covered);
            (
                chosen.t,
                chosen.af,
                gate,
                pattern,
                (ls, self.leaves.len() as u32),
                (cs, self.covered.len() as u32),
            )
        });
        self.results.push(LaneResult {
            pos,
            id,
            sel,
            stats,
        });
    }
}

/// The parallel wavefront engine.
///
/// Levels are processed one at a time behind two [`Barrier`]s: the
/// coordinator releases all workers into level `l` (`start`), each worker
/// labels its stride of the level against a read-locked snapshot of the
/// arrival/area tables into its own pre-sized [`WorkerLane`], and after
/// `done` the coordinator alone holds the write lock, folding the lanes
/// back into the [`LabelState`]. Workers never observe
/// same-level writes, so every per-node computation sees exactly the state
/// the serial pass sees — the merge order only affects the order of
/// *counter accumulation* (integer adds, commutative), never the labels
/// themselves, which are per-node values.
///
/// Levels narrower than [`NARROW_WAVE_WIDTH`] skip the workers entirely:
/// the coordinator labels them itself between the barriers with the serial
/// pass's [`LabelState::label_group`] step, because dispatching a handful
/// of nodes costs more in synchronization than the evaluation is worth.
///
/// A `NoMatch` failure sets the abort flag; everyone still rendezvous at
/// both barriers for the remaining levels (cheaply, skipping the work), so
/// barrier accounting stays consistent, and the reported failing node is
/// the earliest failure in the serial commit order — exactly the serial
/// one.
fn label_parallel<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    nt: usize,
) -> Result<LabelState, NodeId> {
    let flat = subject.flat();
    let library = source.library();
    let num_levels = flat.num_levels();
    let widths: Vec<usize> = (0..num_levels)
        .map(|l| wave_width(flat, flat.level_group(l)))
        .collect();
    let max_group = (0..num_levels)
        .map(|l| flat.level_group(l).len())
        .max()
        .unwrap_or(0);
    let max_assigned = max_group.div_ceil(nt.max(1));

    let state = RwLock::new(LabelState::new(library, flat));
    let lanes: Vec<Mutex<WorkerLane>> = (0..nt)
        .map(|_| Mutex::new(WorkerLane::new(library, max_assigned)))
        .collect();
    let start = Barrier::new(nt + 1);
    let done = Barrier::new(nt + 1);
    let abort = AtomicBool::new(false);

    let mut failed: Option<NodeId> = None;
    // The coordinator's own kit, for the narrow waves it labels itself.
    let mut co_kit = source.make_kit(subject);
    let mut co_chosen = ChosenBuf::new(library);

    std::thread::scope(|s| {
        for w in 0..nt {
            let state = &state;
            let lanes = &lanes;
            let start = &start;
            let done = &done;
            let abort = &abort;
            let widths = &widths;
            s.spawn(move || {
                // Per-worker kit: scratch arenas and memo stores are
                // rediscovered once per worker, which costs a few extra
                // cold enumerations but keeps the hot path lock-free.
                let mut kit = source.make_kit(subject);
                let mut chosen = ChosenBuf::new(library);
                for l in 0..num_levels {
                    start.wait();
                    if widths[l] >= NARROW_WAVE_WIDTH && !abort.load(Ordering::Acquire) {
                        // Worker-lane wave span, only for levels where this
                        // worker's stride is non-empty — the occupancy the
                        // phase report summarizes per level.
                        let mut wave = None;
                        if dagmap_obs::enabled() {
                            let assigned = flat
                                .level_group(l)
                                .iter()
                                .enumerate()
                                .filter(|&(i, &id)| i % nt == w && flat.is_gate(id))
                                .count() as u64;
                            if assigned > 0 {
                                let mut sp = dagmap_obs::span("label.worker.wave");
                                sp.set_u64("level", l as u64);
                                sp.set_u64("nodes", assigned);
                                wave = Some(sp);
                            }
                        }
                        let mut lane = lanes[w].lock().expect("worker lane lock");
                        lane.clear();
                        let tables = state.read().expect("label state lock");
                        for (i, &id) in flat.level_group(l).iter().enumerate() {
                            if i % nt != w || !flat.is_gate(id) {
                                continue;
                            }
                            let st = evaluate_node(
                                subject,
                                source,
                                objective,
                                &tables.arrival,
                                &tables.area_flow,
                                id,
                                &mut kit,
                                &mut chosen,
                            );
                            lane.push(i as u32, id, &chosen, st);
                        }
                        drop(tables);
                        drop(lane);
                        drop(wave);
                    }
                    done.wait();
                }
                // Scope join does not wait for thread-local destructors, so
                // hand the worker's trace buffer to the session explicitly
                // rather than relying on best-effort TLS teardown.
                dagmap_obs::flush_thread();
            });
        }

        // Coordinator: drive the barriers for every level, label the narrow
        // waves, merge the wide ones. The coordinator runs on the calling
        // thread, so its `label.wave` spans land on the session lane — same
        // name, level and count as the serial pass emits, which is what
        // keeps the span signature thread-count-invariant.
        for l in 0..num_levels {
            let _wave = wave_span(flat, l);
            let before = allocmeter::reading();
            start.wait();
            if widths[l] < NARROW_WAVE_WIDTH {
                // Narrow wave: the workers skip it (they test the same
                // width), so the coordinator owns the state and runs the
                // serial pass's group step before releasing anyone into
                // `l + 1`.
                if failed.is_none() {
                    let mut tables = state.write().expect("label state lock");
                    let group = flat.level_group(l);
                    let step = tables.label_group(
                        subject,
                        source,
                        objective,
                        group,
                        &mut co_kit,
                        &mut co_chosen,
                        None,
                    );
                    if let Err(id) = step {
                        failed = Some(id);
                        abort.store(true, Ordering::Release);
                    }
                }
                done.wait();
            } else {
                done.wait();
                if failed.is_none() {
                    let mut tables = state.write().expect("label state lock");
                    // Earliest failure in the group (serial commit) order.
                    let mut first_fail: Option<(u32, NodeId)> = None;
                    for lane in lanes.iter() {
                        let lane = lane.lock().expect("worker lane lock");
                        for r in &lane.results {
                            tables.stats.absorb(r.stats);
                            match r.sel {
                                Some((t, af, gate, pattern, (ls, le), (cs, ce))) => {
                                    tables.arrival[r.id.index()] = t;
                                    tables.area_flow[r.id.index()] = af;
                                    tables.arena.commit(
                                        r.id,
                                        (gate, pattern),
                                        &lane.leaves[ls as usize..le as usize],
                                        &lane.covered[cs as usize..ce as usize],
                                    );
                                }
                                None => {
                                    if first_fail.is_none_or(|(p, _)| r.pos < p) {
                                        first_fail = Some((r.pos, r.id));
                                    }
                                }
                            }
                        }
                    }
                    if let Some((_, id)) = first_fail {
                        failed = Some(id);
                        abort.store(true, Ordering::Release);
                    }
                }
            }
            if before.is_some() {
                state.write().expect("label state lock").meter_wave(before);
            }
        }
    });

    match failed {
        Some(node) => Err(node),
        None => Ok(state.into_inner().expect("label state lock")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::{Network, NodeFn};

    /// Labels with the default acceleration configuration.
    fn label(
        subject: &SubjectGraph,
        lib: &Library,
        mode: MatchMode,
        objective: Objective,
        threads: Option<usize>,
    ) -> Result<Labels, MapError> {
        label_with_config(
            subject,
            lib,
            mode,
            objective,
            threads,
            MatchConfig::default(),
        )
    }

    fn force_parallel_for_tests() {
        // The CI container exposes one CPU; without this the explicit
        // `Some(nt)` requests below would (correctly) fall back to serial.
        std::env::set_var(FORCE_PARALLEL_ENV, "1");
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

    /// A subject with wide levels (width ≥ `NARROW_WAVE_WIDTH`), so the
    /// parallel tests exercise the worker path, not just the coordinator's
    /// narrow-wave fallback.
    fn wide_subject() -> SubjectGraph {
        let mut net = Network::new("wide");
        let mut layer: Vec<_> = (0..80)
            .map(|i| {
                let x = net.add_input(format!("x{i}"));
                let y = net.add_input(format!("y{i}"));
                net.add_node(NodeFn::And, vec![x, y]).unwrap()
            })
            .collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        net.add_node(NodeFn::Or, vec![c[0], c[1]]).unwrap()
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        net.add_output("f", layer[0]);
        SubjectGraph::from_network(&net).unwrap()
    }

    #[test]
    fn minimal_library_labels_equal_weighted_depth() {
        let subject = chain_subject(6);
        let lib = Library::minimal();
        let labels = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap();
        // With only inv/nand2 (delay 1 each), arrival = unit depth.
        assert_eq!(labels.critical_delay(&subject), 6.0);
        assert_eq!(labels.threads_used, 1);
        assert_eq!(labels.levels, 7, "six gates + the source level");
    }

    #[test]
    fn monotone_in_match_strength() {
        // Standard matches can only improve on exact matches.
        let subject = chain_subject(5);
        let lib = Library::lib2_like();
        let exact = label(&subject, &lib, MatchMode::Exact, Objective::Delay, Some(1)).unwrap();
        let std = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap();
        let ext = label(
            &subject,
            &lib,
            MatchMode::Extended,
            Objective::Delay,
            Some(1),
        )
        .unwrap();
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
        let err = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::NoMatch { .. }));
    }

    #[test]
    fn counts_enumerated_matches() {
        let subject = chain_subject(4);
        let lib = Library::lib2_like();
        let labels = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap();
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
        let delay_l = label(&subject, &lib, MatchMode::Exact, Objective::Delay, Some(1)).unwrap();
        let area_l = label(&subject, &lib, MatchMode::Exact, Objective::Area, Some(1)).unwrap();
        let root = subject.network().outputs()[0].driver;
        assert!(area_l.area_flow[root.index()] <= delay_l.area_flow[root.index()] + 1e-9);
        assert!(delay_l.arrival_of(root) <= area_l.arrival_of(root) + 1e-9);
    }

    #[test]
    fn parallel_labels_match_serial_on_a_chain() {
        force_parallel_for_tests();
        let subject = chain_subject(9);
        let lib = Library::lib2_like();
        let serial = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap();
        for nt in [2, 3, 5] {
            let par = label(
                &subject,
                &lib,
                MatchMode::Standard,
                Objective::Delay,
                Some(nt),
            )
            .unwrap();
            assert_eq!(par.threads_used, nt);
            assert_eq!(par.arrival, serial.arrival, "nt={nt}");
            assert_eq!(par.area_flow, serial.area_flow, "nt={nt}");
            assert_eq!(par.best, serial.best, "nt={nt}");
            assert_eq!(par.matches_enumerated, serial.matches_enumerated);
            assert_eq!(par.matches_pruned, serial.matches_pruned);
        }
    }

    #[test]
    fn parallel_labels_match_serial_on_wide_waves() {
        force_parallel_for_tests();
        let subject = wide_subject();
        let lib = Library::lib2_like();
        let serial = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap();
        for nt in [2, 4] {
            let par = label(
                &subject,
                &lib,
                MatchMode::Standard,
                Objective::Delay,
                Some(nt),
            )
            .unwrap();
            assert_eq!(par.threads_used, nt);
            assert_eq!(par.arrival, serial.arrival, "nt={nt}");
            assert_eq!(par.area_flow, serial.area_flow, "nt={nt}");
            assert_eq!(par.best, serial.best, "nt={nt}");
            assert_eq!(par.matches_enumerated, serial.matches_enumerated);
            assert_eq!(par.match_words, serial.match_words);
            assert_eq!(par.match_candidate_bits, serial.match_candidate_bits);
        }
    }

    #[test]
    fn parallel_failure_reports_the_serial_node() {
        use dagmap_genlib::Gate;
        force_parallel_for_tests();
        let subject = chain_subject(4);
        let lib = Library::new(
            "no_inv",
            vec![Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).unwrap()],
        )
        .unwrap();
        let serial = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap_err();
        let par = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(4),
        )
        .unwrap_err();
        match (serial, par) {
            (MapError::NoMatch { node: a }, MapError::NoMatch { node: b }) => assert_eq!(a, b),
            other => panic!("unexpected errors {other:?}"),
        }
    }

    #[test]
    fn wide_parallel_failure_reports_the_serial_node() {
        use dagmap_genlib::Gate;
        force_parallel_for_tests();
        // Wide waves so the failure surfaces through the lane merge: an
        // AND/OR reduction needs inverters everywhere under NAND
        // decomposition, so an inverter-less library fails early.
        let subject = wide_subject();
        let lib = Library::new(
            "no_inv",
            vec![Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).unwrap()],
        )
        .unwrap();
        let serial = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(1),
        )
        .unwrap_err();
        let par = label(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            Some(3),
        )
        .unwrap_err();
        match (serial, par) {
            (MapError::NoMatch { node: a }, MapError::NoMatch { node: b }) => assert_eq!(a, b),
            other => panic!("unexpected errors {other:?}"),
        }
    }

    #[test]
    fn auto_mode_stays_serial_on_small_circuits() {
        let subject = chain_subject(5);
        let lib = Library::minimal();
        let labels = label(&subject, &lib, MatchMode::Standard, Objective::Delay, None).unwrap();
        assert_eq!(labels.threads_used, 1, "below the parallel threshold");
    }

    #[test]
    fn thread_resolution_declines_oversubscription() {
        // Explicit serial and auto-mode small circuits stay serial.
        assert_eq!(resolve_threads(1, false, 8, 10_000, false), 1);
        assert_eq!(resolve_threads(8, true, 8, 100, false), 1);
        // Auto mode on a big circuit with real CPUs parallelizes.
        assert_eq!(resolve_threads(8, true, 8, 10_000, false), 8);
        // Explicit requests on a single-CPU host fall back to serial...
        assert_eq!(resolve_threads(2, false, 1, 10_000, false), 1);
        assert_eq!(resolve_threads(4, true, 1, 10_000, false), 1);
        // ...unless forced (the test-suite escape hatch).
        assert_eq!(resolve_threads(2, false, 1, 10_000, true), 2);
        // Explicit requests on multi-CPU hosts are honored even for small
        // circuits (the caller asked).
        assert_eq!(resolve_threads(2, false, 8, 10, false), 2);
    }
}
