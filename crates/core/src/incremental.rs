//! Incremental re-labeling after a netlist edit.
//!
//! The strash signatures of `dagmap_netlist::strash` give every subject
//! node a content address for its *entire* transitive fanin cone. After an
//! edit, a node whose signature survives — and whose local context (fanout
//! count) and whole fanin frontier also survive — would be labeled exactly
//! as before: the labeling DP at a node reads only the structure of its
//! bounded cone, the arrivals/area-flows of its fanins, and the fanout
//! counts of its match leaves. [`relabel_incremental`] exploits this by
//! copying the prior run's `(arrival, area_flow, best)` for every such
//! *clean* node and running the dynamic program only on the dirty region —
//! the fanout cone of the edit plus anything whose signature changed.
//!
//! The clean rule, inductively:
//!
//! ```text
//! clean(v) := some old node u has sig(u) == sig(v)
//!             && fanout_count(u) == fanout_count(v)
//!             && every fanin of v is clean
//! ```
//!
//! Equal signatures make the fanin cones isomorphic, so by induction the
//! fanin arrivals/area-flows are equal; equal fanout counts across the
//! (clean, hence sig-preserved) cone make every candidate's area flow — and
//! the exact-mode fanout tests — equal too; and the enumeration order is a
//! function of the cone alone. The copied label is therefore bit-identical
//! to what a full re-label would compute, which is what keeps the
//! incremental path byte-identical to cold mapping.

use std::collections::HashMap;

use dagmap_genlib::Library;
use dagmap_match::{Match, MatchConfig, MatchMode, MatchStats, SharedMatchStore};
use dagmap_netlist::strash::SigBuildHasher;
use dagmap_netlist::{Sig, SubjectGraph};

use crate::label::{evaluate_node, ChosenBuf, Labels, SelectionArena};
use crate::source::{MatchSource, StructuralSource};
use crate::{allocmeter, MapError, Objective};

/// A prior labeling run, snapshotted in signature space so it survives the
/// arbitrary node-id renumbering a re-decomposition causes.
///
/// Produced by [`RetainedLabels::from_labels`] after a successful run and
/// consumed (read-only) by [`relabel_incremental`]; the serve daemon keeps
/// one per retained design handle.
#[derive(Debug, Clone)]
pub struct RetainedLabels {
    /// Old signature → old node index.
    index: HashMap<Sig, u32, SigBuildHasher>,
    /// Old node index → signature (to translate stored matches).
    sigs: Vec<Sig>,
    fanout_count: Vec<u32>,
    arrival: Vec<f64>,
    area_flow: Vec<f64>,
    best: Vec<Option<Match>>,
}

impl RetainedLabels {
    /// Snapshots `labels` of `subject` for later incremental reuse.
    /// Returns `None` when the subject's signature map is not injective —
    /// then signatures cannot address nodes unambiguously and a retained
    /// run could be mis-applied.
    pub fn from_labels(subject: &SubjectGraph, labels: &Labels) -> Option<RetainedLabels> {
        let sigs = subject.signatures();
        if !sigs.is_injective() {
            return None;
        }
        let flat = subject.flat();
        let n = flat.num_nodes();
        let mut index = HashMap::with_capacity_and_hasher(n, SigBuildHasher::default());
        for (i, &sig) in sigs.sigs().iter().enumerate() {
            index.insert(sig, i as u32);
        }
        Some(RetainedLabels {
            index,
            sigs: sigs.sigs().to_vec(),
            fanout_count: (0..n)
                .map(|i| flat.fanout_count(dagmap_netlist::NodeId::from_index(i)) as u32)
                .collect(),
            arrival: labels.arrival.clone(),
            area_flow: labels.area_flow.clone(),
            best: labels.best.clone(),
        })
    }

    /// Number of snapshotted nodes.
    pub fn num_nodes(&self) -> usize {
        self.sigs.len()
    }
}

/// How much of an incremental pass was reuse versus fresh work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Gates whose labels were copied from the retained run.
    pub reused: usize,
    /// Gates evaluated by the dynamic program (the dirty region).
    pub relabeled: usize,
}

/// Serial labeling pass that reuses a [`RetainedLabels`] snapshot wherever
/// the clean rule allows and evaluates only the dirty region.
///
/// The result is bit-identical to a full (cold) labeling of `subject` with
/// the same configuration; only the work counters differ — reused nodes
/// perform no enumeration, no memo lookup, and no allocation. When the new
/// subject's signature map is not injective the pass degrades to a full
/// serial re-label (`reused == 0`), never to a wrong answer.
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if some dirty node has no match.
pub fn relabel_incremental(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    objective: Objective,
    config: MatchConfig,
    retained: &RetainedLabels,
    shared: Option<&SharedMatchStore>,
) -> Result<(Labels, IncrementalStats), MapError> {
    let source = StructuralSource::new(library, mode, config, shared);
    relabel_with_source(subject, &source, objective, retained)
}

/// [`relabel_incremental`] over a caller-built match source, so a mapping
/// run can hand the same source on to area recovery.
pub(crate) fn relabel_with_source<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    retained: &RetainedLabels,
) -> Result<(Labels, IncrementalStats), MapError> {
    let flat = subject.flat();
    let n = flat.num_nodes();
    let sigs = subject.signatures();
    let reuse_ok = sigs.is_injective();
    let mut span = dagmap_obs::span("label.incremental");
    if span.is_recording() {
        span.set_u64("nodes", n as u64);
    }

    let library = source.library();
    let mut arrival = vec![0.0f64; n];
    let mut area_flow = vec![0.0f64; n];
    let mut arena = SelectionArena::new(library, flat);
    let mut stats = MatchStats::default();
    let mut inc = IncrementalStats::default();
    let mut kit = source.make_kit(subject);
    let mut chosen = ChosenBuf::new(library);
    let metering = allocmeter::installed();
    let mut wave_allocs: Vec<usize> =
        Vec::with_capacity(if metering { flat.num_levels() } else { 0 });
    // clean[i] per the module-level rule; sources participate (their fanout
    // counts gate the cleanliness of consumers) but carry no copied label.
    let mut clean = vec![false; n];

    for l in 0..flat.num_levels() {
        let group = flat.level_group(l);
        let before = allocmeter::reading();
        for &id in group {
            let i = id.index();
            let old = if reuse_ok {
                retained
                    .index
                    .get(&sigs.sig_of(id))
                    .copied()
                    .filter(|&u| {
                        retained.fanout_count[u as usize] == flat.fanout_count(id) as u32
                            && flat.fanins(id).iter().all(|f| clean[f.index()])
                    })
            } else {
                None
            };
            if !flat.is_gate(id) {
                clean[i] = old.is_some();
                continue;
            }
            if let Some(u) = old {
                if let Some(best) = retained.best[u as usize].as_ref() {
                    // Translate the stored match from old ids to new ids
                    // through signature space. Isomorphic cones guarantee
                    // every referenced node exists here; a failed lookup
                    // (hash collision) falls through to a fresh evaluation.
                    let translate = |ids: &[dagmap_netlist::NodeId]| {
                        ids.iter()
                            .map(|&o| sigs.lookup(retained.sigs[o.index()]))
                            .collect::<Option<Vec<_>>>()
                    };
                    if let (Some(leaves), Some(covered)) =
                        (translate(&best.leaves), translate(&best.covered))
                    {
                        arrival[i] = retained.arrival[u as usize];
                        area_flow[i] = retained.area_flow[u as usize];
                        arena.commit(id, (best.gate, best.pattern), &leaves, &covered);
                        clean[i] = true;
                        inc.reused += 1;
                        continue;
                    }
                }
            }
            stats.absorb(evaluate_node(
                subject,
                source,
                objective,
                &arrival,
                &area_flow,
                id,
                &mut kit,
                &mut chosen,
            ));
            inc.relabeled += 1;
            match chosen.sel {
                Some(sel) => {
                    arrival[i] = chosen.t;
                    area_flow[i] = chosen.af;
                    arena.commit(id, sel, &chosen.leaves, &chosen.covered);
                    // A freshly evaluated node may still be clean for its
                    // consumers' purposes iff its signature and fanout
                    // survived — but then it would have been reused above,
                    // so a re-evaluated node is dirty by construction.
                }
                None => return Err(MapError::NoMatch { node: id }),
            }
        }
        if let (Some(b), Some(a)) = (before, allocmeter::reading()) {
            wave_allocs.push(a - b);
        }
    }
    if span.is_recording() {
        span.set_u64("reused", inc.reused as u64);
        span.set_u64("relabeled", inc.relabeled as u64);
    }
    if dagmap_obs::enabled() {
        dagmap_obs::count("label.incremental.reused", inc.reused as u64);
        dagmap_obs::count("label.incremental.relabeled", inc.relabeled as u64);
    }
    Ok((
        Labels {
            arrival,
            area_flow,
            best: arena.into_best(),
            matches_enumerated: stats.enumerated,
            matches_pruned: stats.pruned,
            memo_lookups: stats.memo_lookups,
            memo_hits: stats.memo_hits,
            memo_id_hits: stats.memo_id_hits,
            match_words: stats.words,
            match_candidate_bits: stats.candidate_bits,
            levels: flat.num_levels(),
            threads_used: 1,
            wave_allocs,
        },
        inc,
    ))
}
