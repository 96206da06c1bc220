//! Incremental re-labeling after a netlist edit.
//!
//! The strash signatures of `dagmap_netlist::strash` give every subject
//! node a content address for its *entire* transitive fanin cone. After an
//! edit, a node whose signature survives — and whose local context (fanout
//! count) and whole fanin frontier also survive — would be labeled exactly
//! as before: the labeling DP at a node reads only the structure of its
//! bounded cone, the arrivals/area-flows of its fanins, and the fanout
//! counts of its match leaves. Incremental labeling is therefore the one
//! labeling pass given a [`RetainedLabels`] snapshot: it copies the prior
//! run's `(arrival, area_flow, best)` for every such *clean* node and runs
//! the dynamic program only on the dirty region — the fanout cone of the
//! edit plus anything whose signature changed. [`relabel_incremental`] and
//! `Mapper::map_incremental` are its entry points.
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
//!
//! That argument holds only under the library, match source, match mode
//! and objective the snapshot was computed under, so the snapshot records
//! them and a pass under any other reuses nothing, as for a subject whose
//! signatures are not injective.

use dagmap_genlib::Library;
use dagmap_match::{Match, MatchConfig, MatchMode, SharedMatchStore};
use dagmap_netlist::{FlatNet, NodeId, Sig, SubjectGraph};

use crate::label::{label_pass, ChosenBuf, LabelBasis, Labels};
use crate::source::StructuralSource;
use crate::{MapError, Objective};

/// A prior labeling run, snapshotted in signature space so it survives the
/// arbitrary node-id renumbering a re-decomposition causes.
///
/// Produced by [`RetainedLabels::from_labels`] after a successful run and
/// consumed (read-only) by [`relabel_incremental`]; the serve daemon keeps
/// one per retained design handle.
#[derive(Debug, Clone)]
pub struct RetainedLabels {
    /// Old node index → signature, which a later subject resolves to its
    /// own node ids.
    sigs: Vec<Sig>,
    fanout_count: Vec<u32>,
    arrival: Vec<f64>,
    area_flow: Vec<f64>,
    best: Vec<Option<Match>>,
    /// What the labels were computed under: library, source, mode and
    /// objective.
    basis: LabelBasis,
}

impl RetainedLabels {
    /// Snapshots `labels` of `subject` for later incremental reuse.
    /// Returns `None` when the subject's signature map is not injective —
    /// then signatures cannot address nodes unambiguously and a retained
    /// run could be mis-applied.
    pub fn from_labels(subject: &SubjectGraph, labels: &Labels) -> Option<RetainedLabels> {
        RetainedLabels::from_owned(subject, labels.clone())
    }

    /// [`RetainedLabels::from_labels`], taking the labels over instead of
    /// copying them.
    pub(crate) fn from_owned(subject: &SubjectGraph, labels: Labels) -> Option<RetainedLabels> {
        let sigs = subject.signatures();
        if !sigs.is_injective() {
            return None;
        }
        let flat = subject.flat();
        let n = flat.num_nodes();
        Some(RetainedLabels {
            sigs: sigs.sigs().to_vec(),
            fanout_count: (0..n)
                .map(|i| flat.fanout_count(NodeId::from_index(i)) as u32)
                .collect(),
            arrival: labels.arrival,
            area_flow: labels.area_flow,
            best: labels.best,
            basis: labels.basis,
        })
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

/// Labeling pass that reuses a [`RetainedLabels`] snapshot wherever the
/// clean rule allows and evaluates only the dirty region.
///
/// The result is bit-identical to a full (cold) labeling of `subject` with
/// the same configuration; only the work counters differ — reused nodes
/// perform no enumeration and no allocation. When the new
/// subject's signature map is not injective, or the snapshot was taken
/// under another library, match mode or objective, the pass degrades to a
/// full re-label (`reused == 0`), never to a wrong answer. The store
/// argument is the inert handle of the retired cone memo and is ignored.
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
    _shared: Option<&SharedMatchStore>,
) -> Result<(Labels, IncrementalStats), MapError> {
    let source = StructuralSource::new(library, mode, config);
    label_pass(subject, &source, objective, Some(retained))
}

/// The clean rule applied during one snapshot-driven labeling pass.
pub(crate) struct Recall<'r> {
    retained: &'r RetainedLabels,
    /// New node index → the retained node with the same signature.
    old_of: Vec<Option<u32>>,
    /// Retained node index → the new node with the same signature.
    new_of: Vec<Option<NodeId>>,
    /// `clean[i]` per the module-level rule; sources participate (their
    /// fanout counts gate the cleanliness of consumers) but carry no
    /// copied label.
    clean: Vec<bool>,
    /// Gates whose labels were copied so far.
    pub(crate) reused: usize,
}

impl<'r> Recall<'r> {
    /// `None` when the snapshot was computed under another basis or the
    /// subject's signatures cannot address nodes unambiguously.
    pub(crate) fn new(
        retained: &'r RetainedLabels,
        subject: &'r SubjectGraph,
        basis: LabelBasis,
    ) -> Option<Recall<'r>> {
        let sigs = subject.signatures();
        (retained.basis == basis && sigs.is_injective()).then(|| {
            // Both signature maps are injective, so equal signatures pair
            // retained and new nodes one to one; resolve every pair once.
            let n = subject.flat().num_nodes();
            let mut old_of = vec![None; n];
            let new_of = (retained.sigs.iter().enumerate())
                .map(|(u, &sig)| {
                    let id = sigs.lookup(sig)?;
                    old_of[id.index()] = Some(u as u32);
                    Some(id)
                })
                .collect();
            Recall {
                retained,
                old_of,
                new_of,
                clean: vec![false; n],
                reused: 0,
            }
        })
    }

    /// The retained node `id` is clean against, if any.
    fn old_node(&self, flat: &FlatNet, id: NodeId) -> Option<usize> {
        let u = self.old_of[id.index()]? as usize;
        (self.retained.fanout_count[u] == flat.fanout_count(id) as u32
            && flat.fanins(id).iter().all(|f| self.clean[f.index()]))
        .then_some(u)
    }

    /// Applies the clean rule at `id`; for a clean gate, makes its retained
    /// label the incumbent in `chosen`, translated to new ids through
    /// signature space, and returns true. A failed lookup (hash collision)
    /// leaves the gate dirty for the caller to evaluate.
    pub(crate) fn recall(&mut self, flat: &FlatNet, id: NodeId, chosen: &mut ChosenBuf) -> bool {
        let Some(u) = self.old_node(flat, id) else {
            return false;
        };
        let best = match &self.retained.best[u] {
            Some(best) if flat.is_gate(id) => best,
            _ => {
                self.clean[id.index()] = !flat.is_gate(id);
                return false;
            }
        };
        let new_of = &self.new_of;
        let translate = |old: NodeId| new_of[old.index()];
        let retained = self.retained;
        if !chosen.recall(retained.arrival[u], retained.area_flow[u], best, translate) {
            return false;
        }
        self.clean[id.index()] = true;
        self.reused += 1;
        true
    }
}
