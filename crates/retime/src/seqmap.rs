//! Pan–Liu-style sequential technology mapping: the Section 4 extension.
//!
//! The paper observes that the polynomial-time minimum-cycle FPGA mapping of
//! Pan & Liu — a binary search over candidate periods φ, each decided by a
//! FlowMap-like labeling that accounts for retiming — carries over to
//! library mapping by replacing k-cut enumeration with pattern matching,
//! "all the other theories hold without modification".
//!
//! The decision procedure here is *propose-and-verify*:
//!
//! 1. **Propose** — compute *l-values*: `l(v)` is the arrival of `v` in a
//!    frame of reference where crossing a register subtracts φ, with
//!    internal nodes taking the matching-based optimum
//!    `l(v) = min over matches max_i (l(leaf_i) + pin_delay_i)`, iterated
//!    to a fixpoint across register boundaries (labels are floored at
//!    `−(L+1)·φ`, so feasible instances converge while a cycle whose
//!    delay-to-register ratio exceeds φ diverges). The fixpoint's argmin
//!    matches select a φ-specific mapping.
//! 2. **Verify** — materialize that mapping as a netlist and run *exact*
//!    Leiserson–Saxe retiming on it (split-host model with a registered
//!    environment; combinational through-paths bound the period). φ is
//!    declared feasible only if the retimed mapped circuit provably meets
//!    it.
//!
//! Step 2 matters: the l-value criterion is a fixpoint heuristic here
//! (labels are floored, iteration is bounded), so every accepted period is
//! backed by an exact witness — the returned mapping *provably* meets it.
//! The I/O convention is Pan–Liu's registered environment (see
//! [`SeqGraph::from_mapped`]): outputs are sampled at each clock edge, so
//! retiming may legally pipeline registers off output edges into long
//! cones — an accumulator's carry chain, for instance, retimes to roughly
//! half its combinational-optimum delay.

use dagmap_core::{MapOptions, MappedNetlist, Mapper};
use dagmap_genlib::Library;
use dagmap_match::{ClassId, Match, MatchConfig, MatchMode, MatchScratch, MatchStore, Matcher};
use dagmap_netlist::{NodeFn, NodeId, SubjectGraph};

use crate::retime::{minimize_period, Retiming};
use crate::{RetimeError, SeqGraph};

/// Result of the minimum-cycle search: the achieved period, the mapping
/// realizing it and the witness retiming.
#[derive(Debug, Clone)]
pub struct SeqMapResult {
    /// Minimum clock period achieved (exact for the returned mapping, found
    /// within the search tolerance over proposals).
    pub period: f64,
    /// Fixpoint l-values at the accepted period.
    pub l_values: Vec<f64>,
    /// The mapped netlist realizing the period.
    pub mapped: MappedNetlist,
    /// A Leiserson–Saxe retiming of [`SeqMapResult::mapped`] achieving
    /// [`SeqMapResult::period`] (`None` for purely combinational circuits).
    pub retiming: Option<Retiming>,
}

/// Per-node match data cached across the binary search (matches do not
/// depend on φ).
///
/// Built on the shared match arena of `dagmap-match`: matches live once per
/// *cone class* in a [`MatchStore`] as (gate, leaf-local) templates, and
/// every node carries only its class plus the local → concrete-node table of
/// its cone. On regular sequential circuits (an accumulator is one repeated
/// bit slice) this both deduplicates the cache — isomorphic nodes share one
/// template list — and skips their redundant match searches up front. The
/// per-φ fixpoint iterates templates in the recorded enumeration order,
/// which is exactly the order the old owned-`Match` cache iterated in, so
/// the argmin selection (first-wins on EPS-ties) is unchanged.
struct MatchCache {
    /// Shared template store (one match list per cone class).
    store: MatchStore,
    /// Per node: its cone class; `None` for non-gate nodes.
    node_class: Vec<Option<ClassId>>,
    /// Per node: range in `locals` translating class-local indices to
    /// concrete subject nodes.
    node_locals: Vec<(u32, u32)>,
    locals: Vec<NodeId>,
    /// Pin delays per library gate, indexed by `GateId`.
    gate_delays: Vec<Vec<f64>>,
}

impl MatchCache {
    /// Concrete cone members of `id` (local index → subject node).
    fn locals_of(&self, id: NodeId) -> &[NodeId] {
        let (off, len) = self.node_locals[id.index()];
        &self.locals[off as usize..(off + len) as usize]
    }

    /// Materializes the `idx`-th match of `id`'s class as an owned value.
    fn materialize(&self, id: NodeId, idx: usize) -> Match {
        let class = self.node_class[id.index()].expect("gate node has a class");
        let locals = self.locals_of(id);
        let t = self
            .store
            .templates(class)
            .nth(idx)
            .expect("selection index in range");
        Match {
            gate: t.gate,
            pattern: Some(t.pattern),
            leaves: t.leaves.iter().map(|&l| locals[l as usize]).collect(),
            covered: t.covered.iter().map(|&l| locals[l as usize]).collect(),
        }
    }
}

fn build_cache(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
) -> Result<MatchCache, RetimeError> {
    let net = subject.network();
    let matcher = Matcher::new(library);
    let mut store = MatchStore::for_library(library);
    let mut scratch = MatchScratch::new();
    let mut node_class = vec![None; net.num_nodes()];
    let mut node_locals = vec![(0u32, 0u32); net.num_nodes()];
    let mut locals = Vec::new();
    for id in net.node_ids() {
        if !matches!(net.node(id).func(), NodeFn::Nand | NodeFn::Not) {
            continue;
        }
        let (class, _) = matcher.class_at(subject, id, mode, &mut scratch, &mut store);
        let class = class.expect("gate nodes always have a cone class");
        if store.num_templates(class) == 0 {
            return Err(RetimeError::Map(format!(
                "no library pattern matches subject node {id}"
            )));
        }
        node_class[id.index()] = Some(class);
        let off = u32::try_from(locals.len()).expect("locals arena fits u32");
        locals.extend_from_slice(scratch.cone_locals());
        let len = u32::try_from(locals.len()).expect("locals arena fits u32") - off;
        node_locals[id.index()] = (off, len);
    }
    let gate_delays = library
        .gates()
        .iter()
        .map(|g| (0..g.num_pins()).map(|p| g.pin_delay(p)).collect())
        .collect();
    Ok(MatchCache {
        store,
        node_class,
        node_locals,
        locals,
        gate_delays,
    })
}

/// One l-value fixpoint attempt at period `phi`; returns the labels and the
/// argmin match selection on success, `None` on divergence.
#[allow(clippy::type_complexity)]
fn l_fixpoint(
    subject: &SubjectGraph,
    cache: &MatchCache,
    phi: f64,
) -> Result<Option<(Vec<f64>, Vec<Option<Match>>)>, RetimeError> {
    let net = subject.network();
    let order = net.topo_order()?;
    let latches: Vec<NodeId> = net
        .node_ids()
        .filter(|&id| matches!(net.node(id).func(), NodeFn::Latch))
        .collect();
    let floor = -((latches.len() as f64) + 1.0) * phi.max(1e-9);
    let mut l = vec![0.0f64; net.num_nodes()];
    let mut pick: Vec<Option<usize>> = vec![None; net.num_nodes()];
    let rounds = 4 * latches.len() + 16;
    const EPS: f64 = 1e-9;
    for _ in 0..rounds {
        let mut changed = false;
        for &id in &order {
            let node = net.node(id);
            let new = match node.func() {
                NodeFn::Input | NodeFn::Const(_) => 0.0,
                NodeFn::Latch => (l[node.fanins()[0].index()] - phi).max(floor),
                NodeFn::Nand | NodeFn::Not => {
                    let class = cache.node_class[id.index()].expect("gate node has a class");
                    let locals = cache.locals_of(id);
                    let mut best = f64::INFINITY;
                    let mut best_idx = 0;
                    for (idx, tpl) in cache.store.templates(class).enumerate() {
                        let delays = &cache.gate_delays[tpl.gate.index()];
                        let mut t = f64::NEG_INFINITY;
                        for (d, &leaf) in delays.iter().zip(tpl.leaves) {
                            t = t.max(l[locals[leaf as usize].index()] + d);
                        }
                        if t < best - EPS {
                            best = t;
                            best_idx = idx;
                        }
                    }
                    pick[id.index()] = Some(best_idx);
                    best
                }
                other => unreachable!("subject graphs never hold {}", other.name()),
            };
            if (new - l[id.index()]).abs() > EPS {
                l[id.index()] = new;
                changed = true;
            }
        }
        if !changed {
            let selected: Vec<Option<Match>> = pick
                .iter()
                .enumerate()
                .map(|(i, p)| p.map(|idx| cache.materialize(NodeId::from_index(i), idx)))
                .collect();
            return Ok(Some((l, selected)));
        }
    }
    Ok(None)
}

/// Exact achieved period of a mapped netlist under optimal retiming
/// (vertex delays are worst pin-to-output block delays).
fn achieved_period(mapped: &MappedNetlist) -> Result<(f64, Option<Retiming>), RetimeError> {
    if mapped.latches().is_empty() {
        return Ok((mapped.delay(), None));
    }
    let graph = SeqGraph::from_mapped(mapped);
    let retiming = minimize_period(&graph)?;
    Ok((retiming.period, Some(retiming)))
}

/// Proposal + verification at one period.
fn try_period(
    subject: &SubjectGraph,
    library: &Library,
    cache: &MatchCache,
    phi: f64,
) -> Result<Option<SeqMapResult>, RetimeError> {
    let Some((l_values, selected)) = l_fixpoint(subject, cache, phi)? else {
        return Ok(None);
    };
    let mapped = Mapper::new(library)
        .realize(subject, &selected)
        .map_err(|e| RetimeError::Map(e.to_string()))?;
    let (period, retiming) = match achieved_period(&mapped) {
        Ok(r) => r,
        Err(RetimeError::Infeasible(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    if period <= phi + 1e-9 {
        Ok(Some(SeqMapResult {
            period,
            l_values,
            mapped,
            retiming,
        }))
    } else {
        Ok(None)
    }
}

/// Decides whether clock period `phi` is achievable by combined retiming
/// and technology mapping (propose-and-verify; see the module docs).
///
/// # Errors
///
/// Fails when the library cannot cover some node or the subject graph is
/// malformed.
pub fn period_feasible(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    phi: f64,
) -> Result<bool, RetimeError> {
    let cache = build_cache(subject, library, mode)?;
    Ok(try_period(subject, library, &cache, phi)?.is_some())
}

/// Binary-searches the minimum clock period achievable by retiming plus
/// technology mapping, to relative tolerance `tol`, returning the mapping
/// and witness retiming of the best accepted proposal.
///
/// # Errors
///
/// Returns [`RetimeError::Infeasible`] when no finite period exists and
/// mapping/substrate errors otherwise.
pub fn min_cycle_period(
    subject: &SubjectGraph,
    library: &Library,
    mode: MatchMode,
    tol: f64,
) -> Result<SeqMapResult, RetimeError> {
    let _search_span = dagmap_obs::span("retime.search");
    let cache = {
        let _s = dagmap_obs::span("retime.cache");
        build_cache(subject, library, mode)?
    };
    // Upper bound: the combinational-optimal mapping retimed exactly.
    let comb = dagmap_core::label_with_config(
        subject,
        library,
        mode_to_options(mode).match_mode,
        dagmap_core::Objective::Delay,
        None,
        MatchConfig::default(),
    )
    .map_err(|e| RetimeError::Map(e.to_string()))?
    .critical_delay(subject);
    let probe = |phi: f64| -> Result<Option<SeqMapResult>, RetimeError> {
        let mut span = dagmap_obs::span("retime.probe");
        let result = try_period(subject, library, &cache, phi)?;
        if span.is_recording() {
            span.set_f64("phi", phi);
            span.set_u64("feasible", u64::from(result.is_some()));
        }
        dagmap_obs::count("retime.probes", 1);
        Ok(result)
    };
    let mut hi = comb.max(1e-6);
    let mut best = None;
    for _ in 0..8 {
        if let Some(result) = probe(hi)? {
            best = Some(result);
            break;
        }
        hi *= 1.5;
    }
    let Some(mut best) = best else {
        return Err(RetimeError::Infeasible(format!(
            "no feasible period found up to {hi}"
        )));
    };
    let mut hi = best.period.min(hi);
    let mut lo = 0.0f64;
    let target = (tol * hi).max(1e-9);
    while hi - lo > target {
        let mid = 0.5 * (lo + hi);
        match probe(mid)? {
            Some(result) => {
                hi = result.period.min(mid);
                best = result;
            }
            None => lo = mid,
        }
    }
    Ok(best)
}

fn mode_to_options(mode: MatchMode) -> MapOptions {
    match mode {
        MatchMode::Exact => MapOptions::tree(),
        MatchMode::Standard => MapOptions::dag(),
        MatchMode::Extended => MapOptions::dag_extended(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::Network;

    /// The combinational optimum: the critical delay of serial standard
    /// labels.
    fn comb_delay(subject: &SubjectGraph, lib: &Library) -> f64 {
        let (mode, objective) = (MatchMode::Standard, dagmap_core::Objective::Delay);
        let config = MatchConfig::default();
        dagmap_core::label_with_config(subject, lib, mode, objective, Some(1), config)
            .unwrap()
            .critical_delay(subject)
    }

    /// A ring of `k` inverters with `r` registers bunched together.
    fn inverter_ring(k: usize, r: usize) -> SubjectGraph {
        let mut net = Network::new("ring");
        let seed = net.add_input("seed");
        let l0 = net.add_node(NodeFn::Latch, vec![seed]).unwrap();
        let mut latches = vec![l0];
        for _ in 1..r {
            let prev = *latches.last().expect("nonempty");
            latches.push(net.add_node(NodeFn::Latch, vec![prev]).unwrap());
        }
        let mut cur = *latches.last().expect("nonempty");
        for _ in 0..k {
            cur = net.add_node(NodeFn::Not, vec![cur]).unwrap();
        }
        net.replace_single_fanin(l0, cur);
        net.add_output("probe", cur);
        SubjectGraph::from_subject_network(net).unwrap()
    }

    #[test]
    fn combinational_circuits_reduce_to_comb_delay() {
        let net = dagmap_benchgen::ripple_adder(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let comb = comb_delay(&subject, &lib);
        let result = min_cycle_period(&subject, &lib, MatchMode::Standard, 1e-4).unwrap();
        assert!(
            (result.period - comb).abs() < 0.02 * comb,
            "{} vs {comb}",
            result.period
        );
        assert!(result.retiming.is_none());
    }

    #[test]
    fn matches_leiserson_saxe_under_the_minimal_library() {
        // With only inv/nand2 (unit delays) mapping is the identity, so the
        // mapped minimum period equals pure retiming's minimum period.
        for (k, r) in [(4usize, 2usize), (6, 3), (5, 1)] {
            let subject = inverter_ring(k, r);
            let lib = Library::minimal();
            let graph = SeqGraph::from_network(subject.network(), |_| 1.0).unwrap();
            let ls = minimize_period(&graph).unwrap();
            let pl = min_cycle_period(&subject, &lib, MatchMode::Standard, 1e-4).unwrap();
            assert!(
                (pl.period - ls.period).abs() < 0.05,
                "ring({k},{r}): pan-liu {} vs leiserson-saxe {}",
                pl.period,
                ls.period
            );
        }
    }

    #[test]
    fn feasibility_is_monotone_in_phi() {
        let subject = inverter_ring(6, 2);
        let lib = Library::minimal();
        let mut last = false;
        for phi in [0.5, 1.0, 2.0, 3.0, 4.0, 8.0] {
            let f = period_feasible(&subject, &lib, MatchMode::Standard, phi).unwrap();
            assert!(!last || f, "feasibility must be monotone (failed at {phi})");
            last = f;
        }
    }

    #[test]
    fn mapping_beats_pure_retiming_with_rich_libraries() {
        // An accumulator's carry chain maps into fast complex gates, so the
        // minimum period under a rich library undercuts the minimal one.
        let net = dagmap_benchgen::accumulator(4);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let rich = Library::lib_44_3_like();
        let minimal = Library::minimal();
        let p_rich = min_cycle_period(&subject, &rich, MatchMode::Standard, 1e-3).unwrap();
        let p_min = min_cycle_period(&subject, &minimal, MatchMode::Standard, 1e-3).unwrap();
        assert!(
            p_rich.period < p_min.period,
            "rich {} vs minimal {}",
            p_rich.period,
            p_min.period
        );
    }

    #[test]
    fn accumulators_pipeline_across_the_environment_register() {
        // Under the registered-environment convention, the accumulator's
        // carry chain (one register on its PI -> PO path plus the
        // environment register) legally retimes to about half its
        // combinational-optimum delay — but no further: the weight-2 host
        // cycle bounds the period at (chain delay) / 2.
        let net = dagmap_benchgen::accumulator(6);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib_44_1_like();
        let comb = comb_delay(&subject, &lib);
        let result = min_cycle_period(&subject, &lib, MatchMode::Standard, 1e-3).unwrap();
        assert!(
            result.period < comb,
            "retiming should pipeline below the comb optimum {comb}, got {}",
            result.period
        );
        assert!(
            result.period >= comb / 2.0 - 0.5,
            "no more than one extra frame is available: {} vs {comb}",
            result.period
        );
        // And the witness retiming genuinely achieves the reported period.
        let graph = SeqGraph::from_mapped(&result.mapped);
        let check = minimize_period(&graph).unwrap();
        assert!((check.period - result.period).abs() < 1e-6);
    }

    #[test]
    fn result_mapping_is_functionally_equivalent() {
        let net = dagmap_benchgen::lfsr(5);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let result = min_cycle_period(&subject, &lib, MatchMode::Standard, 1e-3).unwrap();
        dagmap_core::verify::check(&result.mapped, &subject, 0x5EC).unwrap();
    }

    #[test]
    fn tiny_periods_are_infeasible() {
        let subject = inverter_ring(4, 2);
        let lib = Library::minimal();
        assert!(!period_feasible(&subject, &lib, MatchMode::Standard, 0.1).unwrap());
    }
}
