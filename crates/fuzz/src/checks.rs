//! The per-case invariant battery: every generated network runs through the
//! mapper's full configuration matrix and is checked against three invariant
//! families — functional, bit-identity, and optimality ordering.

use dagmap_boolmatch::{check_coverable, map_boolean_with_options, map_hybrid_with_options};
use dagmap_core::{verify, MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_match::MatchMode;
use dagmap_netlist::{blif, sta, NetEdit, Network, NodeFn, SubjectGraph};
use dagmap_retime::min_cycle_period;
use dagmap_supergate::{extend_library, SupergateOptions};

use crate::FuzzError;

/// Absolute slack for delay-ordering comparisons; mirrors `core::verify`.
const ATOL: f64 = 1e-9;
/// Relative slack for delay-ordering comparisons.
const RTOL: f64 = 1e-12;
/// Cut width used on the boolean/hybrid axis; mirrors the CLI default.
const BOOLEAN_K: usize = 4;

/// `a <= b` up to the mixed tolerance.
fn leq(a: f64, b: f64) -> bool {
    a <= b + ATOL + RTOL * a.abs().max(b.abs())
}

/// Which invariant family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Functional equivalence or timing consistency failed (`core::verify`).
    Functional,
    /// Results differ across acceleration settings or between an
    /// incremental and a cold map.
    BitIdentity,
    /// A delay ordering the paper guarantees was inverted.
    Optimality,
}

impl InvariantKind {
    /// Short lowercase tag used in corpus file names.
    pub fn slug(self) -> &'static str {
        match self {
            InvariantKind::Functional => "equiv",
            InvariantKind::BitIdentity => "bitident",
            InvariantKind::Optimality => "optimality",
        }
    }
}

/// One invariant violation on one case.
#[derive(Debug, Clone)]
pub struct CaseViolation {
    /// Invariant family.
    pub kind: InvariantKind,
    /// Index into the library list the violation was found under.
    pub library: usize,
    /// Mapper configuration, human-readable.
    pub config: String,
    /// What went wrong.
    pub detail: String,
}

impl CaseViolation {
    /// Whether `other` violates the same invariant on the same library —
    /// the equivalence the shrinker preserves while minimizing.
    pub fn same_invariant(&self, other: &CaseViolation) -> bool {
        self.kind == other.kind && self.library == other.library
    }
}

/// A library in the matrix: a built-in, or a supergate extension of one.
#[derive(Debug, Clone)]
pub struct LibUnderTest {
    /// Display name (the extension carries a `+sg` suffix).
    pub name: String,
    /// The library itself.
    pub library: Library,
    /// For supergate extensions, the index of the base library — the
    /// extension must never map worse than its base.
    pub base: Option<usize>,
}

/// The differential axes swept per case and library.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Run the sequential mapper's minimum clock period search on
    /// sequential cases; an error fails the case.
    pub check_retime: bool,
    /// Sweep the boolean and hybrid matchers alongside the structural one:
    /// functional equivalence and the provable `hybrid <= structural` /
    /// `hybrid <= boolean` delay orderings.
    pub check_boolean: bool,
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix {
            check_retime: true,
            check_boolean: true,
        }
    }
}

/// Outcome of one case: how much work ran, and what broke.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Mapper invocations performed.
    pub maps: usize,
    /// Violations found (empty on a healthy mapper).
    pub violations: Vec<CaseViolation>,
}

/// Builds the library matrix: all four built-ins, plus bounded supergate
/// extensions of `lib2` and `44-1` when `supergates` is set.
///
/// # Errors
///
/// Fails only if supergate enumeration itself errors.
pub fn libraries_under_test(supergates: bool) -> Result<Vec<LibUnderTest>, FuzzError> {
    let mut libs: Vec<LibUnderTest> = [
        Library::minimal(),
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ]
    .into_iter()
    .map(|library| LibUnderTest {
        name: library.name().to_owned(),
        library,
        base: None,
    })
    .collect();
    if supergates {
        // Bounded extension: cheap enough to build once per run, rich
        // enough that fused cells actually win on some cones.
        let opts = SupergateOptions {
            max_depth: 2,
            max_inputs: 4,
            max_count: 16,
            max_pool: 48,
            num_threads: Some(1),
        };
        for base in [1usize, 2] {
            let ext = extend_library(&libs[base].library, &opts)?;
            libs.push(LibUnderTest {
                name: format!("{}+sg", libs[base].name),
                library: ext.library,
                base: Some(base),
            });
        }
    }
    Ok(libs)
}

/// Library-independent depth lower bound: a cover path through a subject
/// graph of depth `d` needs at least `ceil(d / max_pattern_depth)` gates,
/// each contributing at least the library's smallest pin delay. No mapping,
/// whatever the algorithm or configuration, can beat this.
pub fn depth_lower_bound(subject: &SubjectGraph, library: &Library) -> f64 {
    let depth = f64::from(subject.depth());
    if depth == 0.0 {
        return 0.0;
    }
    let max_depth = f64::from(library.max_pattern_depth().max(1));
    let min_pin = library
        .gates()
        .iter()
        .flat_map(|g| (0..g.num_pins()).map(|p| g.pin_delay(p)))
        .fold(f64::INFINITY, f64::min);
    if !min_pin.is_finite() || min_pin < 0.0 {
        return 0.0;
    }
    (depth / max_depth).ceil() * min_pin
}

/// Maps and lowers to BLIF text (the canonical bit-identity witness).
fn map_to_blif(
    mapper: &Mapper,
    subject: &SubjectGraph,
    opts: MapOptions,
) -> Result<(f64, String), FuzzError> {
    let mapped = mapper.map(subject, opts)?;
    let text = blif::to_string(&mapped.to_network()?)?;
    Ok((mapped.delay(), text))
}

/// A chain of three local edits of `net`, each applied to the previous
/// result and derived from the network alone (no RNG draw, so a shrunk
/// case replays the same chain):
///
/// 1. XOR a fresh input into the first output's driver;
/// 2. redirect the last output to that driver;
/// 3. rewire the deepest gate's first fanin to the first primary input.
///
/// A network without outputs gets no chain.
fn edit_chain(net: &Network) -> Vec<Network> {
    let (Some(first), Some(last)) = (net.outputs().first(), net.outputs().last()) else {
        return Vec::new();
    };
    let mut cur = net.clone();
    let patch = cur.add_input("edit_in");
    let xor = cur
        .add_node(NodeFn::Xor, vec![first.driver, patch])
        .expect("xor is binary");
    let mut chain = Vec::with_capacity(3);
    for output in [&first.name, &last.name] {
        let edit = NetEdit::SetOutputDriver {
            output: output.clone(),
            driver: xor,
        };
        cur.apply_edits(vec![edit]).expect("the output exists");
        chain.push(cur.clone());
    }
    let depth = sta::arrival_times(&cur, |_, _| 1.0).expect("edits keep the network acyclic");
    // `min_by` over descending depth settles ties on the smallest id.
    let deepest = cur
        .node_ids()
        .filter(|&id| cur.node(id).func().is_combinational() && !cur.node(id).fanins().is_empty())
        .min_by(|a, b| depth[b.index()].total_cmp(&depth[a.index()]))
        .expect("the xor is a gate");
    let pi = cur.inputs()[0];
    cur.replace_fanin(deepest, 0, pi)
        .expect("gates have a pin 0");
    chain.push(cur);
    chain
}

/// Runs the full invariant battery on one network.
///
/// # Errors
///
/// Fails on substrate errors (cyclic networks, unmappable libraries) —
/// violations are data, returned in the [`CaseOutcome`].
pub fn check_network(
    net: &Network,
    libs: &[LibUnderTest],
    matrix: &Matrix,
) -> Result<CaseOutcome, FuzzError> {
    let subject = SubjectGraph::from_network(net)?;
    let edited: Vec<SubjectGraph> = edit_chain(net)
        .iter()
        .map(SubjectGraph::from_network)
        .collect::<Result<_, _>>()?;
    let sim_seed = 0xF0_5Eu64 ^ (net.num_nodes() as u64);
    let mut outcome = CaseOutcome::default();
    let mut dag_delays: Vec<f64> = vec![f64::NAN; libs.len()];
    for (li, lut) in libs.iter().enumerate() {
        let mapper = Mapper::new(&lut.library);
        let dag = MapOptions::dag();
        let (baseline, _, retained) = mapper.map_with_report_retaining(&subject, dag, None)?;
        let base_blif = blif::to_string(&baseline.to_network()?)?;
        let base_delay = baseline.delay();
        dag_delays[li] = base_delay;
        outcome.maps += 1;

        // (a) Functional: equivalence + timing consistency of the reference.
        for v in verify::report(&baseline, &subject, sim_seed)? {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Functional,
                library: li,
                config: "dag".into(),
                detail: v.to_string(),
            });
        }

        // (b) Bit-identity across acceleration settings: the reference runs
        // the default, the automaton index on, against the plain scan.
        let (delay, text) = map_to_blif(&mapper, &subject, dag.with_match_acceleration(false))?;
        outcome.maps += 1;
        if text != base_blif || delay.to_bits() != base_delay.to_bits() {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::BitIdentity,
                library: li,
                config: "dag no-accel".into(),
                detail: format!(
                    "mapped netlist diverged from the default-accel reference \
                     (delay {delay} vs {base_delay})"
                ),
            });
        }

        // (b') Incremental re-mapping: every step of the edit chain re-maps
        // against the previous step's snapshot and must equal a cold map.
        let mut snapshot = retained;
        for (step, edited) in edited.iter().enumerate() {
            let Some(prev) = snapshot.take() else { break };
            let (inc, _, next) = mapper.map_incremental(edited, dag, &prev, None)?;
            let inc_blif = blif::to_string(&inc.to_network()?)?;
            let (cold_delay, cold_blif) = map_to_blif(&mapper, edited, dag)?;
            outcome.maps += 2;
            if inc_blif != cold_blif || inc.delay().to_bits() != cold_delay.to_bits() {
                outcome.violations.push(CaseViolation {
                    kind: InvariantKind::BitIdentity,
                    library: li,
                    config: format!("dag incremental edit {}", step + 1),
                    detail: format!(
                        "incremental re-map diverged from a cold map (delay {} vs {cold_delay})",
                        inc.delay()
                    ),
                });
            }
            snapshot = next;
        }

        // (c) Optimality orderings.
        let tree = mapper.map(&subject, MapOptions::tree())?;
        outcome.maps += 1;
        for v in verify::report(&tree, &subject, sim_seed)? {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Functional,
                library: li,
                config: "tree".into(),
                detail: v.to_string(),
            });
        }
        if !leq(base_delay, tree.delay()) {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Optimality,
                library: li,
                config: "dag vs tree".into(),
                detail: format!(
                    "DAG cover delay {base_delay} beaten by tree mapping {}",
                    tree.delay()
                ),
            });
        }
        let extended = mapper.map(&subject, MapOptions::dag_extended())?;
        outcome.maps += 1;
        if !leq(extended.delay(), base_delay) {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Optimality,
                library: li,
                config: "extended vs standard".into(),
                detail: format!(
                    "extended-match delay {} worse than standard {base_delay}",
                    extended.delay()
                ),
            });
        }
        let recovered = mapper.map(&subject, dag.with_area_recovery())?;
        outcome.maps += 1;
        for v in verify::report(&recovered, &subject, sim_seed)? {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Functional,
                library: li,
                config: "dag+recover".into(),
                detail: v.to_string(),
            });
        }
        if !leq(recovered.delay(), base_delay) {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Optimality,
                library: li,
                config: "area recovery".into(),
                detail: format!(
                    "area recovery worsened delay: {} vs {base_delay}",
                    recovered.delay()
                ),
            });
        }
        let bound = depth_lower_bound(&subject, &lut.library);
        if !leq(bound, base_delay) {
            outcome.violations.push(CaseViolation {
                kind: InvariantKind::Optimality,
                library: li,
                config: "depth lower bound".into(),
                detail: format!("DAG delay {base_delay} below the depth lower bound {bound}"),
            });
        }
        if let Some(bi) = lut.base {
            let base_lib_delay = dag_delays[bi];
            debug_assert!(
                !base_lib_delay.is_nan(),
                "base libraries precede extensions"
            );
            if !leq(base_delay, base_lib_delay) {
                outcome.violations.push(CaseViolation {
                    kind: InvariantKind::Optimality,
                    library: li,
                    config: format!("supergates vs {}", libs[bi].name),
                    detail: format!(
                        "supergate-extended delay {base_delay} worse than base {base_lib_delay}"
                    ),
                });
            }
        }

        // (d) The boolean/hybrid axis rides the same labeling DP through the
        // `MatchSource` seam, so it owes the same invariants: functional
        // equivalence and the provable orderings. Hybrid emits a superset
        // of the structural candidates, so `hybrid <= dag` and
        // `hybrid <= boolean` must hold; boolean alone carries no such
        // guarantee against structural — priority cuts prune, so a pruned
        // cut can cost delay legitimately.
        // Libraries the boolean fallback decomposition cannot cover are
        // skipped (none of the built-ins are).
        if matrix.check_boolean && check_coverable(&lut.library, BOOLEAN_K).is_ok() {
            let (bool_ref, _, _) =
                map_boolean_with_options(&subject, &lut.library, BOOLEAN_K, dag)?;
            outcome.maps += 1;
            for v in verify::report(&bool_ref, &subject, sim_seed)? {
                outcome.violations.push(CaseViolation {
                    kind: InvariantKind::Functional,
                    library: li,
                    config: "boolean".into(),
                    detail: v.to_string(),
                });
            }
            let (hyb_ref, _, _) = map_hybrid_with_options(&subject, &lut.library, BOOLEAN_K, dag)?;
            outcome.maps += 1;
            for v in verify::report(&hyb_ref, &subject, sim_seed)? {
                outcome.violations.push(CaseViolation {
                    kind: InvariantKind::Functional,
                    library: li,
                    config: "hybrid".into(),
                    detail: v.to_string(),
                });
            }
            if !leq(hyb_ref.delay(), base_delay) {
                outcome.violations.push(CaseViolation {
                    kind: InvariantKind::Optimality,
                    library: li,
                    config: "hybrid vs dag".into(),
                    detail: format!(
                        "hybrid delay {} worse than structural DAG cover {base_delay}",
                        hyb_ref.delay()
                    ),
                });
            }
            if !leq(hyb_ref.delay(), bool_ref.delay()) {
                outcome.violations.push(CaseViolation {
                    kind: InvariantKind::Optimality,
                    library: li,
                    config: "hybrid vs boolean".into(),
                    detail: format!(
                        "hybrid delay {} worse than boolean-only {}",
                        hyb_ref.delay(),
                        bool_ref.delay()
                    ),
                });
            }
        }
    }

    // Sequential smoke: the minimum-period search must finish without
    // error on every sequential case (checked on one mid-size library).
    if matrix.check_retime && net.num_latches() > 0 {
        let li = 1.min(libs.len() - 1); // lib2 when present
        min_cycle_period(&subject, &libs[li].library, MatchMode::Standard, 1e-3)?;
        outcome.maps += 1;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_is_sane_on_a_chain() {
        use dagmap_netlist::{NodeFn, SubjectGraph};
        let mut net = Network::new("chain");
        let mut cur = net.add_input("x");
        for i in 0..9 {
            let y = net.add_input(format!("y{i}"));
            cur = net.add_node(NodeFn::Nand, vec![cur, y]).unwrap();
        }
        net.add_output("f", cur);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::minimal();
        let bound = depth_lower_bound(&subject, &lib);
        assert!(bound > 0.0);
        let mapped = Mapper::new(&lib).map(&subject, MapOptions::dag()).unwrap();
        assert!(leq(bound, mapped.delay()), "{bound} vs {}", mapped.delay());
    }

    #[test]
    fn edit_chain_has_three_distinct_steps() {
        let net = dagmap_benchgen::random_network(5, 25, 11);
        let texts: Vec<String> = std::iter::once(net.clone())
            .chain(edit_chain(&net))
            .map(|n| blif::to_string(&n).unwrap())
            .collect();
        assert_eq!(texts.len(), 4);
        assert!(
            texts.windows(2).all(|w| w[0] != w[1]),
            "every edit changes the network"
        );
    }

    #[test]
    fn healthy_mapper_produces_no_violations() {
        let net = dagmap_benchgen::random_network(5, 25, 11);
        let libs = libraries_under_test(false).unwrap();
        let outcome = check_network(&net, &libs, &Matrix::default()).unwrap();
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.maps >= libs.len() * 5);
    }
}
