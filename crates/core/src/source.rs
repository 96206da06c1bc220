//! Pluggable match enumeration for the labeling dynamic program.
//!
//! The paper's DP never cares *where* a match came from — only that, for a
//! node whose strict fanins are labeled, someone can enumerate `(gate,
//! leaves, covered)` candidates rooted there. [`MatchSource`] captures
//! exactly that contract, so the structural pattern matcher of
//! `dagmap-match` and the Boolean (priority-cut / NPN) matcher of
//! `dagmap-boolmatch` drive the *same* labeling, cover-construction and
//! area-recovery code: match counters, obs spans and `MapReport` all come
//! for free with an implementation.
//!
//! The mutable matching state — scratch arenas, automaton states,
//! canonicalization caches — lives in the source's [`MatchSource::Kit`],
//! created once per pass by [`MatchSource::make_kit`] (area recovery makes
//! one more for its rounds). This mirrors how the structural matcher
//! splits `Matcher` from `MatchScratch`.

use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_match::{MatchConfig, MatchMode, MatchScratch, MatchStats, MatchView, Matcher};
use dagmap_netlist::{NodeId, SubjectGraph};

/// One candidate match, borrowed from the source's kit. The labeling DP
/// copies the slices only when the candidate beats the incumbent, so
/// reporting a match is allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct SourceMatch<'a> {
    /// The gate this match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match — `None` for matches
    /// found by non-structural means (Boolean matching), which have no
    /// pattern to point at.
    pub pattern: Option<PatternId>,
    /// Subject node bound to each gate pin, in canonical pin order.
    pub leaves: &'a [NodeId],
    /// Distinct subject nodes the gate replaces, root included.
    pub covered: &'a [NodeId],
}

/// A supplier of candidate matches for the shared labeling DP.
///
/// Implementations must be deterministic: for a fixed subject and node, the
/// emission *sequence* must not depend on timing or on what the kit has
/// cached, because the DP's tie-breaking keeps the first optimum seen.
pub trait MatchSource {
    /// Per-pass mutable state (scratch arenas, caches).
    type Kit;

    /// The library matches instantiate gates from.
    fn library(&self) -> &Library;

    /// Match semantics in effect — drives the area-flow sharing estimate
    /// and, for structural sources, the pattern search itself.
    fn mode(&self) -> MatchMode;

    /// Builds one pass's kit, sized for `subject`.
    fn make_kit(&self, subject: &SubjectGraph) -> Self::Kit;

    /// Enumerates every candidate match rooted at `node` into `f`.
    ///
    /// All of `node`'s strict fanins are labeled when this is called; the
    /// source must only report matches whose leaves lie strictly below
    /// `node`'s topological level (fanin-cone members), so every leaf is
    /// labeled by the time the level-order pass reaches `node`.
    fn for_each_match(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        kit: &mut Self::Kit,
        f: &mut dyn FnMut(SourceMatch<'_>),
    ) -> MatchStats;
}

/// The structural pattern matcher as a [`MatchSource`] — the source
/// behind every [`crate::Mapper`] entry point except the external-source
/// one, and the structural half of `dagmap-boolmatch`'s hybrid source.
pub struct StructuralSource<'a> {
    matcher: Matcher<'a>,
    mode: MatchMode,
}

/// Per-pass state of a [`StructuralSource`]: the matcher's scratch, with
/// the subject's automaton states.
pub type StructuralKit = MatchScratch;

impl<'a> StructuralSource<'a> {
    /// A structural source over `library` matching under `mode` with the
    /// acceleration of `config`.
    pub fn new(library: &'a Library, mode: MatchMode, config: MatchConfig) -> StructuralSource<'a> {
        StructuralSource {
            matcher: Matcher::with_config(library, config),
            mode,
        }
    }
}

impl MatchSource for StructuralSource<'_> {
    type Kit = StructuralKit;

    fn library(&self) -> &Library {
        self.matcher.library()
    }

    fn mode(&self) -> MatchMode {
        self.mode
    }

    /// Sizes the scratch and computes the subject's automaton states before
    /// the level loop (one transition-table lock per pass), so no wave
    /// allocates.
    fn make_kit(&self, subject: &SubjectGraph) -> StructuralKit {
        self.matcher.scratch_for(subject)
    }

    fn for_each_match(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        kit: &mut StructuralKit,
        f: &mut dyn FnMut(SourceMatch<'_>),
    ) -> MatchStats {
        self.matcher
            .for_each_match_at(subject, node, self.mode, kit, &mut |mv: MatchView<'_>| {
                f(SourceMatch {
                    gate: mv.gate,
                    pattern: Some(mv.pattern),
                    leaves: mv.leaves,
                    covered: mv.covered,
                })
            })
    }
}
