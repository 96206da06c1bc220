use dagmap_match::MatchMode;

/// What the labeling phase optimizes.
///
/// The paper is about [`Objective::Delay`]; [`Objective::Area`] is the
/// classical DAGON/Keutzer objective, provided as a baseline (optimal on
/// trees, a duplication-free area-flow heuristic on DAGs — the paper cites
/// the NP-hardness of exact minimum-area DAG covering).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the critical-path arrival time (ties break toward area).
    Delay,
    /// Minimize estimated area flow (ties break toward arrival).
    Area,
}

/// Mapping configuration.
///
/// The paper reduces the tree-vs-DAG distinction to the match semantics fed
/// into one shared dynamic program, so the central knob here is
/// [`MapOptions::match_mode`]. Use the named constructors.
///
/// ```
/// use dagmap_core::{MapOptions, MatchMode};
///
/// let opts = MapOptions::dag().with_area_recovery();
/// assert_eq!(opts.match_mode, MatchMode::Standard);
/// assert!(opts.area_recovery);
/// assert_eq!(MapOptions::tree().match_mode, MatchMode::Exact);
/// ```
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct MapOptions {
    /// Match semantics: `Exact` yields classical tree covering, `Standard`
    /// the paper's DAG covering, `Extended` DAG covering with unfolding.
    pub match_mode: MatchMode,
    /// Optimization objective (the paper's experiments all use `Delay`).
    pub objective: Objective,
    /// Run the required-time-driven area recovery pass after labeling
    /// (an extension prefiguring the paper's area-delay future work; only
    /// meaningful with [`Objective::Delay`]).
    pub area_recovery: bool,
    /// Optional relaxed delay budget for area recovery: the mapper meets
    /// `max(delay_target, optimum)` while minimizing estimated area —
    /// sweeping this traces the delay/area Pareto frontier of Section 6.
    /// Implies [`MapOptions::area_recovery`].
    pub delay_target: Option<f64>,
    /// Ignored: labeling is one serial pass on the calling thread, so
    /// every value runs the same pass ([`MapReport::label_threads`] reads
    /// 1). The field keeps existing struct literals compiling.
    ///
    /// [`MapReport::label_threads`]: crate::MapReport::label_threads
    pub num_threads: Option<usize>,
    /// Match acceleration: filter candidate patterns and partial
    /// bindings through the library's tree automaton. On by default;
    /// provably result-identical either way (it only skips search that
    /// could never complete a match).
    pub use_match_index: bool,
}

impl MapOptions {
    /// The paper's proposal: DAG covering over standard matches
    /// (the configuration of Tables 1–3, per footnote 3).
    pub fn dag() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Standard,
            objective: Objective::Delay,
            area_recovery: false,
            delay_target: None,
            num_threads: None,
            use_match_index: true,
        }
    }

    /// DAG covering over extended matches (Definition 3): strictly larger
    /// search space, rarely better in practice (the paper's footnote 3).
    pub fn dag_extended() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Extended,
            objective: Objective::Delay,
            area_recovery: false,
            delay_target: None,
            num_threads: None,
            use_match_index: true,
        }
    }

    /// The conventional baseline: tree covering via exact matches, no
    /// duplication, multi-fanout points preserved.
    pub fn tree() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Exact,
            objective: Objective::Delay,
            area_recovery: false,
            delay_target: None,
            num_threads: None,
            use_match_index: true,
        }
    }

    /// Classical minimum-area tree covering (Keutzer's DAGON objective).
    pub fn tree_area() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Exact,
            objective: Objective::Area,
            area_recovery: false,
            delay_target: None,
            num_threads: None,
            use_match_index: true,
        }
    }

    /// Area-flow-driven DAG covering (a duplication-aware area heuristic;
    /// exact minimum-area DAG covering is NP-hard).
    pub fn dag_area() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Standard,
            objective: Objective::Area,
            area_recovery: false,
            delay_target: None,
            num_threads: None,
            use_match_index: true,
        }
    }

    /// Enables the slack-driven area recovery pass.
    pub fn with_area_recovery(mut self) -> MapOptions {
        self.area_recovery = true;
        self
    }

    /// Relaxes the delay budget of the recovery pass to `target` (clamped
    /// to at least the optimum); implies [`MapOptions::with_area_recovery`].
    pub fn with_delay_target(mut self, target: f64) -> MapOptions {
        self.area_recovery = true;
        self.delay_target = Some(target);
        self
    }

    /// Sets the match acceleration (`false` reproduces the naive
    /// full-scan matcher; useful for benchmarking and for the bit-identity
    /// test suite). The same switch as [`MapOptions::with_match_index`].
    pub fn with_match_acceleration(self, on: bool) -> MapOptions {
        self.with_match_index(on)
    }

    /// Sets the automaton index switch.
    pub fn with_match_index(mut self, on: bool) -> MapOptions {
        self.use_match_index = on;
        self
    }

    /// Ignored: the cone-class memo is retired, so every value labels the
    /// same way. The call keeps existing callers compiling, as
    /// [`MapOptions::num_threads`] does.
    pub fn with_match_memo(self, _on: bool) -> MapOptions {
        self
    }

    /// The [`MatchConfig`](dagmap_match::MatchConfig) the options select.
    pub fn match_config(&self) -> dagmap_match::MatchConfig {
        dagmap_match::MatchConfig {
            index: self.use_match_index,
        }
    }

    /// Human-readable algorithm name for reports.
    pub fn algorithm_name(&self) -> &'static str {
        match (self.match_mode, self.objective) {
            (MatchMode::Exact, Objective::Delay) => "tree",
            (MatchMode::Standard, Objective::Delay) => "dag",
            (MatchMode::Extended, Objective::Delay) => "dag-extended",
            (MatchMode::Exact, Objective::Area) => "tree-area",
            (MatchMode::Standard, Objective::Area) => "dag-area",
            (MatchMode::Extended, Objective::Area) => "dag-extended-area",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_the_right_semantics() {
        assert_eq!(MapOptions::dag().algorithm_name(), "dag");
        assert_eq!(MapOptions::tree().algorithm_name(), "tree");
        assert_eq!(MapOptions::dag_extended().algorithm_name(), "dag-extended");
        assert!(!MapOptions::dag().area_recovery);
        assert!(MapOptions::dag().with_area_recovery().area_recovery);
    }

    #[test]
    fn match_acceleration_defaults_on() {
        let opts = MapOptions::dag();
        assert!(opts.use_match_index);
        assert_eq!(opts.match_config(), dagmap_match::MatchConfig::default());
        let off = opts.with_match_acceleration(false);
        assert!(!off.use_match_index);
        assert_eq!(off.match_config(), dagmap_match::MatchConfig::baseline());
        assert!(off.with_match_acceleration(true).use_match_index);
        // The retired memo switch is accepted and changes nothing.
        assert_eq!(opts.with_match_memo(true), opts);
        assert_eq!(off.with_match_memo(true), off);
    }
}
