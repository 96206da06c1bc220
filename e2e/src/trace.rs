//! The per-layer ledger of a traced run.
//!
//! The benchmark times each call into a layer's public function from its
//! own code — nothing inside the mapper's crates is instrumented. Each
//! layer's timed closure also drops the intermediate it was the last user
//! of, so deallocation is charged to the layer that consumed the value
//! rather than left unattributed. The ledger then reports every layer's
//! self time, its share of the traced op time, and the unattributed
//! remainder (glue between calls), which together sum to the op time.

use std::time::Instant;

use dagmap_core::{Labels, MapReport};

/// The layers a traced op is split into, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `blif::parse`.
    Parse,
    /// `SubjectGraph::from_network`: strash, flat view, signatures.
    Decompose,
    /// Structural labeling: `label_with_config`, or
    /// `label_with_shared_store` on the serve path.
    Label,
    /// `Mapper::realize` over the labels' best matches.
    Cover,
    /// Area recovery inside `Mapper::map_with_report`: the call's time
    /// minus the label and cover time it reports.
    AreaRecovery,
    /// `verify::check`.
    Verify,
    /// `MappedNetlist::to_network` + `blif::to_string`.
    Writeback,
    /// `LibraryIndex::build` (the part of `BoolSource::new` that indexes
    /// the library).
    BoolIndex,
    /// The rest of `BoolSource::new` / `HybridSource::new` (priority cuts,
    /// inverter map).
    BoolPrepare,
    /// `label_with_source` over a Boolean or hybrid source.
    BoolLabel,
    /// `relabel_incremental` plus the `RetainedLabels` snapshots that feed
    /// the next edit.
    Incremental,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Parse,
        Layer::Decompose,
        Layer::Label,
        Layer::Cover,
        Layer::AreaRecovery,
        Layer::Verify,
        Layer::Writeback,
        Layer::BoolIndex,
        Layer::BoolPrepare,
        Layer::BoolLabel,
        Layer::Incremental,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "netlist.parse",
            Layer::Decompose => "netlist.decompose",
            Layer::Label => "core.label",
            Layer::Cover => "core.cover",
            Layer::AreaRecovery => "core.area_recovery",
            Layer::Verify => "core.verify",
            Layer::Writeback => "netlist.writeback",
            Layer::BoolIndex => "boolmatch.index",
            Layer::BoolPrepare => "boolmatch.prepare",
            Layer::BoolLabel => "boolmatch.label",
            Layer::Incremental => "core.incremental",
        }
    }

    /// Position in [`Layer::ALL`], which lists the variants in declaration
    /// order.
    fn slot(self) -> usize {
        self as usize
    }
}

/// Work counters recorded at the same call boundaries as the times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// BLIF bytes handed to `blif::parse`.
    pub bytes_parsed: usize,
    /// BLIF bytes produced by writeback.
    pub bytes_written: usize,
    /// Subject-graph nodes over all ops.
    pub nodes: usize,
    /// Strash constructions before deduplication.
    pub strash_raw: usize,
    /// Strash nodes kept.
    pub strash_unique: usize,
    /// Subject nodes structurally labeled.
    pub label_nodes: usize,
    /// Matches enumerated by structural labeling.
    pub label_matches: usize,
    /// Pattern attempts pruned by structural labeling.
    pub label_pruned: usize,
    /// Most labeling threads any call used.
    pub threads_used: usize,
    /// Memo lookups, hits and strash-id hits during labeling.
    pub memo_lookups: usize,
    /// See [`Counters::memo_lookups`].
    pub memo_hits: usize,
    /// See [`Counters::memo_lookups`].
    pub memo_id_hits: usize,
    /// Subject nodes labeled through a Boolean or hybrid source.
    pub bool_nodes: usize,
    /// Matches enumerated through a Boolean or hybrid source.
    pub bool_matches: usize,
    /// Gates whose labels an incremental pass reused / re-evaluated.
    pub reused: usize,
    /// See [`Counters::reused`].
    pub relabeled: usize,
}

impl Counters {
    /// Counts one structural labeling run over `nodes` subject nodes.
    pub fn add_labels(&mut self, nodes: usize, labels: &Labels) {
        self.label_nodes += nodes;
        self.label_matches += labels.matches_enumerated;
        self.label_pruned += labels.matches_pruned;
        self.memo_lookups += labels.memo_lookups;
        self.memo_hits += labels.memo_hits;
        self.memo_id_hits += labels.memo_id_hits;
        self.threads_used = self.threads_used.max(labels.threads_used);
    }

    /// Counts the labeling inside one `map_with_report` call.
    pub fn add_report(&mut self, nodes: usize, report: &MapReport) {
        self.label_nodes += nodes;
        self.label_matches += report.matches_enumerated;
        self.label_pruned += report.matches_pruned;
        self.memo_lookups += report.memo_lookups;
        self.memo_hits += report.memo_hits;
        self.memo_id_hits += report.memo_id_hits;
        self.threads_used = self.threads_used.max(report.label_threads);
    }
}

/// Per-layer busy time and counters over the ops of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    layer_s: [f64; Layer::ALL.len()],
    /// Wall time of the traced ops, end to end.
    pub op_s: f64,
    /// Traced ops recorded.
    pub ops: usize,
    /// Work counters.
    pub counters: Counters,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed().as_secs_f64());
        out
    }

    /// Charges `seconds` to `layer`.
    pub fn add(&mut self, layer: Layer, seconds: f64) {
        self.layer_s[layer.slot()] += seconds;
    }

    /// Seconds charged to `layer`.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.layer_s[layer.slot()]
    }

    /// Op time no layer accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.op_s - self.layer_s.iter().sum::<f64>()
    }
}
