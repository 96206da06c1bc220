//! Human-readable exporters: the single-run phase report and the
//! aggregated multi-run profile used by `dagmap profile`.
//!
//! The phase report is built entirely from the [`Trace`]: the self/total
//! time tree comes from session-lane span nesting, wavefront occupancy
//! from `label.wave` span arguments, and the
//! match-kernel section from the `match.*` counters and the
//! `match.per_node` histogram.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{SpanRec, Trace};
use crate::ArgValue;

/// One aggregated node of the phase tree: all session-lane spans sharing a
/// nesting path, with total and self (total minus direct children) time.
#[derive(Debug, Clone)]
pub struct PhaseNode {
    /// Span name (last path segment).
    pub name: &'static str,
    /// Number of spans merged into this node.
    pub count: usize,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of *direct* children's durations, nanoseconds.
    pub child_ns: u64,
    /// Indices of direct children in the arena, in first-seen order.
    pub children: Vec<usize>,
}

impl PhaseNode {
    /// Time spent in this node itself (total minus direct children).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// The phase tree of a trace: an arena of [`PhaseNode`]s plus the indices
/// of the root (depth-0) nodes.
#[derive(Debug, Clone, Default)]
pub struct PhaseTree {
    /// Node arena.
    pub nodes: Vec<PhaseNode>,
    /// Depth-0 node indices, in first-seen order.
    pub roots: Vec<usize>,
}

/// Builds the aggregated phase tree from the session lane (lane 0) of a
/// trace. Spans sharing a nesting path merge into one node with a count,
/// so forty `label.wave` spans render as one `×40` row.
pub fn phase_tree(trace: &Trace) -> PhaseTree {
    let mut tree = PhaseTree::default();
    // (parent arena index or usize::MAX for roots, name) → arena index.
    let mut index: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for span in trace.session_lane() {
        stack.truncate(span.depth as usize);
        let parent = stack.last().copied().unwrap_or(usize::MAX);
        let idx = *index.entry((parent, span.name)).or_insert_with(|| {
            tree.nodes.push(PhaseNode {
                name: span.name,
                count: 0,
                total_ns: 0,
                child_ns: 0,
                children: Vec::new(),
            });
            let idx = tree.nodes.len() - 1;
            if parent == usize::MAX {
                tree.roots.push(idx);
            } else {
                tree.nodes[parent].children.push(idx);
            }
            idx
        });
        tree.nodes[idx].count += 1;
        tree.nodes[idx].total_ns += span.dur_ns;
        if parent != usize::MAX {
            tree.nodes[parent].child_ns += span.dur_ns;
        }
        stack.push(idx);
    }
    tree
}

/// Sum of `total_ns` over the roots matching `name` (0 if absent). This is
/// how `MapReport`-style per-phase durations are read back out of a trace.
pub fn phase_total_seconds(trace: &Trace, name: &str) -> f64 {
    let tree = phase_tree(trace);
    fn walk(tree: &PhaseTree, idx: usize, name: &str, acc: &mut u64) {
        let node = &tree.nodes[idx];
        if node.name == name {
            *acc += node.total_ns;
            return; // nested same-name spans would double-count
        }
        for &c in &node.children {
            walk(tree, c, name, acc);
        }
    }
    let mut acc = 0u64;
    for &r in &tree.roots {
        walk(&tree, r, name, &mut acc);
    }
    acc as f64 / 1e9
}

fn fmt_dur(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:8.3}s ")
    } else if s >= 1e-3 {
        format!("{:8.3}ms", s * 1e3)
    } else {
        format!("{:8.1}us", s * 1e6)
    }
}

fn arg_u64(span: &SpanRec, key: &str) -> Option<u64> {
    span.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// Renders the full phase report: time tree, wavefront occupancy,
/// match-kernel hit rates, then raw counters and histograms.
pub fn render(trace: &Trace) -> String {
    let mut out = String::new();
    let wall = trace.wall_seconds();
    let _ = writeln!(out, "== dagmap phase report ==");
    let _ = writeln!(out, "session wall time: {:.3} ms", wall * 1e3);
    let tree = phase_tree(trace);
    if !tree.roots.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<42} {:>7} {:>10} {:>10} {:>6}",
            "phase", "count", "total", "self", "%"
        );
        let denom = trace.end_ns.saturating_sub(trace.start_ns).max(1) as f64;
        fn walk(tree: &PhaseTree, idx: usize, indent: usize, denom: f64, out: &mut String) {
            let node = &tree.nodes[idx];
            let label = if node.count > 1 {
                format!("{}{} x{}", "  ".repeat(indent), node.name, node.count)
            } else {
                format!("{}{}", "  ".repeat(indent), node.name)
            };
            let _ = writeln!(
                out,
                "{:<42} {:>7} {:>10} {:>10} {:>5.1}%",
                label,
                node.count,
                fmt_dur(node.total_ns),
                fmt_dur(node.self_ns()),
                100.0 * node.total_ns as f64 / denom
            );
            for &c in &node.children {
                walk(tree, c, indent + 1, denom, out);
            }
        }
        for &r in &tree.roots {
            walk(&tree, r, 0, denom, &mut out);
        }
    }
    render_wavefronts(trace, &mut out);
    render_match_kernel(trace, &mut out);
    if !trace.counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "counters:");
        for (name, value) in &trace.counters {
            let _ = writeln!(out, "  {name:<38} {value:>12}");
        }
    }
    if !trace.histograms.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "histograms (log2 buckets):");
        for (name, h) in &trace.histograms {
            let _ = writeln!(
                out,
                "  {name:<38} n={} mean={:.2} max={} p99<={}",
                h.count(),
                h.mean(),
                h.max(),
                h.quantile_upper(0.99)
            );
            let _ = writeln!(out, "    {}", h.render());
        }
    }
    out
}

/// Per-level wavefront occupancy, from `label.wave` spans (session lane,
/// one per topological level, `level`/`nodes` args).
fn render_wavefronts(trace: &Trace, out: &mut String) {
    let mut levels: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // level → (nodes, dur_ns)
    for span in trace.session_lane().filter(|s| s.name == "label.wave") {
        if let Some(level) = arg_u64(span, "level") {
            let e = levels.entry(level).or_insert((0, 0));
            e.0 += arg_u64(span, "nodes").unwrap_or(0);
            e.1 += span.dur_ns;
        }
    }
    if levels.is_empty() {
        return;
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "wavefront occupancy ({} levels):", levels.len());
    let _ = writeln!(out, "  {:>6} {:>10} {:>10}", "level", "nodes", "time");
    const HEAD: usize = 12;
    const TAIL: usize = 4;
    let n = levels.len();
    let rows: Vec<_> = levels.iter().collect();
    let mut skipped = (0u64, 0u64); // (levels, nodes)
    for (i, (level, (nodes, dur))) in rows.iter().enumerate() {
        if n > HEAD + TAIL + 1 && i >= HEAD && i < n - TAIL {
            skipped.0 += 1;
            skipped.1 += *nodes;
            if i == n - TAIL - 1 {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>10} {:>10}",
                    format!("..x{}", skipped.0),
                    skipped.1,
                    ""
                );
            }
            continue;
        }
        let _ = writeln!(
            out,
            "  {:>6} {:>10} {:>10}",
            level,
            nodes,
            fmt_dur(*dur).trim()
        );
    }
    let total_nodes: u64 = rows.iter().map(|(_, (n, _))| n).sum();
    let max_nodes = rows.iter().map(|(_, (n, _))| *n).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "  total {total_nodes} nodes, mean {:.1}/level, widest level {max_nodes}",
        total_nodes as f64 / n as f64
    );
}

/// Match-kernel section: enumeration volume, index prune rate, batch
/// occupancy, and the per-node match-count distribution.
fn render_match_kernel(trace: &Trace, out: &mut String) {
    let enumerated = trace.counter("match.enumerated");
    let pruned = trace.counter("match.pruned");
    let words = trace.counter("match.words");
    let bits = trace.counter("match.candidate_bits");
    if enumerated == 0 && pruned == 0 {
        return;
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "match kernel:");
    let _ = writeln!(out, "  matches enumerated      {enumerated:>12}");
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    let _ = writeln!(
        out,
        "  candidates pruned       {pruned:>12}  ({:.1}% of considered)",
        pct(pruned, pruned + enumerated)
    );
    if words > 0 {
        let _ = writeln!(
            out,
            "  candidate words         {words:>12}  (batch occupancy {:.1}%, {bits} live bits)",
            pct(bits, words * 64)
        );
    }
    if let Some(h) = trace.histograms.get("match.per_node") {
        let _ = writeln!(
            out,
            "  matches/node            mean {:.2}, max {}, p99<={}",
            h.mean(),
            h.max(),
            h.quantile_upper(0.99)
        );
    }
}

/// Accumulates traces from repeated identical runs (`dagmap profile`) and
/// renders min/mean/max statistics per phase, plus counter stability.
#[derive(Debug, Default)]
pub struct ProfileAccum {
    runs: usize,
    wall: Vec<f64>,
    /// path → per-run total seconds (paths joined with `/`).
    phases: BTreeMap<String, Vec<f64>>,
    /// counter → per-run final values.
    counters: BTreeMap<String, Vec<u64>>,
}

impl ProfileAccum {
    /// An empty accumulator.
    pub fn new() -> ProfileAccum {
        ProfileAccum::default()
    }

    /// Number of absorbed runs.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Absorbs one run's trace.
    pub fn add(&mut self, trace: &Trace) {
        self.runs += 1;
        self.wall.push(trace.wall_seconds());
        let tree = phase_tree(trace);
        fn walk(
            tree: &PhaseTree,
            idx: usize,
            path: &str,
            run: usize,
            phases: &mut BTreeMap<String, Vec<f64>>,
        ) {
            let node = &tree.nodes[idx];
            let path = if path.is_empty() {
                node.name.to_owned()
            } else {
                format!("{path}/{}", node.name)
            };
            let v = phases.entry(path.clone()).or_default();
            v.resize(run, 0.0); // phases absent in earlier runs read as 0
            v.push(node.total_ns as f64 / 1e9);
            for &c in &node.children {
                walk(tree, c, &path, run, phases);
            }
        }
        for &r in &tree.roots {
            walk(&tree, r, "", self.runs - 1, &mut self.phases);
        }
        for (name, value) in &trace.counters {
            let v = self.counters.entry(name.clone()).or_default();
            v.resize(self.runs - 1, 0);
            v.push(*value);
        }
    }

    /// Renders the aggregated report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== dagmap profile: {} runs ==", self.runs);
        if self.runs == 0 {
            return out;
        }
        let stats = |v: &[f64]| {
            let n = v.len().max(1) as f64;
            let mean = v.iter().sum::<f64>() / n;
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(0.0f64, f64::max);
            (min, mean, max)
        };
        let (wmin, wmean, wmax) = stats(&self.wall);
        let _ = writeln!(
            out,
            "wall time: min {:.3} ms / mean {:.3} ms / max {:.3} ms",
            wmin * 1e3,
            wmean * 1e3,
            wmax * 1e3
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<42} {:>10} {:>10} {:>10}",
            "phase (path)", "min", "mean", "max"
        );
        for (path, v) in &self.phases {
            let mut padded = v.clone();
            padded.resize(self.runs, 0.0);
            let (min, mean, max) = stats(&padded);
            let _ = writeln!(
                out,
                "{:<42} {:>8.3}ms {:>8.3}ms {:>8.3}ms",
                path,
                min * 1e3,
                mean * 1e3,
                max * 1e3
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let mut padded = v.clone();
                padded.resize(self.runs, 0);
                let min = padded.iter().min().copied().unwrap_or(0);
                let max = padded.iter().max().copied().unwrap_or(0);
                if min == max {
                    let _ = writeln!(out, "  {name:<38} {min:>12}  (stable)");
                } else {
                    let _ = writeln!(out, "  {name:<38} {min:>12} .. {max}  (varies)");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::session_lock;

    fn labeled_trace() -> Trace {
        let _guard = session_lock();
        let session = crate::start();
        {
            let _m = crate::span("map");
            {
                let _l = crate::span("label");
                for level in 0..3u64 {
                    let mut w = crate::span("label.wave");
                    w.set_u64("level", level);
                    w.set_u64("nodes", 10 * (level + 1));
                }
            }
            let _c = crate::span("cover");
            crate::count("match.enumerated", 200);
            crate::count("match.pruned", 50);
            crate::count("match.words", 32);
            crate::count("match.candidate_bits", 512);
            crate::sample("match.per_node", 4);
        }
        session.finish()
    }

    #[test]
    fn phase_tree_aggregates_and_computes_self_time() {
        let trace = labeled_trace();
        let tree = phase_tree(&trace);
        assert_eq!(tree.roots.len(), 1);
        let map = &tree.nodes[tree.roots[0]];
        assert_eq!(map.name, "map");
        assert_eq!(map.children.len(), 2, "label and cover");
        let label = &tree.nodes[map.children[0]];
        assert_eq!(label.name, "label");
        assert_eq!(label.children.len(), 1, "waves merge into one node");
        let wave = &tree.nodes[label.children[0]];
        assert_eq!((wave.name, wave.count), ("label.wave", 3));
        assert!(label.total_ns >= wave.total_ns);
        assert_eq!(label.self_ns(), label.total_ns - wave.total_ns);
        assert!(phase_total_seconds(&trace, "label") > 0.0);
        assert_eq!(phase_total_seconds(&trace, "absent"), 0.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let trace = labeled_trace();
        let text = render(&trace);
        assert!(text.contains("phase report"));
        assert!(text.contains("map"));
        assert!(text.contains("label.wave x3"));
        assert!(text.contains("wavefront occupancy (3 levels)"));
        assert!(text.contains("total 60 nodes"));
        assert!(text.contains("match kernel"));
        assert!(text.contains("(20.0% of considered)"), "{text}");
        // 512 live bits over 32 words = 25% batch occupancy.
        assert!(text.contains("batch occupancy 25.0%"), "{text}");
        assert!(text.contains("match.per_node"));
    }

    #[test]
    fn profile_accumulates_across_runs() {
        let mut accum = ProfileAccum::new();
        accum.add(&labeled_trace());
        accum.add(&labeled_trace());
        assert_eq!(accum.runs(), 2);
        let text = accum.render();
        assert!(text.contains("2 runs"));
        assert!(text.contains("map/label/label.wave"));
        assert!(text.contains("(stable)"), "{text}");
    }
}
