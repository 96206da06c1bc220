//! `e2e compare <parent_dir> <change_dir>`: the bench-diff.
//!
//! Reads the untraced result files (`--out`) in two directories and, per
//! workload × end-to-end metric of `BENCHMARK.json`, prints each side's
//! median and quartiles, the pairs the change won, and one verdict:
//!
//! * `improved` — the change won at least 9 of every 10 pairs and the
//!   medians differ by more than the parent's interquartile range;
//! * `regressed` — the change's median is worse by more than the bound;
//! * `unresolved` — the run-to-run spread is wider than the bound (unless
//!   every change run beats every parent run);
//! * `within bound` — otherwise.
//!
//! Runs are paired in seed order. The comparison fails on any regression,
//! or when the change failed a larger share of its ops.

use std::collections::BTreeMap;
use std::path::Path;

use dagmap_obs::json::{parse, Value};

use crate::stats;

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// One untraced run read back from its result file.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Ops attempted and failed.
    pub attempted: f64,
    /// See [`Run::attempted`].
    pub failed: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The verdict of one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the parent's own spread in at least 9/10 pairs.
    Improved,
    /// Worse than the parent's median by no more than the bound.
    WithinBound,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// Spread wider than the bound: no conclusion either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the end-to-end bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            Ok(Bound {
                name: row
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("end_to_end row without a name")?
                    .to_owned(),
                lower_is_better: row.get("better").and_then(Value::as_str) == Some("lower"),
                bound: row
                    .get("bound")
                    .and_then(Value::as_num)
                    .ok_or("end_to_end row without a bound")?,
            })
        })
        .collect()
}

/// Reads every untraced result file (`*.json` with `"trace": false`) in
/// `dir`.
///
/// # Errors
///
/// Unreadable directories or malformed result files.
pub fn read_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let field = |key: &str| {
            doc.get("result")
                .and_then(|r| r.get(key))
                .and_then(Value::as_num)
                .ok_or(format!("{}: result has no `{key}`", path.display()))
        };
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or(format!("{}: result has no metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect();
        runs.push(Run {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or(format!("{}: no workload", path.display()))?
                .to_owned(),
            seed: doc.get("seed").and_then(Value::as_num).unwrap_or(0.0) as u64,
            attempted: field("attempted")?,
            failed: field("failed")?,
            metrics,
        });
    }
    runs.sort_by_key(|r| r.seed);
    Ok(runs)
}

/// One compared row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs the change won, of `pairs`.
    pub won: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = stats::quartiles(values).unwrap_or((0.0, 0.0));
    (stats::median(values).unwrap_or(0.0), q1, q3)
}

/// Compares one metric's parent and change values under `bound`.
pub fn compare_metric(parent: &[f64], change: &[f64], bound: &Bound) -> Row {
    let better = |c: f64, p: f64| {
        if bound.lower_is_better {
            c < p
        } else {
            c > p
        }
    };
    let (p, c) = (summary(parent), summary(change));
    let pairs = parent.len().min(change.len());
    let won = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(cv, pv))
        .count();
    let base = p.0.abs().max(f64::MIN_POSITIVE);
    let parent_iqr = p.2 - p.1;
    let spread = parent_iqr.max(c.2 - c.1) / base;
    let worse = if bound.lower_is_better {
        (c.0 - p.0) / base
    } else {
        (p.0 - c.0) / base
    };
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let verdict = if spread > bound.bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else if pairs > 0
        && won * 10 >= pairs * 9
        && better(c.0, p.0)
        && (c.0 - p.0).abs() > parent_iqr
    {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Row {
        parent: p,
        change: c,
        won,
        pairs,
        verdict,
    }
}

/// Prints the comparison table; returns whether the change passes (no
/// regression and no larger failed share).
///
/// # Errors
///
/// Unreadable inputs.
pub fn run(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = read_bounds(benchmark)?;
    let parent = read_runs(parent_dir)?;
    let change = read_runs(change_dir)?;
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut pass = true;
    println!(
        "{:16} {:24} {:>32} {:>32} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    for w in workloads {
        let of = |runs: &[Run]| -> Vec<Run> {
            runs.iter().filter(|r| r.workload == w).cloned().collect()
        };
        let (p_runs, c_runs) = (of(&parent), of(&change));
        if c_runs.is_empty() {
            println!("{w:16} (no change runs)");
            pass = false;
            continue;
        }
        for bound in &bounds {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let row = compare_metric(&values(&p_runs), &values(&c_runs), bound);
            let fmt = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{w:16} {:24} {:>32} {:>32} {:>3}/{:<3}  {}",
                bound.name,
                fmt(row.parent),
                fmt(row.change),
                row.won,
                row.pairs,
                row.verdict.label()
            );
            pass &= row.verdict != Verdict::Regressed;
        }
        let failed_share = |runs: &[Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
        };
        let (pf, cf) = (failed_share(&p_runs), failed_share(&c_runs));
        println!("{w:16} {:24} {pf:>32} {cf:>32}", "failed_share");
        if cf > pf {
            println!("{w:16} failed share rose: regressed");
            pass = false;
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            compare_metric(&parent, &faster, &lower(0.05)).verdict,
            Verdict::Improved
        );
        assert_eq!(
            compare_metric(&parent, &slower, &lower(0.05)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&parent, &same, &lower(0.05)).verdict,
            Verdict::WithinBound
        );
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(
            compare_metric(&parent, &noisy, &lower(0.05)).verdict,
            Verdict::Unresolved
        );
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.05)
        };
        assert_eq!(
            compare_metric(&parent, &faster, &higher).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&parent, &slower, &higher).verdict,
            Verdict::Improved
        );
    }
}
