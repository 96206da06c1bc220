//! The result object a run prints as its last line of standard output.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured (printed with every digit).
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Ops attempted (every phase of the run).
    pub attempted: usize,
    /// Ops that failed a check.
    pub failed: usize,
    /// First few failure messages, for the human-readable log.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Most labeling threads any call used.
    pub threads_used: usize,
}

/// Keeps at most this many failure messages per run.
const MAX_FAILURE_MESSAGES: usize = 8;

impl RunResult {
    /// Records one checked op.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(msg);
            }
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Whether every op passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON object: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value": .., "unit": ..}`).
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                dagmap_obs::json::escape(&m.name),
                json_number(m.value),
                dagmap_obs::json::escape(m.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics
        )
    }
}

/// Formats a finite value with every digit (Rust's shortest round-trip
/// form); non-finite values, which no metric should produce, become `null`
/// so the line stays valid JSON and the reader sees the defect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
