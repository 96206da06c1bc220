//! The finished recording of one session, its Chrome trace-event exporter,
//! and an offline validator for the exported format.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Log2Histogram;
use crate::{json, ArgValue};

/// One completed span, as stitched into a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Static span name (e.g. `"label.wave"`).
    pub name: &'static str,
    /// Track the span was recorded on (0 = session thread).
    pub lane: u32,
    /// Nesting depth on its lane at the time the span was open.
    pub depth: u32,
    /// Start, in nanoseconds on the process-wide monotonic anchor.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRec {
    /// The value of an integer argument, if present.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }
}

/// A finished session: every stitched span, counter and histogram.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Session start on the monotonic anchor (ns).
    pub start_ns: u64,
    /// Session end on the monotonic anchor (ns).
    pub end_ns: u64,
    /// All spans, sorted by (lane, start, depth).
    pub spans: Vec<SpanRec>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Merged histograms.
    pub histograms: BTreeMap<String, Log2Histogram>,
    /// Lane id → track name, sorted by lane.
    pub lanes: Vec<(u32, String)>,
}

impl Trace {
    /// Wall-clock length of the session in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }

    /// A counter's final value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Spans on lane 0 (the session thread), in recorded order.
    pub fn session_lane(&self) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter().filter(|s| s.lane == 0)
    }

    /// The deterministic *structure* of the session-lane spans: every
    /// distinct nesting path with its occurrence count, sorted.
    ///
    /// Timestamps, durations, argument values and worker-lane spans are
    /// all excluded, so the signature is identical across runs and
    /// acceleration configurations — the property the trace determinism
    /// tests assert. Worker lanes are excluded by design: which thread ran
    /// a piece of work is schedule, not algorithm.
    pub fn span_signature(&self) -> Vec<(String, usize)> {
        let mut by_path: BTreeMap<String, usize> = BTreeMap::new();
        // Session-lane spans sorted by (start, depth): parents sort before
        // children, so a running ancestor stack reconstructs the paths.
        let mut stack: Vec<&'static str> = Vec::new();
        for span in self.session_lane() {
            stack.truncate(span.depth as usize);
            stack.push(span.name);
            *by_path.entry(stack.join("/")).or_insert(0) += 1;
        }
        by_path.into_iter().collect()
    }

    /// Renders the signature as one line per path (`path xN`).
    pub fn span_signature_text(&self) -> String {
        let mut out = String::new();
        for (path, count) in self.span_signature() {
            let _ = writeln!(out, "{path} x{count}");
        }
        out
    }

    /// Exports the trace in Chrome trace-event JSON (the `{"traceEvents":
    /// [...]}` object form), loadable in `chrome://tracing` and Perfetto.
    ///
    /// * every span becomes a complete (`"ph":"X"`) event with
    ///   microsecond timestamps relative to the session start,
    /// * every lane becomes a thread track with a `thread_name` metadata
    ///   event (`main`, `worker-N`, …),
    /// * every counter becomes one final counter (`"ph":"C"`) event on the
    ///   session track, so Perfetto shows totals alongside the spans.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"dagmap\"}}"
                .to_owned(),
            &mut out,
        );
        for (lane, name) in &self.lanes {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json::escape(name)
                ),
                &mut out,
            );
        }
        for span in &self.spans {
            let ts = span.start_ns.saturating_sub(self.start_ns) as f64 / 1e3;
            let dur = span.dur_ns as f64 / 1e3;
            let mut args = String::new();
            for (k, v) in &span.args {
                if !args.is_empty() {
                    args.push(',');
                }
                match v {
                    ArgValue::U64(n) => {
                        let _ = write!(args, "\"{}\":{}", json::escape(k), n);
                    }
                    ArgValue::F64(x) => {
                        let _ = write!(args, "\"{}\":{}", json::escape(k), fmt_f64(*x));
                    }
                }
            }
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\
                     \"cat\":\"dagmap\",\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                    span.lane,
                    json::escape(span.name),
                    fmt_f64(ts),
                    fmt_f64(dur),
                    args
                ),
                &mut out,
            );
        }
        let end_ts = self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3;
        for (name, value) in &self.counters {
            push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":{},\
                     \"args\":{{\"value\":{}}}}}",
                    json::escape(name),
                    fmt_f64(end_ts),
                    value
                ),
                &mut out,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// JSON-safe float formatting: finite, never `NaN`/`inf`, no exponent
/// surprises for the microsecond magnitudes traces carry.
fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_owned();
    }
    let s = format!("{x:.3}");
    // Trim a trailing ".000" so integers stay compact.
    s.strip_suffix(".000").map_or(s.clone(), str::to_owned)
}

/// Summary of a validated Chrome trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events of any phase.
    pub events: usize,
    /// Complete (`X`) span events.
    pub spans: usize,
    /// Counter (`C`) events.
    pub counters: usize,
    /// Distinct `tid`s carrying span events.
    pub tracks: usize,
    /// Distinct span names.
    pub names: usize,
}

/// Validates Chrome trace-event JSON offline: well-formed JSON, the
/// `traceEvents` array (or the bare-array form), and per-event structural
/// requirements (known `ph`, string `name`, numeric `ts`/`dur`/`pid`/`tid`
/// where the phase requires them, non-negative durations).
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_chrome(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = json::parse(text)?;
    let events = match &doc {
        json::Value::Arr(items) => items.as_slice(),
        json::Value::Obj(_) => doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .ok_or("top-level object lacks a `traceEvents` array")?,
        _ => return Err("top level must be an object or an array".to_owned()),
    };
    let mut summary = ChromeTraceSummary {
        events: events.len(),
        spans: 0,
        counters: 0,
        tracks: 0,
        names: 0,
    };
    let mut tracks = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_obj()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i} lacks a string `ph`"))?;
        let name = obj.get("name").and_then(json::Value::as_str);
        let num = |key: &str| obj.get(key).and_then(json::Value::as_num);
        match ph {
            "X" => {
                let name = name.ok_or_else(|| format!("X event {i} lacks a string `name`"))?;
                let ts = num("ts").ok_or_else(|| format!("X event {i} lacks numeric `ts`"))?;
                let dur = num("dur").ok_or_else(|| format!("X event {i} lacks numeric `dur`"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("X event {i} has negative ts/dur"));
                }
                let tid = num("tid").ok_or_else(|| format!("X event {i} lacks numeric `tid`"))?;
                num("pid").ok_or_else(|| format!("X event {i} lacks numeric `pid`"))?;
                summary.spans += 1;
                tracks.insert(tid.to_bits());
                names.insert(name.to_owned());
            }
            "C" => {
                name.ok_or_else(|| format!("C event {i} lacks a string `name`"))?;
                num("ts").ok_or_else(|| format!("C event {i} lacks numeric `ts`"))?;
                obj.get("args")
                    .and_then(json::Value::as_obj)
                    .ok_or_else(|| format!("C event {i} lacks an `args` object"))?;
                summary.counters += 1;
            }
            "M" => {
                name.ok_or_else(|| format!("M event {i} lacks a string `name`"))?;
            }
            "B" | "E" | "b" | "e" | "n" | "i" | "I" | "s" | "t" | "f" | "P" => {
                // Accepted phases we do not emit; require the universal bits.
                name.ok_or_else(|| format!("{ph} event {i} lacks a string `name`"))?;
            }
            other => return Err(format!("event {i} has unknown phase `{other}`")),
        }
    }
    summary.tracks = tracks.len();
    summary.names = names.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::session_lock;

    fn toy_trace() -> Trace {
        let _guard = session_lock();
        let session = crate::start();
        {
            let mut a = crate::span("map");
            a.set_u64("gates", 10);
            {
                let _b = crate::span("label");
                let _w = crate::span("label.wave");
            }
            let _c = crate::span("cover");
            crate::count("match.enumerated", 42);
            crate::sample("match.per_node", 7);
        }
        session.finish()
    }

    #[test]
    fn chrome_export_validates_and_carries_structure() {
        let trace = toy_trace();
        let jsontext = trace.to_chrome_json();
        let summary = validate_chrome(&jsontext).expect("exporter output validates");
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.tracks, 1);
        assert!(summary.names >= 4);
        // Nesting is reconstructible from the parsed file: `label.wave`
        // must sit strictly inside `label`, which sits inside `map`.
        let doc = json::parse(&jsontext).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span_of = |n: &str| -> (f64, f64) {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(json::Value::as_str) == Some("X")
                        && e.get("name").and_then(json::Value::as_str) == Some(n)
                })
                .map(|e| {
                    (
                        e.get("ts").unwrap().as_num().unwrap(),
                        e.get("dur").unwrap().as_num().unwrap(),
                    )
                })
                .unwrap_or_else(|| panic!("no span {n}"))
        };
        let (mts, mdur) = span_of("map");
        let (lts, ldur) = span_of("label");
        let (wts, wdur) = span_of("label.wave");
        assert!(mts <= lts && lts + ldur <= mts + mdur + 1e-6);
        assert!(lts <= wts && wts + wdur <= lts + ldur + 1e-6);
    }

    #[test]
    fn signature_reflects_paths_not_time() {
        let trace = toy_trace();
        let sig = trace.span_signature();
        assert_eq!(
            sig,
            vec![
                ("map".to_owned(), 1),
                ("map/cover".to_owned(), 1),
                ("map/label".to_owned(), 1),
                ("map/label/label.wave".to_owned(), 1),
            ]
        );
        assert!(trace
            .span_signature_text()
            .contains("map/label/label.wave x1"));
    }

    #[test]
    fn validator_rejects_structural_problems() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{\"traceEvents\":3}").is_err());
        assert!(validate_chrome("{\"other\":[]}").is_err());
        assert!(validate_chrome("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"ts\":0,\"dur\":-1,\
             \"pid\":1,\"tid\":0}]}"
        )
        .is_err());
        assert!(validate_chrome("{\"traceEvents\":[{\"ph\":\"?\",\"name\":\"a\"}]}").is_err());
        // The bare-array form is accepted.
        let ok = validate_chrome(
            "[{\"ph\":\"X\",\"name\":\"a\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":0}]",
        )
        .unwrap();
        assert_eq!(ok.spans, 1);
    }
}
