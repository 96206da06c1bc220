//! Client-side rendering of server telemetry: the Prometheus exposition
//! parser behind `dagmap top` and the live dashboard it refreshes.
//!
//! Everything here consumes what the daemon serves over the wire — the
//! `metrics` frame's text exposition — so these renderers double as
//! end-to-end checks that the exposition stays machine-parsable.

/// One parsed exposition sample: `name{label="v",...} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Base metric name (the part before `{`).
    pub name: String,
    /// Label key/value pairs, in exposition order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition into samples, skipping comment/`TYPE`
/// lines.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without a value: `{line}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("unparsable sample value in `{line}`"))?;
        let (name, labels) = match series.find('{') {
            None => (series.to_owned(), Vec::new()),
            Some(i) => {
                let name = series[..i].to_owned();
                let inner = series[i + 1..]
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated label set in `{line}`"))?;
                (name, parse_labels(inner, line)?)
            }
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

/// Parses `k="v",k2="v2"`. Label values were escaped by the exposition
/// writer (`\\`, `\"`, `\n`).
fn parse_labels(inner: &str, line: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .ok_or_else(|| format!("malformed label in `{line}`"))?;
        let key = rest[..eq].to_owned();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c)) => value.push(c),
                    None => return Err(format!("dangling escape in `{line}`")),
                },
                '"' => {
                    end = Some(eq + 2 + i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in `{line}`"))?;
        labels.push((key, value));
        rest = rest[end..].strip_prefix(',').unwrap_or(&rest[end..]);
    }
    Ok(labels)
}

/// The value of the first sample matching `name` and every filter pair.
pub fn find(samples: &[Sample], name: &str, filters: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && filters.iter().all(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
}

/// Right-aligns every column after the first over `rows`, two spaces
/// between columns. The table layout of `top`.
pub fn align_columns(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{cell:<w$}", w = widths[0]));
            } else {
                line.push_str(&format!("{cell:>w$}", w = widths[i]));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

fn fmt_count(v: f64) -> String {
    format!("{}", v as i64)
}

/// Renders the live dashboard from the current scrape, plus the previous
/// scrape and the seconds between them for rate computation.
pub fn render_dashboard(cur: &[Sample], prev: Option<(&[Sample], f64)>) -> String {
    let g = |name: &str| find(cur, name, &[]).unwrap_or(0.0);
    let mut out = String::new();
    let requests = g("dagmap_requests_total");
    let rate = match prev {
        Some((prev, dt)) if dt > 0.0 => {
            let before = find(prev, "dagmap_requests_total", &[]).unwrap_or(0.0);
            format!("{:.1}/s", (requests - before).max(0.0) / dt)
        }
        _ => "-".to_owned(),
    };
    out.push_str(&format!(
        "dagmap serve  requests {} ({rate})  errors {}  busy {}  remaps {}\n",
        fmt_count(requests),
        fmt_count(g("dagmap_errors_total")),
        fmt_count(g("dagmap_busy_rejects_total")),
        fmt_count(g("dagmap_remaps_total")),
    ));
    out.push_str(&format!(
        "workers {}/{} busy  queue {}  inflight {}  retained {}  tail traces {}\n",
        fmt_count(g("dagmap_workers_busy")),
        fmt_count(g("dagmap_workers")),
        fmt_count(g("dagmap_queue_depth")),
        fmt_count(g("dagmap_inflight")),
        fmt_count(g("dagmap_retained_runs")),
        fmt_count(g("dagmap_tail_traces_kept_total")),
    ));

    out.push_str("\nlatency (us, rolling window)\n");
    let mut rows = vec![vec![
        "  kind".to_owned(),
        "p50".to_owned(),
        "p95".to_owned(),
        "p99".to_owned(),
        "max".to_owned(),
        "count".to_owned(),
    ]];
    for kind in ["first", "repeat", "remap", "cached"] {
        let q = |qs: &str| {
            find(
                cur,
                "dagmap_request_latency_us",
                &[("kind", kind), ("quantile", qs)],
            )
            .unwrap_or(0.0)
        };
        let count = find(cur, "dagmap_request_latency_us_count", &[("kind", kind)]).unwrap_or(0.0);
        rows.push(vec![
            format!("  {kind}"),
            fmt_count(q("0.5")),
            fmt_count(q("0.95")),
            fmt_count(q("0.99")),
            fmt_count(q("1")),
            fmt_count(count),
        ]);
    }
    out.push_str(&align_columns(&rows));

    out.push_str("\nphases p50 (us, rolling window)\n");
    let phase = |name: &str| {
        let p50 = find(
            cur,
            &format!("dagmap_phase_{name}_us"),
            &[("quantile", "0.5")],
        );
        format!("{name} {}", fmt_count(p50.unwrap_or(0.0)))
    };
    let phases: Vec<String> = [
        "parse",
        "decompose",
        "label",
        "cover",
        "verify",
        "writeback",
    ]
    .into_iter()
    .map(phase)
    .collect();
    out.push_str(&format!("  {}\n", phases.join("  ")));

    out.push_str("\nreply cache\n");
    let hits = g("dagmap_reply_cache_hits_total");
    let lookups = hits + g("dagmap_reply_cache_misses_total");
    let hit_rate = if lookups > 0.0 {
        format!("{:.1}%", 100.0 * hits / lookups)
    } else {
        "-".to_owned()
    };
    out.push_str(&align_columns(&[
        vec![
            "  hits".to_owned(),
            "misses".to_owned(),
            "hit rate".to_owned(),
            "evictions".to_owned(),
            "resident KiB".to_owned(),
        ],
        vec![
            format!("  {}", fmt_count(hits)),
            fmt_count(lookups - hits),
            hit_rate,
            fmt_count(g("dagmap_reply_cache_evictions_total")),
            fmt_count(g("dagmap_reply_cache_bytes") / 1024.0),
        ],
    ]));

    let mut libs: Vec<&str> = cur
        .iter()
        .filter(|s| s.name == "dagmap_lib_requests_total")
        .filter_map(|s| s.label("lib"))
        .collect();
    libs.sort_unstable();
    libs.dedup();
    if !libs.is_empty() {
        out.push_str("\nper-library\n");
        let mut rows = vec![vec![
            "  lib".to_owned(),
            "requests".to_owned(),
            "pending".to_owned(),
        ]];
        for lib in libs {
            let f = |name: &str| find(cur, name, &[("lib", lib)]).unwrap_or(0.0);
            rows.push(vec![
                format!("  {lib}"),
                fmt_count(f("dagmap_lib_requests_total")),
                fmt_count(f("dagmap_lib_pending")),
            ]);
        }
        out.push_str(&align_columns(&rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_names_labels_and_values() {
        let text = "# HELP x y\n# TYPE a counter\na 3\n\
                    b{lib=\"l1\",quantile=\"0.5\"} 42\n\
                    c{s=\"q\\\"uo\\\\te\"} 1.5\n";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "a");
        assert_eq!(samples[0].value, 3.0);
        assert!(samples[0].labels.is_empty());
        assert_eq!(samples[1].label("lib"), Some("l1"));
        assert_eq!(samples[1].label("quantile"), Some("0.5"));
        assert_eq!(samples[2].label("s"), Some("q\"uo\\te"));
        assert_eq!(find(&samples, "b", &[("lib", "l1")]), Some(42.0));
        assert_eq!(find(&samples, "b", &[("lib", "nope")]), None);
    }

    #[test]
    fn malformed_exposition_is_an_error_not_a_skip() {
        for bad in ["novalue", "x{unterminated 3", "x notanumber"] {
            assert!(parse_exposition(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn columns_align_right_except_the_first() {
        let rows = vec![
            vec!["name".to_owned(), "v".to_owned()],
            vec!["x".to_owned(), "1234".to_owned()],
        ];
        assert_eq!(align_columns(&rows), "name     v\nx     1234\n");
    }

    #[test]
    fn dashboard_renders_from_a_round_tripped_registry() {
        // Render an actual registry's exposition, parse it back, and make
        // sure the dashboard finds its numbers — a drift test between the
        // server's names and the client's lookups.
        let reg = dagmap_obs::metrics::MetricsRegistry::new();
        reg.counter("dagmap_requests_total").inc(100);
        reg.gauge("dagmap_workers").set(4);
        reg.counter("dagmap_lib_requests_total{lib=\"lib2\"}")
            .inc(60);
        reg.gauge("dagmap_lib_pending{lib=\"lib2\"}").set(3);
        reg.histogram("dagmap_request_latency_us{kind=\"first\"}", 4, u64::MAX / 8)
            .observe(500);
        reg.counter("dagmap_reply_cache_hits_total").inc(30);
        reg.counter("dagmap_reply_cache_misses_total").inc(10);
        let samples = parse_exposition(&reg.render_prometheus()).unwrap();
        let dash = render_dashboard(&samples, None);
        assert!(dash.contains("requests 100"), "{dash}");
        let cache = dash
            .lines()
            .skip_while(|l| *l != "reply cache")
            .nth(2)
            .unwrap_or_else(|| panic!("no reply cache row:\n{dash}"));
        let cells: Vec<&str> = cache.split_whitespace().collect();
        assert_eq!(cells, ["30", "10", "75.0%", "0", "0"], "{dash}");
        let row = dash
            .lines()
            .find(|l| l.trim_start().starts_with("lib2"))
            .unwrap_or_else(|| panic!("no lib2 row:\n{dash}"));
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells, ["lib2", "60", "3"], "{dash}");
    }

    #[test]
    fn rates_come_from_scrape_deltas() {
        let reg = dagmap_obs::metrics::MetricsRegistry::new();
        reg.counter("dagmap_requests_total").inc(100);
        let prev = parse_exposition(&reg.render_prometheus()).unwrap();
        reg.counter("dagmap_requests_total").inc(50);
        let cur = parse_exposition(&reg.render_prometheus()).unwrap();
        let dash = render_dashboard(&cur, Some((&prev, 2.0)));
        assert!(dash.contains("(25.0/s)"), "{dash}");
    }
}
