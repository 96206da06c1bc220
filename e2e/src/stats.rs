//! Sample statistics and process probes shared by the runner and `compare`.
//!
//! The percentile and quartile definitions are pinned by unit tests below:
//! latency percentiles are nearest-rank (a value that was actually
//! observed), while the run-to-run spread uses the same quartiles as
//! Python's `statistics.quantiles(values, n=4)` so the spreads printed here
//! match the ones an external checker computes from the same runs.

/// Samples a reported percentile keeps beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `0..=100`): the smallest
/// sample with at least `p`% of the samples at or below it. Above the
/// median the rank is capped so that [`TAIL_SAMPLES`] samples stay beyond
/// it: with too few samples for the requested tail, the highest percentile
/// the data backs is reported instead (on a run of 40 ops, p95 and p99 read
/// the 11th-slowest op; on 20 ops or fewer, the median). Returns the value
/// and the number of samples strictly above it. `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let cap = n.saturating_sub(TAIL_SAMPLES).max(n.div_ceil(2));
    let rank = rank.min(cap);
    Some((sorted[rank - 1], n - rank))
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartiles by Python's `statistics.quantiles(data, n=4)`
/// (the default `exclusive` method). A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    match ld {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Geometric mean of positive values (`None` when empty or any is `<= 0`).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat`. `None` where `/proc` is unavailable.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: u64 = fields.next()?.parse().ok()?; // field 15
                                                   // USER_HZ is 100 on every Linux ABI.
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), from
/// `/proc/self/status`. `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&v, 90.0), Some((90.0, 10)));
        // p95 and p99 would leave 5 and 1 samples beyond: capped at p90.
        assert_eq!(percentile(&v, 95.0), Some((90.0, 10)));
        assert_eq!(percentile(&v, 99.0), Some((90.0, 10)));
        assert_eq!(percentile(&v, 0.0), Some((1.0, 99)));
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some((990.0, 10)));
        // Twenty samples or fewer: no tail beyond the median.
        let shuffled: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&shuffled, 50.0), Some((10.0, 10)));
        assert_eq!(percentile(&shuffled, 99.0), Some((10.0, 10)));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 95.0), Some((2.0, 1)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn proc_probes_read_this_process() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_seconds().unwrap() >= 0.0);
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
