//! Percentiles, the run's result line, and the host record.

use std::fmt::Write as _;

/// Percentiles the tail helper may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0..=100, to 1/100) among
/// `n` samples, in integer arithmetic so that 99.9 % of 10 000 is 9 990.
fn rank(p: f64, n: usize) -> usize {
    let per_10k = (p * 100.0).round() as usize;
    (per_10k * n).div_ceil(10_000)
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples strictly above its rank, or `None` when
/// even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// True when `name` is a valid metric name: starts with a letter or digit
/// and uses only `[A-Za-z0-9_.-]`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Queries that did not get a full answer: errors, `OVERLOAD` refusals,
/// degraded or unserved answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Queries issued.
    pub attempted: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Queries refused with `OVERLOAD`.
    pub overloads: u64,
    /// Queries answered, but only in part or at reduced fidelity.
    pub degraded: u64,
}

impl Outcomes {
    /// Incomplete queries over queries attempted.
    pub fn incomplete_share(&self) -> f64 {
        (self.errors + self.overloads + self.degraded) as f64 / self.attempted.max(1) as f64
    }

    /// Operations that failed outright (errors and refusals); degraded
    /// answers are the fleet's designed response to an outage.
    pub fn failed(&self) -> u64 {
        self.errors + self.overloads
    }

    /// Accumulates another round.
    pub fn add(&mut self, o: &Outcomes) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.overloads += o.overloads;
        self.degraded += o.degraded;
    }
}

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name), "bad metric name {name}");
        self.0.push((name, value, unit));
    }
}

/// Formats a finite number as JSON (`null` otherwise) with every digit.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, out: &Outcomes, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed()
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak RSS (`VmHWM`) to its current RSS, so that
/// [`rss_peak_mb`] covers only what runs after. Returns whether the kernel
/// allowed it.
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20, 57, 640, 1000, 9_999, 123_456] {
            let p = tail_percentile(n).expect("n >= 20 has a median");
            assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn incomplete_share_counts_refusals_and_degraded_answers() {
        let o = Outcomes {
            attempted: 200,
            errors: 1,
            overloads: 3,
            degraded: 6,
        };
        assert_eq!(o.incomplete_share(), 0.05);
        assert_eq!(o.failed(), 4);
        let clean = Outcomes {
            attempted: 50,
            ..Outcomes::default()
        };
        assert_eq!(clean.incomplete_share(), 0.0);
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_name("index.share_ratio"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("p99/us"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        m.put("queries_per_s", 1.0e5, "1/s");
        let line = result_line(
            true,
            &Outcomes {
                attempted: 9,
                ..Outcomes::default()
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"queries_per_s\": {\"value\": 100000.0, \"unit\": \"1/s\"}}}"
        );
    }
}
