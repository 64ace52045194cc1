//! Named metrics, the percentile rule, and the output format: a
//! human-readable table followed by one JSON line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// For a fraction or per-op ratio: the count it is taken over, and
    /// what that count counts.
    pub base: Option<(u64, &'static str)>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            base: None,
        }
    }

    /// `num / den` (0 when `den` is 0), carrying `den` as its base.
    pub fn ratio(
        name: impl Into<String>,
        unit: &'static str,
        num: f64,
        den: u64,
        what: &'static str,
    ) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: if den == 0 { 0.0 } else { num / den as f64 },
            base: Some((den, what)),
        }
    }
}

/// A metric name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or a digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Index of the nearest-rank percentile `p` in `n` sorted samples —
/// the rule `transedge_obs::percentile` applies.
pub fn rank(n: usize, p: f64) -> usize {
    (((n as f64 - 1.0) * p).round() as usize).min(n.saturating_sub(1))
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Tail percentiles considered, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest candidate percentile with at least ten samples beyond
/// it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile of sorted `us` samples, in milliseconds.
pub fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    sorted_us[rank(sorted_us.len(), p)] as f64 / 1_000.0
}

/// Median of wall-clock samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The table a reader sees: one line per metric with unit and base.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = write!(out, "  {:<40} {:>16.6} {:<8}", m.name, m.value, m.unit);
        if let Some((n, what)) = m.base {
            let _ = write!(out, " (over {n} {what})");
        }
        out.push('\n');
    }
    out
}

/// The last line of the output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, with every value at full precision.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(0, 0.95), 0);
        // 100 samples: rank round(99 * .5) = 50 (halves round up), 49 beyond.
        assert_eq!(samples_beyond(100, 0.5), 49);
        // 200 samples: rank round(199 * .95) = 189, so 10 lie beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(190), Some(0.9));
        assert_eq!(highest_supported_percentile(1_100), Some(0.99));
        assert_eq!(highest_supported_percentile(11_000), Some(0.999));
        assert_eq!(highest_supported_percentile(30), None);
    }

    #[test]
    fn percentiles_are_nearest_rank_like_obs() {
        let sorted: Vec<u64> = (1..=4).map(|x| x * 1_000).collect();
        let as_ms: Vec<f64> = sorted.iter().map(|&u| u as f64 / 1_000.0).collect();
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(
                percentile_ms(&sorted, p),
                transedge_obs::percentile(&as_ms, p)
            );
        }
    }

    #[test]
    fn ratios_carry_their_base_and_never_divide_by_zero() {
        let m = Metric::ratio("abort_frac", "fraction", 3.0, 12, "read-write txns");
        assert_eq!(m.value, 0.25);
        assert_eq!(m.base, Some((12, "read-write txns")));
        let z = Metric::ratio("abort_frac", "fraction", 0.0, 0, "read-write txns");
        assert_eq!(z.value, 0.0);
        assert_eq!(z.base, Some((0, "read-write txns")));
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("read_p50_ms"));
        assert!(valid_name("obs.read_p95.round2_us"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 10, 0, &[Metric::new("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
