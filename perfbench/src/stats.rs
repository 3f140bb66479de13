//! Sample statistics, metric naming, and the one-line JSON result.

use sllt_obs::Value;

/// Median of `xs` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` (0–100] of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// The percentiles a timing may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on the ladder (99.9, 99, 95, 90, 75, 50) that
/// has at least ten of `n` samples strictly beyond it, or `None` when
/// even the median has fewer than ten beyond it. A tail reported at a
/// higher percentile than this rests on a handful of samples.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// Nearest rank (1-based) of percentile `p` among `n` samples,
/// `ceil(p·n/100)`, in exact integer arithmetic on tenths of a percent.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: what was attempted, what failed a check, and the
/// metrics of the requested kind (end-to-end or per-layer).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed (a failed tree or job also clears this).
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    ///
    /// # Errors
    ///
    /// A metric with an illegal name, a repeated name, or a non-finite
    /// value.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Value::obj();
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_metric_name(m.name) {
                return Err(format!("illegal metric name {:?}", m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {:?} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            metrics.set(
                m.name,
                Value::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Ok(Value::obj()
            .with("correct", self.correct && self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = supported_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_and_medians() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in ["run_s", "job_latency_s.p95", "route.dme.calls", "0x-y_z"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".run",
            "_run",
            "run s",
            "run/s",
            "läuft",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        let mut o = Outcome {
            attempted: 1,
            correct: true,
            ..Outcome::default()
        };
        o.push("run s", 1.0, "s");
        assert!(o.to_json().is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            ..Outcome::default()
        };
        o.push("run_s", 1.25, "s");
        let v = sllt_obs::json::parse(&o.to_json().unwrap()).unwrap();
        let Value::Obj(members) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let run = v.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(run.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(run.get("unit").and_then(Value::as_str), Some("s"));

        o.push("run_s", 2.0, "s");
        assert!(o.to_json().is_err(), "duplicate names are refused");
    }
}
