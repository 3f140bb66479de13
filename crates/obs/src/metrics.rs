//! Metric primitives: counters, gauges, and log-scale histograms, plus
//! the merged map a [`crate::Registry`] snapshot exposes.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Duration;

/// Number of log₂ buckets: bucket `i` counts values whose bit length is
/// `i` (bucket 0 holds only the value 0, bucket `i ≥ 1` holds
/// `[2^(i−1), 2^i − 1]`).
pub const HIST_BUCKETS: usize = 65;

/// A log₂-scale histogram of `u64` samples. Recording is O(1); the
/// bucket layout is fixed, so merging shards is index-wise addition.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) from the log₂ buckets;
    /// `None` when empty.
    ///
    /// The rank-`⌈q·count⌉` sample's bucket is found by a cumulative
    /// walk, then the value is linearly interpolated across the
    /// bucket's value range (clamped to the recorded min/max). Since
    /// bucket `i ≥ 1` spans `[2^(i−1), 2^i − 1]`, the estimate is off
    /// by at most the bucket width: it lies within a factor of 2 of
    /// the true quantile (and is exact when the bucket is pinched by
    /// min/max or is bucket 0).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = bucket_range(i);
                let lo = lo.max(self.min);
                let hi = hi.min(self.max);
                let frac = (rank - cum) as f64 / c as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
                return Some(est.round().clamp(lo as f64, hi as f64) as u64);
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Estimated median — see [`Histogram::percentile`].
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// Estimated 95th percentile — see [`Histogram::percentile`].
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// Estimated 99th percentile — see [`Histogram::percentile`].
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// The occupied buckets as `(bucket_index, count)` pairs.
    pub fn occupied(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// The run-record JSON shape (see `record` module docs).
    pub fn to_value(&self) -> Value {
        Value::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min())
            .with("max", self.max())
            .with("p50", self.p50())
            .with("p95", self.p95())
            .with("p99", self.p99())
            .with(
                "buckets",
                Value::Arr(
                    self.occupied()
                        .into_iter()
                        .map(|(i, c)| Value::Arr(vec![Value::from(i), Value::from(c)]))
                        .collect(),
                ),
            )
    }

    /// Rebuilds a histogram from [`Histogram::to_value`] output.
    pub fn from_value(v: &Value) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        h.count = v
            .get("count")
            .and_then(Value::as_u64)
            .ok_or("hist missing count")?;
        h.sum = v
            .get("sum")
            .and_then(Value::as_u64)
            .ok_or("hist missing sum")?;
        h.min = v.get("min").and_then(Value::as_u64).unwrap_or(u64::MAX);
        h.max = v.get("max").and_then(Value::as_u64).unwrap_or(0);
        for pair in v
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or("hist missing buckets")?
        {
            let items = pair.as_arr().ok_or("hist bucket is not a pair")?;
            let (i, c) = match items {
                [i, c] => (
                    i.as_u64().ok_or("bad bucket index")? as usize,
                    c.as_u64().ok_or("bad bucket count")?,
                ),
                _ => return Err("hist bucket is not a pair".to_string()),
            };
            *h.buckets.get_mut(i).ok_or("bucket index out of range")? = c;
        }
        Ok(h)
    }
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The value range `[lo, hi]` bucket `i` covers.
fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// Merged metrics: what a registry snapshot exposes after all worker
/// shards folded in. Maps are ordered so serialization is stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsMap {
    /// Monotonic counters (summed across shards).
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges (last merged shard wins; keep gauges on the
    /// coordinating thread when cross-run stability matters).
    pub gauges: BTreeMap<String, f64>,
    /// Log-scale histograms (bucket-wise summed across shards).
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsMap {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A counter's value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Events per second, `None` when the window measured zero time (fast
/// inputs on coarse clocks) — so reports print `—` instead of `inf`.
pub fn rate_per_sec(count: u64, window: Duration) -> Option<f64> {
    let secs = window.as_secs_f64();
    (secs > 0.0).then(|| count as f64 / secs)
}

/// Formats an optional rate for fixed-width tables: `—` for `None`.
pub fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{r:.1}"),
        None => "—".to_string(),
    }
}

/// One `<key>: <n> kB` line of `/proc/self/status`, in bytes; `None` off
/// Linux or when procfs is unavailable.
fn proc_status_bytes(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    let kb: u64 = line
        .strip_prefix(':')?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident-set size of this process in bytes (`VmHWM`), or `None`
/// off Linux. Monotone over the process lifetime — scaling sweeps should
/// run sizes ascending so each reading bounds that size's true peak.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM")
}

/// Current resident-set size of this process in bytes (`VmRSS`), or
/// `None` off Linux.
pub fn rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_summary_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), Some(26.5));
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(1);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.occupied().len(), 2);
    }

    #[test]
    fn histogram_round_trips_through_json() {
        let mut h = Histogram::new();
        for v in [0u64, 7, 7, 4096] {
            h.record(v);
        }
        let back = Histogram::from_value(&h.to_value()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn percentiles_interpolate_within_a_factor_of_two() {
        assert_eq!(Histogram::new().p50(), None);
        let mut h = Histogram::new();
        h.record(42);
        // Single sample: every percentile is pinched to it by min/max.
        assert_eq!(h.p50(), Some(42));
        assert_eq!(h.p99(), Some(42));
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let est = h.percentile(q).unwrap() as f64;
            let truth = truth as f64;
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "q={q}: est {est} vs true {truth}"
            );
        }
        // p100 is exact: the max is tracked directly.
        assert_eq!(h.percentile(1.0), Some(1000));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn percentiles_flow_through_json() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let v = h.to_value();
        assert_eq!(v.get("p50").and_then(Value::as_u64), h.p50());
        assert_eq!(v.get("p99").and_then(Value::as_u64), h.p99());
        // Derived members are recomputed from buckets on re-encode, so
        // the round trip stays bit-exact.
        let back = Histogram::from_value(&v).unwrap();
        assert_eq!(back.to_value().encode(), v.encode());
    }

    #[test]
    fn zero_window_rates_are_none() {
        assert_eq!(rate_per_sec(100, Duration::ZERO), None);
        assert_eq!(fmt_rate(None), "—");
        let r = rate_per_sec(100, Duration::from_secs(2)).unwrap();
        assert_eq!(r, 50.0);
        assert_eq!(fmt_rate(Some(r)), "50.0");
    }
}
