//! Log-bucketed HDR-style histograms.
//!
//! The roadmap's policy tournaments and the §6 phase-cost tables need
//! tail quantiles (p99, p999) over millions of samples without keeping
//! the samples. This is the classic HDR layout: values below
//! 2^[`SUB_BITS`] are exact; above that, each power-of-two range is
//! split into 2^[`SUB_BITS`] sub-buckets, bounding the relative error of
//! any reported quantile at `1/2^SUB_BITS` (~3%). Everything is integer
//! bucket arithmetic — recording, merging and quantile extraction are
//! deterministic, so histograms can participate in replay fingerprints.

use demos_types::Duration;

/// Sub-bucket resolution: each power-of-two range has `2^SUB_BITS`
/// sub-buckets, so quantiles are exact to ~3% relative error.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two range (`2^SUB_BITS`).
const SUB: usize = 1 << SUB_BITS;

/// Number of power-of-two groups above the exact range. Group `g`
/// (1-based) holds values whose most-significant bit is `SUB_BITS+g-1`;
/// u64 values run the msb up to 63, so `63 - SUB_BITS + 1` groups.
const GROUPS: usize = 64 - SUB_BITS as usize;

/// Total bucket count: the exact range plus every group's sub-buckets.
const BUCKETS: usize = SUB + GROUPS * SUB;

/// Bucket index for a value. Values below `SUB` map exactly; above, the
/// index is formed from the msb position and the `SUB_BITS` bits below it.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let group = msb - SUB_BITS as usize + 1;
    let sub = (v >> (msb - SUB_BITS as usize)) as usize & (SUB - 1);
    group * SUB + sub
}

/// Largest value that maps to bucket `i` — the value a quantile reports,
/// so reported quantiles never understate the true sample.
fn bucket_max(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let group = i / SUB;
    let sub = (i % SUB) as u128;
    // Bucket covers [(SUB+sub) << (group-1), (SUB+sub+1) << (group-1));
    // the top bucket's bound exceeds u64, hence the u128 intermediate.
    let bound = ((SUB as u128 + sub + 1) << (group - 1)) - 1;
    bound.min(u64::MAX as u128) as u64
}

/// A mergeable log-linear histogram of `u64` values (microseconds, bytes,
/// counts — the unit is the caller's).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a virtual-time duration (as microseconds).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_micros());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean (integer division; zero when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` in `[0, 1]`: the upper bound of the bucket holding
    /// the `ceil(q·count)`-th smallest sample, clamped to the exact
    /// observed min/max so p0 and p100 are precise. Bucket walks and
    /// integer bounds only — deterministic across platforms.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_max(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another histogram into this one (bucket-wise add), so
    /// per-machine histograms roll up into cluster-wide tails.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// One-line percentile summary: `n=..  p50=..  p90=..  p99=..  p999=..  max=..`.
    pub fn summary(&self) -> String {
        format!(
            "n={}  p50={}  p90={}  p99={}  p999={}  max={}",
            self.count,
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_max(v as usize), v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn buckets_partition_the_u64_line() {
        // Every bucket's max is one less than the next bucket's smallest
        // member: no value falls between buckets or into two of them.
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_of(v);
            assert!(v <= bucket_max(i), "{v} above its bucket max");
            if i > 0 {
                assert!(v > bucket_max(i - 1), "{v} overlaps previous bucket");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 123_456, 999_999] {
            h.record(v);
            let reported = h.quantile(1.0);
            assert!(reported >= v);
            assert!(
                (reported - v) as f64 <= v as f64 / 32.0 + 1.0,
                "{reported} too far above {v}"
            );
            let mut f = Histogram::new();
            f.record(v);
            h = f;
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 17);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert_eq!(h.quantile(0.0), 17, "p0 clamps to min");
        assert_eq!(h.quantile(1.0), 17_000, "p100 clamps to max");
        assert!(h.p50() >= 8_400 && h.p50() <= 8_800, "{}", h.p50());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..500u64 {
            a.record(i * 3);
            whole.record(i * 3);
        }
        for i in 0..500u64 {
            b.record(i * 7 + 1);
            whole.record(i * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn summary_contains_percentile_keys() {
        let mut h = Histogram::new();
        h.record(10);
        let s = h.summary();
        for key in ["p50=", "p90=", "p99=", "p999="] {
            assert!(s.contains(key), "{s}");
        }
    }
}
