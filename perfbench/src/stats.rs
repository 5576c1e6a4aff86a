//! Medians and a fine-grained latency histogram.

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two: bucket width is 1/128 of its octave
/// (< 0.8% relative error before interpolation).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear latency histogram over nanoseconds: fixed size (no
/// per-sample allocation, so recording does not disturb the process's
/// memory metric), mergeable, with quantiles interpolated inside a bucket.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (ns >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + sub
}

/// `[lo, hi)` of bucket `b`, ns.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, b as f64 + 1.0);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = ((SUB + b % SUB) as u64) << shift;
    (lo as f64, lo as f64 + (1u64 << shift) as f64)
}

impl Histogram {
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), ns, interpolated linearly within
    /// the bucket that holds it.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let (lo, hi) = bucket_range(b);
                let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + frac * (hi - lo)).min(self.max_ns as f64);
            }
            seen += c;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for b in 0..BUCKETS - 1 {
            let (_, hi) = bucket_range(b);
            let (lo2, _) = bucket_range(b + 1);
            assert_eq!(hi, lo2, "gap after bucket {b}");
        }
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            1000,
            123_456,
            1 << 40,
            (1 << 50) + 7,
        ] {
            let (lo, hi) = bucket_range(bucket_of(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < hi,
                "{ns} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn quantiles_are_accurate_to_a_bucket() {
        let mut h = Histogram::default();
        for i in 1..=100_000u64 {
            h.record_ns(i * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 1_000_000.0;
            let got = h.quantile_ns(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
