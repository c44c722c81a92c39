//! Sample statistics: the benchmark's only quantile and spread code.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles` (the (n+1)p rank, linearly interpolated), so a
//! spread computed here matches the one a reader recomputes from the
//! printed per-run values with the standard library.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice, linearly
/// interpolated between the two closest ranks of the (n+1)p position
/// and clamped to the extremes. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let pos = (n as f64 + 1.0) * q.clamp(0.0, 1.0);
    if pos <= 1.0 {
        return Some(sorted[0]);
    }
    if pos >= n as f64 {
        return Some(sorted[n - 1]);
    }
    let lower = pos.floor() as usize; // 1-based rank
    let frac = pos - lower as f64;
    Some(sorted[lower - 1] + frac * (sorted[lower] - sorted[lower - 1]))
}

/// Sorts a copy of `values` and returns its `q`-quantile.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of `values`, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The run-to-run spread of a metric: the distance between the first
/// and third quartile, as a share of the median. `None` with fewer than
/// two values or a zero median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let q1 = quantile(values, 0.25)?;
    let q3 = quantile(values, 0.75)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Sub-buckets per power of two: quantiles are exact to 1/128 (0.8%).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Samples of 2^36 ns (69 s) and more share the top bucket.
const MAX_OCTAVE: u32 = 36;
const BUCKETS: usize = (MAX_OCTAVE - SUB_BITS + 1) as usize * SUB;

/// Latency samples in nanoseconds, summarised as microsecond quantiles.
///
/// A log-linear histogram (128 sub-buckets per octave) instead of a
/// sample list: its memory is fixed, so the benchmark's own bookkeeping
/// does not grow with throughput and leak into `peak_rss_mib`.
#[derive(Debug, Clone)]
pub struct Latencies {
    counts: Vec<u64>,
    len: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            counts: vec![0; BUCKETS],
            len: 0,
        }
    }
}

impl Latencies {
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros(); // ≥ SUB_BITS
        if octave >= MAX_OCTAVE {
            return BUCKETS - 1;
        }
        let shift = octave - SUB_BITS;
        let sub = (ns >> shift) as usize - SUB;
        (shift as usize + 1) * SUB + sub
    }

    /// The range `[low, high)` of values bucket `i` holds.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, i as f64 + 1.0);
        }
        let shift = (i / SUB - 1) as i32;
        let low = ((SUB + i % SUB) as f64) * 2f64.powi(shift);
        (low, low + 2f64.powi(shift))
    }

    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.len += 1;
    }

    /// Adds every sample of `other` to `self`.
    pub fn merge(&mut self, other: &Latencies) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.len += other.len;
    }

    /// The number of samples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `q`-quantile in microseconds, or 0 with no samples: the
    /// sample of rank ⌈q·n⌉, placed by linear interpolation inside its
    /// bucket.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.len as f64).ceil() as u64).max(1);
        let mut below = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if below + count >= rank {
                let (low, high) = Self::bounds(i);
                let into = (rank - below) as f64 / count as f64;
                return (low + into * (high - low)) / 1e3;
            }
            below += count;
        }
        unreachable!("rank ≤ len")
    }

    /// How many samples lie beyond the `q`-quantile's rank: the guide
    /// for whether a percentile rests on enough tail samples.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.len as f64;
        (n - (q * n).ceil()).max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.25), Some(2.75));
        assert_eq!(quantile(&values, 0.5), Some(5.5));
        assert_eq!(quantile(&values, 0.75), Some(8.25));
        let spread = relative_iqr(&values).expect("spread");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn latencies_are_exact_to_a_bucket() {
        let mut lat = Latencies::default();
        for us in 1..=1000u64 {
            lat.push(us * 1000);
        }
        for (q, want) in [(0.5, 500.0), (0.99, 990.0), (1.0, 1000.0)] {
            let got = lat.quantile_us(q);
            assert!(
                (got - want).abs() / want < 1.0 / 128.0,
                "q{q}: {got} vs {want}"
            );
        }
        assert_eq!(lat.len(), 1000);
        assert_eq!(lat.beyond(0.99), 10);
        assert_eq!(Latencies::default().quantile_us(0.5), 0.0);
        for ns in [0, 1, 127, 128, 129, 1 << 20, (1 << 36) - 1] {
            let (low, high) = Latencies::bounds(Latencies::bucket(ns));
            assert!(low <= ns as f64 && (ns as f64) < high, "{ns}");
        }
    }
}
