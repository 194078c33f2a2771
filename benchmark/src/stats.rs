//! Exact order statistics over raw samples. Nothing here buckets: a
//! percentile is one of the samples, so a 2x shift inside what would be a
//! histogram bucket still shows.

/// Percentiles a tail may be reported at, lowest to highest.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Raw samples, sorted once.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.total_cmp(b));
        Samples { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Nearest-rank percentile: the smallest sample with at least `p` % of
    /// the samples at or below it. 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest ladder percentile with at least ten samples beyond it,
    /// or `None` when even the median has fewer (under 20 samples).
    pub fn tail_percentile(&self) -> Option<f64> {
        let n = self.sorted.len() as f64;
        TAIL_LADDER
            .iter()
            .copied()
            .rfind(|p| n * (1.0 - p / 100.0) >= 10.0)
    }

    /// The tail latency a run reports: the sample at
    /// [`tail_percentile`](Self::tail_percentile), or the maximum when the
    /// set is too small to support any percentile. Returns `(percentile,
    /// value)`; the percentile is 100 for the maximum.
    pub fn tail(&self) -> (f64, f64) {
        match self.tail_percentile() {
            Some(p) => (p, self.percentile(p)),
            None => (100.0, self.max()),
        }
    }
}

/// Median of a handful of run results, as Python's `statistics.median`
/// gives it: the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = Samples::new(values.to_vec()).sorted;
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// ones the benchmark's driver computes. `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let data = Samples::new(values.to_vec()).sorted;
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 under two values or
/// for a zero median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn percentiles_are_samples_by_nearest_rank() {
        let s = seq(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(seq(5).median(), 3.0);
        assert_eq!(seq(4).median(), 2.0);
        assert_eq!(Samples::new(vec![]).percentile(50.0), 0.0);
        assert_eq!(s.count(), 100);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(seq(19).tail_percentile(), None);
        assert_eq!(seq(19).tail(), (100.0, 19.0));
        assert_eq!(seq(20).tail_percentile(), Some(50.0));
        assert_eq!(seq(60).tail_percentile(), Some(75.0));
        assert_eq!(seq(199).tail_percentile(), Some(90.0));
        assert_eq!(seq(999).tail_percentile(), Some(95.0));
        assert_eq!(seq(1000).tail_percentile(), Some(99.0));
        assert_eq!(seq(1000).tail(), (99.0, 990.0));
        assert_eq!(seq(1_000_000).tail_percentile(), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0]), 0.0);
    }
}
