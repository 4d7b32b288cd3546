//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples, and a
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie above
//! it: a tail figure resting on fewer points moves with every run.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported as trustworthy.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples in the set.
    pub n: usize,
    /// Samples ranked after the percentile's own.
    pub beyond: usize,
}

impl Pct {
    /// Whether enough samples lie beyond the percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `samples`, which need not be
/// sorted. `None` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct { value: sorted[rank - 1], n, beyond: n - rank })
}

/// Percentile `p` of each of `slices` contiguous, equal-count slices of
/// `samples` (taken in time order), and the median over the slices: a burst
/// of slow samples confined to a slice or two then barely moves the result.
/// A slice holds a whole number of `period`s when the samples allow; samples
/// past the last whole slice are left out. `n` counts the samples used;
/// `beyond` is the smallest count beyond the percentile in any slice.
pub fn sliced_percentile(samples: &[f64], p: f64, slices: usize, period: usize) -> Option<Pct> {
    let slices = slices.clamp(1, samples.len().max(1));
    let even = samples.len() / slices;
    let len = match even / period.max(1) * period.max(1) {
        0 => even,
        whole => whole,
    };
    let per: Vec<Pct> =
        samples.chunks_exact(len.max(1)).take(slices).filter_map(|s| percentile(s, p)).collect();
    let values: Vec<f64> = per.iter().map(|q| q.value).collect();
    let n = per.iter().map(|q| q.n).sum();
    Some(Pct { value: median(&values)?, n, beyond: per.iter().map(|q| q.beyond).min()? })
}

/// Slices for percentile `p` of `n` samples: as many as keep at least
/// [`MIN_BEYOND`] samples beyond the percentile in every slice (20 samples a
/// slice for p50, 100 for p90), between 1 and 10. Samples that cycle through
/// `period` kinds of request get slices of whole periods.
pub fn slices_for(n: usize, p: f64, period: usize) -> usize {
    let period = period.max(1);
    let per_slice = (MIN_BEYOND as f64 / (1.0 - p)).round() as usize;
    (n / per_slice.div_ceil(period).max(1) / period).clamp(1, 10)
}

/// Median of `samples` (the mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&xs, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p99 = percentile(&xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&[7.0], 0.5).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 0.6), percentile(&b, 0.6));
        assert_eq!(median(&a), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn slicing_confines_a_burst() {
        // ten slices of 100; one slice is ten times slower throughout
        let mut xs: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for x in &mut xs[300..400] {
            *x *= 10.0;
        }
        let sliced = sliced_percentile(&xs, 0.9, 10, 1).unwrap();
        assert_eq!((sliced.value, sliced.n, sliced.beyond), (89.0, 1000, 10));
        assert!(percentile(&xs, 0.9).unwrap().value > 89.0, "pooled p90 sees the burst");
        assert_eq!(sliced_percentile(&xs, 0.5, 1, 1), percentile(&xs, 0.5));
        assert!(sliced_percentile(&[], 0.5, 4, 1).is_none());
        // whole periods: 3 slices of 2 × 32 out of 200, the last 8 left out
        let ys: Vec<f64> = (0..200).map(|i| f64::from(i % 32)).collect();
        let by_period = sliced_percentile(&ys, 0.5, 3, 32).unwrap();
        assert_eq!((by_period.value, by_period.n, by_period.beyond), (15.0, 192, 32));
    }

    #[test]
    fn slices_keep_ten_beyond_each() {
        assert_eq!(slices_for(199, 0.5, 1), 9);
        assert_eq!(slices_for(200, 0.5, 1), 10);
        assert_eq!(slices_for(5000, 0.5, 1), 10);
        assert_eq!(slices_for(99, 0.9, 1), 1);
        assert_eq!(slices_for(250, 0.9, 1), 2);
        assert_eq!(slices_for(3, 0.9, 1), 1);
        // whole periods: 32 a slice for p50, 128 for p90; 5 kinds fit 20 and 100
        assert_eq!(slices_for(200, 0.5, 32), 6);
        assert_eq!(slices_for(200, 0.9, 32), 1);
        assert_eq!(slices_for(300, 0.9, 32), 2);
        assert_eq!(slices_for(219, 0.5, 5), 10);
        assert_eq!(slices_for(219, 0.9, 5), 2);
        for (n, p, period) in
            [(199, 0.5, 1), (250, 0.9, 1), (1234, 0.9, 1), (41, 0.5, 1), (200, 0.5, 32)]
        {
            let xs: Vec<f64> = (0..n).map(|i| f64::from(i as u32)).collect();
            let slices = slices_for(n, p, period);
            let pct = sliced_percentile(&xs, p, slices, period).unwrap();
            assert!(pct.supported(), "{n} {p} {period}");
        }
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 needs 100 samples, p99 needs 1000, p50 needs 20.
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&xs, 0.9).unwrap().supported());
        assert!(!percentile(&xs[..99], 0.9).unwrap().supported());
        assert!(!percentile(&xs, 0.99).unwrap().supported());
        assert!(percentile(&xs[..20], 0.5).unwrap().supported());
        assert!(!percentile(&xs[..19], 0.5).unwrap().supported());
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&big, 0.99).unwrap().supported());
    }
}
