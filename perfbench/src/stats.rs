//! The benchmark's own arithmetic: medians, nearest-rank percentiles with
//! their tail-sample count, and geometric means.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Samples a tail percentile must have beyond it before it is reported
/// as a measured value rather than an indication.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A nearest-rank percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(q * n)`.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn meets_tail_rule(&self) -> bool {
        self.beyond >= MIN_TAIL_SAMPLES
    }
}

/// The nearest-rank `q`-percentile (`0 < q <= 1`) of `xs`: the smallest
/// sample with at least `q * n` samples at or below it. `None` for an
/// empty slice or `q` outside `(0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> Option<Percentile> {
    if xs.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    // The epsilon keeps `0.9 * 100` from rounding up to rank 91.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(Percentile {
        value: s[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Geometric mean of positive values; `None` when `xs` is empty or holds
/// a value that is not positive and finite.
pub fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_of_100_samples_has_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&xs, 0.9).expect("non-empty");
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 10);
        assert!(p.meets_tail_rule());
    }

    #[test]
    fn p90_of_99_samples_fails_the_tail_rule() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let p = percentile(&xs, 0.9).expect("non-empty");
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 9);
        assert!(!p.meets_tail_rule());
    }

    #[test]
    fn percentile_is_order_independent_and_bounded() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5).map(|p| p.value), Some(3.0));
        assert_eq!(
            percentile(&xs, 1.0).map(|p| (p.value, p.beyond)),
            Some((5.0, 0))
        );
        assert_eq!(percentile(&xs, 0.01).map(|p| p.value), Some(1.0));
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn gmean_of_ratios() {
        let g = gmean(&[1.0, 4.0]).expect("positive");
        assert!((g - 2.0).abs() < 1e-12);
        let g = gmean(&[0.5, 2.0, 1.0]).expect("positive");
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), None);
        assert_eq!(gmean(&[1.0, 0.0]), None);
        assert_eq!(gmean(&[1.0, f64::NAN]), None);
    }
}
