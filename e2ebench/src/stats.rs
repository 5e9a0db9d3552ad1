//! Order statistics: the median and the tail rule.

/// Samples strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count); 0
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency and the percentile it sits at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile of `value`, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above `value`'s rank.
    pub beyond: usize,
}

/// The tail rule: the highest nearest-rank percentile that still has
/// `beyond` samples above it, i.e. the sample of rank `n - beyond`
/// (1-based) at percentile `100 (n - beyond) / n`. With `beyond` or fewer
/// samples no percentile qualifies; the maximum is returned with the
/// shortfall visible in `beyond`.
pub fn tail(xs: &[f64], beyond: usize) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return Tail {
            percentile: 0.0,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = if n > beyond { n - beyond } else { n };
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    }
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
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=100: rank 90 → p90 = 90, exactly ten samples above.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 25 samples: rank 15 → p60.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND);
        assert_eq!((t.value, t.percentile), (15.0, 60.0));

        // 1000 samples: p99 exactly.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, TAIL_BEYOND).percentile, 99.0);
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_maximum() {
        let xs = [5.0, 1.0, 9.0];
        let t = tail(&xs, TAIL_BEYOND);
        assert_eq!((t.value, t.percentile, t.beyond), (9.0, 100.0, 0));
        let t = tail(&[], TAIL_BEYOND);
        assert_eq!(t.samples, 0);
    }
}
