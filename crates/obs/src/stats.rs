//! Order statistics: the one quantile convention and the one summary type
//! behind every bench boxplot row and every campaign cell.

/// The `p`-quantile (`0.0..=1.0`) of an ascending, non-empty sample by
/// linear interpolation between closest ranks (the "type 7" definition R
/// and NumPy default to).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let h = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Order statistics over one sample: the five boxplot numbers a row of the
/// paper's Figure 2 needs, the 90th percentile a campaign cell reports,
/// and the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize raw samples. Returns `None` for an empty input.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Option<Summary> {
        let mut v: Vec<f64> = values.into_iter().collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            p90: quantile(&v, 0.9),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_single_value() {
        let s = Summary::of([2.0]).unwrap();
        assert_eq!(s.min, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.p90, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn summary_known_quartiles() {
        // 0..=8: median 4, q1 2, q3 6 under type-7 quantiles.
        let s = Summary::of((0..9).map(f64::from)).unwrap();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.q3, 6.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn summary_interpolates() {
        let s = Summary::of([1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
    }

    #[test]
    fn summary_p90_interpolates() {
        let s = Summary::of([4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert!((s.p90 - 4.6).abs() < 1e-9, "type-7 p90 of 1..5 is 4.6");
        assert_eq!(s.p90, quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9));
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of([]).is_none());
    }
}
