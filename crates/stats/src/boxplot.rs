//! Box-plot (five-number) summaries.
//!
//! Fig. 8 of the paper shows, per PlanetLab node, a box plot of the
//! overall response-time distribution. [`BoxSummary`] computes the
//! standard Tukey box: quartiles, whiskers at the last sample within
//! 1.5·IQR of the box, and the outliers beyond them.

use crate::quantile::quantile_sorted;

/// A Tukey box-plot summary of one sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxSummary {
    /// Number of samples.
    pub n: usize,
    /// Lower whisker (smallest sample ≥ q1 − 1.5·IQR).
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (largest sample ≤ q3 + 1.5·IQR).
    pub whisker_hi: f64,
    /// Samples outside the whiskers, in ascending order.
    pub outliers: Vec<f64>,
}

impl BoxSummary {
    /// Computes the box summary; `None` for empty input.
    pub fn of(xs: &[f64]) -> Option<BoxSummary> {
        if xs.is_empty() {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in BoxSummary input"));
        let q1 = quantile_sorted(&v, 0.25);
        let median = quantile_sorted(&v, 0.5);
        let q3 = quantile_sorted(&v, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // Whisker = most extreme sample within the fence, clamped to the
        // box (with few samples, every low datum can be an outlier and
        // the nearest in-fence sample may sit above Q1 — plotting
        // convention keeps whiskers attached to the box).
        let whisker_lo = v
            .iter()
            .find(|&&x| x >= lo_fence)
            .expect("q1 is within the fence")
            .min(q1);
        let whisker_hi = v
            .iter()
            .rev()
            .find(|&&x| x <= hi_fence)
            .expect("q3 is within the fence")
            .max(q3);
        let outliers: Vec<f64> = v
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        Some(BoxSummary {
            n: v.len(),
            whisker_lo,
            q1,
            median,
            q3,
            whisker_hi,
            outliers,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_data_without_outliers() {
        let xs: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        let b = BoxSummary::of(&xs).unwrap();
        assert_eq!(b.median, 6.0);
        assert_eq!(b.q1, 3.5);
        assert_eq!(b.q3, 8.5);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 11.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.iqr(), 5.0);
    }

    #[test]
    fn detects_outliers() {
        let mut xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        xs.push(1000.0);
        let b = BoxSummary::of(&xs).unwrap();
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_hi <= 20.0);
    }

    #[test]
    fn constant_data_degenerates_cleanly() {
        let b = BoxSummary::of(&[5.0; 9]).unwrap();
        assert_eq!(b.q1, 5.0);
        assert_eq!(b.q3, 5.0);
        assert_eq!(b.whisker_lo, 5.0);
        assert_eq!(b.whisker_hi, 5.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn empty_is_none() {
        assert!(BoxSummary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let b = BoxSummary::of(&[3.0]).unwrap();
        assert_eq!(b.n, 1);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.whisker_lo, 3.0);
        assert_eq!(b.whisker_hi, 3.0);
    }

    #[test]
    fn outliers_on_both_sides() {
        let mut xs: Vec<f64> = (10..=30).map(|i| i as f64).collect();
        xs.push(-500.0);
        xs.push(500.0);
        let b = BoxSummary::of(&xs).unwrap();
        assert_eq!(b.outliers, vec![-500.0, 500.0]);
    }
}
