//! Moving (rolling) statistics.
//!
//! The paper smooths per-query time series with a **moving median of
//! window 10** before plotting Fig. 3 ("as the performance is susceptible
//! to short-term fluctuations, we plot the moving median with the sample
//! window size being 10"). [`moving_median`] reproduces that exactly.

use crate::quantile::quantile_sorted;

/// Moving median with a trailing window of `window` samples.
///
/// Output has the same length as the input; the first `window − 1`
/// positions use the partial window available so far (the convention that
/// keeps plotted series aligned with their sample index, as in Fig. 3).
/// Panics if `window == 0`.
pub fn moving_median(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "moving_median: zero window");
    let mut out = Vec::with_capacity(xs.len());
    let mut buf: Vec<f64> = Vec::with_capacity(window);
    for (i, &x) in xs.iter().enumerate() {
        let start = i.saturating_sub(window - 1);
        buf.clear();
        buf.extend_from_slice(&xs[start..=i]);
        buf.sort_by(|a, b| a.partial_cmp(b).expect("NaN in moving_median"));
        out.push(quantile_sorted(&buf, 0.5));
        let _ = x;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_one_is_identity() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(moving_median(&xs, 1), xs.to_vec());
    }

    #[test]
    fn median_suppresses_spikes() {
        let mut xs = vec![10.0; 50];
        xs[25] = 1000.0; // a one-sample spike
        let sm = moving_median(&xs, 10);
        assert!(sm.iter().all(|&v| v == 10.0));
    }

    #[test]
    fn partial_windows_at_start() {
        let xs = [1.0, 100.0, 2.0];
        let sm = moving_median(&xs, 3);
        assert_eq!(sm[0], 1.0); // window = [1]
        assert_eq!(sm[1], 50.5); // window = [1, 100]
        assert_eq!(sm[2], 2.0); // window = [1, 100, 2] → median 2
    }

    #[test]
    fn output_length_matches_input() {
        let xs: Vec<f64> = (0..37).map(|i| i as f64).collect();
        assert_eq!(moving_median(&xs, 10).len(), 37);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(moving_median(&[], 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn zero_window_panics() {
        moving_median(&[1.0], 0);
    }
}
