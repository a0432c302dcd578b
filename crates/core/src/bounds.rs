//! The fetch-time bracket — Eq. (1) of the paper.
//!
//! `Tfetch` (forward the query to the BE + generate the response +
//! deliver it to the FE) is invisible at the client. Eq. (1) brackets it
//! with two client-side observables:
//!
//! ```text
//! Tdelta ≤ Tfetch ≤ Tdynamic
//! ```
//!
//! The upper bound is loose by the FE service overhead plus half an
//! access RTT; the lower bound degrades to 0 once the static delivery
//! outlasts the fetch. The *small-RTT* regime is therefore where the
//! bracket is informative — which is why Fig. 9 restricts itself to
//! vantage points near the FE ("for smaller values of RTT, Tdynamic can
//! be considered as an approximation for the Tfetch").

use crate::params::QueryParams;

/// A bracket on the unobservable fetch time, in ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FetchBounds {
    /// Lower bound (`Tdelta`).
    pub lower_ms: f64,
    /// Upper bound (`Tdynamic`).
    pub upper_ms: f64,
}

impl FetchBounds {
    /// Derives the bracket from one query's parameters.
    pub fn from_params(p: &QueryParams) -> FetchBounds {
        FetchBounds {
            lower_ms: p.t_delta_ms,
            upper_ms: p.t_dynamic_ms,
        }
    }

    /// Bracket width (how informative the bound is).
    pub fn width_ms(&self) -> f64 {
        (self.upper_ms - self.lower_ms).max(0.0)
    }

    /// True if a candidate fetch time is inside the bracket (with
    /// tolerance for measurement noise).
    pub fn contains(&self, fetch_ms: f64, tol_ms: f64) -> bool {
        fetch_ms >= self.lower_ms - tol_ms && fetch_ms <= self.upper_ms + tol_ms
    }

    /// Combines brackets from repeated queries to one FE: the fetch time
    /// is (modeled as) a stable quantity, so the intersection of
    /// per-query brackets tightens the estimate — `max` of lowers, `min`
    /// of uppers. Returns `None` for empty input or an empty
    /// intersection (which falsifies the stability assumption).
    pub fn intersect_all(bounds: &[FetchBounds]) -> Option<FetchBounds> {
        let mut lo = f64::NEG_INFINITY;
        let mut hi = f64::INFINITY;
        if bounds.is_empty() {
            return None;
        }
        for b in bounds {
            lo = lo.max(b.lower_ms);
            hi = hi.min(b.upper_ms);
        }
        if lo <= hi {
            Some(FetchBounds {
                lower_ms: lo,
                upper_ms: hi,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: f64, hi: f64) -> FetchBounds {
        FetchBounds {
            lower_ms: lo,
            upper_ms: hi,
        }
    }

    #[test]
    fn bracket_from_params() {
        let p = QueryParams {
            rtt_ms: 10.0,
            t_static_ms: 25.0,
            t_dynamic_ms: 180.0,
            t_delta_ms: 155.0,
            overall_ms: 400.0,
            static_bytes: 9000,
            total_bytes: 30000,
        };
        let fb = FetchBounds::from_params(&p);
        assert_eq!(fb.lower_ms, 155.0);
        assert_eq!(fb.upper_ms, 180.0);
        assert_eq!(fb.width_ms(), 25.0);
        assert!(fb.contains(170.0, 0.0));
        assert!(!fb.contains(150.0, 0.0));
        assert!(fb.contains(150.0, 6.0));
    }

    #[test]
    fn intersection_tightens() {
        let combined =
            FetchBounds::intersect_all(&[b(100.0, 200.0), b(150.0, 220.0), b(120.0, 190.0)])
                .unwrap();
        assert_eq!(combined.lower_ms, 150.0);
        assert_eq!(combined.upper_ms, 190.0);
    }

    #[test]
    fn empty_intersection_is_none() {
        assert!(FetchBounds::intersect_all(&[b(100.0, 120.0), b(200.0, 250.0)]).is_none());
        assert!(FetchBounds::intersect_all(&[]).is_none());
    }

    #[test]
    fn degenerate_lower_bound_zero() {
        // Coalesced regime: Tdelta = 0, the bracket is [0, Tdynamic].
        let fb = b(0.0, 250.0);
        assert!(fb.contains(100.0, 0.0));
        assert_eq!(fb.width_ms(), 250.0);
    }
}
