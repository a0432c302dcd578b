//! Back-end processing-time models.
//!
//! The Fig. 9 regression puts the two services' per-query computation
//! times an order of magnitude apart (Y-intercepts ≈ 260 ms for Bing vs
//! ≈ 34 ms for Google), and Sec. 4.2 attributes Bing's extra `Tdynamic`
//! variance to "processing capability and load fluctuations on the BE
//! data centers, the search algorithm being used". The models here encode
//! exactly those degrees of freedom:
//!
//! * a base `Tproc` distribution per service,
//! * per-keyword-class multipliers (popular queries are warm in BE
//!   caches; complex/uncorrelated queries walk more of the index),
//! * a slowly varying multiplicative *load process* (AR(1)-style), with
//!   service-specific variance.

use crate::keywords::KeywordClass;
use simcore::dist::Dist;
use simcore::rng::Rng;

/// A slowly varying multiplicative load factor in `[1, 1 + amplitude]`.
///
/// Each step nudges the level by a bounded random increment — busy spells
/// persist across consecutive queries, which is what makes Bing's
/// `Tdynamic` wander in Fig. 3 rather than just jitter.
#[derive(Clone, Debug)]
pub struct LoadProcess {
    level: f64,
    amplitude: f64,
    volatility: f64,
}

impl LoadProcess {
    /// Creates a load process with the given peak `amplitude` (0 = no
    /// load effect) and per-step `volatility`.
    pub fn new(amplitude: f64, volatility: f64) -> LoadProcess {
        assert!(amplitude >= 0.0 && volatility >= 0.0);
        LoadProcess {
            level: 0.3, // start mildly loaded, not at an extreme
            amplitude,
            volatility,
        }
    }

    /// Advances the process one step and returns the current
    /// multiplicative factor (≥ 1).
    pub fn step(&mut self, rng: &mut Rng) -> f64 {
        let nudge = (rng.next_f64() - 0.5) * 2.0 * self.volatility;
        self.level = (self.level + nudge).clamp(0.0, 1.0);
        1.0 + self.level * self.amplitude
    }
}

/// The processing-time profile of one back-end service.
#[derive(Clone, Debug)]
pub struct BackendProfile {
    /// Service name (report labels).
    pub name: &'static str,
    /// Base `Tproc` distribution in ms (for a Refined-class query at
    /// load 1.0).
    pub base_ms: Dist,
    /// Multipliers per [`KeywordClass`] (indexed by `class.index()`).
    pub class_mult: [f64; 4],
    /// Load-process amplitude (peak multiplicative slowdown − 1).
    pub load_amplitude: f64,
    /// Load-process volatility per query.
    pub load_volatility: f64,
    /// Processing-time discount applied to correlated follow-up queries
    /// in "search as you type" sessions (Sec. 6: "the search query
    /// processing times ... are generally reduced because the subsequent
    /// queries are highly correlated with previous queries").
    pub instant_discount: f64,
}

impl BackendProfile {
    /// The Google-like back-end: fast, stable `Tproc` (Fig. 9 intercept
    /// ≈ 34 ms).
    pub fn google_like() -> BackendProfile {
        BackendProfile {
            name: "google-like",
            base_ms: Dist::lognormal_median_spread(30.0, 1.18),
            class_mult: [0.6, 1.0, 1.7, 1.4],
            load_amplitude: 0.25,
            load_volatility: 0.05,
            instant_discount: 0.45,
        }
    }

    /// The Bing-like back-end: slower and far more variable `Tproc`
    /// (Fig. 9 intercept ≈ 260 ms; Figs. 3/7/8 variance).
    pub fn bing_like() -> BackendProfile {
        BackendProfile {
            name: "bing-like",
            base_ms: Dist::lognormal_median_spread(120.0, 1.4),
            class_mult: [0.55, 1.0, 1.9, 1.5],
            load_amplitude: 0.6,
            load_volatility: 0.08,
            instant_discount: 0.5,
        }
    }

    /// Draws one `Tproc` sample in ms for a query of `class` under the
    /// supplied load factor.
    pub fn sample_ms(&self, class: KeywordClass, load: f64, rng: &mut Rng) -> f64 {
        let base = self.base_ms.sample(rng).max(1.0);
        base * self.class_mult[class.index()] * load
    }

    /// Nominal (median-ish) `Tproc` for a Refined query at load 1 — used
    /// by calibration assertions and reports.
    pub fn nominal_ms(&self) -> f64 {
        self.base_ms.mean().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_process_stays_in_bounds_and_wanders() {
        let mut lp = LoadProcess::new(1.0, 0.1);
        let mut rng = Rng::from_seed(3);
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        for _ in 0..10_000 {
            let f = lp.step(&mut rng);
            assert!((1.0..=2.0).contains(&f), "factor {f}");
            min = min.min(f);
            max = max.max(f);
        }
        assert!(max - min > 0.5, "process should explore its range");
    }

    #[test]
    fn zero_amplitude_means_constant_one() {
        let mut lp = LoadProcess::new(0.0, 0.1);
        let mut rng = Rng::from_seed(4);
        for _ in 0..100 {
            assert_eq!(lp.step(&mut rng), 1.0);
        }
    }

    #[test]
    fn load_is_persistent_across_steps() {
        // Consecutive factors should be highly correlated (small steps).
        let mut lp = LoadProcess::new(1.0, 0.05);
        let mut rng = Rng::from_seed(5);
        let mut prev = lp.step(&mut rng);
        for _ in 0..1000 {
            let cur = lp.step(&mut rng);
            assert!((cur - prev).abs() <= 0.051, "jump {} too large", cur - prev);
            prev = cur;
        }
    }

    #[test]
    fn bing_like_is_slower_and_more_variable_than_google_like() {
        let g = BackendProfile::google_like();
        let b = BackendProfile::bing_like();
        let mut rng = Rng::from_seed(6);
        let sample = |p: &BackendProfile, rng: &mut Rng| -> Vec<f64> {
            (0..20_000)
                .map(|_| p.sample_ms(KeywordClass::Refined, 1.0, rng))
                .collect()
        };
        let gs = sample(&g, &mut rng);
        let bs = sample(&b, &mut rng);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let std = |v: &[f64]| {
            let m = mean(v);
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!(
            mean(&bs) > 3.0 * mean(&gs),
            "bing {} vs google {}",
            mean(&bs),
            mean(&gs)
        );
        assert!(std(&bs) > 3.0 * std(&gs));
    }

    #[test]
    fn class_ordering_matches_expectations() {
        let p = BackendProfile::bing_like();
        let mut rng = Rng::from_seed(7);
        let avg = |class: KeywordClass, rng: &mut Rng| {
            (0..5000).map(|_| p.sample_ms(class, 1.0, rng)).sum::<f64>() / 5000.0
        };
        let popular = avg(KeywordClass::Popular, &mut rng);
        let refined = avg(KeywordClass::Refined, &mut rng);
        let complex = avg(KeywordClass::Complex, &mut rng);
        let mix = avg(KeywordClass::UncorrelatedMix, &mut rng);
        assert!(popular < refined && refined < mix && mix < complex);
    }

    #[test]
    fn load_multiplies_processing_time() {
        let p = BackendProfile::google_like();
        let mut r1 = Rng::from_seed(9);
        let mut r2 = Rng::from_seed(9);
        let unloaded = p.sample_ms(KeywordClass::Refined, 1.0, &mut r1);
        let loaded = p.sample_ms(KeywordClass::Refined, 2.0, &mut r2);
        assert!((loaded / unloaded - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_gap_is_order_of_magnitude() {
        let g = BackendProfile::google_like().nominal_ms();
        let b = BackendProfile::bing_like().nominal_ms();
        assert!(b / g > 4.0, "gap {}x", b / g);
    }
}
