//! Probability distributions for the latency, loss, load and
//! processing-time models.
//!
//! Implemented in-tree (rather than via `rand_distr`) to keep the exact
//! draw sequences pinned by this repository. Each distribution documents
//! the sampling algorithm it uses. [`Dist`] is the enum used in model
//! configuration (serialisable as plain data).

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// A configurable distribution over `f64`.
///
/// Negative-valued samples are meaningful for some uses (e.g. symmetric
/// jitter); users that need a non-negative quantity should wrap in
/// [`Dist::TruncatedBelow`] or clamp at the call site.
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Exponential with the given mean (inverse-CDF sampling).
    Exponential {
        /// Mean (= 1/λ).
        mean: f64,
    },
    /// Normal via the Box–Muller transform.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))` where `mu`/`sigma` are the
    /// parameters of the underlying normal (i.e. of `ln X`).
    LogNormal {
        /// Mean of `ln X`.
        mu: f64,
        /// Standard deviation of `ln X`.
        sigma: f64,
    },
    /// Mixture of two components: with probability `p` draw from `a`,
    /// otherwise from `b`. Captures bimodal server-load regimes
    /// (quiescent vs busy multi-tenant FE).
    Mix {
        /// Probability of drawing from `a`.
        p: f64,
        /// First component.
        a: Box<Dist>,
        /// Second component.
        b: Box<Dist>,
    },
    /// Rejection-free lower truncation: samples below `lo` are clamped.
    TruncatedBelow {
        /// Floor applied to every sample.
        lo: f64,
        /// Underlying distribution.
        inner: Box<Dist>,
    },
}

impl Dist {
    /// Convenience constructor for a log-normal specified by its *linear*
    /// median and a multiplicative spread factor `s` (the ratio of the
    /// ~84th percentile to the median). `median > 0`, `s > 1`.
    ///
    /// This parameterisation reads naturally in latency models: "median
    /// 15 ms, spread 1.6×".
    pub fn lognormal_median_spread(median: f64, s: f64) -> Dist {
        assert!(median > 0.0 && s > 1.0, "bad lognormal parameters");
        Dist::LogNormal {
            mu: median.ln(),
            sigma: s.ln(),
        }
    }

    /// Draws one sample using the supplied generator.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Exponential { mean } => -mean * rng.next_f64_open().ln(),
            Dist::Normal { mean, std } => {
                // Box–Muller; one draw discarded for statelessness.
                let u1 = rng.next_f64_open();
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                mean + std * z
            }
            Dist::LogNormal { mu, sigma } => {
                let n = Dist::Normal {
                    mean: *mu,
                    std: *sigma,
                };
                n.sample(rng).exp()
            }
            Dist::Mix { p, a, b } => {
                if rng.chance(*p) {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
            Dist::TruncatedBelow { lo, inner } => inner.sample(rng).max(*lo),
        }
    }

    /// The distribution's mean, if finite and known in closed form.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(v) => Some(*v),
            Dist::Exponential { mean } => Some(*mean),
            Dist::Normal { mean, .. } => Some(*mean),
            Dist::LogNormal { mu, sigma } => Some((mu + 0.5 * sigma * sigma).exp()),
            Dist::Mix { p, a, b } => Some(p * a.mean()? + (1.0 - p) * b.mean()?),
            Dist::TruncatedBelow { .. } => None,
        }
    }
}

/// Draws from a Zipf distribution over ranks `1..=n` with exponent `s`,
/// by inverse-CDF on a precomputed table. Used for keyword popularity.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the rank table for `n` items with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the table is empty (never: `new` requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a 0-based rank (0 = most popular).
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Dynamic-popularity workload model: a Zipf law whose rank→item mapping
/// drifts under shot-noise churn, with an optional diurnal arrival-rate
/// wave.
///
/// The churn follows the shot-noise model of cache-analysis literature:
/// content renewal events arrive as a Poisson process at `churn_per_sec`;
/// each shot promotes a uniformly drawn catalog item into a
/// Zipf-distributed popularity rank (displacing the item currently
/// there), so the popular set slowly rotates while the marginal rank
/// distribution stays exactly Zipf. With `churn_per_sec == 0` the model
/// is **inert**: a [`PopularityProcess`] draws nothing from its churn
/// stream and reproduces plain [`Zipf::sample_rank`] draws exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct PopularityModel {
    /// Zipf exponent of the marginal rank distribution.
    pub exponent: f64,
    /// Shot-noise churn rate (popularity-renewal shots per virtual
    /// second). 0 disables churn entirely.
    pub churn_per_sec: f64,
    /// Diurnal arrival-rate wave amplitude `A` in
    /// `rate(t) = 1 + A·sin(2πt/T)`; 0 keeps the rate flat. Consulted by
    /// workload generators via [`PopularityModel::rate_factor`], never by
    /// the draw path.
    pub diurnal_amplitude: f64,
    /// Diurnal wave period `T`.
    pub diurnal_period: SimDuration,
}

impl PopularityModel {
    /// A static Zipf law: no churn, no diurnal wave — the inert
    /// configuration.
    pub fn static_zipf(exponent: f64) -> PopularityModel {
        PopularityModel {
            exponent,
            churn_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: SimDuration::from_secs(86_400),
        }
    }

    /// Enables shot-noise churn at `per_sec` renewal shots per second.
    pub fn with_churn(mut self, per_sec: f64) -> PopularityModel {
        assert!(per_sec >= 0.0, "negative churn rate");
        self.churn_per_sec = per_sec;
        self
    }

    /// Enables the diurnal arrival-rate wave.
    pub fn with_diurnal(mut self, amplitude: f64, period: SimDuration) -> PopularityModel {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1) so the rate stays positive"
        );
        assert!(!period.is_zero(), "diurnal period must be positive");
        self.diurnal_amplitude = amplitude;
        self.diurnal_period = period;
        self
    }

    /// The arrival-rate multiplier `1 + A·sin(2πt/T)` at `now` (exactly
    /// 1.0 when the amplitude is 0).
    pub fn rate_factor(&self, now: SimTime) -> f64 {
        if self.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let phase = now.as_secs_f64() / self.diurnal_period.as_secs_f64();
        1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * phase).sin()
    }
}

/// The evolving state of a [`PopularityModel`] over a catalog of `n`
/// items: a [`Zipf`] rank law composed with a churning rank→item
/// permutation.
///
/// Churn shots are drawn from the process's **own** RNG stream (passed
/// at construction, conventionally a named child stream), never from the
/// caller's draw stream — so arming churn perturbs only the mapping, and
/// a zero-churn process consumes the caller's stream exactly like a bare
/// `Zipf`. Advancing is lazy: shots up to `now` are applied on the next
/// [`sample`](PopularityProcess::sample) or
/// [`advance`](PopularityProcess::advance) call.
///
/// Until the first churn shot the mapping is the identity and no
/// permutation is stored, so a static process holds only its Zipf
/// table.
#[derive(Clone, Debug)]
pub struct PopularityProcess {
    model: PopularityModel,
    zipf: Zipf,
    /// rank → item id; empty while the mapping is the identity (before
    /// the first shot).
    slots: Vec<u32>,
    /// item id → rank (inverse of `slots`, empty with it).
    rank_of: Vec<u32>,
    churn: Rng,
    next_shot: Option<SimTime>,
}

impl PopularityProcess {
    /// Builds the process over `n` catalog items. `churn_rng` must be a
    /// stream owned by this process (e.g.
    /// `Rng::from_seed_and_name(seed, "emulator/popularity")`); it is
    /// only drawn from when the model has churn. Panics unless every
    /// item id fits a `u32`.
    pub fn new(n: usize, model: PopularityModel, mut churn_rng: Rng) -> PopularityProcess {
        assert!(
            u32::try_from(n).is_ok(),
            "a catalog of {n} items does not fit u32 item ids"
        );
        let zipf = Zipf::new(n, model.exponent);
        let next_shot = if model.churn_per_sec > 0.0 {
            Some(SimTime::ZERO + exp_gap(&mut churn_rng, model.churn_per_sec))
        } else {
            None
        };
        PopularityProcess {
            model,
            zipf,
            slots: Vec::new(),
            rank_of: Vec::new(),
            churn: churn_rng,
            next_shot,
        }
    }

    /// The model this process evolves.
    pub fn model(&self) -> &PopularityModel {
        &self.model
    }

    /// Catalog size.
    pub fn catalog(&self) -> usize {
        self.zipf.len()
    }

    /// The item currently occupying popularity rank `rank` (0 = most
    /// popular).
    pub fn item_at_rank(&self, rank: usize) -> u64 {
        if self.slots.is_empty() {
            assert!(rank < self.catalog(), "rank {rank} out of range");
            rank as u64
        } else {
            self.slots[rank] as u64
        }
    }

    /// Heap bytes the process holds: the Zipf rank table and, once
    /// churn has moved it, the rank↔item permutation (4 bytes per item
    /// each way).
    pub fn retained_bytes(&self) -> usize {
        self.zipf.cdf.capacity() * std::mem::size_of::<f64>()
            + (self.slots.capacity() + self.rank_of.capacity()) * std::mem::size_of::<u32>()
    }

    /// Applies every churn shot at or before `now`. A shot at time `t`
    /// affects all draws at `t` and later.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(t) = self.next_shot {
            if t > now {
                break;
            }
            if self.slots.is_empty() {
                // The first shot leaves the identity: store it.
                self.slots = (0..self.catalog() as u32).collect();
                self.rank_of = self.slots.clone();
            }
            // One shot: promote a uniformly drawn item into a
            // Zipf-drawn rank, swapping with the incumbent so the
            // mapping stays a permutation.
            let item = self.churn.next_below(self.catalog() as u64) as usize;
            let rank = self.zipf.sample_rank(&mut self.churn);
            let old_rank = self.rank_of[item];
            let displaced = self.slots[rank];
            self.slots.swap(rank, old_rank as usize);
            self.rank_of[item] = rank as u32;
            self.rank_of[displaced as usize] = old_rank;
            self.next_shot = t.checked_add(exp_gap(&mut self.churn, self.model.churn_per_sec));
        }
    }

    /// Draws one item id at virtual time `now` using the caller's
    /// `draw_rng`: exactly one `Zipf` rank draw from `draw_rng`.
    pub fn sample(&mut self, now: SimTime, draw_rng: &mut Rng) -> u64 {
        self.advance(now);
        self.item_at_rank(self.zipf.sample_rank(draw_rng))
    }
}

/// One exponential inter-shot gap for rate `per_sec` (> 0).
fn exp_gap(rng: &mut Rng, per_sec: f64) -> SimDuration {
    let secs = -(1.0 / per_sec) * rng.next_f64_open().ln();
    SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::from_seed(12345)
    }

    fn empirical_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(4.2);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 4.2);
        }
        assert_eq!(d.mean(), Some(4.2));
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::Exponential { mean: 3.0 };
        assert!((empirical_mean(&d, 200_000) - 3.0).abs() < 0.05);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Dist::Normal {
            mean: 10.0,
            std: 2.0,
        };
        assert!((empirical_mean(&d, 200_000) - 10.0).abs() < 0.05);
        let mut r = rng();
        let within: usize = (0..100_000)
            .filter(|_| (d.sample(&mut r) - 10.0).abs() < 2.0)
            .count();
        // ~68.3% within one sigma
        assert!((66_000..71_000).contains(&within), "within {within}");
    }

    #[test]
    fn lognormal_median_spread_parameterisation() {
        let d = Dist::lognormal_median_spread(15.0, 1.6);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[50_000];
        assert!((median - 15.0).abs() < 0.5, "median {median}");
        let p84 = samples[84_134];
        assert!(
            (p84 / median - 1.6).abs() < 0.1,
            "p84/median {}",
            p84 / median
        );
    }

    #[test]
    fn mix_interpolates_means() {
        let d = Dist::Mix {
            p: 0.75,
            a: Box::new(Dist::Constant(0.0)),
            b: Box::new(Dist::Constant(8.0)),
        };
        assert_eq!(d.mean(), Some(2.0));
        assert!((empirical_mean(&d, 100_000) - 2.0).abs() < 0.1);
    }

    #[test]
    fn truncated_below_clamps() {
        let t = Dist::TruncatedBelow {
            lo: 0.0,
            inner: Box::new(Dist::Normal {
                mean: 0.0,
                std: 1.0,
            }),
        };
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(t.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for _ in 0..200_000 {
            counts[z.sample_rank(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[49]);
        // rank-1 frequency for s=1, n=100: 1/H(100) ≈ 0.1928
        let f0 = counts[0] as f64 / 200_000.0;
        assert!((f0 - 0.1928).abs() < 0.01, "f0 {f0}");
        assert_eq!(z.len(), 100);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn static_popularity_process_matches_plain_zipf() {
        // The inert contract: churn 0 must reproduce bare Zipf draws from the caller's stream exactly, and never touch
        // the churn stream (compared via the untouched clone).
        let model = PopularityModel::static_zipf(0.9);
        let mut p = PopularityProcess::new(500, model, Rng::from_seed(777));
        let untouched = Rng::from_seed(777);
        let z = Zipf::new(500, 0.9);
        let mut a = rng();
        let mut b = rng();
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(i * 13);
            assert_eq!(p.sample(t, &mut a), z.sample_rank(&mut b) as u64);
        }
        // No churn draws: the process's stream state is untouched.
        assert_eq!(p.churn.clone().next_u64(), untouched.clone().next_u64());
        // No permutation either: the process holds its Zipf table only.
        assert_eq!(p.retained_bytes(), 500 * std::mem::size_of::<f64>());
    }

    #[test]
    fn churn_rotates_the_popular_set_deterministically() {
        let model = PopularityModel::static_zipf(0.9).with_churn(5.0);
        let mk = || PopularityProcess::new(300, model.clone(), Rng::from_seed_and_name(9, "pop"));
        let mut p = mk();
        let mut q = mk();
        p.advance(SimTime::from_secs(200));
        q.advance(SimTime::from_secs(200));
        // ~1000 shots: the identity mapping cannot have survived.
        let moved = (0..300).filter(|&r| p.item_at_rank(r) != r as u64).count();
        assert!(moved > 100, "only {moved} ranks moved after 1000 shots");
        // Same stream, same shots: byte-deterministic evolution, and
        // incremental advance equals one big advance.
        let mut inc = mk();
        for s in 0..200u64 {
            inc.advance(SimTime::from_secs(s + 1));
        }
        for r in 0..300 {
            assert_eq!(p.item_at_rank(r), q.item_at_rank(r));
            assert_eq!(p.item_at_rank(r), inc.item_at_rank(r));
        }
        // The mapping stays a permutation, stored as 4-byte ids each
        // way next to the 8-byte Zipf table.
        let mut seen: Vec<u64> = (0..300).map(|r| p.item_at_rank(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
        assert_eq!(p.retained_bytes(), 300 * 8 + 2 * 300 * 4);
    }

    #[test]
    fn churned_marginal_stays_zipf_shaped() {
        // Churn rotates *which* item is popular, not how popular the
        // top rank is: rank-0 draws keep their Zipf frequency.
        let model = PopularityModel::static_zipf(1.0).with_churn(2.0);
        let mut p = PopularityProcess::new(100, model, Rng::from_seed_and_name(3, "pop"));
        let mut r = rng();
        let mut top = 0u32;
        let n = 100_000u64;
        for i in 0..n {
            let t = SimTime::from_millis(i * 10);
            let item = p.sample(t, &mut r);
            if p.item_at_rank(0) == item {
                top += 1;
            }
        }
        let f0 = top as f64 / n as f64;
        assert!((f0 - 0.1928).abs() < 0.015, "rank-0 frequency {f0}");
    }

    #[test]
    fn diurnal_rate_factor_waves_around_one() {
        let flat = PopularityModel::static_zipf(0.9);
        assert_eq!(flat.rate_factor(SimTime::from_secs(12_345)), 1.0);
        let m = flat.with_diurnal(0.5, SimDuration::from_secs(1_000));
        assert!((m.rate_factor(SimTime::ZERO) - 1.0).abs() < 1e-12);
        assert!((m.rate_factor(SimTime::from_secs(250)) - 1.5).abs() < 1e-9);
        assert!((m.rate_factor(SimTime::from_secs(750)) - 0.5).abs() < 1e-9);
        // Never non-positive for amplitude < 1.
        for s in 0..2_000u64 {
            assert!(m.rate_factor(SimTime::from_secs(s)) > 0.0);
        }
    }
}
