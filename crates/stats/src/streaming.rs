//! Mergeable online reducers for the streaming result pipeline.
//!
//! Campaign runs fold every processed query into accumulators as it
//! completes instead of buffering `Vec<ProcessedQuery>` columns for a
//! batch pass at the end. Two regimes coexist:
//!
//! * **Exact** accumulators ([`QuantileAcc::exact`], [`SummaryAcc`] in
//!   exact mode) buffer raw values in arrival order and, at finish time,
//!   sort a copy and call the *same* batch helpers as the legacy path
//!   ([`quantile_sorted`], [`Summary::of`]). Because sorting erases
//!   arrival order, their results are **bit-identical** to the batch
//!   functions — for any shard split, as long as shards are merged by
//!   concatenation (the campaign merges run reports in descriptor
//!   order). Figures that assert shapes on exact quantiles use these so
//!   golden TSVs stay byte-identical.
//! * **Sketch** accumulators ([`Welford`], [`QuantileAcc::with_cap`]
//!   past its cap) keep O(1)/O(cap) state and trade bit-exactness for
//!   bounded memory. They are deterministic — compaction is a pure
//!   function of the pushed sequence, with no randomization — so a
//!   campaign merged in descriptor order still yields byte-identical
//!   reports at any thread count.
//!
//! The merge-order determinism rule: every accumulator's `merge` is a
//! pure function of `(self, other)` state. Campaign shards therefore
//! must be merged in a canonical order (descriptor order); exact-mode
//! accumulators happen to be merge-order *independent* as well, sketch
//! accumulators are not.

use crate::ecdf::Ecdf;
use crate::quantile::{quantile_sorted, Summary};

// ---------------------------------------------------------------------
// Welford mean / variance
// ---------------------------------------------------------------------

/// Online mean/variance in O(1) state (Welford's algorithm), mergeable
/// with Chan et al.'s pairwise combination. Also tracks min/max.
///
/// Numerically stable but not bit-identical to the two-pass batch
/// [`crate::quantile::variance`]; use it where approximate moments are
/// acceptable (monitoring, sketch-mode summaries).
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel combine).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += delta * other.n as f64 / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Population variance (n denominator); `None` before the first
    /// sample.
    pub fn variance(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.m2 / self.n as f64)
        }
    }

    /// Sample standard deviation (n−1 denominator); `None` below two
    /// samples.
    pub fn sample_std(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some((self.m2 / (self.n - 1) as f64).sqrt())
        }
    }

    /// Smallest sample; `None` before the first sample.
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample; `None` before the first sample.
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

// ---------------------------------------------------------------------
// Arrival-order running mean
// ---------------------------------------------------------------------

/// Running left-to-right sum and count — reproduces the batch
/// [`crate::quantile::mean`] bit-for-bit when samples are pushed in the
/// same order the batch slice held them (f64 addition is
/// order-sensitive; this accumulator preserves it).
#[derive(Clone, Copy, Debug, Default)]
pub struct MeanAcc {
    n: u64,
    sum: f64,
}

impl MeanAcc {
    /// An empty accumulator.
    pub fn new() -> MeanAcc {
        MeanAcc::default()
    }

    /// Folds in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
    }

    /// Appends another accumulator's samples after this one's
    /// (`sum + other.sum` — exact only when the concatenation order
    /// matches the batch order).
    pub fn merge(&mut self, other: &MeanAcc) {
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Number of samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean; `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.sum / self.n as f64)
        }
    }
}

// ---------------------------------------------------------------------
// Exact-when-small / sketch-when-huge quantile accumulator
// ---------------------------------------------------------------------

/// Quantile accumulator that is exact below a cap and degrades to a
/// deterministic weighted-centroid sketch above it.
///
/// * **Exact mode** (`len < cap`): values are buffered in arrival
///   order, 8 bytes each; every query sorts a copy and delegates to the
///   batch [`quantile_sorted`], so results are bit-identical to
///   [`crate::quantile::quantile`] on the same multiset — including
///   after arbitrary shard splits merged by concatenation.
/// * **Sketch mode** (cap reached): the buffer is collapsed into
///   weighted centroids by merging adjacent (sorted) pairs, halving the
///   entry count; quantiles interpolate on the cumulative-weight curve.
///   Compaction is a pure function of the pushed sequence (no
///   randomness), so results stay deterministic, but they are
///   approximate and merge-order dependent.
#[derive(Clone, Debug)]
pub struct QuantileAcc {
    buf: Buf,
    cap: usize,
    n: u64,
}

/// The buffered samples of a [`QuantileAcc`].
#[derive(Clone, Debug)]
enum Buf {
    /// Every sample in arrival order; each weighs 1.
    Exact(Vec<f64>),
    /// `(value, weight)` centroids, built at the first compaction (or
    /// by merging a sketch in).
    Sketch(Vec<(f64, u64)>),
}

impl QuantileAcc {
    /// An accumulator that stays exact forever (unbounded buffer). Use
    /// for figures whose golden output asserts exact quantiles.
    pub fn exact() -> QuantileAcc {
        QuantileAcc {
            buf: Buf::Exact(Vec::new()),
            cap: usize::MAX,
            n: 0,
        }
    }

    /// An accumulator that switches to sketch mode once `cap` entries
    /// are buffered. Panics if `cap < 8` (too coarse to interpolate).
    pub fn with_cap(cap: usize) -> QuantileAcc {
        assert!(cap >= 8, "QuantileAcc cap too small");
        QuantileAcc {
            buf: Buf::Exact(Vec::new()),
            cap,
            n: 0,
        }
    }

    /// Folds in one sample. NaN is rejected with a panic — it indicates
    /// an upstream bug (matching the batch helpers).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample in QuantileAcc");
        self.n += 1;
        match &mut self.buf {
            Buf::Exact(v) => v.push(x),
            Buf::Sketch(c) => c.push((x, 1)),
        }
        if self.buffered() >= self.cap {
            self.compact();
        }
    }

    /// Merges another accumulator by concatenating its entries after
    /// this one's. Exact + exact under the cap stays exact (and is
    /// merge-order independent); otherwise the result is a sketch.
    pub fn merge(&mut self, other: &QuantileAcc) {
        self.n += other.n;
        match (&mut self.buf, &other.buf) {
            (Buf::Exact(v), Buf::Exact(w)) => v.extend_from_slice(w),
            (_, Buf::Exact(w)) => self.centroids().extend(w.iter().map(|&x| (x, 1))),
            (_, Buf::Sketch(w)) => self.centroids().extend_from_slice(w),
        }
        if self.buffered() >= self.cap {
            self.compact();
        }
    }

    /// Entries buffered: samples while exact, centroids once sketched.
    fn buffered(&self) -> usize {
        match &self.buf {
            Buf::Exact(v) => v.len(),
            Buf::Sketch(c) => c.len(),
        }
    }

    /// The centroids, turning exact samples into weight-1 centroids
    /// first: from here on the accumulator is a sketch.
    fn centroids(&mut self) -> &mut Vec<(f64, u64)> {
        if let Buf::Exact(v) = &self.buf {
            self.buf = Buf::Sketch(v.iter().map(|&x| (x, 1)).collect());
        }
        match &mut self.buf {
            Buf::Sketch(c) => c,
            Buf::Exact(_) => unreachable!("converted above"),
        }
    }

    /// Collapses sorted adjacent pairs into weighted centroids until
    /// the entry count is at most half the cap.
    fn compact(&mut self) {
        let cap = self.cap;
        let entries = self.centroids();
        while entries.len() >= cap {
            entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in QuantileAcc"));
            let mut out = Vec::with_capacity(entries.len() / 2 + 1);
            let mut it = entries.chunks_exact(2);
            for pair in &mut it {
                let (v0, w0) = pair[0];
                let (v1, w1) = pair[1];
                let w = w0 + w1;
                out.push(((v0 * w0 as f64 + v1 * w1 as f64) / w as f64, w));
            }
            if let [last] = it.remainder() {
                out.push(*last);
            }
            *entries = out;
        }
    }

    /// Number of samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True while no compaction has happened (results bit-identical to
    /// the batch helpers).
    pub fn is_exact(&self) -> bool {
        matches!(self.buf, Buf::Exact(_))
    }

    /// Bytes retained by the buffer — the quantity the memory benchmark
    /// tracks: 8 per buffered sample while exact, 16 per centroid once
    /// sketched.
    pub fn retained_bytes(&self) -> usize {
        match &self.buf {
            Buf::Exact(v) => v.capacity() * std::mem::size_of::<f64>(),
            Buf::Sketch(c) => c.capacity() * std::mem::size_of::<(f64, u64)>(),
        }
    }

    /// The buffered values in arrival order; `None` once sketched. Lets
    /// finishers reuse batch consumers ([`Summary::of`],
    /// [`crate::BoxSummary`]) unchanged.
    pub fn values(&self) -> Option<Vec<f64>> {
        match &self.buf {
            Buf::Exact(v) => Some(v.clone()),
            Buf::Sketch(_) => None,
        }
    }

    /// Quantile `q ∈ [0, 1]`; `None` when empty or out of range.
    /// Bit-identical to [`crate::quantile::quantile`] while exact.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.buffered() == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let centroids = match &self.buf {
            Buf::Exact(v) => {
                let mut sorted = v.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in QuantileAcc"));
                return Some(quantile_sorted(&sorted, q));
            }
            Buf::Sketch(c) => c,
        };
        let mut v = centroids.clone();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in QuantileAcc"));
        // Weighted type-7-style interpolation on centroid midranks.
        let total: u64 = v.iter().map(|&(_, w)| w).sum();
        if total == 1 {
            return Some(v[0].0);
        }
        let h = q * (total - 1) as f64;
        let mut cum = 0u64;
        let mut prev: Option<(f64, f64)> = None; // (midrank, value)
        for &(val, w) in &v {
            let mid = cum as f64 + (w as f64 - 1.0) / 2.0;
            if let Some((pm, pv)) = prev {
                if h <= mid {
                    if (mid - pm).abs() < f64::EPSILON {
                        return Some(val);
                    }
                    let frac = (h - pm) / (mid - pm);
                    return Some(pv * (1.0 - frac) + val * frac);
                }
            } else if h <= mid {
                return Some(val);
            }
            prev = Some((mid, val));
            cum += w;
        }
        Some(v.last().unwrap().0)
    }

    /// The median; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Interquartile range; `None` when empty.
    pub fn iqr(&self) -> Option<f64> {
        Some(self.quantile(0.75)? - self.quantile(0.25)?)
    }

    /// Builds an [`Ecdf`] over the buffered samples; `None` once
    /// sketched (an ECDF needs every sample).
    pub fn ecdf(&self) -> Option<Ecdf> {
        self.values().map(|v| Ecdf::new(&v))
    }
}

// ---------------------------------------------------------------------
// Streaming Summary
// ---------------------------------------------------------------------

/// Streaming counterpart of [`Summary`]: an exact buffer (finish calls
/// [`Summary::of`] verbatim → bit-identical) backed by a [`Welford`]
/// fallback once the buffer is sketched.
#[derive(Clone, Debug)]
pub struct SummaryAcc {
    q: QuantileAcc,
    w: Welford,
}

impl SummaryAcc {
    /// An accumulator that stays exact forever.
    pub fn exact() -> SummaryAcc {
        SummaryAcc {
            q: QuantileAcc::exact(),
            w: Welford::new(),
        }
    }

    /// An accumulator with a buffer cap (sketch beyond).
    pub fn with_cap(cap: usize) -> SummaryAcc {
        SummaryAcc {
            q: QuantileAcc::with_cap(cap),
            w: Welford::new(),
        }
    }

    /// Folds in one sample.
    pub fn push(&mut self, x: f64) {
        self.q.push(x);
        self.w.push(x);
    }

    /// Merges another accumulator (concatenation order).
    pub fn merge(&mut self, other: &SummaryAcc) {
        self.q.merge(&other.q);
        self.w.merge(&other.w);
    }

    /// Number of samples folded so far.
    pub fn count(&self) -> u64 {
        self.w.count()
    }

    /// True while the summary is bit-identical to [`Summary::of`].
    pub fn is_exact(&self) -> bool {
        self.q.is_exact()
    }

    /// Bytes retained by the buffer.
    pub fn retained_bytes(&self) -> usize {
        self.q.retained_bytes()
    }

    /// The summary; `None` when empty. Exact mode delegates to
    /// [`Summary::of`] on the buffered values; sketch mode assembles
    /// the summary from Welford moments and sketch quantiles.
    pub fn summary(&self) -> Option<Summary> {
        if self.count() == 0 {
            return None;
        }
        if let Some(v) = self.q.values() {
            return Summary::of(&v);
        }
        Some(Summary {
            n: self.w.count() as usize,
            mean: self.w.mean().unwrap(),
            std: self.w.sample_std().unwrap_or(0.0),
            min: self.w.min().unwrap(),
            p25: self.q.quantile(0.25).unwrap(),
            median: self.q.quantile(0.5).unwrap(),
            p75: self.q.quantile(0.75).unwrap(),
            p95: self.q.quantile(0.95).unwrap(),
            max: self.w.max().unwrap(),
        })
    }
}

impl Default for SummaryAcc {
    fn default() -> SummaryAcc {
        SummaryAcc::exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::{mean, median, quantile, sample_std, variance};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 101) as f64 * 0.75).collect()
    }

    #[test]
    fn welford_matches_batch_moments() {
        let xs = ramp(500);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 500);
        assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-9);
        assert!((w.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-9);
        assert!((w.sample_std().unwrap() - sample_std(&xs).unwrap()).abs() < 1e-9);
        assert_eq!(
            w.min().unwrap(),
            xs.iter().cloned().fold(f64::INFINITY, f64::min)
        );
    }

    #[test]
    fn welford_merge_matches_single_stream() {
        let xs = ramp(301);
        for split in [0, 1, 150, 300, 301] {
            let (a, b) = xs.split_at(split);
            let mut wa = Welford::new();
            let mut wb = Welford::new();
            a.iter().for_each(|&x| wa.push(x));
            b.iter().for_each(|&x| wb.push(x));
            wa.merge(&wb);
            assert!((wa.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-9);
            assert!((wa.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-8);
        }
    }

    #[test]
    fn mean_acc_is_bit_identical_in_arrival_order() {
        let xs = ramp(777);
        let mut m = MeanAcc::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.mean().unwrap(), mean(&xs).unwrap());
    }

    #[test]
    fn exact_quantiles_are_bit_identical() {
        let xs = ramp(400);
        let mut q = QuantileAcc::exact();
        for &x in &xs {
            q.push(x);
        }
        assert!(q.is_exact());
        // Exact samples cost 8 bytes each (within the buffer's growth).
        assert!(
            q.retained_bytes() <= 8 * xs.len().next_power_of_two(),
            "{} bytes retained for {} samples",
            q.retained_bytes(),
            xs.len()
        );
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0] {
            assert_eq!(q.quantile(p), quantile(&xs, p));
        }
        assert_eq!(q.median(), median(&xs));
        assert_eq!(q.iqr(), crate::quantile::iqr(&xs));
    }

    #[test]
    fn exact_merge_is_bit_identical_for_any_split() {
        let xs = ramp(250);
        for split in [0, 1, 97, 249, 250] {
            let (a, b) = xs.split_at(split);
            let mut qa = QuantileAcc::exact();
            let mut qb = QuantileAcc::exact();
            a.iter().for_each(|&x| qa.push(x));
            b.iter().for_each(|&x| qb.push(x));
            qa.merge(&qb);
            assert!(qa.is_exact());
            assert_eq!(qa.median(), median(&xs));
            assert_eq!(qa.quantile(0.95), quantile(&xs, 0.95));
        }
    }

    #[test]
    fn sketch_mode_bounds_memory_and_stays_close() {
        let n: u64 = 200_000;
        let mut q = QuantileAcc::with_cap(512);
        for i in 0..n {
            // Deterministic pseudo-shuffle of a uniform grid.
            q.push(((i * 48_271) % n) as f64);
        }
        assert!(!q.is_exact());
        assert!(q.buffered() < 512);
        assert!(q.retained_bytes() < 512 * 16 * 2);
        assert_eq!(q.count(), n);
        let med = q.median().unwrap();
        let expect = (n - 1) as f64 / 2.0;
        assert!(
            (med - expect).abs() < expect * 0.02,
            "sketch median {med} vs {expect}"
        );
        // Monotone in q, clamped to range.
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = q.quantile(i as f64 / 20.0).unwrap();
            assert!(v >= last && v >= 0.0 && v <= (n - 1) as f64);
            last = v;
        }
    }

    #[test]
    fn sketch_is_deterministic() {
        let push_all = || {
            let mut q = QuantileAcc::with_cap(64);
            for i in 0..10_000u64 {
                q.push(((i * 2_654_435_761) % 10_000) as f64);
            }
            q
        };
        let (mut a, mut b) = (push_all(), push_all());
        assert!(!a.is_exact());
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.quantile(0.9), b.quantile(0.9));
    }

    #[test]
    fn summary_acc_exact_matches_batch_summary() {
        let xs = ramp(321);
        let mut s = SummaryAcc::exact();
        for &x in &xs {
            s.push(x);
        }
        assert!(s.is_exact());
        assert_eq!(s.summary(), Summary::of(&xs));
        assert!(SummaryAcc::exact().summary().is_none());
    }

    #[test]
    fn summary_acc_sketch_mode_is_sane() {
        let mut s = SummaryAcc::with_cap(128);
        for i in 0..50_000u64 {
            s.push(((i * 7919) % 1000) as f64);
        }
        assert!(!s.is_exact());
        let sum = s.summary().unwrap();
        assert_eq!(sum.n, 50_000);
        assert_eq!(sum.min, 0.0);
        assert_eq!(sum.max, 999.0);
        assert!((sum.mean - 499.5).abs() < 5.0);
        assert!(sum.p25 < sum.median && sum.median < sum.p75 && sum.p75 < sum.p95);
    }

    #[test]
    fn ecdf_from_exact_acc() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let mut q = QuantileAcc::exact();
        xs.iter().for_each(|&x| q.push(x));
        let e = q.ecdf().unwrap();
        assert_eq!(e.fraction_le(3.0), 0.6);
        let mut sk = QuantileAcc::with_cap(8);
        (0..100).for_each(|i| sk.push(i as f64));
        assert!(sk.ecdf().is_none());
    }

    // ---------- merge edge cases (telemetry relies on these) ----------

    #[test]
    fn merge_with_empty_is_identity_in_either_direction() {
        let xs = ramp(120);

        let mut w = Welford::new();
        xs.iter().for_each(|&x| w.push(x));
        let mut w_right = w;
        w_right.merge(&Welford::new());
        let mut w_left = Welford::new();
        w_left.merge(&w);
        for got in [&w_right, &w_left] {
            assert_eq!(got.count(), w.count());
            assert_eq!(got.mean().unwrap().to_bits(), w.mean().unwrap().to_bits());
            assert_eq!(
                got.variance().unwrap().to_bits(),
                w.variance().unwrap().to_bits()
            );
            assert_eq!(got.min().unwrap().to_bits(), w.min().unwrap().to_bits());
            assert_eq!(got.max().unwrap().to_bits(), w.max().unwrap().to_bits());
        }

        let mut m = MeanAcc::new();
        xs.iter().for_each(|&x| m.push(x));
        let mut m_right = m;
        m_right.merge(&MeanAcc::new());
        let mut m_left = MeanAcc::new();
        m_left.merge(&m);
        assert_eq!(m_right.count(), m.count());
        assert_eq!(m_left.count(), m.count());
        assert_eq!(
            m_right.mean().unwrap().to_bits(),
            m.mean().unwrap().to_bits()
        );
        assert_eq!(
            m_left.mean().unwrap().to_bits(),
            m.mean().unwrap().to_bits()
        );

        let mut q = QuantileAcc::exact();
        xs.iter().for_each(|&x| q.push(x));
        let mut q_right = q.clone();
        q_right.merge(&QuantileAcc::exact());
        let mut q_left = QuantileAcc::exact();
        q_left.merge(&q);
        for got in [&q_right, &q_left] {
            assert_eq!(got.count(), q.count());
            assert!(got.is_exact());
            assert_eq!(got.values(), q.values());
        }

        let mut s = SummaryAcc::exact();
        xs.iter().for_each(|&x| s.push(x));
        let mut s_right = SummaryAcc::exact();
        xs.iter().for_each(|&x| s_right.push(x));
        s_right.merge(&SummaryAcc::exact());
        let mut s_left = SummaryAcc::exact();
        s_left.merge(&s);
        assert_eq!(s_right.summary(), s.summary());
        assert_eq!(s_left.summary(), s.summary());

        // Empty ∪ empty stays empty (no spurious zero-count summary).
        let mut e = SummaryAcc::exact();
        e.merge(&SummaryAcc::exact());
        assert_eq!(e.count(), 0);
        assert!(e.summary().is_none());
    }

    #[test]
    fn quantile_acc_at_exact_to_sketch_cap_boundary() {
        // cap = 8: exactness must survive exactly up to (cap - 1)
        // buffered entries and flip on the push that reaches the cap.
        let mut q = QuantileAcc::with_cap(8);
        for i in 0..7 {
            q.push(i as f64);
            assert!(q.is_exact(), "exactness lost before the cap (i={i})");
        }
        assert_eq!(q.values().unwrap().len(), 7);
        q.push(7.0);
        assert!(!q.is_exact(), "push reaching the cap must compact");
        assert_eq!(q.count(), 8, "compaction must not lose the count");
        assert!(q.values().is_none());
        // The sketch still answers with in-range, ordered quantiles.
        let (p25, p50, p95) = (
            q.quantile(0.25).unwrap(),
            q.quantile(0.5).unwrap(),
            q.quantile(0.95).unwrap(),
        );
        assert!((0.0..=7.0).contains(&p25));
        assert!(p25 <= p50 && p50 <= p95);

        // The merge path crosses the same boundary: 4 + 4 entries into
        // a cap-8 accumulator compacts, 4 + 3 stays exact.
        let mut four_a = QuantileAcc::with_cap(8);
        let mut four_b = QuantileAcc::with_cap(8);
        (0..4).for_each(|i| four_a.push(i as f64));
        (4..8).for_each(|i| four_b.push(i as f64));
        four_a.merge(&four_b);
        assert!(!four_a.is_exact());
        assert_eq!(four_a.count(), 8);

        let mut three = QuantileAcc::with_cap(8);
        (0..3).for_each(|i| three.push(i as f64));
        let mut four_c = QuantileAcc::with_cap(8);
        (0..4).for_each(|i| four_c.push(i as f64));
        four_c.merge(&three);
        assert!(four_c.is_exact(), "7 entries under an 8 cap stays exact");
        assert_eq!(four_c.values().unwrap().len(), 7);
    }

    #[test]
    #[should_panic(expected = "cap too small")]
    fn quantile_acc_rejects_caps_below_eight() {
        let _ = QuantileAcc::with_cap(7);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Merging three shards is associative: ((a∪b)∪c) and (a∪(b∪c))
        /// agree with each other and with single-stream accumulation —
        /// bitwise for the exact quantile buffer (concatenation order
        /// is identical), exactly for counts, and within float-merge
        /// tolerance for Welford/MeanAcc moments (their merges are not
        /// bitwise associative).
        #[test]
        fn three_way_split_merge_is_associative(
            xs in prop::collection::vec(0.0f64..1.0e6, 0..150),
            cut_a in 0u64..151,
            cut_b in 0u64..151,
        ) {
            let (mut i, mut j) = (
                (cut_a as usize).min(xs.len()),
                (cut_b as usize).min(xs.len()),
            );
            if i > j {
                std::mem::swap(&mut i, &mut j);
            }
            let parts = [&xs[..i], &xs[i..j], &xs[j..]];

            // Exact quantile buffers: bitwise associative.
            let fill_q = |part: &[f64]| {
                let mut q = QuantileAcc::exact();
                part.iter().for_each(|&x| q.push(x));
                q
            };
            let [qb, qc] = [fill_q(parts[1]), fill_q(parts[2])];
            let mut left = fill_q(parts[0]);
            left.merge(&qb);
            left.merge(&qc);
            let mut bc = fill_q(parts[1]);
            bc.merge(&qc);
            let mut right = fill_q(parts[0]);
            right.merge(&bc);
            let single = fill_q(&xs);
            prop_assert_eq!(left.count(), single.count());
            prop_assert_eq!(right.count(), single.count());
            let want = single.values();
            prop_assert_eq!(left.values(), want.clone());
            prop_assert_eq!(right.values(), want);

            // Moment accumulators: counts exact, moments near-equal.
            let fill_w = |part: &[f64]| {
                let mut w = Welford::new();
                part.iter().for_each(|&x| w.push(x));
                w
            };
            let mut wl = fill_w(parts[0]);
            wl.merge(&fill_w(parts[1]));
            wl.merge(&fill_w(parts[2]));
            let mut wbc = fill_w(parts[1]);
            wbc.merge(&fill_w(parts[2]));
            let mut wr = fill_w(parts[0]);
            wr.merge(&wbc);
            let ws = fill_w(&xs);
            prop_assert_eq!(wl.count(), ws.count());
            prop_assert_eq!(wr.count(), ws.count());
            if !xs.is_empty() {
                let m = ws.mean().unwrap();
                let tol = 1e-9 * m.abs().max(1.0);
                prop_assert!((wl.mean().unwrap() - m).abs() <= tol);
                prop_assert!((wr.mean().unwrap() - m).abs() <= tol);
                let v = ws.variance().unwrap();
                let vtol = 1e-6 * v.abs().max(1.0);
                prop_assert!((wl.variance().unwrap() - v).abs() <= vtol);
                prop_assert!((wr.variance().unwrap() - v).abs() <= vtol);
                // min/max are order-free: bitwise equal.
                prop_assert_eq!(
                    wl.min().unwrap().to_bits(),
                    ws.min().unwrap().to_bits()
                );
                prop_assert_eq!(
                    wr.max().unwrap().to_bits(),
                    ws.max().unwrap().to_bits()
                );
            }

            let fill_m = |part: &[f64]| {
                let mut m = MeanAcc::new();
                part.iter().for_each(|&x| m.push(x));
                m
            };
            let mut ml = fill_m(parts[0]);
            ml.merge(&fill_m(parts[1]));
            ml.merge(&fill_m(parts[2]));
            let ms = fill_m(&xs);
            prop_assert_eq!(ml.count(), ms.count());
            if !xs.is_empty() {
                let m = ms.mean().unwrap();
                prop_assert!((ml.mean().unwrap() - m).abs() <= 1e-9 * m.abs().max(1.0));
            }
        }
    }
}
