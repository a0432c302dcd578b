//! The benchmark's reducer: one [`BenchSink`] per run folds every
//! processed query into an output digest, the latency samples, the Eq. 1
//! bracket check and (on `fixed_fe`) the paper's per-vantage medians.

use cdnsim::QueryOutcome;
use emulator::{ProcessedQuery, QuerySink};
use inference::{estimate_rtt_threshold, FetchBounds, GroupMediansAcc, SessionTally};

/// Tolerance of the Eq. 1 bracket check, in ms — the one the runner's
/// own unit test uses.
pub const BRACKET_TOL_MS: f64 = 12.0;

/// 64-bit FNV-1a: a dependency-free, platform-stable digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds eight bytes.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float by its exact bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Folds a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(b as u64);
        }
    }

    /// Folds a run's outcome tally.
    pub fn tally(&mut self, t: &SessionTally) {
        for n in [
            t.ok,
            t.degraded,
            t.retried,
            t.timed_out,
            t.shed,
            t.no_live_fe,
            t.skipped,
        ] {
            self.u64(n as u64);
        }
    }
}

fn outcome_code(o: QueryOutcome) -> u64 {
    match o {
        QueryOutcome::Ok => 0,
        QueryOutcome::Degraded => 1,
        QueryOutcome::Retried(n) => 2 | (n as u64) << 8,
        QueryOutcome::TimedOut { attempts } => 3 | (attempts as u64) << 8,
        QueryOutcome::Shed { attempts } => 4 | (attempts as u64) << 8,
        QueryOutcome::NoLiveFe { attempts } => 5 | (attempts as u64) << 8,
    }
}

/// Per-run streaming reducer.
#[derive(Debug)]
pub struct BenchSink {
    digest: Digest,
    latencies_ms: Vec<f64>,
    groups: Option<GroupMediansAcc>,
    bracket_checked: usize,
    bracket_misses: usize,
}

/// What [`BenchSink::finish_groups`] leaves for the threshold step.
#[derive(Debug)]
pub struct Grouped {
    digest: Digest,
    latencies_ms: Vec<f64>,
    points: Option<Vec<(f64, f64)>>,
    bracket_checked: usize,
    bracket_misses: usize,
}

/// A run's reduction.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutput {
    /// Digest of every processed query, in completion order, plus the
    /// threshold estimate.
    pub digest: Digest,
    /// Client-observed overall delay of each served, extracted query.
    pub latencies_ms: Vec<f64>,
    /// Ok queries with ground truth checked against Eq. 1.
    pub bracket_checked: usize,
    /// Of those, the ones outside the bracket.
    pub bracket_misses: usize,
    /// The `Tdelta → 0` RTT threshold, ms (grouped runs only).
    pub threshold_ms: Option<f64>,
}

impl BenchSink {
    /// A sink; `grouped` adds the exact per-vantage median reducer.
    pub fn new(grouped: bool) -> BenchSink {
        BenchSink {
            digest: Digest::default(),
            latencies_ms: Vec::new(),
            groups: grouped.then(GroupMediansAcc::exact),
            bracket_checked: 0,
            bracket_misses: 0,
        }
    }

    /// Reduces the per-vantage medians (the first half of `finish`).
    pub fn finish_groups(self) -> Grouped {
        let points = self.groups.map(|acc| {
            acc.finish()
                .iter()
                .map(|g| (g.rtt_ms, g.t_delta_ms))
                .collect()
        });
        Grouped {
            digest: self.digest,
            latencies_ms: self.latencies_ms,
            points,
            bracket_checked: self.bracket_checked,
            bracket_misses: self.bracket_misses,
        }
    }
}

impl Grouped {
    /// Estimates the RTT threshold from the medians, as `fig5` does (the
    /// second half of `finish`).
    pub fn estimate_threshold(self) -> RunOutput {
        let mut digest = self.digest;
        let groups = self.points.as_ref().map_or(0, Vec::len);
        let threshold_ms = self.points.and_then(|points| {
            let thr = estimate_rtt_threshold(&points, 3.0, 25.0);
            thr.linear_intercept_ms.or(thr.binned_first_zero_ms)
        });
        digest.u64(groups as u64);
        digest.f64(threshold_ms.unwrap_or(-1.0));
        RunOutput {
            digest,
            latencies_ms: self.latencies_ms,
            bracket_checked: self.bracket_checked,
            bracket_misses: self.bracket_misses,
            threshold_ms,
        }
    }
}

impl QuerySink for BenchSink {
    type Output = RunOutput;

    fn on_query(&mut self, q: &ProcessedQuery) {
        let d = &mut self.digest;
        d.u64(q.qid);
        d.u64(q.client as u64);
        d.u64(q.fe.map_or(u64::MAX, |f| f as u64));
        d.u64(q.be as u64);
        d.u64(q.keyword);
        d.f64(q.t_start_ms);
        let p = &q.params;
        for x in [
            p.rtt_ms,
            p.t_static_ms,
            p.t_dynamic_ms,
            p.t_delta_ms,
            p.overall_ms,
            q.proc_ms,
            q.fe_overhead_ms,
            q.true_fetch_ms.unwrap_or(-1.0),
        ] {
            d.f64(x);
        }
        d.u64(p.static_bytes);
        d.u64(p.total_bytes);
        d.u64(outcome_code(q.outcome));
        if q.outcome.served() {
            self.latencies_ms.push(p.overall_ms);
        }
        if q.outcome == QueryOutcome::Ok {
            if let Some(truth) = q.true_fetch_ms {
                self.bracket_checked += 1;
                if !FetchBounds::from_params(p).contains(truth, BRACKET_TOL_MS) {
                    self.bracket_misses += 1;
                }
            }
        }
        if let Some(acc) = &mut self.groups {
            acc.push(q.client as u64, p);
        }
    }

    fn retained_bytes(&self) -> usize {
        self.latencies_ms.capacity() * std::mem::size_of::<f64>()
            + self
                .groups
                .as_ref()
                .map_or(0, GroupMediansAcc::retained_bytes)
    }

    fn finish(self) -> RunOutput {
        self.finish_groups().estimate_threshold()
    }
}
