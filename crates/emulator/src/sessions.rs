//! Session-slab workloads: million-session campaigns in O(live
//! sessions) memory.
//!
//! [`DatasetA`](crate::dataset_a::DatasetA)/[`DatasetB`](crate::dataset_b::DatasetB)
//! designs fix every query when they are scheduled. A
//! [`SessionWorkload`] instead describes the workload generatively —
//! session count, arrival rate, and a [`PopularityModel`] for keyword
//! draws — and a [`SessionFeeder`] materialises sessions lazily, one
//! time chunk at a time, as the runner drains completions. At any
//! instant the world holds only the sessions that are live or due
//! within a chunk, so 10^6 sessions run in the same peak memory as 10^5
//! (the `exp_popularity` memory contract).
//!
//! Determinism: the feeder is a pure iterator over two named RNG
//! streams (`emulator/sessions` for arrivals, `emulator/popularity` for
//! churn). Each session's draws — client, keywords, next inter-arrival
//! gap — form one contiguous block in stream order, so the generated
//! schedule is independent of how the runner batches `feed` calls, and
//! byte-identical at any `FECDN_THREADS`.

use cdnsim::{QuerySpec, ServiceWorld};
use simcore::dist::{PopularityModel, PopularityProcess};
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};
use tcpsim::Sim;

/// A generative session workload: `sessions` client sessions arriving
/// as a (diurnally modulated) Poisson process, each issuing
/// `queries_per_session` keyword draws from a [`PopularityModel`]
/// spaced by `think`.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    /// Total sessions to generate.
    pub sessions: u64,
    /// Queries per session (drawn at session start, spaced by `think`).
    pub queries_per_session: u32,
    /// Think time between a session's consecutive queries.
    pub think: SimDuration,
    /// Mean inter-session arrival gap (exponentially distributed; the
    /// workload model's diurnal wave modulates the instantaneous rate).
    pub mean_gap: SimDuration,
    /// Virtual-time offset of the first session.
    pub start: SimDuration,
    /// Keyword popularity model (static Zipf by default; churn, diurnal
    /// waves and flash crowds compose on top).
    pub popularity: PopularityModel,
    /// Pin every query to this FE (None = per-client DNS default).
    pub fixed_fe: Option<usize>,
}

impl SessionWorkload {
    /// A workload of `sessions` single-query sessions under a static
    /// Zipf(0.9) popularity model, arriving every 50 ms on average.
    pub fn new(sessions: u64) -> SessionWorkload {
        SessionWorkload {
            sessions,
            queries_per_session: 1,
            think: SimDuration::from_secs(2),
            mean_gap: SimDuration::from_millis(50),
            start: SimDuration::from_millis(1),
            popularity: PopularityModel::static_zipf(0.9),
            fixed_fe: None,
        }
    }

    /// Sets queries per session.
    pub fn with_queries_per_session(mut self, n: u32) -> SessionWorkload {
        assert!(n > 0);
        self.queries_per_session = n;
        self
    }

    /// Sets the think time between a session's queries.
    pub fn with_think(mut self, think: SimDuration) -> SessionWorkload {
        self.think = think;
        self
    }

    /// Sets the mean inter-session arrival gap.
    pub fn with_mean_gap(mut self, gap: SimDuration) -> SessionWorkload {
        assert!(!gap.is_zero());
        self.mean_gap = gap;
        self
    }

    /// Sets the keyword popularity model.
    pub fn with_popularity(mut self, model: PopularityModel) -> SessionWorkload {
        self.popularity = model;
        self
    }

    /// Pins every query to one FE (cache experiments need a single
    /// cache to observe).
    pub fn with_fixed_fe(mut self, fe: usize) -> SessionWorkload {
        self.fixed_fe = Some(fe);
        self
    }

    /// Total queries the workload will generate.
    pub fn total_queries(&self) -> u64 {
        self.sessions * self.queries_per_session as u64
    }
}

/// One materialised session: start instant, issuing client, and the
/// keyword sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    /// Virtual start time.
    pub start: SimTime,
    /// Issuing client (vantage index).
    pub client: usize,
    /// Keywords, one per query, `think`-spaced from `start`.
    pub keywords: Vec<u64>,
}

/// Lazily materialises a [`SessionWorkload`] into scheduled queries.
/// Pure iterator over named RNG streams — see the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct SessionFeeder {
    w: SessionWorkload,
    rng: Rng,
    pop: PopularityProcess,
    n_clients: usize,
    emitted: u64,
    next_start: Option<SimTime>,
}

impl SessionFeeder {
    /// Builds a feeder for `w` against a world with `n_clients` vantages
    /// and `catalog` keywords. `seed` is the run seed; the feeder's two
    /// RNG streams are derived from it by name, so reordering runs in a
    /// campaign never changes a feeder's draw sequence.
    pub fn new(w: SessionWorkload, seed: u64, n_clients: usize, catalog: usize) -> SessionFeeder {
        assert!(n_clients > 0 && catalog > 0);
        let pop = PopularityProcess::new(
            catalog,
            w.popularity.clone(),
            Rng::from_seed_and_name(seed, "emulator/popularity"),
        );
        let next_start = if w.sessions > 0 {
            SimTime::ZERO.checked_add(w.start)
        } else {
            None
        };
        SessionFeeder {
            w,
            rng: Rng::from_seed_and_name(seed, "emulator/sessions"),
            pop,
            n_clients,
            emitted: 0,
            next_start,
        }
    }

    /// Start instant of the next session, or `None` when exhausted.
    pub fn next_start(&self) -> Option<SimTime> {
        self.next_start
    }

    /// True when every session has been materialised.
    pub fn exhausted(&self) -> bool {
        self.next_start.is_none()
    }

    /// Materialises the next session. All its draws happen here, in one
    /// contiguous block of the feeder's streams: client, keywords, then
    /// the gap to the following session.
    pub fn next_session(&mut self) -> Option<SessionPlan> {
        let start = self.next_start?;
        let client = self.rng.next_below(self.n_clients as u64) as usize;
        let keywords: Vec<u64> = (0..self.w.queries_per_session)
            .map(|_| self.pop.sample(start, &mut self.rng))
            .collect();
        self.emitted += 1;
        self.next_start = if self.emitted >= self.w.sessions {
            None
        } else {
            // Exponential inter-arrival gap; the diurnal wave modulates
            // the instantaneous rate (busier hours → shorter gaps).
            let rate = self.w.popularity.rate_factor(start).max(1e-6);
            let mean_ms = self.w.mean_gap.as_millis_f64() / rate;
            let gap = SimDuration::from_millis_f64(-mean_ms * self.rng.next_f64_open().ln())
                .max(SimDuration::from_nanos(1));
            start.checked_add(gap)
        };
        Some(SessionPlan {
            start,
            client,
            keywords,
        })
    }

    /// Schedules every session starting at or before `upto` into the
    /// simulation. Returns how many queries were scheduled. Batching is
    /// irrelevant to the outcome: `feed(a); feed(b)` schedules exactly
    /// what `feed(b)` would, for any `a <= b`.
    pub fn feed(&mut self, sim: &mut Sim<ServiceWorld>, upto: SimTime) -> u64 {
        let mut scheduled = 0u64;
        while self.next_start.is_some_and(|t| t <= upto) {
            let plan = self.next_session().expect("next_start was Some");
            let fixed_fe = self.w.fixed_fe;
            let think = self.w.think;
            sim.with(|w, net| {
                let now = net.now();
                for (i, &kw) in plan.keywords.iter().enumerate() {
                    let at = plan
                        .start
                        .checked_add(think.saturating_mul(i as u64))
                        .unwrap_or(SimTime::MAX);
                    w.schedule_query(
                        net,
                        at.saturating_since(now),
                        QuerySpec {
                            client: plan.client,
                            keyword: kw,
                            fixed_fe,
                            instant_followup: false,
                        },
                    );
                }
            });
            scheduled += plan.keywords.len() as u64;
        }
        scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(n: u64) -> SessionWorkload {
        SessionWorkload::new(n).with_queries_per_session(2)
    }

    #[test]
    fn feeder_is_a_pure_iterator_over_named_streams() {
        let mut a = SessionFeeder::new(workload(200), 42, 16, 500);
        let mut b = SessionFeeder::new(workload(200), 42, 16, 500);
        let pa: Vec<SessionPlan> = std::iter::from_fn(|| a.next_session()).collect();
        let pb: Vec<SessionPlan> = std::iter::from_fn(|| b.next_session()).collect();
        assert_eq!(pa.len(), 200);
        assert_eq!(pa, pb);
        assert!(a.exhausted() && b.exhausted());
        // Strictly increasing arrival order; draws in range.
        for w in pa.windows(2) {
            assert!(w[1].start > w[0].start);
        }
        assert!(pa.iter().all(|p| p.client < 16));
        assert!(pa.iter().flat_map(|p| &p.keywords).all(|&k| k < 500));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SessionFeeder::new(workload(50), 1, 16, 500);
        let mut b = SessionFeeder::new(workload(50), 2, 16, 500);
        let pa: Vec<SessionPlan> = std::iter::from_fn(|| a.next_session()).collect();
        let pb: Vec<SessionPlan> = std::iter::from_fn(|| b.next_session()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn zero_sessions_is_immediately_exhausted() {
        let mut f = SessionFeeder::new(SessionWorkload::new(0), 7, 4, 100);
        assert!(f.exhausted());
        assert!(f.next_session().is_none());
        assert_eq!(SessionWorkload::new(0).total_queries(), 0);
    }

    #[test]
    fn workload_accounting() {
        let w = SessionWorkload::new(1000).with_queries_per_session(3);
        assert_eq!(w.total_queries(), 3000);
    }
}
