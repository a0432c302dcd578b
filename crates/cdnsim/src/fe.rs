//! The front-end server model.
//!
//! Sec. 4.2 of the paper speculates: "a plausible reason that Bing has
//! higher and more variable `Tstatic` values may be due to the higher and
//! more variable loads at the Akamai FE servers, as they are shared with
//! a number of other services; while ... Google FE servers ... are likely
//! dedicated to distribution of search results." The FE model makes that
//! mechanism concrete: each request pays a sampled service time scaled by
//! a persistent load process whose amplitude depends on tenancy.

use crate::cache::{CacheConfig, InsertOutcome, ObjectCache};
use nettopo::placement::FeSite;
use searchbe::proctime::LoadProcess;
use searchbe::response::ResponsePlan;
use simcore::dist::Dist;
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

/// A front-end server instance.
///
/// Request handling is a FIFO queue over `workers` parallel request
/// slots: a request's overhead is its queueing delay (if all slots are
/// busy) plus its own sampled service time. Under light offered load the
/// queue is empty and the overhead reduces to the service-time sample;
/// under bursts, waiting time appears mechanistically — the "load on FE
/// servers" factor of the paper's Sec. 2 list.
#[derive(Debug)]
pub struct FeServer {
    /// Placement record (location, tenancy).
    pub site: FeSite,
    service_ms: Dist,
    load: LoadProcess,
    rng: Rng,
    /// Per-slot busy-until times (FIFO to the earliest-free slot).
    slots: Vec<SimTime>,
    /// Hypothetical per-keyword result cache, bounded and policy-driven:
    /// `None` in the real services, which do not cache results; present
    /// only to validate the caching detector and for the popularity
    /// experiments.
    result_cache: Option<ObjectCache<ResponsePlan>>,
}

impl FeServer {
    /// Builds an FE server. `service_ms` is the per-request service-time
    /// distribution; `load_amplitude`/`load_volatility` parameterise the
    /// tenancy-dependent load process; `workers` is the number of
    /// parallel request slots; `result_cache` provisions the
    /// hypothetical result cache (`None`: the FE caches no results).
    pub fn new(
        seed: u64,
        site: FeSite,
        service_ms: Dist,
        load_amplitude: f64,
        load_volatility: f64,
        workers: usize,
        result_cache: Option<CacheConfig>,
    ) -> FeServer {
        assert!(workers > 0, "an FE needs a worker slot");
        let rng = Rng::from_seed_and_name(seed, &format!("cdnsim/fe/{}", site.id));
        FeServer {
            site,
            service_ms,
            load: LoadProcess::new(load_amplitude, load_volatility),
            rng,
            slots: vec![SimTime::ZERO; workers],
            result_cache: result_cache.map(ObjectCache::new),
        }
    }

    /// Samples the request-handling overhead for one incoming query: the
    /// time between the GET fully arriving and the FE emitting the cached
    /// static burst and the BE-bound query. `now` is the arrival time;
    /// the overhead includes any FIFO queueing delay behind requests
    /// already in service.
    pub fn request_overhead_at(&mut self, now: SimTime) -> SimDuration {
        let service = self.sample_service();
        // Earliest-free slot.
        let slot = self
            .slots
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("at least one worker slot");
        let start = if *slot > now { *slot } else { now };
        let done = start + service;
        *slot = done;
        done.since(now)
    }

    /// The pure service-time sample, ignoring the queue (light-load
    /// behaviour; also used directly by unit tests).
    pub fn request_overhead(&mut self) -> SimDuration {
        self.sample_service()
    }

    fn sample_service(&mut self) -> SimDuration {
        let load = self.load.step(&mut self.rng);
        let ms = self.service_ms.sample(&mut self.rng).max(0.05) * load;
        SimDuration::from_millis_f64(ms)
    }

    /// Whether this FE caches whole query results.
    pub fn caches_results(&self) -> bool {
        self.result_cache.is_some()
    }

    /// Looks up a hypothetically cached result for `keyword` at `now`,
    /// counting a hit or miss against the result cache. Always `None`
    /// in the realistic (caching-disabled) configuration.
    pub fn lookup_result(&mut self, keyword: u64, now: SimTime) -> Option<ResponsePlan> {
        self.result_cache.as_mut()?.get(keyword, now).cloned()
    }

    /// Stores a result in the hypothetical cache, evicting per policy
    /// (no-op when caching is disabled). The object's size is the plan's
    /// total response bytes.
    pub fn store_result(
        &mut self,
        keyword: u64,
        plan: ResponsePlan,
        now: SimTime,
    ) -> InsertOutcome {
        let Some(cache) = &mut self.result_cache else {
            return InsertOutcome::default();
        };
        let size = plan.total_bytes();
        cache.insert(keyword, plan, size, now)
    }

    /// The result cache (for telemetry), when the FE caches results.
    pub fn result_cache(&self) -> Option<&ObjectCache<ResponsePlan>> {
        self.result_cache.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::geo::GeoPoint;

    fn site(shared: bool) -> FeSite {
        FeSite {
            id: 0,
            name: "fe-test".into(),
            pt: GeoPoint::new(40.0, -75.0),
            shared_tenancy: shared,
            campus_colocated: false,
        }
    }

    fn dedicated() -> FeServer {
        FeServer::new(
            1,
            site(false),
            Dist::lognormal_median_spread(4.0, 1.25),
            0.2,
            0.05,
            8,
            None,
        )
    }

    fn shared() -> FeServer {
        FeServer::new(
            1,
            site(true),
            Dist::lognormal_median_spread(14.0, 1.7),
            1.2,
            0.08,
            8,
            None,
        )
    }

    #[test]
    fn shared_tenancy_is_slower_and_more_variable() {
        let mut d = dedicated();
        let mut s = shared();
        let sample = |fe: &mut FeServer| -> Vec<f64> {
            (0..5000)
                .map(|_| fe.request_overhead().as_millis_f64())
                .collect()
        };
        let ds = sample(&mut d);
        let ss = sample(&mut s);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let std = |v: &[f64]| {
            let m = mean(v);
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!(mean(&ss) > 2.0 * mean(&ds));
        assert!(std(&ss) > 3.0 * std(&ds));
    }

    #[test]
    fn overheads_are_positive() {
        let mut fe = dedicated();
        for _ in 0..100 {
            assert!(fe.request_overhead() > SimDuration::ZERO);
        }
    }

    #[test]
    fn result_cache_disabled_by_default() {
        let mut fe = dedicated();
        assert!(!fe.caches_results());
        let out = fe.store_result(7, ResponsePlan::new(9000, 1, 20000, 1000), SimTime::ZERO);
        assert!(!out.inserted);
        assert!(fe.lookup_result(7, SimTime::ZERO).is_none());
        // Disabled caching keeps no cache, so no statistics to touch.
        assert!(fe.result_cache().is_none());
    }

    #[test]
    fn result_cache_when_enabled() {
        let mut fe = FeServer::new(
            1,
            site(true),
            Dist::Constant(5.0),
            0.0,
            0.0,
            8,
            Some(CacheConfig::unbounded()),
        );
        assert!(fe.lookup_result(7, SimTime::ZERO).is_none());
        let plan = ResponsePlan::new(9000, 1, 20000, 1000);
        let t = SimTime::from_millis(5);
        assert!(fe.store_result(7, plan.clone(), t).inserted);
        assert_eq!(fe.lookup_result(7, t), Some(plan));
        let s = fe.result_cache().unwrap().stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn bounded_result_cache_evicts_per_policy() {
        // Room for two 29 kB plans; the third insert evicts the LRU.
        let cache = CacheConfig::lru(60_000);
        let mut fe = FeServer::new(1, site(true), Dist::Constant(5.0), 0.0, 0.0, 8, Some(cache));
        let plan = ResponsePlan::new(9000, 1, 20000, 1000);
        for k in 0..3u64 {
            fe.store_result(k, plan.clone(), SimTime::from_millis(k));
        }
        assert!(fe.lookup_result(0, SimTime::from_millis(10)).is_none());
        assert!(fe.lookup_result(2, SimTime::from_millis(10)).is_some());
        assert_eq!(fe.result_cache().unwrap().stats().evictions, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = dedicated();
        let mut b = dedicated();
        for _ in 0..50 {
            assert_eq!(a.request_overhead(), b.request_overhead());
        }
    }

    #[test]
    fn queue_adds_waiting_time_under_bursts() {
        use simcore::time::SimTime;
        let mut fe = FeServer::new(
            1,
            site(false),
            Dist::Constant(10.0), // 10 ms deterministic service
            0.0,
            0.0,
            2,
            None,
        );
        let t = SimTime::from_millis(100);
        // Four simultaneous arrivals on two workers: the first two are
        // served immediately (10 ms), the next two queue behind them
        // (20 ms).
        let o: Vec<f64> = (0..4)
            .map(|_| fe.request_overhead_at(t).as_millis_f64())
            .collect();
        assert_eq!(o, vec![10.0, 10.0, 20.0, 20.0]);
        // Much later, the queue has drained.
        let later = fe.request_overhead_at(SimTime::from_secs(10));
        assert_eq!(later.as_millis_f64(), 10.0);
    }

    #[test]
    fn spaced_arrivals_do_not_queue() {
        use simcore::time::SimTime;
        let mut fe = FeServer::new(1, site(false), Dist::Constant(5.0), 0.0, 0.0, 8, None);
        for i in 0..20u64 {
            let t = SimTime::from_millis(i * 100);
            assert_eq!(fe.request_overhead_at(t).as_millis_f64(), 5.0);
        }
    }
}
