//! Whole-service configuration: everything that distinguishes the two
//! measured deployments, plus the ablation switches.

use crate::cache::CacheConfig;
use crate::mapping::MappingPolicy;
use nettopo::faults::FaultPlan;
use nettopo::path::PathProfile;
use nettopo::placement::{dense_edge, sparse_pop, FeSite};
use nettopo::sites::{BeSite, BING_BE_SITES, GOOGLE_BE_SITES};
use searchbe::proctime::BackendProfile;
use searchbe::response::PageComposer;
use simcore::dist::Dist;
use simcore::time::SimDuration;
use tcpsim::CongAlgo;

/// Client-side robustness policy: per-query deadline plus bounded
/// retries with exponential backoff and jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Per-attempt deadline: if the response is not complete by then the
    /// attempt is abandoned.
    pub deadline: SimDuration,
    /// Maximum number of retries after the first attempt (0 = give up
    /// immediately on the first deadline).
    pub max_retries: u32,
    /// Base backoff before the first retry; attempt `n` waits
    /// `base_backoff · 2^(n-1) · (1 + jitter·u)` with `u` uniform in
    /// [0, 1) from the dedicated retry RNG stream.
    pub base_backoff: SimDuration,
    /// Multiplicative jitter fraction (0 disables jitter).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// A browser-like policy: 10 s deadline, two retries, half-second
    /// base backoff with 30% jitter.
    fn default() -> RetryPolicy {
        RetryPolicy {
            deadline: SimDuration::from_secs(10),
            max_retries: 2,
            base_backoff: SimDuration::from_millis(500),
            jitter: 0.3,
        }
    }
}

/// Deterministic concurrency-dependent service-time model for FE and BE
/// sites — the M/M/1-style queueing-delay curve the paper's load
/// observations imply (`Tstatic` responds to FE load, `Tproc` to BE
/// load).
///
/// The multiplier for a site holding `n` in-flight requests is
/// `1 / (1 - q/capacity)` with `q = n - 1` queued behind the newest one,
/// clamped to `max_slowdown`; a lone request sees exactly 1.0, so the
/// model is inert at low load and the existing goldens (single queries
/// in flight) are untouched even when it is enabled. No randomness: the
/// curve is a pure function of the in-flight count, so trajectories stay
/// byte-deterministic at any shard split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadModel {
    /// Per-FE concurrency knee: in-flight requests beyond which the FE
    /// service-time multiplier saturates at `max_slowdown`.
    pub fe_capacity: u32,
    /// Per-BE concurrency knee for `Tproc` scaling.
    pub be_capacity: u32,
    /// Ceiling on the queueing multiplier (keeps a saturated site's
    /// service time finite and the simulation terminating).
    pub max_slowdown: f64,
}

impl LoadModel {
    /// The queueing multiplier for a site with `inflight` concurrent
    /// requests (including the one being priced) and knee `capacity`.
    pub fn slowdown(&self, inflight: u32, capacity: u32) -> f64 {
        let cap = capacity.max(1) as f64;
        let queued = inflight.saturating_sub(1) as f64;
        if queued >= cap {
            self.max_slowdown
        } else {
            (1.0 / (1.0 - queued / cap)).min(self.max_slowdown)
        }
    }

    /// FE-side multiplier for `inflight` concurrent requests, with the
    /// knee scaled by `capacity_factor` (capacity-dip fault windows).
    pub fn fe_slowdown(&self, inflight: u32, capacity_factor: f64) -> f64 {
        let cap = ((self.fe_capacity as f64 * capacity_factor) as u32).max(1);
        self.slowdown(inflight, cap)
    }

    /// BE-side multiplier for `inflight` concurrent fetches.
    pub fn be_slowdown(&self, inflight: u32) -> f64 {
        self.slowdown(inflight, self.be_capacity)
    }
}

impl Default for LoadModel {
    /// A mid-size site: knee at 16 in-flight requests per FE, 64 per BE,
    /// slowdown capped at 20x.
    fn default() -> LoadModel {
        LoadModel {
            fe_capacity: 16,
            be_capacity: 64,
            max_slowdown: 20.0,
        }
    }
}

/// Admission control at the FE: above the watermark new requests are
/// shed immediately with a typed `Shed` outcome instead of queueing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionControl {
    /// In-flight requests per FE above which new arrivals are shed.
    pub watermark: u32,
}

/// Per-client retry budget: a token bucket spent on every retry attempt.
/// When empty, the retry is suppressed and the query fails with its
/// final-attempt cause — the mechanism that breaks retry-storm
/// hysteresis in `exp_metastable`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryBudget {
    /// Bucket capacity (tokens; one retry costs one token).
    pub max_tokens: f64,
    /// Refill rate in tokens per virtual second.
    pub refill_per_sec: f64,
}

impl Default for RetryBudget {
    /// A tight budget: 3 tokens refilling at 0.1/s — enough for fault
    /// blips, starved by a sustained storm.
    fn default() -> RetryBudget {
        RetryBudget {
            max_tokens: 3.0,
            refill_per_sec: 0.1,
        }
    }
}

/// Hedged FE→BE fetches: if the primary fetch has not completed after
/// `after`, a duplicate is sent to the next-nearest live BE; the first
/// response wins and the loser is cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Delay after the fetch starts before the hedge fires (pick ~p95 of
    /// the healthy fetch-time distribution).
    pub after: SimDuration,
}

/// Per-FE circuit breaker over BE fetch failures: `failure_threshold`
/// consecutive fetch failures open the breaker; while open, fetches
/// fast-fail to the degraded response; after `cooldown` of virtual time
/// one trial fetch (half-open) decides between closing and re-opening.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive fetch failures that open the breaker.
    pub failure_threshold: u32,
    /// Virtual-time cooldown before a half-open trial fetch.
    pub cooldown: SimDuration,
}

impl Default for BreakerPolicy {
    /// 5 consecutive failures, 10 s cooldown.
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: 5,
            cooldown: SimDuration::from_secs(10),
        }
    }
}

/// The composable overload-protection policy set. Every member defaults
/// to `None`/off: a default `OverloadPolicy` is inert and leaves
/// simulation trajectories byte-identical to a build without the
/// subsystem.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverloadPolicy {
    /// FE admission control (load shedding above a watermark).
    pub admission: Option<AdmissionControl>,
    /// Per-client retry budgets (requires `client_retry` to matter).
    pub retry_budget: Option<RetryBudget>,
    /// Hedged FE→BE fetches.
    pub hedge: Option<HedgePolicy>,
    /// Per-FE circuit breaker on BE fetch failures.
    pub breaker: Option<BreakerPolicy>,
}

impl OverloadPolicy {
    /// True when every protection mechanism is disabled.
    pub fn is_inert(&self) -> bool {
        self.admission.is_none()
            && self.retry_budget.is_none()
            && self.hedge.is_none()
            && self.breaker.is_none()
    }
}

/// Front-end load/service-time profile.
#[derive(Clone, Debug)]
pub struct FeLoadProfile {
    /// Base per-request service time (ms).
    pub service_ms: Dist,
    /// Peak multiplicative slowdown − 1 (tenancy-dependent).
    pub load_amplitude: f64,
    /// Load-process volatility per request.
    pub load_volatility: f64,
}

impl FeLoadProfile {
    /// Dedicated single-tenant FE (Google-like): fast and stable.
    pub fn dedicated() -> FeLoadProfile {
        FeLoadProfile {
            service_ms: Dist::lognormal_median_spread(4.0, 1.25),
            load_amplitude: 0.25,
            load_volatility: 0.05,
        }
    }

    /// Shared multi-tenant FE (Akamai-like): slower, heavy-tailed,
    /// bursty.
    pub fn shared() -> FeLoadProfile {
        FeLoadProfile {
            service_ms: Dist::Mix {
                p: 0.85,
                a: Box::new(Dist::lognormal_median_spread(12.0, 1.5)),
                b: Box::new(Dist::lognormal_median_spread(45.0, 1.6)),
            },
            load_amplitude: 1.2,
            load_volatility: 0.08,
        }
    }
}

/// Full configuration of one dynamic-content service.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Service label ("bing-like", "google-like", or a scenario name).
    pub name: String,
    /// Experiment seed (drives every stochastic component).
    pub seed: u64,
    /// Front-end fleet.
    pub fe_fleet: Vec<FeSite>,
    /// Back-end data-center sites.
    pub be_sites: Vec<BeSite>,
    /// Back-end processing profile.
    pub backend: BackendProfile,
    /// Page composition (static/dynamic sizes and identities).
    pub composer: PageComposer,
    /// FE load profile.
    pub fe_load: FeLoadProfile,
    /// FE↔BE path class.
    pub febe_profile: PathProfile,
    /// Initial congestion window, in segments, of the server end of
    /// client connections: the FE's, or the BE's without split TCP (the
    /// `abl_iw` sweep's knob). Clients run `TcpOptions::default()`, and
    /// the other endpoints differ from it only in the settings below.
    pub fe_initial_window: u32,
    /// Congestion control of the two senders of response bytes: the
    /// server end of client connections and the BE end of FE↔BE
    /// connections (the `abl_cubic` ablation's knob).
    pub cong: CongAlgo,
    /// Receive window, in bytes, the FE advertises on its persistent BE
    /// connections: the paper's constant `C` knob. It bounds how many
    /// RTTbe rounds the BE response needs ("C ... depends on the TCP
    /// window size on the BE data center", Sec. 2).
    pub febe_rwnd: u64,
    /// FE caches and immediately serves the static portion (true for
    /// both real services; the `abl_cache` ablation turns it off).
    pub cache_static: bool,
    /// Split TCP at the FE (true for both real services; the `abl_split`
    /// ablation sends clients straight to the BE).
    pub split_tcp: bool,
    /// Hypothetical FE result caching (false for both real services —
    /// the Sec. 3 experiments exist to demonstrate exactly that).
    pub fe_caches_results: bool,
    /// Provisioning of the FE result cache (policy + capacity). The
    /// default is unbounded — the PR 2 `with_fe_result_cache` behaviour;
    /// `with_result_cache` bounds it for the popularity experiments.
    pub fe_result_cache: CacheConfig,
    /// When set, every client's access path uses this profile instead of
    /// its `AccessKind`-derived one — the Sec. 6 loss-sweep knob.
    pub access_override: Option<PathProfile>,
    /// Parallel request slots per FE (the FIFO queue's service
    /// capacity).
    pub fe_workers: usize,
    /// Scripted fault schedule. Empty by default: with no windows the
    /// recovery machinery is inert and trajectories are byte-identical
    /// to a fault-free build.
    pub faults: FaultPlan,
    /// Client-side deadline/retry policy; `None` (the default) arms no
    /// deadline timers at all.
    pub client_retry: Option<RetryPolicy>,
    /// FE-side BE-fetch deadline: past it the FE fails over to the next
    /// live BE site, or degrades the response (cached static portion +
    /// error stub) when none is reachable. `None` disables failover.
    pub fe_fetch_deadline: Option<SimDuration>,
    /// DNS answer TTL: how long clients keep using a resolved FE before
    /// re-resolving (only consulted when the fault plan contains FE
    /// outages — failover away from a dead FE is not instantaneous).
    pub dns_ttl: SimDuration,
    /// Concurrency-dependent service-time model; `None` (the default)
    /// keeps FEs and BEs load-oblivious, byte-identical to older builds.
    pub load_model: Option<LoadModel>,
    /// Overload-protection policies; all off by default.
    pub overload: OverloadPolicy,
    /// Client→FE mapping strategy. The default, `NearestLive`, is the
    /// historical behaviour extracted verbatim — trajectories are
    /// byte-identical to builds without the strategy layer.
    pub mapping: MappingPolicy,
}

impl ServiceConfig {
    /// The Bing-like deployment: dense shared Akamai edge, public-transit
    /// FE↔BE paths, slow and variable back-end.
    pub fn bing_like(seed: u64) -> ServiceConfig {
        ServiceConfig {
            name: "bing-like".into(),
            seed,
            fe_fleet: dense_edge(seed),
            be_sites: BING_BE_SITES.to_vec(),
            backend: BackendProfile::bing_like(),
            composer: PageComposer::bing_like(),
            fe_load: FeLoadProfile::shared(),
            febe_profile: PathProfile::public_transit(),
            fe_initial_window: 4,
            cong: CongAlgo::Reno,
            febe_rwnd: 16 * 1024,
            cache_static: true,
            split_tcp: true,
            fe_caches_results: false,
            fe_result_cache: CacheConfig::unbounded(),
            access_override: None,
            fe_workers: 8,
            faults: FaultPlan::new(),
            client_retry: None,
            fe_fetch_deadline: None,
            dns_ttl: SimDuration::from_secs(60),
            load_model: None,
            overload: OverloadPolicy::default(),
            mapping: MappingPolicy::NearestLive,
        }
    }

    /// The Google-like deployment: sparse dedicated POPs, private WAN,
    /// fast stable back-end.
    pub fn google_like(seed: u64) -> ServiceConfig {
        ServiceConfig {
            name: "google-like".into(),
            seed,
            fe_fleet: sparse_pop(seed, 14),
            be_sites: GOOGLE_BE_SITES.to_vec(),
            backend: BackendProfile::google_like(),
            composer: PageComposer::google_like(),
            fe_load: FeLoadProfile::dedicated(),
            febe_profile: PathProfile::private_wan(),
            fe_initial_window: 4,
            cong: CongAlgo::Reno,
            febe_rwnd: 8 * 1024,
            cache_static: true,
            split_tcp: true,
            fe_caches_results: false,
            fe_result_cache: CacheConfig::unbounded(),
            access_override: None,
            fe_workers: 8,
            faults: FaultPlan::new(),
            client_retry: None,
            fe_fetch_deadline: None,
            dns_ttl: SimDuration::from_secs(60),
            load_model: None,
            overload: OverloadPolicy::default(),
            mapping: MappingPolicy::NearestLive,
        }
    }

    /// Ablation: disable the FE static cache (static bytes must round-trip
    /// to the BE).
    pub fn without_static_cache(mut self) -> ServiceConfig {
        self.cache_static = false;
        self.name = format!("{}+nocache", self.name);
        self
    }

    /// Ablation: disable split TCP (clients connect end-to-end to the
    /// BE, as in the no-proxy baseline of Pathak et al., PAM'10).
    pub fn without_split_tcp(mut self) -> ServiceConfig {
        self.split_tcp = false;
        self.name = format!("{}+nosplit", self.name);
        self
    }

    /// Hypothetical: make FEs cache search results (to validate the
    /// Sec. 3 caching detector, which must flag this configuration).
    pub fn with_fe_result_cache(mut self) -> ServiceConfig {
        self.fe_caches_results = true;
        self.name = format!("{}+fecache", self.name);
        self
    }

    /// Enables FE result caching under the given provisioning (policy +
    /// capacity) — the popularity experiments' sweep knob.
    pub fn with_result_cache(mut self, cache: CacheConfig) -> ServiceConfig {
        self.fe_result_cache = cache;
        if !self.fe_caches_results {
            self.fe_caches_results = true;
            self.name = format!("{}+fecache", self.name);
        }
        self
    }

    /// Overrides the FE client-facing initial window (IW sweep ablation).
    pub fn with_fe_initial_window(mut self, segs: u32) -> ServiceConfig {
        self.fe_initial_window = segs;
        self
    }

    /// Forces every client onto the given access profile (loss sweeps).
    pub fn with_access_override(mut self, profile: PathProfile) -> ServiceConfig {
        self.access_override = Some(profile);
        self
    }

    /// Sets the per-FE parallel request slots (the load experiment's
    /// capacity knob).
    pub fn with_fe_workers(mut self, workers: usize) -> ServiceConfig {
        assert!(workers > 0);
        self.fe_workers = workers;
        self
    }

    /// Installs a scripted fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> ServiceConfig {
        self.faults = plan;
        self.name = format!("{}+faults", self.name);
        self
    }

    /// Enables the client deadline/retry policy.
    pub fn with_client_retry(mut self, policy: RetryPolicy) -> ServiceConfig {
        self.client_retry = Some(policy);
        self
    }

    /// Enables FE-side fetch deadlines (BE failover + degradation).
    pub fn with_fe_fetch_deadline(mut self, deadline: SimDuration) -> ServiceConfig {
        self.fe_fetch_deadline = Some(deadline);
        self
    }

    /// Overrides the DNS answer TTL.
    pub fn with_dns_ttl(mut self, ttl: SimDuration) -> ServiceConfig {
        self.dns_ttl = ttl;
        self
    }

    /// Enables the concurrency-dependent service-time model.
    pub fn with_load_model(mut self, model: LoadModel) -> ServiceConfig {
        self.load_model = Some(model);
        self
    }

    /// Enables FE admission control with the given in-flight watermark.
    pub fn with_admission_control(mut self, watermark: u32) -> ServiceConfig {
        assert!(watermark > 0, "a zero watermark would shed everything");
        self.overload.admission = Some(AdmissionControl { watermark });
        self
    }

    /// Enables per-client retry budgets.
    pub fn with_retry_budget(mut self, budget: RetryBudget) -> ServiceConfig {
        assert!(budget.max_tokens >= 0.0 && budget.refill_per_sec >= 0.0);
        self.overload.retry_budget = Some(budget);
        self
    }

    /// Enables hedged FE→BE fetches after the given delay.
    pub fn with_hedged_fetches(mut self, after: SimDuration) -> ServiceConfig {
        self.overload.hedge = Some(HedgePolicy { after });
        self
    }

    /// Enables the per-FE circuit breaker on BE fetch failures.
    pub fn with_circuit_breaker(mut self, policy: BreakerPolicy) -> ServiceConfig {
        assert!(policy.failure_threshold > 0);
        self.overload.breaker = Some(policy);
        self
    }

    /// Selects the client→FE mapping strategy (default `NearestLive`).
    pub fn with_mapping(mut self, mapping: MappingPolicy) -> ServiceConfig {
        self.mapping = mapping;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_documented_ways() {
        let b = ServiceConfig::bing_like(1);
        let g = ServiceConfig::google_like(1);
        assert!(b.fe_fleet.len() > 3 * g.fe_fleet.len());
        assert!(b.fe_fleet[0].shared_tenancy);
        assert!(!g.fe_fleet[0].shared_tenancy);
        assert!(b.backend.nominal_ms() > 3.0 * g.backend.nominal_ms());
        assert_eq!(b.febe_profile.name, "public-transit");
        assert_eq!(g.febe_profile.name, "private-wan");
        assert!(b.cache_static && g.cache_static);
        assert!(b.split_tcp && g.split_tcp);
        assert!(!b.fe_caches_results && !g.fe_caches_results);
    }

    #[test]
    fn ablation_builders() {
        let c = ServiceConfig::bing_like(1).without_static_cache();
        assert!(!c.cache_static);
        assert!(c.name.contains("nocache"));
        let c2 = ServiceConfig::google_like(1).without_split_tcp();
        assert!(!c2.split_tcp);
        let c3 = ServiceConfig::bing_like(1).with_fe_result_cache();
        assert!(c3.fe_caches_results);
        assert!(c3.fe_result_cache.is_unbounded());
        let c5 = ServiceConfig::bing_like(1).with_result_cache(CacheConfig::lru(1 << 20));
        assert!(c5.fe_caches_results);
        assert!(!c5.fe_result_cache.is_unbounded());
        assert!(c5.name.ends_with("+fecache"));
        // Enabling twice does not double the name suffix.
        let c6 = c5.with_result_cache(CacheConfig::lfu(1 << 20));
        assert!(c6.name.ends_with("+fecache") && !c6.name.contains("+fecache+fecache"));
        let c4 = ServiceConfig::bing_like(1).with_fe_initial_window(10);
        assert_eq!(c4.fe_initial_window, 10);
    }

    #[test]
    fn fault_and_retry_knobs_default_off() {
        use simcore::time::SimTime;
        let b = ServiceConfig::bing_like(1);
        assert!(b.faults.is_empty());
        assert!(b.client_retry.is_none());
        assert!(b.fe_fetch_deadline.is_none());
        assert!(b.load_model.is_none());
        assert!(b.overload.is_inert());
        let g = ServiceConfig::google_like(1);
        assert!(g.load_model.is_none());
        assert!(g.overload.is_inert());
        let c = b
            .with_faults(FaultPlan::new().be_outage(
                0,
                SimTime::from_secs(1),
                SimTime::from_secs(2),
            ))
            .with_client_retry(RetryPolicy::default())
            .with_fe_fetch_deadline(SimDuration::from_millis(800))
            .with_dns_ttl(SimDuration::from_secs(5));
        assert!(!c.faults.is_empty());
        assert!(c.name.contains("faults"));
        assert_eq!(c.client_retry.as_ref().unwrap().max_retries, 2);
        assert_eq!(c.fe_fetch_deadline, Some(SimDuration::from_millis(800)));
        assert_eq!(c.dns_ttl, SimDuration::from_secs(5));
    }

    #[test]
    fn load_model_slowdown_curve() {
        let m = LoadModel {
            fe_capacity: 4,
            be_capacity: 8,
            max_slowdown: 10.0,
        };
        // A lone request is never slowed.
        assert_eq!(m.slowdown(1, 4), 1.0);
        assert_eq!(m.slowdown(0, 4), 1.0);
        // M/M/1 knee: 1/(1 - q/cap) for q queued behind the newest.
        assert!((m.slowdown(2, 4) - 4.0 / 3.0).abs() < 1e-12);
        assert!((m.slowdown(3, 4) - 2.0).abs() < 1e-12);
        assert!((m.slowdown(4, 4) - 4.0).abs() < 1e-12);
        // At and past the knee the multiplier saturates at the ceiling.
        assert_eq!(m.slowdown(5, 4), 10.0);
        assert_eq!(m.slowdown(100, 4), 10.0);
        // Monotone in the in-flight count.
        let mut prev = 0.0;
        for n in 0..32 {
            let s = m.slowdown(n, 8);
            assert!(s >= prev, "n={n}: {s} < {prev}");
            prev = s;
        }
        // Capacity dips scale the FE knee: the same in-flight count is
        // pricier with half the capacity.
        assert!(m.fe_slowdown(3, 0.5) > m.fe_slowdown(3, 1.0));
        assert_eq!(m.be_slowdown(1), 1.0);
    }

    #[test]
    fn overload_builders_set_policies() {
        let c = ServiceConfig::google_like(1)
            .with_load_model(LoadModel::default())
            .with_admission_control(32)
            .with_retry_budget(RetryBudget::default())
            .with_hedged_fetches(SimDuration::from_millis(250))
            .with_circuit_breaker(BreakerPolicy::default());
        assert_eq!(c.load_model.unwrap().fe_capacity, 16);
        assert_eq!(c.overload.admission.unwrap().watermark, 32);
        assert_eq!(c.overload.retry_budget.unwrap().max_tokens, 3.0);
        assert_eq!(
            c.overload.hedge.unwrap().after,
            SimDuration::from_millis(250)
        );
        assert_eq!(c.overload.breaker.unwrap().failure_threshold, 5);
        assert!(!c.overload.is_inert());
    }

    #[test]
    fn mapping_knob_defaults_to_nearest_live() {
        use crate::mapping::{LoadAwarePolicy, MappingPolicy};
        let b = ServiceConfig::bing_like(1);
        let g = ServiceConfig::google_like(1);
        assert_eq!(b.mapping, MappingPolicy::NearestLive);
        assert_eq!(g.mapping, MappingPolicy::NearestLive);
        let c = b.with_mapping(MappingPolicy::LoadAware(LoadAwarePolicy::default()));
        assert!(matches!(c.mapping, MappingPolicy::LoadAware(_)));
    }

    #[test]
    fn be_window_knob_differs() {
        let b = ServiceConfig::bing_like(1);
        let g = ServiceConfig::google_like(1);
        assert_eq!(b.febe_rwnd, 16 * 1024);
        assert_eq!(g.febe_rwnd, 8 * 1024);
    }
}
