//! Pluggable client→FE mapping strategies.
//!
//! The source paper's two services differ most in *how clients are
//! mapped to front-end servers*: Google's DNS-driven proximity mapping
//! vs Bing's Akamai-style machinery. [`MappingStrategy`] makes that
//! mapping a first-class axis: a strategy resolves a client to an FE at
//! session start (and on retries), and epoch-driven strategies
//! additionally re-map demand at fixed virtual-time intervals.
//!
//! Three deterministic implementations ship:
//!
//! * [`NearestLive`] — the historical behaviour, extracted verbatim
//!   from the world's health-aware DNS resolution. The default; with it
//!   selected, trajectories are byte-identical to builds that predate
//!   this module (including its deliberate fallback to the *dead*
//!   nearest FE when every FE is down — DNS does not know about
//!   outages, clients discover them by timing out).
//! * [`DnsGeoTtl`] — geo-bucketed resolution with answer-TTL
//!   staleness: every client in the same geographic bucket shares one
//!   cached answer and keeps it until expiry, even when the FE has
//!   since died (counted as `cdnsim.stale_resolutions`).
//! * [`LoadAware`] — PaDIS-style demand shifting: a periodic epoch
//!   inspects each FE's inflight/knee ratio and deflects demand off FEs
//!   above a high watermark until they drain below a low watermark
//!   (hysteresis prevents flapping). Resolution picks the nearest live
//!   FE that is neither deflected nor currently hot, spilling only
//!   within the client's `spill_width` nearest FEs (deflection pays
//!   ~ΔRTT per slow-start round trip, so distant spill targets lose);
//!   when every near FE is hot it falls back to the least-loaded one.
//!
//! # Determinism contract
//!
//! Strategies draw no randomness, never touch the network, and observe
//! only the [`ResolveCtx`]/[`EpochCtx`] snapshots the world hands them.
//! All their state lives in plain indexed vectors or key-addressed maps
//! that are never iterated, so resolution is a pure function of
//! (virtual time, client, fault plan, inflight counts, own history) —
//! byte-identical at any worker-thread count.
//!
//! # Liveness contract
//!
//! A *fresh* resolution (no cached answer in force) returns a live FE
//! whenever at least one exists. When every candidate FE is dead,
//! health-aware strategies ([`DnsGeoTtl`] past TTL, [`LoadAware`])
//! return `None` and the world fails the query fast with the typed
//! [`QueryOutcome::NoLiveFe`](crate::QueryOutcome::NoLiveFe) — the fix
//! for the historical spin-until-deadline footgun. [`NearestLive`]
//! keeps the historical fallback (returns the dead default) to stay
//! byte-identical with committed goldens.

use nettopo::faults::FaultPlan;
use nettopo::geo::GeoPoint;
use simcore::hash::HashMap;
use simcore::telemetry::MetricsRegistry;
use simcore::time::{SimDuration, SimTime};

/// Which client→FE mapping strategy a service runs
/// ([`ServiceConfig::mapping`](crate::ServiceConfig::mapping)).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum MappingPolicy {
    /// Nearest live FE with per-client DNS-TTL caching — the default,
    /// byte-identical to the pre-strategy behaviour.
    #[default]
    NearestLive,
    /// Geo-bucketed DNS resolution with TTL staleness.
    DnsGeoTtl(GeoTtlPolicy),
    /// Epoch-based load-aware demand shifting.
    LoadAware(LoadAwarePolicy),
}

/// Knobs of the [`DnsGeoTtl`] strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoTtlPolicy {
    /// How long a bucket keeps its resolved answer, dead or alive.
    pub ttl: SimDuration,
    /// Geographic bucket edge length in degrees (clients whose lat/lon
    /// fall in the same bucket share one DNS answer).
    pub bucket_deg: f64,
}

impl Default for GeoTtlPolicy {
    /// 60 s answers shared across 10°×10° buckets.
    fn default() -> GeoTtlPolicy {
        GeoTtlPolicy {
            ttl: SimDuration::from_secs(60),
            bucket_deg: 10.0,
        }
    }
}

/// Knobs of the [`LoadAware`] strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadAwarePolicy {
    /// Re-mapping epoch period.
    pub epoch: SimDuration,
    /// Inflight/knee ratio at or above which an FE is deflected.
    pub high_watermark: f64,
    /// Ratio at or below which a deflected FE is readmitted
    /// (hysteresis: must be ≤ `high_watermark`).
    pub low_watermark: f64,
    /// How deep into the client's proximity ranking deflection may
    /// reach. Deflection trades queueing delay for extra RTT — and the
    /// RTT is paid on every slow-start round trip of the transfer, so
    /// an unbounded spill that lands a client on a transcontinental FE
    /// costs more than the queue it escaped. Bounding the spill to the
    /// nearest `spill_width` FEs keeps the trade local; past the bound
    /// the strategy degrades to least-loaded-of-the-near rather than
    /// nearest-of-the-far.
    pub spill_width: usize,
}

impl Default for LoadAwarePolicy {
    /// 500 ms epochs; deflect at the knee, readmit at half of it,
    /// spill within the client's nearest four FEs.
    fn default() -> LoadAwarePolicy {
        LoadAwarePolicy {
            epoch: SimDuration::from_millis(500),
            high_watermark: 1.0,
            low_watermark: 0.5,
            spill_width: 4,
        }
    }
}

/// Everything a strategy may consult when resolving one client, as a
/// snapshot borrowed from the world for the duration of the call.
pub struct ResolveCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Index of the resolving client.
    pub client: usize,
    /// The client's static nearest FE (the DNS default).
    pub default_fe: usize,
    /// FE indices ranked by distance from the client. Empty when the
    /// strategy declined it via [`MappingStrategy::wants_ranked`].
    pub ranked: &'a [usize],
    /// The client's location (bucketing key for geo strategies).
    pub client_pt: GeoPoint,
    /// The scripted fault plan (FE liveness oracle).
    pub faults: &'a FaultPlan,
    /// Whether the plan contains FE outages at all (fast-path gate).
    pub outages_possible: bool,
    /// Per-FE in-flight request counts.
    pub fe_inflight: &'a [u32],
    /// The load model's per-FE concurrency knee.
    pub knee: u32,
    /// Service-layer telemetry (observe-only).
    pub metrics: &'a mut MetricsRegistry,
}

impl ResolveCtx<'_> {
    /// Whether FE `fe` is live at `now` under the fault plan.
    pub fn live(&self, fe: usize) -> bool {
        !self.faults.fe_down(fe, self.now)
    }

    /// The nearest live FE in ranked order, when one exists.
    pub fn nearest_live(&self) -> Option<usize> {
        self.ranked.iter().copied().find(|&f| self.live(f))
    }
}

/// Snapshot handed to epoch-driven strategies at each re-mapping epoch.
pub struct EpochCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Per-FE in-flight request counts.
    pub fe_inflight: &'a [u32],
    /// The load model's per-FE concurrency knee.
    pub knee: u32,
    /// Service-layer telemetry (observe-only).
    pub metrics: &'a mut MetricsRegistry,
}

/// A deterministic client→FE mapping strategy.
///
/// Implementations must draw no randomness and schedule nothing; the
/// world calls [`resolve`](Self::resolve) at session/attempt start and
/// [`on_epoch`](Self::on_epoch) at each epoch boundary when
/// [`epoch`](Self::epoch) is set.
pub trait MappingStrategy {
    /// Resolves `ctx.client` to an FE at `ctx.now`, or `None` when
    /// every FE this strategy may return is dead (the world then fails
    /// the query with a typed `NoLiveFe` outcome).
    fn resolve(&mut self, ctx: &mut ResolveCtx<'_>) -> Option<usize>;

    /// Whether [`resolve`](Self::resolve) needs the ranked-FE list this
    /// call. Declining it keeps the default no-outage fast path free of
    /// ranking work, exactly as before this trait existed.
    fn wants_ranked(&self, _outages_possible: bool) -> bool {
        true
    }

    /// Re-mapping epoch period; `None` (the default) arms no epoch
    /// timer at all.
    fn epoch(&self) -> Option<SimDuration> {
        None
    }

    /// Called at each epoch boundary (only when [`epoch`](Self::epoch)
    /// is set).
    fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}
}

/// The historical health-aware DNS resolution, verbatim: static nearest
/// FE without outages; with outages, a per-client answer cache honoured
/// for `ttl`, re-resolved to the nearest live FE (falling back to the
/// dead default when none is live) on expiry.
#[derive(Debug)]
pub struct NearestLive {
    ttl: SimDuration,
    cache: HashMap<usize, (usize, SimTime)>,
}

impl NearestLive {
    /// A resolver honouring answers for `ttl` (the config's `dns_ttl`).
    pub fn new(ttl: SimDuration) -> NearestLive {
        NearestLive {
            ttl,
            cache: HashMap::default(),
        }
    }
}

impl MappingStrategy for NearestLive {
    fn resolve(&mut self, ctx: &mut ResolveCtx<'_>) -> Option<usize> {
        if !ctx.outages_possible {
            return Some(ctx.default_fe);
        }
        if let Some(&(fe, at)) = self.cache.get(&ctx.client) {
            if ctx.now.saturating_since(at) < self.ttl {
                // The cached answer is honored until the TTL runs out,
                // even if the FE has since died — failover via DNS is
                // deliberately not instantaneous.
                return Some(fe);
            }
        }
        let prev = self
            .cache
            .get(&ctx.client)
            .map(|&(f, _)| f)
            .unwrap_or(ctx.default_fe);
        let fe = ctx.nearest_live().unwrap_or(ctx.default_fe);
        if fe != prev {
            ctx.metrics.inc("cdnsim.dns_remaps");
        }
        self.cache.insert(ctx.client, (fe, ctx.now));
        Some(fe)
    }

    fn wants_ranked(&self, outages_possible: bool) -> bool {
        outages_possible
    }
}

/// Geo-bucketed DNS with TTL staleness: clients in the same lat/lon
/// bucket share one cached answer and keep it until expiry — even when
/// the answered FE dies mid-TTL (those resolutions are counted as
/// `cdnsim.stale_resolutions`). Fresh resolutions pick the client's
/// nearest live FE, or fail typed when none is live.
#[derive(Debug)]
pub struct DnsGeoTtl {
    policy: GeoTtlPolicy,
    cache: HashMap<(i64, i64), (usize, SimTime)>,
}

impl DnsGeoTtl {
    /// A resolver under `policy`.
    pub fn new(policy: GeoTtlPolicy) -> DnsGeoTtl {
        assert!(policy.bucket_deg > 0.0);
        DnsGeoTtl {
            policy,
            cache: HashMap::default(),
        }
    }

    fn bucket(&self, pt: GeoPoint) -> (i64, i64) {
        (
            (pt.lat_deg / self.policy.bucket_deg).floor() as i64,
            (pt.lon_deg / self.policy.bucket_deg).floor() as i64,
        )
    }
}

impl MappingStrategy for DnsGeoTtl {
    fn resolve(&mut self, ctx: &mut ResolveCtx<'_>) -> Option<usize> {
        let bucket = self.bucket(ctx.client_pt);
        if let Some(&(fe, at)) = self.cache.get(&bucket) {
            if ctx.now.saturating_since(at) < self.policy.ttl {
                if !ctx.live(fe) {
                    ctx.metrics.inc("cdnsim.stale_resolutions");
                }
                return Some(fe);
            }
        }
        let prev = self.cache.get(&bucket).map(|&(f, _)| f);
        let fe = ctx.nearest_live()?;
        if prev.is_some_and(|p| p != fe) {
            ctx.metrics.inc("cdnsim.remap_events");
        }
        self.cache.insert(bucket, (fe, ctx.now));
        Some(fe)
    }
}

/// PaDIS-style load-aware mapping: epochs deflect demand off FEs whose
/// inflight/knee ratio is at or above the high watermark; a deflected
/// FE is readmitted once its ratio drains to the low watermark
/// (hysteresis). Resolution picks the client's nearest live
/// non-deflected FE that is currently below the high watermark — the
/// resolve-time check spreads a burst *within* an epoch, where the
/// epoch flag alone would pile every co-located client onto the same
/// single spill target until the next boundary. When every live FE is
/// deflected or hot, resolution falls back to the least-loaded live FE
/// (nearest among ties); it fails typed only when none is live.
#[derive(Debug)]
pub struct LoadAware {
    policy: LoadAwarePolicy,
    deflected: Vec<bool>,
}

impl LoadAware {
    /// A mapper under `policy` for a fleet of `n_fes` FEs.
    pub fn new(policy: LoadAwarePolicy, n_fes: usize) -> LoadAware {
        assert!(policy.low_watermark <= policy.high_watermark);
        assert!(policy.epoch > SimDuration::ZERO);
        LoadAware {
            policy,
            deflected: vec![false; n_fes],
        }
    }
}

impl MappingStrategy for LoadAware {
    fn resolve(&mut self, ctx: &mut ResolveCtx<'_>) -> Option<usize> {
        let nearest_live = ctx.nearest_live()?;
        let knee = ctx.knee.max(1) as f64;
        let hot = |f: usize| ctx.fe_inflight[f] as f64 / knee >= self.policy.high_watermark;
        let width = self.policy.spill_width.clamp(1, ctx.ranked.len());
        let near = &ctx.ranked[..width];
        let fe = near
            .iter()
            .copied()
            .find(|&f| ctx.live(f) && !self.deflected[f] && !hot(f))
            // Every near FE is deflected or already past the watermark:
            // spread, don't pile — take the least-loaded live near FE
            // (nearest among ties, since `ranked` is proximity-ordered
            // and `min_by_key` keeps the first minimum).
            .or_else(|| {
                near.iter()
                    .copied()
                    .filter(|&f| ctx.live(f))
                    .min_by_key(|&f| ctx.fe_inflight[f])
            })
            // All near FEs dead: liveness still wins over locality.
            .unwrap_or(nearest_live);
        if fe != nearest_live {
            ctx.metrics.inc("cdnsim.deflected_resolutions");
        }
        Some(fe)
    }

    fn epoch(&self) -> Option<SimDuration> {
        Some(self.policy.epoch)
    }

    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        let knee = ctx.knee.max(1) as f64;
        for (fe, &inflight) in ctx.fe_inflight.iter().enumerate() {
            let ratio = inflight as f64 / knee;
            // The gauge's running max is the demand high-water mark.
            ctx.metrics.set_gauge("cdnsim.fe_demand_hiwater", ratio);
            if self.deflected[fe] {
                if ratio <= self.policy.low_watermark {
                    self.deflected[fe] = false;
                }
            } else if ratio >= self.policy.high_watermark {
                self.deflected[fe] = true;
                ctx.metrics.inc("cdnsim.remap_events");
            }
        }
    }
}

/// The world-side strategy holder: concrete enum dispatch over the
/// shipped strategies (keeps [`ServiceWorld`](crate::ServiceWorld) free
/// of boxed trait objects and their `Debug`/ownership friction).
#[derive(Debug)]
pub enum Mapper {
    /// The default nearest-live resolver.
    NearestLive(NearestLive),
    /// Geo-bucketed TTL resolver.
    DnsGeoTtl(DnsGeoTtl),
    /// Epoch-driven load-aware mapper.
    LoadAware(LoadAware),
}

impl Mapper {
    /// Builds the runtime state for `policy` over a fleet of `n_fes`
    /// FEs; `dns_ttl` seeds the default strategy's answer TTL.
    pub fn from_policy(policy: &MappingPolicy, n_fes: usize, dns_ttl: SimDuration) -> Mapper {
        match policy {
            MappingPolicy::NearestLive => Mapper::NearestLive(NearestLive::new(dns_ttl)),
            MappingPolicy::DnsGeoTtl(p) => Mapper::DnsGeoTtl(DnsGeoTtl::new(*p)),
            MappingPolicy::LoadAware(p) => Mapper::LoadAware(LoadAware::new(*p, n_fes)),
        }
    }

    fn as_strategy(&mut self) -> &mut dyn MappingStrategy {
        match self {
            Mapper::NearestLive(s) => s,
            Mapper::DnsGeoTtl(s) => s,
            Mapper::LoadAware(s) => s,
        }
    }

    /// See [`MappingStrategy::resolve`].
    pub fn resolve(&mut self, ctx: &mut ResolveCtx<'_>) -> Option<usize> {
        self.as_strategy().resolve(ctx)
    }

    /// See [`MappingStrategy::wants_ranked`].
    pub fn wants_ranked(&self, outages_possible: bool) -> bool {
        match self {
            Mapper::NearestLive(s) => s.wants_ranked(outages_possible),
            Mapper::DnsGeoTtl(s) => s.wants_ranked(outages_possible),
            Mapper::LoadAware(s) => s.wants_ranked(outages_possible),
        }
    }

    /// See [`MappingStrategy::epoch`].
    pub fn epoch(&self) -> Option<SimDuration> {
        match self {
            Mapper::NearestLive(s) => s.epoch(),
            Mapper::DnsGeoTtl(s) => s.epoch(),
            Mapper::LoadAware(s) => s.epoch(),
        }
    }

    /// See [`MappingStrategy::on_epoch`].
    pub fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        self.as_strategy().on_epoch(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::faults::FaultPlan;

    fn ctx_parts() -> (Vec<usize>, FaultPlan) {
        ((0..4).collect(), FaultPlan::new())
    }

    fn resolve_with(
        mapper: &mut Mapper,
        now: SimTime,
        ranked: &[usize],
        faults: &FaultPlan,
        inflight: &[u32],
    ) -> Option<usize> {
        let mut metrics = MetricsRegistry::with_enabled(true);
        let mut ctx = ResolveCtx {
            now,
            client: 0,
            default_fe: ranked[0],
            ranked,
            client_pt: GeoPoint::new(40.0, -74.0),
            faults,
            outages_possible: faults.has_fe_outages(),
            fe_inflight: inflight,
            knee: 4,
            metrics: &mut metrics,
        };
        mapper.resolve(&mut ctx)
    }

    #[test]
    fn nearest_live_without_outages_is_static_nearest() {
        let (ranked, faults) = ctx_parts();
        let mut m = Mapper::from_policy(&MappingPolicy::NearestLive, 4, SimDuration::from_secs(60));
        assert!(!m.wants_ranked(false));
        assert_eq!(
            resolve_with(&mut m, SimTime::ZERO, &ranked, &faults, &[0; 4]),
            Some(0)
        );
        assert!(m.epoch().is_none());
    }

    #[test]
    fn nearest_live_skips_dead_fe_after_ttl() {
        let ranked: Vec<usize> = (0..4).collect();
        let faults = FaultPlan::new().fe_outage(0, SimTime::ZERO, SimTime::from_secs(100));
        let mut m = Mapper::from_policy(&MappingPolicy::NearestLive, 4, SimDuration::from_secs(60));
        // Fresh resolution while FE 0 is dark: first live in rank order.
        assert_eq!(
            resolve_with(&mut m, SimTime::from_secs(1), &ranked, &faults, &[0; 4]),
            Some(1)
        );
        // Within TTL the answer sticks even though FE 0 recovers later.
        assert_eq!(
            resolve_with(&mut m, SimTime::from_secs(30), &ranked, &faults, &[0; 4]),
            Some(1)
        );
    }

    #[test]
    fn geo_ttl_shares_answers_within_a_bucket_and_counts_stale() {
        let ranked: Vec<usize> = (0..4).collect();
        let plan = FaultPlan::new().fe_outage(0, SimTime::from_secs(5), SimTime::from_secs(100));
        let mut m = Mapper::from_policy(
            &MappingPolicy::DnsGeoTtl(GeoTtlPolicy::default()),
            4,
            SimDuration::from_secs(60),
        );
        // Fresh resolution at t=0: FE 0 is still live.
        assert_eq!(
            resolve_with(&mut m, SimTime::ZERO, &ranked, &plan, &[0; 4]),
            Some(0)
        );
        // t=10s: FE 0 is dark but the bucket's answer is within TTL —
        // the stale answer is kept (and counted).
        let mut metrics = MetricsRegistry::with_enabled(true);
        let mut ctx = ResolveCtx {
            now: SimTime::from_secs(10),
            client: 0,
            default_fe: 0,
            ranked: &ranked,
            client_pt: GeoPoint::new(40.0, -74.0),
            faults: &plan,
            outages_possible: true,
            fe_inflight: &[0; 4],
            knee: 4,
            metrics: &mut metrics,
        };
        assert_eq!(m.resolve(&mut ctx), Some(0));
        assert_eq!(metrics.counter("cdnsim.stale_resolutions"), Some(1));
        // Past TTL the bucket re-resolves to a live FE.
        assert_eq!(
            resolve_with(&mut m, SimTime::from_secs(70), &ranked, &plan, &[0; 4]),
            Some(1)
        );
        // All FEs dead at re-resolution time: typed failure.
        let mut all_dead = FaultPlan::new();
        for fe in 0..4 {
            all_dead = all_dead.fe_outage(fe, SimTime::ZERO, SimTime::from_secs(500));
        }
        assert_eq!(
            resolve_with(&mut m, SimTime::from_secs(200), &ranked, &all_dead, &[0; 4]),
            None
        );
    }

    #[test]
    fn load_aware_deflects_with_hysteresis() {
        let (ranked, faults) = ctx_parts();
        let policy = LoadAwarePolicy {
            epoch: SimDuration::from_millis(100),
            high_watermark: 1.0,
            spill_width: 4,
            low_watermark: 0.5,
        };
        let mut m = Mapper::from_policy(&MappingPolicy::LoadAware(policy), 4, SimDuration::ZERO);
        assert_eq!(m.epoch(), Some(SimDuration::from_millis(100)));
        // Unloaded: proximity wins.
        assert_eq!(
            resolve_with(&mut m, SimTime::ZERO, &ranked, &faults, &[0; 4]),
            Some(0)
        );
        // Epoch sees FE 0 at its knee (inflight 4, knee 4): deflect.
        let mut metrics = MetricsRegistry::with_enabled(true);
        let mut ec = EpochCtx {
            now: SimTime::from_millis(100),
            fe_inflight: &[4, 0, 0, 0],
            knee: 4,
            metrics: &mut metrics,
        };
        m.on_epoch(&mut ec);
        assert_eq!(metrics.counter("cdnsim.remap_events"), Some(1));
        assert_eq!(
            resolve_with(
                &mut m,
                SimTime::from_millis(150),
                &ranked,
                &faults,
                &[4, 0, 0, 0]
            ),
            Some(1)
        );
        // Ratio 0.75 is between the watermarks: still deflected.
        let mut ec = EpochCtx {
            now: SimTime::from_millis(200),
            fe_inflight: &[3, 1, 0, 0],
            knee: 4,
            metrics: &mut metrics,
        };
        m.on_epoch(&mut ec);
        assert_eq!(
            resolve_with(
                &mut m,
                SimTime::from_millis(250),
                &ranked,
                &faults,
                &[3, 1, 0, 0]
            ),
            Some(1)
        );
        // Drained to the low watermark: readmitted.
        let mut ec = EpochCtx {
            now: SimTime::from_millis(300),
            fe_inflight: &[2, 0, 0, 0],
            knee: 4,
            metrics: &mut metrics,
        };
        m.on_epoch(&mut ec);
        assert_eq!(
            resolve_with(
                &mut m,
                SimTime::from_millis(350),
                &ranked,
                &faults,
                &[2, 0, 0, 0]
            ),
            Some(0)
        );
        // The hiwater gauge's max tracked the worst ratio seen.
        let (_, max) = metrics.gauge("cdnsim.fe_demand_hiwater").unwrap();
        assert_eq!(max, 1.0);
    }

    #[test]
    fn load_aware_falls_back_when_every_live_fe_is_deflected() {
        let ranked: Vec<usize> = (0..2).collect();
        let faults = FaultPlan::new();
        let policy = LoadAwarePolicy::default();
        let mut m = Mapper::from_policy(&MappingPolicy::LoadAware(policy), 2, SimDuration::ZERO);
        let mut metrics = MetricsRegistry::with_enabled(true);
        let mut ec = EpochCtx {
            now: SimTime::from_secs(1),
            fe_inflight: &[9, 9],
            knee: 4,
            metrics: &mut metrics,
        };
        m.on_epoch(&mut ec);
        // Both deflected: nearest live still returned.
        assert_eq!(
            resolve_with(&mut m, SimTime::from_secs(1), &ranked, &faults, &[9, 9]),
            Some(0)
        );
        // And with every FE dead, the typed failure surfaces.
        let mut all_dead = FaultPlan::new();
        for fe in 0..2 {
            all_dead = all_dead.fe_outage(fe, SimTime::ZERO, SimTime::from_secs(500));
        }
        assert_eq!(
            resolve_with(&mut m, SimTime::from_secs(2), &ranked, &all_dead, &[0, 0]),
            None
        );
    }
}
