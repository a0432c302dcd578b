//! Strategy-conformance battery for the pluggable client→FE mapping
//! layer (`cdnsim::mapping`).
//!
//! Four contracts are pinned here:
//!
//! 1. **Pure refactor** — with the default [`NearestLive`] strategy
//!    selected explicitly, the representative campaign reproduces the
//!    committed golden traces byte-for-byte at 1 and 4 workers: the
//!    strategy extraction changed no behaviour.
//! 2. **LoadAware golden** — a flash-crowd campaign under epoch-based
//!    load-aware re-mapping has its own committed golden, thread
//!    invariant like every other trace.
//! 3. **Liveness** — property: a fresh resolution returns a *live* FE
//!    under any random outage mask whenever one exists; when none is
//!    live, health-aware strategies fail typed (`None` →
//!    `QueryOutcome::NoLiveFe`) while `NearestLive` keeps its
//!    historical dead-default fallback.
//! 4. **Conservation** — re-mapping epochs never lose or duplicate
//!    sessions: every scheduled query surfaces as exactly one outcome
//!    in the run tally.
//! 5. **Strategy paths end to end** — DnsGeoTtl under FE churn and
//!    LoadAware under load and blackout, each run through a full world:
//!    the run must actually take the path it is there for (stale
//!    resolutions, re-maps, deflection, typed no-live-FE), conserve
//!    sessions, and render the same TSV and `metrics.tsv` at 1 and 4
//!    workers.

mod common;

use cdnsim::mapping::ResolveCtx;
use cdnsim::{
    GeoTtlPolicy, LoadAwarePolicy, LoadModel, Mapper, MappingPolicy, QueryOutcome, QuerySpec,
    RetryPolicy, ServiceConfig,
};
use emulator::{Campaign, Design, Scenario};
use nettopo::geo::GeoPoint;
use nettopo::FaultPlan;
use proptest::prelude::*;
use simcore::telemetry::MetricsRegistry;
use simcore::time::{SimDuration, SimTime};

/// The number of queries the flash-crowd design schedules.
const FLASH_QUERIES: usize = 12;

/// A flash crowd: a burst of near-simultaneous queries from a small
/// client pool, against a service whose per-FE knee is low enough that
/// the crowd pushes the popular FE past it within the first epochs.
fn flash_design() -> Design {
    Design::custom(|sim| {
        sim.with(|w, net| {
            for i in 0..FLASH_QUERIES {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + 5 * i as u64),
                    QuerySpec {
                        client: i % 3,
                        keyword: i as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

/// The load-aware flash-crowd campaign behind golden
/// `mapping_loadaware_flash.tsv`.
fn loadaware_flash_campaign(seed: u64) -> Campaign {
    let cfg = ServiceConfig::google_like(seed)
        .with_mapping(MappingPolicy::LoadAware(LoadAwarePolicy {
            epoch: SimDuration::from_millis(25),
            high_watermark: 1.0,
            spill_width: 4,
            low_watermark: 0.5,
        }))
        .with_load_model(LoadModel {
            fe_capacity: 2,
            be_capacity: 4,
            max_slowdown: 10.0,
        });
    let mut c = Campaign::new(Scenario::with_size(seed, 10, 60));
    c.push("map/loadaware-flash", cfg, flash_design()).keep_raw = true;
    c
}

#[test]
fn nearest_live_reproduces_goldens_at_1_and_4_workers() {
    // The mapping refactor must be invisible under the default
    // strategy: pin NearestLive explicitly on every run and demand the
    // exact committed traces, serial and sharded.
    for (seed, name) in [(42, "campaign_seed42.tsv"), (7, "campaign_seed7.tsv")] {
        let mut c = common::representative_campaign(seed);
        for run in c.descriptors_mut() {
            run.cfg = run.cfg.clone().with_mapping(MappingPolicy::NearestLive);
        }
        common::compare_golden(
            &c.execute_with_threads(1).to_tsv(),
            name,
            "explicit NearestLive, 1 worker",
        );
        common::compare_golden(
            &c.execute_with_threads(4).to_tsv(),
            name,
            "explicit NearestLive, 4 workers",
        );
    }
}

#[test]
fn loadaware_flash_crowd_matches_golden() {
    let c = loadaware_flash_campaign(42);
    let serial = c.execute_with_threads(1).to_tsv();
    common::compare_golden(
        &serial,
        "mapping_loadaware_flash.tsv",
        "LoadAware flash, serial",
    );
    assert_eq!(
        serial,
        c.execute_with_threads(4).to_tsv(),
        "LoadAware flash campaign must be thread invariant"
    );
}

#[test]
fn sessions_are_conserved_across_remapping_epochs() {
    // Epoch-driven re-mapping shifts demand mid-run; it must never
    // drop, duplicate or strand a session. Exercise both the pure
    // flash crowd and a variant where an outage forces typed failures.
    let report = loadaware_flash_campaign(42).execute_with_threads(1);
    let run = report.get("map/loadaware-flash").unwrap();
    let t = &run.tally;
    assert_eq!(
        t.total(),
        FLASH_QUERIES,
        "every scheduled query must surface exactly once in the tally: {t:?}"
    );
    assert_eq!(run.raw.len(), FLASH_QUERIES);

    // Same crowd, but every FE dark for the whole run: all sessions
    // must surface as typed no-live-FE failures — still conserved.
    let seed = 42;
    let base = ServiceConfig::google_like(seed);
    let scenario = Scenario::with_size(seed, 10, 60);
    let n_fes = scenario.build_sim(base.clone()).with(|w, _| w.fe_count());
    let mut all_dark = FaultPlan::default();
    for fe in 0..n_fes {
        all_dark = all_dark.fe_outage(fe, SimTime::ZERO, SimTime::from_secs(600));
    }
    let cfg = base
        .with_mapping(MappingPolicy::LoadAware(LoadAwarePolicy::default()))
        .with_faults(all_dark);
    let mut c = Campaign::new(scenario);
    c.push("map/dark", cfg, flash_design()).keep_raw = true;
    let report = c.execute_with_threads(1);
    let run = report.get("map/dark").unwrap();
    assert_eq!(run.tally.no_live_fe, FLASH_QUERIES);
    assert_eq!(run.tally.total(), FLASH_QUERIES);
}

#[test]
fn all_dead_fes_fail_fast_with_typed_outcome() {
    // Regression for the unbounded-retry footgun: a health-aware
    // strategy that can only return dead FEs must fail the query
    // immediately with `NoLiveFe` — no connection attempt, no retry
    // spin until the deadline.
    let seed = 7;
    let base = ServiceConfig::google_like(seed);
    let scenario = Scenario::with_size(seed, 10, 60);
    let n_fes = scenario.build_sim(base.clone()).with(|w, _| w.fe_count());
    let mut all_dark = FaultPlan::default();
    for fe in 0..n_fes {
        all_dark = all_dark.fe_outage(fe, SimTime::ZERO, SimTime::from_secs(600));
    }
    let cfg = base
        .with_mapping(MappingPolicy::DnsGeoTtl(GeoTtlPolicy::default()))
        .with_faults(all_dark);
    let mut c = Campaign::new(scenario);
    c.push("map/no-live", cfg, flash_design()).keep_raw = true;
    let report = c.execute_with_threads(1);
    let run = report.get("map/no-live").unwrap();
    assert_eq!(run.raw.len(), FLASH_QUERIES);
    for cq in &run.raw {
        assert_eq!(
            cq.outcome,
            QueryOutcome::NoLiveFe { attempts: 1 },
            "without client retries the first resolution failure is terminal"
        );
        assert_eq!(cq.fe, None, "no FE was ever selected");
        assert!(
            cq.trace.is_empty(),
            "fail-fast must not open a connection, let alone send packets"
        );
    }
    assert!(!QueryOutcome::NoLiveFe { attempts: 1 }.served());
}

/// `n` clients fire one query each at t = 1 ms via their default FE.
fn burst_design(n: usize) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            for client in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1),
                    QuerySpec {
                        client,
                        keyword: client as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

/// Repeated queries from a small client pool, spread over time: the
/// same geo buckets re-resolve across TTL expiries and fault windows.
fn staggered_design(n: usize, step_ms: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            for i in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + step_ms * i as u64),
                    QuerySpec {
                        client: i % 4,
                        keyword: i as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

#[test]
fn strategy_paths_fire_and_conserve_sessions_at_1_and_4_workers() {
    let seed = 2026;
    let scenario = Scenario::with_size(seed, 10, 60);
    let base = ServiceConfig::google_like(seed);
    let n_fes = scenario.build_sim(base.clone()).with(|w, _| w.fe_count());
    let load_model = LoadModel {
        fe_capacity: 2,
        be_capacity: 4,
        max_slowdown: 10.0,
    };

    // DnsGeoTtl under FE churn: a short TTL forces bucket re-resolution
    // mid-run, and an outage over all-but-one FE makes cached answers
    // go stale (clients keep them until expiry) while post-TTL
    // resolutions re-map to the lone live FE. Client retries exercise
    // resolution on retry attempts too.
    let mut churn = FaultPlan::default();
    for fe in 0..n_fes.saturating_sub(1) {
        churn = churn.fe_outage(fe, SimTime::from_millis(100), SimTime::from_millis(3_000));
    }
    let geo = base
        .clone()
        .with_mapping(MappingPolicy::DnsGeoTtl(GeoTtlPolicy {
            ttl: SimDuration::from_millis(400),
            bucket_deg: 10.0,
        }))
        .with_faults(churn)
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(1_500),
            max_retries: 2,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        });

    // LoadAware with an epoch far shorter than a query's life: re-maps
    // land mid-flight during open connections, and the tight knee makes
    // deflection actually trigger under the burst.
    let load_aware = base
        .clone()
        .with_mapping(MappingPolicy::LoadAware(LoadAwarePolicy {
            epoch: SimDuration::from_millis(25),
            high_watermark: 1.0,
            spill_width: 4,
            low_watermark: 0.5,
        }))
        .with_load_model(load_model);

    // LoadAware with every FE dark at the burst: deflection, liveness
    // filtering and typed no-live-FE handling all on the resolve path.
    let mut all_dark = FaultPlan::default();
    for fe in 0..n_fes {
        all_dark = all_dark.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(400));
    }
    let dark = base
        .with_mapping(MappingPolicy::LoadAware(LoadAwarePolicy {
            epoch: SimDuration::from_millis(50),
            high_watermark: 1.0,
            spill_width: 4,
            low_watermark: 0.5,
        }))
        .with_load_model(load_model)
        .with_faults(all_dark);

    // (label, config, design, queries scheduled, metrics the run must
    // record — without them it never took the path it is here for).
    type Case = (
        &'static str,
        ServiceConfig,
        Design,
        usize,
        &'static [&'static str],
    );
    let cases: [Case; 3] = [
        (
            "map/geo-ttl-churn",
            geo,
            staggered_design(10, 90),
            10,
            &["cdnsim.stale_resolutions", "cdnsim.remap_events"],
        ),
        (
            "map/load-aware-25ms",
            load_aware,
            burst_design(8),
            8,
            &["cdnsim.remap_events", "cdnsim.fe_demand_hiwater"],
        ),
        (
            "map/load-aware-dark",
            dark,
            burst_design(8),
            8,
            &["cdnsim.no_live_fe"],
        ),
    ];
    let mut c = Campaign::new(scenario);
    for (label, cfg, design, _, _) in &cases {
        let d = c.push(*label, cfg.clone(), design.clone());
        d.keep_raw = true;
        d.metrics = Some(true);
    }
    let serial = c.execute_with_threads(1);
    let sharded = c.execute_with_threads(4);
    assert_eq!(
        serial.to_tsv(),
        sharded.to_tsv(),
        "strategy campaign TSV must be thread invariant"
    );
    assert_eq!(
        serial.metrics_tsv(),
        sharded.metrics_tsv(),
        "strategy campaign metrics.tsv must be thread invariant"
    );
    for (label, _, _, queries, want) in &cases {
        let run = serial.get(label).unwrap();
        assert_eq!(
            run.tally.total(),
            *queries,
            "{label}: every scheduled query must surface exactly once: {:?}",
            run.tally
        );
        assert_eq!(run.raw.len(), *queries, "{label}: one record per query");
        let names = run.metrics.names();
        for m in *want {
            assert!(
                names.contains(m),
                "{label}: the run never recorded `{m}`:\n{}",
                serial.metrics_tsv()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under any random FE outage mask, a fresh resolution returns a
    /// *live* FE whenever one exists. When every FE is dead,
    /// health-aware strategies return `None` (→ typed `NoLiveFe`)
    /// while `NearestLive` keeps the historical dead-default fallback
    /// that the committed goldens depend on.
    #[test]
    fn fresh_resolution_returns_a_live_fe(
        mask in 0u32..32,
        strategy in 0usize..3,
        now_ms in 0u64..10_000,
    ) {
        let n = 5usize;
        let now = SimTime::from_millis(now_ms);
        let mut plan = FaultPlan::default();
        for fe in 0..n {
            if mask & (1 << fe) != 0 {
                plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_secs(100));
            }
        }
        let policy = match strategy {
            0 => MappingPolicy::NearestLive,
            1 => MappingPolicy::DnsGeoTtl(GeoTtlPolicy::default()),
            _ => MappingPolicy::LoadAware(LoadAwarePolicy::default()),
        };
        let mut mapper = Mapper::from_policy(&policy, n, SimDuration::from_secs(60));
        let ranked: Vec<usize> = (0..n).collect();
        let inflight = vec![0u32; n];
        let mut metrics = MetricsRegistry::with_enabled(false);
        let mut ctx = ResolveCtx {
            now,
            client: 0,
            default_fe: 0,
            ranked: &ranked,
            client_pt: GeoPoint::new(40.0, -74.0),
            faults: &plan,
            outages_possible: plan.has_fe_outages(),
            fe_inflight: &inflight,
            knee: 4,
            metrics: &mut metrics,
        };
        let got = mapper.resolve(&mut ctx);
        let live: Vec<usize> = (0..n).filter(|&f| !plan.fe_down(f, now)).collect();
        if live.is_empty() {
            match policy {
                MappingPolicy::NearestLive => prop_assert_eq!(
                    got,
                    Some(0),
                    "NearestLive must keep the historical dead-default fallback"
                ),
                _ => prop_assert_eq!(
                    got,
                    None,
                    "health-aware strategies must fail typed when every FE is dead"
                ),
            }
        } else {
            let fe = got.expect("a live FE exists; resolution must not fail");
            prop_assert!(
                live.contains(&fe),
                "strategy {policy:?} returned dead FE {fe} (mask {mask:#b}, live {live:?})"
            );
        }
    }
}
