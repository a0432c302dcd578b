//! Overload-robustness conformance: golden invariance with the
//! subsystem disabled (or armed-but-inert) and chaos properties with it
//! enabled.
//!
//! The contract has two halves. First, everything in the overload
//! subsystem is opt-in: a config that never sets a policy — or sets
//! policies that never trigger — must reproduce the pre-overload
//! campaign TSV byte for byte at any `FECDN_THREADS`. Second, with
//! arbitrary fault plans and arbitrary policy combinations the world
//! must never panic, never leak an in-flight slot, and always conserve
//! the outcome accounting identity
//! `ok + degraded + retried + timed_out + shed + no_live_fe == scheduled`
//! under every client→FE mapping strategy.

mod common;

use cdnsim::{
    BreakerPolicy, GeoTtlPolicy, LoadAwarePolicy, MappingPolicy, QueryOutcome, QuerySpec,
    RetryBudget, RetryPolicy, ServiceConfig,
};
use common::representative_campaign;
use emulator::{Campaign, CollectSink, Design, Scenario};
use nettopo::{BurstLossParams, FaultPlan};
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};

/// Arms every overload policy, tuned to be inert: a watermark no burst
/// reaches, a hedge delay longer than any fetch, a breaker that can't
/// trip without failures, and a retry budget that is never drawn from
/// (no retry policy is configured).
fn armed_but_inert(cfg: ServiceConfig) -> ServiceConfig {
    cfg.with_admission_control(1_000_000)
        .with_retry_budget(RetryBudget::default())
        .with_hedged_fetches(SimDuration::from_secs(3_600))
        .with_circuit_breaker(BreakerPolicy::default())
}

/// The representative campaign with the armed-but-inert overload block
/// attached to every run.
fn inert_overload_campaign(seed: u64) -> Campaign {
    use emulator::dataset_a::{DatasetA, KeywordPolicy};
    use emulator::dataset_b::DatasetB;
    let mut c = Campaign::new(Scenario::small(seed));
    c.push(
        "a/bing",
        armed_but_inert(ServiceConfig::bing_like(seed)),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::Fixed(0),
        }),
    );
    c.push(
        "a/google",
        armed_but_inert(ServiceConfig::google_like(seed)),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::RoundRobin(5),
        }),
    );
    c.push(
        "b/fixed-fe",
        armed_but_inert(ServiceConfig::google_like(seed)),
        Design::DatasetB(DatasetB::against(0).with_repeats(3)),
    );
    c.push(
        "custom/close-pair",
        armed_but_inert(ServiceConfig::bing_like(seed)),
        Design::custom(|sim| {
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 2);
                for r in 0..4u64 {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1_000 + r * 7_000),
                        QuerySpec {
                            client: 0,
                            keyword: r,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            });
        }),
    );
    c
}

#[test]
fn inert_overload_policies_leave_campaign_tsv_byte_identical() {
    // Same seed, same designs; the only difference is the armed-but-
    // inert overload policy block. The TSVs must match byte for byte —
    // this is the golden-invariance guarantee with policies attached.
    let plain = representative_campaign(4242)
        .execute_stream_with_threads(&|_| CollectSink::new(), 2)
        .to_tsv();
    let guarded = inert_overload_campaign(4242)
        .execute_stream_with_threads(&|_| CollectSink::new(), 2)
        .to_tsv();
    assert_eq!(plain, guarded);

    // And thread count must not matter on the guarded side either.
    let serial = inert_overload_campaign(4242)
        .execute_stream_with_threads(&|_| CollectSink::new(), 1)
        .to_tsv();
    let parallel = inert_overload_campaign(4242)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4)
        .to_tsv();
    assert_eq!(serial, parallel);
    assert_eq!(serial, plain);
}

#[test]
fn disabled_overload_matches_committed_golden() {
    // The default config never constructs any overload state, so the
    // committed golden from before the subsystem existed must still
    // reproduce exactly — and so must the armed-but-inert variant. (The
    // same golden is pinned by the determinism suite; asserting it here
    // makes an invariance failure point at the overload subsystem
    // directly.)
    let plain = representative_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4)
        .to_tsv();
    common::compare_golden(&plain, "campaign_seed42.tsv", "overload subsystem disabled");
    let guarded = inert_overload_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4)
        .to_tsv();
    common::compare_golden(
        &guarded,
        "campaign_seed42.tsv",
        "overload policies armed but inert",
    );
}

/// One scheduled burst: `n` clients fire at t = 1 ms, half pinned to
/// client 0's default FE so admission control and the load model see
/// real contention.
fn burst_design(n: usize) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let fe = w.default_fe(0);
            for client in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + (client as u64 % 3) * 40),
                    QuerySpec {
                        client,
                        keyword: client as u64,
                        fixed_fe: if client % 2 == 0 { Some(fe) } else { None },
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chaos: random fault plans against random overload-policy
    /// combinations and mapping strategies. The campaign must complete
    /// without panicking, the accounting identity must close, and
    /// serial and 4-way execution must agree byte-for-byte.
    #[test]
    fn chaos_faults_and_policies_conserve_accounting(
        seed in 0u64..10_000,
        n_queries in 4usize..10,
        fault_bits in 0u32..32,     // 5 fault kinds, one bit each
        with_model in 0u32..2,
        watermark in 0u32..4,       // 0 = no admission control
        with_retry in 0u32..2,
        budget_sel in 0u32..4,      // 0 = no budget, else max_tokens = sel - 1
        hedge_ms in 0u64..400,      // 0 = no hedging
        breaker_threshold in 0u32..4, // 0 = no breaker
        deadline_ms in 300u64..2_000,
        mapping in 0u32..3,         // NearestLive, DnsGeoTtl, LoadAware
    ) {
        let mut plan = FaultPlan::default();
        if fault_bits & 1 != 0 {
            plan = plan.fe_outage(0, SimTime::from_millis(50), SimTime::from_millis(900));
        }
        if fault_bits & 2 != 0 {
            plan = plan.fe_brownout(1, SimTime::ZERO, SimTime::from_millis(2_000), 8.0);
        }
        if fault_bits & 4 != 0 {
            plan = plan.be_outage(0, SimTime::from_millis(20), SimTime::from_millis(1_500));
        }
        if fault_bits & 8 != 0 {
            plan = plan.fe_capacity_dip(0, SimTime::ZERO, SimTime::from_millis(3_000), 0.25);
        }
        if fault_bits & 16 != 0 {
            plan = plan.client_burst_loss(
                0,
                0,
                SimTime::ZERO,
                SimTime::from_millis(5_000),
                BurstLossParams::moderate(),
            );
        }

        let mut cfg = ServiceConfig::google_like(seed)
            .with_faults(plan)
            .with_fe_fetch_deadline(SimDuration::from_millis(deadline_ms));
        if with_model != 0 {
            cfg = cfg.with_load_model(cdnsim::LoadModel {
                fe_capacity: 2,
                be_capacity: 4,
                max_slowdown: 10.0,
            });
        }
        if watermark > 0 {
            cfg = cfg.with_admission_control(watermark);
        }
        // A client deadline is always armed — a blackholed peer
        // retransmits forever, so an unbounded client would keep the
        // event queue alive indefinitely. The chaos axis is whether
        // retries are allowed, not whether clients ever give up.
        cfg = cfg.with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(deadline_ms * 2),
            max_retries: if with_retry != 0 { 2 } else { 0 },
            base_backoff: SimDuration::from_millis(150),
            jitter: 0.3,
        });
        if budget_sel > 0 {
            cfg = cfg.with_retry_budget(RetryBudget {
                max_tokens: (budget_sel - 1) as f64,
                refill_per_sec: 0.5,
            });
        }
        if hedge_ms > 0 {
            cfg = cfg.with_hedged_fetches(SimDuration::from_millis(hedge_ms));
        }
        if breaker_threshold > 0 {
            cfg = cfg.with_circuit_breaker(BreakerPolicy {
                failure_threshold: breaker_threshold,
                cooldown: SimDuration::from_millis(700),
            });
        }
        cfg = cfg.with_mapping(match mapping {
            0 => MappingPolicy::NearestLive,
            1 => MappingPolicy::DnsGeoTtl(GeoTtlPolicy::default()),
            _ => MappingPolicy::LoadAware(LoadAwarePolicy::default()),
        });

        // 10 vantages so every chaos client index (n_queries < 10) is valid.
        let mut c = Campaign::new(Scenario::with_size(seed, 10, 60));
        c.push("chaos", cfg, burst_design(n_queries));

        let serial = c.execute_stream_with_threads(&|_| CollectSink::with_raw(true), 1);
        let parallel = c.execute_stream_with_threads(&|_| CollectSink::with_raw(true), 4);
        let tsv = serial.to_tsv();
        prop_assert_eq!(&tsv, &parallel.to_tsv());

        let run = serial.get("chaos").unwrap();
        let t = run.tally;
        prop_assert_eq!(
            t.ok + t.degraded + t.retried + t.timed_out + t.shed + t.no_live_fe,
            n_queries,
            "accounting leak: {:?}",
            t
        );
        // Only health-aware strategies fail a query fast; the default
        // falls back to the dead nearest FE.
        if mapping == 0 {
            prop_assert_eq!(t.no_live_fe, 0);
        }
        prop_assert_eq!(t.total(), n_queries);
        prop_assert_eq!(run.output.raw.len(), n_queries);
        // Outcome rows and tally buckets must agree exactly.
        let shed = run
            .output
            .raw
            .iter()
            .filter(|cq| matches!(cq.outcome, QueryOutcome::Shed { .. }))
            .count();
        prop_assert_eq!(shed, t.shed);
        // The `# run=` line carries `shed=N` exactly when N > 0.
        let line = tsv.lines().find(|l| l.starts_with("# run=chaos ")).unwrap();
        prop_assert_eq!(line.contains(" shed="), t.shed > 0, "{}", line);
        if t.shed > 0 {
            prop_assert!(line.contains(&format!(" shed={} ", t.shed)), "{}", line);
        }
        // Shed is impossible without admission control.
        if watermark == 0 {
            prop_assert_eq!(t.shed, 0);
        }
    }
}
