//! Exact `QueryOutcome` bookkeeping under scripted faults.
//!
//! Each scenario pins the *entire* outcome tally of a fault campaign,
//! not just its sign: the fault windows, deadlines and backoff bounds
//! are chosen so the outcome of every query is analytically forced.
//! With a 30% backoff jitter, attempt k's start time lies in a known
//! interval; the windows below keep those intervals strictly inside or
//! strictly outside the outage, so the retry count cannot vary with the
//! seed. The three runs execute as one sharded campaign — the tallies
//! must come out exact no matter which worker ran which world.

use cdnsim::{QueryOutcome, QuerySpec, RetryPolicy, ServiceConfig};
use emulator::{Campaign, CollectSink, Design, Scenario};
use nettopo::FaultPlan;
use simcore::time::{SimDuration, SimTime};

const QUERIES: usize = 3;

/// Three clients fire one query each at t = 1 ms via their default FE.
fn burst_design() -> Design {
    Design::custom(|sim| {
        sim.with(|w, net| {
            for client in 0..QUERIES {
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

/// FE/BE site counts are pure geometry — read them from a throwaway
/// world so fault plans can cover every site.
fn site_counts(scenario: &Scenario, cfg: &ServiceConfig) -> (usize, usize) {
    let mut probe = scenario.build_sim(cfg.clone());
    let fes = probe.with(|w, _| w.fe_count());
    (fes, cfg.be_sites.len())
}

#[test]
fn fault_campaign_tallies_are_exact() {
    let seed = 4242;
    let scenario = Scenario::small(seed);
    let base = ServiceConfig::google_like(seed);
    let (n_fes, n_bes) = site_counts(&scenario, &base);

    // Scenario 1 — Retried(2), exactly. All FEs dark over [0 ms, 5 s).
    // Attempt 1 starts at 1 ms, abandoned at its 2 s deadline. Backoff
    // 500 ms ±30% ⇒ attempt 2 starts in [2.35 s, 2.65 s], still dark,
    // abandoned in [4.35 s, 4.65 s]. Doubled backoff ±30% ⇒ attempt 3
    // starts in [5.05 s, 5.95 s], after the outage lifts ⇒ success on
    // the second retry for every jitter draw.
    let mut retry_plan = FaultPlan::default();
    for fe in 0..n_fes {
        retry_plan = retry_plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(5_000));
    }
    let retried_cfg = base
        .clone()
        .with_faults(retry_plan)
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(2_000),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(500),
            jitter: 0.3,
        });

    // Scenario 2 — TimedOut, exactly. All FEs dark for 60 s, one retry
    // allowed: both attempts fall inside the outage and the budget is
    // exhausted by ~2.3 s.
    let mut timeout_plan = FaultPlan::default();
    for fe in 0..n_fes {
        timeout_plan = timeout_plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let timed_out_cfg = base
        .clone()
        .with_faults(timeout_plan)
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(1_000),
            max_retries: 1,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        });

    // Scenario 3 — Degraded, exactly. All BE sites dark for 60 s with a
    // 1 s fetch deadline at the FE: the static portion is served from
    // the FE cache and the dynamic portion is replaced by the error
    // stub. No client retry is configured, so nothing else can happen.
    let mut degrade_plan = FaultPlan::default();
    for be in 0..n_bes {
        degrade_plan = degrade_plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let degraded_cfg = base
        .with_faults(degrade_plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_000));

    let mut c = Campaign::new(scenario);
    for (label, cfg) in [
        ("faults/retried", retried_cfg),
        ("faults/timed-out", timed_out_cfg),
        ("faults/degraded", degraded_cfg),
    ] {
        c.push(label, cfg, burst_design());
    }
    let report = c.execute_stream_with_threads(&|_| CollectSink::with_raw(true), 2);

    // ---- Retried(2) for every query ----
    let retried = report.get("faults/retried").unwrap();
    let t = retried.tally;
    assert_eq!(
        (t.ok, t.degraded, t.retried, t.timed_out),
        (0, 0, QUERIES, 0),
        "{t:?}"
    );
    assert_eq!(retried.output.raw.len(), QUERIES);
    for cq in &retried.output.raw {
        assert_eq!(
            cq.outcome,
            QueryOutcome::Retried(2),
            "client {} succeeded on the wrong attempt",
            cq.client
        );
        assert!(
            cq.t_done >= SimTime::from_millis(5_000),
            "success before the outage lifted"
        );
    }

    // ---- TimedOut for every query ----
    let timed_out = report.get("faults/timed-out").unwrap();
    let t = timed_out.tally;
    assert_eq!(
        (t.ok, t.degraded, t.retried, t.timed_out),
        (0, 0, 0, QUERIES),
        "{t:?}"
    );
    assert!(timed_out
        .output
        .raw
        .iter()
        .all(|cq| cq.outcome == QueryOutcome::TimedOut { attempts: 2 }));
    // Timed-out sessions have no complete timeline; the accounting
    // identity (processed + skipped = total) must still close.
    assert_eq!(timed_out.output.queries.len() + t.skipped, t.total());

    // ---- Degraded for every query ----
    let degraded = report.get("faults/degraded").unwrap();
    let t = degraded.tally;
    assert_eq!(
        (t.ok, t.degraded, t.retried, t.timed_out),
        (0, QUERIES, 0, 0),
        "{t:?}"
    );
    for cq in &degraded.output.raw {
        assert_eq!(cq.outcome, QueryOutcome::Degraded);
        assert_eq!(cq.plan.dynamic_bytes, cdnsim::world::DEGRADED_STUB_BYTES);
    }

    // The TSV carries the outcome column and the per-run tally comment
    // lines, so fault accounting is part of the golden-diffable surface.
    let tsv = report.to_tsv();
    assert!(tsv.contains("# run=faults/retried ok=0 degraded=0 retried=3 timed_out=0"));
    assert!(tsv.contains("Retried(2)"));
}

#[test]
fn fault_tallies_survive_resharding() {
    // Same campaign, serial vs maximally parallel: identical tallies and
    // identical TSV (the outcome bookkeeping lives inside the shard).
    let seed = 77;
    let scenario = Scenario::small(seed);
    let base = ServiceConfig::google_like(seed);
    let (n_fes, _) = site_counts(&scenario, &base);
    let mut plan = FaultPlan::default();
    for fe in 0..n_fes {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(5_000));
    }
    let cfg = base.with_faults(plan).with_client_retry(RetryPolicy {
        deadline: SimDuration::from_millis(2_000),
        max_retries: 3,
        base_backoff: SimDuration::from_millis(500),
        jitter: 0.3,
    });
    let mut c = Campaign::new(scenario);
    c.push("faults/a", cfg.clone(), burst_design());
    c.push("faults/b", cfg, burst_design());
    let serial = c.execute_stream_with_threads(&|_| CollectSink::new(), 1);
    let parallel = c.execute_stream_with_threads(&|_| CollectSink::new(), 4);
    assert_eq!(serial.to_tsv(), parallel.to_tsv());
    for label in ["faults/a", "faults/b"] {
        assert_eq!(
            serial.get(label).unwrap().tally,
            parallel.get(label).unwrap().tally
        );
    }
}
