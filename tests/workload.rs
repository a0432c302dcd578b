//! Determinism conformance for the dynamic-popularity workload
//! generator and the session-slab campaign mode.
//!
//! The contract: a churned-Zipf session campaign is (a) byte-identical
//! at any `FECDN_THREADS`, (b) byte-identical across reruns, pinned by
//! a committed golden, and (c) stable under run reordering — every
//! run's RNG is a named child stream (`stream_seed(campaign seed,
//! label)`), so adding, removing or reordering sibling runs never
//! perturbs a session workload's draws.

mod common;

use emulator::{
    Campaign, CollectSink, Design, Scenario, SessionFeeder, SessionPlan, SessionWorkload,
};
use proptest::prelude::*;
use simcore::dist::{PopularityModel, PopularityProcess, Zipf};
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

/// The golden-pinned workload: shot-noise churn plus a diurnal wave
/// over a Zipf(0.9) catalog, 40 single-query sessions.
fn churned_workload() -> SessionWorkload {
    SessionWorkload::new(40)
        .with_mean_gap(SimDuration::from_millis(200))
        .with_popularity(
            PopularityModel::static_zipf(0.9)
                .with_churn(5.0)
                .with_diurnal(0.3, SimDuration::from_secs(60)),
        )
}

fn churned_campaign(seed: u64) -> Campaign {
    let mut c = Campaign::new(Scenario::small(seed));
    c.push(
        "sessions/churned",
        cdnsim::ServiceConfig::google_like(seed),
        Design::Sessions(churned_workload()),
    );
    c
}

#[test]
fn churned_campaign_is_thread_invariant_and_matches_golden() {
    let serial = churned_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 1)
        .to_tsv();
    let parallel = churned_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4)
        .to_tsv();
    assert_eq!(serial, parallel, "thread count changed the session TSV");
    common::compare_golden(
        &serial,
        "campaign_churned_seed42.tsv",
        "churned-Zipf session campaign",
    );
    // Rerun determinism: a fresh campaign object reproduces the bytes.
    let again = churned_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 2)
        .to_tsv();
    assert_eq!(serial, again);
}

#[test]
fn session_campaign_accounts_for_every_session() {
    let report = churned_campaign(7).execute_stream_with_threads(&|_| CollectSink::new(), 2);
    let run = report.get("sessions/churned").unwrap();
    let t = run.tally;
    assert_eq!(t.total(), 40, "accounting leak: {t:?}");
    assert!(run.stats.peak_pending_events > 0, "fed runs track hiwater");
    // The FE serves one static burst per query, and this fault-free
    // campaign sends its 40 queries one attempt each.
    assert_eq!(run.metrics.counter("cdnsim.fe_static_cache_hits"), Some(40));
}

#[test]
fn feeder_schedule_is_independent_of_feed_batching() {
    // One feeder materialised in a single pass vs. an identical twin
    // stepped in ragged upto increments: the session streams must agree
    // exactly — chunk boundaries never touch the draw order.
    let w = churned_workload();
    let mut whole = SessionFeeder::new(w.clone(), 99, 12, 300);
    let plans: Vec<SessionPlan> = std::iter::from_fn(|| whole.next_session()).collect();
    assert_eq!(plans.len(), 40);

    let mut stepped = SessionFeeder::new(w, 99, 12, 300);
    let mut got: Vec<SessionPlan> = Vec::new();
    let mut upto = SimTime::ZERO;
    while !stepped.exhausted() {
        upto += SimDuration::from_millis(137);
        while stepped.next_start().is_some_and(|t| t <= upto) {
            got.push(stepped.next_session().unwrap());
        }
    }
    assert_eq!(plans, got);
}

#[test]
fn zero_churn_process_is_plain_zipf() {
    // The armed-but-inert half of the workload contract: churn 0 and no
    // flash crowds must reproduce bare Zipf draws exactly, leaving the
    // churn stream untouched.
    let n = 500;
    let zipf = Zipf::new(n, 0.9);
    let mut proc = PopularityProcess::new(
        n,
        PopularityModel::static_zipf(0.9),
        Rng::from_seed_and_name(5, "test/churn"),
    );
    let mut a = Rng::from_seed_and_name(5, "test/draws");
    let mut b = Rng::from_seed_and_name(5, "test/draws");
    for i in 0..2_000u64 {
        let t = SimTime::from_millis(i * 13);
        assert_eq!(proc.sample(t, &mut a), zipf.sample_rank(&mut b) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Run-reordering stability: the churned session run produces the
    /// same rows whether it executes alone, first, or after an
    /// unrelated sibling — its seed is `stream_seed(campaign, label)`,
    /// a pure function of the label.
    #[test]
    fn session_rows_are_stable_under_run_reordering(seed in 0u64..500) {
        use emulator::dataset_a::{DatasetA, KeywordPolicy};
        let sibling = || Design::DatasetA(DatasetA {
            repeats: 1,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::Fixed(0),
        });
        let small = SessionWorkload::new(8)
            .with_mean_gap(SimDuration::from_millis(150))
            .with_popularity(PopularityModel::static_zipf(0.9).with_churn(20.0));

        let mut alone = Campaign::new(Scenario::small(seed));
        alone.push(
            "sessions/reorder",
            cdnsim::ServiceConfig::google_like(seed),
            Design::Sessions(small.clone()),
        );
        let mut paired = Campaign::new(Scenario::small(seed));
        paired.push("zz/sibling", cdnsim::ServiceConfig::bing_like(seed), sibling());
        paired.push(
            "sessions/reorder",
            cdnsim::ServiceConfig::google_like(seed),
            Design::Sessions(small),
        );

        let rows = |c: &Campaign| -> Vec<String> {
            let tsv = c.execute_stream_with_threads(&|_| CollectSink::new(), 2).to_tsv();
            tsv.lines()
                .filter(|l| l.contains("sessions/reorder"))
                .map(String::from)
                .collect()
        };
        prop_assert_eq!(rows(&alone), rows(&paired));
    }

    /// Shot-noise redraws are a pure function of (seed, name): two
    /// processes built from the same named streams agree at every
    /// sampled instant, regardless of how their advances interleave.
    #[test]
    fn shot_noise_redraws_are_stream_stable(
        seed in 0u64..10_000,
        churn in 1.0f64..200.0,
        steps in 10usize..60,
    ) {
        let model = PopularityModel::static_zipf(0.8).with_churn(churn);
        let mut a = PopularityProcess::new(200, model.clone(), Rng::from_seed_and_name(seed, "wl/churn"));
        let mut b = PopularityProcess::new(200, model, Rng::from_seed_and_name(seed, "wl/churn"));
        // a advances in small steps, b jumps straight to each sample
        // instant; draws must agree anyway.
        let mut da = Rng::from_seed_and_name(seed, "wl/draw");
        let mut db = Rng::from_seed_and_name(seed, "wl/draw");
        for i in 0..steps {
            let t = SimTime::from_millis((i as u64 + 1) * 97);
            a.advance(SimTime::from_millis(i as u64 * 97 + 48));
            prop_assert_eq!(a.sample(t, &mut da), b.sample(t, &mut db));
        }
    }
}
