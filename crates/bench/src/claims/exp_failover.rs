//! Robustness — back-end outage, failover and recovery.
//!
//! The paper's split-TCP architecture concentrates failure handling at
//! the front-end: when a back-end site goes dark, the FE re-routes its
//! fetches to the next-nearest live site, and when the site returns, the
//! FE's persistent connections must be re-established from a cold
//! congestion window. Both effects are visible *only* in `Tdynamic` —
//! the static portion is served from the FE's cache and never touches
//! the failed site.
//!
//! Design: one client issues evenly spaced queries through its default
//! FE for 60 virtual seconds. The FE's primary back-end site is dark
//! during the middle third of the campaign. Observables per query:
//! `Tstatic`, `Tdynamic`, the true fetch interval, and the serving BE.
//!
//! Asserted:
//! * every query completes with outcome `Ok` — failover, not failure;
//! * during the outage fetches move to a different (live) site and the
//!   median `Tdynamic` rises;
//! * after the outage `Tdynamic` recovers to its pre-outage level;
//! * the first post-recovery fetch pays a cold-reconnect penalty over
//!   the warm steady state that follows it;
//! * median `Tstatic` stays flat through all three phases;
//! * the whole experiment is deterministic: a second run reproduces
//!   every measurement exactly.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, scenario, Scale};
use cdnsim::{QueryOutcome, QuerySpec, ServiceConfig};
use emulator::runner::ProcessedQuery;
use emulator::{Design, FoldSink};
use nettopo::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use stats::quantile::median;

const OUTAGE_START_MS: u64 = 20_000;
const OUTAGE_END_MS: u64 = 40_000;

fn failover_design(client: usize, fe: usize, repeats: u64, spacing_ms: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let be = w.be_of_fe(fe);
            w.prewarm(net, fe, be, 2);
            for r in 0..repeats {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(3_000 + r * spacing_ms),
                    QuerySpec {
                        client,
                        keyword: r,
                        fixed_fe: Some(fe),
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

fn phase_of(t_start_ms: f64) -> &'static str {
    if t_start_ms < OUTAGE_START_MS as f64 {
        "before"
    } else if t_start_ms < OUTAGE_END_MS as f64 {
        "during"
    } else {
        "after"
    }
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let sc = scenario(scale, seed);
    let (repeats, spacing_ms) = match scale {
        Scale::Quick => (30u64, 2_000u64),
        Scale::Paper => (120u64, 500u64),
    };

    let base = ServiceConfig::google_like(seed);
    let mut probe = sc.build_sim(base.clone());
    let (client, fe, primary_be) = probe.with(|w, _| {
        let client = 0usize;
        let fe = w.default_fe(client);
        (client, fe, w.be_of_fe(fe))
    });
    drop(probe);
    eprintln!(
        "client {client} via FE {fe}, primary BE site {primary_be} dark \
         {}–{} s",
        OUTAGE_START_MS / 1_000,
        OUTAGE_END_MS / 1_000
    );

    let plan = FaultPlan::default().be_outage(
        primary_be,
        SimTime::from_millis(OUTAGE_START_MS),
        SimTime::from_millis(OUTAGE_END_MS),
    );
    let cfg = base
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_500));

    // Two descriptors with the *same* derived seed: identical worlds that
    // may land on different worker threads, so the exact-reproduction
    // check also exercises shard-level determinism.
    let design = failover_design(client, fe, repeats, spacing_ms);
    let mut c = campaign(scale, seed);
    let run_seed = c.push("failover", cfg.clone(), design.clone()).seed;
    c.push("failover-rerun", cfg, design).seed = run_seed;
    // This experiment inspects every individual query (phase timelines,
    // rerun comparison), so its sink retains the processed records —
    // still trace-free and O(repeats) small.
    let report = execute_stream(&c, &|_| {
        FoldSink::new(Vec::new(), |v: &mut Vec<ProcessedQuery>, q| {
            v.push(q.clone())
        })
    });
    let out = report.output("failover");
    let tally = report.tally("failover");
    let rerun = report.output("failover-rerun");

    let mut tsv = Tsv::new(&[
        "t_start_ms",
        "phase",
        "be",
        "t_static_ms",
        "t_dynamic_ms",
        "fetch_ms",
        "outcome",
    ]);
    for pq in out {
        tsv.row(&[
            format!("{:.1}", pq.t_start_ms),
            phase_of(pq.t_start_ms).to_string(),
            format!("{}", pq.be),
            format!("{:.3}", pq.params.t_static_ms),
            format!("{:.3}", pq.params.t_dynamic_ms),
            format!("{:.3}", pq.true_fetch_ms.unwrap_or(f64::NAN)),
            format!("{:?}", pq.outcome),
        ]);
    }

    let in_phase = |phase: &str| -> Vec<&ProcessedQuery> {
        out.iter()
            .filter(|q| phase_of(q.t_start_ms) == phase)
            .collect()
    };
    let med = |qs: &[&ProcessedQuery], f: fn(&ProcessedQuery) -> f64| -> f64 {
        let v: Vec<f64> = qs.iter().map(|q| f(q)).collect();
        median(&v).unwrap_or(f64::NAN)
    };
    let before = in_phase("before");
    let during = in_phase("during");
    let after = in_phase("after");
    let td = |q: &ProcessedQuery| q.params.t_dynamic_ms;
    let ts = |q: &ProcessedQuery| q.params.t_static_ms;
    let before_td = med(&before, td);
    let during_td = med(&during, td);
    let after_td = med(&after, td);
    let before_ts = med(&before, ts);
    let during_ts = med(&during, ts);
    let after_ts = med(&after, ts);
    let first_after = after.first().expect("post-outage queries exist");
    // Isolate the network share of the fetch (handshake + transfer):
    // ground-truth fetch minus ground-truth processing. Raw fetch times
    // are dominated by per-keyword processing noise.
    let fetch_net = |q: &ProcessedQuery| q.true_fetch_ms.map(|f| f - q.proc_ms).unwrap_or(f64::NAN);
    let after_steady: Vec<f64> = after.iter().skip(1).map(|q| fetch_net(q)).collect();
    let steady_fetch = median(&after_steady).unwrap_or(f64::NAN);
    let cold_fetch = fetch_net(first_after);

    eprintln!(
        "Tdynamic median: before {before_td:.1} ms, during {during_td:.1} ms, \
         after {after_td:.1} ms"
    );
    eprintln!(
        "Tstatic  median: before {before_ts:.1} ms, during {during_ts:.1} ms, \
         after {after_ts:.1} ms"
    );
    eprintln!(
        "post-recovery fetch network share: cold {cold_fetch:.1} ms vs warm \
         steady {steady_fetch:.1} ms (BE rtt {:.1} ms)",
        first_after.rtt_fe_be_ms
    );
    eprintln!(
        "tally: {} ok, {} degraded, {} retried, {} timed out, {} skipped",
        tally.ok, tally.degraded, tally.retried, tally.timed_out, tally.skipped
    );

    let mut run = ClaimRun::default();
    run.check(
        "every query completes with outcome Ok (failover, not failure)",
        "",
        tally.ok == repeats as usize
            && tally.total() == repeats as usize
            && tally.skipped == 0
            && out.iter().all(|q| q.outcome == QueryOutcome::Ok),
    );
    run.check(
        "fetches move off the dark site during the outage",
        "",
        !during.is_empty() && during.iter().all(|q| q.be != primary_be),
    );
    run.check(
        "fetches return to the primary site after the outage",
        "",
        !after.is_empty() && after.iter().all(|q| q.be == primary_be),
    );
    run.check(
        "Tdynamic spikes during the outage",
        format!("{before_td:.0} → {during_td:.0} ms"),
        during_td > before_td + 5.0,
    );
    run.check(
        "Tdynamic recovers after the outage",
        format!("{during_td:.0} → {after_td:.0} ms"),
        after_td < during_td && (after_td - before_td).abs() < 0.2 * before_td + 10.0,
    );
    run.check(
        "first post-recovery fetch pays a cold-reconnect penalty",
        format!("{cold_fetch:.0} vs {steady_fetch:.0} ms warm"),
        // One extra handshake RTT minus per-packet jitter: demand at
        // least a fifth of the nominal BE RTT over the warm median.
        cold_fetch > steady_fetch + 0.2 * first_after.rtt_fe_be_ms,
    );
    let ts_flat = |a: f64, b: f64| (a - b).abs() < 0.25 * a.max(4.0) + 4.0;
    run.check(
        "Tstatic flat through outage and recovery",
        format!("{before_ts:.1}/{during_ts:.1}/{after_ts:.1} ms"),
        ts_flat(before_ts, during_ts) && ts_flat(before_ts, after_ts),
    );
    run.check(
        "rerun reproduces every measurement exactly",
        "",
        out.len() == rerun.len()
            && out.iter().zip(rerun.iter()).all(|(a, b)| {
                a.params.t_dynamic_ms == b.params.t_dynamic_ms
                    && a.params.t_static_ms == b.params.t_static_ms
                    && a.be == b.be
                    && a.t_start_ms == b.t_start_ms
            }),
    );
    run.with_tsv(tsv)
}
