//! Extension — the PlanetLab vantage bias (Sec. 6 / reviewer #5).
//!
//! "A latency of 20ms even to Akamai is really low. DSL end-hosts would
//! have higher latency ... the latencies you found are certainly not
//! realistic" (review #5); the authors themselves note that "some Akamai
//! frontend servers are placed closer to University campus networks".
//!
//! This experiment re-runs the Fig. 6 measurement from two populations —
//! the campus-biased PlanetLab-like one and a residential-heavy one —
//! and quantifies how much of the paper's headline "80 % within 20 ms"
//! is an artefact of where PlanetLab lived.
//!
//! Asserted:
//! * the PlanetLab population reproduces the paper's numbers;
//! * the residential population's within-20 ms fraction collapses (DSL
//!   interleaving alone adds ~28 ms);
//! * the *relative* finding survives: Bing-like FEs are still closer
//!   than Google-like ones at matched population — the paper's
//!   comparative claims are robust to the bias, its absolute ones are
//!   not.
//!
//! The design is fixed-size: `FECDN_SCALE` is validated and then ignored.

use super::{ClaimRun, Tsv};
use crate::{execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::{Campaign, Design, FoldSink, Scenario};
use inference::GroupMediansAcc;
use nettopo::vantage::{planetlab_like, VantageConfig};
use searchbe::keywords::KeywordCorpus;
use simcore::time::SimDuration;
use stats::Ecdf;

fn fig6_design() -> Design {
    Design::DatasetA(DatasetA {
        repeats: 4,
        spacing: SimDuration::from_secs(8),
        keywords: KeywordPolicy::Fixed(0),
    })
}

fn rtts(acc: &GroupMediansAcc) -> Ecdf {
    let per_node: Vec<f64> = acc.finish().iter().map(|g| g.rtt_ms).collect();
    Ecdf::new(&per_node)
}

fn scenario_with(seed: u64, cfg: VantageConfig) -> Scenario {
    Scenario {
        seed,
        vantages: planetlab_like(seed, &cfg).into(),
        corpus: KeywordCorpus::generate(seed, 2_000, 0.5).into(),
    }
}

pub fn run(_: Scale, seed: u64) -> ClaimRun {
    let campus = scenario_with(
        seed,
        VantageConfig {
            count: 60,
            ..VantageConfig::default()
        },
    );
    // A residential-heavy population (the "real users" reviewers asked
    // about): 85% DSL/cable, 10% wireless.
    let residential = scenario_with(
        seed ^ 0x0dd,
        VantageConfig {
            count: 60,
            residential_frac: 0.85,
            wireless_frac: 0.10,
            scatter_miles: 25.0,
        },
    );

    // One campaign per vantage population (a campaign shares one
    // scenario); each carries both service configs.
    let mut rows = Vec::new();
    for (pop_name, sc) in [("planetlab", &campus), ("residential", &residential)] {
        let mut c = Campaign::new(sc.clone());
        c.push("bing-like", ServiceConfig::bing_like(seed), fig6_design());
        c.push(
            "google-like",
            ServiceConfig::google_like(seed),
            fig6_design(),
        );
        let report = execute_stream(&c, &|_| {
            FoldSink::new(GroupMediansAcc::exact(), |a: &mut GroupMediansAcc, q| {
                a.push(q.client as u64, &q.params)
            })
        });
        for svc_name in ["bing-like", "google-like"] {
            let e = rtts(report.output(svc_name));
            rows.push((
                pop_name,
                svc_name,
                e.fraction_le(20.0),
                e.quantile(0.5).unwrap(),
            ));
        }
    }

    let mut tsv = Tsv::new(&["population", "service", "frac_below_20ms", "median_rtt_ms"]);
    for (pop, svc, frac, med) in &rows {
        tsv.row(&[
            pop.to_string(),
            svc.to_string(),
            format!("{frac:.3}"),
            format!("{med:.2}"),
        ]);
        eprintln!(
            "{pop:<12} {svc:<12} {:>5.0}% below 20 ms, median {med:>6.1} ms",
            frac * 100.0
        );
    }

    let get = |pop: &str, svc: &str| {
        rows.iter()
            .find(|(p, s, _, _)| *p == pop && *s == svc)
            .map(|(_, _, f, m)| (*f, *m))
            .unwrap()
    };
    let (pl_bing, _) = get("planetlab", "bing-like");
    let (pl_google, _) = get("planetlab", "google-like");
    let (res_bing, res_bing_med) = get("residential", "bing-like");
    let (res_google, res_google_med) = get("residential", "google-like");

    let mut run = ClaimRun::default();
    run.check(
        "PlanetLab population reproduces the paper",
        format!("{:.0}% vs {:.0}%", pl_bing * 100.0, pl_google * 100.0),
        pl_bing >= 0.8 && pl_bing > pl_google + 0.1,
    );
    run.check(
        "residential within-20ms fraction collapses",
        format!("{:.0}%, {:.0}%", res_bing * 100.0, res_google * 100.0),
        res_bing < 0.35 && res_google < 0.35,
    );
    run.check(
        "the comparative claim survives: bing-like still closer",
        format!("{:.1} < {:.1} ms median", res_bing_med, res_google_med),
        res_bing_med < res_google_med,
    );
    run.with_tsv(tsv)
}
