//! Fig. 8 — overall user-perceived delay, per vantage point, as box
//! plots (Dataset A, default FEs).
//!
//! Paper: "users using the Bing search service tend to experience
//! slightly longer and more variable overall response times."
//!
//! Shapes asserted:
//! * the across-vantage median of per-vantage median overall delay is
//!   higher for the Bing-like service;
//! * per-vantage variability (whisker span / IQR) is larger for the
//!   Bing-like service.

use super::{ClaimRun, Tsv};
use crate::{campaign, dataset_a_repeats, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::{Design, FoldSink};
use simcore::time::SimDuration;
use stats::{BoxSummary, QuantileAcc};
use std::collections::BTreeMap;

fn boxes(by_client: &BTreeMap<usize, QuantileAcc>) -> BTreeMap<usize, BoxSummary> {
    // Box plots need the outlier list, so the per-vantage accumulators
    // run in exact mode; `values()` hands back the samples in arrival
    // order, exactly as the collect-then-analyze path saw them.
    by_client
        .iter()
        .filter_map(|(&c, acc)| BoxSummary::of(&acc.values().unwrap()).map(|b| (c, b)))
        .collect()
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats = dataset_a_repeats(scale);

    let design = Design::DatasetA(DatasetA {
        repeats,
        spacing: SimDuration::from_secs(10),
        keywords: KeywordPolicy::Fixed(0),
    });
    let mut c = campaign(scale, seed);
    c.push("bing-like", ServiceConfig::bing_like(seed), design.clone());
    c.push("google-like", ServiceConfig::google_like(seed), design);
    let report = execute_stream(&c, &|_| {
        FoldSink::new(
            BTreeMap::new(),
            |m: &mut BTreeMap<usize, QuantileAcc>, q| {
                m.entry(q.client)
                    .or_insert_with(QuantileAcc::exact)
                    .push(q.params.overall_ms)
            },
        )
    });

    let bing = boxes(report.output("bing-like"));
    let google = boxes(report.output("google-like"));

    // ---- TSV: the box plots, one row per (service, vantage) ----
    let mut tsv = Tsv::new(&[
        "service",
        "vantage",
        "whisker_lo",
        "q1",
        "median",
        "q3",
        "whisker_hi",
        "outliers",
    ]);
    for (name, bx) in [("google-like", &google), ("bing-like", &bing)] {
        for (client, b) in bx.iter() {
            tsv.row(&[
                name.to_string(),
                client.to_string(),
                format!("{:.3}", b.whisker_lo),
                format!("{:.3}", b.q1),
                format!("{:.3}", b.median),
                format!("{:.3}", b.q3),
                format!("{:.3}", b.whisker_hi),
                b.outliers.len().to_string(),
            ]);
        }
    }

    // ---- shape checks ----
    let med = |v: &[f64]| stats::quantile::median(v).unwrap();
    let b_medians: Vec<f64> = bing.values().map(|b| b.median).collect();
    let g_medians: Vec<f64> = google.values().map(|b| b.median).collect();
    let b_spans: Vec<f64> = bing.values().map(|b| b.iqr()).collect();
    let g_spans: Vec<f64> = google.values().map(|b| b.iqr()).collect();
    eprintln!(
        "overall delay medians: bing-like {:.0} ms vs google-like {:.0} ms",
        med(&b_medians),
        med(&g_medians)
    );
    eprintln!(
        "per-vantage IQRs:      bing-like {:.0} ms vs google-like {:.0} ms",
        med(&b_spans),
        med(&g_spans)
    );
    let mut run = ClaimRun::default();
    run.check(
        "bing-like overall delay longer",
        "",
        med(&b_medians) > med(&g_medians),
    );
    run.check(
        "bing-like overall delay more variable",
        "",
        med(&b_spans) > med(&g_spans),
    );
    run.check(
        "every vantage produced a box",
        "",
        bing.len() == google.len() && !bing.is_empty(),
    );
    run.with_tsv(tsv)
}
