//! Fig. 3 — effect of keyword type on `Tstatic` and `Tdynamic`.
//!
//! One vantage submits 4 keywords of different classes (popular /
//! refined / complex / uncorrelated-mix — the paper's key1..key4), many
//! samples each, in chronological order; the plotted series are moving
//! medians with window 10 (exactly the paper's smoothing).
//!
//! Shapes asserted:
//! * `Tdynamic` differs markedly across keyword classes (complex >
//!   popular);
//! * `Tstatic` is insensitive to the keyword class.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, fig3_samples, Scale};
use cdnsim::{QuerySpec, ServiceConfig};
use emulator::{Design, FoldSink};
use searchbe::keywords::KeywordClass;
use simcore::time::SimDuration;
use stats::moving_median;

/// Per-query record the streaming sink retains: just the columns the
/// figure plots, not the whole processed query.
#[derive(Clone, Copy)]
struct Row {
    keyword: u64,
    class: KeywordClass,
    t_start_ms: f64,
    t_static_ms: f64,
    t_dynamic_ms: f64,
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let samples = fig3_samples(scale);

    // The paper runs this against Bing; we use the Bing-like service.
    let mut c = campaign(scale, seed);
    let picks: [u64; 4] = {
        let p = c.scenario().corpus.fig3_picks();
        [p[0].id, p[1].id, p[2].id, p[3].id]
    };
    let client = 0usize;
    c.push(
        "fig3",
        ServiceConfig::bing_like(seed),
        Design::custom(move |sim| {
            sim.with(|w, net| {
                let fe = w.default_fe(client);
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 4);
                for (ki, &kw) in picks.iter().enumerate() {
                    for r in 0..samples {
                        // Interleave the four keywords over time, 2.5 s
                        // apart per keyword (10 s full cycle as in the
                        // paper).
                        let at = SimDuration::from_millis(3_000 + r * 10_000 + ki as u64 * 2_500);
                        w.schedule_query(
                            net,
                            at,
                            QuerySpec {
                                client,
                                keyword: kw,
                                fixed_fe: Some(fe),
                                instant_followup: false,
                            },
                        );
                    }
                }
            });
        }),
    );
    let report = execute_stream(&c, &|_| {
        FoldSink::new(Vec::new(), |rows: &mut Vec<Row>, q| {
            rows.push(Row {
                keyword: q.keyword,
                class: q.class,
                t_start_ms: q.t_start_ms,
                t_static_ms: q.params.t_static_ms,
                t_dynamic_ms: q.params.t_dynamic_ms,
            })
        })
    });
    let out = report.output("fig3");

    // Series per keyword, in chronological order.
    let mut per_kw: Vec<(KeywordClass, Vec<f64>, Vec<f64>)> = Vec::new();
    for &kw in &picks {
        let mut qs: Vec<_> = out.iter().filter(|q| q.keyword == kw).collect();
        qs.sort_by(|a, b| a.t_start_ms.partial_cmp(&b.t_start_ms).unwrap());
        let ts: Vec<f64> = qs.iter().map(|q| q.t_static_ms).collect();
        let td: Vec<f64> = qs.iter().map(|q| q.t_dynamic_ms).collect();
        per_kw.push((qs[0].class, moving_median(&ts, 10), moving_median(&td, 10)));
    }

    // ---- TSV ----
    let mut tsv = Tsv::new(&[
        "keyword_class",
        "sample",
        "t_static_mm10_ms",
        "t_dynamic_mm10_ms",
    ]);
    for (class, ts, td) in &per_kw {
        for (i, (s, d)) in ts.iter().zip(td).enumerate() {
            tsv.row(&[
                class.label().to_string(),
                i.to_string(),
                format!("{s:.3}"),
                format!("{d:.3}"),
            ]);
        }
    }

    // ---- shape checks ----
    let med = |v: &[f64]| stats::quantile::median(v).unwrap();
    let by_class = |c: KeywordClass| per_kw.iter().find(|(k, _, _)| *k == c).unwrap();
    let (_, _, td_popular) = by_class(KeywordClass::Popular);
    let (_, _, td_complex) = by_class(KeywordClass::Complex);
    let mut run = ClaimRun::default();
    run.check(
        "Tdynamic varies with keyword class: complex > popular + 30",
        format!(
            "complex {:.0}, popular {:.0}",
            med(td_complex),
            med(td_popular)
        ),
        med(td_complex) > med(td_popular) + 30.0,
    );
    let ts_medians: Vec<f64> = per_kw.iter().map(|(_, ts, _)| med(ts)).collect();
    let ts_spread = ts_medians.iter().fold(f64::MIN, |a, &b| a.max(b))
        - ts_medians.iter().fold(f64::MAX, |a, &b| a.min(b));
    let td_medians: Vec<f64> = per_kw.iter().map(|(_, _, td)| med(td)).collect();
    let td_spread = td_medians.iter().fold(f64::MIN, |a, &b| a.max(b))
        - td_medians.iter().fold(f64::MAX, |a, &b| a.min(b));
    run.check(
        "Tstatic insensitive to keyword class: spread ≪ Tdynamic spread",
        format!("{ts_spread:.1} vs {td_spread:.1}"),
        ts_spread < 0.35 * td_spread,
    );
    eprintln!(
        "classes: {:?}",
        per_kw.iter().map(|(c, _, _)| c.label()).collect::<Vec<_>>()
    );
    run.with_tsv(tsv)
}
