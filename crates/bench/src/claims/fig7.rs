//! Fig. 7 — `Tstatic` and `Tdynamic` for vantage points using their
//! *default* FE servers (Dataset A), both services.
//!
//! Paper: "although the Bing FE servers are generally closer to the
//! clients, it has significantly higher value of Tstatic and Tdynamic
//! than Google ... In addition, Bing exhibits more variable performance."
//!
//! Shapes asserted:
//! * Bing-like default-FE RTTs are smaller (closer FEs), yet
//! * Bing-like `Tstatic` and `Tdynamic` medians are higher, and
//! * Bing-like variability (IQR) is larger for both quantities.

use super::{ClaimRun, Tsv};
use crate::{campaign, dataset_a_repeats, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::{Design, FoldSink};
use inference::{GroupMedians, GroupMediansAcc};
use simcore::time::SimDuration;
use stats::QuantileAcc;
use std::collections::BTreeMap;

/// Per-run streaming state: the grouped-median reducer for the scatter
/// plus per-vantage `Tstatic`/`Tdynamic` quantile accumulators for the
/// within-vantage IQR checks.
struct Fig7State {
    acc: GroupMediansAcc,
    per_client: BTreeMap<usize, (QuantileAcc, QuantileAcc)>,
}

/// Median across vantages of the *within-vantage* IQR — the
/// FE-attributable variability, independent of where the vantage sits.
fn within_vantage_iqr<'a>(accs: impl Iterator<Item = &'a QuantileAcc>) -> f64 {
    let iqrs: Vec<f64> = accs
        .filter(|a| a.count() >= 4)
        .map(|a| a.iqr().unwrap())
        .collect();
    stats::quantile::median(&iqrs).unwrap_or(0.0)
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
            Fig7State {
                acc: GroupMediansAcc::exact(),
                per_client: BTreeMap::new(),
            },
            |s: &mut Fig7State, q| {
                s.acc.push(q.client as u64, &q.params);
                let e = s
                    .per_client
                    .entry(q.client)
                    .or_insert_with(|| (QuantileAcc::exact(), QuantileAcc::exact()));
                e.0.push(q.params.t_static_ms);
                e.1.push(q.params.t_dynamic_ms);
            },
        )
    });

    let bing_raw = report.output("bing-like");
    let google_raw = report.output("google-like");
    let bing = bing_raw.acc.finish();
    let google = google_raw.acc.finish();

    // ---- TSV: the Fig. 7 scatter, one row per (service, vantage) ----
    let mut tsv = Tsv::new(&[
        "service",
        "vantage",
        "rtt_ms",
        "t_static_ms",
        "t_dynamic_ms",
    ]);
    for (name, groups) in [("bing-like", &bing), ("google-like", &google)] {
        for g in groups.iter() {
            tsv.row(&[
                name.to_string(),
                g.group.to_string(),
                format!("{:.3}", g.rtt_ms),
                format!("{:.3}", g.t_static_ms),
                format!("{:.3}", g.t_dynamic_ms),
            ]);
        }
    }

    // ---- shape checks ----
    let med = |v: Vec<f64>| stats::quantile::median(&v).unwrap();
    let col =
        |g: &[GroupMedians], f: fn(&GroupMedians) -> f64| -> Vec<f64> { g.iter().map(f).collect() };
    let b_rtt = med(col(&bing, |g| g.rtt_ms));
    let g_rtt = med(col(&google, |g| g.rtt_ms));
    let b_ts = med(col(&bing, |g| g.t_static_ms));
    let g_ts = med(col(&google, |g| g.t_static_ms));
    let b_td = med(col(&bing, |g| g.t_dynamic_ms));
    let g_td = med(col(&google, |g| g.t_dynamic_ms));
    eprintln!("median RTT:      bing-like {b_rtt:.1}  google-like {g_rtt:.1}");
    eprintln!("median Tstatic:  bing-like {b_ts:.1}  google-like {g_ts:.1}");
    eprintln!("median Tdynamic: bing-like {b_td:.1}  google-like {g_td:.1}");
    let mut run = ClaimRun::default();
    run.check(
        "bing-like FEs are closer (smaller median RTT)",
        "",
        b_rtt < g_rtt,
    );
    run.check(
        "bing-like Tstatic higher",
        format!("{b_ts:.1} > {g_ts:.1}"),
        b_ts > g_ts,
    );
    run.check(
        "bing-like Tdynamic higher",
        format!("{b_td:.1} > {g_td:.1}"),
        b_td > g_td,
    );
    // Variability the FE/BE are responsible for: within-vantage IQRs
    // (RTT is constant per vantage, so geography cancels out).
    let b_ts_iqr = within_vantage_iqr(bing_raw.per_client.values().map(|e| &e.0));
    let g_ts_iqr = within_vantage_iqr(google_raw.per_client.values().map(|e| &e.0));
    let b_td_iqr = within_vantage_iqr(bing_raw.per_client.values().map(|e| &e.1));
    let g_td_iqr = within_vantage_iqr(google_raw.per_client.values().map(|e| &e.1));
    run.check(
        "bing-like Tstatic more variable within vantages",
        format!("IQR {b_ts_iqr:.1} vs {g_ts_iqr:.1}"),
        b_ts_iqr > g_ts_iqr,
    );
    run.check(
        "bing-like Tdynamic more variable within vantages",
        format!("IQR {b_td_iqr:.1} vs {g_td_iqr:.1}"),
        b_td_iqr > g_td_iqr,
    );
    run.with_tsv(tsv)
}
