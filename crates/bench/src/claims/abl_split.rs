//! Ablation — split TCP on vs off (cf. Pathak et al., PAM 2010, the
//! paper's ref \[9\]).
//!
//! With split TCP off, clients open an end-to-end connection to the BE:
//! the handshake crosses the whole path, the response rides a cold
//! congestion window over the full RTT, and nothing is cached near the
//! user. The ablation quantifies how much of the FE's value comes from
//! connection splitting itself.
//!
//! Asserted:
//! * overall delay is higher without split TCP for the median vantage;
//! * `Tstatic` degrades most (no nearby cache);
//! * the improvement is larger for vantages far from the BE.

use super::{ClaimRun, Tsv};
use crate::{campaign, dataset_a_repeats, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::{Design, FoldSink};
use simcore::time::SimDuration;
use stats::QuantileAcc;
use std::collections::BTreeMap;

/// Per-vantage reducers for the three columns the ablation compares:
/// (overall, Tstatic, RTT).
type PerClient = BTreeMap<usize, (QuantileAcc, QuantileAcc, QuantileAcc)>;

fn per_client_median(
    by: &PerClient,
    f: fn(&(QuantileAcc, QuantileAcc, QuantileAcc)) -> &QuantileAcc,
) -> BTreeMap<usize, f64> {
    by.iter()
        .map(|(&c, t)| (c, f(t).median().unwrap()))
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
    c.push("split", ServiceConfig::google_like(seed), design.clone());
    c.push(
        "no-split",
        ServiceConfig::google_like(seed).without_split_tcp(),
        design,
    );
    let report = execute_stream(&c, &|_| {
        FoldSink::new(PerClient::new(), |by: &mut PerClient, q| {
            let e = by.entry(q.client).or_insert_with(|| {
                (
                    QuantileAcc::exact(),
                    QuantileAcc::exact(),
                    QuantileAcc::exact(),
                )
            });
            e.0.push(q.params.overall_ms);
            e.1.push(q.params.t_static_ms);
            e.2.push(q.params.rtt_ms);
        })
    });
    let with_split = report.output("split");
    let without = report.output("no-split");

    let ov_with = per_client_median(with_split, |t| &t.0);
    let ov_without = per_client_median(without, |t| &t.0);
    let ts_with = per_client_median(with_split, |t| &t.1);
    let ts_without = per_client_median(without, |t| &t.1);

    let mut tsv = Tsv::new(&[
        "vantage",
        "overall_split_ms",
        "overall_nosplit_ms",
        "t_static_split_ms",
        "t_static_nosplit_ms",
    ]);
    for (&c, &ov_s) in &ov_with {
        if let (Some(&ov_n), Some(&ts_s), Some(&ts_n)) =
            (ov_without.get(&c), ts_with.get(&c), ts_without.get(&c))
        {
            tsv.row(&[c as f64, ov_s, ov_n, ts_s, ts_n].map(|v| format!("{v:.3}")));
        }
    }

    let med = |m: &BTreeMap<usize, f64>| {
        let v: Vec<f64> = m.values().copied().collect();
        stats::quantile::median(&v).unwrap()
    };
    let mut run = ClaimRun::default();
    eprintln!(
        "median overall: split {:.0} ms, no-split {:.0} ms",
        med(&ov_with),
        med(&ov_without)
    );
    eprintln!(
        "median Tstatic: split {:.1} ms, no-split {:.1} ms",
        med(&ts_with),
        med(&ts_without)
    );
    run.check(
        "static delivery suffers most without the nearby FE",
        "",
        med(&ts_without) > 2.0 * med(&ts_with),
    );
    // Split TCP's end-to-end win concentrates on vantages far from the
    // BE (Pathak et al., PAM'10 report the same distance dependence; for
    // a client sitting next to a data center a proxy adds a relay hop
    // for nothing). Compare the no-split penalty of the closest vs
    // farthest thirds by client↔BE RTT, and require a clear win in the
    // far third.
    let mut rows: Vec<(f64, f64)> = Vec::new(); // (client→BE rtt, penalty)
    let rtt_without = per_client_median(without, |t| &t.2);
    for (&c, &ov_n) in &ov_without {
        if let (Some(&ov_s), Some(&rtt)) = (ov_with.get(&c), rtt_without.get(&c)) {
            rows.push((rtt, ov_n - ov_s));
        }
    }
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let third = rows.len() / 3;
    let grows = "no-split penalty grows with distance from the BE";
    let wins = "split TCP clearly wins for the far-from-BE third";
    if third >= 2 {
        let near: Vec<f64> = rows[..third].iter().map(|r| r.1).collect();
        let far: Vec<f64> = rows[rows.len() - third..].iter().map(|r| r.1).collect();
        let near_pen = stats::quantile::median(&near).unwrap();
        let far_pen = stats::quantile::median(&far).unwrap();
        eprintln!("no-split penalty: near-BE third {near_pen:.0} ms, far-BE third {far_pen:.0} ms");
        run.check(grows, "", far_pen > near_pen);
        run.check(wins, format!("+{far_pen:.0} ms"), far_pen > 15.0);
    } else {
        let missing = format!("{} vantages, 6 needed for the distance split", rows.len());
        run.not_evaluated(grows, &missing);
        run.not_evaluated(wins, &missing);
    }
    run.with_tsv(tsv)
}
