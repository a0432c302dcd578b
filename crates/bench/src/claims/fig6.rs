//! Fig. 6 — CDF of the RTT between each vantage point and its default
//! (DNS-resolved) FE, for both services.
//!
//! Paper numbers: "more than 80% of PlanetLab nodes observe an RTT of
//! less than 20ms for reaching the Bing FE servers. On the other hand,
//! only 60% of PlanetLab nodes observe this latency for Google."
//!
//! Shapes asserted:
//! * the Bing-like (dense Akamai-style) CDF dominates the Google-like
//!   one (closer at every quantile);
//! * ≥ 80 % of vantages within 20 ms of a Bing-like FE;
//! * the Google-like fraction is materially lower (paper: ~60 %).

use super::{ClaimRun, Tsv};
use crate::{campaign, dataset_a_repeats, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::{Design, FoldSink};
use inference::GroupMediansAcc;
use simcore::time::SimDuration;
use stats::Ecdf;

fn measured_rtts(acc: &GroupMediansAcc) -> Vec<f64> {
    // Measured (handshake-estimated) RTTs, one median per vantage —
    // exactly what the paper plots.
    acc.finish().iter().map(|g| g.rtt_ms).collect()
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats = dataset_a_repeats(scale).min(10);

    let design = Design::DatasetA(DatasetA {
        repeats,
        spacing: SimDuration::from_secs(10),
        keywords: KeywordPolicy::Fixed(0),
    });
    let mut c = campaign(scale, seed);
    c.push("bing-like", ServiceConfig::bing_like(seed), design.clone());
    c.push("google-like", ServiceConfig::google_like(seed), design);
    let report = execute_stream(&c, &|_| {
        FoldSink::new(GroupMediansAcc::exact(), |a: &mut GroupMediansAcc, q| {
            a.push(q.client as u64, &q.params)
        })
    });

    let bing = measured_rtts(report.output("bing-like"));
    let google = measured_rtts(report.output("google-like"));
    let bing_cdf = Ecdf::new(&bing);
    let google_cdf = Ecdf::new(&google);

    // ---- TSV: sampled CDF curves ----
    let mut tsv = Tsv::new(&["service", "rtt_ms", "cdf"]);
    for (name, cdf) in [("bing-like", &bing_cdf), ("google-like", &google_cdf)] {
        for (x, y) in cdf.sampled_curve(100) {
            tsv.row(&[name.to_string(), format!("{x:.3}"), format!("{y:.4}")]);
        }
    }

    // ---- shape checks ----
    let b20 = bing_cdf.fraction_le(20.0);
    let g20 = google_cdf.fraction_le(20.0);
    eprintln!(
        "fraction of vantages with RTT < 20 ms: bing-like {:.0}%, google-like {:.0}% (paper: >80% vs ~60%)",
        b20 * 100.0,
        g20 * 100.0
    );
    let mut run = ClaimRun::default();
    run.check(
        "bing-like ≥ 80% below 20 ms",
        format!("got {:.0}%", b20 * 100.0),
        b20 >= 0.80,
    );
    run.check(
        "google-like materially lower: 45-75% below 20 ms",
        format!("got {:.0}%", g20 * 100.0),
        (0.45..=0.75).contains(&g20),
    );
    run.check(
        "bing-like closer than google-like at 20 ms",
        "",
        b20 > g20 + 0.10,
    );
    // Stochastic dominance at several quantiles.
    let dominated = [0.25, 0.5, 0.75, 0.9]
        .iter()
        .all(|&q| bing_cdf.quantile(q).unwrap() <= google_cdf.quantile(q).unwrap());
    run.check("bing-like CDF dominates google-like CDF", "", dominated);
    run.with_tsv(tsv)
}
