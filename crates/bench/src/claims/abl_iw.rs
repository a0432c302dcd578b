//! Ablation — the FE's initial congestion window moves the RTT
//! threshold.
//!
//! The model's mechanism (Sec. 2/4): the static burst is paced by the
//! FE's TCP window across ACK-clocked rounds; the `Tdelta → 0` threshold
//! sits where that pacing time crosses the fetch time. The initial
//! window decides how many rounds the static burst needs:
//!
//! * IW 2 → ~2 extra rounds → `Tdelta` falls at slope ≈ −2, threshold
//!   roughly halves;
//! * IW 4 (default) → 1 extra round → slope ≈ −1, the paper's regime;
//! * IW 10 → the whole static portion (and more) fits the initial
//!   window → `Tdelta` stays ≈ flat and never reaches zero in the
//!   measured range.
//!
//! This is the design insight behind Google's IW10 campaign viewed
//! through the paper's model.

use super::{ClaimRun, Tsv};
use crate::{campaign, dataset_b_repeats, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_b::DatasetB;
use emulator::{Design, FoldSink};
use inference::{estimate_rtt_threshold, GroupMediansAcc};

struct SweepRow {
    iw: u32,
    slope: Option<f64>,
    threshold_ms: Option<f64>,
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats = dataset_b_repeats(scale).min(24);

    let mut c = campaign(scale, seed);
    for iw in [2u32, 4, 10] {
        c.push(
            format!("iw{iw}"),
            ServiceConfig::google_like(seed).with_fe_initial_window(iw),
            Design::custom(move |sim| {
                let fe = sim.with(|w, _| w.default_fe(0));
                DatasetB::against(fe).with_repeats(repeats).schedule(sim);
            }),
        );
    }
    let report = execute_stream(&c, &|_| {
        FoldSink::new(GroupMediansAcc::exact(), |a: &mut GroupMediansAcc, q| {
            a.push(q.client as u64, &q.params)
        })
    });

    let mut tsv = Tsv::new(&["iw_segs", "tdelta_slope", "threshold_ms"]);

    let mut rows = Vec::new();
    for iw in [2u32, 4, 10] {
        let groups = report.output(&format!("iw{iw}")).finish();
        let points: Vec<(f64, f64)> = groups.iter().map(|g| (g.rtt_ms, g.t_delta_ms)).collect();
        let est = estimate_rtt_threshold(&points, 3.0, 25.0);
        let threshold = est.linear_intercept_ms.or(est.binned_first_zero_ms);
        eprintln!(
            "IW {iw:>2}: Tdelta slope {:?}, threshold {:?}",
            est.linear_slope.map(|s| format!("{s:.2}")),
            threshold.map(|t| format!("{t:.0} ms")),
        );
        tsv.row(&[
            iw.to_string(),
            est.linear_slope
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "NA".into()),
            threshold
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "NA".into()),
        ]);
        rows.push(SweepRow {
            iw,
            slope: est.linear_slope,
            threshold_ms: threshold,
        });
    }

    let mut run = ClaimRun::default();
    let thresholds = "IW2 threshold below IW4 threshold";
    let by_iw = |iw: u32| rows.iter().find(|r| r.iw == iw).unwrap();
    let (t2, t4) = (by_iw(2).threshold_ms, by_iw(4).threshold_ms);
    if let (Some(t2), Some(t4)) = (t2, t4) {
        run.check(thresholds, format!("{t2:.0} vs {t4:.0}"), t2 < t4);
    } else {
        run.not_evaluated(thresholds, "IW2 or IW4 threshold not estimable");
    }
    let s2 = by_iw(2).slope.unwrap_or(0.0);
    let s4 = by_iw(4).slope.unwrap_or(0.0);
    let s10 = by_iw(10).slope.unwrap_or(0.0);
    run.check(
        "Tdelta falls steeper with a smaller IW",
        format!("{s2:.2} < {s4:.2}"),
        s2 < s4 - 0.3,
    );
    run.check(
        "IW10 keeps the static burst in one window: slope ≈ flat",
        format!("got {s10:.2}"),
        s10 > -0.45,
    );
    run.with_tsv(tsv)
}
