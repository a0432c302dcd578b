//! Fig. 9 — correlating `Tdynamic` with the geographical distance
//! between FE and BE, and factoring the fetch time (Sec. 5).
//!
//! Design, following the paper: fix one data center per service (Bing:
//! Boydton/Virginia; Google: Lenoir/North Carolina), take FE servers at
//! increasing distances from it that are *served by* that data center,
//! measure `Tdynamic` from a small-RTT client near each FE (where
//! `Tdynamic ≈ Tfetch`), and fit a line. The Y-intercept estimates the
//! back-end computation time `Tproc`; the slope is the network term
//! `C · rtt_per_mile`.
//!
//! Shapes asserted:
//! * both fits have positive slope (fetch time grows with distance);
//! * the intercepts are ordered and far apart: Bing-like ≫ Google-like
//!   (paper: 260 ms vs 34 ms);
//! * the intercept approximates the true mean `Tproc` (simulator ground
//!   truth — a validation the paper could not do);
//! * slopes are the same order of magnitude across services (paper:
//!   0.08 vs 0.099 ms/mile).

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::{QuerySpec, ServiceConfig};
use emulator::{Design, FoldSink};
use inference::factoring::factor_fetch_time;
use simcore::time::SimDuration;
use stats::{MeanAcc, QuantileAcc};
use std::collections::BTreeMap;

struct ServiceFit {
    points: Vec<(f64, f64)>, // (distance_miles, median Tdynamic ms)
    factoring: inference::FetchFactoring,
    true_proc_mean_ms: f64,
}

/// Per-run streaming state: per-FE `Tdynamic` quantile accumulators
/// (keyed in ascending FE order by the map) plus the ground-truth
/// `Tproc` running mean — all [`analyse`] needs.
struct Fig9State {
    per_fe: BTreeMap<usize, (f64, QuantileAcc)>, // fe → (FE↔BE miles, Tdynamic)
    proc: MeanAcc,
}

/// FEs served by BE site 0 (the paper's chosen data center), within the
/// radius, each paired with its nearest (small-RTT) vantage; `repeats`
/// queries per FE. Planning is pure geometry, done inside the shard.
fn fig9_design(radius_miles: f64, repeats: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let mut plan = Vec::new();
            for fe in 0..w.fe_count() {
                if w.be_of_fe(fe) != 0 {
                    continue;
                }
                let dist = w.fe_be_distance_miles(fe, 0);
                if dist > radius_miles {
                    continue;
                }
                // Nearest vantage by RTT.
                let (client, rtt) = (0..w.clients().len())
                    .map(|c| (c, w.client_fe_rtt_ms(c, fe)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                if rtt < 25.0 {
                    plan.push((fe, client));
                }
            }
            for (i, &(fe, client)) in plan.iter().enumerate() {
                w.prewarm(net, fe, 0, 2);
                for r in 0..repeats {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(3_000 + r * 10_000 + i as u64 * 131),
                        QuerySpec {
                            client,
                            keyword: 0,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            }
        });
    })
}

fn analyse(s: &Fig9State) -> Option<ServiceFit> {
    // The qualifying-FE set is the reducer's key set: every query
    // carried its FE and the FE↔BE distance ground truth.
    if s.per_fe.len() < 3 {
        eprintln!("not enough qualifying FEs ({})", s.per_fe.len());
        return None;
    }
    let points: Vec<(f64, f64)> = s
        .per_fe
        .values()
        .filter_map(|(dist, td)| td.median().map(|m| (*dist, m)))
        .collect();
    let factoring = factor_fetch_time(&points)?;
    Some(ServiceFit {
        points,
        factoring,
        true_proc_mean_ms: s.proc.mean().unwrap_or(0.0),
    })
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    // The Bing-like back-end's Tproc variance (its defining trait) buries
    // the ~0.07 ms/mile distance signal unless medians are taken over
    // many repeats — the authors hit the same wall and re-ran Sec. 5
    // with more measurements for the camera-ready.
    let (rep_bing, rep_google) = match scale {
        Scale::Quick => (48, 16),
        Scale::Paper => (96, 40),
    };

    let mut c = campaign(scale, seed);
    c.push(
        "bing-like",
        ServiceConfig::bing_like(seed),
        fig9_design(620.0, rep_bing),
    );
    c.push(
        "google-like",
        ServiceConfig::google_like(seed),
        fig9_design(700.0, rep_google),
    );
    let report = execute_stream(&c, &|_| {
        FoldSink::new(
            Fig9State {
                per_fe: BTreeMap::new(),
                proc: MeanAcc::new(),
            },
            |s: &mut Fig9State, q| {
                if let Some(fe) = q.fe {
                    s.per_fe
                        .entry(fe)
                        .or_insert_with(|| (q.dist_fe_be_miles, QuantileAcc::exact()))
                        .1
                        .push(q.params.t_dynamic_ms);
                }
                s.proc.push(q.proc_ms);
            },
        )
    });
    let bing = analyse(report.output("bing-like"));
    let google = analyse(report.output("google-like"));
    let services = [("bing-like", &bing), ("google-like", &google)];

    // ---- TSV: the scatter + fitted lines ----
    let mut tsv = Tsv::new(&["service", "distance_miles", "t_dynamic_ms", "fit_ms"]);
    for (name, fit) in services {
        let Some(fit) = fit else { continue };
        for &(d, td) in &fit.points {
            tsv.row(&[
                name.to_string(),
                format!("{d:.1}"),
                format!("{td:.3}"),
                format!("{:.3}", fit.factoring.fit.predict(d)),
            ]);
        }
    }

    // ---- shape checks ----
    let mut run = ClaimRun::default();
    for (name, fit) in services {
        let slope_id = format!("{name}: slope positive");
        let intercept_id = format!("{name}: intercept = true mean Tproc + bias ∈ [-25, 95]");
        let Some(fit) = fit else {
            run.not_evaluated(slope_id, "no fit");
            run.not_evaluated(intercept_id, "no fit");
            continue;
        };
        eprintln!(
            "{name}: y = {:.4}·x + {:.1}  (R² {:.3}, {} FEs; true mean Tproc {:.1} ms)",
            fit.factoring.slope_ms_per_mile,
            fit.factoring.tproc_ms,
            fit.factoring.fit.r2,
            fit.points.len(),
            fit.true_proc_mean_ms,
        );
        run.check(slope_id, "", fit.factoring.slope_ms_per_mile > 0.0);
        // The intercept estimates Tproc *plus* the distance-independent
        // terms the client cannot separate (FE overhead, path base
        // delays, half an access RTT) — so it is biased high by a few
        // tens of ms by construction. Validate against the ground truth
        // with that one-sided bias band.
        let bias = fit.factoring.tproc_ms - fit.true_proc_mean_ms;
        run.check(
            intercept_id,
            format!(
                "{:.0} = {:.0} + {:.0}",
                fit.factoring.tproc_ms, fit.true_proc_mean_ms, bias
            ),
            (-25.0..=95.0).contains(&bias),
        );
    }
    let separated = "intercepts well separated: bing-like ≫ google-like (paper: 260 vs 34)";
    let slopes = "slopes same order of magnitude";
    let c_range = "C estimates in a plausible 0.5-8 round range";
    let (Some(bing), Some(google)) = (bing, google) else {
        for id in [separated, slopes, c_range] {
            run.not_evaluated(id, "a service has no fit");
        }
        return run.with_tsv(tsv);
    };
    run.check(
        separated,
        format!(
            "{:.0} vs {:.0}",
            bing.factoring.tproc_ms, google.factoring.tproc_ms
        ),
        bing.factoring.tproc_ms > 2.5 * google.factoring.tproc_ms,
    );
    let slope_ratio = bing.factoring.slope_ms_per_mile / google.factoring.slope_ms_per_mile;
    run.check(
        slopes,
        format!("ratio {slope_ratio:.2}"),
        (0.2..=5.0).contains(&slope_ratio),
    );
    // Heuristic factoring of the network term: C = slope / rtt-per-mile.
    let c_bing = bing.factoring.c_estimate(2.0 * 2.0 * 0.0082);
    let c_google = google.factoring.c_estimate(2.0 * 1.3 * 0.0082);
    eprintln!("estimated C (BE window rounds): bing-like {c_bing:.1}, google-like {c_google:.1}");
    run.check(
        c_range,
        "",
        (0.5..8.0).contains(&c_bing) && (0.5..8.0).contains(&c_google),
    );
    run.with_tsv(tsv)
}
