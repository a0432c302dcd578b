//! Ablation — Reno vs CUBIC congestion control under last-hop loss.
//!
//! The paper's hosts ran Linux, whose default congestion control in 2011
//! was already CUBIC; the model's window arithmetic, however, is
//! Reno-flavoured. This ablation verifies that the choice does not
//! change any of the paper's observables on clean paths (slow start is
//! identical, and search responses rarely leave it), while CUBIC's
//! gentler back-off pays off on lossy paths.
//!
//! Asserted:
//! * on clean campus paths, Reno and CUBIC produce statistically
//!   indistinguishable `Tdynamic` distributions (KS test);
//! * on a 3% lossy wireless path, CUBIC's median overall delay is no
//!   worse than Reno's.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::{QuerySpec, ServiceConfig};
use emulator::{Design, FoldSink};
use nettopo::path::PathProfile;
use simcore::time::SimDuration;
use stats::QuantileAcc;
use tcpsim::CongAlgo;

fn with_cong(mut cfg: ServiceConfig, cong: CongAlgo) -> ServiceConfig {
    cfg.fe_client_tcp = cfg.fe_client_tcp.with_cong(cong);
    cfg.be_tcp = cfg.be_tcp.with_cong(cong);
    cfg
}

/// Default-FE queries from the first 12 clients, `repeats` each.
fn wave_design(repeats: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            for c in 0..w.clients().len().min(12) {
                for r in 0..repeats {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1 + r * 9_000 + c as u64 * 101),
                        QuerySpec {
                            client: c,
                            keyword: 0,
                            fixed_fe: None,
                            instant_followup: false,
                        },
                    );
                }
            }
        });
    })
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats = match scale {
        Scale::Quick => 10,
        Scale::Paper => 40,
    };

    let mut lossy = PathProfile::wireless_access();
    lossy.loss = 0.03;

    let mut c = campaign(scale, seed);
    c.push(
        "clean/reno",
        with_cong(ServiceConfig::google_like(seed), CongAlgo::Reno),
        wave_design(repeats),
    );
    c.push(
        "clean/cubic",
        with_cong(ServiceConfig::google_like(seed), CongAlgo::Cubic),
        wave_design(repeats),
    );
    c.push(
        "lossy3pct/reno",
        with_cong(ServiceConfig::google_like(seed), CongAlgo::Reno)
            .with_access_override(lossy.clone()),
        wave_design(repeats),
    );
    c.push(
        "lossy3pct/cubic",
        with_cong(ServiceConfig::google_like(seed), CongAlgo::Cubic).with_access_override(lossy),
        wave_design(repeats),
    );
    // Per run: Tdynamic stays exact (the KS test needs the full sample)
    // alongside an overall-delay accumulator.
    let report = execute_stream(&c, &|_| {
        FoldSink::new(
            (QuantileAcc::exact(), QuantileAcc::exact()),
            |s: &mut (QuantileAcc, QuantileAcc), q| {
                s.0.push(q.params.t_dynamic_ms);
                s.1.push(q.params.overall_ms);
            },
        )
    });
    let clean_reno = report.output("clean/reno");
    let clean_cubic = report.output("clean/cubic");
    let lossy_reno = report.output("lossy3pct/reno");
    let lossy_cubic = report.output("lossy3pct/cubic");

    let td = |v: &(QuantileAcc, QuantileAcc)| -> Vec<f64> { v.0.values().unwrap() };
    let (ks, verdict) = stats::ks::ks_test(&td(clean_reno), &td(clean_cubic)).unwrap();
    let med_overall = |v: &(QuantileAcc, QuantileAcc)| v.1.median().unwrap();
    let mr = med_overall(lossy_reno);
    let mc = med_overall(lossy_cubic);

    let mut tsv = Tsv::new(&[
        "condition",
        "algo",
        "median_t_dynamic_ms",
        "median_overall_ms",
    ]);
    let med_td = |v: &(QuantileAcc, QuantileAcc)| v.0.median().unwrap();
    for (cond, algo, queries) in [
        ("clean", "reno", clean_reno),
        ("clean", "cubic", clean_cubic),
        ("lossy3pct", "reno", lossy_reno),
        ("lossy3pct", "cubic", lossy_cubic),
    ] {
        tsv.row(&[
            cond.into(),
            algo.into(),
            format!("{:.3}", med_td(queries)),
            format!("{:.3}", med_overall(queries)),
        ]);
    }

    let mut run = ClaimRun::default();
    eprintln!("clean-path KS distance reno vs cubic: {ks:.3} ({verdict:?})");
    run.check(
        "clean paths: Reno and CUBIC indistinguishable for search workloads",
        "",
        verdict == stats::ks::KsVerdict::Indistinguishable,
    );
    eprintln!("lossy overall: reno {mr:.0} ms vs cubic {mc:.0} ms");
    run.check("lossy paths: CUBIC no worse than Reno", "", mc <= mr * 1.10);
    run.with_tsv(tsv)
}
