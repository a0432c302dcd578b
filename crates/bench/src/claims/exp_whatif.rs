//! Extension — the counterfactual the paper could only speculate about.
//!
//! Sec. 4.2 attributes Bing's worse, noisier performance to *two*
//! confounded causes: the shared Akamai edge (FE tenancy) and the
//! slower, public-transit-connected back-end. A measurement study cannot
//! separate them; a simulator can. Four hybrid deployments:
//!
//! |                      | google backend | bing backend |
//! |----------------------|----------------|--------------|
//! | dedicated sparse FEs | google-like    | hybrid A     |
//! | shared dense FEs     | hybrid B       | bing-like    |
//!
//! Asserted:
//! * the **back-end axis dominates `Tdynamic`** (swapping backends moves
//!   medians by hundreds of ms; swapping fleets barely moves them);
//! * the **fleet axis dominates `Tstatic`'s FE-attributable part**;
//! * hybrid B (google backend on Akamai's shared edge) still beats
//!   bing-like — confirming the paper's conclusion that optimizing the
//!   fetch path, not FE placement, was Bing's real lever.

use super::{ClaimRun, Tsv};
use crate::{campaign, dataset_a_repeats, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::report::CampaignSummaryAcc;
use emulator::{Design, FoldSink};
use simcore::time::SimDuration;
use stats::QuantileAcc;

fn hybrid_a(seed: u64) -> ServiceConfig {
    // Bing's back-end behind Google's dedicated sparse fleet.
    let g = ServiceConfig::google_like(seed);
    let b = ServiceConfig::bing_like(seed);
    ServiceConfig {
        name: "hybridA-sparse+bingBE".into(),
        backend: b.backend,
        composer: b.composer,
        febe_profile: b.febe_profile,
        febe_rwnd: b.febe_rwnd,
        be_sites: b.be_sites,
        ..g
    }
}

fn hybrid_b(seed: u64) -> ServiceConfig {
    // Google's back-end behind Akamai's dense shared fleet.
    let g = ServiceConfig::google_like(seed);
    let b = ServiceConfig::bing_like(seed);
    ServiceConfig {
        name: "hybridB-dense+googleBE".into(),
        backend: g.backend,
        composer: g.composer,
        febe_profile: g.febe_profile,
        febe_rwnd: g.febe_rwnd,
        be_sites: g.be_sites,
        ..b
    }
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats = dataset_a_repeats(scale);

    let deployments = [
        ("google-like", ServiceConfig::google_like(seed)),
        ("hybridA (sparse FEs + bing BE)", hybrid_a(seed)),
        ("hybridB (dense FEs + google BE)", hybrid_b(seed)),
        ("bing-like", ServiceConfig::bing_like(seed)),
    ];
    let design = Design::DatasetA(DatasetA {
        repeats,
        spacing: SimDuration::from_secs(10),
        keywords: KeywordPolicy::Fixed(0),
    });
    let mut c = campaign(scale, seed);
    for (label, cfg) in &deployments {
        c.push(*label, cfg.clone(), design.clone());
    }
    // Per run: the online campaign summary plus the FE-attributable
    // Tstatic constant (Tstatic − RTT) as a quantile accumulator.
    let report = execute_stream(&c, &|d| {
        FoldSink::new(
            (CampaignSummaryAcc::new(&d.label), QuantileAcc::exact()),
            |s: &mut (CampaignSummaryAcc, QuantileAcc), q| {
                s.0.push(q);
                s.1.push((q.params.t_static_ms - q.params.rtt_ms).max(0.0));
            },
        )
    });

    let mut rows = Vec::new();
    for (label, _) in deployments {
        let (summary_acc, fe_const) = report.output(label);
        let summary = summary_acc.finish().unwrap();
        rows.push((label, summary, fe_const.median().unwrap()));
    }

    let mut tsv = Tsv::new(&[
        "deployment",
        "median_t_dynamic_ms",
        "median_fe_constant_ms",
        "median_overall_ms",
    ]);
    for (label, s, fe_const) in &rows {
        tsv.row(&[
            label.to_string(),
            format!("{:.3}", s.t_dynamic.median),
            format!("{fe_const:.3}"),
            format!("{:.3}", s.overall.median),
        ]);
        eprintln!(
            "{label:<34} Tdynamic {:>7.1}  FE-const {:>6.1}  overall {:>7.1}",
            s.t_dynamic.median, fe_const, s.overall.median
        );
    }

    let td = |i: usize| rows[i].1.t_dynamic.median;
    let fc = |i: usize| rows[i].2;
    let ov = |i: usize| rows[i].1.overall.median;
    // Indices: 0 google, 1 hybridA, 2 hybridB, 3 bing.
    let mut run = ClaimRun::default();
    let be_effect = ((td(1) - td(0)) + (td(3) - td(2))) / 2.0;
    let fleet_effect = ((td(2) - td(0)) + (td(3) - td(1))) / 2.0;
    eprintln!(
        "Tdynamic decomposition: backend axis {be_effect:.0} ms, fleet axis {fleet_effect:.0} ms"
    );
    // The fleet axis is not pure tenancy: a dense edge also *serves
    // remote metros* whose nearest BE is an ocean away, so geography
    // leaks into the fetch term. The back-end axis must still clearly
    // dominate (≥ 2×).
    run.check(
        "the back-end axis clearly dominates Tdynamic (≥2x the fleet axis)",
        "",
        be_effect > 2.0 * fleet_effect.abs().max(1.0),
    );
    let fe_fleet_effect = ((fc(2) - fc(0)) + (fc(3) - fc(1))) / 2.0;
    let fe_be_effect = ((fc(1) - fc(0)) + (fc(3) - fc(2))) / 2.0;
    eprintln!("FE-constant decomposition: fleet axis {fe_fleet_effect:.1} ms, backend axis {fe_be_effect:.1} ms");
    run.check(
        "the fleet axis dominates the FE-side constant",
        "",
        fe_fleet_effect > 3.0 * fe_be_effect.abs().max(0.2),
    );
    run.check(
        "hybridB (fast backend on shared edge) beats bing-like",
        format!("{:.0} < {:.0} ms overall", ov(2), ov(3)),
        ov(2) < ov(3),
    );
    run.with_tsv(tsv)
}
