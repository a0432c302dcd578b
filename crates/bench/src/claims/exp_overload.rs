//! Overload — FE saturation shifts the front-end's contribution to
//! end-to-end delay.
//!
//! The paper measures FEs at whatever load the real deployments happened
//! to carry. This experiment asks the counterfactual the load model
//! enables: what happens to the FE's request-handling overhead — and so
//! to `Tstatic` and the RTT threshold at which an FE deployment pays off
//! — as offered concurrency climbs past the FE's service knee?
//!
//! Design: bursts of `n` simultaneous queries, all pinned to one FE,
//! repeated over several waves. The FE's base service time is pinned to
//! a constant so every overhead change is attributable to the
//! concurrency-dependent queueing multiplier (`LoadModel`), not to
//! sampling noise. Three policy arms:
//!
//! * `off`     — no load model: overhead flat regardless of burst size;
//! * `model`   — M/M/1-style multiplier, knee at 4: overhead climbs with
//!   the burst size and saturates at the cap;
//! * `admission` — same model plus a shedding watermark at the knee:
//!   excess arrivals get the typed `Shed` outcome and the *served*
//!   queries' overhead stays bounded well below the saturated arm.
//!
//! Asserted:
//! * the model-off arm stays flat at the base service time at the
//!   largest burst;
//! * the model arm climbs monotonically with burst size and clears 3x
//!   the unloaded overhead at the top;
//! * admission control sheds above the watermark, conserves accounting
//!   (`ok + shed == scheduled`), and bounds the served queries' worst
//!   overhead below the unprotected arm's;
//! * the `cdnsim.shed_queries` counter agrees with the tally;
//! * a rerun with the same derived seed reproduces every overhead
//!   exactly.
//!
//! The design is fixed-size: `FECDN_SCALE` is validated and then ignored.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::{FeLoadProfile, LoadModel, QuerySpec, ServiceConfig};
use emulator::{CollectSink, Design};
use simcore::dist::Dist;
use simcore::time::SimDuration;
use stats::quantile::median;

const BASE_SERVICE_MS: f64 = 4.0;
const KNEE: u32 = 4;
const MAX_SLOWDOWN: f64 = 12.0;
const WAVES: u64 = 6;
const WAVE_SPACING_MS: u64 = 2_000;

/// Pins the FE's base service time so the queueing multiplier is the
/// only thing that can move the overhead.
fn constant_service(mut cfg: ServiceConfig) -> ServiceConfig {
    cfg.fe_load = FeLoadProfile {
        service_ms: Dist::Constant(BASE_SERVICE_MS),
        load_amplitude: 0.0,
        load_volatility: 0.0,
    };
    cfg
}

/// `n` clients fire simultaneously at client 0's default FE, once per
/// wave.
fn burst_design(n: usize) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let fe = w.default_fe(0);
            let be = w.be_of_fe(fe);
            w.prewarm(net, fe, be, 2);
            for wave in 0..WAVES {
                for client in 0..n {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1_000 + wave * WAVE_SPACING_MS),
                        QuerySpec {
                            client,
                            keyword: wave,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            }
        });
    })
}

pub fn run(_: Scale, seed: u64) -> ClaimRun {
    let model = LoadModel {
        fe_capacity: KNEE,
        be_capacity: 64,
        max_slowdown: MAX_SLOWDOWN,
    };
    let sizes = [2usize, 6, 18];
    let top = *sizes.last().unwrap();

    let mut c = campaign(Scale::Quick, seed);
    c.push(
        "off/n18",
        constant_service(ServiceConfig::google_like(seed)),
        burst_design(top),
    );
    let mut top_seed = 0;
    for &n in &sizes {
        let d = c.push(
            format!("model/n{n}"),
            constant_service(ServiceConfig::google_like(seed)).with_load_model(model),
            burst_design(n),
        );
        if n == top {
            top_seed = d.seed;
        }
    }
    // Same derived seed as model/n18: identical worlds that may land on
    // different worker threads, so the exact-reproduction check also
    // exercises shard-level determinism.
    let rerun = c.push(
        "model/n18-rerun",
        constant_service(ServiceConfig::google_like(seed)).with_load_model(model),
        burst_design(top),
    );
    rerun.seed = top_seed;
    c.push(
        "admission/n18",
        constant_service(ServiceConfig::google_like(seed))
            .with_load_model(model)
            .with_admission_control(KNEE),
        burst_design(top),
    );

    let report = execute_stream(&c, &|_| CollectSink::with_raw(true));

    let overheads = |label: &str| -> Vec<f64> {
        report
            .output(label)
            .raw
            .iter()
            .filter(|cq| cq.outcome.served())
            .map(|cq| cq.fe_overhead_ms)
            .collect()
    };
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let worst = |v: &[f64]| v.iter().cloned().fold(f64::NAN, f64::max);

    let mut tsv = Tsv::new(&[
        "arm",
        "burst",
        "scheduled",
        "served",
        "shed",
        "med_overhead_ms",
        "max_overhead_ms",
    ]);
    let arms: Vec<(String, usize)> = std::iter::once(("off/n18".to_string(), top))
        .chain(sizes.iter().map(|&n| (format!("model/n{n}"), n)))
        .chain(std::iter::once(("admission/n18".to_string(), top)))
        .collect();
    for (label, n) in &arms {
        let t = report.get(label).unwrap().tally;
        let ov = overheads(label);
        tsv.row(&[
            label.clone(),
            format!("{n}"),
            format!("{}", n * WAVES as usize),
            format!("{}", ov.len()),
            format!("{}", t.shed),
            format!("{:.3}", med(&ov)),
            format!("{:.3}", worst(&ov)),
        ]);
    }

    let off = overheads("off/n18");
    let m2 = overheads("model/n2");
    let m6 = overheads("model/n6");
    let m18 = overheads("model/n18");
    let adm = overheads("admission/n18");
    let adm_tally = report.get("admission/n18").unwrap().tally;
    let scheduled = top * WAVES as usize;

    eprintln!(
        "median overhead: off {:.1} ms | model n=2 {:.1}, n=6 {:.1}, n=18 {:.1} ms | \
         admission n=18 {:.1} ms (shed {})",
        med(&off),
        med(&m2),
        med(&m6),
        med(&m18),
        med(&adm),
        adm_tally.shed
    );

    let mut run = ClaimRun::default();
    run.check(
        "model off: overhead flat at the base service time under an 18-wide burst",
        format!("{:.1} ms worst vs {BASE_SERVICE_MS} ms base", worst(&off)),
        // Brownout-free, constant service, no model: every overhead is
        // exactly the base draw.
        off.iter().all(|&o| (o - BASE_SERVICE_MS).abs() < 1e-9),
    );
    run.check(
        "model on: overhead climbs with burst size",
        format!("{:.1} → {:.1} → {:.1} ms", med(&m2), med(&m6), med(&m18)),
        med(&m6) > med(&m2) && med(&m18) > med(&m6),
    );
    run.check(
        "saturated burst clears 3x the unloaded overhead",
        format!("{:.1} vs {:.1} ms", med(&m18), med(&off)),
        med(&m18) > 3.0 * med(&off),
    );
    run.check(
        "admission sheds above the watermark",
        format!("{} shed", adm_tally.shed),
        adm_tally.shed > 0,
    );
    run.check(
        "admission accounting conserves: ok + shed == scheduled",
        format!(
            "{} ok + {} shed == {scheduled} scheduled",
            adm_tally.ok, adm_tally.shed
        ),
        adm_tally.ok + adm_tally.shed == scheduled && adm_tally.total() == scheduled,
    );
    run.check(
        "admission bounds served overhead below the unprotected arm",
        format!("{:.1} vs {:.1} ms worst", worst(&adm), worst(&m18)),
        worst(&adm) < worst(&m18),
    );
    let shed_counter = report.merged_metrics().counter("cdnsim.shed_queries");
    run.check(
        "cdnsim.shed_queries counter agrees with the tally",
        format!("{shed_counter:?} vs {}", adm_tally.shed),
        shed_counter == Some(adm_tally.shed as u64),
    );
    let rerun = overheads("model/n18-rerun");
    run.check(
        "rerun reproduces every overhead exactly",
        "",
        m18.len() == rerun.len() && m18.iter().zip(rerun.iter()).all(|(a, b)| a == b),
    );
    run.with_tsv(tsv)
}
