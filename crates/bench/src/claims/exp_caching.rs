//! Sec. 3 — "Do FE Servers Cache Search Results?"
//!
//! Two designs against a fixed FE: all vantages repeating the *same*
//! query vs all-*distinct* (same-class) queries. The paper finds the
//! `Tdynamic` distributions indistinguishable and concludes FEs do not
//! cache results.
//!
//! Asserted:
//! * both realistic services yield `NoCaching`;
//! * a hypothetical FE-result-caching deployment is flagged
//!   `CachingSuspected` (the detector has power, not just a blind spot).

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::caching_probe::CachingProbeRun;
use inference::caching::CachingVerdict;

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let probe = CachingProbeRun::against(0);

    let configs = [
        (
            "bing-like",
            ServiceConfig::bing_like(seed),
            CachingVerdict::NoCaching,
        ),
        (
            "google-like",
            ServiceConfig::google_like(seed),
            CachingVerdict::NoCaching,
        ),
        (
            "google-like+fecache",
            ServiceConfig::google_like(seed).with_fe_result_cache(),
            CachingVerdict::CachingSuspected,
        ),
    ];

    // All six probe worlds (3 configs × same/distinct designs) run as one
    // campaign batch.
    let mut c = campaign(scale, seed);
    for (name, cfg, _) in &configs {
        probe.add_to(&mut c, name, cfg.clone());
    }
    // Each probe run retains only its (rtt, Tdynamic) pairs.
    let report = execute_stream(&c, &|_| CachingProbeRun::sink());

    let mut tsv = Tsv::new(&[
        "service",
        "ks_distance",
        "median_same_ms",
        "median_distinct_ms",
        "verdict",
    ]);

    let mut run = ClaimRun::default();
    for (name, _, expected) in configs {
        let id = format!("{name}: verdict {expected:?}");
        match probe.outcome_stream(&report, name) {
            Some(out) => {
                tsv.row(&[
                    name.to_string(),
                    format!("{:.4}", out.probe.ks_distance),
                    format!("{:.3}", out.probe.median_same_ms),
                    format!("{:.3}", out.probe.median_distinct_ms),
                    format!("{:?}", out.probe.verdict),
                ]);
                run.check(
                    id,
                    format!(
                        "got {:?}; d={:.3}, medians {:.0}/{:.0}",
                        out.probe.verdict,
                        out.probe.ks_distance,
                        out.probe.median_same_ms,
                        out.probe.median_distinct_ms
                    ),
                    out.probe.verdict == expected,
                );
            }
            None => run.not_evaluated(id, "the probe produced no samples"),
        }
    }
    run.with_tsv(tsv)
}
