//! # bench — figure-regeneration harnesses
//!
//! One binary per evaluation artefact of the paper:
//!
//! | binary           | paper artefact                                            |
//! |------------------|-----------------------------------------------------------|
//! | `fig3`           | Fig. 3 — `Tstatic`/`Tdynamic` per keyword class, moving median |
//! | `fig4`           | Fig. 4 — packet-event timelines, temporal clusters         |
//! | `fig5`           | Fig. 5 — `Tstatic`/`Tdynamic`/`Tdelta` vs RTT, fixed FEs   |
//! | `fig6`           | Fig. 6 — RTT CDF to default FEs                            |
//! | `fig7`           | Fig. 7 — default-FE `Tstatic`/`Tdynamic` scatter           |
//! | `fig8`           | Fig. 8 — per-vantage overall-delay box plots               |
//! | `fig9`           | Fig. 9 — `Tdynamic` vs FE↔BE distance regression           |
//! | `exp_caching`    | Sec. 3 — do FEs cache search results?                      |
//! | `exp_instant`    | Sec. 6 — search-as-you-type                                |
//! | `exp_loss`       | Sec. 6 — lossy-last-hop placement trade-off                |
//! | `exp_bias`       | extension — PlanetLab vantage bias vs a residential population |
//! | `exp_classifiers`| extension — static/dynamic boundary classifiers vs ground truth |
//! | `exp_coords`     | extension — Vivaldi-coordinate FE↔BE RTT estimates         |
//! | `exp_feload`     | extension — FE load as FIFO queueing                       |
//! | `exp_whatif`     | extension — fleet × back-end swap counterfactual           |
//! | `exp_failover`   | robustness — BE outage, failover, cold-reconnect recovery  |
//! | `exp_overload`   | robustness — FE saturation, load model, admission control  |
//! | `exp_metastable` | robustness — retry-storm hysteresis and retry budgets      |
//! | `exp_popularity` | robustness — cache policy vs popularity churn, slab memory |
//! | `exp_temapping`  | robustness — proximity vs load-aware re-mapping under flash crowds |
//! | `abl_split`      | ablation — split TCP on/off                                |
//! | `abl_cache`      | ablation — FE static cache on/off                          |
//! | `abl_iw`         | ablation — initial-window sweep moves the RTT threshold    |
//! | `abl_cubic`      | ablation — Reno vs CUBIC congestion control                |
//!
//! Each binary prints TSV (the plotted series) to stdout and a
//! human-readable summary with the paper-shape checks to stderr, and
//! exits with status 1 if any check fails. Each one starts with
//! [`settings`]: scale is controlled by `FECDN_SCALE` (`quick` default,
//! `paper` for full-size runs) and the seed by `FECDN_SEED` (default
//! 42); any other value of either, or any command-line argument, exits
//! with status 2. `scripts/ci.sh` runs every binary and compares its
//! stdout with `tests/golden/harness/<binary>.tsv`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use emulator::{Campaign, QuerySink, RunDescriptor, Scenario, StreamReport};

/// Run scale for the harness binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced vantage/repeat counts: seconds of wall time, same shapes.
    Quick,
    /// Paper-scale counts (230 vantages, 720 repeats where applicable).
    Paper,
}

impl Scale {
    /// Parses a `FECDN_SCALE` value: unset is quick, `quick` and `paper`
    /// name the two scales, anything else is an error naming the value.
    /// Pure, so tests can pin the parsing without touching process
    /// environment state.
    pub fn from_value(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "invalid FECDN_SCALE value {other:?} (expected quick or paper)"
            )),
        }
    }
}

/// Parses a `FECDN_SEED` value: unset is 42, otherwise it must be an
/// unsigned 64-bit integer.
pub fn seed_from_value(value: Option<&str>) -> Result<u64, String> {
    match value {
        None => Ok(42),
        Some(s) => s
            .parse()
            .map_err(|_| format!("invalid FECDN_SEED value {s:?} (expected a u64)")),
    }
}

/// Parses a harness binary's command line and environment: it takes no
/// arguments, and reads `FECDN_SCALE` and `FECDN_SEED` as
/// [`Scale::from_value`] and [`seed_from_value`] do. Pure, so tests can
/// pin it without touching process state.
fn parse_settings(
    args: &[String],
    scale: Option<&str>,
    seed: Option<&str>,
) -> Result<(Scale, u64), String> {
    if let Some(arg) = args.first() {
        return Err(format!(
            "unexpected argument {arg:?} (harness binaries take none; \
             set FECDN_SCALE and FECDN_SEED instead)"
        ));
    }
    Ok((Scale::from_value(scale)?, seed_from_value(seed)?))
}

/// The first call of every harness binary: returns the run's scale and
/// seed from `FECDN_SCALE` and `FECDN_SEED`. Reports the error and exits
/// with status 2 on any command-line argument or a bad value of either
/// variable.
pub fn settings() -> (Scale, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let var = |name| std::env::var(name).ok();
    parse_settings(
        &args,
        var("FECDN_SCALE").as_deref(),
        var("FECDN_SEED").as_deref(),
    )
    .unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Builds the scenario for a scale.
pub fn scenario(scale: Scale, seed: u64) -> Scenario {
    match scale {
        Scale::Quick => Scenario::with_size(seed, 60, 4_000),
        Scale::Paper => Scenario::paper_scale(seed),
    }
}

/// Dataset B repeats for a scale (paper: 720).
pub fn dataset_b_repeats(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 12,
        Scale::Paper => 720,
    }
}

/// Dataset A repeats for a scale.
pub fn dataset_a_repeats(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 10,
        Scale::Paper => 60,
    }
}

/// Fig. 3 sample count per keyword (paper: 500).
pub fn fig3_samples(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 120,
        Scale::Paper => 500,
    }
}

/// An empty campaign over the scale's scenario — harness binaries push
/// their runs onto this and execute once.
pub fn campaign(scale: Scale, seed: u64) -> Campaign {
    Campaign::new(scenario(scale, seed))
}

/// Executes a campaign with the `FECDN_THREADS` worker count, one sink
/// per run from `factory`, folding queries as they complete (memory
/// stays bounded by reducer state), and prints the per-run
/// wall-clock/queue stats plus the metrics.tsv telemetry document to
/// stderr, buffered and emitted in one write so per-run lines appear in
/// descriptor order (stdout stays reserved for the byte-stable TSV).
pub fn execute_stream<F, S>(campaign: &Campaign, factory: &F) -> StreamReport<S::Output>
where
    F: Fn(&RunDescriptor) -> S + Sync,
    S: QuerySink,
    S::Output: Send,
{
    let report = campaign.execute_stream(factory);
    eprint!("{}", report.stderr_report());
    report
}

/// A headline-shape check: prints PASS/FAIL to stderr and returns the
/// outcome so binaries can exit non-zero on violated shapes.
pub fn check(label: &str, ok: bool) -> bool {
    eprintln!("  [{}] {}", if ok { "PASS" } else { "FAIL" }, label);
    ok
}

/// Exits with status 1 if any check failed.
pub fn finish(all_ok: bool) {
    if !all_ok {
        eprintln!("one or more paper-shape checks FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_quick_and_rejects_other_values() {
        assert_eq!(Scale::from_value(None), Ok(Scale::Quick));
        assert_eq!(Scale::from_value(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::from_value(Some("paper")), Ok(Scale::Paper));
        for bad in ["Paper", "full", ""] {
            let err = Scale::from_value(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("FECDN_SCALE value {bad:?}")), "{err}");
        }
    }

    #[test]
    fn seed_parsing_defaults_42_and_rejects_non_integers() {
        assert_eq!(seed_from_value(None), Ok(42));
        assert_eq!(seed_from_value(Some("7")), Ok(7));
        for bad in ["x", "-1", "4.2", ""] {
            let err = seed_from_value(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("FECDN_SEED value {bad:?}")), "{err}");
        }
    }

    #[test]
    fn settings_reject_any_argument_then_parse_scale_and_seed() {
        assert_eq!(parse_settings(&[], None, None), Ok((Scale::Quick, 42)));
        assert_eq!(
            parse_settings(&[], Some("paper"), Some("7")),
            Ok((Scale::Paper, 7))
        );
        for args in [
            vec!["--out".to_string(), "x".to_string()],
            vec![String::new()],
        ] {
            let err = parse_settings(&args, None, None).unwrap_err();
            assert!(err.contains(&format!("argument {:?}", args[0])), "{err}");
        }
        let err = parse_settings(&[], Some("bogus"), Some("x")).unwrap_err();
        assert!(err.contains("FECDN_SCALE value \"bogus\""), "{err}");
        let err = parse_settings(&[], None, Some("x")).unwrap_err();
        assert!(err.contains("FECDN_SEED value \"x\""), "{err}");
    }

    #[test]
    fn scenario_sizes() {
        let q = scenario(Scale::Quick, 1);
        assert_eq!(q.vantage_count(), 60);
        assert_eq!(dataset_b_repeats(Scale::Paper), 720);
        assert_eq!(fig3_samples(Scale::Paper), 500);
    }

    #[test]
    fn check_reports() {
        assert!(check("always true", true));
        assert!(!check("always false", false));
    }
}
