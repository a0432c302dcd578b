//! # bench — the paper's claims and the harness that runs them
//!
//! One [`claims`] module per evaluation artefact of the paper: Figs. 3–9,
//! the in-text experiments of Secs. 3 and 6, ablations, extensions and
//! robustness experiments. [`claims::ALL`] lists them; README.md's table
//! gives each one's headline shape, and each module's docs its design.
//!
//! Each artefact returns a [`claims::ClaimRun`]: the TSV of the series it
//! plots and its paper-shape checks as data. The `claims` binary runs one
//! by name (`claims fig5`, `claims --list`): it prints the TSV to stdout
//! and one `[PASS]`/`[FAIL]` line per check to stderr, and exits with
//! status 1 if any check fails. Scale is controlled by `FECDN_SCALE`
//! (`quick` default, `paper` for full-size runs) and the seed by
//! `FECDN_SEED` (default 42); any other value of either, an unknown
//! artefact or a second argument exits with status 2. `scripts/ci.sh`
//! runs every artefact and compares its stdout with
//! `tests/golden/harness/<artefact>.tsv` (and `paper/<artefact>.tsv`).
//!
//! `bench_tcpsim` is the separate packet hot-path microbench.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use emulator::{Campaign, QuerySink, RunDescriptor, Scenario, StreamReport};

pub mod claims;

/// Run scale for the claims.
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

/// An empty campaign over the scale's scenario — artefacts push their
/// runs onto this and execute once.
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
    fn scenario_sizes() {
        let q = scenario(Scale::Quick, 1);
        assert_eq!(q.vantage_count(), 60);
        assert_eq!(dataset_b_repeats(Scale::Paper), 720);
        assert_eq!(fig3_samples(Scale::Paper), 500);
    }
}
