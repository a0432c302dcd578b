//! The paper's claims, run in-process and read as data.
//!
//! Every registered artefact except `exp_popularity` (by far the slowest
//! in a debug build; `scripts/ci.sh` runs it through the `claims` binary)
//! is run at quick scale: seed 42 must reproduce the committed stdout golden
//! with every check passing, and the list of check ids must not depend
//! on the seed.

mod common;

use bench::claims::{ClaimRun, ALL};
use bench::Scale;
use std::sync::OnceLock;

const SKIPPED: &str = "exp_popularity";

fn quick_runs(seed: u64) -> Vec<(&'static str, ClaimRun)> {
    ALL.iter()
        .filter(|(name, _)| *name != SKIPPED)
        .map(|&(name, claim)| (name, claim(Scale::Quick, seed)))
        .collect()
}

/// The seed-42 runs, shared by both tests.
fn seed42() -> &'static [(&'static str, ClaimRun)] {
    static RUNS: OnceLock<Vec<(&'static str, ClaimRun)>> = OnceLock::new();
    RUNS.get_or_init(|| quick_runs(42))
}

fn ids(run: &ClaimRun) -> Vec<&str> {
    run.checks.iter().map(|c| c.id.as_str()).collect()
}

#[test]
fn every_claim_reproduces_its_quick_golden_in_process() {
    let mut checks = 0;
    for (name, run) in seed42() {
        let path = common::golden_path(&format!("harness/{name}.tsv"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
        assert!(
            run.tsv == want,
            "{name}: TSV differs from {}",
            path.display()
        );
        for c in &run.checks {
            assert!(c.pass, "{name}: [FAIL] {} ({})", c.id, c.detail);
        }
        let mut unique = ids(run);
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), run.checks.len(), "{name}: duplicate check id");
        checks += run.checks.len();
    }
    assert_eq!(checks, 119);
}

#[test]
fn check_ids_do_not_depend_on_the_seed() {
    let seed1 = quick_runs(1);
    for ((name, at42), (_, at1)) in seed42().iter().zip(&seed1) {
        assert_eq!(
            ids(at42),
            ids(at1),
            "{name}: check ids differ between seeds 42 and 1"
        );
    }
    // At seed 1 no vantage lies beyond fig5's thresholds + 30 ms, so its
    // six regime checks cannot be evaluated: they fail instead of
    // vanishing.
    let fig5 = &seed1.iter().find(|(name, _)| *name == "fig5").unwrap().1;
    assert_eq!(fig5.checks.len(), 13);
    let not_evaluated: Vec<&str> = fig5
        .checks
        .iter()
        .filter(|c| c.detail.starts_with("not evaluated"))
        .inspect(|c| assert!(!c.pass, "{}", c.id))
        .map(|c| c.id.as_str())
        .collect();
    assert_eq!(not_evaluated.len(), 6, "{not_evaluated:?}");
    assert!(not_evaluated.iter().all(|id| id.contains("RTT")));
}
