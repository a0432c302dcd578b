//! Helpers shared by the determinism and telemetry conformance suites:
//! the representative campaign and the golden-file comparison protocol.

#![allow(dead_code)] // each test binary uses its own subset

use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, Design, Scenario};
use simcore::time::SimDuration;
use std::path::PathBuf;

/// A small campaign touching every design family: both stock dataset
/// designs, both service archetypes and a custom closure design
/// (`custom/close-pair`, the run whose raw captures the determinism
/// suite retains).
pub fn representative_campaign(seed: u64) -> Campaign {
    representative_campaign_with_metrics(seed, None)
}

/// [`representative_campaign`] with an explicit per-run telemetry
/// override.
pub fn representative_campaign_with_metrics(seed: u64, metrics: Option<bool>) -> Campaign {
    let mut c = Campaign::new(Scenario::small(seed));
    c.push(
        "a/bing",
        ServiceConfig::bing_like(seed),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::Fixed(0),
        }),
    )
    .metrics = metrics;
    c.push(
        "a/google",
        ServiceConfig::google_like(seed),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::RoundRobin(5),
        }),
    )
    .metrics = metrics;
    c.push(
        "b/fixed-fe",
        ServiceConfig::google_like(seed),
        Design::DatasetB(DatasetB::against(0).with_repeats(3)),
    )
    .metrics = metrics;
    c.push(
        "custom/close-pair",
        ServiceConfig::bing_like(seed),
        Design::custom(|sim| {
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 2);
                for r in 0..4u64 {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1_000 + r * 7_000),
                        cdnsim::QuerySpec {
                            client: 0,
                            keyword: r,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            });
        }),
    )
    .metrics = metrics;
    c
}

/// Path of a committed golden file.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the committed golden `name`, honoring
/// `UPDATE_GOLDEN` and pointing at the first divergent line on
/// mismatch (a full assert_eq! dump of two multi-KB TSVs is
/// unreadable). `context` names the configuration under test so a
/// failure says which variant diverged.
pub fn compare_golden(got: &str, name: &str, context: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got).unwrap();
        eprintln!("rewrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run scripts/update_golden.sh",
            path.display()
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "golden {} diverges at line {} under {} (intentional change? run scripts/update_golden.sh)",
                name,
                i + 1,
                context,
            );
        }
        panic!(
            "golden {name} length changed under {context}: {} vs {} lines; run scripts/update_golden.sh if intentional",
            got.lines().count(),
            want.lines().count()
        );
    }
}
