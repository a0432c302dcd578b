//! The metric contract: valid names and units, every printed metric
//! declared in `BENCHMARK.json`, and the committed manifest generated
//! from the same tables the benchmark prints from.

use e2e_bench::manifest::{manifest_json, END_TO_END, PER_LAYER};
use e2e_bench::measure::run;
use e2e_bench::workload::{Size, Workload};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    names.extend(PER_LAYER.iter().map(|m| m.name));
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for n in &names {
        assert!(valid_name(n), "bad name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate name");
    for (unit, better) in END_TO_END
        .iter()
        .map(|m| (m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
    {
        assert!(valid_unit(unit), "bad unit {unit:?}");
        assert!(better == "lower" || better == "higher");
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for w in Workload::ALL {
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
}

#[test]
fn committed_manifest_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate with: cargo run --release --manifest-path e2e_bench/Cargo.toml -- --manifest"
    );
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    for (trace, declared) in [
        (
            false,
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (true, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()),
    ] {
        for w in Workload::ALL {
            let report = run(w, 3, 0.01, trace, Size::Tiny);
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                w.name(),
                report.notes
            );
            let mut printed: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let mut want = declared.clone();
            printed.sort_unstable();
            want.sort_unstable();
            assert_eq!(printed, want, "{} trace={trace}", w.name());
            let json = report.json();
            for (name, unit) in &want {
                assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}
