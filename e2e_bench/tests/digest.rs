//! Output digests: a tiny run of each workload is reproducible, and the
//! traced executor reproduces the untraced `execute_stream` output.

use e2e_bench::measure::{execute, execute_traced_once, gate};
use e2e_bench::workload::{Size, Workload};

#[test]
fn tiny_runs_repeat_their_digest() {
    for w in Workload::ALL {
        let built = w.build(5, Size::Tiny);
        let a = execute(&built);
        let b = execute(&w.build(5, Size::Tiny));
        assert_eq!(a.digest, b.digest, "{}", w.name());
        let other_seed = execute(&w.build(6, Size::Tiny));
        assert_ne!(a.digest, other_seed.digest, "{}: seed ignored", w.name());
        let failures = gate(
            &built,
            a.report
                .runs
                .iter()
                .map(|r| (r.label.as_str(), &r.tally, &r.output)),
        );
        assert!(failures.is_empty(), "{}: {failures:?}", w.name());
    }
}

#[test]
fn traced_and_untraced_digests_are_equal() {
    for w in Workload::ALL {
        let built = w.build(7, Size::Tiny);
        let untraced = execute(&built);
        for threads in [1, 2] {
            let (traced, digest) = execute_traced_once(&built, threads);
            assert_eq!(digest, untraced.digest, "{} threads={threads}", w.name());
            for (t, u) in traced.runs.iter().zip(&untraced.report.runs) {
                assert_eq!(t.label, u.label);
                assert_eq!(t.tally, u.tally);
                assert_eq!(t.output, u.output);
            }
            let ledger = traced.ledger();
            assert!(ledger.covered() <= ledger.wall);
        }
    }
}
