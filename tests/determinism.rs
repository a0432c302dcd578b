//! Campaign determinism: the sharded runner must be a pure
//! reordering of the serial runner.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Thread invariance** — a campaign's merged output is
//!    byte-identical whether it runs on one worker or many. Each run
//!    descriptor owns a whole simulated world and a seed derived only
//!    from `(campaign seed, label)`, so scheduling order can never leak
//!    into results.
//! 2. **Golden traces** — the exact TSV of a small representative
//!    campaign is committed under `tests/golden/`. Any change to the
//!    simulator core, the world construction, the seed derivation or
//!    the TSV formatting shows up as a diff here, reviewable in the PR
//!    that caused it. Refresh intentionally with
//!    `scripts/update_golden.sh`.

mod common;

use common::{compare_golden, representative_campaign};
use emulator::{CollectSink, FoldSink, ProcessedQuery, RunDescriptor};
use stats::{QuantileAcc, Welford};

#[test]
fn campaign_output_is_thread_invariant() {
    let c = representative_campaign(42);
    let sink = |d: &RunDescriptor| CollectSink::with_raw(d.label == "custom/close-pair");
    let serial = c.execute_stream_with_threads(&sink, 1);
    let sharded = c.execute_stream_with_threads(&sink, 4);
    assert_eq!(serial.threads, 1);
    assert_eq!(sharded.threads, 4.min(c.len()).max(1));
    assert_eq!(
        serial.to_tsv(),
        sharded.to_tsv(),
        "merged TSV must be byte-identical at 1 and 4 workers"
    );
    // Raw captures merge identically too (same traces, same order).
    let a = &serial.output("custom/close-pair").raw;
    let b = &sharded.output("custom/close-pair").raw;
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.trace.len(), y.trace.len());
        assert_eq!(x.client, y.client);
    }
}

#[test]
fn streaming_sink_is_thread_invariant_and_matches_collect_path() {
    let c = representative_campaign(42);
    let collected = c.execute_stream_with_threads(&|_| CollectSink::new(), 4);

    // Reducer state is bit-identical across thread counts: each run
    // folds single-threaded in its own shard, so online accumulators
    // see the same values in the same order regardless of scheduling.
    let reducers = |_: &RunDescriptor| {
        FoldSink::new(
            (Welford::new(), QuantileAcc::exact()),
            |s: &mut (Welford, QuantileAcc), q: &ProcessedQuery| {
                s.0.push(q.params.overall_ms);
                s.1.push(q.params.overall_ms);
            },
        )
    };
    let r1 = c.execute_stream_with_threads(&reducers, 1);
    let r4 = c.execute_stream_with_threads(&reducers, 4);
    assert_eq!(r1.runs.len(), r4.runs.len());
    for ((a, b), col) in r1.runs.iter().zip(r4.runs.iter()).zip(&collected.runs) {
        assert_eq!(a.label, b.label, "merge must preserve descriptor order");
        assert_eq!(a.label, col.label);
        let ((wa, qa), (wb, qb)) = (&a.output, &b.output);
        assert_eq!(wa.count(), wb.count());
        assert_eq!(
            wa.mean().map(f64::to_bits),
            wb.mean().map(f64::to_bits),
            "run {}: Welford mean must be bit-identical",
            a.label
        );
        assert_eq!(
            wa.variance().map(f64::to_bits),
            wb.variance().map(f64::to_bits),
            "run {}: Welford variance must be bit-identical",
            a.label
        );
        let (va, vb) = (qa.values().unwrap(), qb.values().unwrap());
        assert_eq!(va.len(), vb.len());
        assert!(
            va.iter()
                .zip(vb.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "run {}: exact quantile sample must be bit-identical",
            a.label
        );
        // ...and the reducers folded exactly the queries the collect
        // sink buffers.
        let mut folded = va;
        let mut buffered: Vec<f64> = col
            .output
            .queries
            .iter()
            .map(|q| q.params.overall_ms)
            .collect();
        folded.sort_by(f64::total_cmp);
        buffered.sort_by(f64::total_cmp);
        assert_eq!(
            folded, buffered,
            "run {}: reducer saw other queries",
            a.label
        );
    }
}

#[test]
fn campaign_output_is_oversubscription_invariant() {
    // More workers than runs: excess threads must be clamped away, not
    // spin on an empty queue or change the merge.
    let c = representative_campaign(7);
    assert_eq!(
        c.execute_stream_with_threads(&|_| CollectSink::new(), 2)
            .to_tsv(),
        c.execute_stream_with_threads(&|_| CollectSink::new(), 64)
            .to_tsv()
    );
}

fn check_golden(seed: u64, name: &str) {
    let got = representative_campaign(seed)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4)
        .to_tsv();
    compare_golden(&got, name, "telemetry default");
}

#[test]
fn golden_trace_seed42_matches() {
    check_golden(42, "campaign_seed42.tsv");
}

#[test]
fn golden_trace_seed7_matches() {
    check_golden(7, "campaign_seed7.tsv");
}
