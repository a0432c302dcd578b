//! Campaign determinism: the sharded runner must be a pure
//! reordering of the serial runner.
//!
//! Three guarantees are pinned here:
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
//! 3. **Bounded streaming memory** — a capped reducer's peak retained
//!    bytes stay flat at 10× the queries, far below collecting them,
//!    a fed session campaign's connection slots and completion drain
//!    batches stay flat at 10× the sessions, and a fixed-FE campaign's
//!    event queue stays flat at 10× the repeats per vantage.

mod common;

use cdnsim::ServiceConfig;
use common::{compare_golden, representative_campaign};
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::dataset_b::DatasetB;
use emulator::{
    Campaign, CollectSink, Design, FoldSink, ProcessedQuery, QuerySink, RunDescriptor, Scenario,
    SessionWorkload,
};
use simcore::time::SimDuration;
use stats::{QuantileAcc, SummaryAcc, Welford};

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

/// A bounded reducer: capped summaries of the two headline columns.
/// Unlike `FoldSink`, it reports its footprint, so the runner's
/// per-run peak compares real bytes against `CollectSink`'s.
struct CappedSummaries {
    overall: SummaryAcc,
    t_dynamic: SummaryAcc,
}

impl QuerySink for CappedSummaries {
    type Output = ();

    fn on_query(&mut self, q: &ProcessedQuery) {
        self.overall.push(q.params.overall_ms);
        self.t_dynamic.push(q.params.t_dynamic_ms);
    }

    fn retained_bytes(&self) -> usize {
        self.overall.retained_bytes() + self.t_dynamic.retained_bytes()
    }

    fn finish(self) {}
}

/// Runs a two-service Dataset-A campaign of `repeats` rounds under
/// `factory`; returns (peak retained bytes, queries folded).
fn peak_and_queries<F, S>(repeats: u64, factory: &F) -> (usize, usize)
where
    F: Fn(&RunDescriptor) -> S + Sync,
    S: QuerySink,
    S::Output: Send,
{
    let seed = 42;
    let design = Design::DatasetA(DatasetA {
        repeats,
        spacing: SimDuration::from_secs(10),
        keywords: KeywordPolicy::Fixed(0),
    });
    let mut c = Campaign::new(Scenario::with_size(seed, 24, 500));
    c.push("bing-like", ServiceConfig::bing_like(seed), design.clone());
    c.push("google-like", ServiceConfig::google_like(seed), design);
    let report = c.execute_stream_with_threads(factory, 2);
    let queries = report
        .runs
        .iter()
        .map(|r| r.tally.total() - r.tally.skipped)
        .sum();
    (report.peak_retained_bytes(), queries)
}

#[test]
fn streaming_reducer_memory_stays_bounded_at_10x_queries() {
    let capped = |_: &RunDescriptor| CappedSummaries {
        overall: SummaryAcc::with_cap(256),
        t_dynamic: SummaryAcc::with_cap(256),
    };
    let (collect, n_collect) = peak_and_queries(12, &|_| CollectSink::new());
    let (stream, n_stream) = peak_and_queries(12, &capped);
    let (stream_10x, _) = peak_and_queries(120, &capped);

    assert_eq!(n_collect, n_stream, "sink choice must not change coverage");
    assert!(stream > 0, "the reducers retained nothing");
    assert!(
        collect >= 5 * stream,
        "streaming retains {stream} B, not 5x less than collect's {collect} B"
    );
    assert!(
        2 * stream_10x <= 3 * stream,
        "10x queries grew the streaming peak from {stream} B to {stream_10x} B: unbounded buffering?"
    );
    // 1.5x the 8,256 B the capped reducers settled at when this
    // contract was pinned; the footprint is deterministic, so any creep
    // is a real change.
    assert!(
        stream.max(stream_10x) <= 12_384,
        "streaming peak {stream} B / {stream_10x} B crept past 12,384 B"
    );
}

/// Runs a fed google-like campaign of `sessions` single-query sessions
/// 20 ms apart on one worker; returns its peak connection slots and the
/// most completions one drain handed over.
fn conn_slots_and_drain_batch(sessions: u64) -> (f64, f64) {
    let seed = 42;
    let mut c = Campaign::new(Scenario::with_size(seed, 24, 500));
    c.push(
        "sessions",
        ServiceConfig::google_like(seed),
        Design::Sessions(
            SessionWorkload::new(sessions).with_mean_gap(SimDuration::from_millis(20)),
        ),
    )
    .metrics = Some(true);
    let capped = |_: &RunDescriptor| CappedSummaries {
        overall: SummaryAcc::with_cap(256),
        t_dynamic: SummaryAcc::with_cap(256),
    };
    let report = c.execute_stream_with_threads(&capped, 1);
    let metrics = &report.runs[0].metrics;
    let max = |name: &str| {
        metrics
            .gauge(name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    (
        max("tcpsim.conn_slots_hiwater"),
        max("emulator.drain_batch_hiwater"),
    )
}

#[test]
fn world_memory_stays_o_live_at_10x_sessions() {
    let (slots, batch) = conn_slots_and_drain_batch(500);
    let (slots_10x, batch_10x) = conn_slots_and_drain_batch(5_000);
    // Every session opens its own client connection, so a net that kept
    // finished connections would grow its slots 10x here.
    assert!(slots > 0.0, "no connection slot was used");
    assert!(
        2.0 * slots_10x <= 3.0 * slots,
        "10x sessions grew the connection slots from {slots} to {slots_10x}: finished connections kept?"
    );
    // 1.5x the 67 completions the one-second drain handed over at most
    // when this contract was pinned (a 60 s drain hands over ~3,000);
    // both gauges are deterministic, so any creep is a real change.
    assert!(
        batch.max(batch_10x) <= 100.0,
        "largest drain batch {batch} / {batch_10x} crept past 100 completions"
    );
}

/// Runs a google-like fixed-FE (Dataset B) campaign of `repeats`
/// queries per vantage on one worker; returns the event queue's slab
/// high-water mark.
fn fixed_fe_slab_slots(repeats: u64) -> f64 {
    let seed = 42;
    let mut c = Campaign::new(Scenario::with_size(seed, 24, 500));
    c.push(
        "fixed-fe",
        ServiceConfig::google_like(seed),
        Design::DatasetB(DatasetB::against(0).with_repeats(repeats)),
    )
    .metrics = Some(true);
    let capped = |_: &RunDescriptor| CappedSummaries {
        overall: SummaryAcc::with_cap(256),
        t_dynamic: SummaryAcc::with_cap(256),
    };
    let report = c.execute_stream_with_threads(&capped, 1);
    report.runs[0]
        .metrics
        .gauge("tcpsim.slab_high_water_slots")
        .expect("tcpsim.slab_high_water_slots missing")
        .1
}

#[test]
fn world_memory_stays_flat_at_10x_repeats() {
    // Each vantage's queries are one series that keeps only its next
    // start queued; queuing every start up front grows the slab ~10x.
    let slots = fixed_fe_slab_slots(4);
    let slots_10x = fixed_fe_slab_slots(40);
    assert!(slots > 0.0, "no event slot was used");
    assert!(
        2.0 * slots_10x <= 3.0 * slots,
        "10x repeats grew the event slab from {slots} to {slots_10x} slots: starts queued up front?"
    );
    // 1.5x the 210 slots both sizes used when this contract was pinned
    // (queuing every start up front took 259 and 1,123); the gauge is
    // deterministic, so any creep is a real change.
    assert!(
        slots.max(slots_10x) <= 315.0,
        "event slab {slots} / {slots_10x} slots crept past 315"
    );
}
