//! Metrics-conformance suite for the telemetry layer.
//!
//! Pins the three contracts `simcore::telemetry` makes:
//!
//! 1. **Merge-order determinism** — the `metrics.tsv` document of a
//!    campaign is byte-identical at 1, 4 and 9 worker threads, because
//!    each run owns a private registry and campaigns merge them in
//!    descriptor order.
//! 2. **Observe-only equivalence** — telemetry never draws randomness
//!    or schedules events, so the committed golden query traces are
//!    byte-identical with metrics enabled or runtime-disabled.
//! 3. **Accounting** — counters, gauges and histograms agree with a
//!    naive recomputation over the raw observation stream, and a
//!    sharded 3-way merge agrees with single-registry accumulation
//!    (property-tested).

mod common;

use cdnsim::ServiceConfig;
use common::{compare_golden, representative_campaign_with_metrics};
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, CollectSink, Design, MetricsRegistry, Scenario, METRICS_TSV_HEADER};
use proptest::prelude::*;
use simcore::time::SimDuration;

/// A campaign wide enough to exercise 9 genuinely concurrent workers
/// (worker counts are clamped to the run count): ten runs mixing both
/// service archetypes and both dataset designs, all with telemetry
/// force-enabled.
fn wide_campaign(seed: u64) -> Campaign {
    let mut c = Campaign::new(Scenario::with_size(seed, 12, 300));
    for i in 0..5u64 {
        let cfg = if i % 2 == 0 {
            ServiceConfig::bing_like(seed)
        } else {
            ServiceConfig::google_like(seed)
        };
        let keywords = if i % 2 == 0 {
            KeywordPolicy::Fixed(i)
        } else {
            KeywordPolicy::RoundRobin(i + 2)
        };
        c.push(
            format!("wide/a{i}"),
            cfg,
            Design::DatasetA(DatasetA {
                repeats: 1,
                spacing: SimDuration::from_secs(8),
                keywords,
            }),
        )
        .metrics = Some(true);
    }
    for i in 0..5usize {
        c.push(
            format!("wide/b{i}"),
            ServiceConfig::google_like(seed),
            Design::DatasetB(DatasetB::against(i).with_repeats(1)),
        )
        .metrics = Some(true);
    }
    c
}

/// Labels of [`wide_campaign`], in descriptor order.
fn wide_labels() -> Vec<String> {
    (0..5)
        .map(|i| format!("wide/a{i}"))
        .chain((0..5).map(|i| format!("wide/b{i}")))
        .collect()
}

// ---------- 1. merge-order determinism ----------

#[test]
fn metrics_tsv_is_byte_identical_at_1_4_9_threads() {
    let c = wide_campaign(42);
    let r1 = c.execute_stream_with_threads(&|_| CollectSink::new(), 1);
    let r4 = c.execute_stream_with_threads(&|_| CollectSink::new(), 4);
    let r9 = c.execute_stream_with_threads(&|_| CollectSink::new(), 9);
    assert_eq!(r1.threads, 1);
    assert_eq!(r4.threads, 4);
    assert_eq!(r9.threads, 9);

    // The query TSV and the deterministic metrics document are both
    // byte-identical at every worker count.
    assert_eq!(r1.to_tsv(), r4.to_tsv(), "query TSV differs 1 vs 4");
    assert_eq!(r1.to_tsv(), r9.to_tsv(), "query TSV differs 1 vs 9");
    let (m1, m4, m9) = (r1.metrics_tsv(), r4.metrics_tsv(), r9.metrics_tsv());
    assert_eq!(m1, m4, "metrics.tsv differs 1 vs 4 threads");
    assert_eq!(m1, m9, "metrics.tsv differs 1 vs 9 threads");

    // So is the merged (cross-run) registry document.
    assert_eq!(r1.merged_metrics().to_tsv(), r9.merged_metrics().to_tsv());

    // Instrumentation sanity: the layers actually reported in.
    assert!(m1.len() > METRICS_TSV_HEADER.len());
    for metric in [
        "capture.timeline_ok",
        "tcpsim.events_processed",
        "tcpsim.handshake_rtt_ms",
        "cdnsim.fe_static_cache_hits",
    ] {
        assert!(m1.contains(metric), "metrics.tsv missing {metric}:\n{m1}");
    }
    // The event mix accounts for every popped event, in every run.
    for r in &r1.runs {
        let gauge = |name: &str| r.metrics.gauge(name).unwrap_or_else(|| panic!("{name}")).0;
        let kinds: f64 = [
            "tcpsim.events_deliver",
            "tcpsim.events_rto",
            "tcpsim.events_delack",
            "tcpsim.events_app_timer",
        ]
        .iter()
        .map(|name| gauge(name))
        .sum();
        assert_eq!(kinds, gauge("tcpsim.events_processed"), "{}", r.label);
        // Superseded and early timer pops are a subset of timer pops.
        let timer_pops = gauge("tcpsim.events_rto") + gauge("tcpsim.events_delack");
        let idle = gauge("tcpsim.timer_requeues") + gauge("tcpsim.timer_noop_pops");
        assert!(idle <= timer_pops, "{}", r.label);
    }
    // Rows appear grouped by run, in descriptor order.
    let runs_in_doc: Vec<&str> = {
        let mut seen = Vec::new();
        for line in m1.lines().skip(1) {
            let run = line.split('\t').next().unwrap();
            if seen.last() != Some(&run) {
                seen.push(run);
            }
        }
        seen
    };
    let want: Vec<String> = wide_labels();
    assert_eq!(runs_in_doc, want, "metrics rows not in descriptor order");
}

// ---------- 2. observe-only equivalence ----------

/// The committed golden traces (pinned by tests/determinism.rs under the
/// ambient telemetry default) must be byte-identical when telemetry is
/// force-enabled and when it is runtime-disabled.
fn golden_is_telemetry_invariant(seed: u64, name: &str) {
    for (metrics, context) in [
        (Some(true), "telemetry force-enabled"),
        (Some(false), "telemetry runtime-disabled"),
    ] {
        let got = representative_campaign_with_metrics(seed, metrics)
            .execute_stream_with_threads(&|_| CollectSink::new(), 4)
            .to_tsv();
        compare_golden(&got, name, context);
    }
}

#[test]
fn golden_seed42_is_invariant_under_telemetry_toggle() {
    golden_is_telemetry_invariant(42, "campaign_seed42.tsv");
}

#[test]
fn golden_seed7_is_invariant_under_telemetry_toggle() {
    golden_is_telemetry_invariant(7, "campaign_seed7.tsv");
}

#[test]
fn disabled_runs_render_a_header_only_document() {
    let report = representative_campaign_with_metrics(42, Some(false))
        .execute_stream_with_threads(&|_| CollectSink::new(), 2);
    assert_eq!(report.metrics_tsv(), METRICS_TSV_HEADER);
    assert_eq!(report.metrics_tsv_all(), METRICS_TSV_HEADER);
    for run in &report.runs {
        assert!(
            run.metrics.is_empty(),
            "run {} recorded metrics while disabled",
            run.label
        );
    }
}

#[test]
fn stderr_report_lists_runs_in_descriptor_order_at_4_threads() {
    // The stderr report is a single buffered string assembled after the
    // merge, so per-run lines appear in descriptor order no matter how
    // the 4 workers interleaved. Pin that: first occurrence of each
    // label must be strictly increasing, in both the stats table and
    // the metrics document.
    let report = wide_campaign(7).execute_stream_with_threads(&|_| CollectSink::new(), 4);
    let doc = report.stderr_report();
    let mut last = 0usize;
    for label in wide_labels() {
        let at = doc
            .find(&label)
            .unwrap_or_else(|| panic!("stderr report missing run {label}"));
        assert!(
            at >= last,
            "run {label} appears before its predecessor in the stderr report"
        );
        last = at;
    }
    let metrics_at = doc
        .find(METRICS_TSV_HEADER)
        .expect("stderr report missing the metrics document header");
    let tail = &doc[metrics_at..];
    let mut last = 0usize;
    for label in wide_labels() {
        let key = format!("\n{label}\t");
        let at = tail
            .find(&key)
            .unwrap_or_else(|| panic!("metrics section missing rows for {label}"));
        assert!(
            at >= last,
            "metrics rows for {label} out of descriptor order"
        );
        last = at;
    }
}

// ---------- 3. accounting vs naive recomputation ----------

const COUNTERS: [&str; 3] = ["t.count.a", "t.count.b", "t.count.c"];
const GAUGES: [&str; 3] = ["t.gauge.a", "t.gauge.b", "t.gauge.c"];
const HISTS: [&str; 3] = ["t.hist.a", "t.hist.b", "t.hist.c"];

/// One registry operation, decoded from a flat sampled tuple:
/// `sel` picks the operation class, `which` the metric name, and
/// `n`/`x` supply the operand.
#[derive(Clone, Copy, Debug)]
struct Op {
    sel: u64,
    which: usize,
    n: u64,
    x: f64,
}

fn apply(reg: &mut MetricsRegistry, op: &Op) {
    match op.sel {
        0 => reg.inc(COUNTERS[op.which]),
        1 => reg.add(COUNTERS[op.which], op.n),
        2 => reg.set_gauge(GAUGES[op.which], op.x),
        _ => reg.observe(HISTS[op.which], op.x),
    }
}

fn decode(raw: &[(u64, u64, u64, f64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, which, n, x)| Op {
            sel,
            which: which as usize,
            n,
            x,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Registry accounting agrees with a naive recomputation over the
    /// same observation stream: counters are plain sums, gauges are
    /// (last write, running max), histograms see every sample exactly
    /// once with exact min/max and a mean within float-merge tolerance.
    #[test]
    fn accounting_matches_naive_recomputation(
        raw in prop::collection::vec((0u64..4, 0u64..3, 0u64..100, 0.0f64..1.0e6), 0..200),
    ) {
        let ops = decode(&raw);
        let mut reg = MetricsRegistry::with_enabled(true);
        let mut counters = [0u64; 3];
        let mut gauges: [Option<(f64, f64)>; 3] = [None; 3];
        let mut hists: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for op in &ops {
            apply(&mut reg, op);
            match op.sel {
                0 => counters[op.which] += 1,
                1 => counters[op.which] += op.n,
                2 => {
                    let max = gauges[op.which].map_or(op.x, |(_, m)| m.max(op.x));
                    gauges[op.which] = Some((op.x, max));
                }
                _ => hists[op.which].push(op.x),
            }
        }
        for i in 0..3 {
            prop_assert_eq!(
                reg.counter(COUNTERS[i]),
                if counters[i] > 0 || ops.iter().any(|o| o.sel <= 1 && o.which == i) {
                    Some(counters[i])
                } else {
                    None
                }
            );
            match gauges[i] {
                None => prop_assert!(reg.gauge(GAUGES[i]).is_none()),
                Some((last, max)) => {
                    let (gl, gm) = reg.gauge(GAUGES[i]).unwrap();
                    prop_assert_eq!(gl.to_bits(), last.to_bits());
                    prop_assert_eq!(gm.to_bits(), max.to_bits());
                }
            }
            if hists[i].is_empty() {
                prop_assert!(reg.hist_count(HISTS[i]).is_none());
            } else {
                prop_assert_eq!(reg.hist_count(HISTS[i]), Some(hists[i].len() as u64));
                let s = reg.hist_summary(HISTS[i]).unwrap();
                let naive_min = hists[i].iter().cloned().fold(f64::INFINITY, f64::min);
                let naive_max = hists[i].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let naive_mean = hists[i].iter().sum::<f64>() / hists[i].len() as f64;
                prop_assert_eq!(s.min.to_bits(), naive_min.to_bits());
                prop_assert_eq!(s.max.to_bits(), naive_max.to_bits());
                prop_assert!(
                    (s.mean - naive_mean).abs() <= 1e-9 * naive_mean.abs().max(1.0),
                    "mean {} vs naive {}", s.mean, naive_mean
                );
            }
        }
    }

    /// Sharded accumulation merged in shard order is equivalent to a
    /// single registry fed the whole stream: exact for counters, gauge
    /// last/max and histogram counts/extrema, tolerance-equal for
    /// merged moments (Welford merge is not bitwise associative).
    #[test]
    fn three_way_shard_merge_matches_single_registry(
        raw in prop::collection::vec((0u64..4, 0u64..3, 0u64..100, 0.0f64..1.0e6), 0..200),
        cut_a in 0u64..201,
        cut_b in 0u64..201,
    ) {
        let ops = decode(&raw);
        let (mut i, mut j) = (
            (cut_a as usize).min(ops.len()),
            (cut_b as usize).min(ops.len()),
        );
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }

        let mut single = MetricsRegistry::with_enabled(true);
        for op in &ops {
            apply(&mut single, op);
        }

        let mut merged = MetricsRegistry::with_enabled(true);
        for shard_ops in [&ops[..i], &ops[i..j], &ops[j..]] {
            let mut shard = MetricsRegistry::with_enabled(true);
            for op in shard_ops {
                apply(&mut shard, op);
            }
            merged.merge(&shard);
        }

        prop_assert_eq!(single.names(), merged.names());
        for name in COUNTERS {
            prop_assert_eq!(single.counter(name), merged.counter(name));
        }
        for name in GAUGES {
            let (a, b) = (single.gauge(name), merged.gauge(name));
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some((al, am)), Some((bl, bm))) = (a, b) {
                prop_assert_eq!(al.to_bits(), bl.to_bits(), "gauge {} last", name);
                prop_assert_eq!(am.to_bits(), bm.to_bits(), "gauge {} max", name);
            }
        }
        for name in HISTS {
            prop_assert_eq!(single.hist_count(name), merged.hist_count(name));
            let (a, b) = (single.hist_summary(name), merged.hist_summary(name));
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some(sa), Some(sb)) = (a, b) {
                prop_assert_eq!(sa.n, sb.n);
                prop_assert_eq!(sa.min.to_bits(), sb.min.to_bits(), "hist {} min", name);
                prop_assert_eq!(sa.max.to_bits(), sb.max.to_bits(), "hist {} max", name);
                // Under HIST_CAP the quantile sample is exact, and
                // sorting erases shard order: quantiles are bitwise.
                for (qa, qb) in [(sa.median, sb.median), (sa.p95, sb.p95)] {
                    prop_assert_eq!(qa.to_bits(), qb.to_bits(), "hist {} quantile", name);
                }
                prop_assert!(
                    (sa.mean - sb.mean).abs() <= 1e-9 * sa.mean.abs().max(1.0),
                    "hist {} mean {} vs {}", name, sa.mean, sb.mean
                );
            }
        }
    }
}
