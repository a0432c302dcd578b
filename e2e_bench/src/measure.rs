//! One benchmark run: set up, execute repeatedly for the run's seconds,
//! gate every execution's output, and reduce to the reported metrics.

use crate::sink::{BenchSink, Digest, RunOutput};
use crate::traced::{execute_traced, Layer, Ledger, TracedReport};
use crate::workload::{Built, Size, Workload};
use emulator::{RunDescriptor, StreamReport};
use inference::SessionTally;
use simcore::telemetry::MetricsRegistry;
use std::time::{Duration, Instant};

/// Scenario + campaign constructions timed per run for `setup_s`.
const SETUP_REPEATS: usize = 25;
/// Fewest executions (or traced pairs) a run makes, however long they take.
const MIN_REPEATS: usize = 3;
/// Share of checked `Ok` queries allowed outside the Eq. 1 bracket. The
/// simulator exceeds the upper bound by 12–16 ms on about 1 in 20,000
/// `Ok` queries of the session workloads (measured over 30 seed runs); a
/// broken timeline or clock misses on a large share.
const MAX_BRACKET_MISS_SHARE: f64 = 1e-3;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (declared in `BENCHMARK.json`).
    pub name: &'static str,
    /// Value; `None` when unavailable.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    /// Every gate passed.
    pub correct: bool,
    /// Campaign executions made.
    pub attempted: u64,
    /// Executions whose output failed the gate.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: base counts, digests, spans, gate failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The contract's last stdout line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = match m.value {
                    Some(v) if v.is_finite() => format!("{v}"),
                    _ => "null".to_string(),
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The sink factory every execution (traced or not) uses.
fn sink_for(built: &Built) -> impl Fn(&RunDescriptor) -> BenchSink + Sync {
    let grouped = built.check_thresholds;
    move |_: &RunDescriptor| BenchSink::new(grouped)
}

/// The output digest of one execution: label, tally and sink digest of
/// every run, in descriptor order.
pub fn campaign_digest<'a>(
    runs: impl Iterator<Item = (&'a str, &'a SessionTally, &'a RunOutput)>,
) -> Digest {
    let mut d = Digest::default();
    for (label, tally, out) in runs {
        d.str(label);
        d.tally(tally);
        d.u64(out.digest.0);
    }
    d
}

/// One untraced execution, reduced.
pub struct Execution {
    /// The `execute_stream` call's wall time.
    pub wall: Duration,
    /// The stream report.
    pub report: StreamReport<RunOutput>,
    /// Output digest.
    pub digest: Digest,
}

/// Runs the campaign once through `Campaign::execute_stream`, with the
/// worker count from `FECDN_THREADS`.
pub fn execute(built: &Built) -> Execution {
    let factory = sink_for(built);
    let t0 = Instant::now();
    let report = built.campaign.execute_stream(&factory);
    let wall = t0.elapsed();
    let digest = campaign_digest(
        report
            .runs
            .iter()
            .map(|r| (r.label.as_str(), &r.tally, &r.output)),
    );
    Execution {
        wall,
        report,
        digest,
    }
}

/// Runs the campaign once through the traced executor.
pub fn execute_traced_once(built: &Built, threads: usize) -> (TracedReport, Digest) {
    let traced = execute_traced(&built.campaign, &sink_for(built), threads);
    let digest = campaign_digest(
        traced
            .runs
            .iter()
            .map(|r| (r.label.as_str(), &r.tally, &r.output)),
    );
    (traced, digest)
}

/// The correctness gate for one execution's runs; returns the failures.
pub fn gate<'a>(
    built: &Built,
    runs: impl Iterator<Item = (&'a str, &'a SessionTally, &'a RunOutput)>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut thresholds = Vec::new();
    let (mut misses, mut checked) = (0, 0);
    for ((label, tally, out), (want_label, scheduled)) in runs.zip(&built.scheduled) {
        if label != want_label {
            failures.push(format!("run {label} out of descriptor order"));
        }
        if tally.total() != *scheduled {
            failures.push(format!(
                "{label}: outcomes sum to {} of {scheduled} scheduled queries",
                tally.total()
            ));
        }
        misses += out.bracket_misses;
        checked += out.bracket_checked;
        thresholds.push((label, out.threshold_ms));
    }
    if misses as f64 > MAX_BRACKET_MISS_SHARE * checked as f64 {
        failures.push(format!(
            "{misses} of {checked} Ok queries violate Tdelta <= Tfetch <= Tdynamic"
        ));
    }
    if built.check_thresholds {
        let find = |name: &str| {
            thresholds
                .iter()
                .find(|(l, _)| *l == name)
                .and_then(|(_, t)| *t)
        };
        match (find("google-like"), find("bing-like")) {
            (Some(g), Some(b)) if g < b => {}
            (g, b) => failures.push(format!(
                "google-like threshold {g:?} ms is not below bing-like {b:?} ms"
            )),
        }
    }
    failures
}

/// Client-observed latency quantile over every scheduled query, failed
/// ones counting as +inf (nearest rank). `None` when the rank lands on a
/// failure.
pub fn latency_quantile(sorted_ok: &[f64], scheduled: usize, q: f64) -> Option<f64> {
    let rank = ((q * scheduled as f64).ceil() as usize).max(1);
    sorted_ok.get(rank - 1).copied()
}

/// Simulated (deterministic) end-to-end figures of one execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimFigures {
    /// Queries completed (every outcome counts).
    pub completed: usize,
    /// Served queries with an extracted timeline.
    pub ok: usize,
    /// Scheduled queries.
    pub scheduled: usize,
    /// Median latency, ms.
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency, ms.
    pub p99_ms: Option<f64>,
}

/// Reduces one execution's runs to its simulated figures.
pub fn sim_figures<'a>(
    built: &Built,
    runs: impl Iterator<Item = (&'a SessionTally, &'a RunOutput)>,
) -> SimFigures {
    let mut lat = Vec::new();
    let mut completed = 0;
    for (tally, out) in runs {
        completed += tally.total();
        lat.extend_from_slice(&out.latencies_ms);
    }
    lat.sort_by(f64::total_cmp);
    let scheduled = built.total_scheduled();
    SimFigures {
        completed,
        ok: lat.len(),
        scheduled,
        p50_ms: latency_quantile(&lat, scheduled, 0.50),
        p99_ms: latency_quantile(&lat, scheduled, 0.99),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs a workload for about `seconds`: end-to-end metrics when `trace`
/// is false, per-layer metrics when true.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, size: Size) -> Report {
    if trace {
        run_traced(workload, seed, seconds, size)
    } else {
        run_untraced(workload, seed, seconds, size)
    }
}

/// Keeps executing until the next execution would overrun `seconds`.
fn keep_going(start: Instant, seconds: f64, done: usize, last: Duration) -> bool {
    done < MIN_REPEATS || secs(start.elapsed()) + secs(last) <= seconds
}

fn run_untraced(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    let mut notes = Vec::new();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(workload.build(seed, size));
        setup.push(secs(t0.elapsed()));
    }
    let built = built.expect("set up at least once");
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut qps = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<(Digest, SimFigures)> = None;
    let mut last = Duration::ZERO;
    while keep_going(start, seconds, walls.len(), last) {
        let ex = execute(&built);
        last = ex.wall;
        let runs = || {
            ex.report
                .runs
                .iter()
                .map(|r| (r.label.as_str(), &r.tally, &r.output))
        };
        let mut failures = gate(&built, runs());
        let figs = sim_figures(&built, ex.report.runs.iter().map(|r| (&r.tally, &r.output)));
        if figs.p99_ms.is_none() {
            failures.push(format!(
                "p99 latency undefined: only {} of {} scheduled queries served",
                figs.ok, figs.scheduled
            ));
        }
        match &first {
            None => {
                notes.push(format!("digest {} {:016x}", workload.name(), ex.digest.0));
                notes.extend(
                    ex.report
                        .runs
                        .iter()
                        .map(|r| tally_line(&r.label, &r.tally, &r.output)),
                );
                first = Some((ex.digest, figs));
            }
            Some((d, _)) if *d == ex.digest => {}
            Some((d, _)) => failures.push(format!(
                "digest {:016x} differs from the first execution's {:016x}",
                ex.digest.0, d.0
            )),
        }
        if !failures.is_empty() {
            failed += 1;
            notes.extend(failures.into_iter().map(|f| format!("GATE FAIL: {f}")));
        }
        walls.push(secs(ex.wall));
        qps.push(figs.completed as f64 / secs(ex.wall));
    }
    let (_, figs) = first.expect("at least one execution");
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    notes.push(format!("execution walls s: {}", list.join(" ")));
    notes.push(format!(
        "executions {} | scheduled {} completed {} ok {} | setup runs {SETUP_REPEATS}",
        walls.len(),
        figs.scheduled,
        figs.completed,
        figs.ok
    ));
    let metrics = vec![
        Metric {
            name: "wall_s",
            value: Some(median(&walls)),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: Some(median(&setup)),
            unit: "s",
        },
        Metric {
            name: "queries_per_s",
            value: Some(median(&qps)),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mib(),
            unit: "MiB",
        },
        Metric {
            name: "ok_share",
            value: Some(figs.ok as f64 / figs.scheduled as f64),
            unit: "ratio",
        },
        Metric {
            name: "sim_latency_p50_ms",
            value: figs.p50_ms,
            unit: "ms",
        },
        Metric {
            name: "sim_latency_p99_ms",
            value: figs.p99_ms,
            unit: "ms",
        },
    ];
    Report {
        correct: failed == 0,
        attempted: walls.len() as u64,
        failed,
        metrics,
        notes,
    }
}

/// One run's outcome counts and Eq. 1 bracket checks.
fn tally_line(label: &str, t: &SessionTally, out: &RunOutput) -> String {
    format!(
        "tally {label}: ok {} retried {} degraded {} timed_out {} shed {} no_live_fe {} \
         skipped {} (total {}); Eq. 1 misses {} of {} checked",
        t.ok,
        t.retried,
        t.degraded,
        t.timed_out,
        t.shed,
        t.no_live_fe,
        t.skipped,
        t.total(),
        out.bracket_misses,
        out.bracket_checked
    )
}

/// Sums a counter over every run's registry.
fn counter(regs: &[&MetricsRegistry], name: &str) -> f64 {
    regs.iter()
        .map(|m| m.counter(name).unwrap_or(0) as f64)
        .sum()
}

/// Sums (or takes the max of) a gauge's last value over every run.
fn gauge(regs: &[&MetricsRegistry], name: &str, max: bool) -> f64 {
    let vals = regs.iter().map(|m| m.gauge(name).map_or(0.0, |g| g.0));
    if max {
        vals.fold(0.0, f64::max)
    } else {
        vals.sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run_traced(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    let mut notes = Vec::new();
    let built = workload.build(seed, size);
    let threads = workload.threads();
    let start = Instant::now();
    let mut untraced: Vec<Execution> = Vec::new();
    let mut traced: Vec<TracedReport> = Vec::new();
    let mut failed = 0u64;
    let mut digests_equal = true;
    let mut last = Duration::ZERO;
    // Paired executions, alternating which side runs first.
    while keep_going(start, seconds, traced.len(), last) {
        let pair_start = Instant::now();
        let traced_first = traced.len() % 2 == 1;
        let mut t = None;
        if traced_first {
            t = Some(execute_traced_once(&built, threads));
        }
        let u = execute(&built);
        let (t, t_digest) = t.unwrap_or_else(|| execute_traced_once(&built, threads));
        let mut failures = gate(
            &built,
            u.report
                .runs
                .iter()
                .map(|r| (r.label.as_str(), &r.tally, &r.output)),
        );
        failures.extend(gate(
            &built,
            t.runs
                .iter()
                .map(|r| (r.label.as_str(), &r.tally, &r.output)),
        ));
        if let Some(first) = untraced.first() {
            if first.digest != u.digest {
                failures.push(format!(
                    "digest {:016x} differs from the first execution's {:016x}",
                    u.digest.0, first.digest.0
                ));
            }
        } else {
            notes.push(format!(
                "digest {} untraced {:016x} traced {:016x}",
                workload.name(),
                u.digest.0,
                t_digest.0
            ));
        }
        if t_digest != u.digest {
            digests_equal = false;
        }
        if !failures.is_empty() {
            failed += 1;
            notes.extend(failures.into_iter().map(|f| format!("GATE FAIL: {f}")));
        }
        untraced.push(u);
        traced.push(t);
        last = pair_start.elapsed();
    }
    if !digests_equal {
        notes.push(
            "traced and untraced digests differ: the runner changed and the traced \
             executor no longer mirrors it, so the per-layer breakdown is unavailable"
                .to_string(),
        );
    }
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: Option<f64>, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };
    // Span medians over the traced executions.
    let ledgers: Vec<Ledger> = traced.iter().map(TracedReport::ledger).collect();
    let span_median = |f: &dyn Fn(&Ledger) -> f64| -> Option<f64> {
        let v: Vec<f64> = ledgers.iter().map(f).collect();
        digests_equal.then(|| median(&v))
    };
    // Deterministic counts, from the first untraced execution.
    let report = &untraced[0].report;
    let regs: Vec<&MetricsRegistry> = report.runs.iter().map(|r| &r.metrics).collect();
    let completed: f64 = report.runs.iter().map(|r| r.tally.total() as f64).sum();
    let events = gauge(&regs, "tcpsim.events_processed", false);
    let recorded = gauge(&regs, "tcpsim.trace_recorded_pkts", false);
    let timeline_ok = counter(&regs, "capture.timeline_ok");
    let rc_hits = counter(&regs, "cdnsim.fe_result_cache_hits");
    let rc_lookups = rc_hits + counter(&regs, "cdnsim.fe_result_cache_misses");
    let sc_hits = counter(&regs, "cdnsim.fe_static_cache_hits");
    let sc_lookups = sc_hits + counter(&regs, "cdnsim.fe_static_cache_misses");
    let hedge_wins = counter(&regs, "cdnsim.hedge_wins");
    let hedges = counter(&regs, "cdnsim.hedges_launched");
    let run_until = span_median(&|l| secs(l.span(Layer::RunUntil)));
    let extract = span_median(&|l| secs(l.span(Layer::Extract)));
    let extract_pkts = ledgers[0].extract_pkts as f64;

    put("sim.run_until_s", run_until, "s");
    put(
        "sim.ns_per_event",
        run_until.map(|s| ratio(s * 1e9, events)),
        "ns",
    );
    put("tcpsim.events_processed", Some(events), "count");
    put(
        "tcpsim.events_per_query",
        Some(ratio(events, completed)),
        "events/query",
    );
    put("tcpsim.trace_recorded_pkts", Some(recorded), "count");
    put(
        "tcpsim.trace_pkts_per_query",
        Some(ratio(recorded, timeline_ok)),
        "pkts/query",
    );
    put(
        "tcpsim.retransmit_segs",
        Some(counter(&regs, "tcpsim.retransmit_segs")),
        "count",
    );
    put(
        "tcpsim.slab_high_water_slots",
        Some(gauge(&regs, "tcpsim.slab_high_water_slots", true)),
        "count",
    );
    let pending = report
        .runs
        .iter()
        .map(|r| r.stats.peak_pending_events)
        .max()
        .unwrap_or(0);
    put(
        "emulator.pending_events_hiwater",
        Some(pending as f64),
        "count",
    );
    put("capture.extract_s", extract, "s");
    put("capture.extract_pkts", Some(extract_pkts), "count");
    put(
        "capture.extract_ns_per_pkt",
        extract.map(|s| ratio(s * 1e9, extract_pkts)),
        "ns",
    );
    put("capture.completed", Some(completed), "count");
    put("capture.timeline_ok", Some(timeline_ok), "count");
    put(
        "capture.yield",
        Some(ratio(timeline_ok, completed)),
        "ratio",
    );
    for layer in [
        Layer::Params,
        Layer::Reduce,
        Layer::Threshold,
        Layer::Build,
        Layer::Drain,
    ] {
        put(layer.metric(), span_median(&|l| secs(l.span(layer))), "s");
    }
    put("cdnsim.result_cache_hits", Some(rc_hits), "count");
    put("cdnsim.result_cache_lookups", Some(rc_lookups), "count");
    put(
        "cdnsim.result_cache_hit_ratio",
        Some(ratio(rc_hits, rc_lookups)),
        "ratio",
    );
    put("cdnsim.static_cache_hits", Some(sc_hits), "count");
    put("cdnsim.static_cache_lookups", Some(sc_lookups), "count");
    put(
        "cdnsim.static_cache_hit_ratio",
        Some(ratio(sc_hits, sc_lookups)),
        "ratio",
    );
    put("cdnsim.hedge_wins", Some(hedge_wins), "count");
    put("cdnsim.hedges_launched", Some(hedges), "count");
    put(
        "cdnsim.hedge_win_ratio",
        Some(ratio(hedge_wins, hedges)),
        "ratio",
    );
    for name in [
        "cdnsim.shed_queries",
        "cdnsim.remap_events",
        "cdnsim.breaker_opens",
    ] {
        put(name, Some(counter(&regs, name)), "count");
    }
    for layer in [Layer::Schedule, Layer::Feed] {
        put(layer.metric(), span_median(&|l| secs(l.span(layer))), "s");
    }
    let queue_ms: Vec<f64> = untraced
        .iter()
        .map(|u| {
            let r = &u.report.runs;
            r.iter().map(|r| r.stats.queue_ms).sum::<f64>() / r.len() as f64
        })
        .collect();
    let speedup: Vec<f64> = untraced.iter().map(|u| u.report.speedup()).collect();
    put("emulator.queue_wait_ms", Some(median(&queue_ms)), "ms");
    put("emulator.pool_speedup", Some(median(&speedup)), "x");
    let untraced_wall = median(&untraced.iter().map(|u| secs(u.wall)).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|t| secs(t.wall)).collect::<Vec<_>>());
    put("ledger.untraced_wall_s", Some(untraced_wall), "s");
    put("ledger.traced_wall_s", Some(traced_wall), "s");
    put("ledger.run_wall_s", span_median(&|l| secs(l.wall)), "s");
    put("ledger.spans_s", span_median(&|l| secs(l.covered())), "s");
    put(
        "ledger.coverage",
        span_median(&|l| ratio(secs(l.covered()), secs(l.wall))),
        "ratio",
    );
    put(
        "ledger.tracing_overhead",
        Some(traced_wall / untraced_wall - 1.0),
        "ratio",
    );
    // Spans of the median-wall traced execution, written out at the end.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].wall.cmp(&traced[b].wall));
    for r in &traced[order[order.len() / 2]].runs {
        notes.extend(r.ledger.render(&r.label).lines().map(str::to_string));
    }
    notes.push(format!("traced pairs {}", traced.len()));
    Report {
        correct: failed == 0,
        attempted: (untraced.len() + traced.len()) as u64,
        failed,
        metrics,
        notes,
    }
}
