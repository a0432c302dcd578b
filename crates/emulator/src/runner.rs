//! Simulation driving and per-query processing.

use crate::sessions::SessionFeeder;
use crate::sink::{observe_outcome, QuerySink};
use capture::{Classifier, Timeline, TimelineError};
use cdnsim::{CompletedQuery, QueryOutcome, ServiceWorld};
use inference::{QueryParams, SessionTally};
use searchbe::keywords::KeywordClass;
use simcore::span;
use simcore::telemetry::MetricsRegistry;
use tcpsim::Sim;

/// One fully processed query: measurement-side parameters plus simulator
/// ground truth, with the raw packet trace already discarded.
#[derive(Clone, Debug)]
pub struct ProcessedQuery {
    /// Query id.
    pub qid: u64,
    /// Issuing client.
    pub client: usize,
    /// Serving FE (`None` without split TCP).
    pub fe: Option<usize>,
    /// Serving BE.
    pub be: usize,
    /// Keyword id.
    pub keyword: u64,
    /// Keyword class.
    pub class: KeywordClass,
    /// When the query started (ms of virtual time).
    pub t_start_ms: f64,
    /// The measured parameters (from the client-side timeline).
    pub params: QueryParams,
    /// Nominal client↔server RTT from the path model, ms (the
    /// measurement-side estimate lives in `params.rtt_ms`).
    pub rtt_nominal_ms: f64,
    /// Nominal FE↔BE RTT, ms.
    pub rtt_fe_be_ms: f64,
    /// FE↔BE distance, miles.
    pub dist_fe_be_miles: f64,
    /// Ground truth: BE processing time, ms.
    pub proc_ms: f64,
    /// Ground truth: FE request overhead, ms.
    pub fe_overhead_ms: f64,
    /// Ground truth: fetch interval, ms (None on FE cache hits or
    /// without split TCP).
    pub true_fetch_ms: Option<f64>,
    /// How the query ended (clean, degraded, retried, timed out).
    pub outcome: QueryOutcome,
}

/// Converts a completed query into a processed record by extracting its
/// client-side timeline with `classifier`. Fails with the extraction
/// error for sessions the classifier cannot decompose — callers decide
/// whether to skip-and-count or propagate.
pub fn process(
    cq: &CompletedQuery,
    classifier: &Classifier,
) -> Result<ProcessedQuery, TimelineError> {
    if !cq.traced {
        return Err(TimelineError::TracingDisabled);
    }
    let client_node = ServiceWorld::client_node(cq.client);
    let tl = Timeline::extract(&cq.trace, client_node, classifier)?;
    Ok(ProcessedQuery {
        qid: cq.qid,
        client: cq.client,
        fe: cq.fe,
        be: cq.be,
        keyword: cq.keyword,
        class: cq.class,
        t_start_ms: cq.t_start.as_millis_f64(),
        params: QueryParams::from_timeline(&tl),
        rtt_nominal_ms: cq.rtt_client_fe_ms,
        rtt_fe_be_ms: cq.rtt_fe_be_ms,
        dist_fe_be_miles: cq.dist_fe_be_miles,
        proc_ms: cq.proc_ms,
        fe_overhead_ms: cq.fe_overhead_ms,
        true_fetch_ms: cq.true_fetch_ms(),
        outcome: cq.outcome,
    })
}

/// What [`run_stream_fed`] produces next to the sink's own output.
#[derive(Clone, Debug)]
pub struct StreamRun<R> {
    /// The sink's reduction.
    pub output: R,
    /// Outcome and skip accounting for the run.
    pub tally: SessionTally,
    /// Largest [`QuerySink::retained_bytes`] observed across drain
    /// chunks — the memory the sink actually held onto at its peak.
    pub peak_retained_bytes: usize,
    /// High-water mark of the simulator's pending-event count, sampled
    /// after every drain step of a fed run (0 unfed) — the session-slab
    /// memory proxy: with a [`SessionFeeder`] this tracks O(live
    /// sessions), not O(total queries).
    pub peak_pending_events: usize,
    /// The run's telemetry: the transport (`tcpsim.*`) and service
    /// (`cdnsim.*`) registries harvested at quiescence, merged with the
    /// runner's own classification counters (`capture.*`) and gauges
    /// (`emulator.*`).
    pub metrics: MetricsRegistry,
}

/// Drives the simulation to quiescence in time chunks and folds every
/// completion into `sink` within one simulated second of its finishing —
/// no `Vec<ProcessedQuery>` buffer, no trace clone. Sessions whose
/// timeline cannot be extracted are skipped and counted in the tally.
/// Raw completions are moved into the sink only when it
/// [`wants_raw`](QuerySink::wants_raw); otherwise each trace is dropped
/// as soon as its timeline is extracted.
///
/// With a [`SessionFeeder`], sessions are materialised one 60 s chunk
/// ahead of the simulation clock, and their starts wait in the world's
/// start book, so the event queue holds only live work — the footprint
/// of a 10^6-session campaign is that of its busiest chunk, not of the
/// whole schedule. Without one (`None`), the world runs whatever was
/// scheduled into it up front.
///
/// Inside a chunk the simulation runs to deadlines one simulated second
/// apart, jumping over empty seconds to the next pending event, and
/// completions drain after each. `run_until(d1)` then `run_until(d2)`
/// pops exactly the events `run_until(d2)` would, in the same order, so
/// the drain cadence cannot change the simulation.
pub fn run_stream_fed<S: QuerySink>(
    sim: &mut Sim<ServiceWorld>,
    classifier: &Classifier,
    mut sink: S,
    mut feeder: Option<&mut SessionFeeder>,
) -> StreamRun<S::Output> {
    let chunk = simcore::time::SimDuration::from_secs(60);
    let second = simcore::time::SimDuration::from_secs(1);
    let mut tally = SessionTally::default();
    let mut processed = 0;
    let mut peak = 0;
    let mut peak_pending = 0;
    let mut peak_batch = 0;
    // The runner's own registry inherits the gate of the simulator it
    // drives, so a per-run override set on the Net covers the whole
    // metrics document.
    let mut metrics = MetricsRegistry::with_enabled(sim.net().metrics().is_enabled());
    span!(
        metrics,
        "runner.drive_wall_ms",
        loop {
            // Chunked stepping with a skip: `run_until` leaves `now` at
            // the last processed event, so if the earliest pending
            // event lies beyond the chunk (a hedge timer, fault window,
            // or a session arriving after a lull), fixed-size chunks
            // would never reach it and this loop would spin forever.
            let mut deadline = sim.net().now() + chunk;
            let mut next_signal = sim.net().next_event_time();
            if let Some(f) = feeder.as_deref() {
                next_signal = match (next_signal, f.next_start()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            if let Some(t) = next_signal {
                if t > deadline {
                    deadline = t;
                }
            }
            // Materialise this chunk's sessions before driving it. The
            // feeder's draw order depends only on session order, never
            // on chunk boundaries, so the schedule is byte-identical at
            // any thread count or chunk size.
            if let Some(f) = feeder.as_deref_mut() {
                f.feed(sim, deadline);
            }
            loop {
                let step = match sim.net().next_event_time() {
                    Some(t) if t <= deadline => t + second.min(deadline.saturating_since(t)),
                    _ => deadline,
                };
                sim.run_until(step);
                // Fed starts wait in the world's start book, so the
                // queue is at its fullest inside a chunk, not right
                // after a feed.
                if feeder.is_some() {
                    peak_pending = peak_pending.max(sim.net().pending_events());
                }
                let done = sim.with(|w, _| w.drain_completed());
                peak_batch = peak_batch.max(done.len());
                for cq in done {
                    observe_outcome(&mut tally, cq.outcome);
                    let pq = match process(&cq, classifier) {
                        Ok(pq) => {
                            metrics.inc("capture.timeline_ok");
                            Some(pq)
                        }
                        Err(e) => {
                            metrics.inc(e.metric_name());
                            None
                        }
                    };
                    if sink.wants_raw() {
                        sink.on_raw(cq);
                    }
                    if let Some(pq) = pq {
                        sink.on_query(&pq);
                        processed += 1;
                    }
                }
                if step == deadline {
                    break;
                }
            }
            peak = peak.max(sink.retained_bytes());
            if sim.net().pending_events() == 0 && feeder.as_deref().is_none_or(|f| f.exhausted()) {
                break;
            }
        }
    );
    tally.skipped = tally.total() - processed;
    // Sink memory is a deterministic gauge: buffer growth depends only
    // on the simulated completion stream.
    metrics.set_gauge("emulator.sink_retained_bytes", peak as f64);
    // Most completions one drain handed over: bounded by the completion
    // rate over one simulated second, not by the run's length.
    metrics.set_gauge("emulator.drain_batch_hiwater", peak_batch as f64);
    if feeder.is_some() {
        // Only meaningful (and only emitted) in fed mode, so unfed
        // metrics documents are unchanged.
        metrics.set_gauge("emulator.pending_events_hiwater", peak_pending as f64);
    }
    let net_metrics = sim.net().take_metrics();
    metrics.merge(&net_metrics);
    let world_metrics = sim.with(|w, _| w.take_metrics());
    metrics.merge(&world_metrics);
    StreamRun {
        output: sink.finish(),
        tally,
        peak_retained_bytes: peak,
        peak_pending_events: peak_pending,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use crate::sink::CollectSink;
    use cdnsim::QuerySpec;
    use simcore::time::{SimDuration, SimTime};

    #[test]
    fn processed_queries_carry_consistent_params() {
        let s = Scenario::small(5);
        let mut sim = s.google_sim();
        for c in 0..5 {
            sim.with(|w, net| {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + c as u64 * 500),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            });
        }
        let out = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None)
            .output
            .queries;
        assert_eq!(out.len(), 5);
        for pq in &out {
            assert!(pq.params.is_consistent(0.5), "{:?}", pq.params);
            // The handshake RTT estimate should track the nominal path
            // RTT (jitter allows small deviation).
            assert!(
                (pq.params.rtt_ms - pq.rtt_nominal_ms).abs() < 8.0,
                "est {} vs nominal {}",
                pq.params.rtt_ms,
                pq.rtt_nominal_ms
            );
            // The fetch bracket must contain the true fetch time.
            let bounds = inference::FetchBounds::from_params(&pq.params);
            let truth = pq.true_fetch_ms.unwrap();
            assert!(
                bounds.contains(truth, 12.0),
                "bracket [{}, {}] vs truth {}",
                bounds.lower_ms,
                bounds.upper_ms,
                truth
            );
        }
    }

    #[test]
    fn raw_sink_sees_traces() {
        let s = Scenario::small(6);
        let mut sim = s.bing_sim();
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 1,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        let out = run_stream_fed(
            &mut sim,
            &Classifier::ByMarker,
            CollectSink::with_raw(true),
            None,
        )
        .output;
        assert_eq!(out.raw.len(), 1);
        assert!(!out.raw[0].trace.is_empty());
        assert_eq!(out.queries.len(), 1);
    }

    #[test]
    fn tally_counts_degraded_sessions_as_skipped() {
        // Every BE site dark for the whole run: all queries degrade, and
        // their stub responses carry no dynamic content, so timeline
        // extraction must skip them — visibly, in the tally.
        let s = Scenario::small(8);
        let mut plan = nettopo::FaultPlan::default();
        for be in 0..64 {
            plan = plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(600_000));
        }
        let cfg = cdnsim::ServiceConfig::google_like(8)
            .with_faults(plan)
            .with_fe_fetch_deadline(SimDuration::from_millis(800));
        let mut sim = s.build_sim(cfg);
        for c in 0..4 {
            sim.with(|w, net| {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + c as u64 * 300),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            });
        }
        let run = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None);
        let (out, tally) = (run.output.queries, run.tally);
        assert_eq!(tally.degraded, 4);
        assert_eq!(tally.total(), 4);
        assert_eq!(tally.skipped, 4, "degraded stubs must not be inferable");
        assert!(out.is_empty());
        assert_eq!(tally.usable_fraction(), 0.0);
    }

    #[test]
    fn untraced_queries_yield_a_typed_error_not_an_empty_timeline() {
        // A query that never opened a client connection has no capture,
        // which is not a session with no packets: processing must fail
        // with the dedicated variant (and the tally must count the query
        // as skipped), never succeed against a vacuously empty trace. A
        // health-aware mapping with every FE dark fails the query before
        // any connection opens.
        let s = Scenario::small(4);
        let base = cdnsim::ServiceConfig::google_like(4);
        let n_fes = s.build_sim(base.clone()).with(|w, _| w.fe_count());
        let mut all_dark = nettopo::FaultPlan::default();
        for fe in 0..n_fes {
            all_dark = all_dark.fe_outage(fe, SimTime::ZERO, SimTime::from_secs(600));
        }
        let mut sim = s.build_sim(
            base.with_mapping(cdnsim::MappingPolicy::DnsGeoTtl(Default::default()))
                .with_faults(all_dark),
        );
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 1,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        let run = run_stream_fed(
            &mut sim,
            &Classifier::ByMarker,
            CollectSink::with_raw(true),
            None,
        );
        let raw = run.output.raw;
        assert!(run.output.queries.is_empty());
        assert_eq!(run.tally.skipped, 1);
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].outcome, QueryOutcome::NoLiveFe { attempts: 1 });
        assert!(!raw[0].traced);
        assert!(raw[0].trace.is_empty());
        assert_eq!(
            process(&raw[0], &Classifier::ByMarker).unwrap_err(),
            TimelineError::TracingDisabled
        );
    }

    #[test]
    fn tally_is_clean_without_faults() {
        let s = Scenario::small(9);
        let mut sim = s.google_sim();
        for c in 0..3 {
            sim.with(|w, net| {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + c as u64 * 400),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            });
        }
        let run = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None);
        let (out, tally) = (run.output.queries, run.tally);
        assert_eq!(out.len(), 3);
        assert_eq!(tally.ok, 3);
        assert_eq!(tally.skipped, 0);
        assert_eq!(tally.usable_fraction(), 1.0);
        assert!(out.iter().all(|pq| pq.outcome == QueryOutcome::Ok));
    }

    #[test]
    fn long_campaign_runs_in_bounded_memory() {
        // 3 clients × 20 repeats across 200 virtual seconds; the runner
        // must drain between chunks (we can't observe memory directly,
        // but we verify all queries complete across many chunks).
        let s = Scenario::small(7);
        let mut sim = s.google_sim();
        for c in 0..3 {
            for r in 0..20u64 {
                sim.with(|w, net| {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1 + r * 10_000 + c as u64 * 100),
                        QuerySpec {
                            client: c,
                            keyword: r,
                            fixed_fe: None,
                            instant_followup: false,
                        },
                    );
                });
            }
        }
        let run = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None);
        assert_eq!(run.output.queries.len(), 60);
    }
}
