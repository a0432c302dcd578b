//! Client-vantage capture conformance.
//!
//! 1. **Accounting** — the world captures only each query's client
//!    connection and hands every capture over when the attempt ends, so
//!    the run's `tcpsim.trace_recorded_pkts` gauge equals the packets
//!    its completions carry: no packet is recorded for nobody.
//! 2. **One-pass extraction** — `Timeline::extract` folds the client's
//!    events in one pass. On lossy campaigns that truncate, shed and
//!    retransmit, it returns bit-for-bit what the filter-then-scan
//!    reference below returns, under every classifier.

use capture::{
    find_static_content_ids, Classifier, ClientTrace, SessionError, Timeline, TimelineError,
};
use cdnsim::{CompletedQuery, QueryOutcome, QuerySpec, RetryPolicy, ServiceConfig, ServiceWorld};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, CollectSink, Design, Scenario, SessionWorkload};
use nettopo::{BurstLossParams, FaultPlan};
use simcore::time::{SimDuration, SimTime};
use std::collections::HashSet;
use tcpsim::{Marker, NodeId, PktEvent, PktKind};

// ---------- 1. accounting ----------

/// Runs `c` with raw retention and checks, per run, that the recorded
/// gauge equals the captured packets handed over in completions.
fn assert_every_recorded_packet_is_handed_over(c: &Campaign) {
    let report = c.execute_stream_with_threads(&|_| CollectSink::with_raw(true), 2);
    for run in &report.runs {
        let handed_over: usize = run.output.raw.iter().map(|cq| cq.trace.len()).sum();
        let (recorded, _) = run
            .metrics
            .gauge("tcpsim.trace_recorded_pkts")
            .expect("telemetry is on");
        assert!(handed_over > 0, "{}: nothing captured", run.label);
        assert_eq!(
            recorded, handed_over as f64,
            "{}: recorded packets that reached no query",
            run.label
        );
    }
}

#[test]
fn dataset_b_hands_every_recorded_packet_to_its_query() {
    let mut c = Campaign::new(Scenario::with_size(7, 12, 200));
    for (label, cfg) in [
        ("bing-like", ServiceConfig::bing_like(7)),
        ("google-like", ServiceConfig::google_like(7)),
    ] {
        c.push(
            label,
            cfg,
            Design::DatasetB(DatasetB::against(0).with_repeats(2)),
        )
        .metrics = Some(true);
    }
    assert_every_recorded_packet_is_handed_over(&c);
}

#[test]
fn pooled_sessions_under_a_retry_policy_hand_every_recorded_packet_over() {
    // Think-time sessions through pooled FE↔BE connections, every query
    // with an armed client deadline: each completion is followed by the
    // client's FIN exchange and by trailing ACKs on the pooled
    // connection, none of which may be recorded for nobody. (An attempt
    // abandoned for a retry is dropped by the world with its capture, so
    // the deadline here is long enough that every first attempt ends.)
    let seed = 11;
    let cfg = ServiceConfig::google_like(seed).with_client_retry(RetryPolicy {
        deadline: SimDuration::from_secs(30),
        max_retries: 2,
        base_backoff: SimDuration::from_millis(300),
        jitter: 0.3,
    });
    let sessions = SessionWorkload::new(40)
        .with_queries_per_session(3)
        .with_think(SimDuration::from_millis(500))
        .with_mean_gap(SimDuration::from_millis(50));
    let mut c = Campaign::new(Scenario::with_size(seed, 12, 200));
    c.push("sessions/pooled", cfg, Design::Sessions(sessions))
        .metrics = Some(true);
    let report = c.execute_stream_with_threads(&|_| CollectSink::with_raw(true), 1);
    let raw = &report.output("sessions/pooled").raw;
    assert_eq!(raw.len(), 120);
    assert!(raw.iter().all(|cq| cq.outcome == QueryOutcome::Ok));
    assert_every_recorded_packet_is_handed_over(&c);
}

// ---------- 2. one-pass extraction vs. the reference ----------

/// The filter-then-scan extraction the one-pass fold replaced, kept as
/// the reference: split the client's events into copies, then find each
/// landmark with its own scan.
fn reference_extract(
    events: &[PktEvent],
    client: NodeId,
    classifier: &Classifier,
) -> Result<Timeline, TimelineError> {
    let trace = ClientTrace::new(events, client)?;
    let tb = trace.tb;
    let rtt_ms = trace.rtt_ms.ok_or(SessionError::NoHandshake)?;
    let t1 = trace
        .tx_all
        .iter()
        .find(|e| e.kind == PktKind::Data && e.len > 0)
        .map(|e| e.t)
        .ok_or(TimelineError::NoRequest)?;
    // t2: the first arrival, from t1 on, acknowledging the whole request
    // stream as the client finally sent it.
    let request_end = trace
        .tx_all
        .iter()
        .filter(|e| e.kind == PktKind::Data)
        .map(|e| e.seq + e.len as u64)
        .max()
        .unwrap_or(0);
    let t2 = (request_end > 0)
        .then(|| {
            trace
                .rx_all
                .iter()
                .find(|e| e.t >= t1 && e.ack >= request_end)
                .map(|e| e.t)
        })
        .flatten()
        .ok_or(TimelineError::Truncated)?;
    let te = trace
        .rx_data
        .last()
        .map(|e| e.t)
        .ok_or(TimelineError::Truncated)?;
    let mut seen = HashSet::new();
    let dup = trace
        .rx_data
        .iter()
        .filter(|e| !seen.insert((e.seq, e.len)))
        .count();
    if dup > trace.rx_data.len() / 2 {
        return Err(TimelineError::RetransmissionHeavy);
    }
    if trace
        .rx_data
        .iter()
        .all(|e| !e.meta.is_empty() && e.meta.iter().all(|m| m.marker == Marker::Error))
    {
        return Err(TimelineError::ErrorStubOnly);
    }
    let (mut t3, mut t4, mut t5) = (None, None, None);
    let (mut static_bytes, mut total_bytes) = (0u64, 0u64);
    let mut before_first_push_end = true;
    for ev in &trace.rx_data {
        total_bytes += ev.len as u64;
        let class = classifier.classify(ev, before_first_push_end);
        static_bytes += classifier.static_bytes(ev, before_first_push_end);
        if class.has_static {
            t3 = t3.or(Some(ev.t));
            t4 = Some(ev.t);
        }
        if class.has_dynamic {
            t5 = t5.or(Some(ev.t));
        }
        if ev.push {
            before_first_push_end = false;
        }
    }
    Ok(Timeline {
        tb,
        t1,
        t2,
        t3: t3.ok_or(TimelineError::NoStatic)?,
        t4: t4.ok_or(TimelineError::NoStatic)?,
        t5: t5.ok_or(TimelineError::NoDynamic)?,
        te,
        rtt_ms,
        static_bytes,
        total_bytes,
    })
}

/// Every field of an extraction result as raw bits, so equality is
/// bit-for-bit (the RTT included).
fn bits(r: &Result<Timeline, TimelineError>) -> Result<[u64; 10], TimelineError> {
    r.map(|tl| {
        [
            tl.tb.as_nanos(),
            tl.t1.as_nanos(),
            tl.t2.as_nanos(),
            tl.t3.as_nanos(),
            tl.t4.as_nanos(),
            tl.t5.as_nanos(),
            tl.te.as_nanos(),
            tl.rtt_ms.to_bits(),
            tl.static_bytes,
            tl.total_bytes,
        ]
    })
}

/// Queries that fire at t = 1 ms and t = 1.5 s, half pinned to client
/// 0's default FE, so admission control sees bursts it must shed.
fn burst_design(n: usize) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let fe = w.default_fe(0);
            for client in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + (client as u64 % 2) * 1_500),
                    QuerySpec {
                        client,
                        keyword: client as u64,
                        fixed_fe: if client % 2 == 0 { Some(fe) } else { None },
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

/// A lossy, overloaded campaign: heavy burst loss on every path a
/// client uses, client deadlines with one retry, and an admission
/// watermark of 1. Loss this heavy is what makes retransmitted copies
/// outnumber fresh payload in a few captures.
fn lossy_campaign(seed: u64, clients: usize) -> Campaign {
    let scenario = Scenario::with_size(seed, clients, 120);
    let heavy = BurstLossParams {
        p_enter: 0.4,
        p_exit: 0.3,
        bad_loss: 0.7,
    };
    let mut c = Campaign::new(scenario);
    for (label, base) in [
        ("google-like", ServiceConfig::google_like(seed)),
        ("bing-like", ServiceConfig::bing_like(seed)),
    ] {
        // Every path a query can take: the client's default FE, and the
        // FE the pinned half of the burst shares.
        let paths = c.scenario().build_sim(base.clone()).with(|w, _| {
            let shared = w.default_fe(0);
            (0..clients)
                .flat_map(|client| {
                    let own = w.default_fe(client);
                    let pinned = (own != shared).then_some((client, shared));
                    [Some((client, own)), pinned].into_iter().flatten()
                })
                .collect::<Vec<_>>()
        });
        let mut plan = FaultPlan::new();
        for (client, fe) in paths {
            plan = plan.client_burst_loss(client, fe, SimTime::ZERO, SimTime::from_secs(60), heavy);
        }
        let cfg = base
            .with_faults(plan)
            .with_admission_control(1)
            .with_client_retry(RetryPolicy {
                deadline: SimDuration::from_millis(8_000),
                max_retries: 1,
                base_backoff: SimDuration::from_millis(200),
                jitter: 0.3,
            });
        c.push(label, cfg, burst_design(clients));
    }
    c
}

#[test]
fn one_pass_extraction_matches_the_reference_under_loss_and_shedding() {
    let clients = 16;
    let mut raw: Vec<CompletedQuery> = Vec::new();
    for seed in 1..=24 {
        let report = lossy_campaign(seed, clients)
            .execute_stream_with_threads(&|_| CollectSink::with_raw(true), 2);
        for run in report.runs {
            raw.extend(run.output.raw);
        }
    }
    assert!(raw.iter().all(|cq| cq.traced));
    let client_of = |cq: &CompletedQuery| ServiceWorld::client_node(cq.client);
    let traces: Vec<&[PktEvent]> = raw.iter().map(|cq| cq.trace.as_slice()).collect();
    let static_ids = find_static_content_ids(&traces, |i| client_of(&raw[i]), 2);
    let mut seen_errors = HashSet::new();
    let mut ok = 0;
    for classifier in [
        Classifier::ByMarker,
        Classifier::ByPush,
        Classifier::ByContent(static_ids),
    ] {
        for cq in &raw {
            let fast = Timeline::extract(&cq.trace, client_of(cq), &classifier);
            let reference = reference_extract(&cq.trace, client_of(cq), &classifier);
            assert_eq!(
                bits(&fast),
                bits(&reference),
                "query {} ({:?}) under {:?}",
                cq.qid,
                cq.outcome,
                classifier
            );
            match fast {
                Ok(_) => ok += 1,
                Err(e) => {
                    seen_errors.insert(e.metric_name());
                }
            }
        }
    }
    assert!(ok > 0, "no query produced a timeline");
    for e in [
        TimelineError::Truncated,
        TimelineError::ErrorStubOnly,
        TimelineError::RetransmissionHeavy,
    ] {
        assert!(
            seen_errors.contains(e.metric_name()),
            "the campaign never produced {e:?}; saw {seen_errors:?}"
        );
    }
}
