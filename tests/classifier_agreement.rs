//! Integration: the marker-blind classifiers (content analysis, PSH
//! heuristic) against the ground-truth markers — the reproduction's
//! analogue of the paper cross-validating content analysis with temporal
//! clustering.

use capture::{find_static_content_ids, Classifier, Timeline};
use cdnsim::ServiceWorld;
use fecdn::prelude::*;

/// Collects raw completions for distinct queries from a handful of
/// clients to one fixed FE.
fn raw_sessions(seed: u64) -> Vec<CompletedQuery> {
    let scenario = Scenario::with_size(seed, 16, 300);
    let cfg = ServiceConfig::google_like(seed);
    let mut sim = scenario.build_sim(cfg);
    sim.with(|w, net| {
        let fe = w.default_fe(0);
        let be = w.be_of_fe(fe);
        w.prewarm(net, fe, be, 4);
        for (i, client) in (0..12usize).enumerate() {
            w.schedule_query(
                net,
                SimDuration::from_millis(3_000 + i as u64 * 2_000),
                QuerySpec {
                    client,
                    keyword: (i + 1) as u64, // all distinct
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        }
    });
    run_stream_fed(
        &mut sim,
        &Classifier::ByMarker,
        CollectSink::with_raw(true),
        None,
    )
    .output
    .raw
}

#[test]
fn content_analysis_recovers_exactly_the_static_ids() {
    let raw = raw_sessions(11);
    assert!(raw.len() >= 10);
    let sessions: Vec<Vec<tcpsim::PktEvent>> = raw.iter().map(|cq| cq.trace.clone()).collect();
    let clients: Vec<tcpsim::NodeId> = raw
        .iter()
        .map(|cq| ServiceWorld::client_node(cq.client))
        .collect();
    let static_ids = find_static_content_ids(&sessions, |i| clients[i], 2);
    // Exactly one static content id for the service (the shared page
    // head), and it matches the plan.
    assert_eq!(static_ids.len(), 1, "ids {static_ids:?}");
    assert!(static_ids.contains(&raw[0].plan.static_content));
}

#[test]
fn content_classifier_matches_markers_on_every_session() {
    let raw = raw_sessions(12);
    let sessions: Vec<Vec<tcpsim::PktEvent>> = raw.iter().map(|cq| cq.trace.clone()).collect();
    let clients: Vec<tcpsim::NodeId> = raw
        .iter()
        .map(|cq| ServiceWorld::client_node(cq.client))
        .collect();
    let static_ids = find_static_content_ids(&sessions, |i| clients[i], 2);
    let by_content = Classifier::ByContent(static_ids);
    for (i, cq) in raw.iter().enumerate() {
        let node = clients[i];
        let a = Timeline::extract(&cq.trace, node, &Classifier::ByMarker).unwrap();
        let b = Timeline::extract(&cq.trace, node, &by_content).unwrap();
        assert_eq!(a.t3, b.t3, "session {i}: t3");
        assert_eq!(a.t4, b.t4, "session {i}: t4");
        assert_eq!(a.t5, b.t5, "session {i}: t5");
        assert_eq!(a.static_bytes, b.static_bytes, "session {i}: static bytes");
    }
}

#[test]
fn push_classifier_matches_markers_when_bursts_are_separated() {
    // At small RTT the static chunk ends with a PSH well before the
    // dynamic burst; the PSH heuristic then finds the same boundary.
    let raw = raw_sessions(13);
    let mut compared = 0;
    for cq in &raw {
        let node = ServiceWorld::client_node(cq.client);
        let by_marker = Timeline::extract(&cq.trace, node, &Classifier::ByMarker).unwrap();
        // Only meaningful when portions do not coalesce.
        if by_marker.t_delta_ms() < 5.0 {
            continue;
        }
        let by_push = Timeline::extract(&cq.trace, node, &Classifier::ByPush).unwrap();
        assert_eq!(by_marker.t4, by_push.t4);
        assert_eq!(by_marker.t5, by_push.t5);
        compared += 1;
    }
    // Many vantages sit beyond the threshold (merged bursts), so only a
    // minority of sessions qualify for this comparison.
    assert!(compared >= 3, "only {compared} separated sessions");
}

#[test]
fn static_bytes_are_stable_across_queries_and_clients() {
    // Footnote 2 / Sec. 3: the static portion is the same for every
    // query. The classifier-independent observable: static byte counts
    // agree across all sessions.
    let raw = raw_sessions(14);
    let mut sizes: Vec<u64> = raw
        .iter()
        .map(|cq| {
            let node = ServiceWorld::client_node(cq.client);
            Timeline::extract(&cq.trace, node, &Classifier::ByMarker)
                .unwrap()
                .static_bytes
        })
        .collect();
    sizes.dedup();
    assert_eq!(sizes.len(), 1, "static sizes varied: {sizes:?}");
    assert_eq!(sizes[0], raw[0].plan.static_bytes);
}
