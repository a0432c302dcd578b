//! Cross-session content analysis.
//!
//! The paper identifies the static portion by diffing payloads across
//! responses to *different* queries: bytes that recur are the HTTP
//! header, HTML head, CSS and static menu bar. In the simulator, payload
//! identity is carried by per-span content ids (equal ids ⇔ equal
//! bytes), so the analysis reduces to: a content id observed in sessions
//! of at least `min_sessions` distinct queries is static.

use std::collections::{HashMap, HashSet};
use tcpsim::{Capture, NodeId, PktDir};

/// Finds the static content ids across a set of sessions.
///
/// `sessions` are the per-query captures (each from a *different*
/// query — using repeats of one query would misfile its dynamic content
/// as static, which is precisely why the paper's probe issues distinct
/// queries), borrowed in place, e.g. from a raw-retaining
/// `CollectSink`'s completions. Only packets received at
/// `client_of(session_index)` are considered. `min_sessions` is the
/// recurrence threshold (≥ 2).
pub fn find_static_content_ids<'a>(
    sessions: impl Iterator<Item = &'a Capture>,
    client_of: impl Fn(usize) -> NodeId,
    min_sessions: usize,
) -> HashSet<u64> {
    assert!(min_sessions >= 2, "recurrence threshold must be ≥ 2");
    let mut seen_in: HashMap<u64, HashSet<usize>> = HashMap::new();
    for (i, capture) in sessions.enumerate() {
        let client = client_of(i);
        for ev in capture {
            if ev.node != client || ev.dir != PktDir::Rx {
                continue;
            }
            for span in ev.meta {
                seen_in.entry(span.content).or_default().insert(i);
            }
        }
    }
    seen_in
        .into_iter()
        .filter(|(_, sessions)| sessions.len() >= min_sessions)
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{capture, ev, span, Pkt};
    use tcpsim::{Marker, PktKind};

    fn rx(content: u64, marker: Marker) -> Pkt {
        let meta = vec![span(0, 100, marker, content)];
        ev(0, PktDir::Rx, PktKind::Data, 0, 100, 0, false, meta)
    }

    /// Node 1's capture of each session.
    fn captures(sessions: &[Vec<Pkt>]) -> Vec<Capture> {
        sessions.iter().map(|s| capture(NodeId(1), s)).collect()
    }

    #[test]
    fn recurring_content_is_static() {
        // 3 sessions, distinct queries: content 1 recurs (static), 100x
        // are per-query (dynamic).
        let sessions = captures(&[
            vec![rx(1, Marker::Static), rx(1001, Marker::Dynamic)],
            vec![rx(1, Marker::Static), rx(1002, Marker::Dynamic)],
            vec![rx(1, Marker::Static), rx(1003, Marker::Dynamic)],
        ]);
        let ids = find_static_content_ids(sessions.iter(), |_| NodeId(1), 2);
        assert!(ids.contains(&1));
        assert!(!ids.contains(&1001));
        assert!(!ids.contains(&1002));
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn works_across_different_clients() {
        let sessions = [
            capture(
                NodeId(1),
                &[rx(5, Marker::Static), rx(2001, Marker::Dynamic)],
            ),
            capture(
                NodeId(2),
                &[rx(5, Marker::Static), rx(2002, Marker::Dynamic)],
            ),
        ];
        let clients = [NodeId(1), NodeId(2)];
        let ids = find_static_content_ids(sessions.iter(), |i| clients[i], 2);
        assert_eq!(ids, HashSet::from([5]));
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let sessions = captures(&[
            vec![rx(7, Marker::Static)],
            vec![rx(7, Marker::Static)],
            vec![rx(8, Marker::Static)],
        ]);
        let loose = find_static_content_ids(sessions.iter(), |_| NodeId(1), 2);
        assert!(loose.contains(&7) && !loose.contains(&8));
        let strict = find_static_content_ids(sessions.iter(), |_| NodeId(1), 3);
        assert!(strict.is_empty());
    }

    #[test]
    fn tx_packets_and_other_nodes_ignored() {
        // Each session's client (node 1) transmits content 9, and node 3
        // receives content 10: neither is received by the client.
        let mut tx = rx(9, Marker::Request);
        tx.dir = PktDir::Tx;
        let mut sessions = Vec::new();
        for _ in 0..2 {
            sessions.push(capture(NodeId(1), &[tx.clone()]));
            sessions.push(capture(NodeId(3), &[rx(10, Marker::Static)]));
        }
        let ids = find_static_content_ids(sessions.iter(), |_| NodeId(1), 2);
        assert!(ids.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_one_rejected() {
        find_static_content_ids(std::iter::empty(), |_| NodeId(1), 1);
    }
}
