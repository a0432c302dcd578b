//! Cross-session content analysis.
//!
//! The paper identifies the static portion by diffing payloads across
//! responses to *different* queries: bytes that recur are the HTTP
//! header, HTML head, CSS and static menu bar. In the simulator, payload
//! identity is carried by per-span content ids (equal ids ⇔ equal
//! bytes), so the analysis reduces to: a content id observed in sessions
//! of at least `min_sessions` distinct queries is static.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use tcpsim::{NodeId, PktDir, PktEvent};

/// Finds the static content ids across a set of sessions.
///
/// `sessions` are the per-query event lists (each from a *different*
/// query — using repeats of one query would misfile its dynamic content
/// as static, which is precisely why the paper's probe issues distinct
/// queries). Only packets received at `client_of(session_index)` are
/// considered. `min_sessions` is the recurrence threshold (≥ 2).
///
/// Each session is anything that yields packet events or references to
/// them (a `&Capture`, a `&Vec<PktEvent>`), so callers holding raw
/// completions — e.g. a raw-retaining `CollectSink` — can hand their
/// captures over without cloning a single packet event.
pub fn find_static_content_ids<S: IntoIterator<Item: Borrow<PktEvent>>>(
    sessions: impl IntoIterator<Item = S>,
    client_of: impl Fn(usize) -> NodeId,
    min_sessions: usize,
) -> HashSet<u64> {
    assert!(min_sessions >= 2, "recurrence threshold must be ≥ 2");
    let mut seen_in: HashMap<u64, HashSet<usize>> = HashMap::new();
    for (i, events) in sessions.into_iter().enumerate() {
        let client = client_of(i);
        for ev in events {
            let ev = ev.borrow();
            if ev.node != client || ev.dir != PktDir::Rx {
                continue;
            }
            for span in &ev.meta {
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
    use simcore::time::SimTime;
    use tcpsim::{ConnId, Marker, MetaSpan, PktKind};

    fn rx(node: u32, content: u64, marker: Marker) -> PktEvent {
        PktEvent {
            t: SimTime::ZERO,
            node: NodeId(node),
            conn: ConnId(0),
            dir: PktDir::Rx,
            kind: PktKind::Data,
            seq: 0,
            len: 100,
            ack: 0,
            push: false,
            meta: vec![MetaSpan {
                offset: 0,
                len: 100,
                marker,
                content,
            }]
            .into(),
        }
    }

    #[test]
    fn recurring_content_is_static() {
        // 3 sessions, distinct queries: content 1 recurs (static), 100x
        // are per-query (dynamic).
        let sessions = vec![
            vec![rx(1, 1, Marker::Static), rx(1, 1001, Marker::Dynamic)],
            vec![rx(1, 1, Marker::Static), rx(1, 1002, Marker::Dynamic)],
            vec![rx(1, 1, Marker::Static), rx(1, 1003, Marker::Dynamic)],
        ];
        let ids = find_static_content_ids(&sessions, |_| NodeId(1), 2);
        assert!(ids.contains(&1));
        assert!(!ids.contains(&1001));
        assert!(!ids.contains(&1002));
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn works_across_different_clients() {
        let sessions = vec![
            vec![rx(1, 5, Marker::Static), rx(1, 2001, Marker::Dynamic)],
            vec![rx(2, 5, Marker::Static), rx(2, 2002, Marker::Dynamic)],
        ];
        let clients = [NodeId(1), NodeId(2)];
        let ids = find_static_content_ids(&sessions, |i| clients[i], 2);
        assert_eq!(ids, HashSet::from([5]));
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let sessions = vec![
            vec![rx(1, 7, Marker::Static)],
            vec![rx(1, 7, Marker::Static)],
            vec![rx(1, 8, Marker::Static)],
        ];
        let loose = find_static_content_ids(&sessions, |_| NodeId(1), 2);
        assert!(loose.contains(&7) && !loose.contains(&8));
        let strict = find_static_content_ids(&sessions, |_| NodeId(1), 3);
        assert!(strict.is_empty());
    }

    #[test]
    fn tx_packets_and_other_nodes_ignored() {
        let mut tx = rx(1, 9, Marker::Request);
        tx.dir = PktDir::Tx;
        let other_node = rx(3, 10, Marker::Static);
        let sessions = vec![vec![tx.clone(), other_node.clone()], vec![tx, other_node]];
        let ids = find_static_content_ids(&sessions, |_| NodeId(1), 2);
        assert!(ids.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_one_rejected() {
        find_static_content_ids(&[] as &[Vec<PktEvent>], |_| NodeId(1), 1);
    }
}
