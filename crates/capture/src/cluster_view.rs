//! The Fig. 4 view: temporal clusters of packet events.
//!
//! Fig. 4 plots, per client, the send/receive timeline of a single query
//! and observes three clusters — handshake, static burst, dynamic burst —
//! whose separation collapses as RTT grows. This module renders that
//! view from a session capture: event times relative to `tb`, plus an
//! adaptive gap clustering of the receive events.

use crate::errors::SessionError;
use crate::session::ClientTrace;
use stats::cluster::{adaptive_gap_threshold, gap_clusters, Cluster};
use tcpsim::{Capture, NodeId};

/// One row of the Fig. 4 plot.
#[derive(Clone, Debug)]
pub struct TimelineView {
    /// Handshake RTT estimate in ms.
    pub rtt_ms: f64,
    /// Times (ms since `tb`) of packets sent by the client.
    pub tx_ms: Vec<f64>,
    /// Times (ms since `tb`) of packets received by the client.
    pub rx_ms: Vec<f64>,
    /// Temporal clusters over the received-payload events.
    pub rx_clusters: Vec<Cluster>,
}

impl TimelineView {
    /// Builds the view for one session. Fails with a [`SessionError`]
    /// for malformed sessions (no SYN, no completed handshake).
    pub fn build(capture: &Capture, client: NodeId) -> Result<TimelineView, SessionError> {
        let trace = ClientTrace::new(capture, client)?;
        let tb = trace.tb;
        let rtt_ms = trace.rtt_ms.ok_or(SessionError::NoHandshake)?;
        let rel = |t: simcore::time::SimTime| t.saturating_since(tb).as_millis_f64();
        let tx_ms: Vec<f64> = trace.tx_all.iter().map(|e| rel(e.t)).collect();
        let rx_ms: Vec<f64> = trace.rx_all.iter().map(|e| rel(e.t)).collect();
        let rx_payload: Vec<f64> = trace.rx_data.iter().map(|e| rel(e.t)).collect();
        let rx_clusters = match adaptive_gap_threshold(&rx_payload, 2, 4.0) {
            Some(thr) => gap_clusters(&rx_payload, thr),
            None => {
                if rx_payload.is_empty() {
                    Vec::new()
                } else {
                    gap_clusters(&rx_payload, f64::INFINITY)
                }
            }
        };
        Ok(TimelineView {
            rtt_ms,
            tx_ms,
            rx_ms,
            rx_clusters,
        })
    }

    /// Number of distinct payload clusters — the paper's observable: 2
    /// separated bursts (static, dynamic) at small RTT, 1 merged burst
    /// beyond the threshold.
    pub fn payload_cluster_count(&self) -> usize {
        self.rx_clusters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{capture, ev, Pkt};
    use simcore::time::SimTime;
    use tcpsim::{PktDir, PktKind};

    fn pkt(t_ms: f64, dir: PktDir, kind: PktKind, len: u32) -> Pkt {
        Pkt {
            t: SimTime::from_micros((t_ms * 1000.0) as u64),
            ..ev(0, dir, kind, 0, len, 1, false, vec![])
        }
    }

    fn session(static_at: f64, dynamic_at: f64) -> Capture {
        let mut v = vec![
            pkt(0.0, PktDir::Tx, PktKind::Syn, 0),
            pkt(10.0, PktDir::Rx, PktKind::SynAck, 0),
            pkt(10.0, PktDir::Tx, PktKind::Data, 400),
            pkt(20.0, PktDir::Rx, PktKind::Ack, 0),
        ];
        for i in 0..4 {
            v.push(pkt(
                static_at + i as f64 * 0.2,
                PktDir::Rx,
                PktKind::Data,
                1460,
            ));
        }
        for i in 0..6 {
            v.push(pkt(
                dynamic_at + i as f64 * 0.2,
                PktDir::Rx,
                PktKind::Data,
                1460,
            ));
        }
        capture(NodeId(1), &v)
    }

    #[test]
    fn separated_bursts_give_two_clusters() {
        let view = TimelineView::build(&session(21.0, 150.0), NodeId(1)).unwrap();
        assert_eq!(view.payload_cluster_count(), 2);
        let gap = view.rx_clusters[1].t_first - view.rx_clusters[0].t_last;
        assert!((gap - (150.0 - 21.6)).abs() < 0.5, "gap {gap}");
        assert_eq!(view.rtt_ms, 10.0);
    }

    #[test]
    fn merged_bursts_give_one_cluster() {
        let view = TimelineView::build(&session(21.0, 22.0), NodeId(1)).unwrap();
        assert_eq!(view.payload_cluster_count(), 1);
    }

    #[test]
    fn tx_and_rx_relative_to_tb() {
        let view = TimelineView::build(&session(21.0, 150.0), NodeId(1)).unwrap();
        assert_eq!(view.tx_ms[0], 0.0);
        assert!(view.rx_ms.iter().all(|&t| t >= 0.0));
        assert!(view.tx_ms.len() >= 2);
    }

    #[test]
    fn malformed_returns_typed_error() {
        assert_eq!(
            TimelineView::build(&Capture::default(), NodeId(1)).unwrap_err(),
            SessionError::NoClientSyn
        );
    }
}
