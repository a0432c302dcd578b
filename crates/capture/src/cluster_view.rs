//! The Fig. 4 view: temporal clusters of packet events.
//!
//! Fig. 4 plots, per client, the send/receive timeline of a single query
//! and observes three clusters — handshake, static burst, dynamic burst —
//! whose separation collapses as RTT grows. This module renders that
//! view from a session trace: event times relative to `tb`, plus an
//! adaptive gap clustering of the receive events.

use crate::errors::SessionError;
use crate::session::ClientTrace;
use stats::cluster::{adaptive_gap_threshold, gap_clusters, Cluster};
use tcpsim::{NodeId, PktEvent};

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
    pub fn build(events: &[PktEvent], client: NodeId) -> Result<TimelineView, SessionError> {
        let trace = ClientTrace::new(events, client)?;
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

    /// The gap in ms between the first and second payload clusters
    /// (visual `Tdelta`), when two or more clusters exist.
    pub fn first_gap_ms(&self) -> Option<f64> {
        if self.rx_clusters.len() < 2 {
            return None;
        }
        Some(self.rx_clusters[1].t_first - self.rx_clusters[0].t_last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use tcpsim::{ConnId, PktDir, PktKind, SpanVec};

    fn ev(t_ms: f64, dir: PktDir, kind: PktKind, len: u32) -> PktEvent {
        PktEvent {
            t: SimTime::from_micros((t_ms * 1000.0) as u64),
            node: NodeId(1),
            conn: ConnId(0),
            dir,
            kind,
            seq: 0,
            len,
            ack: 1,
            push: false,
            meta: SpanVec::new(),
        }
    }

    fn session(static_at: f64, dynamic_at: f64) -> Vec<PktEvent> {
        let mut v = vec![
            ev(0.0, PktDir::Tx, PktKind::Syn, 0),
            ev(10.0, PktDir::Rx, PktKind::SynAck, 0),
            ev(10.0, PktDir::Tx, PktKind::Data, 400),
            ev(20.0, PktDir::Rx, PktKind::Ack, 0),
        ];
        for i in 0..4 {
            v.push(ev(
                static_at + i as f64 * 0.2,
                PktDir::Rx,
                PktKind::Data,
                1460,
            ));
        }
        for i in 0..6 {
            v.push(ev(
                dynamic_at + i as f64 * 0.2,
                PktDir::Rx,
                PktKind::Data,
                1460,
            ));
        }
        v
    }

    #[test]
    fn separated_bursts_give_two_clusters() {
        let view = TimelineView::build(&session(21.0, 150.0), NodeId(1)).unwrap();
        assert_eq!(view.payload_cluster_count(), 2);
        let gap = view.first_gap_ms().unwrap();
        assert!((gap - (150.0 - 21.6)).abs() < 0.5, "gap {gap}");
        assert_eq!(view.rtt_ms, 10.0);
    }

    #[test]
    fn merged_bursts_give_one_cluster() {
        let view = TimelineView::build(&session(21.0, 22.0), NodeId(1)).unwrap();
        assert_eq!(view.payload_cluster_count(), 1);
        assert!(view.first_gap_ms().is_none());
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
            TimelineView::build(&[], NodeId(1)).unwrap_err(),
            SessionError::NoClientSyn
        );
    }
}
