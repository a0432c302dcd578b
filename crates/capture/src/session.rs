//! Client-side view of one query session.

use crate::errors::SessionError;
use simcore::time::SimTime;
use tcpsim::{NodeId, PktDir, PktEvent, PktKind};

/// The packet events of one session as observed at the client, split
/// into transmit and receive sides, with the handshake landmarks
/// extracted.
#[derive(Clone, Debug)]
pub struct ClientTrace {
    /// Data-bearing packets received by the client, in time order.
    pub rx_data: Vec<PktEvent>,
    /// All packets received by the client (ACKs included).
    pub rx_all: Vec<PktEvent>,
    /// All packets transmitted by the client.
    pub tx_all: Vec<PktEvent>,
    /// Time the first SYN left (`tb` in the paper's Fig. 2).
    pub tb: SimTime,
    /// Handshake RTT estimate: first SYN-ACK arrival − first SYN
    /// departure (the quantity plotted on every RTT axis in the paper).
    pub rtt_ms: Option<f64>,
}

impl ClientTrace {
    /// Filters `events` down to those observed at `client`, requiring at
    /// least a transmitted SYN. Fails with
    /// [`SessionError::NoClientSyn`] for traces with no client-side SYN
    /// (capture started mid-session, or the wrong node was named).
    pub fn new(events: &[PktEvent], client: NodeId) -> Result<ClientTrace, SessionError> {
        let mut rx_data = Vec::new();
        let mut rx_all = Vec::new();
        let mut tx_all = Vec::new();
        for ev in events {
            if ev.node != client {
                continue;
            }
            match ev.dir {
                PktDir::Rx => {
                    if ev.kind == PktKind::Data && ev.len > 0 {
                        rx_data.push(ev.clone());
                    }
                    rx_all.push(ev.clone());
                }
                PktDir::Tx => tx_all.push(ev.clone()),
                PktDir::Drop => {}
            }
        }
        let syn = tx_all
            .iter()
            .find(|e| e.kind == PktKind::Syn)
            .ok_or(SessionError::NoClientSyn)?;
        let tb = syn.t;
        let rtt_ms = rx_all
            .iter()
            .find(|e| e.kind == PktKind::SynAck)
            .map(|sa| sa.t.saturating_since(tb).as_millis_f64());
        Ok(ClientTrace {
            rx_data,
            rx_all,
            tx_all,
            tb,
            rtt_ms,
        })
    }

    /// Total payload bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.rx_data.iter().map(|e| e.len as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpsim::{ConnId, SpanVec};

    fn ev(
        t_ms: u64,
        node: u32,
        dir: PktDir,
        kind: PktKind,
        seq: u64,
        len: u32,
        ack: u64,
    ) -> PktEvent {
        PktEvent {
            t: SimTime::from_millis(t_ms),
            node: NodeId(node),
            conn: ConnId(0),
            dir,
            kind,
            seq,
            len,
            ack,
            push: false,
            meta: SpanVec::new(),
        }
    }

    fn sample_session() -> Vec<PktEvent> {
        vec![
            ev(0, 1, PktDir::Tx, PktKind::Syn, 0, 0, 0),
            ev(50, 1, PktDir::Rx, PktKind::SynAck, 0, 0, 0),
            ev(50, 1, PktDir::Tx, PktKind::Ack, 0, 0, 0),
            ev(50, 1, PktDir::Tx, PktKind::Data, 0, 400, 0), // GET at t1=50
            ev(100, 1, PktDir::Rx, PktKind::Ack, 0, 0, 400), // t2=100
            ev(105, 1, PktDir::Rx, PktKind::Data, 0, 1460, 400),
            ev(106, 1, PktDir::Rx, PktKind::Data, 1460, 1460, 400),
            ev(300, 1, PktDir::Rx, PktKind::Data, 2920, 1000, 400), // te=300
            // Noise from other nodes must be ignored:
            ev(10, 9, PktDir::Tx, PktKind::Data, 0, 99, 0),
        ]
    }

    #[test]
    fn extracts_landmarks() {
        let tr = ClientTrace::new(&sample_session(), NodeId(1)).unwrap();
        assert_eq!(tr.tb, SimTime::ZERO);
        assert_eq!(tr.rtt_ms, Some(50.0));
        assert_eq!(tr.tx_all.len(), 3);
        assert_eq!(tr.rx_all.len(), 5);
        assert_eq!(tr.bytes_received(), 1460 + 1460 + 1000);
        assert_eq!(tr.rx_data.len(), 3);
    }

    #[test]
    fn ignores_other_nodes() {
        let tr = ClientTrace::new(&sample_session(), NodeId(1)).unwrap();
        assert!(tr.tx_all.iter().all(|e| e.node == NodeId(1)));
    }

    #[test]
    fn error_without_client_syn() {
        let evs = vec![ev(0, 2, PktDir::Tx, PktKind::Syn, 0, 0, 0)];
        assert_eq!(
            ClientTrace::new(&evs, NodeId(1)).unwrap_err(),
            SessionError::NoClientSyn
        );
    }

    #[test]
    fn missing_rtt_when_no_synack() {
        let evs = vec![ev(0, 1, PktDir::Tx, PktKind::Syn, 0, 0, 0)];
        let tr = ClientTrace::new(&evs, NodeId(1)).unwrap();
        assert_eq!(tr.rtt_ms, None);
        assert!(tr.rx_all.is_empty());
        assert_eq!(tr.bytes_received(), 0);
    }
}
