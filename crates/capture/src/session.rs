//! Client-side view of one query session.

use crate::errors::SessionError;
use simcore::time::SimTime;
use tcpsim::{Capture, NodeId, PktDir, PktEvent, PktKind};

/// The packet events of one session as observed at the client, split
/// into transmit and receive sides, with the handshake landmarks
/// extracted. The events are views into the capture they were read
/// from.
#[derive(Clone, Debug)]
pub struct ClientTrace<'a> {
    /// Data-bearing packets received by the client, in time order.
    pub rx_data: Vec<PktEvent<'a>>,
    /// All packets received by the client (ACKs included).
    pub rx_all: Vec<PktEvent<'a>>,
    /// All packets transmitted by the client.
    pub tx_all: Vec<PktEvent<'a>>,
    /// Time the first SYN left (`tb` in the paper's Fig. 2).
    pub tb: SimTime,
    /// Handshake RTT estimate: first SYN-ACK arrival − first SYN
    /// departure (the quantity plotted on every RTT axis in the paper).
    pub rtt_ms: Option<f64>,
}

impl<'a> ClientTrace<'a> {
    /// Filters `capture` down to the events observed at `client`,
    /// requiring at least a transmitted SYN. Fails with
    /// [`SessionError::NoClientSyn`] for traces with no client-side SYN
    /// (capture started mid-session, or the wrong node was named).
    pub fn new(capture: &'a Capture, client: NodeId) -> Result<ClientTrace<'a>, SessionError> {
        let mut rx_data = Vec::new();
        let mut rx_all = Vec::new();
        let mut tx_all = Vec::new();
        for ev in capture {
            if ev.node != client {
                continue;
            }
            match ev.dir {
                PktDir::Rx => {
                    if ev.kind == PktKind::Data && ev.len > 0 {
                        rx_data.push(ev);
                    }
                    rx_all.push(ev);
                }
                PktDir::Tx => tx_all.push(ev),
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
    use crate::testutil::{capture, ev, Pkt};

    fn pkt(t_ms: u64, dir: PktDir, kind: PktKind, seq: u64, len: u32, ack: u64) -> Pkt {
        ev(t_ms, dir, kind, seq, len, ack, false, vec![])
    }

    fn sample_session() -> Capture {
        capture(
            NodeId(1),
            &[
                pkt(0, PktDir::Tx, PktKind::Syn, 0, 0, 0),
                pkt(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0),
                pkt(50, PktDir::Tx, PktKind::Ack, 0, 0, 0),
                pkt(50, PktDir::Tx, PktKind::Data, 0, 400, 0), // GET at t1=50
                pkt(100, PktDir::Rx, PktKind::Ack, 0, 0, 400), // t2=100
                pkt(105, PktDir::Rx, PktKind::Data, 0, 1460, 400),
                pkt(106, PktDir::Rx, PktKind::Data, 1460, 1460, 400),
                pkt(300, PktDir::Rx, PktKind::Data, 2920, 1000, 400), // te=300
            ],
        )
    }

    #[test]
    fn extracts_landmarks() {
        let cap = sample_session();
        let tr = ClientTrace::new(&cap, NodeId(1)).unwrap();
        assert_eq!(tr.tb, SimTime::ZERO);
        assert_eq!(tr.rtt_ms, Some(50.0));
        assert_eq!(tr.tx_all.len(), 3);
        assert_eq!(tr.rx_all.len(), 5);
        assert_eq!(tr.bytes_received(), 1460 + 1460 + 1000);
        assert_eq!(tr.rx_data.len(), 3);
    }

    #[test]
    fn ignores_other_nodes() {
        // Another node's capture holds nothing the client observed.
        let noise = capture(
            NodeId(9),
            &[
                pkt(0, PktDir::Tx, PktKind::Syn, 0, 0, 0),
                pkt(10, PktDir::Tx, PktKind::Data, 0, 99, 0),
            ],
        );
        assert_eq!(
            ClientTrace::new(&noise, NodeId(1)).unwrap_err(),
            SessionError::NoClientSyn
        );
        let cap = sample_session();
        let tr = ClientTrace::new(&cap, NodeId(1)).unwrap();
        assert!(tr.tx_all.iter().all(|e| e.node == NodeId(1)));
    }

    #[test]
    fn error_without_client_syn() {
        let cap = capture(NodeId(2), &[pkt(0, PktDir::Tx, PktKind::Syn, 0, 0, 0)]);
        assert_eq!(
            ClientTrace::new(&cap, NodeId(1)).unwrap_err(),
            SessionError::NoClientSyn
        );
    }

    #[test]
    fn missing_rtt_when_no_synack() {
        let cap = capture(NodeId(1), &[pkt(0, PktDir::Tx, PktKind::Syn, 0, 0, 0)]);
        let tr = ClientTrace::new(&cap, NodeId(1)).unwrap();
        assert_eq!(tr.rtt_ms, None);
        assert!(tr.rx_all.is_empty());
        assert_eq!(tr.bytes_received(), 0);
    }
}
