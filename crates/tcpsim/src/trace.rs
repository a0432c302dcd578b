//! Packet events — the simulator's tcpdump at the client vantage.
//!
//! The paper measures everything from client-side packet traces only.
//! The simulator records the same view: a connection opened with
//! [`Net::open_captured`](crate::Net::open_captured) appends every packet
//! its opener (`End::A`) transmits, receives or loses on the path as a
//! [`PktEvent`] to a buffer held by the connection, and
//! [`Net::take_capture`](crate::Net::take_capture) hands that buffer
//! over when the application is done with the connection. Front-end and
//! back-end observations are never recorded, so recording costs only
//! what the client-side analysis reads.

use crate::net::{ConnId, NodeId};
use crate::segment::{PktKind, Segment, SpanVec};
use simcore::time::SimTime;

/// Direction of a packet event relative to the observing node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PktDir {
    /// The node transmitted this packet.
    Tx,
    /// The node received this packet.
    Rx,
    /// The packet was transmitted by this node but lost on the path.
    Drop,
}

/// One observed packet event.
#[derive(Clone, Debug, PartialEq)]
pub struct PktEvent {
    /// Virtual time of the observation.
    pub t: SimTime,
    /// Observing node.
    pub node: NodeId,
    /// Connection the packet belongs to.
    pub conn: ConnId,
    /// Direction.
    pub dir: PktDir,
    /// Packet kind.
    pub kind: PktKind,
    /// Sequence number.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// Acknowledgement number.
    pub ack: u64,
    /// PSH flag.
    pub push: bool,
    /// Content spans (payload labelling).
    pub meta: SpanVec,
}

impl PktEvent {
    /// The observation of `seg` at `node` on `conn`.
    pub(crate) fn observe(
        t: SimTime,
        node: NodeId,
        conn: ConnId,
        dir: PktDir,
        seg: &Segment,
    ) -> PktEvent {
        PktEvent {
            t,
            node,
            conn,
            dir,
            kind: seg.kind,
            seq: seg.seq,
            len: seg.len,
            ack: seg.ack,
            push: seg.push,
            // For an un-spilled span list this is a bitwise copy, not an
            // allocation.
            meta: seg.meta.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{Marker, MetaSpan};

    #[test]
    fn event_fields_copied_from_segment() {
        let seg = Segment {
            kind: PktKind::Data,
            seq: 0,
            len: 100,
            ack: 5,
            push: true,
            wnd: 1000,
            meta: vec![MetaSpan {
                offset: 0,
                len: 100,
                marker: Marker::Request,
                content: 1,
            }]
            .into(),
        };
        let ev = PktEvent::observe(
            SimTime::from_millis(3),
            NodeId(4),
            ConnId(2),
            PktDir::Drop,
            &seg,
        );
        assert_eq!(ev.t, SimTime::from_millis(3));
        assert_eq!(ev.node, NodeId(4));
        assert_eq!(ev.conn, ConnId(2));
        assert_eq!(ev.dir, PktDir::Drop);
        assert_eq!(ev.kind, PktKind::Data);
        assert_eq!(ev.len, 100);
        assert_eq!(ev.ack, 5);
        assert!(ev.push);
        assert_eq!(ev.meta.len(), 1);
    }
}
