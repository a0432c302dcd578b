//! TCP segments and application-layer content markers.
//!
//! Sequence numbers are absolute byte offsets into the application stream
//! (no ISN, no wrap): the simulator does not need wrap-around arithmetic
//! and absolute offsets make traces self-describing. SYN and FIN are
//! carried as segment kinds; a FIN consumes one virtual sequence number
//! (`stream_len`), so "everything including the FIN was acknowledged"
//! is `ack == stream_len + 1` as in real TCP.

/// Application-layer classification of a byte range — the simulator's
/// stand-in for packet payload content.
///
/// Every data segment carries the markers of its bytes, but only a
/// client capture records them: the receiving application is told how
/// many bytes arrived, not what they were, and FE↔BE legs are never
/// captured. The ground-truth markers let tests validate the *inference*
/// pipeline, which must work them out from timing and cross-query
/// content comparison alone, exactly as the paper does with tcpdump
/// payloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Marker {
    /// An HTTP request (client → FE, or FE → BE query).
    Request,
    /// The static portion of a response: HTTP header, HTML head, CSS,
    /// static menu bar — identical across queries, cached at the FE.
    Static,
    /// The dynamic portion: keyword-dependent results and ads, generated
    /// at the BE.
    Dynamic,
    /// A degraded-service error marker: the FE could not reach any
    /// back-end before its fetch deadline and served an error stub in
    /// place of the dynamic portion.
    Error,
    /// Anything else (background traffic, probes). Also the `Default`,
    /// so empty [`SpanVec`] inline slots are inert.
    #[default]
    Other,
}

/// A labelled byte range within a segment: `len` bytes starting at
/// absolute stream offset `offset`, carrying `marker`ed content with
/// content identity `content`.
///
/// `content` models "the bytes themselves": two ranges with equal
/// `content` ids carry identical bytes. The static portion of every
/// response to the same service reuses one content id; dynamic portions
/// get per-query ids. The content-analysis classifier in `capture`
/// compares these ids across sessions, which is the simulator analogue of
/// diffing HTTP payloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaSpan {
    /// Absolute stream offset of the first byte.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// Content class.
    pub marker: Marker,
    /// Content identity (equal ids ⇔ equal bytes).
    pub content: u64,
}

/// The span list attached to segments: inline storage for two spans,
/// heap spill beyond.
///
/// A segment either sits inside one application chunk (1 span) or
/// straddles one chunk boundary (2 spans); more only happens when an MSS
/// covers several tiny chunks. Sizing the inline capacity for the common
/// case makes segment construction, trace recording and delivery
/// allocation-free — the core of the `bench_tcpsim` hot-path win.
pub type SpanVec = simcore::smallvec::SmallVec<MetaSpan, 2>;

/// Kind of a TCP packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PktKind {
    /// Connection-opening SYN.
    Syn,
    /// SYN+ACK from the acceptor.
    SynAck,
    /// Pure acknowledgement (no payload).
    Ack,
    /// Payload-carrying segment (also acknowledges).
    Data,
    /// Connection-closing FIN (consumes one sequence number).
    Fin,
}

/// One TCP packet on the wire.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Packet kind.
    pub kind: PktKind,
    /// Sequence number (absolute stream offset) of the first payload
    /// byte; for FIN, the offset the FIN occupies.
    pub seq: u64,
    /// Payload length in bytes (0 for Syn/SynAck/Ack/Fin).
    pub len: u32,
    /// Cumulative acknowledgement: next byte expected from the peer.
    pub ack: u64,
    /// PSH flag: set on the final segment of an application chunk.
    pub push: bool,
    /// Receive window advertised by the sender of this segment.
    pub wnd: u64,
    /// Labelled content spans covering the payload (empty unless `Data`).
    pub meta: SpanVec,
}

/// IP + TCP header overhead assumed for wire-size accounting.
pub const HEADER_BYTES: u32 = 40;

impl Segment {
    /// Total bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> u32 {
        self.len + HEADER_BYTES
    }

    /// End of the sequence range this packet occupies (exclusive).
    /// FIN consumes one virtual byte.
    pub fn seq_end(&self) -> u64 {
        match self.kind {
            PktKind::Fin => self.seq + 1,
            _ => self.seq + self.len as u64,
        }
    }

    /// True if the packet carries payload bytes.
    pub fn has_payload(&self) -> bool {
        self.len > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_seg() -> Segment {
        Segment {
            kind: PktKind::Data,
            seq: 1000,
            len: 1460,
            ack: 42,
            push: false,
            wnd: 65535,
            meta: vec![MetaSpan {
                offset: 1000,
                len: 1460,
                marker: Marker::Static,
                content: 7,
            }]
            .into(),
        }
    }

    #[test]
    fn wire_bytes_include_headers() {
        assert_eq!(data_seg().wire_bytes(), 1500);
        let ack = Segment {
            kind: PktKind::Ack,
            seq: 0,
            len: 0,
            ack: 10,
            push: false,
            wnd: 65535,
            meta: SpanVec::new(),
        };
        assert_eq!(ack.wire_bytes(), 40);
    }

    #[test]
    fn seq_end_for_data_and_fin() {
        assert_eq!(data_seg().seq_end(), 2460);
        let fin = Segment {
            kind: PktKind::Fin,
            seq: 5000,
            len: 0,
            ack: 0,
            push: false,
            wnd: 0,
            meta: SpanVec::new(),
        };
        assert_eq!(fin.seq_end(), 5001);
        assert!(!fin.has_payload());
        assert!(data_seg().has_payload());
    }
}
