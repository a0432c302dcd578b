//! Packet captures — the simulator's tcpdump at the client vantage.
//!
//! The paper measures everything from client-side packet traces only.
//! The simulator records the same view: a connection opened with
//! [`Net::open_captured`](crate::Net::open_captured) appends every packet
//! its opener (`End::A`) transmits, receives or loses on the path to a
//! [`Capture`] held by the connection, and
//! [`Net::release`](crate::Net::release) hands that capture over when
//! the application is done with the connection. Front-end and back-end
//! observations are never recorded, so recording costs only what the
//! client-side analysis reads.
//!
//! A capture stores the observing node and the connection once and
//! each packet as one fixed-width 32-byte record; the payload spans of
//! every packet go, in order, into one shared span buffer. Reading it
//! back ([`Capture::iter`]) yields each packet in place as a
//! [`PktEvent`] view whose span list borrows that buffer, so a read
//! copies no span and allocates nothing.

use crate::net::{ConnId, NodeId};
use crate::segment::{MetaSpan, PktKind, Segment};
use simcore::time::SimTime;
use std::fmt;

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

/// One observed packet event: a view of one packet of a [`Capture`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PktEvent<'a> {
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
    /// Content spans (payload labelling), borrowed from the capture.
    pub meta: &'a [MetaSpan],
}

/// Records a capture reserves when it starts: a paper-scale Dataset B
/// query records 37–61 client-side packets (48 on average), so
/// starting empty (4, 8, ... records) would reallocate several times
/// per query. What a capture does not use it gives back at hand-over.
const RECORD_CAPACITY: usize = 64;

/// Spans a capture reserves when it starts: only payload packets carry
/// spans, one or two each (19–34 per Dataset B query, 28 on average).
const SPAN_CAPACITY: usize = 32;

// Decoding tables: each lists its enum's variants in declaration order,
// so a variant's code is its discriminant (`dir as u32`).
const DIRS: [PktDir; 3] = [PktDir::Tx, PktDir::Rx, PktDir::Drop];
const KINDS: [PktKind; 5] = [
    PktKind::Syn,
    PktKind::SynAck,
    PktKind::Ack,
    PktKind::Data,
    PktKind::Fin,
];

// The bit layout of `PktRecord::bits`.
const KIND_SHIFT: u32 = 2;
const PUSH_BIT: u32 = 1 << 5;
const SPANS_SHIFT: u32 = 6;
/// Spans one packet may carry: the count field's 26 bits.
const MAX_SPANS: usize = (1 << (32 - SPANS_SHIFT)) - 1;

/// One packet of a [`Capture`]: everything in its [`PktEvent`] except
/// the node and connection, which the capture stores once, and the
/// spans, which live in the capture's span buffer.
#[derive(Clone, Copy)]
struct PktRecord {
    /// Observation time in nanoseconds.
    t_ns: u64,
    seq: u64,
    ack: u64,
    len: u32,
    /// Direction (bits 0–1, an index into `DIRS`), kind (bits 2–4, an
    /// index into `KINDS`), PSH (bit 5) and span count (bits 6–31).
    bits: u32,
}

const _: () = assert!(std::mem::size_of::<PktRecord>() == 32);

impl PktRecord {
    fn dir(self) -> PktDir {
        DIRS[(self.bits & 3) as usize]
    }

    fn kind(self) -> PktKind {
        KINDS[((self.bits >> KIND_SHIFT) & 7) as usize]
    }

    fn push(self) -> bool {
        self.bits & PUSH_BIT != 0
    }

    fn span_count(self) -> usize {
        (self.bits >> SPANS_SHIFT) as usize
    }
}

/// The packets one node observed on one connection, in recording
/// order.
///
/// [`Capture::iter`] (and `&capture` in a `for` loop) yields each
/// packet as the [`PktEvent`] it was observed as; [`Capture::len`]
/// counts them. Equality and `Debug` go through those events. A trace
/// built by hand (a unit test's) is recorded the way `Net` records one,
/// through [`Capture::new`] and [`Capture::record`].
#[derive(Clone)]
pub struct Capture {
    node: NodeId,
    conn: ConnId,
    records: Vec<PktRecord>,
    /// Every packet's spans, concatenated in record order.
    spans: Vec<MetaSpan>,
}

impl Capture {
    /// An empty capture of what `node` observes on `conn`, with room
    /// reserved for a typical query.
    pub fn new(node: NodeId, conn: ConnId) -> Capture {
        Capture {
            node,
            conn,
            records: Vec::with_capacity(RECORD_CAPACITY),
            spans: Vec::with_capacity(SPAN_CAPACITY),
        }
    }

    /// Appends the observation of `seg` at time `t`.
    pub fn record(&mut self, t: SimTime, dir: PktDir, seg: &Segment) {
        let spans = seg.meta.as_slice();
        assert!(
            spans.len() <= MAX_SPANS,
            "a segment with {} spans",
            spans.len()
        );
        let push = if seg.push { PUSH_BIT } else { 0 };
        self.records.push(PktRecord {
            t_ns: t.as_nanos(),
            seq: seg.seq,
            ack: seg.ack,
            len: seg.len,
            bits: (dir as u32)
                | ((seg.kind as u32) << KIND_SHIFT)
                | push
                | ((spans.len() as u32) << SPANS_SHIFT),
        });
        self.spans.extend_from_slice(spans);
    }

    /// Gives back the reserve the capture did not use, once nothing
    /// more will be recorded.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
        self.spans.shrink_to_fit();
    }

    /// Number of packet events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no packet was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The packet events in recording order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            node: self.node,
            conn: self.conn,
            records: self.records.iter(),
            spans: &self.spans,
        }
    }

    /// Heap bytes the capture holds (reserved capacity included).
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<PktRecord>()
            + self.spans.capacity() * std::mem::size_of::<MetaSpan>()
    }
}

impl Default for Capture {
    /// An empty capture that holds no heap memory (what a query carries
    /// when nothing was captured).
    fn default() -> Capture {
        Capture {
            node: NodeId(0),
            conn: ConnId(0),
            records: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl PartialEq for Capture {
    fn eq(&self, other: &Capture) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl fmt::Debug for Capture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a Capture {
    type Item = PktEvent<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The packet events of a [`Capture`], decoded one at a time into views
/// that borrow the capture's spans.
pub struct Iter<'a> {
    node: NodeId,
    conn: ConnId,
    records: std::slice::Iter<'a, PktRecord>,
    /// The spans of the records not yet decoded.
    spans: &'a [MetaSpan],
}

impl<'a> Iterator for Iter<'a> {
    type Item = PktEvent<'a>;

    #[inline]
    fn next(&mut self) -> Option<PktEvent<'a>> {
        let r = *self.records.next()?;
        let (meta, rest) = self.spans.split_at(r.span_count());
        self.spans = rest;
        Some(PktEvent {
            t: SimTime::from_nanos(r.t_ns),
            node: self.node,
            conn: self.conn,
            dir: r.dir(),
            kind: r.kind(),
            seq: r.seq,
            len: r.len,
            ack: r.ack,
            push: r.push(),
            meta,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Marker;

    const MARKERS: [Marker; 5] = [
        Marker::Request,
        Marker::Static,
        Marker::Dynamic,
        Marker::Error,
        Marker::Other,
    ];

    /// The event a packet is observed as, built field by field.
    fn expected(
        t: SimTime,
        node: NodeId,
        conn: ConnId,
        dir: PktDir,
        seg: &Segment,
    ) -> PktEvent<'_> {
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
            meta: &seg.meta,
        }
    }

    /// Records `packets` and checks the capture reads back exactly the
    /// events built field by field, in order.
    fn assert_round_trip(packets: &[(SimTime, PktDir, Segment)]) {
        let (node, conn) = (NodeId(u32::MAX), ConnId(7));
        let mut cap = Capture::new(node, conn);
        for (t, dir, seg) in packets {
            cap.record(*t, *dir, seg);
        }
        let want: Vec<PktEvent> = packets
            .iter()
            .map(|(t, dir, seg)| expected(*t, node, conn, *dir, seg))
            .collect();
        assert_eq!(cap.len(), want.len());
        assert_eq!(cap.iter().len(), want.len());
        let got: Vec<PktEvent> = cap.iter().collect();
        assert_eq!(got, want);
        assert_eq!(cap.clone(), cap);
    }

    fn span(i: u64, content: u64) -> MetaSpan {
        MetaSpan {
            offset: i * 1_000,
            len: i as u32 + 1,
            marker: MARKERS[i as usize % MARKERS.len()],
            content,
        }
    }

    fn segment(kind: PktKind, seq: u64, ack: u64, push: bool, meta: Vec<MetaSpan>) -> Segment {
        Segment {
            kind,
            seq,
            len: meta.iter().map(|m| m.len).sum(),
            ack,
            push,
            wnd: 65_535,
            meta: meta.into(),
        }
    }

    #[test]
    fn every_kind_direction_and_span_count_round_trips() {
        // Times run backwards, so decoding cannot lean on their order;
        // `u64::MAX` fills every wide field.
        let mut packets = Vec::new();
        let mut t = u64::MAX;
        for kind in KINDS {
            for dir in DIRS {
                for n in 0..=4u64 {
                    for push in [false, true] {
                        let edge = n % 2 == 0;
                        let wide = |v: u64| if edge { u64::MAX } else { v };
                        let meta = (0..n).map(|i| span(i, wide(i + 9))).collect();
                        let seg = segment(kind, wide(n * 1_460), wide(400), push, meta);
                        packets.push((SimTime::from_nanos(t), dir, seg));
                        t -= 1_000_003;
                    }
                }
            }
        }
        assert!(packets.iter().any(|(_, _, s)| s.meta.spilled()));
        assert_round_trip(&packets);
        assert_round_trip(&[]);
    }

    #[test]
    fn a_capture_counts_its_heap_and_compares_by_events() {
        let cap = Capture::new(NodeId(1), ConnId(2));
        assert_eq!(
            cap.heap_bytes(),
            RECORD_CAPACITY * 32 + SPAN_CAPACITY * std::mem::size_of::<MetaSpan>()
        );
        assert_eq!(Capture::default().heap_bytes(), 0);
        assert_eq!(Capture::default(), Capture::new(NodeId(3), ConnId(4)));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary packet sequences round-trip: each packet is drawn
        /// from four random words, with `u64::MAX` substituted for the
        /// wide fields one time in four.
        #[test]
        fn arbitrary_packet_sequences_round_trip(
            words in prop::collection::vec(
                (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
                0..48,
            ),
        ) {
            let packets: Vec<(SimTime, PktDir, Segment)> = words
                .iter()
                .map(|&(t, sel, a, b)| {
                    let max_or = |shift: u32, v: u64| if (sel >> shift) & 3 == 0 { u64::MAX } else { v };
                    let n = (sel >> 8) % 5;
                    let meta = (0..n).map(|i| span(i, max_or(10 + 2 * i as u32, b ^ i))).collect();
                    let kind = KINDS[(sel % 5) as usize];
                    let seg = segment(kind, max_or(20, a), max_or(22, b), (sel >> 24) & 1 == 1, meta);
                    (SimTime::from_nanos(t), DIRS[(sel >> 4) as usize % 3], seg)
                })
                .collect();
            assert_round_trip(&packets);
        }
    }
}
