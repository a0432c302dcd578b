//! Static/dynamic packet classification strategies.

use std::collections::HashSet;
use tcpsim::{Marker, PktEvent};

/// How to decide which received payload bytes are static vs dynamic.
#[derive(Clone, Debug)]
pub enum Classifier {
    /// Simulator ground truth via markers — the validation oracle.
    ByMarker,
    /// The paper's method: content that recurs across sessions of
    /// different queries (precomputed by
    /// [`crate::content::find_static_content_ids`]) is static.
    ByContent(HashSet<u64>),
    /// Online heuristic: everything up to and including the first
    /// PSH-flagged payload packet is static (application chunks end with
    /// PSH; the first chunk of a response is the static head).
    ByPush,
}

/// Byte-level classification of one received packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketClass {
    /// Packet carries static-content bytes.
    pub has_static: bool,
    /// Packet carries dynamic-content bytes.
    pub has_dynamic: bool,
}

impl Classifier {
    /// Classifies one received payload packet. For [`Classifier::ByPush`]
    /// the caller must pass `before_first_push_end` — whether the first
    /// PSH-terminated chunk is still in progress at this packet.
    pub fn classify(&self, ev: &PktEvent, before_first_push_end: bool) -> PacketClass {
        match self {
            Classifier::ByMarker => PacketClass {
                has_static: ev.meta.iter().any(|m| m.marker == Marker::Static),
                has_dynamic: ev.meta.iter().any(|m| m.marker == Marker::Dynamic),
            },
            Classifier::ByContent(static_ids) => {
                let mut has_static = false;
                let mut has_dynamic = false;
                for m in ev.meta {
                    // Request echoes cannot appear in Rx data at the
                    // client; all payload spans are response content.
                    if static_ids.contains(&m.content) {
                        has_static = true;
                    } else {
                        has_dynamic = true;
                    }
                }
                PacketClass {
                    has_static,
                    has_dynamic,
                }
            }
            Classifier::ByPush => {
                if before_first_push_end {
                    PacketClass {
                        has_static: true,
                        // The packet that carries the PSH boundary can
                        // also carry the first dynamic bytes when the
                        // two portions coalesce; ByPush cannot see that,
                        // which is exactly its documented weakness.
                        has_dynamic: false,
                    }
                } else {
                    PacketClass {
                        has_static: false,
                        has_dynamic: true,
                    }
                }
            }
        }
    }

    /// Static bytes carried by the packet under this classifier.
    pub fn static_bytes(&self, ev: &PktEvent, before_first_push_end: bool) -> u64 {
        match self {
            Classifier::ByMarker => ev
                .meta
                .iter()
                .filter(|m| m.marker == Marker::Static)
                .map(|m| m.len as u64)
                .sum(),
            Classifier::ByContent(static_ids) => ev
                .meta
                .iter()
                .filter(|m| static_ids.contains(&m.content))
                .map(|m| m.len as u64)
                .sum(),
            Classifier::ByPush => {
                if before_first_push_end {
                    ev.len as u64
                } else {
                    0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use tcpsim::{ConnId, MetaSpan, NodeId, PktDir, PktKind};

    fn pkt(meta: &[MetaSpan]) -> PktEvent<'_> {
        let len = meta.iter().map(|m| m.len).sum();
        PktEvent {
            t: SimTime::ZERO,
            node: NodeId(1),
            conn: ConnId(0),
            dir: PktDir::Rx,
            kind: PktKind::Data,
            seq: 0,
            len,
            ack: 0,
            push: false,
            meta,
        }
    }

    fn span(len: u32, marker: Marker, content: u64) -> MetaSpan {
        MetaSpan {
            offset: 0,
            len,
            marker,
            content,
        }
    }

    #[test]
    fn by_marker_reads_ground_truth() {
        let c = Classifier::ByMarker;
        let spans = [
            span(1000, Marker::Static, 1),
            span(460, Marker::Dynamic, 1001),
        ];
        let p = pkt(&spans);
        let cls = c.classify(&p, false);
        assert!(cls.has_static && cls.has_dynamic);
        assert_eq!(c.static_bytes(&p, false), 1000);
    }

    #[test]
    fn by_content_uses_recurrence_set() {
        let ids: HashSet<u64> = [1].into();
        let c = Classifier::ByContent(ids);
        let spans = [
            span(1000, Marker::Static, 1),
            span(460, Marker::Dynamic, 1001),
        ];
        let coalesced = pkt(&spans);
        let cls = c.classify(&coalesced, false);
        assert!(cls.has_static && cls.has_dynamic);
        assert_eq!(c.static_bytes(&coalesced, false), 1000);
        let dynamic_span = [span(1460, Marker::Dynamic, 1002)];
        let pure_dynamic = pkt(&dynamic_span);
        let cls2 = c.classify(&pure_dynamic, false);
        assert!(!cls2.has_static && cls2.has_dynamic);
    }

    #[test]
    fn by_push_is_positional() {
        let c = Classifier::ByPush;
        let static_span = [span(1460, Marker::Static, 1)];
        let p = pkt(&static_span);
        assert!(c.classify(&p, true).has_static);
        assert!(!c.classify(&p, true).has_dynamic);
        assert!(c.classify(&p, false).has_dynamic);
        assert_eq!(c.static_bytes(&p, true), 1460);
        assert_eq!(c.static_bytes(&p, false), 0);
    }
}
