//! Hand-built captures for the unit tests, recorded through
//! [`Capture::record`] as the simulator records its own.

use simcore::time::SimTime;
use tcpsim::{Capture, ConnId, Marker, MetaSpan, NodeId, PktDir, PktKind, Segment};

/// One packet as its node observed it, before it is recorded.
#[derive(Clone)]
pub(crate) struct Pkt {
    pub t: SimTime,
    pub dir: PktDir,
    pub seg: Segment,
}

/// A packet observed at `t_ms` milliseconds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ev(
    t_ms: u64,
    dir: PktDir,
    kind: PktKind,
    seq: u64,
    len: u32,
    ack: u64,
    push: bool,
    meta: Vec<MetaSpan>,
) -> Pkt {
    Pkt {
        t: SimTime::from_millis(t_ms),
        dir,
        seg: Segment {
            kind,
            seq,
            len,
            ack,
            push,
            wnd: 0,
            meta: meta.into(),
        },
    }
}

pub(crate) fn span(offset: u64, len: u32, marker: Marker, content: u64) -> MetaSpan {
    MetaSpan {
        offset,
        len,
        marker,
        content,
    }
}

/// `node`'s capture of `pkts`, recorded in order.
pub(crate) fn capture(node: NodeId, pkts: &[Pkt]) -> Capture {
    let mut cap = Capture::new(node, ConnId(0));
    for p in pkts {
        cap.record(p.t, p.dir, &p.seg);
    }
    cap
}
