//! Human-readable trace dumps — the simulator's `tcpdump -r`.
//!
//! [`render_client_view`] turns a client's capture into text lines close
//! to tcpdump's flavour, with the content markers appended (the
//! simulator's stand-in for `-X` payload dumps); [`render_line`] renders
//! one packet:
//!
//! ```text
//! 371.2451 node1 Tx DATA seq 0:400 ack 0 len 400 PSH [request#500000000042:400]
//! 612.9001 node1 Rx ACK seq 400:400 ack 400 len 0
//! ```

use crate::errors::SessionError;
use crate::session::ClientTrace;
use tcpsim::{Capture, Marker, NodeId, PktDir, PktEvent, PktKind};

fn marker_tag(m: Marker) -> &'static str {
    match m {
        Marker::Request => "request",
        Marker::Static => "static",
        Marker::Dynamic => "dynamic",
        Marker::Error => "error",
        Marker::Other => "other",
    }
}

fn kind_tag(k: PktKind) -> &'static str {
    match k {
        PktKind::Syn => "SYN",
        PktKind::SynAck => "SYNACK",
        PktKind::Ack => "ACK",
        PktKind::Data => "DATA",
        PktKind::Fin => "FIN",
    }
}

/// Renders one packet event as a dump line.
pub fn render_line(ev: &PktEvent) -> String {
    let dir = match ev.dir {
        PktDir::Tx => "Tx",
        PktDir::Rx => "Rx",
        PktDir::Drop => "DROP",
    };
    let mut line = format!(
        "{:.4} node{} {} {} seq {}:{} ack {} len {}",
        ev.t.as_millis_f64(),
        ev.node.0,
        dir,
        kind_tag(ev.kind),
        ev.seq,
        ev.seq + ev.len as u64,
        ev.ack,
        ev.len,
    );
    if ev.push {
        line.push_str(" PSH");
    }
    for m in ev.meta {
        line.push_str(&format!(
            " [{}#{}:{}]",
            marker_tag(m.marker),
            m.content,
            m.len
        ));
    }
    line
}

/// Renders only the client-side view with a header summarising the
/// session landmarks — the format the `model_timeline` example prints
/// and humans grep long runs for. Lines are in time order; at one
/// instant the client's transmissions come before its receptions.
pub fn render_client_view(capture: &Capture, client: NodeId) -> Result<String, SessionError> {
    let trace = ClientTrace::new(capture, client)?;
    let mut out = format!(
        "# client node{} tb={:.4}ms rtt={:?} bytes={}\n",
        client.0,
        trace.tb.as_millis_f64(),
        trace.rtt_ms,
        trace.bytes_received()
    );
    let mut all: Vec<&PktEvent> = trace.tx_all.iter().chain(trace.rx_all.iter()).collect();
    all.sort_by_key(|e| e.t);
    for ev in all {
        out.push_str(&render_line(ev));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{capture, ev, span, Pkt};
    use simcore::time::SimTime;

    fn pkt(kind: PktKind, push: bool) -> Pkt {
        let data = kind == PktKind::Data;
        let (len, meta) = if data {
            (1460, vec![span(1460, 1460, Marker::Static, 1)])
        } else {
            (0, vec![])
        };
        Pkt {
            t: SimTime::from_micros(12_345),
            ..ev(0, PktDir::Rx, kind, 1460, len, 400, push, meta)
        }
    }

    /// The dump line of `p` as node 7 observed it.
    fn line(p: Pkt) -> String {
        let cap = capture(NodeId(7), &[p]);
        render_line(&cap.iter().next().unwrap())
    }

    #[test]
    fn render_contains_all_fields() {
        let line = line(pkt(PktKind::Data, true));
        assert!(line.contains("12.3450"));
        assert!(line.contains("node7"));
        assert!(line.contains("Rx DATA"));
        assert!(line.contains("seq 1460:2920"));
        assert!(line.contains("PSH"));
        assert!(line.contains("[static#1:1460]"));
    }

    #[test]
    fn client_view_has_header_and_sorted_lines() {
        let mut syn = pkt(PktKind::Syn, false);
        syn.dir = PktDir::Tx;
        syn.t = SimTime::from_micros(1_000);
        let mut sa = pkt(PktKind::SynAck, false);
        sa.t = SimTime::from_micros(9_000);
        let cap = capture(NodeId(7), &[sa, syn]); // deliberately out of order
        let view = render_client_view(&cap, NodeId(7)).unwrap();
        let lines: Vec<&str> = view.lines().collect();
        assert!(lines[0].starts_with("# client node7"));
        let mut events = cap.iter();
        let (sa, syn) = (events.next().unwrap(), events.next().unwrap());
        assert_eq!(lines[1..], [render_line(&syn), render_line(&sa)]);
        assert!(render_client_view(&Capture::default(), NodeId(7)).is_err());
    }
}
