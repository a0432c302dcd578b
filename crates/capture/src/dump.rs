//! Human-readable trace dumps — the simulator's `tcpdump -r`.
//!
//! [`render`] turns a session's capture into text lines close to
//! tcpdump's flavour, with the content markers appended (the simulator's
//! stand-in for `-X` payload dumps):
//!
//! ```text
//! 371.2451 node1        Tx DATA seq 0:400 ack 0 win 262144 PSH [request#500000000042:400]
//! 612.9001 node1        Rx ACK  seq 400 ack 400 win 262144
//! ```
//!
//! [`parse_line`] reads the core fields back (used by tests to guarantee
//! dumps stay machine-readable, and handy for grepping long runs).

use crate::errors::SessionError;
use crate::session::ClientTrace;
use tcpsim::{Capture, Marker, NodeId, PktDir, PktEvent, PktKind};

fn marker_tag(m: Marker) -> &'static str {
    match m {
        Marker::Request => "request",
        Marker::Static => "static",
        Marker::Dynamic => "dynamic",
        Marker::BeQuery => "be-query",
        Marker::BeResponse => "be-response",
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

/// Renders a whole capture (one line per event, in recording order).
pub fn render(capture: &Capture) -> String {
    let mut out = String::new();
    for ev in capture {
        out.push_str(&render_line(&ev));
        out.push('\n');
    }
    out
}

/// Renders only the client-side view with a header summarising the
/// session landmarks — the format used by the `fig4` harness's debug
/// output and by humans grepping long runs. Lines are in time order;
/// at one instant the client's transmissions come before its
/// receptions.
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

/// The core fields parsed back from a dump line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParsedLine {
    /// Timestamp in ms.
    pub t_ms: f64,
    /// Node id.
    pub node: u32,
    /// Direction string equality: "Tx" | "Rx" | "DROP".
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
}

/// Parses the core fields back from a [`render_line`] output. Returns
/// `None` for comment lines or malformed input.
pub fn parse_line(line: &str) -> Option<ParsedLine> {
    if line.starts_with('#') {
        return None;
    }
    let mut it = line.split_whitespace();
    let t_ms: f64 = it.next()?.parse().ok()?;
    let node: u32 = it.next()?.strip_prefix("node")?.parse().ok()?;
    let dir = match it.next()? {
        "Tx" => PktDir::Tx,
        "Rx" => PktDir::Rx,
        "DROP" => PktDir::Drop,
        _ => return None,
    };
    let kind = match it.next()? {
        "SYN" => PktKind::Syn,
        "SYNACK" => PktKind::SynAck,
        "ACK" => PktKind::Ack,
        "DATA" => PktKind::Data,
        "FIN" => PktKind::Fin,
        _ => return None,
    };
    if it.next()? != "seq" {
        return None;
    }
    let range = it.next()?;
    let (seq_s, _) = range.split_once(':')?;
    let seq: u64 = seq_s.parse().ok()?;
    if it.next()? != "ack" {
        return None;
    }
    let ack: u64 = it.next()?.parse().ok()?;
    if it.next()? != "len" {
        return None;
    }
    let len: u32 = it.next()?.parse().ok()?;
    let push = it.next() == Some("PSH");
    Some(ParsedLine {
        t_ms,
        node,
        dir,
        kind,
        seq,
        len,
        ack,
        push,
    })
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
    fn roundtrip_core_fields() {
        for (kind, push) in [
            (PktKind::Syn, false),
            (PktKind::SynAck, false),
            (PktKind::Ack, false),
            (PktKind::Data, true),
            (PktKind::Data, false),
            (PktKind::Fin, true),
        ] {
            let parsed = parse_line(&line(pkt(kind, push))).unwrap();
            assert_eq!(parsed.kind, kind);
            assert_eq!(parsed.push, push);
            assert_eq!(parsed.node, 7);
            assert_eq!(parsed.seq, 1460);
            assert_eq!(parsed.ack, 400);
            assert_eq!(parsed.dir, PktDir::Rx);
            assert!((parsed.t_ms - 12.345).abs() < 1e-4);
        }
    }

    #[test]
    fn render_multiline_and_comment_skipped() {
        let cap = capture(
            NodeId(7),
            &[pkt(PktKind::Syn, false), pkt(PktKind::Data, true)],
        );
        let text = render(&cap);
        assert_eq!(text.lines().count(), 2);
        assert!(parse_line("# comment").is_none());
        assert!(parse_line("garbage").is_none());
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
        let t1 = parse_line(lines[1]).unwrap().t_ms;
        let t2 = parse_line(lines[2]).unwrap().t_ms;
        assert!(t1 <= t2);
        assert!(render_client_view(&Capture::default(), NodeId(7)).is_err());
    }
}
