//! Timeline extraction — the measurable quantities of the paper's Fig. 2
//! model.

use crate::classify::Classifier;
use crate::errors::{SessionError, TimelineError};
use simcore::time::SimTime;
use tcpsim::{Marker, NodeId, PktDir, PktEvent, PktKind};

/// The packet-level landmarks of one query session at the client.
#[derive(Clone, Copy, Debug)]
pub struct Timeline {
    /// First SYN sent.
    pub tb: SimTime,
    /// HTTP GET sent.
    pub t1: SimTime,
    /// First ACK covering the GET received.
    pub t2: SimTime,
    /// First static-content packet received.
    pub t3: SimTime,
    /// Last static-content packet received.
    pub t4: SimTime,
    /// First dynamic-content packet received.
    pub t5: SimTime,
    /// Last payload packet received.
    pub te: SimTime,
    /// Handshake RTT estimate in ms.
    pub rtt_ms: f64,
    /// Static bytes identified by the classifier.
    pub static_bytes: u64,
    /// Total payload bytes received.
    pub total_bytes: u64,
}

impl Timeline {
    /// `Tstatic := t4 − t2` in ms.
    pub fn t_static_ms(&self) -> f64 {
        self.t4.saturating_since(self.t2).as_millis_f64()
    }

    /// `Tdynamic := t5 − t2` in ms.
    pub fn t_dynamic_ms(&self) -> f64 {
        self.t5.saturating_since(self.t2).as_millis_f64()
    }

    /// `Tdelta := t5 − t4` in ms, clamped at 0 (the portions coalesce at
    /// large RTT — "delivered back-to-back or even coalesce as a single
    /// packet").
    pub fn t_delta_ms(&self) -> f64 {
        self.t5.saturating_since(self.t4).as_millis_f64()
    }

    /// Overall user-perceived delay `te − tb` in ms.
    pub fn overall_ms(&self) -> f64 {
        self.te.saturating_since(self.tb).as_millis_f64()
    }

    /// Extracts the timeline from one session's events using the given
    /// classifier. Fails with a [`TimelineError`] naming why the session
    /// is unusable (no handshake, no GET, truncated response,
    /// retransmission storm, or no classifiable boundary).
    ///
    /// One pass over the events observed at `client`, in recording
    /// (time) order, folds every landmark; nothing is copied. When
    /// several reasons apply, the first in the order above is reported.
    pub fn extract(
        events: &[PktEvent],
        client: NodeId,
        classifier: &Classifier,
    ) -> Result<Timeline, TimelineError> {
        let mut tb: Option<SimTime> = None;
        let mut synack: Option<SimTime> = None;
        let mut t1: Option<SimTime> = None;
        let mut t2: Option<SimTime> = None;
        let mut t3: Option<SimTime> = None;
        let mut t4: Option<SimTime> = None;
        let mut t5: Option<SimTime> = None;
        let mut te: Option<SimTime> = None;
        // End of the request stream: the highest sequence the client sent
        // plus its length (what the server's ACK must reach to confirm
        // the full GET).
        let mut request_end = 0u64;
        let mut static_bytes = 0u64;
        let mut total_bytes = 0u64;
        // ByPush state: are we still inside the first PSH-terminated
        // chunk?
        let mut before_first_push_end = true;
        // Does every payload packet so far carry only error-stub bytes?
        let mut error_stub_only = true;
        // (seq, len) of every payload packet, for the duplicate count.
        let mut payload: Vec<(u64, u32)> = Vec::new();
        for ev in events.iter().filter(|e| e.node == client) {
            match ev.dir {
                PktDir::Tx => {
                    if ev.kind == PktKind::Syn && tb.is_none() {
                        tb = Some(ev.t);
                    }
                    if ev.kind == PktKind::Data {
                        if ev.len > 0 && t1.is_none() {
                            t1 = Some(ev.t);
                        }
                        let end = ev.seq + ev.len as u64;
                        if end > request_end {
                            // An ACK seen before these bytes left cannot
                            // cover them: look for t2 afresh.
                            request_end = end;
                            t2 = None;
                        }
                    }
                }
                PktDir::Rx => {
                    if ev.kind == PktKind::SynAck && synack.is_none() {
                        synack = Some(ev.t);
                    }
                    if t2.is_none()
                        && request_end > 0
                        && ev.ack >= request_end
                        && t1.is_some_and(|t1| ev.t >= t1)
                    {
                        t2 = Some(ev.t);
                    }
                    if ev.kind != PktKind::Data || ev.len == 0 {
                        continue;
                    }
                    payload.push((ev.seq, ev.len));
                    te = Some(ev.t);
                    error_stub_only &=
                        !ev.meta.is_empty() && ev.meta.iter().all(|m| m.marker == Marker::Error);
                    total_bytes += ev.len as u64;
                    let class = classifier.classify(ev, before_first_push_end);
                    static_bytes += classifier.static_bytes(ev, before_first_push_end);
                    if class.has_static {
                        if t3.is_none() {
                            t3 = Some(ev.t);
                        }
                        t4 = Some(ev.t);
                    }
                    if class.has_dynamic && t5.is_none() {
                        t5 = Some(ev.t);
                    }
                    if ev.push {
                        before_first_push_end = false;
                    }
                }
                PktDir::Drop => {}
            }
        }
        let tb = tb.ok_or(SessionError::NoClientSyn)?;
        let rtt_ms = synack
            .ok_or(SessionError::NoHandshake)?
            .saturating_since(tb)
            .as_millis_f64();
        let t1 = t1.ok_or(TimelineError::NoRequest)?;
        let t2 = t2.ok_or(TimelineError::Truncated)?;
        let te = te.ok_or(TimelineError::Truncated)?;
        // Landmark times come from packet arrival order; when most of the
        // payload is retransmitted copies, that order reflects loss
        // recovery rather than server behaviour — refuse to measure.
        let received = payload.len();
        payload.sort_unstable();
        payload.dedup();
        if received - payload.len() > received / 2 {
            return Err(TimelineError::RetransmissionHeavy);
        }
        // A response consisting solely of error-stub bytes (a shed
        // query's fast rejection) has no content boundary to measure
        // under any classifier — name the reason instead of reporting a
        // missing boundary.
        if error_stub_only {
            return Err(TimelineError::ErrorStubOnly);
        }
        Ok(Timeline {
            tb,
            t1,
            t2,
            t3: t3.ok_or(TimelineError::NoStatic)?,
            t4: t4.ok_or(TimelineError::NoStatic)?,
            t5: t5.ok_or(TimelineError::NoDynamic)?,
            te,
            rtt_ms,
            static_bytes,
            total_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpsim::{ConnId, MetaSpan};

    #[allow(clippy::too_many_arguments)]
    fn ev(
        t_ms: u64,
        dir: PktDir,
        kind: PktKind,
        seq: u64,
        len: u32,
        ack: u64,
        push: bool,
        meta: Vec<MetaSpan>,
    ) -> PktEvent {
        PktEvent {
            t: SimTime::from_millis(t_ms),
            node: NodeId(1),
            conn: ConnId(0),
            dir,
            kind,
            seq,
            len,
            ack,
            push,
            meta: meta.into(),
        }
    }

    fn span(offset: u64, len: u32, marker: Marker, content: u64) -> MetaSpan {
        MetaSpan {
            offset,
            len,
            marker,
            content,
        }
    }

    /// A hand-built session: RTT 50ms, static 2 packets (ends 107, PSH),
    /// dynamic starts 250.
    fn session() -> Vec<PktEvent> {
        vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(100, PktDir::Rx, PktKind::Ack, 0, 0, 400, false, vec![]),
            ev(
                105,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                false,
                vec![span(0, 1460, Marker::Static, 1)],
            ),
            ev(
                107,
                PktDir::Rx,
                PktKind::Data,
                1460,
                540,
                400,
                true,
                vec![span(1460, 540, Marker::Static, 1)],
            ),
            ev(
                250,
                PktDir::Rx,
                PktKind::Data,
                2000,
                1460,
                400,
                false,
                vec![span(2000, 1460, Marker::Dynamic, 1001)],
            ),
            ev(
                252,
                PktDir::Rx,
                PktKind::Data,
                3460,
                1000,
                400,
                true,
                vec![span(3460, 1000, Marker::Dynamic, 1001)],
            ),
        ]
    }

    #[test]
    fn marker_extraction_matches_hand_computation() {
        let tl = Timeline::extract(&session(), NodeId(1), &Classifier::ByMarker).unwrap();
        assert_eq!(tl.rtt_ms, 50.0);
        assert_eq!(tl.t1, SimTime::from_millis(50));
        assert_eq!(tl.t2, SimTime::from_millis(100));
        assert_eq!(tl.t3, SimTime::from_millis(105));
        assert_eq!(tl.t4, SimTime::from_millis(107));
        assert_eq!(tl.t5, SimTime::from_millis(250));
        assert_eq!(tl.te, SimTime::from_millis(252));
        assert_eq!(tl.t_static_ms(), 7.0);
        assert_eq!(tl.t_dynamic_ms(), 150.0);
        assert_eq!(tl.t_delta_ms(), 143.0);
        assert_eq!(tl.overall_ms(), 252.0);
        assert_eq!(tl.static_bytes, 2000);
        assert_eq!(tl.total_bytes, 4460);
    }

    #[test]
    fn t2_requires_full_request_ack() {
        let mut evs = session();
        // Make the first ACK a partial one (ack=200 < 400).
        evs[3].ack = 200;
        let tl = Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap();
        // Next acking packet is the data packet at 105 with ack=400.
        assert_eq!(tl.t2, SimTime::from_millis(105));
    }

    #[test]
    fn t2_waits_for_the_last_request_segment() {
        // A two-segment GET whose first segment is acknowledged before
        // the second leaves: that ACK covers the request sent so far,
        // not the whole request, so it is not t2.
        let mut evs = session();
        evs[2].len = 300;
        evs[2].meta = vec![span(0, 300, Marker::Request, 900)].into();
        evs[3].ack = 300;
        let mut tail = evs[2].clone();
        tail.t = SimTime::from_millis(100);
        tail.seq = 300;
        tail.len = 100;
        tail.meta = vec![span(300, 100, Marker::Request, 900)].into();
        evs.insert(4, tail);
        let tl = Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap();
        assert_eq!(tl.t1, SimTime::from_millis(50));
        // The first arrival acknowledging all 400 bytes: the data packet
        // at 105.
        assert_eq!(tl.t2, SimTime::from_millis(105));
    }

    #[test]
    fn content_classifier_agrees_with_markers_here() {
        let ids = std::collections::HashSet::from([1u64]);
        let a = Timeline::extract(&session(), NodeId(1), &Classifier::ByMarker).unwrap();
        let b = Timeline::extract(&session(), NodeId(1), &Classifier::ByContent(ids)).unwrap();
        assert_eq!(a.t4, b.t4);
        assert_eq!(a.t5, b.t5);
        assert_eq!(a.static_bytes, b.static_bytes);
    }

    #[test]
    fn push_classifier_agrees_when_no_coalescing() {
        let tl = Timeline::extract(&session(), NodeId(1), &Classifier::ByPush).unwrap();
        assert_eq!(tl.t4, SimTime::from_millis(107));
        assert_eq!(tl.t5, SimTime::from_millis(250));
    }

    #[test]
    fn coalesced_boundary_gives_zero_tdelta() {
        // Static end and dynamic start in one packet.
        let evs = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(100, PktDir::Rx, PktKind::Ack, 0, 0, 400, false, vec![]),
            ev(
                105,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                true,
                vec![
                    span(0, 1000, Marker::Static, 1),
                    span(1000, 460, Marker::Dynamic, 1001),
                ],
            ),
            ev(
                106,
                PktDir::Rx,
                PktKind::Data,
                1460,
                500,
                400,
                true,
                vec![span(1460, 500, Marker::Dynamic, 1001)],
            ),
        ];
        let tl = Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap();
        assert_eq!(tl.t4, tl.t5);
        assert_eq!(tl.t_delta_ms(), 0.0);
    }

    #[test]
    fn malformed_sessions_yield_typed_errors() {
        // Missing SYN-ACK.
        let evs = vec![ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![])];
        assert_eq!(
            Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::Session(SessionError::NoHandshake)
        );
        // Response without any dynamic part.
        let evs2 = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(
                100,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                true,
                vec![span(0, 1460, Marker::Static, 1)],
            ),
        ];
        assert_eq!(
            Timeline::extract(&evs2, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::NoDynamic
        );
        // Wrong node entirely.
        assert_eq!(
            Timeline::extract(&evs, NodeId(9), &Classifier::ByMarker).unwrap_err(),
            TimelineError::Session(SessionError::NoClientSyn)
        );
    }

    #[test]
    fn error_stub_only_session_is_rejected_as_such() {
        // A shed query's fast rejection: the only payload back is the
        // error stub. Every classifier should name the refusal rather
        // than complain about a missing content boundary.
        let evs = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(
                100,
                PktDir::Rx,
                PktKind::Data,
                0,
                200,
                400,
                true,
                vec![span(0, 200, Marker::Error, 999)],
            ),
        ];
        for c in [Classifier::ByMarker, Classifier::ByPush] {
            assert_eq!(
                Timeline::extract(&evs, NodeId(1), &c).unwrap_err(),
                TimelineError::ErrorStubOnly
            );
        }
    }

    #[test]
    fn truncated_session_is_rejected() {
        // GET sent, never acknowledged, no payload back.
        let evs = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
        ];
        assert_eq!(
            Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::Truncated
        );
    }

    #[test]
    fn retransmission_storm_is_rejected() {
        // The same payload packet delivered over and over: more duplicate
        // receptions than fresh ones.
        let mut evs = session();
        let dup = evs[4].clone();
        for _ in 0..6 {
            evs.push(dup.clone());
        }
        assert_eq!(
            Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::RetransmissionHeavy
        );
        // A couple of duplicates (ordinary loss recovery) still extract.
        let mut light = session();
        light.push(dup);
        assert!(Timeline::extract(&light, NodeId(1), &Classifier::ByMarker).is_ok());
    }
}
