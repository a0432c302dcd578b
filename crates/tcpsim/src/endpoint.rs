//! The per-endpoint TCP state machine.
//!
//! [`Endpoint`] holds sender and receiver state and implements the
//! protocol *decisions* (congestion control, RTT estimation, receive-side
//! reassembly, ACK policy) as pure state transitions returning action
//! values, and [`Timer`] decides what each popped timer event does.
//! Packet construction, link modelling and the event queue live in
//! [`crate::net`] — this split keeps the algorithms unit-testable without
//! an event loop.

use crate::cubic::CubicState;
use crate::opts::{CongAlgo, TcpOptions, ABC_LIMIT_SEGS, INITIAL_RTO, MAX_RTO, MIN_RTO, MSS};
use crate::segment::{Marker, MetaSpan, PktKind, Segment, SpanVec};
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Connection state (simplified lifecycle; no TIME_WAIT — the simulator
/// never reuses ports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Not yet opened (acceptor before SYN arrives).
    Closed,
    /// Initiator sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Acceptor sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Both FINs exchanged and acknowledged.
    Done,
}

/// One application chunk appended to the send stream.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Stream offset one past the chunk's last byte.
    pub end_off: u64,
    /// Content class.
    pub marker: Marker,
    /// Content identity.
    pub content: u64,
}

/// An out-of-order segment parked in the receive buffer.
#[derive(Clone, Debug)]
pub struct OooSeg {
    /// Payload length.
    pub len: u32,
    /// PSH flag.
    pub push: bool,
    /// True if this parked entry is the peer's FIN.
    pub fin: bool,
}

/// What the receiver wants done after accepting a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Send an ACK immediately (second segment, PSH, out-of-order or
    /// duplicate).
    Immediate,
    /// Arm (or leave armed) the delayed-ACK timer.
    Delayed,
}

/// Sender-side reaction to an incoming acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckReaction {
    /// Nothing special; try to pump more data.
    Advance,
    /// Third duplicate ACK: enter fast retransmit, resend `snd_una`.
    FastRetransmit,
    /// Partial ACK during recovery (NewReno): resend the next hole.
    PartialRetransmit,
    /// Duplicate ACK during recovery: window inflated, pump.
    RecoveryInflate,
    /// Ignored (old ACK or no outstanding data).
    Ignored,
}

/// One TCP timer (the retransmission timer or the delayed ACK), with at
/// most one live event in the event queue.
///
/// Every arm takes a queue sequence number, as an eagerly scheduled
/// event would. It schedules an event only when none is queued or the
/// queued one is later than the new deadline. An event that pops before
/// the latest deadline is queued again at that deadline with that arm's
/// number. So the timer fires at exactly the `(time, seq)` position
/// where the latest arm's own event would have popped, and nothing that
/// does work moves in the pop order. The net layer owns the queue; the
/// timer only decides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timer {
    /// `(deadline, seq)` of the latest arm; `None` when disarmed.
    armed: Option<(SimTime, u64)>,
    /// `(time, seq)` of the timer's live queued event. Invariant: when
    /// the timer is armed, this is set and not later than `armed`.
    queued: Option<(SimTime, u64)>,
}

/// What a popped timer event does, per [`Timer::pop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimerPop {
    /// The timer expired (and is now disarmed): run its handler.
    Fire,
    /// The deadline moved later: queue the event again at `(at, seq)`.
    Requeue {
        /// The latest arm's deadline.
        at: SimTime,
        /// The sequence number reserved by that arm.
        seq: u64,
    },
    /// A superseded event, or the timer was disarmed: nothing to do.
    Noop,
}

impl Timer {
    /// Whether the timer is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Arms (or re-arms) the timer to expire at `deadline`, with `seq`
    /// reserved from the event queue. Returns true when the caller must
    /// schedule the timer's event at `(deadline, seq)`: nothing is
    /// queued, or the queued event is later and is now superseded.
    pub(crate) fn arm(&mut self, deadline: SimTime, seq: u64) -> bool {
        self.armed = Some((deadline, seq));
        if self.queued.is_some_and(|(at, _)| at <= deadline) {
            return false;
        }
        self.queued = Some((deadline, seq));
        true
    }

    /// Disarms the timer. Its queued event stays queued and pops as a
    /// no-op, unless a later arm reuses it.
    pub(crate) fn disarm(&mut self) {
        self.armed = None;
    }

    /// The timer's event numbered `seq` popped at `now`.
    pub(crate) fn pop(&mut self, now: SimTime, seq: u64) -> TimerPop {
        if self.queued.map(|(_, s)| s) != Some(seq) {
            return TimerPop::Noop;
        }
        self.queued = None;
        match self.armed {
            Some(armed) if armed == (now, seq) => {
                self.armed = None;
                TimerPop::Fire
            }
            Some((at, seq)) => {
                self.queued = Some((at, seq));
                TimerPop::Requeue { at, seq }
            }
            None => TimerPop::Noop,
        }
    }
}

/// The TCP endpoint.
#[derive(Clone, Debug)]
pub struct Endpoint {
    /// Configuration.
    pub opts: TcpOptions,
    /// Lifecycle state.
    pub state: TcpState,

    // ---- send side ----
    /// Application chunks (cumulative offsets) — the send stream map.
    /// Chunks wholly below the ACKed frontier are pruned; the first
    /// entry starts at [`Endpoint::chunks_base`], not necessarily 0.
    pub chunks: Vec<Chunk>,
    /// Stream offset where `chunks[0]` starts (the end of the last
    /// pruned chunk). Invariant: `chunks_base <= snd_una`, so every
    /// range the sender can still (re)transmit is covered.
    pub chunks_base: u64,
    /// Cursor into `chunks`: the index where the previous
    /// [`Endpoint::meta_for_range`] lookup ended. Sends are sequential,
    /// so the next lookup almost always resumes here (O(1)) instead of
    /// rescanning the chunk map; out-of-order offsets (retransmissions)
    /// fall back to a binary search.
    pub chunk_cursor: usize,
    /// Total bytes appended to the send stream.
    pub stream_len: u64,
    /// Oldest unacknowledged sequence number.
    pub snd_una: u64,
    /// Next sequence number to send.
    pub snd_nxt: u64,
    /// Congestion window in bytes (fractional for CA accumulation).
    pub cwnd: f64,
    /// Slow-start threshold in bytes.
    pub ssthresh: f64,
    /// Peer's advertised receive window.
    pub peer_rwnd: u64,
    /// Consecutive duplicate-ACK count.
    pub dup_acks: u32,
    /// NewReno recovery point (snd_nxt at loss detection).
    pub recover: u64,
    /// True while in fast recovery.
    pub in_recovery: bool,
    /// Smoothed RTT in ms (None before the first sample).
    pub srtt_ms: Option<f64>,
    /// RTT variance in ms.
    pub rttvar_ms: f64,
    /// Current retransmission timeout.
    pub rto: SimDuration,
    /// The retransmission timer.
    pub rto_timer: Timer,
    /// In-flight RTT probe: `(seq_end, sent_at)`; cleared on any
    /// retransmission (Karn's algorithm). The opener's SYN is its first
    /// probe, sampled when the handshake completes.
    pub rtt_probe: Option<(u64, SimTime)>,
    /// FIN requested by the application.
    pub fin_pending: bool,
    /// FIN transmitted.
    pub fin_sent: bool,

    // ---- receive side ----
    /// Next byte expected in order.
    pub rcv_nxt: u64,
    /// Out-of-order reassembly buffer keyed by sequence number.
    pub ooo: BTreeMap<u64, OooSeg>,
    /// The delayed-ACK timer (armed while an ACK is being held back).
    pub delack: Timer,
    /// The peer FIN has been consumed (rcv_nxt advanced past it).
    pub peer_fin_rcvd: bool,
    /// CUBIC growth state (unused under Reno).
    pub cubic: CubicState,
}

impl Endpoint {
    /// Creates a fresh endpoint in `Closed` state.
    pub fn new(opts: TcpOptions) -> Endpoint {
        let cwnd = opts.initial_cwnd();
        Endpoint {
            opts,
            state: TcpState::Closed,
            chunks: Vec::new(),
            chunks_base: 0,
            chunk_cursor: 0,
            stream_len: 0,
            snd_una: 0,
            snd_nxt: 0,
            cwnd,
            ssthresh: f64::INFINITY,
            peer_rwnd: u64::MAX,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            srtt_ms: None,
            rttvar_ms: 0.0,
            rto: INITIAL_RTO,
            rto_timer: Timer::default(),
            rtt_probe: None,
            fin_pending: false,
            fin_sent: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            delack: Timer::default(),
            peer_fin_rcvd: false,
            cubic: CubicState::default(),
        }
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The effective send window: min(cwnd, peer receive window).
    pub fn send_window(&self) -> u64 {
        (self.cwnd.max(0.0) as u64).min(self.peer_rwnd)
    }

    /// Bytes of fresh window available right now.
    pub fn usable_window(&self) -> u64 {
        self.send_window().saturating_sub(self.in_flight())
    }

    /// Appends an application chunk to the send stream.
    pub fn push_chunk(&mut self, len: u64, marker: Marker, content: u64) {
        assert!(len > 0, "push_chunk: empty chunk");
        assert!(!self.fin_pending, "push_chunk after close");
        self.stream_len += len;
        self.chunks.push(Chunk {
            end_off: self.stream_len,
            marker,
            content,
        });
    }

    /// Stream offset where chunk `i` starts.
    fn chunk_start(&self, i: usize) -> u64 {
        if i == 0 {
            self.chunks_base
        } else {
            self.chunks[i - 1].end_off
        }
    }

    /// The meta spans covering stream range `[from, from+len)`, rebuilt
    /// from the chunk map (also used for retransmissions).
    ///
    /// Resumes from the cursor left by the previous lookup: sequential
    /// sends are O(spans) instead of O(chunks), and any out-of-order
    /// `from` (fast retransmit, RTO resend) repositions by binary
    /// search. Requires `from >= chunks_base` — guaranteed inside the
    /// simulator because only ranges at or above `snd_una` are ever
    /// (re)transmitted and pruning stops at the ACKed frontier.
    pub fn meta_for_range(&mut self, from: u64, len: u32) -> SpanVec {
        debug_assert!(
            from >= self.chunks_base,
            "meta_for_range below the pruned frontier: {from} < {}",
            self.chunks_base
        );
        let to = from + len as u64;
        let mut out = SpanVec::new();
        let n = self.chunks.len();
        // Reposition: the cursor chunk, its successor (a sequential send
        // that just crossed a chunk boundary), or binary search.
        let mut i = self.chunk_cursor;
        let contains =
            |i: usize| i < n && self.chunk_start(i) <= from && from < self.chunks[i].end_off;
        if !contains(i) {
            if contains(i + 1) {
                i += 1;
            } else {
                i = self.chunks.partition_point(|c| c.end_off <= from);
            }
        }
        let mut c_start = self.chunk_start(i.min(n));
        while i < n {
            let c = &self.chunks[i];
            let c_end = c.end_off;
            if c_start >= to {
                break;
            }
            let s = from.max(c_start);
            let e = to.min(c_end);
            out.push(MetaSpan {
                offset: s,
                len: (e - s) as u32,
                marker: c.marker,
                content: c.content,
            });
            c_start = c_end;
            i += 1;
        }
        self.chunk_cursor = i.saturating_sub(1);
        out
    }

    /// A `kind` segment from this endpoint covering `[seq, seq+len)`,
    /// carrying the current ACK and window. A payload's spans come from
    /// [`Endpoint::meta_for_range`] (which moves its cursor); PSH is set
    /// on data that ends a chunk, always on a FIN, never on control
    /// segments.
    pub(crate) fn segment(&mut self, kind: PktKind, seq: u64, len: u32) -> Segment {
        let meta = if len > 0 {
            self.meta_for_range(seq, len)
        } else {
            SpanVec::new()
        };
        let push = match kind {
            PktKind::Data => self.range_ends_chunk(seq, len),
            PktKind::Fin => true,
            PktKind::Syn | PktKind::SynAck | PktKind::Ack => false,
        };
        Segment {
            kind,
            seq,
            len,
            ack: self.rcv_nxt,
            push,
            wnd: self.opts.rwnd,
            meta,
        }
    }

    /// True if `[from, from+len)` ends exactly at an application chunk
    /// boundary — those segments carry PSH.
    pub fn range_ends_chunk(&self, from: u64, len: u32) -> bool {
        let to = from + len as u64;
        if to == from {
            return false;
        }
        // Chunk ends are strictly increasing: binary-search for `to`.
        let i = self.chunks.partition_point(|c| c.end_off < to);
        i < self.chunks.len() && self.chunks[i].end_off == to
    }

    /// Drops chunks wholly below the ACKed frontier (`snd_una`): their
    /// bytes can never be retransmitted, so the chunk map stays short on
    /// long-lived connections that stream many application chunks.
    fn prune_acked_chunks(&mut self) {
        let una = self.snd_una;
        let k = self.chunks.partition_point(|c| c.end_off <= una);
        if k > 0 {
            self.chunks_base = self.chunks[k - 1].end_off;
            self.chunks.drain(..k);
            self.chunk_cursor = self.chunk_cursor.saturating_sub(k);
        }
    }

    /// Records an RTT sample and recomputes the RTO (RFC 6298).
    pub fn rtt_sample(&mut self, sample: SimDuration) {
        let r = sample.as_millis_f64();
        match self.srtt_ms {
            None => {
                self.srtt_ms = Some(r);
                self.rttvar_ms = r / 2.0;
            }
            Some(srtt) => {
                let err = (srtt - r).abs();
                self.rttvar_ms = 0.75 * self.rttvar_ms + 0.25 * err;
                self.srtt_ms = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_ms = self.srtt_ms.unwrap() + (4.0 * self.rttvar_ms).max(1.0);
        self.rto = SimDuration::from_millis_f64(rto_ms)
            .max(MIN_RTO)
            .min(MAX_RTO);
    }

    /// Processes the acknowledgement field of an incoming packet
    /// (sender-side reaction). `has_payload` suppresses the dup-ACK count
    /// for data-bearing packets, per RFC 5681.
    pub fn on_ack(&mut self, ack: u64, wnd: u64, now: SimTime, has_payload: bool) -> AckReaction {
        self.peer_rwnd = wnd;
        if ack > self.snd_nxt {
            // Acking data we never sent — corrupted event; ignore.
            return AckReaction::Ignored;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.prune_acked_chunks();
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack >= probe_end {
                    let sample = now.saturating_since(sent_at);
                    self.rtt_sample(sample);
                    self.rtt_probe = None;
                }
            }
            self.dup_acks = 0;
            if self.in_recovery {
                if ack >= self.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh.max(MSS as f64);
                    return AckReaction::Advance;
                } else {
                    // Partial ACK: retransmit the next hole, deflate by
                    // the amount acked (NewReno).
                    self.cwnd = (self.cwnd - acked as f64 + MSS as f64).max(MSS as f64);
                    return AckReaction::PartialRetransmit;
                }
            }
            // Normal cwnd growth.
            if self.cwnd < self.ssthresh {
                // Slow start with ABC (RFC 3465).
                let limit = (ABC_LIMIT_SEGS * MSS) as f64;
                self.cwnd += (acked as f64).min(limit);
            } else {
                let mss = MSS as f64;
                match self.opts.cong {
                    CongAlgo::Reno => {
                        // Congestion avoidance: +mss per RTT, per-ACK.
                        self.cwnd += (mss * mss / self.cwnd).max(1.0);
                    }
                    CongAlgo::Cubic => {
                        let cwnd_segs = self.cwnd / mss;
                        let srtt_s = self.srtt_ms.unwrap_or(100.0) / 1.0e3;
                        let target = self.cubic.target(now, cwnd_segs, srtt_s);
                        let inc = CubicState::per_ack_increment(target, cwnd_segs);
                        self.cwnd += inc * mss;
                    }
                }
            }
            AckReaction::Advance
        } else if ack == self.snd_una && self.in_flight() > 0 && !has_payload {
            self.dup_acks += 1;
            if self.in_recovery {
                self.cwnd += MSS as f64;
                return AckReaction::RecoveryInflate;
            }
            if self.dup_acks == 3 {
                let mss = MSS as f64;
                let beta = self.loss_beta();
                self.cubic.on_loss(self.cwnd / mss);
                self.ssthresh = (self.in_flight() as f64 * beta).max(2.0 * mss);
                self.cwnd = self.ssthresh + 3.0 * mss;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.rtt_probe = None; // Karn
                return AckReaction::FastRetransmit;
            }
            AckReaction::Ignored
        } else {
            AckReaction::Ignored
        }
    }

    /// The multiplicative-decrease factor of the configured algorithm.
    fn loss_beta(&self) -> f64 {
        match self.opts.cong {
            CongAlgo::Reno => 0.5,
            CongAlgo::Cubic => crate::cubic::CUBIC_BETA,
        }
    }

    /// Congestion response to a retransmission timeout.
    pub fn on_rto_fire(&mut self) {
        let mss = MSS as f64;
        self.cubic.on_loss(self.cwnd / mss);
        self.ssthresh = (self.in_flight() as f64 * self.loss_beta()).max(2.0 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtt_probe = None; // Karn
        self.rto = self.rto.saturating_mul(2).min(MAX_RTO);
    }

    /// Receiver-side acceptance of a payload segment (or FIN). Returns
    /// the number of payload bytes newly delivered in order (how far
    /// `rcv_nxt` advanced, the FIN's sequence number left out) and the
    /// ACK policy.
    pub fn accept(&mut self, seq: u64, len: u32, push: bool, fin: bool) -> (u64, AckPolicy) {
        let seg_end = seq + if fin { 1 } else { len as u64 };
        if seg_end <= self.rcv_nxt {
            // Complete duplicate: immediate ACK so the sender resyncs.
            return (0, AckPolicy::Immediate);
        }
        if seq > self.rcv_nxt {
            // Out of order: park and duplicate-ACK immediately.
            self.ooo.insert(seq, OooSeg { len, push, fin });
            return (0, AckPolicy::Immediate);
        }
        // In order (possibly overlapping an already-received prefix).
        let from = self.rcv_nxt;
        self.rcv_nxt = seg_end;
        self.peer_fin_rcvd |= fin;
        let mut saw_push = push;
        let filled_gap = !self.ooo.is_empty();
        // Drain contiguous out-of-order segments.
        while let Some((&s, _)) = self.ooo.iter().next() {
            if s > self.rcv_nxt {
                break;
            }
            let seg = self.ooo.remove(&s).unwrap();
            let end = s + if seg.fin { 1 } else { seg.len as u64 };
            if end <= self.rcv_nxt {
                continue; // stale duplicate parked earlier
            }
            self.rcv_nxt = end;
            self.peer_fin_rcvd |= seg.fin;
            saw_push |= seg.push;
        }
        // No byte follows the FIN, and once it is consumed every segment
        // is a duplicate: a FIN consumed here is the last sequence number
        // `rcv_nxt` passed.
        let delivered = self.rcv_nxt - from - u64::from(self.peer_fin_rcvd);
        // ACK policy: immediate on PSH, FIN, a filled gap, or when this
        // is the second unacknowledged segment.
        let policy = if saw_push
            || self.peer_fin_rcvd
            || filled_gap
            || !self.ooo.is_empty()
            || self.delack.is_armed()
        {
            AckPolicy::Immediate
        } else {
            AckPolicy::Delayed
        };
        (delivered, policy)
    }

    /// True once every byte (and the FIN, if requested) is acknowledged.
    pub fn all_acked(&self) -> bool {
        let target = self.stream_len + if self.fin_sent { 1 } else { 0 };
        self.snd_una >= target && (!self.fin_pending || self.fin_sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep() -> Endpoint {
        let mut e = Endpoint::new(TcpOptions::default());
        e.state = TcpState::Established;
        e
    }

    #[test]
    fn initial_window_and_flight() {
        let e = ep();
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.send_window(), 5840);
        assert_eq!(e.usable_window(), 5840);
    }

    #[test]
    fn chunk_map_and_meta_rebuild() {
        let mut e = ep();
        e.push_chunk(400, Marker::Request, 1);
        e.push_chunk(8000, Marker::Static, 2);
        assert_eq!(e.stream_len, 8400);
        // A segment spanning the request/static boundary.
        let meta = e.meta_for_range(0, 1460);
        assert_eq!(meta.len(), 2);
        assert_eq!(meta[0].len, 400);
        assert_eq!(meta[0].marker, Marker::Request);
        assert_eq!(meta[1].offset, 400);
        assert_eq!(meta[1].len, 1060);
        assert_eq!(meta[1].marker, Marker::Static);
        // Entirely inside the static chunk.
        let meta2 = e.meta_for_range(2000, 1000);
        assert_eq!(meta2.len(), 1);
        assert_eq!(meta2[0].content, 2);
    }

    #[test]
    fn push_detection_at_chunk_boundary() {
        let mut e = ep();
        e.push_chunk(400, Marker::Request, 1);
        e.push_chunk(1000, Marker::Static, 2);
        assert!(e.range_ends_chunk(0, 400));
        assert!(!e.range_ends_chunk(0, 300));
        assert!(e.range_ends_chunk(400, 1000));
        assert!(e.range_ends_chunk(0, 1400)); // spans both, ends at chunk end
    }

    #[test]
    fn slow_start_doubles_with_abc() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 5840; // one IW in flight
        let t = SimTime::from_millis(100);
        // ACK for 2 segments (delayed ack) grows cwnd by 2*mss.
        let before = e.cwnd;
        e.on_ack(2920, u64::MAX, t, false);
        assert_eq!(e.cwnd, before + 2.0 * 1460.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut e = ep();
        e.push_chunk(1_000_000, Marker::Static, 1);
        e.ssthresh = 2920.0;
        e.cwnd = 14600.0; // above ssthresh
        e.snd_nxt = 14600;
        let before = e.cwnd;
        e.on_ack(1460, u64::MAX, SimTime::from_millis(1), false);
        let growth = e.cwnd - before;
        assert!((growth - 1460.0 * 1460.0 / 14600.0).abs() < 1.0);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        e.snd_una = 0;
        e.cwnd = 14600.0;
        let t = SimTime::from_millis(5);
        assert_eq!(e.on_ack(0, u64::MAX, t, false), AckReaction::Ignored);
        assert_eq!(e.on_ack(0, u64::MAX, t, false), AckReaction::Ignored);
        assert_eq!(e.on_ack(0, u64::MAX, t, false), AckReaction::FastRetransmit);
        assert!(e.in_recovery);
        assert_eq!(e.recover, 14600);
        assert_eq!(e.ssthresh, 7300.0);
        assert_eq!(e.cwnd, 7300.0 + 3.0 * 1460.0);
        // Additional dupack inflates.
        assert_eq!(
            e.on_ack(0, u64::MAX, t, false),
            AckReaction::RecoveryInflate
        );
    }

    #[test]
    fn data_bearing_packets_do_not_count_as_dupacks() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        let t = SimTime::from_millis(5);
        for _ in 0..5 {
            assert_eq!(e.on_ack(0, u64::MAX, t, true), AckReaction::Ignored);
        }
        assert!(!e.in_recovery);
        assert_eq!(e.dup_acks, 0);
    }

    #[test]
    fn partial_and_full_acks_in_recovery() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        e.cwnd = 14600.0;
        let t = SimTime::from_millis(5);
        for _ in 0..3 {
            e.on_ack(0, u64::MAX, t, false);
        }
        assert!(e.in_recovery);
        // Partial ACK (below recover=14600).
        assert_eq!(
            e.on_ack(2920, u64::MAX, t, false),
            AckReaction::PartialRetransmit
        );
        assert!(e.in_recovery);
        // Full ACK.
        assert_eq!(e.on_ack(14600, u64::MAX, t, false), AckReaction::Advance);
        assert!(!e.in_recovery);
        assert_eq!(e.cwnd, e.ssthresh);
    }

    #[test]
    fn rto_fire_collapses_window_and_backs_off() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        e.cwnd = 14600.0;
        let rto_before = e.rto;
        e.on_rto_fire();
        assert_eq!(e.cwnd, 1460.0);
        assert_eq!(e.ssthresh, 7300.0);
        assert_eq!(e.rto, rto_before.saturating_mul(2));
    }

    #[test]
    fn rtt_estimator_follows_rfc6298() {
        let mut e = ep();
        e.rtt_sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt_ms, Some(100.0));
        assert_eq!(e.rttvar_ms, 50.0);
        // rto = srtt + 4*var = 300ms
        assert_eq!(e.rto, SimDuration::from_millis(300));
        e.rtt_sample(SimDuration::from_millis(100));
        // var decays toward 0, srtt stays at 100.
        assert_eq!(e.srtt_ms, Some(100.0));
        assert!(e.rttvar_ms < 50.0);
    }

    #[test]
    fn rto_respects_min_floor() {
        let mut e = ep();
        for _ in 0..20 {
            e.rtt_sample(SimDuration::from_millis(5));
        }
        assert_eq!(e.rto, SimDuration::from_millis(200));
    }

    #[test]
    fn in_order_receive_delivers_and_delays_ack() {
        let mut e = ep();
        let (bytes, policy) = e.accept(0, 1460, false, false);
        assert_eq!(bytes, 1460);
        assert_eq!(e.rcv_nxt, 1460);
        assert_eq!(policy, AckPolicy::Delayed);
    }

    #[test]
    fn second_segment_acks_immediately() {
        let mut e = ep();
        let (_, p1) = e.accept(0, 1460, false, false);
        assert_eq!(p1, AckPolicy::Delayed);
        e.delack.arm(SimTime::from_millis(200), 0); // the net layer arms it
        let (_, p2) = e.accept(1460, 1460, false, false);
        assert_eq!(p2, AckPolicy::Immediate);
    }

    #[test]
    fn push_acks_immediately() {
        let mut e = ep();
        let (_, p) = e.accept(0, 400, true, false);
        assert_eq!(p, AckPolicy::Immediate);
    }

    #[test]
    fn out_of_order_parks_then_drains() {
        let mut e = ep();
        let (bytes, p) = e.accept(1460, 1460, false, false);
        assert_eq!(bytes, 0, "a parked segment delivers nothing yet");
        assert_eq!(p, AckPolicy::Immediate); // dup-ack for the gap
        assert_eq!(e.rcv_nxt, 0);
        let (bytes, p2) = e.accept(0, 1460, false, false);
        assert_eq!(bytes, 2920, "both segments delivered in order");
        assert_eq!(e.rcv_nxt, 2920);
        assert_eq!(p2, AckPolicy::Immediate); // filled a gap
        assert!(e.ooo.is_empty());
    }

    #[test]
    fn duplicate_segments_reack_but_do_not_redeliver() {
        let mut e = ep();
        let (first, _) = e.accept(0, 1460, false, false);
        assert_eq!(first, 1460);
        let (again, p2) = e.accept(0, 1460, false, false);
        assert_eq!(again, 0);
        assert_eq!(p2, AckPolicy::Immediate);
        assert_eq!(e.rcv_nxt, 1460);
    }

    #[test]
    fn overlapping_retransmission_delivers_only_fresh_bytes() {
        let mut e = ep();
        e.accept(0, 1460, false, false);
        // Retransmission covering [0, 2920): only [1460, 2920) is fresh.
        let (bytes, _) = e.accept(0, 2920, false, false);
        assert_eq!(bytes, 1460);
        assert_eq!(e.rcv_nxt, 2920);
    }

    #[test]
    fn fin_consumes_one_sequence_number() {
        let mut e = ep();
        let (bytes, p) = e.accept(0, 0, false, true);
        assert_eq!(bytes, 0, "the FIN advances rcv_nxt but carries no byte");
        assert_eq!(p, AckPolicy::Immediate);
        assert_eq!(e.rcv_nxt, 1);
        assert!(e.peer_fin_rcvd);
        // A parked FIN drained behind the data it waited for.
        let mut e = ep();
        assert_eq!(e.accept(1460, 0, false, true).0, 0);
        assert_eq!(e.accept(0, 1460, false, false).0, 1460);
        assert_eq!(e.rcv_nxt, 1461);
        assert!(e.peer_fin_rcvd);
    }

    type Q = simcore::EventQueue<(&'static str, u64)>;

    /// Arms `timer` for `at` the way the net layer does: reserve a
    /// sequence number, schedule only when the timer asks for it.
    fn arm_on(q: &mut Q, timer: &mut Timer, at: SimTime) {
        let seq = q.reserve_seq();
        if timer.arm(at, seq) {
            q.schedule_reserved(at, seq, ("timer", seq));
        }
    }

    /// Pops every event, re-queueing the timer's early pops; returns the
    /// events that did work, in pop order ("fire" for the timer).
    fn run_timer(q: &mut Q, timer: &mut Timer) -> Vec<(SimTime, &'static str)> {
        let mut out = Vec::new();
        while let Some((now, (label, seq))) = q.pop() {
            if label != "timer" {
                out.push((now, label));
                continue;
            }
            match timer.pop(now, seq) {
                TimerPop::Fire => out.push((now, "fire")),
                TimerPop::Requeue { at, seq } => q.schedule_reserved(at, seq, ("timer", seq)),
                TimerPop::Noop => {}
            }
        }
        out
    }

    #[test]
    fn rearming_later_requeues_the_early_pop_at_the_reserved_position() {
        let ms = SimTime::from_millis;
        let (mut q, mut t) = (Q::new(), Timer::default());
        arm_on(&mut q, &mut t, ms(10)); // seq 0: scheduled
        arm_on(&mut q, &mut t, ms(30)); // seq 1: only moves the deadline
        assert_eq!(q.len(), 1, "a later re-arm must not queue a second event");
        let (now, (_, seq)) = q.pop().unwrap();
        assert_eq!((now, seq), (ms(10), 0));
        assert_eq!(t.pop(now, seq), TimerPop::Requeue { at: ms(30), seq: 1 });
        q.schedule_reserved(ms(30), 1, ("timer", 1));
        assert_eq!(run_timer(&mut q, &mut t), vec![(ms(30), "fire")]);
        assert!(!t.is_armed(), "a fired timer is disarmed");
    }

    #[test]
    fn rearming_earlier_supersedes_the_queued_event() {
        let ms = SimTime::from_millis;
        let (mut q, mut t) = (Q::new(), Timer::default());
        arm_on(&mut q, &mut t, ms(30)); // seq 0
        arm_on(&mut q, &mut t, ms(10)); // seq 1: earlier, so scheduled
        assert_eq!(q.len(), 2);
        let (now, (_, seq)) = q.pop().unwrap();
        assert_eq!((now, seq), (ms(10), 1));
        assert_eq!(t.pop(now, seq), TimerPop::Fire);
        let (now, (_, seq)) = q.pop().unwrap();
        assert_eq!((now, seq), (ms(30), 0));
        assert_eq!(
            t.pop(now, seq),
            TimerPop::Noop,
            "the superseded event must do nothing"
        );
    }

    #[test]
    fn a_disarmed_timers_pop_does_nothing() {
        let ms = SimTime::from_millis;
        let (mut q, mut t) = (Q::new(), Timer::default());
        arm_on(&mut q, &mut t, ms(10));
        t.disarm();
        assert!(!t.is_armed());
        let (now, (_, seq)) = q.pop().unwrap();
        assert_eq!(t.pop(now, seq), TimerPop::Noop);
        // Re-arming after the pop schedules afresh.
        arm_on(&mut q, &mut t, ms(20));
        assert_eq!(run_timer(&mut q, &mut t), vec![(ms(20), "fire")]);
    }

    #[test]
    fn a_same_instant_rearm_fires_after_events_scheduled_between_the_arms() {
        // The eager scheme queued (10 ms, 0) [stale], (10 ms, 1) "x" and
        // (10 ms, 2) [fires]: the timer must fire after "x".
        let ms = SimTime::from_millis;
        let (mut q, mut t) = (Q::new(), Timer::default());
        arm_on(&mut q, &mut t, ms(10)); // seq 0
        q.schedule_at(ms(10), ("x", 0)); // seq 1
        arm_on(&mut q, &mut t, ms(10)); // seq 2: same deadline, no event
        assert_eq!(q.len(), 2);
        assert_eq!(
            run_timer(&mut q, &mut t),
            vec![(ms(10), "x"), (ms(10), "fire")]
        );
    }

    #[test]
    fn all_acked_tracks_fin() {
        let mut e = ep();
        e.push_chunk(1000, Marker::Static, 1);
        assert!(!e.all_acked());
        e.snd_una = 1000;
        assert!(e.all_acked());
        e.fin_pending = true;
        assert!(!e.all_acked());
        e.fin_sent = true;
        e.snd_una = 1001;
        assert!(e.all_acked());
    }
}
