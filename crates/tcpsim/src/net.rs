//! The network: connections, links, the event loop, and the application
//! interface.
//!
//! [`Sim`] couples a [`Net`] (all TCP/link state) with a user [`App`] (the
//! protocol-above-TCP state machine — in this workspace, clients,
//! front-end proxies and back-end data centers). Events are processed one
//! at a time; each may queue application callbacks, which are delivered
//! with `&mut Net` so handlers can immediately send data, open
//! connections, close, or arm timers.

use crate::endpoint::{AckPolicy, AckReaction, Endpoint, TcpState, Timer, TimerPop};
use crate::opts::TcpOptions;
use crate::segment::{Marker, MetaSpan, PktKind, Segment, SpanVec};
use crate::trace::{Capture, PktDir};
use simcore::dist::{Dist, Sampler};
use simcore::queue::EventQueue;
use simcore::rng::Rng;
use simcore::telemetry::MetricsRegistry;
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifier of a simulated host (assigned by the application).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a connection: its open ordinal (0 for the first
/// connection a [`Net`] opens, 1 for the next, ...). Ordinals are never
/// reused, even after the connection's slot is reclaimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Which side of a connection; `A` is the initiator (client side).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum End {
    /// The initiator.
    A,
    /// The acceptor.
    B,
}

impl End {
    /// Array index for this end.
    pub fn idx(self) -> usize {
        match self {
            End::A => 0,
            End::B => 1,
        }
    }

    /// The opposite end.
    pub fn other(self) -> End {
        match self {
            End::A => End::B,
            End::B => End::A,
        }
    }
}

/// A span of bytes delivered in order to the application (re-export of
/// [`MetaSpan`] under the name the `App` trait uses).
pub type DeliveredSpan = MetaSpan;

/// Path parameters between the two endpoints of a connection.
#[derive(Clone, Debug)]
pub struct PathParams {
    /// Fixed one-way delay in ms (propagation + base).
    pub base_owd_ms: f64,
    /// Per-packet one-way jitter in ms (non-negative distribution).
    pub jitter_ms: Dist,
    /// Per-packet, per-direction loss probability.
    pub loss: f64,
    /// Bottleneck bandwidth, Mbit/s.
    pub bw_mbps: f64,
}

impl PathParams {
    /// An ideal loss-free path with the given RTT and ample bandwidth —
    /// the workhorse of unit tests.
    pub fn ideal(rtt_ms: f64) -> PathParams {
        PathParams {
            base_owd_ms: rtt_ms / 2.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.0,
            bw_mbps: 10_000.0,
        }
    }

    /// Same as [`PathParams::ideal`] but with a loss rate.
    pub fn lossy(rtt_ms: f64, loss: f64) -> PathParams {
        PathParams {
            loss,
            ..PathParams::ideal(rtt_ms)
        }
    }

    /// One-way serialization delay of a packet of `bytes`.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_millis_f64((bytes as f64 * 8.0) / (self.bw_mbps * 1000.0))
    }
}

/// What part of the topology a [`LinkFault`] applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every packet to or from this node (a host/site outage).
    Node(NodeId),
    /// Packets on connections between these two nodes, either direction
    /// (a single path episode).
    Link(NodeId, NodeId),
}

impl FaultTarget {
    fn matches(&self, nodes: [NodeId; 2]) -> bool {
        match *self {
            FaultTarget::Node(n) => nodes[0] == n || nodes[1] == n,
            FaultTarget::Link(a, b) => {
                (nodes[0] == a && nodes[1] == b) || (nodes[0] == b && nodes[1] == a)
            }
        }
    }
}

/// The drop behaviour of a [`LinkFault`] while its window is active.
#[derive(Clone, Copy, Debug)]
pub enum LinkFaultKind {
    /// Drop every matching packet (outage).
    Blackhole,
    /// A Gilbert–Elliott two-state chain advanced once per matching
    /// packet: in the good state packets pass; entering the bad state
    /// (probability `p_enter` per packet) drops packets with
    /// probability `bad_loss` until the chain exits (probability
    /// `p_exit` per packet) — loss arrives in bursts, the pattern that
    /// defeats fast retransmit and forces RTO recovery.
    Burst {
        /// Per-packet probability of entering the bad state.
        p_enter: f64,
        /// Per-packet probability of leaving the bad state.
        p_exit: f64,
        /// Drop probability while in the bad state.
        bad_loss: f64,
    },
}

/// A scheduled fault on part of the topology: within `[start, end)`,
/// matching packets are subject to `kind`. All randomness is drawn from
/// the network's dedicated fault stream (`"tcpsim/fault"`), so a net
/// with no faults installed — or whose fault windows never activate —
/// produces byte-identical trajectories to one built before this
/// machinery existed.
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// What the fault applies to.
    pub target: FaultTarget,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Drop behaviour inside the window.
    pub kind: LinkFaultKind,
    /// Gilbert–Elliott chain state (burst faults only).
    bad: bool,
}

impl LinkFault {
    /// A total outage of one node over a window.
    pub fn node_outage(node: NodeId, start: SimTime, end: SimTime) -> LinkFault {
        LinkFault {
            target: FaultTarget::Node(node),
            start,
            end,
            kind: LinkFaultKind::Blackhole,
            bad: false,
        }
    }

    /// A total outage of one path over a window.
    pub fn link_outage(a: NodeId, b: NodeId, start: SimTime, end: SimTime) -> LinkFault {
        LinkFault {
            target: FaultTarget::Link(a, b),
            start,
            end,
            kind: LinkFaultKind::Blackhole,
            bad: false,
        }
    }

    /// A Gilbert–Elliott burst-loss episode on one path over a window.
    pub fn burst_loss(
        a: NodeId,
        b: NodeId,
        start: SimTime,
        end: SimTime,
        p_enter: f64,
        p_exit: f64,
        bad_loss: f64,
    ) -> LinkFault {
        LinkFault {
            target: FaultTarget::Link(a, b),
            start,
            end,
            kind: LinkFaultKind::Burst {
                p_enter,
                p_exit,
                bad_loss,
            },
            bad: false,
        }
    }
}

/// The application protocol driven by the simulator.
///
/// All callbacks receive `&mut Net` and may call [`Net::open`],
/// [`Net::send`], [`Net::close`], [`Net::set_timer`] freely.
pub trait App {
    /// The connection completed its handshake at `end`.
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End);
    /// In-order data arrived at `end`.
    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]);
    /// The peer's FIN was consumed at `end` (stream fully received).
    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let _ = (net, conn, end);
    }
    /// An application timer armed with [`Net::set_timer`] fired.
    fn on_timer(&mut self, net: &mut Net, token: u64) {
        let _ = (net, token);
    }
}

enum Ev {
    Deliver { conn: ConnId, to: End, seg: Segment },
    // A timer event carries the queue sequence number it was scheduled
    // with, which names it to `Timer::pop`.
    Rto { conn: ConnId, end: End, seq: u64 },
    DelAck { conn: ConnId, end: End, seq: u64 },
    AppTimer { token: u64 },
}

/// Which of an endpoint's two timers.
#[derive(Clone, Copy)]
enum TimerKind {
    Rto,
    DelAck,
}

impl TimerKind {
    fn of(self, ep: &mut Endpoint) -> &mut Timer {
        match self {
            TimerKind::Rto => &mut ep.rto_timer,
            TimerKind::DelAck => &mut ep.delack,
        }
    }

    fn event(self, conn: ConnId, end: End, seq: u64) -> Ev {
        match self {
            TimerKind::Rto => Ev::Rto { conn, end, seq },
            TimerKind::DelAck => Ev::DelAck { conn, end, seq },
        }
    }
}

enum Cb {
    Established {
        conn: ConnId,
        end: End,
    },
    Data {
        conn: ConnId,
        end: End,
        spans: SpanVec,
    },
    Fin {
        conn: ConnId,
        end: End,
    },
    Timer {
        token: u64,
    },
}

struct Conn {
    nodes: [NodeId; 2],
    path: PathParams,
    rng: Rng,
    busy_until: [SimTime; 2],
    // Highest arrival time scheduled per direction: a single path is a
    // FIFO queue, so jitter may stretch gaps but never reorder packets.
    last_arrival: [SimTime; 2],
    ep: [Endpoint; 2],
    syn_time: SimTime,
    handshake_retx: bool,
    fin_cb_fired: [bool; 2],
    aborted: bool,
    /// The opener's packets, while the connection is captured
    /// (opened with [`Net::open_captured`]) and not yet released.
    capture: Option<Capture>,
    /// Queued `Deliver`/`Rto`/`DelAck` events naming this connection.
    /// Each timer has one live event at most, plus any that an earlier
    /// re-arm superseded and that have not popped yet.
    pending: u32,
    /// The application called [`Net::release`].
    released: bool,
}

impl Conn {
    /// True once the slot can be reused: the application has released
    /// the connection, it carries no more traffic (both ends `Done`, or
    /// aborted), and no queued event still names it.
    fn reclaimable(&self) -> bool {
        self.released
            && self.pending == 0
            && (self.aborted || self.ep.iter().all(|e| e.state == TcpState::Done))
    }

    /// Appends `end`'s observation of `seg` to the capture when `end` is
    /// the captured opener; returns whether a packet was recorded.
    fn observe(&mut self, end: End, dir: PktDir, now: SimTime, seg: &Segment) -> bool {
        match &mut self.capture {
            Some(capture) if end == End::A => {
                capture.record(now, dir, seg);
                true
            }
            _ => false,
        }
    }
}

/// `slot_of` entry of a connection whose slot was reclaimed.
const RECLAIMED: u32 = u32::MAX;

/// Events one simulation may process before it is declared runaway.
const MAX_EVENTS: u64 = 2_000_000_000;

/// All network state: connections, event queue, client captures.
pub struct Net {
    q: EventQueue<Ev>,
    // Connection slab: `conns` holds the live connections' slots,
    // `slot_of` maps each open ordinal (`ConnId`) to its slot or to
    // `RECLAIMED`, and reclaimed slots wait in `free_slots` for the next
    // open. `conns` only grows when every slot is live, so its length
    // is the peak number of live connections.
    conns: Vec<Conn>,
    slot_of: Vec<u32>,
    free_slots: Vec<u32>,
    // Client-vantage tracing: how many packets every capture has
    // recorded so far, and the heap bytes of every capture handed over.
    trace_recorded: u64,
    capture_bytes: u64,
    cbs: VecDeque<Cb>,
    app_rng: Rng,
    // Fault-injection state: scheduled link/node faults and the dedicated
    // RNG stream they draw from. No fault ⇒ no draw ⇒ every other stream
    // is untouched.
    faults: Vec<LinkFault>,
    fault_rng: Rng,
    seed: u64,
    // Observe-only telemetry: records retransmit/cwnd-reset counts and
    // handshake RTTs but draws no randomness and schedules nothing, so
    // it cannot perturb the simulated trajectory.
    metrics: MetricsRegistry,
    // The event mix: popped events by kind, and what the timer events
    // did. Plain fields, stamped into `metrics` by `take_metrics`, so
    // the per-event cost is an increment.
    mix: EventMix,
}

/// Popped events by kind, and the timer events that did no work.
#[derive(Default)]
struct EventMix {
    deliver: u64,
    rto: u64,
    delack: u64,
    app_timer: u64,
    /// Timer events that popped before the deadline and were queued
    /// again at it.
    timer_requeues: u64,
    /// Timer events that popped superseded or disarmed.
    timer_noop_pops: u64,
}

impl Net {
    fn new(seed: u64) -> Net {
        Net {
            q: EventQueue::new(),
            conns: Vec::new(),
            slot_of: Vec::new(),
            free_slots: Vec::new(),
            trace_recorded: 0,
            capture_bytes: 0,
            cbs: VecDeque::new(),
            app_rng: Rng::from_seed_and_name(seed, "tcpsim/app"),
            faults: Vec::new(),
            fault_rng: Rng::from_seed_and_name(seed, "tcpsim/fault"),
            seed,
            metrics: MetricsRegistry::new(),
            mix: EventMix::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// A generator for application-level randomness (its own stream).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.app_rng
    }

    /// Packet events recorded by every capture since creation (taken
    /// ones included).
    pub fn trace_recorded(&self) -> u64 {
        self.trace_recorded
    }

    /// The transport-layer telemetry registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the telemetry registry (toggle the runtime
    /// gate, record app-level metrics into the same document).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Harvests the telemetry registry, stamping the end-of-run gauges
    /// (event-queue and connection slab high-water marks, events
    /// processed, trace records and the captures' heap bytes) first.
    /// Leaves an empty registry with the same gate.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        if self.metrics.is_enabled() {
            self.metrics
                .set_gauge("tcpsim.slab_high_water_slots", self.q.slab_slots() as f64);
            self.metrics
                .set_gauge("tcpsim.conn_slots_hiwater", self.conns.len() as f64);
            self.metrics
                .set_gauge("tcpsim.events_processed", self.q.events_processed() as f64);
            self.metrics
                .set_gauge("tcpsim.trace_recorded_pkts", self.trace_recorded as f64);
            self.metrics
                .set_gauge("tcpsim.capture_bytes", self.capture_bytes as f64);
            // The event mix: the four kinds sum to `events_processed`.
            let mix = &self.mix;
            for (name, n) in [
                ("tcpsim.events_deliver", mix.deliver),
                ("tcpsim.events_rto", mix.rto),
                ("tcpsim.events_delack", mix.delack),
                ("tcpsim.events_app_timer", mix.app_timer),
                ("tcpsim.timer_requeues", mix.timer_requeues),
                ("tcpsim.timer_noop_pops", mix.timer_noop_pops),
            ] {
                self.metrics.set_gauge(name, n as f64);
            }
            // Timing-wheel scheduler health: cascade traffic, overflow
            // promotions, and the bucket-occupancy high-water mark.
            self.metrics
                .set_gauge("tcpsim.wheel_cascade_moves", self.q.cascade_moves() as f64);
            self.metrics.set_gauge(
                "tcpsim.wheel_overflow_promotions",
                self.q.overflow_promotions() as f64,
            );
            self.metrics.set_gauge(
                "tcpsim.wheel_max_drain_batch",
                self.q.max_drain_batch() as f64,
            );
            // Horizon demotions signal a pathological schedule pattern
            // (far-future commit then near traffic); emit only when one
            // fired so a clean run's metrics.tsv stays clean.
            if self.q.horizon_demotions() > 0 {
                self.metrics.set_gauge(
                    "tcpsim.wheel_horizon_demotions",
                    self.q.horizon_demotions() as f64,
                );
            }
            // Release-mode past-schedule clamps are a latent logic bug;
            // only emit the counter when one actually fired so a clean
            // run's metrics.tsv stays clean.
            if self.q.sched_past_clamps() > 0 {
                self.metrics
                    .add("tcpsim.sched_past_clamps", self.q.sched_past_clamps());
            }
        }
        self.metrics.take()
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// Number of events still waiting in the queue (0 ⇔ the simulation
    /// has quiesced).
    pub fn pending_events(&self) -> usize {
        self.q.len()
    }

    /// Virtual time of the earliest pending event, if any. Drivers that
    /// step the simulation in fixed-size time chunks need this to skip
    /// ahead when the next event lies beyond the current chunk —
    /// otherwise a lone far-future timer (a hedge or fault window that
    /// outlived its query) would stall the chunk loop forever.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    /// Opens a connection from node `a` to node `b` over `path`; the SYN
    /// leaves immediately. `session` names the connection's random
    /// stream (the query id in the measurement harness). Nothing is
    /// captured; see [`Net::open_captured`].
    pub fn open(
        &mut self,
        a: NodeId,
        b: NodeId,
        path: PathParams,
        opts_a: TcpOptions,
        opts_b: TcpOptions,
        session: u64,
    ) -> ConnId {
        self.open_with([a, b], path, [opts_a, opts_b], session, false)
    }

    /// Like [`Net::open`], but the opener's view is captured from its
    /// first SYN on: every packet `a` transmits,
    /// receives or loses on this connection, until [`Net::release`].
    pub fn open_captured(
        &mut self,
        a: NodeId,
        b: NodeId,
        path: PathParams,
        opts_a: TcpOptions,
        opts_b: TcpOptions,
        session: u64,
    ) -> ConnId {
        self.open_with([a, b], path, [opts_a, opts_b], session, true)
    }

    /// The application is done with `conn`: hands over its capture and
    /// stops recording it. `None` means nothing was captured: the
    /// connection was opened with [`Net::open`], or it was already
    /// released.
    ///
    /// The connection keeps running (a closing handshake finishes, an
    /// aborted one stays silent), but its slot is reclaimed once both
    /// ends are `Done` or it was aborted, and no queued event names it.
    /// After that [`Net::is_aborted`] reads true and `release` returns
    /// `None`; every other call on the id panics. A connection that is
    /// never released is never reclaimed.
    pub fn release(&mut self, conn: ConnId) -> Option<Capture> {
        let slot = self.slot_of[conn.0 as usize];
        if slot == RECLAIMED {
            return None;
        }
        let c = &mut self.conns[slot as usize];
        c.released = true;
        let mut capture = c.capture.take();
        if let Some(capture) = &mut capture {
            // Completions may wait a while for their consumer: they
            // hold only what they recorded.
            capture.shrink_to_fit();
            self.capture_bytes += capture.heap_bytes() as u64;
        }
        self.try_reclaim(conn);
        capture
    }

    /// The slot of a connection that has not been reclaimed.
    fn slot(&self, conn: ConnId) -> usize {
        let slot = self.slot_of[conn.0 as usize];
        assert!(
            slot != RECLAIMED,
            "connection {} used after it was released and reclaimed",
            conn.0
        );
        slot as usize
    }

    /// Puts `conn`'s slot on the free list if it is reclaimable.
    fn try_reclaim(&mut self, conn: ConnId) {
        let slot = self.slot(conn);
        if self.conns[slot].reclaimable() {
            self.slot_of[conn.0 as usize] = RECLAIMED;
            self.free_slots.push(slot as u32);
        }
    }

    /// A queued event naming `conn` was handled and its callbacks ran.
    fn retire_event(&mut self, conn: ConnId) {
        let slot = self.slot(conn);
        self.conns[slot].pending -= 1;
        self.try_reclaim(conn);
    }

    fn open_with(
        &mut self,
        nodes: [NodeId; 2],
        path: PathParams,
        opts: [TcpOptions; 2],
        session: u64,
        captured: bool,
    ) -> ConnId {
        let cid = ConnId(self.slot_of.len() as u32);
        let rng = Rng::from_seed_and_name(self.seed, &format!("tcpsim/conn/{}/{}", cid.0, session));
        let [opts_a, opts_b] = opts;
        let mut conn = Conn {
            nodes,
            path,
            rng,
            busy_until: [SimTime::ZERO; 2],
            last_arrival: [SimTime::ZERO; 2],
            ep: [Endpoint::new(opts_a), Endpoint::new(opts_b)],
            syn_time: self.now(),
            handshake_retx: false,
            fin_cb_fired: [false, false],
            aborted: false,
            capture: captured.then(|| Capture::new(nodes[0], cid)),
            pending: 0,
            released: false,
        };
        conn.ep[0].state = TcpState::SynSent;
        conn.ep[0].syn_sent_count = 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.conns[slot as usize] = conn;
                slot
            }
            None => {
                self.conns.push(conn);
                (self.conns.len() - 1) as u32
            }
        };
        self.slot_of.push(slot);
        let syn = self.make_ctl(cid, End::A, PktKind::Syn);
        self.transmit(cid, End::A, syn);
        self.arm_rto(cid, End::A);
        cid
    }

    /// Appends `len` application bytes tagged `(marker, content)` to the
    /// `end` side's send stream and transmits as the window allows. Does
    /// nothing on an aborted connection.
    pub fn send(&mut self, conn: ConnId, end: End, len: u64, marker: Marker, content: u64) {
        let slot = self.slot(conn);
        let c = &mut self.conns[slot];
        if c.aborted {
            return;
        }
        c.ep[end.idx()].push_chunk(len, marker, content);
        self.pump(conn, end);
    }

    /// Requests an orderly close from `end` (FIN after all queued data).
    /// Does nothing on an aborted connection.
    pub fn close(&mut self, conn: ConnId, end: End) {
        let slot = self.slot(conn);
        let c = &mut self.conns[slot];
        if c.aborted {
            return;
        }
        c.ep[end.idx()].fin_pending = true;
        self.pump(conn, end);
    }

    /// Arms an application timer; `token` is returned in
    /// [`App::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.q.schedule_in(delay, Ev::AppTimer { token });
    }

    /// Takes a block of `n` event sequence numbers for application
    /// timers armed later with [`Net::set_timer_reserved`]; returns the
    /// first. Member `i` of the block is `first + i`.
    pub fn reserve_timer_seqs(&mut self, n: u64) -> u64 {
        self.q.reserve_seqs(n)
    }

    /// Arms an application timer at `at` with a sequence number from
    /// [`Net::reserve_timer_seqs`]. It fires exactly where a
    /// [`Net::set_timer`] call made at reservation time would have, as
    /// long as it is armed before the clock passes `(at, seq)`. Each
    /// number is used once.
    pub fn set_timer_reserved(&mut self, at: SimTime, seq: u64, token: u64) {
        self.q.schedule_reserved(at, seq, Ev::AppTimer { token });
    }

    /// TCP state of one side.
    pub fn state(&self, conn: ConnId, end: End) -> TcpState {
        self.conns[self.slot(conn)].ep[end.idx()].state
    }

    /// Congestion window (bytes) of one side — exposed for tests and the
    /// split-TCP ablation instrumentation.
    pub fn cwnd(&self, conn: ConnId, end: End) -> f64 {
        self.conns[self.slot(conn)].ep[end.idx()].cwnd
    }

    /// Smoothed RTT estimate of one side, in ms.
    pub fn srtt_ms(&self, conn: ConnId, end: End) -> Option<f64> {
        self.conns[self.slot(conn)].ep[end.idx()].srtt_ms
    }

    /// Bytes delivered in order to the application at `end`.
    pub fn delivered_bytes(&self, conn: ConnId, end: End) -> u64 {
        self.conns[self.slot(conn)].ep[end.idx()].rcv_nxt
    }

    /// Loss-recovery counters of one side.
    pub fn conn_stats(&self, conn: ConnId, end: End) -> crate::endpoint::ConnStats {
        self.conns[self.slot(conn)].ep[end.idx()].stats
    }

    /// Installs a scheduled fault. Faults are consulted on every packet
    /// transmission while their window is active; an empty fault list
    /// costs nothing and draws no randomness.
    pub fn add_link_fault(&mut self, fault: LinkFault) {
        self.faults.push(fault);
    }

    /// Tears a connection down immediately and silently: both endpoints
    /// stop sending, pending retransmission/delayed-ACK timers are
    /// disarmed, in-flight packets are discarded on arrival, and **no**
    /// `on_fin` callback fires. This models a crashed peer or a proxy
    /// discarding a connection it has declared dead — the abstraction
    /// failure recovery needs: a reconnect after `abort` starts from a
    /// cold congestion window. Later [`Net::send`] and [`Net::close`]
    /// calls on the connection do nothing.
    pub fn abort(&mut self, conn: ConnId) {
        let slot = self.slot(conn);
        let c = &mut self.conns[slot];
        c.aborted = true;
        for i in 0..2 {
            c.ep[i].rto_timer.disarm();
            c.ep[i].delack.disarm();
            c.fin_cb_fired[i] = true;
        }
    }

    /// True when [`Net::abort`] was called on this connection, or once
    /// its slot was reclaimed: either way it carries no more traffic.
    pub fn is_aborted(&self, conn: ConnId) -> bool {
        match self.slot_of[conn.0 as usize] {
            RECLAIMED => true,
            slot => self.conns[slot as usize].aborted,
        }
    }

    // ---- internals ----

    fn make_ctl(&mut self, cid: ConnId, from: End, kind: PktKind) -> Segment {
        let s = self.slot(cid);
        let c = &self.conns[s];
        let ep = &c.ep[from.idx()];
        Segment {
            kind,
            seq: ep.snd_nxt,
            len: 0,
            ack: ep.rcv_nxt,
            push: false,
            wnd: ep.opts.rwnd,
            meta: SpanVec::new(),
        }
    }

    fn transmit(&mut self, cid: ConnId, from: End, seg: Segment) {
        let s = self.slot(cid);
        let now = self.now();
        let c = &mut self.conns[s];
        if c.aborted {
            return;
        }
        self.trace_recorded += c.observe(from, PktDir::Tx, now, &seg) as u64;
        c.ep[from.idx()].last_send = now;
        // Serialization at the bottleneck (per direction).
        let ser = c.path.serialization(seg.wire_bytes());
        let dep_start = if c.busy_until[from.idx()] > now {
            c.busy_until[from.idx()]
        } else {
            now
        };
        let dep_end = dep_start + ser;
        c.busy_until[from.idx()] = dep_end;
        // Scheduled faults first (they model the outside world failing,
        // not this path's own loss process). Checked without any RNG
        // draw unless a probabilistic fault window is active, so an
        // empty fault list leaves all trajectories untouched.
        let mut fault_drop = false;
        for f in self.faults.iter_mut() {
            if now < f.start || now >= f.end || !f.target.matches(c.nodes) {
                continue;
            }
            match f.kind {
                LinkFaultKind::Blackhole => fault_drop = true,
                LinkFaultKind::Burst {
                    p_enter,
                    p_exit,
                    bad_loss,
                } => {
                    if f.bad {
                        if self.fault_rng.chance(p_exit) {
                            f.bad = false;
                        }
                    } else if self.fault_rng.chance(p_enter) {
                        f.bad = true;
                    }
                    if f.bad && self.fault_rng.chance(bad_loss) {
                        fault_drop = true;
                    }
                }
            }
        }
        // Otherwise the path's own loss coin (after consuming the wire).
        if fault_drop || c.rng.chance(c.path.loss) {
            self.trace_recorded += c.observe(from, PktDir::Drop, now, &seg) as u64;
            return;
        }
        let jitter = c.path.jitter_ms.sample(&mut c.rng).max(0.0);
        let mut arrival = dep_end + SimDuration::from_millis_f64(c.path.base_owd_ms + jitter);
        // FIFO per direction: never deliver before an earlier packet.
        let floor = c.last_arrival[from.idx()] + SimDuration::from_nanos(1);
        if arrival < floor {
            arrival = floor;
        }
        c.last_arrival[from.idx()] = arrival;
        c.pending += 1;
        self.q.schedule_at(
            arrival,
            Ev::Deliver {
                conn: cid,
                to: from.other(),
                seg,
            },
        );
    }

    /// Arms `end`'s `kind` timer to expire `delay` from now. It always
    /// reserves a sequence number, and schedules an event only when the
    /// timer asks for one ([`Timer::arm`]).
    fn arm_timer(&mut self, cid: ConnId, end: End, kind: TimerKind, delay: SimDuration) {
        let s = self.slot(cid);
        let at = self.now() + delay;
        let seq = self.q.reserve_seq();
        let c = &mut self.conns[s];
        debug_assert!(!c.aborted, "timer armed on aborted connection {}", cid.0);
        if kind.of(&mut c.ep[end.idx()]).arm(at, seq) {
            c.pending += 1;
            self.q.schedule_reserved(at, seq, kind.event(cid, end, seq));
        }
    }

    /// Handles a popped `kind` timer event: re-queues it at a deadline
    /// that moved later, and returns true when the timer fired.
    fn pop_timer(&mut self, cid: ConnId, end: End, kind: TimerKind, seq: u64) -> bool {
        let s = self.slot(cid);
        let now = self.now();
        let c = &mut self.conns[s];
        match kind.of(&mut c.ep[end.idx()]).pop(now, seq) {
            TimerPop::Fire => true,
            TimerPop::Requeue { at, seq } => {
                c.pending += 1;
                self.mix.timer_requeues += 1;
                self.q.schedule_reserved(at, seq, kind.event(cid, end, seq));
                false
            }
            TimerPop::Noop => {
                self.mix.timer_noop_pops += 1;
                false
            }
        }
    }

    fn arm_rto(&mut self, cid: ConnId, end: End) {
        let rto = self.conns[self.slot(cid)].ep[end.idx()].rto;
        self.arm_timer(cid, end, TimerKind::Rto, rto);
    }

    fn cancel_rto(&mut self, cid: ConnId, end: End) {
        let s = self.slot(cid);
        self.conns[s].ep[end.idx()].rto_timer.disarm();
    }

    /// Sends fresh data as the window allows; returns true if anything
    /// payload-bearing (or FIN) left.
    fn pump(&mut self, cid: ConnId, end: End) -> bool {
        let s = self.slot(cid);
        let now = self.now();
        let mut sent_any = false;
        loop {
            let c = &mut self.conns[s];
            let ep = &mut c.ep[end.idx()];
            if ep.state != TcpState::Established {
                break;
            }
            ep.maybe_idle_reset(now);
            let usable = ep.usable_window();
            if ep.snd_nxt < ep.stream_len {
                let remaining = ep.stream_len - ep.snd_nxt;
                let len = (ep.opts.mss as u64).min(remaining) as u32;
                if (len as u64) > usable {
                    break;
                }
                let seq = ep.snd_nxt;
                let meta = ep.meta_for_range(seq, len);
                let push = ep.range_ends_chunk(seq, len);
                if ep.rtt_probe.is_none() {
                    ep.rtt_probe = Some((seq + len as u64, now));
                }
                ep.snd_nxt += len as u64;
                let seg = Segment {
                    kind: PktKind::Data,
                    seq,
                    len,
                    ack: ep.rcv_nxt,
                    push,
                    wnd: ep.opts.rwnd,
                    meta,
                };
                // A data segment carries the ACK: cancel any pending
                // delayed ACK.
                ep.delack.disarm();
                let need_arm = !ep.rto_timer.is_armed();
                self.transmit(cid, end, seg);
                if need_arm {
                    self.arm_rto(cid, end);
                }
                sent_any = true;
            } else if ep.fin_pending && !ep.fin_sent && usable > 0 {
                ep.fin_sent = true;
                ep.snd_nxt += 1;
                let seg = Segment {
                    kind: PktKind::Fin,
                    seq: ep.stream_len,
                    len: 0,
                    ack: ep.rcv_nxt,
                    push: true,
                    wnd: ep.opts.rwnd,
                    meta: SpanVec::new(),
                };
                ep.delack.disarm();
                let need_arm = !ep.rto_timer.is_armed();
                self.transmit(cid, end, seg);
                if need_arm {
                    self.arm_rto(cid, end);
                }
                sent_any = true;
            } else {
                break;
            }
        }
        sent_any
    }

    fn retransmit_una(&mut self, cid: ConnId, end: End) {
        let s = self.slot(cid);
        let c = &mut self.conns[s];
        let ep = &mut c.ep[end.idx()];
        if ep.in_flight() == 0 {
            return;
        }
        let seq = ep.snd_una;
        let seg = if seq >= ep.stream_len {
            // The unacked byte is the FIN.
            Segment {
                kind: PktKind::Fin,
                seq: ep.stream_len,
                len: 0,
                ack: ep.rcv_nxt,
                push: true,
                wnd: ep.opts.rwnd,
                meta: SpanVec::new(),
            }
        } else {
            let len = (ep.opts.mss as u64)
                .min(ep.stream_len - seq)
                .min(ep.snd_nxt - seq) as u32;
            let meta = ep.meta_for_range(seq, len);
            let push = ep.range_ends_chunk(seq, len);
            Segment {
                kind: PktKind::Data,
                seq,
                len,
                ack: ep.rcv_nxt,
                push,
                wnd: ep.opts.rwnd,
                meta,
            }
        };
        ep.rtt_probe = None; // Karn: no sample across retransmission
        ep.stats.retransmitted_segs += 1;
        self.metrics.inc("tcpsim.retransmit_segs");
        self.transmit(cid, end, seg);
        self.arm_rto(cid, end);
    }

    fn send_ack_now(&mut self, cid: ConnId, end: End) {
        let s = self.slot(cid);
        self.conns[s].ep[end.idx()].delack.disarm();
        let ack = self.make_ctl(cid, end, PktKind::Ack);
        self.transmit(cid, end, ack);
    }

    fn arm_delack(&mut self, cid: ConnId, end: End) {
        let ep = &self.conns[self.slot(cid)].ep[end.idx()];
        if !ep.delack.is_armed() {
            let dt = ep.opts.delack_timeout;
            self.arm_timer(cid, end, TimerKind::DelAck, dt);
        }
    }

    fn establish(&mut self, cid: ConnId, end: End) {
        let s = self.slot(cid);
        let c = &mut self.conns[s];
        let ep = &mut c.ep[end.idx()];
        if ep.state == TcpState::Established {
            return;
        }
        ep.state = TcpState::Established;
        self.cancel_rto(cid, end);
        // Handshake RTT sample (Karn: only if never retransmitted).
        let c = &mut self.conns[s];
        if end == End::A && !c.handshake_retx {
            let sample = self.q.now().saturating_since(c.syn_time);
            c.ep[end.idx()].rtt_sample(sample);
            self.metrics.observe_virt("tcpsim.handshake_rtt_ms", sample);
        }
        self.cbs.push_back(Cb::Established { conn: cid, end });
    }

    fn handle_deliver(&mut self, cid: ConnId, to: End, seg: Segment) {
        let s = self.slot(cid);
        let now = self.now();
        {
            let c = &mut self.conns[s];
            if c.aborted {
                // Packets in flight when the connection was torn down
                // arrive at a dead socket: discarded, unrecorded.
                return;
            }
            self.trace_recorded += c.observe(to, PktDir::Rx, now, &seg) as u64;
        }
        match seg.kind {
            PktKind::Syn => {
                let state = self.conns[s].ep[to.idx()].state;
                match state {
                    TcpState::Closed => {
                        self.conns[s].ep[to.idx()].state = TcpState::SynRcvd;
                        let sa = self.make_ctl(cid, to, PktKind::SynAck);
                        self.transmit(cid, to, sa);
                        self.arm_rto(cid, to);
                    }
                    TcpState::SynRcvd => {
                        // Duplicate SYN: resend SYN-ACK.
                        let sa = self.make_ctl(cid, to, PktKind::SynAck);
                        self.transmit(cid, to, sa);
                    }
                    _ => {}
                }
            }
            PktKind::SynAck => {
                let state = self.conns[s].ep[to.idx()].state;
                if state == TcpState::SynSent {
                    self.establish(cid, to);
                    let ack = self.make_ctl(cid, to, PktKind::Ack);
                    self.transmit(cid, to, ack);
                    // Data queued before the handshake completed can
                    // leave now.
                    self.pump(cid, to);
                } else if state == TcpState::Established {
                    // Our handshake ACK was lost; re-ack.
                    let ack = self.make_ctl(cid, to, PktKind::Ack);
                    self.transmit(cid, to, ack);
                }
            }
            PktKind::Ack | PktKind::Data | PktKind::Fin => {
                if self.conns[s].ep[to.idx()].state == TcpState::SynRcvd {
                    self.establish(cid, to);
                    self.pump(cid, to);
                }
                // --- sender-side: process the cumulative ACK ---
                let reaction = {
                    let ep = &mut self.conns[s].ep[to.idx()];
                    ep.on_ack(seg.ack, seg.wnd, now, seg.has_payload())
                };
                match reaction {
                    AckReaction::FastRetransmit | AckReaction::PartialRetransmit => {
                        if reaction == AckReaction::FastRetransmit {
                            self.metrics.inc("tcpsim.fast_retransmits");
                        }
                        self.retransmit_una(cid, to);
                    }
                    _ => {}
                }
                {
                    let ep = &self.conns[s].ep[to.idx()];
                    let flight = ep.in_flight();
                    let advanced = matches!(
                        reaction,
                        AckReaction::Advance | AckReaction::PartialRetransmit
                    );
                    if flight == 0 {
                        self.cancel_rto(cid, to);
                    } else if advanced {
                        self.arm_rto(cid, to);
                    }
                }
                self.pump(cid, to);
                // --- receiver-side: payload / FIN ---
                if seg.kind == PktKind::Data || seg.kind == PktKind::Fin {
                    let fin = seg.kind == PktKind::Fin;
                    let (spans, policy) = {
                        let ep = &mut self.conns[s].ep[to.idx()];
                        ep.accept(seg.seq, seg.len, seg.push, fin, seg.meta)
                    };
                    if !spans.is_empty() {
                        self.cbs.push_back(Cb::Data {
                            conn: cid,
                            end: to,
                            spans,
                        });
                    }
                    {
                        let c = &mut self.conns[s];
                        if c.ep[to.idx()].peer_fin_rcvd && !c.fin_cb_fired[to.idx()] {
                            c.fin_cb_fired[to.idx()] = true;
                            self.cbs.push_back(Cb::Fin { conn: cid, end: to });
                        }
                    }
                    match policy {
                        AckPolicy::Immediate => self.send_ack_now(cid, to),
                        AckPolicy::Delayed => self.arm_delack(cid, to),
                    }
                }
                // --- lifecycle: both sides done? ---
                let c = &mut self.conns[s];
                for i in 0..2 {
                    let done = c.ep[i].fin_sent && c.ep[i].all_acked() && c.ep[i].peer_fin_rcvd;
                    if done {
                        c.ep[i].state = TcpState::Done;
                    }
                }
            }
        }
    }

    /// The retransmission timer fired (and is now disarmed).
    fn handle_rto(&mut self, cid: ConnId, end: End) {
        let s = self.slot(cid);
        match self.conns[s].ep[end.idx()].state {
            TcpState::SynSent => {
                {
                    let c = &mut self.conns[s];
                    c.handshake_retx = true;
                    let ep = &mut c.ep[end.idx()];
                    ep.rto = ep.rto.saturating_mul(2).min(ep.opts.max_rto);
                    ep.syn_sent_count += 1;
                }
                let syn = self.make_ctl(cid, end, PktKind::Syn);
                self.transmit(cid, end, syn);
                self.arm_rto(cid, end);
            }
            TcpState::SynRcvd => {
                {
                    let c = &mut self.conns[s];
                    c.handshake_retx = true;
                    let ep = &mut c.ep[end.idx()];
                    ep.rto = ep.rto.saturating_mul(2).min(ep.opts.max_rto);
                }
                let sa = self.make_ctl(cid, end, PktKind::SynAck);
                self.transmit(cid, end, sa);
                self.arm_rto(cid, end);
            }
            TcpState::Established | TcpState::Done => {
                if self.conns[s].ep[end.idx()].in_flight() == 0 {
                    return;
                }
                self.conns[s].ep[end.idx()].on_rto_fire();
                // RTO fire collapses the congestion window back to
                // slow-start — the paper's "cold cwnd" penalty.
                self.metrics.inc("tcpsim.cwnd_resets");
                self.retransmit_una(cid, end);
            }
            TcpState::Closed => {}
        }
    }
}

/// The simulator: a [`Net`] plus the user's [`App`].
pub struct Sim<A: App> {
    net: Net,
    app: A,
}

impl<A: App> Sim<A> {
    /// Creates a simulator with the given experiment seed.
    pub fn new(seed: u64, app: A) -> Sim<A> {
        Sim {
            net: Net::new(seed),
            app,
        }
    }

    /// The network handle (open connections, set timers, read traces).
    pub fn net(&mut self) -> &mut Net {
        &mut self.net
    }

    /// Read-only application access.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Consumes the simulator, returning the application.
    pub fn into_app(self) -> A {
        self.app
    }

    /// Grants simultaneous mutable access to the application and the
    /// network — needed when scenario code wants to schedule work through
    /// app state (e.g. `world.schedule_query(net, ...)`).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut A, &mut Net) -> R) -> R {
        f(&mut self.app, &mut self.net)
    }

    fn drain_callbacks(&mut self) {
        while let Some(cb) = self.net.cbs.pop_front() {
            match cb {
                Cb::Established { conn, end } => self.app.on_established(&mut self.net, conn, end),
                Cb::Data { conn, end, spans } => self.app.on_data(&mut self.net, conn, end, &spans),
                Cb::Fin { conn, end } => self.app.on_fin(&mut self.net, conn, end),
                Cb::Timer { token } => self.app.on_timer(&mut self.net, token),
            }
        }
    }

    /// Runs until the event queue is empty. Panics if the event budget is
    /// exceeded (runaway-simulation guard).
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.net.q.peek_time() {
                Some(t) if t <= deadline => {}
                _ => break,
            }
            assert!(
                self.net.q.events_processed() < MAX_EVENTS,
                "event budget exceeded: simulation did not quiesce"
            );
            let (_, ev) = self.net.q.pop().unwrap();
            let conn = match ev {
                Ev::Deliver { conn, to, seg } => {
                    self.net.mix.deliver += 1;
                    self.net.handle_deliver(conn, to, seg);
                    Some(conn)
                }
                Ev::Rto { conn, end, seq } => {
                    self.net.mix.rto += 1;
                    if self.net.pop_timer(conn, end, TimerKind::Rto, seq) {
                        self.net.handle_rto(conn, end);
                    }
                    Some(conn)
                }
                Ev::DelAck { conn, end, seq } => {
                    self.net.mix.delack += 1;
                    if self.net.pop_timer(conn, end, TimerKind::DelAck, seq) {
                        self.net.send_ack_now(conn, end);
                    }
                    Some(conn)
                }
                Ev::AppTimer { token } => {
                    self.net.mix.app_timer += 1;
                    self.net.cbs.push_back(Cb::Timer { token });
                    None
                }
            };
            self.drain_callbacks();
            // Counted only now, so a connection released by one of the
            // callbacks above is reclaimed after they all ran.
            if let Some(conn) = conn {
                self.net.retire_event(conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple client/server app: A sends a request; B replies with a
    /// fixed-size response and closes. Used to exercise the whole stack.
    struct Echoish {
        request: u64,
        response: u64,
        established_at: Vec<(End, SimTime)>,
        data_events: Vec<(End, SimTime, u64)>,
        fins: Vec<(End, SimTime)>,
        request_done_at: Option<SimTime>,
        response_done_at: Option<SimTime>,
        got: u64,
        req_got: u64,
        timer_fired: Vec<u64>,
    }

    impl Echoish {
        fn new(request: u64, response: u64) -> Echoish {
            Echoish {
                request,
                response,
                established_at: Vec::new(),
                data_events: Vec::new(),
                fins: Vec::new(),
                request_done_at: None,
                response_done_at: None,
                got: 0,
                req_got: 0,
                timer_fired: Vec::new(),
            }
        }
    }

    impl App for Echoish {
        fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
            self.established_at.push((end, net.now()));
            if end == End::A {
                net.send(conn, End::A, self.request, Marker::Request, 1);
            }
        }

        fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
            let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
            self.data_events.push((end, net.now(), bytes));
            match end {
                End::B => {
                    self.req_got += bytes;
                    if self.req_got == self.request {
                        self.request_done_at = Some(net.now());
                        net.send(conn, End::B, self.response, Marker::Static, 2);
                        net.close(conn, End::B);
                    }
                }
                End::A => {
                    self.got += bytes;
                    if self.got == self.response {
                        self.response_done_at = Some(net.now());
                        net.close(conn, End::A);
                    }
                }
            }
        }

        fn on_fin(&mut self, net: &mut Net, _conn: ConnId, end: End) {
            self.fins.push((end, net.now()));
        }

        fn on_timer(&mut self, _net: &mut Net, token: u64) {
            self.timer_fired.push(token);
        }
    }

    fn run_transfer(rtt_ms: f64, request: u64, response: u64, loss: f64) -> Echoish {
        let mut sim = Sim::new(42, Echoish::new(request, response));
        let path = PathParams::lossy(rtt_ms, loss);
        sim.net().open(
            NodeId(1),
            NodeId(2),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        sim.into_app()
    }

    #[test]
    fn handshake_takes_one_rtt() {
        let app = run_transfer(100.0, 400, 1000, 0.0);
        // A establishes after one RTT (SYN + SYN-ACK).
        let (_, t_a) = app
            .established_at
            .iter()
            .find(|(e, _)| *e == End::A)
            .unwrap();
        let ms = t_a.as_millis_f64();
        assert!((ms - 100.0).abs() < 2.0, "established at {ms}ms");
    }

    #[test]
    fn request_arrives_half_rtt_after_established() {
        let app = run_transfer(100.0, 400, 1000, 0.0);
        let req_at = app.request_done_at.unwrap().as_millis_f64();
        // SYN(50) SYNACK(100) GET leaves ~100, arrives ~150.
        assert!((req_at - 150.0).abs() < 3.0, "request done at {req_at}ms");
    }

    #[test]
    fn response_completes_and_fin_handshake_closes_both() {
        let app = run_transfer(80.0, 400, 30_000, 0.0);
        assert_eq!(app.got, 30_000);
        assert!(app.response_done_at.is_some());
        assert_eq!(app.fins.len(), 2, "both sides saw a FIN");
    }

    #[test]
    fn transfer_is_deterministic() {
        let a = run_transfer(60.0, 400, 20_000, 0.0);
        let b = run_transfer(60.0, 400, 20_000, 0.0);
        assert_eq!(a.response_done_at.unwrap(), b.response_done_at.unwrap());
        assert_eq!(a.data_events.len(), b.data_events.len());
    }

    #[test]
    fn multi_window_response_paced_by_rtt() {
        // 30 KB at IW4, MSS 1460: rounds of ~4,6,9,... segments — at
        // least 3 RTT-spaced delivery rounds.
        let rtt = 100.0;
        let app = run_transfer(rtt, 400, 30_000, 0.0);
        let resp_done = app.response_done_at.unwrap().as_millis_f64();
        let req_done = app.request_done_at.unwrap().as_millis_f64();
        let delivery = resp_done - req_done;
        assert!(
            delivery > 2.0 * rtt,
            "30KB should need >2 window rounds, took {delivery}ms"
        );
        assert!(
            delivery < 6.0 * rtt,
            "delivery suspiciously slow: {delivery}ms"
        );
    }

    #[test]
    fn bigger_initial_window_speeds_up_delivery() {
        let run_with_iw = |iw: u32| {
            let mut sim = Sim::new(42, Echoish::new(400, 30_000));
            sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::ideal(100.0),
                TcpOptions::default(),
                TcpOptions::default().with_initial_window(iw),
                1,
            );
            sim.run();
            sim.into_app().response_done_at.unwrap()
        };
        let t_iw4 = run_with_iw(4);
        let t_iw10 = run_with_iw(10);
        assert!(t_iw10 < t_iw4, "IW10 {t_iw10:?} should beat IW4 {t_iw4:?}");
    }

    #[test]
    fn loss_free_run_has_no_drops_and_lossy_run_recovers() {
        let clean = run_transfer(40.0, 400, 50_000, 0.0);
        assert_eq!(clean.got, 50_000);
        // 5% loss: the transfer still completes, just slower.
        let lossy = run_transfer(40.0, 400, 50_000, 0.05);
        assert_eq!(lossy.got, 50_000, "all bytes must arrive despite loss");
        assert!(
            lossy.response_done_at.unwrap() > clean.response_done_at.unwrap(),
            "loss must cost time"
        );
    }

    #[test]
    fn heavy_loss_still_completes() {
        let app = run_transfer(30.0, 400, 20_000, 0.15);
        assert_eq!(app.got, 20_000);
    }

    #[test]
    fn lossy_transfer_pops_one_event_per_timer() {
        // A fixed lossy transfer with an RTO fire and a fast retransmit.
        // Completion time and recovery counters are the ones eager
        // timers (one queued event per arm) gave; only the idle timer
        // pops are gone. Eager timers popped 95 events here.
        let mut sim = Sim::new(42, Echoish::new(400, 50_000));
        sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::lossy(40.0, 0.05),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        assert_eq!(sim.app().got, 50_000);
        assert_eq!(
            sim.app().response_done_at.map(SimTime::as_nanos),
            Some(240_010_528)
        );
        let (a, b) = (
            sim.net().conn_stats(ConnId(0), End::A),
            sim.net().conn_stats(ConnId(0), End::B),
        );
        assert_eq!((a.timeouts, b.fast_retransmits), (1, 1));
        assert_eq!(sim.net().events_processed(), 79);
    }

    #[test]
    fn syn_loss_retries_after_initial_rto() {
        // Deterministically lose the first packet: loss = 1 would lose
        // everything, so instead use a path with 30% loss and a seed
        // known to drop the SYN... too brittle. Instead verify the RTO
        // path directly: a 3s-long run with 50% loss must still
        // establish eventually.
        let mut sim = Sim::new(7, Echoish::new(400, 1000));
        sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::lossy(20.0, 0.5),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run_until(SimTime::from_secs(120));
        let app = sim.into_app();
        assert!(
            app.established_at.iter().any(|(e, _)| *e == End::A),
            "connection must establish under 50% loss given retries"
        );
    }

    #[test]
    fn app_timers_fire_in_order() {
        struct TimerApp {
            fired: Vec<(u64, SimTime)>,
        }
        impl App for TimerApp {
            fn on_established(&mut self, _: &mut Net, _: ConnId, _: End) {}
            fn on_data(&mut self, _: &mut Net, _: ConnId, _: End, _: &[DeliveredSpan]) {}
            fn on_timer(&mut self, net: &mut Net, token: u64) {
                self.fired.push((token, net.now()));
                if token == 1 {
                    net.set_timer(SimDuration::from_millis(5), 3);
                }
            }
        }
        let mut sim = Sim::new(1, TimerApp { fired: Vec::new() });
        sim.net().set_timer(SimDuration::from_millis(10), 1);
        sim.net().set_timer(SimDuration::from_millis(20), 2);
        sim.run();
        let app = sim.into_app();
        assert_eq!(
            app.fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 3, 2]
        );
        assert_eq!(app.fired[0].1, SimTime::from_millis(10));
        assert_eq!(app.fired[1].1, SimTime::from_millis(15));
    }

    #[test]
    fn reserved_app_timers_fire_where_eager_ones_would() {
        // A chain of three timers 10 ms apart, each armed from its
        // predecessor's callback at a number reserved up front, must
        // interleave with eager timers armed after the reservation at
        // the same instants exactly as if the chain were armed eagerly.
        struct ChainApp {
            fired: Vec<u64>,
            first: u64,
        }
        impl App for ChainApp {
            fn on_established(&mut self, _: &mut Net, _: ConnId, _: End) {}
            fn on_data(&mut self, _: &mut Net, _: ConnId, _: End, _: &[DeliveredSpan]) {}
            fn on_timer(&mut self, net: &mut Net, token: u64) {
                self.fired.push(token);
                if token < 2 {
                    let at = net.now() + SimDuration::from_millis(10);
                    net.set_timer_reserved(at, self.first + token + 1, token + 1);
                }
            }
        }
        let mut sim = Sim::new(
            1,
            ChainApp {
                fired: Vec::new(),
                first: 0,
            },
        );
        let first = sim.net().reserve_timer_seqs(3);
        sim.app_mut().first = first;
        for (k, ms) in [(10, 10), (11, 20), (12, 30)] {
            sim.net().set_timer(SimDuration::from_millis(ms), k);
        }
        sim.net()
            .set_timer_reserved(SimTime::from_millis(10), first, 0);
        sim.run();
        assert_eq!(sim.app().fired, vec![0, 10, 1, 11, 2, 12]);
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let mut sim = Sim::new(42, Echoish::new(400, 100_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(80.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let srtt = sim.net().srtt_ms(cid, End::B).unwrap();
        assert!((srtt - 80.0).abs() < 8.0, "B srtt {srtt}");
    }

    #[test]
    fn cwnd_grows_during_bulk_transfer() {
        let mut sim = Sim::new(42, Echoish::new(400, 200_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let cwnd = sim.net().cwnd(cid, End::B);
        assert!(
            cwnd > 10.0 * 1460.0,
            "200KB clean transfer should grow cwnd well past IW, got {cwnd}"
        );
    }

    #[test]
    fn trace_captures_handshake_and_data() {
        let mut sim = Sim::new(42, Echoish::new(400, 5000));
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            77,
        );
        sim.run();
        let events = sim.net().release(cid).unwrap();
        assert!(!events.is_empty());
        // Only the opener's view is captured.
        assert!(events.iter().all(|e| e.node == NodeId(1) && e.conn == cid));
        // The client must have sent a SYN and received a SYN-ACK.
        assert!(events
            .iter()
            .any(|e| e.dir == PktDir::Tx && e.kind == PktKind::Syn));
        assert!(events
            .iter()
            .any(|e| e.dir == PktDir::Rx && e.kind == PktKind::SynAck));
        // Data flowed to the client with Static markers.
        assert!(events.iter().any(|e| e.dir == PktDir::Rx
            && e.kind == PktKind::Data
            && e.meta.iter().any(|m| m.marker == Marker::Static)));
        // Timestamps are non-decreasing.
        for (a, b) in events.iter().zip(events.iter().skip(1)) {
            assert!(a.t <= b.t);
        }
        assert_eq!(sim.net().trace_recorded(), events.len() as u64);
    }

    #[test]
    fn capture_is_opt_in_per_connection_and_stops_when_taken() {
        // A plain `open` captures nothing, and releasing a captured
        // connection mid-transfer hands over what was seen and stops
        // recording it.
        let mut sim = Sim::new(42, Echoish::new(400, 30_000));
        let plain = sim.net().open(
            NodeId(3),
            NodeId(4),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            2,
        );
        sim.run_until(SimTime::from_millis(120));
        let early = sim.net().release(cid).unwrap();
        assert!(early.iter().any(|e| e.kind == PktKind::Syn));
        assert_eq!(sim.net().trace_recorded(), early.len() as u64);
        sim.run();
        assert_eq!(sim.net().release(cid), None);
        assert_eq!(sim.net().release(plain), None);
        assert_eq!(
            sim.net().trace_recorded(),
            early.len() as u64,
            "a released capture records nothing more"
        );
    }

    #[test]
    fn serialization_delay_is_visible_on_slow_links() {
        // 1 Mbps: a 1500-byte packet takes 12ms to serialize; 10 KB
        // response (7 segments) costs ≥ 84ms of pure serialization.
        let mut sim = Sim::new(42, Echoish::new(400, 10_000));
        let path = PathParams {
            base_owd_ms: 1.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.0,
            bw_mbps: 1.0,
        };
        sim.net().open(
            NodeId(1),
            NodeId(2),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let app = sim.into_app();
        let done = app.response_done_at.unwrap().as_millis_f64();
        assert!(done > 84.0, "completion {done}ms too fast for 1 Mbps");
    }

    #[test]
    fn cubic_backs_off_less_and_finishes_lossy_bulk_sooner() {
        use crate::opts::CongAlgo;
        let run = |cong: CongAlgo| {
            let mut sim = Sim::new(11, Echoish::new(400, 2_000_000));
            sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::lossy(80.0, 0.004),
                TcpOptions::default(),
                TcpOptions::default().with_cong(cong),
                1,
            );
            sim.run();
            let app = sim.into_app();
            assert_eq!(app.got, 2_000_000);
            app.response_done_at.unwrap()
        };
        let reno = run(CongAlgo::Reno);
        let cubic = run(CongAlgo::Cubic);
        // Same seed, same loss pattern: CUBIC's gentler back-off (β=0.7)
        // and faster re-growth should not be slower, and typically wins
        // on a long lossy transfer.
        assert!(
            cubic <= reno,
            "cubic {cubic:?} should finish no later than reno {reno:?}"
        );
    }

    #[test]
    fn conn_stats_count_recovery_events() {
        let mut sim = Sim::new(5, Echoish::new(400, 300_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::lossy(40.0, 0.03),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let stats = sim.net().conn_stats(cid, End::B);
        assert!(
            stats.retransmitted_segs > 0,
            "3% loss on a 300KB transfer must retransmit"
        );
        assert!(stats.fast_retransmits + stats.timeouts > 0);
        // Clean path: zero recovery events.
        let mut clean = Sim::new(5, Echoish::new(400, 300_000));
        let c2 = clean.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(40.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        clean.run();
        assert_eq!(
            clean.net().conn_stats(c2, End::B),
            crate::endpoint::ConnStats::default()
        );
    }

    /// Runs the [`Echoish`] transfer on an ideal 100 ms path with the
    /// given scripted fault windows installed, returning the app and the
    /// server-side connection stats.
    fn run_faulty(response: u64, faults: Vec<LinkFault>) -> (Echoish, crate::endpoint::ConnStats) {
        let mut sim = Sim::new(42, Echoish::new(400, response));
        for f in faults {
            sim.net().add_link_fault(f);
        }
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(100.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let stats = sim.net().conn_stats(cid, End::B);
        (sim.into_app(), stats)
    }

    #[test]
    fn scripted_burst_loss_triggers_fast_retransmit_not_rto() {
        // Round 2 of the 60 KB response leaves the server at ~250 ms (ACKs
        // of the IW4 round arrive back at one RTT + handshake). A
        // degenerate Gilbert–Elliott episode with p_enter = p_exit =
        // bad_loss = 1 over [240 ms, 260 ms) deterministically drops every
        // *other* packet transmitted in the window, so the surviving
        // segments arrive out of order, generate three duplicate ACKs and
        // trigger fast retransmit — the RTO never fires.
        let burst = LinkFault::burst_loss(
            NodeId(1),
            NodeId(2),
            SimTime::from_millis(240),
            SimTime::from_millis(260),
            1.0,
            1.0,
            1.0,
        );
        let (clean, clean_stats) = run_faulty(60_000, vec![]);
        let (app, stats) = run_faulty(60_000, vec![burst.clone()]);
        assert_eq!(clean_stats, crate::endpoint::ConnStats::default());
        assert_eq!(app.got, 60_000, "all bytes must arrive despite the burst");
        assert_eq!(stats.fast_retransmits, 1);
        assert_eq!(stats.timeouts, 0, "dup-ACK recovery must beat the RTO");
        assert!(
            stats.retransmitted_segs >= 3,
            "alternating drops lose >=3 segs"
        );
        assert!(
            app.response_done_at.unwrap() > clean.response_done_at.unwrap(),
            "recovery must cost time"
        );
        // The scripted episode is deterministic: an identical run produces
        // an identical trajectory.
        let (again, again_stats) = run_faulty(60_000, vec![burst]);
        assert_eq!(app.response_done_at, again.response_done_at);
        assert_eq!(stats, again_stats);
    }

    #[test]
    fn scripted_blackhole_forces_rto_with_exponential_backoff() {
        // The lone request segment leaves the client at 100 ms (one RTT of
        // handshake). A blackhole starting at 95 ms swallows it; with no
        // other data in flight the only recovery is the retransmission
        // timer: initial RTO 300 ms (srtt 100 + 4·rttvar 50), then Karn
        // backoff doubles it, so retransmissions leave at 400 ms, 1000 ms,
        // 2200 ms, ... Each scripted window length therefore pins an exact
        // timeout count.
        let run = |end_ms: u64| {
            let mut sim = Sim::new(42, Echoish::new(400, 5_000));
            sim.net().add_link_fault(LinkFault::link_outage(
                NodeId(1),
                NodeId(2),
                SimTime::from_millis(95),
                SimTime::from_millis(end_ms),
            ));
            let cid = sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::ideal(100.0),
                TcpOptions::default(),
                TcpOptions::default(),
                1,
            );
            sim.run();
            let stats = sim.net().conn_stats(cid, End::A);
            let app = sim.into_app();
            assert_eq!(app.got, 5_000, "transfer must complete after the outage");
            assert_eq!(stats.fast_retransmits, 0, "a silent flight cannot dup-ACK");
            (stats.timeouts, app.request_done_at.unwrap())
        };
        // Window ends before the first RTO fire: one timeout, request
        // arrives at 400 + 50 ms.
        let (n1, t1) = run(110);
        assert_eq!(n1, 1);
        // Window swallows the first retransmission too: the second fire
        // waits a doubled RTO.
        let (n2, t2) = run(500);
        assert_eq!(n2, 2);
        // And a third, doubled again.
        let (n3, t3) = run(1100);
        assert_eq!(n3, 3);
        let gap1 = t2.saturating_since(t1).as_millis_f64();
        let gap2 = t3.saturating_since(t2).as_millis_f64();
        assert!((gap1 - 600.0).abs() < 1.0, "first backoff gap {gap1}ms");
        assert!((gap2 - 1200.0).abs() < 1.0, "second backoff gap {gap2}ms");
    }

    #[test]
    fn non_matching_fault_windows_are_inert() {
        // Faults scoped to other links/nodes — or to a window after the
        // transfer ends — must leave the trajectory byte-identical: the
        // fault layer draws from its own named RNG stream only for
        // packets actually inside a matching window.
        let (clean, clean_stats) = run_faulty(60_000, vec![]);
        let (faulted, faulted_stats) = run_faulty(
            60_000,
            vec![
                LinkFault::link_outage(
                    NodeId(7),
                    NodeId(8),
                    SimTime::ZERO,
                    SimTime::from_secs(3600),
                ),
                LinkFault::node_outage(NodeId(9), SimTime::ZERO, SimTime::from_secs(3600)),
                LinkFault::burst_loss(
                    NodeId(1),
                    NodeId(2),
                    SimTime::from_secs(1800),
                    SimTime::from_secs(1900),
                    0.5,
                    0.5,
                    1.0,
                ),
            ],
        );
        assert_eq!(clean.response_done_at, faulted.response_done_at);
        assert_eq!(clean.data_events, faulted.data_events);
        assert_eq!(clean_stats, faulted_stats);
    }

    #[test]
    fn aborted_connection_goes_silent_and_quiesces() {
        // Abort mid-transfer: no further callbacks (in particular no
        // on_fin), timers are disarmed, and the event queue drains
        // without the transfer completing.
        let mut sim = Sim::new(42, Echoish::new(400, 60_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(100.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run_until(SimTime::from_millis(220));
        sim.net().abort(cid);
        assert!(sim.net().is_aborted(cid));
        sim.run();
        let app = sim.into_app();
        assert!(app.got < 60_000, "aborted transfer must not complete");
        assert!(app.response_done_at.is_none());
        assert!(app.fins.is_empty(), "abort must not surface FIN callbacks");
    }

    #[test]
    fn send_and_close_after_abort_schedule_nothing() {
        let mut sim = Sim::new(42, Echoish::new(400, 60_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(100.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run_until(SimTime::from_millis(220));
        sim.net().abort(cid);
        let pending = sim.net().pending_events();
        sim.net().send(cid, End::A, 10_000, Marker::Request, 3);
        sim.net().close(cid, End::A);
        assert_eq!(
            sim.net().pending_events(),
            pending,
            "an aborted connection must not arm a retransmission timer"
        );
    }

    /// Runs one Echoish transfer to quiescence on `sim`'s net and
    /// returns its connection (the app is reset first, so transfers can
    /// repeat on one net).
    fn transfer_on(sim: &mut Sim<Echoish>, path: PathParams, session: u64) -> ConnId {
        *sim.app_mut() = Echoish::new(400, 5_000);
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            session,
        );
        sim.run();
        cid
    }

    #[test]
    fn sequential_released_transfers_reuse_one_slot() {
        let mut sim = Sim::new(42, Echoish::new(400, 5_000));
        for i in 0..1_000u64 {
            let cid = transfer_on(&mut sim, PathParams::ideal(20.0), i);
            assert_eq!(cid, ConnId(i as u32), "ids stay open ordinals");
            assert_eq!(sim.app().got, 5_000);
            assert!(sim.net().release(cid).is_some());
        }
        let hiwater = sim.net().take_metrics().gauge("tcpsim.conn_slots_hiwater");
        let (_, max) = hiwater.expect("the slot gauge is stamped");
        assert!(
            (1.0..=2.0).contains(&max),
            "1,000 transfers held {max} slots"
        );
    }

    #[test]
    fn reused_slot_replays_the_fresh_trajectory() {
        let path = || PathParams {
            base_owd_ms: 30.0,
            jitter_ms: Dist::Exponential { mean: 4.0 },
            loss: 0.05,
            bw_mbps: 10.0,
        };
        // Net A releases connection 0, so connection 1 reuses its slot;
        // net B keeps connection 0, so connection 1 gets a fresh slot.
        let mut a = Sim::new(9, Echoish::new(400, 5_000));
        let mut b = Sim::new(9, Echoish::new(400, 5_000));
        for sim in [&mut a, &mut b] {
            transfer_on(sim, path(), 100);
        }
        a.net().release(ConnId(0));
        assert!(a.net().is_aborted(ConnId(0)), "connection 0 was reclaimed");
        assert!(!b.net().is_aborted(ConnId(0)));
        let run = |sim: &mut Sim<Echoish>| {
            let cid = transfer_on(sim, path(), 101);
            assert_eq!(cid, ConnId(1));
            let capture = sim.net().release(cid).expect("captured");
            (sim.app().data_events.clone(), capture)
        };
        let (reused, fresh) = (run(&mut a), run(&mut b));
        assert!(reused.1.iter().any(|e| e.dir == PktDir::Drop), "path loses");
        assert_eq!(reused, fresh);
    }

    #[test]
    fn reclaimed_id_reads_aborted_and_releases_nothing() {
        let mut sim = Sim::new(42, Echoish::new(400, 30_000));
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        // Released mid-transfer: the transfer finishes, then the slot
        // is reclaimed when the connection's last queued event pops.
        sim.run_until(SimTime::from_millis(120));
        assert!(sim.net().release(cid).is_some());
        assert!(!sim.net().is_aborted(cid));
        sim.run();
        assert_eq!(sim.app().got, 30_000, "release does not cut a transfer");
        assert!(sim.net().is_aborted(cid));
        assert_eq!(sim.net().release(cid), None);
    }

    #[test]
    #[should_panic(expected = "connection 0 used after it was released and reclaimed")]
    fn send_on_a_reclaimed_id_panics_naming_it() {
        let mut sim = Sim::new(42, Echoish::new(400, 5_000));
        let cid = transfer_on(&mut sim, PathParams::ideal(20.0), 1);
        sim.net().release(cid);
        sim.net().send(cid, End::A, 100, Marker::Request, 1);
    }

    #[test]
    fn node_outage_blackholes_both_directions() {
        // An outage of the server node during the whole response window
        // stalls the transfer until the node recovers.
        let (clean, _) = run_faulty(5_000, vec![]);
        let (app, stats) = run_faulty(
            5_000,
            vec![LinkFault::node_outage(
                NodeId(2),
                SimTime::from_millis(140),
                SimTime::from_millis(600),
            )],
        );
        assert_eq!(app.got, 5_000);
        assert!(stats.timeouts >= 1, "outage must force at least one RTO");
        assert!(
            app.response_done_at.unwrap() > clean.response_done_at.unwrap(),
            "outage must delay completion"
        );
    }

    #[test]
    fn two_connections_are_independent() {
        struct TwoConn {
            done: Vec<(ConnId, SimTime)>,
        }
        impl App for TwoConn {
            fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
                if end == End::A {
                    net.send(conn, End::A, 400, Marker::Request, 1);
                }
            }
            fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, _s: &[DeliveredSpan]) {
                if end == End::B {
                    net.send(conn, End::B, 1000, Marker::Static, 2);
                } else {
                    self.done.push((conn, net.now()));
                }
            }
        }
        let mut sim = Sim::new(42, TwoConn { done: Vec::new() });
        let c1 = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(20.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        let c2 = sim.net().open(
            NodeId(3),
            NodeId(4),
            PathParams::ideal(200.0),
            TcpOptions::default(),
            TcpOptions::default(),
            2,
        );
        sim.run();
        let app = sim.into_app();
        assert_eq!(app.done.len(), 2);
        let t1 = app.done.iter().find(|(c, _)| *c == c1).unwrap().1;
        let t2 = app.done.iter().find(|(c, _)| *c == c2).unwrap().1;
        assert!(t1 < t2, "short-RTT conn must finish first");
    }
}
