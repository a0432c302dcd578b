//! Integration: TCP mechanics the paper's model leans on, observed
//! through packet traces rather than internal state.

use nettopo::PathModel;
use simcore::dist::Dist;
use simcore::time::{SimDuration, SimTime};
use tcpsim::{
    App, CongAlgo, ConnId, End, Marker, MetaSpan, Net, NodeId, PktDir, PktKind, Sim, TcpOptions,
};

/// Server sends `response` bytes once the request has arrived; the
/// client app only counts them — traces carry the evidence.
struct OneShot {
    response: u64,
    request: u64,
    request_got: u64,
    got: u64,
}
impl App for OneShot {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            net.send(conn, End::A, self.request, Marker::Request, 1);
        }
    }
    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, bytes: u64) {
        match end {
            End::B => {
                self.request_got += bytes;
                if self.request_got >= self.request {
                    net.send(conn, End::B, self.response, Marker::Static, 2);
                }
            }
            End::A => self.got += bytes,
        }
    }
}

fn trace_run(
    rtt_ms: f64,
    request: u64,
    response: u64,
    opts_b: TcpOptions,
) -> (tcpsim::Capture, u64) {
    let mut sim = Sim::new(
        3,
        OneShot {
            response,
            request,
            request_got: 0,
            got: 0,
        },
    );
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathModel::ideal(rtt_ms),
        TcpOptions::default(),
        opts_b,
        9,
    );
    sim.run();
    let got = sim.app().got;
    let trace = sim.net().release(cid).unwrap();
    (trace, got)
}

#[test]
fn initial_burst_is_exactly_the_initial_window() {
    // 100 KB response at IW4: the first flight from the server must be
    // exactly 4 MSS segments, then a one-RTT pause for ACKs.
    let (trace, got) = trace_run(100.0, 400, 100_000, TcpOptions::default());
    assert_eq!(got, 100_000);
    let data_rx: Vec<tcpsim::PktEvent> = trace
        .iter()
        .filter(|e| e.node == NodeId(1) && e.dir == PktDir::Rx && e.kind == PktKind::Data)
        .collect();
    // First burst: packets within a few ms of the first data arrival.
    let t0 = data_rx[0].t;
    let first_burst = data_rx
        .iter()
        .filter(|e| e.t.saturating_since(t0) < SimDuration::from_millis(20))
        .count();
    assert_eq!(first_burst, 4, "IW=4 must bound the first flight");
    // The next packet arrives ≈ one RTT later (ACK-clocked).
    let gap = data_rx[4].t.saturating_since(data_rx[3].t).as_millis_f64();
    assert!((gap - 100.0).abs() < 15.0, "round gap {gap}ms");
}

#[test]
fn slow_start_doubles_flight_sizes_per_round() {
    let (trace, _) = trace_run(120.0, 400, 200_000, TcpOptions::default());
    let data_rx: Vec<SimTime> = trace
        .iter()
        .filter(|e| e.node == NodeId(1) && e.dir == PktDir::Rx && e.kind == PktKind::Data)
        .map(|e| e.t)
        .collect();
    // Cluster arrivals into RTT rounds (gap > 40ms starts a new round).
    let mut rounds: Vec<usize> = vec![0];
    for w in data_rx.windows(2) {
        if w[1].saturating_since(w[0]) > SimDuration::from_millis(40) {
            rounds.push(0);
        }
        *rounds.last_mut().unwrap() += 1;
    }
    *rounds.first_mut().unwrap() += 1; // count the first packet
    assert!(rounds.len() >= 4, "rounds {rounds:?}");
    // Geometric-ish growth with delayed ACKs (×1.5 per round at least).
    for w in rounds.windows(2).take(3) {
        assert!(
            w[1] as f64 >= w[0] as f64 * 1.4,
            "slow start should grow flights: {rounds:?}"
        );
    }
}

#[test]
fn receive_window_caps_the_flight() {
    // An 8 KB receive window bounds the in-flight data no matter how
    // large cwnd grows — the paper's "C depends on the TCP window size"
    // knob.
    let opts_b = TcpOptions::default();
    let opts_a = TcpOptions {
        rwnd: 8 * 1024,
        ..TcpOptions::default()
    };
    let mut sim = Sim::new(
        4,
        OneShot {
            response: 150_000,
            request: 400,
            request_got: 0,
            got: 0,
        },
    );
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathModel::ideal(60.0),
        opts_a,
        opts_b,
        9,
    );
    sim.run();
    assert_eq!(sim.app().got, 150_000);
    let trace = sim.net().release(cid).unwrap();
    // Max outstanding bytes observed at the client: max seq_end received
    // minus max ack the client had sent before that arrival never
    // exceeds rwnd. Simpler proxy: count packets per RTT round ≤ 6
    // (8 KB / 1460 ≈ 5.6).
    let data_rx: Vec<SimTime> = trace
        .iter()
        .filter(|e| e.node == NodeId(1) && e.dir == PktDir::Rx && e.kind == PktKind::Data)
        .map(|e| e.t)
        .collect();
    let mut round = 0usize;
    let mut max_round = 0usize;
    for w in data_rx.windows(2) {
        if w[1].saturating_since(w[0]) > SimDuration::from_millis(25) {
            max_round = max_round.max(round + 1);
            round = 0;
        } else {
            round += 1;
        }
    }
    assert!(max_round <= 6, "flight of {max_round} exceeds the 8KB rwnd");
}

#[test]
fn rto_backoff_doubles_under_blackout_and_recovers() {
    // 60% loss: many RTOs. The SYN retransmission intervals must grow
    // (exponential backoff) — read them from the trace.
    let mut sim = Sim::new(
        11,
        OneShot {
            response: 5_000,
            request: 400,
            request_got: 0,
            got: 0,
        },
    );
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathModel {
            base_owd_ms: 20.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.6,
            bw_mbps: 1000.0,
            distance_miles: 0.0,
        },
        TcpOptions::default(),
        TcpOptions::default(),
        9,
    );
    sim.run_until(SimTime::from_secs(300));
    let trace = sim.net().release(cid).unwrap();
    let syn_tx: Vec<SimTime> = trace
        .iter()
        .filter(|e| e.node == NodeId(1) && e.kind == PktKind::Syn && e.dir == PktDir::Tx)
        .map(|e| e.t)
        .collect();
    if syn_tx.len() >= 3 {
        let g1 = syn_tx[1].saturating_since(syn_tx[0]).as_millis_f64();
        let g2 = syn_tx[2].saturating_since(syn_tx[1]).as_millis_f64();
        assert!(
            (g1 - 1000.0).abs() < 50.0,
            "first retry after initial RTO, got {g1}"
        );
        assert!(
            (g2 - 2.0 * g1).abs() < 100.0,
            "backoff should double: {g1} → {g2}"
        );
    }
}

#[test]
fn idle_persistent_connection_keeps_its_warm_window() {
    // Two bursts 30 s apart on one connection: the second burst's first
    // flight rides the window the first grew, not the initial window
    // (no slow-start-after-idle, the warm-connection premise of split
    // TCP).
    struct TwoBursts {
        second_sent: bool,
    }
    impl App for TwoBursts {
        fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
            if end == End::B {
                net.send(conn, End::B, 120_000, Marker::Static, 1);
                net.set_timer(SimDuration::from_secs(30), conn.0 as u64);
            }
        }
        fn on_data(&mut self, _: &mut Net, _: ConnId, _: End, _: u64) {}
        fn on_timer(&mut self, net: &mut Net, token: u64) {
            if !self.second_sent {
                self.second_sent = true;
                net.send(ConnId(token as u32), End::B, 120_000, Marker::Dynamic, 2);
            }
        }
    }
    let mut sim = Sim::new(13, TwoBursts { second_sent: false });
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathModel::ideal(80.0),
        TcpOptions::default(),
        TcpOptions::default(),
        9,
    );
    sim.run();
    let trace = sim.net().release(cid).unwrap();
    let second: Vec<SimTime> = trace
        .iter()
        .filter(|e| {
            e.node == NodeId(1)
                && e.dir == PktDir::Rx
                && e.kind == PktKind::Data
                && e.meta.iter().any(|m| m.marker == Marker::Dynamic)
        })
        .map(|e| e.t)
        .collect();
    let t0 = second[0];
    let first_flight = second
        .iter()
        .filter(|t| t.saturating_since(t0) < SimDuration::from_millis(30))
        .count();
    assert!(
        first_flight >= 10,
        "warm window should carry a big burst, got {first_flight}"
    );
}

#[test]
fn cubic_and_reno_identical_during_slow_start() {
    // Search responses live in slow start: the two algorithms must
    // produce byte-identical traces on a clean path.
    let run = |cong: CongAlgo| {
        let (trace, _) = trace_run(90.0, 400, 40_000, TcpOptions::default().with_cong(cong));
        trace
            .iter()
            .filter(|e| e.node == NodeId(1) && e.dir == PktDir::Rx)
            .map(|e| (e.t, e.seq, e.len))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(CongAlgo::Reno), run(CongAlgo::Cubic));
}

// ---------- Segment boundaries of a two-portion response ----------

/// Wire size of the GET for a 10-character query.
const SPLIT_REQUEST: u64 = 322;

/// The client sends a request; once all of it has arrived, the server
/// answers with a static portion then a dynamic portion in one callback,
/// so their boundary lands wherever segmentation puts it.
struct SplitExchange {
    static_bytes: u64,
    dynamic_bytes: u64,
    request_got: u64,
    replied: bool,
}

impl App for SplitExchange {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            net.send(conn, End::A, SPLIT_REQUEST, Marker::Request, 2_000);
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, bytes: u64) {
        if end == End::B {
            self.request_got += bytes;
            if self.request_got >= SPLIT_REQUEST && !self.replied {
                self.replied = true;
                net.send(conn, End::B, self.static_bytes, Marker::Static, 1);
                net.send(conn, End::B, self.dynamic_bytes, Marker::Dynamic, 5_000);
                net.close(conn, End::B);
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            net.close(conn, End::A);
        }
    }
}

/// Runs one exchange and checks what every split must satisfy: the
/// request and both portions arrive whole, delivery is gapless, and the
/// static→dynamic transition happens once, at the byte where the
/// portions meet. Returns the spans of the data packets the client
/// received, in its capture's order: the path is ideal, so no packet is
/// lost or repeated, and these are exactly the bytes delivered to it.
fn split_exchange(static_bytes: u64, dynamic_bytes: u64) -> Vec<MetaSpan> {
    let app = SplitExchange {
        static_bytes,
        dynamic_bytes,
        request_got: 0,
        replied: false,
    };
    let mut sim = Sim::new(11, app);
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathModel::ideal(30.0),
        TcpOptions::default(),
        TcpOptions::default(),
        1,
    );
    sim.run();
    let capture = sim.net().release(cid).unwrap();
    assert_eq!(sim.app().request_got, SPLIT_REQUEST);
    let spans: Vec<MetaSpan> = capture
        .iter()
        .filter(|e| e.dir == PktDir::Rx && e.kind == PktKind::Data)
        .flat_map(|e| e.meta.iter().copied())
        .collect();
    let marker_bytes = |m: Marker| -> u64 {
        spans
            .iter()
            .filter(|s| s.marker == m)
            .map(|s| s.len as u64)
            .sum()
    };
    assert_eq!(marker_bytes(Marker::Static), static_bytes);
    assert_eq!(marker_bytes(Marker::Dynamic), dynamic_bytes);
    let mut offset = 0u64;
    let mut dynamic_began = false;
    for s in &spans {
        assert_eq!(s.offset, offset, "delivery must be gapless");
        offset += s.len as u64;
        match s.marker {
            Marker::Static => assert!(
                !dynamic_began,
                "static span after the dynamic portion began"
            ),
            Marker::Dynamic => dynamic_began = true,
            other => panic!("unexpected marker {other:?} in the response stream"),
        }
    }
    assert_eq!(offset, static_bytes + dynamic_bytes);
    spans
}

#[test]
fn single_segment_response_per_portion() {
    // Both portions fit one MSS: one span each, the boundary exactly at
    // the static size.
    let lens: Vec<u32> = split_exchange(300, 200).iter().map(|s| s.len).collect();
    assert_eq!(
        lens,
        [300, 200],
        "sub-MSS portions must arrive as exactly one span each"
    );
}

#[test]
fn portion_boundary_inside_a_window_round() {
    // The static portion is one MSS plus one byte, so it ends mid-window:
    // segmentation must cut a 1-byte tail rather than bleed dynamic
    // bytes into a static span.
    let spans = split_exchange(1_461, 2_900);
    assert!(
        spans
            .iter()
            .any(|s| s.marker == Marker::Static && s.len == 1),
        "the unaligned static tail must arrive as its own 1-byte span"
    );
}

#[test]
fn multi_window_static_prefix_ends_at_the_portion_boundary() {
    // Portions far beyond the initial window: the static portion needs
    // several congestion-window rounds, and every byte before the
    // boundary still carries the static marker.
    let spans = split_exchange(20_000, 30_000);
    let static_prefix: u64 = spans
        .iter()
        .take_while(|s| s.marker == Marker::Static)
        .map(|s| s.len as u64)
        .sum();
    assert_eq!(
        static_prefix, 20_000,
        "the static prefix must end exactly at the portion boundary"
    );
    assert!(
        spans.len() > 10,
        "a 50 kB response must span many segments (got {})",
        spans.len()
    );
}
