//! Integration: TCP mechanics the paper's model leans on, observed
//! through packet traces rather than internal state.

use simcore::dist::Dist;
use simcore::time::{SimDuration, SimTime};
use tcpsim::{
    App, CongAlgo, ConnId, DeliveredSpan, End, Marker, Net, NodeId, PathParams, PktDir, PktKind,
    Sim, TcpOptions,
};

/// Server sends `response` bytes on connect; the client app records
/// nothing — traces carry the evidence.
struct OneShot {
    response: u64,
    request: u64,
    got: u64,
}
impl App for OneShot {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            net.send(conn, End::A, self.request, Marker::Request, 1);
        }
    }
    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
        match end {
            End::B => {
                if net.delivered_bytes(conn, End::B) >= self.request {
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
            got: 0,
        },
    );
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathParams::ideal(rtt_ms),
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
            got: 0,
        },
    );
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathParams::ideal(60.0),
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
            got: 0,
        },
    );
    let cid = sim.net().open_captured(
        NodeId(1),
        NodeId(2),
        PathParams {
            base_owd_ms: 20.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.6,
            bw_mbps: 1000.0,
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
fn idle_reset_restarts_slow_start_on_stale_connections() {
    // Two bursts 30 s apart on one connection. With idle_reset the
    // second burst's first flight is IW-sized again; without, it rides
    // the grown window.
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
        fn on_data(&mut self, _: &mut Net, _: ConnId, _: End, _: &[DeliveredSpan]) {}
        fn on_timer(&mut self, net: &mut Net, token: u64) {
            if !self.second_sent {
                self.second_sent = true;
                net.send(ConnId(token as u32), End::B, 120_000, Marker::Dynamic, 2);
            }
        }
    }
    let first_flight_of_second_burst = |idle_reset: bool| -> usize {
        let opts_b = if idle_reset {
            TcpOptions::default().with_idle_reset()
        } else {
            TcpOptions::default()
        };
        let mut sim = Sim::new(13, TwoBursts { second_sent: false });
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(80.0),
            TcpOptions::default(),
            opts_b,
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
        second
            .iter()
            .filter(|t| t.saturating_since(t0) < SimDuration::from_millis(30))
            .count()
    };
    let with_reset = first_flight_of_second_burst(true);
    let without = first_flight_of_second_burst(false);
    assert_eq!(with_reset, 4, "idle reset returns to IW");
    assert!(
        without >= 10,
        "warm window should carry a big burst, got {without}"
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
